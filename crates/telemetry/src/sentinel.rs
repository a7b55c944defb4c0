//! The noise-aware performance-regression sentinel.
//!
//! Compares the most recent window of ledger records against a committed
//! baseline (`results/baseline.json`). Two rule kinds:
//!
//! * **stage latency** — the median stage wall time over the window must
//!   stay under `median_ms * max_ratio`. Median-of-N absorbs one-off
//!   hiccups; the relative threshold absorbs machine differences (a CI
//!   runner is slower than a dev box, but not 50x slower).
//! * **hit rate** — a ratio of two counters summed over the window
//!   (e.g. `store-hits+dedup-hits` over `jobs`) must stay at or above a
//!   floor. Counter sums are machine-independent, so these floors can
//!   be tight.
//!
//! The baseline file is JSONL, one rule per line, written either by
//! hand or by [`Baseline::from_records`] (`hlsb-bench report
//! --write-baseline`). `design` may be `*` to match every design of the
//! rule's tool.

use hlsb_findings::json::{self, JsonError};
use hlsb_findings::json_escape;

use crate::ledger::RunRecord;

/// A stage-latency rule: the median of `stage`'s wall time over the
/// window must stay under `median_ms * max_ratio`.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRule {
    /// Tool whose records the rule matches (`flow`, `serve-wave`, ...).
    pub tool: String,
    /// Design name, or `*` for any design of the tool.
    pub design: String,
    /// Stage name inside the record.
    pub stage: String,
    /// Baseline median wall time, milliseconds.
    pub median_ms: f64,
    /// Allowed ratio of current median over baseline median.
    pub max_ratio: f64,
}

/// A hit-rate rule: `sum(hits) / sum(total)` over the window must be at
/// least `min_rate`. `hits` may sum several counters with `+`
/// (`store-hits+dedup-hits`).
#[derive(Debug, Clone, PartialEq)]
pub struct RateRule {
    /// Tool whose records the rule matches.
    pub tool: String,
    /// Design name, or `*` for any design of the tool.
    pub design: String,
    /// `+`-joined counter names whose sum is the numerator.
    pub hits: String,
    /// Counter name whose sum is the denominator.
    pub total: String,
    /// Minimum acceptable rate in `[0, 1]`.
    pub min_rate: f64,
}

/// A parsed baseline: every rule the sentinel checks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    /// Stage-latency rules.
    pub stages: Vec<StageRule>,
    /// Hit-rate rules.
    pub rates: Vec<RateRule>,
}

impl Baseline {
    /// Parses a baseline file: one JSON rule per line, `kind` selecting
    /// `stage` or `rate`. Blank lines and `#` comments are skipped.
    ///
    /// # Errors
    ///
    /// A description of the first malformed line.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut baseline = Baseline::default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            json::decode(line, |o| {
                match o.req::<String>("kind")?.as_str() {
                    "stage" => baseline.stages.push(StageRule {
                        tool: o.req("tool")?,
                        design: o.req("design")?,
                        stage: o.req("stage")?,
                        median_ms: o.req("median_ms")?,
                        max_ratio: o.req("max_ratio")?,
                    }),
                    "rate" => baseline.rates.push(RateRule {
                        tool: o.req("tool")?,
                        design: o.req("design")?,
                        hits: o.req("hits")?,
                        total: o.req("total")?,
                        min_rate: o.req("min_rate")?,
                    }),
                    _ => return Err(JsonError::Mistyped("kind".to_string(), "`stage` or `rate`")),
                }
                Ok(())
            })
            .map_err(|e| format!("line {}: {e}: {line}", lineno + 1))?;
        }
        Ok(baseline)
    }

    /// Renders the baseline back to its JSONL form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.stages {
            out.push_str(&format!(
                "{{\"kind\":\"stage\",\"tool\":\"{}\",\"design\":\"{}\",\
                 \"stage\":\"{}\",\"median_ms\":{:?},\"max_ratio\":{:?}}}\n",
                json_escape(&r.tool),
                json_escape(&r.design),
                json_escape(&r.stage),
                r.median_ms,
                r.max_ratio,
            ));
        }
        for r in &self.rates {
            out.push_str(&format!(
                "{{\"kind\":\"rate\",\"tool\":\"{}\",\"design\":\"{}\",\
                 \"hits\":\"{}\",\"total\":\"{}\",\"min_rate\":{:?}}}\n",
                json_escape(&r.tool),
                json_escape(&r.design),
                json_escape(&r.hits),
                json_escape(&r.total),
                r.min_rate,
            ));
        }
        out
    }

    /// Derives a baseline from ledger records: one stage rule per
    /// `(tool, design, stage)` seen in successful records (median over
    /// the last `window` matches, threshold `max_ratio`), plus one
    /// `store-hits+dedup-hits / jobs` rate rule per serving tool at
    /// half the observed rate (floored generously — counter rates are
    /// exact, but job mixes drift).
    pub fn from_records(records: &[RunRecord], window: usize, max_ratio: f64) -> Baseline {
        let mut baseline = Baseline::default();
        let mut groups: Vec<(String, String, String)> = Vec::new();
        for rec in records.iter().filter(|r| r.status == "ok") {
            for (stage, _) in &rec.stages {
                let key = (rec.tool.clone(), rec.design.clone(), stage.clone());
                if !groups.contains(&key) {
                    groups.push(key);
                }
            }
        }
        for (tool, design, stage) in groups {
            let samples = stage_samples(records, &tool, &design, &stage, window);
            if let Some(med) = median(&samples) {
                baseline.stages.push(StageRule {
                    tool,
                    design,
                    stage,
                    median_ms: med,
                    max_ratio,
                });
            }
        }
        let mut tools: Vec<&str> = records.iter().map(|r| r.tool.as_str()).collect();
        tools.sort_unstable();
        tools.dedup();
        for tool in tools {
            let rule = RateRule {
                tool: tool.to_string(),
                design: "*".to_string(),
                hits: "store-hits+dedup-hits".to_string(),
                total: "jobs".to_string(),
                min_rate: 0.0,
            };
            let (hits, total) = rate_sums(records, &rule, window);
            if total > 0 {
                baseline.rates.push(RateRule {
                    min_rate: hits as f64 / total as f64 * 0.5,
                    ..rule
                });
            }
        }
        baseline
    }
}

/// One rule's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// Human description of what was checked.
    pub what: String,
    /// Measured value (median ms, or rate).
    pub current: f64,
    /// The limit it was held against.
    pub limit: f64,
    /// Number of ledger records the measurement came from.
    pub samples: usize,
    /// Whether the rule passed.
    pub ok: bool,
}

/// A full sentinel run: every rule's outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SentinelReport {
    /// One outcome per baseline rule, stage rules first.
    pub checks: Vec<CheckOutcome>,
}

impl SentinelReport {
    /// Number of failed rules.
    pub fn regressions(&self) -> usize {
        self.checks.iter().filter(|c| !c.ok).count()
    }

    /// Aligned human rendering, one line per rule.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            out.push_str(&format!(
                "{} {} (current {:.3}, limit {:.3}, n={})\n",
                if c.ok { "ok  " } else { "FAIL" },
                c.what,
                c.current,
                c.limit,
                c.samples,
            ));
        }
        out.push_str(&format!(
            "{} rules, {} regressions\n",
            self.checks.len(),
            self.regressions()
        ));
        out
    }
}

fn matches(rec: &RunRecord, tool: &str, design: &str) -> bool {
    rec.tool == tool && (design == "*" || rec.design == design)
}

/// The last `window` wall-time samples of `stage` over matching
/// successful records (file order — the window is the most recent N).
fn stage_samples(
    records: &[RunRecord],
    tool: &str,
    design: &str,
    stage: &str,
    window: usize,
) -> Vec<f64> {
    let mut samples: Vec<f64> = records
        .iter()
        .filter(|r| r.status == "ok" && matches(r, tool, design))
        .filter_map(|r| r.stage_ms(stage))
        .collect();
    let keep = window.max(1).min(samples.len());
    samples.split_off(samples.len() - keep)
}

/// Hit/total counter sums over the rule's window.
fn rate_sums(records: &[RunRecord], rule: &RateRule, window: usize) -> (u64, u64) {
    let matching: Vec<&RunRecord> = records
        .iter()
        .filter(|r| matches(r, &rule.tool, &rule.design))
        .collect();
    let keep = window.max(1).min(matching.len());
    let recent = &matching[matching.len() - keep..];
    let hits = recent
        .iter()
        .map(|r| rule.hits.split('+').map(|c| r.counter(c)).sum::<u64>())
        .sum();
    let total = recent.iter().map(|r| r.counter(&rule.total)).sum();
    (hits, total)
}

fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Checks every baseline rule against the most recent `window` matching
/// records. A rule with no matching records **fails** — a silent gap in
/// the ledger is itself a regression of the telemetry.
pub fn check(records: &[RunRecord], baseline: &Baseline, window: usize) -> SentinelReport {
    let mut report = SentinelReport::default();
    for rule in &baseline.stages {
        let samples = stage_samples(records, &rule.tool, &rule.design, &rule.stage, window);
        let limit = rule.median_ms * rule.max_ratio;
        let what = format!(
            "stage {}/{}/{} median ms",
            rule.tool, rule.design, rule.stage
        );
        match median(&samples) {
            Some(current) => report.checks.push(CheckOutcome {
                what,
                current,
                limit,
                samples: samples.len(),
                ok: current <= limit,
            }),
            None => report.checks.push(CheckOutcome {
                what: format!("{what} (no ledger records)"),
                current: f64::NAN,
                limit,
                samples: 0,
                ok: false,
            }),
        }
    }
    for rule in &baseline.rates {
        let (hits, total) = rate_sums(records, rule, window);
        let what = format!(
            "rate {}/{} {} over {}",
            rule.tool, rule.design, rule.hits, rule.total
        );
        if total == 0 {
            report.checks.push(CheckOutcome {
                what: format!("{what} (no ledger records)"),
                current: f64::NAN,
                limit: rule.min_rate,
                samples: 0,
                ok: false,
            });
        } else {
            let current = hits as f64 / total as f64;
            report.checks.push(CheckOutcome {
                what,
                current,
                limit: rule.min_rate,
                samples: total as usize,
                ok: current >= rule.min_rate,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow_record(design: &str, schedule_ms: f64, implement_ms: f64) -> RunRecord {
        let mut rec = RunRecord::new("flow", design, 1, "ok", schedule_ms + implement_ms);
        rec.add_stage("schedule", schedule_ms);
        rec.add_stage("implement", implement_ms);
        rec.add_count("executions", 1);
        rec
    }

    fn wave_record(jobs: u64, store: u64, dedup: u64) -> RunRecord {
        let mut rec = RunRecord::new("serve-wave", "wave-0", 0, "ok", 5.0);
        rec.add_count("jobs", jobs);
        rec.add_count("store-hits", store);
        rec.add_count("dedup-hits", dedup);
        rec
    }

    #[test]
    fn baseline_round_trips_and_skips_comments() {
        let baseline = Baseline {
            stages: vec![StageRule {
                tool: "flow".into(),
                design: "lstm_gate".into(),
                stage: "implement".into(),
                median_ms: 12.5,
                max_ratio: 4.0,
            }],
            rates: vec![RateRule {
                tool: "serve-wave".into(),
                design: "*".into(),
                hits: "store-hits+dedup-hits".into(),
                total: "jobs".into(),
                min_rate: 0.45,
            }],
        };
        let text = format!("# committed baseline\n\n{}", baseline.render());
        let back = Baseline::parse(&text).expect("parses");
        assert_eq!(back, baseline);
        assert!(Baseline::parse("{\"kind\":\"nope\"}").is_err());
        assert!(Baseline::parse("not json").is_err());
    }

    #[test]
    fn planted_2x_regression_is_detected_and_clean_run_passes() {
        // Five reference runs with schedule ~1ms, implement ~10ms.
        let reference: Vec<RunRecord> = (0..5)
            .map(|i| flow_record("d", 1.0 + 0.01 * i as f64, 10.0 + 0.1 * i as f64))
            .collect();
        let baseline = Baseline::from_records(&reference, 5, 1.5);
        assert_eq!(baseline.stages.len(), 2, "schedule + implement rules");

        // Unmodified run: passes.
        let clean = check(&reference, &baseline, 5);
        assert_eq!(clean.regressions(), 0, "{}", clean.render());

        // Plant a 2x schedule regression; implement stays put.
        let doctored: Vec<RunRecord> = reference
            .iter()
            .map(|r| {
                let mut d = r.clone();
                for (name, ms) in &mut d.stages {
                    if name == "schedule" {
                        *ms *= 2.0;
                    }
                }
                d
            })
            .collect();
        let report = check(&doctored, &baseline, 5);
        assert_eq!(report.regressions(), 1, "{}", report.render());
        let failed = report.checks.iter().find(|c| !c.ok).unwrap();
        assert!(failed.what.contains("schedule"), "{}", failed.what);
    }

    #[test]
    fn median_of_n_absorbs_one_hiccup() {
        let baseline = Baseline::from_records(
            &(0..5)
                .map(|_| flow_record("d", 1.0, 10.0))
                .collect::<Vec<_>>(),
            5,
            1.5,
        );
        // One 10x outlier among five runs: the median barely moves.
        let mut noisy: Vec<RunRecord> = (0..4).map(|_| flow_record("d", 1.0, 10.0)).collect();
        noisy.push(flow_record("d", 10.0, 10.0));
        let report = check(&noisy, &baseline, 5);
        assert_eq!(report.regressions(), 0, "{}", report.render());
    }

    #[test]
    fn window_uses_only_recent_records() {
        let baseline = Baseline::from_records(
            &(0..3)
                .map(|_| flow_record("d", 1.0, 10.0))
                .collect::<Vec<_>>(),
            5,
            1.5,
        );
        // Old records are slow, the recent window is fine.
        let mut history: Vec<RunRecord> = (0..10).map(|_| flow_record("d", 50.0, 10.0)).collect();
        history.extend((0..5).map(|_| flow_record("d", 1.0, 10.0)));
        assert_eq!(check(&history, &baseline, 5).regressions(), 0);
        // And the reverse regresses.
        let mut history: Vec<RunRecord> = (0..10).map(|_| flow_record("d", 1.0, 10.0)).collect();
        history.extend((0..5).map(|_| flow_record("d", 50.0, 10.0)));
        assert!(check(&history, &baseline, 5).regressions() > 0);
    }

    #[test]
    fn hit_rate_floor_and_missing_data_fail() {
        let baseline = Baseline {
            stages: Vec::new(),
            rates: vec![RateRule {
                tool: "serve-wave".into(),
                design: "*".into(),
                hits: "store-hits+dedup-hits".into(),
                total: "jobs".into(),
                min_rate: 0.4,
            }],
        };
        // 10 jobs, 3 store + 2 dedup = 0.5 >= 0.4: ok.
        let good = vec![wave_record(6, 3, 0), wave_record(4, 0, 2)];
        assert_eq!(check(&good, &baseline, 5).regressions(), 0);
        // 10 jobs, 2 hits = 0.2 < 0.4: regression.
        let bad = vec![wave_record(10, 2, 0)];
        assert_eq!(check(&bad, &baseline, 5).regressions(), 1);
        // No serve-wave records at all: the gap itself fails.
        let empty = check(&[], &baseline, 5);
        assert_eq!(empty.regressions(), 1);
        assert!(empty.render().contains("no ledger records"));
    }

    #[test]
    fn rejected_and_failed_runs_never_skew_latency_medians() {
        let mut reference: Vec<RunRecord> = (0..5).map(|_| flow_record("d", 1.0, 10.0)).collect();
        let baseline = Baseline::from_records(&reference, 5, 1.5);
        // A failed run with a pathological stage time is ignored.
        let mut broken = flow_record("d", 500.0, 500.0);
        broken.status = "failed".into();
        reference.push(broken);
        assert_eq!(check(&reference, &baseline, 5).regressions(), 0);
    }
}
