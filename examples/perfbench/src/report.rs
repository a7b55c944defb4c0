//! Metric definitions, the one-line JSON result, and the tables the
//! `all` mode prints. `BENCHMARK.json` at the repository root is
//! [`schema`]'s output; a test keeps the two equal.

use std::fmt::Write as _;

use crate::harness::{self, Outcome, CHECK_LAYERS, PIPELINE_LAYERS};
use crate::stats::{geomean, median, relative_iqr, tail_percentile};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric. End-to-end metrics carry the share of the
/// parent's median by which they may worsen before a change counts as
/// a regression; per-layer metrics carry none.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> Def {
    Def {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, reported by every workload from its
/// untraced rounds.
pub fn end_to_end() -> Vec<Def> {
    use Better::Lower;
    vec![
        def("setup_s", "s", Lower, Some(0.25)),
        def("wall_s", "s", Lower, Some(0.25)),
        def("op_ms.geomean", "ms", Lower, Some(0.25)),
        def("peak_rss_mb", "MB", Lower, Some(0.15)),
    ]
}

/// The per-layer metrics, reported by every workload from its traced
/// round. A layer a workload never calls reads 0 there.
pub fn per_layer() -> Vec<Def> {
    use Better::{Higher, Lower};
    let mut defs = Vec::new();
    for layer in PIPELINE_LAYERS.iter().chain(&CHECK_LAYERS) {
        defs.push(def(&format!("{layer}.pct"), "%", Lower, None));
        defs.push(def(&format!("{layer}.per_s"), "1/s", Higher, None));
    }
    for (name, unit, better) in [
        ("core.session_overhead.pct", "%", Lower),
        ("trace.overhead_pct", "%", Lower),
        ("place.cells", "count", Lower),
        ("place.max_fanout", "count", Lower),
        ("place.moves", "count", Lower),
        ("place.moves_per_s", "1/s", Higher),
        ("timing.duplicated_regs", "count", Lower),
        ("timing.retime_moves", "count", Lower),
        ("replay.mismatches", "count", Lower),
        ("qor.fmax_mhz_geomean", "MHz", Higher),
        ("probe.hit.per_s", "1/s", Higher),
        ("probe.miss.per_s", "1/s", Higher),
        ("cache.front_end_hit_rate", "fraction", Higher),
        ("cache.schedule_hit_rate", "fraction", Higher),
        ("serve.cold_jobs_per_s", "1/s", Higher),
        ("serve.warm_jobs_per_s", "1/s", Higher),
        ("serve.steady_jobs_per_s", "1/s", Higher),
        ("store.hit_rate", "fraction", Higher),
        ("verify.rejected", "count", Lower),
        ("explore.full_evals", "count", Lower),
        ("explore.probe_evals", "count", Lower),
        ("explore.log_hits", "count", Higher),
        ("explore.full_evals_per_s", "1/s", Higher),
    ] {
        defs.push(def(name, unit, better, None));
    }
    defs
}

/// The command the benchmark runs as, from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "examples/perfbench/Cargo.toml",
    "--",
];

/// Seconds one single-workload run takes (`run_seconds`).
pub const RUN_SECONDS: u64 = 25;

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The contents of `BENCHMARK.json`.
pub fn schema(workloads: &[(&str, &str)]) -> String {
    let mut s = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|c| quote(c)).collect();
    let _ = writeln!(s, "  \"command\": [{}],", command.join(", "));
    let _ = writeln!(s, "  \"paths\": [\"examples/perfbench\"],");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = workloads
        .iter()
        .map(|(name, why)| format!("    {{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n");
    let metric_rows = |defs: Vec<Def>| -> String {
        defs.iter()
            .map(|d| {
                let bound = d
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                    quote(&d.name),
                    quote(d.unit),
                    quote(d.better.name())
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let _ = write!(
        s,
        "  \"end_to_end\": [\n{}\n  ],\n",
        metric_rows(end_to_end())
    );
    let _ = write!(s, "  \"per_layer\": [\n{}\n  ]\n", metric_rows(per_layer()));
    s.push_str("}\n");
    s
}

/// One run's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` in definition order.
    pub metrics: Vec<(String, String, f64)>,
}

impl RunResult {
    /// The end-to-end (untraced) or per-layer (traced) result of a run.
    pub fn from_outcome(o: &Outcome, traced: bool) -> RunResult {
        let values: Vec<(String, f64)> = if traced {
            o.layers.clone()
        } else {
            end_to_end_values(o)
        };
        let defs = if traced { per_layer() } else { end_to_end() };
        for (name, _) in &values {
            assert!(
                defs.iter().any(|d| d.name == *name),
                "metric `{name}` is not defined"
            );
        }
        let metrics = defs
            .into_iter()
            .map(|d| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == d.name)
                    .map_or(0.0, |(_, v)| *v);
                (
                    d.name,
                    d.unit.to_string(),
                    if v.is_finite() { v } else { 0.0 },
                )
            })
            .collect();
        RunResult {
            correct: o.checks.correct(),
            attempted: o.checks.attempted.max(1),
            failed: o.checks.failed,
            metrics,
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.2)
    }

    /// The JSON line (every value with all its digits).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, u, v)| format!("{}: {{\"value\": {v:?}, \"unit\": {}}}", quote(n), quote(u)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Reads a line [`to_json`](RunResult::to_json) wrote.
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let v = Json::parse(line)?;
        let field = |k: &str| v.get(k).ok_or(format!("missing `{k}`"));
        let count = |k: &str| {
            field(k)?
                .num()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or(format!("`{k}` is not a count"))
        };
        let Json::Obj(ms) = field("metrics")? else {
            return Err("`metrics` is not an object".to_string());
        };
        let mut metrics = Vec::new();
        for (name, m) in ms {
            let value = m
                .get("value")
                .and_then(Json::num)
                .ok_or(format!("{name}: no value"))?;
            let unit = match m.get("unit") {
                Some(Json::Str(u)) => u.clone(),
                _ => return Err(format!("{name}: no unit")),
            };
            metrics.push((name.clone(), unit, value));
        }
        Ok(RunResult {
            correct: matches!(field("correct")?, Json::Bool(true)),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// The end-to-end metrics of a run's untraced rounds. Every operation
/// is timed by [`harness::per_op_times`]; `wall_s` is one round of them.
pub fn end_to_end_values(o: &Outcome) -> Vec<(String, f64)> {
    let per_op = harness::per_op_times(&o.rounds);
    vec![
        ("setup_s".to_string(), o.setup_s),
        ("wall_s".to_string(), per_op.iter().sum::<f64>() / 1e3),
        ("op_ms.geomean".to_string(), geomean(&per_op)),
        ("peak_rss_mb".to_string(), harness::peak_rss_mb()),
    ]
}

/// Human summary of one run, for standard error.
pub fn summary(workload: &str, o: &Outcome, result: &RunResult) -> String {
    let mut s = String::new();
    let all_ops: Vec<f64> = o
        .rounds
        .iter()
        .flat_map(|r| r.op_ms.iter().copied())
        .collect();
    let _ = writeln!(
        s,
        "{workload}: {} rounds, {} operations, {} attempted, {} failed",
        o.rounds.len(),
        all_ops.len(),
        o.checks.attempted,
        o.checks.failed
    );
    let _ = writeln!(
        s,
        "  op_ms.p50 = {:.4} ms (n = {})",
        median(&all_ops),
        all_ops.len()
    );
    if let Some((p, v)) = tail_percentile(&all_ops) {
        let _ = writeln!(s, "  op_ms.p{p} = {v:.4} ms (n = {})", all_ops.len());
    }
    let walls: Vec<f64> = o.rounds.iter().map(|r| r.wall_s).collect();
    if let Some(spread) = relative_iqr(&walls) {
        let _ = writeln!(
            s,
            "  wall_s spread over rounds (IQR / median) = {spread:.4}"
        );
    }
    for (label, ms) in o.op_labels.iter().zip(harness::per_op_times(&o.rounds)) {
        let _ = writeln!(s, "  {label:<40} {ms:>12.3} ms");
    }
    for (name, unit, value) in &result.metrics {
        if *value != 0.0 {
            let _ = writeln!(s, "  {name:<28} {value:>14.4} {unit}");
        }
    }
    for p in &o.checks.problems {
        let _ = writeln!(s, "  PROBLEM: {p}");
    }
    s
}

/// The end-to-end table of an `all` run: one row per metric, one column
/// per workload.
pub fn table(results: &[(&str, RunResult)], defs: &[Def]) -> String {
    let mut s = String::new();
    let _ = write!(s, "{:<30} {:>8}", "metric", "unit");
    for (w, _) in results {
        let _ = write!(s, " {w:>16}");
    }
    s.push('\n');
    for d in defs {
        let _ = write!(s, "{:<30} {:>8}", d.name, d.unit);
        for (_, r) in results {
            let _ = write!(s, " {:>16.4}", r.value(&d.name).unwrap_or(f64::NAN));
        }
        s.push('\n');
    }
    let _ = write!(s, "{:<30} {:>8}", "correct (attempted/failed)", "");
    for (_, r) in results {
        let _ = write!(
            s,
            " {:>16}",
            format!("{} ({}/{})", r.correct, r.attempted, r.failed)
        );
    }
    s.push('\n');
    s
}

/// A JSON reader for exactly what [`RunResult::to_json`] writes:
/// objects, strings (escaping only `"` and `\\`), numbers and booleans.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    /// Consumes `c` after optional whitespace.
    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.i) == Some(&c);
        self.i += usize::from(hit);
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        let rest = &self.s[self.i..];
        if self.eat(b'{') {
            let mut kv = Vec::new();
            if self.eat(b'}') {
                return Ok(Json::Obj(kv));
            }
            loop {
                let Json::Str(k) = self.value()? else {
                    return Err(format!("object key expected at byte {}", self.i));
                };
                if !self.eat(b':') {
                    return Err(format!("`:` expected at byte {}", self.i));
                }
                kv.push((k, self.value()?));
                if self.eat(b'}') {
                    return Ok(Json::Obj(kv));
                }
                if !self.eat(b',') {
                    return Err(format!("`,` or `}}` expected at byte {}", self.i));
                }
            }
        }
        if self.eat(b'"') {
            let mut out = Vec::new();
            loop {
                match self.s.get(self.i) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        self.i += 1;
                        return String::from_utf8(out)
                            .map(Json::Str)
                            .map_err(|e| e.to_string());
                    }
                    Some(b'\\') => match self.s.get(self.i + 1) {
                        Some(&c @ (b'"' | b'\\')) => {
                            out.push(c);
                            self.i += 2;
                        }
                        _ => return Err(format!("unsupported escape at byte {}", self.i)),
                    },
                    Some(&c) => {
                        out.push(c);
                        self.i += 1;
                    }
                }
            }
        }
        for (word, v) in [("true", true), ("false", false)] {
            if rest.starts_with(word.as_bytes()) {
                self.i += word.len();
                return Ok(Json::Bool(v));
            }
        }
        let len = rest
            .iter()
            .take_while(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
            .count();
        let num = std::str::from_utf8(&rest[..len])
            .ok()
            .and_then(|t| t.parse().ok());
        self.i += len;
        num.map(Json::Num)
            .ok_or(format!("bad value at byte {}", self.i - len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_round_trip() {
        let r = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("latency_ms".to_string(), "ms".to_string(), 1.2034),
                ("setup_s".to_string(), "s".to_string(), 0.812_734_567_891_2),
            ],
        };
        assert_eq!(RunResult::parse(&r.to_json()), Ok(r));
        assert!(RunResult::parse("{\"correct\": true}").is_err());
        assert!(RunResult::parse("not json").is_err());
    }

    #[test]
    fn metric_names_are_unique_and_within_the_schema_limits() {
        let defs: Vec<Def> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), defs.len(), "duplicate metric name");
        assert!(per_layer().len() <= 128);
        for d in &defs {
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        let e2e = end_to_end();
        let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            e2e.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
