//! Job specifications: one JSONL line per requested compile.
//!
//! A job names a design plus the flow knobs to compile it with. Designs
//! are addressed three ways:
//!
//! * a Table-1 benchmark (or synthetic) by case-insensitive substring,
//!   resolved through [`hlsb_benchmarks::find_benchmark`] — the job
//!   inherits the benchmark's device and paper clock target unless the
//!   job overrides the clock;
//! * `fuzz:<seed>` — a seeded random valid design from
//!   [`hlsb_sim::fuzz::random_design`], the compile-farm load-generator
//!   workload;
//! * `dirty:<seed>` — a seeded design with one planted network defect
//!   ([`hlsb_sim::fuzz::random_dirty_design`]), for exercising the
//!   verify pre-gate.
//!
//! Every knob that participates in [`Flow::config_key`] is settable, so
//! two jobs are duplicates exactly when their resolved flows share a
//! config key. Job lines come from outside the program, so they are read
//! strictly through the workspace codec ([`hlsb_findings::json`]): any
//! valid JSON object is accepted (whitespace, `\uXXXX` escapes and
//! surrogate pairs included), and an unknown, repeated or mistyped field
//! fails the job with an error naming that field.

use hlsb::{Flow, OptimizationOptions, Partitioning, PlaceEffort, RegisterInjection};
use hlsb_findings::json;
use hlsb_findings::json_escape;

/// One requested compile, as parsed from a JSONL job line.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Client-chosen tag, echoed on the outcome line. Defaults to
    /// `job-<index>` (assigned by the server from the input position).
    pub id: String,
    /// Design reference: benchmark substring, `fuzz:<seed>` or
    /// `dirty:<seed>`.
    pub design: String,
    /// Clock target override, MHz. `None` uses the benchmark's paper
    /// clock (300 MHz for fuzzed designs).
    pub clock_mhz: Option<f64>,
    /// Optimization mask.
    pub options: OptimizationOptions,
    /// Flow seed.
    pub seed: u64,
    /// Placement seeds tried (best timing wins).
    pub place_seeds: u32,
    /// Placement effort.
    pub effort: PlaceEffort,
    /// Island partitioning.
    pub partitions: Partitioning,
    /// Forced register injection.
    pub inject: RegisterInjection,
}

impl Default for JobSpec {
    /// Server defaults: throughput-oriented (fast placement, one seed),
    /// no optimizations, seed 1 — every field overridable per job.
    fn default() -> Self {
        JobSpec {
            id: String::new(),
            design: String::new(),
            clock_mhz: None,
            options: OptimizationOptions::none(),
            seed: 1,
            place_seeds: 1,
            effort: PlaceEffort::Fast,
            partitions: Partitioning::Off,
            inject: RegisterInjection::Off,
        }
    }
}

/// Renders an optimization mask as a compact flag string: `none`, or a
/// subset of `bskm` (broadcast_aware, sync_pruning, skid_buffer,
/// min_area_skid) in that fixed order — `bskm` is
/// [`OptimizationOptions::all`].
pub fn options_mask(o: &OptimizationOptions) -> String {
    let mut s = String::new();
    for (on, c) in [
        (o.broadcast_aware, 'b'),
        (o.sync_pruning, 's'),
        (o.skid_buffer, 'k'),
        (o.min_area_skid, 'm'),
    ] {
        if on {
            s.push(c);
        }
    }
    if s.is_empty() {
        "none".to_string()
    } else {
        s
    }
}

/// Parses an optimization mask: `none`, `all`, or any combination of
/// the `bskm` flag letters (order-insensitive). Returns `None` for
/// unknown characters.
pub fn parse_options(s: &str) -> Option<OptimizationOptions> {
    match s {
        "none" => return Some(OptimizationOptions::none()),
        "all" => return Some(OptimizationOptions::all()),
        _ => {}
    }
    let mut o = OptimizationOptions::none();
    for c in s.chars() {
        match c {
            'b' => o.broadcast_aware = true,
            's' => o.sync_pruning = true,
            'k' => o.skid_buffer = true,
            'm' => o.min_area_skid = true,
            _ => return None,
        }
    }
    Some(o)
}

impl JobSpec {
    /// Renders the job as one canonical JSON line (no trailing newline).
    /// Optional fields at their defaults are still written, so the line
    /// is self-describing.
    pub fn to_json(&self) -> String {
        let clock = match self.clock_mhz {
            Some(mhz) => format!("{mhz:?}"),
            None => "null".to_string(),
        };
        format!(
            "{{\"id\":\"{}\",\"design\":\"{}\",\"clock_mhz\":{},\"options\":\"{}\",\
             \"seed\":{},\"place_seeds\":{},\"effort\":\"{}\",\"partitions\":\"{}\",\
             \"inject\":\"{}\"}}",
            json_escape(&self.id),
            json_escape(&self.design),
            clock,
            options_mask(&self.options),
            self.seed,
            self.place_seeds,
            self.effort.label(),
            self.partitions.label(),
            self.inject.label(),
        )
    }

    /// Parses one job line. Only `design` is required; every other field
    /// falls back to [`JobSpec::default`], and `clock_mhz` may be `null`.
    /// The error string names the offending field (deterministically, for
    /// stable outcome streams).
    pub fn from_json(line: &str) -> Result<JobSpec, String> {
        let mut o = json::parse_object(line).map_err(|e| format!("invalid JSON job line: {e}"))?;
        let mut job = JobSpec {
            design: o
                .opt::<String>("design")?
                .filter(|d| !d.is_empty())
                .ok_or("job is missing the required `design` field")?,
            ..JobSpec::default()
        };
        job.id = o.opt("id")?.unwrap_or_default();
        if let Some(mhz) = o.opt::<f64>("clock_mhz")? {
            if !(mhz.is_finite() && mhz > 0.0) {
                return Err(format!("bad `clock_mhz` value {mhz:?}"));
            }
            job.clock_mhz = Some(mhz);
        }
        if let Some(mask) = o.opt::<String>("options")? {
            job.options =
                parse_options(&mask).ok_or_else(|| format!("bad `options` mask `{mask}`"))?;
        }
        job.seed = o.opt("seed")?.unwrap_or(job.seed);
        job.place_seeds = o.opt("place_seeds")?.unwrap_or(job.place_seeds);
        if let Some(s) = o.opt::<String>("effort")? {
            job.effort = s.parse().map_err(|_| format!("bad `effort` value `{s}`"))?;
        }
        if let Some(s) = o.opt::<String>("partitions")? {
            job.partitions = s
                .parse()
                .map_err(|_| format!("bad `partitions` value `{s}`"))?;
        }
        if let Some(s) = o.opt::<String>("inject")? {
            job.inject = s.parse().map_err(|_| format!("bad `inject` value `{s}`"))?;
        }
        o.finish()?;
        Ok(job)
    }

    /// Resolves the job to a runnable [`Flow`] plus its human-readable
    /// configuration label (stored in the result record; the config key
    /// stays authoritative). Fails with a deterministic message for an
    /// unknown design reference.
    pub fn resolve(&self) -> Result<(Flow, String), String> {
        let (design, default_clock) = if let Some(seed) = self.design.strip_prefix("fuzz:") {
            let seed: u64 = seed
                .parse()
                .map_err(|_| format!("bad fuzz seed in `{}`", self.design))?;
            (hlsb_sim::fuzz::random_design(seed), 300.0)
        } else if let Some(seed) = self.design.strip_prefix("dirty:") {
            let seed: u64 = seed
                .parse()
                .map_err(|_| format!("bad dirty seed in `{}`", self.design))?;
            (hlsb_sim::fuzz::random_dirty_design(seed).0, 300.0)
        } else {
            let bench = hlsb_benchmarks::find_benchmark(&self.design)
                .ok_or_else(|| format!("no benchmark matches `{}`", self.design))?;
            let clock = bench.clock_mhz;
            let flow = Flow::new(bench.design)
                .device(bench.device)
                .clock_mhz(self.clock_mhz.unwrap_or(clock))
                .options(self.options)
                .seed(self.seed)
                .place_seeds(self.place_seeds)
                .place_effort(self.effort)
                .partitions(self.partitions)
                .inject(self.inject.clone());
            return Ok((flow, self.label(self.clock_mhz.unwrap_or(clock))));
        };
        let clock = self.clock_mhz.unwrap_or(default_clock);
        let flow = Flow::new(design)
            .clock_mhz(clock)
            .options(self.options)
            .seed(self.seed)
            .place_seeds(self.place_seeds)
            .place_effort(self.effort)
            .partitions(self.partitions)
            .inject(self.inject.clone());
        Ok((flow, self.label(clock)))
    }

    /// The job's configuration label: design reference plus every knob,
    /// `design @clock mask xseeds effort pN inject`.
    fn label(&self, clock_mhz: f64) -> String {
        format!(
            "{} @{:?}MHz {} s{} x{} {} p{} {}",
            self.design,
            clock_mhz,
            options_mask(&self.options),
            self.seed,
            self.place_seeds,
            self.effort.label(),
            self.partitions.label(),
            self.inject.label(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_json_round_trips() {
        let job = JobSpec {
            id: "j \"1\"".to_string(),
            design: "fuzz:42".to_string(),
            clock_mhz: Some(312.75),
            options: parse_options("bk").unwrap(),
            seed: 7,
            place_seeds: 2,
            effort: PlaceEffort::Normal,
            partitions: Partitioning::Fixed(3),
            inject: RegisterInjection::at(vec![1, 3]),
        };
        let line = job.to_json();
        assert_eq!(JobSpec::from_json(&line), Ok(job));
    }

    #[test]
    fn minimal_job_uses_defaults() {
        let job = JobSpec::from_json("{\"design\":\"genome\"}").expect("parses");
        assert_eq!(
            job,
            JobSpec {
                design: "genome".to_string(),
                ..JobSpec::default()
            }
        );
        assert_eq!(job.clock_mhz, None);
        assert_eq!(job.place_seeds, 1);
    }

    #[test]
    fn bad_jobs_fail_with_named_field() {
        assert!(JobSpec::from_json("not json").unwrap_err().contains("JSON"));
        assert!(JobSpec::from_json("{\"id\":\"x\"}")
            .unwrap_err()
            .contains("design"));
        for (line, field) in [
            ("{\"design\":\"g\",\"clock_mhz\":-3.0}", "clock_mhz"),
            ("{\"design\":\"g\",\"options\":\"xyz\"}", "options"),
            ("{\"design\":\"g\",\"seed\":-1}", "seed"),
            ("{\"design\":\"g\",\"effort\":\"slow\"}", "effort"),
            ("{\"design\":\"g\",\"partitions\":\"many\"}", "partitions"),
            ("{\"design\":\"g\",\"inject\":\"q9\"}", "inject"),
        ] {
            let err = JobSpec::from_json(line).unwrap_err();
            assert!(err.contains(field), "{line} -> {err}");
        }
    }

    #[test]
    fn job_lines_decode_exactly() {
        let job = |line: &str| JobSpec::from_json(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(job(r#"{"id":"a,b","design":"genome"}"#).id, "a,b");
        assert_eq!(job(r#"{"id":"x\ny","design":"genome"}"#).id, "x\ny");
        assert_eq!(
            job(r#"{"design":"genome","clock_mhz":250 }"#).clock_mhz,
            Some(250.0)
        );
        let spaced = job("\t{ \"design\" :\n\"genome\" , \"seed\" : 3 }\r ");
        assert_eq!((spaced.design.as_str(), spaced.seed), ("genome", 3));
        // Python's `json.dumps` escapes every non-ASCII character, astral
        // ones as UTF-16 surrogate pairs.
        let escaped = job(r#"{"id":"\u00d7\ud83d\ude00\"q\"","design":"genome"}"#);
        assert_eq!(escaped.id, "×😀\"q\"");
        assert_eq!(job(&escaped.to_json()), escaped);
    }

    #[test]
    fn job_lines_reject_unknown_duplicate_and_malformed_fields() {
        for (line, needle) in [
            (
                r#"{"design":"genome","seed":3,"seed":4}"#,
                "duplicate field `seed`",
            ),
            (r#"{"design":"genome","sed":3}"#, "unknown field `sed`"),
            (r#"{"design":"genome","seed":3.0}"#, "field `seed`"),
            (
                r#"{"design":"genome","place_seeds":4294967296}"#,
                "field `place_seeds`",
            ),
            (r#"{"design":7}"#, "field `design`"),
            (r#"{"id":"\ud83d","design":"genome"}"#, "surrogate"),
            (r#"{"design":"genome"} {"#, "JSON"),
            (r#"["design"]"#, "expected an object"),
        ] {
            let err = JobSpec::from_json(line).expect_err(line);
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn masks_round_trip() {
        for mask in ["none", "b", "sk", "bskm"] {
            let o = parse_options(mask).unwrap();
            assert_eq!(options_mask(&o), mask);
        }
        assert_eq!(parse_options("all").unwrap(), OptimizationOptions::all());
        assert_eq!(options_mask(&OptimizationOptions::all()), "bskm");
        assert!(parse_options("bz").is_none());
    }

    #[test]
    fn resolution_covers_benchmarks_fuzz_and_dirty() {
        let bench = JobSpec {
            design: "genome".to_string(),
            ..JobSpec::default()
        };
        let (flow, label) = bench.resolve().expect("genome resolves");
        // Paper clock inherited from the benchmark preset.
        assert!(label.contains("genome @"), "{label}");
        assert_eq!(flow.config_key(), bench.resolve().unwrap().0.config_key());

        let fuzz = JobSpec {
            design: "fuzz:5".to_string(),
            ..JobSpec::default()
        };
        let (flow, label) = fuzz.resolve().expect("fuzz resolves");
        assert!(label.starts_with("fuzz:5 @300.0MHz"), "{label}");
        // Deterministic: same spec, same key.
        assert_eq!(flow.config_key(), fuzz.resolve().unwrap().0.config_key());

        let dirty = JobSpec {
            design: "dirty:0".to_string(),
            ..JobSpec::default()
        };
        dirty.resolve().expect("dirty resolves");

        for bad in ["fuzz:x", "dirty:", "no-such-bench"] {
            let job = JobSpec {
                design: bad.to_string(),
                ..JobSpec::default()
            };
            assert!(job.resolve().is_err(), "{bad} must not resolve");
        }
    }
}
