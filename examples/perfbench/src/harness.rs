//! What every workload shares: the run context, the timed-round loop,
//! correctness accounting, and the per-layer numbers a traced round
//! yields.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use hlsb_trace::TraceTree;

use crate::replay::{layer_times, RunView};
use crate::stats::{geomean, lower_quartile, median};

/// One benchmark run of one workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// How long set-up and the untraced rounds may take together,
    /// counted from `started`.
    pub seconds: f64,
    pub started: Instant,
    /// Add a traced round and report per-layer metrics.
    pub traced: bool,
    /// One short round on reduced inputs (a smoke test).
    pub quick: bool,
    /// Where traces go; temporary stores and logs live in a
    /// per-process directory under it.
    pub out: PathBuf,
}

impl Ctx {
    /// A fresh per-process scratch directory for stores and logs.
    pub fn scratch(&self, tag: &str) -> PathBuf {
        let dir = self.out.join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }
}

/// One untraced round: its wall time, each operation's latency in a
/// fixed order (so per-operation times line up across rounds), and a
/// digest of every result it produced.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub wall_s: f64,
    pub op_ms: Vec<f64>,
    pub digest: u64,
}

/// Correctness tally: operations attempted and failed (failed, rejected
/// when they should not be, or wrong), with a reason for each problem.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checks {
    /// Counts one operation; a `Some` reason marks it failed.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Records a failure not tied to one counted operation (a
    /// cross-round or cross-phase comparison).
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Every round must have produced the same results.
    pub fn same_results(&mut self, rounds: &[Round]) {
        if let Some(first) = rounds.first() {
            for (i, r) in rounds.iter().enumerate().skip(1) {
                if r.digest != first.digest {
                    self.fail(format!("round {i} results differ from round 0"));
                }
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// What a workload run hands to the report.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Median time of one input set-up ([`measure`]), seconds.
    pub setup_s: f64,
    pub rounds: Vec<Round>,
    /// A name per operation of a round, when a round has few enough to
    /// report one row each.
    pub op_labels: Vec<String>,
    pub checks: Checks,
    /// Per-layer metrics of the traced round (empty when untraced).
    pub layers: Vec<(String, f64)>,
}

/// Builds the inputs for `seconds`, at least `min` times, appending each
/// build's time to `times`; returns the last build.
fn time_setups<I>(
    build: &mut impl FnMut() -> I,
    seconds: f64,
    min: usize,
    times: &mut Vec<f64>,
) -> I {
    let start = Instant::now();
    let mut last = None;
    let mut n = 0;
    while n < min || start.elapsed().as_secs_f64() < seconds {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
        n += 1;
    }
    last.expect("at least one set-up")
}

/// A run's measurement: its inputs, the median time of one input
/// set-up, and the untraced rounds with whatever each round produced
/// besides its [`Round`].
pub type Measured<I, T> = (I, f64, Vec<(Round, T)>);

/// Builds the inputs, then runs untraced rounds on them until the next
/// one would end more than `ctx.seconds` after the run started — at
/// least three (one with `--quick`). Set-up takes milliseconds and the
/// host slows in bursts of about a second, so set-up is timed in short
/// bursts before every round too, and its median spans the whole run.
pub fn measure<I, T>(
    ctx: &Ctx,
    mut build: impl FnMut() -> I,
    mut round: impl FnMut(&I) -> (Round, T),
) -> Measured<I, T> {
    let min_rounds = if ctx.quick { 1 } else { 3 };
    let max_rounds = if ctx.quick { 1 } else { 200 };
    let mut setup_times = Vec::new();
    let (seconds, min) = if ctx.quick { (0.0, 1) } else { (0.3, 11) };
    let inputs = time_setups(&mut build, seconds, min, &mut setup_times);
    let mut out: Vec<(Round, T)> = Vec::new();
    loop {
        let t0 = Instant::now();
        let (mut r, extra) = round(&inputs);
        r.wall_s = t0.elapsed().as_secs_f64();
        out.push((r, extra));
        let walls: Vec<f64> = out.iter().map(|(r, _)| r.wall_s).collect();
        let next_ends = ctx.started.elapsed().as_secs_f64() + median(&walls);
        if out.len() >= max_rounds || (out.len() >= min_rounds && next_ends > ctx.seconds) {
            return (inputs, median(&setup_times), out);
        }
        drop(time_setups(&mut build, 0.05, 1, &mut setup_times));
    }
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Layers the replay times on the pipeline's behalf, in report order.
/// Their self times plus the session's own overhead make up the
/// program's operation time.
pub const PIPELINE_LAYERS: [&str; 25] = [
    "ir.verify",
    "sync.split",
    "ir.unroll",
    "delay.characterize",
    "sched.schedule",
    "rtlgen.lower",
    "verify.network",
    "verify.contracts",
    "place.anneal",
    "timing.fanout",
    "timing.retime",
    "timing.refine",
    "sim.check",
    "core.cache_key",
    "core.config_key",
    "core.fingerprint",
    "store.open",
    "store.get",
    "store.put",
    "store.publish",
    "serve.parse",
    "serve.resolve",
    "serve.outcome_json",
    "explore.log_get",
    "explore.log_put",
];

/// Layers timed only to check the replay, never part of the program's
/// work: one extra `sta()` per winning placement.
pub const CHECK_LAYERS: [&str; 1] = ["timing.sta"];

/// The time a traced round spends in the program and in the replay.
/// The round runs each operation through the program and then through
/// the replay, back to back, so both halves see the same machine
/// conditions and their times compare.
#[derive(Debug, Clone, Copy, Default)]
pub struct Paired {
    pub program_ms: f64,
    pub replay_ms: f64,
}

impl Paired {
    /// Runs (part of) one operation through the program, untraced.
    pub fn program<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.program_ms += ms_since(t0);
        out
    }

    /// Runs (part of) the same operation through the replay.
    pub fn replay<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.replay_ms += ms_since(t0);
        out
    }
}

/// The metrics a traced round yields from its span tree: for every
/// layer its share of the program's time for the same operations
/// (`<layer>.pct`) and its calls per second of busy time
/// (`<layer>.per_s`), the share no replayed layer accounts for
/// (`core.session_overhead.pct`), and how much longer the traced replay
/// took than the program (`trace.overhead_pct`).
pub fn layer_metrics(tree: &TraceTree, paired: Paired) -> Vec<(String, f64)> {
    let times: HashMap<String, _> = layer_times(tree);
    let mut out = Vec::new();
    let mut accounted = 0.0;
    for name in PIPELINE_LAYERS.iter().chain(&CHECK_LAYERS) {
        let t = times.get(*name).copied().unwrap_or_default();
        let pct = 100.0 * t.self_ms / paired.program_ms;
        if PIPELINE_LAYERS.contains(name) {
            accounted += pct;
        }
        out.push((format!("{name}.pct"), pct));
        out.push((
            format!("{name}.per_s"),
            rate(t.calls as f64, t.self_ms / 1e3),
        ));
    }
    out.push(("core.session_overhead.pct".to_string(), 100.0 - accounted));
    out.push((
        "trace.overhead_pct".to_string(),
        100.0 * (paired.replay_ms - paired.program_ms) / paired.program_ms,
    ));
    out
}

/// Writes a traced round's span tree and derives its layer metrics.
pub fn traced_layers(
    ctx: &Ctx,
    workload: &str,
    tree: &TraceTree,
    paired: Paired,
    checks: &mut Checks,
) -> Vec<(String, f64)> {
    write_trace(ctx, workload, tree, checks);
    layer_metrics(tree, paired)
}

/// `count` per second of `seconds`, 0 when no time was spent.
pub fn rate(count: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count / seconds
    } else {
        0.0
    }
}

/// Placement and timing work of the full runs a traced round replayed,
/// their Fmax, and how many replayed results disagreed with the
/// program's.
#[derive(Debug, Clone, Default)]
pub struct Work {
    pub cells: u64,
    pub max_fanout: u64,
    pub moves: u64,
    pub duplicated_regs: u64,
    pub retime_moves: u64,
    pub fmax_mhz: Vec<f64>,
    pub mismatches: u64,
}

impl Work {
    pub fn add_run(&mut self, v: &RunView) {
        self.cells += v.cells;
        self.max_fanout = self.max_fanout.max(v.max_fanout);
        self.moves += v.moves;
        self.duplicated_regs += v.qor.duplicated_regs as u64;
        self.retime_moves += v.qor.retime_moves as u64;
        self.fmax_mhz.push(v.qor.fmax_mhz);
        if !v.sta_agrees {
            self.mismatches += 1;
        }
    }

    /// The work counts as metrics, with the annealer's moves per second
    /// of `place.anneal` busy time and the geometric-mean Fmax.
    pub fn metrics(&self, tree: &TraceTree) -> Vec<(String, f64)> {
        let anneal_s = layer_times(tree)
            .get("place.anneal")
            .map_or(0.0, |t| t.self_ms / 1e3);
        vec![
            ("place.cells".to_string(), self.cells as f64),
            ("place.max_fanout".to_string(), self.max_fanout as f64),
            ("place.moves".to_string(), self.moves as f64),
            (
                "place.moves_per_s".to_string(),
                rate(self.moves as f64, anneal_s),
            ),
            (
                "timing.duplicated_regs".to_string(),
                self.duplicated_regs as f64,
            ),
            ("timing.retime_moves".to_string(), self.retime_moves as f64),
            ("qor.fmax_mhz_geomean".to_string(), geomean(&self.fmax_mhz)),
            ("replay.mismatches".to_string(), self.mismatches as f64),
        ]
    }
}

/// Each operation's time over the run, in operation order: the lower
/// quartile of its latencies across rounds. The host's slow bursts only
/// ever add time and come and go within a run, so a quartile below the
/// median discards more of them; on ten-seed series it cut the spread
/// of the end-to-end timings by about a third.
pub fn per_op_times(rounds: &[Round]) -> Vec<f64> {
    let ops = rounds.first().map_or(0, |r| r.op_ms.len());
    (0..ops)
        .map(|i| {
            let xs: Vec<f64> = rounds
                .iter()
                .filter_map(|r| r.op_ms.get(i).copied())
                .collect();
            lower_quartile(&xs)
        })
        .collect()
}

/// Writes the traced round's span tree as JSONL and checks that it
/// parses back into the same number of spans.
pub fn write_trace(ctx: &Ctx, workload: &str, tree: &TraceTree, checks: &mut Checks) {
    let path = ctx.out.join(format!("trace-{workload}.jsonl"));
    let text = tree.to_jsonl();
    if let Err(e) = std::fs::create_dir_all(&ctx.out).and_then(|()| std::fs::write(&path, &text)) {
        checks.fail(format!("cannot write {}: {e}", path.display()));
        return;
    }
    match TraceTree::from_jsonl(&text) {
        Ok(back) if back.spans.len() == tree.spans.len() => {}
        Ok(back) => checks.fail(format!(
            "{} re-reads as {} spans, wrote {}",
            path.display(),
            back.spans.len(),
            tree.spans.len()
        )),
        Err(e) => checks.fail(format!("{} does not parse: {e}", path.display())),
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
