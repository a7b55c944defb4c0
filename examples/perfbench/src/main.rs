//! `perfbench` — end-to-end and per-layer performance of the hlsb flow,
//! probe, compile-farm and explore paths.
//!
//! ```text
//! cargo run --release --manifest-path examples/perfbench/Cargo.toml -- \
//!     [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1]
//!     [--out DIR] [--repeat N] [--quick] [--schema]
//! ```
//!
//! With one `--workload`, runs untraced rounds of it for `--seconds`,
//! checks every output, and prints one JSON result line last on
//! standard output: the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics of an added traced round. `all` (the default) runs
//! every workload in a child process of its own — untraced, and traced
//! too with `--trace 1` — prints the tables, and appends the result
//! lines to `<out>/results.jsonl`. `--repeat N` runs everything N times
//! and fails, naming the pair, when any end-to-end metric of any
//! workload moves between the first two repetitions by more than its
//! bound. `--quick` runs one short traced round of every workload on
//! reduced inputs and fails on any correctness problem. `--schema`
//! prints `BENCHMARK.json`.
//!
//! Every workload is single-threaded and seeded; the inputs depend on
//! `--seed` alone. Traces and scratch stores go under `--out` (default
//! `target/perfbench`).

mod explore;
mod harness;
mod probe;
mod replay;
mod report;
mod serve;
mod stats;
mod suite;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use harness::{Ctx, Outcome};
use report::RunResult;

/// The default workload seed (`0xDAC2_2020`).
const DEFAULT_SEED: u64 = 0xDAC2_2020;
/// The seed held out while the benchmark was written.
const HELD_OUT_SEED: u64 = 7;

struct Workload {
    name: &'static str,
    why: &'static str,
    run: fn(&Ctx) -> Outcome,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "suite-flow",
        why: "9 Table-1 designs x {none, all} at paper settings on a fresh session: the compile \
              time a flow user waits for, mostly placement",
        run: suite::run,
    },
    Workload {
        name: "probe-sweep",
        why: "probes of the optimization cube x 4 clocks x 9 designs: keying, verify and \
              scheduling with no placement, so placer changes must read flat here",
        run: probe::run,
    },
    Workload {
        name: "serve-farm",
        why: "compile-farm waves on a disk store, cold writes then warm reads then a steady mix: \
              job handling, store and keys are a visible share",
        run: serve::run,
    },
    Workload {
        name: "explore-campaign",
        why: "closed-loop Fmax search over 9 designs with a fresh log: probes, fast P&R, log \
              appends and simulation checks together",
        run: explore::run,
    },
];

fn whys() -> Vec<(&'static str, String)> {
    WORKLOADS
        .iter()
        .map(|w| {
            (
                w.name,
                format!("{} (seed {DEFAULT_SEED}, held out {HELD_OUT_SEED})", w.why),
            )
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
    repeat: usize,
    quick: bool,
    schema: bool,
}

const USAGE: &str = "usage: perfbench [--workload <name>|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out DIR] [--repeat N] [--quick] [--schema]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: DEFAULT_SEED,
        seconds: report::RUN_SECONDS as f64,
        traced: false,
        out: PathBuf::from("target/perfbench"),
        repeat: 1,
        quick: false,
        schema: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--quick" => args.quick = true,
            "--schema" => args.schema = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!("no workload named `{}`", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.schema {
        let whys = whys();
        let rows: Vec<(&str, &str)> = whys.iter().map(|(n, w)| (*n, w.as_str())).collect();
        print!("{}", report::schema(&rows));
        return ExitCode::SUCCESS;
    }
    match WORKLOADS.iter().find(|w| w.name == args.workload) {
        Some(w) => run_one(&args, w),
        None => run_all(&args),
    }
}

/// One workload in this process: the mode `BENCHMARK.json` runs.
fn run_one(args: &Args, w: &Workload) -> ExitCode {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        started: std::time::Instant::now(),
        traced: args.traced,
        quick: args.quick,
        out: args.out.clone(),
    };
    let outcome = (w.run)(&ctx);
    let result = RunResult::from_outcome(&outcome, args.traced);
    eprint!("{}", report::summary(w.name, &outcome, &result));
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

/// Runs one workload in a child process and reads its result line.
fn child(args: &Args, w: &Workload, traced: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("{}: {e}", w.name))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", w.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{} printed nothing", w.name))?;
    RunResult::parse(line).map_err(|e| format!("{}: {e}", w.name))
}

/// Every workload in child processes, `--repeat` times.
fn run_all(args: &Args) -> ExitCode {
    let traced = args.traced || args.quick;
    let mut failures: Vec<String> = Vec::new();
    let mut untraced_reps: Vec<Vec<(&str, RunResult)>> = Vec::new();
    let mut log = String::new();
    for rep in 0..args.repeat {
        let mut untraced = Vec::new();
        let mut layered = Vec::new();
        for w in &WORKLOADS {
            // A traced child runs the untraced rounds and every check too,
            // so `--quick` runs only that one.
            for traced_run in [false, true] {
                if (traced_run && !traced) || (!traced_run && args.quick) {
                    continue;
                }
                match child(args, w, traced_run) {
                    Ok(r) => {
                        if !r.correct {
                            failures.push(format!(
                                "{} (trace {}) is not correct",
                                w.name,
                                u8::from(traced_run)
                            ));
                        }
                        log.push_str(&format!(
                            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"repeat\": {rep}, \"result\": {}}}\n",
                            w.name,
                            args.seed,
                            u8::from(traced_run),
                            r.to_json()
                        ));
                        if traced_run {
                            layered.push((w.name, r));
                        } else {
                            untraced.push((w.name, r));
                        }
                    }
                    Err(e) => failures.push(e),
                }
            }
        }
        if !untraced.is_empty() {
            println!(
                "== end-to-end, seed {}, repetition {} ==",
                args.seed,
                rep + 1
            );
            print!("{}", report::table(&untraced, &report::end_to_end()));
        }
        if !layered.is_empty() {
            println!("== per layer (traced round), seed {} ==", args.seed);
            print!("{}", report::table(&layered, &report::per_layer()));
        }
        untraced_reps.push(untraced);
    }
    if let [first, second, ..] = untraced_reps.as_slice() {
        failures.extend(repeat_drift(first, second));
    }
    let path = args.out.join("results.jsonl");
    let written = std::fs::create_dir_all(&args.out).and_then(|()| {
        use std::io::Write;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?
            .write_all(log.as_bytes())
    });
    if let Err(e) = written {
        failures.push(format!("cannot append to {}: {e}", path.display()));
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("perfbench: {f}");
        }
        ExitCode::FAILURE
    }
}

/// Every (metric, workload) pair whose two repetitions differ by more
/// than the metric's bound.
fn repeat_drift(first: &[(&str, RunResult)], second: &[(&str, RunResult)]) -> Vec<String> {
    let mut out = Vec::new();
    for ((w, a), (_, b)) in first.iter().zip(second) {
        for d in report::end_to_end() {
            let (Some(x), Some(y), Some(bound)) = (a.value(&d.name), b.value(&d.name), d.bound)
            else {
                continue;
            };
            let drift = (y - x).abs() / x;
            if drift > bound {
                out.push(format!(
                    "{} on {w}: {x:.4} then {y:.4} {} ({:.1}% apart, bound {:.0}%)",
                    d.name,
                    d.unit,
                    drift * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let whys = whys();
        let rows: Vec<(&str, &str)> = whys.iter().map(|(n, w)| (*n, w.as_str())).collect();
        assert_eq!(on_disk, report::schema(&rows), "regenerate with --schema");
        for (name, why) in &rows {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
    }
}
