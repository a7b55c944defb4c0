//! `dse` — Pareto design-space exploration over the broadcast-optimization
//! knobs of the flow (see the `hlsb-dse` crate).
//!
//! ```text
//! dse [--design <name>|all] [--strategy grid|random|halving]
//!     [--clocks <mhz>[,<mhz>...]] [--budget <n>] [--seed <n>]
//!     [--seeds <n>[,<n>...]] [--efforts fast|normal|both]
//!     [--partitions <n>|auto|off[,...]] [--store <dir>]
//!     [--format table|jsonl] [--verify-iters <n>]
//!     [--trace-out <path>] [--ledger <path>] [--metrics-out <path>]
//!     [--list]
//! ```
//!
//! For every selected benchmark the explorer searches the paper's 4-bit
//! optimization cube (optionally widened with placement seeds/efforts)
//! over the given clock targets, reports the Pareto frontier over
//! (fmax, latency cycles, register+LUT area), and differentially
//! simulates every frontier configuration against the untimed golden
//! evaluator. `--budget` caps *full-flow* (place-and-route) evaluations;
//! with `halving`, cheap front-end/schedule/lint probes rank the whole
//! space first and only the survivors are placed. `--store` names an
//! artifact-store directory, the same kind `hlsb-serve --store` uses:
//! every configuration it holds is answered without re-placing anything
//! (re-running with the same store resumes an interrupted sweep, and a
//! store warmed by `hlsb-serve` answers the same configurations), fresh
//! results are published to it, and its stage fingerprints classify
//! cross-process warm rebuilds (the `d` counts of the summary line).
//! `--trace-out` enables span tracing on every fresh full evaluation and
//! writes the collected trees as Chrome trace-event JSON (one process
//! per evaluated configuration; load in Perfetto). `--ledger` appends one
//! run-ledger record per flow evaluation plus one `dse` campaign record
//! per benchmark; `--metrics-out` writes the merged per-evaluation
//! metrics in the Prometheus text format.
//!
//! Exit status is 2 on usage errors, 1 if any frontier configuration
//! fails its differential-simulation check, 0 otherwise; `--help` prints
//! the usage and exits 0.

use hlsb::{FlowSession, Partitioning, PlaceEffort};
use hlsb_benchmarks::{all_benchmarks, Benchmark};
use hlsb_dse::{report, Explorer, KnobSpace, Strategy, DEFAULT_VERIFY_ITERS};
use hlsb_findings::cli::{self, Arg, Cli, CliError};
use hlsb_store::ArtifactStore;
use hlsb_telemetry::{render_prometheus, RunLedger, RunRecord};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    design: String,
    strategy: Strategy,
    clocks_mhz: Option<Vec<f64>>,
    budget: usize,
    seed: u64,
    place_seeds: Vec<u32>,
    efforts: Vec<PlaceEffort>,
    partitions: Vec<Partitioning>,
    store: Option<ArtifactStore>,
    format: Format,
    verify_iters: u64,
    trace_out: Option<String>,
    ledger: Option<String>,
    metrics_out: Option<String>,
    list: bool,
}

#[derive(PartialEq, Clone, Copy)]
enum Format {
    Table,
    Jsonl,
}

const USAGE: &str = "usage: dse [--design <name>|all] [--strategy grid|random|halving]\n\
                     \x20          [--clocks <mhz>[,<mhz>...]] [--budget <n>] [--seed <n>]\n\
                     \x20          [--seeds <n>[,<n>...]] [--efforts fast|normal|both]\n\
                     \x20          [--partitions <n>|auto|off[,...]] [--store <dir>]\n\
                     \x20          [--format table|jsonl]\n\
                     \x20          [--verify-iters <n>] [--trace-out <path>]\n\
                     \x20          [--ledger <path>] [--metrics-out <path>] [--list]";

fn parse_args(cli: &mut Cli) -> Result<Args, CliError> {
    let mut args = Args {
        design: "all".into(),
        strategy: Strategy::Grid,
        clocks_mhz: None,
        budget: usize::MAX,
        seed: hlsb_bench::SEED,
        place_seeds: vec![1],
        efforts: vec![PlaceEffort::Fast],
        partitions: vec![Partitioning::Off],
        store: None,
        format: Format::Table,
        verify_iters: DEFAULT_VERIFY_ITERS,
        trace_out: None,
        ledger: None,
        metrics_out: None,
        list: false,
    };
    while let Some(arg) = cli.next_arg()? {
        match arg {
            Arg::Flag("--design") => args.design = cli.value()?,
            Arg::Flag("--strategy") => args.strategy = cli.parse_with(Strategy::from_name)?,
            Arg::Flag("--clocks") => {
                let clocks: Vec<f64> = cli.list()?;
                cli.ensure(clocks.iter().all(|m| m.is_finite() && *m > 0.0))?;
                args.clocks_mhz = Some(clocks);
            }
            Arg::Flag("--budget") => {
                args.budget = cli.parse()?;
                cli.ensure(args.budget >= 1)?;
            }
            Arg::Flag("--seed") => args.seed = cli.parse()?,
            Arg::Flag("--seeds") => {
                args.place_seeds = cli.list()?;
                cli.ensure(!args.place_seeds.contains(&0))?;
            }
            Arg::Flag("--efforts") => {
                args.efforts = cli.parse_with(|e| match e {
                    "both" => Some(vec![PlaceEffort::Fast, PlaceEffort::Normal]),
                    e => e.parse().ok().map(|e| vec![e]),
                })?;
            }
            Arg::Flag("--partitions") => args.partitions = cli.list()?,
            Arg::Flag("--store") => {
                // Opened here, so a path that cannot be a store directory
                // is a usage error before any flow runs.
                let dir = cli.value()?;
                let store = ArtifactStore::open(&dir)
                    .map_err(|e| CliError::usage(format!("cannot open store `{dir}`: {e}")))?;
                args.store = Some(store);
            }
            Arg::Flag("--format") => {
                args.format = cli.parse_with(|f| match f {
                    "table" => Some(Format::Table),
                    "jsonl" => Some(Format::Jsonl),
                    _ => None,
                })?;
            }
            Arg::Flag("--verify-iters") => args.verify_iters = cli.parse()?,
            Arg::Flag("--trace-out") => args.trace_out = Some(cli.value()?),
            Arg::Flag("--ledger") => args.ledger = Some(cli.value()?),
            Arg::Flag("--metrics-out") => args.metrics_out = Some(cli.value()?),
            Arg::Flag("--list") => args.list = true,
            _ => return Err(CliError::unexpected(arg)),
        }
    }
    Ok(args)
}

fn explore(
    bench: &Benchmark,
    args: &Args,
    session: &FlowSession,
    ledger: Option<&RunLedger>,
) -> std::io::Result<(bool, Vec<(String, hlsb::TraceTree)>)> {
    let clocks = args
        .clocks_mhz
        .clone()
        .unwrap_or_else(|| vec![bench.clock_mhz]);
    let space = KnobSpace {
        place_seeds: args.place_seeds.clone(),
        efforts: args.efforts.clone(),
        partitions: args.partitions.clone(),
        ..KnobSpace::optimization_cube(clocks)
    };
    let campaign_start = Instant::now();
    let mut report = Explorer::new(&bench.design, &bench.device)
        .space(space)
        .strategy(args.strategy)
        .budget(args.budget)
        .seed(args.seed)
        .verify_iters(args.verify_iters)
        .trace(args.trace_out.is_some() || args.metrics_out.is_some())
        .run(session)?;

    if let Some(ledger) = ledger {
        let status = if report.frontier_semantics_ok() {
            "ok"
        } else {
            "failed"
        };
        let wall_ms = campaign_start.elapsed().as_secs_f64() * 1e3;
        let mut rec = RunRecord::new("dse", &bench.design.name, 0, status, wall_ms);
        for pass in &report.trace.records {
            rec.add_stage(&pass.pass, pass.wall_ms);
        }
        rec.add_count("full-evals", report.full_evals as u64);
        rec.add_count("probe-evals", report.probe_evals as u64);
        rec.add_count("store-hits", report.store_hits as u64);
        rec.add_count("infeasible", report.infeasible as u64);
        rec.add_count("budget-dropped", report.budget_dropped as u64);
        rec.add_count("points", report.points.len() as u64);
        rec.add_count("frontier", report.frontier.len() as u64);
        ledger.append(rec)?;
    }

    match args.format {
        Format::Table => {
            println!("== {} ({}) ==", bench.name, bench.device.name);
            print!("{}", report::frontier_table(&report));
            println!("{}", report::summary_line(&report));
            println!();
        }
        Format::Jsonl => print!("{}", report::frontier_jsonl(&report, &bench.design.name)),
    }
    let trees = std::mem::take(&mut report.span_trees)
        .into_iter()
        .map(|(label, tree)| (format!("{} {label}", bench.design.name), tree))
        .collect();
    Ok((report.frontier_semantics_ok(), trees))
}

fn main() -> ExitCode {
    let mut args = cli::parse_env("dse", USAGE, parse_args);

    let benches = all_benchmarks();
    if args.list {
        for b in &benches {
            println!(
                "{:<16} {:>6.0} MHz  {}",
                b.design.name, b.clock_mhz, b.device.name
            );
        }
        return ExitCode::SUCCESS;
    }

    let selected: Vec<&Benchmark> = if args.design == "all" {
        benches.iter().collect()
    } else {
        benches
            .iter()
            .filter(|b| b.design.name == args.design)
            .collect()
    };
    if selected.is_empty() {
        eprintln!(
            "dse: no benchmark named `{}` (try --list; one of: {})",
            args.design,
            benches
                .iter()
                .map(|b| b.design.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::from(2);
    }

    // One store directory serves every benchmark: the config key covers
    // the design, so entries never collide.
    let mut session = match args.store.take() {
        Some(store) => FlowSession::new().with_backend(Arc::new(store)),
        None => FlowSession::new(),
    };
    let ledger = match &args.ledger {
        Some(path) => match RunLedger::open(path) {
            Ok(ledger) => {
                let ledger = Arc::new(ledger);
                session = session.with_ledger(ledger.clone());
                Some(ledger)
            }
            Err(e) => {
                eprintln!("dse: cannot open ledger {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let mut semantics_ok = true;
    let mut traces: Vec<(String, hlsb::TraceTree)> = Vec::new();
    for bench in selected {
        match explore(bench, &args, &session, ledger.as_deref()) {
            Ok((ok, trees)) => {
                semantics_ok &= ok;
                traces.extend(trees);
            }
            Err(e) => {
                eprintln!("dse: store I/O failed for {}: {e}", bench.name);
                return ExitCode::from(2);
            }
        }
    }
    if let Some(path) = &args.metrics_out {
        let mut metrics = hlsb::MetricsRegistry::default();
        for (_, tree) in &traces {
            metrics.merge(&tree.metrics);
        }
        if let Err(e) = std::fs::write(path, render_prometheus(&metrics, &[("tool", "dse")])) {
            eprintln!("dse: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.trace_out {
        let runs: Vec<(&str, &hlsb::TraceTree)> = traces
            .iter()
            .map(|(label, t)| (label.as_str(), t))
            .collect();
        if let Err(e) = std::fs::write(path, hlsb::chrome_trace(&runs)) {
            eprintln!("dse: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote Chrome trace for {} evaluations to {path}",
            runs.len()
        );
    }
    if !semantics_ok {
        eprintln!("dse: a frontier configuration FAILED its differential simulation");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
