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
use hlsb_bench::shell::{self, resolve_benchmarks, Format};
use hlsb_benchmarks::{all_benchmarks, Benchmark};
use hlsb_dse::{report, Explorer, KnobSpace, Strategy, DEFAULT_VERIFY_ITERS};
use hlsb_findings::cli::{self, Arg, Cli, CliError};
use hlsb_store::ArtifactStore;
use hlsb_telemetry::RunLedger;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    benches: Vec<Benchmark>,
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
    ledger: Option<Arc<RunLedger>>,
    metrics_out: Option<String>,
    list: bool,
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
        benches: all_benchmarks(),
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
            Arg::Flag("--design") => args.benches = resolve_benchmarks(&cli.value()?)?,
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
                args.format = Format::read(cli, &[Format::Table, Format::Jsonl])?
            }
            Arg::Flag("--verify-iters") => args.verify_iters = cli.parse()?,
            Arg::Flag("--trace-out") => args.trace_out = Some(cli.value()?),
            Arg::Flag("--ledger") => args.ledger = Some(shell::open_ledger(cli)?),
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
    let started = Instant::now();
    let mut report = Explorer::new(&bench.design, &bench.device)
        .space(space)
        .strategy(args.strategy)
        .budget(args.budget)
        .seed(args.seed)
        .verify_iters(args.verify_iters)
        .trace(args.trace_out.is_some() || args.metrics_out.is_some())
        .run(session)?;

    if let Some(ledger) = &args.ledger {
        ledger.append(shell::campaign_record(
            "dse",
            &bench.design.name,
            report.frontier_semantics_ok(),
            started,
            &report.trace,
            &[
                ("full-evals", report.full_evals),
                ("probe-evals", report.probe_evals),
                ("store-hits", report.store_hits),
                ("infeasible", report.infeasible),
                ("budget-dropped", report.budget_dropped),
                ("points", report.points.len()),
                ("frontier", report.frontier.len()),
            ],
        ))?;
    }

    if args.format == Format::Jsonl {
        print!("{}", report::frontier_jsonl(&report, &bench.design.name));
    } else {
        println!("== {} ({}) ==", bench.name, bench.device.name);
        print!("{}", report::frontier_table(&report));
        println!("{}", report::summary_line(&report));
        println!();
    }
    let trees = std::mem::take(&mut report.span_trees)
        .into_iter()
        .map(|(label, tree)| (format!("{} {label}", bench.design.name), tree))
        .collect();
    Ok((report.frontier_semantics_ok(), trees))
}

fn main() -> ExitCode {
    let mut args = cli::parse_env("dse", USAGE, parse_args);
    if args.list {
        return shell::print_list();
    }

    // One store directory serves every benchmark: the config key covers
    // the design, so entries never collide.
    let session = match args.store.take() {
        Some(store) => FlowSession::new().with_backend(Arc::new(store)),
        None => FlowSession::new(),
    };
    let session = shell::attach_ledger(session, args.ledger.as_ref());
    let mut semantics_ok = true;
    let mut traces: Vec<(String, hlsb::TraceTree)> = Vec::new();
    for bench in &args.benches {
        match explore(bench, &args, &session) {
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
        shell::write_metrics("dse", path, traces.iter().map(|(_, tree)| tree));
    }
    if let Some(path) = &args.trace_out {
        let runs = traces.iter().map(|(label, tree)| (label.as_str(), tree));
        shell::write_chrome_trace("dse", path, runs, "evaluations");
    }
    if !semantics_ok {
        eprintln!("dse: a frontier configuration FAILED its differential simulation");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
