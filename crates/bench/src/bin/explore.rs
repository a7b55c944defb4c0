//! `explore` — closed-loop maximum-frequency search (see the
//! `hlsb-explore` crate).
//!
//! ```text
//! explore [--design <name>|all] [--configs <spec>[,<spec>...]]
//!         [--tolerance <mhz>] [--budget <n>] [--start <mhz>]
//!         [--seed <n>] [--verify-iters <n>] [--log <path>]
//!         [--format table|jsonl] [--trace-out <path>]
//!         [--ledger <path>] [--metrics-out <path>] [--list]
//! ```
//!
//! For every selected benchmark the explorer searches the HLS clock
//! target per configuration until it converges — within `--tolerance` —
//! to the highest target the implementation still signs off at. A
//! configuration spec is a preset (`none`, `data`, `skid`, `all`) or a
//! 4-character toggle mask (`BS-M`), optionally with a `+rB.B`
//! register-injection suffix (`all+r1.2`); the default set is
//! `none,all,all+r1`. `--budget` caps fresh full (place-and-route)
//! evaluations per design; probes and frequency-log hits are free.
//! `--log` persists every trial as JSONL keyed by the flow's config key —
//! re-running with the same log resumes an interrupted search and
//! reproduces the same table without re-running completed trials.
//! `--trace-out` writes the explorer's `explore.*` span tree as JSONL
//! (one tree per benchmark, length-prefixed by a `# design` comment
//! line). `--ledger` appends one run-ledger record per flow evaluation
//! plus one `explore` campaign record per benchmark; `--metrics-out`
//! writes the merged search metrics in the Prometheus text format.
//!
//! Exit status is 2 on usage errors, 1 if any converged configuration
//! fails its differential-simulation or contract check, 0 otherwise;
//! `--help` prints the usage and exits 0.

use hlsb::FlowSession;
use hlsb_bench::shell::{self, resolve_benchmarks, Format};
use hlsb_benchmarks::{all_benchmarks, Benchmark};
use hlsb_explore::{report, ExploreConfig, FmaxExplorer, FreqLog};
use hlsb_findings::cli::{self, Arg, Cli, CliError};
use hlsb_telemetry::RunLedger;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    benches: Vec<Benchmark>,
    configs: Vec<ExploreConfig>,
    tolerance_mhz: f64,
    budget: usize,
    start_mhz: Option<f64>,
    seed: u64,
    verify_iters: u64,
    log: Option<String>,
    format: Format,
    trace_out: Option<String>,
    ledger: Option<Arc<RunLedger>>,
    metrics_out: Option<String>,
    list: bool,
}

const USAGE: &str = "usage: explore [--design <name>|all] [--configs <spec>[,<spec>...]]\n\
                     \x20              [--tolerance <mhz>] [--budget <n>] [--start <mhz>]\n\
                     \x20              [--seed <n>] [--verify-iters <n>] [--log <path>]\n\
                     \x20              [--format table|jsonl] [--trace-out <path>]\n\
                     \x20              [--ledger <path>] [--metrics-out <path>] [--list]\n\
                     \x20  config specs: none | data | skid | all | 4-char mask (e.g. BS-M),\n\
                     \x20  each with an optional +rB.B injection suffix (e.g. all+r1.2)";

fn parse_args(cli: &mut Cli) -> Result<Args, CliError> {
    let mut args = Args {
        benches: all_benchmarks(),
        configs: ExploreConfig::default_set(),
        tolerance_mhz: hlsb_explore::DEFAULT_TOLERANCE_MHZ,
        budget: hlsb_explore::DEFAULT_BUDGET,
        start_mhz: None,
        seed: hlsb_bench::SEED,
        verify_iters: hlsb_explore::DEFAULT_VERIFY_ITERS,
        log: None,
        format: Format::Table,
        trace_out: None,
        ledger: None,
        metrics_out: None,
        list: false,
    };
    while let Some(arg) = cli.next_arg()? {
        match arg {
            Arg::Flag("--design") => args.benches = resolve_benchmarks(&cli.value()?)?,
            Arg::Flag("--configs") => args.configs = cli.list_with(ExploreConfig::parse)?,
            Arg::Flag("--tolerance") => args.tolerance_mhz = shell::read_mhz(cli)?,
            Arg::Flag("--budget") => {
                args.budget = cli.parse()?;
                cli.ensure(args.budget >= 1)?;
            }
            Arg::Flag("--start") => args.start_mhz = Some(shell::read_mhz(cli)?),
            Arg::Flag("--seed") => args.seed = cli.parse()?,
            Arg::Flag("--verify-iters") => args.verify_iters = cli.parse()?,
            Arg::Flag("--log") => args.log = Some(cli.value()?),
            Arg::Flag("--format") => {
                args.format = Format::read(cli, &[Format::Table, Format::Jsonl])?
            }
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
) -> std::io::Result<(bool, Option<hlsb::TraceTree>)> {
    let log = match &args.log {
        // One log file can serve several benchmarks: the trial key
        // covers the design, so entries never collide.
        Some(path) => FreqLog::open(path)?,
        None => FreqLog::in_memory(),
    };
    let started = Instant::now();
    let report = FmaxExplorer::new(&bench.design, &bench.device)
        .configs(args.configs.clone())
        .start_mhz(args.start_mhz.unwrap_or(bench.clock_mhz))
        .tolerance_mhz(args.tolerance_mhz)
        .budget(args.budget)
        .seed(args.seed)
        .log(log)
        .verify_iters(args.verify_iters)
        .trace(args.trace_out.is_some() || args.metrics_out.is_some())
        .run(session)?;

    if let Some(ledger) = &args.ledger {
        let converged = report
            .outcomes
            .iter()
            .filter(|o| o.converged_mhz.is_some())
            .count();
        ledger.append(shell::campaign_record(
            "explore",
            &bench.design.name,
            report.semantics_ok(),
            started,
            &report.trace,
            &[
                ("full-evals", report.full_evals),
                ("probe-evals", report.probe_evals),
                ("log-hits", report.log_hits),
                ("configs", report.outcomes.len()),
                ("converged", converged),
            ],
        ))?;
    }

    if args.format == Format::Jsonl {
        print!("{}", report::report_jsonl(&report));
    } else {
        println!("== {} ({}) ==", bench.name, bench.device.name);
        print!("{}", report::best_frequencies_table(&report));
        println!("{}", report::summary_line(&report));
        println!();
    }
    Ok((report.semantics_ok(), report.span_tree))
}

fn main() -> ExitCode {
    let args = cli::parse_env("explore", USAGE, parse_args);
    if args.list {
        return shell::print_list();
    }

    let session = shell::attach_ledger(FlowSession::new(), args.ledger.as_ref());
    let mut semantics_ok = true;
    let mut traces: Vec<(String, hlsb::TraceTree)> = Vec::new();
    for bench in &args.benches {
        match explore(bench, &args, &session) {
            Ok((ok, tree)) => {
                semantics_ok &= ok;
                if let Some(tree) = tree {
                    traces.push((bench.design.name.clone(), tree));
                }
            }
            Err(e) => {
                eprintln!("explore: log I/O failed for {}: {e}", bench.name);
                return ExitCode::from(2);
            }
        }
    }
    if let Some(path) = &args.trace_out {
        let mut out = String::new();
        for (design, tree) in &traces {
            out.push_str(&format!("# {design}\n"));
            out.push_str(&tree.to_jsonl());
        }
        shell::write_or_exit("explore", path, out);
        println!(
            "wrote explore span trees for {} benchmarks to {path}",
            traces.len()
        );
    }
    if let Some(path) = &args.metrics_out {
        shell::write_metrics("explore", path, traces.iter().map(|(_, tree)| tree));
    }
    if !semantics_ok {
        eprintln!("explore: a converged configuration FAILED its semantics check");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
