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
//! configuration spec is a preset (`none`, `all`), a 4-character toggle
//! mask (`BS-M`), optionally with a `+rB.B` register-injection suffix
//! (`all+r1.2`); the default set is `none,all,all+r1`. `--budget` caps
//! fresh full (place-and-route) evaluations per design; probes and
//! frequency-log hits are free. `--log` persists every trial as JSONL
//! keyed by the flow's config key — re-running with the same log resumes
//! an interrupted search and reproduces the same table without
//! re-running completed trials. `--trace-out` writes the explorer's
//! `explore.*` span tree as JSONL (one tree per benchmark,
//! length-prefixed by a `# design` comment line). `--ledger` appends one
//! run-ledger record per flow evaluation plus one `explore` campaign
//! record per benchmark; `--metrics-out` writes the merged search
//! metrics in the Prometheus text format.
//!
//! Exit status is 2 on usage errors, 1 if any converged configuration
//! fails its differential-simulation or contract check, 0 otherwise;
//! `--help` prints the usage and exits 0.

use hlsb::FlowSession;
use hlsb_benchmarks::{all_benchmarks, Benchmark};
use hlsb_explore::{report, ExploreConfig, FmaxExplorer, FreqLog};
use hlsb_findings::cli::{self, Arg, Cli, CliError};
use hlsb_telemetry::{render_prometheus, RunLedger, RunRecord};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    design: String,
    configs: Vec<ExploreConfig>,
    tolerance_mhz: f64,
    budget: usize,
    start_mhz: Option<f64>,
    seed: u64,
    verify_iters: u64,
    log: Option<String>,
    format: Format,
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

const USAGE: &str = "usage: explore [--design <name>|all] [--configs <spec>[,<spec>...]]\n\
                     \x20              [--tolerance <mhz>] [--budget <n>] [--start <mhz>]\n\
                     \x20              [--seed <n>] [--verify-iters <n>] [--log <path>]\n\
                     \x20              [--format table|jsonl] [--trace-out <path>]\n\
                     \x20              [--ledger <path>] [--metrics-out <path>] [--list]\n\
                     \x20  config specs: none | all | 4-char mask (e.g. BS-M), each with an\n\
                     \x20  optional +rB.B injection suffix (e.g. all+r1.2)";

fn parse_args(cli: &mut Cli) -> Result<Args, CliError> {
    let mut args = Args {
        design: "all".into(),
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
            Arg::Flag("--design") => args.design = cli.value()?,
            Arg::Flag("--configs") => args.configs = cli.list_with(ExploreConfig::parse)?,
            Arg::Flag("--tolerance") => {
                args.tolerance_mhz = cli.parse()?;
                cli.ensure(args.tolerance_mhz.is_finite() && args.tolerance_mhz > 0.0)?;
            }
            Arg::Flag("--budget") => {
                args.budget = cli.parse()?;
                cli.ensure(args.budget >= 1)?;
            }
            Arg::Flag("--start") => {
                let mhz: f64 = cli.parse()?;
                cli.ensure(mhz.is_finite() && mhz > 0.0)?;
                args.start_mhz = Some(mhz);
            }
            Arg::Flag("--seed") => args.seed = cli.parse()?,
            Arg::Flag("--verify-iters") => args.verify_iters = cli.parse()?,
            Arg::Flag("--log") => args.log = Some(cli.value()?),
            Arg::Flag("--format") => {
                args.format = cli.parse_with(|f| match f {
                    "table" => Some(Format::Table),
                    "jsonl" => Some(Format::Jsonl),
                    _ => None,
                })?;
            }
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
) -> std::io::Result<(bool, Option<hlsb::TraceTree>)> {
    let log = match &args.log {
        // One log file can serve several benchmarks: the trial key
        // covers the design, so entries never collide.
        Some(path) => FreqLog::open(path)?,
        None => FreqLog::in_memory(),
    };
    let campaign_start = Instant::now();
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

    if let Some(ledger) = ledger {
        let status = if report.semantics_ok() {
            "ok"
        } else {
            "failed"
        };
        let wall_ms = campaign_start.elapsed().as_secs_f64() * 1e3;
        let mut rec = RunRecord::new("explore", &bench.design.name, 0, status, wall_ms);
        for pass in &report.trace.records {
            rec.add_stage(&pass.pass, pass.wall_ms);
        }
        rec.add_count("full-evals", report.full_evals as u64);
        rec.add_count("probe-evals", report.probe_evals as u64);
        rec.add_count("log-hits", report.log_hits as u64);
        rec.add_count("configs", report.outcomes.len() as u64);
        let converged = report
            .outcomes
            .iter()
            .filter(|o| o.converged_mhz.is_some())
            .count();
        rec.add_count("converged", converged as u64);
        ledger.append(rec)?;
    }

    match args.format {
        Format::Table => {
            println!("== {} ({}) ==", bench.name, bench.device.name);
            print!("{}", report::best_frequencies_table(&report));
            println!("{}", report::summary_line(&report));
            println!();
        }
        Format::Jsonl => print!("{}", report::report_jsonl(&report)),
    }
    Ok((report.semantics_ok(), report.span_tree))
}

fn main() -> ExitCode {
    let args = cli::parse_env("explore", USAGE, parse_args);

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
            "explore: no benchmark named `{}` (try --list; one of: {})",
            args.design,
            benches
                .iter()
                .map(|b| b.design.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::from(2);
    }

    let mut session = FlowSession::new();
    let ledger = match &args.ledger {
        Some(path) => match RunLedger::open(path) {
            Ok(ledger) => {
                let ledger = Arc::new(ledger);
                session = session.with_ledger(ledger.clone());
                Some(ledger)
            }
            Err(e) => {
                eprintln!("explore: cannot open ledger {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let mut semantics_ok = true;
    let mut traces: Vec<(String, hlsb::TraceTree)> = Vec::new();
    for bench in selected {
        match explore(bench, &args, &session, ledger.as_deref()) {
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
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("explore: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote explore span trees for {} benchmarks to {path}",
            traces.len()
        );
    }
    if let Some(path) = &args.metrics_out {
        let mut metrics = hlsb::MetricsRegistry::default();
        for (_, tree) in &traces {
            metrics.merge(&tree.metrics);
        }
        if let Err(e) = std::fs::write(path, render_prometheus(&metrics, &[("tool", "explore")])) {
            eprintln!("explore: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if !semantics_ok {
        eprintln!("explore: a converged configuration FAILED its semantics check");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
