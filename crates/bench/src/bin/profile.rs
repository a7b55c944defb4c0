//! `profile` — self-time profile of the flow's span tree.
//!
//! ```text
//! profile [<benchmark>|all] [none|data|skid|all|<mask>]
//!         [--partitions <n>|auto|off] [--trace-in <path>]
//!         [--collapsed-out <path>]
//! ```
//!
//! Runs the selected benchmark(s) with span tracing enabled and folds
//! the resulting trees into a per-stage profile: for every span path,
//! the call count, total (inclusive) time, and self time — total minus
//! the time spent in child spans — sorted by self time so the rows
//! answer "where does the wall clock actually go?" rather than "which
//! stage contains the others?". `--trace-in` profiles an existing JSONL
//! span tree (as written by `trace --jsonl-out` or
//! `hlsb-serve --trace-out`) instead of running anything.
//! `--collapsed-out` writes the same aggregation in collapsed-stack
//! format (`path;sub value`, one line per stack, values in integer
//! microseconds of self time) — feed it to any flamegraph renderer.
//!
//! Exit status is 2 on usage errors (an unknown benchmark, level or flag
//! included) or an unreadable `--trace-in`, 1 if the collapsed stacks
//! cannot be written, 0 otherwise; `--help` prints the usage and exits 0.

use hlsb::{FlowSession, OptimizationOptions, Partitioning, TraceTree};
use hlsb_bench::{benchmark_flow, expect_all, resolve_benchmarks};
use hlsb_benchmarks::Benchmark;
use hlsb_findings::cli::{self, Arg, Cli, CliError};
use hlsb_telemetry::{collapsed_stacks, render_table, self_time};
use std::process::ExitCode;

const USAGE: &str = "usage: profile [<benchmark>|all] [none|data|skid|all|<mask>]\n\
                     \x20              [--partitions <n>|auto|off] [--trace-in <path>]\n\
                     \x20              [--collapsed-out <path>]";

/// What to profile: an existing trace, or fresh runs.
enum Source {
    TraceIn(String),
    Run {
        benches: Vec<Benchmark>,
        level: String,
        options: OptimizationOptions,
        partitions: Partitioning,
    },
}

fn parse_args(cli: &mut Cli) -> Result<(Source, Option<String>), CliError> {
    let mut positional: Vec<String> = Vec::new();
    let mut trace_in: Option<String> = None;
    let mut collapsed_out: Option<String> = None;
    let mut partitions = Partitioning::Off;
    while let Some(arg) = cli.next_arg()? {
        match arg {
            Arg::Flag("--partitions") => partitions = cli.parse()?,
            Arg::Flag("--trace-in") => trace_in = Some(cli.value()?),
            Arg::Flag("--collapsed-out") => collapsed_out = Some(cli.value()?),
            Arg::Positional(p) if positional.len() < 2 => positional.push(p.to_string()),
            _ => return Err(CliError::unexpected(arg)),
        }
    }
    let source = match trace_in {
        Some(_) if !positional.is_empty() => {
            return Err(CliError::usage("--trace-in takes no benchmark or level"))
        }
        Some(path) => Source::TraceIn(path),
        None => {
            let name = positional.first().map_or("genome", String::as_str);
            let level = positional.get(1).map_or("all", String::as_str);
            Source::Run {
                options: cli::positional("optimization level", level)?,
                benches: resolve_benchmarks(name)?,
                level: level.to_string(),
                partitions,
            }
        }
    };
    Ok((source, collapsed_out))
}

fn main() -> ExitCode {
    let (source, collapsed_out) = cli::parse_env("profile", USAGE, parse_args);
    let owned_trees: Vec<TraceTree> = match source {
        Source::TraceIn(path) => {
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("profile: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match TraceTree::from_jsonl(&text) {
                Ok(tree) => vec![tree],
                Err(e) => {
                    eprintln!("profile: cannot parse {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        Source::Run {
            benches,
            level,
            options,
            partitions,
        } => {
            let flows: Vec<_> = benches
                .iter()
                .map(|b| {
                    benchmark_flow(b, options)
                        .partitions(partitions)
                        .trace(true)
                })
                .collect();
            let labels: Vec<String> = benches
                .iter()
                .map(|b| format!("{} ({level})", b.name))
                .collect();
            let session = FlowSession::new();
            let results = expect_all(&labels, session.run_many(&flows));
            results
                .into_iter()
                .map(|r| {
                    r.trace_tree()
                        .expect("flow ran with tracing enabled")
                        .clone()
                })
                .collect()
        }
    };

    let trees: Vec<&TraceTree> = owned_trees.iter().collect();
    print!("{}", render_table(&self_time(&trees)));

    if let Some(path) = &collapsed_out {
        if let Err(e) = std::fs::write(path, collapsed_stacks(&trees)) {
            eprintln!("profile: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote collapsed stacks to {path}");
    }
    ExitCode::SUCCESS
}
