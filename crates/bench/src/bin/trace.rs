//! `trace` — run the flow with span tracing enabled and export the
//! decision provenance.
//!
//! ```text
//! trace [<benchmark>|all] [none|data|skid|all|<mask>]
//!       [--partitions <n>|auto|off] [--trace-out <path>] [--jsonl-out <path>]
//! ```
//!
//! Runs the selected benchmark(s) at the given optimization level with
//! hierarchical span tracing on, prints each run's span tree (stage
//! timings plus every decision event: chain splits, pruned done-signals,
//! skid insertions, capacity choices) and the metrics registry merged
//! over all runs. `--trace-out` writes the batch as Chrome trace-event
//! JSON — load it in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`; each run is a separate process, placement trials
//! ride on their own tracks. `--jsonl-out` writes the lossless JSONL
//! encoding ([`hlsb::TraceTree::from_jsonl`] round-trips it); with
//! several runs, each tree goes to `<stem>.<idx>.<ext>`.
//!
//! Exit status is 2 on usage errors (an unknown benchmark, level or flag
//! included), 1 if an output cannot be written, 0 otherwise; `--help`
//! prints the usage and exits 0.

use hlsb::{MetricsRegistry, Partitioning, TraceTree};
use hlsb_bench::shell::{self, Selection};
use hlsb_findings::cli::{self, Arg, CliError};

const USAGE: &str = "usage: trace [<benchmark>|all] [none|data|skid|all|<mask>]\n\
                     \x20            [--partitions <n>|auto|off]\n\
                     \x20            [--trace-out <path>] [--jsonl-out <path>]";

/// Per-run output path: the base path as-is for a single run, otherwise
/// the run index is spliced in before the extension.
fn indexed_path(base: &str, idx: usize, runs: usize) -> String {
    if runs == 1 {
        return base.to_string();
    }
    match base.rsplit_once('.') {
        Some((stem, ext)) => format!("{stem}.{idx}.{ext}"),
        None => format!("{base}.{idx}"),
    }
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut trace_out: Option<String> = None;
    let mut jsonl_out: Option<String> = None;
    let mut partitions = Partitioning::Off;
    let selection = cli::parse_env("trace", USAGE, |cli| {
        while let Some(arg) = cli.next_arg()? {
            match arg {
                Arg::Flag("--partitions") => partitions = cli.parse()?,
                Arg::Flag("--trace-out") => trace_out = Some(cli.value()?),
                Arg::Flag("--jsonl-out") => jsonl_out = Some(cli.value()?),
                Arg::Positional(p) if positional.len() < 2 => positional.push(p.to_string()),
                _ => return Err(CliError::unexpected(arg)),
            }
        }
        Selection::read(&positional, true, "all")
    });

    let runs = selection.run_traced(partitions);
    let mut metrics = MetricsRegistry::default();
    let trees: Vec<(&str, &TraceTree)> = runs
        .iter()
        .map(|(label, r)| {
            let tree = r.trace_tree().expect("flow ran with tracing enabled");
            (label.as_str(), tree)
        })
        .collect();
    for (label, tree) in &trees {
        println!("== {label} ==");
        print!("{}", tree.render());
        metrics.merge(&tree.metrics);
        println!();
    }
    if !metrics.is_empty() {
        println!("metrics over {} run(s):", trees.len());
        print!("{}", metrics.render());
    }

    if let Some(path) = &trace_out {
        shell::write_chrome_trace("trace", path, trees.iter().copied(), "runs");
    }
    if let Some(base) = &jsonl_out {
        for (idx, (_, tree)) in trees.iter().enumerate() {
            let path = indexed_path(base, idx, trees.len());
            shell::write_or_exit("trace", &path, tree.to_jsonl());
            println!("wrote JSONL trace to {path}");
        }
    }
}
