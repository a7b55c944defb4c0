//! Clock-target sweep: how the HLS clock target interacts with the
//! achieved frequency (the schedule gets deeper as the target rises, but
//! the physical fabric has the last word).
//!
//! ```text
//! sweep [<benchmark>] [none|data|skid|all|<mask>]
//!       [--partitions <n>|auto|off] [--trace-out <path>]
//! ```
//!
//! The benchmark defaults to `genome`, the level (a preset or a toggle
//! mask such as `B-K-`) to `all`.
//! The targets run through one [`hlsb::FlowSession`]: the front-end
//! artifact is clock-independent, so all seven flows unroll once and the
//! sweep parallelizes across clock targets up to the thread budget.
//! `--trace-out` records a span trace per target and writes the batch as
//! Chrome trace-event JSON (one process per clock target; load in
//! Perfetto or `chrome://tracing`).
//!
//! Stdout holds only the sweep table (and the trace notice), so two runs
//! print the same bytes; pass totals and cache counts go to stderr.
//!
//! Exit status is 2 on usage errors (an unknown benchmark, level or flag
//! included), 1 if the trace cannot be written, 0 otherwise; `--help`
//! prints the usage and exits 0.

use hlsb::{Flow, FlowSession, Partitioning};
use hlsb_bench::shell::{self, Selection};
use hlsb_bench::{expect_all, pass_summary, SEED};
use hlsb_findings::cli::{self, Arg, CliError};

const TARGETS: [f64; 7] = [150.0, 200.0, 250.0, 300.0, 333.0, 400.0, 500.0];

const USAGE: &str = "usage: sweep [<benchmark>] [none|data|skid|all|<mask>]\n\
                     \x20            [--partitions <n>|auto|off] [--trace-out <path>]";

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut trace_out: Option<String> = None;
    let mut partitions = Partitioning::Off;
    let selection = cli::parse_env("sweep", USAGE, |cli| {
        while let Some(arg) = cli.next_arg()? {
            match arg {
                Arg::Flag("--trace-out") => trace_out = Some(cli.value()?),
                Arg::Flag("--partitions") => partitions = cli.parse()?,
                Arg::Positional(p) if positional.len() < 2 => positional.push(p.to_string()),
                _ => return Err(CliError::unexpected(arg)),
            }
        }
        Selection::read(&positional, false, "all")
    });
    let bench = &selection.benches[0];

    println!("clock-target sweep: {} ({})", bench.name, selection.level);
    println!(
        "{:>13} {:>15} {:>7} {:>6}",
        "target (MHz)", "achieved (MHz)", "depth", "regs"
    );
    let flows: Vec<Flow> = TARGETS
        .iter()
        .map(|&target| {
            Flow::new(bench.design.clone())
                .device(bench.device.clone())
                .clock_mhz(target)
                .options(selection.options)
                .seed(SEED)
                .partitions(partitions)
                .trace(trace_out.is_some())
        })
        .collect();
    let labels: Vec<String> = TARGETS
        .iter()
        .map(|t| format!("{} @ {t:.0} MHz", bench.name))
        .collect();
    let session = FlowSession::new();
    let results = expect_all(&labels, session.run_many(&flows));

    for (target, r) in TARGETS.iter().zip(&results) {
        println!(
            "{target:>13.0} {:>15.0} {:>7} {:>6}",
            r.fmax_mhz,
            r.schedule_depths.iter().max().copied().unwrap_or(0),
            r.inserted_regs
        );
    }
    eprintln!("{}", pass_summary(&results, &session));

    if let Some(path) = &trace_out {
        let runs = labels
            .iter()
            .zip(&results)
            .filter_map(|(label, r)| r.trace_tree().map(|tree| (label.as_str(), tree)));
        shell::write_chrome_trace("sweep", path, runs, "runs");
    }
}
