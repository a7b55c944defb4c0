//! Differential simulation check over the Table-1 benchmarks.
//!
//! ```text
//! simcheck [--format table|jsonl] [--design <name-substring>] [--trace-out <path>]
//! ```
//!
//! For every benchmark and every point of the optimization cube
//! (broadcast-aware × sync-pruning × skid-buffer, each variant labelled
//! with its `BSKM` mask such as `B-K-`), runs the untimed golden
//! evaluator against the cycle-accurate simulator of the scheduled
//! design and verifies trace equality plus latency consistency
//! (`hlsb::sim::check_latency`). This is the fast semantics gate: it
//! exercises the whole front-end + scheduler without placement, so all
//! 72 variant runs finish in seconds.
//!
//! `--format jsonl` emits one JSON line per variant (and a final
//! `summary` line) instead of the table, for machine consumption in CI.
//! `--design` restricts the sweep to one benchmark (substring match,
//! same resolver as `explain`/`sweep`). `--trace-out` records a span
//! trace per variant and writes the batch as Chrome trace-event JSON.
//!
//! Exit status is 2 on usage errors (an unknown benchmark included), 1
//! when any variant fails its check, 0 otherwise; `--help` prints the
//! usage and exits 0.

use hlsb::sim::Stimulus;
use hlsb::{Flow, FlowSession, OptimizationOptions, TraceTree};
use hlsb_bench::shell::{self, resolve_benchmark, Format};
use hlsb_benchmarks::all_benchmarks;
use hlsb_findings::cli::{self, Arg, CliError};
use hlsb_findings::json_escape;
use std::process::ExitCode;

const USAGE: &str = "usage: simcheck [--format table|jsonl] [--design <name>] [--trace-out <path>]";

/// Iterations simulated per loop (trip counts are capped to this).
const ITERS_CAP: u64 = 48;

/// The eight points of the broadcast-aware × sync-pruning × skid-buffer
/// cube, baseline first.
fn cube() -> impl Iterator<Item = OptimizationOptions> {
    (0u8..8).map(|bits| OptimizationOptions {
        broadcast_aware: bits & 1 != 0,
        sync_pruning: bits & 2 != 0,
        skid_buffer: bits & 4 != 0,
        min_area_skid: false,
    })
}

fn main() -> ExitCode {
    let mut format = Format::Table;
    let mut trace_out: Option<String> = None;
    let benches = cli::parse_env("simcheck", USAGE, |cli| {
        let mut benches = all_benchmarks();
        while let Some(arg) = cli.next_arg()? {
            match arg {
                Arg::Flag("--format") => {
                    format = Format::read(cli, &[Format::Table, Format::Jsonl])?
                }
                Arg::Flag("--design") => benches = vec![resolve_benchmark(&cli.value()?)?],
                Arg::Flag("--trace-out") => trace_out = Some(cli.value()?),
                _ => return Err(CliError::unexpected(arg)),
            }
        }
        Ok(benches)
    });
    let json = format == Format::Jsonl;

    let session = FlowSession::new();
    if !json {
        println!("simcheck: golden vs cycle-accurate over the optimization cube");
        println!(
            "{:<28} {:>5} {:>8} {:>8} {:>8} {:>7}  verdict",
            "benchmark / combo", "vals", "cycles", "stalls", "gated", "match"
        );
        println!("{:-<80}", "");
    }
    let mut failures = 0usize;
    let mut variants = 0usize;
    let mut traces: Vec<(String, TraceTree)> = Vec::new();
    for bench in benches {
        let stim = Stimulus::seeded(&bench.design, 1, ITERS_CAP as usize);
        for opts in cube() {
            let name = opts.to_string();
            let flow = Flow::new(bench.design.clone())
                .device(bench.device.clone())
                .clock_mhz(bench.clock_mhz)
                .options(opts)
                .trace(trace_out.is_some());
            let mut sim = session
                .simulate(&flow, &stim, ITERS_CAP)
                .expect("benchmark designs are valid");
            if let Some(tree) = sim.span_tree.take() {
                traces.push((format!("{} [{name}]", bench.name), tree));
            }
            let verdict = sim.check();
            let stalls: u64 = sim.timed.per_loop.iter().map(|r| r.stall_cycles).sum();
            let gated: u64 = sim.timed.per_loop.iter().map(|r| r.gated_cycles).sum();
            let trace_match = sim.timed.trace.diff(&sim.golden).is_none();
            if json {
                println!(
                    "{{\"benchmark\":\"{}\",\"combo\":\"{name}\",\"values\":{},\
                     \"cycles\":{},\"stalls\":{stalls},\"gated\":{gated},\
                     \"trace_match\":{trace_match},\"ok\":{},\"verdict\":\"{}\"}}",
                    json_escape(bench.name),
                    sim.golden.len(),
                    sim.timed.cycles,
                    verdict.is_ok(),
                    json_escape(&verdict.as_ref().err().cloned().unwrap_or_default()),
                );
            } else {
                println!(
                    "{:<28} {:>5} {:>8} {:>8} {:>8} {:>7}  {}",
                    format!("{} [{}]", bench.name, name),
                    sim.golden.len(),
                    sim.timed.cycles,
                    stalls,
                    gated,
                    if trace_match { "yes" } else { "NO" },
                    match &verdict {
                        Ok(()) => "ok".to_string(),
                        Err(e) => format!("FAIL: {e}"),
                    }
                );
            }
            variants += 1;
            if verdict.is_err() {
                failures += 1;
            }
        }
    }
    let stats = session.cache_stats_by_stage();
    if json {
        println!(
            "{{\"summary\":true,\"variants\":{variants},\"failures\":{failures},\
             \"front_end_cache_hits\":{},\"front_end_cache_misses\":{},\
             \"schedule_cache_hits\":{},\"schedule_cache_misses\":{}}}",
            stats.front_end.hits,
            stats.front_end.misses,
            stats.schedule.hits,
            stats.schedule.misses,
        );
    } else {
        println!("{:-<80}", "");
        println!(
            "cache: front-end {} hits / {} misses, schedule {} hits / {} misses \
             (variants share front-end + baseline schedules)",
            stats.front_end.hits,
            stats.front_end.misses,
            stats.schedule.hits,
            stats.schedule.misses,
        );
    }
    if let Some(path) = &trace_out {
        let runs = traces.iter().map(|(label, tree)| (label.as_str(), tree));
        shell::write_chrome_trace("simcheck", path, runs, "variants");
    }
    if failures > 0 {
        eprintln!("simcheck: {failures} variant(s) FAILED");
        return ExitCode::FAILURE;
    }
    if !json {
        println!("simcheck: all variants semantics-preserving");
    }
    ExitCode::SUCCESS
}
