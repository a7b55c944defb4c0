//! Regenerates Table 1: timing improvements and post-implementation
//! resources on all nine benchmarks, original vs fully optimized.
//!
//! The 18 flows (9 benchmarks × {orig, opt}) run through one
//! [`hlsb::FlowSession`], which executes them in parallel up to the
//! thread budget (`HLSB_THREADS` to override) and shares front-end
//! artifacts between the variants of each benchmark.

use hlsb::{FlowSession, OptimizationOptions};
use hlsb_bench::{benchmark_flow, expect_all, pass_summary, table1_row};
use hlsb_benchmarks::all_benchmarks;

fn main() {
    println!("Table 1: timing improvements and post-implementation resources");
    println!(
        "{:<20} {:<20} {:<24} {:>7} {:>7} {:>7} {:>7} {:>4} {:>4} {:>6}",
        "Application",
        "Broadcast type",
        "Target FPGA",
        "LUT%",
        "FF%",
        "BRAM%",
        "DSP%",
        "Orig",
        "Opt",
        "Diff"
    );
    println!("{:-<134}", "");

    let benches = all_benchmarks();
    let mut flows = Vec::new();
    let mut labels = Vec::new();
    for bench in &benches {
        for (tag, options) in [
            ("orig", OptimizationOptions::none()),
            ("opt", OptimizationOptions::all()),
        ] {
            flows.push(benchmark_flow(bench, options));
            labels.push(format!("{} ({tag})", bench.name));
        }
    }

    let t0 = std::time::Instant::now();
    let session = FlowSession::new();
    let results = expect_all(&labels, session.run_many(&flows));
    let wall = t0.elapsed().as_secs_f64();

    let mut gains = Vec::new();
    for (bench, pair) in benches.iter().zip(results.chunks(2)) {
        let (orig, opt) = (&pair[0], &pair[1]);
        println!(
            "{}",
            table1_row(
                bench.name,
                bench.broadcast_type,
                &bench.device.name,
                orig,
                opt
            )
        );
        gains.push(opt.gain_over(orig));
    }
    let avg = gains.iter().sum::<f64>() / gains.len() as f64;
    println!("{:-<134}", "");
    println!("average frequency gain: {avg:+.0}%  (paper: +53%)");
    // Timings go to stderr so that stdout is a pure function of the flow.
    eprintln!("{}", pass_summary(&results, &session));
    eprintln!("wall time: {wall:.1} s");
}
