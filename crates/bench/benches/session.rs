//! Session-level performance: what artifact reuse and parallel execution
//! buy on a Table-1-shaped sweep (several benchmarks × two option sets).
//!
//! First, the cost of one content key: `config_key_<design>` times
//! `Flow::config_key` on a flow whose design was never hashed (a fresh
//! flow per iteration), for the largest Table-1 design and a small
//! fuzzed one. The design's `Debug` form dominates it.
//!
//! Then three configurations over the same flow list:
//!
//! * **cold** — a fresh single-threaded session per iteration (every
//!   artifact built from scratch; the pre-session behaviour);
//! * **warm** — a single-threaded session whose cache was pre-populated
//!   by one untimed sweep (front-end + schedule artifacts all hit);
//! * **parallel** — a fresh session per iteration with the host's full
//!   thread budget (set `HLSB_THREADS` to pin it).
//!
//! Numbers land in `EXPERIMENTS.md`. On a single-core host the parallel
//! row matches cold (the scoped-thread pool degenerates to one worker);
//! results are bit-identical across all three by construction.

use hlsb::{Flow, FlowSession, OptimizationOptions, PlaceEffort};
use hlsb_bench::{benchmark_flow, time_it};
use hlsb_benchmarks::{all_benchmarks, pattern_match};
use hlsb_fabric::Device;
use hlsb_ir::Design;
use hlsb_sim::fuzz::random_design;

/// Table-1-shaped flow list, sized for bench iteration: the small/medium
/// benchmarks, orig + opt each, fast effort, one placement seed.
fn sweep_flows() -> Vec<Flow> {
    let mut flows = Vec::new();
    for bench in all_benchmarks() {
        // The two giant designs (500k+ LUTs) would dominate the timing
        // without changing the comparison.
        if bench.name.contains("Stencil") || bench.name.contains("Matrix") {
            continue;
        }
        for options in [OptimizationOptions::none(), OptimizationOptions::all()] {
            flows.push(
                benchmark_flow(&bench, options)
                    .place_effort(PlaceEffort::Fast)
                    .place_seeds(1),
            );
        }
    }
    flows
}

/// Times the first `config_key` of a fresh flow of `design`: every
/// iteration takes its own flow, built before timing starts, so only
/// the hashing is timed.
fn time_config_key(design: &Design, device: &Device) {
    const ITERS: u32 = 20;
    let mut fresh: Vec<Flow> = (0..=ITERS)
        .map(|_| Flow::new(design.clone()).device(device.clone()))
        .collect();
    time_it(&format!("config_key_{}", design.name), ITERS, || {
        fresh.pop().expect("one flow per iteration").config_key()
    });
}

fn main() {
    println!("session");
    let pattern = pattern_match::benchmark();
    time_config_key(&pattern.design, &pattern.device);
    time_config_key(&random_design(0), &Device::ultrascale_plus_vu9p());

    let flows = sweep_flows();
    println!(
        "sweep: {} flows, host threads {}",
        flows.len(),
        FlowSession::new().threads()
    );

    time_it("sweep_cold_1thread", 5, || {
        FlowSession::with_threads(1).run_many(&flows)
    });

    let warm = FlowSession::with_threads(1);
    warm.run_many(&flows);
    time_it("sweep_warm_cache_1thread", 5, || warm.run_many(&flows));
    let stats = warm.cache_stats();
    println!(
        "warm-cache session: {} hits / {} misses",
        stats.hits, stats.misses
    );

    time_it("sweep_cold_parallel", 5, || {
        FlowSession::new().run_many(&flows)
    });
}
