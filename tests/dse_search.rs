//! Integration tests of the `hlsb-dse` explorer: determinism of the
//! search, resume-after-interrupt through the session's artifact store, the
//! successive-halving efficiency claim, and the quality of the frontier
//! against the all-optimizations default.

use std::sync::Arc;

use hlsb::{FlowSession, OptimizationOptions};
use hlsb_benchmarks::all_benchmarks;
use hlsb_dse::{DseReport, Explorer, KnobSpace, Strategy};
use hlsb_fabric::Device;
use hlsb_ir::builder::DesignBuilder;
use hlsb_ir::{DataType, Design};
use hlsb_store::ArtifactStore;

/// A small broadcast-heavy design: cheap to place, yet the optimization
/// knobs still change its fmax/area trade-off.
fn broadcast_design() -> Design {
    let mut b = DesignBuilder::new("dse_bcast");
    let fin = b.fifo("in", DataType::Int(32), 2);
    let fout = b.fifo("out", DataType::Int(32), 2);
    let mut k = b.kernel("top");
    let mut l = k.pipelined_loop("body", 64, 1);
    l.set_unroll(16);
    let src = l.invariant_input("src", DataType::Int(32));
    let x = l.fifo_read(fin, DataType::Int(32));
    let d = l.sub(x, src);
    let m = l.abs(d);
    let r = l.min(m, x);
    l.fifo_write(fout, r);
    l.finish();
    k.finish();
    b.finish().expect("valid")
}

fn frontier_signature(report: &DseReport) -> Vec<(String, u64, u64, u64)> {
    report
        .frontier_points()
        .map(|p| {
            (
                p.config.label(),
                p.metrics.fmax_mhz.to_bits(),
                p.metrics.latency_cycles,
                p.metrics.area_cells,
            )
        })
        .collect()
}

/// The frontier as a set of distinct objective vectors (several configs
/// can share one vector; strategies are only required to agree on the
/// vectors, not on which of the tied configs they evaluated).
fn frontier_metric_set(report: &DseReport) -> Vec<(u64, u64, u64)> {
    let mut v: Vec<(u64, u64, u64)> = report
        .frontier_points()
        .map(|p| {
            (
                p.metrics.fmax_mhz.to_bits(),
                p.metrics.latency_cycles,
                p.metrics.area_cells,
            )
        })
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[test]
fn same_seed_and_budget_yield_identical_frontier() {
    let design = broadcast_design();
    let device = Device::ultrascale_plus_vu9p();
    let session = FlowSession::new();
    let run = |session: &FlowSession| {
        Explorer::new(&design, &device)
            .space(KnobSpace::optimization_cube(vec![300.0, 333.0]))
            .strategy(Strategy::Random)
            .budget(7)
            .seed(42)
            .verify_iters(0)
            .run(session)
            .expect("in-memory store")
    };
    let a = run(&session);
    // A fresh session too: the artifact cache must not change results.
    let b = run(&FlowSession::new());
    assert_eq!(a.full_evals, 7);
    assert_eq!(frontier_signature(&a), frontier_signature(&b));

    let c = Explorer::new(&design, &device)
        .space(KnobSpace::optimization_cube(vec![300.0, 333.0]))
        .strategy(Strategy::Random)
        .budget(7)
        .seed(43)
        .verify_iters(0)
        .run(&session)
        .expect("in-memory store");
    assert_ne!(
        a.points.iter().map(|p| p.key).collect::<Vec<_>>(),
        c.points.iter().map(|p| p.key).collect::<Vec<_>>(),
        "a different seed must sample different candidates"
    );
}

#[test]
fn interrupted_sweep_resumes_from_the_store_to_the_same_frontier() {
    let design = broadcast_design();
    let device = Device::ultrascale_plus_vu9p();
    let space = KnobSpace::optimization_cube(vec![300.0]);
    let session = FlowSession::new();

    let reference = Explorer::new(&design, &device)
        .space(space.clone())
        .verify_iters(0)
        .run(&session)
        .expect("in-memory store");
    assert_eq!(reference.full_evals, 12, "the cube has 12 canonical points");

    let dir = std::env::temp_dir()
        .join("hlsb_dse_search_test")
        .join(format!("resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stored_session =
        || FlowSession::new().with_backend(Arc::new(ArtifactStore::open(&dir).unwrap()));

    // "Kill" the sweep after 5 evaluations: a budget-truncated grid run
    // persists exactly what an interrupted full run would have flushed.
    let partial = Explorer::new(&design, &device)
        .space(space.clone())
        .budget(5)
        .verify_iters(0)
        .run(&stored_session())
        .expect("disk store");
    assert_eq!(partial.full_evals, 5);

    // Resume against the same directory with a fresh session: the 5
    // stored evaluations are served without re-running place-and-route.
    let resumed = Explorer::new(&design, &device)
        .space(space)
        .verify_iters(0)
        .run(&stored_session())
        .expect("disk store");
    assert_eq!(resumed.store_hits, 5);
    assert_eq!(resumed.full_evals, 7);
    assert_eq!(frontier_signature(&resumed), frontier_signature(&reference));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn halving_matches_grid_and_the_frontier_beats_the_all_options_default() {
    // The paper's flagship broadcast benchmark: its implicit broadcasts
    // trip the lint rules, so the cheap proxy ranks the cube faithfully.
    let benches = all_benchmarks();
    let bench = benches
        .iter()
        .find(|b| b.design.name == "vector_product")
        .expect("Table-1 benchmark");
    let session = FlowSession::new();

    let grid = Explorer::new(&bench.design, &bench.device)
        .space(KnobSpace::optimization_cube(vec![bench.clock_mhz]))
        .strategy(Strategy::Grid)
        .verify_iters(4)
        .run(&session)
        .expect("in-memory store");
    let halving = Explorer::new(&bench.design, &bench.device)
        .space(KnobSpace::optimization_cube(vec![bench.clock_mhz]))
        .strategy(Strategy::SuccessiveHalving)
        .budget(6)
        .verify_iters(0)
        .run(&session)
        .expect("in-memory store");

    // The halving acceptance claim: same objective frontier as the
    // exhaustive grid with at most half the place-and-route spend.
    assert!(
        halving.full_evals * 2 <= grid.full_evals,
        "halving spent {} full evaluations, grid {}",
        halving.full_evals,
        grid.full_evals
    );
    assert_eq!(
        frontier_metric_set(&halving),
        frontier_metric_set(&grid),
        "halving must land on the same objective frontier as the grid"
    );

    // The frontier quality claim against the all-optimizations default.
    let report = grid;
    let default = report
        .points
        .iter()
        .find(|p| p.config.options == OptimizationOptions::all())
        .expect("the cube contains the all-optimizations default");
    assert!(
        report.frontier_points().any(|p| {
            p.metrics.fmax_mhz >= default.metrics.fmax_mhz
                && p.metrics.latency_cycles <= default.metrics.latency_cycles
        }),
        "some frontier config must reach the default's fmax at no worse latency"
    );

    // Satellite: every Pareto-optimal configuration is differentially
    // simulated against the untimed golden reference.
    for p in report.frontier_points() {
        assert!(
            matches!(p.sim_check, Some(Ok(()))),
            "{} failed simulation: {:?}",
            p.config.label(),
            p.sim_check
        );
    }
    assert!(report.frontier_semantics_ok());
    // Non-frontier points are not simulated — the check is targeted.
    assert!(report
        .points
        .iter()
        .enumerate()
        .filter(|(i, _)| !report.frontier.contains(i))
        .all(|(_, p)| p.sim_check.is_none()));
}

#[test]
fn dse_counters_account_for_every_candidate() {
    let design = broadcast_design();
    let device = Device::ultrascale_plus_vu9p();
    let session = FlowSession::new();
    let report = Explorer::new(&design, &device)
        .space(KnobSpace::optimization_cube(vec![300.0]))
        .strategy(Strategy::SuccessiveHalving)
        .budget(4)
        .verify_iters(0)
        .run(&session)
        .expect("in-memory store");
    assert_eq!(report.probe_evals, 12, "halving probes the whole cube");
    assert_eq!(report.full_evals, 4);
    assert_eq!(report.budget_dropped, 8);
    assert_eq!(report.points.len(), 4);
    let dse = report
        .trace
        .records
        .iter()
        .find(|r| r.pass == "dse")
        .expect("the trace carries a dse record");
    let counter = |name: &str| {
        dse.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    };
    assert_eq!(counter("probe-evals"), Some(12));
    assert_eq!(counter("full-evals"), Some(4));
    assert_eq!(counter("frontier"), Some(report.frontier.len() as u64));
    assert_eq!(counter("sim-checked"), Some(0), "verification disabled");
    // Probes and full runs share front-end artifacts through the session
    // cache; with 12 probes + 4 full runs over one design the front-end
    // must be reused far more often than computed.
    assert!(
        report.cache_delta.front_end.hits > report.cache_delta.front_end.misses,
        "expected front-end reuse, got {:?}",
        report.cache_delta.front_end
    );
}
