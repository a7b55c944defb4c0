//! Cross-crate integration: the full flow (IR → schedule → RTL → place →
//! timing) on small designs, checking end-to-end invariants.

use hlsb::{Flow, FlowError, FlowSession, OptimizationOptions, PlaceEffort, TraceTree};
use hlsb_benchmarks::Benchmark;
use hlsb_fabric::Device;
use hlsb_ir::builder::DesignBuilder;
use hlsb_ir::{DataType, Design};

fn broadcast_design(unroll: u32) -> Design {
    let mut b = DesignBuilder::new("it_bcast");
    let fin = b.fifo("in", DataType::Int(32), 2);
    let fout = b.fifo("out", DataType::Int(32), 2);
    let mut k = b.kernel("top");
    let mut l = k.pipelined_loop("body", 256, 1);
    l.set_unroll(unroll);
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

fn run(design: &Design, opts: OptimizationOptions, seed: u64) -> hlsb::ImplementationResult {
    Flow::new(design.clone())
        .device(Device::ultrascale_plus_vu9p())
        .clock_mhz(300.0)
        .options(opts)
        .place_effort(PlaceEffort::Fast)
        .place_seeds(1)
        .seed(seed)
        .run()
        .expect("flow succeeds")
}

#[test]
fn optimizations_never_break_the_flow_and_usually_help() {
    let design = broadcast_design(32);
    let orig = run(&design, OptimizationOptions::none(), 5);
    let opt = run(&design, OptimizationOptions::all(), 5);
    assert!(orig.fmax_mhz > 30.0);
    assert!(
        opt.fmax_mhz >= orig.fmax_mhz * 0.9,
        "opt {} vs orig {}",
        opt.fmax_mhz,
        orig.fmax_mhz
    );
    assert!(
        opt.inserted_regs > 0,
        "the 32-way broadcast should get registers"
    );
}

#[test]
fn results_are_deterministic() {
    let design = broadcast_design(16);
    let a = run(&design, OptimizationOptions::all(), 9);
    let b = run(&design, OptimizationOptions::all(), 9);
    assert_eq!(a.fmax_mhz, b.fmax_mhz);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.critical_cells, b.critical_cells);
}

#[test]
fn area_overhead_of_optimizations_is_marginal() {
    // Paper: "with a marginal area overhead". Allow < 35% FF growth and
    // < 15% LUT growth on this small design.
    let design = broadcast_design(64);
    let orig = run(&design, OptimizationOptions::none(), 2);
    let opt = run(&design, OptimizationOptions::all(), 2);
    let ff_growth = opt.stats.ffs as f64 / orig.stats.ffs.max(1) as f64;
    let lut_growth = opt.stats.luts as f64 / orig.stats.luts.max(1) as f64;
    assert!(ff_growth < 1.35, "FF growth {ff_growth:.2}x");
    assert!(lut_growth < 1.15, "LUT growth {lut_growth:.2}x");
}

#[test]
fn skid_control_removes_the_stall_broadcast() {
    let design = broadcast_design(32);
    let stall = run(&design, OptimizationOptions::none(), 3);
    let skid = run(&design, OptimizationOptions::skid_plain(), 3);
    assert!(
        skid.lower_info.max_control_fanout * 4 < stall.lower_info.max_control_fanout,
        "skid ctrl fanout {} vs stall {}",
        skid.lower_info.max_control_fanout,
        stall.lower_info.max_control_fanout
    );
    assert!(skid.lower_info.skid_buffer_bits > 0);
    assert_eq!(stall.lower_info.skid_buffer_bits, 0);
}

#[test]
fn depth_grows_but_ii_is_preserved_by_broadcast_fix() {
    // Paper §5.2: "the length of the pipeline is 9 originally and 10 after
    // optimization. Both have the same initiation interval of 1."
    let design = broadcast_design(64);
    let orig = run(&design, OptimizationOptions::none(), 4);
    let opt = run(&design, OptimizationOptions::data_only(), 4);
    let d0 = orig.schedule_depths[0];
    let d1 = opt.schedule_depths[0];
    assert!(d1 >= d0, "depth must not shrink: {d0} -> {d1}");
    assert!(d1 <= d0 + 4, "depth overhead should be small: {d0} -> {d1}");
}

/// The three smallest paper benchmarks — enough variety (stall control,
/// dataflow sync, BRAM scatter) to exercise every pipeline stage while
/// keeping the equivalence suite fast.
fn equivalence_benchmarks() -> Vec<Benchmark> {
    hlsb_benchmarks::all_benchmarks()
        .into_iter()
        .filter(|b| ["Stream Buffer", "Pattern Matching", "Face Detection"].contains(&b.name))
        .collect()
}

fn equivalence_flows() -> Vec<Flow> {
    let mut flows = Vec::new();
    for bench in equivalence_benchmarks() {
        for opts in [OptimizationOptions::none(), OptimizationOptions::all()] {
            flows.push(
                Flow::new(bench.design.clone())
                    .device(bench.device.clone())
                    .clock_mhz(bench.clock_mhz)
                    .options(opts)
                    .place_effort(PlaceEffort::Fast)
                    .place_seeds(2)
                    .seed(11),
            );
        }
    }
    flows
}

#[test]
fn cached_artifacts_do_not_change_results() {
    // Guarantee: a warm artifact cache produces bit-identical results to
    // a cold one — caching is purely a time optimization.
    let flows = equivalence_flows();
    let warm = FlowSession::with_threads(1);
    let first: Vec<_> = flows.iter().map(|f| warm.run(f).expect("flow")).collect();
    let rerun: Vec<_> = flows.iter().map(|f| warm.run(f).expect("flow")).collect();
    assert!(
        warm.cache_stats().hits > 0,
        "the rerun must hit the artifact cache: {:?}",
        warm.cache_stats()
    );
    for ((cold, cached), flow) in first.iter().zip(&rerun).zip(&flows) {
        assert_eq!(cold, cached, "cached != cold for {:?}", flow);
    }
    // And a completely fresh session agrees with both.
    let fresh = FlowSession::with_threads(1);
    for (flow, expected) in flows.iter().zip(&first) {
        assert_eq!(&fresh.run(flow).expect("flow"), expected);
    }
}

#[test]
fn disk_warmed_results_are_bit_identical_to_cold_and_cached() {
    // Guarantee: the persistent artifact store never changes what a flow
    // returns — cold == cached == disk-warmed, bit for bit. The store
    // only classifies rebuilds (disk hits) and feeds fingerprints back.
    use hlsb_store::{ArtifactBackend, ArtifactStore};
    use std::sync::Arc;
    let dir = std::env::temp_dir()
        .join("hlsb_flow_roundtrip_store")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    let flows = equivalence_flows();

    // Cold: a disk-backed session populates the store from nothing.
    let store = Arc::new(ArtifactStore::open(&dir).expect("store opens"));
    let cold_session =
        FlowSession::with_threads(1).with_backend(store.clone() as Arc<dyn ArtifactBackend>);
    let cold: Vec<_> = flows
        .iter()
        .map(|f| cold_session.run(f).expect("flow"))
        .collect();
    assert_eq!(
        cold_session.cache_stats().disk_hits,
        0,
        "nothing stored yet"
    );
    assert!(store.stage_count() > 0, "cold run publishes fingerprints");

    // Cached: the same session again, answered from memory.
    let cached: Vec<_> = flows
        .iter()
        .map(|f| cold_session.run(f).expect("flow"))
        .collect();
    assert!(cold_session.cache_stats().hits > 0);

    // Disk-warmed: a fresh session and a freshly reopened store — the
    // cross-process case. Rebuilds must match the stored fingerprints.
    let reopened = Arc::new(ArtifactStore::open(&dir).expect("store reopens"));
    let warmed_session =
        FlowSession::with_threads(1).with_backend(reopened as Arc<dyn ArtifactBackend>);
    let warmed: Vec<_> = flows
        .iter()
        .map(|f| warmed_session.run(f).expect("flow"))
        .collect();
    let stats = warmed_session.cache_stats();
    assert!(
        stats.disk_hits > 0 && stats.misses == 0,
        "every warmed rebuild must match a stored fingerprint: {stats:?}"
    );

    // And a plain in-memory session agrees with all three.
    let plain = FlowSession::with_threads(1);
    for (((flow, cold), cached), warmed) in flows.iter().zip(&cold).zip(&cached).zip(&warmed) {
        assert_eq!(cold, cached, "cached != cold for {flow:?}");
        assert_eq!(cold, warmed, "disk-warmed != cold for {flow:?}");
        assert_eq!(
            &plain.run(flow).expect("flow"),
            cold,
            "in-memory != disk-backed for {flow:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_execution_is_bit_identical_to_sequential() {
    // Guarantee: thread count never changes results — neither for the
    // placement trials inside one flow nor for whole flows in run_many.
    let flows = equivalence_flows();
    let sequential = FlowSession::with_threads(1).run_many(&flows);
    let parallel = FlowSession::with_threads(4).run_many(&flows);
    assert_eq!(sequential.len(), parallel.len());
    for ((seq, par), flow) in sequential.iter().zip(&parallel).zip(&flows) {
        let seq = seq.as_ref().expect("flow");
        let par = par.as_ref().expect("flow");
        assert_eq!(seq, par, "parallel != sequential for {:?}", flow);
    }
    // Single runs with a parallel budget agree too (trial-level threads).
    for threads in [2, 4] {
        let single = FlowSession::with_threads(threads);
        for (flow, seq) in flows.iter().zip(&sequential) {
            assert_eq!(
                &single.run(flow).expect("flow"),
                seq.as_ref().expect("flow"),
                "{threads} threads"
            );
        }
    }
    // Three trials on two workers: one worker runs two trials, and the
    // winner is reduced across workers.
    let three = flows[1].clone().place_seeds(3);
    assert_eq!(
        FlowSession::with_threads(2).run(&three).expect("flow"),
        FlowSession::with_threads(1).run(&three).expect("flow"),
        "three trials on two workers"
    );
}

fn traced_equivalence_flows() -> Vec<Flow> {
    equivalence_flows()
        .into_iter()
        .map(|f| f.trace(true))
        .collect()
}

#[test]
fn trace_trees_are_equal_cached_vs_cold() {
    // The span tree is part of the determinism contract: a warm artifact
    // cache replays the same decisions, so the normalized trees (volatile
    // attrs like cache-hits stripped) must be equal to a cold run's.
    let flows = traced_equivalence_flows();
    let session = FlowSession::with_threads(1);
    let cold: Vec<_> = flows
        .iter()
        .map(|f| session.run(f).expect("flow"))
        .collect();
    let cached: Vec<_> = flows
        .iter()
        .map(|f| session.run(f).expect("flow"))
        .collect();
    assert!(
        session.cache_stats().hits > 0,
        "the rerun must hit the artifact cache: {:?}",
        session.cache_stats()
    );
    for ((a, b), flow) in cold.iter().zip(&cached).zip(&flows) {
        let cold_tree = a.trace_tree().expect("traced flow has a span tree");
        let cached_tree = b.trace_tree().expect("traced flow has a span tree");
        assert_eq!(
            cold_tree.normalized(),
            cached_tree.normalized(),
            "cached trace != cold trace for {flow:?}"
        );
    }
}

#[test]
fn trace_trees_are_equal_across_thread_counts() {
    // Neither run_many's outer parallelism nor the placement-trial
    // threads may change what the trace records.
    let flows = traced_equivalence_flows();
    let sequential = FlowSession::with_threads(1).run_many(&flows);
    let parallel = FlowSession::with_threads(4).run_many(&flows);
    for ((seq, par), flow) in sequential.iter().zip(&parallel).zip(&flows) {
        let seq = seq.as_ref().expect("flow");
        let par = par.as_ref().expect("flow");
        assert_eq!(
            seq.trace_tree().expect("traced").normalized(),
            par.trace_tree().expect("traced").normalized(),
            "parallel trace != sequential trace for {flow:?}"
        );
    }
}

#[test]
fn trace_jsonl_round_trips_byte_identical() {
    // export → parse → re-export must reproduce the exact bytes, so
    // archived traces stay diffable.
    let result = Flow::new(broadcast_design(32))
        .device(Device::ultrascale_plus_vu9p())
        .clock_mhz(300.0)
        .options(OptimizationOptions::all())
        .place_effort(PlaceEffort::Fast)
        .place_seeds(2)
        .seed(7)
        .trace(true)
        .run()
        .expect("flow succeeds");
    let tree = result.trace_tree().expect("traced flow has a span tree");
    let text = tree.to_jsonl();
    let parsed = TraceTree::from_jsonl(&text).expect("exporter output parses");
    assert_eq!(&parsed, tree, "parsed tree differs from the original");
    assert_eq!(parsed.to_jsonl(), text, "re-export is not byte-identical");
}

#[test]
fn impossible_designs_error_cleanly() {
    // Unverifiable IR is rejected before any heavy work. The builder
    // sanitizes pragmas, so corrupt the design directly.
    let mut b = DesignBuilder::new("bad");
    let mut k = b.kernel("top");
    let mut l = k.pipelined_loop("body", 4, 1);
    let x = l.varying_input("x", DataType::Int(32));
    l.output("o", x);
    l.finish();
    k.finish();
    let mut d = b.finish_unverified();
    d.kernels[0].loops[0].unroll = 0; // invalid pragma
    let err = Flow::new(d).run().unwrap_err();
    assert!(matches!(err, FlowError::InvalidIr(_)), "{err}");
}
