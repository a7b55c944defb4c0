//! Decision-provenance contract of the traced flow: every pipeline stage
//! gets a span, the paper's three optimizations each leave decision
//! events, the metrics registry fills, and tracing never perturbs the
//! untraced result.

use hlsb::sim::Stimulus;
use hlsb::{Flow, FlowSession, OptimizationOptions, PassTrace, PlaceEffort};
use hlsb_benchmarks::Benchmark;
use hlsb_fabric::Device;
use hlsb_ir::builder::DesignBuilder;
use hlsb_ir::{DataType, Design};
use hlsb_trace::Value;

const STAGES: [&str; 5] = ["front-end", "schedule", "lower", "implement", "sign-off"];

fn genome() -> Benchmark {
    hlsb_benchmarks::all_benchmarks()
        .into_iter()
        .find(|b| b.name.contains("Genome"))
        .expect("the Table-1 set includes Genome Sequencing")
}

fn traced_flow(bench: &Benchmark, opts: OptimizationOptions) -> Flow {
    Flow::new(bench.design.clone())
        .device(bench.device.clone())
        .clock_mhz(bench.clock_mhz)
        .options(opts)
        .place_effort(PlaceEffort::Fast)
        .place_seeds(2)
        .seed(13)
        .trace(true)
}

/// Fig. 5b shape: `pes` parallel PE calls with staggered static
/// latencies, so sync pruning keeps exactly the cover and prunes the
/// rest.
fn parallel_pe_design(pes: usize) -> Design {
    let mut b = DesignBuilder::new("it_pes");
    let mut pe_ids = Vec::new();
    for p in 0..pes {
        let mut pe = b.kernel(format!("pe{p}"));
        pe.set_static_latency(4 + p as u64);
        let mut l = pe.pipelined_loop("body", 16, 1);
        let x = l.varying_input("x", DataType::Int(32));
        let c = l.constant("k", DataType::Int(32));
        let m = l.mul(x, c);
        l.output("y", m);
        l.finish();
        pe_ids.push(pe.finish());
    }
    let mut top = b.kernel("top");
    let mut l = top.sequential_loop("main", 64);
    let a = l.varying_input("a", DataType::Int(32));
    let outs: Vec<_> = pe_ids
        .iter()
        .map(|&pid| l.call(pid, vec![a], DataType::Int(32)))
        .collect();
    let mut acc = outs[0];
    for &o in &outs[1..] {
        acc = l.add(acc, o);
    }
    l.output("sum", acc);
    l.finish();
    top.finish();
    b.finish().expect("valid")
}

#[test]
fn all_five_stages_get_spans_with_decision_events() {
    let bench = genome();
    let result = traced_flow(&bench, OptimizationOptions::all())
        .run()
        .expect("flow succeeds");
    let tree = result.trace_tree().expect("traced flow has a span tree");

    let root = tree.root().expect("root span");
    assert_eq!(root.name, "flow");
    for stage in STAGES {
        let span = tree
            .find(stage)
            .unwrap_or_else(|| panic!("no {stage} span"));
        assert_eq!(span.parent, Some(root.id), "{stage} must sit under flow");
    }
    // Each placement trial gets its own sub-span (and Chrome track).
    let implement = tree.find("implement").expect("implement span");
    assert_eq!(tree.children(implement.id).count(), 2, "one span per trial");

    // Genome's unrolled chains force splits; skid control inserts a buffer.
    assert!(!tree.events_named("schedule.split").is_empty());
    assert!(!tree.events_named("skid.buffer").is_empty());
    let split = tree.events_named("schedule.split")[0];
    for key in [
        "kernel",
        "loop",
        "violator",
        "op",
        "cut",
        "broadcast-factor",
    ] {
        assert!(
            split.attrs.iter().any(|(k, _)| k == key),
            "schedule.split payload is missing `{key}`"
        );
    }
}

#[test]
fn metrics_registry_fills_counters_and_histograms() {
    let bench = genome();
    let result = traced_flow(&bench, OptimizationOptions::all())
        .run()
        .expect("flow succeeds");
    let tree = result.trace_tree().expect("traced flow has a span tree");
    let m = &tree.metrics;
    assert!(m.counter("decisions.schedule.split") > 0);
    assert!(m.counter("decisions.skid.buffer") > 0);
    let bf = m.histogram("broadcast-factor").expect("broadcast-factor");
    assert!(bf.total > 0 && bf.mean() > 1.0);
    let slack = m.histogram("slack-ns").expect("slack-ns");
    assert_eq!(slack.total, 2, "one slack observation per trial");
}

#[test]
fn sync_pruning_emits_keep_and_prune_decisions() {
    let result = Flow::new(parallel_pe_design(4))
        .device(Device::ultrascale_plus_vu9p())
        .clock_mhz(250.0)
        .options(OptimizationOptions::all())
        .place_effort(PlaceEffort::Fast)
        .place_seeds(1)
        .seed(13)
        .trace(true)
        .run()
        .expect("flow succeeds");
    let tree = result.trace_tree().expect("traced flow has a span tree");
    let kept = tree.events_named("sync.keep");
    let pruned = tree.events_named("sync.prune");
    assert_eq!(kept.len(), 1, "exactly the latency cover is waited on");
    assert_eq!(pruned.len(), 3, "the three covered PEs are pruned");
    for e in kept.iter().chain(&pruned) {
        assert!(
            e.attrs.iter().any(|(k, _)| k == "latency"),
            "{} must carry its latency evidence",
            e.name
        );
    }
    assert_eq!(tree.metrics.counter("decisions.sync.prune"), 3);
    assert_eq!(tree.metrics.counter("decisions.sync.keep"), 1);
}

#[test]
fn tracing_does_not_perturb_the_result() {
    let bench = genome();
    let traced = traced_flow(&bench, OptimizationOptions::all())
        .run()
        .expect("flow succeeds");
    let untraced = traced_flow(&bench, OptimizationOptions::all())
        .trace(false)
        .run()
        .expect("flow succeeds");
    // ImplementationResult equality covers fmax, netlist stats, AND the
    // PassTrace — the derived-from-spans PassTrace must match the
    // PassTimer one exactly (wall times excluded by PassRecord equality).
    assert_eq!(traced, untraced);
    assert!(
        untraced.trace_tree().is_none(),
        "disabled tracing stores no tree"
    );
    assert!(traced.trace_tree().is_some());

    // Probe and simulate derive their PassTrace from the stage spans too.
    // Each run gets a fresh session, so cache counters match across the
    // traced and untraced runs.
    let full = |trace: bool| {
        traced_flow(&bench, OptimizationOptions::all())
            .verify(true)
            .lint(true)
            .trace(trace)
    };
    let probe = |trace: bool| {
        FlowSession::new()
            .probe(&full(trace))
            .expect("probe succeeds")
    };
    let (probe_traced, probe_plain) = (probe(true), probe(false));
    assert_eq!(probe_traced.schedule_depths, probe_plain.schedule_depths);
    assert_eq!(probe_traced.latency_cycles, probe_plain.latency_cycles);
    assert_eq!(probe_traced.inserted_regs, probe_plain.inserted_regs);
    assert_eq!(probe_traced.instructions, probe_plain.instructions);
    assert_eq!(probe_traced.lint, probe_plain.lint);
    assert_eq!(probe_traced.verify, probe_plain.verify);
    let stim = Stimulus::seeded(&bench.design, 1, 16);
    let simulate = |trace: bool| {
        FlowSession::new()
            .simulate(&full(trace), &stim, 16)
            .expect("simulation succeeds")
    };
    let (sim_traced, sim_plain) = (simulate(true), simulate(false));
    assert_eq!(sim_traced.golden, sim_plain.golden);
    assert_eq!(sim_traced.timed, sim_plain.timed);

    let mut seen = Vec::new();
    for (traced, plain) in [
        (&probe_traced.trace, &probe_plain.trace),
        (&sim_traced.trace, &sim_plain.trace),
    ] {
        let names = |t: &PassTrace| t.records.iter().map(|r| r.pass.clone()).collect::<Vec<_>>();
        assert_eq!(names(traced), names(plain), "same passes in the same order");
        assert_eq!(traced, plain, "same counters per pass");
        seen.extend(names(plain));
    }
    for stage in [
        "verify.network",
        "front-end",
        "schedule",
        "lint",
        "verify.contracts",
        "simulate",
    ] {
        assert!(seen.iter().any(|s| s == stage), "{stage} missing: {seen:?}");
    }
    assert!(probe_plain.trace_tree().is_none());
    assert!(sim_plain.trace_tree().is_none());
    assert!(probe_traced.trace_tree().is_some());
    assert!(sim_traced.trace_tree().is_some());
}

#[test]
fn fix_point_loops_at_the_round_cap_leave_a_capped_event() {
    let probe = |name: &str| {
        let bench = hlsb_benchmarks::all_benchmarks()
            .into_iter()
            .find(|b| b.design.name == name)
            .expect("a Table-1 benchmark");
        let flow = Flow::new(bench.design)
            .device(bench.device)
            .clock_mhz(bench.clock_mhz)
            .options(OptimizationOptions::all())
            .trace(true);
        FlowSession::new().probe(&flow).expect("probe succeeds")
    };
    // Stream Buffer's `drain` loop keeps its violations through every
    // round, one register per round.
    let capped = probe("stream_buffer");
    let tree = capped.trace_tree().expect("traced probe has a span tree");
    let events = tree.events_named("schedule.capped");
    assert_eq!(events.len(), 1, "one loop runs to the cap");
    let attr = |key: &str| {
        events[0]
            .attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("schedule.capped payload is missing `{key}`"))
    };
    assert_eq!(attr("loop"), Value::Str("drain".into()));
    assert_eq!(attr("rounds"), Value::U64(hlsb_sched::MAX_ROUNDS as u64));
    assert_eq!(
        attr("inserted"),
        Value::U64(hlsb_sched::MAX_ROUNDS as u64 - 1)
    );
    assert!(matches!(attr("kernel"), Value::Str(_)));

    // A loop that converges leaves none.
    let converged = probe("vector_product");
    let tree = converged
        .trace_tree()
        .expect("traced probe has a span tree");
    assert!(tree.events_named("schedule.capped").is_empty());
}
