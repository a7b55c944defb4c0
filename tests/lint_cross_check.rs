//! Lint-vs-STA cross-check: the static analyzer's predictions against
//! the post-route critical paths of the paper's nine benchmarks.
//!
//! Two layers:
//!
//! * full-size designs, static only — every Table-1 benchmark carries at
//!   least one implicit broadcast by construction, so the lint must flag
//!   all nine without placing anything;
//! * reduced-size designs through the whole flow (as in
//!   `benchmarks_shape.rs`) with the lint pre-pass enabled — the fired
//!   rules are scored as precision/recall against the broadcast classes
//!   observed on the unoptimized critical path.

use hlsb::{Flow, FlowSession, OptimizationOptions, PlaceEffort};
use hlsb_benchmarks::{
    all_benchmarks, face_detect, genome, hbm_stencil, lstm, matmul, pattern_match, stencil,
    stream_buffer, vector_arith,
};
use hlsb_fabric::Device;
use hlsb_findings::Report as LintReport;
use hlsb_ir::Design;
use hlsb_lint::{classify_critical_cell, cross_check_classes, CrossCheck};

/// The lint pre-pass of a probe at the benchmark's paper device and clock.
fn lint_benchmark(session: &FlowSession, b: &hlsb_benchmarks::Benchmark) -> LintReport {
    let flow = Flow::new(b.design.clone())
        .device(b.device.clone())
        .clock_mhz(b.clock_mhz)
        .lint(true);
    let probe = session.probe(&flow).expect("probe succeeds");
    probe.lint.expect("probe ran with Flow::lint on")
}

#[test]
fn lint_flags_all_nine_table1_benchmarks() {
    let session = FlowSession::new();
    for b in all_benchmarks() {
        let report = lint_benchmark(&session, &b);
        assert!(
            !report.is_clean(),
            "{} is a broadcast benchmark but linted clean",
            b.name
        );
        // Every finding carries a location, a positive factor and a
        // calibrated penalty estimate.
        for d in &report.diagnostics {
            assert!(d.broadcast_factor >= 1, "{}: {:?}", b.name, d);
            assert!(d.est_penalty_ns >= 0.0 && d.est_penalty_ns.is_finite());
            assert!(!d.message.is_empty() && !d.remedy.is_empty());
        }
    }
}

#[test]
fn lint_matches_table1_broadcast_types() {
    // Table 1 labels each benchmark with its broadcast type; the static
    // rules must agree on the full-size designs: a data-typed benchmark
    // fires BA01/BA02, a control-typed one PC01, a sync-typed one SY01.
    let session = FlowSession::new();
    for b in all_benchmarks() {
        let report = lint_benchmark(&session, &b);
        let ty = b.broadcast_type.to_lowercase();
        if ty.contains("data") {
            assert!(
                report.has_rule("BA01") || report.has_rule("BA02"),
                "{} ({ty}) missing data finding:\n{}",
                b.name,
                report.to_table()
            );
        }
        if ty.contains("ctrl") {
            assert!(
                report.has_rule("PC01"),
                "{} ({ty}) missing stall finding:\n{}",
                b.name,
                report.to_table()
            );
        }
        if ty.contains("sync") {
            assert!(
                report.has_rule("SY01"),
                "{} ({ty}) missing sync finding:\n{}",
                b.name,
                report.to_table()
            );
        }
    }
}

/// Reduced-size variants of the nine benchmarks (same parameters as
/// `benchmarks_shape.rs`) so the full flow stays fast.
fn reduced_benchmarks() -> Vec<(Design, Device)> {
    vec![
        (genome::design(32), Device::ultrascale_plus_vu9p()),
        (lstm::design(16), Device::ultrascale_plus_vu9p()),
        (face_detect::design(5, 24), Device::zynq_zc706()),
        (matmul::design(16, 4), Device::ultrascale_plus_vu9p()),
        (
            stream_buffer::design(1 << 17),
            Device::ultrascale_plus_vu9p(),
        ),
        (stencil::design(4), Device::ultrascale_plus_vu9p()),
        (vector_arith::design(64, 4), Device::ultrascale_plus_vu9p()),
        (hbm_stencil::design(8, 4), Device::alveo_u50()),
        (pattern_match::design(16, 16), Device::virtex7()),
    ]
}

/// Fanout at which a critical-path net counts as observed data-broadcast
/// evidence (well above the fanout of ordinary datapath nets).
const EVIDENCE_FANOUT: usize = 8;

#[test]
fn lint_precision_recall_vs_post_route_critical_paths() {
    let mut total = CrossCheck::default();
    let mut scored = 0usize;
    for (design, device) in reduced_benchmarks() {
        let name = design.name.clone();
        let (result, netlist, _placement) = Flow::new(design)
            .device(device)
            .clock_mhz(300.0)
            .options(OptimizationOptions::none())
            .place_effort(PlaceEffort::Fast)
            .place_seeds(1)
            .seed(0xDAC2)
            .lint(true)
            .run_detailed()
            .expect("flow succeeds");
        let report = result.lint.as_ref().expect("lint attached");

        // Observed evidence: broadcast-classed cell names on the critical
        // path, plus any critical cell driving a genuinely wide net.
        let mut observed: Vec<&str> = result
            .critical_cells
            .iter()
            .filter_map(|c| classify_critical_cell(c))
            .collect();
        for &c in &result.timing.critical_path {
            if let Some(net) = netlist.output_net(c) {
                if netlist.net(net).fanout() >= EVIDENCE_FANOUT {
                    observed.push("BA01");
                }
            }
        }

        let fired: Vec<&str> = ["BA01", "BA02", "PC01", "SY01"]
            .into_iter()
            .filter(|r| report.has_rule(r))
            .collect();
        if observed.is_empty() {
            // At reduced sizes some critical paths are plain logic depth:
            // no broadcast evidence either way, so the benchmark cannot
            // corroborate or refute the static prediction.
            println!(
                "{name:<20} fired=[{}] observed=[] (skipped)",
                fired.join(",")
            );
            continue;
        }
        scored += 1;
        let cc = cross_check_classes(report, &observed);
        println!(
            "{name:<20} fired=[{}] observed={observed:?} tp={} fp={} fn={}",
            fired.join(","),
            cc.true_pos,
            cc.false_pos,
            cc.false_neg
        );
        total.merge(cc);
    }
    println!(
        "cross-check over {scored} benchmarks with evidence: tp={} fp={} fn={} \
         precision={:.2} recall={:.2}",
        total.true_pos,
        total.false_pos,
        total.false_neg,
        total.precision(),
        total.recall()
    );
    assert!(
        scored >= 3,
        "too few benchmarks produced critical-path evidence"
    );
    // The static pass must recover the broadcast classes that actually
    // dominate the routed critical paths (recall), without flagging much
    // that never materializes (precision). Bounds are loose: the reduced
    // designs are below the paper's sizes, so some flagged broadcasts
    // legitimately stay off the critical path.
    assert!(
        total.recall() >= 0.75,
        "recall {:.2} too low (tp={} fn={})",
        total.recall(),
        total.true_pos,
        total.false_neg
    );
    assert!(
        total.precision() >= 0.4,
        "precision {:.2} too low (tp={} fp={})",
        total.precision(),
        total.true_pos,
        total.false_pos
    );
}
