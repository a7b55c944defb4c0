//! Golden lint reports: one `hlsb_store::hash_debug` of each report's
//! JSON Lines rendering, through the lint pre-pass of
//! `FlowSession::probe`.
//!
//! Cases: the nine paper benchmarks at their paper device and clock and
//! on a ZC706 at 400 MHz, plus `fuzz:0..8` on the default device at
//! 300 MHz. Any change to the lint rules, their thresholds or the
//! schedule they read moves a hash here; a refactor of the lint must
//! keep every entry bit-identical.

use hlsb::{Flow, FlowSession};
use hlsb_benchmarks::all_benchmarks;
use hlsb_fabric::Device;

/// `(design, setting, hash of report.to_jsonl())`.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("genome_chaining", "paper", 0x6814d10fb3782357),
    ("genome_chaining", "zc706@400", 0x242b67ad23d4b240),
    ("lstm_gate", "paper", 0x577acdbb5440e1cf),
    ("lstm_gate", "zc706@400", 0x5ebaa1241ebf2aa9),
    ("face_detect", "paper", 0xb4da838c5d9524b7),
    ("face_detect", "zc706@400", 0xf3546e3a131c7213),
    ("matmul", "paper", 0xb5e4b1dd602a992d),
    ("matmul", "zc706@400", 0xb5ff40c50babcccf),
    ("stream_buffer", "paper", 0x3d1776fd66a6b8d6),
    ("stream_buffer", "zc706@400", 0x76bfcb4a6021eb46),
    ("jacobi_pipeline", "paper", 0xaca535adde1f4b81),
    ("jacobi_pipeline", "zc706@400", 0xf3d3e34357f796b6),
    ("vector_product", "paper", 0x082cefa8d40be843),
    ("vector_product", "zc706@400", 0xbea96ce6cf2dba14),
    ("hbm_stencil_scatter", "paper", 0x53b9334de0611fc5),
    ("hbm_stencil_scatter", "zc706@400", 0x30c14acb9bb8fbee),
    ("pattern_match", "paper", 0x063bdcc3672b5d73),
    ("pattern_match", "zc706@400", 0xb30b015aa7525609),
    ("fuzz:0", "vu9p@300", 0x742f1e5d03dfdc66),
    ("fuzz:1", "vu9p@300", 0xf08423b3d76bb49c),
    ("fuzz:2", "vu9p@300", 0x073c8f585daaf670),
    ("fuzz:3", "vu9p@300", 0x5559c2206124c32e),
    ("fuzz:4", "vu9p@300", 0xefc47561f59bec93),
    ("fuzz:5", "vu9p@300", 0x68d65c6b685c15d8),
    ("fuzz:6", "vu9p@300", 0x6111018bda852d60),
    ("fuzz:7", "vu9p@300", 0xf28bedccb549c1cb),
];

fn lint_hash(session: &FlowSession, flow: Flow) -> u64 {
    let probe = session.probe(&flow.lint(true)).expect("probe succeeds");
    let report = probe.lint.expect("probe ran with Flow::lint on");
    hlsb_store::hash_debug(&report.to_jsonl())
}

#[test]
fn lint_reports_are_golden() {
    let session = FlowSession::new();
    let mut actual = Vec::new();
    for b in all_benchmarks() {
        let name = b.design.name.clone();
        let paper = Flow::new(b.design.clone())
            .device(b.device.clone())
            .clock_mhz(b.clock_mhz);
        actual.push((name.clone(), "paper", lint_hash(&session, paper)));
        let zc706 = Flow::new(b.design)
            .device(Device::zynq_zc706())
            .clock_mhz(400.0);
        actual.push((name, "zc706@400", lint_hash(&session, zc706)));
    }
    for seed in 0..8 {
        let flow = Flow::new(hlsb_sim::fuzz::random_design(seed)).clock_mhz(300.0);
        actual.push((
            format!("fuzz:{seed}"),
            "vu9p@300",
            lint_hash(&session, flow),
        ));
    }
    let expected: Vec<(String, &str, u64)> = GOLDEN
        .iter()
        .map(|&(d, s, h)| (d.to_string(), s, h))
        .collect();
    let rendered: String = actual
        .iter()
        .map(|(d, s, h)| format!("    ({d:?}, {s:?}, {h:#018x}),\n"))
        .collect();
    assert_eq!(actual, expected, "lint reports moved:\n{rendered}");
}
