//! Golden results of the implement stage: the nine paper benchmarks ×
//! {none, all} × {flat, two islands} at Fast effort with two placement
//! seeds, each reduced to one FNV-1a hash of its timing-visible outcome.
//!
//! The placer and the timing engine are optimized for speed under a
//! bit-identity contract: a faster seed search, a different occupancy
//! structure or an incremental cost must never change which site a cell
//! lands on, and so never change a result bit. These hashes were recorded
//! before those optimizations; any drift in placement, retiming, fanout
//! duplication, refinement or STA changes at least one of them.

use hlsb::{Flow, FlowSession, OptimizationOptions, Partitioning, PlaceEffort};

const SEED: u64 = 0xDAC2_2020;

/// `(design, options, partitioning, hash)`.
const GOLDEN: &[(&str, &str, &str, u64)] = &[
    ("genome_chaining", "none", "off", 0x0ce2b82605302ee9),
    ("genome_chaining", "none", "fixed2", 0x4f7fd638bf8c184f),
    ("genome_chaining", "all", "off", 0xd8b80ff1eddd2319),
    ("genome_chaining", "all", "fixed2", 0xbb98da7818962d71),
    ("lstm_gate", "none", "off", 0x0c869fb3a7214a89),
    ("lstm_gate", "none", "fixed2", 0x5567f230732c4a8a),
    ("lstm_gate", "all", "off", 0x6a0ad0566d41495d),
    ("lstm_gate", "all", "fixed2", 0xde8dd9e856c9c469),
    ("face_detect", "none", "off", 0xc79f2acf6c8391e2),
    ("face_detect", "none", "fixed2", 0x3bcf01f40c6561b5),
    ("face_detect", "all", "off", 0xc0ddbdcbfc693375),
    ("face_detect", "all", "fixed2", 0x887158b01e1103d2),
    ("matmul", "none", "off", 0x0d3e53fc8ab01223),
    ("matmul", "none", "fixed2", 0x4da620d98ef180af),
    ("matmul", "all", "off", 0x39e947c767ecbde4),
    ("matmul", "all", "fixed2", 0x307a3aa265db249f),
    ("stream_buffer", "none", "off", 0xc75cc6c323097a96),
    ("stream_buffer", "none", "fixed2", 0xd8d10778084b3bd2),
    ("stream_buffer", "all", "off", 0x808b2305fc235786),
    ("stream_buffer", "all", "fixed2", 0x3dc8640be0c9b42a),
    ("jacobi_pipeline", "none", "off", 0x6e146c5b9ae74063),
    ("jacobi_pipeline", "none", "fixed2", 0x7a5fc658aabfabd6),
    ("jacobi_pipeline", "all", "off", 0x2a71c1aa6b178a2b),
    ("jacobi_pipeline", "all", "fixed2", 0xfa3d55c15248d9a8),
    ("vector_product", "none", "off", 0x3fc400693ab38d51),
    ("vector_product", "none", "fixed2", 0x4b1012cfd210066f),
    ("vector_product", "all", "off", 0x12a13dfdbe0a0aea),
    ("vector_product", "all", "fixed2", 0x601bb9434e3a6436),
    ("hbm_stencil_scatter", "none", "off", 0x2884e197a0766bcf),
    ("hbm_stencil_scatter", "none", "fixed2", 0xc6d9d027a528374a),
    ("hbm_stencil_scatter", "all", "off", 0xcba9957ef04eb255),
    ("hbm_stencil_scatter", "all", "fixed2", 0x84057cebbc12635a),
    ("pattern_match", "none", "off", 0xf4f4610e2357f823),
    ("pattern_match", "none", "fixed2", 0x8de081af174c402f),
    ("pattern_match", "all", "off", 0x103d841312d67796),
    ("pattern_match", "all", "fixed2", 0x2b267d76476dfe76),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn result_hash(r: &hlsb::ImplementationResult) -> u64 {
    let form = format!(
        "{:?}",
        (
            r.fmax_mhz,
            r.period_ns,
            &r.timing,
            &r.critical_cells,
            r.duplicated_regs,
            r.retime_moves,
            &r.partition,
        )
    );
    fnv1a(form.as_bytes())
}

#[test]
fn implement_results_match_golden_hashes() {
    let options = [
        ("none", OptimizationOptions::none()),
        ("all", OptimizationOptions::all()),
    ];
    let partitions = [
        ("off", Partitioning::Off),
        ("fixed2", Partitioning::Fixed(2)),
    ];
    let mut labels = Vec::new();
    let mut flows = Vec::new();
    for bench in hlsb_benchmarks::all_benchmarks() {
        for (opt_label, opts) in options {
            for (part_label, part) in partitions {
                labels.push((bench.design.name.clone(), opt_label, part_label));
                flows.push(
                    Flow::new(bench.design.clone())
                        .device(bench.device.clone())
                        .clock_mhz(bench.clock_mhz)
                        .options(opts)
                        .place_effort(PlaceEffort::Fast)
                        .place_seeds(2)
                        .seed(SEED)
                        .partitions(part),
                );
            }
        }
    }
    let results = FlowSession::new().run_many(&flows);
    let mut actual = Vec::new();
    for ((design, opt, part), result) in labels.iter().zip(&results) {
        let r = result.as_ref().expect("flow succeeds");
        actual.push((design.as_str(), *opt, *part, result_hash(r)));
    }
    let table: String = actual
        .iter()
        .map(|(d, o, p, h)| format!("    ({d:?}, {o:?}, {p:?}, {h:#018x}),\n"))
        .collect();
    assert_eq!(actual.len(), 36, "nine benchmarks x 2 options x 2 modes");
    assert_eq!(
        actual, GOLDEN,
        "implement results drifted; actual table:\n{table}"
    );
}
