//! Golden results of the implement stage, each reduced to one FNV-1a
//! hash of its timing-visible outcome: the nine paper benchmarks ×
//! {none, all} × {flat, two islands} at Fast effort with two placement
//! seeds, and the nine benchmarks × {none, all} at the paper settings
//! (Normal effort, three placement seeds, flat).
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

/// `(design, options, hash)` at the paper settings: Normal effort, three
/// placement seeds, flat.
const GOLDEN_NORMAL: &[(&str, &str, u64)] = &[
    ("genome_chaining", "none", 0xecae451acb2ab4b9),
    ("genome_chaining", "all", 0x9226b69f15fc3685),
    ("lstm_gate", "none", 0x004213cbd753b56f),
    ("lstm_gate", "all", 0x0fe4fc4284bb9905),
    ("face_detect", "none", 0x8f4dfed236fd2826),
    ("face_detect", "all", 0x68f726725abaf05e),
    ("matmul", "none", 0xdd56f9f8def0d0e7),
    ("matmul", "all", 0xf983d51568ff3e8c),
    ("stream_buffer", "none", 0xafb18ab104313124),
    ("stream_buffer", "all", 0xb01f969b39cc1e52),
    ("jacobi_pipeline", "none", 0x1510af4d300b31c6),
    ("jacobi_pipeline", "all", 0x029ae648079a94f3),
    ("vector_product", "none", 0xb3453818419a2ca2),
    ("vector_product", "all", 0x1e11244cb5b4adee),
    ("hbm_stencil_scatter", "none", 0xa4eca9bdc539a633),
    ("hbm_stencil_scatter", "all", 0x5be28671b1092da4),
    ("pattern_match", "none", 0xa240d5f36a69b56b),
    ("pattern_match", "all", 0x5e594267ade92c99),
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

fn options() -> [(&'static str, OptimizationOptions); 2] {
    [
        ("none", OptimizationOptions::none()),
        ("all", OptimizationOptions::all()),
    ]
}

/// Runs `flows` on one session and hashes each result.
fn result_hashes(flows: &[Flow]) -> Vec<u64> {
    FlowSession::new()
        .run_many(flows)
        .iter()
        .map(|result| result_hash(result.as_ref().expect("flow succeeds")))
        .collect()
}

#[test]
fn implement_results_match_golden_hashes() {
    let partitions = [
        ("off", Partitioning::Off),
        ("fixed2", Partitioning::Fixed(2)),
    ];
    let mut labels = Vec::new();
    let mut flows = Vec::new();
    for bench in hlsb_benchmarks::all_benchmarks() {
        for (opt_label, opts) in options() {
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
    let actual: Vec<_> = labels
        .iter()
        .zip(result_hashes(&flows))
        .map(|((design, opt, part), h)| (design.as_str(), *opt, *part, h))
        .collect();
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

#[test]
fn normal_effort_results_match_golden_hashes() {
    let mut labels = Vec::new();
    let mut flows = Vec::new();
    for bench in hlsb_benchmarks::all_benchmarks() {
        for (opt_label, opts) in options() {
            labels.push((bench.design.name.clone(), opt_label));
            flows.push(
                Flow::new(bench.design.clone())
                    .device(bench.device.clone())
                    .clock_mhz(bench.clock_mhz)
                    .options(opts)
                    .place_effort(PlaceEffort::Normal)
                    .place_seeds(3)
                    .seed(SEED)
                    .partitions(Partitioning::Off),
            );
        }
    }
    let actual: Vec<_> = labels
        .iter()
        .zip(result_hashes(&flows))
        .map(|((design, opt), h)| (design.as_str(), *opt, h))
        .collect();
    let table: String = actual
        .iter()
        .map(|(d, o, h)| format!("    ({d:?}, {o:?}, {h:#018x}),\n"))
        .collect();
    assert_eq!(actual.len(), 18, "nine benchmarks x 2 options");
    assert_eq!(
        actual, GOLDEN_NORMAL,
        "Normal-effort implement results drifted; actual table:\n{table}"
    );
}
