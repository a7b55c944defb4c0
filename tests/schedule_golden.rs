//! Golden broadcast-aware schedules: one `hash_debug` per fix-point
//! outcome of `hlsb_sched::broadcast_aware`, pinned to the values the
//! rebuilding register insert and the per-call log interpolation
//! produced.
//!
//! The table covers the nine paper benchmarks × {`B---`, `BS--`} × the
//! four clock targets of the probe sweep, at the sweep's seed. Each row
//! hashes, for every loop of the design in kernel-loop order: the final
//! loop body (instructions and use lists), its schedule, the inserted
//! register count, the rounds run, the residual violators, the memory
//! plan (sorted) and the split decisions. The loops that run to the
//! round cap are among them, so any change to the fix-point's rounds —
//! the calibrated curves, the register insert, the reader counts — must
//! keep every entry here bit-identical.

use hlsb_benchmarks::all_benchmarks;
use hlsb_delay::{CalibratedModel, HlsPredictedModel};
use hlsb_ir::unroll::unroll_loop;
use hlsb_ir::Design;
use hlsb_sched::broadcast_aware;
use hlsb_store::hash_debug;
use hlsb_sync::split_dataflow_design;

/// The probe sweep's base seed (calibration noise is keyed on it).
const SEED: u64 = 3_670_155_296;

/// The probe sweep's clock targets, MHz.
const CLOCKS_MHZ: [u32; 4] = [250, 300, 333, 400];

/// The fix-point's round cap.
const ROUND_CAP: usize = 64;

/// `(design, options, clock MHz, most rounds of any loop, registers
/// inserted, outcome hash)`.
#[rustfmt::skip]
const OUTCOMES: &[(&str, &str, u32, usize, usize, u64)] = &[
    ("genome_chaining", "B---", 250, 2, 704, 0xc045fa06897ad230),
    ("genome_chaining", "B---", 300, 3, 640, 0xb5491bc051d40836),
    ("genome_chaining", "B---", 333, 4, 640, 0xcf521f991bd73657),
    ("genome_chaining", "B---", 400, 64, 8640, 0x98a0b24fda5e5e17),
    ("genome_chaining", "BS--", 250, 2, 704, 0xc045fa06897ad230),
    ("genome_chaining", "BS--", 300, 3, 640, 0xb5491bc051d40836),
    ("genome_chaining", "BS--", 333, 4, 640, 0xcf521f991bd73657),
    ("genome_chaining", "BS--", 400, 64, 8640, 0x98a0b24fda5e5e17),
    ("lstm_gate", "B---", 250, 1, 0, 0xd83889796baba72d),
    ("lstm_gate", "B---", 300, 1, 0, 0x0f7558fe9e870b11),
    ("lstm_gate", "B---", 333, 1, 0, 0x5d2c19690b7b1224),
    ("lstm_gate", "B---", 400, 1, 0, 0x1ab9dd1d08777c9a),
    ("lstm_gate", "BS--", 250, 1, 0, 0xd83889796baba72d),
    ("lstm_gate", "BS--", 300, 1, 0, 0x0f7558fe9e870b11),
    ("lstm_gate", "BS--", 333, 1, 0, 0x5d2c19690b7b1224),
    ("lstm_gate", "BS--", 400, 1, 0, 0x1ab9dd1d08777c9a),
    ("face_detect", "B---", 250, 2, 48, 0x870c156f26d1ab82),
    ("face_detect", "B---", 300, 3, 144, 0x8c9d2711734eeffd),
    ("face_detect", "B---", 333, 2, 96, 0x5ac4ee9ca26f9a89),
    ("face_detect", "B---", 400, 3, 144, 0x5be12da7613bc38d),
    ("face_detect", "BS--", 250, 2, 48, 0x870c156f26d1ab82),
    ("face_detect", "BS--", 300, 3, 144, 0x8c9d2711734eeffd),
    ("face_detect", "BS--", 333, 2, 96, 0x5ac4ee9ca26f9a89),
    ("face_detect", "BS--", 400, 3, 144, 0x5be12da7613bc38d),
    ("matmul", "B---", 250, 1, 0, 0xf6a793e978f250a5),
    ("matmul", "B---", 300, 1, 0, 0x3792eb8817947ae4),
    ("matmul", "B---", 333, 1, 0, 0x84723c5f79998191),
    ("matmul", "B---", 400, 1, 0, 0xc6c95d9ad8f1d512),
    ("matmul", "BS--", 250, 1, 0, 0xf6a793e978f250a5),
    ("matmul", "BS--", 300, 1, 0, 0x3792eb8817947ae4),
    ("matmul", "BS--", 333, 1, 0, 0x84723c5f79998191),
    ("matmul", "BS--", 400, 1, 0, 0xc6c95d9ad8f1d512),
    ("stream_buffer", "B---", 250, 64, 63, 0xedc005f851f588a9),
    ("stream_buffer", "B---", 300, 64, 63, 0x986d09d394f61ee7),
    ("stream_buffer", "B---", 333, 64, 63, 0x75f8e69dc88d17be),
    ("stream_buffer", "B---", 400, 64, 63, 0xc3ef41f883df21ab),
    ("stream_buffer", "BS--", 250, 64, 63, 0xedc005f851f588a9),
    ("stream_buffer", "BS--", 300, 64, 63, 0x986d09d394f61ee7),
    ("stream_buffer", "BS--", 333, 64, 63, 0x75f8e69dc88d17be),
    ("stream_buffer", "BS--", 400, 64, 63, 0xc3ef41f883df21ab),
    ("jacobi_pipeline", "B---", 250, 1, 0, 0x7c94872e7deced8e),
    ("jacobi_pipeline", "B---", 300, 1, 0, 0xb70a0cd2f8debd5b),
    ("jacobi_pipeline", "B---", 333, 2, 2, 0x20b1bf5334095132),
    ("jacobi_pipeline", "B---", 400, 1, 0, 0x5b193c7975c272cf),
    ("jacobi_pipeline", "BS--", 250, 1, 0, 0x7c94872e7deced8e),
    ("jacobi_pipeline", "BS--", 300, 1, 0, 0xb70a0cd2f8debd5b),
    ("jacobi_pipeline", "BS--", 333, 2, 2, 0x20b1bf5334095132),
    ("jacobi_pipeline", "BS--", 400, 1, 0, 0x5b193c7975c272cf),
    ("vector_product", "B---", 250, 1, 0, 0x8af6105f5cceafea),
    ("vector_product", "B---", 300, 1, 0, 0x1ed054ca922ca06e),
    ("vector_product", "B---", 333, 1, 0, 0xb7fa5be59abcb039),
    ("vector_product", "B---", 400, 1, 0, 0x6226a16dd0b61f30),
    ("vector_product", "BS--", 250, 1, 0, 0x8af6105f5cceafea),
    ("vector_product", "BS--", 300, 1, 0, 0x1ed054ca922ca06e),
    ("vector_product", "BS--", 333, 1, 0, 0xb7fa5be59abcb039),
    ("vector_product", "BS--", 400, 1, 0, 0x6226a16dd0b61f30),
    ("hbm_stencil_scatter", "B---", 250, 1, 0, 0x91539f9f7ea771b1),
    ("hbm_stencil_scatter", "B---", 300, 64, 14140, 0x2be93b120f3e2447),
    ("hbm_stencil_scatter", "B---", 333, 64, 14140, 0xb1975e315fb4a2a7),
    ("hbm_stencil_scatter", "B---", 400, 64, 14140, 0x15b5e623e868f764),
    ("hbm_stencil_scatter", "BS--", 250, 1, 0, 0xb92ae7577fd1a943),
    ("hbm_stencil_scatter", "BS--", 300, 1, 0, 0xbaf009b7e135255a),
    ("hbm_stencil_scatter", "BS--", 333, 1, 0, 0x85c0bc02e28336ca),
    ("hbm_stencil_scatter", "BS--", 400, 1, 0, 0x7a76f8b1d5771ec9),
    ("pattern_match", "B---", 250, 1, 0, 0xdc6954a47cc0a965),
    ("pattern_match", "B---", 300, 1, 0, 0x2d3397838e1503f2),
    ("pattern_match", "B---", 333, 1, 0, 0x2a901dc512b2a192),
    ("pattern_match", "B---", 400, 1, 0, 0x27a83734f05b1356),
    ("pattern_match", "BS--", 250, 1, 0, 0xdc6954a47cc0a965),
    ("pattern_match", "BS--", 300, 1, 0, 0x2d3397838e1503f2),
    ("pattern_match", "BS--", 333, 1, 0, 0x2a901dc512b2a192),
    ("pattern_match", "BS--", 400, 1, 0, 0x27a83734f05b1356),
];

/// `(design, options, clock MHz, loop, inserted)` of every loop that runs
/// to the round cap. Splitting leaves Genome and Stream Buffer unchanged,
/// so their `BS--` loops are their `B---` loops: eight distinct loops cap.
const CAPPED: &[(&str, &str, u32, &str, usize)] = &[
    ("genome_chaining", "B---", 400, "back_search", 8640),
    ("genome_chaining", "BS--", 400, "back_search", 8640),
    ("stream_buffer", "B---", 250, "drain", 63),
    ("stream_buffer", "B---", 300, "drain", 63),
    ("stream_buffer", "B---", 333, "drain", 63),
    ("stream_buffer", "B---", 400, "drain", 63),
    ("stream_buffer", "BS--", 250, "drain", 63),
    ("stream_buffer", "BS--", 300, "drain", 63),
    ("stream_buffer", "BS--", 333, "drain", 63),
    ("stream_buffer", "BS--", 400, "drain", 63),
    ("hbm_stencil_scatter", "B---", 300, "all_flows", 14140),
    ("hbm_stencil_scatter", "B---", 333, "all_flows", 14140),
    ("hbm_stencil_scatter", "B---", 400, "all_flows", 14140),
];

/// The loops the schedule pass sees: the (optionally dataflow-split)
/// design, unrolled, dead code removed.
fn front_end(design: &Design, split: bool) -> (Design, Vec<hlsb_ir::Loop>) {
    let effective = if split {
        split_dataflow_design(design).0
    } else {
        design.clone()
    };
    let loops = effective
        .kernels
        .iter()
        .flat_map(|k| &k.loops)
        .map(|lp| {
            let mut unrolled = unroll_loop(lp).looop;
            unrolled.body = unrolled.body.eliminate_dead().0;
            unrolled
        })
        .collect();
    (effective, loops)
}

type Row = (String, &'static str, u32, usize, usize, u64);
type Capped = (String, &'static str, u32, String, usize);

fn outcomes() -> (Vec<Row>, Vec<Capped>) {
    let predicted = HlsPredictedModel::new();
    let mut rows = Vec::new();
    let mut capped = Vec::new();
    for b in all_benchmarks() {
        let calibrated = CalibratedModel::characterize_analytic(&b.device, SEED);
        for (opts, split) in [("B---", false), ("BS--", true)] {
            let (design, loops) = front_end(&b.design, split);
            for mhz in CLOCKS_MHZ {
                let clock_ns = 1000.0 / f64::from(mhz);
                let mut parts = Vec::new();
                let (mut max_rounds, mut inserted) = (0, 0);
                for lp in &loops {
                    let out = broadcast_aware(lp, &design, &predicted, &calibrated, clock_ns);
                    let mut mem: Vec<_> = out.mem_plan.extra_stages.iter().collect();
                    mem.sort_unstable();
                    parts.push(hash_debug(&(
                        &out.looop,
                        &out.schedule,
                        out.inserted_regs,
                        out.rounds,
                        &out.residual_violations,
                        &mem,
                        &out.splits,
                    )));
                    if out.rounds == ROUND_CAP {
                        capped.push((
                            b.design.name.clone(),
                            opts,
                            mhz,
                            lp.name.clone(),
                            out.inserted_regs,
                        ));
                    }
                    max_rounds = max_rounds.max(out.rounds);
                    inserted += out.inserted_regs;
                }
                rows.push((
                    b.design.name.clone(),
                    opts,
                    mhz,
                    max_rounds,
                    inserted,
                    hash_debug(&parts),
                ));
            }
        }
    }
    (rows, capped)
}

/// Prints the outcome rows in this file's source form, so a mismatch
/// shows exactly what moved.
fn render(rows: &[Row]) -> String {
    rows.iter()
        .map(|(d, o, c, r, i, h)| format!("    ({d:?}, {o:?}, {c}, {r}, {i}, {h:#018x}),\n"))
        .collect()
}

#[test]
fn broadcast_aware_outcomes_are_golden() {
    let (rows, capped) = outcomes();
    let expected: Vec<Row> = OUTCOMES
        .iter()
        .map(|&(d, o, c, r, i, h)| (d.to_string(), o, c, r, i, h))
        .collect();
    assert_eq!(rows, expected, "outcomes moved:\n{}", render(&rows));
    let expected: Vec<Capped> = CAPPED
        .iter()
        .map(|&(d, o, c, l, i)| (d.to_string(), o, c, l.to_string(), i))
        .collect();
    assert_eq!(capped, expected, "capped loops moved:\n{capped:#?}");
}
