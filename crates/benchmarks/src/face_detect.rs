//! Rosetta face detection (paper \[10\]), Viola-Jones style cascade.
//!
//! A sliding image window is broadcast to many parallel weak classifiers;
//! each classifier sums a handful of window pixels and thresholds the sum.
//! The *window registers* are the broadcast sources: every pixel is read
//! by several classifiers in the same cycle (data broadcast on ZC706).

use crate::Benchmark;
use hlsb_fabric::Device;
use hlsb_ir::builder::DesignBuilder;
use hlsb_ir::{CmpPred, DataType, Design, InstId};

/// Builds the cascade stage.
///
/// * `window` — window side (the broadcast register file is `window²`
///   pixels);
/// * `classifiers` — number of parallel weak classifiers.
pub fn design(window: usize, classifiers: usize) -> Design {
    let ty = DataType::Int(16);
    let mut b = DesignBuilder::new("face_detect");
    let fin = b.fifo("pixels_in", DataType::Bits(128), 2);
    let fout = b.fifo("hits_out", DataType::Bool, 2);

    let mut k = b.kernel("cascade");
    let mut l = k.pipelined_loop("scan", 320 * 240, 1);

    let _ = l.fifo_read(fin, DataType::Bits(128));
    // The integral-image window: loop-invariant within the unrolled
    // classifier evaluation (updated once per slide).
    let pixels: Vec<InstId> = (0..window * window)
        .map(|i| l.invariant_input(&format!("win{i}"), ty))
        .collect();

    let mut votes = Vec::with_capacity(classifiers);
    for c in 0..classifiers {
        // Each weak classifier reads a deterministic pattern of 6 pixels
        // (two Haar rectangles).
        let p = |j: usize| pixels[(c * 7 + j * 5) % pixels.len()];
        let a1 = l.add(p(0), p(1));
        let a2 = l.add(a1, p(2));
        let b1 = l.add(p(3), p(4));
        let b2 = l.add(b1, p(5));
        let feat = l.sub(a2, b2);
        let thr = l.constant(&format!("thr{c}"), ty);
        votes.push(l.cmp(CmpPred::Gt, feat, thr));
    }

    // Vote count threshold (AND-reduce here: strong classifier).
    let mut level = votes;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                next.push(l.and(pair[0], pair[1]));
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    l.fifo_write(fout, level[0]);
    l.finish();
    k.finish();
    b.finish().expect("face detection design is valid IR")
}

/// The Table-1 configuration: 5x5 window, 48 classifiers, ZC706.
pub(crate) fn benchmark() -> Benchmark {
    Benchmark {
        name: "Face Detection",
        broadcast_type: "Data",
        design: design(5, 48),
        device: Device::zynq_zc706(),
        clock_mhz: 250.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixels_are_multiply_read() {
        let d = design(5, 48);
        let body = &d.kernels[0].loops[0].body;
        // 48 classifiers * 6 reads over 25 pixels ≈ 11 readers each.
        let max_fanout = body
            .iter()
            .filter(|(_, i)| matches!(i.kind, hlsb_ir::OpKind::Input { invariant: true }))
            .map(|(id, _)| body.fanout(id))
            .max()
            .unwrap();
        assert!(max_fanout >= 8, "window pixel fanout {max_fanout}");
    }

    #[test]
    fn classifier_count_scales() {
        assert!(design(5, 16).inst_count() < design(5, 64).inst_count());
    }
}
