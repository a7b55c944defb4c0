//! Genome sequencing chaining kernel (paper \[1\], Fig. 13).
//!
//! The minimap2-style chaining score loop: for each current anchor, the
//! scores against the previous `BACK_SEARCH_COUNT` anchors are computed in
//! one fully unrolled, pipelined iteration. Every field of the *current*
//! anchor (`curr.x`, `curr.y`, `curr.tag`, plus scalar parameters
//! `avg_qspan`, `max_dist_x`, `max_dist_y`, `bw`) is loop-invariant and
//! fans out to all unrolled copies — the paper's flagship data broadcast
//! (0.78 ns sub measured at 2.08 ns, Fig. 14/15).

use crate::Benchmark;
use hlsb_fabric::Device;
use hlsb_ir::builder::DesignBuilder;
use hlsb_ir::{CmpPred, DataType, Design};

/// Builds the chaining kernel with the given unroll factor
/// (`BACK_SEARCH_COUNT` in the original source).
pub fn design(unroll: u32) -> Design {
    let ty = DataType::Int(32);
    let mut b = DesignBuilder::new("genome_chaining");
    let fin = b.fifo("anchors_in", DataType::Bits(128), 2);
    let fout = b.fifo("scores_out", ty, 2);

    let mut k = b.kernel("chain");
    let mut l = k.pipelined_loop("back_search", 1 << 16, 1);
    l.set_unroll(unroll);

    // Broadcast sources (blue in the paper's Fig. 13).
    let curr_x = l.invariant_input("curr_x", ty);
    let curr_y = l.invariant_input("curr_y", ty);
    let curr_tag = l.invariant_input("curr_tag", ty);
    let avg_qspan = l.invariant_input("avg_qspan", ty);
    let max_dist_x = l.invariant_input("max_dist_x", ty);
    let max_dist_y = l.invariant_input("max_dist_y", ty);
    let bw = l.invariant_input("bw", ty);
    let neg_inf = l.constant("NEG_INF_SCORE", ty);
    let zero = l.constant("zero", ty);
    let one = l.constant("one", ty);

    // Per-copy anchor fields (prev[j]).
    let word = l.fifo_read(fin, DataType::Bits(128));
    let prev_x = l.repack(word, ty);
    let prev_y = l.repack(word, ty);
    let prev_w = l.repack(word, ty);
    let prev_tag = l.repack(word, ty);

    // dist_x = prev[j].x - curr.x; dist_y = prev[j].y - curr.y;
    let dist_x = l.sub(prev_x, curr_x);
    let dist_y = l.sub(prev_y, curr_y);

    // dd = |dist_x - dist_y|; min_d = min(dist_y, dist_x);
    let diff = l.sub(dist_x, dist_y);
    let dd = l.abs(diff);
    let min_d = l.min(dist_y, dist_x);

    // log_dd = log2(dd); temp = min(min_d, prev[j].w);
    let log_dd = l.log2(dd);
    let temp = l.min(min_d, prev_w);

    // dp_score[j] = temp - dd*avg_qspan - (log_dd >> 1)
    let penalty = l.mul(dd, avg_qspan);
    let half_log = l.shr(log_dd, one);
    let s1 = l.sub(temp, penalty);
    let dp_score = l.sub(s1, half_log);

    // The disqualification predicate.
    let c1 = l.cmp(CmpPred::Eq, dist_x, zero);
    let c2 = l.cmp(CmpPred::Gt, dist_x, max_dist_x);
    let c3 = l.cmp(CmpPred::Gt, dist_y, max_dist_y);
    let c4 = l.cmp(CmpPred::Le, dist_y, zero);
    let c5 = l.cmp(CmpPred::Gt, dd, bw);
    let c6 = l.cmp(CmpPred::Ne, curr_tag, prev_tag);
    let o1 = l.or(c1, c2);
    let o2 = l.or(c3, c4);
    let o3 = l.or(c5, c6);
    let o4 = l.or(o1, o2);
    let cond = l.or(o4, o3);

    let score = l.select(cond, neg_inf, dp_score);
    l.fifo_write(fout, score);
    l.finish();
    k.finish();
    b.finish().expect("genome design is valid IR")
}

/// The Table-1 configuration: `BACK_SEARCH_COUNT = 64` on AWS F1.
pub(crate) fn benchmark() -> Benchmark {
    Benchmark {
        name: "Genome Sequencing",
        broadcast_type: "Data",
        design: design(64),
        device: Device::ultrascale_plus_vu9p(),
        clock_mhz: 333.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_ir::unroll::unroll_loop;

    #[test]
    fn unrolled_broadcast_factor_matches_unroll() {
        let d = design(64);
        let u = unroll_loop(&d.kernels[0].loops[0]);
        // curr_x is instruction 0; its unrolled fanout is the unroll factor.
        let curr_x = u.copies[0][0];
        assert_eq!(u.looop.body.fanout(curr_x), 64);
    }

    #[test]
    fn scales_with_parameter() {
        // The pragma defers replication to the unroll transform.
        let small = unroll_loop(&design(8).kernels[0].loops[0]).looop.body.len();
        let large = unroll_loop(&design(64).kernels[0].loops[0])
            .looop
            .body
            .len();
        assert!(small < large);
    }
}
