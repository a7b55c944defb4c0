//! Matrix multiply (paper \[4\]), parallelism increased to "expose the
//! problem" (§5.1).
//!
//! Blocked GEMM inner loop: one `A` element is broadcast to `pes` integer
//! MAC units against a row of `B`, deep-pipelined behind FIFO interfaces.
//! Exhibits both the data broadcast (the `A` element) and the pipeline
//! control broadcast (the stall net over the long MAC pipeline).

use crate::Benchmark;
use hlsb_fabric::Device;
use hlsb_ir::builder::DesignBuilder;
use hlsb_ir::{DataType, Design};

/// Builds the GEMM kernel with `pes` MAC lanes and `acc_depth` extra
/// accumulation stages (pipeline deepening).
pub fn design(pes: usize, acc_depth: usize) -> Design {
    let ty = DataType::Int(32);
    let mut b = DesignBuilder::new("matmul");
    let a_in = b.fifo("a_in", ty, 4);
    let b_in = b.fifo("b_in", DataType::Bits(512), 4);
    let c_out = b.fifo("c_out", DataType::Bits(512), 4);

    let mut k = b.kernel("gemm");
    let mut l = k.pipelined_loop("inner", 1 << 14, 1);

    // The broadcast source: one element of A per iteration burst.
    let a_elem = l.invariant_input("a_elem", ty);
    let _a_stream = l.fifo_read(a_in, ty);
    let b_word = l.fifo_read(b_in, DataType::Bits(512));

    let mut outs = Vec::with_capacity(pes);
    for pe in 0..pes {
        let b_elem = l.repack(b_word, ty);
        let prod = l.mul(a_elem, b_elem); // a_elem broadcast to all MACs
                                          // Accumulation pipeline (partial-sum chain deepened per the
                                          // "increase the parallelism ... to expose the problem" setup).
        let mut acc = prod;
        for _ in 0..acc_depth {
            let c = l.constant(&format!("psum{pe}"), ty);
            let s = l.add(acc, c);
            acc = l.reg(s);
        }
        outs.push(acc);
    }
    // Pack results back into a wide word (balanced combine tree; real
    // concatenation is wiring, the tree models the output mux network).
    let mut level = outs;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                next.push(l.xor(pair[0], pair[1]));
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    let word = l.repack(level[0], DataType::Bits(512));
    l.fifo_write(c_out, word);
    l.finish();
    k.finish();
    b.finish().expect("matmul design is valid IR")
}

/// The Table-1 configuration: 64 MACs, 8 accumulation stages, AWS F1.
pub(crate) fn benchmark() -> Benchmark {
    Benchmark {
        name: "Matrix Multiply",
        broadcast_type: "Pipe. Ctrl. & Data",
        design: design(64, 8),
        device: Device::ultrascale_plus_vu9p(),
        clock_mhz: 333.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_element_broadcasts_to_all_pes() {
        let d = design(64, 4);
        let body = &d.kernels[0].loops[0].body;
        assert_eq!(body.fanout(hlsb_ir::InstId(0)), 64);
    }

    #[test]
    fn accumulation_regs_deepen_pipeline() {
        let shallow = design(8, 2);
        let deep = design(8, 12);
        let regs = |d: &Design| {
            d.kernels[0].loops[0]
                .body
                .iter()
                .filter(|(_, i)| matches!(i.kind, hlsb_ir::OpKind::Reg))
                .count()
        };
        assert!(regs(&deep) > regs(&shallow));
    }
}
