//! CLINK LSTM inference kernel (paper \[9\]), floating-point, N = 256.
//!
//! One LSTM gate evaluation: the current input activation `x_t` (and the
//! recurrent activation `h_t`) broadcast to `lanes` parallel
//! floating-point multipliers against per-node weights, followed by an
//! adder tree. The activation broadcast is the data-broadcast bottleneck;
//! the conservative HLS prediction for `fmul` (Fig. 9c) interacts with it.

use crate::Benchmark;
use hlsb_fabric::Device;
use hlsb_ir::builder::DesignBuilder;
use hlsb_ir::{DataType, Design, InstId};

/// Builds the gate kernel with the given number of parallel lanes
/// (the `HLS_N-Node` unroll; the paper adapts N = 256, banked into lanes).
pub fn design(lanes: usize) -> Design {
    let f = DataType::Float32;
    let mut b = DesignBuilder::new("lstm_gate");
    let w_in = b.fifo("weights_in", DataType::Bits(512), 4);
    let out = b.fifo("gate_out", f, 2);

    let mut k = b.kernel("gate");
    let mut l = k.pipelined_loop("nodes", 256, 1);

    // Broadcast activations.
    let x_t = l.invariant_input("x_t", f);
    let h_t = l.invariant_input("h_t", f);

    // Per-lane weights streamed in (16 f32 per 512-bit word).
    let mut products: Vec<InstId> = Vec::with_capacity(lanes * 2);
    for lane in 0..lanes {
        if lane % 16 == 0 {
            let _ = l.fifo_read(w_in, DataType::Bits(512));
        }
        let wx = l.varying_input(&format!("wx{lane}"), f);
        let wh = l.varying_input(&format!("wh{lane}"), f);
        products.push(l.mul(x_t, wx)); // x_t broadcast to all lanes
        products.push(l.mul(h_t, wh)); // h_t broadcast to all lanes
    }

    // Adder reduction tree.
    let mut level = products;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                next.push(l.add(pair[0], pair[1]));
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    let bias = l.constant("bias", f);
    let act = l.add(level[0], bias);
    l.fifo_write(out, act);
    l.finish();
    k.finish();
    b.finish().expect("lstm design is valid IR")
}

/// The Table-1 configuration: 32 lanes (N = 256 banked 8-way) on AWS F1.
pub(crate) fn benchmark() -> Benchmark {
    Benchmark {
        name: "LSTM Network",
        broadcast_type: "Data",
        design: design(32),
        device: Device::ultrascale_plus_vu9p(),
        clock_mhz: 333.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_broadcast_scales_with_lanes() {
        let d = design(32);
        let body = &d.kernels[0].loops[0].body;
        // x_t is instruction 0; it feeds one fmul per lane.
        assert_eq!(body.fanout(hlsb_ir::InstId(0)), 32);
    }

    #[test]
    fn reduction_tree_is_complete() {
        let d = design(8);
        // 8 lanes * 2 products = 16 leaves -> 15 adders + bias add.
        let adds = d.kernels[0].loops[0]
            .body
            .iter()
            .filter(|(_, i)| matches!(i.kind, hlsb_ir::OpKind::Add))
            .count();
        assert_eq!(adds, 16);
    }
}
