//! 512-wide vector product (paper Table 2 / Fig. 17): `(a · b) c`.
//!
//! The dot product of two 512-element float vectors feeds a reduction
//! tree whose scalar result is then multiplied into a third vector — the
//! "spindle" pipeline of Fig. 17: wide stages, a one-scalar waist, then
//! wide stages again. The design is organized as parallel PE chunks whose
//! completion the HLS controller synchronizes (the paper's "Pipe. Ctrl. &
//! Sync." classification in Table 1).

use crate::Benchmark;
use hlsb_fabric::Device;
use hlsb_ir::builder::DesignBuilder;
use hlsb_ir::{DataType, Design, InstId, KernelId};

/// Builds the vector product with `width` lanes split into `pes` parallel
/// dot-product PEs.
pub fn design(width: usize, pes: usize) -> Design {
    let f = DataType::Float32;
    assert!(
        pes >= 1 && width.is_multiple_of(pes),
        "width must divide into PEs"
    );
    let chunk = width / pes;

    let mut b = DesignBuilder::new("vector_product");

    // Dot-product PE: chunk-wide multiply + adder tree, static latency.
    let mut pe_ids: Vec<KernelId> = Vec::with_capacity(pes);
    for p in 0..pes {
        let mut pe = b.kernel(format!("dot_pe{p}"));
        // fmul (3) + ceil(log2(chunk)) fadds (4 each).
        let tree_levels = (chunk as f64).log2().ceil() as u64;
        pe.set_static_latency(3 + 4 * tree_levels);
        let mut l = pe.pipelined_loop("dot", 1 << 12, 1);
        let mut prods: Vec<InstId> = Vec::with_capacity(chunk);
        for lane in 0..chunk {
            let a = l.varying_input(&format!("a{lane}"), f);
            let bb = l.varying_input(&format!("b{lane}"), f);
            prods.push(l.mul(a, bb));
        }
        let mut level = prods;
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
        l.output("partial", level[0]);
        l.finish();
        pe_ids.push(pe.finish());
    }

    // Top: feed the PEs, combine partials, broadcast the scalar into c.
    let a_in = b.fifo("a_in", DataType::Bits(512), 4);
    let b_in = b.fifo("b_in", DataType::Bits(512), 4);
    let c_in = b.fifo("c_in", DataType::Bits(512), 4);
    let r_out = b.fifo("r_out", DataType::Bits(512), 4);

    let mut top = b.kernel("top");
    let mut l = top.pipelined_loop("main", 1 << 12, 1);
    let a_word = l.fifo_read(a_in, DataType::Bits(512));
    let b_word = l.fifo_read(b_in, DataType::Bits(512));
    let c_word = l.fifo_read(c_in, DataType::Bits(512));

    // Parallel PE calls — the HLS-inferred synchronization point.
    let mut partials = Vec::with_capacity(pes);
    for &pid in &pe_ids {
        let a_chunk = l.repack(a_word, f);
        let b_chunk = l.repack(b_word, f);
        partials.push(l.call(pid, vec![a_chunk, b_chunk], f));
    }
    let mut dot = partials[0];
    for &p in &partials[1..] {
        dot = l.add(dot, p);
    }
    let dot_reg = l.reg(dot); // the 32-bit waist of Fig. 17

    // Scalar × vector c: the scalar broadcast into `width` multipliers
    // (kept as 16 packed lanes to bound the netlist size).
    let mut packed = Vec::new();
    for lane in 0..16 {
        let c_lane = l.repack(c_word, f);
        let _ = lane;
        packed.push(l.mul(dot_reg, c_lane));
    }
    let mut level = packed;
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
    let word = l.repack(level[0], DataType::Bits(512));
    l.fifo_write(r_out, word);
    l.finish();
    top.finish();
    b.finish().expect("vector product design is valid IR")
}

/// The single-loop `(a · b) c` pipeline of Fig. 17: `width` float lanes
/// multiplied and reduced to one scalar (the waist), then scaled into the
/// output vector. Used by the Fig. 17 regenerator to extract the
/// inter-stage width profile for the min-area skid-buffer DP.
pub fn dot_scale_pipeline(width: usize) -> Design {
    let f = DataType::Float32;
    let mut b = DesignBuilder::new("dot_scale");
    let a_in = b.fifo("a_in", DataType::Bits(512), 4);
    let c_in = b.fifo("c_in", DataType::Bits(512), 4);
    let r_out = b.fifo("r_out", DataType::Bits(512), 4);

    let mut k = b.kernel("dot_scale");
    let mut l = k.pipelined_loop("main", 1 << 12, 1);
    // Stream interfaces (flow control endpoints); operand lanes arrive at
    // their MAC stage from per-stage memory ports, so only the running
    // partial sum travels between stages — exactly the paper's Fig. 17
    // observation that stages 1..waist pass a single number.
    let _ = l.fifo_read(a_in, DataType::Bits(512));
    let _ = l.fifo_read(c_in, DataType::Bits(512));

    // MAC chain: acc += a_i * b_i, one lane per chain step.
    let mut acc: Option<InstId> = None;
    for lane in 0..width {
        let a = l.varying_input(&format!("a{lane}"), f);
        let bb = l.varying_input(&format!("b{lane}"), f);
        let prod = l.mul(a, bb);
        acc = Some(match acc {
            Some(s) => l.add(s, prod),
            None => prod,
        });
    }
    let dot = l.reg(acc.expect("width >= 1")); // the scalar waist

    // The scaled output *vector* stays wide to the end of the pipeline
    // (Fig. 17's spindle: narrow chain -> scalar waist -> wide vector).
    let mut packed_out: Option<InstId> = None;
    for lane in 0..width {
        let c_lane = l.varying_input(&format!("c{lane}"), f);
        let scaled = l.mul(dot, c_lane);
        let o = l.output(&format!("r{lane}"), scaled);
        packed_out = Some(o);
    }
    if let Some(o) = packed_out {
        let word = l.repack(o, DataType::Bits(512));
        l.fifo_write(r_out, word);
    }
    l.finish();
    k.finish();
    b.finish().expect("dot-scale design is valid IR")
}

/// The Table-1/Table-2 configuration: 512 lanes in 4 PEs, AWS F1.
pub(crate) fn benchmark() -> Benchmark {
    Benchmark {
        name: "Vector Arithmetic",
        broadcast_type: "Pipe. Ctrl. & Sync.",
        design: design(512, 4),
        device: Device::ultrascale_plus_vu9p(),
        clock_mhz: 333.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_partition_is_exact() {
        let d = design(128, 4);
        assert_eq!(d.kernels.len(), 5); // 4 PEs + top
                                        // Each PE has 32 lanes -> 32 fmuls.
        let muls = d.kernels[0].loops[0]
            .body
            .iter()
            .filter(|(_, i)| matches!(i.kind, hlsb_ir::OpKind::Mul))
            .count();
        assert_eq!(muls, 32);
    }

    #[test]
    fn static_latency_reflects_tree_depth() {
        let d = design(128, 4);
        // chunk = 32: 3 + 4*5 = 23 cycles.
        assert_eq!(d.kernels[0].static_latency, Some(23));
    }

    #[test]
    #[should_panic(expected = "width must divide")]
    fn rejects_indivisible_width() {
        let _ = design(100, 3);
    }
}
