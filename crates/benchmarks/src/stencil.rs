//! SODA 2D Jacobi stencil super-pipeline (paper \[2\], §5.4).
//!
//! "We concatenate different iterations of the kernel to change the size
//! of the pipeline. ... For the super pipeline of eight Jacobi iterations,
//! it has 370 datapath stages and produces 512-bit results." Each
//! iteration is a line-buffered 5-point stencil working on a 512-bit
//! vector of sixteen 32-bit points. The only broadcast here is the
//! *pipeline control* one: the stall signal spans every stage (Fig. 16).

use crate::Benchmark;
use hlsb_fabric::Device;
use hlsb_ir::builder::DesignBuilder;
use hlsb_ir::{DataType, Design, InstId, Partition};

/// Datapath stages per Jacobi iteration (≈ 370 / 8 from §5.4).
pub(crate) const STAGES_PER_ITERATION: usize = 46;

/// Builds the super-pipeline with the given number of concatenated Jacobi
/// iterations (1..=8 in Fig. 16).
pub fn design(iterations: usize) -> Design {
    let vec_ty = DataType::Int(512); // 16 packed 32-bit points
    let mut b = DesignBuilder::new("jacobi_pipeline");
    let fin = b.fifo("in_stream", vec_ty, 4);
    let fout = b.fifo("out_stream", vec_ty, 4);
    // One line buffer per iteration (two image rows of 2048 points).
    let line_buffers: Vec<_> = (0..iterations)
        .map(|i| b.array(format!("line_buf{i}"), vec_ty, 256, Partition::None))
        .collect();

    let mut k = b.kernel("jacobi");
    let mut l = k.pipelined_loop("stream", 1 << 20, 1);
    let mut v = l.fifo_read(fin, vec_ty);
    let quarter = l.constant("quarter", DataType::Int(32));

    for (it, &lb) in line_buffers.iter().enumerate() {
        // Line-buffer window formation: store the incoming row, read the
        // delayed rows.
        let i = l.indvar(&format!("col{it}"));
        l.store(lb, i, v);
        let north = l.load(lb, i, vec_ty);

        // 5-point stencil arithmetic: three parallel 512-bit lanes per
        // stage (window taps), registers forcing the SODA-like deep
        // pipeline. Each iteration costs ≈ 5% of the device's LUTs, as the
        // paper reports, so the super-pipeline physically spans the die.
        let first = l.add(v, north);
        let mut lane_a = l.reg(first);
        let mut lane_b = l.reg(north);
        let mut lane_c = l.reg(v);
        for s in 0..STAGES_PER_ITERATION - 3 {
            let _ = s;
            let na = l.add(lane_a, lane_b);
            let nb = l.shr(lane_b, quarter);
            let nc = l.xor(lane_c, lane_a);
            lane_a = l.reg(na);
            lane_b = l.reg(nb);
            lane_c = l.reg(nc);
        }
        let mixed1 = l.add(lane_a, lane_c);
        let mixed2 = l.add(mixed1, lane_b);
        let acc: InstId = l.reg(mixed2);
        v = acc;
    }
    l.fifo_write(fout, v);
    l.finish();
    k.finish();
    b.finish().expect("stencil design is valid IR")
}

/// The Table-1 configuration: the full 8-iteration super-pipeline.
pub(crate) fn benchmark() -> Benchmark {
    Benchmark {
        name: "Stencil",
        broadcast_type: "Pipe. Ctrl.",
        design: design(8),
        device: Device::ultrascale_plus_vu9p(),
        clock_mhz: 333.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_iterations_approach_370_stages() {
        // §5.4: the 8-iteration super-pipeline has ≈ 370 datapath stages.
        let d = design(8);
        let sched = hlsb_sched::schedule_loop(
            &d.kernels[0].loops[0],
            &d,
            &hlsb_delay::HlsPredictedModel::new(),
            3.0,
        );
        assert!(
            (330..=420).contains(&sched.depth),
            "expected ≈ 370 stages, got {}",
            sched.depth
        );
    }

    #[test]
    fn pipeline_length_scales_linearly() {
        let d1 = design(1).inst_count();
        let d4 = design(4).inst_count();
        assert!(d4 > 3 * d1 && d4 < 5 * d1);
    }
}
