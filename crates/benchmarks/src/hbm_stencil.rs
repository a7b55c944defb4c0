//! HBM-based Jacobi stencil (paper \[2, 12\], §5.3), Alveo U50.
//!
//! The SODA compiler "uses 28 independent memory ports of the HBM. The
//! 512-bit data from each HBM port is scattered into 8 64-bit FIFOs ...
//! However, the SODA compiler expresses the 28 independent flows together
//! in a single loop, forming a sync broadcast pattern" — all ports and all
//! destination FIFOs synchronize every iteration. Synchronization pruning
//! (§4.2) splits the loop per flow, raising Fmax from 191 to 324 MHz.

use crate::Benchmark;
use hlsb_fabric::Device;
use hlsb_ir::builder::DesignBuilder;
use hlsb_ir::{DataType, Design};

/// Builds the scatter stage with the given number of HBM ports (the paper
/// uses 28) and 64-bit sub-channels per port (the paper uses 8).
pub fn design(ports: usize, subchannels: usize) -> Design {
    let wide = DataType::Bits(512);
    let narrow = DataType::Int(64);
    let mut b = DesignBuilder::new("hbm_stencil_scatter");
    b.dataflow();

    let mut hbm_in = Vec::with_capacity(ports);
    let mut outs = Vec::with_capacity(ports);
    for p in 0..ports {
        hbm_in.push(b.fifo(format!("hbm{p}"), wide, 4));
        let per_port: Vec<_> = (0..subchannels)
            .map(|s| b.fifo(format!("ch{p}_{s}"), narrow, 8))
            .collect();
        outs.push(per_port);
    }

    // The SODA-style single loop containing every independent flow.
    let mut k = b.kernel("scatter_all_ports");
    let mut l = k.pipelined_loop("all_flows", 1 << 20, 1);
    let half = l.constant("half", narrow);
    for p in 0..ports {
        let word = l.fifo_read(hbm_in[p], wide);
        for out in &outs[p] {
            // Per-channel stencil arithmetic (the downstream kernel's
            // first stage), so the flow has a real datapath.
            let part = l.repack(word, narrow);
            let shifted = l.shr(part, half);
            let r1 = l.reg(shifted);
            let summed = l.add(r1, part);
            let r2 = l.reg(summed);
            l.fifo_write(*out, r2);
        }
    }
    l.finish();
    k.finish();
    b.finish().expect("hbm stencil design is valid IR")
}

/// The Table-1 configuration: 28 HBM ports x 8 sub-channels on Alveo U50.
pub(crate) fn benchmark() -> Benchmark {
    Benchmark {
        name: "HBM-Based Stencil",
        broadcast_type: "Pipe. Ctrl. & Sync.",
        design: design(28, 8),
        device: Device::alveo_u50(),
        clock_mhz: 333.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_sync::split_dataflow_design;

    #[test]
    fn single_loop_contains_all_flows() {
        let d = design(28, 8);
        assert_eq!(d.kernels.len(), 1);
        assert_eq!(d.fifos.len(), 28 * 9);
    }

    #[test]
    fn pruning_splits_into_28_kernels() {
        let d = design(28, 8);
        let (split, report) = split_dataflow_design(&d);
        assert_eq!(report.kernels_out, 28);
        assert_eq!(split.kernels.len(), 28);
    }
}
