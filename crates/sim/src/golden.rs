//! The untimed golden evaluator.
//!
//! Runs the [`hlsb_ir::interp::Interpreter`] over the loop bodies a flow's
//! front-end produced (unrolled, dead-code-eliminated, possibly dataflow
//! split) and collects the observable trace. This is the functional
//! reference the timed simulator ([`crate::timed`]) is differenced
//! against: both call the *same* `run_iteration`, so any trace divergence
//! is a transformation bug, not an interpreter discrepancy.

use crate::stim::{IoTrace, Stimulus};
use hlsb_ir::interp::Interpreter;
use hlsb_ir::{Design, Loop, OpKind};
use std::collections::HashSet;

/// Kernel indices that are invoked via `call` from some loop body.
///
/// Called kernels (PEs) execute only inside the caller's `call`
/// evaluation; running them standalone would double-count their effects.
pub(crate) fn called_kernels(bodies: &[Vec<Loop>]) -> HashSet<usize> {
    let mut called = HashSet::new();
    for loops in bodies {
        for lp in loops {
            for (_, inst) in lp.body.iter() {
                if let OpKind::Call(kid) = inst.kind {
                    called.insert(kid.index());
                }
            }
        }
    }
    called
}

/// The number of iterations a simulation actually runs for a loop: the
/// trip count, capped so benchmarks with million-iteration loops stay
/// cheap. Golden and timed backends must use the same cap.
pub(crate) fn capped_iters(lp: &Loop, cap: u64) -> u64 {
    lp.trip_count.min(cap.max(1))
}

/// Evaluates a design functionally: every standalone (not `call`ed)
/// kernel in declaration order, every loop in sequence, `capped_iters`
/// iterations each, against one shared I/O state.
///
/// `bodies[kernel][loop]` must describe the same design `design` does —
/// normally the front-end's unrolled loop list (`FrontEndArtifact`
/// ordering), but any behaviour-preserving refinement (e.g. scheduled
/// bodies with inserted registers) is valid too.
///
/// # Panics
///
/// Panics if `bodies` references arrays/FIFOs/kernels missing from
/// `design` (verify the design first).
pub fn golden_trace(design: &Design, bodies: &[Vec<Loop>], stim: &Stimulus, cap: u64) -> IoTrace {
    let interp = Interpreter::new(design);
    let called = called_kernels(bodies);
    let mut io = stim.to_io();
    for (k, loops) in bodies.iter().enumerate() {
        if called.contains(&k) {
            continue;
        }
        for lp in loops {
            interp.run_loop(lp, capped_iters(lp, cap), &mut io);
        }
    }
    IoTrace::from_io(&io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_ir::builder::DesignBuilder;
    use hlsb_ir::DataType;

    /// A caller kernel plus a PE kernel invoked via `call`.
    fn design_with_pe() -> Design {
        let mut b = DesignBuilder::new("pe");
        let fin = b.fifo("in", DataType::Int(32), 2);
        let fout = b.fifo("out", DataType::Int(32), 2);
        let mut pe = b.kernel("pe");
        pe.set_static_latency(3);
        {
            let mut l = pe.pipelined_loop("body", 1, 1);
            let x = l.varying_input("x", DataType::Int(32));
            let y = l.mul(x, x);
            l.output("sq", y);
            l.finish();
        }
        let pe_id = pe.finish();
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("main", 6, 1);
        let x = l.fifo_read(fin, DataType::Int(32));
        let r = l.call(pe_id, vec![x], DataType::Int(32));
        l.fifo_write(fout, r);
        l.finish();
        k.finish();
        b.finish().unwrap()
    }

    #[test]
    fn called_kernels_are_not_run_standalone() {
        let d = design_with_pe();
        let bodies: Vec<Vec<Loop>> = d.kernels.iter().map(|k| k.loops.clone()).collect();
        assert_eq!(called_kernels(&bodies), HashSet::from([0]));

        let mut stim = Stimulus::default();
        stim.fifo_inputs.insert(0, vec![2, -3, 4, 0, 5, 1]);
        let trace = golden_trace(&d, &bodies, &stim, 64);
        // Only the squared stream from the caller; the PE's own `sq`
        // output is internal to each call activation.
        assert_eq!(trace.fifo_outputs[&1], vec![4, 9, 16, 0, 25, 1]);
        assert!(!trace.outputs.contains_key("sq"));
    }

    #[test]
    fn iteration_cap_bounds_work() {
        let d = design_with_pe();
        let bodies: Vec<Vec<Loop>> = d.kernels.iter().map(|k| k.loops.clone()).collect();
        assert_eq!(capped_iters(&d.kernels[1].loops[0], 4), 4);
        assert_eq!(capped_iters(&d.kernels[1].loops[0], 100), 6);

        let stim = Stimulus::seeded(&d, 1, 8);
        let t4 = golden_trace(&d, &bodies, &stim, 4);
        assert_eq!(t4.fifo_outputs[&1].len(), 4);
    }
}
