//! Forced register injection at named stage boundaries.
//!
//! Broadcast-aware scheduling ([`crate::broadcast_aware()`]) inserts
//! register modules *reactively*, where the calibrated model proves a
//! chain violates the clock budget. This module is the *proactive*
//! variant — the `inject_registers`-style knob of frequency-optimization
//! harnesses: the caller names stage boundaries of the baseline schedule
//! and every value that crosses such a boundary through wires (i.e. is
//! produced in the boundary cycle and consumed combinationally in the
//! same cycle) is forced through an [`OpKind::Reg`] module instead.
//!
//! The cut points are exactly the split-chain cut points the
//! broadcast-aware pass would consider — chain sources with same-cycle
//! readers — so an injection at boundary `b` splits every in-cycle
//! operation chain alive at cycle `b` of the pre-injection schedule.
//! The rewritten loop is then rescheduled, which deepens the pipeline
//! (the extra latency is real and visible to the timed simulator) in
//! exchange for shorter combinational chains after lowering.

use crate::list_sched::schedule_loop;
use crate::schedule::Schedule;
use hlsb_delay::DelayModel;
use hlsb_ir::{Design, InstId, Loop, OpKind};

/// One forced-injection decision: the evidence for a register module
/// inserted at a requested stage boundary. Pure function of the loop,
/// clock and boundary list, so traces replayed from it are
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectDecision {
    /// The requested stage boundary (cycle index in the *pre-injection*
    /// schedule of this loop) that this cut realizes.
    pub boundary: u32,
    /// The instruction after which the register module was inserted (id
    /// in the pre-injection loop body).
    pub cut: InstId,
    /// Kind of the cut instruction.
    pub op: OpKind,
    /// Same-cycle readers whose combinational chain the register cuts.
    pub readers: usize,
}

/// Result of [`inject_registers`].
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionOutcome {
    /// The rewritten loop (with the forced `Reg` instructions), or a
    /// clone of the input when nothing was cut.
    pub looop: Loop,
    /// Its schedule after rescheduling.
    pub schedule: Schedule,
    /// Number of register modules inserted.
    pub inserted_regs: usize,
    /// Per-cut provenance, in boundary-then-instruction order.
    pub decisions: Vec<InjectDecision>,
    /// Boundaries that name a real stage boundary of this loop
    /// (`b < pre-injection depth`), whether or not they cut anything.
    pub boundaries_in_range: Vec<u32>,
    /// Old-to-new instruction id mapping (identity-length; empty when no
    /// register was inserted). Callers carrying side tables keyed by
    /// [`InstId`] (e.g. memory pipelining plans) must remap through it.
    pub id_map: Vec<InstId>,
}

/// Kinds whose value already comes straight out of a register (or a
/// constant wire): registering them again cuts no combinational chain.
fn register_like(kind: OpKind) -> bool {
    matches!(
        kind,
        OpKind::Reg | OpKind::Input { .. } | OpKind::IndVar | OpKind::Const
    )
}

/// Forces a pipeline register after every chain source alive at each of
/// the requested stage `boundaries` of `lp`'s baseline schedule, then
/// reschedules. Boundaries are interpreted against the *pre-injection*
/// schedule: a cut at boundary `b` registers every instruction whose
/// result becomes available in cycle `b` and is read combinationally in
/// that same cycle. Out-of-range boundaries (`b >= depth`) are reported
/// via [`InjectionOutcome::boundaries_in_range`] — the caller decides
/// whether that is an error (it is, for a whole design, when a boundary
/// is out of range for *every* loop).
pub fn inject_registers(
    lp: &Loop,
    design: &Design,
    predicted: &impl DelayModel,
    clock_ns: f64,
    boundaries: &[u32],
) -> InjectionOutcome {
    let base = schedule_loop(lp, design, predicted, clock_ns);
    let mut sorted: Vec<u32> = boundaries.to_vec();
    sorted.sort_unstable();
    sorted.dedup();

    let dfg = &lp.body;
    let mut decisions: Vec<InjectDecision> = Vec::new();
    let mut cuts: Vec<InstId> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut in_range = Vec::new();
    for &b in &sorted {
        if b >= base.depth {
            continue;
        }
        in_range.push(b);
        for (id, inst) in dfg.iter() {
            if base.op(id).done_cycle() != b || register_like(inst.kind) {
                continue;
            }
            let readers = base.same_cycle_readers(dfg, id);
            if readers == 0 || !seen.insert(id) {
                continue;
            }
            cuts.push(id);
            decisions.push(InjectDecision {
                boundary: b,
                cut: id,
                op: inst.kind,
                readers,
            });
        }
    }

    if cuts.is_empty() {
        return InjectionOutcome {
            looop: lp.clone(),
            schedule: base,
            inserted_regs: 0,
            decisions,
            boundaries_in_range: in_range,
            id_map: Vec::new(),
        };
    }

    let mut looop = lp.clone();
    let (body, regs, id_map) = std::mem::take(&mut looop.body).insert_regs_after(&cuts);
    looop.body = body;
    let schedule = schedule_loop(&looop, design, predicted, clock_ns);
    InjectionOutcome {
        looop,
        schedule,
        inserted_regs: regs.len(),
        decisions,
        boundaries_in_range: in_range,
        id_map,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_delay::HlsPredictedModel;
    use hlsb_ir::builder::DesignBuilder;
    use hlsb_ir::DataType;

    /// A three-op combinational chain in one cycle at a relaxed clock.
    fn chain_design() -> hlsb_ir::Design {
        let mut b = DesignBuilder::new("chain");
        let fin = b.fifo("in", DataType::Int(32), 2);
        let fout = b.fifo("out", DataType::Int(32), 2);
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("body", 64, 1);
        let c = l.invariant_input("c", DataType::Int(32));
        let x = l.fifo_read(fin, DataType::Int(32));
        let s = l.sub(x, c);
        let a = l.abs(s);
        let m = l.min(a, x);
        l.fifo_write(fout, m);
        l.finish();
        k.finish();
        b.finish().expect("valid")
    }

    #[test]
    fn injection_cuts_chains_and_deepens_the_pipeline() {
        let d = chain_design();
        let lp = &d.kernels[0].loops[0];
        let model = HlsPredictedModel::new();
        let base = schedule_loop(lp, &d, &model, 5.0);
        let out = inject_registers(lp, &d, &model, 5.0, &[1]);
        assert!(out.inserted_regs >= 1, "boundary 1 must cut the chain");
        assert_eq!(out.decisions.len(), out.inserted_regs);
        assert!(out.schedule.depth > base.depth, "latency must be paid");
        assert_eq!(out.schedule.ii, base.ii, "II must not change");
        assert_eq!(out.boundaries_in_range, vec![1]);
        assert_eq!(out.id_map.len(), lp.body.len());
        for dec in &out.decisions {
            assert_eq!(dec.boundary, 1);
            assert!(dec.readers >= 1);
            assert_ne!(
                out.looop.body.inst(out.id_map[dec.cut.index()]).kind,
                OpKind::Reg
            );
        }
        // Every cut instruction's users now read through a register: the
        // only same-cycle reader left is the register's own D input.
        for dec in &out.decisions {
            let new_id = out.id_map[dec.cut.index()];
            let done = out.schedule.op(new_id).done_cycle();
            for &u in out.looop.body.users(new_id) {
                if out.schedule.op(u).cycle == done {
                    assert_eq!(
                        out.looop.body.inst(u).kind,
                        OpKind::Reg,
                        "cut {} still read combinationally by {u}",
                        dec.cut
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_range_boundary_is_reported_not_applied() {
        let d = chain_design();
        let lp = &d.kernels[0].loops[0];
        let model = HlsPredictedModel::new();
        let base = schedule_loop(lp, &d, &model, 5.0);
        let out = inject_registers(lp, &d, &model, 5.0, &[base.depth + 7]);
        assert_eq!(out.inserted_regs, 0);
        assert!(out.boundaries_in_range.is_empty());
        assert_eq!(out.schedule, base, "no-op injection must not reschedule");
    }

    #[test]
    fn injection_is_deterministic_and_batched() {
        let d = chain_design();
        let lp = &d.kernels[0].loops[0];
        let model = HlsPredictedModel::new();
        let a = inject_registers(lp, &d, &model, 5.0, &[1, 2]);
        let b = inject_registers(lp, &d, &model, 5.0, &[2, 1, 1]);
        assert_eq!(a, b, "boundary order and duplicates must not matter");
    }
}
