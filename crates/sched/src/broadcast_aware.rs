//! Broadcast-aware scheduling (paper §4.1).
//!
//! The flow mirrors the paper's tool exactly:
//!
//! 1. schedule with the stock (predicted) delay model;
//! 2. re-evaluate every in-cycle operation chain with the **calibrated**
//!    model, deriving each operand's broadcast factor from the RAW
//!    dependencies in the schedule report ("how many times a variable is
//!    read by later instructions in the same cycle");
//! 3. where a chain violates the clock target, insert a register module
//!    after the critical broadcast source — "equivalent to forcing the
//!    scheduler to split the operations into different cycles";
//! 4. reschedule and repeat to a fixed point.
//!
//! Memory accesses get special treatment: their calibrated delay grows
//! with the number of BRAM units of the buffer, and instead of registers
//! in the dataflow graph they receive *extra distribution/collection
//! pipeline stages* ("for memory access to large buffers within a
//! pipelined environment, we are safe to add additional latency as this
//! will not change the pipeline II").

use crate::list_sched::{chained_delay_ns, schedule_loop, CLOCK_MARGIN};
use crate::schedule::Schedule;
use hlsb_delay::DelayModel;
use hlsb_ir::{Design, InstId, Loop, OpKind};
use std::collections::HashMap;

/// Fix-point rounds [`broadcast_aware`] runs at most. A loop whose
/// violations never clear runs exactly this many rounds.
pub const MAX_ROUNDS: usize = 64;

/// Extra pipelining for memory accesses, keyed by instruction id in the
/// **final** loop body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemAccessPlan {
    /// Extra register stages to insert on the data-distribution (store) or
    /// collection (load) path of each memory instruction.
    pub extra_stages: HashMap<InstId, u32>,
}

impl MemAccessPlan {
    /// Extra stages for an instruction (0 if unplanned).
    pub fn stages(&self, inst: InstId) -> u32 {
        self.extra_stages.get(&inst).copied().unwrap_or(0)
    }
}

/// One chain-split decision: the evidence for a register module inserted
/// by the fix-point loop. Everything here is a pure function of the input
/// design and clock, so traces built from it are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitDecision {
    /// Fix-point round (1-based) that made the cut.
    pub round: usize,
    /// The violating instruction whose chain was cut (id in that round's
    /// loop body).
    pub violator: InstId,
    /// Kind of the violating instruction.
    pub op: OpKind,
    /// The operand after which the register module was inserted.
    pub cut: InstId,
    /// Broadcast factor observed at the cut point: the larger of the cut
    /// instruction's operand broadcast and its own same-cycle reader
    /// count (the violator is usually the chain *tail*; the broadcast
    /// lives at the source being registered).
    pub broadcast_factor: usize,
    /// How far the chain exceeded the clock budget, in ns.
    pub excess_ns: f64,
    /// Calibrated (broadcast-aware) chained delay of the cut instruction
    /// at that broadcast factor, ns.
    pub calibrated_ns: f64,
    /// What the stock HLS model predicted for the same op, ns.
    pub predicted_ns: f64,
}

/// Result of the broadcast-aware pass.
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastAwareOutcome {
    /// The rewritten loop (with inserted `Reg` instructions).
    pub looop: Loop,
    /// Its final schedule (under the predicted model, as in the paper —
    /// the registers do the splitting).
    pub schedule: Schedule,
    /// Number of register modules inserted.
    pub inserted_regs: usize,
    /// Fix-point rounds executed.
    pub rounds: usize,
    /// Instructions still violating the calibrated budget after all fixes
    /// (left to physical-design fanout optimization).
    pub residual_violations: Vec<InstId>,
    /// Extra memory pipelining decisions.
    pub mem_plan: MemAccessPlan,
    /// Per-cut provenance, in decision order.
    pub splits: Vec<SplitDecision>,
}

/// Per-instruction chain analysis under the calibrated model.
struct ChainAnalysis {
    /// Calibrated arrival offset of each instruction's result within its
    /// result cycle.
    arr: Vec<f64>,
    /// All violators: (inst, excess over budget, chained operand to cut).
    violations: Vec<(InstId, f64, Option<InstId>)>,
}

fn bram_units_of(design: &Design, op: OpKind) -> usize {
    match op {
        OpKind::Load(a) | OpKind::Store(a) => design.array(a).bram_units().max(1),
        _ => 1,
    }
}

fn analyze(
    lp: &Loop,
    design: &Design,
    schedule: &Schedule,
    calibrated: &impl DelayModel,
    budget: f64,
) -> ChainAnalysis {
    let dfg = &lp.body;
    let mut arr = vec![0.0f64; dfg.len()];
    let mut violations: Vec<(InstId, f64, Option<InstId>)> = Vec::new();

    for (id, inst) in dfg.iter() {
        let op = schedule.op(id);
        // In-cycle chain input: max over operands arriving in this cycle.
        let mut in_off = 0.0f64;
        let mut crit_operand: Option<InstId> = None;
        for &d in &inst.operands {
            if schedule.op(d).done_cycle() == op.cycle && arr[d.index()] > in_off {
                in_off = arr[d.index()];
                crit_operand = Some(d);
            }
        }

        let bf = if inst.kind.is_memory() {
            bram_units_of(design, inst.kind)
        } else {
            schedule.operand_broadcast_factor(dfg, id)
        };
        let d_cal = chained_delay_ns(calibrated.delay_ns(inst.kind, inst.ty, bf));

        let (out, total) = if op.latency == 0 {
            let total = in_off + d_cal;
            (total, total)
        } else if matches!(inst.kind, OpKind::Load(_)) {
            // The read data path (BRAM clock-to-out + collection network)
            // chains into the consumers.
            (d_cal, in_off.max(d_cal))
        } else if matches!(inst.kind, OpKind::Store(_)) {
            // The write distribution network must fit in one cycle on top
            // of whatever chain feeds the data.
            (0.0, in_off + d_cal)
        } else {
            // Generic sequential op: output comes from a register, but the
            // operand net — including its broadcast wire excess — must
            // still reach the operator's input register within the cycle
            // (e.g. an activation fanning out to 64 multipliers).
            let wire = calibrated.wire_excess_ns(inst.kind, inst.ty, bf);
            (op.offset_ns, in_off + wire)
        };
        arr[id.index()] = out;

        let excess = total - budget;
        if excess > 1e-9 {
            violations.push((id, excess, crit_operand));
        }
    }

    ChainAnalysis { arr, violations }
}

/// Runs the broadcast-aware scheduling pass on an (already unrolled) loop.
///
/// `predicted` is the broadcast-blind model the baseline scheduler uses;
/// `calibrated` is the broadcast-aware model from
/// [`hlsb_delay::CalibratedModel`].
pub fn broadcast_aware(
    lp: &Loop,
    design: &Design,
    predicted: &impl DelayModel,
    calibrated: &impl DelayModel,
    clock_ns: f64,
) -> BroadcastAwareOutcome {
    let budget = clock_ns * CLOCK_MARGIN;
    let mut cur = lp.clone();
    let mut inserted = 0usize;
    let mut rounds = 0usize;
    let mut splits: Vec<SplitDecision> = Vec::new();

    // Every exit leaves `cur` as the round scheduled it, so the last
    // round's schedule and analysis are the final ones.
    let (schedule, analysis) = loop {
        rounds += 1;
        let schedule = schedule_loop(&cur, design, predicted, clock_ns);
        let analysis = analyze(&cur, design, &schedule, calibrated, budget);

        if analysis.violations.is_empty() || rounds >= MAX_ROUNDS {
            break (schedule, analysis);
        }

        // Choose a register insertion point per violator; batch the round.
        // Cuts through free aliases (repack) resolve to the underlying
        // definition, so a word scattered into many lanes gets ONE shared
        // register (whose output physical duplication can then split),
        // not one register per lane.
        let resolve_alias = |dfg: &hlsb_ir::Dfg, mut d: InstId| {
            while dfg.inst(d).kind == OpKind::Repack {
                d = dfg.inst(d).operands[0];
            }
            d
        };
        let mut cuts: Vec<InstId> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &(inst, excess, crit_operand) in &analysis.violations {
            if cur.body.inst(inst).kind.is_memory() {
                continue; // handled by the memory plan below
            }
            let cut = match crit_operand {
                // There is an in-cycle chain feeding the violator: cut it
                // at the critical operand (the paper's Fig. 14 fix).
                Some(op) if cur.body.inst(op).kind != OpKind::Reg => Some(op),
                _ => {
                    // No chain to cut (the op alone violates). Register the
                    // most broadcast not-yet-registered operand so the full
                    // budget is available and the physical tools can
                    // duplicate the source.
                    let dfg = &cur.body;
                    let already_registered = |k: OpKind| {
                        matches!(
                            k,
                            OpKind::Reg | OpKind::Input { .. } | OpKind::IndVar | OpKind::Const
                        )
                    };
                    dfg.raw_deps(inst)
                        .iter()
                        .copied()
                        .filter(|&d| {
                            schedule.op(d).done_cycle() == schedule.op(inst).cycle
                                && !already_registered(dfg.inst(d).kind)
                        })
                        .max_by_key(|&d| schedule.same_cycle_readers(dfg, d))
                        .filter(|&d| schedule.same_cycle_readers(dfg, d) > 1)
                }
            };
            if let Some(c) = cut {
                let c = resolve_alias(&cur.body, c);
                if cur.body.inst(c).kind != OpKind::Reg && seen.insert(c) {
                    cuts.push(c);
                    let ck = cur.body.inst(c);
                    let bf = schedule
                        .operand_broadcast_factor(&cur.body, c)
                        .max(schedule.same_cycle_readers(&cur.body, c));
                    splits.push(SplitDecision {
                        round: rounds,
                        violator: inst,
                        op: cur.body.inst(inst).kind,
                        cut: c,
                        broadcast_factor: bf,
                        excess_ns: excess,
                        calibrated_ns: chained_delay_ns(calibrated.delay_ns(ck.kind, ck.ty, bf)),
                        predicted_ns: chained_delay_ns(predicted.delay_ns(ck.kind, ck.ty, bf)),
                    });
                }
            }
        }

        if cuts.is_empty() {
            // Nothing more to register: residual violations.
            break (schedule, analysis);
        }
        let (body, regs, _map) = std::mem::take(&mut cur.body).insert_regs_after(&cuts);
        cur.body = body;
        inserted += regs.len();
    };

    // Residual analysis + memory plan.
    let mut residual = Vec::new();
    let mut mem_plan = MemAccessPlan::default();
    for (id, inst) in cur.body.iter() {
        let op = schedule.op(id);
        let chain_in = cur
            .body
            .raw_deps(id)
            .iter()
            .filter(|&&d| schedule.op(d).done_cycle() == op.cycle)
            .map(|&d| analysis.arr[d.index()])
            .fold(0.0f64, f64::max);
        if inst.kind.is_memory() {
            let bf = bram_units_of(design, inst.kind);
            let d_cal = chained_delay_ns(calibrated.delay_ns(inst.kind, inst.ty, bf));
            let total = if matches!(inst.kind, OpKind::Store(_)) {
                chain_in + d_cal
            } else {
                d_cal
            };
            if total > budget {
                // Split the distribution/collection network over enough
                // stages that each fits in the budget.
                let stages = (total / budget).ceil() as u32 - 1;
                mem_plan.extra_stages.insert(id, stages.max(1));
            }
        } else {
            let total = analysis.arr[id.index()];
            if op.latency == 0 && total > budget + 1e-9 {
                residual.push(id);
            }
        }
    }

    BroadcastAwareOutcome {
        looop: cur,
        schedule,
        inserted_regs: inserted,
        rounds,
        residual_violations: residual,
        mem_plan,
        splits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_delay::{CalibratedModel, HlsPredictedModel};
    use hlsb_fabric::Device;
    use hlsb_ir::builder::DesignBuilder;
    use hlsb_ir::unroll::unroll_loop;
    use hlsb_ir::{DataType, Partition};

    fn calibrated() -> CalibratedModel {
        CalibratedModel::characterize_analytic(&Device::ultrascale_plus_vu9p(), 3)
    }

    /// The paper's Fig. 13/14 pattern: an invariant value broadcast to 64
    /// unrolled subtract-chains.
    fn genome_like(unroll: u32) -> hlsb_ir::Design {
        let mut b = DesignBuilder::new("genome-like");
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("body", 64, 1);
        l.set_unroll(unroll);
        let curr_x = l.invariant_input("curr_x", DataType::Int(32));
        let prev_x = l.varying_input("prev_x", DataType::Int(32));
        let dist = l.sub(prev_x, curr_x); // 64-way broadcast of curr_x
        let dd = l.abs(dist);
        let sel = l.min(dd, prev_x);
        l.output("score", sel);
        l.finish();
        k.finish();
        b.finish().expect("valid")
    }

    #[test]
    fn inserts_registers_for_large_broadcast() {
        let d = genome_like(64);
        let u = unroll_loop(&d.kernels[0].loops[0]);
        let out = broadcast_aware(&u.looop, &d, &HlsPredictedModel::new(), &calibrated(), 3.33);
        assert!(out.inserted_regs >= 1, "no registers inserted");
        // Every inserted register carries a decision record with the
        // calibrated-vs-predicted evidence that justified it.
        assert_eq!(out.splits.len(), out.inserted_regs);
        for s in &out.splits {
            assert!(s.excess_ns > 0.0);
            assert!(s.broadcast_factor >= 1);
        }
        // At least one cut was driven by a calibrated broadcast excess the
        // stock model missed.
        assert!(out
            .splits
            .iter()
            .any(|s| s.broadcast_factor > 1 && s.calibrated_ns > s.predicted_ns));
        // The fix deepens (or at worst re-balances) the pipeline without
        // changing the II (paper: depth 9 -> 10, II unchanged).
        let base = schedule_loop(&u.looop, &d, &HlsPredictedModel::new(), 3.33);
        assert!(out.schedule.depth >= base.depth);
        assert_eq!(out.schedule.ii, base.ii);
        // The broadcast subtract now starts its cycle fresh: no chained
        // operand feeds it.
        let dfg = &out.looop.body;
        for (id, inst) in dfg.iter() {
            if inst.kind == hlsb_ir::OpKind::Sub {
                let cyc = out.schedule.op(id).cycle;
                for &d in &inst.operands {
                    let dep = out.schedule.op(d);
                    if dep.done_cycle() == cyc {
                        assert!(
                            dep.offset_ns <= 0.95,
                            "sub {id} still chained behind {d} ({}ns)",
                            dep.offset_ns
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn small_broadcast_needs_no_fix() {
        let d = genome_like(2);
        let u = unroll_loop(&d.kernels[0].loops[0]);
        let out = broadcast_aware(&u.looop, &d, &HlsPredictedModel::new(), &calibrated(), 3.33);
        assert_eq!(out.inserted_regs, 0);
        assert!(out.residual_violations.is_empty());
    }

    #[test]
    fn fix_point_reached_without_violations() {
        let d = genome_like(64);
        let u = unroll_loop(&d.kernels[0].loops[0]);
        let out = broadcast_aware(&u.looop, &d, &HlsPredictedModel::new(), &calibrated(), 3.33);
        assert!(
            out.residual_violations.is_empty(),
            "residual: {:?}",
            out.residual_violations
        );
        assert!(out.rounds < MAX_ROUNDS);
    }

    #[test]
    fn large_buffer_store_gets_extra_stages() {
        // The paper's Fig. 3: a 737280-word buffer (640 BRAM units).
        let mut b = DesignBuilder::new("bigbuf");
        let arr = b.array("buffer", DataType::Int(32), 737_280, Partition::None);
        let inf = b.fifo("in", DataType::Int(32), 2);
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("fill", 737_280, 1);
        let i = l.indvar("i");
        let v = l.fifo_read(inf, DataType::Int(32));
        l.store(arr, i, v);
        l.finish();
        k.finish();
        let d = b.finish().expect("valid");
        let out = broadcast_aware(
            &d.kernels[0].loops[0],
            &d,
            &HlsPredictedModel::new(),
            &calibrated(),
            3.33,
        );
        let store_id = out
            .looop
            .body
            .iter()
            .find(|(_, i)| matches!(i.kind, hlsb_ir::OpKind::Store(_)))
            .map(|(id, _)| id)
            .expect("store present");
        assert!(
            out.mem_plan.stages(store_id) >= 1,
            "large-buffer store should be pipelined: {:?}",
            out.mem_plan
        );
    }

    #[test]
    fn small_buffer_store_needs_no_stages() {
        let mut b = DesignBuilder::new("smallbuf");
        let arr = b.array("buffer", DataType::Int(32), 1024, Partition::None);
        let inf = b.fifo("in", DataType::Int(32), 2);
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("fill", 1024, 1);
        let i = l.indvar("i");
        let v = l.fifo_read(inf, DataType::Int(32));
        l.store(arr, i, v);
        l.finish();
        k.finish();
        let d = b.finish().expect("valid");
        let out = broadcast_aware(
            &d.kernels[0].loops[0],
            &d,
            &HlsPredictedModel::new(),
            &calibrated(),
            3.33,
        );
        assert!(out.mem_plan.extra_stages.is_empty());
        assert_eq!(out.inserted_regs, 0);
    }

    #[test]
    fn terminates_on_pathological_clock() {
        // A clock so fast nothing fits: must terminate with residuals, not
        // loop forever.
        let d = genome_like(64);
        let u = unroll_loop(&d.kernels[0].loops[0]);
        let out = broadcast_aware(&u.looop, &d, &HlsPredictedModel::new(), &calibrated(), 0.6);
        assert!(out.rounds <= MAX_ROUNDS);
        assert!(!out.residual_violations.is_empty());
    }
}
