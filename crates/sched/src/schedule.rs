//! Schedule data structures.

use hlsb_ir::{Dfg, InstId};

/// Scheduling result for one instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledOp {
    /// Start cycle (0-based).
    pub cycle: u32,
    /// Latency in cycles (0 = chains combinationally within `cycle`).
    pub latency: u32,
    /// Offset within the result's cycle at which the value is available,
    /// ns from the clock edge.
    pub offset_ns: f64,
    /// Estimated combinational delay used during scheduling, ns.
    pub est_delay_ns: f64,
}

impl ScheduledOp {
    /// Cycle in which the result becomes available.
    pub fn done_cycle(self) -> u32 {
        self.cycle + self.latency
    }
}

/// A complete schedule of one loop body.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Per-instruction results, indexed by [`InstId`].
    pub ops: Vec<ScheduledOp>,
    /// Pipeline depth in cycles (number of stages).
    pub depth: u32,
    /// Initiation interval in cycles.
    pub ii: u32,
    /// Clock period target the schedule was built for, ns.
    pub clock_ns: f64,
    /// Instructions whose single-operation delay exceeded the clock budget
    /// even at a fresh cycle boundary (unfixable at this clock without
    /// physical-side optimization).
    pub violations: Vec<InstId>,
}

impl Schedule {
    /// Scheduling info of one instruction.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is out of bounds.
    pub fn op(&self, inst: InstId) -> ScheduledOp {
        self.ops[inst.index()]
    }

    /// Number of same-cycle readers of `def`'s value — the dynamic
    /// broadcast factor of §4.1 ("how many times a variable is read by
    /// later instructions in the same cycle").
    ///
    /// A reader counts if it *starts* in the cycle in which `def`'s value
    /// becomes available (i.e. the value is consumed through wires, not
    /// through a register).
    pub fn same_cycle_readers(&self, dfg: &Dfg, def: InstId) -> usize {
        let done = self.op(def).done_cycle();
        dfg.users(def)
            .iter()
            .filter(|&&u| self.op(u).cycle == done)
            .count()
    }

    /// Number of users of `def` that start in `cycle` — the fanout of
    /// `def`'s net into that cycle's logic.
    pub fn readers_in_cycle(&self, dfg: &Dfg, def: InstId, cycle: u32) -> usize {
        dfg.users(def)
            .iter()
            .filter(|&&u| self.op(u).cycle == cycle)
            .count()
    }

    /// The broadcast factor the delay model should see for instruction
    /// `inst`: the largest same-cycle reader count over its operands. An
    /// operand held in a register from an earlier cycle still broadcasts —
    /// the paper's Fig. 14 `curr.x` register fans out to 64 subtractors
    /// executing in one cycle — so readers are counted in *`inst`'s* start
    /// cycle, not the operand's definition cycle.
    pub fn operand_broadcast_factor(&self, dfg: &Dfg, inst: InstId) -> usize {
        let start = self.op(inst).cycle;
        dfg.raw_deps(inst)
            .iter()
            .map(|&d| self.readers_in_cycle(dfg, d, start))
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// Instructions starting in each cycle (for stage-oriented consumers
    /// like RTL generation). Index = cycle.
    pub fn by_cycle(&self, dfg: &Dfg) -> Vec<Vec<InstId>> {
        let mut out = vec![Vec::new(); self.depth as usize];
        for id in dfg.ids() {
            let c = self.op(id).cycle as usize;
            if c < out.len() {
                out[c].push(id);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_ir::{DataType, OpKind};

    #[test]
    fn done_cycle_adds_latency() {
        let op = ScheduledOp {
            cycle: 3,
            latency: 2,
            offset_ns: 0.1,
            est_delay_ns: 2.0,
        };
        assert_eq!(op.done_cycle(), 5);
    }

    #[test]
    fn same_cycle_readers_counts_chained_users_only() {
        let mut dfg = Dfg::new();
        let a = dfg.push(OpKind::Input { invariant: true }, DataType::Int(32), vec![]);
        let u1 = dfg.push(OpKind::Not, DataType::Int(32), vec![a]);
        let u2 = dfg.push(OpKind::Not, DataType::Int(32), vec![a]);
        let u3 = dfg.push(OpKind::Not, DataType::Int(32), vec![a]);
        let mk = |cycle| ScheduledOp {
            cycle,
            latency: 0,
            offset_ns: 0.0,
            est_delay_ns: 0.0,
        };
        let sched = Schedule {
            ops: vec![mk(0), mk(0), mk(0), mk(1)],
            depth: 2,
            ii: 1,
            clock_ns: 3.33,
            violations: vec![],
        };
        assert_eq!(sched.same_cycle_readers(&dfg, a), 2);
        assert_eq!(sched.operand_broadcast_factor(&dfg, u1), 2);
        assert_eq!(sched.operand_broadcast_factor(&dfg, u2), 2);
        // u3 reads a through a register (different cycle): factor 1.
        assert_eq!(sched.operand_broadcast_factor(&dfg, u3), 1);
    }

    #[test]
    fn by_cycle_groups() {
        let mut dfg = Dfg::new();
        let a = dfg.push(OpKind::Input { invariant: false }, DataType::Int(8), vec![]);
        let b = dfg.push(OpKind::Not, DataType::Int(8), vec![a]);
        let mk = |cycle| ScheduledOp {
            cycle,
            latency: 0,
            offset_ns: 0.0,
            est_delay_ns: 0.0,
        };
        let sched = Schedule {
            ops: vec![mk(0), mk(1)],
            depth: 2,
            ii: 1,
            clock_ns: 3.0,
            violations: vec![],
        };
        let groups = sched.by_cycle(&dfg);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec![a]);
        assert_eq!(groups[1], vec![b]);
    }
}
