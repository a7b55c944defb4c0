//! Schedule reports — the structure the paper's tool parses.
//!
//! The paper injects its calibration by parsing "the HLS scheduling
//! reports, which include the LLVM instructions annotated with scheduled
//! state/cycle, estimated delay, etc." (§4.1). [`ScheduleReport`] is the
//! equivalent artifact in this reproduction: a per-instruction table with
//! cycle, estimated delay, RAW dependencies and the same-cycle broadcast
//! factor derived from them.

use crate::schedule::Schedule;
use hlsb_ir::{Dfg, InstId};
use std::fmt;

/// One row of the schedule report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportEntry {
    /// Instruction id.
    pub inst: InstId,
    /// Operation mnemonic (e.g. `sub`, `fifo.read`).
    pub op: String,
    /// Variable name, if the source carried one.
    pub name: String,
    /// Scheduled start cycle ("state").
    pub cycle: u32,
    /// Latency in cycles.
    pub latency: u32,
    /// Estimated combinational delay used by the scheduler, ns.
    pub est_delay_ns: f64,
    /// RAW dependencies (operands).
    pub raw_deps: Vec<InstId>,
    /// Same-cycle readers of this instruction's result (the broadcast
    /// factor of §4.1).
    pub broadcast_factor: usize,
}

/// A complete schedule report for one loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleReport {
    /// Loop name.
    pub loop_name: String,
    /// Rows in instruction order.
    pub entries: Vec<ReportEntry>,
    /// Pipeline depth in cycles.
    pub depth: u32,
    /// Initiation interval.
    pub ii: u32,
}

impl ScheduleReport {
    /// Builds the report from a schedule and its dataflow graph.
    pub fn from_schedule(loop_name: &str, dfg: &Dfg, schedule: &Schedule) -> Self {
        let entries = dfg
            .iter()
            .map(|(id, inst)| {
                let op = schedule.op(id);
                ReportEntry {
                    inst: id,
                    op: inst.kind.to_string(),
                    name: inst.name.clone(),
                    cycle: op.cycle,
                    latency: op.latency,
                    est_delay_ns: op.est_delay_ns,
                    raw_deps: inst.operands.clone(),
                    broadcast_factor: schedule.same_cycle_readers(dfg, id),
                }
            })
            .collect();
        ScheduleReport {
            loop_name: loop_name.to_string(),
            entries,
            depth: schedule.depth,
            ii: schedule.ii,
        }
    }

    /// Entries whose result is broadcast to at least `threshold` same-cycle
    /// readers — the candidates broadcast-aware scheduling inspects.
    pub fn broadcasts(&self, threshold: usize) -> impl Iterator<Item = &ReportEntry> {
        self.entries
            .iter()
            .filter(move |e| e.broadcast_factor >= threshold)
    }
}

impl fmt::Display for ScheduleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== schedule report: {} (depth {}, II {}) ==",
            self.loop_name, self.depth, self.ii
        )?;
        writeln!(
            f,
            "{:>5} {:<10} {:>5} {:>4} {:>9} {:>4}  deps",
            "inst", "op", "cycle", "lat", "delay(ns)", "bf"
        )?;
        for e in &self.entries {
            let deps: Vec<String> = e.raw_deps.iter().map(ToString::to_string).collect();
            writeln!(
                f,
                "{:>5} {:<10} {:>5} {:>4} {:>9.2} {:>4}  {}",
                e.inst.to_string(),
                e.op,
                e.cycle,
                e.latency,
                e.est_delay_ns,
                e.broadcast_factor,
                deps.join(",")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list_sched::schedule_loop;
    use hlsb_delay::HlsPredictedModel;
    use hlsb_ir::builder::DesignBuilder;
    use hlsb_ir::unroll::unroll_loop;
    use hlsb_ir::DataType;

    fn broadcast_design(unroll: u32) -> hlsb_ir::Design {
        let mut b = DesignBuilder::new("bc");
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("body", 64, 1);
        l.set_unroll(unroll);
        let src = l.invariant_input("source", DataType::Int(32));
        let x = l.varying_input("x", DataType::Int(32));
        let s = l.sub(src, x);
        l.output("o", s);
        l.finish();
        k.finish();
        b.finish().expect("valid")
    }

    #[test]
    fn report_carries_broadcast_factor() {
        let d = broadcast_design(16);
        let u = unroll_loop(&d.kernels[0].loops[0]);
        let s = schedule_loop(&u.looop, &d, &HlsPredictedModel::new(), 3.33);
        let r = ScheduleReport::from_schedule("body", &u.looop.body, &s);
        // The invariant source is read by 16 same-cycle subs.
        let src_entry = r
            .entries
            .iter()
            .find(|e| e.name == "source")
            .expect("source present");
        assert_eq!(src_entry.broadcast_factor, 16);
        assert_eq!(r.broadcasts(16).count(), 1);
        assert_eq!(r.broadcasts(17).count(), 0);
    }

    #[test]
    fn display_renders_rows() {
        let d = broadcast_design(2);
        let u = unroll_loop(&d.kernels[0].loops[0]);
        let s = schedule_loop(&u.looop, &d, &HlsPredictedModel::new(), 3.33);
        let r = ScheduleReport::from_schedule("body", &u.looop.body, &s);
        let text = r.to_string();
        assert!(text.contains("schedule report: body"), "{text}");
        assert!(text.lines().count() > 5);
        // Every column, byte for byte: the broadcast source (bf 2, no
        // dependencies) and one of its same-cycle readers.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1], " inst op         cycle  lat delay(ns)   bf  deps");
        assert_eq!(lines[2], "   %0 input.inv      0    0      0.00    2  ");
        assert_eq!(
            lines[4],
            "   %2 sub            0    0      1.03    1  %0,%1"
        );

        // A multi-cycle row: non-zero cycle and latency, delay rounded to
        // two places.
        let row = ScheduleReport {
            loop_name: "l".into(),
            entries: vec![ReportEntry {
                inst: InstId(7),
                op: "fmul".into(),
                name: "p".into(),
                cycle: 3,
                latency: 4,
                est_delay_ns: 2.345,
                raw_deps: vec![InstId(2), InstId(5)],
                broadcast_factor: 12,
            }],
            depth: 9,
            ii: 1,
        };
        assert_eq!(
            row.to_string().lines().nth(2),
            Some("   %7 fmul           3    4      2.35   12  %2,%5")
        );
    }

    #[test]
    fn entries_align_with_instructions() {
        let d = broadcast_design(4);
        let u = unroll_loop(&d.kernels[0].loops[0]);
        let s = schedule_loop(&u.looop, &d, &HlsPredictedModel::new(), 3.33);
        let r = ScheduleReport::from_schedule("body", &u.looop.body, &s);
        assert_eq!(r.entries.len(), u.looop.body.len());
        for (i, e) in r.entries.iter().enumerate() {
            assert_eq!(e.inst.index(), i);
        }
    }
}
