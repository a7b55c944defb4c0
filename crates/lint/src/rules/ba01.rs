//! BA01 — data broadcast created by loop unrolling (paper §3.1 #1, §4.1).
//!
//! Unrolling shares loop-invariant values between body copies, so a value
//! read once per iteration becomes an N-way same-cycle fanout in hardware.
//! The HLS scheduler's predicted delay tables ignore that fanout, so the
//! broadcast wire shows up only after place-and-route. This rule analyzes
//! the context's baseline schedule (the flow's own schedule artifact) and
//! flags every instruction whose same-cycle readers push the calibrated
//! wire excess past the delay budget.

use crate::context::LintContext;
use crate::rules::Rule;
use hlsb_delay::{classify, OpClass};
use hlsb_findings::{Diagnostic, Location, Severity};
use hlsb_ir::{Dfg, InstId, Loop};
use hlsb_rtlgen::ScheduledLoop;
use hlsb_sched::ScheduleReport;

/// Detects RAW-dependency-derived broadcasts after unrolling.
pub struct DataBroadcast;

/// Worst calibrated wire excess any same-cycle reader of `def` pays at
/// broadcast factor `bf`. Free-class readers (outputs, regs) carry no
/// operator curve; if only those read the value, fall back to the int-ALU
/// curve — the wire still has to reach their input registers.
fn reader_penalty_ns(ctx: &LintContext<'_>, dfg: &Dfg, def: InstId, bf: usize) -> f64 {
    let mut worst = 0.0f64;
    for &uid in dfg.users(def) {
        let u = dfg.inst(uid);
        let class = classify(u.kind, u.ty);
        if class != OpClass::Free {
            worst = worst.max(ctx.calibrated.wire_excess_ns(class, bf));
        }
    }
    if worst == 0.0 {
        worst = ctx.calibrated.wire_excess_ns(OpClass::IntAlu, bf);
    }
    worst
}

fn check_loop(
    ctx: &LintContext<'_>,
    kernel: &str,
    lp: &Loop,
    scheduled: &ScheduledLoop,
    out: &mut Vec<Diagnostic>,
) {
    let body = &scheduled.looop.body;
    let report = ScheduleReport::from_schedule(&lp.name, body, &scheduled.schedule);

    // Enumerate broadcasts from a low floor and judge each at its *exact*
    // fanout against the delay budget: a power-of-two threshold would skip
    // e.g. a 12-way window-pixel broadcast that is already over budget on
    // a slow family (face detection on the ZC706).
    let budget = ctx.data_budget_ns();
    for entry in report.broadcasts(2) {
        let bf = entry.broadcast_factor;
        let penalty = reader_penalty_ns(ctx, body, entry.inst, bf);
        if penalty < budget {
            continue;
        }
        // The scheduler believed this cycle fit; the calibrated excess is
        // pure unbudgeted slack loss. Past 30 % of the period it is very
        // unlikely to survive routing.
        let severity = if penalty > 0.30 * ctx.clock_ns {
            Severity::Error
        } else {
            Severity::Warning
        };
        let subject = if entry.name.is_empty() {
            format!("%{}", entry.inst.0)
        } else {
            entry.name.clone()
        };
        let mut pragma = format!("unroll={}", lp.unroll);
        if let Some(p) = lp.pipeline {
            pragma.push_str(&format!(", {p}"));
        }
        out.push(Diagnostic {
            rule: DataBroadcast.id(),
            rule_name: DataBroadcast.name(),
            severity,
            section: DataBroadcast.section(),
            subject: subject.clone(),
            message: format!(
                "`{subject}` ({}) feeds {bf} same-cycle readers in cycle {} after \
                 unrolling; calibrated wire excess ≈ {penalty:.2} ns on a {:.2} ns \
                 clock, invisible to the scheduler's predicted tables",
                entry.op, entry.cycle, ctx.clock_ns
            ),
            location: Location {
                kernel: Some(kernel.to_string()),
                looop: Some(lp.name.clone()),
                pragma: Some(pragma),
            },
            broadcast_factor: bf,
            est_penalty_ns: penalty,
            remedy: DataBroadcast.remedy(),
        });
    }
}

impl Rule for DataBroadcast {
    fn id(&self) -> &'static str {
        "BA01"
    }
    fn name(&self) -> &'static str {
        "data-broadcast"
    }
    fn section(&self) -> &'static str {
        "§3.1/§4.1"
    }
    fn summary(&self) -> &'static str {
        "loop-invariant value fans out to many same-cycle readers after unrolling"
    }
    fn remedy(&self) -> &'static str {
        "insert an explicit register stage after the source (OpKind::Reg) or enable \
         broadcast-aware scheduling (OptimizationOptions::broadcast_aware)"
    }

    fn check(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for (ki, kernel) in ctx.design.kernels.iter().enumerate() {
            for (li, lp) in kernel.loops.iter().enumerate() {
                check_loop(ctx, &kernel.name, lp, &ctx.schedule[ki][li], out);
            }
        }
    }
}
