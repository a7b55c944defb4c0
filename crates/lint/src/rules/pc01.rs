//! PC01 — pipeline flow-control (stall/enable) broadcast (paper §3.3,
//! §4.3, Figure 7).
//!
//! Stall-based pipeline control wires one `stall` net to the clock-enable
//! of every stage register. The net's fanout is the total register count
//! of the pipeline — invisible in the HLS report, ruinous after routing.
//! This rule reads each pipelined loop's baseline schedule, reconstructs
//! the per-stage register widths the control logic would gate, and
//! estimates the stall net's skeleton broadcast delay on the target
//! fabric.

use crate::context::LintContext;
use crate::rules::Rule;
use hlsb_findings::{Diagnostic, Location, Severity};
use hlsb_ir::{ArrayId, Design, Loop, OpKind};
use hlsb_rtlgen::{stage_widths, ScheduledLoop};

/// Detects global stall/enable nets with region-scale fanout.
pub struct StallBroadcast;

/// Estimated stall-net fanout of a scheduled pipeline: every data bit of
/// every stage register carries a clock-enable load, plus one valid flag
/// per stage.
pub(crate) fn stall_fanout(widths: &[u64]) -> usize {
    widths.iter().sum::<u64>() as usize + widths.len()
}

/// BRAM-unit clock-enables the loop's stall net must also gate: when the
/// pipeline stalls, every 36 Kb unit of every array it reads or writes
/// holds its port (the stream-buffer pattern of §5.5 — the back-pressure
/// enable fans out to the whole buffer, not just the stage registers).
pub(crate) fn gated_bram_units(design: &Design, lp: &Loop) -> usize {
    design
        .arrays
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            let a = ArrayId(*i as u32);
            lp.body
                .iter()
                .any(|(_, inst)| matches!(inst.kind, OpKind::Load(x) | OpKind::Store(x) if x == a))
        })
        .map(|(_, arr)| arr.bram_units())
        .sum()
}

fn check_loop(
    ctx: &LintContext<'_>,
    kernel: &str,
    lp: &Loop,
    scheduled: &ScheduledLoop,
    out: &mut Vec<Diagnostic>,
) {
    if lp.pipeline.is_none() {
        return;
    }
    let widths = stage_widths(&scheduled.looop, &scheduled.schedule);
    let brams = gated_bram_units(ctx.design, lp);
    let fanout = stall_fanout(&widths) + brams;
    let threshold = ctx.stall_fanout_threshold();
    if fanout < threshold {
        return;
    }
    let penalty = ctx.control_broadcast_excess_ns(fanout);
    let severity = if penalty > 0.75 * ctx.clock_ns {
        Severity::Error
    } else {
        Severity::Warning
    };
    let mut pragma = String::new();
    if let Some(p) = lp.pipeline {
        pragma.push_str(&p.to_string());
    }
    if lp.unroll > 1 {
        pragma.push_str(&format!(", unroll={}", lp.unroll));
    }
    out.push(Diagnostic {
        rule: StallBroadcast.id(),
        rule_name: StallBroadcast.name(),
        severity,
        section: StallBroadcast.section(),
        subject: format!("{}.stall", lp.name),
        message: format!(
            "stall-based control of this {}-stage pipeline gates ~{fanout} \
             enables from one net (stage widths sum to {} bits{}); estimated \
             enable-net broadcast excess ≈ {penalty:.2} ns on a {:.2} ns clock",
            widths.len(),
            widths.iter().sum::<u64>(),
            if brams > 0 {
                format!(", plus {brams} BRAM-unit port enables")
            } else {
                String::new()
            },
            ctx.clock_ns
        ),
        location: Location {
            kernel: Some(kernel.to_string()),
            looop: Some(lp.name.clone()),
            pragma: (!pragma.is_empty()).then_some(pragma),
        },
        broadcast_factor: fanout,
        est_penalty_ns: penalty,
        remedy: StallBroadcast.remedy(),
    });
}

impl Rule for StallBroadcast {
    fn id(&self) -> &'static str {
        "PC01"
    }
    fn name(&self) -> &'static str {
        "stall-broadcast"
    }
    fn section(&self) -> &'static str {
        "§3.3/§4.3"
    }
    fn summary(&self) -> &'static str {
        "global stall/enable net gates every pipeline stage register"
    }
    fn remedy(&self) -> &'static str {
        "switch to skid-buffer flow control (OptimizationOptions::skid_buffer, plus \
         min_area_skid for the DP-placed multi-level split)"
    }

    fn check(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for (ki, kernel) in ctx.design.kernels.iter().enumerate() {
            for (li, lp) in kernel.loops.iter().enumerate() {
                check_loop(ctx, &kernel.name, lp, &ctx.schedule[ki][li], out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_counts_bits_and_valids() {
        assert_eq!(stall_fanout(&[512, 512, 32]), 512 + 512 + 32 + 3);
        assert_eq!(stall_fanout(&[]), 0);
    }
}
