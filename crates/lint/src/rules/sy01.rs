//! SY01 — synchronization fan-in/fan-out of dataflow regions (paper
//! §3.2, §4.2, Figure 5).
//!
//! HLS glues concurrent modules together with a start broadcast and a
//! done-AND-reduce. Two statically detectable pathologies:
//!
//! * a **wide done-reduce** over many parallel modules — most of which
//!   have statically known latency and need not be waited on at all
//!   (§4.2's pruning);
//! * a **fused loop** containing several independent streaming flows that
//!   share one iteration barrier — §4.2's splitting would give each flow
//!   its own control (detected via [`hlsb_sync::split_loop_flows`]).
//!
//! This rule reports both instead of transforming.

use crate::context::LintContext;
use crate::rules::Rule;
use hlsb_findings::{Diagnostic, Location, Severity};
use hlsb_ir::Concurrency;
use hlsb_rtlgen::REDUCE_FANIN;
use hlsb_sync::{prune_sync, split_loop_flows, ModuleSync};

/// Detects done-reduce trees and fused dataflow loops §4.2 would prune.
pub struct SyncFanin;

fn check_design_sync(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    let design = ctx.design;
    if design.concurrency != Concurrency::Dataflow || design.kernels.len() < 2 {
        return;
    }
    let modules: Vec<ModuleSync> = design
        .kernels
        .iter()
        .map(|k| match k.static_latency {
            Some(l) => ModuleSync::fixed(&k.name, l),
            None => ModuleSync::dynamic(&k.name),
        })
        .collect();
    let plan = prune_sync(&modules);
    let n = modules.len();
    let waited = plan.reduce_width();
    // Start broadcast + done reduce both scale with the module count.
    let penalty = ctx.wire.skeleton_net_delay_ns(n);
    if plan.pruned.is_empty() && n <= REDUCE_FANIN {
        return;
    }
    let severity = if n > 4 * REDUCE_FANIN {
        Severity::Error
    } else if n > REDUCE_FANIN || waited < n {
        Severity::Warning
    } else {
        Severity::Info
    };
    let levels = if n <= 1 {
        0
    } else {
        (n as f64).log(REDUCE_FANIN as f64).ceil() as usize
    };
    out.push(Diagnostic {
        rule: SyncFanin.id(),
        rule_name: SyncFanin.name(),
        severity,
        section: SyncFanin.section(),
        subject: format!("{}.done", design.name),
        message: format!(
            "dataflow region synchronizes {n} kernels through a {levels}-level \
             done-AND-reduce; {} have static latency, so pruning would wait on \
             only {waited} (start/done nets fan to all {n} modules)",
            plan.pruned.len()
        ),
        location: Location {
            kernel: None,
            looop: None,
            pragma: Some("dataflow".into()),
        },
        broadcast_factor: n,
        est_penalty_ns: penalty,
        remedy: SyncFanin.remedy(),
    });
}

/// Parallel-PE call sites (Fig. 6b): a loop invoking ≥ 2 kernels gets a
/// start broadcast to every PE and a done-AND-reduce back — exactly the
/// sync the design-level dataflow check covers, but anchored at the call
/// site. The control generator emits this sync regardless of any
/// `dataflow` pragma (`rtlgen::control::attach_call_sync`).
fn check_call_sync(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    for kernel in &ctx.design.kernels {
        for lp in &kernel.loops {
            let modules: Vec<ModuleSync> = lp
                .body
                .iter()
                .filter_map(|(_, inst)| match inst.kind {
                    hlsb_ir::OpKind::Call(k) => {
                        let callee = ctx.design.kernel(k);
                        Some(match callee.static_latency {
                            Some(l) => ModuleSync::fixed(&callee.name, l),
                            None => ModuleSync::dynamic(&callee.name),
                        })
                    }
                    _ => None,
                })
                .collect();
            let n = modules.len();
            if n < 2 {
                continue;
            }
            let plan = prune_sync(&modules);
            let waited = plan.reduce_width();
            if plan.pruned.is_empty() && n <= REDUCE_FANIN {
                continue;
            }
            let severity = if n > 4 * REDUCE_FANIN {
                Severity::Error
            } else {
                Severity::Warning
            };
            out.push(Diagnostic {
                rule: SyncFanin.id(),
                rule_name: SyncFanin.name(),
                severity,
                section: SyncFanin.section(),
                subject: format!("{}.{}.done", kernel.name, lp.name),
                message: format!(
                    "loop `{}` synchronizes {n} parallel PE calls with a start \
                     broadcast and done-AND-reduce; {} have static latency, so \
                     pruning would wait on only {waited}",
                    lp.name,
                    plan.pruned.len()
                ),
                location: Location {
                    kernel: Some(kernel.name.clone()),
                    looop: Some(lp.name.clone()),
                    pragma: lp.pipeline.map(|p| p.to_string()),
                },
                broadcast_factor: n,
                est_penalty_ns: ctx.wire.skeleton_net_delay_ns(n),
                remedy: SyncFanin.remedy(),
            });
        }
    }
}

fn check_fused_loops(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    for kernel in &ctx.design.kernels {
        for lp in &kernel.loops {
            let flows = split_loop_flows(lp);
            if flows.len() <= 1 {
                continue;
            }
            let n = flows.len();
            let penalty = ctx.wire.skeleton_net_delay_ns(n);
            out.push(Diagnostic {
                rule: SyncFanin.id(),
                rule_name: SyncFanin.name(),
                severity: if n > REDUCE_FANIN {
                    Severity::Warning
                } else {
                    Severity::Info
                },
                section: SyncFanin.section(),
                subject: format!("{}.{}", kernel.name, lp.name),
                message: format!(
                    "loop `{}` fuses {n} independent streaming flows under one \
                     iteration barrier; splitting (§4.2) would give each flow \
                     its own flow control",
                    lp.name
                ),
                location: Location {
                    kernel: Some(kernel.name.clone()),
                    looop: Some(lp.name.clone()),
                    pragma: lp.pipeline.map(|p| p.to_string()),
                },
                broadcast_factor: n,
                est_penalty_ns: penalty,
                remedy: SyncFanin.remedy(),
            });
        }
    }
}

impl Rule for SyncFanin {
    fn id(&self) -> &'static str {
        "SY01"
    }
    fn name(&self) -> &'static str {
        "sync-fanin"
    }
    fn section(&self) -> &'static str {
        "§3.2/§4.2"
    }
    fn summary(&self) -> &'static str {
        "wide done-AND-reduce or fused dataflow loop that synchronization pruning would shrink"
    }
    fn remedy(&self) -> &'static str {
        "enable synchronization pruning (OptimizationOptions::sync_pruning): split fused \
         flows and wait only on dynamic-latency / longest-latency modules"
    }

    fn check(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        check_design_sync(ctx, out);
        check_call_sync(ctx, out);
        check_fused_loops(ctx, out);
    }
}
