//! # hlsb-lint — static implicit-broadcast analyzer
//!
//! Finds the paper's implicit broadcasts (DAC'20, §3) *before* placement
//! and STA. Like the paper's analysis (§4.1), it reads the schedule the
//! HLS scheduler already produced: the flow session's baseline schedule
//! artifact (the unrolled loop bodies and their broadcast-blind
//! schedules), weighed with the calibrated delay tables the optimizing
//! flow uses. It schedules nothing itself. Four rules:
//!
//! | rule | name | paper | detects |
//! |---|---|---|---|
//! | `BA01` | data-broadcast | §3.1/§4.1 | unroll-created same-cycle fanout past a device-calibrated threshold |
//! | `BA02` | memory-scatter | §3.1/§4.1 | arrays whose BRAM footprint exceeds one clock region |
//! | `PC01` | stall-broadcast | §3.3/§4.3 | global stall/enable nets gating whole pipelines |
//! | `SY01` | sync-fanin | §3.2/§4.2 | done-AND-reduce trees and fused dataflow loops pruning would shrink |
//!
//! Each [`Diagnostic`] carries the IR location (kernel/loop/pragma), the
//! broadcast factor, a delay penalty estimated from the calibrated delay
//! tables, and a remedy phrased in terms of
//! `hlsb::OptimizationOptions`. Reports render as a human-readable
//! table, JSON Lines, or SARIF 2.1.0 (`to_table` / `to_jsonl` /
//! `to_sarif` on [`LintReport`]). The report types and renderers live in
//! the shared [`hlsb_findings`] crate, so lint and `hlsb-verify`
//! findings merge into one SARIF log with distinct rule IDs.
//!
//! Run the lint through a flow: `hlsb::Flow::lint(true)` attaches the
//! report to `hlsb::FlowSession::probe`'s outcome or to a full run's
//! result (see `Flow::lint` for an example).

pub mod context;
pub mod diag;
pub mod render;
pub mod rules;

pub use context::LintContext;
pub use diag::{Diagnostic, LintReport, Location, Severity};
pub use render::{render_jsonl, render_sarif, render_table};
pub use rules::{all_rules, rule_metas};

use hlsb_fabric::Device;
use hlsb_ir::Design;
use hlsb_rtlgen::ScheduledLoop;

/// Lints `design` for `device` at `clock_mhz`, reading its baseline
/// schedule `schedule[kernel][loop]` (broadcast-blind, injection-blind,
/// unsplit; see [`LintContext::schedule`]). `seed` seeds the analytic
/// delay characterization. Findings are sorted worst first (severity,
/// then estimated penalty), ties broken by rule id for determinism.
///
/// # Panics
///
/// Panics if `schedule` does not hold one entry per loop of `design`.
pub fn lint_schedule(
    design: &Design,
    device: &Device,
    clock_mhz: f64,
    seed: u64,
    schedule: &[Vec<ScheduledLoop>],
) -> LintReport {
    let ctx = LintContext::with_schedule(design, device, clock_mhz, seed, schedule);
    let mut diagnostics = Vec::new();
    for rule in all_rules() {
        rule.check(&ctx, &mut diagnostics);
    }
    let mut report = LintReport {
        tool: "hlsb-lint",
        design: design.name.clone(),
        device: device.name.clone(),
        clock_mhz,
        rules: rule_metas(),
        diagnostics,
    };
    report.sort_worst_first();
    report
}

/// Broadcast class of one post-route critical cell, inferred from the
/// `kind:name` strings in
/// `ImplementationResult::critical_cells`. Returns the rule id the cell
/// corroborates, or `None` for ordinary datapath cells.
pub fn classify_critical_cell(cell: &str) -> Option<&'static str> {
    let name = cell.rsplit(':').next().unwrap_or(cell);
    if name.contains("stall") || name.contains("gate") || name.contains("skid") {
        Some("PC01")
    } else if name.contains("sync") || name.contains("done") || name.contains("start") {
        Some("SY01")
    } else if name.contains("bram") || name.contains("bank") || name.contains("mem") {
        Some("BA02")
    } else if name.contains("bcast") || name.contains("_fo") || name.contains("dup") {
        // `_fo` cells are fanout-split register duplicates — the physical
        // optimizer's footprint on a data broadcast net.
        Some("BA01")
    } else {
        None
    }
}

/// Precision/recall of a lint report against observed post-route
/// evidence, for the flow cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CrossCheck {
    /// Rules that fired and are corroborated by a critical cell.
    pub true_pos: usize,
    /// Rules that fired without a corroborating critical cell.
    pub false_pos: usize,
    /// Broadcast classes on the critical path that no rule predicted.
    pub false_neg: usize,
}

impl CrossCheck {
    /// Fraction of fired rules corroborated by the critical path.
    pub fn precision(&self) -> f64 {
        if self.true_pos + self.false_pos == 0 {
            1.0
        } else {
            self.true_pos as f64 / (self.true_pos + self.false_pos) as f64
        }
    }

    /// Fraction of critical-path broadcast classes the lint predicted.
    pub fn recall(&self) -> f64 {
        if self.true_pos + self.false_neg == 0 {
            1.0
        } else {
            self.true_pos as f64 / (self.true_pos + self.false_neg) as f64
        }
    }

    /// Accumulates another observation (e.g. one more benchmark).
    pub fn merge(&mut self, other: CrossCheck) {
        self.true_pos += other.true_pos;
        self.false_pos += other.false_pos;
        self.false_neg += other.false_neg;
    }
}

/// Compares the rules that fired in `report` against the broadcast
/// classes observed on a post-route critical path. The classes come from
/// the critical cells' names (see [`classify_critical_cell`]); callers
/// with netlist access can add stronger evidence than cell names (e.g.
/// "a critical cell drives a net with fanout ≥ N" is data-broadcast
/// evidence).
///
/// The data rules BA01/BA02 are treated as one class when matching:
/// both predict the same physical symptom (a scattered high-fanout data
/// net), and the post-route evidence does not distinguish the cause.
pub fn cross_check_classes(report: &LintReport, observed_classes: &[&str]) -> CrossCheck {
    let data = |r: &str| r == "BA01" || r == "BA02";
    let fired: Vec<&str> = ["BA01", "BA02", "PC01", "SY01"]
        .into_iter()
        .filter(|r| report.has_rule(r))
        .collect();
    let observed: Vec<&str> = {
        let mut v = observed_classes.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    };

    let mut cc = CrossCheck::default();
    let observed_data = observed.iter().any(|r| data(r));
    let fired_data = fired.iter().any(|r| data(r));
    // Data class.
    match (fired_data, observed_data) {
        (true, true) => cc.true_pos += 1,
        (true, false) => cc.false_pos += 1,
        (false, true) => cc.false_neg += 1,
        (false, false) => {}
    }
    // Control classes, exact.
    for r in ["PC01", "SY01"] {
        match (fired.contains(&r), observed.contains(&r)) {
            (true, true) => cc.true_pos += 1,
            (true, false) => cc.false_pos += 1,
            (false, true) => cc.false_neg += 1,
            (false, false) => {}
        }
    }
    cc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_cell_classes() {
        assert_eq!(classify_critical_cell("lut:stall_red1_0"), Some("PC01"));
        assert_eq!(classify_critical_cell("ff:gate3"), Some("PC01"));
        assert_eq!(classify_critical_cell("lut:sync_red0_2"), Some("SY01"));
        assert_eq!(classify_critical_cell("ff:pe4_done"), Some("SY01"));
        assert_eq!(classify_critical_cell("bram:membank7"), Some("BA02"));
        assert_eq!(
            classify_critical_cell("FF:chain_0_curr_y_fo1"),
            Some("BA01")
        );
        assert_eq!(classify_critical_cell("lut:adder12"), None);
    }

    #[test]
    fn cross_check_counts() {
        let report = LintReport {
            tool: "hlsb-lint",
            design: "d".into(),
            device: "v".into(),
            clock_mhz: 300.0,
            rules: rule_metas(),
            diagnostics: vec![Diagnostic {
                rule: "PC01",
                rule_name: "stall-broadcast",
                severity: Severity::Warning,
                section: "§4.3",
                subject: "s".into(),
                message: "m".into(),
                location: Location::default(),
                broadcast_factor: 100,
                est_penalty_ns: 1.0,
                remedy: "r",
            }],
        };
        let classes = |cells: &[&str]| -> Vec<&'static str> {
            cells
                .iter()
                .filter_map(|c| classify_critical_cell(c))
                .collect()
        };
        let cc = cross_check_classes(&report, &classes(&["ff:stall_status3"]));
        assert_eq!((cc.true_pos, cc.false_pos, cc.false_neg), (1, 0, 0));
        assert_eq!(cc.precision(), 1.0);
        assert_eq!(cc.recall(), 1.0);

        let miss = cross_check_classes(&report, &classes(&["lut:sync_red0_0"]));
        assert_eq!((miss.true_pos, miss.false_pos, miss.false_neg), (0, 1, 1));
        let mut total = cc;
        total.merge(miss);
        assert_eq!(total.true_pos, 1);
        assert!((total.precision() - 0.5).abs() < 1e-12);
    }
}
