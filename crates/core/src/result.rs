//! Implementation results.

use crate::trace::PassTrace;
use hlsb_netlist::Stats;
use hlsb_rtlgen::LowerInfo;
use hlsb_timing::TimingReport;
use std::fmt;

/// Post-implementation resource utilization, as percentages of the target
/// device (the format of the paper's Table 1).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Utilization {
    /// LUT utilization, percent.
    pub lut_pct: f64,
    /// Flip-flop utilization, percent.
    pub ff_pct: f64,
    /// BRAM utilization, percent.
    pub bram_pct: f64,
    /// DSP utilization, percent.
    pub dsp_pct: f64,
}

impl fmt::Display for Utilization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LUT {:.0}% FF {:.0}% BRAM {:.0}% DSP {:.0}%",
            self.lut_pct, self.ff_pct, self.bram_pct, self.dsp_pct
        )
    }
}

/// How the implement stage partitioned the netlist into islands, when
/// island partitioning ([`Flow::partitions`](crate::Flow::partitions))
/// was enabled *and* feasible. `None` on flat runs — including enabled
/// runs that deterministically fell back to flat placement (design too
/// small, or no feasible region reservation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSummary {
    /// Islands placed independently (>= 2).
    pub islands: u32,
    /// Nets that crossed an island boundary before stitching.
    pub cut_nets: u32,
    /// Registers inserted on inter-island crossings.
    pub crossing_registers: u32,
    /// Flip-flop bits those registers cost.
    pub crossing_register_bits: u64,
    /// Cells per island (crossing registers included).
    pub island_cells: Vec<u32>,
}

/// The outcome of running the flow on one design.
///
/// Equality ignores [`trace`](ImplementationResult::trace): two results
/// are equal when the *implementation* is identical, even if one came
/// from cached artifacts or a different thread count and therefore spent
/// its time differently. This is what the flow's determinism guarantees
/// (cached ≡ fresh, parallel ≡ sequential) quantify over.
#[derive(Debug, Clone)]
pub struct ImplementationResult {
    /// Achieved maximum frequency, MHz.
    pub fmax_mhz: f64,
    /// Achieved minimum clock period, ns.
    pub period_ns: f64,
    /// Resource utilization against the device.
    pub utilization: Utilization,
    /// Absolute resource counts.
    pub stats: Stats,
    /// Full timing report (critical path etc.).
    pub timing: TimingReport,
    /// Structural metadata from RTL generation.
    pub lower_info: LowerInfo,
    /// Pipeline depth of each lowered loop, in cycles.
    pub schedule_depths: Vec<u32>,
    /// Static latency estimate of the whole design, in cycles (see
    /// [`ScheduleArtifact::latency_cycles`](crate::ScheduleArtifact::latency_cycles)):
    /// the schedule's promised minimum for the full trip counts, with
    /// kernels overlapped under dataflow.
    pub latency_cycles: u64,
    /// Registers inserted by broadcast-aware scheduling.
    pub inserted_regs: usize,
    /// Registers duplicated by physical fanout optimization.
    pub duplicated_regs: usize,
    /// Backward retiming moves applied.
    pub retime_moves: usize,
    /// Names and kinds of the cells on the critical path (launch first).
    pub critical_cells: Vec<String>,
    /// Island-partitioning summary, when the implement stage ran
    /// partitioned (see [`PartitionSummary`]).
    pub partition: Option<PartitionSummary>,
    /// Static broadcast lint report, when [`Flow::lint`](crate::Flow::lint)
    /// was enabled.
    pub lint: Option<hlsb_findings::Report>,
    /// Static verify report (network + schedule contracts), when
    /// [`Flow::verify`](crate::Flow::verify) was enabled. Always free of
    /// `Error`-severity findings here — those abort the run with
    /// [`FlowError::VerifyRejected`](crate::FlowError::VerifyRejected)
    /// instead.
    pub verify: Option<hlsb_findings::Report>,
    /// Per-pass wall times and counters for this run. Excluded from
    /// equality.
    pub trace: PassTrace,
    /// Full hierarchical span trace with decision provenance, present
    /// when the flow ran with [`Flow::trace`](crate::Flow::trace)
    /// enabled. Excluded from equality (compare
    /// [`hlsb_trace::TraceTree::normalized`] views instead).
    pub span_tree: Option<hlsb_trace::TraceTree>,
}

impl PartialEq for ImplementationResult {
    fn eq(&self, other: &Self) -> bool {
        self.fmax_mhz == other.fmax_mhz
            && self.period_ns == other.period_ns
            && self.utilization == other.utilization
            && self.stats == other.stats
            && self.timing == other.timing
            && self.lower_info == other.lower_info
            && self.schedule_depths == other.schedule_depths
            && self.latency_cycles == other.latency_cycles
            && self.inserted_regs == other.inserted_regs
            && self.duplicated_regs == other.duplicated_regs
            && self.retime_moves == other.retime_moves
            && self.critical_cells == other.critical_cells
            && self.partition == other.partition
            && self.lint == other.lint
            && self.verify == other.verify
    }
}

impl ImplementationResult {
    /// Frequency gain of `self` over a baseline, as the paper reports it
    /// (percentage difference of Fmax).
    pub fn gain_over(&self, baseline: &ImplementationResult) -> f64 {
        100.0 * (self.fmax_mhz - baseline.fmax_mhz) / baseline.fmax_mhz
    }

    /// The hierarchical span trace, if the flow ran with tracing enabled.
    pub fn trace_tree(&self) -> Option<&hlsb_trace::TraceTree> {
        self.span_tree.as_ref()
    }
}

impl fmt::Display for ImplementationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Fmax {:.0} MHz (period {:.2} ns), {}",
            self.fmax_mhz, self.period_ns, self.utilization
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(fmax: f64) -> ImplementationResult {
        ImplementationResult {
            fmax_mhz: fmax,
            period_ns: 1000.0 / fmax,
            utilization: Utilization::default(),
            stats: Stats::default(),
            timing: TimingReport {
                period_ns: 1000.0 / fmax,
                fmax_mhz: fmax,
                critical_path: vec![],
                arrival_ns: vec![],
            },
            lower_info: LowerInfo::default(),
            schedule_depths: vec![],
            latency_cycles: 0,
            inserted_regs: 0,
            duplicated_regs: 0,
            retime_moves: 0,
            critical_cells: vec![],
            partition: None,
            lint: None,
            verify: None,
            trace: PassTrace::default(),
            span_tree: None,
        }
    }

    #[test]
    fn gain_matches_paper_convention() {
        // Genome sequencing: 264 -> 341 MHz is reported as 29%.
        let orig = dummy(264.0);
        let opt = dummy(341.0);
        let gain = opt.gain_over(&orig);
        assert!((gain - 29.2).abs() < 0.5, "{gain}");
    }

    #[test]
    fn display_formats() {
        let r = dummy(300.0);
        let s = r.to_string();
        assert!(s.contains("300 MHz"), "{s}");
    }
}
