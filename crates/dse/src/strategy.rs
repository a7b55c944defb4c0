//! Search strategies and the cheap-stage fitness proxy.
//!
//! Three strategies cover the practical space sizes:
//!
//! * [`Strategy::Grid`] — exhaustive, for small spaces (the 4-bit
//!   optimization cube at a handful of clocks).
//! * [`Strategy::Random`] — seeded uniform sampling without replacement,
//!   for spaces too large to enumerate.
//! * [`Strategy::SuccessiveHalving`] — probe *every* candidate with the
//!   cheap front half of the pipeline (front-end + schedule + lint, no
//!   placement), rank by non-dominated sorting on the proxy objectives,
//!   and spend the full place-and-route budget only on the top-ranked
//!   survivors.
//!
//! The proxy estimates the three true objectives from probe data alone:
//! the latency estimate is *exactly* the full run's latency (both come
//! from the schedule), area is approximated by instruction and register
//! counts, and fmax by the clock target stretched by the lint-estimated
//! broadcast penalty of every finding the candidate's options do **not**
//! remedy (BA01/BA02 ↔ broadcast-aware scheduling, PC01 ↔ skid buffers,
//! SY01 ↔ sync pruning) plus the schedule's own violations.

use hlsb::ProbeOutcome;

use crate::objective::Metrics;
use crate::space::DseConfig;

/// How the explorer picks which configurations get a full evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Evaluate every configuration of the space (up to the budget).
    Grid,
    /// Seeded random sampling without replacement, `budget` evaluations.
    Random,
    /// Probe everything cheaply, full-evaluate only the `budget`
    /// best-ranked survivors.
    SuccessiveHalving,
}

impl Strategy {
    /// Stable name for reports and counters.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Strategy::Grid => "grid",
            Strategy::Random => "random",
            Strategy::SuccessiveHalving => "halving",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(s: &str) -> Option<Strategy> {
        match s {
            "grid" => Some(Strategy::Grid),
            "random" => Some(Strategy::Random),
            "halving" => Some(Strategy::SuccessiveHalving),
            _ => None,
        }
    }
}

/// Estimated objectives of a candidate from its cheap probe (see the
/// module docs for the model). Deterministic, and monotone in the right
/// direction for each knob, which is all a rank-based survivor selection
/// needs.
pub fn proxy_metrics(cfg: &DseConfig, probe: &ProbeOutcome) -> Metrics {
    // Residual broadcast penalty: findings whose remedy this candidate
    // does not apply keep their full estimated delay cost.
    let residual_ns = probe
        .lint
        .as_ref()
        .map(|report| {
            report.penalty_where(|rule| match rule {
                "BA01" | "BA02" => !cfg.options.broadcast_aware,
                "PC01" => !cfg.options.skid_buffer,
                "SY01" => !cfg.options.sync_pruning,
                _ => true,
            })
        })
        .unwrap_or(0.0);
    let clock_ns = 1000.0 / cfg.clock_mhz;
    // Unfixable schedule violations each cost roughly a clock period.
    let violation_ns = probe.schedule_violations as f64 * clock_ns;
    let est_period_ns = clock_ns + residual_ns + violation_ns;

    // Area model: datapath cells scale with the (unrolled) instruction
    // count plus broadcast registers; skid buffers duplicate pipeline
    // stage registers (min-area splitting roughly halves that).
    let depth_sum: u64 = probe.schedule_depths.iter().map(|&d| u64::from(d)).sum();
    let skid_cells = if cfg.options.skid_buffer {
        let per_stage = if cfg.options.min_area_skid { 1 } else { 2 };
        depth_sum * per_stage
    } else {
        0
    };
    Metrics {
        fmax_mhz: 1000.0 / est_period_ns,
        latency_cycles: probe.latency_cycles,
        area_cells: probe.instructions as u64 + probe.inserted_regs as u64 + skid_cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for s in [
            Strategy::Grid,
            Strategy::Random,
            Strategy::SuccessiveHalving,
        ] {
            assert_eq!(Strategy::from_name(s.name()), Some(s));
        }
        assert_eq!(Strategy::from_name("annealing"), None);
    }
}
