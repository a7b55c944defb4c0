//! Objectives and Pareto dominance.
//!
//! The explorer optimizes three objectives at once: maximize achieved
//! frequency, minimize static latency, minimize register/LUT area. No
//! scalarization — the result of a search is the set of non-dominated
//! points (the Pareto frontier), as production DSE tools report it.

use hlsb::store::ResultRecord;

/// The objective vector of one evaluated configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Achieved maximum frequency, MHz (maximize).
    pub fmax_mhz: f64,
    /// Static design latency, cycles (minimize) — the schedule's promised
    /// minimum for the full trip counts.
    pub latency_cycles: u64,
    /// Register + LUT cells of the final netlist (minimize).
    pub area_cells: u64,
}

impl Metrics {
    /// Extracts the objectives from the result record of a full
    /// implementation run.
    pub(crate) fn from_record(r: &ResultRecord) -> Self {
        Metrics {
            fmax_mhz: r.fmax_mhz,
            latency_cycles: r.latency_cycles,
            area_cells: r.ffs + r.luts,
        }
    }

    /// Pareto dominance: at least as good in every objective and strictly
    /// better in one. Equal vectors do not dominate each other.
    pub(crate) fn dominates(&self, other: &Metrics) -> bool {
        let geq = self.fmax_mhz >= other.fmax_mhz
            && self.latency_cycles <= other.latency_cycles
            && self.area_cells <= other.area_cells;
        let strictly = self.fmax_mhz > other.fmax_mhz
            || self.latency_cycles < other.latency_cycles
            || self.area_cells < other.area_cells;
        geq && strictly
    }

    /// Canonical ordering for reports: fastest first, then lowest
    /// latency, then smallest area.
    pub(crate) fn report_order(&self, other: &Metrics) -> std::cmp::Ordering {
        other
            .fmax_mhz
            .total_cmp(&self.fmax_mhz)
            .then(self.latency_cycles.cmp(&other.latency_cycles))
            .then(self.area_cells.cmp(&other.area_cells))
    }
}

/// Indices of the non-dominated points in report order: fastest first,
/// then lowest latency, then smallest area (ties broken by index, so the
/// frontier is deterministic).
pub fn pareto_indices(points: &[Metrics]) -> Vec<usize> {
    let mut out: Vec<usize> = (0..points.len())
        .filter(|&i| !points.iter().any(|p| p.dominates(&points[i])))
        .collect();
    out.sort_by(|&a, &b| points[a].report_order(&points[b]).then(a.cmp(&b)));
    out
}

/// Non-dominated sorting rank of every point: 0 for the frontier, 1 for
/// the frontier once rank-0 points are removed, and so on (NSGA-style).
/// Successive halving promotes candidates in rank order.
pub fn pareto_ranks(points: &[Metrics]) -> Vec<usize> {
    let mut rank = vec![usize::MAX; points.len()];
    let mut current = 0usize;
    let mut remaining: Vec<usize> = (0..points.len()).collect();
    while !remaining.is_empty() {
        let front: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| {
                !remaining
                    .iter()
                    .any(|&j| j != i && points[j].dominates(&points[i]))
            })
            .collect();
        for &i in &front {
            rank[i] = current;
        }
        remaining.retain(|i| !front.contains(i));
        current += 1;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(fmax: f64, lat: u64, area: u64) -> Metrics {
        Metrics {
            fmax_mhz: fmax,
            latency_cycles: lat,
            area_cells: area,
        }
    }

    #[test]
    fn dominance_is_strict_and_partial() {
        assert!(m(300.0, 10, 100).dominates(&m(250.0, 10, 100)));
        assert!(m(300.0, 9, 100).dominates(&m(300.0, 10, 100)));
        assert!(!m(300.0, 10, 100).dominates(&m(300.0, 10, 100)), "equal");
        // Trade-off: neither dominates.
        assert!(!m(300.0, 20, 100).dominates(&m(250.0, 10, 100)));
        assert!(!m(250.0, 10, 100).dominates(&m(300.0, 20, 100)));
    }

    #[test]
    fn frontier_keeps_trade_offs_and_drops_dominated() {
        let pts = [
            m(300.0, 20, 200), // fastest
            m(250.0, 10, 150), // lowest latency
            m(200.0, 30, 100), // smallest area
            m(240.0, 25, 250), // dominated by the first
            m(300.0, 20, 200), // duplicate of the fastest — kept (no strict win)
        ];
        let f = pareto_indices(&pts);
        assert_eq!(f, vec![0, 4, 1, 2]);
        let ranks = pareto_ranks(&pts);
        assert_eq!(ranks[0], 0);
        assert_eq!(ranks[4], 0);
        assert_eq!(ranks[3], 1, "dominated point lands in the next front");
    }

    #[test]
    fn report_order_sorts_fast_then_short_then_small() {
        let mut pts = [m(200.0, 5, 5), m(300.0, 9, 2), m(300.0, 5, 9)];
        pts.sort_by(|a, b| a.report_order(b));
        assert_eq!(pts[0], m(300.0, 5, 9));
        assert_eq!(pts[1], m(300.0, 9, 2));
        assert_eq!(pts[2], m(200.0, 5, 5));
    }
}
