//! Timing-driven placement refinement.
//!
//! Simulated-annealing placement minimizes *total* wirelength; the clock
//! period is set by the *worst* path. This pass closes the gap the way
//! physical-synthesis tools do: repeatedly re-run STA, take the cells on
//! the critical path, and move each toward the median position of its
//! connected neighbours (the star-wirelength optimum), keeping the move
//! only if the period improves. Each candidate move is re-timed
//! incrementally (only the moved cell's fan-out cone and the nets it
//! touches), bit-identical to timing the whole placement afresh.
//!
//! Site exclusivity is relaxed for the handful of refined cells (real
//! tools displace neighbours during legalization); the broadcast-spread
//! physics is preserved because a net's many *sinks* stay where global
//! placement put them.

use crate::sta::{IncrementalSta, TimingReport};
use hlsb_fabric::WireModel;
use hlsb_netlist::{CellId, CellKind, NetId, Netlist};
use hlsb_place::sites::snap_column;
use hlsb_place::Placement;

/// Phase 1 offers moves to the endpoints of this many worst arcs per sweep.
const WORST_ARCS: usize = 64;

/// A phase-1 arc: its delay, its index in net order, its net, driver and
/// sink.
type Arc = (f64, u32, NetId, CellId, CellId);

/// Options for [`refine_critical`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineOptions {
    /// Maximum refinement rounds (one critical path per round).
    pub max_rounds: usize,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions { max_rounds: 200 }
    }
}

/// Report of a refinement run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineReport {
    /// Accepted cell moves.
    pub moves: usize,
    /// Rounds executed.
    pub rounds: usize,
}

/// Upper median location of the cells connected to `cell` (drivers and
/// sinks), gathered into the scratch buffers `xs` and `ys`.
fn neighbor_median(
    netlist: &Netlist,
    placement: &Placement,
    cell: CellId,
    xs: &mut Vec<u16>,
    ys: &mut Vec<u16>,
) -> Option<(u16, u16)> {
    xs.clear();
    ys.clear();
    for &net in netlist.input_nets(cell) {
        let d = netlist.net(net).driver;
        if d != cell {
            let (x, y) = placement.loc(d);
            xs.push(x);
            ys.push(y);
        }
    }
    if let Some(net) = netlist.output_net(cell) {
        for &s in &netlist.net(net).sinks {
            if s != cell {
                let (x, y) = placement.loc(s);
                xs.push(x);
                ys.push(y);
            }
        }
    }
    if xs.is_empty() {
        return None;
    }
    let mid = xs.len() / 2;
    Some((
        *xs.select_nth_unstable(mid).1,
        *ys.select_nth_unstable(mid).1,
    ))
}

/// Pulls critical-path cells toward their neighbourhood medians while the
/// clock period improves. Returns the report and the final timing.
pub fn refine_critical(
    netlist: &Netlist,
    placement: &mut Placement,
    wire: &WireModel,
    options: RefineOptions,
) -> (RefineReport, TimingReport) {
    let mut report = RefineReport::default();
    // Only the placement changes below: time it once, then re-time each
    // candidate move incrementally.
    let mut timer = IncrementalSta::new(netlist, wire, placement);
    let grid_w = placement.grid_w as u16;

    // Phase 1: flatten the global tail of worst arcs. Critical-path
    // refinement alone plays whack-a-mole when many arcs are nearly
    // critical; here every offending arc's endpoints are offered the arc
    // midpoint, accepted when the arc shrinks without hurting the period.
    let mut arcs: Vec<Arc> = Vec::new();
    for _sweep in 0..3 {
        arcs.clear();
        for (id, net) in netlist.nets() {
            for &s in &net.sinks {
                let d = timer.wire_ns(id, placement.dist(net.driver, s));
                arcs.push((d, arcs.len() as u32, id, net.driver, s));
            }
        }
        // The worst arcs, ties in arc order: the head of a stable sort by
        // descending delay, selected in linear time.
        let worst_first = |a: &Arc, b: &Arc| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1));
        if arcs.len() > WORST_ARCS {
            arcs.select_nth_unstable_by(WORST_ARCS, worst_first);
            arcs.truncate(WORST_ARCS);
        }
        arcs.sort_unstable_by(worst_first);
        let mut any = false;
        for &(old_delay, _, net, a, b) in &arcs {
            let (ax, ay) = placement.loc(a);
            let (bx, by) = placement.loc(b);
            let mid = ((ax + bx) / 2, (ay + by) / 2);
            for cell in [a, b] {
                let kind = netlist.cell(cell).kind;
                if matches!(kind, CellKind::Input | CellKind::Output) {
                    continue;
                }
                let target = (snap_column(kind, mid.0, grid_w), mid.1);
                let old_loc = placement.loc(cell);
                if target == old_loc {
                    continue;
                }
                placement.set_loc(cell, target);
                let new_delay = timer.wire_ns(net, placement.dist(a, b));
                if new_delay + 1e-9 < old_delay {
                    let period = timer.period_ns();
                    timer.move_cell(placement, cell);
                    if timer.period_ns() <= period + 1e-9 {
                        timer.commit();
                        report.moves += 1;
                        any = true;
                        break; // next arc
                    }
                    timer.rollback();
                }
                placement.set_loc(cell, old_loc);
            }
        }
        if !any {
            break;
        }
    }

    // Phase 2: critical-path-directed moves.
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for _ in 0..options.max_rounds {
        report.rounds += 1;
        let path = timer.critical_path();
        if path.is_empty() {
            break;
        }
        let mut improved = false;

        // Candidate relocations: each path cell to its neighbourhood
        // median, and each adjacent path pair's endpoints to their arc
        // midpoint (halving the worst arc even when the median is pinned
        // by other neighbours).
        let mut candidates: Vec<(CellId, (u16, u16))> = Vec::new();
        for &cell in &path {
            if let Some(m) = neighbor_median(netlist, placement, cell, &mut xs, &mut ys) {
                candidates.push((cell, m));
            }
        }
        for pair in path.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let (ax, ay) = placement.loc(a);
            let (bx, by) = placement.loc(b);
            let mid = ((ax + bx) / 2, (ay + by) / 2);
            candidates.push((a, mid));
            candidates.push((b, mid));
        }

        for (cell, (tx, ty)) in candidates {
            let kind = netlist.cell(cell).kind;
            // Ports stay put; everything else may be pulled.
            if matches!(kind, CellKind::Input | CellKind::Output) {
                continue;
            }
            let target = (snap_column(kind, tx, grid_w), ty);
            let old = placement.loc(cell);
            if target == old {
                continue;
            }
            placement.set_loc(cell, target);
            let period = timer.period_ns();
            timer.move_cell(placement, cell);
            if timer.period_ns() + 1e-9 < period {
                timer.commit();
                report.moves += 1;
                improved = true;
            } else {
                timer.rollback();
                placement.set_loc(cell, old);
            }
        }
        if !improved {
            break;
        }
    }
    (report, timer.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta::sta;
    use hlsb_netlist::Cell;

    #[test]
    fn pulls_outlier_onto_path() {
        // a(0,0) -> x(far corner!) -> b(2,0): refinement must pull x back.
        let mut nl = Netlist::new("r");
        let a = nl.add_cell(Cell::ff("a", 8));
        let x = nl.add_cell(Cell::comb("x", 8, 0.5, 8));
        let b = nl.add_cell(Cell::ff("b", 8));
        nl.connect(a, &[x]);
        nl.connect(x, &[b]);
        let mut p = Placement::from_locs(vec![(0, 0), (120, 100), (2, 0)], 140, 120);
        let w = WireModel::ultrascale_plus();
        let before = sta(&nl, &p, &w);
        let (rep, after) = refine_critical(&nl, &mut p, &w, RefineOptions::default());
        assert!(rep.moves >= 1);
        assert!(
            after.period_ns < before.period_ns / 2.0,
            "{} -> {}",
            before.period_ns,
            after.period_ns
        );
        // The three cells end up clustered (wherever the cluster forms).
        let spread = p.dist(a, x).max(p.dist(x, b)).max(p.dist(a, b));
        assert!(spread <= 8.0, "cells still spread by {spread}");
    }

    #[test]
    fn respects_column_legality() {
        let mut nl = Netlist::new("r");
        let a = nl.add_cell(Cell::ff("a", 8));
        let m = nl.add_cell(Cell::bram("m", 8, 1));
        let b = nl.add_cell(Cell::ff("b", 8));
        nl.connect(a, &[m]);
        nl.connect(m, &[b]);
        let mut p = Placement::from_locs(vec![(0, 0), (94, 80), (2, 0)], 140, 120);
        let w = WireModel::ultrascale_plus();
        refine_critical(&nl, &mut p, &w, RefineOptions::default());
        assert!(hlsb_place::site_legal(CellKind::Bram, p.loc(m).0));
    }

    #[test]
    fn never_worsens() {
        let mut nl = Netlist::new("r");
        let a = nl.add_cell(Cell::ff("a", 8));
        let x = nl.add_cell(Cell::comb("x", 8, 0.5, 8));
        let b = nl.add_cell(Cell::ff("b", 8));
        nl.connect(a, &[x]);
        nl.connect(x, &[b]);
        let mut p = Placement::from_locs(vec![(0, 0), (1, 0), (2, 0)], 140, 120);
        let w = WireModel::ultrascale_plus();
        let before = sta(&nl, &p, &w);
        let (_, after) = refine_critical(&nl, &mut p, &w, RefineOptions::default());
        assert!(after.period_ns <= before.period_ns + 1e-9);
    }
}
