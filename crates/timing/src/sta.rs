//! Static timing analysis.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hlsb_fabric::WireModel;
use hlsb_netlist::{CellId, CellKind, NetId, Netlist};
use hlsb_place::Placement;

/// Register setup time in nanoseconds.
pub const SETUP_NS: f64 = 0.04;

/// Result of a timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Achieved minimum clock period, ns.
    pub period_ns: f64,
    /// Achieved maximum frequency, MHz.
    pub fmax_mhz: f64,
    /// Cells on the critical path, launch point first, capture point last.
    pub critical_path: Vec<CellId>,
    /// Worst per-capture-point slack would need a target period; instead we
    /// expose the arrival time at every cell output for diagnostics.
    pub arrival_ns: Vec<f64>,
}

impl TimingReport {
    /// Length of the critical path in cells.
    pub fn depth(&self) -> usize {
        self.critical_path.len()
    }

    /// Renders the critical path as a per-arc breakdown, in the style of a
    /// `report_timing` text report: one line per hop with the cell, its
    /// placed location, the net's fanout, and the incremental delay.
    pub fn path_text(&self, netlist: &Netlist, placement: &Placement, wire: &WireModel) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path: {:.3} ns ({:.0} MHz), {} cells",
            self.period_ns,
            self.fmax_mhz,
            self.critical_path.len()
        );
        let mut total = 0.0f64;
        for (i, &c) in self.critical_path.iter().enumerate() {
            let cell = netlist.cell(c);
            let (x, y) = placement.loc(c);
            let logic =
                if i == 0 || cell.kind.is_combinational() || i + 1 == self.critical_path.len() {
                    cell.delay_ns
                } else {
                    0.0
                };
            let net = if i > 0 {
                let prev = self.critical_path[i - 1];
                let fo = netlist
                    .output_net(prev)
                    .map(|n| netlist.net(n).fanout())
                    .unwrap_or(1);
                wire.net_delay_ns(placement.dist(prev, c), fo)
            } else {
                0.0
            };
            let fo_here = netlist
                .output_net(c)
                .map(|n| netlist.net(n).fanout())
                .unwrap_or(0);
            total += logic + net;
            let _ = writeln!(
                out,
                "  {:>2}. {:<10} {:<32} @({x:>3},{y:>3})  net {net:>6.3}  logic {logic:>6.3}  \
                 total {total:>7.3}  fanout {fo_here}",
                i,
                cell.kind.to_string(),
                cell.name,
            );
        }
        let _ = writeln!(out, "  (+ setup {SETUP_NS:.3} ns)");
        out
    }
}

/// Whether the timing graph treats the cell's output as launched at a clock
/// edge (fixed arrival) rather than combinationally propagated.
fn is_launch(kind: CellKind) -> bool {
    matches!(
        kind,
        CellKind::Ff | CellKind::Bram | CellKind::Input | CellKind::Const
    )
}

/// Marks "no cell" in [`StaGraph`]'s index arrays.
const NONE: u32 = u32::MAX;

/// One timing arc: `driver`'s output to `sink`'s input over net `net`,
/// whose fanout terms sit at `fanout_ns[net]`. Constant drivers have
/// `net == NONE` and contribute no delay.
#[derive(Debug, Clone, Copy)]
struct TimingArc {
    driver: u32,
    sink: u32,
    net: u32,
}

/// The placement-independent half of STA over one netlist, built once
/// and reused for every placement of it — the timing-driven refinement
/// re-times hundreds of candidate moves on one netlist.
///
/// It holds the evaluation order (non-launch cells in combinational
/// topological order), the launch cells, every cell's input arcs (CSR,
/// in `input_nets` order), the capture arcs (sequential and output sinks,
/// in net then sink order), and per net the `k·ln(1 + fo)` and
/// `c·(fo − 1)` terms of [`WireModel::net_delay_ns`]. [`StaGraph::run`]
/// adds the distance term in the same left-to-right order that method
/// uses, so its reports are bit-identical to evaluating the wire model
/// per arc.
#[derive(Debug)]
pub(crate) struct StaGraph {
    wire: WireModel,
    /// Output delay of every cell (clock-to-out for launch cells).
    delay_ns: Vec<f64>,
    /// Cells with a fixed launch arrival.
    launch: Vec<u32>,
    /// The remaining cells, in combinational topological order.
    order: Vec<u32>,
    /// `in_arcs[in_start[c]..in_start[c + 1]]` are cell `c`'s input arcs
    /// from non-constant drivers (a constant's zero contribution can never
    /// exceed the running worst arrival, which starts at zero).
    in_start: Vec<u32>,
    in_arcs: Vec<TimingArc>,
    /// Arcs into sequential and output cells; net `n`'s are
    /// `capture[capture_start[n]..capture_start[n + 1]]`.
    capture: Vec<TimingArc>,
    capture_start: Vec<u32>,
    /// Per net: `(k·ln(1 + fo), c·(fo − 1))`.
    fanout_ns: Vec<(f64, f64)>,
}

impl StaGraph {
    /// Builds the timing graph of `netlist` under `wire`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains a combinational cycle (validate
    /// first).
    pub(crate) fn new(netlist: &Netlist, wire: &WireModel) -> Self {
        let n = netlist.cell_count();
        let topo = netlist
            .comb_topo_order()
            .expect("netlist must be free of combinational cycles");
        let launch_cell = |c: CellId| is_launch(netlist.cell(c).kind);
        let wire_net = |driver: CellId, net: NetId| {
            if netlist.cell(driver).kind == CellKind::Const {
                NONE
            } else {
                net.0
            }
        };

        let mut in_start = Vec::with_capacity(n + 1);
        let mut in_arcs = Vec::new();
        in_start.push(0);
        for (c, _) in netlist.cells() {
            for &net in netlist.input_nets(c) {
                let driver = netlist.net(net).driver;
                if wire_net(driver, net) != NONE {
                    in_arcs.push(TimingArc {
                        driver: driver.0,
                        sink: c.0,
                        net: net.0,
                    });
                }
            }
            in_start.push(in_arcs.len() as u32);
        }

        let mut capture = Vec::new();
        let mut capture_start = Vec::with_capacity(netlist.net_count() + 1);
        let mut fanout_ns = Vec::with_capacity(netlist.net_count());
        for (id, net) in netlist.nets() {
            capture_start.push(capture.len() as u32);
            // The fanout half of `WireModel::net_delay_ns`, term by term.
            let fo = net.fanout().max(1) as f64;
            fanout_ns.push((
                wire.k_fanout_ns * (1.0 + fo).ln(),
                wire.c_sink_ns * (fo - 1.0),
            ));
            for &s in &net.sinks {
                let k = netlist.cell(s).kind;
                if k.is_sequential() || k == CellKind::Output {
                    capture.push(TimingArc {
                        driver: net.driver.0,
                        sink: s.0,
                        net: wire_net(net.driver, id),
                    });
                }
            }
        }
        capture_start.push(capture.len() as u32);

        StaGraph {
            wire: *wire,
            delay_ns: netlist.cells().map(|(_, cell)| cell.delay_ns).collect(),
            launch: (0..n as u32).filter(|&c| launch_cell(CellId(c))).collect(),
            order: topo
                .into_iter()
                .filter(|&c| !launch_cell(c))
                .map(|c| c.0)
                .collect(),
            in_start,
            in_arcs,
            capture,
            capture_start,
            fanout_ns,
        }
    }

    /// Delay of net `net` to a sink `dist` grid units from its driver:
    /// [`WireModel::net_delay_ns`] with the fanout terms precomputed.
    #[inline]
    pub(crate) fn wire_ns(&self, net: u32, dist: f64) -> f64 {
        let w = &self.wire;
        let (k_term, c_term) = self.fanout_ns[net as usize];
        w.speed * (w.base_ns + w.r_dist_ns * dist + k_term + c_term)
    }

    /// Arrival at `arc.sink`'s input through `arc`.
    #[inline]
    fn arrive(&self, arrival: &[f64], placement: &Placement, arc: TimingArc) -> f64 {
        if arc.net == NONE {
            return 0.0;
        }
        let dist = placement.dist(CellId(arc.driver), CellId(arc.sink));
        arrival[arc.driver as usize] + self.wire_ns(arc.net, dist)
    }

    /// Output arrival of non-launch cell `c` and the input driver that
    /// set it: the worst input arrival over `c`'s arcs in CSR order, the
    /// first strictly greatest one winning.
    fn eval(&self, arrival: &[f64], placement: &Placement, c: u32) -> (f64, u32) {
        let c = c as usize;
        let mut worst = 0.0f64;
        let mut pred = NONE;
        for &arc in &self.in_arcs[self.in_start[c] as usize..self.in_start[c + 1] as usize] {
            let a = self.arrive(arrival, placement, arc);
            if a > worst {
                worst = a;
                pred = arc.driver;
            }
        }
        (worst + self.delay_ns[c], pred)
    }

    /// Arrival time at each cell's *output*, and the input driver that
    /// determined it (for path reconstruction).
    fn propagate(&self, placement: &Placement) -> (Vec<f64>, Vec<u32>) {
        let n = self.delay_ns.len();
        let mut arrival = vec![0.0f64; n];
        let mut best_pred = vec![NONE; n];

        // Launch arrivals are fixed and must be set before any
        // combinational cell is evaluated (the topo order only constrains
        // comb-to-comb arcs).
        for &c in &self.launch {
            arrival[c as usize] = self.delay_ns[c as usize];
        }
        // Combinational (Comb/Dsp) or Output. Output cells have no output
        // arrival of interest but we compute it anyway (0-delay pass).
        for &c in &self.order {
            (arrival[c as usize], best_pred[c as usize]) = self.eval(&arrival, placement, c);
        }
        (arrival, best_pred)
    }

    /// The report for a timed placement whose worst capture is `worst`
    /// (zero when nothing captures) through capture arc `crit`.
    fn report(
        &self,
        arrival: Vec<f64>,
        best_pred: &[u32],
        worst: f64,
        crit: Option<u32>,
    ) -> TimingReport {
        let period = clock_period(worst);
        TimingReport {
            period_ns: period,
            fmax_mhz: 1000.0 / period,
            critical_path: self.path(best_pred, crit),
            arrival_ns: arrival,
        }
    }

    /// The critical path ending in capture arc `crit`, launch point first.
    fn path(&self, best_pred: &[u32], crit: Option<u32>) -> Vec<CellId> {
        let mut path = Vec::new();
        if let Some(arc) = crit {
            let arc = self.capture[arc as usize];
            path.push(CellId(arc.sink));
            let mut cur = arc.driver;
            while cur != NONE {
                path.push(CellId(cur));
                cur = best_pred[cur as usize];
            }
            path.reverse();
        }
        path
    }

    /// Times one placement of the netlist the graph was built from (see
    /// [`sta`] for the delay model).
    pub(crate) fn run(&self, placement: &Placement) -> TimingReport {
        let (arrival, best_pred) = self.propagate(placement);
        let mut worst = 0.0f64;
        let mut crit = None;
        for (arc, &timing_arc) in (0..).zip(&self.capture) {
            let total = self.arrive(&arrival, placement, timing_arc) + SETUP_NS;
            if total > worst {
                worst = total;
                crit = Some(arc);
            }
        }
        self.report(arrival, &best_pred, worst, crit)
    }
}

/// The clock period set by a worst capture of `worst` ns. A design with
/// no capture points (e.g. a lone register) still needs a positive
/// period.
fn clock_period(worst: f64) -> f64 {
    if worst <= 0.0 {
        SETUP_NS + 0.1
    } else {
        worst
    }
}

/// [`StaGraph::run`] kept current under single-cell moves of one
/// placement: after every [`IncrementalSta::move_cell`],
/// [`IncrementalSta::commit`] and [`IncrementalSta::rollback`], its
/// arrivals, period and critical path are bit-identical to `run` on the
/// placement as it stands.
///
/// * **Cone re-timing.** A move re-evaluates only the non-launch cells in
///   the moved cell's combinational fan-out cone, in topological rank
///   order, each over its full input-arc list exactly as `run` does.
///   Propagation stops wherever an arrival's bits do not change, since
///   every downstream evaluation would then read the same inputs.
/// * **Per-net capture maxima.** Each net keeps its leftmost maximal
///   capture total; a leftmost-max tournament tree over nets yields the
///   first strictly greatest capture arc, the one `run`'s scan picks. A
///   moved driver or a changed driver arrival rescans its net; a moved
///   capture sink is a point update that rescans only when it was its
///   net's maximum and fell. Maxima are kept per net, not per arc: a
///   broadcast driver's move changes every arc of its net at once, and
///   one tight rescan of the net is far cheaper than hundreds of leaf
///   updates.
/// * **Undo log.** Every overwritten arrival, net maximum and tree node
///   is logged, so a rejected move is undone without re-timing; nothing
///   is allocated per move once the scratch buffers have grown.
///
/// The netlist must be valid (see [`Netlist::validate`]): an output cell
/// that drove a net would be read by `run` before it is evaluated.
#[derive(Debug)]
pub(crate) struct IncrementalSta {
    graph: StaGraph,
    /// Position of each non-launch cell in `graph.order` (`NONE` for
    /// launch cells).
    rank: Vec<u32>,
    /// `fanout[fanout_start[c]..fanout_start[c + 1]]` are the non-launch
    /// cells with an input arc from `c`, once per arc.
    fanout_start: Vec<u32>,
    fanout: Vec<u32>,
    /// `capture_in[capture_in_start[c]..capture_in_start[c + 1]]` are the
    /// `(capture arc, net)` pairs of the arcs captured by `c`.
    capture_in_start: Vec<u32>,
    capture_in: Vec<(u32, u32)>,
    /// Each cell's output net, or `NONE`.
    out_net: Vec<u32>,

    arrival: Vec<f64>,
    best_pred: Vec<u32>,
    /// Per net, padded to a power of two: the leftmost maximal capture
    /// total and its capture arc, or `(-∞, NONE)` for a net without one.
    net_max: Vec<(f64, u32)>,
    /// Leftmost-max tournament over `net_max`: node `i` holds the winning
    /// net of its subtree, leaf `net_max.len() + k` holds net `k`.
    tree: Vec<u32>,

    /// Cone cells awaiting re-evaluation, by rank.
    queue: BinaryHeap<Reverse<u32>>,
    queued: Vec<bool>,
    /// Nets whose capture maximum must be rescanned.
    dirty: Vec<bool>,
    dirty_nets: Vec<u32>,

    /// Overwritten `(cell, arrival, best_pred)`, `(net, net_max)` and
    /// `(node, tree)` entries since the last commit.
    undo_cells: Vec<(u32, f64, u32)>,
    undo_nets: Vec<(u32, (f64, u32))>,
    undo_tree: Vec<(u32, u32)>,
}

impl IncrementalSta {
    /// Builds the timing graph of `netlist` under `wire` and times
    /// `placement` from scratch.
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains a combinational cycle (validate
    /// first).
    pub(crate) fn new(netlist: &Netlist, wire: &WireModel, placement: &Placement) -> Self {
        let graph = StaGraph::new(netlist, wire);
        let n = graph.delay_ns.len();
        let nets = graph.fanout_ns.len();

        let mut rank = vec![NONE; n];
        for (r, &c) in graph.order.iter().enumerate() {
            rank[c as usize] = r as u32;
        }
        let comb_arcs = graph.order.iter().flat_map(|&c| {
            let c = c as usize;
            graph.in_arcs[graph.in_start[c] as usize..graph.in_start[c + 1] as usize].iter()
        });
        let (fanout_start, fanout) = csr(n, comb_arcs.map(|arc| (arc.driver, arc.sink)));
        let captures = (0..nets).flat_map(|net| {
            let range = graph.capture_start[net]..graph.capture_start[net + 1];
            range.map(move |arc| (arc, net as u32))
        });
        let (capture_in_start, capture_in) = csr(
            n,
            captures.map(|(arc, net)| (graph.capture[arc as usize].sink, (arc, net))),
        );
        let out_net = (0..n as u32)
            .map(|c| netlist.output_net(CellId(c)).map_or(NONE, |net| net.0))
            .collect();

        let (arrival, best_pred) = graph.propagate(placement);
        let leaves = nets.next_power_of_two();
        let mut timer = IncrementalSta {
            rank,
            fanout_start,
            fanout,
            capture_in_start,
            capture_in,
            out_net,
            arrival,
            best_pred,
            net_max: vec![(f64::NEG_INFINITY, NONE); leaves],
            tree: (0..leaves as u32).chain(0..leaves as u32).collect(),
            queue: BinaryHeap::new(),
            queued: vec![false; n],
            dirty: vec![false; nets],
            dirty_nets: Vec::new(),
            undo_cells: Vec::new(),
            undo_nets: Vec::new(),
            undo_tree: Vec::new(),
            graph,
        };
        for net in 0..nets as u32 {
            timer.net_max[net as usize] = timer.scan(placement, net);
        }
        for node in (1..leaves).rev() {
            timer.tree[node] = timer.winner(timer.tree[2 * node], timer.tree[2 * node + 1]);
        }
        timer
    }

    /// Delay of net `net` to a sink `dist` grid units from its driver,
    /// bit-identical to [`WireModel::net_delay_ns`] at the net's fanout.
    pub(crate) fn wire_ns(&self, net: NetId, dist: f64) -> f64 {
        self.graph.wire_ns(net.0, dist)
    }

    /// The worst capture total and its capture arc, as `run` finds them.
    fn worst(&self) -> (f64, Option<u32>) {
        let (total, arc) = self.net_max[self.tree[1] as usize];
        if total > 0.0 {
            (total, Some(arc))
        } else {
            (0.0, None)
        }
    }

    /// Achieved clock period of the current placement, ns.
    pub(crate) fn period_ns(&self) -> f64 {
        clock_period(self.worst().0)
    }

    /// Cells on the current critical path, launch point first.
    pub(crate) fn critical_path(&self) -> Vec<CellId> {
        self.graph.path(&self.best_pred, self.worst().1)
    }

    /// The full report of the current placement, equal to `run`'s.
    pub(crate) fn report(&self) -> TimingReport {
        let (worst, crit) = self.worst();
        self.graph
            .report(self.arrival.clone(), &self.best_pred, worst, crit)
    }

    /// Re-times after `cell` moved in `placement` (the caller has already
    /// set its new location). Stacks on earlier uncommitted moves.
    pub(crate) fn move_cell(&mut self, placement: &Placement, cell: CellId) {
        let m = cell.0;
        if self.rank[m as usize] != NONE {
            self.enqueue(m);
        }
        self.enqueue_fanout(m);
        self.mark_dirty(self.out_net[m as usize]);

        let mut last = None;
        while let Some(Reverse(r)) = self.queue.pop() {
            // Rank order evaluates each cone cell once, after its drivers.
            debug_assert!(last < Some(r), "cone re-timed out of rank order");
            last = Some(r);
            let c = self.graph.order[r as usize];
            self.queued[c as usize] = false;
            let (arrival, pred) = self.graph.eval(&self.arrival, placement, c);
            let (old_arrival, old_pred) = (self.arrival[c as usize], self.best_pred[c as usize]);
            let changed = arrival.to_bits() != old_arrival.to_bits();
            if !changed && pred == old_pred {
                continue;
            }
            self.undo_cells.push((c, old_arrival, old_pred));
            self.arrival[c as usize] = arrival;
            self.best_pred[c as usize] = pred;
            if changed {
                self.enqueue_fanout(c);
                self.mark_dirty(self.out_net[c as usize]);
            }
        }

        let captured = self.capture_in_start[m as usize]..self.capture_in_start[m as usize + 1];
        for k in captured {
            let (arc, net) = self.capture_in[k as usize];
            if !self.dirty[net as usize] {
                self.move_sink(placement, arc, net);
            }
        }
        while let Some(net) = self.dirty_nets.pop() {
            self.dirty[net as usize] = false;
            let max = self.scan(placement, net);
            self.set_net_max(net, max);
        }
    }

    /// Accepts every move since the last commit.
    pub(crate) fn commit(&mut self) {
        self.undo_cells.clear();
        self.undo_nets.clear();
        self.undo_tree.clear();
    }

    /// Undoes every move since the last commit (the caller restores the
    /// cells' locations).
    pub(crate) fn rollback(&mut self) {
        for (c, arrival, pred) in self.undo_cells.drain(..).rev() {
            self.arrival[c as usize] = arrival;
            self.best_pred[c as usize] = pred;
        }
        for (net, max) in self.undo_nets.drain(..).rev() {
            self.net_max[net as usize] = max;
        }
        for (node, winner) in self.undo_tree.drain(..).rev() {
            self.tree[node as usize] = winner;
        }
    }

    fn enqueue(&mut self, c: u32) {
        if !self.queued[c as usize] {
            self.queued[c as usize] = true;
            self.queue.push(Reverse(self.rank[c as usize]));
        }
    }

    fn enqueue_fanout(&mut self, c: u32) {
        for k in self.fanout_start[c as usize]..self.fanout_start[c as usize + 1] {
            self.enqueue(self.fanout[k as usize]);
        }
    }

    fn mark_dirty(&mut self, net: u32) {
        if net != NONE && !self.dirty[net as usize] {
            let n = net as usize;
            if self.graph.capture_start[n] < self.graph.capture_start[n + 1] {
                self.dirty[n] = true;
                self.dirty_nets.push(net);
            }
        }
    }

    /// The leftmost maximal capture total of `net` and its arc.
    fn scan(&self, placement: &Placement, net: u32) -> (f64, u32) {
        let lo = self.graph.capture_start[net as usize];
        let hi = self.graph.capture_start[net as usize + 1];
        let mut max = (f64::NEG_INFINITY, NONE);
        for (arc, &timing_arc) in (lo..).zip(&self.graph.capture[lo as usize..hi as usize]) {
            let total = self.graph.arrive(&self.arrival, placement, timing_arc) + SETUP_NS;
            if total > max.0 {
                max = (total, arc);
            }
        }
        max
    }

    /// Capture arc `arc` of `net` changed length, its driver's arrival
    /// did not.
    fn move_sink(&mut self, placement: &Placement, arc: u32, net: u32) {
        let timing_arc = self.graph.capture[arc as usize];
        let total = self.graph.arrive(&self.arrival, placement, timing_arc) + SETUP_NS;
        let (max, max_arc) = self.net_max[net as usize];
        let max = if arc == max_arc {
            if total >= max {
                (total, arc)
            } else {
                self.scan(placement, net)
            }
        } else if total > max || (total == max && arc < max_arc) {
            (total, arc)
        } else {
            return;
        };
        self.set_net_max(net, max);
    }

    /// The leftmost of nets `a < b` with the greater maximum.
    fn winner(&self, a: u32, b: u32) -> u32 {
        if self.net_max[b as usize].0 > self.net_max[a as usize].0 {
            b
        } else {
            a
        }
    }

    fn set_net_max(&mut self, net: u32, max: (f64, u32)) {
        let old = self.net_max[net as usize];
        if old.0.to_bits() == max.0.to_bits() && old.1 == max.1 {
            return;
        }
        self.undo_nets.push((net, old));
        self.net_max[net as usize] = max;
        let mut node = (self.net_max.len() + net as usize) / 2;
        while node >= 1 {
            let won = self.winner(self.tree[2 * node], self.tree[2 * node + 1]);
            let old = self.tree[node];
            if won != old {
                self.undo_tree.push((node as u32, old));
                self.tree[node] = won;
            } else if won != net {
                // Neither this subtree's winner nor its total changed.
                break;
            }
            node /= 2;
        }
    }
}

/// A compressed-sparse-row map from `n` keys: `items[start[k]..start[k +
/// 1]]` are the values of `pairs` with key `k`, in `pairs` order.
fn csr<T: Copy + Default>(
    n: usize,
    pairs: impl Iterator<Item = (u32, T)> + Clone,
) -> (Vec<u32>, Vec<T>) {
    let mut start = vec![0u32; n + 1];
    for (k, _) in pairs.clone() {
        start[k as usize + 1] += 1;
    }
    for k in 0..n {
        start[k + 1] += start[k];
    }
    let mut next = start.clone();
    let mut items = vec![T::default(); start[n] as usize];
    for (k, v) in pairs {
        items[next[k as usize] as usize] = v;
        next[k as usize] += 1;
    }
    (start, items)
}

/// Runs STA over a placed netlist: builds the netlist's timing graph and
/// times this one placement. (Refinement, which times many placements of
/// one netlist, times the first and re-times each move incrementally.)
///
/// Path delay from a driver output to a sink input is
/// `arrival(driver) + wire(dist(driver, sink), fanout(net))`; sequential and
/// output cells capture with [`SETUP_NS`] of setup. Constants contribute no
/// delay.
///
/// # Panics
///
/// Panics if the netlist contains a combinational cycle (validate first).
pub fn sta(netlist: &Netlist, placement: &Placement, wire: &WireModel) -> TimingReport {
    StaGraph::new(netlist, wire).run(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_fabric::Device;
    use hlsb_netlist::Cell;
    use hlsb_place::Placement;

    /// Places cells at explicit coordinates for hand-computable delays.
    fn fixed_placement(locs: Vec<(u16, u16)>) -> Placement {
        Placement::from_locs(locs, 140, 120)
    }

    fn wire() -> WireModel {
        WireModel::ultrascale_plus()
    }

    #[test]
    fn single_stage_path_delay_is_exact() {
        // a(FF) --net--> x(comb 0.7) --net--> b(FF)
        let mut nl = Netlist::new("t");
        let a = nl.add_cell(Cell::ff("a", 8));
        let x = nl.add_cell(Cell::comb("x", 8, 0.7, 8));
        let b = nl.add_cell(Cell::ff("b", 8));
        nl.connect(a, &[x]);
        nl.connect(x, &[b]);
        let p = fixed_placement(vec![(0, 0), (1, 0), (2, 0)]);
        let w = wire();
        let r = sta(&nl, &p, &w);
        let expected = 0.10 // clk-to-q
            + w.net_delay_ns(1.0, 1)
            + 0.7
            + w.net_delay_ns(1.0, 1)
            + SETUP_NS;
        assert!(
            (r.period_ns - expected).abs() < 1e-9,
            "{} vs {expected}",
            r.period_ns
        );
        assert_eq!(r.critical_path, vec![a, x, b]);
    }

    #[test]
    fn fanout_increases_delay() {
        let dev = Device::ultrascale_plus_vu9p();
        let w = WireModel::for_device(&dev);
        // Driver with 1 sink vs driver with 32 sinks at same max distance.
        let mut nl1 = Netlist::new("fo1");
        let a1 = nl1.add_cell(Cell::ff("a", 8));
        let b1 = nl1.add_cell(Cell::ff("b", 8));
        nl1.connect(a1, &[b1]);
        let p1 = fixed_placement(vec![(0, 0), (5, 0)]);
        let r1 = sta(&nl1, &p1, &w);

        let mut nl2 = Netlist::new("fo32");
        let a2 = nl2.add_cell(Cell::ff("a", 8));
        let sinks: Vec<_> = (0..32)
            .map(|i| nl2.add_cell(Cell::ff(format!("s{i}"), 8)))
            .collect();
        nl2.connect(a2, &sinks);
        let mut locs = vec![(0u16, 0u16)];
        locs.extend((0..32).map(|i| (5u16, i as u16)));
        let p2 = fixed_placement(locs);
        let r2 = sta(&nl2, &p2, &w);

        assert!(r2.period_ns > r1.period_ns);
    }

    #[test]
    fn constants_are_free() {
        let mut nl = Netlist::new("c");
        let k = nl.add_cell(Cell::constant("k", 8));
        let x = nl.add_cell(Cell::comb("x", 8, 0.5, 8));
        let b = nl.add_cell(Cell::ff("b", 8));
        nl.connect(k, &[x]);
        nl.connect(x, &[b]);
        let p = fixed_placement(vec![(0, 0), (50, 50), (51, 50)]);
        let w = wire();
        let r = sta(&nl, &p, &w);
        // Path is only x -> b; the 100-unit const net contributes nothing.
        let expected = 0.5 + w.net_delay_ns(1.0, 1) + SETUP_NS;
        assert!((r.period_ns - expected).abs() < 1e-9);
    }

    #[test]
    fn longest_of_parallel_paths_wins() {
        let mut nl = Netlist::new("par");
        let a = nl.add_cell(Cell::ff("a", 8));
        let fast = nl.add_cell(Cell::comb("fast", 8, 0.2, 8));
        let slow = nl.add_cell(Cell::comb("slow", 8, 1.5, 8));
        let b = nl.add_cell(Cell::ff("b", 8));
        let c = nl.add_cell(Cell::ff("c", 8));
        nl.connect(a, &[fast, slow]);
        nl.connect(fast, &[b]);
        nl.connect(slow, &[c]);
        let p = fixed_placement(vec![(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]);
        let r = sta(&nl, &p, &wire());
        assert!(r.critical_path.contains(&slow));
        assert!(!r.critical_path.contains(&fast));
    }

    #[test]
    fn bram_clock_to_out_counts() {
        let mut nl = Netlist::new("mem");
        let m = nl.add_cell(Cell::bram("m", 32, 4));
        let x = nl.add_cell(Cell::comb("x", 32, 0.3, 32));
        let b = nl.add_cell(Cell::ff("b", 32));
        nl.connect(m, &[x]);
        nl.connect(x, &[b]);
        let p = fixed_placement(vec![(4, 0), (5, 0), (6, 0)]);
        let w = wire();
        let r = sta(&nl, &p, &w);
        let expected = 0.90 + w.net_delay_ns(1.0, 1) + 0.3 + w.net_delay_ns(1.0, 1) + SETUP_NS;
        assert!((r.period_ns - expected).abs() < 1e-9);
    }

    #[test]
    fn path_text_breaks_down_arcs() {
        let mut nl = Netlist::new("t");
        let a = nl.add_cell(Cell::ff("a", 8));
        let x = nl.add_cell(Cell::comb("x", 8, 0.7, 8));
        let b = nl.add_cell(Cell::ff("b", 8));
        nl.connect(a, &[x]);
        nl.connect(x, &[b]);
        let p = fixed_placement(vec![(0, 0), (1, 0), (2, 0)]);
        let w = wire();
        let r = sta(&nl, &p, &w);
        let text = r.path_text(&nl, &p, &w);
        assert!(text.contains("critical path"), "{text}");
        assert!(text.contains("x"), "{text}");
        assert!(text.lines().count() >= 5, "{text}");
        // The per-arc totals accumulate to about the period (minus setup).
        assert!(text.contains("setup"), "{text}");
    }

    #[test]
    fn empty_netlist_has_finite_fmax() {
        let nl = Netlist::new("empty");
        let p = fixed_placement(vec![]);
        let r = sta(&nl, &p, &wire());
        assert!(r.fmax_mhz.is_finite());
        assert!(r.period_ns > 0.0);
    }

    /// The per-call STA [`StaGraph`] replaced, kept verbatim as the
    /// reference: topo sort, launch pass and wire model evaluated afresh
    /// on every call.
    fn reference_sta(netlist: &Netlist, placement: &Placement, wire: &WireModel) -> TimingReport {
        let n = netlist.cell_count();
        let order = netlist
            .comb_topo_order()
            .expect("netlist must be free of combinational cycles");
        let mut arrival = vec![0.0f64; n];
        let mut best_pred: Vec<Option<CellId>> = vec![None; n];
        let contribution = |arrival: &[f64], driver: CellId, sink: CellId, fanout: usize| -> f64 {
            if netlist.cell(driver).kind == CellKind::Const {
                return 0.0;
            }
            arrival[driver.index()] + wire.net_delay_ns(placement.dist(driver, sink), fanout)
        };
        for (c, cell) in netlist.cells() {
            if is_launch(cell.kind) {
                arrival[c.index()] = cell.delay_ns;
            }
        }
        for &c in &order {
            let cell = netlist.cell(c);
            if is_launch(cell.kind) {
                continue;
            }
            let mut worst = 0.0f64;
            let mut pred = None;
            for &net_id in netlist.input_nets(c) {
                let net = netlist.net(net_id);
                let a = contribution(&arrival, net.driver, c, net.fanout());
                if a > worst {
                    worst = a;
                    pred = Some(net.driver);
                }
            }
            arrival[c.index()] = worst + cell.delay_ns;
            best_pred[c.index()] = pred;
        }
        let mut period = 0.0f64;
        let mut crit_sink = None;
        let mut crit_driver = None;
        for (_, net) in netlist.nets() {
            let fo = net.fanout();
            for &s in &net.sinks {
                let k = netlist.cell(s).kind;
                if k.is_sequential() || k == CellKind::Output {
                    let total = contribution(&arrival, net.driver, s, fo) + SETUP_NS;
                    if total > period {
                        period = total;
                        crit_sink = Some(s);
                        crit_driver = Some(net.driver);
                    }
                }
            }
        }
        if period <= 0.0 {
            period = SETUP_NS + 0.1;
        }
        let mut path = Vec::new();
        if let (Some(sink), Some(mut cur)) = (crit_sink, crit_driver) {
            path.push(sink);
            loop {
                path.push(cur);
                match best_pred[cur.index()] {
                    Some(p) => cur = p,
                    None => break,
                }
            }
            path.reverse();
        }
        TimingReport {
            period_ns: period,
            fmax_mhz: 1000.0 / period,
            critical_path: path,
            arrival_ns: arrival,
        }
    }

    /// A benchmark lowered the way the flow lowers it: every loop
    /// unrolled and scheduled at the benchmark's clock.
    fn lowered(bench: &hlsb_benchmarks::Benchmark, options: &hlsb_rtlgen::RtlOptions) -> Netlist {
        let design = &bench.design;
        let model = hlsb_delay::HlsPredictedModel::new();
        let loops: Vec<Vec<hlsb_rtlgen::ScheduledLoop>> = design
            .kernels
            .iter()
            .map(|k| {
                k.loops
                    .iter()
                    .map(|lp| {
                        let looop = hlsb_ir::unroll::unroll_loop(lp).looop;
                        let schedule = hlsb_sched::schedule_loop(
                            &looop,
                            design,
                            &model,
                            1000.0 / bench.clock_mhz,
                        );
                        hlsb_rtlgen::ScheduledLoop {
                            looop,
                            schedule,
                            mem_plan: Default::default(),
                        }
                    })
                    .collect()
            })
            .collect();
        let sd = hlsb_rtlgen::ScheduledDesign {
            design,
            loops: &loops,
        };
        hlsb_rtlgen::lower_design(&sd, options, &model).netlist
    }

    #[test]
    fn graph_run_is_bit_identical_to_per_call_sta() {
        let skid = hlsb_rtlgen::RtlOptions {
            control: hlsb_rtlgen::ControlStyle::Skid { min_area: true },
            sync_pruning: true,
            ..hlsb_rtlgen::RtlOptions::baseline()
        };
        let mut rng = hlsb_rng::Rng::seed_from_u64(0x57a6);
        for bench in hlsb_benchmarks::all_benchmarks() {
            let wire = WireModel::for_device(&bench.device);
            let (w, h) = (bench.device.grid_w, bench.device.grid_h);
            for options in [hlsb_rtlgen::RtlOptions::baseline(), skid] {
                let nl = lowered(&bench, &options);
                let graph = StaGraph::new(&nl, &wire);
                for _ in 0..3 {
                    // A random legal placement (sites may be shared; STA
                    // only reads distances).
                    let locs = nl
                        .cells()
                        .map(|(_, cell)| {
                            let x = rng.gen_index(w as usize) as u16;
                            let x = hlsb_place::sites::snap_column(cell.kind, x, w as u16);
                            (x, rng.gen_index(h as usize) as u16)
                        })
                        .collect();
                    let p = Placement::from_locs(locs, w, h);
                    let got = graph.run(&p);
                    let want = reference_sta(&nl, &p, &wire);
                    let bits = |r: &TimingReport| {
                        let arrival: Vec<u64> = r.arrival_ns.iter().map(|a| a.to_bits()).collect();
                        (r.period_ns.to_bits(), r.fmax_mhz.to_bits(), arrival)
                    };
                    assert_eq!(bits(&got), bits(&want), "{}", bench.name);
                    assert_eq!(got.critical_path, want.critical_path, "{}", bench.name);
                }
            }
        }
    }

    /// Arrival bits, period bits and critical path: everything the
    /// incremental timer must reproduce exactly.
    fn exact(r: &TimingReport) -> (u64, Vec<u64>, Vec<CellId>) {
        let arrival = r.arrival_ns.iter().map(|a| a.to_bits()).collect();
        (r.period_ns.to_bits(), arrival, r.critical_path.clone())
    }

    /// Asserts that `timer` equals `run` and the per-call reference on
    /// `placement` as it stands.
    fn assert_current(
        timer: &IncrementalSta,
        netlist: &Netlist,
        placement: &Placement,
        wire: &WireModel,
        step: &str,
    ) {
        let got = timer.report();
        let want = timer.graph.run(placement);
        assert_eq!(exact(&got), exact(&want), "{}: {step}", netlist.name);
        assert_eq!(
            exact(&got),
            exact(&reference_sta(netlist, placement, wire)),
            "{}: {step}",
            netlist.name
        );
        assert_eq!(timer.period_ns().to_bits(), want.period_ns.to_bits());
        assert_eq!(timer.critical_path(), want.critical_path);
    }

    /// Drives `steps` random transactions of one to three moves, each
    /// committed or rolled back, checking the timer after every step.
    /// Half the moves pull a critical-path cell, so the worst arcs move.
    fn drive(
        netlist: &Netlist,
        placement: &mut Placement,
        wire: &WireModel,
        steps: usize,
        seed: u64,
    ) {
        let mut rng = hlsb_rng::Rng::seed_from_u64(seed);
        let mut timer = IncrementalSta::new(netlist, wire, placement);
        assert_current(&timer, netlist, placement, wire, "initial");
        let (w, h) = (placement.grid_w as usize, placement.grid_h as usize);
        for step in 0..steps {
            let mut moved = Vec::new();
            for _ in 0..1 + rng.gen_index(3) {
                let path = timer.critical_path();
                let cell = if !path.is_empty() && rng.gen_bool(0.5) {
                    path[rng.gen_index(path.len())]
                } else {
                    CellId(rng.gen_index(netlist.cell_count()) as u32)
                };
                moved.push((cell, placement.loc(cell)));
                let target = (rng.gen_index(w) as u16, rng.gen_index(h) as u16);
                placement.set_loc(cell, target);
                timer.move_cell(placement, cell);
                assert_current(
                    &timer,
                    netlist,
                    placement,
                    wire,
                    &format!("step {step} move"),
                );
            }
            if rng.gen_bool(0.5) {
                timer.commit();
            } else {
                timer.rollback();
                for &(cell, loc) in moved.iter().rev() {
                    placement.set_loc(cell, loc);
                }
            }
            assert_current(
                &timer,
                netlist,
                placement,
                wire,
                &format!("step {step} end"),
            );
        }
    }

    /// A random valid netlist: inputs, constants, registers and a BRAM
    /// launching into combinational chains whose cell ids are shuffled
    /// against their topological order, repeated sinks, output ports,
    /// and one register broadcast to `broadcast` register sinks.
    fn random_netlist(rng: &mut hlsb_rng::Rng, broadcast: usize) -> Netlist {
        let mut nl = Netlist::new(format!("random-{broadcast}"));
        let mut launch = vec![
            nl.add_cell(Cell::input("in", 8)),
            nl.add_cell(Cell::constant("k", 8)),
            nl.add_cell(Cell::bram("m", 8, 1)),
        ];
        launch.extend((0..6).map(|i| nl.add_cell(Cell::ff(format!("r{i}"), 8))));
        // Comb cell `i` is `depth[i]` levels deep and reads only from
        // launch cells and shallower comb cells.
        let comb_count = 24;
        let mut depth: Vec<usize> = (0..comb_count).collect();
        for i in (1..comb_count).rev() {
            depth.swap(i, rng.gen_index(i + 1));
        }
        let comb: Vec<CellId> = (0..comb_count)
            .map(|i| {
                let delay = 0.1 + rng.gen_f64();
                nl.add_cell(Cell::comb(format!("c{i}"), 8, delay, 8))
            })
            .collect();
        for i in 0..comb_count {
            for _ in 0..1 + rng.gen_index(3) {
                let shallower: Vec<CellId> = (0..comb_count)
                    .filter(|&j| depth[j] < depth[i])
                    .map(|j| comb[j])
                    .collect();
                let driver = if shallower.is_empty() || rng.gen_bool(0.3) {
                    launch[rng.gen_index(launch.len())]
                } else {
                    shallower[rng.gen_index(shallower.len())]
                };
                if rng.gen_bool(0.2) {
                    nl.connect(driver, &[comb[i], comb[i]]);
                } else {
                    nl.connect(driver, &[comb[i]]);
                }
            }
        }
        // Capture points: every register, the BRAM and two output ports
        // read a random comb cell or launch cell (a register may read
        // itself; repeated register sinks too).
        let outputs = [
            nl.add_cell(Cell::output("o0", 8)),
            nl.add_cell(Cell::output("o1", 8)),
        ];
        let sinks: Vec<CellId> = launch[2..].iter().copied().chain(outputs).collect();
        for &s in &sinks {
            let driver = if rng.gen_bool(0.8) {
                comb[rng.gen_index(comb_count)]
            } else {
                launch[rng.gen_index(launch.len())]
            };
            let repeat = if rng.gen_bool(0.2) { 2 } else { 1 };
            nl.connect(driver, &vec![s; repeat]);
        }
        let src = nl.add_cell(Cell::ff("bsrc", 8));
        nl.connect(comb[rng.gen_index(comb_count)], &[src]);
        let fanout: Vec<CellId> = (0..broadcast)
            .map(|i| nl.add_cell(Cell::ff(format!("b{i}"), 8)))
            .collect();
        nl.connect(src, &fanout);
        nl.connect(src, &[comb[rng.gen_index(comb_count)]]);
        nl.validate().expect("random netlist is valid");
        nl
    }

    #[test]
    fn incremental_timer_matches_run_on_random_netlists() {
        // The calibrated model, one blind to distance (every arc of a net
        // ties) and one falling with distance (nearest sinks worst).
        let models = [
            wire(),
            WireModel {
                r_dist_ns: 0.0,
                ..wire()
            },
            WireModel {
                r_dist_ns: -0.001,
                ..wire()
            },
        ];
        let mut rng = hlsb_rng::Rng::seed_from_u64(0x1bc5);
        let mut seed = 0;
        for broadcast in [1usize, 7, 64, 300, 2048] {
            for wire in &models {
                // A small grid makes arcs of equal length (and equal
                // capture totals) common.
                for side in [6, 120] {
                    let nl = random_netlist(&mut rng, broadcast);
                    let locs = (0..nl.cell_count())
                        .map(|_| (rng.gen_index(side) as u16, rng.gen_index(side) as u16))
                        .collect();
                    let mut p = Placement::from_locs(locs, side as u32, side as u32);
                    seed += 1;
                    drive(&nl, &mut p, wire, 30, seed);
                }
            }
        }
    }

    #[test]
    fn incremental_timer_matches_run_on_lowered_benchmarks() {
        let skid = hlsb_rtlgen::RtlOptions {
            control: hlsb_rtlgen::ControlStyle::Skid { min_area: true },
            sync_pruning: true,
            ..hlsb_rtlgen::RtlOptions::baseline()
        };
        let mut rng = hlsb_rng::Rng::seed_from_u64(0x57a7);
        for bench in hlsb_benchmarks::all_benchmarks() {
            let wire = WireModel::for_device(&bench.device);
            let (w, h) = (bench.device.grid_w, bench.device.grid_h);
            for options in [hlsb_rtlgen::RtlOptions::baseline(), skid] {
                let nl = lowered(&bench, &options);
                let locs = nl
                    .cells()
                    .map(|(_, cell)| {
                        let x = rng.gen_index(w as usize) as u16;
                        let x = hlsb_place::sites::snap_column(cell.kind, x, w as u16);
                        (x, rng.gen_index(h as usize) as u16)
                    })
                    .collect();
                let mut p = Placement::from_locs(locs, w, h);
                drive(&nl, &mut p, &wire, 12, rng.next_u64());
            }
        }
    }

    /// Equal capture totals across and within nets: the first strictly
    /// greatest arc in net-then-sink order must stay critical, as in
    /// `run`'s scan, through point updates, rescans and tree updates.
    #[test]
    fn incremental_timer_keeps_the_leftmost_of_equal_captures() {
        let mut nl = Netlist::new("ties");
        let a1 = nl.add_cell(Cell::ff("a1", 8));
        let a2 = nl.add_cell(Cell::ff("a2", 8));
        let b: Vec<CellId> = (0..4)
            .map(|i| nl.add_cell(Cell::ff(format!("b{i}"), 8)))
            .collect();
        nl.connect(a1, &[b[0], b[1]]);
        nl.connect(a2, &[b[2], b[3]]);
        // Both nets' worst arcs are 10 units long.
        let locs = vec![(0, 0), (0, 50), (5, 0), (10, 0), (5, 50), (10, 50)];
        let mut p = Placement::from_locs(locs, 140, 120);
        let w = wire();
        let mut timer = IncrementalSta::new(&nl, &w, &p);
        assert_current(&timer, &nl, &p, &w, "initial");
        assert_eq!(timer.critical_path(), vec![a1, b[1]], "net 0 wins the tie");

        let mut step = |cell: CellId, loc: (u16, u16), want: &[CellId]| {
            p.set_loc(cell, loc);
            timer.move_cell(&p, cell);
            timer.commit();
            assert_current(&timer, &nl, &p, &w, &format!("{cell} to {loc:?}"));
            assert_eq!(timer.critical_path(), want, "{cell} to {loc:?}");
        };
        // b0 ties its net's maximum from the left: it takes over.
        step(b[0], (10, 0), &[a1, b[0]]);
        // The maximum falls: the net rescans to b1.
        step(b[0], (5, 0), &[a1, b[1]]);
        // Net 0 falls below net 1.
        step(b[1], (3, 0), &[a2, b[3]]);
        // Net 0 ties net 1 again and wins as the left net.
        step(b[1], (0, 10), &[a1, b[1]]);
        // A moved driver rescans its net: a2's arc to b3 grows to 12 units.
        step(a2, (0, 48), &[a2, b[3]]);
        step(a2, (0, 50), &[a1, b[1]]);
    }

    /// A constant's capture arcs all total the setup time, wherever its
    /// sinks sit: the first sink stays critical, not the farthest.
    #[test]
    fn incremental_timer_keeps_the_first_constant_capture() {
        let mut nl = Netlist::new("const");
        let k = nl.add_cell(Cell::constant("k", 8));
        let f: Vec<CellId> = (0..3)
            .map(|i| nl.add_cell(Cell::ff(format!("f{i}"), 8)))
            .collect();
        nl.connect(k, &f);
        let mut p = Placement::from_locs(vec![(0, 0), (1, 0), (9, 0), (4, 0)], 140, 120);
        let w = wire();
        let mut timer = IncrementalSta::new(&nl, &w, &p);
        assert_current(&timer, &nl, &p, &w, "initial");
        assert_eq!(timer.critical_path(), vec![k, f[0]]);
        for (cell, loc) in [(k, (9, 0)), (f[0], (0, 0)), (f[2], (50, 50))] {
            p.set_loc(cell, loc);
            timer.move_cell(&p, cell);
            assert_current(&timer, &nl, &p, &w, &format!("{cell} to {loc:?}"));
            assert_eq!(timer.critical_path(), vec![k, f[0]]);
        }
    }
}
