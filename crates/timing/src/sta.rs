//! Static timing analysis.

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
    /// Arcs into sequential and output cells.
    capture: Vec<TimingArc>,
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
        let mut fanout_ns = Vec::with_capacity(netlist.net_count());
        for (id, net) in netlist.nets() {
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
            fanout_ns,
        }
    }

    /// Arrival at `arc.sink`'s input through `arc`.
    fn arrive(&self, arrival: &[f64], placement: &Placement, arc: TimingArc) -> f64 {
        if arc.net == NONE {
            return 0.0;
        }
        let w = &self.wire;
        let (k_term, c_term) = self.fanout_ns[arc.net as usize];
        let dist = placement.dist(CellId(arc.driver), CellId(arc.sink));
        arrival[arc.driver as usize] + w.speed * (w.base_ns + w.r_dist_ns * dist + k_term + c_term)
    }

    /// Times one placement of the netlist the graph was built from (see
    /// [`sta`] for the delay model).
    pub(crate) fn run(&self, placement: &Placement) -> TimingReport {
        let n = self.delay_ns.len();
        // Arrival time at each cell's *output*, and the input driver that
        // determined it (for path reconstruction).
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
            let c = c as usize;
            let mut worst = 0.0f64;
            let mut pred = NONE;
            for &arc in &self.in_arcs[self.in_start[c] as usize..self.in_start[c + 1] as usize] {
                let a = self.arrive(&arrival, placement, arc);
                if a > worst {
                    worst = a;
                    pred = arc.driver;
                }
            }
            arrival[c] = worst + self.delay_ns[c];
            best_pred[c] = pred;
        }

        let mut period = 0.0f64;
        let mut crit = None;
        for &arc in &self.capture {
            let total = self.arrive(&arrival, placement, arc) + SETUP_NS;
            if total > period {
                period = total;
                crit = Some(arc);
            }
        }

        // A design with no capture points (e.g. a lone register) still
        // needs a positive period.
        if period <= 0.0 {
            period = SETUP_NS + 0.1;
        }

        // Reconstruct the critical path.
        let mut path = Vec::new();
        if let Some(arc) = crit {
            path.push(CellId(arc.sink));
            let mut cur = arc.driver;
            while cur != NONE {
                path.push(CellId(cur));
                cur = best_pred[cur as usize];
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
}

/// Runs STA over a placed netlist: builds the netlist's timing graph and
/// times this one placement. (Refinement, which times many placements of
/// one netlist, keeps one graph for all of them.)
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
}
