//! Levelized seed placement + simulated-annealing refinement.
//!
//! Both entry points funnel into one region-parameterized core:
//! [`place_with`] anneals over the full device grid (the classic flat
//! flow), while [`place_in_region`] confines seeding, annealing moves and
//! the zero-temperature polish to a reserved [`Region`] — the per-island
//! mode of partitioned placement (`crate::partition`). The flat path is
//! the full-grid special case of the region path, so flat results are
//! bit-identical to what the pre-partitioning placer produced.

use crate::placement::{Placement, Region};
use crate::sites::{site_legal, snap_column_in};
use hlsb_fabric::Device;
use hlsb_netlist::{CellId, CellKind, Netlist};
use hlsb_rng::Rng;
use std::collections::BTreeMap;

/// Annealing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    /// Moves per cell (total moves = `moves_per_cell * cell_count`,
    /// clamped to `[min_moves, max_moves]`).
    pub moves_per_cell: u32,
    /// Lower bound on total moves.
    pub min_moves: u32,
    /// Upper bound on total moves.
    pub max_moves: u32,
    /// Geometric cooling factor applied every batch.
    pub cooling: f64,
    /// Number of cooling batches.
    pub batches: u32,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            moves_per_cell: 130,
            min_moves: 8_000,
            max_moves: 2_500_000,
            cooling: 0.90,
            batches: 70,
        }
    }
}

/// Places a netlist on a device with the default annealing configuration.
///
/// # Panics
///
/// Panics if the netlist has more cells than the device has sites of the
/// required kinds.
pub fn place(netlist: &Netlist, device: &Device, seed: u64) -> Placement {
    place_with(netlist, device, seed, AnnealConfig::default())
}

/// Places a netlist with an explicit configuration.
///
/// # Panics
///
/// Panics if the netlist does not fit on the device grid.
pub fn place_with(
    netlist: &Netlist,
    device: &Device,
    seed: u64,
    config: AnnealConfig,
) -> Placement {
    let n = netlist.cell_count();
    if n == 0 {
        return Placement::from_locs(Vec::new(), device.grid_w, device.grid_h);
    }
    assert!(
        (n as u64) < u64::from(device.grid_w) * u64::from(device.grid_h) / 2,
        "netlist ({n} cells) does not fit on {}",
        device.name
    );
    place_impl(netlist, device, Region::full(device), seed, config)
}

/// Places a netlist inside a reserved region of the device (absolute
/// coordinates): the seed, every annealing move and the polish stay in
/// `region`, so disjoint regions can be placed concurrently without a
/// shared occupancy map. Pure function of `(netlist, region, seed,
/// config)` — island placements are identical no matter which thread
/// runs them, or in what order.
///
/// # Panics
///
/// Panics if the netlist does not fit in the region (the same one-cell-
/// per-two-sites margin the flat placer requires of the whole device),
/// or if the region leaves the device grid.
pub fn place_in_region(
    netlist: &Netlist,
    device: &Device,
    region: Region,
    seed: u64,
    config: AnnealConfig,
) -> Placement {
    let n = netlist.cell_count();
    if n == 0 {
        return Placement::from_locs(Vec::new(), device.grid_w, device.grid_h);
    }
    assert!(
        u32::from(region.x1()) <= device.grid_w && u32::from(region.y1()) <= device.grid_h,
        "region {region:?} leaves the {} grid",
        device.name
    );
    assert!(
        (n as u64) < region.sites() / 2,
        "island ({n} cells) does not fit in region {region:?}"
    );
    place_impl(netlist, device, region, seed, config)
}

fn place_impl(
    netlist: &Netlist,
    device: &Device,
    bounds: Region,
    seed: u64,
    config: AnnealConfig,
) -> Placement {
    let n = netlist.cell_count();
    // Confine small designs to a proportionate region: spreading a tiny
    // netlist across the whole die (or island across the whole strip)
    // would fabricate wire delay out of thin air. Real placers pack
    // designs into a fraction of the fabric too.
    let side = ((3 * n) as f64).sqrt().ceil() as u16 + 4;
    let rw = side.max(8).min(bounds.w);
    let rh = side.max(8).min(bounds.h);

    let mut occupancy = Occupancy::new(bounds);
    let placement = seed_placement(netlist, device, rw, rh, &mut occupancy);
    let mut placer = Placer {
        netlist,
        neighbours: Neighbours::new(netlist),
        placement,
        occupancy,
    };
    placer.anneal(rw.max(rh), seed, config);
    placer.placement
}

/// Marks an empty site in [`Occupancy`].
const FREE: u32 = u32::MAX;

/// Site occupancy of a placement region: one slot per site, row-major
/// from the region's corner, holding the occupant's cell index or
/// [`FREE`].
struct Occupancy {
    bounds: Region,
    slots: Vec<u32>,
}

impl Occupancy {
    fn new(bounds: Region) -> Self {
        Occupancy {
            bounds,
            slots: vec![FREE; bounds.sites() as usize],
        }
    }

    fn slot(&self, (x, y): (u16, u16)) -> usize {
        debug_assert!(self.bounds.contains((x, y)), "({x}, {y}) outside region");
        usize::from(y - self.bounds.y0) * usize::from(self.bounds.w)
            + usize::from(x - self.bounds.x0)
    }

    fn get(&self, loc: (u16, u16)) -> Option<CellId> {
        let c = self.slots[self.slot(loc)];
        (c != FREE).then_some(CellId(c))
    }

    fn put(&mut self, loc: (u16, u16), cell: CellId) {
        let i = self.slot(loc);
        self.slots[i] = cell.0;
    }

    fn clear(&mut self, loc: (u16, u16)) {
        let i = self.slot(loc);
        self.slots[i] = FREE;
    }
}

/// Every cell's wiring neighbours in one flat array (CSR): the sinks of
/// its output net, then the drivers of its input nets — the far ends of
/// the arcs whose lengths make up the cell's star wirelength. Repeated
/// sinks and self-loops appear as often as the netlist lists them.
struct Neighbours {
    start: Vec<u32>,
    cells: Vec<u32>,
}

impl Neighbours {
    fn new(netlist: &Netlist) -> Self {
        let mut start = Vec::with_capacity(netlist.cell_count() + 1);
        let mut cells = Vec::new();
        start.push(0);
        for (id, _) in netlist.cells() {
            if let Some(net) = netlist.output_net(id) {
                cells.extend(netlist.net(net).sinks.iter().map(|s| s.0));
            }
            cells.extend(
                netlist
                    .input_nets(id)
                    .iter()
                    .map(|&net| netlist.net(net).driver.0),
            );
            start.push(cells.len() as u32);
        }
        Neighbours { start, cells }
    }

    fn of(&self, cell: CellId) -> &[u32] {
        &self.cells[self.start[cell.index()] as usize..self.start[cell.index() + 1] as usize]
    }
}

/// Dataflow levels by construction order: `level(c) = max(level(d) + 1)`
/// over drivers `d` with a smaller id (RTL generation emits cells in
/// pipeline order, so this approximates the logical left-to-right flow and
/// is well-defined even with sequential feedback).
fn levels(netlist: &Netlist) -> Vec<u32> {
    let mut level = vec![0u32; netlist.cell_count()];
    for (id, _) in netlist.cells() {
        let mut best = 0;
        for &net in netlist.input_nets(id) {
            let d = netlist.net(net).driver;
            if d.index() < id.index() {
                best = best.max(level[d.index()] + 1);
            }
        }
        level[id.index()] = best;
    }
    level
}

fn seed_placement(
    netlist: &Netlist,
    device: &Device,
    rw: u16,
    rh: u16,
    occupancy: &mut Occupancy,
) -> Placement {
    let bounds = occupancy.bounds;
    let level = levels(netlist);
    let max_level = level.iter().copied().max().unwrap_or(0).max(1);
    let n = netlist.cell_count();

    // Bucket cells by target column within the seed window `[bounds.x0,
    // bounds.x0 + rw) x [bounds.y0, bounds.y0 + rh)`.
    let mut by_col: BTreeMap<u16, Vec<CellId>> = BTreeMap::new();
    for (id, cell) in netlist.cells() {
        let frac = level[id.index()] as f64 / max_level as f64;
        let x = bounds.x0 + (frac * f64::from(rw - 1)).round() as u16;
        let x = snap_column_in(cell.kind, x, bounds.x0, bounds.x1());
        by_col.entry(x).or_default().push(id);
    }

    let mut locs = vec![(0u16, 0u16); n];
    for (&x, cells) in &by_col {
        let count = cells.len() as f64;
        for (i, &c) in cells.iter().enumerate() {
            let y = bounds.y0 + (((i as f64 + 0.5) / count) * f64::from(rh)) as u16;
            let want = (x, y.min(bounds.y1() - 1));
            let loc = free_site_near(netlist.cell(c).kind, want, occupancy);
            occupancy.put(loc, c);
            locs[c.index()] = loc;
        }
    }
    Placement::from_locs(locs, device.grid_w, device.grid_h)
}

/// Finds the nearest free legal site to `want` within the occupancy's
/// region. Rings of growing Chebyshev radius `r` around `want` are
/// visited in row-major order: the top edge row left to right, then
/// `dx = -r` and `dx = r` of every middle row, then the bottom edge row.
/// The first hit is thus the first free legal site of a row-major scan
/// of the ring's bounding square, at O(r) cost per ring instead of
/// O(r²).
fn free_site_near(kind: CellKind, want: (u16, u16), occupancy: &Occupancy) -> (u16, u16) {
    let bounds = occupancy.bounds;
    let (x0, y0) = (i32::from(bounds.x0), i32::from(bounds.y0));
    let (x1, y1) = (i32::from(bounds.x1()), i32::from(bounds.y1()));
    let (wx, wy) = (i32::from(want.0), i32::from(want.1));
    let free = |x: i32, y: i32| {
        x >= x0
            && x < x1
            && site_legal(kind, x as u16)
            && occupancy.get((x as u16, y as u16)).is_none()
    };
    for r in 0..i32::from(bounds.w.max(bounds.h)) {
        for y in (wy - r).max(y0)..=(wy + r).min(y1 - 1) {
            let hit = if (y - wy).abs() == r {
                ((wx - r).max(x0)..=(wx + r).min(x1 - 1)).find(|&x| free(x, y))
            } else {
                [wx - r, wx + r].into_iter().find(|&x| free(x, y))
            };
            if let Some(x) = hit {
                return (x as u16, y as u16);
            }
        }
    }
    panic!("no free site for cell kind {kind:?} in {bounds:?}");
}

/// Grid distance between two sites (the integer behind
/// [`Placement::dist`]).
fn manhattan(a: (u16, u16), b: (u16, u16)) -> i64 {
    i64::from(a.0.abs_diff(b.0)) + i64::from(a.1.abs_diff(b.1))
}

/// The mutable state of one placement: cell locations, the region's site
/// occupancy, and the neighbour lists the move deltas read.
struct Placer<'a> {
    netlist: &'a Netlist,
    neighbours: Neighbours,
    placement: Placement,
    occupancy: Occupancy,
}

impl Placer<'_> {
    /// Exact change of the star wirelength around `cell` when it moves
    /// from `from` to `to` while its neighbours stay put. Arcs to `cell`
    /// itself (self-loops) and to `partner` — the cell trading places with
    /// it, or `cell` again for a plain move — keep their length and are
    /// skipped.
    fn shift_delta(&self, cell: CellId, partner: CellId, from: (u16, u16), to: (u16, u16)) -> i64 {
        let mut delta = 0;
        for &nb in self.neighbours.of(cell) {
            if nb != cell.0 && nb != partner.0 {
                let at = self.placement.loc(CellId(nb));
                delta += manhattan(to, at) - manhattan(from, at);
            }
        }
        delta
    }

    /// Change of star wirelength — the sum of driver-to-sink distances of
    /// every arc touching a moved cell — when `a` moves from `from` to
    /// `to`, swapping with `to`'s occupant `b` if there is one. Unlike
    /// HPWL, star wirelength gives every sink of a high-fanout net a
    /// gradient toward its driver, so broadcast clouds compact into the
    /// dense `sqrt(fanout)` disc that site exclusivity permits — the
    /// physical effect under study. One pass over the touched arcs; the
    /// integer sum equals after-minus-before of the two cells' full
    /// adjacent wirelengths exactly.
    fn move_delta(&self, a: CellId, b: Option<CellId>, from: (u16, u16), to: (u16, u16)) -> i64 {
        match b {
            Some(b) => self.shift_delta(a, b, from, to) + self.shift_delta(b, a, to, from),
            None => self.shift_delta(a, a, from, to),
        }
    }

    /// Moves `a` from `from` to `to`; `to`'s occupant `b`, if any, takes
    /// `from`.
    fn relocate(&mut self, a: CellId, b: Option<CellId>, from: (u16, u16), to: (u16, u16)) {
        self.placement.set_loc(a, to);
        self.occupancy.put(to, a);
        match b {
            Some(b) => {
                self.placement.set_loc(b, from);
                self.occupancy.put(from, b);
            }
            None => self.occupancy.clear(from),
        }
    }

    fn anneal(&mut self, region: u16, seed: u64, config: AnnealConfig) {
        let n = self.netlist.cell_count();
        if n < 2 {
            return;
        }
        let bounds = self.occupancy.bounds;
        let mut rng = Rng::seed_from_u64(seed);
        let total_moves = (config.moves_per_cell as usize * n)
            .clamp(config.min_moves as usize, config.max_moves as usize);
        let moves_per_batch = (total_moves / config.batches.max(1) as usize).max(1);

        // Initial temperature: on the scale of a typical per-move cost
        // delta (a few grid units), NOT of the region: the levelized seed
        // is already structured and a hot start would randomize it.
        let mut temp = 2.0;
        let mut window = (f64::from(region) * 0.3).max(6.0);

        for _ in 0..config.batches {
            for _ in 0..moves_per_batch {
                let a = CellId(rng.gen_index(n) as u32);
                let kind_a = self.netlist.cell(a).kind;
                let (ax, ay) = self.placement.loc(a);
                let w = i64::from(window.max(2.0) as i32);
                let tx = (i64::from(ax) + rng.gen_i64(-w, w))
                    .clamp(i64::from(bounds.x0), i64::from(bounds.x1()) - 1)
                    as u16;
                let ty = (i64::from(ay) + rng.gen_i64(-w, w))
                    .clamp(i64::from(bounds.y0), i64::from(bounds.y1()) - 1)
                    as u16;
                let target = (snap_column_in(kind_a, tx, bounds.x0, bounds.x1()), ty);
                if target == (ax, ay) || !site_legal(kind_a, target.0) {
                    continue;
                }

                let other = self.occupancy.get(target);
                // Swap legality: the occupant must be allowed at a's site.
                if other.is_some_and(|b| !site_legal(self.netlist.cell(b).kind, ax)) {
                    continue;
                }
                let delta = self.move_delta(a, other, (ax, ay), target) as f64;
                if delta <= 0.0 || rng.gen_f64() < (-delta / temp).exp() {
                    self.relocate(a, other, (ax, ay), target);
                }
            }
            temp *= config.cooling;
            window = (window * 0.93).max(2.0);
        }

        self.polish();
    }

    /// Zero-temperature polish: every cell is offered its
    /// neighbourhood-median site (the star-wirelength optimum); the move —
    /// or a swap with the occupant — is taken when total adjacent
    /// wirelength drops. This kills the distance *outliers* annealing
    /// leaves behind, which otherwise set the critical path of deep
    /// pipelines.
    fn polish(&mut self) {
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for _sweep in 0..3 {
            let mut improved = false;
            for (a, cell) in self.netlist.cells() {
                let Some(target) = self.median_site(a, cell.kind, &mut xs, &mut ys) else {
                    continue;
                };
                let old = self.placement.loc(a);
                if target == old {
                    continue;
                }
                let other = self.occupancy.get(target);
                if other.is_some_and(|b| !site_legal(self.netlist.cell(b).kind, old.0)) {
                    continue;
                }
                if self.move_delta(a, other, old, target) < 0 {
                    self.relocate(a, other, old, target);
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }

    /// The legal site closest to the median of a cell's connected
    /// neighbours, clamped into the region. `xs`/`ys` are scratch.
    fn median_site(
        &self,
        cell: CellId,
        kind: CellKind,
        xs: &mut Vec<u16>,
        ys: &mut Vec<u16>,
    ) -> Option<(u16, u16)> {
        xs.clear();
        ys.clear();
        for &nb in self.neighbours.of(cell) {
            if nb != cell.0 {
                let (x, y) = self.placement.loc(CellId(nb));
                xs.push(x);
                ys.push(y);
            }
        }
        if xs.is_empty() {
            return None;
        }
        xs.sort_unstable();
        ys.sort_unstable();
        let bounds = self.occupancy.bounds;
        let x = snap_column_in(kind, xs[xs.len() / 2], bounds.x0, bounds.x1());
        Some((x, ys[ys.len() / 2].clamp(bounds.y0, bounds.y1() - 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_netlist::Cell;
    use std::collections::HashSet;

    fn chain(n: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_cell(Cell::ff("c0", 8));
        for i in 1..n {
            let c = nl.add_cell(Cell::comb(format!("c{i}"), 8, 0.4, 8));
            nl.connect(prev, &[c]);
            prev = c;
        }
        nl
    }

    #[test]
    fn placement_is_deterministic() {
        let nl = chain(50);
        let d = Device::ultrascale_plus_vu9p();
        let p1 = place(&nl, &d, 7);
        let p2 = place(&nl, &d, 7);
        assert_eq!(p1, p2);
    }

    #[test]
    fn different_seeds_differ() {
        let nl = chain(50);
        let d = Device::ultrascale_plus_vu9p();
        let p1 = place(&nl, &d, 1);
        let p2 = place(&nl, &d, 2);
        assert_ne!(p1, p2);
    }

    #[test]
    fn all_cells_in_bounds_and_exclusive() {
        let nl = chain(200);
        let d = Device::zynq_zc706();
        let p = place(&nl, &d, 3);
        assert!(p.in_bounds());
        let mut seen = std::collections::HashSet::new();
        for (id, _) in nl.cells() {
            assert!(seen.insert(p.loc(id)), "site collision at {:?}", p.loc(id));
        }
    }

    #[test]
    fn bram_cells_sit_in_bram_columns() {
        let mut nl = Netlist::new("mem");
        let src = nl.add_cell(Cell::ff("src", 32));
        let brams: Vec<_> = (0..20)
            .map(|i| nl.add_cell(Cell::bram(format!("b{i}"), 32, 4)))
            .collect();
        nl.connect(src, &brams);
        let d = Device::ultrascale_plus_vu9p();
        let p = place(&nl, &d, 11);
        for &b in &brams {
            assert!(site_legal(CellKind::Bram, p.loc(b).0));
        }
    }

    #[test]
    fn annealing_does_not_blow_up_wirelength() {
        // The annealer should leave a short chain reasonably compact.
        let nl = chain(30);
        let d = Device::ultrascale_plus_vu9p();
        let p = place(&nl, &d, 5);
        let total = p.total_hpwl(&nl);
        assert!(total < 30.0 * 40.0, "chain HPWL {total} looks unoptimized");
    }

    #[test]
    fn broadcast_sinks_must_spread() {
        // 64 sinks of one net cannot all sit adjacent to the driver:
        // exclusivity forces a spread that grows with fanout.
        let mut nl = Netlist::new("bcast");
        let src = nl.add_cell(Cell::ff("src", 32));
        let sinks: Vec<_> = (0..64)
            .map(|i| nl.add_cell(Cell::comb(format!("s{i}"), 32, 0.4, 32)))
            .collect();
        nl.connect(src, &sinks);
        let d = Device::ultrascale_plus_vu9p();
        let p = place(&nl, &d, 9);
        let max_dist = sinks.iter().map(|&s| p.dist(src, s)).fold(0.0f64, f64::max);
        assert!(
            max_dist >= 4.0,
            "64 exclusive sites imply spread, got {max_dist}"
        );
    }

    #[test]
    fn empty_netlist_is_ok() {
        let nl = Netlist::new("empty");
        let p = place(&nl, &Device::virtex7(), 0);
        assert!(p.is_empty());
    }

    #[test]
    fn region_placement_confines_and_stays_legal() {
        let nl = chain(120);
        let d = Device::ultrascale_plus_vu9p();
        let region = Region {
            x0: 40,
            y0: 10,
            w: 24,
            h: 60,
        };
        let p = place_in_region(&nl, &d, region, 7, AnnealConfig::default());
        let mut seen = std::collections::HashSet::new();
        for (id, cell) in nl.cells() {
            let loc = p.loc(id);
            assert!(region.contains(loc), "cell {id} at {loc:?} left {region:?}");
            assert!(site_legal(cell.kind, loc.0));
            assert!(seen.insert(loc), "site collision at {loc:?}");
        }
    }

    #[test]
    fn region_placement_is_a_pure_function_of_inputs() {
        let nl = chain(80);
        let d = Device::ultrascale_plus_vu9p();
        let region = Region {
            x0: 12,
            y0: 0,
            w: 20,
            h: 120,
        };
        let a = place_in_region(&nl, &d, region, 3, AnnealConfig::default());
        let b = place_in_region(&nl, &d, region, 3, AnnealConfig::default());
        assert_eq!(a, b);
        let c = place_in_region(&nl, &d, region, 4, AnnealConfig::default());
        assert_ne!(a, c);
    }

    #[test]
    fn full_grid_region_matches_flat_placement() {
        // The flat path is the full-grid special case of the region path:
        // the same arithmetic must fall out of both entry points.
        let nl = chain(100);
        let d = Device::zynq_zc706();
        let flat = place_with(&nl, &d, 9, AnnealConfig::default());
        let region = place_in_region(&nl, &d, Region::full(&d), 9, AnnealConfig::default());
        assert_eq!(flat, region);
    }

    #[test]
    fn region_fits_bram_and_dsp_kinds() {
        let mut nl = Netlist::new("mix");
        let src = nl.add_cell(Cell::ff("src", 32));
        let mut sinks = Vec::new();
        for i in 0..6 {
            sinks.push(nl.add_cell(Cell::bram(format!("b{i}"), 32, 1)));
            sinks.push(nl.add_cell(Cell::dsp(format!("d{i}"), 32, 2.0, 1)));
        }
        nl.connect(src, &sinks);
        let d = Device::ultrascale_plus_vu9p();
        // Minimum-width strip: still holds one BRAM and one DSP column.
        let region = Region {
            x0: 7,
            y0: 0,
            w: 12,
            h: 120,
        };
        let p = place_in_region(&nl, &d, region, 5, AnnealConfig::default());
        for (id, cell) in nl.cells() {
            assert!(region.contains(p.loc(id)));
            assert!(site_legal(cell.kind, p.loc(id).0), "{}", cell.name);
        }
    }

    /// The square scan [`free_site_near`] replaced: every site of the
    /// `(2r+1)²` square around `want`, ring sites only, row-major.
    fn square_scan(
        kind: CellKind,
        want: (u16, u16),
        bounds: Region,
        occupied: &HashSet<(u16, u16)>,
    ) -> (u16, u16) {
        let (wx, wy) = want;
        for radius in 0..bounds.w.max(bounds.h) {
            let r = i32::from(radius);
            for dy in -r..=r {
                for dx in -r..=r {
                    if dx.abs().max(dy.abs()) != r {
                        continue; // ring only
                    }
                    let x = i32::from(wx) + dx;
                    let y = i32::from(wy) + dy;
                    if x < i32::from(bounds.x0)
                        || y < i32::from(bounds.y0)
                        || x >= i32::from(bounds.x1())
                        || y >= i32::from(bounds.y1())
                    {
                        continue;
                    }
                    let loc = (x as u16, y as u16);
                    if site_legal(kind, loc.0) && !occupied.contains(&loc) {
                        return loc;
                    }
                }
            }
        }
        panic!("no free site for cell kind {kind:?} in {bounds:?}");
    }

    /// The per-cell cost the one-pass delta replaced: star wirelength of
    /// every arc touching `cell`, recomputed from scratch.
    fn adjacent_cost(netlist: &Netlist, placement: &Placement, cell: CellId) -> f64 {
        let mut cost = 0.0;
        if let Some(net) = netlist.output_net(cell) {
            for &s in &netlist.net(net).sinks {
                cost += placement.dist(cell, s);
            }
        }
        for &net in netlist.input_nets(cell) {
            cost += placement.dist(netlist.net(net).driver, cell);
        }
        cost
    }

    const ALL_KINDS: [CellKind; 7] = [
        CellKind::Ff,
        CellKind::Comb,
        CellKind::Dsp,
        CellKind::Bram,
        CellKind::Input,
        CellKind::Output,
        CellKind::Const,
    ];

    #[test]
    fn ring_walk_matches_square_scan() {
        let regions = [
            Region {
                x0: 0,
                y0: 0,
                w: 48,
                h: 40,
            },
            Region {
                x0: 7,
                y0: 0,
                w: 12,
                h: 90,
            },
            Region {
                x0: 33,
                y0: 17,
                w: 3,
                h: 25,
            },
            Region {
                x0: 40,
                y0: 5,
                w: 30,
                h: 1,
            },
        ];
        let mut rng = Rng::seed_from_u64(0x0517_e5ea);
        for bounds in regions {
            for density in [0.0, 0.4, 0.8, 0.97] {
                let mut occupancy = Occupancy::new(bounds);
                let mut occupied = HashSet::new();
                for y in bounds.y0..bounds.y1() {
                    for x in bounds.x0..bounds.x1() {
                        if rng.gen_f64() < density {
                            occupancy.put((x, y), CellId(occupied.len() as u32));
                            occupied.insert((x, y));
                        }
                    }
                }
                let (x1, y1) = (bounds.x1() - 1, bounds.y1() - 1);
                let mut wants = vec![
                    (bounds.x0, bounds.y0),
                    (x1, bounds.y0),
                    (bounds.x0, y1),
                    (x1, y1),
                    (bounds.x0 + bounds.w / 2, bounds.y0),
                    (bounds.x0, bounds.y0 + bounds.h / 2),
                    (x1, bounds.y0 + bounds.h / 2),
                    (bounds.x0 + bounds.w / 2, y1),
                ];
                for _ in 0..8 {
                    wants.push((
                        bounds.x0 + rng.gen_index(usize::from(bounds.w)) as u16,
                        bounds.y0 + rng.gen_index(usize::from(bounds.h)) as u16,
                    ));
                }
                for kind in ALL_KINDS {
                    let any_free = (bounds.y0..bounds.y1()).any(|y| {
                        (bounds.x0..bounds.x1())
                            .any(|x| site_legal(kind, x) && !occupied.contains(&(x, y)))
                    });
                    if !any_free {
                        continue;
                    }
                    for &want in &wants {
                        assert_eq!(
                            free_site_near(kind, want, &occupancy),
                            square_scan(kind, want, bounds, &occupied),
                            "{kind:?} want {want:?} in {bounds:?} at density {density}"
                        );
                    }
                }
            }
        }
    }

    /// A placer over `nl` with every cell on a distinct random site of
    /// `bounds`.
    fn scattered<'a>(nl: &'a Netlist, bounds: Region, rng: &mut Rng) -> Placer<'a> {
        let mut sites: Vec<(u16, u16)> = (bounds.y0..bounds.y1())
            .flat_map(|y| (bounds.x0..bounds.x1()).map(move |x| (x, y)))
            .collect();
        for i in (1..sites.len()).rev() {
            sites.swap(i, rng.gen_index(i + 1));
        }
        sites.truncate(nl.cell_count());
        let mut occupancy = Occupancy::new(bounds);
        for (i, &loc) in sites.iter().enumerate() {
            occupancy.put(loc, CellId(i as u32));
        }
        Placer {
            netlist: nl,
            neighbours: Neighbours::new(nl),
            placement: Placement::from_locs(sites, 200, 200),
            occupancy,
        }
    }

    /// `after − before` of the old full adjacent costs for moving `a` to
    /// `to`, swapping with the occupant `b`.
    fn reference_delta(placer: &Placer<'_>, a: CellId, b: Option<CellId>, to: (u16, u16)) -> f64 {
        let nl = placer.netlist;
        let cost =
            |p: &Placement| adjacent_cost(nl, p, a) + b.map_or(0.0, |b| adjacent_cost(nl, p, b));
        let before = cost(&placer.placement);
        let mut moved = placer.placement.clone();
        let from = moved.loc(a);
        moved.set_loc(a, to);
        if let Some(b) = b {
            moved.set_loc(b, from);
        }
        cost(&moved) - before
    }

    #[test]
    fn one_pass_delta_matches_adjacent_cost_difference() {
        let bounds = Region {
            x0: 3,
            y0: 5,
            w: 9,
            h: 8,
        };
        for seed in 0..24 {
            let mut rng = Rng::seed_from_u64(seed);
            let n = 40;
            let mut nl = Netlist::new("random");
            for i in 0..n {
                nl.add_cell(Cell::comb(format!("c{i}"), 8, 0.3, 8));
            }
            for d in 0..n {
                if rng.gen_bool(0.25) {
                    continue;
                }
                // Random sinks: repeats and self-loops included.
                let sinks: Vec<CellId> = (0..1 + rng.gen_index(7))
                    .map(|_| CellId(rng.gen_index(n) as u32))
                    .collect();
                nl.connect(CellId(d as u32), &sinks);
            }
            let mut placer = scattered(&nl, bounds, &mut rng);
            for _ in 0..300 {
                let a = CellId(rng.gen_index(n) as u32);
                let from = placer.placement.loc(a);
                let to = (
                    bounds.x0 + rng.gen_index(usize::from(bounds.w)) as u16,
                    bounds.y0 + rng.gen_index(usize::from(bounds.h)) as u16,
                );
                if to == from {
                    continue;
                }
                let b = placer.occupancy.get(to);
                assert_eq!(
                    placer.move_delta(a, b, from, to) as f64,
                    reference_delta(&placer, a, b, to),
                    "seed {seed}: {a} {from:?} -> {to:?} (occupant {b:?})"
                );
                if rng.gen_bool(0.5) {
                    placer.relocate(a, b, from, to);
                }
            }
        }
    }

    #[test]
    fn one_pass_delta_handles_loops_repeats_and_driver_sink_swaps() {
        // d drives s twice and itself; s drives d back; t hangs off s.
        let mut nl = Netlist::new("loops");
        let d = nl.add_cell(Cell::ff("d", 8));
        let s = nl.add_cell(Cell::comb("s", 8, 0.3, 8));
        let t = nl.add_cell(Cell::ff("t", 8));
        nl.connect(d, &[s, s, d]);
        nl.connect(s, &[d, t, t]);
        let bounds = Region {
            x0: 0,
            y0: 0,
            w: 6,
            h: 6,
        };
        let mut placer = scattered(&nl, bounds, &mut Rng::seed_from_u64(1));
        for (a, b) in [(d, s), (s, d), (d, t), (s, t), (t, d)] {
            // A swap of every pair, including a driver with its own sink.
            let (from, to) = (placer.placement.loc(a), placer.placement.loc(b));
            assert_eq!(
                placer.move_delta(a, Some(b), from, to) as f64,
                reference_delta(&placer, a, Some(b), to),
                "swap {a} <-> {b}"
            );
            // And a plain move of `a` to every free site.
            for y in 0..6 {
                for x in 0..6 {
                    if placer.occupancy.get((x, y)).is_none() {
                        assert_eq!(
                            placer.move_delta(a, None, from, (x, y)) as f64,
                            reference_delta(&placer, a, None, (x, y)),
                            "move {a} -> ({x}, {y})"
                        );
                    }
                }
            }
            placer.relocate(a, Some(b), from, to);
        }
    }
}
