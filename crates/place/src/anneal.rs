//! Levelized seed placement + simulated-annealing refinement.
//!
//! Every placement runs through one region-parameterized core,
//! [`SeedPlacement`]: it builds the levelized seed of a netlist in a
//! [`Region`] once, and [`SeedPlacement::anneal`] refines a copy of it
//! per seed — moves and the zero-temperature polish stay in the region.
//! [`place_with`] is the full-grid case (the classic flat flow) and
//! [`place_in_region`] the per-island mode of partitioned placement
//! (`crate::partition`), so flat results are bit-identical to what the
//! pre-partitioning placer produced.

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

impl AnnealConfig {
    /// The reduced schedule for tests and quick iterations (the flow's
    /// Fast placement effort): 12 moves per cell in 25 batches cooled by
    /// 0.8, clamped to 3 000–60 000 moves.
    pub fn fast() -> Self {
        AnnealConfig {
            moves_per_cell: 12,
            min_moves: 3_000,
            max_moves: 60_000,
            cooling: 0.8,
            batches: 25,
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
    SeedPlacement::new(netlist, device, Region::full(device)).anneal(seed, config)
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
    SeedPlacement::new(netlist, device, region).anneal(seed, config)
}

/// The seed-independent half of a placement: the levelized seed of one
/// netlist in one region, plus everything the annealer reads and never
/// writes (neighbour lists, legality classes, column tables). Build it
/// once per netlist and [`anneal`](SeedPlacement::anneal) it once per
/// seed. It owns all of its data, so trials on other threads share it
/// while the netlist itself moves elsewhere.
#[derive(Debug)]
pub struct SeedPlacement {
    wiring: Wiring,
    /// Side of the seed window: the scale of the first move window.
    window: u16,
    placement: Placement,
    occupancy: Occupancy,
}

impl SeedPlacement {
    /// Seeds `netlist` in `region` (absolute coordinates; the full grid
    /// for flat placement).
    ///
    /// # Panics
    ///
    /// Panics if a non-empty netlist does not fit in the region (one
    /// cell per two sites), or if the region leaves the device grid.
    pub fn new(netlist: &Netlist, device: &Device, region: Region) -> Self {
        let n = netlist.cell_count();
        if n > 0 {
            assert!(
                u32::from(region.x1()) <= device.grid_w && u32::from(region.y1()) <= device.grid_h,
                "region {region:?} leaves the {} grid",
                device.name
            );
            assert!(
                (n as u64) < region.sites() / 2,
                "netlist ({n} cells) does not fit in region {region:?} of {}",
                device.name
            );
        }
        // Confine small designs to a proportionate region: spreading a tiny
        // netlist across the whole die (or island across the whole strip)
        // would fabricate wire delay out of thin air. Real placers pack
        // designs into a fraction of the fabric too.
        let side = ((3 * n) as f64).sqrt().ceil() as u16 + 4;
        let rw = side.max(8).min(region.w);
        let rh = side.max(8).min(region.h);

        let wiring = Wiring::new(netlist, region);
        let mut occupancy = Occupancy::new(region);
        let placement = seed_placement(netlist, device, &wiring.columns, rw, rh, &mut occupancy);
        SeedPlacement {
            wiring,
            window: rw.max(rh),
            placement,
            occupancy,
        }
    }

    /// Anneals a copy of the seed with `seed`'s move stream and polishes
    /// it. Pure function of `(netlist, region, seed, config)`.
    pub fn anneal(&self, seed: u64, config: AnnealConfig) -> Placement {
        let mut placer = self.placer();
        placer.anneal(self.window, seed, config);
        placer.placement
    }

    /// A placer starting from a copy of the seed.
    fn placer(&self) -> Placer<'_> {
        Placer {
            wiring: &self.wiring,
            placement: self.placement.clone(),
            occupancy: self.occupancy.clone(),
        }
    }
}

/// Marks an empty site in [`Occupancy`].
const FREE: u32 = u32::MAX;

/// Site occupancy of a placement region: one slot per site, row-major
/// from the region's corner, holding the occupant's cell index or
/// [`FREE`].
#[derive(Debug, Clone)]
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
/// sinks appear as often as the netlist lists them; self-loops, whose
/// length never changes, are left out. Adjacency is symmetric: `b`
/// appears in `a`'s list exactly as often as `a` in `b`'s.
#[derive(Debug)]
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
            let other = |nb: &u32| *nb != id.0;
            if let Some(net) = netlist.output_net(id) {
                cells.extend(netlist.net(net).sinks.iter().map(|s| s.0).filter(other));
            }
            cells.extend(
                netlist
                    .input_nets(id)
                    .iter()
                    .map(|&net| netlist.net(net).driver.0)
                    .filter(other),
            );
            start.push(cells.len() as u32);
        }
        Neighbours { start, cells }
    }

    fn of(&self, cell: CellId) -> &[u32] {
        &self.cells[self.start[cell.index()] as usize..self.start[cell.index() + 1] as usize]
    }

    /// How often `b` appears in `a`'s list, counted in the shorter of
    /// the two lists (adjacency is symmetric).
    fn multiplicity(&self, a: CellId, b: CellId) -> i64 {
        let (list, of) = if self.of(b).len() <= self.of(a).len() {
            (self.of(b), a)
        } else {
            (self.of(a), b)
        };
        list.iter().filter(|&&nb| nb == of.0).count() as i64
    }
}

/// One representative kind per legality class: BRAM and DSP cells have
/// dedicated columns, every other kind shares the logic columns. The
/// index into this array is the class [`class_of`] returns.
const CLASS_KINDS: [CellKind; 3] = [CellKind::Bram, CellKind::Dsp, CellKind::Comb];

/// The legality class of a kind: [`site_legal`] and [`snap_column_in`]
/// depend on a kind through its class alone.
fn class_of(kind: CellKind) -> u8 {
    match kind {
        CellKind::Bram => 0,
        CellKind::Dsp => 1,
        _ => 2,
    }
}

/// [`snap_column_in`] and [`site_legal`] of each legality class over the
/// columns of a region, so a move reads two table entries instead of
/// searching for a legal column.
#[derive(Debug)]
struct Columns {
    x0: u16,
    w: usize,
    /// `snap[class * w + x - x0]`: the region's snap of column `x`.
    snap: Vec<u16>,
    /// `legal[class * w + x - x0]`: whether column `x` is legal.
    legal: Vec<bool>,
}

impl Columns {
    fn new(bounds: Region) -> Self {
        let (x0, x1) = (bounds.x0, bounds.x1());
        let (mut snap, mut legal) = (Vec::new(), Vec::new());
        for kind in CLASS_KINDS {
            snap.extend((x0..x1).map(|x| snap_column_in(kind, x, x0, x1)));
            legal.extend((x0..x1).map(|x| site_legal(kind, x)));
        }
        Columns {
            x0,
            w: usize::from(bounds.w),
            snap,
            legal,
        }
    }

    fn at(&self, class: u8, x: u16) -> usize {
        debug_assert!(
            usize::from(x - self.x0) < self.w,
            "column {x} outside region"
        );
        usize::from(class) * self.w + usize::from(x - self.x0)
    }

    /// `snap_column_in` for column `x` of the region.
    fn snap(&self, class: u8, x: u16) -> u16 {
        self.snap[self.at(class, x)]
    }

    /// `site_legal` for column `x` of the region.
    fn legal(&self, class: u8, x: u16) -> bool {
        self.legal[self.at(class, x)]
    }
}

/// What every anneal of one netlist in one region reads and none writes.
#[derive(Debug)]
struct Wiring {
    neighbours: Neighbours,
    /// Each cell's legality class.
    class: Vec<u8>,
    columns: Columns,
}

impl Wiring {
    fn new(netlist: &Netlist, bounds: Region) -> Self {
        Wiring {
            neighbours: Neighbours::new(netlist),
            class: netlist.cells().map(|(_, c)| class_of(c.kind)).collect(),
            columns: Columns::new(bounds),
        }
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
    columns: &Columns,
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
        let x = columns.snap(class_of(cell.kind), x);
        by_col.entry(x).or_default().push(id);
    }

    let mut locs = vec![(0u16, 0u16); n];
    let mut free = FreeSites::new(columns, bounds);
    for (&x, cells) in &by_col {
        let count = cells.len() as f64;
        for (i, &c) in cells.iter().enumerate() {
            let y = bounds.y0 + (((i as f64 + 0.5) / count) * f64::from(rh)) as u16;
            let want = (x, y.min(bounds.y1() - 1));
            let kind = netlist.cell(c).kind;
            let loc = free
                .nearest(class_of(kind), want)
                .unwrap_or_else(|| panic!("no free site for cell kind {kind:?} in {bounds:?}"));
            free.take(loc);
            occupancy.put(loc, c);
            locs[c.index()] = loc;
        }
    }
    Placement::from_locs(locs, device.grid_w, device.grid_h)
}

/// The free legal sites of a region for the seed's nearest-site search:
/// per legality class and row, a bitset over the region's columns. The
/// seed only fills sites, so a site leaves its set once and never
/// returns.
struct FreeSites {
    bounds: Region,
    /// `u64` words per bitset row.
    words: usize,
    /// Row `(class * h + y - y0)` holds bit `x - x0` while site `(x, y)`
    /// is free and legal for the class.
    bits: Vec<u64>,
}

impl FreeSites {
    fn new(columns: &Columns, bounds: Region) -> Self {
        let words = usize::from(bounds.w).div_ceil(64);
        let mut row = vec![0u64; words];
        let mut bits = Vec::with_capacity(CLASS_KINDS.len() * usize::from(bounds.h) * words);
        for class in 0..CLASS_KINDS.len() as u8 {
            row.fill(0);
            for x in bounds.x0..bounds.x1() {
                if columns.legal(class, x) {
                    let i = usize::from(x - bounds.x0);
                    row[i / 64] |= 1 << (i % 64);
                }
            }
            for _ in 0..bounds.h {
                bits.extend_from_slice(&row);
            }
        }
        FreeSites {
            bounds,
            words,
            bits,
        }
    }

    fn row(&self, class: u8, y: u16) -> &[u64] {
        let r = usize::from(class) * usize::from(self.bounds.h) + usize::from(y - self.bounds.y0);
        &self.bits[r * self.words..][..self.words]
    }

    /// Marks a site taken (in every class; a site is legal for one).
    fn take(&mut self, (x, y): (u16, u16)) {
        let i = usize::from(x - self.bounds.x0);
        for class in 0..CLASS_KINDS.len() {
            let r = class * usize::from(self.bounds.h) + usize::from(y - self.bounds.y0);
            self.bits[r * self.words + i / 64] &= !(1 << (i % 64));
        }
    }

    /// The free legal site nearest to `want` (a site of the region):
    /// least Chebyshev distance, then least row, then least column —
    /// the first hit of a ring-by-ring, row-major scan around `want`.
    /// Rows are visited outward from `want`'s, each answering its own
    /// best site from its bitset, until a row's distance alone exceeds
    /// the best found.
    fn nearest(&self, class: u8, want: (u16, u16)) -> Option<(u16, u16)> {
        let b = self.bounds;
        let (wx, wy) = (usize::from(want.0 - b.x0), usize::from(want.1 - b.y0));
        let h = usize::from(b.h);
        // Best as (distance, row, column), all region-relative.
        let mut best: Option<(usize, usize, usize)> = None;
        for dy in 0..h {
            if best.is_some_and(|(d, _, _)| dy > d) {
                break;
            }
            let rows = [
                wy.checked_sub(dy),
                Some(wy + dy).filter(|&y| y < h && dy > 0),
            ];
            for y in rows.into_iter().flatten() {
                let Some((d, x)) = row_nearest(self.row(class, b.y0 + y as u16), wx, dy) else {
                    continue;
                };
                if best.is_none_or(|best| (d, y, x) < best) {
                    best = Some((d, y, x));
                }
            }
        }
        best.map(|(_, y, x)| (b.x0 + x as u16, b.y0 + y as u16))
    }
}

/// The best free site of one row `dy` rows from the wanted one, as
/// `(Chebyshev distance, column)`: the leftmost set bit within `dy`
/// columns of `wx` (distance `dy`), else the nearer of the closest set
/// bits outside that window, the left one on a tie.
fn row_nearest(row: &[u64], wx: usize, dy: usize) -> Option<(usize, usize)> {
    if let Some(x) = next_set(row, wx.saturating_sub(dy)).filter(|&x| x <= wx + dy) {
        return Some((dy, x));
    }
    let left = (wx > dy).then(|| prev_set(row, wx - dy - 1)).flatten();
    let right = next_set(row, wx + dy + 1);
    match (left, right) {
        (Some(l), Some(r)) if r - wx < wx - l => Some((r - wx, r)),
        (Some(l), _) => Some((wx - l, l)),
        (None, Some(r)) => Some((r - wx, r)),
        (None, None) => None,
    }
}

/// The lowest set bit at or above `from`.
fn next_set(words: &[u64], from: usize) -> Option<usize> {
    let mut i = from / 64;
    let mut word = *words.get(i)? & (!0 << (from % 64));
    loop {
        if word != 0 {
            return Some(i * 64 + word.trailing_zeros() as usize);
        }
        i += 1;
        word = *words.get(i)?;
    }
}

/// The highest set bit at or below `to`.
fn prev_set(words: &[u64], to: usize) -> Option<usize> {
    let mut i = to / 64;
    let mut word = words[i] & (!0 >> (63 - to % 64));
    loop {
        if word != 0 {
            return Some(i * 64 + 63 - word.leading_zeros() as usize);
        }
        i = i.checked_sub(1)?;
        word = words[i];
    }
}

/// Finds the nearest free legal site to `want` within the occupancy's
/// region. Rings of growing Chebyshev radius `r` around `want` are
/// visited in row-major order: the top edge row left to right, then
/// `dx = -r` and `dx = r` of every middle row, then the bottom edge row.
/// The first hit is thus the first free legal site of a row-major scan
/// of the ring's bounding square, at O(r) cost per ring instead of
/// O(r²). [`FreeSites::nearest`] answers the same question from
/// bitsets; this walk is its reference.
#[cfg(test)]
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
fn manhattan(a: (u16, u16), b: (u16, u16)) -> i32 {
    i32::from(a.0.abs_diff(b.0)) + i32::from(a.1.abs_diff(b.1))
}

/// Uphill deltas below this bound read their acceptance probability
/// from [`Acceptance`]'s table.
const ACCEPT_TABLE: usize = 128;

/// The Metropolis acceptance probability `exp(-d / temp)` of an uphill
/// delta `d` at one batch's temperature. Small integer deltas are
/// computed on first use and then read from a table — the same
/// expression, so the same bits — and a batch that never sees a delta
/// computes nothing for it.
struct Acceptance {
    temp: f64,
    /// `exp(-d / temp)` of delta `d`, or `-1.0` before first use.
    table: [f64; ACCEPT_TABLE],
}

impl Acceptance {
    fn new(temp: f64) -> Self {
        Acceptance {
            temp,
            table: [-1.0; ACCEPT_TABLE],
        }
    }

    fn prob(&mut self, delta: i64) -> f64 {
        let temp = self.temp;
        let direct = |d: i64| (-(d as f64) / temp).exp();
        match self.table.get_mut(delta as usize) {
            Some(p) => {
                if *p < 0.0 {
                    *p = direct(delta);
                }
                *p
            }
            None => direct(delta),
        }
    }
}

/// The mutable state of one placement: cell locations and the region's
/// site occupancy, over the shared [`Wiring`].
struct Placer<'a> {
    wiring: &'a Wiring,
    placement: Placement,
    occupancy: Occupancy,
}

impl Placer<'_> {
    /// Exact change of the star wirelength around `cell` when it moves
    /// from `from` to `to` while its neighbours stay put. Arcs to
    /// `partner` — the cell trading places with it, or `cell` itself for
    /// a plain move, which never appears in its own list — keep their
    /// length and are skipped.
    fn shift_delta(&self, cell: CellId, partner: CellId, from: (u16, u16), to: (u16, u16)) -> i64 {
        let mut delta = 0i64;
        for &nb in self.wiring.neighbours.of(cell) {
            if nb != partner.0 {
                let at = self.placement.loc(CellId(nb));
                delta += i64::from(manhattan(to, at) - manhattan(from, at));
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
        let Wiring { class, columns, .. } = self.wiring;
        let n = class.len();
        if n < 2 {
            return;
        }
        let bounds = self.occupancy.bounds;
        let (x_lo, x_hi) = (i64::from(bounds.x0), i64::from(bounds.x1()) - 1);
        let (y_lo, y_hi) = (i64::from(bounds.y0), i64::from(bounds.y1()) - 1);
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
            let w = i64::from(window.max(2.0) as i32);
            let mut accept = Acceptance::new(temp);
            for _ in 0..moves_per_batch {
                let a = CellId(rng.gen_index(n) as u32);
                let class_a = class[a.index()];
                let (ax, ay) = self.placement.loc(a);
                let tx = (i64::from(ax) + rng.gen_i64(-w, w)).clamp(x_lo, x_hi) as u16;
                let ty = (i64::from(ay) + rng.gen_i64(-w, w)).clamp(y_lo, y_hi) as u16;
                let target = (columns.snap(class_a, tx), ty);
                if target == (ax, ay) || !columns.legal(class_a, target.0) {
                    continue;
                }

                let other = self.occupancy.get(target);
                // Swap legality: the occupant must be allowed at a's site.
                if other.is_some_and(|b| !columns.legal(class[b.index()], ax)) {
                    continue;
                }
                let delta = self.move_delta(a, other, (ax, ay), target);
                if delta <= 0 || rng.gen_f64() < accept.prob(delta) {
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
    /// pipelines. Heavy cells are priced through [`StarSums`], so a
    /// broadcast's sinks trading places with its driver cost O(log W)
    /// each instead of a walk over all of the driver's arcs.
    fn polish(&mut self) {
        let Wiring { class, columns, .. } = self.wiring;
        let mut sums = StarSums::new(self);
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for _sweep in 0..3 {
            let mut improved = false;
            for a in (0..class.len() as u32).map(CellId) {
                let Some(target) = self.median_site(a, &mut xs, &mut ys) else {
                    continue;
                };
                let old = self.placement.loc(a);
                if target == old {
                    continue;
                }
                let other = self.occupancy.get(target);
                if other.is_some_and(|b| !columns.legal(class[b.index()], old.0)) {
                    continue;
                }
                if sums.move_delta(self, a, other, old, target) < 0 {
                    sums.relocate(a, other, old, target);
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
        xs: &mut Vec<u16>,
        ys: &mut Vec<u16>,
    ) -> Option<(u16, u16)> {
        xs.clear();
        ys.clear();
        for &nb in self.wiring.neighbours.of(cell) {
            let (x, y) = self.placement.loc(CellId(nb));
            xs.push(x);
            ys.push(y);
        }
        if xs.is_empty() {
            return None;
        }
        // The upper median, in O(degree).
        let mid = xs.len() / 2;
        let x = *xs.select_nth_unstable(mid).1;
        let y = *ys.select_nth_unstable(mid).1;
        let bounds = self.occupancy.bounds;
        let x = self.wiring.columns.snap(self.wiring.class[cell.index()], x);
        Some((x, y.clamp(bounds.y0, bounds.y1() - 1)))
    }
}

/// Neighbour count from which the polish prices a cell's arcs through
/// [`StarSums`] instead of one arc at a time.
const HEAVY: usize = 32;

/// Marks a cell without trees in [`StarSums::tree_of`].
const LIGHT: u32 = u32::MAX;

/// Exact star distances of the polish's heavy cells. For each cell with
/// at least [`HEAVY`] neighbours, Fenwick trees of `(count, coordinate
/// sum)` over the region's columns and rows hold where its neighbours
/// sit, so `Σ |q − p|` over all of its arcs costs O(log W) instead of
/// O(degree). Built when the polish starts and kept current through a
/// reverse index as polish moves are taken.
struct StarSums {
    x0: u16,
    y0: u16,
    /// Region width: the column trees' length.
    w: usize,
    /// Column tree plus row tree: one heavy cell's block in `trees`.
    stride: usize,
    /// Each cell's heavy index, or [`LIGHT`].
    tree_of: Vec<u32>,
    /// One block of `stride` Fenwick entries per heavy cell: its
    /// columns, then its rows.
    trees: Vec<[i64; 2]>,
    /// Per heavy cell: neighbour count, x sum, y sum.
    totals: Vec<[i64; 3]>,
    /// Reverse index (CSR by cell): the heavy cells whose list holds the
    /// cell, with its multiplicity there.
    rev_start: Vec<u32>,
    rev: Vec<(u32, i64)>,
}

impl StarSums {
    fn new(placer: &Placer<'_>) -> Self {
        let neighbours = &placer.wiring.neighbours;
        let bounds = placer.occupancy.bounds;
        let w = usize::from(bounds.w);
        let stride = w + usize::from(bounds.h);
        let n = placer.wiring.class.len();
        let mut tree_of = vec![LIGHT; n];
        let (mut trees, mut totals, mut arcs) = (Vec::new(), Vec::new(), Vec::new());
        for (cell, heavy) in tree_of.iter_mut().enumerate() {
            let list = neighbours.of(CellId(cell as u32));
            if list.len() < HEAVY {
                continue;
            }
            let t = totals.len() as u32;
            *heavy = t;
            trees.resize(trees.len() + stride, [0, 0]);
            let (cols, rows) = trees[t as usize * stride..].split_at_mut(w);
            let mut total = [list.len() as i64, 0, 0];
            for &nb in list {
                let (x, y) = placer.placement.loc(CellId(nb));
                add_at(&mut cols[usize::from(x - bounds.x0)], 1, x);
                add_at(&mut rows[usize::from(y - bounds.y0)], 1, y);
                total[1] += i64::from(x);
                total[2] += i64::from(y);
                arcs.push((nb, t));
            }
            fenwick_build(cols);
            fenwick_build(rows);
            totals.push(total);
        }
        // Runs of equal (cell, heavy) arcs become one entry with their
        // length as multiplicity; cells without entries repeat the
        // previous start.
        arcs.sort_unstable();
        let mut rev_start = vec![0u32; n + 1];
        let mut rev = Vec::new();
        for run in arcs.chunk_by(|a, b| a == b) {
            let (cell, t) = run[0];
            rev.push((t, run.len() as i64));
            rev_start[cell as usize + 1] = rev.len() as u32;
        }
        for i in 1..=n {
            rev_start[i] = rev_start[i].max(rev_start[i - 1]);
        }
        StarSums {
            x0: bounds.x0,
            y0: bounds.y0,
            w,
            stride,
            tree_of,
            trees,
            totals,
            rev_start,
            rev,
        }
    }

    /// `Σ |q − p|` over the sites `p` of heavy cell `t`'s neighbours,
    /// with `q` a site of the region.
    fn star(&self, t: u32, q: (u16, u16)) -> i64 {
        let [count, sum_x, sum_y] = self.totals[t as usize];
        let (cols, rows) = self.trees[t as usize * self.stride..][..self.stride].split_at(self.w);
        axis_distance(cols, usize::from(q.0 - self.x0), q.0, count, sum_x)
            + axis_distance(rows, usize::from(q.1 - self.y0), q.1, count, sum_y)
    }

    /// [`Placer::shift_delta`], through the trees when `cell` is heavy:
    /// the change of its star distance, less the arcs to `partner`,
    /// whose length the swap keeps.
    fn shift_delta(
        &self,
        placer: &Placer<'_>,
        cell: CellId,
        partner: CellId,
        from: (u16, u16),
        to: (u16, u16),
    ) -> i64 {
        let t = self.tree_of[cell.index()];
        if t == LIGHT {
            return placer.shift_delta(cell, partner, from, to);
        }
        let mut delta = self.star(t, to) - self.star(t, from);
        if partner != cell {
            let m = placer.wiring.neighbours.multiplicity(cell, partner);
            if m > 0 {
                let at = placer.placement.loc(partner);
                delta -= m * i64::from(manhattan(to, at) - manhattan(from, at));
            }
        }
        delta
    }

    /// [`Placer::move_delta`], priced through the trees.
    fn move_delta(
        &self,
        placer: &Placer<'_>,
        a: CellId,
        b: Option<CellId>,
        from: (u16, u16),
        to: (u16, u16),
    ) -> i64 {
        match b {
            Some(b) => {
                self.shift_delta(placer, a, b, from, to) + self.shift_delta(placer, b, a, to, from)
            }
            None => self.shift_delta(placer, a, a, from, to),
        }
    }

    /// Records [`Placer::relocate`]'s move in every tree that holds `a`
    /// or `b`.
    fn relocate(&mut self, a: CellId, b: Option<CellId>, from: (u16, u16), to: (u16, u16)) {
        self.shift(a, from, to);
        if let Some(b) = b {
            self.shift(b, to, from);
        }
    }

    fn shift(&mut self, cell: CellId, from: (u16, u16), to: (u16, u16)) {
        let span = self.rev_start[cell.index()] as usize..self.rev_start[cell.index() + 1] as usize;
        for &(t, m) in &self.rev[span] {
            let block = &mut self.trees[t as usize * self.stride..][..self.stride];
            let (cols, rows) = block.split_at_mut(self.w);
            fenwick_add(cols, usize::from(from.0 - self.x0), -m, from.0);
            fenwick_add(cols, usize::from(to.0 - self.x0), m, to.0);
            fenwick_add(rows, usize::from(from.1 - self.y0), -m, from.1);
            fenwick_add(rows, usize::from(to.1 - self.y0), m, to.1);
            let total = &mut self.totals[t as usize];
            total[1] += m * (i64::from(to.0) - i64::from(from.0));
            total[2] += m * (i64::from(to.1) - i64::from(from.1));
        }
    }
}

/// `Σ |q − pᵢ|` along one axis from its Fenwick tree of `(count,
/// coordinate sum)`: `i` is `q`'s index in the tree, `count` and `sum`
/// the totals over the whole axis.
fn axis_distance(tree: &[[i64; 2]], i: usize, q: u16, count: i64, sum: i64) -> i64 {
    let [below, below_sum] = fenwick_prefix(tree, i);
    let q = i64::from(q);
    (q * below - below_sum) + (sum - below_sum - q * (count - below))
}

/// Adds `m` points at coordinate `coord` to one `(count, sum)` entry.
fn add_at(entry: &mut [i64; 2], m: i64, coord: u16) {
    entry[0] += m;
    entry[1] += m * i64::from(coord);
}

/// Turns per-index entries into a Fenwick tree in place, in O(len):
/// entry `k - 1` covers the one-based indices `(k - lowbit(k), k]`.
fn fenwick_build(tree: &mut [[i64; 2]]) {
    for k in 1..=tree.len() {
        let parent = k + (k & k.wrapping_neg());
        if parent <= tree.len() {
            let [c, s] = tree[k - 1];
            tree[parent - 1][0] += c;
            tree[parent - 1][1] += s;
        }
    }
}

/// Adds `m` points at coordinate `coord`, index `i`.
fn fenwick_add(tree: &mut [[i64; 2]], i: usize, m: i64, coord: u16) {
    let mut k = i + 1;
    while k <= tree.len() {
        add_at(&mut tree[k - 1], m, coord);
        k += k & k.wrapping_neg();
    }
}

/// `(count, sum)` over indices `0..=i`.
fn fenwick_prefix(tree: &[[i64; 2]], i: usize) -> [i64; 2] {
    let mut acc = [0, 0];
    let mut k = i + 1;
    while k > 0 {
        acc[0] += tree[k - 1][0];
        acc[1] += tree[k - 1][1];
        k &= k - 1;
    }
    acc
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
        assert_eq!(p, Placement::from_locs(Vec::new(), p.grid_w, p.grid_h));
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

    #[test]
    fn free_site_bitsets_match_ring_walk() {
        let mut rng = Rng::seed_from_u64(0x0b17_5e75);
        for bounds in column_table_regions() {
            let columns = Columns::new(bounds);
            for density in [0.0, 0.4, 0.8, 0.97] {
                let mut occupancy = Occupancy::new(bounds);
                let mut free = FreeSites::new(&columns, bounds);
                // Free legal sites left per class.
                let mut left = [0usize; 3];
                for y in bounds.y0..bounds.y1() {
                    for x in bounds.x0..bounds.x1() {
                        let class = (0..3).find(|&c| columns.legal(c, x)).expect("a class");
                        if rng.gen_f64() < density {
                            occupancy.put((x, y), CellId(0));
                            free.take((x, y));
                        } else {
                            left[usize::from(class)] += 1;
                        }
                    }
                }
                // Seeding order: ask, take the answer, ask again.
                for _ in 0..400 {
                    let kind = ALL_KINDS[rng.gen_index(ALL_KINDS.len())];
                    let class = class_of(kind);
                    let want = (
                        bounds.x0 + rng.gen_index(usize::from(bounds.w)) as u16,
                        bounds.y0 + rng.gen_index(usize::from(bounds.h)) as u16,
                    );
                    let got = free.nearest(class, want);
                    if left[usize::from(class)] == 0 {
                        assert_eq!(got, None, "{kind:?} want {want:?} in {bounds:?}");
                        continue;
                    }
                    let loc = free_site_near(kind, want, &occupancy);
                    assert_eq!(
                        got,
                        Some(loc),
                        "{kind:?} want {want:?} in {bounds:?} at density {density}"
                    );
                    occupancy.put(loc, CellId(0));
                    free.take(loc);
                    left[usize::from(class)] -= 1;
                }
            }
        }
    }

    /// A placer over `wiring` with every cell on a distinct random site
    /// of `bounds`.
    fn scattered<'a>(wiring: &'a Wiring, bounds: Region, rng: &mut Rng) -> Placer<'a> {
        let mut sites: Vec<(u16, u16)> = (bounds.y0..bounds.y1())
            .flat_map(|y| (bounds.x0..bounds.x1()).map(move |x| (x, y)))
            .collect();
        for i in (1..sites.len()).rev() {
            sites.swap(i, rng.gen_index(i + 1));
        }
        sites.truncate(wiring.class.len());
        let mut occupancy = Occupancy::new(bounds);
        for (i, &loc) in sites.iter().enumerate() {
            occupancy.put(loc, CellId(i as u32));
        }
        Placer {
            wiring,
            placement: Placement::from_locs(sites, 200, 200),
            occupancy,
        }
    }

    /// `after − before` of the old full adjacent costs for moving `a` to
    /// `to`, swapping with the occupant `b`.
    fn reference_delta(
        nl: &Netlist,
        placer: &Placer<'_>,
        a: CellId,
        b: Option<CellId>,
        to: (u16, u16),
    ) -> f64 {
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
            // A broadcast hub heavy enough for the polish's trees: 64+
            // sinks drawn with repeats, and a self-loop.
            let hub = CellId(rng.gen_index(n) as u32);
            let hub_sinks: Vec<CellId> = (0..64 + rng.gen_index(16))
                .map(|_| CellId(rng.gen_index(n) as u32))
                .chain([hub])
                .collect();
            nl.connect(hub, &hub_sinks);
            let wiring = Wiring::new(&nl, bounds);
            let mut placer = scattered(&wiring, bounds, &mut rng);
            let mut sums = StarSums::new(&placer);
            assert_ne!(
                sums.tree_of[hub.index()],
                LIGHT,
                "seed {seed}: hub is heavy"
            );
            for _ in 0..300 {
                let (a, to) = if rng.gen_bool(0.3) {
                    // A driver <-> sink swap across the hub, either way.
                    let sink = hub_sinks[rng.gen_index(hub_sinks.len())];
                    let (a, b) = if rng.gen_bool(0.5) {
                        (hub, sink)
                    } else {
                        (sink, hub)
                    };
                    (a, placer.placement.loc(b))
                } else {
                    let to = (
                        bounds.x0 + rng.gen_index(usize::from(bounds.w)) as u16,
                        bounds.y0 + rng.gen_index(usize::from(bounds.h)) as u16,
                    );
                    (CellId(rng.gen_index(n) as u32), to)
                };
                let from = placer.placement.loc(a);
                if to == from {
                    continue;
                }
                let b = placer.occupancy.get(to);
                let reference = reference_delta(&nl, &placer, a, b, to);
                assert_eq!(
                    placer.move_delta(a, b, from, to) as f64,
                    reference,
                    "seed {seed}: {a} {from:?} -> {to:?} (occupant {b:?})"
                );
                assert_eq!(
                    sums.move_delta(&placer, a, b, from, to) as f64,
                    reference,
                    "seed {seed}: priced by trees, {a} {from:?} -> {to:?} (occupant {b:?})"
                );
                if rng.gen_bool(0.5) {
                    sums.relocate(a, b, from, to);
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
        let wiring = Wiring::new(&nl, bounds);
        let mut placer = scattered(&wiring, bounds, &mut Rng::seed_from_u64(1));
        for (a, b) in [(d, s), (s, d), (d, t), (s, t), (t, d)] {
            // A swap of every pair, including a driver with its own sink.
            let (from, to) = (placer.placement.loc(a), placer.placement.loc(b));
            assert_eq!(
                placer.move_delta(a, Some(b), from, to) as f64,
                reference_delta(&nl, &placer, a, Some(b), to),
                "swap {a} <-> {b}"
            );
            // And a plain move of `a` to every free site.
            for y in 0..6 {
                for x in 0..6 {
                    if placer.occupancy.get((x, y)).is_none() {
                        assert_eq!(
                            placer.move_delta(a, None, from, (x, y)) as f64,
                            reference_delta(&nl, &placer, a, None, (x, y)),
                            "move {a} -> ({x}, {y})"
                        );
                    }
                }
            }
            placer.relocate(a, Some(b), from, to);
        }
    }

    /// The narrow regions of `ring_walk_matches_square_scan` plus each
    /// device's full grid.
    fn column_table_regions() -> Vec<Region> {
        let mut regions = vec![
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
            // Narrower than a column period: no BRAM or DSP column, so
            // the snap falls back to the clamped column.
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
        regions.extend(
            [
                Device::ultrascale_plus_vu9p(),
                Device::zynq_zc706(),
                Device::alveo_u50(),
                Device::virtex7(),
            ]
            .iter()
            .map(Region::full),
        );
        regions
    }

    #[test]
    fn column_tables_match_site_rules() {
        for bounds in column_table_regions() {
            let columns = Columns::new(bounds);
            for kind in ALL_KINDS {
                let class = class_of(kind);
                for x in bounds.x0..bounds.x1() {
                    assert_eq!(
                        columns.snap(class, x),
                        snap_column_in(kind, x, bounds.x0, bounds.x1()),
                        "{kind:?} snap of column {x} in {bounds:?}"
                    );
                    assert_eq!(
                        columns.legal(class, x),
                        site_legal(kind, x),
                        "{kind:?} legality of column {x} in {bounds:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn acceptance_table_matches_direct_formula() {
        for config in [AnnealConfig::default(), AnnealConfig::fast()] {
            let mut temp = 2.0;
            for batch in 0..config.batches {
                let mut accept = Acceptance::new(temp);
                // Twice: the first pass fills the table, the second reads it.
                for _ in 0..2 {
                    for d in 1..ACCEPT_TABLE as i64 + 8 {
                        assert_eq!(
                            accept.prob(d).to_bits(),
                            (-(d as f64) / temp).exp().to_bits(),
                            "delta {d} in batch {batch} at temperature {temp}"
                        );
                    }
                }
                temp *= config.cooling;
            }
        }
    }

    /// The polish the trees replaced: every arc priced one at a time,
    /// legality and snap read from the netlist's kinds.
    fn polish_per_arc(nl: &Netlist, placer: &mut Placer<'_>) {
        let bounds = placer.occupancy.bounds;
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for _sweep in 0..3 {
            let mut improved = false;
            for (a, cell) in nl.cells() {
                xs.clear();
                ys.clear();
                for &net in nl.output_net(a).iter() {
                    for &s in &nl.net(net).sinks {
                        if s != a {
                            xs.push(placer.placement.loc(s).0);
                            ys.push(placer.placement.loc(s).1);
                        }
                    }
                }
                for &net in nl.input_nets(a) {
                    let d = nl.net(net).driver;
                    if d != a {
                        xs.push(placer.placement.loc(d).0);
                        ys.push(placer.placement.loc(d).1);
                    }
                }
                if xs.is_empty() {
                    continue;
                }
                xs.sort_unstable();
                ys.sort_unstable();
                let x = snap_column_in(cell.kind, xs[xs.len() / 2], bounds.x0, bounds.x1());
                let target = (x, ys[ys.len() / 2].clamp(bounds.y0, bounds.y1() - 1));
                let old = placer.placement.loc(a);
                if target == old {
                    continue;
                }
                let other = placer.occupancy.get(target);
                if other.is_some_and(|b| !site_legal(nl.cell(b).kind, old.0)) {
                    continue;
                }
                if placer.move_delta(a, other, old, target) < 0 {
                    placer.relocate(a, other, old, target);
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }

    /// Polishes a copy of `placer`'s state both ways and compares.
    fn assert_polish_matches_per_arc(nl: &Netlist, placer: &Placer<'_>, what: &str) {
        let copy = || Placer {
            wiring: placer.wiring,
            placement: placer.placement.clone(),
            occupancy: placer.occupancy.clone(),
        };
        let (mut fast, mut reference) = (copy(), copy());
        fast.polish();
        polish_per_arc(nl, &mut reference);
        assert_eq!(fast.placement, reference.placement, "{what}");
        assert_eq!(fast.occupancy.slots, reference.occupancy.slots, "{what}");
    }

    #[test]
    fn polish_matches_per_arc_polish_on_a_broadcast() {
        // The 2048-sink broadcast of the physical bench, from its seed.
        let mut nl = Netlist::new("broadcast");
        let src = nl.add_cell(Cell::ff("src", 32));
        let sinks: Vec<_> = (0..2048)
            .map(|i| nl.add_cell(Cell::comb(format!("s{i}"), 32, 0.4, 32)))
            .collect();
        nl.connect(src, &sinks);
        let d = Device::ultrascale_plus_vu9p();
        let seeded = SeedPlacement::new(&nl, &d, Region::full(&d));
        assert_polish_matches_per_arc(&nl, &seeded.placer(), "broadcast2048");
    }

    #[test]
    fn polish_matches_per_arc_polish_on_random_netlists() {
        let bounds = Region {
            x0: 2,
            y0: 1,
            w: 24,
            h: 20,
        };
        for seed in 0..16 {
            let mut rng = Rng::seed_from_u64(seed);
            let n = 150;
            let mut nl = Netlist::new("random");
            for i in 0..n {
                nl.add_cell(match i % 13 {
                    0 => Cell::bram(format!("b{i}"), 8, 1),
                    1 => Cell::dsp(format!("d{i}"), 8, 1.0, 1),
                    _ => Cell::comb(format!("c{i}"), 8, 0.3, 8),
                });
            }
            for d in 0..n {
                // Mostly small nets, some broadcasts past the heavy
                // threshold; repeats and self-loops included.
                let fanout = if rng.gen_bool(0.05) {
                    HEAVY + rng.gen_index(60)
                } else {
                    1 + rng.gen_index(5)
                };
                let sinks: Vec<CellId> = (0..fanout)
                    .map(|_| CellId(rng.gen_index(n) as u32))
                    .collect();
                nl.connect(CellId(d as u32), &sinks);
            }
            let wiring = Wiring::new(&nl, bounds);
            // Scattered sites may break column legality; the polish only
            // needs an occupancy consistent with the placement.
            let placer = scattered(&wiring, bounds, &mut rng);
            assert_polish_matches_per_arc(&nl, &placer, &format!("random netlist {seed}"));
        }
    }

    #[test]
    fn shared_seed_matches_fresh_placements() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<SeedPlacement>();
        let mut nl = chain(160);
        let src = CellId(3);
        let extra: Vec<_> = (0..6)
            .flat_map(|i| {
                [
                    nl.add_cell(Cell::bram(format!("b{i}"), 32, 1)),
                    nl.add_cell(Cell::dsp(format!("d{i}"), 32, 2.0, 1)),
                ]
            })
            .collect();
        nl.connect(src, &extra);
        let d = Device::ultrascale_plus_vu9p();
        let fast = AnnealConfig::fast();
        let region = Region {
            x0: 20,
            y0: 10,
            w: 30,
            h: 40,
        };
        let flat = SeedPlacement::new(&nl, &d, Region::full(&d));
        let island = SeedPlacement::new(&nl, &d, region);
        for seed in 0..5 {
            assert_eq!(
                flat.anneal(seed, fast),
                place_with(&nl, &d, seed, fast),
                "flat seed {seed}"
            );
            assert_eq!(
                island.anneal(seed, fast),
                place_in_region(&nl, &d, region, seed, fast),
                "region seed {seed}"
            );
        }
    }
}
