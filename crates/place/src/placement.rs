//! Placement result and geometric queries.

use hlsb_netlist::{CellId, Net, Netlist};

/// A rectangular placement region in absolute device-grid coordinates:
/// the half-open window `[x0, x0+w) × [y0, y0+h)`. Flat placement uses
/// the full device grid; island-partitioned placement reserves one
/// disjoint region per island (see `crate::partition`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Leftmost column.
    pub x0: u16,
    /// Topmost row.
    pub y0: u16,
    /// Width in columns.
    pub w: u16,
    /// Height in rows.
    pub h: u16,
}

impl Region {
    /// The full grid of a device.
    pub fn full(device: &hlsb_fabric::Device) -> Self {
        Region {
            x0: 0,
            y0: 0,
            w: device.grid_w as u16,
            h: device.grid_h as u16,
        }
    }

    /// One past the rightmost column.
    pub(crate) fn x1(&self) -> u16 {
        self.x0 + self.w
    }

    /// One past the bottom row.
    pub(crate) fn y1(&self) -> u16 {
        self.y0 + self.h
    }

    /// Number of sites in the region.
    pub(crate) fn sites(&self) -> u64 {
        u64::from(self.w) * u64::from(self.h)
    }

    /// Whether a location falls inside the region.
    pub(crate) fn contains(&self, loc: (u16, u16)) -> bool {
        loc.0 >= self.x0 && loc.0 < self.x1() && loc.1 >= self.y0 && loc.1 < self.y1()
    }
}

/// Coordinates for every cell of a netlist, in device grid units.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    locs: Vec<(u16, u16)>,
    /// Grid width the placement was made for.
    pub grid_w: u32,
    /// Grid height the placement was made for.
    pub grid_h: u32,
}

impl Placement {
    /// Creates a placement from explicit coordinates.
    pub fn from_locs(locs: Vec<(u16, u16)>, grid_w: u32, grid_h: u32) -> Self {
        Placement {
            locs,
            grid_w,
            grid_h,
        }
    }

    /// Location of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell id is out of bounds.
    pub fn loc(&self, cell: CellId) -> (u16, u16) {
        self.locs[cell.index()]
    }

    /// Sets the location of a cell (used by annealing moves and by fanout
    /// optimization when it creates duplicate registers).
    ///
    /// # Panics
    ///
    /// Panics if the cell id is out of bounds.
    pub fn set_loc(&mut self, cell: CellId, loc: (u16, u16)) {
        self.locs[cell.index()] = loc;
    }

    /// Appends a location for a newly added cell. Must be called in cell-id
    /// order to stay aligned with the netlist.
    pub fn push_loc(&mut self, loc: (u16, u16)) {
        self.locs.push(loc);
    }

    /// Manhattan distance between two cells, in grid units.
    pub fn dist(&self, a: CellId, b: CellId) -> f64 {
        let (ax, ay) = self.loc(a);
        let (bx, by) = self.loc(b);
        f64::from(ax.abs_diff(bx)) + f64::from(ay.abs_diff(by))
    }

    /// Half-perimeter wirelength of a net.
    pub(crate) fn hpwl(&self, net: &Net) -> f64 {
        let (dx, dy) = self.loc(net.driver);
        let (mut min_x, mut max_x, mut min_y, mut max_y) = (dx, dx, dy, dy);
        for &s in &net.sinks {
            let (x, y) = self.loc(s);
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        f64::from(max_x - min_x) + f64::from(max_y - min_y)
    }

    /// Total HPWL over all nets of a netlist.
    pub fn total_hpwl(&self, netlist: &Netlist) -> f64 {
        netlist.nets().map(|(_, n)| self.hpwl(n)).sum()
    }

    /// Whether all cells are inside the grid.
    pub fn in_bounds(&self) -> bool {
        self.locs
            .iter()
            .all(|&(x, y)| u32::from(x) < self.grid_w && u32::from(y) < self.grid_h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_netlist::Cell;

    #[test]
    fn dist_is_manhattan() {
        let p = Placement::from_locs(vec![(0, 0), (3, 4)], 10, 10);
        assert_eq!(p.dist(CellId(0), CellId(1)), 7.0);
        assert_eq!(p.dist(CellId(1), CellId(0)), 7.0);
    }

    #[test]
    fn hpwl_of_star_net() {
        let mut nl = Netlist::new("t");
        let d = nl.add_cell(Cell::ff("d", 1));
        let s1 = nl.add_cell(Cell::ff("s1", 1));
        let s2 = nl.add_cell(Cell::ff("s2", 1));
        let n = nl.connect(d, &[s1, s2]);
        let p = Placement::from_locs(vec![(5, 5), (0, 5), (9, 7)], 10, 10);
        assert_eq!(p.hpwl(nl.net(n)), 9.0 + 2.0);
        assert_eq!(p.total_hpwl(&nl), 11.0);
    }

    #[test]
    fn bounds_check() {
        let p = Placement::from_locs(vec![(9, 9)], 10, 10);
        assert!(p.in_bounds());
        let q = Placement::from_locs(vec![(10, 0)], 10, 10);
        assert!(!q.in_bounds());
    }
}
