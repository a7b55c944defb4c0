//! Site legality rules.
//!
//! Real FPGAs dedicate whole columns to BRAM and DSP resources; logic can
//! go anywhere else. Forcing memories and multipliers into columns is part
//! of why large buffers scatter physically (paper §3.1, example #2).

use hlsb_netlist::CellKind;

/// Column period of BRAM columns (one in every `BRAM_COL_PERIOD` columns).
pub(crate) const BRAM_COL_PERIOD: u16 = 10;
/// Column offset of BRAM columns within the period.
pub(crate) const BRAM_COL_OFFSET: u16 = 4;
/// Column period of DSP columns.
pub(crate) const DSP_COL_PERIOD: u16 = 10;
/// Column offset of DSP columns within the period.
pub(crate) const DSP_COL_OFFSET: u16 = 8;

/// Whether a cell of the given kind may be placed at column `x`.
pub fn site_legal(kind: CellKind, x: u16) -> bool {
    match kind {
        CellKind::Bram => x % BRAM_COL_PERIOD == BRAM_COL_OFFSET,
        CellKind::Dsp => x % DSP_COL_PERIOD == DSP_COL_OFFSET,
        // Logic, registers, ports and constants can go anywhere outside
        // the dedicated columns.
        _ => x % BRAM_COL_PERIOD != BRAM_COL_OFFSET && x % DSP_COL_PERIOD != DSP_COL_OFFSET,
    }
}

/// Snaps column `x` to the nearest legal column for `kind` on a grid of
/// width `grid_w`.
pub fn snap_column(kind: CellKind, x: u16, grid_w: u16) -> u16 {
    snap_column_in(kind, x, 0, grid_w)
}

/// Snaps column `x` to the nearest legal column for `kind` within the
/// half-open column range `[x0, x1)` — the column window of a reserved
/// placement region. `snap_column` is the full-grid special case. A range
/// spanning at least one full BRAM/DSP period (10 columns) is guaranteed
/// to contain a legal column for every kind; narrower ranges may fall
/// back to the clamped input.
pub fn snap_column_in(kind: CellKind, x: u16, x0: u16, x1: u16) -> u16 {
    debug_assert!(x0 < x1, "empty column range");
    let x = x.clamp(x0, x1 - 1);
    if site_legal(kind, x) {
        return x;
    }
    for d in 1..(x1 - x0) {
        let lo = x.saturating_sub(d).max(x0);
        if site_legal(kind, lo) {
            return lo;
        }
        let hi = x.saturating_add(d).min(x1 - 1);
        if site_legal(kind, hi) {
            return hi;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bram_and_dsp_columns_disjoint() {
        for x in 0..100u16 {
            assert!(
                !(site_legal(CellKind::Bram, x) && site_legal(CellKind::Dsp, x)),
                "column {x} legal for both"
            );
        }
    }

    #[test]
    fn logic_avoids_dedicated_columns() {
        assert!(!site_legal(CellKind::Comb, BRAM_COL_OFFSET));
        assert!(!site_legal(CellKind::Ff, DSP_COL_OFFSET));
        assert!(site_legal(CellKind::Comb, 0));
    }

    #[test]
    fn snap_reaches_legal_column() {
        for x in 0..60u16 {
            let b = snap_column(CellKind::Bram, x, 60);
            assert!(site_legal(CellKind::Bram, b), "x={x} snapped to {b}");
            let d = snap_column(CellKind::Dsp, x, 60);
            assert!(site_legal(CellKind::Dsp, d), "x={x} snapped to {d}");
            let l = snap_column(CellKind::Comb, x, 60);
            assert!(site_legal(CellKind::Comb, l), "x={x} snapped to {l}");
        }
    }

    #[test]
    fn snap_stays_in_bounds() {
        assert!(snap_column(CellKind::Bram, 59, 60) < 60);
    }

    #[test]
    fn bounded_snap_stays_in_range_and_finds_legal_columns() {
        // Any 12-wide window holds one BRAM and one DSP column.
        for x0 in 0..48u16 {
            let x1 = x0 + 12;
            for x in 0..60u16 {
                for kind in [CellKind::Bram, CellKind::Dsp, CellKind::Comb] {
                    let c = snap_column_in(kind, x, x0, x1);
                    assert!(
                        c >= x0 && c < x1,
                        "{kind:?} x={x} -> {c} outside [{x0},{x1})"
                    );
                    assert!(site_legal(kind, c), "{kind:?} x={x} -> illegal column {c}");
                }
            }
        }
    }

    #[test]
    fn bounded_snap_with_full_range_matches_snap_column() {
        for x in 0..60u16 {
            for kind in [CellKind::Bram, CellKind::Dsp, CellKind::Comb, CellKind::Ff] {
                assert_eq!(snap_column(kind, x, 60), snap_column_in(kind, x, 0, 60));
            }
        }
    }
}
