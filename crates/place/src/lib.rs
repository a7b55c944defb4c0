//! # hlsb-place — deterministic placement for the simulated fabric
//!
//! Turns a [`hlsb_netlist::Netlist`] into cell coordinates on a
//! [`hlsb_fabric::Device`] grid:
//!
//! 1. a **levelized seed**: cells are spread left-to-right by dataflow
//!    level and top-to-bottom within a level (connectivity-ordered), with
//!    BRAM/DSP cells snapped to their dedicated columns, then
//! 2. **simulated-annealing refinement** minimizing total half-perimeter
//!    wirelength (HPWL) under a one-cell-per-site exclusivity rule.
//!
//! Site exclusivity is what makes broadcasts expensive: the `k` sinks of a
//! high-fanout net must occupy `k` distinct sites, so their spread grows
//! like `sqrt(k)` no matter how good the placement is — exactly the
//! physical phenomenon the paper measures with its skeleton designs.
//!
//! Large dataflow designs can alternatively be placed *island by island*:
//! [`partition()`] cuts the netlist along its FIFO seams, [`reserve_regions`]
//! assigns each island a vertical strip of the device, [`stitch_crossings`]
//! registers every inter-island net, and [`place_in_region`] anneals each
//! island independently — embarrassingly parallel and bit-identical to a
//! sequential run, because each island placement is a pure function of
//! `(island netlist, region, seed)`.
//!
//! All randomness is seeded (a seeded xoshiro generator (`hlsb-rng`)), so placements are
//! reproducible.
//!
//! # Example
//!
//! ```
//! use hlsb_fabric::Device;
//! use hlsb_netlist::{Cell, Netlist};
//! use hlsb_place::place;
//!
//! let mut nl = Netlist::new("demo");
//! let a = nl.add_cell(Cell::ff("a", 8));
//! let b = nl.add_cell(Cell::comb("b", 8, 0.5, 8));
//! nl.connect(a, &[b]);
//! let p = place(&nl, &Device::ultrascale_plus_vu9p(), 42);
//! assert_ne!(p.loc(a), p.loc(b)); // exclusivity
//! ```

pub mod anneal;
pub mod partition;
pub mod placement;
pub mod sites;

pub use anneal::{place, place_in_region, place_with, AnnealConfig, SeedPlacement};
pub use partition::{
    auto_islands, max_islands, partition, reserve_regions, stitch_crossings, CrossingReport,
    Partition, MIN_REGION_W,
};
pub use placement::{Placement, Region};
pub use sites::{site_legal, snap_column_in};
