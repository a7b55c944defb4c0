//! # hlsb-rtlgen — RTL (netlist) generation from scheduled IR
//!
//! The "RTL generation phase creates the control logic to orchestrate the
//! datapath" (paper §2). This crate lowers a scheduled design to a
//! [`hlsb_netlist::Netlist`], reproducing the control templates whose
//! broadcast structure the paper analyses:
//!
//! * **datapath** — one word-level cell per operation, pipeline registers
//!   for values crossing cycle boundaries, flattened PE instantiation for
//!   `call`s;
//! * **memory** — one BRAM bank-cell group per array with the write-data /
//!   address broadcast nets of Fig. 4, optionally pipelined through
//!   distribution/collection register trees when broadcast-aware
//!   scheduling planned extra stages;
//! * **pipeline control** — either the conventional *stall broadcast*
//!   (FIFO status → one net fanning out to every register of the loop,
//!   Fig. 8) or *skid-buffer control* (per-stage valid bits, buffers at
//!   DP-chosen cut points, a tiny front gate — Fig. 11/12);
//! * **synchronization** — done-reduce / start-broadcast for parallel PE
//!   calls (Fig. 6b), optionally pruned to the longest-latency module.
//!
//! The returned [`LoweredDesign`] carries the netlist plus structural
//! metadata (stage widths, buffer bits, control fanouts) used by the
//! benchmark harness.

pub mod control;
pub mod datapath;
pub mod info;
pub mod lower;
pub mod memory;
pub mod options;

pub use control::{GATE_PIPELINE, REDUCE_FANIN};
pub use info::{stage_widths, LowerInfo, SkidDecision, SkidStorage, SyncDecision};
pub use lower::{lower_design, LoweredDesign, ScheduledDesign, ScheduledLoop};
pub use options::{ControlStyle, RtlOptions};

#[cfg(test)]
mod tests;
