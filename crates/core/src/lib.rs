//! # hlsb — broadcast-aware HLS flow (DAC'20 reproduction)
//!
//! End-to-end reproduction of *"Analysis and Optimization of the Implicit
//! Broadcasts in FPGA HLS to Improve Maximum Frequency"* (DAC 2020): an
//! HLS compilation flow — scheduler, RTL generation, placement and static
//! timing on a simulated FPGA fabric — plus the paper's three
//! optimizations:
//!
//! * **broadcast-aware scheduling** (§4.1) via
//!   [`OptimizationOptions::broadcast_aware`];
//! * **synchronization pruning** (§4.2) via
//!   [`OptimizationOptions::sync_pruning`];
//! * **skid-buffer pipeline control** (§4.3) via
//!   [`OptimizationOptions::skid_buffer`] (+ `min_area_skid`).
//!
//! # Example
//!
//! ```
//! use hlsb::{Flow, OptimizationOptions};
//! use hlsb_fabric::Device;
//! use hlsb_ir::builder::DesignBuilder;
//! use hlsb_ir::types::DataType;
//!
//! # fn main() -> Result<(), hlsb::FlowError> {
//! let mut b = DesignBuilder::new("axpy");
//! let fin = b.fifo("in", DataType::Int(32), 2);
//! let fout = b.fifo("out", DataType::Int(32), 2);
//! let mut k = b.kernel("top");
//! let mut l = k.pipelined_loop("main", 1024, 1);
//! let alpha = l.invariant_input("alpha", DataType::Int(32));
//! let x = l.fifo_read(fin, DataType::Int(32));
//! let y = l.mul(alpha, x);
//! l.fifo_write(fout, y);
//! l.finish();
//! k.finish();
//! let design = b.finish()?;
//!
//! let baseline = Flow::new(design.clone())
//!     .device(Device::ultrascale_plus_vu9p())
//!     .clock_mhz(300.0)
//!     .run()?;
//! let optimized = Flow::new(design)
//!     .device(Device::ultrascale_plus_vu9p())
//!     .clock_mhz(300.0)
//!     .options(OptimizationOptions::all())
//!     .run()?;
//! assert!(optimized.fmax_mhz >= baseline.fmax_mhz * 0.9);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod flow;
pub mod options;
pub mod passes;
pub mod result;
pub mod session;
pub mod trace;

mod cache;

pub use cache::{CacheHit, CacheStats, StageCacheStats};
pub use error::FlowError;
pub use flow::Flow;
pub use options::{
    OptimizationOptions, ParseKnobError, Partitioning, PlaceEffort, RegisterInjection,
};
pub use passes::{FrontEndArtifact, LoopFrontEndInfo, LoopScheduleTrace, ScheduleArtifact};
pub use result::{ImplementationResult, PartitionSummary, Utilization};
pub use session::{Evaluation, FlowSession, ProbeOutcome, SimulationOutcome, DEFAULT_VERIFY_ITERS};
pub use trace::{PassRecord, PassTrace};

// The span-tracing surface (crate `hlsb-trace`), re-exported so flow
// consumers can inspect [`ImplementationResult::span_tree`] and export
// traces without naming the sub-crate.
pub use hlsb_trace::{chrome_trace, MetricsRegistry, TraceTree, Tracer};

// Re-export the sub-crates for downstream convenience.
pub use hlsb_ctrl as ctrl;
pub use hlsb_delay as delay;
pub use hlsb_fabric as fabric;
pub use hlsb_findings as findings;
pub use hlsb_ir as ir;
pub use hlsb_lint as lint;
pub use hlsb_netlist as netlist;
pub use hlsb_place as place;
pub use hlsb_rtlgen as rtlgen;
pub use hlsb_sched as sched;
pub use hlsb_sim as sim;
pub use hlsb_store as store;
pub use hlsb_sync as sync;
pub use hlsb_timing as timing;
pub use hlsb_trace as spantrace;
pub use hlsb_verify as verify;
