//! # hlsb-sched — the HLS scheduler and broadcast-aware rescheduling
//!
//! The scheduling phase "inserts clock boundaries into the original untimed
//! specification" (paper §2). This crate provides:
//!
//! * [`schedule_loop`] — an ASAP list scheduler with operation chaining
//!   under a clock budget and multi-cycle operator latencies, equivalent in
//!   role to the Vivado HLS scheduler;
//! * [`ScheduleReport`] — the per-instruction state/cycle/delay report the
//!   paper's tool parses ("we parse the HLS scheduling reports, which
//!   include the LLVM instructions annotated with scheduled state/cycle,
//!   estimated delay, etc", §4.1);
//! * [`broadcast_aware()`] — the paper's §4.1 optimization: re-evaluate every
//!   in-cycle operation chain under the *calibrated* delay model using
//!   RAW-dependency broadcast factors, and insert register modules to split
//!   chains that violate the clock target.
//!
//! # Example
//!
//! ```
//! use hlsb_delay::HlsPredictedModel;
//! use hlsb_ir::builder::DesignBuilder;
//! use hlsb_ir::types::DataType;
//! use hlsb_sched::schedule_loop;
//!
//! # fn main() -> Result<(), hlsb_ir::IrError> {
//! let mut b = DesignBuilder::new("d");
//! let mut k = b.kernel("top");
//! let mut l = k.pipelined_loop("body", 16, 1);
//! let a = l.varying_input("a", DataType::Int(32));
//! let b2 = l.varying_input("b", DataType::Int(32));
//! let s = l.add(a, b2);
//! l.output("o", s);
//! l.finish();
//! k.finish();
//! let design = b.finish()?;
//!
//! let sched = schedule_loop(&design.kernels[0].loops[0], &design,
//!                           &HlsPredictedModel::new(), 3.33);
//! assert_eq!(sched.ii, 1);
//! # Ok(())
//! # }
//! ```

pub mod broadcast_aware;
pub mod inject;
pub mod list_sched;
pub mod report;
pub mod schedule;

pub use broadcast_aware::{
    broadcast_aware, BroadcastAwareOutcome, MemAccessPlan, SplitDecision, MAX_ROUNDS,
};
pub use inject::{inject_registers, InjectDecision, InjectionOutcome};
pub use list_sched::{schedule_loop, CHAIN_NET_NS, CLOCK_MARGIN};
pub use report::{ReportEntry, ScheduleReport};
pub use schedule::{Schedule, ScheduledOp};
