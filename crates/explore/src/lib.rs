//! # hlsb-explore — closed-loop maximum-frequency search
//!
//! The rest of the workspace evaluates the flow at *fixed* clock targets
//! (the paper's Table 1–3 experiments). This crate closes the loop: for
//! one design and one knob configuration it searches over the HLS clock
//! target itself, re-running the flow until it converges — within a
//! caller-chosen tolerance — to the highest target the implementation
//! still signs off at (`fmax >= target`). Because scheduling is
//! clock-driven, a higher target packs chains into more cycles and the
//! *achieved* Fmax moves with the target; the fixed-clock numbers are a
//! single sample of that curve, the explorer finds its knee.
//!
//! Three pieces:
//!
//! * [`ExploreConfig`] — one point of the searched knob set: the paper's
//!   optimization cube plus forced register injection
//!   ([`hlsb::RegisterInjection`]) at named stage boundaries.
//! * [`FreqLog`] — an append-only JSONL trial log keyed by
//!   [`Flow::config_key`](hlsb::Flow::config_key) (the clock target is
//!   part of the key, so every trial is one record). A killed search
//!   resumes from the log without re-running completed trials and
//!   converges to the same table.
//! * [`FmaxExplorer`] — the driver: probe-first evaluation (a schedule
//!   violation proves a target unmet without paying for placement),
//!   expansion + bisection search ([`search_max_clock`]), early pruning
//!   of injection configurations whose probe is indistinguishable from
//!   their no-injection twin, differential simulation and contract
//!   verification of every converged configuration, and `explore.*`
//!   spans/counters for the whole run.

pub mod config;
pub mod explorer;
pub mod log;
pub mod report;
pub mod search;

pub use config::ExploreConfig;
pub use explorer::{ConfigOutcome, ExploreReport, FmaxExplorer};
pub use hlsb::DEFAULT_VERIFY_ITERS;
pub use log::{FreqLog, TrialKind, TrialRecord};
pub use search::{search_max_clock, SearchOutcome, SearchParams, Trial};

/// Default convergence tolerance, MHz.
pub const DEFAULT_TOLERANCE_MHZ: f64 = 10.0;

/// Default cap on full (place-and-route) evaluations per design, shared
/// across that design's configurations.
pub const DEFAULT_BUDGET: usize = 25;
