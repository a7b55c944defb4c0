//! `hlsb-dse` — Pareto design-space exploration over the
//! broadcast-optimization knobs of the flow.
//!
//! The paper's optimizations (broadcast-aware scheduling, synchronization
//! pruning, skid-buffer control with the min-area variant) plus the flow's
//! implementation knobs (clock target, placement seeds, placement effort)
//! form a small but non-trivial configuration space, and the objectives —
//! achieved fmax, static latency, register/LUT area — genuinely trade off
//! against each other (skid buffers buy fmax with registers; a lower clock
//! target buys feasibility with speed). This crate searches that space and
//! reports the **Pareto frontier** instead of a single winner.
//!
//! # Pieces
//!
//! * [`KnobSpace`] / [`DseConfig`] — the typed space and its points
//!   ([`KnobSpace::optimization_cube`] is the paper's 4-bit cube).
//! * [`Metrics`], [`pareto_indices`], [`pareto_ranks`] — objectives and
//!   non-dominated sorting.
//! * [`Strategy`] — exhaustive grid, seeded random, or successive halving
//!   (cheap front-end/schedule/lint probes rank candidates, only the
//!   survivors pay for place-and-route).
//! * [`Explorer`] / [`DseReport`] — the driver: batches candidates through
//!   [`FlowSession::evaluate_many`](hlsb::FlowSession::evaluate_many),
//!   extracts the frontier and differentially simulates every frontier
//!   configuration.
//!
//! # Persistence
//!
//! The explorer keeps no table of its own. A session backed by an
//! [`hlsb_store::ArtifactStore`](hlsb::store::ArtifactStore)
//! ([`FlowSession::with_backend`](hlsb::FlowSession::with_backend))
//! answers every configuration the store holds — keyed by
//! [`Flow::config_key`](hlsb::Flow::config_key), so a killed sweep
//! resumes where it stopped — and takes the record of every fresh one.
//! It is the same result table `hlsb-serve` reads and fills, so either
//! tool can warm it for the other.
//! * [`report`] — table / JSONL renderers used by `hlsb-bench dse`.
//!
//! # Example
//!
//! ```
//! use hlsb::FlowSession;
//! use hlsb_dse::{Explorer, KnobSpace, Strategy};
//!
//! let bench = &hlsb_benchmarks::all_benchmarks()[0];
//! let session = FlowSession::new();
//! let report = Explorer::new(&bench.design, &bench.device)
//!     .space(KnobSpace::optimization_cube(vec![300.0]))
//!     .strategy(Strategy::Grid)
//!     .verify_iters(4)
//!     .run(&session)
//!     .expect("a session without a store never fails to publish");
//! assert!(!report.frontier.is_empty());
//! assert!(report.frontier_semantics_ok());
//! ```

pub mod explore;
pub mod objective;
pub mod report;
pub mod space;
pub mod strategy;

pub use explore::{DseReport, EvaluatedPoint, Explorer};
pub use hlsb::DEFAULT_VERIFY_ITERS;
pub use objective::{pareto_indices, pareto_ranks, Metrics};
pub use space::{DseConfig, KnobSpace};
pub use strategy::{proxy_metrics, Strategy};
