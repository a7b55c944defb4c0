//! # hlsb-serve — the compile-farm batch job server
//!
//! The serving layer of the compile farm (DESIGN.md §3g): a long-lived
//! [`JobServer`] that accepts a stream of design jobs as JSONL (stdin or
//! a job file), canonicalizes and dedupes them by
//! [`Flow::config_key`](hlsb::Flow::config_key), answers repeated
//! configurations from the persistent [`hlsb_store::ArtifactStore`]
//! with **zero** place-and-route work, pre-gates fresh evaluations with
//! `hlsb-verify`, and shards the remainder across the work-stealing
//! worker pool ([`FlowSession::run_many`](hlsb::FlowSession::run_many)).
//!
//! Results stream back as one JSONL [`JobOutcome`] line per job, in
//! input order, with volatile fields (wall time, hit provenance) kept
//! out of the stream — so a cold run and a warm re-run of the same jobs
//! are byte-identical, and all accounting lives in the [`ServeSummary`]
//! and the `serve.*` metrics ([`JobServer::metrics`]).
//!
//! ```
//! use hlsb_serve::{JobServer, ServeConfig};
//!
//! let mut server = JobServer::new(ServeConfig { workers: 1, ..ServeConfig::default() });
//! let jobs = vec!["{\"design\":\"fuzz:1\"}".to_string()];
//! let mut lines = Vec::new();
//! let summary = server.process(jobs, |outcome| lines.push(outcome.to_json()));
//! assert_eq!(summary.evaluated, 1);
//! assert!(lines[0].contains("\"status\":\"done\""));
//! ```

pub mod job;
pub mod server;

pub use job::JobSpec;
pub use server::{JobOutcome, JobServer, JobStatus, ServeConfig, ServeSummary};
