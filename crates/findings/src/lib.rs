//! # hlsb-findings — shared diagnostics and report renderers
//!
//! The common finding machinery used by every static analyzer in the
//! workspace: `hlsb-lint` (broadcast cost analysis) and `hlsb-verify`
//! (dataflow-network and schedule-contract checking) both emit
//! [`Diagnostic`]s into a [`Report`] and render through the same table /
//! JSON Lines / SARIF 2.1.0 code paths, so their findings can land in
//! *one* SARIF log with distinct rule IDs — one SARIF run per tool, no
//! copy-pasted renderer.
//!
//! A [`Report`] is self-describing: it carries the producing tool's name
//! and its full rule registry ([`RuleMeta`]), so [`render_sarif`] can
//! declare every rule in the run metadata even when only some fired.
//! The crate also owns the workspace's one JSON codec, [`json`], and its
//! one command-line reader, [`cli`].

pub mod cli;
pub mod diag;
pub mod json;
pub mod render;

pub use diag::{Diagnostic, Location, Report, RuleMeta, Severity};
pub use json::json_escape;
pub use render::{render_jsonl, render_sarif, render_table};
