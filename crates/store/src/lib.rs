//! `hlsb-store` — the persistent content-addressed store behind the
//! compile-farm subsystem.
//!
//! Two layers, each usable on its own:
//!
//! * [`JsonlTable`] — a generic keyed table over an append-only JSONL
//!   file with the workspace's durability rules: append+flush per
//!   record, partial-trailing-line tolerance, later-duplicate-wins, and
//!   heal-before-append so a writer killed mid-line never corrupts its
//!   successors. Every `ArtifactStore` shard is one, and so is the
//!   explorer's `FreqLog`.
//! * [`ArtifactStore`] — the on-disk store proper: [`ResultRecord`] and
//!   [`StageRecord`] segments sharded by key across
//!   [`SHARD_COUNT`] append-only files, guarded by an advisory
//!   [`StoreLock`] so concurrent processes share one directory safely.
//!   It implements [`ArtifactBackend`], the interface a `hlsb-core`
//!   `FlowSession` uses without knowing anything about files: its
//!   `evaluate_many` answers flows from the stored results and publishes
//!   fresh ones, and its stage cache consults and feeds the stage
//!   fingerprints. The `ResultRecord` segments are the one result table
//!   of the workspace: `hlsb-serve` jobs and `hlsb-dse` sweeps read and
//!   fill the same records through the session.
//!
//! Every key and fingerprint is hashed by [`Fnv1a`] ([`combine`] for
//! `u64` parts, [`hash_debug`] for a value's streamed `Debug` form).
//!
//! Every record codec writes with [`hlsb_findings::json_escape`] and reads
//! through the strict reader in [`hlsb_findings::json`].
//!
//! Design rationale, layout and locking rules: `DESIGN.md` §3g.

pub mod table;

mod artifact;
mod fnv;
mod lock;
mod record;

pub use artifact::{ArtifactBackend, ArtifactStore, SHARD_COUNT};
pub use fnv::{combine, hash_debug, Fnv1a};
pub use lock::{StoreLock, LOCK_FILE};
pub use record::{stage_table_key, ResultRecord, StageKind, StageRecord};
pub use table::{JsonlRecord, JsonlTable};
