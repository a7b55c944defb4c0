//! `hlsb-store` — the persistent content-addressed store behind the
//! compile-farm subsystem.
//!
//! Two layers, each usable on its own:
//!
//! * [`JsonlTable`] — a generic keyed table over an append-only JSONL
//!   file with the workspace's durability rules: append+flush per
//!   record, partial-trailing-line tolerance, later-duplicate-wins, and
//!   heal-before-append so a writer killed mid-line never corrupts its
//!   successors. The DSE `ResultStore` and the explorer `FreqLog` are
//!   thin wrappers over this type.
//! * [`ArtifactStore`] — the on-disk store proper: [`ResultRecord`] and
//!   [`StageRecord`] segments sharded by key across
//!   [`SHARD_COUNT`] append-only files, guarded by an advisory
//!   [`StoreLock`] so concurrent processes share one directory safely.
//!   It implements [`ArtifactBackend`], the interface `hlsb-core`'s
//!   session cache uses to consult and feed a store without knowing
//!   anything about files.
//!
//! Every record codec writes with [`hlsb_findings::json_escape`] and reads
//! through the strict reader in [`hlsb_findings::json`].
//!
//! Design rationale, layout and locking rules: `DESIGN.md` §3g.

pub mod table;

mod artifact;
mod lock;
mod record;

pub use artifact::{ArtifactBackend, ArtifactStore, SHARD_COUNT};
pub use lock::{StoreLock, LOCK_FILE};
pub use record::{stage_table_key, ResultRecord, StageKind, StageRecord};
pub use table::{JsonlRecord, JsonlTable};

/// 64-bit FNV-1a over an order-dependent sequence of parts — the same
/// combination function the session cache uses for its stage keys, so
/// keys derived here and there agree across processes and platforms.
pub fn combine(parts: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &p in parts {
        for b in p.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_is_order_dependent_and_stable() {
        assert_eq!(combine(&[1, 2]), combine(&[1, 2]));
        assert_ne!(combine(&[1, 2]), combine(&[2, 1]));
        assert_ne!(combine(&[]), combine(&[0]));
    }
}
