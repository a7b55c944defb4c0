//! The persistent on-disk artifact store: sharded append-only JSONL
//! segments shared safely by concurrent processes.
//!
//! Layout of a store directory:
//!
//! ```text
//! store/
//!   LOCK              advisory write lock (contents unused)
//!   results-0.jsonl   ResultRecord segment, shard = config_key % 8
//!   ...
//!   results-7.jsonl
//!   stages-0.jsonl    StageRecord segment, shard = stage table key % 8
//!   ...
//!   stages-7.jsonl
//! ```
//!
//! Each segment is a [`JsonlTable`] and inherits its durability rules
//! (append+flush per record, partial-line tolerance, later-duplicate
//! wins, heal-before-append). Sharding by key keeps segments small enough
//! to rescan cheaply and spreads writer contention; the shard function is
//! a pure function of the key, so every process agrees on placement.
//!
//! Writers serialize through one process-wide mutex per shard *and* the
//! directory's [`StoreLock`] — the former for threads sharing this
//! handle, the latter for independent processes. Readers never take the
//! file lock: lookups are answered from the in-memory tables loaded at
//! open (call [`ArtifactStore::reload`] to merge other processes'
//! appends).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::lock::{StoreLock, LOCK_FILE};
use crate::record::{stage_table_key, ResultRecord, StageKind, StageRecord};
use crate::table::{JsonlRecord, JsonlTable};

/// Number of segments per record family. Part of the on-disk format:
/// changing it orphans records in their old shards.
pub const SHARD_COUNT: usize = 8;

/// The interface a [`FlowSession`](../hlsb/struct.FlowSession.html)
/// uses to consult and feed a persistent store, without `hlsb-core`
/// knowing anything about files: stage fingerprints for its artifact
/// cache, and whole-flow [`ResultRecord`]s for
/// `FlowSession::evaluate_many`. Lookups must be cheap (no I/O) — they
/// sit on the cache-miss and job paths. `publish` swallows I/O errors (a
/// broken store degrades to a cold one, never fails a flow);
/// `publish_result` returns them, so callers can count or surface them.
pub trait ArtifactBackend: Send + Sync {
    /// The stored artifact fingerprint for a stage key, if any.
    fn lookup(&self, stage: StageKind, key: u64) -> Option<u64>;

    /// Records the fingerprint of a freshly built artifact. Best effort:
    /// a failed append is counted in [`publish_errors`], not returned.
    ///
    /// [`publish_errors`]: ArtifactBackend::publish_errors
    fn publish(&self, stage: StageKind, key: u64, fingerprint: u64, wall_ms: f64);

    /// Stage publishes that failed so far (0 for a backend that cannot
    /// fail them).
    fn publish_errors(&self) -> u64 {
        0
    }

    /// The stored result for a flow configuration key, if any.
    fn lookup_result(&self, key: u64) -> Option<ResultRecord>;

    /// Persists a fresh full-flow evaluation.
    ///
    /// # Errors
    ///
    /// I/O errors persisting the record.
    fn publish_result(&self, rec: ResultRecord) -> std::io::Result<()>;
}

/// The sharded persistent store. Cheap to share: all methods take
/// `&self` (shards are internally locked), so one handle wrapped in an
/// `Arc` serves a whole worker pool.
pub struct ArtifactStore {
    dir: Option<PathBuf>,
    results: Vec<Mutex<JsonlTable<ResultRecord>>>,
    stages: Vec<Mutex<JsonlTable<StageRecord>>>,
    /// Append failures swallowed by [`ArtifactBackend::publish`].
    io_errors: AtomicU64,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("dir", &self.dir)
            .field("results", &self.result_count())
            .field("stages", &self.stage_count())
            .finish()
    }
}

impl ArtifactStore {
    /// An unbacked store: dedup within one process, nothing persisted.
    pub fn in_memory() -> Self {
        ArtifactStore {
            dir: None,
            results: (0..SHARD_COUNT)
                .map(|_| Mutex::new(JsonlTable::in_memory()))
                .collect(),
            stages: (0..SHARD_COUNT)
                .map(|_| Mutex::new(JsonlTable::in_memory()))
                .collect(),
            io_errors: AtomicU64::new(0),
        }
    }

    /// Opens (or creates) a store directory and loads every parseable
    /// record from all segments.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or reading a segment.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut results = Vec::with_capacity(SHARD_COUNT);
        let mut stages = Vec::with_capacity(SHARD_COUNT);
        for shard in 0..SHARD_COUNT {
            results.push(Mutex::new(JsonlTable::open(
                dir.join(format!("results-{shard}.jsonl")),
            )?));
            stages.push(Mutex::new(JsonlTable::open(
                dir.join(format!("stages-{shard}.jsonl")),
            )?));
        }
        Ok(ArtifactStore {
            dir: Some(dir),
            results,
            stages,
            io_errors: AtomicU64::new(0),
        })
    }

    /// The backing directory, when disk-backed.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The shard a key lands in — a pure function of the key, identical
    /// in every process.
    pub fn shard_of(key: u64) -> usize {
        (key % SHARD_COUNT as u64) as usize
    }

    /// The stored result for a flow configuration key, if present.
    pub fn get_result(&self, key: u64) -> Option<ResultRecord> {
        self.results[Self::shard_of(key)]
            .lock()
            .unwrap()
            .get(key)
            .cloned()
    }

    /// Persists a full-flow evaluation (see [`JsonlTable::insert`] for
    /// the append semantics). Takes the directory lock for the append so
    /// concurrent processes interleave whole lines.
    ///
    /// # Errors
    ///
    /// I/O errors appending to the segment or taking the lock.
    pub fn put_result(&self, rec: ResultRecord) -> std::io::Result<()> {
        let shard = &self.results[Self::shard_of(rec.key())];
        let _lock = self.file_lock()?;
        shard.lock().unwrap().insert(rec)
    }

    /// All result records across shards, in shard-then-insertion order.
    pub fn results(&self) -> Vec<ResultRecord> {
        self.results
            .iter()
            .flat_map(|shard| shard.lock().unwrap().records().cloned().collect::<Vec<_>>())
            .collect()
    }

    /// Number of distinct result configurations stored.
    pub fn result_count(&self) -> usize {
        self.results.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Number of distinct stage fingerprints stored.
    pub fn stage_count(&self) -> usize {
        self.stages.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Append failures swallowed on the best-effort paths.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Re-reads every segment, merging records other processes appended
    /// since the last load. Returns the number of new-or-changed keys.
    ///
    /// # Errors
    ///
    /// I/O errors reading a segment.
    pub fn reload(&self) -> std::io::Result<usize> {
        let mut changed = 0;
        for shard in &self.results {
            changed += shard.lock().unwrap().reload()?;
        }
        for shard in &self.stages {
            changed += shard.lock().unwrap().reload()?;
        }
        Ok(changed)
    }

    /// The cross-process lock, when disk-backed.
    fn file_lock(&self) -> std::io::Result<Option<StoreLock>> {
        match &self.dir {
            Some(dir) => Ok(Some(StoreLock::acquire(dir.join(LOCK_FILE))?)),
            None => Ok(None),
        }
    }
}

impl ArtifactBackend for ArtifactStore {
    fn lookup(&self, stage: StageKind, key: u64) -> Option<u64> {
        let table_key = stage_table_key(stage, key);
        self.stages[Self::shard_of(table_key)]
            .lock()
            .unwrap()
            .get(table_key)
            .map(|rec| rec.fingerprint)
    }

    fn publish(&self, stage: StageKind, key: u64, fingerprint: u64, wall_ms: f64) {
        let rec = StageRecord {
            stage,
            key,
            fingerprint,
            wall_ms,
        };
        let shard = &self.stages[Self::shard_of(rec.key())];
        let appended = self
            .file_lock()
            .and_then(|_lock| shard.lock().unwrap().insert(rec));
        if appended.is_err() {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn publish_errors(&self) -> u64 {
        self.io_errors()
    }

    fn lookup_result(&self, key: u64) -> Option<ResultRecord> {
        self.get_result(key)
    }

    fn publish_result(&self, rec: ResultRecord) -> std::io::Result<()> {
        self.put_result(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_record(key: u64, fmax: f64) -> ResultRecord {
        ResultRecord {
            key,
            design: "d".into(),
            label: "all".into(),
            fmax_mhz: fmax,
            period_ns: 1000.0 / fmax,
            latency_cycles: 10,
            luts: 100,
            ffs: 200,
            brams: 1,
            dsps: 0,
            inserted_regs: 3,
            duplicated_regs: 1,
            retime_moves: 0,
            wall_ms: 5.5,
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("hlsb_artifact_store_test")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn results_shard_persist_and_reload_across_handles() {
        let dir = scratch("persist");
        let store = ArtifactStore::open(&dir).unwrap();
        // Keys chosen to land in distinct shards.
        for key in 0..(2 * SHARD_COUNT as u64) {
            store
                .put_result(result_record(key, 300.0 + key as f64))
                .unwrap();
        }
        assert_eq!(store.result_count(), 2 * SHARD_COUNT);
        // Every shard file got its share.
        for shard in 0..SHARD_COUNT {
            let seg = dir.join(format!("results-{shard}.jsonl"));
            let lines = std::fs::read_to_string(&seg).unwrap().lines().count();
            assert_eq!(lines, 2, "shard {shard} holds its two keys");
        }

        // A second handle sees everything; appends through it reach the
        // first after a reload.
        let other = ArtifactStore::open(&dir).unwrap();
        assert_eq!(other.result_count(), 2 * SHARD_COUNT);
        other.put_result(result_record(99, 250.0)).unwrap();
        assert!(store.get_result(99).is_none(), "not yet reloaded");
        assert_eq!(store.reload().unwrap(), 1);
        assert_eq!(store.get_result(99).unwrap().fmax_mhz, 250.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn backend_publish_and_lookup_round_trip() {
        let store = ArtifactStore::in_memory();
        assert_eq!(store.lookup(StageKind::FrontEnd, 7), None);
        store.publish(StageKind::FrontEnd, 7, 0xF00D, 1.5);
        store.publish(StageKind::Schedule, 7, 0xBEEF, 2.5);
        assert_eq!(store.lookup(StageKind::FrontEnd, 7), Some(0xF00D));
        assert_eq!(store.lookup(StageKind::Schedule, 7), Some(0xBEEF));
        assert_eq!(store.stage_count(), 2);
        assert_eq!(store.io_errors(), 0);

        // Later publish for the same key wins (determinism audit relies
        // on the latest fingerprint).
        store.publish(StageKind::FrontEnd, 7, 0xCAFE, 1.0);
        assert_eq!(store.lookup(StageKind::FrontEnd, 7), Some(0xCAFE));
    }

    #[test]
    fn in_memory_store_has_no_dir_and_swallows_nothing() {
        let store = ArtifactStore::in_memory();
        assert!(store.dir().is_none());
        store.put_result(result_record(1, 300.0)).unwrap();
        assert_eq!(store.get_result(1).unwrap().fmax_mhz, 300.0);
        assert_eq!(store.reload().unwrap(), 0);
    }

    #[test]
    fn shard_function_is_stable() {
        assert_eq!(ArtifactStore::shard_of(0), 0);
        assert_eq!(ArtifactStore::shard_of(7), 7);
        assert_eq!(ArtifactStore::shard_of(8), 0);
        assert_eq!(ArtifactStore::shard_of(u64::MAX), (u64::MAX % 8) as usize);
    }
}
