//! The persistent run ledger: one append-only [`RunRecord`] per
//! top-level run, durable across processes.
//!
//! Where the artifact store ([`hlsb_store::ArtifactStore`]) persists
//! *results* keyed by configuration, the ledger persists *history*: every
//! flow evaluation, serve wave, DSE campaign and explorer search appends
//! one flat JSONL line with its wall time per stage, cache-hit split and
//! counter digest. The file is the raw material for the regression
//! sentinel ([`crate::sentinel`]) — medians over the most recent window
//! of records, compared against a committed baseline.
//!
//! Durability reuses the [`JsonlTable`] discipline (append + flush per
//! record, partial-trailing-line tolerance, heal-before-append) and the
//! store's advisory file lock for the multi-process case: several
//! `hlsb-serve` or DSE invocations may share one ledger file. Unlike the
//! artifact store, the ledger is a *log*, not a map — every record gets
//! a unique key so nothing ever dedups away.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hlsb_findings::json::{self, JsonError};
use hlsb_findings::json_escape;
use hlsb_store::{Fnv1a, JsonlRecord, JsonlTable, StoreLock};

/// One top-level run: a flow evaluation, a serve wave, a DSE campaign or
/// an explorer search.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Unique record key (assigned by [`RunLedger::append`]; the ledger
    /// is a log, so keys never collide and nothing dedups away).
    pub key: u64,
    /// Which tool produced the run: `flow`, `serve-wave`, `dse` or
    /// `explore`.
    pub tool: String,
    /// Design name (or a tool-specific scope label such as `wave-3`).
    pub design: String,
    /// `Flow::config_key` when the run is one configuration, else 0.
    pub config_key: u64,
    /// Terminal status: `ok`, `rejected` or `failed`.
    pub status: String,
    /// Wall-clock time of the whole run, milliseconds.
    pub wall_ms: f64,
    /// Per-stage wall times, milliseconds, in execution order.
    pub stages: Vec<(String, f64)>,
    /// Run counters (cache-hit splits, evaluation counts), sorted by
    /// name before encoding.
    pub counters: Vec<(String, u64)>,
    /// FNV digest over the counters — a cheap equality check across
    /// runs without decoding the counter map.
    pub digest: u64,
}

impl RunRecord {
    /// A record with no stages or counters yet; key and digest are
    /// assigned by [`RunLedger::append`].
    pub fn new(tool: &str, design: &str, config_key: u64, status: &str, wall_ms: f64) -> Self {
        RunRecord {
            key: 0,
            tool: tool.to_string(),
            design: design.to_string(),
            config_key,
            status: status.to_string(),
            wall_ms,
            stages: Vec::new(),
            counters: Vec::new(),
            digest: 0,
        }
    }

    /// Adds `ms` to the named stage (appending it if new). Stage and
    /// counter names must not contain `;` — true of every pass and
    /// metric name in this workspace — because records encode the maps
    /// as `name=value;...` inside one JSON string.
    pub fn add_stage(&mut self, name: &str, ms: f64) {
        match self.stages.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += ms,
            None => self.stages.push((name.to_string(), ms)),
        }
    }

    /// Adds `delta` to the named counter. Counters are kept
    /// name-sorted — the canonical order the codec writes — so a record
    /// equals its own round trip.
    pub fn add_count(&mut self, name: &str, delta: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += delta,
            None => {
                let at = self.counters.partition_point(|(n, _)| n.as_str() < name);
                self.counters.insert(at, (name.to_string(), delta));
            }
        }
    }

    /// The named stage's wall time, if recorded.
    pub fn stage_ms(&self, name: &str) -> Option<f64> {
        self.stages.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The named counter's value (0 if never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The FNV-1a digest of the (sorted) counters.
    pub fn compute_digest(&self) -> u64 {
        let mut sorted: Vec<&(String, u64)> = self.counters.iter().collect();
        sorted.sort();
        let mut hash = Fnv1a::new();
        for (name, v) in sorted {
            hash.bytes(name.as_bytes()).u64(*v);
        }
        hash.finish()
    }
}

/// Encodes a map as `name=value;...` (values in `{:?}`), escaped for a
/// JSON string.
fn encode_map<'a, V: std::fmt::Debug + 'a>(pairs: impl Iterator<Item = &'a (String, V)>) -> String {
    let pairs: Vec<String> = pairs.map(|(n, v)| format!("{n}={v:?}")).collect();
    json_escape(&pairs.join(";"))
}

/// Decodes a `name=value;...` map; values never contain `=`, so a name
/// may.
fn decode_map<V: std::str::FromStr>(s: &str, field: &str) -> Result<Vec<(String, V)>, JsonError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(';')
        .map(|tok| {
            let (n, v) = tok.rsplit_once('=')?;
            Some((n.to_string(), v.parse().ok()?))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| JsonError::Mistyped(field.to_string(), "a `name=value;...` map"))
}

impl JsonlRecord for RunRecord {
    fn key(&self) -> u64 {
        self.key
    }

    fn to_json(&self) -> String {
        let mut counters: Vec<&(String, u64)> = self.counters.iter().collect();
        counters.sort();
        format!(
            "{{\"key\":{},\"tool\":\"{}\",\"design\":\"{}\",\"config_key\":{},\
             \"status\":\"{}\",\"wall_ms\":{:?},\"stages\":\"{}\",\
             \"counters\":\"{}\",\"digest\":{}}}",
            self.key,
            json_escape(&self.tool),
            json_escape(&self.design),
            self.config_key,
            json_escape(&self.status),
            self.wall_ms,
            encode_map(self.stages.iter()),
            encode_map(counters.into_iter()),
            self.digest,
        )
    }

    fn from_json(line: &str) -> Option<RunRecord> {
        json::decode(line, |o| {
            Ok(RunRecord {
                key: o.req("key")?,
                tool: o.req("tool")?,
                design: o.req("design")?,
                config_key: o.req("config_key")?,
                status: o.req("status")?,
                wall_ms: o.req("wall_ms")?,
                stages: decode_map(&o.req::<String>("stages")?, "stages")?,
                counters: decode_map(&o.req::<String>("counters")?, "counters")?,
                digest: o.req("digest")?,
            })
        })
        .ok()
    }
}

/// The append-only run ledger: a [`JsonlTable`] of [`RunRecord`]s plus a
/// sibling advisory lock file, shared through `Arc` and safe to append
/// from session worker threads and concurrent processes alike.
#[derive(Debug)]
pub struct RunLedger {
    table: Mutex<JsonlTable<RunRecord>>,
    lock_path: Option<PathBuf>,
    /// Per-process key salt: process id and open-time nanoseconds keep
    /// concurrent writers apart; the sequence keeps one process's
    /// records apart.
    salt: u64,
    seq: AtomicU64,
}

impl RunLedger {
    /// Opens (or creates) a file-backed ledger. A sibling `<file>.lock`
    /// advisory lock serializes concurrent-process appends.
    ///
    /// # Errors
    ///
    /// I/O errors opening or reading the file.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<RunLedger> {
        let path = path.as_ref();
        let mut lock_name = path.file_name().unwrap_or_default().to_os_string();
        lock_name.push(".lock");
        let lock_path = path.with_file_name(lock_name);
        Ok(RunLedger {
            table: Mutex::new(JsonlTable::open(path)?),
            lock_path: Some(lock_path),
            salt: Self::process_salt(),
            seq: AtomicU64::new(0),
        })
    }

    /// An unbacked ledger (tests, or telemetry disabled but observed).
    pub fn in_memory() -> RunLedger {
        RunLedger {
            table: Mutex::new(JsonlTable::in_memory()),
            lock_path: None,
            salt: Self::process_salt(),
            seq: AtomicU64::new(0),
        }
    }

    fn process_salt() -> u64 {
        // Distinct per process (pid + open time) and per handle within
        // one process (monotone open counter), so two ledgers over one
        // file never mint colliding keys.
        static OPENS: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos() as u64 ^ d.as_secs());
        hlsb_store::combine(&[
            u64::from(std::process::id()),
            nanos,
            OPENS.fetch_add(1, Ordering::Relaxed),
        ])
    }

    /// Appends one record, assigning it a unique key and its counter
    /// digest. The append takes the cross-process lock, heals the tail
    /// and flushes — a kill loses at most this one line.
    ///
    /// # Errors
    ///
    /// I/O errors locking or appending.
    pub fn append(&self, mut rec: RunRecord) -> std::io::Result<()> {
        if rec.key == 0 {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            rec.key = hlsb_store::combine(&[self.salt, seq, rec.config_key]);
        }
        rec.digest = rec.compute_digest();
        let _lock = match &self.lock_path {
            Some(p) => Some(StoreLock::acquire(p)?),
            None => None,
        };
        self.table.lock().unwrap().insert(rec)
    }

    /// All records in file order, merging in anything other processes
    /// appended since the last read.
    pub fn records(&self) -> Vec<RunRecord> {
        let mut table = self.table.lock().unwrap();
        let _ = table.reload();
        table.records().cloned().collect()
    }

    /// Number of records in the ledger.
    pub fn len(&self) -> usize {
        self.records().len()
    }

    /// Whether the ledger holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads every record from a ledger file without holding it open.
    ///
    /// # Errors
    ///
    /// I/O errors opening or reading the file.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Vec<RunRecord>> {
        let table: JsonlTable<RunRecord> = JsonlTable::open(path)?;
        Ok(table.records().cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(tool: &str, design: &str) -> RunRecord {
        let mut rec = RunRecord::new(tool, design, 0xBEEF, "ok", 12.5);
        rec.add_stage("front-end", 1.25);
        rec.add_stage("implement", 9.75);
        rec.add_stage("front-end", 0.25); // accumulates
        rec.add_count("executions", 2);
        rec.add_count("cache-hits", 1);
        rec
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hlsb_telemetry_ledger_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn record_round_trip_is_exact() {
        let mut rec = record("flow", "lstm_gate");
        rec.key = 42;
        rec.digest = rec.compute_digest();
        let line = rec.to_json();
        let back = RunRecord::from_json(&line).expect("parses");
        assert_eq!(back, rec, "round trip must be exact:\n{line}");
        assert_eq!(back.stage_ms("front-end"), Some(1.5));
        assert_eq!(back.counter("executions"), 2);
        assert_eq!(back.counter("missing"), 0);
        // Truncations never half-parse.
        for cut in (0..line.len()).filter(|&c| line.is_char_boundary(c)) {
            assert!(RunRecord::from_json(&line[..cut]).is_none());
        }
    }

    #[test]
    fn empty_maps_round_trip() {
        let mut rec = RunRecord::new("serve-wave", "wave-0", 0, "ok", 3.0);
        rec.key = 7;
        let back = RunRecord::from_json(&rec.to_json()).expect("parses");
        assert!(back.stages.is_empty());
        assert!(back.counters.is_empty());
    }

    #[test]
    fn digest_tracks_counters_not_times() {
        let a = record("flow", "d");
        let mut b = record("flow", "d");
        b.stages.clear();
        assert_eq!(a.compute_digest(), b.compute_digest(), "times don't digest");
        b.add_count("executions", 1);
        assert_ne!(a.compute_digest(), b.compute_digest());
        // Order-insensitive: the digest sorts.
        let mut c = RunRecord::new("flow", "d", 0, "ok", 0.0);
        c.add_count("cache-hits", 1);
        c.add_count("executions", 2);
        assert_eq!(a.compute_digest(), c.compute_digest());
    }

    #[test]
    fn ledger_appends_never_dedup_and_survive_reopen() {
        let path = scratch("appends");
        let ledger = RunLedger::open(&path).unwrap();
        for _ in 0..3 {
            ledger.append(record("flow", "same-design")).unwrap();
        }
        assert_eq!(ledger.len(), 3, "identical records never collapse");

        // A second handle (another process, in spirit) sees all three
        // and appends a fourth.
        let other = RunLedger::open(&path).unwrap();
        assert_eq!(other.len(), 3);
        other.append(record("serve-wave", "wave-0")).unwrap();
        assert_eq!(ledger.len(), 4, "reload picks up the other writer");

        // Reopening loads everything back, in order.
        drop((ledger, other));
        let records = RunLedger::load(&path).unwrap();
        assert_eq!(records.len(), 4);
        assert!(records[..3].iter().all(|r| r.tool == "flow"));
        assert_eq!(records[3].tool, "serve-wave");
        assert!(records.iter().all(|r| r.digest == r.compute_digest()));
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_file(path.with_file_name(format!(
            "{}.lock",
            path.file_name().unwrap().to_string_lossy()
        )));
    }

    #[test]
    fn partial_trailing_line_is_skipped() {
        use std::io::Write;
        let path = scratch("partial");
        let ledger = RunLedger::open(&path).unwrap();
        ledger.append(record("flow", "a")).unwrap();
        drop(ledger);
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"key\":9,\"tool\":\"fl").unwrap();
        }
        let resumed = RunLedger::open(&path).unwrap();
        assert_eq!(resumed.len(), 1, "half-written line skipped");
        // The next append heals the tail first.
        resumed.append(record("flow", "b")).unwrap();
        assert_eq!(RunLedger::load(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_appends_from_threads_all_land() {
        let path = scratch("threads");
        let ledger = std::sync::Arc::new(RunLedger::open(&path).unwrap());
        std::thread::scope(|s| {
            for t in 0..4 {
                let ledger = ledger.clone();
                s.spawn(move || {
                    for i in 0..8 {
                        ledger.append(record("flow", &format!("t{t}-{i}"))).unwrap();
                    }
                });
            }
        });
        assert_eq!(ledger.len(), 32, "every append from every thread lands");
        let keys: std::collections::HashSet<u64> = ledger.records().iter().map(|r| r.key).collect();
        assert_eq!(keys.len(), 32, "keys are unique");
        std::fs::remove_file(&path).unwrap();
    }
}
