//! The persistent frequency log: one JSONL line per decided trial.
//!
//! The durability machinery (append+flush per record, partial-line
//! tolerance, later-duplicate-wins, heal-before-append) lives in
//! [`hlsb_store::JsonlTable`]; this module only owns the
//! [`TrialRecord`] format — one JSON line through the workspace codec
//! ([`hlsb_findings::json`]) with floats in Rust's shortest round-trip
//! notation, so a record read back is bit-identical to the one written.
//! The key is [`Flow::config_key`](hlsb::Flow::config_key) of the
//! trial's flow — the clock target is part of the key, so one search
//! produces one record per trial and a resumed search answers every
//! repeated trial from the log instead of re-running it.

use std::path::Path;

use hlsb_findings::json::{self, JsonError};
use hlsb_findings::json_escape;
use hlsb_store::{JsonlRecord, JsonlTable};

/// How a trial's verdict was decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialKind {
    /// Full place-and-route evaluation; `fmax_mhz` is sign-off timing.
    Full,
    /// Probe-only rejection: the schedule already carries violations at
    /// this target, so the target is unmet without paying for placement.
    /// `fmax_mhz` is 0 (nothing was implemented).
    Probe,
}

impl TrialKind {
    fn name(self) -> &'static str {
        match self {
            TrialKind::Full => "full",
            TrialKind::Probe => "probe",
        }
    }
}

/// One persisted trial: a configuration evaluated at one clock target.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// [`Flow::config_key`](hlsb::Flow::config_key) of the trial's flow
    /// (covers design, device, every knob *and* the clock target).
    pub key: u64,
    /// Design name (informational; the key is authoritative).
    pub design: String,
    /// Clock-free configuration label ([`crate::ExploreConfig::label`]).
    pub label: String,
    /// The trial's clock target, MHz.
    pub clock_mhz: f64,
    /// How the verdict was decided.
    pub kind: TrialKind,
    /// Whether the target was met (`fmax >= target` at sign-off).
    pub met: bool,
    /// Achieved Fmax, MHz (0 for probe rejections).
    pub fmax_mhz: f64,
    /// Static latency, cycles (0 for probe rejections).
    pub latency_cycles: u64,
    /// Wall-clock cost of deciding this trial, milliseconds. Varies run
    /// to run; everything else round-trips bit-exactly.
    pub wall_ms: f64,
}

impl TrialRecord {
    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        JsonlRecord::to_json(self)
    }

    /// Parses one JSON line written by [`to_json`](TrialRecord::to_json).
    /// Returns `None` for malformed input (e.g. a half-written trailing
    /// line after a kill).
    pub fn from_json(line: &str) -> Option<TrialRecord> {
        <TrialRecord as JsonlRecord>::from_json(line)
    }
}

impl JsonlRecord for TrialRecord {
    fn key(&self) -> u64 {
        self.key
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"key\":{},\"design\":\"{}\",\"label\":\"{}\",\"clock_mhz\":{:?},\
             \"kind\":\"{}\",\"met\":{},\"fmax_mhz\":{:?},\"latency_cycles\":{},\
             \"wall_ms\":{:?}}}",
            self.key,
            json_escape(&self.design),
            json_escape(&self.label),
            self.clock_mhz,
            self.kind.name(),
            self.met,
            self.fmax_mhz,
            self.latency_cycles,
            self.wall_ms,
        )
    }

    fn from_json(line: &str) -> Option<TrialRecord> {
        json::decode(line, |o| {
            let kind = match o.req::<String>("kind")?.as_str() {
                "full" => TrialKind::Full,
                "probe" => TrialKind::Probe,
                _ => return Err(JsonError::Mistyped("kind".to_string(), "`full` or `probe`")),
            };
            Ok(TrialRecord {
                key: o.req("key")?,
                design: o.req("design")?,
                label: o.req("label")?,
                clock_mhz: o.req("clock_mhz")?,
                kind,
                met: o.req("met")?,
                fmax_mhz: o.req("fmax_mhz")?,
                latency_cycles: o.req("latency_cycles")?,
                wall_ms: o.req("wall_ms")?,
            })
        })
        .ok()
    }
}

/// Keyed log of trial records, optionally backed by a JSONL file — a
/// thin wrapper over [`hlsb_store::JsonlTable`].
#[derive(Debug, Default)]
pub struct FreqLog {
    table: JsonlTable<TrialRecord>,
}

impl FreqLog {
    /// An unbacked log: dedup within one process, nothing persisted.
    pub fn in_memory() -> Self {
        FreqLog::default()
    }

    /// Opens (or creates) a file-backed log and loads every parseable
    /// record. Later duplicates of a key win, matching append semantics.
    ///
    /// # Errors
    ///
    /// I/O errors opening or reading the file.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(FreqLog {
            table: JsonlTable::open(path)?,
        })
    }

    /// The backing path, when file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.table.path()
    }

    /// Number of distinct trials logged.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The record for a trial key, if present.
    pub fn get(&self, key: u64) -> Option<&TrialRecord> {
        self.table.get(key)
    }

    /// All records in insertion order.
    pub fn records(&self) -> impl Iterator<Item = &TrialRecord> {
        self.table.records()
    }

    /// Inserts a record, appending it to the backing file (see
    /// [`JsonlTable::insert`] for the append/flush/heal semantics). A
    /// record whose key is already present replaces the in-memory entry
    /// but is still appended — the file is a log; loads keep the latest.
    ///
    /// # Errors
    ///
    /// I/O errors appending to the backing file.
    pub fn insert(&mut self, rec: TrialRecord) -> std::io::Result<()> {
        self.table.insert(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;

    fn record(key: u64, clock: f64, met: bool) -> TrialRecord {
        TrialRecord {
            key,
            design: "bench \"x\"".into(),
            label: "BSKM+r1 ×1 fast".into(),
            clock_mhz: clock,
            kind: if met {
                TrialKind::Full
            } else {
                TrialKind::Probe
            },
            met,
            fmax_mhz: if met { clock + 11.25 } else { 0.0 },
            latency_cycles: 1047,
            wall_ms: 3.5,
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let rec = record(0xDEAD_BEEF_0BAD_F00D, 341.229_999_999_7, true);
        let line = rec.to_json();
        let back = TrialRecord::from_json(&line).expect("parses");
        assert_eq!(back, rec, "round trip must be bit-exact:\n{line}");
        assert!(TrialRecord::from_json("{\"key\":1").is_none());
        assert!(TrialRecord::from_json("").is_none());
    }

    #[test]
    fn file_log_resumes_and_skips_partial_lines() {
        let dir = std::env::temp_dir().join("hlsb_freq_log_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("log_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut log = FreqLog::open(&path).unwrap();
        assert!(log.is_empty());
        log.insert(record(1, 300.0, true)).unwrap();
        log.insert(record(2, 375.0, false)).unwrap();
        log.insert(record(1, 300.0, false)).unwrap(); // same key: latest wins
        assert_eq!(log.len(), 2);
        drop(log);

        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"key\":3,\"design\"").unwrap();
        }

        let resumed = FreqLog::open(&path).unwrap();
        assert_eq!(resumed.len(), 2, "partial line skipped");
        assert!(!resumed.get(1).unwrap().met);
        assert_eq!(resumed.get(2).unwrap().kind, TrialKind::Probe);
        let keys: Vec<u64> = resumed.records().map(|r| r.key).collect();
        assert_eq!(keys, vec![1, 2]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn in_memory_log_never_touches_disk() {
        let mut log = FreqLog::in_memory();
        log.insert(record(9, 200.0, true)).unwrap();
        assert_eq!(log.len(), 1);
        assert!(log.path().is_none());
    }
}
