//! The generic keyed JSONL table — the durability core shared by every
//! persistent store in the workspace (the DSE `ResultStore`, the explorer
//! `FreqLog`, and the compile-farm `ArtifactStore` shards).
//!
//! Durability rules (established by the DSE store, now centralized here):
//!
//! * **append + flush per record** — a kill loses at most the line being
//!   written, never a previously inserted record;
//! * **partial-trailing-line tolerance** — any line that does not parse
//!   (half-written after a kill, or from a future format) is skipped on
//!   load;
//! * **later-duplicate-wins** — the file is a log; a re-inserted key is
//!   appended again and loads keep the latest record;
//! * **heal-before-append** — if the file's last byte is not a newline
//!   (another writer was killed mid-append), a newline is written first so
//!   the new record never glues onto the partial line and both stay
//!   individually parseable-or-skippable.
//!
//! Each record is one JSON line written by the record type itself
//! ([`JsonlRecord::to_json`]); the table never interprets the line beyond
//! handing it back to [`JsonlRecord::from_json`].

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// A record that can live in a [`JsonlTable`]: keyed, and codable as one
/// JSON line.
pub trait JsonlRecord: Clone {
    /// The dedup key. Two records with equal keys describe the same
    /// entity; the later one wins.
    fn key(&self) -> u64;

    /// Renders the record as one JSON line (no trailing newline). Must
    /// not contain `\n`.
    fn to_json(&self) -> String;

    /// Parses one line written by [`to_json`](JsonlRecord::to_json).
    /// Returns `None` for anything else (e.g. a half-written trailing
    /// line after a kill, or a line with a field this version does not
    /// know) — the table skips such lines on load.
    fn from_json(line: &str) -> Option<Self>
    where
        Self: Sized;
}

/// Keyed table of records, optionally backed by an append-only JSONL
/// file.
#[derive(Debug)]
pub struct JsonlTable<R> {
    path: Option<PathBuf>,
    file: Option<File>,
    records: HashMap<u64, R>,
    /// Insertion order of keys (load order, then append order).
    order: Vec<u64>,
}

impl<R> Default for JsonlTable<R> {
    fn default() -> Self {
        JsonlTable {
            path: None,
            file: None,
            records: HashMap::new(),
            order: Vec::new(),
        }
    }
}

impl<R: JsonlRecord> JsonlTable<R> {
    /// An unbacked table: dedup within one process, nothing persisted.
    pub fn in_memory() -> Self {
        JsonlTable::default()
    }

    /// Opens (or creates) a file-backed table and loads every parseable
    /// record. Later duplicates of a key win, matching append semantics.
    ///
    /// # Errors
    ///
    /// I/O errors opening or reading the file.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut table = JsonlTable {
            path: Some(path.clone()),
            ..JsonlTable::default()
        };
        if path.exists() {
            for line in BufReader::new(File::open(&path)?).lines() {
                if let Some(rec) = R::from_json(&line?) {
                    table.remember(rec);
                }
            }
        }
        table.file = Some(
            OpenOptions::new()
                .create(true)
                .read(true)
                .append(true)
                .open(&path)?,
        );
        Ok(table)
    }

    /// The backing path, when file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the table holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record for a key, if present.
    pub fn get(&self, key: u64) -> Option<&R> {
        self.records.get(&key)
    }

    /// All records in insertion order.
    pub fn records(&self) -> impl Iterator<Item = &R> {
        self.order.iter().filter_map(|k| self.records.get(k))
    }

    /// Inserts a record, appending it to the backing file (one `write`
    /// of the full line, flushed per record, so a kill loses at most the
    /// line being written). A record whose key is already present
    /// replaces the in-memory entry but is still appended — the file is
    /// a log; loads keep the latest.
    ///
    /// Before writing, the file's tail is healed: if another writer died
    /// mid-append and left an unterminated partial line, a newline is
    /// written first so this record starts on its own line.
    ///
    /// # Errors
    ///
    /// I/O errors appending to the backing file.
    pub fn insert(&mut self, rec: R) -> std::io::Result<()> {
        if let Some(file) = &mut self.file {
            heal_tail(file)?;
            let mut line = rec.to_json();
            line.push('\n');
            file.write_all(line.as_bytes())?;
            file.flush()?;
        }
        self.remember(rec);
        Ok(())
    }

    /// Re-reads the backing file, merging records other writers appended
    /// since the last load (later duplicates still win). Returns the
    /// number of keys that are new or changed. No-op for in-memory
    /// tables.
    ///
    /// # Errors
    ///
    /// I/O errors reading the file.
    pub fn reload(&mut self) -> std::io::Result<usize> {
        let Some(path) = self.path.clone() else {
            return Ok(0);
        };
        let mut changed = 0;
        if path.exists() {
            for line in BufReader::new(File::open(&path)?).lines() {
                if let Some(rec) = R::from_json(&line?) {
                    let key = rec.key();
                    let fresh = match self.records.get(&key) {
                        None => true,
                        Some(old) => old.to_json() != rec.to_json(),
                    };
                    if fresh {
                        changed += 1;
                    }
                    self.remember(rec);
                }
            }
        }
        Ok(changed)
    }

    fn remember(&mut self, rec: R) {
        if self.records.insert(rec.key(), rec.clone()).is_none() {
            self.order.push(rec.key());
        }
    }
}

/// Writes a terminating newline if the file's last byte is not one —
/// the other half of partial-line tolerance: the reader skips the
/// malformed line, and the next writer must not glue onto it. The file
/// is open in append mode, so the repositioned cursor only affects the
/// read; the write still lands at the end.
fn heal_tail(file: &mut File) -> std::io::Result<()> {
    let len = file.metadata()?.len();
    if len == 0 {
        return Ok(());
    }
    file.seek(SeekFrom::Start(len - 1))?;
    let mut last = [0u8; 1];
    file.read_exact(&mut last)?;
    if last[0] != b'\n' {
        file.write_all(b"\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal record for exercising the table machinery.
    #[derive(Debug, Clone, PartialEq)]
    struct Pair {
        key: u64,
        value: u64,
    }

    impl JsonlRecord for Pair {
        fn key(&self) -> u64 {
            self.key
        }

        fn to_json(&self) -> String {
            format!("{{\"key\":{},\"value\":{}}}", self.key, self.value)
        }

        fn from_json(line: &str) -> Option<Pair> {
            hlsb_findings::json::decode(line, |o| {
                Ok(Pair {
                    key: o.req("key")?,
                    value: o.req("value")?,
                })
            })
            .ok()
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hlsb_store_table_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn file_table_resumes_dedups_and_skips_partial_lines() {
        let path = scratch("resume");
        let mut table: JsonlTable<Pair> = JsonlTable::open(&path).unwrap();
        assert!(table.is_empty());
        table.insert(Pair { key: 1, value: 10 }).unwrap();
        table.insert(Pair { key: 2, value: 20 }).unwrap();
        table.insert(Pair { key: 1, value: 11 }).unwrap(); // latest wins
        assert_eq!(table.len(), 2);
        drop(table);

        // Simulate a kill mid-append: a trailing half-written line.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"key\":3,\"val").unwrap();
        }

        let resumed: JsonlTable<Pair> = JsonlTable::open(&path).unwrap();
        assert_eq!(resumed.len(), 2, "partial line skipped");
        assert_eq!(resumed.get(1).unwrap().value, 11);
        let keys: Vec<u64> = resumed.records().map(|r| r.key).collect();
        assert_eq!(keys, vec![1, 2]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_heals_anothers_partial_line() {
        let path = scratch("heal");
        let mut table: JsonlTable<Pair> = JsonlTable::open(&path).unwrap();
        table.insert(Pair { key: 1, value: 10 }).unwrap();

        // Another writer dies mid-append while our handle stays open.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"key\":2,\"val").unwrap();
        }

        // Our next insert must not glue onto the partial line.
        table.insert(Pair { key: 3, value: 30 }).unwrap();
        drop(table);

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("{\"key\":2,\"val\n"),
            "partial line newline-terminated:\n{text}"
        );
        let reloaded: JsonlTable<Pair> = JsonlTable::open(&path).unwrap();
        assert_eq!(reloaded.len(), 2, "keys 1 and 3 survive, 2 is skipped");
        assert_eq!(reloaded.get(3).unwrap().value, 30);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reload_merges_other_writers_appends() {
        let path = scratch("reload");
        let mut a: JsonlTable<Pair> = JsonlTable::open(&path).unwrap();
        let mut b: JsonlTable<Pair> = JsonlTable::open(&path).unwrap();
        a.insert(Pair { key: 1, value: 10 }).unwrap();
        b.insert(Pair { key: 2, value: 20 }).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a.reload().unwrap(), 1, "b's record is new to a");
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(2).unwrap().value, 20);
        assert_eq!(a.reload().unwrap(), 0, "idempotent");

        // A later duplicate from b overrides a's in-memory entry.
        b.insert(Pair { key: 1, value: 99 }).unwrap();
        assert_eq!(a.reload().unwrap(), 1);
        assert_eq!(a.get(1).unwrap().value, 99);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn in_memory_table_never_touches_disk() {
        let mut table: JsonlTable<Pair> = JsonlTable::in_memory();
        table.insert(Pair { key: 9, value: 90 }).unwrap();
        assert_eq!(table.len(), 1);
        assert!(table.path().is_none());
        assert_eq!(table.reload().unwrap(), 0);
    }
}
