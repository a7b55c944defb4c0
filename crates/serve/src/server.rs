//! The batch job server: wave-based execution with config-key dedup,
//! store short-circuiting and a verify pre-gate.
//!
//! Jobs stream in as JSONL lines and are processed in *waves* (bounded
//! batches). Within a wave the server:
//!
//! 1. parses and resolves every job (malformed lines become `failed`
//!    outcomes — one bad job never poisons the batch);
//! 2. canonicalizes by [`Flow::config_key`](hlsb::Flow::config_key) and
//!    dedupes — a key answered earlier in this serve run (or twice in
//!    one wave) is served from memory;
//! 3. hands the rest to
//!    [`FlowSession::evaluate_many`](hlsb::FlowSession::evaluate_many):
//!    a key whose [`ResultRecord`] the session's persistent store holds
//!    is answered with **zero** place-and-route work, and the remaining
//!    flows run on the work-stealing worker pool with the verify
//!    pre-gate enabled, their fresh results published back to the store.
//!
//! Outcome lines are emitted in input order and contain no volatile
//! fields (no wall times, no hit/miss provenance), so a cold run and a
//! warm re-run of the same job stream produce byte-identical streams —
//! the CI serve smoke test relies on this. Wall-clock cost and
//! hit/dedup accounting live in the [`ServeSummary`] and the `serve.*`
//! metrics instead.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hlsb::{Evaluation, FlowError, FlowSession};
use hlsb_findings::{json_escape, Severity};
use hlsb_store::{ArtifactBackend, ArtifactStore, ResultRecord};
use hlsb_telemetry::{RunLedger, RunRecord};
use hlsb_trace::{MetricsRegistry, TraceTree, Tracer};

use crate::job::JobSpec;

/// Bucket edges for the `serve.queue-depth` histogram (jobs per wave).
const QUEUE_DEPTH_BOUNDS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
/// Bucket edges for the `serve.wave-ms` histogram.
const WAVE_MS_BOUNDS: [f64; 6] = [1.0, 10.0, 100.0, 1000.0, 10_000.0, 100_000.0];
/// Bucket edges for the `serve.worker-utilization` histogram (fraction
/// of the worker pool a wave's fresh evaluations could keep busy).
const UTILIZATION_BOUNDS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker-pool width. 0 means the session default (`HLSB_THREADS`,
    /// else available parallelism).
    pub workers: usize,
    /// Jobs per wave (clamped to ≥ 1). Larger waves expose more
    /// parallelism to the pool; smaller waves stream results sooner.
    pub wave: usize,
    /// Pre-gate every fresh evaluation with `hlsb-verify` (on by
    /// default; `Error`-severity findings reject the job before any
    /// pipeline stage runs).
    pub verify: bool,
    /// Record `serve.*` spans for export ([`JobServer::take_trace`]).
    /// Counters and histograms are always collected.
    pub trace: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            wave: 32,
            verify: true,
            trace: false,
        }
    }
}

/// How a job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Implemented (or answered from the store / an earlier duplicate).
    Done,
    /// Rejected by the verify pre-gate; see
    /// [`JobOutcome::findings`].
    Rejected,
    /// The job could not be parsed, resolved or implemented; see
    /// [`JobOutcome::error`].
    Failed,
}

impl JobStatus {
    fn name(self) -> &'static str {
        match self {
            JobStatus::Done => "done",
            JobStatus::Rejected => "rejected",
            JobStatus::Failed => "failed",
        }
    }
}

/// One job's result, emitted as a JSONL line in input order.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job's id (client-chosen or `job-<index>`).
    pub id: String,
    /// Position in the input stream (0-based).
    pub index: usize,
    /// The resolved config key (absent when the job never resolved).
    pub key: Option<u64>,
    /// The job's design reference.
    pub design: String,
    /// Terminal status.
    pub status: JobStatus,
    /// The implementation digest for `done` jobs.
    pub record: Option<ResultRecord>,
    /// Rule ids of `Error`-severity verify findings (sorted, deduped)
    /// for `rejected` jobs.
    pub findings: Vec<String>,
    /// Deterministic failure message for `failed` jobs.
    pub error: Option<String>,
    /// Whether the persistent store answered the job (volatile across
    /// cold/warm runs — excluded from [`to_json`](JobOutcome::to_json),
    /// counted in the summary).
    pub from_store: bool,
    /// Whether an earlier job of this serve run answered the job.
    pub deduped: bool,
}

impl JobOutcome {
    /// Renders the outcome as one deterministic JSON line: identical for
    /// a cold evaluation, a store hit and an in-run duplicate of the
    /// same configuration (volatile fields — wall time, provenance —
    /// are deliberately absent).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"id\":\"{}\",\"status\":\"{}\",\"design\":\"{}\"",
            json_escape(&self.id),
            self.status.name(),
            json_escape(&self.design),
        );
        if let Some(key) = self.key {
            out.push_str(&format!(",\"key\":{key}"));
        }
        if let Some(rec) = &self.record {
            out.push_str(&format!(
                ",\"label\":\"{}\",\"fmax_mhz\":{:?},\"period_ns\":{:?},\
                 \"latency_cycles\":{},\"luts\":{},\"ffs\":{},\"brams\":{},\"dsps\":{},\
                 \"inserted_regs\":{},\"duplicated_regs\":{},\"retime_moves\":{}",
                json_escape(&rec.label),
                rec.fmax_mhz,
                rec.period_ns,
                rec.latency_cycles,
                rec.luts,
                rec.ffs,
                rec.brams,
                rec.dsps,
                rec.inserted_regs,
                rec.duplicated_regs,
                rec.retime_moves,
            ));
        }
        if !self.findings.is_empty() {
            let rules: Vec<String> = self
                .findings
                .iter()
                .map(|r| format!("\"{}\"", json_escape(r)))
                .collect();
            out.push_str(&format!(",\"findings\":[{}]", rules.join(",")));
        }
        if let Some(err) = &self.error {
            out.push_str(&format!(",\"error\":\"{}\"", json_escape(err)));
        }
        out.push('}');
        out
    }
}

/// Aggregate accounting for one [`JobServer::process`] call. All fields
/// here are allowed to vary between cold and warm runs — the outcome
/// stream is not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeSummary {
    /// Jobs taken from the input stream.
    pub jobs: usize,
    /// Fresh full-flow evaluations actually performed.
    pub evaluated: usize,
    /// Jobs answered by the persistent store (zero place-and-route).
    pub store_hits: usize,
    /// Jobs answered by an earlier job of this serve run.
    pub dedup_hits: usize,
    /// Jobs rejected by the verify pre-gate.
    pub rejected: usize,
    /// Jobs that failed to parse, resolve or implement.
    pub failed: usize,
    /// Store appends that failed with an I/O error (results still
    /// served from memory).
    pub store_put_errors: usize,
    /// Stage-fingerprint publishes the store failed during this call
    /// ([`ArtifactBackend::publish_errors`]; the stage artifacts are
    /// still cached in memory).
    pub stage_put_errors: usize,
    /// Wall-clock time of the whole `process` call, milliseconds.
    pub wall_ms: f64,
}

impl ServeSummary {
    /// Jobs answered per second of wall time (0 for an empty run).
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.jobs as f64 / (self.wall_ms / 1e3)
        }
    }

    /// One-line human rendering.
    pub fn render(&self) -> String {
        format!(
            "served {} jobs in {:.0} ms ({:.1}/s): {} evaluated, {} store hits, \
             {} dedup hits, {} rejected, {} failed{}",
            self.jobs,
            self.wall_ms,
            self.jobs_per_sec(),
            self.evaluated,
            self.store_hits,
            self.dedup_hits,
            self.rejected,
            self.failed,
            match (self.store_put_errors, self.stage_put_errors) {
                (0, 0) => String::new(),
                (store, 0) => format!(" ({store} store put errors)"),
                (0, stage) => format!(" ({stage} stage put errors)"),
                (store, stage) => {
                    format!(" ({store} store put errors, {stage} stage put errors)")
                }
            },
        )
    }
}

/// The batch compile server. One server owns one [`FlowSession`] (the
/// worker pool, the stage-artifact cache and optionally one shared
/// persistent store); [`process`](JobServer::process) may be called
/// repeatedly — later calls keep benefiting from the session cache and
/// the in-run answer table.
pub struct JobServer {
    cfg: ServeConfig,
    session: FlowSession,
    /// Config keys answered in this serve run → their records.
    answered: HashMap<u64, ResultRecord>,
    /// Shared so a live scrape endpoint ([`metrics_handle`]
    /// (JobServer::metrics_handle)) can snapshot mid-run.
    metrics: Arc<Mutex<MetricsRegistry>>,
    /// Optional run ledger: one `serve-wave` record per executed wave
    /// (the session also appends one `flow` record per evaluation).
    ledger: Option<Arc<RunLedger>>,
    /// The session's persistent backend, read for its publish-error
    /// count.
    backend: Option<Arc<dyn ArtifactBackend>>,
    tracer: Tracer,
    jobs_seen: usize,
}

impl JobServer {
    /// A server without a persistent store (in-run dedup only).
    pub fn new(cfg: ServeConfig) -> Self {
        JobServer::build(cfg, None)
    }

    /// A server sharing the given persistent store: results are answered
    /// from it and fresh results published to it, and the session's
    /// stage cache audits its artifact fingerprints against it.
    pub fn with_store(cfg: ServeConfig, store: Arc<ArtifactStore>) -> Self {
        JobServer::with_backend(cfg, store)
    }

    /// A server whose session is backed by any [`ArtifactBackend`] (see
    /// [`FlowSession::with_backend`]).
    pub fn with_backend(cfg: ServeConfig, backend: Arc<dyn ArtifactBackend>) -> Self {
        JobServer::build(cfg, Some(backend))
    }

    fn build(cfg: ServeConfig, backend: Option<Arc<dyn ArtifactBackend>>) -> Self {
        let mut session = if cfg.workers == 0 {
            FlowSession::new()
        } else {
            FlowSession::with_threads(cfg.workers)
        };
        if let Some(backend) = &backend {
            session = session.with_backend(backend.clone());
        }
        let tracer = if cfg.trace {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        JobServer {
            cfg,
            session,
            answered: HashMap::new(),
            metrics: Arc::new(Mutex::new(MetricsRegistry::default())),
            ledger: None,
            backend,
            tracer,
            jobs_seen: 0,
        }
    }

    /// Attaches a persistent run ledger: the server appends one
    /// `serve-wave` record per executed wave, and the underlying
    /// session appends one `flow` record per fresh evaluation.
    pub fn with_ledger(mut self, ledger: Arc<RunLedger>) -> Self {
        self.session.set_ledger(ledger.clone());
        self.ledger = Some(ledger);
        self
    }

    /// The server's flow session (for cache statistics).
    pub fn session(&self) -> &FlowSession {
        &self.session
    }

    /// A snapshot of the `serve.*` counters and histograms collected so
    /// far.
    pub fn metrics(&self) -> MetricsRegistry {
        self.metrics.lock().unwrap().clone()
    }

    /// The live metrics registry, for a scrape endpoint that snapshots
    /// mid-run (`hlsb-serve --listen`).
    pub fn metrics_handle(&self) -> Arc<Mutex<MetricsRegistry>> {
        self.metrics.clone()
    }

    /// Moves the collected span tree out of the server (empty unless
    /// [`ServeConfig::trace`] was set). A snapshot of the server's
    /// metrics registry is attached to the tree.
    pub fn take_trace(&mut self) -> TraceTree {
        let mut tree = self.tracer.take_tree();
        tree.metrics = self.metrics();
        tree
    }

    /// Processes a stream of job lines, emitting one [`JobOutcome`] per
    /// job in input order. Blank lines and `#` comment lines are
    /// skipped. Returns the run's summary.
    pub fn process(
        &mut self,
        lines: impl IntoIterator<Item = String>,
        mut emit: impl FnMut(&JobOutcome),
    ) -> ServeSummary {
        let start = Instant::now();
        let publish_errors = self.publish_errors();
        let root = self.tracer.root("serve");
        let mut summary = ServeSummary::default();
        let wave_len = self.cfg.wave.max(1);
        let mut wave: Vec<(usize, String)> = Vec::with_capacity(wave_len);
        let mut wave_index = 0usize;
        for line in lines {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let index = self.jobs_seen;
            self.jobs_seen += 1;
            wave.push((index, line));
            if wave.len() == wave_len {
                self.run_wave(wave_index, &wave, &root, &mut summary, &mut emit);
                wave.clear();
                wave_index += 1;
            }
        }
        if !wave.is_empty() {
            self.run_wave(wave_index, &wave, &root, &mut summary, &mut emit);
        }
        root.finish();
        summary.stage_put_errors = self.publish_errors().saturating_sub(publish_errors) as usize;
        summary.wall_ms = start.elapsed().as_secs_f64() * 1e3;
        summary
    }

    /// Stage publishes the backend has failed so far.
    fn publish_errors(&self) -> u64 {
        self.backend.as_ref().map_or(0, |b| b.publish_errors())
    }

    /// Executes one wave: parse → resolve → dedup → `evaluate_many` the
    /// rest (store lookup, run, publish) → emit in input order.
    fn run_wave(
        &mut self,
        wave_index: usize,
        wave: &[(usize, String)],
        root: &hlsb_trace::SpanGuard,
        summary: &mut ServeSummary,
        emit: &mut impl FnMut(&JobOutcome),
    ) {
        let wave_start = Instant::now();
        let span = root.child("serve.wave");
        if span.is_enabled() {
            span.attr("wave", wave_index as u64);
            span.attr_volatile("jobs", wave.len() as u64);
        }
        summary.jobs += wave.len();
        {
            let mut metrics = self.metrics.lock().unwrap();
            metrics.count("serve.jobs", wave.len() as u64);
            metrics.observe("serve.queue-depth", &QUEUE_DEPTH_BOUNDS, wave.len() as f64);
        }

        // Parse + resolve, lazily: the session looks each job up in the
        // store as it is resolved, so a stored job's design is dropped
        // before the next one is built. `slots` holds the finished
        // outcomes; pending evaluations remember which slot they fill.
        let mut slots: Vec<JobOutcome> = Vec::with_capacity(wave.len());
        let mut pending: Vec<usize> = Vec::new();
        // Keys being evaluated in this wave → slot of the primary job,
        // and the duplicates waiting on them (dup slot → primary slot).
        let mut in_flight: HashMap<u64, usize> = HashMap::new();
        let mut dups: Vec<(usize, usize)> = Vec::new();
        let jobs = wave.iter().enumerate().filter_map(|(slot, (index, line))| {
            let index = *index;
            let mut outcome = JobOutcome {
                id: format!("job-{index}"),
                index,
                key: None,
                design: String::new(),
                status: JobStatus::Failed,
                record: None,
                findings: Vec::new(),
                error: None,
                from_store: false,
                deduped: false,
            };
            let job = match JobSpec::from_json(line) {
                Ok(job) => job,
                Err(e) => {
                    outcome.error = Some(e);
                    slots.push(outcome);
                    return None;
                }
            };
            if !job.id.is_empty() {
                outcome.id = job.id.clone();
            }
            outcome.design = job.design.clone();
            let (flow, label) = match job.resolve() {
                Ok(resolved) => resolved,
                Err(e) => {
                    outcome.error = Some(e);
                    slots.push(outcome);
                    return None;
                }
            };
            let key = flow.config_key();
            outcome.key = Some(key);
            if let Some(rec) = self.answered.get(&key) {
                outcome.status = JobStatus::Done;
                outcome.record = Some(rec.clone());
                outcome.deduped = true;
                slots.push(outcome);
                return None;
            }
            if let Some(primary) = in_flight.get(&key) {
                // Duplicate of a job still evaluating in this wave: fill
                // in after the batch runs.
                outcome.deduped = true;
                dups.push((slot, *primary));
                slots.push(outcome);
                return None;
            }
            in_flight.insert(key, slot);
            pending.push(slot);
            slots.push(outcome);
            Some((flow.verify(self.cfg.verify), label, key))
        });

        // The store answers what it holds; the rest runs on the worker
        // pool.
        let evals = self.session.evaluate_many(jobs);
        let ran = evals
            .iter()
            .filter(|e| !matches!(e, Evaluation::Stored(_)))
            .count();
        for (slot, eval) in pending.into_iter().zip(evals) {
            let outcome = &mut slots[slot];
            let rec = match eval {
                Evaluation::Stored(rec) => {
                    outcome.from_store = true;
                    rec
                }
                Evaluation::Fresh {
                    record, published, ..
                } => {
                    if published.is_err() {
                        summary.store_put_errors += 1;
                    }
                    summary.evaluated += 1;
                    record
                }
                Evaluation::Failed(FlowError::VerifyRejected { report }) => {
                    let mut rules: Vec<String> = report
                        .diagnostics
                        .iter()
                        .filter(|d| d.severity >= Severity::Error)
                        .map(|d| d.rule.to_string())
                        .collect();
                    rules.sort();
                    rules.dedup();
                    outcome.status = JobStatus::Rejected;
                    outcome.findings = rules;
                    summary.rejected += 1;
                    continue;
                }
                Evaluation::Failed(other) => {
                    outcome.status = JobStatus::Failed;
                    outcome.error = Some(other.to_string());
                    summary.failed += 1;
                    continue;
                }
            };
            self.answered.insert(rec.key, rec.clone());
            outcome.status = JobStatus::Done;
            outcome.record = Some(rec);
        }

        // Resolve in-wave duplicates against their primaries, tally and
        // emit in input order.
        for (slot, primary) in dups {
            let (status, record, findings, error) = {
                let p = &slots[primary];
                (
                    p.status,
                    p.record.clone(),
                    p.findings.clone(),
                    p.error.clone(),
                )
            };
            let dup = &mut slots[slot];
            dup.status = status;
            dup.record = record;
            dup.findings = findings;
            dup.error = error;
        }
        let mut wave_tally = ServeSummary::default();
        for outcome in &slots {
            if outcome.deduped {
                summary.dedup_hits += 1;
                wave_tally.dedup_hits += 1;
            }
            if outcome.from_store {
                summary.store_hits += 1;
                wave_tally.store_hits += 1;
            }
            match outcome.status {
                JobStatus::Done => {}
                JobStatus::Rejected => wave_tally.rejected += 1,
                JobStatus::Failed => {
                    if !outcome.deduped {
                        // Parse/resolve failures were never tallied above.
                        if outcome.key.is_none() {
                            summary.failed += 1;
                        }
                        wave_tally.failed += 1;
                    }
                }
            }
            emit(outcome);
        }

        let wave_ms = wave_start.elapsed().as_secs_f64() * 1e3;
        {
            let mut metrics = self.metrics.lock().unwrap();
            // Zero tallies don't create counters: a clean run's registry
            // holds no `serve.rejected`/`serve.failed` entry, as before.
            for (name, tally) in [
                ("serve.dedup-hits", wave_tally.dedup_hits),
                ("serve.store-hits", wave_tally.store_hits),
                ("serve.rejected", wave_tally.rejected),
                ("serve.failed", wave_tally.failed),
            ] {
                if tally > 0 {
                    metrics.count(name, tally as u64);
                }
            }
            metrics.count("serve.evaluated", ran as u64);
            metrics.observe("serve.wave-ms", &WAVE_MS_BOUNDS, wave_ms);
            let workers = self.session.threads().max(1) as f64;
            metrics.observe(
                "serve.worker-utilization",
                &UTILIZATION_BOUNDS,
                (ran as f64 / workers).min(1.0),
            );
        }
        if let Some(ledger) = &self.ledger {
            let mut rec = RunRecord::new(
                "serve-wave",
                &format!("wave-{wave_index}"),
                0,
                "ok",
                wave_ms,
            );
            rec.add_stage("wave", wave_ms);
            rec.add_count("jobs", wave.len() as u64);
            rec.add_count("evaluated", ran as u64);
            rec.add_count("store-hits", wave_tally.store_hits as u64);
            rec.add_count("dedup-hits", wave_tally.dedup_hits as u64);
            rec.add_count("rejected", wave_tally.rejected as u64);
            rec.add_count("failed", wave_tally.failed as u64);
            // Observational only: a full disk loses the record, never
            // the wave.
            let _ = ledger.append(rec);
        }
        if span.is_enabled() {
            span.attr_volatile("evaluated", ran as u64);
            span.attr_volatile("wave-ms", wave_ms);
        }
        span.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fuzz_job(seed: u64) -> String {
        format!("{{\"design\":\"fuzz:{seed}\"}}")
    }

    fn collect(server: &mut JobServer, lines: Vec<String>) -> (Vec<JobOutcome>, ServeSummary) {
        let mut out = Vec::new();
        let summary = server.process(lines, |o| out.push(o.clone()));
        (out, summary)
    }

    #[test]
    fn batch_dedups_and_keeps_input_order() {
        let cfg = ServeConfig {
            workers: 2,
            wave: 3, // force the duplicate pair into one wave and across waves
            ..ServeConfig::default()
        };
        let mut server = JobServer::new(cfg);
        let lines = vec![
            fuzz_job(1),
            fuzz_job(2),
            fuzz_job(1), // in-wave duplicate of job 0
            fuzz_job(2), // cross-wave duplicate of job 1
            fuzz_job(3),
        ];
        let (out, summary) = collect(&mut server, lines);
        assert_eq!(out.len(), 5);
        assert_eq!(
            out.iter().map(|o| o.index).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(summary.jobs, 5);
        assert_eq!(summary.evaluated, 3, "three unique configurations");
        assert_eq!(summary.dedup_hits, 2);
        assert_eq!(summary.store_hits, 0);
        for o in &out {
            assert_eq!(o.status, JobStatus::Done, "{:?}", o);
            assert!(o.record.is_some());
        }
        // Duplicates answer with the primary's record and identical
        // outcome JSON (ids aside).
        assert_eq!(out[0].record, out[2].record);
        assert_eq!(out[1].record, out[3].record);
        assert_eq!(server.metrics().counter("serve.jobs"), 5);
        assert_eq!(server.metrics().counter("serve.dedup-hits"), 2);
    }

    #[test]
    fn warm_store_answers_without_evaluation() {
        let store = Arc::new(ArtifactStore::in_memory());
        let cfg = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let lines = vec![fuzz_job(10), fuzz_job(11)];

        let mut cold = JobServer::with_store(cfg.clone(), store.clone());
        let (cold_out, cold_summary) = collect(&mut cold, lines.clone());
        assert_eq!(cold_summary.evaluated, 2);
        assert_eq!(cold_summary.store_hits, 0);
        assert_eq!(store.result_count(), 2);

        // A fresh server over the same store: all hits, zero work.
        let mut warm = JobServer::with_store(cfg, store.clone());
        let (warm_out, warm_summary) = collect(&mut warm, lines);
        assert_eq!(warm_summary.evaluated, 0, "warm store: zero P&R");
        assert_eq!(warm_summary.store_hits, 2);

        // The deterministic outcome stream is byte-identical.
        let cold_lines: Vec<String> = cold_out.iter().map(JobOutcome::to_json).collect();
        let warm_lines: Vec<String> = warm_out.iter().map(JobOutcome::to_json).collect();
        assert_eq!(cold_lines, warm_lines);
    }

    #[test]
    fn dirty_designs_are_rejected_with_findings() {
        let mut server = JobServer::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        // dirty:0 plants a double-written channel (VN01).
        let (out, summary) = collect(
            &mut server,
            vec!["{\"design\":\"dirty:0\"}".to_string(), fuzz_job(1)],
        );
        assert_eq!(summary.rejected, 1);
        assert_eq!(out[0].status, JobStatus::Rejected);
        assert_eq!(out[0].findings, vec!["VN01".to_string()]);
        assert!(out[0].to_json().contains("\"findings\":[\"VN01\"]"));
        assert_eq!(out[1].status, JobStatus::Done);
        // Rejections are never published to a store; with no store at
        // all, nothing was answered persistently.
        assert_eq!(summary.store_hits, 0);
    }

    #[test]
    fn bad_lines_fail_without_poisoning_the_batch() {
        let mut server = JobServer::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let (out, summary) = collect(
            &mut server,
            vec![
                "garbage".to_string(),
                "{\"design\":\"no-such-design\"}".to_string(),
                String::new(), // blank: skipped entirely
                "# comment".to_string(),
                fuzz_job(4),
            ],
        );
        assert_eq!(out.len(), 3, "blank and comment lines are not jobs");
        assert_eq!(summary.jobs, 3);
        assert_eq!(summary.failed, 2);
        assert_eq!(out[0].status, JobStatus::Failed);
        assert!(out[0].to_json().contains("\"error\""));
        assert_eq!(out[1].status, JobStatus::Failed);
        assert!(out[1].error.as_deref().unwrap().contains("no-such-design"));
        assert_eq!(out[2].status, JobStatus::Done);
        // Failed jobs still get stable default ids from input position.
        assert_eq!(out[0].id, "job-0");
        assert_eq!(out[2].id, "job-2");
    }

    #[test]
    fn trace_records_serve_spans_and_wave_metrics() {
        let mut server = JobServer::new(ServeConfig {
            workers: 1,
            wave: 2,
            trace: true,
            ..ServeConfig::default()
        });
        let (_, _) = collect(&mut server, vec![fuzz_job(1), fuzz_job(2), fuzz_job(3)]);
        let tree = server.take_trace();
        let root = tree.root().expect("serve root span");
        assert_eq!(root.name, "serve");
        let waves: Vec<_> = tree
            .spans
            .iter()
            .filter(|s| s.name == "serve.wave")
            .collect();
        assert_eq!(waves.len(), 2, "3 jobs / wave=2 -> 2 waves");
        assert_eq!(tree.metrics.counter("serve.jobs"), 3);
        assert_eq!(tree.metrics.counter("serve.evaluated"), 3);
        let depth = tree.metrics.histogram("serve.queue-depth").expect("depth");
        assert_eq!(depth.total, 2);
        assert!(tree.metrics.histogram("serve.wave-ms").is_some());
        assert!(tree.metrics.histogram("serve.worker-utilization").is_some());
    }
}
