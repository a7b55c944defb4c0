//! [`FlowSession`] — the staged-pipeline coordinator.
//!
//! A session owns the stage-artifact cache (the crate-private `cache`
//! module) and a
//! thread budget, and drives the passes of [`crate::passes`] for one or
//! many [`Flow`]s:
//!
//! * **Artifact reuse.** Front-end and schedule artifacts are
//!   content-addressed, so variant sweeps (option sets, clocks, seeds
//!   over one design) and the lint pre-pass share them instead of
//!   re-running unroll/schedule per flow.
//! * **Parallelism.** Placement trials within one flow, and whole flows
//!   in [`run_many`](FlowSession::run_many), run on the crate's one
//!   worker pool, inline when the budget is one thread. Neither its
//!   output order nor the best-trial choice depends on completion
//!   order, so results are bit-identical to a single-threaded run.
//! * **Observability.** Every run records one span per stage
//!   ([`hlsb_trace`]); the flat [`PassTrace`] and the run ledger's stage
//!   timings are derived from those spans. With [`Flow::trace`] enabled
//!   the run adds detail to the same tree: the flow's configuration on
//!   the root, a span per placement trial, and *decision events* — the
//!   individual chain splits, done-signal prunings and skid-buffer
//!   placements the optimizations perform — and keeps the tree on the
//!   result. Decision payloads are replayed from data stored in the
//!   (cached) stage artifacts, so cached and cold runs produce equal
//!   trees under [`hlsb_trace::TraceTree::normalized`] equality, and
//!   trial spans are emitted post-hoc in trial order so parallel and
//!   sequential runs do too.
//!
//! Thread budget precedence: [`FlowSession::with_threads`] > the
//! `HLSB_THREADS` environment variable > [`std::thread::available_parallelism`].

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use hlsb_ir::verify::verify_design;
use hlsb_trace::{SpanGuard, TraceTree, Tracer, Value};

use crate::cache::{self, ArtifactCache, CacheHit, CacheStats, StageCacheStats};
use crate::error::FlowError;
use crate::flow::Flow;
use crate::passes::{self, FrontEndArtifact, ScheduleArtifact};
use crate::pool;
use crate::result::ImplementationResult;
use crate::trace::PassTrace;
use hlsb_sim::{ControlModel, IoTrace, SimOptions, Stimulus, TimedOutcome};

/// Histogram bucket bounds for the broadcast-factor distribution
/// (`metrics.histogram("broadcast-factor")`): powers of two, the natural
/// scale of unroll-driven fanout.
const BROADCAST_FACTOR_BOUNDS: [f64; 8] = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// Histogram bucket bounds for per-trial slack (`clock period − achieved
/// period`, ns; negative = the trial missed the target).
const SLACK_NS_BOUNDS: [f64; 8] = [-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0];

/// Copies stage counters onto the stage span as unsigned attributes, in
/// counter order; [`PassTrace::from_span_tree`] reads them back as the
/// stage's [`PassRecord`](crate::PassRecord) counters. Execution/cache-hit/
/// store-hit counts legitimately differ between cold, cached and
/// disk-warmed runs, so they are marked volatile: normalized trace
/// equality (the cached ≡ cold guarantee) skips them, while the flat
/// `PassRecord` view still reports them as counters.
fn stage_counters(span: &SpanGuard, counters: &[(&str, u64)]) {
    for &(key, v) in counters {
        if key == "executions" || key == "cache-hits" || key == "store-hits" {
            span.attr_volatile(key, v);
        } else {
            span.attr(key, v);
        }
    }
}

/// Stage-local counters for a `verify.*` stage span: findings found by
/// this stage plus their severity split.
fn verify_counters(diags: &[hlsb_findings::Diagnostic]) -> [(&'static str, u64); 3] {
    let errors = diags
        .iter()
        .filter(|d| d.severity == hlsb_findings::Severity::Error)
        .count() as u64;
    let warnings = diags
        .iter()
        .filter(|d| d.severity == hlsb_findings::Severity::Warning)
        .count() as u64;
    [
        ("findings", diags.len() as u64),
        ("errors", errors),
        ("warnings", warnings),
    ]
}

/// Emits one `verify.finding` event per diagnostic onto the stage span,
/// in detection order.
fn verify_events(span: &SpanGuard, diags: &[hlsb_findings::Diagnostic]) {
    for d in diags {
        let severity = d.severity.to_string();
        let location = d.location.to_string();
        hlsb_trace::event!(span, "verify.finding",
            "rule" => d.rule,
            "severity" => severity.as_str(),
            "subject" => d.subject.as_str(),
            "location" => location.as_str());
        span.count("decisions.verify.finding", 1);
    }
}

/// Closes the run's root span and derives the flat [`PassTrace`] from its
/// stage spans. The tree itself is returned only when [`Flow::trace`]
/// asked for it.
fn finish_run(tracer: &Tracer, root: SpanGuard, flow: &Flow) -> (PassTrace, Option<TraceTree>) {
    root.finish();
    let tree = tracer.take_tree();
    (PassTrace::from_span_tree(&tree), flow.trace.then_some(tree))
}

/// The admission check of every session entry point: a finite, positive
/// clock target and a design that passes [`verify_design`]. It runs per
/// flow, outside the cache: a cache hit must never mask an invalid design.
fn admit(flow: &Flow) -> Result<(), FlowError> {
    if !(flow.clock_mhz.is_finite() && flow.clock_mhz > 0.0) {
        return Err(FlowError::BadParameter {
            what: format!("clock target {} MHz", flow.clock_mhz),
        });
    }
    verify_design(&flow.design)?;
    Ok(())
}

/// The output of [`FlowSession::probe`]: the cheap front half of the
/// pipeline (front-end + schedule, plus the lint pre-pass when the flow
/// enables it) without RTL lowering, placement or timing. Design-space
/// exploration uses these numbers as a low-cost fitness proxy before
/// paying for a full implementation run.
#[derive(Debug, Clone)]
pub struct ProbeOutcome {
    /// Pipeline depth of each scheduled loop, flattened in kernel-loop
    /// order.
    pub schedule_depths: Vec<u32>,
    /// Static latency estimate in cycles — the same number a full run
    /// reports in [`ImplementationResult::latency_cycles`].
    pub latency_cycles: u64,
    /// Registers inserted by broadcast-aware scheduling.
    pub inserted_regs: usize,
    /// Scheduling violations (single-op delays over the clock budget).
    pub schedule_violations: usize,
    /// Instruction count of the effective (split + unrolled) design.
    pub instructions: usize,
    /// Static broadcast lint report, when the flow enables
    /// [`Flow::lint`].
    pub lint: Option<hlsb_lint::LintReport>,
    /// Static verify report (network + schedule contracts; no lowering
    /// contracts — probes never lower), when the flow enables
    /// [`Flow::verify`]. Error findings abort the probe instead.
    pub verify: Option<hlsb_findings::Report>,
    /// Per-pass wall times and counters for this probe (front-end and
    /// schedule records mirror [`Flow::run_detailed`](crate::Flow::run_detailed), so probes
    /// share cached artifacts with full runs).
    pub trace: PassTrace,
    /// Hierarchical span trace, when the flow enables [`Flow::trace`].
    pub span_tree: Option<TraceTree>,
}

impl ProbeOutcome {
    /// The hierarchical span trace, if the flow ran with tracing enabled.
    pub fn trace_tree(&self) -> Option<&TraceTree> {
        self.span_tree.as_ref()
    }
}

/// The output of [`FlowSession::simulate`]: the untimed golden trace, the
/// cycle-accurate outcome of the flow's *scheduled* design under the
/// flow's control model, and the pass trace of the run (front-end and
/// schedule records mirror [`Flow::run_detailed`](crate::Flow::run_detailed), so simulation
/// shares their cached artifacts; the `simulate` record carries the
/// cycle/stall/gate counters).
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// Observable trace of the untimed reference evaluator.
    pub golden: IoTrace,
    /// Cycle-accurate run of the scheduled loops.
    pub timed: TimedOutcome,
    /// Per-pass wall times and counters for this simulation.
    pub trace: PassTrace,
    /// Hierarchical span trace, when the flow enables [`Flow::trace`].
    pub span_tree: Option<TraceTree>,
}

impl SimulationOutcome {
    /// Verifies the run end to end: the timed trace must equal the golden
    /// trace and the timed latency must be consistent with the schedule
    /// (see [`hlsb_sim::check_latency`]).
    ///
    /// # Errors
    ///
    /// A description of the first trace divergence or latency
    /// inconsistency.
    pub fn check(&self) -> Result<(), String> {
        if let Some(diff) = self.timed.trace.diff(&self.golden) {
            return Err(format!("timed trace diverges from golden: {diff}"));
        }
        hlsb_sim::check_latency(&self.timed)
    }

    /// The hierarchical span trace, if the flow ran with tracing enabled.
    pub fn trace_tree(&self) -> Option<&TraceTree> {
        self.span_tree.as_ref()
    }
}

/// Default iteration cap for [`FlowSession::simulate`] when it checks the
/// semantics of a chosen configuration (the DSE frontier, the explorer's
/// converged clocks).
pub const DEFAULT_VERIFY_ITERS: u64 = 32;

/// How [`FlowSession::evaluate_many`] answered one flow.
#[derive(Debug)]
pub enum Evaluation {
    /// The session's backend already held the flow's record; nothing ran.
    Stored(hlsb_store::ResultRecord),
    /// The flow ran. `published` is the backend's verdict on storing
    /// `record` (`Ok` when the session has no backend).
    Fresh {
        /// The full result of the run.
        result: Box<ImplementationResult>,
        /// Its digest, as stored.
        record: hlsb_store::ResultRecord,
        /// Whether the backend accepted the record.
        published: std::io::Result<()>,
    },
    /// The flow ran and failed.
    Failed(FlowError),
}

/// Reusable flow-execution context: stage-artifact cache + thread budget.
///
/// One-shot [`Flow::run`] calls create a throwaway session internally;
/// create one explicitly to share front-end/schedule artifacts across a
/// sweep and to run independent flows in parallel:
///
/// ```no_run
/// use hlsb::{Flow, FlowSession, OptimizationOptions};
/// # let design = hlsb_ir::Design::new("d");
/// let session = FlowSession::new();
/// let flows = vec![
///     Flow::new(design.clone()),
///     Flow::new(design).options(OptimizationOptions::all()),
/// ];
/// let results = session.run_many(&flows);
/// ```
pub struct FlowSession {
    cache: ArtifactCache,
    threads: usize,
    /// Optional persistent run ledger: every pipeline run (including
    /// the ones `run_many` workers execute) appends one record.
    ledger: Option<Arc<hlsb_telemetry::RunLedger>>,
}

/// What the shared front half of the pipeline produces: the cached
/// front-end and schedule artifacts plus the lint report when the flow's
/// options request the pre-pass.
type StagedArtifacts = (
    Arc<FrontEndArtifact>,
    Arc<ScheduleArtifact>,
    Option<hlsb_lint::LintReport>,
);

impl Default for FlowSession {
    fn default() -> Self {
        FlowSession::new()
    }
}

fn default_threads() -> usize {
    if let Ok(v) = std::env::var("HLSB_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    thread::available_parallelism().map_or(1, |n| n.get())
}

impl FlowSession {
    /// A fresh session with an empty cache. The thread budget comes from
    /// `HLSB_THREADS` when set (and parseable), otherwise from
    /// [`std::thread::available_parallelism`].
    pub fn new() -> Self {
        FlowSession::with_threads(default_threads())
    }

    /// A fresh session with an explicit thread budget (clamped to ≥ 1).
    /// Overrides `HLSB_THREADS`.
    pub fn with_threads(threads: usize) -> Self {
        FlowSession {
            cache: ArtifactCache::default(),
            threads: threads.max(1),
            ledger: None,
        }
    }

    /// Attaches a persistent artifact backend (normally an
    /// [`hlsb_store::ArtifactStore`]) to the session. The backend never
    /// changes any result — disk-backed and in-memory runs stay
    /// bit-identical. It plays two parts:
    ///
    /// * its result table answers [`evaluate_many`](FlowSession::evaluate_many)
    ///   without running anything, and takes the records of the flows it
    ///   does run — one table for every tool on the session;
    /// * the stage cache classifies rebuilds as cross-process warm
    ///   ([`CacheStats::disk_hits`], the volatile `store-hits` stage
    ///   counter) and publishes fresh artifact fingerprints for other
    ///   processes to audit against.
    pub fn with_backend(mut self, backend: Arc<dyn hlsb_store::ArtifactBackend>) -> Self {
        self.cache.set_backend(backend);
        self
    }

    /// Attaches a persistent run ledger
    /// ([`hlsb_telemetry::RunLedger`]): every pipeline run appends one
    /// [`hlsb_telemetry::RunRecord`] with its status, per-stage wall
    /// times and counters. Purely observational — results stay
    /// bit-identical with and without a ledger, and ledger I/O errors
    /// never fail a flow.
    pub fn with_ledger(mut self, ledger: Arc<hlsb_telemetry::RunLedger>) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Attaches a run ledger in place (for owners that hold the session
    /// in a larger struct, e.g. the serve `JobServer`).
    pub fn set_ledger(&mut self, ledger: Arc<hlsb_telemetry::RunLedger>) {
        self.ledger = Some(ledger);
    }

    /// The session's thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cache hit/miss totals so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Cache hit/miss totals broken down by stage (front-end vs
    /// schedule) — the sweep-level view of how much a variant batch
    /// actually recomputed.
    pub fn cache_stats_by_stage(&self) -> StageCacheStats {
        self.cache.stats_by_stage()
    }

    /// Runs one flow through the pipeline.
    ///
    /// # Errors
    ///
    /// Same as [`Flow::run`].
    pub fn run(&self, flow: &Flow) -> Result<ImplementationResult, FlowError> {
        self.run_detailed(flow).map(|(r, _, _)| r)
    }

    /// Runs one flow and also returns the final netlist and placement.
    ///
    /// # Errors
    ///
    /// Same as [`Flow::run`].
    pub(crate) fn run_detailed(
        &self,
        flow: &Flow,
    ) -> Result<
        (
            ImplementationResult,
            hlsb_netlist::Netlist,
            hlsb_place::Placement,
        ),
        FlowError,
    > {
        self.run_pipeline(flow, self.threads)
    }

    /// Runs independent flows, in parallel when the thread budget allows,
    /// returning results in input order. Flows of one design share cached
    /// front-end/schedule artifacts. When flows run concurrently, each
    /// flow's placement trials run sequentially inside it (the outer
    /// level already saturates the budget); results are bit-identical
    /// either way.
    pub fn run_many(&self, flows: &[Flow]) -> Vec<Result<ImplementationResult, FlowError>> {
        let concurrent = self.threads.min(flows.len()) > 1;
        let implement_threads = if concurrent { 1 } else { self.threads };
        pool::map_indexed(self.threads, flows.len(), |i| {
            self.run_pipeline(&flows[i], implement_threads)
                .map(|(r, _, _)| r)
        })
    }

    /// Evaluates flows through the backend's result table: each entry is
    /// a flow, the label its record carries and its
    /// [`Flow::config_key`] as the caller computed it. A key the backend
    /// holds is answered from its record; only the misses run, as one
    /// [`run_many`](FlowSession::run_many) batch, so a batch of hits
    /// starts no worker thread. Every fresh record is published to the
    /// backend, and a refused publish is reported on its flow. The
    /// misses share the batch's wall time evenly as their records'
    /// `wall_ms`. Answers come back in input order. Each flow is looked
    /// up as `flows` yields it, so a stored flow is dropped before the
    /// next one is built.
    pub fn evaluate_many(
        &self,
        flows: impl IntoIterator<Item = (Flow, String, u64)>,
    ) -> Vec<Evaluation> {
        let backend = self.cache.backend();
        let mut misses: Vec<Flow> = Vec::new();
        let lookups: Vec<Result<hlsb_store::ResultRecord, (String, u64)>> = flows
            .into_iter()
            .map(|(flow, label, key)| {
                backend.and_then(|b| b.lookup_result(key)).ok_or_else(|| {
                    misses.push(flow);
                    (label, key)
                })
            })
            .collect();
        let start = Instant::now();
        let results = self.run_many(&misses);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3 / misses.len().max(1) as f64;
        let mut ran = misses.iter().zip(results);
        lookups
            .into_iter()
            .map(|lookup| {
                let (label, key) = match lookup {
                    Ok(record) => return Evaluation::Stored(record),
                    Err(miss) => miss,
                };
                let (flow, result) = ran.next().expect("one result per miss");
                match result {
                    Ok(result) => {
                        let record = flow.store_record(key, &label, &result, wall_ms);
                        let published =
                            backend.map_or(Ok(()), |b| b.publish_result(record.clone()));
                        Evaluation::Fresh {
                            result: Box::new(result),
                            record,
                            published,
                        }
                    }
                    Err(e) => Evaluation::Failed(e),
                }
            })
            .collect()
    }

    /// Opens the root `flow` span of one run on a fresh collector. Stage
    /// spans always record under it: they are the run's only stage timer.
    /// With [`Flow::trace`] the flow's configuration is stamped on the
    /// root too. The thread budget is volatile: it changes with
    /// `HLSB_THREADS` but never the decisions, and normalized trace
    /// equality must hold across thread counts.
    fn flow_root(&self, flow: &Flow, mode: &str) -> (Tracer, SpanGuard) {
        let tracer = Tracer::enabled();
        let root = tracer.root("flow");
        if flow.trace {
            root.attr("design", flow.design.name.as_str());
            root.attr("mode", mode);
            root.attr("clock-mhz", flow.clock_mhz);
            root.attr("seed", flow.seed);
            root.attr("options", flow.options.span_label());
            root.attr("effort", flow.effort.label());
            root.attr("place-seeds", u64::from(flow.place_seeds));
            root.attr("partitions", flow.partitions.label());
            root.attr("inject", flow.inject.label());
            root.attr_volatile("threads", self.threads as u64);
        }
        (tracer, root)
    }

    /// Simulates one flow variant instead of implementing it: runs the
    /// untimed golden evaluator over the flow's front-end output and the
    /// cycle-accurate simulator over its scheduled loops, with the flow's
    /// own optimization options mapped onto the simulation (skid-buffer
    /// options select the skid control model, `sync_pruning` the pruned
    /// wait set). Loops run at most `iters_cap` iterations each, so
    /// million-iteration benchmarks stay cheap.
    ///
    /// Front-end and schedule artifacts are the *same* cached artifacts
    /// `run`/`run_detailed` use — simulating after (or before)
    /// implementing the same flow re-runs neither stage.
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] for invalid IR or a nonsensical clock
    /// target; divergence between the timed and golden traces is not an
    /// error here — call [`SimulationOutcome::check`] for the verdict.
    pub fn simulate(
        &self,
        flow: &Flow,
        stim: &Stimulus,
        iters_cap: u64,
    ) -> Result<SimulationOutcome, FlowError> {
        admit(flow)?;
        let (tracer, root) = self.flow_root(flow, "simulate");
        let (front_end, schedule, _lint) = self.stage_front_end_and_schedule(flow, &root)?;
        let design = front_end.design(&flow.design);

        // Simulate: untimed reference, then the scheduled design cycle by
        // cycle under the flow's control model.
        let span = root.child("simulate");
        let golden = hlsb_sim::golden_trace(design, &front_end.unrolled, stim, iters_cap);
        let opts = SimOptions {
            control: if flow.options.skid_buffer {
                ControlModel::skid()
            } else {
                ControlModel::Stall
            },
            sync_pruning: flow.options.sync_pruning,
            iters_cap,
            ..SimOptions::default()
        };
        let timed = hlsb_sim::simulate_design(design, &schedule.loops, stim, &opts);
        let stall_cycles: u64 = timed.per_loop.iter().map(|r| r.stall_cycles).sum();
        let gated_cycles: u64 = timed.per_loop.iter().map(|r| r.gated_cycles).sum();
        stage_counters(
            &span,
            &[
                ("cycles", timed.cycles),
                ("stall-cycles", stall_cycles),
                ("gated-cycles", gated_cycles),
                ("values", golden.len() as u64),
                (
                    "trace-match",
                    u64::from(timed.trace.diff(&golden).is_none()),
                ),
                ("finished", u64::from(timed.finished)),
            ],
        );
        span.finish();
        let (trace, span_tree) = finish_run(&tracer, root, flow);
        Ok(SimulationOutcome {
            golden,
            timed,
            trace,
            span_tree,
        })
    }

    /// Runs only the cheap front half of the pipeline — front-end +
    /// schedule (and the lint pre-pass when the flow enables
    /// [`Flow::lint`]) — and reports schedule-derived metrics without
    /// lowering, placing or timing anything.
    ///
    /// Probes use the *same* cache keys as [`run`](FlowSession::run) and
    /// [`simulate`](FlowSession::simulate): probing a configuration and
    /// then implementing it re-runs neither stage. This is the low-cost
    /// proxy stage of design-space exploration (`hlsb-dse`): a probe
    /// costs front-end + schedule only, typically orders of magnitude
    /// less than multi-seed placement.
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] for invalid IR or a nonsensical clock
    /// target.
    pub fn probe(&self, flow: &Flow) -> Result<ProbeOutcome, FlowError> {
        admit(flow)?;
        let (tracer, root) = self.flow_root(flow, "probe");
        let verify_rep = self.stage_verify_network(flow, &root)?;
        let (front_end, schedule, lint) = self.stage_front_end_and_schedule(flow, &root)?;
        let design = front_end.design(&flow.design);
        let verify =
            self.stage_verify_contracts(flow, verify_rep, design, &schedule, None, &root)?;
        let instructions = design.kernels.iter().map(|k| k.inst_count()).sum();
        let (trace, span_tree) = finish_run(&tracer, root, flow);
        Ok(ProbeOutcome {
            schedule_depths: schedule.depths.clone(),
            latency_cycles: schedule.latency_cycles(design.concurrency),
            inserted_regs: schedule.inserted_regs,
            schedule_violations: schedule.violations(),
            instructions,
            lint,
            verify,
            trace,
            span_tree,
        })
    }

    /// The cached front half shared by [`run_detailed`]
    /// (via `run_pipeline`), [`simulate`](FlowSession::simulate) and
    /// [`probe`](FlowSession::probe): front-end (clock-independent key),
    /// schedule (content-keyed), and the lint pre-pass borrowing both
    /// when the flow enables it. All three entry points therefore address
    /// identical artifacts.
    ///
    /// Stage spans go under `root`; with [`Flow::trace`], decision events
    /// are replayed from the provenance stored in the artifacts
    /// ([`FrontEndArtifact::loop_info`],
    /// [`ScheduleArtifact::loop_traces`]), so a cache hit emits the same
    /// events as the run that built the artifact.
    ///
    /// # Errors
    ///
    /// [`FlowError::BadParameter`] when the flow requests register
    /// injection at a stage boundary no loop of the design has. The
    /// verdict is recorded in the (cached) artifact, so cold and
    /// cache-hit runs of the same configuration reject identically.
    ///
    /// [`run_detailed`]: FlowSession::run_detailed
    fn stage_front_end_and_schedule(
        &self,
        flow: &Flow,
        root: &SpanGuard,
    ) -> Result<StagedArtifacts, FlowError> {
        let clock_ns = 1000.0 / flow.clock_mhz;

        // Tallies one artifact request: a memory hit avoided the work, a
        // disk hit redid it but the persistent store knew the fingerprint
        // (cross-process warmth), a miss was new everywhere.
        fn tally(hit: CacheHit, executions: &mut u64, hits: &mut u64, store_hits: &mut u64) {
            match hit {
                CacheHit::Memory => *hits += 1,
                CacheHit::Disk => {
                    *executions += 1;
                    *store_hits += 1;
                }
                CacheHit::Miss => *executions += 1,
            }
        }

        // Front-end (cached, clock-independent).
        let span = root.child("front-end");
        let design_hash = flow.design.digest();
        let fe_key = cache::front_end_key(design_hash, flow.options.sync_pruning);
        let mut executions = 0u64;
        let mut hits = 0u64;
        let mut store_hits = 0u64;
        let (front_end, hit) = self.cache.front_end(fe_key, || {
            passes::front_end::run(&flow.design, flow.options.sync_pruning)
        });
        tally(hit, &mut executions, &mut hits, &mut store_hits);
        // An identity split equals the unsplit front-end: publish the
        // artifact under the unsplit key too, so the lint pre-pass and
        // non-pruning variants of the same design share it.
        let unsplit_key = cache::front_end_key(design_hash, false);
        if flow.options.sync_pruning && !front_end.split_changed() {
            self.cache
                .seed_front_end(unsplit_key, Arc::clone(&front_end));
        }
        // The lint pre-pass analyzes the design as written (pre-split).
        let lint_front_end: Option<Arc<FrontEndArtifact>> = flow.lint.then(|| {
            if front_end.split_changed() {
                let (fe, hit) = self
                    .cache
                    .front_end(unsplit_key, || passes::front_end::run(&flow.design, false));
                tally(hit, &mut executions, &mut hits, &mut store_hits);
                fe
            } else {
                hits += 1;
                Arc::clone(&front_end)
            }
        });
        let dce_removed: u64 = front_end
            .loop_info
            .iter()
            .map(|l| l.dce_removed as u64)
            .sum();
        stage_counters(
            &span,
            &[
                ("executions", executions),
                ("cache-hits", hits),
                ("store-hits", store_hits),
                ("loops-split", front_end.loops_split as u64),
                ("dce-removed", dce_removed),
            ],
        );
        if flow.trace {
            if front_end.loops_split > 0 {
                hlsb_trace::event!(span, "front-end.split",
                    "loops-split" => front_end.loops_split as u64);
            }
            for info in &front_end.loop_info {
                if info.unroll > 1 {
                    hlsb_trace::event!(span, "front-end.unroll",
                        "kernel" => info.kernel.as_str(),
                        "loop" => info.looop.as_str(),
                        "factor" => u64::from(info.unroll),
                        "insts" => info.insts_unrolled as u64);
                }
                if info.dce_removed > 0 {
                    hlsb_trace::event!(span, "front-end.dce",
                        "kernel" => info.kernel.as_str(),
                        "loop" => info.looop.as_str(),
                        "removed" => info.dce_removed as u64);
                }
            }
        }
        span.finish();

        // Schedule (cached). Keyed by front-end *content*: an identity
        // split shares schedules with the unsplit variants.
        let design = front_end.design(&flow.design);
        let span = root.child("schedule");
        let device_hash = cache::hash_debug(&flow.device);
        let content_fe_key = if front_end.split_changed() {
            fe_key
        } else {
            unsplit_key
        };
        let mut executions = 0u64;
        let mut hits = 0u64;
        let mut store_hits = 0u64;
        let sched_key = cache::schedule_key(
            content_fe_key,
            clock_ns,
            flow.options.broadcast_aware,
            device_hash,
            flow.seed,
            &flow.inject,
        );
        let (schedule, hit) = self.cache.schedule(sched_key, || {
            passes::schedule::run(
                &front_end,
                design,
                &flow.device,
                clock_ns,
                flow.options.broadcast_aware,
                flow.seed,
                &flow.inject,
            )
        });
        tally(hit, &mut executions, &mut hits, &mut store_hits);
        // The lint baseline: the broadcast-blind schedule of the unsplit
        // design at the same clock.
        let baseline: Option<Arc<ScheduleArtifact>> = lint_front_end.map(|fe| {
            // The lint baseline stays broadcast-blind *and*
            // injection-blind: it models what stock HLS would build.
            let key = cache::schedule_key(
                unsplit_key,
                clock_ns,
                false,
                device_hash,
                flow.seed,
                &crate::options::RegisterInjection::Off,
            );
            let (baseline, hit) = self.cache.schedule(key, || {
                passes::schedule::run(
                    &fe,
                    &flow.design,
                    &flow.device,
                    clock_ns,
                    false,
                    flow.seed,
                    &crate::options::RegisterInjection::Off,
                )
            });
            tally(hit, &mut executions, &mut hits, &mut store_hits);
            baseline
        });
        let splits: u64 = schedule
            .loop_traces
            .iter()
            .map(|lt| lt.splits.len() as u64)
            .sum();
        let residual: u64 = schedule
            .loop_traces
            .iter()
            .map(|lt| lt.residual as u64)
            .sum();
        stage_counters(
            &span,
            &[
                ("executions", executions),
                ("cache-hits", hits),
                ("store-hits", store_hits),
                ("inserted-regs", schedule.inserted_regs as u64),
                ("injected-regs", schedule.injected_regs as u64),
                ("splits", splits),
                ("residual-violations", residual),
            ],
        );
        if flow.trace {
            for lt in &schedule.loop_traces {
                for s in &lt.splits {
                    hlsb_trace::event!(span, "schedule.split",
                        "kernel" => lt.kernel.as_str(),
                        "loop" => lt.looop.as_str(),
                        "round" => s.round as u64,
                        "violator" => u64::from(s.violator.0),
                        "op" => s.op.to_string(),
                        "cut" => u64::from(s.cut.0),
                        "broadcast-factor" => s.broadcast_factor as u64,
                        "excess-ns" => s.excess_ns,
                        "calibrated-ns" => s.calibrated_ns,
                        "predicted-ns" => s.predicted_ns);
                    span.count("decisions.schedule.split", 1);
                    span.observe(
                        "broadcast-factor",
                        &BROADCAST_FACTOR_BOUNDS,
                        s.broadcast_factor as f64,
                    );
                }
                for inj in &lt.injections {
                    hlsb_trace::event!(span, "schedule.inject",
                        "kernel" => lt.kernel.as_str(),
                        "loop" => lt.looop.as_str(),
                        "boundary" => u64::from(inj.boundary),
                        "cut" => u64::from(inj.cut.0),
                        "op" => inj.op.to_string(),
                        "readers" => inj.readers as u64);
                    span.count("decisions.schedule.inject", 1);
                }
                for &(inst, stages) in &lt.mem_stages {
                    hlsb_trace::event!(span, "schedule.mem-stages",
                        "kernel" => lt.kernel.as_str(),
                        "loop" => lt.looop.as_str(),
                        "inst" => u64::from(inst),
                        "stages" => u64::from(stages));
                }
                if lt.rounds == hlsb_sched::MAX_ROUNDS {
                    // Every split inserts one register.
                    hlsb_trace::event!(span, "schedule.capped",
                        "kernel" => lt.kernel.as_str(),
                        "loop" => lt.looop.as_str(),
                        "rounds" => lt.rounds as u64,
                        "inserted" => lt.splits.len() as u64);
                }
                if lt.residual > 0 {
                    hlsb_trace::event!(span, "schedule.residual",
                        "kernel" => lt.kernel.as_str(),
                        "loop" => lt.looop.as_str(),
                        "count" => lt.residual as u64);
                }
            }
        }
        span.finish();

        // Injection at a boundary no loop of the design has is a
        // configuration error, not a silent no-op. The verdict lives in
        // the artifact, so a cache hit rejects exactly like the run that
        // built it.
        if let Some(&bad) = schedule.invalid_boundaries.first() {
            let max_stage = schedule.depths.iter().copied().max().unwrap_or(0);
            return Err(FlowError::BadParameter {
                what: format!(
                    "register-injection boundary {bad} (deepest loop has stage \
                     boundaries 0..{max_stage})"
                ),
            });
        }

        // Lint pre-pass: report-only, reading the baseline schedule
        // artifact instead of re-deriving it.
        let lint = baseline.map(|baseline| {
            let span = root.child("lint");
            let report = hlsb_lint::lint_schedule(
                &flow.design,
                &flow.device,
                flow.clock_mhz,
                flow.seed,
                &baseline.loops,
            );
            stage_counters(
                &span,
                &[
                    ("front-end-reused", 1),
                    ("diagnostics", report.diagnostics.len() as u64),
                ],
            );
            span.finish();
            report
        });

        Ok((front_end, schedule, lint))
    }

    /// The `verify.network` pre-gate: structural dataflow analysis
    /// ([`hlsb_verify::check_network`]) on the design *as written*,
    /// before any pipeline stage runs. Returns the open report for the
    /// contract stage to extend — or the rejection when any finding is
    /// `Error`-severity. Runs per flow, outside the artifact cache, like
    /// [`verify_design`]: a cache hit must never mask a broken network.
    fn stage_verify_network(
        &self,
        flow: &Flow,
        root: &SpanGuard,
    ) -> Result<Option<hlsb_findings::Report>, FlowError> {
        if !flow.verify {
            return Ok(None);
        }
        let span = root.child("verify.network");
        let mut rep = hlsb_verify::report(&flow.design.name, &flow.device.name, flow.clock_mhz);
        hlsb_verify::check_network(&flow.design, &mut rep.diagnostics);
        stage_counters(&span, &verify_counters(&rep.diagnostics));
        if flow.trace {
            verify_events(&span, &rep.diagnostics);
        }
        span.finish();
        rep.sort_worst_first();
        if rep.count_at_least(hlsb_findings::Severity::Error) > 0 {
            return Err(FlowError::VerifyRejected {
                report: Box::new(rep),
            });
        }
        Ok(Some(rep))
    }

    /// The `verify.contracts` audit: schedule contracts
    /// ([`hlsb_verify::check_schedule`]) on every scheduled loop, plus
    /// the lowering contracts ([`hlsb_verify::check_lower`]) when the
    /// flow lowered (probes stop at the schedule). Extends the network
    /// report; any `Error` finding rejects the flow before the expensive
    /// back-end stages run.
    fn stage_verify_contracts(
        &self,
        flow: &Flow,
        rep: Option<hlsb_findings::Report>,
        design: &hlsb_ir::Design,
        schedule: &ScheduleArtifact,
        lower_info: Option<&hlsb_rtlgen::LowerInfo>,
        root: &SpanGuard,
    ) -> Result<Option<hlsb_findings::Report>, FlowError> {
        let Some(mut rep) = rep else {
            return Ok(None);
        };
        let span = root.child("verify.contracts");
        let before = rep.diagnostics.len();
        let mut contracts = Vec::new();
        let mut flat = 0usize;
        for (ki, kernel) in schedule.loops.iter().enumerate() {
            let kernel_name = design
                .kernels
                .get(ki)
                .map(|k| k.name.as_str())
                .unwrap_or_default();
            for sl in kernel {
                contracts.push(hlsb_verify::LoopContract {
                    kernel: kernel_name,
                    looop: &sl.looop,
                    schedule: &sl.schedule,
                    splits: schedule
                        .loop_traces
                        .get(flat)
                        .map_or(&[][..], |lt| lt.splits.as_slice()),
                });
                flat += 1;
            }
        }
        hlsb_verify::check_schedule(&contracts, &mut rep.diagnostics);
        if let Some(info) = lower_info {
            hlsb_verify::check_lower(info, &mut rep.diagnostics);
        }
        stage_counters(&span, &verify_counters(&rep.diagnostics[before..]));
        if flow.trace {
            verify_events(&span, &rep.diagnostics[before..]);
        }
        span.finish();
        rep.sort_worst_first();
        if rep.count_at_least(hlsb_findings::Severity::Error) > 0 {
            return Err(FlowError::VerifyRejected {
                report: Box::new(rep),
            });
        }
        Ok(Some(rep))
    }

    /// The staged pipeline for one flow, plus the run-ledger hook.
    /// `implement_threads` caps the placement-trial parallelism
    /// (run_many sets it to 1 when flows already run concurrently).
    fn run_pipeline(
        &self,
        flow: &Flow,
        implement_threads: usize,
    ) -> Result<
        (
            ImplementationResult,
            hlsb_netlist::Netlist,
            hlsb_place::Placement,
        ),
        FlowError,
    > {
        let Some(ledger) = &self.ledger else {
            return self.run_pipeline_inner(flow, implement_threads);
        };
        let start = Instant::now();
        let out = self.run_pipeline_inner(flow, implement_threads);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let status = match &out {
            Ok(_) => "ok",
            Err(FlowError::VerifyRejected { .. }) => "rejected",
            Err(_) => "failed",
        };
        let mut rec = hlsb_telemetry::RunRecord::new(
            "flow",
            &flow.design.name,
            flow.config_key(),
            status,
            wall_ms,
        );
        if let Ok((result, _, _)) = &out {
            for pass in &result.trace.records {
                rec.add_stage(&pass.pass, pass.wall_ms);
                for (name, v) in &pass.counters {
                    rec.add_count(name, *v);
                }
            }
        }
        // Telemetry must never fail the flow; a full disk loses the
        // record, not the result.
        let _ = ledger.append(rec);
        out
    }

    fn run_pipeline_inner(
        &self,
        flow: &Flow,
        implement_threads: usize,
    ) -> Result<
        (
            ImplementationResult,
            hlsb_netlist::Netlist,
            hlsb_place::Placement,
        ),
        FlowError,
    > {
        admit(flow)?;
        let (tracer, root) = self.flow_root(flow, "implement");
        let verify_rep = self.stage_verify_network(flow, &root)?;
        let (front_end, schedule, lint) = self.stage_front_end_and_schedule(flow, &root)?;
        let design = front_end.design(&flow.design);

        // Lower: RTL generation + capacity check.
        let span = root.child("lower");
        let lowered = passes::lower::run(
            design,
            &schedule,
            &flow.options,
            flow.partitions,
            &flow.device,
        )?;
        let sync_pruned = lowered
            .info
            .sync_decisions
            .iter()
            .filter(|d| !d.waited)
            .count();
        stage_counters(
            &span,
            &[
                ("cells", lowered.netlist.cell_count() as u64),
                ("skid-cuts", lowered.info.skid_decisions.len() as u64),
                ("sync-pruned", sync_pruned as u64),
            ],
        );
        if flow.trace {
            for d in &lowered.info.skid_decisions {
                hlsb_trace::event!(span, "skid.buffer",
                    "loop" => d.looop.as_str(),
                    "cut-stage" => d.cut_stage as u64,
                    "depth-slots" => d.depth_slots,
                    "width-bits" => d.width_bits,
                    "bits" => d.bits,
                    "storage" => d.storage.label(),
                    "min-area" => d.min_area);
                span.count("decisions.skid.buffer", 1);
            }
            for d in &lowered.info.sync_decisions {
                let mut attrs: Vec<(&str, Value)> = vec![
                    ("loop", d.looop.as_str().into()),
                    ("module", d.module.as_str().into()),
                ];
                if let Some(l) = d.latency {
                    attrs.push(("latency", l.into()));
                }
                if let Some(c) = d.cover_latency {
                    attrs.push(("cover-latency", c.into()));
                }
                if d.waited {
                    span.event("sync.keep", attrs);
                    span.count("decisions.sync.keep", 1);
                } else {
                    span.event("sync.prune", attrs);
                    span.count("decisions.sync.prune", 1);
                }
            }
            // The capacity check the lower pass just passed, as evidence:
            // used vs available per resource class.
            let stats = lowered.netlist.stats();
            let res = flow.device.resources;
            for (resource, used, cap) in [
                ("lut", stats.luts, res.luts),
                ("ff", stats.ffs, res.ffs),
                ("bram", stats.brams, res.brams),
                ("dsp", stats.dsps, res.dsps),
            ] {
                hlsb_trace::event!(span, "lower.capacity",
                    "resource" => resource,
                    "used" => used,
                    "cap" => cap);
            }
        }
        span.finish();

        // Contract audit, before paying for placement: a broken
        // schedule/lowering contract rejects the flow here.
        let verify = self.stage_verify_contracts(
            flow,
            verify_rep,
            design,
            &schedule,
            Some(&lowered.info),
            &root,
        )?;

        // Implement: multi-seed place/optimize, best timing wins.
        let span = root.child("implement");
        let (imp, trials, winner, partition) = passes::implement::run(
            lowered.netlist,
            &flow.device,
            flow.seed,
            flow.effort,
            flow.place_seeds,
            implement_threads,
            flow.partitions,
            &lowered.info.seam_cells,
            &tracer,
        );
        span.attr("trials", u64::from(flow.place_seeds.max(1)));
        // Deterministic (pure function of netlist + seed), so safe to
        // expose as a counter that participates in trace equality.
        // Summaries come back in trial order.
        span.attr("winner-hpwl", trials[winner as usize].hpwl.round() as u64);
        if let Some(p) = &partition {
            span.attr("islands", u64::from(p.islands));
            span.attr("crossing-registers", u64::from(p.crossing_registers));
            span.attr("cut-nets", u64::from(p.cut_nets));
        }
        if flow.trace {
            if let Some(p) = &partition {
                for (i, (&cells, &(x0, y0, w, h))) in
                    p.island_cells.iter().zip(&p.island_regions).enumerate()
                {
                    hlsb_trace::event!(span, "partition.island",
                        "island" => i as u64,
                        "cells" => u64::from(cells),
                        "region-x0" => u64::from(x0),
                        "region-y0" => u64::from(y0),
                        "region-w" => u64::from(w),
                        "region-h" => u64::from(h));
                }
            }
            // Trial spans are emitted post-hoc in trial order with their
            // worker-measured time windows, so the tree shape is the same
            // for sequential and parallel execution.
            let clock_ns = 1000.0 / flow.clock_mhz;
            for t in &trials {
                let ts = span.child(&format!("trial-{}", t.idx));
                ts.set_track(t.idx + 1);
                ts.attr("seed", t.seed);
                ts.attr("period-ns", t.period_ns);
                ts.attr("fmax-mhz", t.fmax_mhz);
                ts.attr("duplicated-regs", t.duplicated_regs as u64);
                ts.attr("retime-moves", t.retime_moves as u64);
                ts.attr("hpwl", t.hpwl);
                ts.attr("winner", t.idx == winner);
                ts.observe("slack-ns", &SLACK_NS_BOUNDS, clock_ns - t.period_ns);
                if let Some(p) = &partition {
                    // Island placements of this trial, as children of the
                    // trial span (phase A of the partitioned strategy).
                    for is in p.island_summaries.iter().filter(|s| s.trial == t.idx) {
                        let isp = ts.child(&format!("island-{}", is.island));
                        isp.attr("cells", u64::from(is.cells));
                        isp.attr("hpwl", is.hpwl);
                        isp.set_window(is.start_us, is.dur_us);
                        isp.finish();
                    }
                }
                ts.set_window(t.start_us, t.dur_us);
            }
        }
        span.finish();

        // Sign-off: assemble the result.
        let span = root.child("sign-off");
        let partition_summary = partition.map(|p| crate::result::PartitionSummary {
            islands: p.islands,
            cut_nets: p.cut_nets,
            crossing_registers: p.crossing_registers,
            crossing_register_bits: p.crossing_register_bits,
            island_cells: p.island_cells,
        });
        let (mut result, netlist, placement) = passes::signoff::assemble(
            &flow.device,
            &schedule,
            design.concurrency,
            lowered.info,
            imp,
            partition_summary,
            lint,
            verify,
        );
        span.attr("critical-cells", result.critical_cells.len() as u64);
        span.finish();
        (result.trace, result.span_tree) = finish_run(&tracer, root, flow);
        Ok((result, netlist, placement))
    }
}
