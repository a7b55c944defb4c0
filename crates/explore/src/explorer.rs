//! The closed-loop driver: per-configuration clock search with
//! probe-first evaluation, frequency-log resume, injection-twin pruning,
//! post-convergence semantics checks and `explore.*` span provenance.

use std::time::Instant;

use hlsb::{
    FlowSession, PassRecord, PassTrace, RegisterInjection, TraceTree, Tracer, DEFAULT_VERIFY_ITERS,
};
use hlsb_fabric::Device;
use hlsb_ir::Design;
use hlsb_sim::Stimulus;

use crate::config::ExploreConfig;
use crate::log::{FreqLog, TrialKind, TrialRecord};
use crate::search::{search_max_clock, SearchParams, Trial};
use crate::{DEFAULT_BUDGET, DEFAULT_TOLERANCE_MHZ};

/// Slack for the met-target comparison, MHz — well below the search
/// tolerance, well above f64 noise in the period/frequency conversion.
const EPS_MHZ: f64 = 1e-6;

/// The outcome of one configuration's search.
#[derive(Debug, Clone)]
pub struct ConfigOutcome {
    /// The configuration.
    pub config: ExploreConfig,
    /// Its clock-free label ([`ExploreConfig::label`]).
    pub label: String,
    /// Converged maximum clock target, MHz — `None` when no target was
    /// met, the configuration was pruned, or it is infeasible.
    pub converged_mhz: Option<f64>,
    /// Best achieved Fmax over all met trials, MHz (0 when none met).
    pub best_fmax_mhz: f64,
    /// Every decided trial of this search, in evaluation order.
    pub trials: Vec<Trial>,
    /// Fresh full (place-and-route) evaluations spent.
    pub full_evals: usize,
    /// Probe evaluations spent (search rejections + prune probes).
    pub probe_evals: usize,
    /// Trials answered from the frequency log without running anything.
    pub log_hits: usize,
    /// The search stopped on budget exhaustion, not tolerance.
    pub exhausted: bool,
    /// Dropped before searching: the probe at the start clock was
    /// indistinguishable from the no-injection twin (injection cut
    /// nothing; the hardware is identical).
    pub pruned: bool,
    /// The flow rejected the configuration outright (e.g. an injection
    /// boundary that names a stage of no loop).
    pub infeasible: Option<String>,
    /// Differential-simulation verdict at the converged clock, when the
    /// search converged and verification is enabled.
    pub sim_check: Option<Result<(), String>>,
    /// Whether the static contract checks (`hlsb-verify`) pass at the
    /// converged clock, when the search converged.
    pub verify_ok: Option<bool>,
    /// Wall-clock cost of this configuration's search, milliseconds.
    pub wall_ms: f64,
}

/// The outcome of one design's exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Design name.
    pub design: String,
    /// First trial target, MHz.
    pub start_mhz: f64,
    /// Convergence tolerance, MHz.
    pub tolerance_mhz: f64,
    /// The full-evaluation budget the run started with (shared across
    /// configurations).
    pub budget: usize,
    /// One outcome per requested configuration, in request order.
    pub outcomes: Vec<ConfigOutcome>,
    /// Fresh full evaluations spent across all configurations.
    pub full_evals: usize,
    /// Probe evaluations spent across all configurations.
    pub probe_evals: usize,
    /// Trials answered from the frequency log across all configurations.
    pub log_hits: usize,
    /// Per-pass wall times and counters accumulated over every probe and
    /// full run, plus an `explore` record with the evaluation counts.
    pub trace: PassTrace,
    /// The explorer's own span tree (`explore` root, one `explore.config`
    /// span per configuration, one `explore.trial` span per decided
    /// trial), when the explorer ran with [`FmaxExplorer::trace`]
    /// enabled.
    pub span_tree: Option<TraceTree>,
}

impl ExploreReport {
    /// The converged configuration with the highest achieved Fmax.
    pub fn best(&self) -> Option<&ConfigOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.converged_mhz.is_some())
            .max_by(|a, b| a.best_fmax_mhz.total_cmp(&b.best_fmax_mhz))
    }

    /// Whether every converged configuration passed its differential
    /// simulation and its contract checks (vacuously true when nothing
    /// converged or verification was disabled).
    pub fn semantics_ok(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| !matches!(o.sim_check, Some(Err(_))) && o.verify_ok != Some(false))
    }
}

/// Closed-loop Fmax explorer for one design/device pair.
///
/// ```no_run
/// use hlsb::FlowSession;
/// use hlsb_explore::FmaxExplorer;
/// # let bench = hlsb_benchmarks::all_benchmarks().remove(0);
/// let session = FlowSession::new();
/// let report = FmaxExplorer::new(&bench.design, &bench.device)
///     .start_mhz(bench.clock_mhz)
///     .tolerance_mhz(10.0)
///     .run(&session)
///     .expect("log I/O");
/// for o in &report.outcomes {
///     println!("{}: {:?} MHz", o.label, o.converged_mhz);
/// }
/// ```
pub struct FmaxExplorer<'a> {
    design: &'a Design,
    device: &'a Device,
    configs: Vec<ExploreConfig>,
    start_mhz: f64,
    tolerance_mhz: f64,
    budget: usize,
    seed: u64,
    log: FreqLog,
    verify_iters: u64,
    trace_spans: bool,
}

impl<'a> FmaxExplorer<'a> {
    /// An explorer over [`ExploreConfig::default_set`], starting at
    /// 300 MHz, default tolerance and budget, in-memory log.
    pub fn new(design: &'a Design, device: &'a Device) -> Self {
        FmaxExplorer {
            design,
            device,
            configs: ExploreConfig::default_set(),
            start_mhz: 300.0,
            tolerance_mhz: DEFAULT_TOLERANCE_MHZ,
            budget: DEFAULT_BUDGET,
            seed: 1,
            log: FreqLog::in_memory(),
            verify_iters: DEFAULT_VERIFY_ITERS,
            trace_spans: false,
        }
    }

    /// Sets the configurations to search.
    pub fn configs(mut self, configs: Vec<ExploreConfig>) -> Self {
        self.configs = configs;
        self
    }

    /// Sets the first trial target (typically the benchmark's Table 1
    /// clock).
    pub fn start_mhz(mut self, mhz: f64) -> Self {
        self.start_mhz = mhz;
        self
    }

    /// Sets the convergence tolerance.
    pub fn tolerance_mhz(mut self, mhz: f64) -> Self {
        self.tolerance_mhz = mhz;
        self
    }

    /// Caps *fresh full* (place-and-route) evaluations across all
    /// configurations of this run. Probes and log hits are free.
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = budget.max(1);
        self
    }

    /// Sets the base seed (placement noise streams).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a frequency log (e.g. [`FreqLog::open`] on a JSONL path)
    /// for resume-after-interrupt.
    pub fn log(mut self, log: FreqLog) -> Self {
        self.log = log;
        self
    }

    /// Iteration cap for the differential-simulation check of converged
    /// configurations; `0` disables both it and the contract re-check.
    pub fn verify_iters(mut self, iters: u64) -> Self {
        self.verify_iters = iters;
        self
    }

    /// Enables the explorer's own `explore.*` span tree
    /// ([`ExploreReport::span_tree`]).
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace_spans = enabled;
        self
    }

    /// Runs the search for every configuration and checks the semantics
    /// of every converged one.
    ///
    /// # Errors
    ///
    /// I/O errors of the frequency log. Per-configuration flow failures
    /// are not errors — they are recorded as
    /// [`infeasible`](ConfigOutcome::infeasible).
    pub fn run(&mut self, session: &FlowSession) -> std::io::Result<ExploreReport> {
        let t0 = Instant::now();
        let tracer = if self.trace_spans {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let root = tracer.root("explore");
        root.attr("design", self.design.name.as_str());
        root.attr("start-mhz", self.start_mhz);
        root.attr("tolerance-mhz", self.tolerance_mhz);
        root.attr("budget", self.budget as u64);

        let params = SearchParams::new(self.start_mhz, self.tolerance_mhz);
        let mut budget_left = self.budget;
        let mut trace = PassTrace::default();
        let mut outcomes: Vec<ConfigOutcome> = Vec::with_capacity(self.configs.len());
        let mut io_error: Option<std::io::Error> = None;

        for cfg in self.configs.clone() {
            let cfg_t0 = Instant::now();
            let label = cfg.label();
            // Every trial of this configuration is this flow at another
            // clock: its clones share the design and hash it once.
            let base = cfg.flow(self.design, self.device, self.seed, self.start_mhz);
            let cfg_span = root.child("explore.config");
            cfg_span.attr("config", label.as_str());
            let mut outcome = ConfigOutcome {
                config: cfg.clone(),
                label: label.clone(),
                converged_mhz: None,
                best_fmax_mhz: 0.0,
                trials: Vec::new(),
                full_evals: 0,
                probe_evals: 0,
                log_hits: 0,
                exhausted: false,
                pruned: false,
                infeasible: None,
                sim_check: None,
                verify_ok: None,
                wall_ms: 0.0,
            };

            // Injection-twin pruning: when the probe at the start clock
            // schedules to the same depths as the no-injection twin, the
            // injection cut nothing — the hardware is identical and the
            // twin's search already covers it.
            if cfg.inject.is_enabled() {
                let probe = session.probe(&base);
                match probe {
                    Err(e) => {
                        outcome.infeasible = Some(e.to_string());
                        cfg_span.attr("infeasible", e.to_string());
                        cfg_span.count("explore.infeasible", 1);
                        outcome.wall_ms = cfg_t0.elapsed().as_secs_f64() * 1e3;
                        outcomes.push(outcome);
                        continue;
                    }
                    Ok(p) => {
                        outcome.probe_evals += 2;
                        trace.merge(&p.trace);
                        let twin = session.probe(&base.clone().inject(RegisterInjection::Off));
                        if let Ok(t) = twin {
                            trace.merge(&t.trace);
                            if t.schedule_depths == p.schedule_depths {
                                outcome.pruned = true;
                                cfg_span.event(
                                    "explore.prune",
                                    vec![
                                        ("config", label.as_str().into()),
                                        ("reason", "identical-to-twin".into()),
                                    ],
                                );
                                cfg_span.count("explore.pruned", 1);
                                outcome.wall_ms = cfg_t0.elapsed().as_secs_f64() * 1e3;
                                outcomes.push(outcome);
                                continue;
                            }
                        }
                    }
                }
            }

            // The search: log first, then probe, then a full run.
            let search = {
                let log = &mut self.log;
                let (design, base) = (self.design, &base);
                let (full_evals, probe_evals, log_hits) = (
                    &mut outcome.full_evals,
                    &mut outcome.probe_evals,
                    &mut outcome.log_hits,
                );
                let (infeasible, trace, io_error) =
                    (&mut outcome.infeasible, &mut trace, &mut io_error);
                search_max_clock(params, |clock_mhz| {
                    let trial_t0 = Instant::now();
                    let flow = base.clone().clock_mhz(clock_mhz);
                    let key = flow.config_key();
                    let span = cfg_span.child("explore.trial");
                    span.attr("clock-mhz", clock_mhz);

                    if let Some(rec) = log.get(key) {
                        *log_hits += 1;
                        span.attr("kind", "log");
                        span.attr("met", rec.met);
                        span.attr("fmax-mhz", rec.fmax_mhz);
                        span.count("explore.log-hits", 1);
                        return Some(Trial {
                            clock_mhz,
                            met: rec.met,
                            fmax_mhz: rec.fmax_mhz,
                        });
                    }

                    let probe = match session.probe(&flow) {
                        Ok(p) => p,
                        Err(e) => {
                            *infeasible = Some(e.to_string());
                            span.attr("kind", "error");
                            return None;
                        }
                    };
                    trace.merge(&probe.trace);
                    let (kind, met, fmax_mhz, latency_cycles) = if probe.schedule_violations > 0 {
                        // A single-op delay already exceeds this
                        // target's budget: no placement can sign off.
                        *probe_evals += 1;
                        span.count("explore.probe-evals", 1);
                        (TrialKind::Probe, false, 0.0, 0)
                    } else {
                        if *full_evals + 1 > budget_left {
                            span.attr("kind", "budget");
                            return None;
                        }
                        match session.run(&flow) {
                            Ok(r) => {
                                *full_evals += 1;
                                span.count("explore.full-evals", 1);
                                trace.merge(&r.trace);
                                let met = r.fmax_mhz >= clock_mhz - EPS_MHZ;
                                (TrialKind::Full, met, r.fmax_mhz, r.latency_cycles)
                            }
                            Err(e) => {
                                // A rejected implementation (fit,
                                // contract breach) cannot meet the
                                // target; the search routes around it.
                                *full_evals += 1;
                                span.count("explore.full-evals", 1);
                                span.attr("error", e.to_string());
                                (TrialKind::Full, false, 0.0, 0)
                            }
                        }
                    };
                    span.attr("kind", kind.name());
                    span.attr("met", met);
                    span.attr("fmax-mhz", fmax_mhz);
                    if let Err(e) = log.insert(TrialRecord {
                        key,
                        design: design.name.clone(),
                        label: label.clone(),
                        clock_mhz,
                        kind,
                        met,
                        fmax_mhz,
                        latency_cycles,
                        wall_ms: trial_t0.elapsed().as_secs_f64() * 1e3,
                    }) {
                        *io_error = Some(e);
                        return None;
                    }
                    Some(Trial {
                        clock_mhz,
                        met,
                        fmax_mhz,
                    })
                })
            };
            if let Some(e) = io_error.take() {
                return Err(e);
            }
            budget_left -= outcome.full_evals.min(budget_left);
            outcome.converged_mhz = search.converged_mhz;
            outcome.best_fmax_mhz = search.best_fmax_mhz;
            outcome.trials = search.trials;
            outcome.exhausted = search.exhausted && outcome.infeasible.is_none();

            // Semantics of the converged point: differential simulation
            // against the untimed golden evaluator, and the static
            // contract checks (probes re-run the schedule contracts —
            // including the injected-register latency rule — on the
            // cached artifact).
            if let Some(converged) = outcome.converged_mhz {
                cfg_span.attr("converged-mhz", converged);
                cfg_span.attr("best-fmax-mhz", outcome.best_fmax_mhz);
                if self.verify_iters > 0 {
                    let flow = base.clone().clock_mhz(converged);
                    let stim = Stimulus::seeded(self.design, 1, self.verify_iters as usize);
                    let verdict = match session.simulate(&flow, &stim, self.verify_iters) {
                        Ok(sim) => {
                            trace.merge(&sim.trace);
                            sim.check()
                        }
                        Err(e) => Err(e.to_string()),
                    };
                    if verdict.is_err() {
                        cfg_span.count("explore.sim-failed", 1);
                    }
                    cfg_span.count("explore.sim-checked", 1);
                    outcome.sim_check = Some(verdict);
                    outcome.verify_ok = Some(session.probe(&flow.verify(true)).is_ok());
                }
            }
            outcome.wall_ms = cfg_t0.elapsed().as_secs_f64() * 1e3;
            if outcome.exhausted {
                cfg_span.count("explore.exhausted", 1);
            }
            outcomes.push(outcome);
        }

        let full_evals: usize = outcomes.iter().map(|o| o.full_evals).sum();
        let probe_evals: usize = outcomes.iter().map(|o| o.probe_evals).sum();
        let log_hits: usize = outcomes.iter().map(|o| o.log_hits).sum();
        trace.records.push(PassRecord {
            pass: "explore".to_string(),
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            counters: [
                ("configs", outcomes.len() as u64),
                ("full-evals", full_evals as u64),
                ("probe-evals", probe_evals as u64),
                ("log-hits", log_hits as u64),
                (
                    "pruned",
                    outcomes.iter().filter(|o| o.pruned).count() as u64,
                ),
                (
                    "infeasible",
                    outcomes.iter().filter(|o| o.infeasible.is_some()).count() as u64,
                ),
                (
                    "converged",
                    outcomes
                        .iter()
                        .filter(|o| o.converged_mhz.is_some())
                        .count() as u64,
                ),
                (
                    "exhausted",
                    outcomes.iter().filter(|o| o.exhausted).count() as u64,
                ),
            ]
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect(),
        });

        root.finish();
        let span_tree = self.trace_spans.then(|| tracer.take_tree());
        Ok(ExploreReport {
            design: self.design.name.clone(),
            start_mhz: self.start_mhz,
            tolerance_mhz: self.tolerance_mhz,
            budget: self.budget,
            outcomes,
            full_evals,
            probe_evals,
            log_hits,
            trace,
            span_tree,
        })
    }
}
