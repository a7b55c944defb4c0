//! The exploration driver: candidate selection, batched evaluation
//! through the session's result table, frontier extraction and
//! semantics verification.

use std::time::Instant;

use hlsb::{
    CacheStats, Evaluation, Flow, FlowSession, PassRecord, PassTrace, StageCacheStats, TraceTree,
    DEFAULT_VERIFY_ITERS,
};
use hlsb_fabric::Device;
use hlsb_ir::Design;
use hlsb_sim::Stimulus;

use crate::objective::{pareto_indices, pareto_ranks, Metrics};
use crate::space::{DseConfig, KnobSpace};
use crate::strategy::{proxy_metrics, Strategy};

/// One fully evaluated configuration in a [`DseReport`].
#[derive(Debug, Clone)]
pub struct EvaluatedPoint {
    /// The configuration.
    pub config: DseConfig,
    /// Its [`Flow::config_key`].
    pub key: u64,
    /// Measured objectives (from the store or a fresh run — identical
    /// either way, the pipeline is deterministic).
    pub metrics: Metrics,
    /// Whether the session's persistent store answered the point.
    pub from_store: bool,
    /// Differential-simulation verdict, set for Pareto-optimal points
    /// when verification is enabled: `Ok(())` when the cycle-accurate
    /// trace matches the golden reference and the latency is consistent.
    pub sim_check: Option<Result<(), String>>,
}

/// The outcome of one exploration run.
#[derive(Debug, Clone)]
pub struct DseReport {
    /// Strategy name (`grid` / `random` / `halving`).
    pub strategy: &'static str,
    /// Every configuration with full metrics, in candidate order.
    pub points: Vec<EvaluatedPoint>,
    /// Indices into [`points`](DseReport::points) of the Pareto-optimal
    /// configurations, fastest first.
    pub frontier: Vec<usize>,
    /// Cheap probe evaluations spent (successive halving only).
    pub probe_evals: usize,
    /// Full place-and-route evaluations spent.
    pub full_evals: usize,
    /// Configurations answered by the session's persistent store.
    pub store_hits: usize,
    /// Candidates whose flow failed (e.g. the design does not fit the
    /// device at that configuration) — excluded from the frontier.
    pub infeasible: usize,
    /// Candidates dropped because the budget was smaller than the
    /// candidate set.
    pub budget_dropped: usize,
    /// The static network report that rejected the design, when the
    /// `hlsb-verify` pre-filter found `Error`-severity defects. The
    /// network rules are configuration-independent, so one dirty verdict
    /// rejects every candidate before any probe or full run is paid for
    /// — [`points`](DseReport::points) is empty then.
    pub network_report: Option<hlsb_findings::Report>,
    /// Per-pass wall times and counters accumulated over every probe and
    /// full run, plus a `dse` record with the evaluation counts and the
    /// session cache hit/miss deltas of this exploration.
    pub trace: PassTrace,
    /// Front-end/schedule cache activity caused by this run.
    pub cache_delta: StageCacheStats,
    /// Span trace of every fresh full evaluation, labelled by
    /// configuration ([`DseConfig::label`]), when the explorer ran with
    /// [`Explorer::trace`] enabled. Ready for
    /// [`hlsb::chrome_trace`] — one Chrome-trace process per
    /// configuration.
    pub span_trees: Vec<(String, TraceTree)>,
}

impl DseReport {
    /// The Pareto-optimal points, fastest first.
    pub fn frontier_points(&self) -> impl Iterator<Item = &EvaluatedPoint> {
        self.frontier.iter().map(|&i| &self.points[i])
    }

    /// Whether every verified frontier point passed its differential
    /// simulation (vacuously true when verification was disabled).
    pub fn frontier_semantics_ok(&self) -> bool {
        self.frontier_points()
            .all(|p| !matches!(p.sim_check, Some(Err(_))))
    }
}

/// Pareto design-space explorer over the broadcast-optimization knobs of
/// one design/device pair.
///
/// Every point is evaluated through [`FlowSession::evaluate_many`]: when
/// the session is backed by a persistent store
/// ([`FlowSession::with_backend`]), points the store holds are answered
/// without running, and fresh points are published to it — so a killed
/// sweep resumes where it stopped, and a store warmed by `hlsb-serve`
/// answers the same configurations here.
///
/// ```no_run
/// use hlsb::FlowSession;
/// use hlsb_dse::{Explorer, KnobSpace, Strategy};
/// # let bench = hlsb_benchmarks::all_benchmarks().remove(0);
/// let session = FlowSession::new();
/// let report = Explorer::new(&bench.design, &bench.device)
///     .space(KnobSpace::optimization_cube(vec![250.0, 300.0]))
///     .strategy(Strategy::SuccessiveHalving)
///     .budget(8)
///     .run(&session)
///     .expect("store I/O");
/// for p in report.frontier_points() {
///     println!("{} {:.0} MHz", p.config.label(), p.metrics.fmax_mhz);
/// }
/// ```
pub struct Explorer<'a> {
    design: &'a Design,
    device: &'a Device,
    space: KnobSpace,
    strategy: Strategy,
    budget: usize,
    seed: u64,
    verify_iters: u64,
    trace_spans: bool,
}

impl<'a> Explorer<'a> {
    /// An explorer over the default space (the optimization cube at
    /// 300 MHz), grid strategy, unbounded budget.
    pub fn new(design: &'a Design, device: &'a Device) -> Self {
        Explorer {
            design,
            device,
            space: KnobSpace::optimization_cube(vec![300.0]),
            strategy: Strategy::Grid,
            budget: usize::MAX,
            seed: 1,
            verify_iters: DEFAULT_VERIFY_ITERS,
            trace_spans: false,
        }
    }

    /// Sets the knob space to search.
    pub fn space(mut self, space: KnobSpace) -> Self {
        self.space = space;
        self
    }

    /// Sets the search strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Caps the number of *full-flow* evaluations (place-and-route runs).
    /// Cheap probes are not budgeted — they are the point of the proxy
    /// stage.
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = budget.max(1);
        self
    }

    /// Sets the base seed (sampling, placement noise streams).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Iteration cap for the differential-simulation check of frontier
    /// configurations; `0` disables verification.
    pub fn verify_iters(mut self, iters: u64) -> Self {
        self.verify_iters = iters;
        self
    }

    /// Enables span tracing ([`Flow::trace`]) on every evaluated flow.
    /// Fresh full evaluations land in [`DseReport::span_trees`]; probes
    /// and store hits carry no tree (probes for cost, store hits because
    /// nothing ran).
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace_spans = enabled;
        self
    }

    /// Runs the search: selects candidates per the strategy, evaluates
    /// them in one [`FlowSession::evaluate_many`] batch (the session's
    /// store first, then the misses in parallel), extracts the Pareto
    /// frontier and differentially simulates every frontier
    /// configuration.
    ///
    /// # Errors
    ///
    /// The first error the session's store returned publishing a fresh
    /// record. Per-candidate flow failures are not errors — they are
    /// counted as [`infeasible`](DseReport::infeasible) and skipped.
    pub fn run(&self, session: &FlowSession) -> std::io::Result<DseReport> {
        let t0 = Instant::now();
        // Every point's flow is a clone of this one: they share the
        // design and hash it once.
        let base = Flow::new(self.design.clone())
            .device(self.device.clone())
            .seed(self.seed)
            .trace(self.trace_spans)
            .verify(true);
        let stats0 = session.cache_stats_by_stage();
        let mut trace = PassTrace::default();
        let mut probe_evals = 0usize;
        let mut budget_dropped = 0usize;

        // Structural pre-filter: the verify network rules are
        // configuration-independent, so one dirty verdict on the design
        // rejects every candidate before any probe or full run is paid
        // for. (Every evaluated flow additionally runs with
        // [`Flow::verify`] on, so schedule/lowering contract breaches
        // surface per configuration as infeasible candidates.)
        let network = hlsb_verify::verify_network(
            self.design,
            &self.device.name,
            self.space.clocks_mhz.first().copied().unwrap_or(300.0),
        );
        let verify_rejected = network.count_at_least(hlsb_findings::Severity::Error) > 0;

        // Candidate selection.
        let candidates: Vec<DseConfig> = if verify_rejected {
            Vec::new()
        } else {
            match self.strategy {
                Strategy::Grid => {
                    let mut all = self.space.enumerate();
                    if all.len() > self.budget {
                        budget_dropped = all.len() - self.budget;
                        all.truncate(self.budget);
                    }
                    all
                }
                Strategy::Random => self.space.sample_distinct(self.budget, self.seed),
                Strategy::SuccessiveHalving => {
                    let all = self.space.enumerate();
                    let survivors = self.budget.min(all.len().div_ceil(2));
                    let mut ranked: Vec<(usize, Metrics)> = Vec::with_capacity(all.len());
                    for (i, cfg) in all.iter().enumerate() {
                        // The probe is the cheap stage: front-end + schedule
                        // + lint, no placement. Lint feeds the fmax proxy.
                        let flow = cfg.apply(base.clone()).lint(true);
                        match session.probe(&flow) {
                            Ok(probe) => {
                                probe_evals += 1;
                                trace.merge(&probe.trace);
                                ranked.push((i, proxy_metrics(cfg, &probe)));
                            }
                            Err(_) => {
                                // Leave it to the full stage to classify; an
                                // unprobeable candidate is simply not ranked.
                            }
                        }
                    }
                    let metrics: Vec<Metrics> = ranked.iter().map(|(_, m)| *m).collect();
                    let ranks = pareto_ranks(&metrics);
                    let mut order: Vec<usize> = (0..ranked.len()).collect();
                    order.sort_by(|&a, &b| {
                        ranks[a]
                            .cmp(&ranks[b])
                            .then(metrics[a].report_order(&metrics[b]))
                            .then(ranked[a].0.cmp(&ranked[b].0))
                    });
                    budget_dropped = ranked.len() - survivors.min(ranked.len());
                    order
                        .into_iter()
                        .take(survivors)
                        .map(|i| all[ranked[i].0])
                        .collect()
                }
            }
        };

        // Evaluation: the session's store answers first, the session runs
        // the rest in one parallel batch.
        let flows: Vec<(Flow, String, u64)> = candidates
            .iter()
            .map(|cfg| {
                let flow = cfg.apply(base.clone());
                let key = flow.config_key();
                (flow, cfg.label(), key)
            })
            .collect();
        let mut points: Vec<EvaluatedPoint> = Vec::with_capacity(candidates.len());
        let mut full_evals = 0usize;
        let mut store_hits = 0usize;
        let mut infeasible = 0usize;
        let mut span_trees: Vec<(String, TraceTree)> = Vec::new();
        let evals = session.evaluate_many(flows);
        for (cfg, eval) in candidates.iter().zip(evals) {
            let (record, from_store) = match eval {
                Evaluation::Stored(record) => {
                    store_hits += 1;
                    (record, true)
                }
                Evaluation::Fresh {
                    mut result,
                    record,
                    published,
                } => {
                    published?;
                    full_evals += 1;
                    trace.merge(&result.trace);
                    if let Some(tree) = result.span_tree.take() {
                        span_trees.push((cfg.label(), tree));
                    }
                    (record, false)
                }
                Evaluation::Failed(_) => {
                    infeasible += 1;
                    continue;
                }
            };
            points.push(EvaluatedPoint {
                config: *cfg,
                key: record.key,
                metrics: Metrics::from_record(&record),
                from_store,
                sim_check: None,
            });
        }

        // Frontier extraction + differential simulation of every winner.
        let metrics: Vec<Metrics> = points.iter().map(|p| p.metrics).collect();
        let frontier = pareto_indices(&metrics);
        let mut sim_checked = 0u64;
        let mut sim_failed = 0u64;
        if self.verify_iters > 0 {
            let stim = Stimulus::seeded(self.design, 1, self.verify_iters as usize);
            for &i in &frontier {
                let flow = points[i].config.apply(base.clone());
                let verdict = match session.simulate(&flow, &stim, self.verify_iters) {
                    Ok(sim) => {
                        trace.merge(&sim.trace);
                        sim.check()
                    }
                    Err(e) => Err(e.to_string()),
                };
                sim_checked += 1;
                if verdict.is_err() {
                    sim_failed += 1;
                }
                points[i].sim_check = Some(verdict);
            }
        }

        let stats1 = session.cache_stats_by_stage();
        let cache_delta = StageCacheStats {
            front_end: CacheStats {
                hits: stats1.front_end.hits - stats0.front_end.hits,
                disk_hits: stats1.front_end.disk_hits - stats0.front_end.disk_hits,
                misses: stats1.front_end.misses - stats0.front_end.misses,
            },
            schedule: CacheStats {
                hits: stats1.schedule.hits - stats0.schedule.hits,
                disk_hits: stats1.schedule.disk_hits - stats0.schedule.disk_hits,
                misses: stats1.schedule.misses - stats0.schedule.misses,
            },
        };
        trace.records.push(PassRecord {
            pass: "dse".to_string(),
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            counters: [
                ("probe-evals", probe_evals as u64),
                ("full-evals", full_evals as u64),
                ("store-hits", store_hits as u64),
                ("infeasible", infeasible as u64),
                ("verify-rejected", u64::from(verify_rejected)),
                ("budget-dropped", budget_dropped as u64),
                ("frontier", frontier.len() as u64),
                ("sim-checked", sim_checked),
                ("sim-failed", sim_failed),
                ("fe-cache-hits", cache_delta.front_end.hits),
                ("fe-store-hits", cache_delta.front_end.disk_hits),
                ("fe-cache-misses", cache_delta.front_end.misses),
                ("sched-cache-hits", cache_delta.schedule.hits),
                ("sched-store-hits", cache_delta.schedule.disk_hits),
                ("sched-cache-misses", cache_delta.schedule.misses),
            ]
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect(),
        });

        Ok(DseReport {
            strategy: self.strategy.name(),
            points,
            frontier,
            probe_evals,
            full_evals,
            store_hits,
            infeasible,
            budget_dropped,
            network_report: verify_rejected.then_some(network),
            trace,
            cache_delta,
            span_trees,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_design_is_rejected_before_any_evaluation() {
        let (design, rule) = hlsb_sim::random_dirty_design(0);
        let device = Device::ultrascale_plus_vu9p();
        let session = FlowSession::new();
        let report = Explorer::new(&design, &device)
            .budget(4)
            .run(&session)
            .expect("in-memory store");
        assert!(report.points.is_empty());
        assert_eq!(report.probe_evals + report.full_evals, 0);
        assert_eq!(report.trace.counter("dse", "verify-rejected"), Some(1));
        let network = report.network_report.expect("rejection carries evidence");
        assert!(network.has_rule(rule), "{}", network.to_table());
    }
}
