//! `explore-campaign`: the closed-loop Fmax explorer over all nine
//! Table-1 designs with its default configurations, one shared
//! single-threaded session and a fresh frequency log in a scratch
//! directory per round — the campaign wall a DSE user waits for. One
//! operation is one design's search.

use std::path::Path;
use std::time::Instant;

use hlsb::FlowSession;
use hlsb_benchmarks::{all_benchmarks, Benchmark};
use hlsb_explore::{
    search_max_clock, ExploreConfig, FmaxExplorer, FreqLog, SearchParams, Trial, TrialKind,
    TrialRecord, DEFAULT_VERIFY_ITERS,
};
use hlsb_sim::Stimulus;
use hlsb_trace::{SpanGuard, Tracer};

use crate::harness::{self, ms_since, rate, Checks, Ctx, Outcome, Paired, Round, Work};
use crate::replay::{hash_debug, layer, FlowConfig, Replay};

/// Slack of the explorer's met-target comparison, MHz.
const EPS_MHZ: f64 = 1e-6;

/// Search settings of one campaign.
#[derive(Debug, Clone, Copy)]
struct Settings {
    tolerance_mhz: f64,
    budget: usize,
}

struct Inputs {
    benches: Vec<Benchmark>,
    settings: Settings,
}

fn setup(ctx: &Ctx) -> Inputs {
    // A 40 MHz tolerance and 6 full evaluations per design keep a round
    // near four seconds on a 2-CPU machine (the explorer's defaults,
    // 10 MHz and 25, take about fifteen); searches still converge, so
    // the simulation checks run.
    Inputs {
        benches: all_benchmarks(),
        settings: Settings {
            tolerance_mhz: 40.0,
            budget: if ctx.quick { 3 } else { 6 },
        },
    }
}

/// What one configuration's search decided — the fields the replay must
/// reproduce.
#[derive(Debug, Clone, PartialEq)]
struct ConfigView {
    converged_mhz: Option<f64>,
    best_fmax_mhz: f64,
    full_evals: usize,
    probe_evals: usize,
    log_hits: usize,
    pruned: bool,
    infeasible: bool,
    sim_ok: Option<bool>,
    verify_ok: Option<bool>,
}

/// Per design, per configuration.
type Views = Vec<Vec<ConfigView>>;

fn log_path(dir: &Path) -> std::path::PathBuf {
    dir.join("freq-log.jsonl")
}

/// One design's search through the program: a view per configuration,
/// or why it failed.
fn search(
    session: &FlowSession,
    bench: &Benchmark,
    settings: Settings,
    seed: u64,
    dir: &Path,
) -> Result<Vec<ConfigView>, String> {
    let report = FreqLog::open(log_path(dir))
        .and_then(|log| {
            FmaxExplorer::new(&bench.design, &bench.device)
                .start_mhz(bench.clock_mhz)
                .tolerance_mhz(settings.tolerance_mhz)
                .budget(settings.budget)
                .seed(seed)
                .log(log)
                .run(session)
        })
        .map_err(|e| format!("frequency log: {e}"))?;
    if !report.semantics_ok() {
        return Err("semantics check failed".to_string());
    }
    Ok(report
        .outcomes
        .iter()
        .map(|o| ConfigView {
            converged_mhz: o.converged_mhz,
            best_fmax_mhz: o.best_fmax_mhz,
            full_evals: o.full_evals,
            probe_evals: o.probe_evals,
            log_hits: o.log_hits,
            pruned: o.pruned,
            infeasible: o.infeasible.is_some(),
            sim_ok: o.sim_check.as_ref().map(Result::is_ok),
            verify_ok: o.verify_ok,
        })
        .collect())
}

fn round(inputs: &Inputs, ctx: &Ctx, checks: &mut Checks) -> (Round, Views) {
    let dir = ctx.scratch("explore");
    let session = FlowSession::with_threads(1);
    let mut r = Round::default();
    let mut views = Vec::with_capacity(inputs.benches.len());
    for b in &inputs.benches {
        let t0 = Instant::now();
        let out = search(&session, b, inputs.settings, ctx.seed, &dir);
        r.op_ms.push(ms_since(t0));
        checks.op(out.as_ref().err().map(|e| format!("{}: {e}", b.name)));
        views.push(out.unwrap_or_default());
    }
    let _ = std::fs::remove_dir_all(&dir);
    r.digest = hash_debug(&views);
    (r, views)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut checks = Checks::default();
    let (inputs, setup_s, measured) =
        harness::measure(ctx, || setup(ctx), |inputs| round(inputs, ctx, &mut checks));
    let (rounds, views): (Vec<Round>, Vec<Views>) = measured.into_iter().unzip();
    checks.same_results(&rounds);
    let mut layers = Vec::new();
    if ctx.traced {
        layers = traced(ctx, &inputs, &mut checks);
        let total =
            |f: fn(&ConfigView) -> usize| views[0].iter().flatten().map(f).sum::<usize>() as f64;
        let full_evals = total(|c| c.full_evals);
        let wall_s: f64 = harness::per_op_times(&rounds).iter().sum::<f64>() / 1e3;
        layers.extend([
            ("explore.full_evals".to_string(), full_evals),
            ("explore.probe_evals".to_string(), total(|c| c.probe_evals)),
            ("explore.log_hits".to_string(), total(|c| c.log_hits)),
            (
                "explore.full_evals_per_s".to_string(),
                rate(full_evals, wall_s),
            ),
        ]);
    }
    Outcome {
        setup_s,
        rounds,
        op_labels: inputs
            .benches
            .iter()
            .map(|b| b.design.name.clone())
            .collect(),
        checks,
        layers,
    }
}

/// The explorer replayed from outside: the same search loop
/// ([`search_max_clock`]) over a session mirror, with the frequency log
/// reads and appends in spans.
struct ReplayExplorer<'a> {
    bench: &'a Benchmark,
    settings: Settings,
    seed: u64,
}

impl ReplayExplorer<'_> {
    fn flow(&self, cfg: &ExploreConfig, clock_mhz: f64) -> FlowConfig {
        assert_eq!(cfg.partitions, hlsb::Partitioning::Off);
        FlowConfig {
            device: self.bench.device.clone(),
            clock_mhz,
            options: cfg.options,
            seed: self.seed,
            effort: cfg.effort,
            place_seeds: cfg.place_seeds,
            inject: cfg.inject.clone(),
            ..FlowConfig::new(self.bench.design.clone())
        }
    }

    /// Mirrors `FmaxExplorer::run` for one design.
    fn run(
        &self,
        span: &SpanGuard,
        replay: &mut Replay,
        log: &mut FreqLog,
        work: &mut Work,
    ) -> Vec<ConfigView> {
        let start = self.bench.clock_mhz;
        let params = SearchParams::new(start, self.settings.tolerance_mhz);
        let mut budget_left = self.settings.budget;
        let mut views = Vec::new();
        for cfg in ExploreConfig::default_set() {
            let label = cfg.label();
            let mut v = ConfigView {
                converged_mhz: None,
                best_fmax_mhz: 0.0,
                full_evals: 0,
                probe_evals: 0,
                log_hits: 0,
                pruned: false,
                infeasible: false,
                sim_ok: None,
                verify_ok: None,
            };
            if cfg.inject.is_enabled() {
                match replay.probe(span, &self.flow(&cfg, start)) {
                    Err(_) => {
                        v.infeasible = true;
                        views.push(v);
                        continue;
                    }
                    Ok(p) => {
                        v.probe_evals += 2;
                        let twin = replay.probe(span, &self.flow(&cfg.twin(), start));
                        if twin.is_ok_and(|t| t.depths == p.depths) {
                            v.pruned = true;
                            views.push(v);
                            continue;
                        }
                    }
                }
            }
            let search = search_max_clock(params, |clock_mhz| {
                let trial_t0 = Instant::now();
                let fc = self.flow(&cfg, clock_mhz);
                let flow = fc.flow();
                let key = layer(span, "core.config_key", || flow.config_key());
                if let Some(rec) = layer(span, "explore.log_get", || log.get(key).cloned()) {
                    v.log_hits += 1;
                    return Some(Trial {
                        clock_mhz,
                        met: rec.met,
                        fmax_mhz: rec.fmax_mhz,
                    });
                }
                let probe = match replay.probe(span, &fc) {
                    Ok(p) => p,
                    Err(_) => {
                        v.infeasible = true;
                        return None;
                    }
                };
                let (kind, met, fmax_mhz, latency_cycles) = if probe.violations > 0 {
                    v.probe_evals += 1;
                    (TrialKind::Probe, false, 0.0, 0)
                } else {
                    if v.full_evals + 1 > budget_left {
                        return None;
                    }
                    v.full_evals += 1;
                    match replay.run(span, &fc) {
                        Ok(r) => {
                            work.add_run(&r);
                            let met = r.qor.fmax_mhz >= clock_mhz - EPS_MHZ;
                            (TrialKind::Full, met, r.qor.fmax_mhz, r.qor.latency_cycles)
                        }
                        Err(_) => (TrialKind::Full, false, 0.0, 0),
                    }
                };
                let rec = TrialRecord {
                    key,
                    design: self.bench.design.name.clone(),
                    label: label.clone(),
                    clock_mhz,
                    kind,
                    met,
                    fmax_mhz,
                    latency_cycles,
                    wall_ms: ms_since(trial_t0),
                };
                layer(span, "explore.log_put", || log.insert(rec))
                    .expect("append to the replay log");
                Some(Trial {
                    clock_mhz,
                    met,
                    fmax_mhz,
                })
            });
            budget_left -= v.full_evals.min(budget_left);
            v.converged_mhz = search.converged_mhz;
            v.best_fmax_mhz = search.best_fmax_mhz;
            if let Some(converged) = v.converged_mhz {
                let fc = self.flow(&cfg, converged);
                let iters = DEFAULT_VERIFY_ITERS;
                let stim = Stimulus::seeded(&self.bench.design, 1, iters as usize);
                v.sim_ok = Some(matches!(
                    replay.simulate(span, &fc, &stim, iters),
                    Ok(Ok(()))
                ));
                let checked = FlowConfig { verify: true, ..fc };
                v.verify_ok = Some(replay.probe(span, &checked).is_ok());
            }
            views.push(v);
        }
        views
    }
}

/// The traced round: every design's search through the program, then
/// replayed on one session mirror, each with a fresh log of its own.
fn traced(ctx: &Ctx, inputs: &Inputs, checks: &mut Checks) -> Vec<(String, f64)> {
    let program_dir = ctx.scratch("explore-program");
    let replay_dir = ctx.scratch("explore-replay");
    let tracer = Tracer::enabled();
    let root = tracer.root("explore-campaign");
    let session = FlowSession::with_threads(1);
    let mut replay = Replay::default();
    let mut work = Work::default();
    let mut paired = Paired::default();
    for bench in &inputs.benches {
        let want = paired
            .program(|| search(&session, bench, inputs.settings, ctx.seed, &program_dir))
            .ok();
        let got = paired.replay(|| {
            let span = root.child("design");
            let mut log = layer(&span, "explore.log_get", || {
                FreqLog::open(log_path(&replay_dir))
            })
            .expect("open the replay log");
            let explorer = ReplayExplorer {
                bench,
                settings: inputs.settings,
                seed: ctx.seed,
            };
            let got = explorer.run(&span, &mut replay, &mut log, &mut work);
            span.finish();
            got
        });
        work.mismatches += u64::from(want != Some(got));
    }
    root.finish();
    let _ = std::fs::remove_dir_all(&program_dir);
    let _ = std::fs::remove_dir_all(&replay_dir);
    let tree = tracer.take_tree();
    let mut layers = harness::traced_layers(ctx, "explore-campaign", &tree, paired, checks);
    layers.extend(work.metrics(&tree));
    layers
}
