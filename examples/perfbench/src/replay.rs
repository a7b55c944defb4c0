//! Outside-in replay of the flow pipeline.
//!
//! [`Replay`] re-runs what [`hlsb::FlowSession`] does for `probe`, `run`
//! and `simulate` by calling the layer crates' public functions with the
//! arguments the session's passes use, wrapping each call in a span
//! opened here (named `<crate>.<function>`). It mirrors the session's
//! stage cache — the same content keys, so the same calls hit and miss —
//! and, when given a store, the session's artifact-fingerprint
//! publishing. Only flat (unpartitioned) placement is mirrored; every
//! workload of this benchmark runs flat.
//!
//! The per-layer self times of a traced round come from these spans
//! ([`layer_times`]); the replay's results are compared with the
//! program's own, so a replay that drifts from the pipeline shows up as
//! `replay.mismatches` instead of as wrong layer numbers.

use std::collections::HashMap;
use std::fmt::Debug;
use std::rc::Rc;

use hlsb::{
    FrontEndArtifact, LoopFrontEndInfo, LoopScheduleTrace, OptimizationOptions, PlaceEffort,
    RegisterInjection, ScheduleArtifact,
};
use hlsb_delay::{CalibratedModel, HlsPredictedModel};
use hlsb_fabric::{Device, WireModel};
use hlsb_findings::Severity;
use hlsb_ir::Design;
use hlsb_netlist::{Netlist, Stats};
use hlsb_place::{place_with, AnnealConfig, Placement};
use hlsb_rtlgen::{ControlStyle, RtlOptions, ScheduledDesign, ScheduledLoop};
use hlsb_sched::MemAccessPlan;
use hlsb_sim::{ControlModel, SimOptions, Stimulus};
use hlsb_store::{ArtifactBackend, ArtifactStore, StageKind};
use hlsb_timing::{
    optimize_fanout, refine_critical, retime, sta, FanoutOptions, RefineOptions, RetimeOptions,
    TimingReport,
};
use hlsb_trace::{SpanGuard, TraceTree};

/// Everything that configures one flow, held in the open so the replay
/// can read it ([`hlsb::Flow`] keeps its fields private). Partitioning
/// is always off and lint always off.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    pub design: Design,
    pub device: Device,
    pub clock_mhz: f64,
    pub options: OptimizationOptions,
    pub seed: u64,
    pub effort: PlaceEffort,
    pub place_seeds: u32,
    pub inject: RegisterInjection,
    pub verify: bool,
}

impl FlowConfig {
    /// A flow at [`hlsb::Flow::new`]'s defaults for the given design.
    pub fn new(design: Design) -> Self {
        FlowConfig {
            design,
            device: Device::ultrascale_plus_vu9p(),
            clock_mhz: 300.0,
            options: OptimizationOptions::none(),
            seed: 1,
            effort: PlaceEffort::Normal,
            place_seeds: 3,
            inject: RegisterInjection::Off,
            verify: false,
        }
    }

    /// The program's view of this configuration.
    pub fn flow(&self) -> hlsb::Flow {
        hlsb::Flow::new(self.design.clone())
            .device(self.device.clone())
            .clock_mhz(self.clock_mhz)
            .options(self.options)
            .seed(self.seed)
            .place_effort(self.effort)
            .place_seeds(self.place_seeds)
            .inject(self.inject.clone())
            .verify(self.verify)
    }
}

/// Why a replayed flow stopped, in the session's error classes.
#[derive(Debug, Clone, PartialEq)]
pub enum Stop {
    /// Verify rejected the design; sorted, deduplicated error rules.
    Rejected(Vec<String>),
    /// Invalid IR, bad parameter or a design that does not fit.
    Failed(String),
}

/// What a replayed probe reports (the fields of [`hlsb::ProbeOutcome`]
/// the workloads compare).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeView {
    pub depths: Vec<u32>,
    pub latency_cycles: u64,
    pub inserted_regs: usize,
    pub violations: usize,
}

impl From<&hlsb::ProbeOutcome> for ProbeView {
    fn from(p: &hlsb::ProbeOutcome) -> ProbeView {
        ProbeView {
            depths: p.schedule_depths.clone(),
            latency_cycles: p.latency_cycles,
            inserted_regs: p.inserted_regs,
            violations: p.schedule_violations,
        }
    }
}

/// The result fields of a full run that a replay must reproduce
/// bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Qor {
    pub fmax_mhz: f64,
    pub period_ns: f64,
    pub latency_cycles: u64,
    pub stats: Stats,
    pub inserted_regs: usize,
    pub duplicated_regs: usize,
    pub retime_moves: usize,
}

impl From<&hlsb::ImplementationResult> for Qor {
    fn from(r: &hlsb::ImplementationResult) -> Qor {
        Qor {
            fmax_mhz: r.fmax_mhz,
            period_ns: r.period_ns,
            latency_cycles: r.latency_cycles,
            stats: r.stats,
            inserted_regs: r.inserted_regs,
            duplicated_regs: r.duplicated_regs,
            retime_moves: r.retime_moves,
        }
    }
}

/// What a replayed full run reports, plus the work counts of its
/// placement.
#[derive(Debug, Clone, PartialEq)]
pub struct RunView {
    pub qor: Qor,
    /// `sta()` re-run on the winning placement agreed with the winner's
    /// refined timing.
    pub sta_agrees: bool,
    /// Cells placed per trial, highest net fanout, annealing moves over
    /// all trials.
    pub cells: u64,
    pub max_fanout: u64,
    pub moves: u64,
}

/// Runs `f` inside a child span of `parent` named `name`.
pub fn layer<T>(parent: &SpanGuard, name: &str, f: impl FnOnce() -> T) -> T {
    let span = parent.child(name);
    let out = f();
    span.finish();
    out
}

/// 64-bit FNV-1a over a value's `Debug` rendering — the session's stage
/// cache key function, and the digest rounds compare their results by.
pub fn hash_debug<T: Debug + ?Sized>(value: &T) -> u64 {
    fnv(format!("{value:?}").bytes())
}

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The session's order-dependent combination of key parts.
fn combine(parts: &[u64]) -> u64 {
    fnv(parts.iter().flat_map(|p| p.to_le_bytes()))
}

/// The annealing schedule the implement pass uses for an effort level.
fn anneal_config(effort: PlaceEffort) -> AnnealConfig {
    match effort {
        PlaceEffort::Fast => AnnealConfig {
            moves_per_cell: 12,
            min_moves: 3_000,
            max_moves: 60_000,
            cooling: 0.8,
            batches: 25,
        },
        PlaceEffort::Normal => AnnealConfig::default(),
    }
}

/// Annealing moves one trial attempts on `cells` cells.
fn anneal_moves(cfg: &AnnealConfig, cells: usize) -> u64 {
    let total =
        (cfg.moves_per_cell as usize * cells).clamp(cfg.min_moves as usize, cfg.max_moves as usize);
    (total / cfg.batches.max(1) as usize).max(1) as u64 * u64::from(cfg.batches)
}

fn error_rules(rep: &hlsb_findings::Report) -> Option<Vec<String>> {
    if rep.count_at_least(Severity::Error) == 0 {
        return None;
    }
    let mut rules: Vec<String> = rep
        .diagnostics
        .iter()
        .filter(|d| d.severity >= Severity::Error)
        .map(|d| d.rule.to_string())
        .collect();
    rules.sort();
    rules.dedup();
    Some(rules)
}

/// The session mirror: stage caches keyed like the session's, plus the
/// optional persistent store the session would publish fingerprints to.
#[derive(Default)]
pub struct Replay {
    store: Option<std::sync::Arc<ArtifactStore>>,
    front_ends: HashMap<u64, Rc<FrontEndArtifact>>,
    schedules: HashMap<u64, Rc<ScheduleArtifact>>,
}

impl Replay {
    /// A mirror of a session backed by `store` (as `JobServer` attaches
    /// its store to its session).
    pub fn with_store(store: std::sync::Arc<ArtifactStore>) -> Self {
        Replay {
            store: Some(store),
            ..Replay::default()
        }
    }

    /// Mirrors the session's artifact-fingerprint publishing after a
    /// stage build.
    fn publish<T: Debug>(&self, span: &SpanGuard, stage: StageKind, key: u64, built: &T) {
        let Some(store) = &self.store else {
            return;
        };
        let fingerprint = layer(span, "core.fingerprint", || hash_debug(built));
        layer(span, "store.publish", || match store.lookup(stage, key) {
            Some(stored) if stored == fingerprint => {}
            _ => store.publish(stage, key, fingerprint, 0.0),
        });
    }

    fn check_clock(cfg: &FlowConfig) -> Result<(), Stop> {
        if cfg.clock_mhz.is_finite() && cfg.clock_mhz > 0.0 {
            Ok(())
        } else {
            Err(Stop::Failed(format!("clock target {} MHz", cfg.clock_mhz)))
        }
    }

    fn verify_ir(span: &SpanGuard, cfg: &FlowConfig) -> Result<(), Stop> {
        layer(span, "ir.verify", || {
            hlsb_ir::verify::verify_design(&cfg.design)
        })
        .map_err(|e| Stop::Failed(e.to_string()))
    }

    /// The `verify.network` pre-gate.
    fn verify_network(
        span: &SpanGuard,
        cfg: &FlowConfig,
    ) -> Result<Option<hlsb_findings::Report>, Stop> {
        if !cfg.verify {
            return Ok(None);
        }
        let rep = layer(span, "verify.network", || {
            let mut rep = hlsb_verify::report(&cfg.design.name, &cfg.device.name, cfg.clock_mhz);
            hlsb_verify::check_network(&cfg.design, &mut rep.diagnostics);
            rep.sort_worst_first();
            rep
        });
        match error_rules(&rep) {
            Some(rules) => Err(Stop::Rejected(rules)),
            None => Ok(Some(rep)),
        }
    }

    /// The `verify.contracts` audit (schedule contracts, plus lowering
    /// contracts when the flow lowered).
    fn verify_contracts(
        span: &SpanGuard,
        rep: Option<hlsb_findings::Report>,
        design: &Design,
        schedule: &ScheduleArtifact,
        lower_info: Option<&hlsb_rtlgen::LowerInfo>,
    ) -> Result<(), Stop> {
        let Some(mut rep) = rep else {
            return Ok(());
        };
        layer(span, "verify.contracts", || {
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
            rep.sort_worst_first();
        });
        match error_rules(&rep) {
            Some(rules) => Err(Stop::Rejected(rules)),
            None => Ok(()),
        }
    }

    /// Front-end build: dataflow split, then unroll + dead-code
    /// elimination of every loop.
    fn build_front_end(span: &SpanGuard, design: &Design, split: bool) -> FrontEndArtifact {
        let (split_design, loops_split) = if split {
            let (out, report) = layer(span, "sync.split", || {
                hlsb_sync::split_dataflow_design(design)
            });
            if report.loops_split > 0 {
                (Some(out), report.loops_split)
            } else {
                (None, 0)
            }
        } else {
            (None, 0)
        };
        let effective = split_design.as_ref().unwrap_or(design);
        let mut loop_info = Vec::new();
        let unrolled = layer(span, "ir.unroll", || {
            effective
                .kernels
                .iter()
                .map(|kernel| {
                    kernel
                        .loops
                        .iter()
                        .map(|lp| {
                            let mut unrolled = hlsb_ir::unroll::unroll_loop(lp).looop;
                            let before = unrolled.body.len();
                            let (body, _) = unrolled.body.eliminate_dead();
                            loop_info.push(LoopFrontEndInfo {
                                kernel: kernel.name.clone(),
                                looop: lp.name.clone(),
                                unroll: lp.unroll.max(1),
                                insts_unrolled: before,
                                dce_removed: before - body.len(),
                            });
                            unrolled.body = body;
                            unrolled
                        })
                        .collect()
                })
                .collect()
        });
        FrontEndArtifact {
            split_design,
            unrolled,
            loops_split,
            loop_info,
        }
    }

    /// Schedule build: baseline or broadcast-aware list scheduling of
    /// every loop, then forced register injection when enabled.
    fn build_schedule(
        span: &SpanGuard,
        front_end: &FrontEndArtifact,
        design: &Design,
        cfg: &FlowConfig,
        clock_ns: f64,
    ) -> ScheduleArtifact {
        let broadcast_aware = cfg.options.broadcast_aware;
        let calibrated = broadcast_aware.then(|| {
            layer(span, "delay.characterize", || {
                CalibratedModel::characterize_analytic(&cfg.device, cfg.seed)
            })
        });
        layer(span, "sched.schedule", || {
            let predicted = HlsPredictedModel::new();
            let inject = &cfg.inject;
            let mut inserted_regs = 0usize;
            let mut injected_regs = 0usize;
            let mut boundary_in_some_loop: Vec<u32> = Vec::new();
            let mut depths = Vec::new();
            let mut loop_traces = Vec::new();
            let mut loops = Vec::with_capacity(front_end.unrolled.len());
            for (ki, kernel_loops) in front_end.unrolled.iter().enumerate() {
                let kernel_name = design
                    .kernels
                    .get(ki)
                    .map(|k| k.name.clone())
                    .unwrap_or_default();
                let mut ks = Vec::with_capacity(kernel_loops.len());
                for unrolled in kernel_loops {
                    let (mut sl, rounds, splits, residual) = if let Some(cal) = &calibrated {
                        let out = hlsb_sched::broadcast_aware(
                            unrolled, design, &predicted, cal, clock_ns,
                        );
                        inserted_regs += out.inserted_regs;
                        let residual = out.residual_violations.len();
                        (
                            ScheduledLoop {
                                looop: out.looop,
                                schedule: out.schedule,
                                mem_plan: out.mem_plan,
                            },
                            out.rounds,
                            out.splits,
                            residual,
                        )
                    } else {
                        let schedule =
                            hlsb_sched::schedule_loop(unrolled, design, &predicted, clock_ns);
                        let residual = schedule.violations.len();
                        (
                            ScheduledLoop {
                                looop: unrolled.clone(),
                                schedule,
                                mem_plan: MemAccessPlan::default(),
                            },
                            0,
                            Vec::new(),
                            residual,
                        )
                    };
                    let mut injections = Vec::new();
                    if inject.is_enabled() {
                        let out = hlsb_sched::inject_registers(
                            &sl.looop,
                            design,
                            &predicted,
                            clock_ns,
                            inject.boundaries(),
                        );
                        for &b in &out.boundaries_in_range {
                            if !boundary_in_some_loop.contains(&b) {
                                boundary_in_some_loop.push(b);
                            }
                        }
                        if out.inserted_regs > 0 {
                            let mem_plan = MemAccessPlan {
                                extra_stages: sl
                                    .mem_plan
                                    .extra_stages
                                    .iter()
                                    .map(|(id, stages)| (out.id_map[id.index()], *stages))
                                    .collect(),
                            };
                            inserted_regs += out.inserted_regs;
                            injected_regs += out.inserted_regs;
                            injections = out.decisions;
                            sl = ScheduledLoop {
                                looop: out.looop,
                                schedule: out.schedule,
                                mem_plan,
                            };
                        }
                    }
                    let mut mem_stages: Vec<(u32, u32)> = sl
                        .mem_plan
                        .extra_stages
                        .iter()
                        .map(|(id, stages)| (id.0, *stages))
                        .collect();
                    mem_stages.sort_unstable();
                    loop_traces.push(LoopScheduleTrace {
                        kernel: kernel_name.clone(),
                        looop: sl.looop.name.clone(),
                        depth: sl.schedule.depth,
                        ii: sl.schedule.ii,
                        rounds,
                        splits,
                        injections,
                        residual,
                        mem_stages,
                    });
                    depths.push(sl.schedule.depth);
                    ks.push(sl);
                }
                loops.push(ks);
            }
            let invalid_boundaries = inject
                .boundaries()
                .iter()
                .copied()
                .filter(|b| !boundary_in_some_loop.contains(b))
                .collect();
            ScheduleArtifact {
                loops,
                depths,
                inserted_regs,
                injected_regs,
                invalid_boundaries,
                loop_traces,
            }
        })
    }

    /// The cached front half: front-end and schedule artifacts, looked up
    /// by the session's content keys and built on a miss.
    fn staged(
        &mut self,
        span: &SpanGuard,
        cfg: &FlowConfig,
    ) -> Result<(Rc<FrontEndArtifact>, Rc<ScheduleArtifact>), Stop> {
        let clock_ns = 1000.0 / cfg.clock_mhz;
        let sync = cfg.options.sync_pruning;
        let design_hash = layer(span, "core.cache_key", || hash_debug(&cfg.design));
        let fe_key = combine(&[design_hash, u64::from(sync)]);
        let front_end = match self.front_ends.get(&fe_key) {
            Some(fe) => Rc::clone(fe),
            None => {
                let built = Self::build_front_end(span, &cfg.design, sync);
                self.publish(span, StageKind::FrontEnd, fe_key, &built);
                let built = Rc::new(built);
                self.front_ends.insert(fe_key, Rc::clone(&built));
                built
            }
        };
        let unsplit_key = combine(&[design_hash, 0]);
        if sync && !front_end.split_changed() {
            self.front_ends
                .entry(unsplit_key)
                .or_insert_with(|| Rc::clone(&front_end));
        }

        let design = front_end.design(&cfg.design);
        let ba = cfg.options.broadcast_aware;
        let sched_key = layer(span, "core.cache_key", || {
            let device_hash = hash_debug(&cfg.device);
            let content_fe_key = if front_end.split_changed() {
                fe_key
            } else {
                unsplit_key
            };
            combine(&[
                content_fe_key,
                clock_ns.to_bits(),
                u64::from(ba),
                if ba { device_hash } else { 0 },
                if ba { cfg.seed } else { 0 },
                if cfg.inject.is_enabled() {
                    hash_debug(&cfg.inject)
                } else {
                    0
                },
            ])
        });
        let schedule = match self.schedules.get(&sched_key) {
            Some(s) => Rc::clone(s),
            None => {
                let built = Self::build_schedule(span, &front_end, design, cfg, clock_ns);
                self.publish(span, StageKind::Schedule, sched_key, &built);
                let built = Rc::new(built);
                self.schedules.insert(sched_key, Rc::clone(&built));
                built
            }
        };
        if let Some(&bad) = schedule.invalid_boundaries.first() {
            return Err(Stop::Failed(format!("register-injection boundary {bad}")));
        }
        Ok((front_end, schedule))
    }

    /// Mirrors [`hlsb::FlowSession::probe`].
    pub fn probe(&mut self, span: &SpanGuard, cfg: &FlowConfig) -> Result<ProbeView, Stop> {
        Self::check_clock(cfg)?;
        Self::verify_ir(span, cfg)?;
        let rep = Self::verify_network(span, cfg)?;
        let (front_end, schedule) = self.staged(span, cfg)?;
        let design = front_end.design(&cfg.design);
        Self::verify_contracts(span, rep, design, &schedule, None)?;
        Ok(ProbeView {
            depths: schedule.depths.clone(),
            latency_cycles: schedule.latency_cycles(design.concurrency),
            inserted_regs: schedule.inserted_regs,
            violations: schedule.violations(),
        })
    }

    /// Mirrors [`hlsb::FlowSession::simulate`] followed by
    /// [`hlsb::SimulationOutcome::check`].
    pub fn simulate(
        &mut self,
        span: &SpanGuard,
        cfg: &FlowConfig,
        stim: &Stimulus,
        iters_cap: u64,
    ) -> Result<Result<(), String>, Stop> {
        Self::check_clock(cfg)?;
        Self::verify_ir(span, cfg)?;
        let (front_end, schedule) = self.staged(span, cfg)?;
        let design = front_end.design(&cfg.design);
        Ok(layer(span, "sim.check", || {
            let golden = hlsb_sim::golden_trace(design, &front_end.unrolled, stim, iters_cap);
            let opts = SimOptions {
                control: if cfg.options.skid_buffer {
                    ControlModel::skid()
                } else {
                    ControlModel::Stall
                },
                sync_pruning: cfg.options.sync_pruning,
                iters_cap,
                ..SimOptions::default()
            };
            let timed = hlsb_sim::simulate_design(design, &schedule.loops, stim, &opts);
            if let Some(diff) = timed.trace.diff(&golden) {
                return Err(format!("timed trace diverges from golden: {diff}"));
            }
            hlsb_sim::check_latency(&timed)
        }))
    }

    /// Mirrors [`hlsb::FlowSession::run`] with one worker thread and flat
    /// placement.
    pub fn run(&mut self, span: &SpanGuard, cfg: &FlowConfig) -> Result<RunView, Stop> {
        Self::check_clock(cfg)?;
        Self::verify_ir(span, cfg)?;
        let rep = Self::verify_network(span, cfg)?;
        let (front_end, schedule) = self.staged(span, cfg)?;
        let design = front_end.design(&cfg.design);

        let (netlist, info) = layer(span, "rtlgen.lower", || lower(design, &schedule, cfg))?;
        Self::verify_contracts(span, rep, design, &schedule, Some(&info))?;

        // Implement: every trial places, optimizes fanout, retimes and
        // refines; the strictly best period wins, ties keep the first.
        let anneal = anneal_config(cfg.effort);
        let wire = WireModel::for_device(&cfg.device);
        let trials = cfg.place_seeds.max(1);
        let cells = netlist.cell_count() as u64;
        let max_fanout = netlist.nets().map(|(_, n)| n.fanout()).max().unwrap_or(0) as u64;
        let mut best: Option<(Netlist, Placement, TimingReport, usize, usize)> = None;
        let mut source = Some(netlist);
        for idx in 0..trials {
            let mut nl = if idx + 1 == trials {
                source.take().expect("source netlist present")
            } else {
                source.as_ref().expect("source netlist present").clone()
            };
            let seed = hlsb_rng::derive_seed(cfg.seed, u64::from(idx));
            let mut placement = layer(span, "place.anneal", || {
                place_with(&nl, &cfg.device, seed, anneal)
            });
            let fanout = layer(span, "timing.fanout", || {
                optimize_fanout(&mut nl, &mut placement, FanoutOptions::default())
            });
            let (rt, _) = layer(span, "timing.retime", || {
                retime(&mut nl, &mut placement, &wire, RetimeOptions::default())
            });
            let (_, timing) = layer(span, "timing.refine", || {
                refine_critical(&nl, &mut placement, &wire, RefineOptions::default())
            });
            if best
                .as_ref()
                .is_none_or(|b| timing.period_ns < b.2.period_ns)
            {
                best = Some((nl, placement, timing, fanout.duplicated_registers, rt.moves));
            }
        }
        let (nl, placement, timing, duplicated_regs, retime_moves) =
            best.expect("at least one placement trial");
        let sta_agrees = layer(span, "timing.sta", || {
            sta(&nl, &placement, &wire).period_ns == timing.period_ns
        });
        Ok(RunView {
            qor: Qor {
                fmax_mhz: timing.fmax_mhz,
                period_ns: timing.period_ns,
                latency_cycles: schedule.latency_cycles(design.concurrency),
                stats: nl.stats(),
                inserted_regs: schedule.inserted_regs,
                duplicated_regs,
                retime_moves,
            },
            sta_agrees,
            cells,
            max_fanout,
            moves: anneal_moves(&anneal, cells as usize) * u64::from(trials),
        })
    }
}

/// The lower pass: RTL generation, netlist validation and the capacity
/// checks.
fn lower(
    design: &Design,
    schedule: &ScheduleArtifact,
    cfg: &FlowConfig,
) -> Result<(Netlist, hlsb_rtlgen::LowerInfo), Stop> {
    let rtl_options = RtlOptions {
        control: if cfg.options.skid_buffer {
            ControlStyle::Skid {
                min_area: cfg.options.min_area_skid,
            }
        } else {
            ControlStyle::Stall
        },
        sync_pruning: cfg.options.sync_pruning,
        crossing_slots: 0,
    };
    let sd = ScheduledDesign {
        design,
        loops: &schedule.loops,
    };
    let lowered = hlsb_rtlgen::lower_design(&sd, &rtl_options, &HlsPredictedModel::new());
    let netlist = lowered.netlist;
    netlist
        .validate()
        .map_err(|e| Stop::Failed(e.to_string()))?;
    let stats = netlist.stats();
    let res = cfg.device.resources;
    for (used, cap, name) in [
        (stats.luts, res.luts, "LUT"),
        (stats.ffs, res.ffs, "FF"),
        (stats.brams, res.brams, "BRAM"),
        (stats.dsps, res.dsps, "DSP"),
    ] {
        if used > cap {
            return Err(Stop::Failed(format!(
                "{name}: {used} needed, {cap} available"
            )));
        }
    }
    let site_budget = u64::from(cfg.device.grid_w) * u64::from(cfg.device.grid_h) / 2;
    if netlist.cell_count() as u64 >= site_budget {
        return Err(Stop::Failed("placement budget exceeded".to_string()));
    }
    Ok((netlist, lowered.info))
}

/// Busy time and call count of one layer in a traced round.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Self time: the span's duration minus its child spans'.
    pub self_ms: f64,
    pub calls: u64,
}

/// Self time per span name over a whole tree. Spans here nest strictly
/// and never overlap (one thread), so subtracting the children's
/// durations is exact.
pub fn layer_times(tree: &TraceTree) -> HashMap<String, LayerTime> {
    let mut child_us = vec![0.0f64; tree.spans.len()];
    for s in &tree.spans {
        if let Some(p) = s.parent {
            child_us[p as usize] += s.dur_us;
        }
    }
    let mut out: HashMap<String, LayerTime> = HashMap::new();
    for s in &tree.spans {
        let t = out.entry(s.name.clone()).or_default();
        t.self_ms += (s.dur_us - child_us[s.id as usize]).max(0.0) / 1e3;
        t.calls += 1;
    }
    out
}
