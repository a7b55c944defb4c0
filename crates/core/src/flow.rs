//! The end-to-end implementation flow: a builder over the staged pass
//! pipeline (see [`crate::passes`] and [`FlowSession`]).

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crate::error::FlowError;
use crate::options::{OptimizationOptions, Partitioning, PlaceEffort, RegisterInjection};
use crate::result::ImplementationResult;
use crate::session::FlowSession;
use hlsb_fabric::Device;
use hlsb_ir::Design;

/// A flow's design with its content digest, shared by every clone of
/// the flow. No builder method replaces or edits the design after
/// [`Flow::new`], so the digest, computed on first use, can never go
/// stale; clones of one flow (clock sweeps, serve waves, explore trials)
/// hash the design once between them and never copy it.
pub(crate) struct SharedDesign {
    design: Design,
    digest: OnceLock<u64>,
}

impl SharedDesign {
    /// `hash_debug` of the design, computed once.
    pub(crate) fn digest(&self) -> u64 {
        *self
            .digest
            .get_or_init(|| crate::cache::hash_debug(&self.design))
    }
}

impl Deref for SharedDesign {
    type Target = Design;

    fn deref(&self) -> &Design {
        &self.design
    }
}

/// Renders as the bare design, so a flow's `Debug` form is unchanged.
impl fmt::Debug for SharedDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.design.fmt(f)
    }
}

/// Builder for one implementation run: design → schedule → RTL → place →
/// timing, with the paper's optimizations toggled by
/// [`OptimizationOptions`].
///
/// Each `run` call executes the staged pipeline front-end → schedule →
/// lower → implement → sign-off; the per-pass wall times and counters
/// land in [`ImplementationResult::trace`]. `run` uses a throwaway
/// [`FlowSession`] — to share cached front-end/schedule artifacts across
/// several runs (variant sweeps over one design) or run flows in
/// parallel, create a session and pass flows to it instead.
#[derive(Debug, Clone)]
pub struct Flow {
    pub(crate) design: Arc<SharedDesign>,
    pub(crate) device: Device,
    pub(crate) clock_mhz: f64,
    pub(crate) options: OptimizationOptions,
    pub(crate) seed: u64,
    pub(crate) effort: PlaceEffort,
    pub(crate) place_seeds: u32,
    pub(crate) partitions: Partitioning,
    pub(crate) inject: RegisterInjection,
    pub(crate) lint: bool,
    pub(crate) verify: bool,
    pub(crate) trace: bool,
}

impl Flow {
    /// Starts a flow for a design with default settings (VU9P, 300 MHz
    /// target, no optimizations, seed 1).
    pub fn new(design: Design) -> Self {
        Flow {
            design: Arc::new(SharedDesign {
                design,
                digest: OnceLock::new(),
            }),
            device: Device::ultrascale_plus_vu9p(),
            clock_mhz: 300.0,
            options: OptimizationOptions::none(),
            seed: 1,
            effort: PlaceEffort::Normal,
            place_seeds: 3,
            partitions: Partitioning::Off,
            inject: RegisterInjection::Off,
            lint: false,
            verify: false,
            trace: false,
        }
    }

    /// Sets the target device.
    pub fn device(mut self, device: Device) -> Self {
        self.device = device;
        self
    }

    /// Sets the clock target in MHz.
    pub fn clock_mhz(mut self, mhz: f64) -> Self {
        self.clock_mhz = mhz;
        self
    }

    /// Selects the optimizations to apply.
    pub fn options(mut self, options: OptimizationOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the random seed (placement and characterization noise).
    /// Multi-seed trials derive per-trial seeds as decorrelated streams
    /// of this value ([`hlsb_rng::derive_seed`]); stream 0 is the seed
    /// itself.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the placement effort.
    pub fn place_effort(mut self, effort: PlaceEffort) -> Self {
        self.effort = effort;
        self
    }

    /// Number of placement seeds tried (the best timing wins), as
    /// multi-seed implementation runs do in production flows. Minimum 1.
    /// Trials run in parallel when the session's thread budget allows;
    /// the winner is identical either way.
    pub fn place_seeds(mut self, n: u32) -> Self {
        self.place_seeds = n.max(1);
        self
    }

    /// Selects island partitioning for the implement stage
    /// ([`Partitioning`], default [`Partitioning::Off`]). With
    /// partitioning on, the netlist is cut at its dataflow seams, islands
    /// are annealed in parallel in reserved device regions, and every
    /// inter-island net is registered — with the extra channel latency
    /// provisioned in the skid-buffer contract. The result is a pure
    /// function of the flow configuration, never of the worker thread
    /// count; designs that cannot be partitioned (monolithic and tiny, or
    /// not enough device columns) deterministically fall back to flat
    /// placement.
    pub fn partitions(mut self, partitions: Partitioning) -> Self {
        self.partitions = partitions;
        self
    }

    /// Forces extra pipeline registers at the named stage boundaries
    /// ([`RegisterInjection`], default [`RegisterInjection::Off`]). The
    /// injection runs after baseline or broadcast-aware scheduling:
    /// every value crossing a named boundary of the pre-injection
    /// schedule through combinational wires is routed through a `Reg`
    /// module and the loop is rescheduled, trading pipeline depth (the
    /// added latency is visible to probes and the timed simulator) for
    /// shorter post-lowering chains. A boundary no loop of the design
    /// has is rejected with [`FlowError::BadParameter`]. Participates in
    /// [`config_key`](Flow::config_key) and the schedule-stage cache
    /// key.
    pub fn inject(mut self, inject: RegisterInjection) -> Self {
        self.inject = inject;
        self
    }

    /// Enables the static broadcast lint (`hlsb-lint`) as a pre-pass.
    /// The report lands in [`ImplementationResult::lint`] or
    /// [`ProbeOutcome::lint`](crate::ProbeOutcome::lint); findings can
    /// then be cross-checked against the post-route critical path with
    /// [`hlsb_lint::cross_check`]. Off by default. The lint reads the
    /// session's baseline schedule artifact (the unrolled loops and
    /// their broadcast-blind, injection-blind schedule of the unsplit
    /// design) instead of scheduling anything itself — see the `lint`
    /// pass record in [`ImplementationResult::trace`]. A probe runs the
    /// lint without placing or timing anything:
    ///
    /// ```
    /// use hlsb::{Flow, FlowSession};
    /// use hlsb_fabric::Device;
    /// use hlsb_ir::builder::DesignBuilder;
    /// use hlsb_ir::types::DataType;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = DesignBuilder::new("fir");
    /// let fin = b.fifo("in", DataType::Int(32), 2);
    /// let fout = b.fifo("out", DataType::Int(32), 2);
    /// let mut k = b.kernel("top");
    /// let mut l = k.pipelined_loop("mac", 4096, 1);
    /// l.set_unroll(128);
    /// let c = l.invariant_input("c", DataType::Int(32));
    /// let x = l.fifo_read(fin, DataType::Int(32));
    /// let y = l.mul(c, x);
    /// l.fifo_write(fout, y);
    /// l.finish();
    /// k.finish();
    /// let design = b.finish()?;
    ///
    /// let flow = Flow::new(design)
    ///     .device(Device::ultrascale_plus_vu9p())
    ///     .clock_mhz(300.0)
    ///     .lint(true);
    /// let report = FlowSession::new().probe(&flow)?.lint.expect("lint enabled");
    /// assert!(report.has_rule("BA01")); // `c` fans out to 128 multipliers
    /// # Ok(())
    /// # }
    /// ```
    pub fn lint(mut self, enabled: bool) -> Self {
        self.lint = enabled;
        self
    }

    /// Enables the static verifier (`hlsb-verify`) as a pre-gate. The
    /// dataflow network analysis runs on the design as written before
    /// any pipeline stage, and the schedule/lowering contracts are
    /// audited as the artifacts appear; any `Error`-severity finding
    /// aborts the flow with [`FlowError::VerifyRejected`] carrying the
    /// full report. Clean runs attach the (possibly warning-bearing)
    /// report to [`ImplementationResult::verify`] /
    /// [`ProbeOutcome::verify`](crate::ProbeOutcome::verify). Off by
    /// default. Like [`lint`](Flow::lint) and [`trace`](Flow::trace),
    /// the flag never changes the implementation and is excluded from
    /// [`config_key`](Flow::config_key).
    pub fn verify(mut self, enabled: bool) -> Self {
        self.verify = enabled;
        self
    }

    /// Enables detailed span tracing with decision provenance
    /// ([`hlsb_trace`]). Every run records one span per pipeline stage
    /// regardless of this flag — those spans are the stage timer, and the
    /// flat [`PassTrace`](crate::PassTrace) is always derived from them.
    /// Tracing adds detail to the same tree: the flow's configuration on
    /// the root span, a span per placement trial (and per partition
    /// island), and the individual optimization decisions — chain splits,
    /// done-signal pruning, skid-buffer placement — as events. It also
    /// attaches the tree to
    /// [`ImplementationResult::span_tree`](crate::ImplementationResult::span_tree)
    /// (also [`SimulationOutcome`](crate::SimulationOutcome) and
    /// [`ProbeOutcome`](crate::ProbeOutcome)). Off by default. Tracing
    /// never affects the implementation result or the `PassTrace` (it is
    /// excluded from [`config_key`]).
    ///
    /// [`config_key`]: Flow::config_key
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Content-addressed key of this flow's full configuration: design,
    /// device, clock target, optimization options, seed, placement effort
    /// and trial count. Two flows with equal keys produce identical
    /// [`ImplementationResult`]s (the pipeline is deterministic), so the
    /// key is safe to use for result deduplication and persistent stores
    /// — the result table [`FlowSession::evaluate_many`] consults is
    /// keyed by it. Stable across
    /// processes and platforms (FNV-1a over the configuration's `Debug`
    /// form, like the session's stage-artifact cache). The design's
    /// digest is computed once and shared by every clone of the flow.
    pub fn config_key(&self) -> u64 {
        crate::cache::combine(&[
            self.design.digest(),
            crate::cache::hash_debug(&self.device),
            self.clock_mhz.to_bits(),
            crate::cache::hash_debug(&self.options),
            self.seed,
            crate::cache::hash_debug(&self.effort),
            u64::from(self.place_seeds),
            crate::cache::hash_debug(&self.partitions),
            crate::cache::hash_debug(&self.inject),
        ])
    }

    /// Digest of a finished run as a persistent-store record
    /// ([`hlsb_store::ResultRecord`]) under `key`, this flow's
    /// [`config_key`](Flow::config_key) as the caller already computed
    /// it. The record carries everything a warm compile-farm lookup needs
    /// to answer this configuration again without re-running the
    /// pipeline; `label` is the human-readable configuration name (the
    /// key stays authoritative) and `wall_ms` the evaluation's wall-clock
    /// cost (the one volatile field).
    pub fn store_record(
        &self,
        key: u64,
        label: &str,
        result: &ImplementationResult,
        wall_ms: f64,
    ) -> hlsb_store::ResultRecord {
        hlsb_store::ResultRecord {
            key,
            design: self.design.name.clone(),
            label: label.to_string(),
            fmax_mhz: result.fmax_mhz,
            period_ns: result.period_ns,
            latency_cycles: result.latency_cycles,
            luts: result.stats.luts,
            ffs: result.stats.ffs,
            brams: result.stats.brams,
            dsps: result.stats.dsps,
            inserted_regs: result.inserted_regs as u64,
            duplicated_regs: result.duplicated_regs as u64,
            retime_moves: result.retime_moves as u64,
            wall_ms,
        }
    }

    /// Runs the flow.
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] for invalid IR, nonsensical parameters, or
    /// designs that do not fit the device.
    pub fn run(&self) -> Result<ImplementationResult, FlowError> {
        self.run_detailed().map(|(r, _, _)| r)
    }

    /// Runs the flow and also returns the final netlist and placement —
    /// for Verilog export, timing-path reports and custom analyses.
    ///
    /// # Errors
    ///
    /// Same as [`Flow::run`].
    pub fn run_detailed(
        &self,
    ) -> Result<
        (
            ImplementationResult,
            hlsb_netlist::Netlist,
            hlsb_place::Placement,
        ),
        FlowError,
    > {
        FlowSession::new().run_detailed(self)
    }

    /// Simulates the flow instead of implementing it: the untimed golden
    /// evaluator differenced against a cycle-accurate run of the
    /// scheduled design, with this flow's options mapped onto the control
    /// model. Loops are capped at `iters_cap` iterations. Uses a
    /// throwaway [`FlowSession`] — to share cached front-end/schedule
    /// artifacts with implementation runs, call
    /// [`FlowSession::simulate`] on a shared session instead.
    ///
    /// # Errors
    ///
    /// Same as [`Flow::run`] for invalid IR or parameters; trace
    /// divergence is reported by
    /// [`SimulationOutcome::check`](crate::SimulationOutcome::check), not
    /// as a `FlowError`.
    pub fn simulate(
        &self,
        stim: &hlsb_sim::Stimulus,
        iters_cap: u64,
    ) -> Result<crate::SimulationOutcome, FlowError> {
        FlowSession::new().simulate(self, stim, iters_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_ir::builder::DesignBuilder;
    use hlsb_ir::DataType;

    fn unrolled_broadcast(unroll: u32) -> Design {
        let mut b = DesignBuilder::new("bc");
        let fin = b.fifo("in", DataType::Int(32), 2);
        let fout = b.fifo("out", DataType::Int(32), 2);
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("body", 1024, 1);
        l.set_unroll(unroll);
        let src = l.invariant_input("source", DataType::Int(32));
        let x = l.fifo_read(fin, DataType::Int(32));
        let s = l.sub(x, src);
        let t = l.abs(s);
        let m = l.min(t, x);
        l.fifo_write(fout, m);
        l.finish();
        k.finish();
        b.finish().expect("valid")
    }

    fn run(d: &Design, opts: OptimizationOptions) -> ImplementationResult {
        Flow::new(d.clone())
            .options(opts)
            .place_effort(PlaceEffort::Fast)
            .seed(7)
            .run()
            .expect("flow succeeds")
    }

    #[test]
    fn flow_runs_end_to_end() {
        let d = unrolled_broadcast(8);
        let r = run(&d, OptimizationOptions::none());
        assert!(r.fmax_mhz > 50.0 && r.fmax_mhz < 1000.0, "{}", r.fmax_mhz);
        assert!(r.stats.luts > 0);
        assert!(r.utilization.lut_pct > 0.0);
    }

    #[test]
    fn optimizations_help_broadcast_design() {
        let d = unrolled_broadcast(64);
        let base = run(&d, OptimizationOptions::none());
        let opt = run(&d, OptimizationOptions::all());
        assert!(
            opt.fmax_mhz > base.fmax_mhz,
            "opt {} <= base {}",
            opt.fmax_mhz,
            base.fmax_mhz
        );
        assert!(opt.inserted_regs > 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let d = unrolled_broadcast(16);
        let a = run(&d, OptimizationOptions::all());
        let b = run(&d, OptimizationOptions::all());
        assert_eq!(a.fmax_mhz, b.fmax_mhz);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn every_pass_is_traced() {
        let d = unrolled_broadcast(8);
        let r = run(&d, OptimizationOptions::none());
        for pass in ["front-end", "schedule", "lower", "implement", "sign-off"] {
            assert!(
                r.trace.records.iter().any(|rec| rec.pass == pass),
                "missing {pass} in:\n{}",
                r.trace
            );
        }
        assert_eq!(r.trace.counter("front-end", "executions"), Some(1));
        assert_eq!(r.trace.counter("implement", "trials"), Some(3));
        assert!(r.trace.counter("lower", "cells").unwrap() > 0);
    }

    #[test]
    fn lint_pre_pass_is_opt_in_and_attached() {
        let d = unrolled_broadcast(256);
        let silent = run(&d, OptimizationOptions::none());
        assert!(silent.lint.is_none(), "lint must be opt-in");

        let r = Flow::new(d)
            .place_effort(PlaceEffort::Fast)
            .place_seeds(1)
            .lint(true)
            .run()
            .expect("flow succeeds");

        // The lint borrowed the flow's front-end artifacts instead of
        // re-running unroll/schedule: one front-end execution total.
        assert_eq!(r.trace.counter("front-end", "executions"), Some(1));
        assert_eq!(r.trace.counter("lint", "front-end-reused"), Some(1));

        let report = r.lint.expect("lint report attached");
        assert_eq!(report.design, "bc");
        // A 256-way invariant broadcast must trip the data rule.
        assert!(report.has_rule("BA01"), "{}", report.to_table());
        // The report is renderable in all three formats.
        assert!(!report.to_table().is_empty());
        assert!(!report.to_jsonl().is_empty());
        assert!(report.to_sarif().contains("\"version\":\"2.1.0\""));
    }

    #[test]
    fn verify_pre_gate_is_opt_in_attaches_and_rejects() {
        let d = unrolled_broadcast(8);
        let silent = run(&d, OptimizationOptions::none());
        assert!(silent.verify.is_none(), "verify must be opt-in");

        // A clean design passes the gate with the report attached.
        let session = crate::FlowSession::new();
        let flow = Flow::new(d)
            .options(OptimizationOptions::all())
            .place_effort(PlaceEffort::Fast)
            .place_seeds(1)
            .verify(true);
        let probe = session.probe(&flow).expect("clean design probes");
        let report = probe.verify.expect("probe honours Flow::verify");
        assert!(report.is_clean(), "{}", report.to_table());
        let r = session.run(&flow).expect("clean design implements");
        let report = r.verify.expect("verify report attached");
        assert_eq!(report.tool, "hlsb-verify");
        assert!(report.is_clean(), "{}", report.to_table());
        // Both verify stages left pass records.
        assert_eq!(r.trace.counter("verify.network", "errors"), Some(0));
        assert_eq!(r.trace.counter("verify.contracts", "errors"), Some(0));

        // A two-producer channel is an Error: the flow is rejected
        // before any pipeline stage runs.
        let mut b = DesignBuilder::new("double_writer");
        let ch = b.fifo("ch", DataType::Int(32), 2);
        b.dataflow();
        for name in ["pa", "pb"] {
            let mut k = b.kernel(name);
            let mut l = k.pipelined_loop("w", 16, 1);
            let v = l.indvar("i");
            l.fifo_write(ch, v);
            l.finish();
            k.finish();
        }
        let dirty = b.finish().expect("structurally valid IR");
        let err = Flow::new(dirty).verify(true).run().unwrap_err();
        match err {
            FlowError::VerifyRejected { report } => {
                assert!(report.has_rule("VN01"), "{}", report.to_table());
            }
            other => panic!("expected VerifyRejected, got {other}"),
        }
    }

    #[test]
    fn register_injection_pays_latency_and_rejects_bad_boundaries() {
        let d = unrolled_broadcast(8);
        let session = crate::FlowSession::new();
        let base = Flow::new(d.clone())
            .place_effort(PlaceEffort::Fast)
            .place_seeds(1);
        let inj = base.clone().inject(RegisterInjection::at(vec![1]));
        let pb = session.probe(&base).expect("baseline probes");
        let pi = session.probe(&inj).expect("injected flow probes");
        assert!(
            pi.inserted_regs > pb.inserted_regs,
            "boundary 1 must force at least one register"
        );
        assert!(
            pi.latency_cycles > pb.latency_cycles,
            "forced registers must pay real latency ({} vs {})",
            pi.latency_cycles,
            pb.latency_cycles
        );
        // The injected flow still implements, simulates and verifies.
        let r = session
            .run(&inj.clone().verify(true))
            .expect("injected flow implements");
        assert_eq!(r.latency_cycles, pi.latency_cycles);
        assert!(r.verify.expect("verify report").is_clean());
        let stim = hlsb_sim::Stimulus::seeded(&d, 1, 8);
        let sim = session.simulate(&inj, &stim, 8).expect("simulates");
        sim.check().expect("injected pipeline must match golden");

        // A boundary past every loop's depth is a typed error, for
        // probe, run and simulate alike — and again on the cached path.
        let bad = base.clone().inject(RegisterInjection::at(vec![250]));
        for _ in 0..2 {
            let err = session.probe(&bad).unwrap_err();
            assert!(matches!(err, FlowError::BadParameter { .. }), "{err}");
            assert!(err.to_string().contains("boundary 250"), "{err}");
        }
        let err = session.run(&bad).unwrap_err();
        assert!(matches!(err, FlowError::BadParameter { .. }));
        let err = session.simulate(&bad, &stim, 8).unwrap_err();
        assert!(matches!(err, FlowError::BadParameter { .. }));
    }

    #[test]
    fn bad_clock_is_rejected() {
        let d = unrolled_broadcast(2);
        let err = Flow::new(d.clone()).clock_mhz(0.0).run().unwrap_err();
        assert!(matches!(err, FlowError::BadParameter { .. }));
        let stim = hlsb_sim::Stimulus::seeded(&d, 1, 4);
        let err = Flow::new(d).clock_mhz(0.0).simulate(&stim, 4).unwrap_err();
        assert!(matches!(err, FlowError::BadParameter { .. }));
    }

    #[test]
    fn simulate_checks_out_and_shares_artifacts_across_a_clock_sweep() {
        let d = unrolled_broadcast(8);
        let stim = hlsb_sim::Stimulus::seeded(&d, 1, 16);
        let session = crate::FlowSession::new();
        for (i, clock) in [250.0, 300.0, 350.0].into_iter().enumerate() {
            let flow = Flow::new(d.clone())
                .clock_mhz(clock)
                .options(OptimizationOptions::all());
            let sim = session.simulate(&flow, &stim, 16).expect("valid design");
            sim.check().expect("optimized variant must match golden");
            assert!(!sim.golden.is_empty());
            // Clock-independent front-end keying: only the first sweep
            // point builds the unroll, later ones hit the cache.
            let expect_hit = u64::from(i > 0);
            assert_eq!(
                sim.trace.counter("front-end", "cache-hits"),
                Some(expect_hit)
            );
            assert_eq!(sim.trace.counter("schedule", "executions"), Some(1));
            assert_eq!(sim.trace.counter("simulate", "trace-match"), Some(1));
            assert_eq!(sim.trace.counter("simulate", "finished"), Some(1));
        }

        // Implementing the same variant afterwards re-runs neither
        // cached stage.
        let flow = Flow::new(d)
            .clock_mhz(300.0)
            .options(OptimizationOptions::all())
            .place_effort(PlaceEffort::Fast)
            .place_seeds(1);
        let r = session.run(&flow).expect("flow succeeds");
        assert_eq!(r.trace.counter("front-end", "executions"), Some(0));
        assert_eq!(r.trace.counter("schedule", "executions"), Some(0));
    }

    #[test]
    fn config_key_distinguishes_every_knob() {
        let d = unrolled_broadcast(4);
        let base = Flow::new(d.clone());
        let mut keys = std::collections::HashSet::new();
        assert!(keys.insert(base.config_key()));
        assert!(keys.insert(base.clone().clock_mhz(350.0).config_key()));
        assert!(keys.insert(
            base.clone()
                .options(OptimizationOptions::all())
                .config_key()
        ));
        assert!(keys.insert(base.clone().seed(2).config_key()));
        assert!(keys.insert(base.clone().place_effort(PlaceEffort::Fast).config_key()));
        assert!(keys.insert(base.clone().place_seeds(1).config_key()));
        assert!(keys.insert(base.clone().partitions(Partitioning::Auto).config_key()));
        assert!(keys.insert(base.clone().partitions(Partitioning::Fixed(2)).config_key()));
        assert!(keys.insert(
            base.clone()
                .inject(RegisterInjection::at(vec![1]))
                .config_key()
        ));
        assert!(keys.insert(
            base.clone()
                .inject(RegisterInjection::at(vec![1, 2]))
                .config_key()
        ));
        assert!(keys.insert(Flow::new(unrolled_broadcast(8)).config_key()));
        // ... and is stable for an identical configuration.
        assert_eq!(base.config_key(), Flow::new(d).config_key());
    }

    #[test]
    fn probe_shares_artifacts_with_full_runs_and_reports_latency() {
        let d = unrolled_broadcast(16);
        let session = crate::FlowSession::new();
        let flow = Flow::new(d)
            .options(OptimizationOptions::all())
            .place_effort(PlaceEffort::Fast)
            .place_seeds(1)
            .lint(true);

        let probe = session.probe(&flow).expect("valid design");
        assert_eq!(probe.trace.counter("front-end", "executions"), Some(1));
        assert!(probe.latency_cycles > 0);
        assert!(probe.instructions > 0);
        assert!(!probe.schedule_depths.is_empty());
        assert!(probe.lint.is_some(), "probe honours Flow::lint");
        // No back-end stages ran.
        assert!(probe.trace.records.iter().all(|r| r.pass != "implement"));

        // The full run hits every artifact the probe built.
        let r = session.run(&flow).expect("flow succeeds");
        assert_eq!(r.trace.counter("front-end", "executions"), Some(0));
        assert_eq!(r.trace.counter("schedule", "executions"), Some(0));
        // The probe's static latency is the full run's latency.
        assert_eq!(probe.latency_cycles, r.latency_cycles);
        assert_eq!(probe.schedule_depths, r.schedule_depths);
        assert_eq!(probe.inserted_regs, r.inserted_regs);

        // Per-stage cache stats are consistent with the totals.
        let by_stage = session.cache_stats_by_stage();
        assert_eq!(by_stage.total(), session.cache_stats());
        assert!(by_stage.front_end.hits >= 1);
        assert!(by_stage.schedule.hits >= 1);
    }

    #[test]
    fn oversized_design_reports_does_not_fit() {
        // A buffer far beyond the device's BRAM capacity.
        let mut b = DesignBuilder::new("huge");
        let arr = b.array(
            "huge",
            DataType::Int(64),
            16_000_000,
            hlsb_ir::Partition::None,
        );
        let fin = b.fifo("in", DataType::Int(64), 2);
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("fill", 1 << 24, 1);
        let i = l.indvar("i");
        let v = l.fifo_read(fin, DataType::Int(64));
        l.store(arr, i, v);
        l.finish();
        k.finish();
        let d = b.finish().expect("valid");
        let err = Flow::new(d).run().unwrap_err();
        assert!(matches!(err, FlowError::DoesNotFit { .. }), "{err}");
    }
}
