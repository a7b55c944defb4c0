//! The cycle-accurate timed simulator.
//!
//! Executes a scheduled design cycle by cycle under one of the paper's two
//! pipeline-control disciplines:
//!
//! * [`ControlModel::Stall`] — the conventional stall broadcast (Fig. 8):
//!   when a committed write would overflow a full output FIFO, the *whole
//!   loop* freezes for the cycle (every stage, every register — the very
//!   broadcast whose fanout the paper measures);
//! * [`ControlModel::Skid`] — skid-buffer control (Fig. 11): the pipeline
//!   never freezes; data exiting the pipe lands in a bounded per-FIFO skid
//!   buffer and the *front gate alone* decides whether a new iteration may
//!   issue, using one of the [`GatePolicy`] realizations from `hlsb-ctrl`.
//!
//! # Value/timing separation
//!
//! Functional values are computed **atomically at issue** by the shared
//! [`hlsb_ir::interp::Interpreter::run_iteration`] — the same code path
//! the golden evaluator uses — against one global I/O state. Timing
//! (issue gating, commit cycles, stalls, skid occupancy) is tracked with
//! value-less tokens that can never alter the data. Per-FIFO trace order
//! therefore equals the writer loop's iteration order, which is exactly
//! the golden order: any trace divergence indicates a broken
//! transformation, not a modelling artefact.
//!
//! # Synchronization (§4.2)
//!
//! Loops invoking two or more PEs record the done-wait fan-in with and
//! without pruning via [`hlsb_sync::prune::prune_sync`]; because pruning
//! only drops waits that are dominated by the longest static latency, the
//! pruned and full wait latencies must be equal —
//! [`check_latency`] enforces this.

use crate::golden::capped_iters;
use crate::stim::{IoTrace, Stimulus};
use hlsb_ctrl::sim::GatePolicy;
use hlsb_ir::interp::Interpreter;
use hlsb_ir::{Concurrency, Design, OpKind};
use hlsb_rtlgen::{ScheduledLoop, GATE_PIPELINE};
use hlsb_sync::prune::{prune_sync, ModuleSync};
use std::collections::{BTreeMap, HashSet, VecDeque};

/// Consecutive cycles without any global progress before the simulator
/// declares deadlock. Longer than one full period of the consumer-ready
/// mask (64 cycles), so intermittent consumers are never misdiagnosed.
const WATCHDOG_IDLE: u64 = 130;

/// Pipeline-control discipline to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlModel {
    /// Global stall broadcast (paper Fig. 8).
    Stall,
    /// Skid-buffer control (paper Fig. 11) under the given front-gate
    /// policy. The min-area multi-level buffer split changes *where*
    /// buffers sit and how many bits they cost — not the cycle behaviour —
    /// so both skid variants of `OptimizationOptions` map here.
    Skid {
        /// How the front gate decides to accept a new iteration.
        gate: GatePolicy,
    },
}

impl ControlModel {
    /// The default skid model (credit-gated, as generated RTL uses).
    pub fn skid() -> Self {
        ControlModel::Skid {
            gate: GatePolicy::Credit,
        }
    }
}

/// Knobs of a timed simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Pipeline-control discipline.
    pub control: ControlModel,
    /// Whether §4.2 synchronization pruning is enabled (affects the
    /// recorded done-wait fan-in, not the latency — that equality is the
    /// point).
    pub sync_pruning: bool,
    /// Per-loop iteration cap; benchmarks with 2^20-iteration loops
    /// simulate only this many iterations. Must match the golden run.
    pub iters_cap: u64,
    /// Hard cycle bound (safety net for broken designs).
    pub max_cycles: u64,
    /// Capacity of external output FIFOs; `None` uses each FIFO's
    /// declared depth.
    pub out_fifo_capacity: Option<u64>,
    /// 64-cycle consumer readiness pattern: the consumer of external
    /// output FIFO `f` pops in cycle `c` iff bit `(c + f) % 64` is set.
    /// `u64::MAX` = always ready; sparse masks create back-pressure.
    pub out_ready_mask: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            control: ControlModel::Stall,
            sync_pruning: false,
            iters_cap: 48,
            max_cycles: 100_000,
            out_fifo_capacity: None,
            out_ready_mask: u64::MAX,
        }
    }
}

/// Per-loop timing report of a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopReport {
    /// Kernel index in the simulated design.
    pub kernel: usize,
    /// Loop index within the kernel.
    pub looop: usize,
    /// Loop name.
    pub name: String,
    /// Iterations executed (trip count after the cap).
    pub iterations: u64,
    /// Schedule-reported pipeline depth.
    pub depth: u32,
    /// Schedule-reported initiation interval.
    pub ii: u32,
    /// Whether the loop is pipelined.
    pub pipelined: bool,
    /// Modelled pipe length: `max(depth, last write cycle + 1)`. Equals
    /// `depth` for any self-consistent schedule; exceeding it means the
    /// schedule's depth field lies about its own write cycles.
    pub pipe_len: u64,
    /// Cycle of the first issued iteration.
    pub first_issue: Option<u64>,
    /// Cycle the loop finished (all tokens retired, skid drained).
    pub done_cycle: Option<u64>,
    /// Cycles the loop was frozen by the stall broadcast.
    pub stall_cycles: u64,
    /// Cycles an issue (or drain) was due but gated: closed front gate,
    /// missing upstream tokens, or end-of-run skid drain.
    pub gated_cycles: u64,
    /// Peak skid-buffer occupancy across the loop's written FIFOs, words.
    pub skid_peak: u64,
    /// Whether a skid buffer exceeded its capacity bound (control bug).
    pub skid_overflow: bool,
    /// PE `done` signals entering synchronization (0 for < 2 calls).
    pub sync_inputs: usize,
    /// PE `done` signals actually waited on after optional pruning.
    pub sync_waited: usize,
    /// Longest static PE latency over the full wait set.
    pub sync_latency_full: Option<u64>,
    /// Longest static PE latency over the pruned wait set. Must equal
    /// the full-set latency (§4.2's correctness argument).
    pub sync_latency_pruned: Option<u64>,
}

impl LoopReport {
    /// Busy cycles: first issue through completion, inclusive.
    pub(crate) fn busy_cycles(&self) -> u64 {
        match (self.first_issue, self.done_cycle) {
            (Some(a), Some(b)) => b - a + 1,
            _ => 0,
        }
    }

    /// The schedule's promised minimum latency for the executed
    /// iteration count.
    pub(crate) fn min_cycles(&self) -> u64 {
        if self.iterations == 0 {
            return 0;
        }
        u64::from(self.depth.max(1)) + (self.iterations - 1) * u64::from(self.ii.max(1))
    }
}

/// Result of a timed simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedOutcome {
    /// Observable outputs, in per-FIFO iteration order.
    pub trace: IoTrace,
    /// Cycle count at completion (or at abort).
    pub cycles: u64,
    /// Whether every loop ran to completion within `max_cycles`.
    pub finished: bool,
    /// Whether the watchdog detected a cycle without possible progress.
    pub deadlocked: bool,
    /// Per-loop reports, in (kernel, loop) order, standalone loops only.
    pub per_loop: Vec<LoopReport>,
}

/// A value-less in-flight iteration: `progress` cycles traversed,
/// `next_event` indexing into the loop's precomputed write events.
#[derive(Debug, Clone, Copy)]
struct Token {
    progress: u64,
    next_event: usize,
}

/// How the simulator treats a FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FifoKind {
    /// Read but never written: stimulus, always ready.
    ExternalIn,
    /// Written but never read: bounded, drained by the consumer model.
    ExternalOut,
    /// Written and read by simulated loops: token-gated in dataflow
    /// designs, unbounded (rate mismatches surface as gating, not
    /// deadlock — matching the functional model, where reads never
    /// depend on writes).
    Internal,
}

#[derive(Debug)]
struct FifoRt {
    kind: FifoKind,
    /// Committed, not-yet-consumed words.
    occ: u64,
    /// Capacity (external outputs only).
    cap: u64,
    /// Standalone loops still to finish among this FIFO's writers.
    writers_remaining: usize,
}

struct LoopRt<'a> {
    kernel: usize,
    sl: &'a ScheduledLoop,
    iters: u64,
    pipelined: bool,
    ii: u64,
    pipe_len: u64,
    /// (relative commit cycle, fifo) per iteration, ascending.
    events: Vec<(u64, usize)>,
    /// Words written per iteration.
    words_per_iter: u64,
    /// (fifo, reads per iteration) for token-gated upstream FIFOs.
    gated_reads: Vec<(usize, u64)>,
    /// Credit capacity in outstanding iterations.
    capacity_iters: u64,
    tokens: VecDeque<Token>,
    /// Skid occupancy per written fifo, words.
    skid: BTreeMap<usize, u64>,
    skid_total: u64,
    /// Skid emptiness registered at the last cycle boundary (for
    /// [`GatePolicy::RegisteredEmpty`]).
    skid_empty_reg: bool,
    issued: u64,
    last_issue: Option<u64>,
    done: bool,
    report: LoopReport,
}

impl LoopRt<'_> {
    fn outstanding_iters(&self) -> u64 {
        self.tokens.len() as u64 + self.skid_total.div_ceil(self.words_per_iter.max(1))
    }
}

/// Simulates `design` cycle-accurately. `loops[kernel][loop]` are the
/// scheduled loops of the *same* design (the `ScheduleArtifact` /
/// `ScheduledDesign` layout); kernels only reachable via `call` are
/// modelled inside their caller's iterations, not as standalone loops.
///
/// # Panics
///
/// Panics if `loops` does not cover every kernel of `design` or
/// references entities missing from it (verify the design first).
pub fn simulate_design(
    design: &Design,
    loops: &[Vec<ScheduledLoop>],
    stim: &Stimulus,
    opts: &SimOptions,
) -> TimedOutcome {
    assert_eq!(
        loops.len(),
        design.kernels.len(),
        "schedule layout must cover every kernel"
    );
    let interp = Interpreter::new(design);
    let mut io = stim.to_io();

    // Which kernels run standalone (everything not a `call` target).
    let mut called: HashSet<usize> = HashSet::new();
    for kls in loops {
        for sl in kls {
            for (_, inst) in sl.looop.body.iter() {
                if let OpKind::Call(kid) = inst.kind {
                    called.insert(kid.index());
                }
            }
        }
    }

    // FIFO classification over standalone loops only.
    let nfifos = design.fifos.len();
    let mut written = vec![0usize; nfifos];
    let mut read = vec![false; nfifos];
    for (k, kls) in loops.iter().enumerate() {
        if called.contains(&k) {
            continue;
        }
        for sl in kls {
            let mut writes_here = vec![false; nfifos];
            for (_, inst) in sl.looop.body.iter() {
                match inst.kind {
                    OpKind::FifoWrite(f) => writes_here[f.index()] = true,
                    OpKind::FifoRead(f) => read[f.index()] = true,
                    _ => {}
                }
            }
            for (f, w) in writes_here.iter().enumerate() {
                written[f] += usize::from(*w);
            }
        }
    }
    let mut fifos: Vec<FifoRt> = (0..nfifos)
        .map(|f| {
            let kind = match (written[f] > 0, read[f]) {
                (true, true) => FifoKind::Internal,
                (true, false) => FifoKind::ExternalOut,
                _ => FifoKind::ExternalIn,
            };
            FifoRt {
                kind,
                occ: 0,
                cap: opts
                    .out_fifo_capacity
                    .unwrap_or(design.fifos[f].depth as u64)
                    .max(1),
                writers_remaining: written[f],
            }
        })
        .collect();

    // Build per-loop runtimes.
    let dataflow = design.concurrency == Concurrency::Dataflow;
    let mut rts: Vec<LoopRt<'_>> = Vec::new();
    for (k, kls) in loops.iter().enumerate() {
        if called.contains(&k) {
            continue;
        }
        for (li, sl) in kls.iter().enumerate() {
            rts.push(build_rt(design, k, li, sl, &fifos, dataflow, opts));
        }
    }

    // Bounded FIFOs must at least admit one cycle's worth of commits, or
    // the stall broadcast could freeze forever on a burst (e.g. an
    // unrolled loop committing `u` words to one FIFO in one cycle).
    for rt in &rts {
        let mut per_cycle: BTreeMap<(u64, usize), u64> = BTreeMap::new();
        for &(rel, f) in &rt.events {
            *per_cycle.entry((rel, f)).or_insert(0) += 1;
        }
        for (&(_, f), &n) in &per_cycle {
            fifos[f].cap = fifos[f].cap.max(n + 1);
        }
    }

    // Execution pointers: dataflow kernels run concurrently (one active
    // loop each, loops within a kernel still sequential); sequential
    // designs run one loop at a time across the whole design.
    let mut kernel_ptr: BTreeMap<usize, usize> = BTreeMap::new(); // kernel -> rt idx base
    for (i, rt) in rts.iter().enumerate() {
        kernel_ptr.entry(rt.kernel).or_insert(i);
    }
    let mut seq_ptr = 0usize;

    let ready = |cycle: u64, f: usize| (opts.out_ready_mask >> ((cycle + f as u64) % 64)) & 1 == 1;

    let mut cycles = opts.max_cycles;
    let mut finished = false;
    let mut deadlocked = false;
    let mut idle = 0u64;

    for cycle in 0..opts.max_cycles {
        if rts.iter().all(|rt| rt.done) {
            cycles = cycle;
            finished = true;
            break;
        }
        let mut progressed = false;

        // 1. Consumers pop external output FIFOs.
        for (f, fifo) in fifos.iter_mut().enumerate() {
            if fifo.kind == FifoKind::ExternalOut && fifo.occ > 0 && ready(cycle, f) {
                fifo.occ -= 1;
                progressed = true;
            }
        }

        // 2. Skid buffers drain one word per (loop, fifo) into their FIFO.
        for rt in rts.iter_mut() {
            if rt.skid_total == 0 {
                continue;
            }
            for (&f, occ) in rt.skid.iter_mut() {
                if *occ == 0 {
                    continue;
                }
                let fifo = &mut fifos[f];
                if fifo.kind != FifoKind::ExternalOut || fifo.occ < fifo.cap {
                    *occ -= 1;
                    rt.skid_total -= 1;
                    fifo.occ += 1;
                    progressed = true;
                }
            }
        }

        // 3. Active loops advance and issue.
        let active: Vec<usize> = if dataflow {
            kernel_ptr.values().copied().collect()
        } else {
            (seq_ptr < rts.len())
                .then_some(seq_ptr)
                .into_iter()
                .collect()
        };
        for ri in active {
            let rt = &mut rts[ri];
            if rt.done {
                continue;
            }

            // Stall broadcast: would any commit of this cycle overflow a
            // bounded FIFO? Then the whole loop freezes.
            let stall_mode = matches!(opts.control, ControlModel::Stall);
            let mut frozen = false;
            if stall_mode {
                let mut incoming: BTreeMap<usize, u64> = BTreeMap::new();
                for t in &rt.tokens {
                    let mut e = t.next_event;
                    while e < rt.events.len() && rt.events[e].0 == t.progress {
                        *incoming.entry(rt.events[e].1).or_insert(0) += 1;
                        e += 1;
                    }
                }
                frozen = incoming.iter().any(|(&f, &n)| {
                    fifos[f].kind == FifoKind::ExternalOut && fifos[f].occ + n > fifos[f].cap
                });
            }

            if frozen {
                rt.report.stall_cycles += 1;
            } else {
                // Advance every in-flight token, firing due commits.
                let mut advanced = false;
                for t in rt.tokens.iter_mut() {
                    while t.next_event < rt.events.len() && rt.events[t.next_event].0 == t.progress
                    {
                        let f = rt.events[t.next_event].1;
                        t.next_event += 1;
                        match opts.control {
                            ControlModel::Stall => fifos[f].occ += 1,
                            ControlModel::Skid { .. } => {
                                let cap =
                                    (rt.pipe_len + 1 + GATE_PIPELINE) * rt.words_per_iter.max(1);
                                let occ = rt.skid.entry(f).or_insert(0);
                                *occ += 1;
                                rt.skid_total += 1;
                                if *occ > cap {
                                    rt.report.skid_overflow = true;
                                }
                                rt.report.skid_peak = rt.report.skid_peak.max(rt.skid_total);
                            }
                        }
                    }
                    t.progress += 1;
                    advanced = true;
                }
                while rt.tokens.front().is_some_and(|t| t.progress >= rt.pipe_len) {
                    rt.tokens.pop_front();
                }
                progressed |= advanced;

                // Issue the next iteration?
                let due = rt.issued < rt.iters
                    && rt.last_issue.is_none_or(|li| cycle - li >= rt.ii)
                    && (rt.pipelined || rt.tokens.is_empty());
                if due {
                    let gate_open = match opts.control {
                        ControlModel::Stall => true,
                        ControlModel::Skid { gate } => match gate {
                            GatePolicy::Credit => rt.outstanding_iters() < rt.capacity_iters,
                            GatePolicy::RegisteredEmpty => rt.skid_empty_reg,
                        },
                    };
                    let inputs_ready = rt
                        .gated_reads
                        .iter()
                        .all(|&(f, need)| fifos[f].occ >= need || fifos[f].writers_remaining == 0);
                    if gate_open && inputs_ready {
                        for &(f, need) in &rt.gated_reads {
                            fifos[f].occ = fifos[f].occ.saturating_sub(need);
                        }
                        interp.run_iteration(&rt.sl.looop, rt.issued, &mut io);
                        rt.tokens.push_back(Token {
                            progress: 0,
                            next_event: 0,
                        });
                        rt.issued += 1;
                        rt.report.first_issue.get_or_insert(cycle);
                        rt.last_issue = Some(cycle);
                        progressed = true;
                    } else {
                        rt.report.gated_cycles += 1;
                    }
                } else if rt.issued == rt.iters && rt.tokens.is_empty() && rt.skid_total > 0 {
                    // End-of-run skid drain.
                    rt.report.gated_cycles += 1;
                }
            }
            rt.skid_empty_reg = rt.skid_total == 0;

            // Completion: everything issued, in flight, and drained.
            if rt.issued == rt.iters && rt.tokens.is_empty() && rt.skid_total == 0 {
                rt.done = true;
                rt.report.done_cycle = Some(cycle);
                if rt.report.first_issue.is_none() {
                    // Zero-iteration loop: never busy.
                    rt.report.done_cycle = None;
                }
                let written: HashSet<usize> = rt.events.iter().map(|&(_, f)| f).collect();
                for f in written {
                    fifos[f].writers_remaining = fifos[f].writers_remaining.saturating_sub(1);
                }
                let kernel = rt.kernel;
                progressed = true;
                // Advance the execution pointer.
                if dataflow {
                    let next = ri + 1;
                    if rts.get(next).is_some_and(|n| n.kernel == kernel) {
                        kernel_ptr.insert(kernel, next);
                    } else {
                        kernel_ptr.remove(&kernel);
                    }
                } else {
                    seq_ptr = ri + 1;
                }
            }
        }

        if progressed {
            idle = 0;
        } else {
            idle += 1;
            if idle > WATCHDOG_IDLE {
                cycles = cycle;
                deadlocked = true;
                break;
            }
        }
    }

    TimedOutcome {
        trace: IoTrace::from_io(&io),
        cycles,
        finished,
        deadlocked,
        per_loop: rts.into_iter().map(|rt| rt.report).collect(),
    }
}

/// Precomputes the static per-loop runtime (events, gating, sync).
fn build_rt<'a>(
    design: &Design,
    kernel: usize,
    index: usize,
    sl: &'a ScheduledLoop,
    fifos: &[FifoRt],
    dataflow: bool,
    opts: &SimOptions,
) -> LoopRt<'a> {
    let lp = &sl.looop;
    let schedule = &sl.schedule;
    let iters = capped_iters(lp, opts.iters_cap);

    // Commit events and upstream read counts.
    let mut events: Vec<(u64, usize)> = Vec::new();
    let mut reads: BTreeMap<usize, u64> = BTreeMap::new();
    let mut writes_here: HashSet<usize> = HashSet::new();
    let mut calls: Vec<Option<u64>> = Vec::new();
    for (id, inst) in lp.body.iter() {
        match inst.kind {
            OpKind::FifoWrite(f) => {
                events.push((u64::from(schedule.op(id).done_cycle()), f.index()));
                writes_here.insert(f.index());
            }
            OpKind::FifoRead(f) => *reads.entry(f.index()).or_insert(0) += 1,
            OpKind::Call(kid) => calls.push(design.kernel(kid).static_latency),
            _ => {}
        }
    }
    events.sort_unstable();
    let words_per_iter = events.len() as u64;
    let max_rel = events.last().map_or(0, |&(rel, _)| rel + 1);
    let pipe_len = u64::from(schedule.depth.max(1)).max(max_rel);

    // Token gating: only dataflow designs synchronize through FIFOs, and
    // a loop never waits on its own writes.
    let gated_reads: Vec<(usize, u64)> = if dataflow {
        reads
            .iter()
            .filter(|&(&f, _)| fifos[f].kind == FifoKind::Internal && !writes_here.contains(&f))
            .map(|(&f, &n)| (f, n))
            .collect()
    } else {
        Vec::new()
    };

    // Synchronization fan-in (≥ 2 parallel PE calls).
    let (sync_inputs, sync_waited, sync_full, sync_pruned) = if calls.len() >= 2 {
        let modules: Vec<ModuleSync> = calls
            .iter()
            .enumerate()
            .map(|(i, lat)| ModuleSync {
                name: format!("pe{i}"),
                latency: *lat,
            })
            .collect();
        let plan = prune_sync(&modules);
        let max_of = |idxs: &[usize]| idxs.iter().filter_map(|&i| calls[i]).max();
        let full: Vec<usize> = (0..calls.len()).collect();
        let waited = if opts.sync_pruning {
            plan.wait.len()
        } else {
            calls.len()
        };
        (calls.len(), waited, max_of(&full), max_of(&plan.wait))
    } else {
        (0, 0, None, None)
    };

    let ii = u64::from(schedule.ii.max(1));
    LoopRt {
        kernel,
        sl,
        iters,
        pipelined: lp.is_pipelined(),
        ii,
        pipe_len,
        events,
        words_per_iter,
        gated_reads,
        capacity_iters: pipe_len + 1 + GATE_PIPELINE,
        tokens: VecDeque::new(),
        skid: BTreeMap::new(),
        skid_total: 0,
        skid_empty_reg: true,
        issued: 0,
        last_issue: None,
        done: false,
        report: LoopReport {
            kernel,
            looop: index,
            name: lp.name.clone(),
            iterations: iters,
            depth: schedule.depth,
            ii: schedule.ii,
            pipelined: lp.is_pipelined(),
            pipe_len,
            first_issue: None,
            done_cycle: None,
            stall_cycles: 0,
            gated_cycles: 0,
            skid_peak: 0,
            skid_overflow: false,
            sync_inputs,
            sync_waited,
            sync_latency_full: sync_full,
            sync_latency_pruned: sync_pruned,
        },
    }
}

/// Checks a timed outcome against the schedule's latency promises:
///
/// * the run finished without deadlock;
/// * no skid buffer overflowed its §4.3 capacity bound;
/// * every loop's busy window is at least the schedule's minimum
///   (`depth + (iters-1)·II`) and at most that minimum plus every
///   *accounted* delay (stall cycles, gate cycles) and a small constant
///   slack — so a schedule whose `depth` under-reports its own commit
///   cycles is caught as an unexplained latency excess;
/// * pruned and full synchronization wait latencies agree (§4.2).
pub fn check_latency(outcome: &TimedOutcome) -> Result<(), String> {
    if outcome.deadlocked {
        return Err(format!("deadlock at cycle {}", outcome.cycles));
    }
    if !outcome.finished {
        return Err(format!("did not finish within {} cycles", outcome.cycles));
    }
    for r in &outcome.per_loop {
        if r.iterations == 0 {
            continue;
        }
        if r.skid_overflow {
            return Err(format!("loop {}: skid buffer overflow", r.name));
        }
        let busy = r.busy_cycles();
        let min = r.min_cycles();
        if busy < min {
            return Err(format!(
                "loop {}: busy {busy} cycles < schedule minimum {min}",
                r.name
            ));
        }
        let slack = GATE_PIPELINE + 6;
        let max = min + r.stall_cycles + r.gated_cycles + slack;
        if busy > max {
            return Err(format!(
                "loop {}: busy {busy} cycles > explained maximum {max} \
                 (min {min} + stalls {} + gated {} + slack {slack})",
                r.name, r.stall_cycles, r.gated_cycles
            ));
        }
        if let (Some(full), Some(pruned)) = (r.sync_latency_full, r.sync_latency_pruned) {
            if full != pruned {
                return Err(format!(
                    "loop {}: pruned sync latency {pruned} != full {full}",
                    r.name
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::golden_trace;
    use hlsb_ir::builder::DesignBuilder;
    use hlsb_ir::{DataType, Loop};
    use hlsb_sched::{MemAccessPlan, Schedule, ScheduledOp};

    /// A trivially valid ASAP schedule: one instruction per cycle,
    /// latency 0 everywhere (depth = body length).
    fn naive_schedule(lp: &Loop) -> Schedule {
        let n = lp.body.len().max(1) as u32;
        Schedule {
            ops: (0..lp.body.len())
                .map(|i| ScheduledOp {
                    cycle: i as u32,
                    latency: 0,
                    offset_ns: 0.0,
                    est_delay_ns: 0.0,
                })
                .collect(),
            depth: n,
            ii: if lp.is_pipelined() { 1 } else { n },
            clock_ns: 3.0,
            violations: vec![],
        }
    }

    fn scheduled(design: &Design) -> Vec<Vec<ScheduledLoop>> {
        design
            .kernels
            .iter()
            .map(|k| {
                k.loops
                    .iter()
                    .map(|lp| ScheduledLoop {
                        schedule: naive_schedule(lp),
                        looop: lp.clone(),
                        mem_plan: MemAccessPlan::default(),
                    })
                    .collect()
            })
            .collect()
    }

    fn bodies(design: &Design) -> Vec<Vec<Loop>> {
        design.kernels.iter().map(|k| k.loops.clone()).collect()
    }

    /// in -> (x + x) -> out, 10 iterations.
    fn doubler() -> Design {
        let mut b = DesignBuilder::new("t");
        let fin = b.fifo("in", DataType::Int(32), 2);
        let fout = b.fifo("out", DataType::Int(32), 2);
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("main", 10, 1);
        let x = l.fifo_read(fin, DataType::Int(32));
        let y = l.add(x, x);
        l.fifo_write(fout, y);
        l.finish();
        k.finish();
        b.finish().unwrap()
    }

    #[test]
    fn all_control_models_match_golden() {
        let d = doubler();
        let loops = scheduled(&d);
        let stim = Stimulus::seeded(&d, 3, 10);
        let golden = golden_trace(&d, &bodies(&d), &stim, 64);
        for (control, mask) in [
            (ControlModel::Stall, u64::MAX),
            (ControlModel::Stall, 0xAAAA_AAAA_AAAA_AAAA),
            (ControlModel::skid(), u64::MAX),
            (ControlModel::skid(), 0xAAAA_AAAA_AAAA_AAAA),
            (
                ControlModel::Skid {
                    gate: GatePolicy::RegisteredEmpty,
                },
                0x9249_2492_4924_9249,
            ),
        ] {
            let opts = SimOptions {
                control,
                out_ready_mask: mask,
                ..SimOptions::default()
            };
            let out = simulate_design(&d, &loops, &stim, &opts);
            assert!(out.finished, "{control:?} mask {mask:#x}");
            assert_eq!(out.trace.diff(&golden), None, "{control:?} mask {mask:#x}");
            check_latency(&out).unwrap_or_else(|e| panic!("{control:?} mask {mask:#x}: {e}"));
        }
    }

    #[test]
    fn back_pressure_is_accounted_not_hidden() {
        let d = doubler();
        let loops = scheduled(&d);
        let stim = Stimulus::seeded(&d, 5, 10);
        // Consumer ready 1 cycle in 4: the pipeline must throttle.
        let mask = 0x1111_1111_1111_1111u64;
        let stall = simulate_design(
            &d,
            &loops,
            &stim,
            &SimOptions {
                out_ready_mask: mask,
                ..SimOptions::default()
            },
        );
        assert!(stall.per_loop[0].stall_cycles > 0);
        check_latency(&stall).unwrap();

        let skid = simulate_design(
            &d,
            &loops,
            &stim,
            &SimOptions {
                control: ControlModel::skid(),
                out_ready_mask: mask,
                ..SimOptions::default()
            },
        );
        assert!(skid.per_loop[0].gated_cycles > 0);
        assert!(skid.per_loop[0].skid_peak > 0);
        assert!(!skid.per_loop[0].skid_overflow);
        check_latency(&skid).unwrap();
        assert_eq!(stall.trace, skid.trace);
        // §4.3: same long-run throughput, up to a drain constant.
        assert!(
            stall.cycles.abs_diff(skid.cycles) <= 2 * stall.per_loop[0].pipe_len + 16,
            "stall {} vs skid {}",
            stall.cycles,
            skid.cycles
        );
    }

    #[test]
    fn dataflow_chain_gates_the_consumer() {
        let mut b = DesignBuilder::new("chain");
        b.dataflow();
        let fin = b.fifo("in", DataType::Int(32), 2);
        let mid = b.fifo("mid", DataType::Int(32), 2);
        let fout = b.fifo("out", DataType::Int(32), 2);
        let mut p = b.kernel("producer");
        let mut l = p.pipelined_loop("prod", 8, 1);
        let x = l.fifo_read(fin, DataType::Int(32));
        let y = l.mul(x, x);
        l.fifo_write(mid, y);
        l.finish();
        p.finish();
        let mut c = b.kernel("consumer");
        let mut l = c.pipelined_loop("cons", 8, 1);
        let v = l.fifo_read(mid, DataType::Int(32));
        let w = l.add(v, v);
        l.fifo_write(fout, w);
        l.finish();
        c.finish();
        let d = b.finish().unwrap();

        let loops = scheduled(&d);
        let stim = Stimulus::seeded(&d, 9, 8);
        let golden = golden_trace(&d, &bodies(&d), &stim, 64);
        let out = simulate_design(&d, &loops, &stim, &SimOptions::default());
        assert!(out.finished);
        assert_eq!(out.trace.diff(&golden), None);
        // The consumer cannot start before the producer's first commit.
        let prod = &out.per_loop[0];
        let cons = &out.per_loop[1];
        assert!(cons.first_issue.unwrap() > prod.first_issue.unwrap());
        assert!(cons.gated_cycles > 0, "consumer should wait on tokens");
        check_latency(&out).unwrap();
    }

    #[test]
    fn sync_latencies_agree_and_pruning_reduces_fanin() {
        let mut b = DesignBuilder::new("sync");
        let fout = b.fifo("out", DataType::Int(32), 2);
        let mut pe = b.kernel("pe");
        pe.set_static_latency(4);
        let mut l = pe.pipelined_loop("body", 1, 1);
        let x = l.varying_input("x", DataType::Int(32));
        let y = l.add(x, x);
        l.output("r", y);
        l.finish();
        let pe_id = pe.finish();
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("main", 5, 1);
        let i = l.indvar("i");
        let a = l.call(pe_id, vec![i], DataType::Int(32));
        let c = l.call(pe_id, vec![a], DataType::Int(32));
        let e = l.call(pe_id, vec![c], DataType::Int(32));
        l.fifo_write(fout, e);
        l.finish();
        k.finish();
        let d = b.finish().unwrap();

        let loops = scheduled(&d);
        let stim = Stimulus::seeded(&d, 2, 5);
        for pruning in [false, true] {
            let out = simulate_design(
                &d,
                &loops,
                &stim,
                &SimOptions {
                    sync_pruning: pruning,
                    ..SimOptions::default()
                },
            );
            let top = out.per_loop.iter().find(|r| r.name == "main").unwrap();
            assert_eq!(top.sync_inputs, 3);
            assert_eq!(top.sync_waited, if pruning { 1 } else { 3 });
            assert_eq!(top.sync_latency_full, Some(4));
            assert_eq!(top.sync_latency_pruned, Some(4));
            check_latency(&out).unwrap();
        }
    }

    #[test]
    fn under_reported_depth_is_caught() {
        let d = doubler();
        let mut loops = scheduled(&d);
        // The schedule claims a much shallower pipe than its own write
        // cycles imply: the latency consistency check must reject it.
        loops[0][0].schedule.depth = 1;
        loops[0][0].schedule.ops[2].cycle = 20;
        let stim = Stimulus::seeded(&d, 1, 10);
        let out = simulate_design(&d, &loops, &stim, &SimOptions::default());
        assert!(out.finished);
        let err = check_latency(&out).expect_err("depth lie must be detected");
        assert!(err.contains("explained maximum"), "{err}");
    }

    #[test]
    fn zero_iteration_loops_are_skipped() {
        let mut b = DesignBuilder::new("z");
        let fout = b.fifo("out", DataType::Int(32), 2);
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("empty", 0, 1);
        let i = l.indvar("i");
        l.fifo_write(fout, i);
        l.finish();
        k.finish();
        let d = b.finish().unwrap();
        let loops = scheduled(&d);
        let stim = Stimulus::seeded(&d, 0, 4);
        let out = simulate_design(&d, &loops, &stim, &SimOptions::default());
        assert!(out.finished);
        assert!(out.trace.is_empty());
        check_latency(&out).unwrap();
    }
}
