//! Implement pass: multi-seed placement, fanout optimization, retiming
//! and timing-driven refinement — the best-timing trial wins.
//!
//! Two placement strategies share the pass:
//!
//! - **Flat** (default): each trial anneals the whole netlist on the whole
//!   device, exactly as before partitioning existed.
//! - **Partitioned** ([`Partitioning::Auto`] / [`Partitioning::Fixed`]):
//!   the netlist is cut at its dataflow seams into islands, every
//!   inter-island net is registered, each island gets a reserved vertical
//!   strip of the device, and all `trials × islands` island placements run
//!   on the crate's worker pool (phase A). Each trial then merges its
//!   island placements and runs the global fanout/retime/refine passes
//!   (phase B, parallel over trials).
//!
//! Both strategies are deterministic and thread-count independent: phase-A
//! results come back in `(trial, island)` slot order, each island
//! placement is a pure function of `(island netlist, region, seed)`, and
//! both strategies keep their winning trial through [`best_of`], whose
//! predicate does not depend on the order trials finish in.

use std::sync::Mutex;

use hlsb_fabric::{Device, WireModel};
use hlsb_netlist::{CellId, Netlist, Subgraph};
use hlsb_place::{
    auto_islands, max_islands, partition, reserve_regions, stitch_crossings, AnnealConfig,
    Placement, Region, SeedPlacement,
};
use hlsb_timing::{
    fanout_opt::FanoutOptReport, optimize_fanout, refine_critical, retime, retime::RetimeReport,
    FanoutOptions, RefineOptions, RetimeOptions, TimingReport,
};

use crate::options::{Partitioning, PlaceEffort};
use crate::pool;

/// The winning trial's netlist, placement and reports.
#[derive(Debug)]
pub(crate) struct ImplementOutput {
    pub netlist: Netlist,
    pub placement: Placement,
    pub timing: TimingReport,
    pub fanout: FanoutOptReport,
    pub retime: RetimeReport,
}

/// Deterministic per-trial provenance, captured inside the worker that
/// ran the trial. The timing window (`start_us`/`dur_us`, relative to the
/// session tracer's epoch) is informational only — everything else is a
/// pure function of the netlist and seed, so trial spans built from these
/// summaries are identical for sequential and parallel execution.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TrialSummary {
    pub idx: u32,
    pub seed: u64,
    pub period_ns: f64,
    pub fmax_mhz: f64,
    pub duplicated_regs: usize,
    pub retime_moves: usize,
    /// Total half-perimeter wirelength of the trial's final placement.
    pub hpwl: f64,
    pub start_us: f64,
    pub dur_us: f64,
}

/// Provenance of one island placement of one trial (phase A of the
/// partitioned strategy), for span emission.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct IslandSummary {
    pub trial: u32,
    pub island: u32,
    /// Cells placed in this island (crossing registers included).
    pub cells: u32,
    /// HPWL of the island placement, before global optimization.
    pub hpwl: f64,
    pub start_us: f64,
    pub dur_us: f64,
}

/// What the partitioned strategy did, for the result and the trace.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PartitionReport {
    /// Islands actually used (>= 2).
    pub islands: u32,
    /// Nets that crossed an island boundary before stitching.
    pub cut_nets: u32,
    /// Crossing registers inserted.
    pub crossing_registers: u32,
    /// Flip-flop bits those registers cost.
    pub crossing_register_bits: u64,
    /// Cells per island, after stitching.
    pub island_cells: Vec<u32>,
    /// Reserved region per island, as `(x0, y0, w, h)`.
    pub island_regions: Vec<(u16, u16, u16, u16)>,
    /// Per-(trial, island) placement provenance, sorted by trial then
    /// island.
    pub island_summaries: Vec<IslandSummary>,
}

struct TrialOutcome {
    out: ImplementOutput,
    summary: TrialSummary,
}

/// Whether `a` beats `b`: strictly better timing, ties to the lower
/// trial index. A total order over trials, so the kept winner is the
/// same whatever order trials finish in, which makes parallel ≡
/// sequential.
fn better(a: &TrialOutcome, b: &TrialOutcome) -> bool {
    let (a, b) = (&a.summary, &b.summary);
    a.period_ns < b.period_ns || (a.period_ns == b.period_ns && a.idx < b.idx)
}

/// Global optimization of one placed trial: fanout duplication, backward
/// retiming, timing-driven refinement, then the summary.
fn finish_trial(
    mut nl: Netlist,
    mut placement: Placement,
    idx: u32,
    seed: u64,
    wire: &WireModel,
    start_us: f64,
    tracer: &hlsb_trace::Tracer,
) -> TrialOutcome {
    let fanout = optimize_fanout(&mut nl, &mut placement, FanoutOptions::default());
    let (rt, _) = retime(&mut nl, &mut placement, wire, RetimeOptions::default());
    // Timing-driven refinement, as physical synthesis would run.
    let (_refine, timing) = refine_critical(&nl, &mut placement, wire, RefineOptions::default());
    let summary = TrialSummary {
        idx,
        seed,
        period_ns: timing.period_ns,
        fmax_mhz: timing.fmax_mhz,
        duplicated_regs: fanout.duplicated_registers,
        retime_moves: rt.moves,
        hpwl: placement.total_hpwl(&nl),
        start_us,
        dur_us: tracer.now_us() - start_us,
    };
    TrialOutcome {
        out: ImplementOutput {
            netlist: nl,
            placement,
            timing,
            fanout,
            retime: rt,
        },
        summary,
    }
}

/// Everything the partitioned strategy pre-computes once, shared by all
/// trials besides the stitched netlist: the per-island subgraphs and the
/// reserved regions.
struct PartitionPlan {
    subs: Vec<Subgraph>,
    regions: Vec<Region>,
    cut_nets: u32,
    crossing_registers: u32,
    crossing_register_bits: u64,
}

/// Decides whether (and how) to partition, and returns the stitched
/// netlist with its plan. Returns `None` — flat placement — when
/// partitioning is off, the design resolves to fewer than two islands,
/// or the device cannot host the reserved regions. The decision is a
/// pure function of `(netlist, device, partitions, seams)`, never of the
/// thread count.
fn plan_partition(
    netlist: &Netlist,
    device: &Device,
    partitions: Partitioning,
    seams: &[CellId],
) -> Option<(Netlist, PartitionPlan)> {
    if !partitions.is_enabled() {
        return None;
    }
    let k = match partitions {
        Partitioning::Off => return None,
        Partitioning::Auto => auto_islands(netlist, device),
        Partitioning::Fixed(k) => k.min(max_islands(device)),
    };
    if k < 2 {
        return None;
    }
    let mut part = partition(netlist, seams, k);
    if part.len() < 2 {
        return None;
    }
    // Auto mode only partitions when the cut is cheap (the RapidStream
    // premise: cut at low-bandwidth dataflow boundaries). A fat cut —
    // dense logic split down the middle because no seam exists — costs
    // more in crossing wiring than parallel island annealing buys, so
    // designs whose best cut severs more than ~2% of their nets fall
    // back to flat placement. An explicit `Fixed(k)` is always honored.
    if partitions == Partitioning::Auto {
        let cut = count_cut_nets(netlist, &part);
        if cut * 50 > netlist.cell_count() {
            return None;
        }
    }
    let mut stitched = netlist.clone();
    let crossings = stitch_crossings(&mut stitched, &mut part);
    let sizes: Vec<usize> = part.islands.iter().map(Vec::len).collect();
    let regions = reserve_regions(device, &sizes)?;
    let subs: Vec<Subgraph> = part
        .islands
        .iter()
        .map(|cells| stitched.subgraph(cells))
        .collect();
    let plan = PartitionPlan {
        subs,
        regions,
        cut_nets: crossings.cut_nets,
        crossing_registers: crossings.registers,
        crossing_register_bits: crossings.register_bits,
    };
    Some((stitched, plan))
}

/// Nets whose driver and some sink live in different islands — what
/// [`stitch_crossings`] would register. Counted on the unstitched
/// netlist so the Auto-mode quality gate can reject a fat cut before
/// cloning anything.
fn count_cut_nets(netlist: &Netlist, part: &hlsb_place::Partition) -> usize {
    netlist
        .nets()
        .filter(|(_, net)| {
            let home = part.island_of[net.driver.index()];
            net.sinks.iter().any(|s| part.island_of[s.index()] != home)
        })
        .count()
}

/// One phase-A task: anneal island `island` of trial `trial` from the
/// island's seed placement. Pure function of the plan, the base seed and
/// the slot.
fn place_island(
    plan: &PartitionPlan,
    seeds: &[SeedPlacement],
    anneal: AnnealConfig,
    base_seed: u64,
    trial: u32,
    island: u32,
    tracer: &hlsb_trace::Tracer,
) -> (Placement, IslandSummary) {
    let start_us = tracer.now_us();
    let trial_seed = hlsb_rng::derive_seed(base_seed, u64::from(trial));
    let island_seed = hlsb_rng::derive_seed(trial_seed, u64::from(island));
    let sub = &plan.subs[island as usize];
    let placement = seeds[island as usize].anneal(island_seed, anneal);
    let summary = IslandSummary {
        trial,
        island,
        cells: sub.netlist.cell_count() as u32,
        hpwl: placement.total_hpwl(&sub.netlist),
        start_us,
        dur_us: tracer.now_us() - start_us,
    };
    (placement, summary)
}

/// Merges one trial's island placements into a full-grid placement of
/// the `cells` cells of the stitched netlist.
fn merge_islands(
    plan: &PartitionPlan,
    cells: usize,
    device: &Device,
    islands: &[(Placement, IslandSummary)],
) -> Placement {
    let mut locs = vec![(0u16, 0u16); cells];
    for (sub, (p, _)) in plan.subs.iter().zip(islands) {
        for (local, &global) in sub.global_of.iter().enumerate() {
            locs[global.index()] = p.loc(CellId(local as u32));
        }
    }
    Placement::from_locs(locs, device.grid_w, device.grid_h)
}

/// Runs `trials` placement trials on up to `threads` workers and keeps
/// the best by [`better`]. Each trial gets its own copy of `netlist`: the
/// last trial to start takes it, every other one clones it, so a single
/// trial clones nothing. The winner is kept as trials finish, so no more
/// outcomes are alive at once than there are workers, plus the winner.
/// Returns the winner and every trial's summary in trial order.
fn best_of(
    netlist: Netlist,
    trials: u32,
    threads: usize,
    trial: impl Fn(u32, Netlist) -> TrialOutcome + Sync,
) -> (TrialOutcome, Vec<TrialSummary>) {
    let source = Mutex::new((Some(netlist), trials));
    let best: Mutex<Option<TrialOutcome>> = Mutex::new(None);
    let summaries = pool::map_indexed(threads, trials as usize, |idx| {
        let nl = {
            let mut source = source.lock().expect("netlist source poisoned");
            source.1 -= 1;
            let nl = if source.1 == 0 {
                source.0.take()
            } else {
                source.0.clone()
            };
            nl.expect("source netlist present")
        };
        let t = trial(idx as u32, nl);
        let summary = t.summary.clone();
        keep_best(&best, t);
        summary
    });
    let best = best.into_inner().expect("best-trial slot poisoned");
    (best.expect("at least one placement trial"), summaries)
}

/// Replaces the kept outcome with `t` when `t` is [`better`]. The
/// predicate is a total order, so the winner does not depend on the
/// order trials finish in.
fn keep_best(best: &Mutex<Option<TrialOutcome>>, t: TrialOutcome) {
    let mut best = best.lock().expect("best-trial slot poisoned");
    if best.as_ref().is_none_or(|b| better(&t, b)) {
        *best = Some(t);
    }
}

#[allow(clippy::too_many_arguments)]
fn run_partitioned(
    netlist: Netlist,
    plan: PartitionPlan,
    device: &Device,
    wire: &WireModel,
    anneal: AnnealConfig,
    seed: u64,
    trials: u32,
    threads: usize,
    tracer: &hlsb_trace::Tracer,
) -> (ImplementOutput, Vec<TrialSummary>, u32, PartitionReport) {
    let n_islands = plan.subs.len();
    let cells = netlist.cell_count();

    // Phase A: one seed placement per island, then every (trial, island)
    // anneal in one pool. Results come back in slot order, so worker
    // interleaving is invisible.
    let seeds = pool::map_indexed(threads, n_islands, |island| {
        SeedPlacement::new(&plan.subs[island].netlist, device, plan.regions[island])
    });
    let slots = pool::map_indexed(threads, trials as usize * n_islands, |slot| {
        let trial = (slot / n_islands) as u32;
        let island = (slot % n_islands) as u32;
        place_island(&plan, &seeds, anneal, seed, trial, island, tracer)
    });
    drop(seeds);

    // Phase B: per-trial merge + global fanout/retime/refine, parallel
    // over trials with the same keep-best reduction as flat mode.
    let (best, summaries) = best_of(netlist, trials, threads, |idx, nl| {
        let trial_slots = &slots[idx as usize * n_islands..][..n_islands];
        // The trial's window starts when its first island started.
        let start_us = trial_slots
            .iter()
            .map(|(_, s)| s.start_us)
            .fold(f64::INFINITY, f64::min);
        let placement = merge_islands(&plan, cells, device, trial_slots);
        let trial_seed = hlsb_rng::derive_seed(seed, u64::from(idx));
        finish_trial(nl, placement, idx, trial_seed, wire, start_us, tracer)
    });

    let report = PartitionReport {
        islands: n_islands as u32,
        cut_nets: plan.cut_nets,
        crossing_registers: plan.crossing_registers,
        crossing_register_bits: plan.crossing_register_bits,
        island_cells: plan
            .subs
            .iter()
            .map(|s| s.netlist.cell_count() as u32)
            .collect(),
        island_regions: plan
            .regions
            .iter()
            .map(|r| (r.x0, r.y0, r.w, r.h))
            .collect(),
        island_summaries: slots.into_iter().map(|(_, s)| s).collect(),
    };
    (best.out, summaries, best.summary.idx, report)
}

/// Places and optimizes `netlist` with `place_seeds` independent seeds
/// (streams of `seed` via [`hlsb_rng::derive_seed`]; stream 0 is `seed`
/// itself) and keeps the best-timing result. Trials run on up to
/// `threads` workers of the crate's pool; a single trial consumes the
/// netlist without cloning.
///
/// With `partitions` enabled (and a feasible cut — see `plan_partition`),
/// the partitioned strategy runs instead and the fourth return value
/// reports what it did; flat runs return `None` there.
///
/// Returns the winning output plus every trial's summary (sorted by
/// trial index) and the winner's index, for span-trace emission.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    netlist: Netlist,
    device: &Device,
    seed: u64,
    effort: PlaceEffort,
    place_seeds: u32,
    threads: usize,
    partitions: Partitioning,
    seams: &[CellId],
    tracer: &hlsb_trace::Tracer,
) -> (
    ImplementOutput,
    Vec<TrialSummary>,
    u32,
    Option<PartitionReport>,
) {
    let anneal = match effort {
        PlaceEffort::Fast => AnnealConfig::fast(),
        PlaceEffort::Normal => AnnealConfig::default(),
    };
    let wire = WireModel::for_device(device);
    let trials = place_seeds.max(1);

    if let Some((stitched, plan)) = plan_partition(&netlist, device, partitions, seams) {
        drop(netlist); // the stitched netlist supersedes it
        let (out, summaries, winner, report) = run_partitioned(
            stitched, plan, device, &wire, anneal, seed, trials, threads, tracer,
        );
        return (out, summaries, winner, Some(report));
    }

    // The seed placement does not depend on the seed: build it once and
    // anneal a copy per trial.
    let seeded = SeedPlacement::new(&netlist, device, Region::full(device));
    let (best, summaries) = best_of(netlist, trials, threads, |idx, nl| {
        let start_us = tracer.now_us();
        let trial_seed = hlsb_rng::derive_seed(seed, u64::from(idx));
        let placement = seeded.anneal(trial_seed, anneal);
        finish_trial(nl, placement, idx, trial_seed, &wire, start_us, tracer)
    });
    (best.out, summaries, best.summary.idx, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An outcome of trial `idx` with the given period and nothing placed.
    fn outcome(idx: u32, period_ns: f64) -> TrialOutcome {
        let summary = TrialSummary {
            idx,
            seed: u64::from(idx),
            period_ns,
            fmax_mhz: 1000.0 / period_ns,
            duplicated_regs: 0,
            retime_moves: 0,
            hpwl: 0.0,
            start_us: 0.0,
            dur_us: 0.0,
        };
        TrialOutcome {
            out: ImplementOutput {
                netlist: Netlist::new("t"),
                placement: Placement::from_locs(Vec::new(), 1, 1),
                timing: TimingReport {
                    period_ns,
                    fmax_mhz: summary.fmax_mhz,
                    critical_path: Vec::new(),
                    arrival_ns: Vec::new(),
                },
                fanout: FanoutOptReport::default(),
                retime: RetimeReport::default(),
            },
            summary,
        }
    }

    const PERIODS: [f64; 4] = [3.0, 2.0, 2.5, 2.0];

    #[test]
    fn tied_periods_keep_the_lowest_index_in_any_completion_order() {
        // Every completion order of four trials, two of them tied for
        // the best period.
        let orders: Vec<[u32; 4]> = (0..256u32)
            .map(|c| [c & 3, c >> 2 & 3, c >> 4 & 3, c >> 6 & 3])
            .filter(|o| (0..4).all(|i| o.contains(&i)))
            .collect();
        assert_eq!(orders.len(), 24);
        for order in orders {
            let best = Mutex::new(None);
            for idx in order {
                keep_best(&best, outcome(idx, PERIODS[idx as usize]));
            }
            let best = best.into_inner().unwrap().expect("a winner");
            assert_eq!(best.summary.idx, 1, "completion order {order:?}");
        }
    }

    #[test]
    fn best_of_returns_summaries_in_trial_order() {
        for threads in [1, 2, 4] {
            let (best, summaries) = best_of(Netlist::new("n"), 4, threads, |idx, nl| {
                assert_eq!(nl.name, "n");
                outcome(idx, PERIODS[idx as usize])
            });
            assert_eq!(best.summary.idx, 1, "threads {threads}");
            let idxs: Vec<u32> = summaries.iter().map(|s| s.idx).collect();
            assert_eq!(idxs, [0, 1, 2, 3], "threads {threads}");
        }
    }
}
