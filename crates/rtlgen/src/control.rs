//! Control-logic generation: stall broadcast, skid-buffer control, and
//! parallel-module synchronization.

use crate::datapath::LoopArtifacts;
use crate::lower::{Ctx, ScheduledLoop};
use crate::options::ControlStyle;
use hlsb_ctrl::min_area_split;
use hlsb_netlist::{Cell, CellId};
use hlsb_sync::prune::{prune_sync, ModuleSync};

/// Fan-in per level of status/done reduce trees; a reduce wider than
/// this becomes a multi-level tree.
pub const REDUCE_FANIN: usize = 6;

/// Cycles of feedback latency in the registered skid front gate (the two
/// `gate_p1`/`gate_p2` registers of Fig. 11's control path). Every skid
/// buffer carries this many extra slots of in-flight slack on top of the
/// paper's `N + 1` bound, and the cycle-accurate simulator
/// (`hlsb-sim`) budgets its credit gate with the same constant.
pub const GATE_PIPELINE: u64 = 2;

/// Builds a combinational reduce tree over 1-bit drivers, returning the
/// root cell. Single drivers are returned as-is.
pub(crate) fn reduce_tree(ctx: &mut Ctx<'_>, drivers: &[CellId], name: &str) -> CellId {
    assert!(!drivers.is_empty(), "reduce tree needs inputs");
    let mut level: Vec<CellId> = drivers.to_vec();
    let mut lvl = 0usize;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(REDUCE_FANIN));
        for (gi, grp) in level.chunks(REDUCE_FANIN).enumerate() {
            let and = ctx
                .nl
                .add_cell(Cell::comb(format!("{name}_red{lvl}_{gi}"), 1, 0.25, 1));
            for &g in grp {
                ctx.nl.connect(g, &[and]);
            }
            next.push(and);
        }
        level = next;
        lvl += 1;
    }
    level[0]
}

/// A 1-bit status register fed by `src` (e.g. a FIFO occupancy flag).
fn status_ff(ctx: &mut Ctx<'_>, src: CellId, name: String) -> CellId {
    let ff = ctx.nl.add_cell(Cell::ff(name, 1));
    ctx.nl.connect(src, &[ff]);
    ff
}

/// Attaches pipeline flow control to a lowered loop. `name` is the
/// lowered loop instance name, used for decision provenance.
pub(crate) fn attach_pipeline_control(
    ctx: &mut Ctx<'_>,
    sl: &ScheduledLoop,
    art: &LoopArtifacts,
    name: &str,
) {
    if !sl.looop.is_pipelined() {
        return;
    }
    match ctx.options.control {
        ControlStyle::Stall => attach_stall(ctx, art),
        ControlStyle::Skid { min_area } => attach_skid(ctx, sl, art, min_area, name),
    }
}

/// Conventional control (Fig. 8): the FIFO empty/full statuses reduce into
/// one stall signal that fans out to **every** register of the loop — and,
/// for memory loops, to every BRAM bank (Fig. 18's enable broadcast).
fn attach_stall(ctx: &mut Ctx<'_>, art: &LoopArtifacts) {
    // Status sources: one register per FIFO endpoint used by the loop.
    let mut statuses = Vec::new();
    for (i, &fid) in art.fifos.iter().enumerate() {
        let cell = ctx.fifo_cell(fid);
        statuses.push(status_ff(ctx, cell, format!("stall_status{i}")));
    }
    if statuses.is_empty() {
        // Loops without FIFOs still carry an FSM-generated enable.
        statuses.push(ctx.nl.add_cell(Cell::ff("stall_fsm", 1)));
    }
    let root = reduce_tree(ctx, &statuses, "stall");

    // The broadcast: every pipeline register plus the banks of every
    // accessed array listen to the (combinational!) stall signal.
    let mut sinks: Vec<CellId> = art.loop_ffs.clone();
    for &aid in &art.arrays {
        sinks.extend(ctx.array_banks[aid.index()].iter().copied());
    }
    for &fid in &art.fifos {
        sinks.push(ctx.fifo_cell(fid));
    }
    if sinks.is_empty() {
        return;
    }
    ctx.nl.connect(root, &sinks);
    ctx.info.max_control_fanout = ctx.info.max_control_fanout.max(sinks.len());
}

/// Skid-buffer control (Fig. 11/12): per-stage valid bits (fanout 1), skid
/// buffers at the DP-chosen cut points, and a small gate on the first
/// stage only. The datapath registers are free-running — no enable net.
fn attach_skid(
    ctx: &mut Ctx<'_>,
    sl: &ScheduledLoop,
    art: &LoopArtifacts,
    min_area: bool,
    name: &str,
) {
    let depth = sl.schedule.depth as usize;

    // Valid-bit chain.
    let mut valid = Vec::with_capacity(depth);
    let mut prev: Option<CellId> = None;
    for s in 0..depth {
        let v = ctx.nl.add_cell(Cell::ff(format!("valid{s}"), 1));
        if let Some(p) = prev {
            ctx.nl.connect(p, &[v]);
        }
        prev = Some(v);
        valid.push(v);
    }

    // Buffer cut points.
    let widths = &art.stage_widths;
    let cuts: Vec<usize> = if min_area {
        min_area_split(widths).cuts
    } else if depth > 0 {
        vec![depth]
    } else {
        vec![]
    };

    // The gate feedback is registered (see below), which costs
    // GATE_PIPELINE extra cycles of in-flight slack per buffer. Island-
    // partitioned placement registers inter-island channels, adding
    // `crossing_slots` more cycles the buffer must absorb.
    let crossing_slots = ctx.options.crossing_slots;
    let mut status_ffs = Vec::new();
    let mut prev_cut = 0usize;
    for (ci, &cut) in cuts.iter().enumerate() {
        let seg_len = cut - prev_cut;
        let width = widths[cut - 1];
        let depth_slots = seg_len as u64 + 1 + GATE_PIPELINE + crossing_slots;
        let bits = depth_slots * width;
        ctx.info.skid_buffer_bits += bits;
        ctx.info.skid_decisions.push(crate::info::SkidDecision {
            looop: name.to_string(),
            cut_stage: cut,
            depth_slots,
            crossing_slots,
            width_bits: width,
            bits,
            storage: if bits >= 4096 {
                crate::info::SkidStorage::Bram
            } else {
                crate::info::SkidStorage::Ff
            },
            min_area,
        });
        let buf = if bits >= 4096 {
            let mut c = Cell::bram(format!("skid{ci}"), width.min(1 << 16) as u32, 0);
            c.brams = bits.div_ceil(36_864) as u32;
            ctx.nl.add_cell(c)
        } else {
            let mut c = Cell::ff(format!("skid{ci}"), width.min(1 << 16) as u32);
            c.ffs = bits.min(u64::from(u32::MAX)) as u32;
            ctx.nl.add_cell(c)
        };
        // The valid bit at the cut feeds the buffer (write side); the
        // buffer's occupancy flag is registered for the gate.
        if let Some(&v) = valid.get(cut.saturating_sub(1)) {
            ctx.nl.connect(v, &[buf]);
        }
        status_ffs.push(status_ff(ctx, buf, format!("skid{ci}_status")));
        prev_cut = cut;
    }

    // Front gate: tiny fanout — the entry registers and the first valid
    // bit only. Unlike the stall broadcast, the gate feedback tolerates
    // latency (the buffers carry GATE_PIPELINE cycles of extra slack), so
    // it is *registered* twice on its way to the front — a pipelineable,
    // duplicable net instead of a single-cycle combinational broadcast.
    if !status_ffs.is_empty() {
        let gate = reduce_tree(ctx, &status_ffs, "gate");
        let g1 = ctx.nl.add_cell(Cell::ff("gate_p1", 1));
        ctx.nl.connect(gate, &[g1]);
        let g2 = ctx.nl.add_cell(Cell::ff("gate_p2", 1));
        ctx.nl.connect(g1, &[g2]);
        let mut sinks: Vec<CellId> = art.entry_ffs.clone();
        if let Some(&v0) = valid.first() {
            sinks.push(v0);
        }
        if !sinks.is_empty() {
            ctx.nl.connect(g2, &sinks);
            ctx.info.max_control_fanout = ctx.info.max_control_fanout.max(sinks.len());
        }
    }
}

/// Synchronization of parallel PE calls (Fig. 6b): each PE raises `done`;
/// the controller AND-reduces the waited set and broadcasts `start` to
/// every PE's input registers. With pruning, only the longest static
/// latency is waited on (§4.2).
pub(crate) fn attach_call_sync(ctx: &mut Ctx<'_>, art: &LoopArtifacts, name: &str) {
    if art.calls.len() < 2 {
        return;
    }
    ctx.info.sync_inputs += art.calls.len();

    let modules: Vec<ModuleSync> = art
        .calls
        .iter()
        .enumerate()
        .map(|(i, c)| ModuleSync {
            name: format!("pe{i}"),
            latency: c.static_latency,
        })
        .collect();
    let plan = if ctx.options.sync_pruning {
        prune_sync(&modules)
    } else {
        hlsb_sync::SyncPlan {
            wait: (0..modules.len()).collect(),
            pruned: vec![],
        }
    };
    ctx.info.sync_waited += plan.wait.len();

    // Per-module prune/keep provenance: every pruned module is covered by
    // the largest static latency in the waited set.
    let cover_latency = plan.wait.iter().filter_map(|&i| modules[i].latency).max();
    for (i, m) in modules.iter().enumerate() {
        ctx.info.sync_decisions.push(crate::info::SyncDecision {
            looop: name.to_string(),
            module: m.name.clone(),
            latency: m.latency,
            waited: plan.wait.contains(&i),
            cover_latency,
        });
    }

    // Done registers for the waited PEs.
    let dones: Vec<CellId> = plan
        .wait
        .iter()
        .map(|&i| {
            let result = art.calls[i].result;
            status_ff(ctx, result, format!("pe{i}_done"))
        })
        .collect();
    let all_done = reduce_tree(ctx, &dones, "sync");

    // Start broadcast to every PE's entry registers. The reduce root is
    // combinational: it cannot be register-duplicated by physical
    // optimization — the paper's point about why pruning must happen at
    // the behaviour level.
    let sinks: Vec<CellId> = art
        .calls
        .iter()
        .flat_map(|c| c.entry_ffs.iter().copied())
        .collect();
    if !sinks.is_empty() {
        ctx.nl.connect(all_done, &sinks);
        ctx.info.max_control_fanout = ctx.info.max_control_fanout.max(sinks.len());
    }
}
