//! Top-level lowering entry point.

use crate::control::{attach_call_sync, attach_pipeline_control};
use crate::datapath::{lower_loop, LoopArtifacts};
use crate::info::LowerInfo;
use crate::memory::make_banks;
use crate::options::RtlOptions;
use hlsb_delay::DelayModel;
use hlsb_ir::{Design, KernelId, Loop, OpKind};
use hlsb_netlist::{Cell, CellId, Netlist};
use hlsb_sched::{MemAccessPlan, Schedule};
use std::collections::HashSet;

/// One loop after scheduling (possibly rewritten by broadcast-aware
/// scheduling): the final body, its schedule, and the memory pipelining
/// plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledLoop {
    /// The final loop body (unrolled, with inserted registers).
    pub looop: Loop,
    /// Its schedule.
    pub schedule: Schedule,
    /// Extra memory pipelining decisions.
    pub mem_plan: MemAccessPlan,
}

/// A design plus the schedules of every loop, ready for lowering.
///
/// This is a *view*: lowering only reads the scheduled loops, so callers
/// that share schedule artifacts (e.g. a pass-pipeline cache) can lower
/// without cloning the design or the schedules.
#[derive(Debug, Clone, Copy)]
pub struct ScheduledDesign<'a> {
    /// The design (post any dataflow splitting).
    pub design: &'a Design,
    /// `loops[k][l]` is the scheduled form of kernel `k`'s loop `l`.
    pub loops: &'a [Vec<ScheduledLoop>],
}

/// The lowering result.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredDesign {
    /// The generated netlist.
    pub netlist: Netlist,
    /// Structural metadata.
    pub info: LowerInfo,
}

/// Shared lowering context.
pub(crate) struct Ctx<'a> {
    pub nl: Netlist,
    pub info: LowerInfo,
    pub design: &'a Design,
    pub options: &'a RtlOptions,
    /// Bank cells per array.
    pub array_banks: Vec<Vec<CellId>>,
    /// Storage cell per FIFO (created lazily).
    pub fifo_cells: Vec<Option<CellId>>,
}

impl<'a> Ctx<'a> {
    /// The storage cell of a FIFO, creating it on first use.
    pub(crate) fn fifo_cell(&mut self, fid: hlsb_ir::FifoId) -> CellId {
        if let Some(c) = self.fifo_cells[fid.index()] {
            return c;
        }
        let f = self.design.fifo(fid);
        let bits = f.depth as u64 * u64::from(f.elem.bits());
        let mut cell = Cell::bram(format!("fifo_{}", f.name), f.elem.bits(), 0);
        if bits >= 4096 {
            cell.brams = bits.div_ceil(36_864) as u32;
        } else {
            // Small FIFOs are SRL/register based; they still behave as an
            // opaque sequential macro (not duplicable by fanout opt).
            cell.luts = (bits / 32).max(4) as u32;
            cell.ffs = f.elem.bits();
        }
        let id = self.nl.add_cell(cell);
        // FIFO macros are the dataflow seams: island partitioning cuts the
        // netlist at exactly these cells.
        self.info.seam_cells.push(id);
        self.fifo_cells[fid.index()] = Some(id);
        id
    }
}

/// Kernels that are invoked via `call` (lowered per call site, not
/// standalone).
fn called_kernels(sd: &ScheduledDesign<'_>) -> HashSet<KernelId> {
    let mut out = HashSet::new();
    for sls in sd.loops {
        for sl in sls {
            for (_, inst) in sl.looop.body.iter() {
                if let OpKind::Call(k) = inst.kind {
                    out.insert(k);
                }
            }
        }
    }
    out
}

/// Lowers a scheduled design to a netlist.
///
/// `model` supplies per-cell intrinsic logic delays (typically the
/// predicted model — the *wire* component is the physical flow's job).
///
/// # Panics
///
/// Panics if `sd.loops` does not match the design's kernels, or if call
/// nesting exceeds the supported depth.
pub fn lower_design(
    sd: &ScheduledDesign<'_>,
    options: &RtlOptions,
    model: &impl DelayModel,
) -> LoweredDesign {
    assert_eq!(
        sd.loops.len(),
        sd.design.kernels.len(),
        "one schedule set per kernel required"
    );
    let mut ctx = Ctx {
        nl: Netlist::new(sd.design.name.clone()),
        info: LowerInfo::default(),
        design: sd.design,
        options,
        array_banks: Vec::new(),
        fifo_cells: vec![None; sd.design.fifos.len()],
    };
    for array in &sd.design.arrays {
        let banks = make_banks(&mut ctx.nl, array);
        ctx.array_banks.push(banks);
    }

    let called = called_kernels(sd);
    for (ki, kernel) in sd.design.kernels.iter().enumerate() {
        if called.contains(&KernelId(ki as u32)) {
            continue; // instantiated at its call sites
        }
        let mut prev_done: Option<CellId> = None;
        for (li, sl) in sd.loops[ki].iter().enumerate() {
            let lname = format!("{}_{li}", kernel.name);
            let art: LoopArtifacts = lower_loop(&mut ctx, sd, sl, &lname, model);
            ctx.info.pipeline_stages += sl.schedule.depth;

            // Sequential FSM: each loop starts when the previous is done.
            let fsm = ctx
                .nl
                .add_cell(Cell::ff(format!("{}_{li}_fsm", kernel.name), 1));
            if let Some(prev) = prev_done {
                ctx.nl.connect(prev, &[fsm]);
            }
            if !art.entry_ffs.is_empty() {
                ctx.nl.connect(fsm, &art.entry_ffs.clone());
            }
            prev_done = Some(fsm);

            attach_pipeline_control(&mut ctx, sl, &art, &lname);
            attach_call_sync(&mut ctx, &art, &lname);
        }
    }

    debug_assert!(ctx.nl.comb_topo_order().is_some(), "combinational cycle");
    LoweredDesign {
        netlist: ctx.nl,
        info: ctx.info,
    }
}
