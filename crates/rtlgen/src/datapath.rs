//! Datapath lowering: instructions → cells, pipeline registers, PE calls.

use crate::lower::{Ctx, ScheduledDesign, ScheduledLoop};
use crate::memory::{lower_load, lower_store};
use hlsb_delay::{classify, DelayModel, OpClass};
use hlsb_ir::{DataType, InstId, KernelId, OpKind};
use hlsb_netlist::{Cell, CellId};
use std::collections::HashMap;

/// One inlined PE call site (for synchronization generation).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CallSite {
    /// The PE's input-stage registers (start-broadcast sinks).
    pub entry_ffs: Vec<CellId>,
    /// The cell producing the PE's result (drives the done logic).
    pub result: CellId,
    /// Statically known latency of the callee, if any.
    pub static_latency: Option<u64>,
}

/// Everything control generation needs about a lowered loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct LoopArtifacts {
    /// All registers belonging to the loop (stall-enable sinks).
    pub loop_ffs: Vec<CellId>,
    /// The cycle-0 input registers (skid gate / FSM start sinks).
    pub entry_ffs: Vec<CellId>,
    /// FIFOs read or written by the loop (status sources).
    pub fifos: Vec<hlsb_ir::FifoId>,
    /// Arrays accessed (their banks join the stall-enable net).
    pub arrays: Vec<hlsb_ir::ArrayId>,
    /// Inlined PE call sites.
    pub calls: Vec<CallSite>,
    /// Inter-stage width profile (for skid buffer placement).
    pub stage_widths: Vec<u64>,
}

/// Builds the word-level cell for a computational operation.
fn op_cell(name: String, kind: OpKind, ty: DataType, model: &impl DelayModel) -> Cell {
    let w = ty.bits();
    let latency = model.latency(kind, ty).max(1);
    // Multi-cycle operators are internally pipelined: per-stage delay.
    let stage_delay = model.delay_ns(kind, ty, 1) / f64::from(latency);
    match classify(kind, ty) {
        OpClass::IntMul => {
            let d = w.div_ceil(18).pow(2);
            Cell::dsp(name, w, stage_delay, d)
        }
        OpClass::FloatMul => {
            let d = if ty == DataType::Float64 { 11 } else { 3 };
            let mut c = Cell::dsp(name, w, stage_delay, d);
            c.luts = w;
            c
        }
        OpClass::FloatAddSub => {
            let mut c = Cell::dsp(name, w, stage_delay, 2);
            c.luts = w * 4;
            c
        }
        OpClass::FloatDiv => Cell::comb(name, w, stage_delay, w * 25),
        OpClass::Logic => Cell::comb(name, w, stage_delay, w.div_ceil(2).max(1)),
        OpClass::Mux => Cell::comb(name, w, stage_delay, w),
        // IntAlu and anything else LUT-based.
        _ => Cell::comb(name, w, stage_delay, w),
    }
}

/// Lowers one scheduled loop into the context's netlist.
pub(crate) fn lower_loop(
    ctx: &mut Ctx<'_>,
    sd: &ScheduledDesign<'_>,
    sl: &ScheduledLoop,
    prefix: &str,
    model: &impl DelayModel,
) -> LoopArtifacts {
    let mut art = LoopArtifacts::default();
    let widths = crate::info::stage_widths(&sl.looop, &sl.schedule);
    ctx.info.stage_width_profiles.push(widths.clone());
    art.stage_widths = widths;
    lower_body(ctx, sd, sl, prefix, model, &mut art, &[], 0);
    art
}

/// Lowers a loop body; `bound_inputs` maps the body's varying inputs to
/// pre-existing cells (used when inlining PE calls).
#[allow(clippy::too_many_arguments)]
fn lower_body(
    ctx: &mut Ctx<'_>,
    sd: &ScheduledDesign<'_>,
    sl: &ScheduledLoop,
    prefix: &str,
    model: &impl DelayModel,
    art: &mut LoopArtifacts,
    bound_inputs: &[CellId],
    depth: usize,
) -> Option<CellId> {
    assert!(depth <= 4, "call nesting too deep");
    let dfg = &sl.looop.body;
    let schedule = &sl.schedule;
    let mut value: Vec<Option<CellId>> = vec![None; dfg.len()];
    // Pipeline-register chains: (producer, cycles after done) -> FF.
    let mut chains: HashMap<(InstId, u32), CellId> = HashMap::new();
    let mut bound_iter = bound_inputs.iter().copied();
    let mut last_output: Option<CellId> = None;

    // Resolves the cell feeding `user_cycle` with operand `op`'s value,
    // inserting pipeline registers for cross-cycle transport.
    macro_rules! value_at {
        ($op:expr, $user_cycle:expr) => {{
            let op: InstId = $op;
            let user_cycle: u32 = $user_cycle;
            let done = schedule.op(op).done_cycle();
            assert!(user_cycle >= done, "consumer before producer");
            let base = value[op.index()].expect("operand lowered");
            let gap = user_cycle - done;
            if gap >= 4 {
                // Long transport lowers to one SRL-style delay line shared
                // by every tap of this value (as synthesis maps deep shift
                // registers): storage is LUT-based (SRL32) plus one output
                // register, and taps at different depths share it.
                const DL_KEY: u32 = u32::MAX;
                let srl_luts = |w: u32, g: u32| w.saturating_mul(g.div_ceil(32));
                match chains.get(&(op, DL_KEY)) {
                    Some(&c) => {
                        let w = ctx.nl.cell(c).width;
                        let grown = srl_luts(w, gap);
                        if grown > ctx.nl.cell(c).luts {
                            ctx.nl.cell_mut(c).luts = grown;
                        }
                        c
                    }
                    None => {
                        let w = ctx.nl.cell(base).width;
                        let mut c = Cell::ff(format!("{prefix}_dl{}", op.index()), w);
                        c.luts = srl_luts(w, gap);
                        let dl = ctx.nl.add_cell(c);
                        ctx.nl.connect(base, &[dl]);
                        art.loop_ffs.push(dl);
                        chains.insert((op, DL_KEY), dl);
                        dl
                    }
                }
            } else {
                let mut prev = base;
                for k in 1..=gap {
                    let ff = match chains.get(&(op, k)) {
                        Some(&ff) => ff,
                        None => {
                            let w = ctx.nl.cell(base).width;
                            let ff = ctx
                                .nl
                                .add_cell(Cell::ff(format!("{prefix}_p{}_{k}", op.index()), w));
                            art.loop_ffs.push(ff);
                            chains.insert((op, k), ff);
                            // Wire each new chain link exactly once.
                            ctx.nl.connect(prev, &[ff]);
                            ff
                        }
                    };
                    prev = ff;
                }
                prev
            }
        }};
    }

    for (id, inst) in dfg.iter() {
        let op = schedule.op(id);
        let name = if inst.name.is_empty() {
            format!("{prefix}_i{}", id.index())
        } else {
            format!("{prefix}_{}", inst.name)
        };
        let cell = match inst.kind {
            OpKind::Const => Some(ctx.nl.add_cell(Cell::constant(name, inst.ty.bits()))),
            OpKind::Input { .. } | OpKind::IndVar => {
                if let Some(bound) = bound_iter.next() {
                    // PE input bound to the caller's operand cell.
                    Some(bound)
                } else {
                    let ff = ctx.nl.add_cell(Cell::ff(name, inst.ty.bits()));
                    art.loop_ffs.push(ff);
                    // Only cycle-0 inputs are pipeline *entries* (gated by
                    // skid control / started by the FSM); later-stage port
                    // registers follow the valid chain.
                    if op.cycle == 0 {
                        art.entry_ffs.push(ff);
                    }
                    Some(ff)
                }
            }
            OpKind::Reg => {
                let src = value_at!(inst.operands[0], op.cycle);
                let ff = ctx.nl.add_cell(Cell::ff(name, inst.ty.bits()));
                ctx.nl.connect(src, &[ff]);
                art.loop_ffs.push(ff);
                Some(ff)
            }
            OpKind::Repack => {
                // Free bit-slicing: alias the operand's cell.
                Some(value_at!(inst.operands[0], op.done_cycle()))
            }
            OpKind::Output => {
                let src = value_at!(inst.operands[0], op.cycle);
                let out = ctx.nl.add_cell(Cell::output(name, inst.ty.bits()));
                ctx.nl.connect(src, &[out]);
                last_output = Some(src);
                // Downstream uses of the output value alias the source —
                // port cells are timing end points and never drive nets.
                Some(src)
            }
            OpKind::Load(aid) => {
                let addr = value_at!(inst.operands[0], op.cycle);
                let extra = sl.mem_plan.stages(id);
                let v = lower_load(ctx, aid, addr, extra, &name, art);
                if !art.arrays.contains(&aid) {
                    art.arrays.push(aid);
                }
                Some(v)
            }
            OpKind::Store(aid) => {
                let addr = value_at!(inst.operands[0], op.cycle);
                let data = value_at!(inst.operands[1], op.cycle);
                let extra = sl.mem_plan.stages(id);
                lower_store(ctx, aid, addr, data, extra, &name, art);
                if !art.arrays.contains(&aid) {
                    art.arrays.push(aid);
                }
                None
            }
            OpKind::FifoRead(fid) => {
                // Each read gets the FIFO's output register: consumers hang
                // off a plain FF (which physical fanout optimization can
                // duplicate), not off the FIFO storage macro.
                let cell = ctx.fifo_cell(fid);
                let q = ctx
                    .nl
                    .add_cell(Cell::ff(format!("{name}_q"), inst.ty.bits()));
                ctx.nl.connect(cell, &[q]);
                art.loop_ffs.push(q);
                if !art.fifos.contains(&fid) {
                    art.fifos.push(fid);
                }
                Some(q)
            }
            OpKind::FifoWrite(fid) => {
                let data = value_at!(inst.operands[0], op.cycle);
                let cell = ctx.fifo_cell(fid);
                ctx.nl.connect(data, &[cell]);
                if !art.fifos.contains(&fid) {
                    art.fifos.push(fid);
                }
                None
            }
            OpKind::Call(callee) => {
                let srcs: Vec<CellId> = inst
                    .operands
                    .iter()
                    .map(|&o| value_at!(o, op.cycle))
                    .collect();
                Some(lower_call(
                    ctx, sd, callee, &srcs, id, prefix, model, art, depth,
                ))
            }
            // Computational operations.
            kind => {
                let mut cell = op_cell(name.clone(), kind, inst.ty, model);
                let latency = model.latency(kind, inst.ty);
                let operands: Vec<CellId> = inst
                    .operands
                    .iter()
                    .map(|&o| value_at!(o, op.cycle))
                    .collect();
                // Multi-cycle ops register their output (internal pipeline
                // registers are charged to the output FF).
                if latency >= 1 {
                    let opc = ctx.nl.add_cell(cell);
                    for &src in &operands {
                        ctx.nl.connect(src, &[opc]);
                    }
                    let mut ff = Cell::ff(format!("{name}_q"), inst.ty.bits());
                    ff.ffs = inst.ty.bits() * latency;
                    let ffc = ctx.nl.add_cell(ff);
                    ctx.nl.connect(opc, &[ffc]);
                    art.loop_ffs.push(ffc);
                    Some(ffc)
                } else {
                    cell.name = name;
                    let opc = ctx.nl.add_cell(cell);
                    for &src in &operands {
                        ctx.nl.connect(src, &[opc]);
                    }
                    Some(opc)
                }
            }
        };
        value[id.index()] = cell;
    }

    last_output
}

/// Inlines a PE call: lowers the callee's loops with the call operands
/// bound to its inputs.
#[allow(clippy::too_many_arguments)]
fn lower_call(
    ctx: &mut Ctx<'_>,
    sd: &ScheduledDesign<'_>,
    callee: KernelId,
    srcs: &[CellId],
    call_inst: InstId,
    prefix: &str,
    model: &impl DelayModel,
    art: &mut LoopArtifacts,
    depth: usize,
) -> CellId {
    let kernel = ctx.design.kernel(callee);
    // Register the call operands at the PE boundary: these are the PE's
    // entry FFs (the start-broadcast sinks).
    let operand_cells: Vec<CellId> = srcs
        .iter()
        .enumerate()
        .map(|(i, &src)| {
            let w = ctx.nl.cell(src).width;
            let ff = ctx
                .nl
                .add_cell(Cell::ff(format!("{prefix}_{}_arg{i}", kernel.name), w));
            ctx.nl.connect(src, &[ff]);
            art.loop_ffs.push(ff);
            ff
        })
        .collect();

    let mut sub_art = LoopArtifacts::default();
    let mut result = None;
    for (li, sub_sl) in sd.loops[callee.index()].iter().enumerate() {
        result = lower_body(
            ctx,
            sd,
            sub_sl,
            &format!("{prefix}_{}{li}_c{}", kernel.name, call_inst.index()),
            model,
            &mut sub_art,
            &operand_cells,
            depth + 1,
        );
    }
    // PE-internal registers join the caller's control domain.
    art.loop_ffs.extend(sub_art.loop_ffs.iter().copied());
    for f in sub_art.fifos {
        if !art.fifos.contains(&f) {
            art.fifos.push(f);
        }
    }
    for a in sub_art.arrays {
        if !art.arrays.contains(&a) {
            art.arrays.push(a);
        }
    }

    let result = result.unwrap_or(operand_cells.first().copied().unwrap_or_else(|| {
        ctx.nl
            .add_cell(Cell::constant(format!("{prefix}_{}_void", kernel.name), 1))
    }));
    art.calls.push(CallSite {
        entry_ffs: operand_cells,
        result,
        static_latency: kernel.static_latency,
    });
    result
}
