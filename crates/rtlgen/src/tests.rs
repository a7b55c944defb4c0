//! End-to-end lowering tests.

use crate::lower::{lower_design, ScheduledDesign, ScheduledLoop};
use crate::options::{ControlStyle, RtlOptions};
use hlsb_delay::HlsPredictedModel;
use hlsb_ir::builder::DesignBuilder;
use hlsb_ir::unroll::unroll_loop;
use hlsb_ir::{DataType, Design, Partition};
use hlsb_netlist::CellKind;
use hlsb_sched::{schedule_loop, MemAccessPlan};

const CLOCK: f64 = 3.33;

/// A design with its schedules, for tests that build the schedule in
/// place.
struct OwnedScheduledDesign {
    design: Design,
    loops: Vec<Vec<ScheduledLoop>>,
}

impl OwnedScheduledDesign {
    /// The borrowed view [`lower_design`] consumes.
    fn view(&self) -> ScheduledDesign<'_> {
        ScheduledDesign {
            design: &self.design,
            loops: &self.loops,
        }
    }
}

impl RtlOptions {
    /// All control optimizations on.
    fn optimized() -> Self {
        RtlOptions {
            control: ControlStyle::Skid { min_area: true },
            sync_pruning: true,
            crossing_slots: 0,
        }
    }
}

/// Schedules every loop of a design (applying unroll pragmas) with the
/// predicted model.
fn schedule_all(design: &Design) -> OwnedScheduledDesign {
    let model = HlsPredictedModel::new();
    let loops = design
        .kernels
        .iter()
        .map(|k| {
            k.loops
                .iter()
                .map(|lp| {
                    let u = unroll_loop(lp);
                    let schedule = schedule_loop(&u.looop, design, &model, CLOCK);
                    ScheduledLoop {
                        looop: u.looop,
                        schedule,
                        mem_plan: MemAccessPlan::default(),
                    }
                })
                .collect()
        })
        .collect();
    OwnedScheduledDesign {
        design: design.clone(),
        loops,
    }
}

/// A streaming loop: fifo -> compute -> fifo.
fn stream_design(depth_ops: usize) -> Design {
    let mut b = DesignBuilder::new("stream");
    let fin = b.fifo("in", DataType::Int(32), 2);
    let fout = b.fifo("out", DataType::Int(32), 2);
    let mut k = b.kernel("top");
    let mut l = k.pipelined_loop("main", 1024, 1);
    let mut v = l.fifo_read(fin, DataType::Int(32));
    let c = l.constant("c1", DataType::Int(32));
    for _ in 0..depth_ops {
        let s = l.add(v, c);
        v = l.reg(s); // force one op per stage
    }
    l.fifo_write(fout, v);
    l.finish();
    k.finish();
    b.finish().expect("valid")
}

#[test]
fn stall_broadcast_fans_out_to_all_registers() {
    let d = stream_design(12);
    let sd = schedule_all(&d);
    let lowered = lower_design(
        &sd.view(),
        &RtlOptions::baseline(),
        &HlsPredictedModel::new(),
    );
    lowered.netlist.validate().expect("valid netlist");
    // Every pipeline register hangs off one stall net.
    assert!(
        lowered.info.max_control_fanout >= 12,
        "stall fanout {}",
        lowered.info.max_control_fanout
    );
    assert_eq!(lowered.info.skid_buffer_bits, 0);
}

#[test]
fn skid_control_has_small_fanout_and_buffers() {
    let d = stream_design(12);
    let sd = schedule_all(&d);
    let stall = lower_design(
        &sd.view(),
        &RtlOptions::baseline(),
        &HlsPredictedModel::new(),
    );
    let skid = lower_design(
        &sd.view(),
        &RtlOptions::optimized(),
        &HlsPredictedModel::new(),
    );
    skid.netlist.validate().expect("valid netlist");
    assert!(
        skid.info.max_control_fanout * 3 < stall.info.max_control_fanout,
        "skid {} vs stall {}",
        skid.info.max_control_fanout,
        stall.info.max_control_fanout
    );
    assert!(skid.info.skid_buffer_bits > 0);
}

#[test]
fn min_area_skid_never_uses_more_bits() {
    let d = stream_design(20);
    let sd = schedule_all(&d);
    let plain = lower_design(
        &sd.view(),
        &RtlOptions {
            control: ControlStyle::Skid { min_area: false },
            sync_pruning: false,
            crossing_slots: 0,
        },
        &HlsPredictedModel::new(),
    );
    let min = lower_design(
        &sd.view(),
        &RtlOptions {
            control: ControlStyle::Skid { min_area: true },
            sync_pruning: false,
            crossing_slots: 0,
        },
        &HlsPredictedModel::new(),
    );
    assert!(min.info.skid_buffer_bits <= plain.info.skid_buffer_bits);
}

#[test]
fn large_array_store_creates_memory_broadcast() {
    let mut b = DesignBuilder::new("bigbuf");
    let arr = b.array("buffer", DataType::Int(32), 737_280, Partition::None);
    let fin = b.fifo("in", DataType::Int(32), 2);
    let mut k = b.kernel("top");
    let mut l = k.pipelined_loop("fill", 737_280, 1);
    let i = l.indvar("i");
    let v = l.fifo_read(fin, DataType::Int(32));
    l.store(arr, i, v);
    l.finish();
    k.finish();
    let d = b.finish().expect("valid");
    let sd = schedule_all(&d);
    let lowered = lower_design(
        &sd.view(),
        &RtlOptions::baseline(),
        &HlsPredictedModel::new(),
    );
    lowered.netlist.validate().expect("valid");
    // 640 units grouped into bank cells; the store data net hits them all.
    assert!(
        lowered.info.max_memory_fanout >= 100,
        "memory fanout {}",
        lowered.info.max_memory_fanout
    );
    // BRAM resources accounted.
    assert!(lowered.netlist.stats().brams >= 640);
}

#[test]
fn mem_plan_stages_shrink_memory_fanout() {
    let mut b = DesignBuilder::new("bigbuf2");
    let arr = b.array("buffer", DataType::Int(32), 737_280, Partition::None);
    let fin = b.fifo("in", DataType::Int(32), 2);
    let mut k = b.kernel("top");
    let mut l = k.pipelined_loop("fill", 737_280, 1);
    let i = l.indvar("i");
    let v = l.fifo_read(fin, DataType::Int(32));
    let st = l.store(arr, i, v);
    l.finish();
    k.finish();
    let d = b.finish().expect("valid");
    let mut sd = schedule_all(&d);
    // Plan one extra distribution stage on the store.
    sd.loops[0][0].mem_plan.extra_stages.insert(st, 1);
    let lowered = lower_design(
        &sd.view(),
        &RtlOptions::baseline(),
        &HlsPredictedModel::new(),
    );
    lowered.netlist.validate().expect("valid");
    let direct = {
        let sd2 = schedule_all(&d);
        lower_design(
            &sd2.view(),
            &RtlOptions::baseline(),
            &HlsPredictedModel::new(),
        )
    };
    assert!(
        lowered.info.max_memory_fanout < direct.info.max_memory_fanout,
        "{} vs {}",
        lowered.info.max_memory_fanout,
        direct.info.max_memory_fanout
    );
}

/// Fig. 5b: parallel PE calls with static latencies.
fn parallel_pe_design(pes: usize) -> Design {
    let mut b = DesignBuilder::new("pes");
    let mut pe_ids = vec![];
    for p in 0..pes {
        let mut pe = b.kernel(format!("pe{p}"));
        pe.set_static_latency(4 + p as u64);
        let mut l = pe.pipelined_loop("body", 16, 1);
        let x = l.varying_input("x", DataType::Int(32));
        let c = l.constant("k", DataType::Int(32));
        let m = l.mul(x, c);
        l.output("y", m);
        l.finish();
        pe_ids.push(pe.finish());
    }
    let mut top = b.kernel("top");
    let mut l = top.sequential_loop("main", 64);
    let a = l.varying_input("a", DataType::Int(32));
    let mut outs = vec![];
    for &pid in &pe_ids {
        outs.push(l.call(pid, vec![a], DataType::Int(32)));
    }
    let mut acc = outs[0];
    for &o in &outs[1..] {
        acc = l.add(acc, o);
    }
    l.output("sum", acc);
    l.finish();
    top.finish();
    b.finish().expect("valid")
}

#[test]
fn call_sync_reduce_is_generated_and_pruned() {
    let d = parallel_pe_design(8);
    let sd = schedule_all(&d);
    let full = lower_design(
        &sd.view(),
        &RtlOptions::baseline(),
        &HlsPredictedModel::new(),
    );
    full.netlist.validate().expect("valid");
    assert_eq!(full.info.sync_inputs, 8);
    assert_eq!(full.info.sync_waited, 8);

    let pruned = lower_design(
        &sd.view(),
        &RtlOptions {
            control: ControlStyle::Stall,
            sync_pruning: true,
            crossing_slots: 0,
        },
        &HlsPredictedModel::new(),
    );
    assert_eq!(pruned.info.sync_inputs, 8);
    assert_eq!(pruned.info.sync_waited, 1, "only the slowest PE is waited");
}

#[test]
fn called_kernels_are_inlined_not_duplicated() {
    let d = parallel_pe_design(4);
    let sd = schedule_all(&d);
    let lowered = lower_design(
        &sd.view(),
        &RtlOptions::baseline(),
        &HlsPredictedModel::new(),
    );
    // 4 PEs, each with one multiplier: exactly 4 DSP-bearing cells.
    let dsp_cells = lowered
        .netlist
        .cells()
        .filter(|(_, c)| c.kind == CellKind::Dsp)
        .count();
    assert_eq!(dsp_cells, 4);
}

#[test]
fn lowered_netlists_have_no_comb_cycles() {
    for d in [stream_design(5), parallel_pe_design(3)] {
        let sd = schedule_all(&d);
        for opt in [RtlOptions::baseline(), RtlOptions::optimized()] {
            let lowered = lower_design(&sd.view(), &opt, &HlsPredictedModel::new());
            lowered.netlist.validate().expect("valid");
            assert!(lowered.netlist.comb_topo_order().is_some());
        }
    }
}

#[test]
fn unrolled_broadcast_appears_in_netlist() {
    let mut b = DesignBuilder::new("unrolled");
    let fin = b.fifo("in", DataType::Int(32), 2);
    let fout = b.fifo("out", DataType::Int(32), 2);
    let mut k = b.kernel("top");
    let mut l = k.pipelined_loop("body", 1024, 1);
    l.set_unroll(64);
    let src = l.invariant_input("source", DataType::Int(32));
    let x = l.fifo_read(fin, DataType::Int(32));
    let s = l.sub(x, src);
    l.fifo_write(fout, s);
    l.finish();
    k.finish();
    let d = b.finish().expect("valid");
    let sd = schedule_all(&d);
    let lowered = lower_design(
        &sd.view(),
        &RtlOptions::baseline(),
        &HlsPredictedModel::new(),
    );
    // The invariant source register drives a 64-way data broadcast net.
    let max_data_fanout = lowered
        .netlist
        .nets()
        .filter(|(_, n)| lowered.netlist.cell(n.driver).kind == CellKind::Ff)
        .map(|(_, n)| n.fanout())
        .max()
        .unwrap_or(0);
    assert!(max_data_fanout >= 64, "broadcast fanout {max_data_fanout}");
}

mod properties {
    use super::*;
    use hlsb_ir::{CmpPred, DesignBuilder};
    use hlsb_rng::Rng;

    /// A random straight-line streaming program.
    fn random_design(ops: &[u16]) -> Design {
        let mut b = DesignBuilder::new("prop");
        let fin = b.fifo("in", DataType::Int(32), 2);
        let fout = b.fifo("out", DataType::Int(32), 2);
        let arr = b.array("scratch", DataType::Int(32), 512, Partition::None);
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("main", 32, 1);
        let inv = l.invariant_input("inv", DataType::Int(32));
        let i = l.indvar("i");
        let x = l.fifo_read(fin, DataType::Int(32));
        let mut vals = vec![inv, i, x];
        for &op in ops {
            let a = vals[(op as usize / 13) % vals.len()];
            let c = vals[(op as usize / 3) % vals.len()];
            let v = match op % 9 {
                0 => l.add(a, c),
                1 => l.sub(a, c),
                2 => l.mul(a, c),
                3 => l.min(a, c),
                4 => l.reg(a),
                5 => {
                    let cond = l.cmp(CmpPred::Gt, a, c);
                    l.select(cond, a, c)
                }
                6 => l.load(arr, i, DataType::Int(32)),
                7 => {
                    l.store(arr, i, a);
                    a
                }
                _ => l.xor(a, c),
            };
            vals.push(v);
        }
        let last = *vals.last().expect("nonempty");
        l.fifo_write(fout, last);
        l.finish();
        k.finish();
        b.finish().expect("valid")
    }

    #[test]
    fn random_programs_lower_to_valid_netlists() {
        let mut rng = Rng::seed_from_u64(0x271_0001);
        for _ in 0..32 {
            let len = rng.gen_index(29) + 1;
            let ops: Vec<u16> = (0..len).map(|_| rng.gen_u64(0, 4999) as u16).collect();
            let skid = rng.gen_bool(0.5);
            let d = random_design(&ops);
            let sd = schedule_all(&d);
            let options = if skid {
                RtlOptions::optimized()
            } else {
                RtlOptions::baseline()
            };
            let lowered = lower_design(&sd.view(), &options, &HlsPredictedModel::new());
            assert!(lowered.netlist.validate().is_ok(), "ops {ops:?}");
            assert!(lowered.netlist.comb_topo_order().is_some(), "ops {ops:?}");
            // Resources are nonzero and sane.
            let stats = lowered.netlist.stats();
            assert!(stats.ffs > 0);
        }
    }
}
