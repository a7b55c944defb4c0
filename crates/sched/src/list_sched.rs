//! The ASAP list scheduler with operation chaining.

use crate::schedule::{Schedule, ScheduledOp};
use hlsb_delay::DelayModel;
use hlsb_ir::{Design, Loop, OpKind};

/// Fraction of the clock period available to logic (the rest is the HLS
/// "clock uncertainty" margin, as Vivado HLS reserves by default).
pub const CLOCK_MARGIN: f64 = 0.875;

/// Input setup budget a multi-cycle operator needs at its register
/// boundary, ns.
const INPUT_SETUP_NS: f64 = 0.15;

/// Output offset (clock-to-out) of a generic multi-cycle operator, ns.
const SEQ_OUT_NS: f64 = 0.12;

/// Output offset of a BRAM read (data appears after the clock edge), ns.
const BRAM_OUT_NS: f64 = 0.90;

/// Nominal latency assumed for a called kernel with dynamic latency.
const DYNAMIC_CALL_LATENCY: u32 = 8;

/// Per-operation interconnect allowance added when chaining (production
/// HLS delay tables include a local-net component per operator).
pub const CHAIN_NET_NS: f64 = 0.25;

/// The delay an operation contributes to an in-cycle chain: its logic
/// delay plus the local-net allowance (zero-delay structural ops stay
/// free).
pub fn chained_delay_ns(raw_delay: f64) -> f64 {
    if raw_delay > 0.0 {
        raw_delay + CHAIN_NET_NS
    } else {
        0.0
    }
}

/// Schedules one loop body with ASAP + chaining against `clock_ns`.
///
/// The scheduler behaves like a production HLS scheduler using the given
/// delay model at broadcast factor 1 — i.e. exactly the broadcast-blind
/// behaviour the paper criticizes when fed the predicted model. (The
/// broadcast-aware flow in [`crate::broadcast_aware()`] layers the calibrated
/// re-analysis on top.)
///
/// Chaining rule: an operation starts in the earliest cycle in which all
/// operands are available; if appending its delay to the in-cycle chain
/// would exceed `clock_ns * CLOCK_MARGIN`, it is pushed to the next cycle
/// (its operands are then read from registers).
pub fn schedule_loop(
    lp: &Loop,
    design: &Design,
    model: &impl DelayModel,
    clock_ns: f64,
) -> Schedule {
    let budget = clock_ns * CLOCK_MARGIN;
    let dfg = &lp.body;
    let mut ops: Vec<ScheduledOp> = Vec::with_capacity(dfg.len());
    let mut violations = Vec::new();

    for (id, inst) in dfg.iter() {
        let mut start = 0u32;
        let mut offset_in = 0.0f64;
        for &d in &inst.operands {
            let dep: &ScheduledOp = &ops[d.index()];
            let done = dep.done_cycle();
            match done.cmp(&start) {
                std::cmp::Ordering::Greater => {
                    start = done;
                    offset_in = dep.offset_ns;
                }
                std::cmp::Ordering::Equal => {
                    offset_in = offset_in.max(dep.offset_ns);
                }
                std::cmp::Ordering::Less => {}
            }
        }

        let delay = chained_delay_ns(model.delay_ns(inst.kind, inst.ty, 1));
        let latency = match inst.kind {
            OpKind::Call(callee) => design
                .kernel(callee)
                .static_latency
                .map_or(DYNAMIC_CALL_LATENCY, |l| l as u32)
                .max(1),
            _ => model.latency(inst.kind, inst.ty),
        };

        let (cycle, offset_out) = if latency == 0 {
            let mut cycle = start;
            let mut chain = offset_in;
            if chain > 0.0 && chain + delay > budget {
                cycle += 1;
                chain = 0.0;
            }
            if delay > budget {
                violations.push(id);
            }
            (cycle, chain + delay)
        } else {
            let mut cycle = start;
            if offset_in > 0.0 && offset_in + INPUT_SETUP_NS > budget {
                cycle += 1;
            }
            let out = if matches!(inst.kind, OpKind::Load(_)) {
                BRAM_OUT_NS
            } else {
                SEQ_OUT_NS
            };
            (cycle, out)
        };

        ops.push(ScheduledOp {
            cycle,
            latency,
            offset_ns: offset_out,
            est_delay_ns: delay,
        });
    }

    // ALAP sinking within the ASAP depth: every value-producing operation
    // is moved as close to its earliest consumer as register-transfer
    // semantics allow, exactly as production schedulers do to minimize
    // register pressure. A value that would otherwise be computed early
    // and carried through a long delay line (e.g. the per-lane products of
    // a MAC chain, or the late `c` vector of the paper's Fig. 17) is
    // instead produced one cycle before its first use. Operations whose
    // users chain off them in the same cycle are pinned. Processed in
    // reverse order — repeated to a fixpoint so whole dependence chains
    // (including side chains that re-join late consumers) sink together.
    for _pass in 0..6 {
        let mut changed = false;
        for idx in (0..dfg.len()).rev() {
            let id = hlsb_ir::InstId(idx as u32);
            let inst = dfg.inst(id);
            let users = dfg.users(id);
            if users.is_empty() || matches!(inst.kind, OpKind::Const) {
                continue;
            }
            let min_user = users.iter().map(|&u| ops[u.index()].cycle).min().unwrap();
            let op = ops[id.index()];
            // Free aliases and per-iteration port registers become
            // available in the cycle of first use; operations that end in
            // a register (latency >= 1) launch their value at the user's
            // cycle; combinational values conservatively land in a
            // transport register one cycle before use (so no new chains
            // appear behind the scheduler's back).
            let target_done = match inst.kind {
                OpKind::Repack | OpKind::Input { .. } | OpKind::IndVar => min_user,
                _ if op.latency >= 1 => min_user,
                _ => min_user.saturating_sub(1),
            };
            if target_done > op.done_cycle() {
                ops[id.index()].cycle += target_done - op.done_cycle();
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let depth = ops.iter().map(|o| o.done_cycle()).max().unwrap_or(0) + 1;
    // Achieved II: the pragma target, raised if an array's port demand
    // cannot be met (true dual-port BRAM: two accesses per cycle per
    // array). FIFOs are single-port streams: one pop and one push each.
    let mut array_accesses: std::collections::HashMap<u32, u32> = Default::default();
    for (_, inst) in dfg.iter() {
        if let OpKind::Load(a) | OpKind::Store(a) = inst.kind {
            *array_accesses.entry(a.0).or_default() += 1;
        }
    }
    let mem_ii = array_accesses
        .values()
        .map(|&n| n.div_ceil(2))
        .max()
        .unwrap_or(1)
        .max(1);
    let ii = lp.pipeline.map_or(depth, |p| p.ii.max(mem_ii));
    Schedule {
        ops,
        depth,
        ii,
        clock_ns,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_delay::HlsPredictedModel;
    use hlsb_ir::builder::DesignBuilder;
    use hlsb_ir::{DataType, InstId};

    /// Chain of n dependent int adds behind two inputs.
    fn add_chain(n: usize) -> (Design, Vec<InstId>) {
        let mut b = DesignBuilder::new("chain");
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("body", 16, 1);
        let a = l.varying_input("a", DataType::Int(32));
        let c = l.varying_input("c", DataType::Int(32));
        let mut ids = vec![];
        let mut cur = a;
        for _ in 0..n {
            cur = l.add(cur, c);
            ids.push(cur);
        }
        l.output("o", cur);
        l.finish();
        k.finish();
        (b.finish().expect("valid"), ids)
    }

    #[test]
    fn chains_until_budget_then_splits() {
        // budget = 3.33 * 0.875 = 2.91; adds cost 0.78 + 0.25 net = 1.03
        // each → two chain per cycle, the third splits.
        let (d, ids) = add_chain(7);
        let s = schedule_loop(&d.kernels[0].loops[0], &d, &HlsPredictedModel::new(), 3.33);
        assert!(s.violations.is_empty());
        let cycles: Vec<u32> = ids.iter().map(|&i| s.op(i).cycle).collect();
        assert_eq!(cycles, vec![0, 0, 1, 1, 2, 2, 3]);
        // Chain offsets accumulate within a cycle.
        assert!(s.op(ids[1]).offset_ns > s.op(ids[0]).offset_ns);
    }

    #[test]
    fn raw_dependencies_are_respected() {
        let (d, ids) = add_chain(10);
        let s = schedule_loop(&d.kernels[0].loops[0], &d, &HlsPredictedModel::new(), 3.33);
        let dfg = &d.kernels[0].loops[0].body;
        for (id, inst) in dfg.iter() {
            for &dep in &inst.operands {
                assert!(
                    s.op(dep).done_cycle() <= s.op(id).cycle,
                    "{dep} not ready before {id}"
                );
            }
        }
        let _ = ids;
    }

    #[test]
    fn reg_op_forces_cycle_split() {
        let mut b = DesignBuilder::new("reg");
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("body", 4, 1);
        let a = l.varying_input("a", DataType::Int(32));
        let c = l.varying_input("c", DataType::Int(32));
        let s1 = l.add(a, c);
        let r = l.reg(s1);
        let s2 = l.add(r, c);
        l.output("o", s2);
        l.finish();
        k.finish();
        let d = b.finish().expect("valid");
        let s = schedule_loop(&d.kernels[0].loops[0], &d, &HlsPredictedModel::new(), 10.0);
        // Even with a huge clock, the register forces s2 one cycle later.
        assert_eq!(s.op(s1).cycle, 0);
        assert_eq!(s.op(s2).cycle, s.op(s1).cycle + 1);
    }

    #[test]
    fn float_mul_is_multicycle() {
        let mut b = DesignBuilder::new("fm");
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("body", 4, 1);
        let a = l.varying_input("a", DataType::Float32);
        let c = l.varying_input("c", DataType::Float32);
        let m = l.mul(a, c);
        let n = l.add(m, c);
        l.output("o", n);
        l.finish();
        k.finish();
        let d = b.finish().expect("valid");
        let s = schedule_loop(&d.kernels[0].loops[0], &d, &HlsPredictedModel::new(), 3.33);
        assert_eq!(s.op(m).latency, 3);
        // The dependent fadd starts when the mul completes.
        assert_eq!(s.op(n).cycle, s.op(m).done_cycle());
        assert!(s.depth >= 8);
    }

    #[test]
    fn call_uses_static_latency() {
        let mut b = DesignBuilder::new("call");
        let mut pe = b.kernel("pe");
        pe.set_static_latency(5);
        {
            let mut l = pe.pipelined_loop("b", 1, 1);
            let x = l.varying_input("x", DataType::Int(32));
            l.output("y", x);
            l.finish();
        }
        let pe_id = pe.finish();
        let mut top = b.kernel("top");
        {
            let mut l = top.sequential_loop("main", 1);
            let a = l.varying_input("a", DataType::Int(32));
            let r = l.call(pe_id, vec![a], DataType::Int(32));
            l.output("o", r);
            l.finish();
        }
        top.finish();
        let d = b.finish().expect("valid");
        let s = schedule_loop(&d.kernels[1].loops[0], &d, &HlsPredictedModel::new(), 3.33);
        let call_id = InstId(1);
        assert_eq!(s.op(call_id).latency, 5);
    }

    #[test]
    fn oversized_single_op_is_a_violation() {
        let mut b = DesignBuilder::new("big");
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("body", 4, 1);
        let a = l.varying_input("a", DataType::Int(32));
        let c = l.varying_input("c", DataType::Int(32));
        let s1 = l.add(a, c);
        l.output("o", s1);
        l.finish();
        k.finish();
        let d = b.finish().expect("valid");
        // 0.5 ns clock: even one 0.78 ns add cannot fit.
        let s = schedule_loop(&d.kernels[0].loops[0], &d, &HlsPredictedModel::new(), 0.5);
        assert_eq!(s.violations, vec![s1]);
    }

    mod properties {
        use super::*;
        use hlsb_ir::Dfg;
        use hlsb_rng::Rng;

        /// Builds a random straight-line program; `ops[i]` selects both
        /// the operation and its operand indices.
        fn random_loop(ops: &[u16]) -> Design {
            let mut b = DesignBuilder::new("prop");
            let mut k = b.kernel("top");
            let mut l = k.pipelined_loop("body", 8, 1);
            let a = l.varying_input("a", DataType::Int(32));
            let c = l.invariant_input("c", DataType::Int(32));
            let mut vals = vec![a, c];
            for &op in ops {
                let x = vals[(op as usize / 11) % vals.len()];
                let y = vals[(op as usize / 5) % vals.len()];
                let v = match op % 6 {
                    0 => l.add(x, y),
                    1 => l.sub(x, y),
                    2 => l.mul(x, y),
                    3 => l.min(x, y),
                    4 => l.xor(x, y),
                    _ => l.reg(x),
                };
                vals.push(v);
            }
            let last = *vals.last().unwrap();
            l.output("o", last);
            l.finish();
            k.finish();
            b.finish().expect("valid")
        }

        fn check_schedule(dfg: &Dfg, s: &Schedule, budget: f64) {
            // RAW order.
            for (id, inst) in dfg.iter() {
                for &dep in &inst.operands {
                    assert!(
                        s.op(dep).done_cycle() <= s.op(id).cycle,
                        "{dep} not done before {id}"
                    );
                }
            }
            // Chain budget: recompute per-cycle arrival offsets.
            let mut arr = vec![0.0f64; dfg.len()];
            for (id, inst) in dfg.iter() {
                let op = s.op(id);
                if op.latency != 0 {
                    arr[id.index()] = op.offset_ns;
                    continue;
                }
                let in_off = inst
                    .operands
                    .iter()
                    .filter(|&&d| s.op(d).done_cycle() == op.cycle)
                    .map(|&d| arr[d.index()])
                    .fold(0.0f64, f64::max);
                arr[id.index()] = in_off + op.est_delay_ns;
                assert!(
                    arr[id.index()] <= budget + 1e-9,
                    "{id} chain {:.2} exceeds budget {budget:.2}",
                    arr[id.index()]
                );
            }
        }

        fn random_ops(rng: &mut Rng, min_len: usize, max_len: usize) -> Vec<u16> {
            let len = rng.gen_u64(min_len as u64, max_len as u64) as usize;
            (0..len).map(|_| rng.gen_u64(0, 3999) as u16).collect()
        }

        #[test]
        fn schedules_respect_deps_and_budget() {
            let mut rng = Rng::seed_from_u64(0x5CED_0001);
            for _ in 0..64 {
                let ops = random_ops(&mut rng, 0, 39);
                let clock = 2.0 + rng.gen_f64() * 6.0;
                let d = random_loop(&ops);
                let lp = &d.kernels[0].loops[0];
                let s = schedule_loop(lp, &d, &HlsPredictedModel::new(), clock);
                check_schedule(&lp.body, &s, clock * CLOCK_MARGIN);
                assert!(s.depth >= 1);
                assert_eq!(s.ii, 1);
            }
        }

        /// The register insert as a rebuild: every instruction cloned
        /// and re-pushed, so use lists come out in definition order.
        fn rebuild_with_regs(dfg: &Dfg, defs: &[InstId]) -> (Dfg, Vec<InstId>, Vec<InstId>) {
            let mut out = Dfg::new();
            let mut map: Vec<InstId> = Vec::new();
            let mut reg_of: Vec<Option<InstId>> = vec![None; dfg.len()];
            for (id, inst) in dfg.iter() {
                let mut cl = inst.clone();
                for op in &mut cl.operands {
                    *op = reg_of[op.index()].unwrap_or(map[op.index()]);
                }
                let new_id = out.push_inst(cl);
                map.push(new_id);
                if defs.contains(&id) {
                    let reg_name = format!("{}_reg", inst.name);
                    reg_of[id.index()] =
                        Some(out.push_named(OpKind::Reg, inst.ty, vec![new_id], reg_name));
                }
            }
            let regs = defs.iter().map(|d| reg_of[d.index()].unwrap()).collect();
            (out, regs, map)
        }

        #[test]
        fn consuming_register_insert_equals_a_rebuild() {
            let mut rng = Rng::seed_from_u64(0x5CED_0003);
            for case in 0..64 {
                let ops = random_ops(&mut rng, 1, 39);
                let d = random_loop(&ops);
                let mut dfg = d.kernels[0].loops[0].body.clone();
                let n = dfg.len() as u64;
                // Every other case, rewire a few operands so that some use
                // lists leave definition order.
                if case % 2 == 1 {
                    for _ in 0..4 {
                        let user = InstId(rng.gen_u64(1, n - 1) as u32);
                        if dfg.inst(user).operands.is_empty() {
                            continue;
                        }
                        let def = InstId(rng.gen_u64(0, u64::from(user.0) - 1) as u32);
                        dfg.replace_operand(user, 0, def);
                    }
                }
                let defs: Vec<InstId> = (0..rng.gen_u64(0, 6))
                    .map(|_| InstId(rng.gen_u64(0, n - 1) as u32))
                    .collect();
                let want = rebuild_with_regs(&dfg, &defs);
                assert_eq!(
                    dfg.insert_regs_after(&defs),
                    want,
                    "ops {ops:?} defs {defs:?}"
                );
            }
        }

        #[test]
        fn alap_sinking_never_extends_depth() {
            let mut rng = Rng::seed_from_u64(0x5CED_0002);
            for _ in 0..64 {
                let ops = random_ops(&mut rng, 1, 39);
                let d = random_loop(&ops);
                let lp = &d.kernels[0].loops[0];
                let s = schedule_loop(lp, &d, &HlsPredictedModel::new(), 3.33);
                // Every op still finishes within the reported depth.
                for id in lp.body.ids() {
                    assert!(s.op(id).done_cycle() < s.depth, "ops {ops:?}");
                }
            }
        }
    }

    #[test]
    fn memory_port_pressure_raises_ii() {
        let mut b = DesignBuilder::new("ports");
        let arr = b.array("buf", DataType::Int(32), 1024, hlsb_ir::Partition::None);
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("body", 64, 1);
        let i = l.indvar("i");
        // Five accesses to one dual-port array: II must rise to 3.
        let v0 = l.load(arr, i, DataType::Int(32));
        let v1 = l.load(arr, i, DataType::Int(32));
        let v2 = l.load(arr, i, DataType::Int(32));
        let s1 = l.add(v0, v1);
        let s2 = l.add(s1, v2);
        l.store(arr, i, s2);
        let v3 = l.load(arr, i, DataType::Int(32));
        l.output("o", v3);
        l.finish();
        k.finish();
        let d = b.finish().expect("valid");
        let s = schedule_loop(&d.kernels[0].loops[0], &d, &HlsPredictedModel::new(), 3.33);
        assert_eq!(s.ii, 3, "5 accesses / 2 ports = II 3");
    }

    #[test]
    fn depth_counts_cycles() {
        let (d, _) = add_chain(1);
        let s = schedule_loop(&d.kernels[0].loops[0], &d, &HlsPredictedModel::new(), 3.33);
        assert_eq!(s.depth, 1);
        assert_eq!(s.ii, 1);
    }
}
