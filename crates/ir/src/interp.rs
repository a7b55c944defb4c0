//! A reference interpreter for loop bodies.
//!
//! Executes a [`Loop`] iteration by iteration over 64-bit integer values
//! (floating-point types are interpreted with the same integer semantics —
//! the interpreter exists to check that *transformations preserve
//! behaviour*, not to model IEEE arithmetic). Used by the test suites to
//! prove that unrolling, register insertion, dead-code elimination and
//! dataflow splitting never change a design's observable outputs.
//!
//! # Example
//!
//! ```
//! use hlsb_ir::builder::DesignBuilder;
//! use hlsb_ir::interp::{Interpreter, LoopIo};
//! use hlsb_ir::types::DataType;
//!
//! # fn main() -> Result<(), hlsb_ir::IrError> {
//! let mut b = DesignBuilder::new("double");
//! let fin = b.fifo("in", DataType::Int(32), 2);
//! let fout = b.fifo("out", DataType::Int(32), 2);
//! let mut k = b.kernel("top");
//! let mut l = k.pipelined_loop("main", 4, 1);
//! let x = l.fifo_read(fin, DataType::Int(32));
//! let y = l.add(x, x);
//! l.fifo_write(fout, y);
//! l.finish();
//! k.finish();
//! let d = b.finish()?;
//!
//! let mut io = LoopIo::default();
//! io.fifo_inputs.insert(fin, vec![1, 2, 3, 4]);
//! let interp = Interpreter::new(&d);
//! interp.run_loop(&d.kernels[0].loops[0], 4, &mut io);
//! assert_eq!(io.fifo_outputs[&fout], vec![2, 4, 6, 8]);
//! # Ok(())
//! # }
//! ```

use crate::design::{ArrayId, Design, FifoId, Loop};
use crate::op::{CmpPred, OpKind};
use std::collections::HashMap;

/// Input/output state threaded through an interpretation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopIo {
    /// Values popped by `fifo.read`, per FIFO, in order. Exhausted streams
    /// yield 0.
    pub fifo_inputs: HashMap<FifoId, Vec<i64>>,
    /// Read cursors into `fifo_inputs`.
    pub fifo_cursors: HashMap<FifoId, usize>,
    /// Values pushed by `fifo.write`, per FIFO, in order.
    pub fifo_outputs: HashMap<FifoId, Vec<i64>>,
    /// Loop-invariant input values by instruction name (default 0).
    pub invariants: HashMap<String, i64>,
    /// Varying input values by instruction name, per iteration (cycled;
    /// default: the iteration index).
    pub varying: HashMap<String, Vec<i64>>,
    /// Constant values by instruction name (default 1).
    pub constants: HashMap<String, i64>,
    /// `output` values recorded per iteration, by instruction name.
    pub outputs: HashMap<String, Vec<i64>>,
    /// Array contents (created on first access, zero-initialized).
    pub arrays: HashMap<ArrayId, Vec<i64>>,
}

/// The reference interpreter for a design's loops.
#[derive(Debug, Clone)]
pub struct Interpreter<'a> {
    design: &'a Design,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter over a design.
    pub fn new(design: &'a Design) -> Self {
        Interpreter { design }
    }

    /// Runs `iters` iterations of a loop, reading and writing `io`.
    ///
    /// # Panics
    ///
    /// Panics if the loop references entities missing from the design
    /// (verify the design first).
    pub fn run_loop(&self, lp: &Loop, iters: u64, io: &mut LoopIo) {
        for it in 0..iters {
            self.run_iteration(lp, it, io);
        }
    }

    /// Runs a single iteration of a loop at the given iteration index.
    ///
    /// [`run_loop`](Interpreter::run_loop) is `run_iteration` over
    /// `0..iters`; cycle-accurate simulators call this directly so the
    /// *timing* of an iteration (issue cycle, stalls) can be modelled
    /// separately from its *values*, while both backends share one
    /// evaluation code path.
    ///
    /// # Panics
    ///
    /// Panics if the loop references entities missing from the design.
    pub fn run_iteration(&self, lp: &Loop, iteration: u64, io: &mut LoopIo) {
        let dfg = &lp.body;
        let mut values: Vec<i64> = Vec::with_capacity(dfg.len());
        for (id, inst) in dfg.iter() {
            let arg = |slot: usize, values: &[i64]| values[inst.operands[slot].index()];
            let v: i64 = match inst.kind {
                OpKind::Const => io.constants.get(&inst.name).copied().unwrap_or(1),
                OpKind::Input { invariant: true } => {
                    io.invariants.get(&inst.name).copied().unwrap_or(0)
                }
                OpKind::Input { invariant: false } => match io.varying.get(&inst.name) {
                    Some(stream) if !stream.is_empty() => {
                        stream[(iteration as usize) % stream.len()]
                    }
                    _ => iteration as i64,
                },
                OpKind::IndVar => iteration as i64,
                OpKind::Add => arg(0, &values).wrapping_add(arg(1, &values)),
                OpKind::Sub => arg(0, &values).wrapping_sub(arg(1, &values)),
                OpKind::Mul => arg(0, &values).wrapping_mul(arg(1, &values)),
                OpKind::Div => {
                    let d = arg(1, &values);
                    if d == 0 {
                        0
                    } else {
                        arg(0, &values).wrapping_div(d)
                    }
                }
                OpKind::And => arg(0, &values) & arg(1, &values),
                OpKind::Or => arg(0, &values) | arg(1, &values),
                OpKind::Xor => arg(0, &values) ^ arg(1, &values),
                OpKind::Not => !arg(0, &values),
                OpKind::Shl => arg(0, &values).wrapping_shl(arg(1, &values) as u32 & 63),
                OpKind::Shr => arg(0, &values).wrapping_shr(arg(1, &values) as u32 & 63),
                OpKind::Cmp(pred) => {
                    let (a, b) = (arg(0, &values), arg(1, &values));
                    i64::from(match pred {
                        CmpPred::Eq => a == b,
                        CmpPred::Ne => a != b,
                        CmpPred::Lt => a < b,
                        CmpPred::Le => a <= b,
                        CmpPred::Gt => a > b,
                        CmpPred::Ge => a >= b,
                    })
                }
                OpKind::Select => {
                    if arg(0, &values) != 0 {
                        arg(1, &values)
                    } else {
                        arg(2, &values)
                    }
                }
                OpKind::Log2 => {
                    let x = arg(0, &values).unsigned_abs().max(1);
                    i64::from(63 - x.leading_zeros() as i64 as i32)
                }
                OpKind::Abs => arg(0, &values).wrapping_abs(),
                OpKind::Min => arg(0, &values).min(arg(1, &values)),
                OpKind::Max => arg(0, &values).max(arg(1, &values)),
                OpKind::Load(aid) => {
                    let len = self.design.array(aid).len.max(1);
                    let arr = io.arrays.entry(aid).or_insert_with(|| vec![0; len]);
                    let idx = arg(0, &values).rem_euclid(len as i64) as usize;
                    arr[idx]
                }
                OpKind::Store(aid) => {
                    let len = self.design.array(aid).len.max(1);
                    let idx = arg(0, &values).rem_euclid(len as i64) as usize;
                    let val = arg(1, &values);
                    let arr = io.arrays.entry(aid).or_insert_with(|| vec![0; len]);
                    arr[idx] = val;
                    val
                }
                OpKind::FifoRead(fid) => {
                    let cursor = io.fifo_cursors.entry(fid).or_insert(0);
                    let v = io
                        .fifo_inputs
                        .get(&fid)
                        .and_then(|s| s.get(*cursor))
                        .copied()
                        .unwrap_or(0);
                    *cursor += 1;
                    v
                }
                OpKind::FifoWrite(fid) => {
                    let v = arg(0, &values);
                    io.fifo_outputs.entry(fid).or_default().push(v);
                    v
                }
                OpKind::Reg | OpKind::Repack => arg(0, &values),
                OpKind::Output => {
                    let v = arg(0, &values);
                    io.outputs.entry(inst.name.clone()).or_default().push(v);
                    v
                }
                OpKind::Call(callee) => {
                    // One activation of the PE: bind operand values to its
                    // varying inputs positionally, run its loops for one
                    // iteration, return the last output.
                    let kernel = self.design.kernel(callee);
                    let mut sub_io = LoopIo {
                        invariants: io.invariants.clone(),
                        constants: io.constants.clone(),
                        ..LoopIo::default()
                    };
                    let mut result = 0i64;
                    for sub in &kernel.loops {
                        // Positional binding of call args to varying inputs.
                        let mut arg_idx = 0usize;
                        for (_, si) in sub.body.iter() {
                            if matches!(si.kind, OpKind::Input { .. } | OpKind::IndVar) {
                                if let Some(&op) = inst.operands.get(arg_idx) {
                                    sub_io
                                        .varying
                                        .insert(si.name.clone(), vec![values[op.index()]]);
                                    if !si.name.is_empty() {
                                        sub_io
                                            .invariants
                                            .insert(si.name.clone(), values[op.index()]);
                                    }
                                }
                                arg_idx += 1;
                            }
                        }
                        self.run_loop(sub, 1, &mut sub_io);
                        if let Some(last) = sub_io.outputs.values().filter_map(|v| v.last()).last()
                        {
                            result = *last;
                        }
                    }
                    result
                }
            };
            values.push(v);
            let _ = id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DesignBuilder;
    use crate::types::DataType;
    use crate::unroll::unroll_loop;

    fn io_with(fin: FifoId, data: Vec<i64>) -> LoopIo {
        let mut io = LoopIo::default();
        io.fifo_inputs.insert(fin, data);
        io
    }

    #[test]
    fn arithmetic_and_select() {
        let mut b = DesignBuilder::new("t");
        let fin = b.fifo("in", DataType::Int(32), 2);
        let fout = b.fifo("out", DataType::Int(32), 2);
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("main", 4, 1);
        let x = l.fifo_read(fin, DataType::Int(32));
        let thr = l.constant("thr", DataType::Int(32));
        let c = l.cmp(crate::CmpPred::Gt, x, thr);
        let neg = l.sub(thr, x);
        let sel = l.select(c, x, neg);
        l.fifo_write(fout, sel);
        l.finish();
        k.finish();
        let d = b.finish().unwrap();

        let mut io = io_with(fin, vec![5, 0, 2, -3]);
        io.constants.insert("thr".into(), 1);
        Interpreter::new(&d).run_loop(&d.kernels[0].loops[0], 4, &mut io);
        // x > 1 ? x : (1 - x)
        assert_eq!(io.fifo_outputs[&fout], vec![5, 1, 2, 4]);
    }

    #[test]
    fn stores_then_loads_round_trip() {
        let mut b = DesignBuilder::new("mem");
        let arr = b.array("buf", DataType::Int(32), 8, crate::Partition::None);
        let fin = b.fifo("in", DataType::Int(32), 2);
        let fout = b.fifo("out", DataType::Int(32), 2);
        let mut k = b.kernel("top");
        {
            let mut l = k.pipelined_loop("fill", 8, 1);
            let i = l.indvar("i");
            let v = l.fifo_read(fin, DataType::Int(32));
            l.store(arr, i, v);
            l.finish();
        }
        {
            let mut l = k.pipelined_loop("drain", 8, 1);
            let i = l.indvar("i");
            let v = l.load(arr, i, DataType::Int(32));
            l.fifo_write(fout, v);
            l.finish();
        }
        k.finish();
        let d = b.finish().unwrap();

        let data: Vec<i64> = (10..18).collect();
        let mut io = io_with(fin, data.clone());
        let interp = Interpreter::new(&d);
        for lp in &d.kernels[0].loops {
            interp.run_loop(lp, 8, &mut io);
        }
        assert_eq!(io.fifo_outputs[&fout], data);
    }

    #[test]
    fn reg_insertion_preserves_behaviour() {
        let mut b = DesignBuilder::new("t");
        let fin = b.fifo("in", DataType::Int(32), 2);
        let fout = b.fifo("out", DataType::Int(32), 2);
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("main", 16, 1);
        let src = l.invariant_input("src", DataType::Int(32));
        let x = l.fifo_read(fin, DataType::Int(32));
        let dsub = l.sub(x, src);
        let m = l.abs(dsub);
        let r = l.min(m, x);
        l.fifo_write(fout, r);
        l.finish();
        k.finish();
        let d = b.finish().unwrap();
        let lp = &d.kernels[0].loops[0];

        let run = |lp: &Loop| {
            let mut io = io_with(fin, (0..16).map(|i| i * 3 - 7).collect());
            io.invariants.insert("src".into(), 11);
            Interpreter::new(&d).run_loop(lp, 16, &mut io);
            io.fifo_outputs[&fout].clone()
        };
        let base = run(lp);
        // Insert a register after the broadcast source, as §4.1 does.
        let (body, _, _) = lp.body.insert_reg_after(crate::InstId(0));
        let fixed = Loop { body, ..lp.clone() };
        assert_eq!(run(&fixed), base);
    }

    #[test]
    fn unrolling_preserves_stream_semantics() {
        // u iterations of the rolled loop == 1 iteration of the u-unrolled
        // loop over the same stream.
        let build = |unroll: u32| {
            let mut b = DesignBuilder::new("t");
            let fin = b.fifo("in", DataType::Int(32), 2);
            let fout = b.fifo("out", DataType::Int(32), 2);
            let mut k = b.kernel("top");
            let mut l = k.pipelined_loop("main", 8, 1);
            l.set_unroll(unroll);
            let c = l.constant("c", DataType::Int(32));
            let x = l.fifo_read(fin, DataType::Int(32));
            let y = l.mul(x, c);
            let z = l.add(y, c);
            l.fifo_write(fout, z);
            l.finish();
            k.finish();
            (b.finish().unwrap(), fin, fout)
        };

        let (rolled, fin_r, fout_r) = build(1);
        let mut io_r = io_with(fin_r, (1..=8).collect());
        io_r.constants.insert("c".into(), 5);
        Interpreter::new(&rolled).run_loop(&rolled.kernels[0].loops[0], 8, &mut io_r);

        let (with_pragma, fin_u, fout_u) = build(8);
        let unrolled = unroll_loop(&with_pragma.kernels[0].loops[0]).looop;
        let mut io_u = io_with(fin_u, (1..=8).collect());
        io_u.constants.insert("c".into(), 5);
        Interpreter::new(&with_pragma).run_loop(&unrolled, 1, &mut io_u);

        assert_eq!(io_r.fifo_outputs[&fout_r], io_u.fifo_outputs[&fout_u]);
    }

    #[test]
    fn dce_preserves_behaviour() {
        let mut b = DesignBuilder::new("t");
        let fin = b.fifo("in", DataType::Int(32), 2);
        let fout = b.fifo("out", DataType::Int(32), 2);
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("main", 8, 1);
        let x = l.fifo_read(fin, DataType::Int(32));
        let live = l.add(x, x);
        let dead = l.mul(x, x);
        let _dead2 = l.shl(dead, x);
        l.fifo_write(fout, live);
        l.finish();
        k.finish();
        let d = b.finish().unwrap();
        let lp = &d.kernels[0].loops[0];

        let run = |lp: &Loop| {
            let mut io = io_with(fin, (0..8).collect());
            Interpreter::new(&d).run_loop(lp, 8, &mut io);
            io.fifo_outputs[&fout].clone()
        };
        let base = run(lp);
        let (body, _) = lp.body.eliminate_dead();
        assert!(body.len() < lp.body.len());
        let cleaned = Loop { body, ..lp.clone() };
        assert_eq!(run(&cleaned), base);
    }
}
