//! Fluent construction API — the stand-in for the C++/OpenCL front-end.
//!
//! The builder enforces the same structure as HLS source code: a design owns
//! kernels, arrays and FIFOs; kernels own loops; loops own instructions.
//!
//! # Example
//!
//! The paper's Figure 1 (loop-unrolling data broadcast):
//!
//! ```
//! use hlsb_ir::builder::DesignBuilder;
//! use hlsb_ir::types::DataType;
//!
//! # fn main() -> Result<(), hlsb_ir::IrError> {
//! let mut b = DesignBuilder::new("fig1");
//! let mut k = b.kernel("top");
//! let mut l = k.pipelined_loop("compute", 1024, 1);
//! l.set_unroll(1024);
//! let source = l.invariant_input("source", DataType::Int(32));
//! let foo = l.varying_input("foo", DataType::Int(32));
//! let bar = l.varying_input("bar", DataType::Int(32));
//! let t = l.add(source, foo);      // `source + foo`
//! let r = l.sub(t, bar);           // `... - bar`
//! l.output("result", r);
//! l.finish();
//! k.finish();
//! let design = b.finish()?;
//! assert_eq!(design.kernels[0].loops[0].unroll, 1024);
//! # Ok(())
//! # }
//! ```

use crate::design::{Array, ArrayId, Concurrency, Design, Fifo, FifoId, Kernel, KernelId, Loop};
use crate::dfg::{Dfg, InstId};
use crate::op::{CmpPred, OpKind};
use crate::pragma::{Partition, PipelinePragma};
use crate::types::DataType;
use crate::verify::{verify_design, IrError};

/// Builds a [`Design`]. Entry point of the front-end API.
#[derive(Debug)]
pub struct DesignBuilder {
    design: Design,
}

impl DesignBuilder {
    /// Starts a new design.
    pub fn new(name: impl Into<String>) -> Self {
        DesignBuilder {
            design: Design::new(name),
        }
    }

    /// Declares an on-chip array and returns its id.
    pub fn array(
        &mut self,
        name: impl Into<String>,
        elem: DataType,
        len: usize,
        partition: Partition,
    ) -> ArrayId {
        let id = ArrayId(self.design.arrays.len() as u32);
        self.design.arrays.push(Array {
            name: name.into(),
            elem,
            len,
            partition,
        });
        id
    }

    /// Declares a FIFO channel and returns its id.
    pub fn fifo(&mut self, name: impl Into<String>, elem: DataType, depth: usize) -> FifoId {
        let id = FifoId(self.design.fifos.len() as u32);
        self.design.fifos.push(Fifo {
            name: name.into(),
            elem,
            depth,
        });
        id
    }

    /// Opens a kernel builder. Call [`KernelBuilder::finish`] to commit it.
    pub fn kernel(&mut self, name: impl Into<String>) -> KernelBuilder<'_> {
        KernelBuilder {
            parent: self,
            kernel: Kernel {
                name: name.into(),
                loops: Vec::new(),
                static_latency: None,
            },
        }
    }

    /// Marks the design as a `#pragma HLS dataflow` region: kernels execute
    /// concurrently, connected by FIFOs.
    pub fn dataflow(&mut self) -> &mut Self {
        self.design.concurrency = Concurrency::Dataflow;
        self
    }

    /// Id the next call to [`DesignBuilder::kernel`]'s `finish` will receive.
    pub fn next_kernel_id(&self) -> KernelId {
        KernelId(self.design.kernels.len() as u32)
    }

    /// Verifies and returns the finished design.
    ///
    /// # Errors
    ///
    /// Returns an [`IrError`] if the design violates IR invariants (see
    /// [`crate::verify`]).
    pub fn finish(self) -> Result<Design, IrError> {
        verify_design(&self.design)?;
        Ok(self.design)
    }

    /// Returns the design without verification (for deliberately invalid
    /// test inputs).
    pub fn finish_unverified(self) -> Design {
        self.design
    }
}

/// Builds one [`Kernel`] inside a design.
#[derive(Debug)]
pub struct KernelBuilder<'a> {
    parent: &'a mut DesignBuilder,
    kernel: Kernel,
}

impl<'a> KernelBuilder<'a> {
    /// Declares the kernel's statically known latency (for leaf PEs used via
    /// [`LoopBuilder::call`]; enables the paper's §4.2 sync pruning).
    pub fn set_static_latency(&mut self, cycles: u64) -> &mut Self {
        self.kernel.static_latency = Some(cycles);
        self
    }

    /// Opens a pipelined loop with the given trip count and II target.
    pub fn pipelined_loop(
        &mut self,
        name: impl Into<String>,
        trip_count: u64,
        ii: u32,
    ) -> LoopBuilder<'_, 'a> {
        LoopBuilder {
            parent: self,
            lp: Loop {
                name: name.into(),
                trip_count,
                unroll: 1,
                pipeline: Some(PipelinePragma { ii }),
                body: Dfg::new(),
            },
        }
    }

    /// Opens an unpipelined loop.
    pub fn sequential_loop(
        &mut self,
        name: impl Into<String>,
        trip_count: u64,
    ) -> LoopBuilder<'_, 'a> {
        LoopBuilder {
            parent: self,
            lp: Loop {
                name: name.into(),
                trip_count,
                unroll: 1,
                pipeline: None,
                body: Dfg::new(),
            },
        }
    }

    /// Commits the kernel to the design and returns its id.
    pub fn finish(self) -> KernelId {
        let id = KernelId(self.parent.design.kernels.len() as u32);
        self.parent.design.kernels.push(self.kernel);
        id
    }
}

/// Builds one [`Loop`] body. All instruction-creation helpers return the
/// new value's [`InstId`].
#[derive(Debug)]
pub struct LoopBuilder<'k, 'a> {
    parent: &'k mut KernelBuilder<'a>,
    lp: Loop,
}

impl<'k, 'a> LoopBuilder<'k, 'a> {
    /// Sets the unroll factor (`#pragma HLS unroll factor=<n>`).
    pub fn set_unroll(&mut self, factor: u32) -> &mut Self {
        self.lp.unroll = factor.max(1);
        self
    }

    /// A loop-invariant input (broadcast source after unrolling).
    pub fn invariant_input(&mut self, name: &str, ty: DataType) -> InstId {
        self.lp
            .body
            .push_named(OpKind::Input { invariant: true }, ty, vec![], name)
    }

    /// A per-iteration (varying) input.
    pub fn varying_input(&mut self, name: &str, ty: DataType) -> InstId {
        self.lp
            .body
            .push_named(OpKind::Input { invariant: false }, ty, vec![], name)
    }

    /// The loop induction variable.
    pub fn indvar(&mut self, name: &str) -> InstId {
        self.lp
            .body
            .push_named(OpKind::IndVar, DataType::Int(32), vec![], name)
    }

    /// A constant.
    pub fn constant(&mut self, name: &str, ty: DataType) -> InstId {
        self.lp.body.push_named(OpKind::Const, ty, vec![], name)
    }

    /// Binary op helper: result type = type of `a`.
    fn bin(&mut self, kind: OpKind, a: InstId, b: InstId) -> InstId {
        let ty = self.lp.body.inst(a).ty;
        self.lp.body.push(kind, ty, vec![a, b])
    }

    /// `a + b`.
    pub fn add(&mut self, a: InstId, b: InstId) -> InstId {
        self.bin(OpKind::Add, a, b)
    }

    /// `a - b`.
    pub fn sub(&mut self, a: InstId, b: InstId) -> InstId {
        self.bin(OpKind::Sub, a, b)
    }

    /// `a * b`.
    pub fn mul(&mut self, a: InstId, b: InstId) -> InstId {
        self.bin(OpKind::Mul, a, b)
    }

    /// `a / b`.
    pub fn div(&mut self, a: InstId, b: InstId) -> InstId {
        self.bin(OpKind::Div, a, b)
    }

    /// Bitwise `a & b`.
    pub fn and(&mut self, a: InstId, b: InstId) -> InstId {
        self.bin(OpKind::And, a, b)
    }

    /// Bitwise `a | b`.
    pub fn or(&mut self, a: InstId, b: InstId) -> InstId {
        self.bin(OpKind::Or, a, b)
    }

    /// Bitwise `a ^ b`.
    pub fn xor(&mut self, a: InstId, b: InstId) -> InstId {
        self.bin(OpKind::Xor, a, b)
    }

    /// `a << b`.
    pub fn shl(&mut self, a: InstId, b: InstId) -> InstId {
        self.bin(OpKind::Shl, a, b)
    }

    /// `a >> b`.
    pub fn shr(&mut self, a: InstId, b: InstId) -> InstId {
        self.bin(OpKind::Shr, a, b)
    }

    /// `min(a, b)`.
    pub fn min(&mut self, a: InstId, b: InstId) -> InstId {
        self.bin(OpKind::Min, a, b)
    }

    /// `max(a, b)`.
    pub fn max(&mut self, a: InstId, b: InstId) -> InstId {
        self.bin(OpKind::Max, a, b)
    }

    /// Comparison `a <pred> b` producing a boolean.
    pub fn cmp(&mut self, pred: CmpPred, a: InstId, b: InstId) -> InstId {
        self.lp
            .body
            .push(OpKind::Cmp(pred), DataType::Bool, vec![a, b])
    }

    /// `cond ? a : b`.
    pub fn select(&mut self, cond: InstId, a: InstId, b: InstId) -> InstId {
        let ty = self.lp.body.inst(a).ty;
        self.lp.body.push(OpKind::Select, ty, vec![cond, a, b])
    }

    /// `log2(a)` (the "series of if-else" of the paper's Fig. 13).
    pub fn log2(&mut self, a: InstId) -> InstId {
        let ty = self.lp.body.inst(a).ty;
        self.lp.body.push(OpKind::Log2, ty, vec![a])
    }

    /// `|a|`.
    pub fn abs(&mut self, a: InstId) -> InstId {
        let ty = self.lp.body.inst(a).ty;
        self.lp.body.push(OpKind::Abs, ty, vec![a])
    }

    /// `array[idx]`.
    pub fn load(&mut self, array: ArrayId, idx: InstId, ty: DataType) -> InstId {
        self.lp.body.push(OpKind::Load(array), ty, vec![idx])
    }

    /// `array[idx] = value`.
    pub fn store(&mut self, array: ArrayId, idx: InstId, value: InstId) -> InstId {
        let ty = self.lp.body.inst(value).ty;
        self.lp
            .body
            .push(OpKind::Store(array), ty, vec![idx, value])
    }

    /// Blocking read from a FIFO.
    pub fn fifo_read(&mut self, fifo: FifoId, ty: DataType) -> InstId {
        self.lp.body.push(OpKind::FifoRead(fifo), ty, vec![])
    }

    /// Blocking write to a FIFO.
    pub fn fifo_write(&mut self, fifo: FifoId, value: InstId) -> InstId {
        let ty = self.lp.body.inst(value).ty;
        self.lp.body.push(OpKind::FifoWrite(fifo), ty, vec![value])
    }

    /// An explicit register module (forces a cycle boundary, §4.1).
    pub fn reg(&mut self, value: InstId) -> InstId {
        let ty = self.lp.body.inst(value).ty;
        self.lp.body.push(OpKind::Reg, ty, vec![value])
    }

    /// Bit repack (split/concat); type of the result is `ty`.
    pub fn repack(&mut self, value: InstId, ty: DataType) -> InstId {
        self.lp.body.push(OpKind::Repack, ty, vec![value])
    }

    /// Invokes another kernel as a parallel PE (Fig. 5b).
    pub fn call(&mut self, callee: KernelId, args: Vec<InstId>, ret: DataType) -> InstId {
        self.lp.body.push(OpKind::Call(callee), ret, args)
    }

    /// Marks a value as a loop output.
    pub fn output(&mut self, name: &str, value: InstId) -> InstId {
        let ty = self.lp.body.inst(value).ty;
        self.lp
            .body
            .push_named(OpKind::Output, ty, vec![value], name)
    }

    /// Commits the loop to the kernel.
    pub fn finish(self) {
        self.parent.kernel.loops.push(self.lp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_multi_loop_kernel() {
        let mut b = DesignBuilder::new("two_loops");
        let arr = b.array("buf", DataType::Int(32), 4096, Partition::None);
        let inf = b.fifo("in", DataType::Int(32), 2);
        let mut k = b.kernel("top");
        {
            let mut l1 = k.pipelined_loop("fill", 4096, 1);
            let i = l1.indvar("i");
            let v = l1.fifo_read(inf, DataType::Int(32));
            l1.store(arr, i, v);
            l1.finish();
        }
        {
            let mut l2 = k.pipelined_loop("drain", 4096, 1);
            let i = l2.indvar("i");
            let v = l2.load(arr, i, DataType::Int(32));
            l2.output("out", v);
            l2.finish();
        }
        k.finish();
        let d = b.finish().expect("valid design");
        assert_eq!(d.kernels[0].loops.len(), 2);
        assert_eq!(d.kernels[0].loops[0].body.len(), 3);
        assert!(d.kernels[0].loops[0].is_pipelined());
    }

    #[test]
    fn dataflow_flag_sticks() {
        let mut b = DesignBuilder::new("df");
        b.dataflow();
        let d = b.finish().expect("valid");
        assert_eq!(d.concurrency, Concurrency::Dataflow);
    }

    #[test]
    fn call_records_kernel_id() {
        let mut b = DesignBuilder::new("pe");
        let mut pe = b.kernel("pe1");
        {
            let mut l = pe.pipelined_loop("body", 1, 1);
            let x = l.varying_input("x", DataType::Int(32));
            l.output("y", x);
            l.finish();
        }
        pe.set_static_latency(5);
        let pe_id = pe.finish();

        let mut top = b.kernel("top");
        {
            let mut l = top.sequential_loop("main", 1);
            let a = l.varying_input("a", DataType::Int(32));
            let r = l.call(pe_id, vec![a], DataType::Int(32));
            l.output("out", r);
            l.finish();
        }
        top.finish();
        let d = b.finish().expect("valid");
        assert_eq!(d.kernels[0].static_latency, Some(5));
        let body = &d.kernels[1].loops[0].body;
        let call = body
            .iter()
            .find(|(_, i)| matches!(i.kind, OpKind::Call(_)))
            .expect("call present");
        assert!(matches!(call.1.kind, OpKind::Call(k) if k == pe_id));
    }
}
