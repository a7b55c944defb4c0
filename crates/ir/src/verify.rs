//! IR validation.

use crate::design::Design;
use crate::dfg::{Dfg, InstId};
use crate::op::OpKind;
use std::error::Error;
use std::fmt;

/// An IR invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// An operand index points past the defining instruction (cycle or
    /// forward reference).
    ForwardReference {
        /// Offending instruction.
        inst: InstId,
        /// Operand that is not yet defined.
        operand: InstId,
    },
    /// An instruction has the wrong number of operands for its op kind.
    ArityMismatch {
        /// Offending instruction.
        inst: InstId,
        /// Expected operand count.
        expected: usize,
        /// Actual operand count.
        actual: usize,
    },
    /// Arithmetic on a non-arithmetic type.
    NonArithType {
        /// Offending instruction.
        inst: InstId,
    },
    /// An array, FIFO or kernel id referenced by an instruction does not
    /// exist in the design.
    DanglingReference {
        /// Offending instruction.
        inst: InstId,
        /// Description of the missing entity.
        what: &'static str,
    },
    /// A loop declares an unroll factor of zero.
    ZeroUnroll {
        /// Kernel name.
        kernel: String,
        /// Loop name.
        looop: String,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::ForwardReference { inst, operand } => {
                write!(f, "instruction {inst} uses undefined operand {operand}")
            }
            IrError::ArityMismatch {
                inst,
                expected,
                actual,
            } => write!(
                f,
                "instruction {inst} expects {expected} operands but has {actual}"
            ),
            IrError::NonArithType { inst } => {
                write!(
                    f,
                    "instruction {inst} performs arithmetic on a non-arithmetic type"
                )
            }
            IrError::DanglingReference { inst, what } => {
                write!(f, "instruction {inst} references a non-existent {what}")
            }
            IrError::ZeroUnroll { kernel, looop } => {
                write!(f, "loop {kernel}::{looop} has unroll factor 0")
            }
        }
    }
}

impl Error for IrError {}

/// Checks one dataflow graph against the design's declarations.
///
/// # Errors
///
/// Returns the first violated invariant found, in instruction order.
pub(crate) fn verify_dfg(dfg: &Dfg, design: &Design) -> Result<(), IrError> {
    for (id, inst) in dfg.iter() {
        for &op in &inst.operands {
            if op.index() >= id.index() {
                return Err(IrError::ForwardReference {
                    inst: id,
                    operand: op,
                });
            }
        }
        if let Some(expected) = inst.kind.arity() {
            if inst.operands.len() != expected {
                return Err(IrError::ArityMismatch {
                    inst: id,
                    expected,
                    actual: inst.operands.len(),
                });
            }
        }
        let arith = matches!(
            inst.kind,
            OpKind::Add
                | OpKind::Sub
                | OpKind::Mul
                | OpKind::Div
                | OpKind::Min
                | OpKind::Max
                | OpKind::Abs
                | OpKind::Log2
        );
        if arith && !inst.ty.is_arith() {
            return Err(IrError::NonArithType { inst: id });
        }
        match inst.kind {
            OpKind::Load(a) | OpKind::Store(a) if a.index() >= design.arrays.len() => {
                return Err(IrError::DanglingReference {
                    inst: id,
                    what: "array",
                });
            }
            OpKind::FifoRead(fid) | OpKind::FifoWrite(fid) if fid.index() >= design.fifos.len() => {
                return Err(IrError::DanglingReference {
                    inst: id,
                    what: "fifo",
                });
            }
            OpKind::Call(k) if k.index() >= design.kernels.len() => {
                return Err(IrError::DanglingReference {
                    inst: id,
                    what: "kernel",
                });
            }
            _ => {}
        }
    }
    Ok(())
}

/// Checks a whole design.
///
/// # Errors
///
/// Returns the first violated invariant across all kernels and loops.
pub fn verify_design(design: &Design) -> Result<(), IrError> {
    for kernel in &design.kernels {
        for lp in &kernel.loops {
            if lp.unroll == 0 {
                return Err(IrError::ZeroUnroll {
                    kernel: kernel.name.clone(),
                    looop: lp.name.clone(),
                });
            }
            verify_dfg(&lp.body, design)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{ArrayId, FifoId, KernelId};
    use crate::dfg::Instruction;
    use crate::types::DataType;

    fn empty_design() -> Design {
        Design::new("t")
    }

    #[test]
    fn detects_arity_mismatch() {
        let mut dfg = Dfg::new();
        let a = dfg.push(
            OpKind::Input { invariant: false },
            DataType::Int(32),
            vec![],
        );
        // Add with one operand: bypass builder helpers.
        let mut bad = Instruction::new(OpKind::Add, DataType::Int(32), vec![a]);
        bad.name = "bad".into();
        dfg.push_inst(bad);
        let err = verify_dfg(&dfg, &empty_design()).unwrap_err();
        assert!(matches!(
            err,
            IrError::ArityMismatch {
                expected: 2,
                actual: 1,
                ..
            }
        ));
    }

    #[test]
    fn detects_non_arith_type() {
        let mut dfg = Dfg::new();
        let a = dfg.push(
            OpKind::Input { invariant: false },
            DataType::Bits(64),
            vec![],
        );
        dfg.push(OpKind::Add, DataType::Bits(64), vec![a, a]);
        let err = verify_dfg(&dfg, &empty_design()).unwrap_err();
        assert!(matches!(err, IrError::NonArithType { .. }));
    }

    #[test]
    fn detects_dangling_array() {
        let mut dfg = Dfg::new();
        let i = dfg.push(OpKind::IndVar, DataType::Int(32), vec![]);
        dfg.push(OpKind::Load(ArrayId(7)), DataType::Int(32), vec![i]);
        let err = verify_dfg(&dfg, &empty_design()).unwrap_err();
        assert!(matches!(
            err,
            IrError::DanglingReference { what: "array", .. }
        ));
    }

    #[test]
    fn detects_dangling_fifo_and_kernel() {
        let mut dfg = Dfg::new();
        dfg.push(OpKind::FifoRead(FifoId(0)), DataType::Int(8), vec![]);
        let err = verify_dfg(&dfg, &empty_design()).unwrap_err();
        assert!(matches!(
            err,
            IrError::DanglingReference { what: "fifo", .. }
        ));

        let mut dfg2 = Dfg::new();
        dfg2.push(OpKind::Call(KernelId(3)), DataType::Int(8), vec![]);
        let err2 = verify_dfg(&dfg2, &empty_design()).unwrap_err();
        assert!(matches!(
            err2,
            IrError::DanglingReference { what: "kernel", .. }
        ));
    }

    #[test]
    fn valid_graph_passes() {
        let mut dfg = Dfg::new();
        let a = dfg.push(OpKind::Input { invariant: true }, DataType::Int(32), vec![]);
        let b = dfg.push(
            OpKind::Input { invariant: false },
            DataType::Int(32),
            vec![],
        );
        let s = dfg.push(OpKind::Add, DataType::Int(32), vec![a, b]);
        dfg.push(OpKind::Output, DataType::Int(32), vec![s]);
        assert!(verify_dfg(&dfg, &empty_design()).is_ok());
    }

    #[test]
    fn error_display_is_informative() {
        let e = IrError::ArityMismatch {
            inst: InstId(3),
            expected: 2,
            actual: 5,
        };
        let s = e.to_string();
        assert!(
            s.contains("%3") && s.contains('2') && s.contains('5'),
            "{s}"
        );
    }
}
