//! Word-level operations.

use crate::design::{ArrayId, FifoId, KernelId};
use std::fmt;

/// Comparison predicate for [`OpKind::Cmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl fmt::Display for CmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
            CmpPred::Lt => "lt",
            CmpPred::Le => "le",
            CmpPred::Gt => "gt",
            CmpPred::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// The operation performed by an [`Instruction`](crate::dfg::Instruction).
///
/// Operations are word-level: one `Add` adds two full words, regardless of
/// bit width. Float and integer arithmetic share the same variants; the
/// instruction's [`DataType`](crate::types::DataType) disambiguates (this
/// mirrors LLVM's `add` vs `fadd` being chosen by type in the HLS report the
/// paper parses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A compile-time constant (no operands).
    Const,
    /// A loop input. `invariant` marks values defined outside the loop body
    /// that are re-read every iteration — the data-broadcast sources of the
    /// paper's Figure 1.
    Input {
        /// Whether the value is loop-invariant (shared across unrolled
        /// copies and therefore a broadcast source after unrolling).
        invariant: bool,
    },
    /// The loop induction variable (distinct per unrolled copy).
    IndVar,
    /// A value leaving the loop (e.g. a live-out or a top-level port).
    Output,
    /// Integer or floating-point addition.
    Add,
    /// Integer or floating-point subtraction.
    Sub,
    /// Integer or floating-point multiplication.
    Mul,
    /// Integer or floating-point division.
    Div,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOT (one operand).
    Not,
    /// Left shift.
    Shl,
    /// Right shift.
    Shr,
    /// Comparison producing a `Bool`.
    Cmp(CmpPred),
    /// 2-way multiplexer: `select(cond, a, b)`.
    Select,
    /// Integer log2 ("a series of if-else" in the paper's Fig. 13).
    Log2,
    /// Absolute value / difference helper.
    Abs,
    /// Minimum of two values.
    Min,
    /// Maximum of two values.
    Max,
    /// Read `array[idx]`; operand 0 is the index.
    Load(ArrayId),
    /// Write `array[idx] = v`; operand 0 is the index, operand 1 the value.
    Store(ArrayId),
    /// Blocking FIFO read (no operands; produces the element).
    FifoRead(FifoId),
    /// Blocking FIFO write (operand 0 is the element; produces nothing used).
    FifoWrite(FifoId),
    /// An explicit register module. Inserting one forces the scheduler to
    /// place its operand and its users in different cycles — the paper's
    /// mechanism for splitting over-long broadcast chains (§4.1).
    Reg,
    /// Invocation of another kernel (a parallel processing element, as in
    /// the paper's Figure 5b). Operand list is the PE inputs.
    Call(KernelId),
    /// Bit-level repack (split/concat); free in hardware, used for HBM
    /// 512-bit to 8x64-bit scatter in the paper's §5.3.
    Repack,
}

impl OpKind {
    /// Whether this operation accesses an on-chip array.
    pub fn is_memory(self) -> bool {
        matches!(self, OpKind::Load(_) | OpKind::Store(_))
    }

    /// Whether this operation produces no SSA value used by others
    /// (side-effect only).
    pub fn is_sink(self) -> bool {
        matches!(
            self,
            OpKind::Store(_) | OpKind::FifoWrite(_) | OpKind::Output
        )
    }

    /// Number of operands the operation requires, if fixed.
    pub(crate) fn arity(self) -> Option<usize> {
        match self {
            OpKind::Const | OpKind::Input { .. } | OpKind::IndVar | OpKind::FifoRead(_) => Some(0),
            OpKind::Not
            | OpKind::Log2
            | OpKind::Abs
            | OpKind::Reg
            | OpKind::Output
            | OpKind::FifoWrite(_)
            | OpKind::Load(_)
            | OpKind::Repack => Some(1),
            OpKind::Add
            | OpKind::Sub
            | OpKind::Mul
            | OpKind::Div
            | OpKind::And
            | OpKind::Or
            | OpKind::Xor
            | OpKind::Shl
            | OpKind::Shr
            | OpKind::Cmp(_)
            | OpKind::Min
            | OpKind::Max
            | OpKind::Store(_) => Some(2),
            OpKind::Select => Some(3),
            OpKind::Call(_) => None,
        }
    }

    /// A short mnemonic for reports.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            OpKind::Const => "const",
            OpKind::Input { invariant: true } => "input.inv",
            OpKind::Input { invariant: false } => "input",
            OpKind::IndVar => "indvar",
            OpKind::Output => "output",
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::Div => "div",
            OpKind::And => "and",
            OpKind::Or => "or",
            OpKind::Xor => "xor",
            OpKind::Not => "not",
            OpKind::Shl => "shl",
            OpKind::Shr => "shr",
            OpKind::Cmp(_) => "cmp",
            OpKind::Select => "select",
            OpKind::Log2 => "log2",
            OpKind::Abs => "abs",
            OpKind::Min => "min",
            OpKind::Max => "max",
            OpKind::Load(_) => "load",
            OpKind::Store(_) => "store",
            OpKind::FifoRead(_) => "fifo.read",
            OpKind::FifoWrite(_) => "fifo.write",
            OpKind::Reg => "reg",
            OpKind::Call(_) => "call",
            OpKind::Repack => "repack",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Cmp(p) => write!(f, "cmp.{p}"),
            other => f.write_str(other.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::ArrayId;

    #[test]
    fn arity_of_common_ops() {
        assert_eq!(OpKind::Add.arity(), Some(2));
        assert_eq!(OpKind::Select.arity(), Some(3));
        assert_eq!(OpKind::Not.arity(), Some(1));
        assert_eq!(OpKind::Const.arity(), Some(0));
        assert_eq!(OpKind::Call(crate::design::KernelId(0)).arity(), None);
    }

    #[test]
    fn classification() {
        assert!(OpKind::Load(ArrayId(0)).is_memory());
        assert!(OpKind::Store(ArrayId(0)).is_sink());
    }

    #[test]
    fn display_includes_predicate() {
        assert_eq!(OpKind::Cmp(CmpPred::Le).to_string(), "cmp.le");
        assert_eq!(OpKind::Add.to_string(), "add");
        assert_eq!(OpKind::Input { invariant: true }.to_string(), "input.inv");
    }
}
