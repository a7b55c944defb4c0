//! Operator classes for delay characterization.

use hlsb_ir::{DataType, OpKind};
use std::fmt;

/// Delay class of an operation. Characterization measures one broadcast
/// curve per class (the paper's Fig. 9 shows int add, BRAM access and
/// float multiply).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer add/sub/min/max/abs — carry-chain logic.
    IntAlu,
    /// Integer multiply (DSP).
    IntMul,
    /// Floating-point add/sub.
    FloatAddSub,
    /// Floating-point multiply.
    FloatMul,
    /// Floating-point divide.
    FloatDiv,
    /// Cheap bitwise / compare / shift logic.
    Logic,
    /// Multiplexers (select).
    Mux,
    /// BRAM access (load/store).
    Mem,
    /// FIFO access.
    Fifo,
    /// Zero-cost structural ops (inputs, constants, repack, reg, call).
    Free,
}

impl OpClass {
    /// Number of classes: the length of a class-indexed table. `Free` is
    /// the last variant.
    pub(crate) const COUNT: usize = OpClass::Free as usize + 1;

    /// Dense index of the class in `0..COUNT`, for class-indexed tables.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::IntAlu => "int-alu",
            OpClass::IntMul => "int-mul",
            OpClass::FloatAddSub => "fadd",
            OpClass::FloatMul => "fmul",
            OpClass::FloatDiv => "fdiv",
            OpClass::Logic => "logic",
            OpClass::Mux => "mux",
            OpClass::Mem => "mem",
            OpClass::Fifo => "fifo",
            OpClass::Free => "free",
        };
        f.write_str(s)
    }
}

/// Classifies an operation on a given data type.
pub fn classify(op: OpKind, ty: DataType) -> OpClass {
    let float = ty.is_float();
    match op {
        OpKind::Add | OpKind::Sub if float => OpClass::FloatAddSub,
        OpKind::Mul if float => OpClass::FloatMul,
        OpKind::Div if float => OpClass::FloatDiv,
        OpKind::Add | OpKind::Sub | OpKind::Min | OpKind::Max | OpKind::Abs => OpClass::IntAlu,
        OpKind::Mul | OpKind::Div => OpClass::IntMul,
        OpKind::And
        | OpKind::Or
        | OpKind::Xor
        | OpKind::Not
        | OpKind::Shl
        | OpKind::Shr
        | OpKind::Cmp(_)
        | OpKind::Log2 => OpClass::Logic,
        OpKind::Select => OpClass::Mux,
        OpKind::Load(_) | OpKind::Store(_) => OpClass::Mem,
        OpKind::FifoRead(_) | OpKind::FifoWrite(_) => OpClass::Fifo,
        OpKind::Const
        | OpKind::Input { .. }
        | OpKind::IndVar
        | OpKind::Output
        | OpKind::Reg
        | OpKind::Call(_)
        | OpKind::Repack => OpClass::Free,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_ops_classify_by_type() {
        assert_eq!(
            classify(OpKind::Add, DataType::Float32),
            OpClass::FloatAddSub
        );
        assert_eq!(classify(OpKind::Add, DataType::Int(32)), OpClass::IntAlu);
        assert_eq!(classify(OpKind::Mul, DataType::Float32), OpClass::FloatMul);
        assert_eq!(classify(OpKind::Mul, DataType::Int(16)), OpClass::IntMul);
        assert_eq!(classify(OpKind::Div, DataType::Float64), OpClass::FloatDiv);
    }

    #[test]
    fn structural_ops_are_free() {
        assert_eq!(
            classify(OpKind::Input { invariant: true }, DataType::Int(8)),
            OpClass::Free
        );
        assert_eq!(classify(OpKind::Reg, DataType::Float32), OpClass::Free);
        assert_eq!(classify(OpKind::Repack, DataType::Bits(512)), OpClass::Free);
    }

    #[test]
    fn memory_and_fifo() {
        assert_eq!(
            classify(OpKind::Load(hlsb_ir::ArrayId(0)), DataType::Int(32)),
            OpClass::Mem
        );
        assert_eq!(
            classify(OpKind::FifoWrite(hlsb_ir::FifoId(0)), DataType::Bits(64)),
            OpClass::Fifo
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(OpClass::FloatMul.to_string(), "fmul");
        assert_eq!(OpClass::Mem.to_string(), "mem");
    }
}
