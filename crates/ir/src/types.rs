//! Scalar data types carried by IR values.

use std::fmt;

/// A scalar HLS data type.
///
/// Widths are in bits. `Bits` is an opaque bit-vector (e.g. a packed struct
/// travelling through a FIFO); arithmetic on it is not allowed by the
/// verifier, but moves, selects and memory/FIFO transfers are.
///
/// # Example
///
/// ```
/// use hlsb_ir::types::DataType;
/// assert_eq!(DataType::Int(32).bits(), 32);
/// assert_eq!(DataType::Float32.bits(), 32);
/// assert!(DataType::Float64.is_float());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// Single-bit boolean.
    Bool,
    /// Signed integer of the given bit width.
    Int(u16),
    /// Unsigned integer of the given bit width.
    UInt(u16),
    /// IEEE-754 single precision.
    Float32,
    /// IEEE-754 double precision.
    Float64,
    /// Opaque bit vector of the given width.
    Bits(u16),
}

impl DataType {
    /// Bit width of the type.
    pub fn bits(self) -> u32 {
        match self {
            DataType::Bool => 1,
            DataType::Int(w) | DataType::UInt(w) | DataType::Bits(w) => u32::from(w),
            DataType::Float32 => 32,
            DataType::Float64 => 64,
        }
    }

    /// Whether the type is a floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, DataType::Float32 | DataType::Float64)
    }

    /// Whether the type is an integer (signed or unsigned) or boolean.
    pub(crate) fn is_integral(self) -> bool {
        matches!(self, DataType::Bool | DataType::Int(_) | DataType::UInt(_))
    }

    /// Whether arithmetic is permitted on the type.
    pub(crate) fn is_arith(self) -> bool {
        self.is_integral() || self.is_float()
    }
}

impl Default for DataType {
    fn default() -> Self {
        DataType::Int(32)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Bool => write!(f, "i1"),
            DataType::Int(w) => write!(f, "i{w}"),
            DataType::UInt(w) => write!(f, "u{w}"),
            DataType::Float32 => write!(f, "f32"),
            DataType::Float64 => write!(f, "f64"),
            DataType::Bits(w) => write!(f, "b{w}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_widths() {
        assert_eq!(DataType::Bool.bits(), 1);
        assert_eq!(DataType::Int(17).bits(), 17);
        assert_eq!(DataType::UInt(512).bits(), 512);
        assert_eq!(DataType::Float32.bits(), 32);
        assert_eq!(DataType::Float64.bits(), 64);
        assert_eq!(DataType::Bits(128).bits(), 128);
    }

    #[test]
    fn classification() {
        assert!(DataType::Float32.is_float());
        assert!(!DataType::Int(8).is_float());
        assert!(DataType::Bool.is_integral());
        assert!(DataType::Int(32).is_arith());
        assert!(DataType::Float64.is_arith());
        assert!(!DataType::Bits(64).is_arith());
    }

    #[test]
    fn display_forms() {
        assert_eq!(DataType::Int(32).to_string(), "i32");
        assert_eq!(DataType::UInt(8).to_string(), "u8");
        assert_eq!(DataType::Float32.to_string(), "f32");
        assert_eq!(DataType::Bits(512).to_string(), "b512");
        assert_eq!(DataType::Bool.to_string(), "i1");
    }

    #[test]
    fn default_is_int32() {
        assert_eq!(DataType::default(), DataType::Int(32));
    }
}
