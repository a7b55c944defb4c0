//! The HLS-tool-predicted delay table (flat in broadcast factor).

use crate::classes::{classify, OpClass};
use crate::model::DelayModel;
use hlsb_ir::{DataType, OpKind};

/// Clock-to-out of a BRAM read port, ns (part of the Mem class delay).
pub(crate) const BRAM_CLK_TO_OUT_NS: f64 = 0.90;

/// A Vivado-HLS-style pre-characterized delay model.
///
/// Key properties reproduced from the paper:
///
/// * delays are **invariant to the broadcast factor** (§2: "The predicted
///   delay by HLS tools for a certain operator is fixed regardless of the
///   actual environment");
/// * the predicted delay of floating-point multiplication is **higher**
///   than its real logic delay ("possibly because the Vivado HLS tool is
///   being deliberately conservative about multiplication for floating
///   points", §4.1);
/// * memory access delay ignores the buffer size ("The predicted delay
///   remains the same regardless of the size of the buffer", §3.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HlsPredictedModel;

impl HlsPredictedModel {
    /// Creates the model.
    pub fn new() -> Self {
        HlsPredictedModel
    }

    /// Predicted delay of an op class on `ty`, independent of broadcast.
    pub(crate) fn class_delay_ns(class: OpClass, ty: DataType) -> f64 {
        let wide = ty.bits() > 32;
        match class {
            OpClass::IntAlu => {
                if wide {
                    1.10
                } else {
                    0.78
                }
            }
            OpClass::IntMul => 2.00,
            OpClass::FloatAddSub => 2.30,
            // Deliberately conservative, per the paper's Fig. 9 observation.
            OpClass::FloatMul => 4.00,
            OpClass::FloatDiv => 3.50,
            OpClass::Logic => {
                if wide {
                    0.55
                } else {
                    0.40
                }
            }
            OpClass::Mux => 0.35,
            OpClass::Mem => BRAM_CLK_TO_OUT_NS,
            OpClass::Fifo => 0.50,
            OpClass::Free => 0.0,
        }
    }

    /// The *actual* (measured) base logic delay of a class at broadcast
    /// factor 1, used by characterization. Identical to the predicted
    /// value except where the paper reports the prediction is conservative.
    pub(crate) fn measured_base_ns(class: OpClass, ty: DataType) -> f64 {
        match class {
            OpClass::FloatMul => 2.10, // real logic is much cheaper
            OpClass::FloatDiv => 3.00,
            other => Self::class_delay_ns(other, ty),
        }
    }
}

impl DelayModel for HlsPredictedModel {
    fn delay_ns(&self, op: OpKind, ty: DataType, _bf: usize) -> f64 {
        Self::class_delay_ns(classify(op, ty), ty)
    }

    fn latency(&self, op: OpKind, ty: DataType) -> u32 {
        match classify(op, ty) {
            OpClass::IntMul => 1,
            OpClass::FloatAddSub => 4,
            OpClass::FloatMul => 3,
            OpClass::FloatDiv => 12,
            OpClass::Mem => 1,
            OpClass::Fifo => 1,
            OpClass::Free => match op {
                OpKind::Reg => 1,
                _ => 0,
            },
            OpClass::IntAlu | OpClass::Logic | OpClass::Mux => 0,
        }
    }

    fn name(&self) -> &str {
        "hls-predicted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_in_broadcast_factor() {
        let m = HlsPredictedModel::new();
        let ty = DataType::Int(32);
        for bf in [1usize, 4, 64, 1024] {
            assert_eq!(m.delay_ns(OpKind::Add, ty, bf), 0.78);
            assert_eq!(m.delay_ns(OpKind::Sub, ty, bf), 0.78);
        }
    }

    #[test]
    fn fmul_prediction_is_conservative() {
        let ty = DataType::Float32;
        assert!(
            HlsPredictedModel::class_delay_ns(OpClass::FloatMul, ty)
                > HlsPredictedModel::measured_base_ns(OpClass::FloatMul, ty)
        );
    }

    #[test]
    fn latencies() {
        let m = HlsPredictedModel::new();
        assert_eq!(m.latency(OpKind::Add, DataType::Int(32)), 0);
        assert_eq!(m.latency(OpKind::Add, DataType::Float32), 4);
        assert_eq!(m.latency(OpKind::Mul, DataType::Float32), 3);
        assert_eq!(m.latency(OpKind::Reg, DataType::Int(32)), 1);
        assert_eq!(
            m.latency(OpKind::Load(hlsb_ir::ArrayId(0)), DataType::Int(32)),
            1
        );
    }

    #[test]
    fn wide_ops_are_slower() {
        assert!(
            HlsPredictedModel::class_delay_ns(OpClass::IntAlu, DataType::Int(64))
                > HlsPredictedModel::class_delay_ns(OpClass::IntAlu, DataType::Int(32))
        );
    }

    #[test]
    fn reg_is_free_but_latent() {
        let m = HlsPredictedModel::new();
        assert_eq!(m.delay_ns(OpKind::Reg, DataType::Int(32), 100), 0.0);
        assert_eq!(m.latency(OpKind::Reg, DataType::Int(32)), 1);
    }
}
