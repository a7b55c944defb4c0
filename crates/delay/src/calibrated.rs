//! The calibrated delay model: `max(predicted, smoothed measurement)`.

use crate::characterize::{characterize, Characterization, CharacterizeConfig};
use crate::classes::{classify, OpClass};
use crate::model::DelayModel;
use crate::predicted::HlsPredictedModel;
use hlsb_fabric::Device;
use hlsb_ir::{DataType, OpKind};

/// The paper's calibrated delay model (§4.1).
///
/// For characterized classes the delay at broadcast factor `bf` is
/// `max(predicted, measured_base + wire_excess(bf))`, with `wire_excess`
/// log-interpolated between measured points. Classes that were not
/// explicitly characterized reuse the wire-excess curve of the integer-ALU
/// class (the broadcast excess is a property of the interconnect, not of
/// the operator), added on top of their predicted logic delay.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibratedModel {
    predicted: HlsPredictedModel,
    /// Per class, indexed by [`OpClass::index`]: the `(ln bf, wire excess
    /// over bf=1)` points of its curve. Uncharacterized classes hold the
    /// fallback curve (IntAlu's, or empty). The logarithms are taken once
    /// here, so a lookup is an index and one `ln`.
    excess: [Vec<(f64, f64)>; OpClass::COUNT],
    label: String,
}

impl CalibratedModel {
    /// Builds the model from a characterization result.
    pub fn from_characterization(ch: &Characterization) -> Self {
        let mut measured: Vec<(OpClass, Vec<(f64, f64)>)> = Vec::new();
        for &class in ch.classes() {
            let Some(curve) = ch.curve(class) else {
                continue;
            };
            if curve.is_empty() {
                continue;
            }
            let base = curve[0].smoothed_ns;
            let pts = curve
                .iter()
                .map(|p| {
                    let ln_bf = (p.bf.max(1) as f64).ln();
                    (ln_bf, (p.smoothed_ns - base).max(0.0))
                })
                .collect();
            measured.push((class, pts));
        }
        let fallback = measured
            .iter()
            .find(|(class, _)| *class == OpClass::IntAlu)
            .or(measured.first())
            .map(|(_, pts)| pts.clone())
            .unwrap_or_default();
        let mut excess: [Vec<(f64, f64)>; OpClass::COUNT] =
            std::array::from_fn(|_| fallback.clone());
        for (class, pts) in measured {
            excess[class.index()] = pts;
        }
        CalibratedModel {
            predicted: HlsPredictedModel::new(),
            excess,
            label: format!("calibrated({})", ch.device_name),
        }
    }

    /// Convenience: characterize with the fast analytic back-end and the
    /// default configuration (noise keyed on `seed`).
    pub fn characterize_analytic(device: &Device, seed: u64) -> Self {
        let config = CharacterizeConfig {
            seed,
            ..CharacterizeConfig::default()
        };
        Self::from_characterization(&characterize(device, &config))
    }

    /// The broadcast wire excess for an op class at factor `bf`, ns.
    pub fn wire_excess_ns(&self, class: OpClass, bf: usize) -> f64 {
        interpolate_log(&self.excess[class.index()], bf)
    }
}

/// Piecewise-linear interpolation in `ln(bf)` over `(ln bf, value)`
/// points; extrapolates with the slope of the outermost segment.
fn interpolate_log(pts: &[(f64, f64)], bf: usize) -> f64 {
    if pts.is_empty() {
        return 0.0;
    }
    if pts.len() == 1 {
        return pts[0].1;
    }
    let x = (bf.max(1) as f64).ln();
    let (lo, hi) = if x <= pts[0].0 {
        (pts[0], pts[1])
    } else if x >= pts[pts.len() - 1].0 {
        (pts[pts.len() - 2], pts[pts.len() - 1])
    } else {
        let i = pts.partition_point(|p| p.0 <= x).min(pts.len() - 1);
        (pts[i - 1], pts[i])
    };
    let span = hi.0 - lo.0;
    if span.abs() < 1e-12 {
        return lo.1;
    }
    let t = (x - lo.0) / span;
    (lo.1 + t * (hi.1 - lo.1)).max(0.0)
}

impl DelayModel for CalibratedModel {
    fn delay_ns(&self, op: OpKind, ty: DataType, bf: usize) -> f64 {
        let class = classify(op, ty);
        if class == OpClass::Free {
            return 0.0;
        }
        let predicted = HlsPredictedModel::class_delay_ns(class, ty);
        let measured =
            HlsPredictedModel::measured_base_ns(class, ty) + self.wire_excess_ns(class, bf);
        predicted.max(measured)
    }

    fn latency(&self, op: OpKind, ty: DataType) -> u32 {
        self.predicted.latency(op, ty)
    }

    fn wire_excess_ns(&self, op: OpKind, ty: DataType, bf: usize) -> f64 {
        // The raw wire component, not masked by the conservative-predicted
        // max of `delay_ns` (Fig. 9c: the fmul curve saturates the flat
        // prediction at small factors, but the operand net still carries
        // the full broadcast excess).
        self.wire_excess_ns(classify(op, ty), bf)
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CalibratedModel {
        CalibratedModel::characterize_analytic(&Device::ultrascale_plus_vu9p(), 1)
    }

    #[test]
    fn matches_predicted_at_small_bf() {
        let m = model();
        let p = HlsPredictedModel::new();
        let ty = DataType::Int(32);
        let d1 = m.delay_ns(OpKind::Add, ty, 1);
        let dp = p.delay_ns(OpKind::Add, ty, 1);
        // "the delay obtained from our experiment is consistent with the
        // predicted delay ... when the broadcast factor is small" (§4.1).
        assert!((d1 - dp).abs() < 0.35, "calibrated {d1} vs predicted {dp}");
    }

    #[test]
    fn grows_at_large_bf() {
        let m = model();
        let ty = DataType::Int(32);
        let d64 = m.delay_ns(OpKind::Sub, ty, 64);
        assert!(
            (1.6..=2.6).contains(&d64),
            "sub@64 = {d64}, paper anchor ≈ 2.08"
        );
        assert!(m.delay_ns(OpKind::Sub, ty, 1024) > d64);
    }

    #[test]
    fn fmul_calibration_takes_max_with_conservative_prediction() {
        let m = model();
        let ty = DataType::Float32;
        // At small bf the conservative prediction dominates.
        assert_eq!(m.delay_ns(OpKind::Mul, ty, 1), 4.0);
        // At very large bf the measured curve overtakes.
        assert!(m.delay_ns(OpKind::Mul, ty, 1024) > 4.0);
    }

    #[test]
    fn memory_delay_grows_with_bank_count() {
        let m = model();
        let ty = DataType::Int(32);
        let a = hlsb_ir::ArrayId(0);
        let small = m.delay_ns(OpKind::Store(a), ty, 1);
        let large = m.delay_ns(OpKind::Store(a), ty, 640);
        assert!(
            large > small + 1.5,
            "store 1 bank {small} vs 640 banks {large}"
        );
    }

    #[test]
    fn uncharacterized_class_uses_fallback_excess() {
        let m = model();
        let ty = DataType::Int(32);
        // Logic ops were not characterized but still see broadcast excess.
        let d1 = m.delay_ns(OpKind::Cmp(hlsb_ir::CmpPred::Lt), ty, 1);
        let d256 = m.delay_ns(OpKind::Cmp(hlsb_ir::CmpPred::Lt), ty, 256);
        assert!(d256 > d1 + 1.0);
    }

    #[test]
    fn interpolation_is_monotone_between_samples() {
        let m = model();
        let ty = DataType::Int(32);
        let mut last = 0.0;
        for bf in [1usize, 3, 5, 10, 48, 96, 200, 700, 1500] {
            let d = m.delay_ns(OpKind::Add, ty, bf);
            assert!(d >= last - 0.2, "non-monotone at bf={bf}: {d} < {last}");
            last = d;
        }
    }

    /// The per-call formula the precomputed curves replaced: raw
    /// `(bf, excess)` points, logarithms taken on every lookup.
    fn reference_interpolate_log(curve: &[(usize, f64)], bf: usize) -> f64 {
        if curve.is_empty() {
            return 0.0;
        }
        let x = (bf.max(1) as f64).ln();
        if curve.len() == 1 {
            return curve[0].1;
        }
        let pts: Vec<(f64, f64)> = curve
            .iter()
            .map(|&(b, v)| ((b.max(1) as f64).ln(), v))
            .collect();
        let (lo, hi) = if x <= pts[0].0 {
            (pts[0], pts[1])
        } else if x >= pts[pts.len() - 1].0 {
            (pts[pts.len() - 2], pts[pts.len() - 1])
        } else {
            let i = pts.partition_point(|p| p.0 <= x).min(pts.len() - 1);
            (pts[i - 1], pts[i])
        };
        let span = hi.0 - lo.0;
        if span.abs() < 1e-12 {
            return lo.1;
        }
        let t = (x - lo.0) / span;
        (lo.1 + t * (hi.1 - lo.1)).max(0.0)
    }

    #[test]
    fn precomputed_curves_match_the_per_call_formula_bit_for_bit() {
        let device = Device::ultrascale_plus_vu9p();
        let ch = characterize(
            &device,
            &CharacterizeConfig {
                seed: 1,
                ..CharacterizeConfig::default()
            },
        );
        let m = CalibratedModel::from_characterization(&ch);
        let raw = |class: OpClass| -> Vec<(usize, f64)> {
            let curve = ch.curve(class).expect("characterized");
            let base = curve[0].smoothed_ns;
            curve
                .iter()
                .map(|p| (p.bf, (p.smoothed_ns - base).max(0.0)))
                .collect()
        };
        // Every characterized class, and one uncharacterized class per
        // fallback use (they all read IntAlu's curve).
        let cases = [
            (OpClass::IntAlu, raw(OpClass::IntAlu)),
            (OpClass::Mem, raw(OpClass::Mem)),
            (OpClass::FloatMul, raw(OpClass::FloatMul)),
            (OpClass::Logic, raw(OpClass::IntAlu)),
            (OpClass::IntMul, raw(OpClass::IntAlu)),
            (OpClass::Fifo, raw(OpClass::IntAlu)),
        ];
        for (class, curve) in &cases {
            for bf in 0..=4096 {
                let got = m.wire_excess_ns(*class, bf);
                let want = reference_interpolate_log(curve, bf);
                assert_eq!(got.to_bits(), want.to_bits(), "{class} at bf={bf}");
            }
        }
        // Degenerate curves: one point, and none.
        let one = [(4usize, 0.25)];
        let single = vec![((4.0f64).ln(), 0.25)];
        for bf in [0, 1, 4, 4096] {
            assert_eq!(
                interpolate_log(&single, bf).to_bits(),
                reference_interpolate_log(&one, bf).to_bits()
            );
            assert_eq!(interpolate_log(&[], bf), 0.0);
        }
    }

    #[test]
    fn free_ops_stay_free() {
        let m = model();
        assert_eq!(m.delay_ns(OpKind::Reg, DataType::Int(32), 1024), 0.0);
    }

    #[test]
    fn latency_delegates_to_predicted() {
        let m = model();
        assert_eq!(m.latency(OpKind::Mul, DataType::Float32), 3);
    }
}
