//! Skeleton-design delay characterization (the paper's §4.1 methodology).
//!
//! For each operator class and broadcast factor `k`, we "implement a
//! skeleton broadcast structure on an empty FPGA": one source register
//! fanning out to `k` operator instances. Two measurement back-ends exist:
//!
//! * **analytic** (default, fast): the closed-form fabric wire model with
//!   the `sqrt(k)` sink spread, perturbed by deterministic pseudo-noise;
//! * **placed** (slow, used by the Fig. 9 regenerator and slow tests):
//!   actually builds the skeleton netlist, places it with the annealer on
//!   an empty device, and measures the STA period.
//!
//! Every data point is then averaged with its neighbours to suppress the
//! noise, exactly as the paper describes.

use crate::classes::OpClass;
use crate::predicted::{HlsPredictedModel, BRAM_CLK_TO_OUT_NS};
use hlsb_fabric::noise::NoiseModel;
use hlsb_fabric::{Device, WireModel};
use hlsb_ir::DataType;
use hlsb_netlist::{Cell, Netlist};
use hlsb_place::{place_with, AnnealConfig};
use hlsb_timing::{sta, SETUP_NS};
use std::collections::BTreeMap;

/// One measured point of a broadcast-delay curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Broadcast factor.
    pub bf: usize,
    /// Raw measured operator delay (logic + broadcast wire), ns.
    pub raw_ns: f64,
    /// Neighbour-averaged delay, ns.
    pub smoothed_ns: f64,
}

/// Configuration of a characterization run.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizeConfig {
    /// Broadcast factors to sample (ascending).
    pub bfs: Vec<usize>,
    /// Classes to characterize.
    pub classes: Vec<OpClass>,
    /// Noise amplitude (relative, e.g. 0.04 = ±4%).
    pub noise: f64,
    /// RNG seed for noise and (if placed) placement.
    pub seed: u64,
    /// Use the placed back-end instead of the analytic one.
    pub placed: bool,
}

impl Default for CharacterizeConfig {
    fn default() -> Self {
        CharacterizeConfig {
            bfs: vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
            classes: vec![OpClass::IntAlu, OpClass::Mem, OpClass::FloatMul],
            noise: 0.04,
            seed: 0xB0AD_CA57,
            placed: false,
        }
    }
}

/// The result: one smoothed curve per operator class.
#[derive(Debug, Clone, PartialEq)]
pub struct Characterization {
    /// Device the curves were measured on.
    pub device_name: String,
    /// Curves per class, points sorted by broadcast factor.
    pub curves: BTreeMap<&'static str, Vec<CurvePoint>>,
    classes: Vec<OpClass>,
}

impl Characterization {
    /// The curve for a class, if characterized.
    pub fn curve(&self, class: OpClass) -> Option<&[CurvePoint]> {
        self.curves.get(class_key(class)).map(Vec::as_slice)
    }

    /// Classes characterized.
    pub(crate) fn classes(&self) -> &[OpClass] {
        &self.classes
    }
}

fn class_key(class: OpClass) -> &'static str {
    match class {
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
    }
}

/// The reference data type each class is characterized at.
fn class_ty(class: OpClass) -> DataType {
    match class {
        OpClass::FloatAddSub | OpClass::FloatMul | OpClass::FloatDiv => DataType::Float32,
        _ => DataType::Int(32),
    }
}

/// Runs a characterization.
pub fn characterize(device: &Device, config: &CharacterizeConfig) -> Characterization {
    let wire = WireModel::for_device(device);
    let noise = NoiseModel::new(config.noise, config.seed);
    let mut curves = BTreeMap::new();

    for (ci, &class) in config.classes.iter().enumerate() {
        let ty = class_ty(class);
        let raw: Vec<f64> = config
            .bfs
            .iter()
            .map(|&bf| {
                let measured = if config.placed {
                    measure_placed(
                        device,
                        &wire,
                        class,
                        ty,
                        bf,
                        config.seed ^ (ci as u64) << 32,
                    )
                } else {
                    measure_analytic(&wire, class, ty, bf)
                };
                noise.perturb(measured, ci as u64, bf as u64)
            })
            .collect();
        let smoothed = smooth(&raw);
        let points: Vec<CurvePoint> = config
            .bfs
            .iter()
            .zip(raw.iter().zip(smoothed.iter()))
            .map(|(&bf, (&raw_ns, &smoothed_ns))| CurvePoint {
                bf,
                raw_ns,
                smoothed_ns,
            })
            .collect();
        curves.insert(class_key(class), points);
    }

    Characterization {
        device_name: device.name.clone(),
        curves,
        classes: config.classes.clone(),
    }
}

/// Analytic back-end: base logic delay + closed-form broadcast wire excess.
fn measure_analytic(wire: &WireModel, class: OpClass, ty: DataType, bf: usize) -> f64 {
    let base = HlsPredictedModel::measured_base_ns(class, ty);
    let local = wire.net_delay_ns(1.0, 1);
    base + (wire.skeleton_net_delay_ns(bf) - local)
}

/// Placed back-end: build the skeleton, place, run STA.
fn measure_placed(
    device: &Device,
    wire: &WireModel,
    class: OpClass,
    ty: DataType,
    bf: usize,
    seed: u64,
) -> f64 {
    let clk_to_q = 0.10;
    let local = wire.net_delay_ns(1.0, 1);
    let mut nl = Netlist::new(format!("skeleton_{}_{bf}", class_key(class)));
    let src = nl.add_cell(Cell::ff("src", ty.bits()));
    let base = HlsPredictedModel::measured_base_ns(class, ty);

    if class == OpClass::Mem {
        // Source register fanning out to `bf` BRAM banks (stores capture
        // at the BRAM, a sequential endpoint).
        let banks: Vec<_> = (0..bf)
            .map(|i| nl.add_cell(Cell::bram(format!("bank{i}"), ty.bits(), 1)))
            .collect();
        nl.connect(src, &banks);
        let placement = place_with(&nl, device, seed, light_anneal());
        let report = sta(&nl, &placement, wire);
        // Broadcast wire excess + the BRAM's own access time.
        return BRAM_CLK_TO_OUT_NS + (report.period_ns - clk_to_q - SETUP_NS) - local;
    }

    // Source register fanning out to `bf` operator instances, each feeding
    // a private sink register.
    let mut sinks = Vec::with_capacity(bf);
    for i in 0..bf {
        let op = nl.add_cell(Cell::comb(format!("op{i}"), ty.bits(), base, ty.bits()));
        let ff = nl.add_cell(Cell::ff(format!("q{i}"), ty.bits()));
        nl.connect(op, &[ff]);
        sinks.push(op);
    }
    nl.connect(src, &sinks);
    let placement = place_with(&nl, device, seed, light_anneal());
    // STA sanity (also exercises the timing path end to end).
    let report = sta(&nl, &placement, wire);
    debug_assert!(report.period_ns > clk_to_q + base);
    // The operator delay under broadcast is the worst broadcast-net arc
    // plus the operator's own logic; the private op->FF hop is excluded
    // (on silicon the capture register sits in the same slice).
    let worst_arc = sinks
        .iter()
        .map(|&op| wire.net_delay_ns(placement.dist(src, op), bf))
        .fold(0.0f64, f64::max);
    base + worst_arc - local
}

fn light_anneal() -> AnnealConfig {
    AnnealConfig {
        moves_per_cell: 80,
        min_moves: 20_000,
        max_moves: 120_000,
        cooling: 0.82,
        batches: 30,
    }
}

/// Neighbour averaging: each point becomes the mean of itself and its
/// immediate neighbours (the paper's noise-suppression step).
pub(crate) fn smooth(raw: &[f64]) -> Vec<f64> {
    let n = raw.len();
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(1);
            let hi = (i + 1).min(n - 1);
            raw[lo..=hi].iter().sum::<f64>() / (hi - lo + 1) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoothing_averages_neighbours() {
        let s = smooth(&[1.0, 2.0, 9.0, 2.0, 1.0]);
        assert_eq!(s[0], 1.5);
        assert_eq!(s[2], (2.0 + 9.0 + 2.0) / 3.0);
        assert_eq!(s[4], 1.5);
    }

    #[test]
    fn smoothing_single_point_is_identity() {
        assert_eq!(smooth(&[3.0]), vec![3.0]);
    }

    #[test]
    fn analytic_curves_grow_with_bf() {
        let dev = Device::ultrascale_plus_vu9p();
        let ch = characterize(&dev, &CharacterizeConfig::default());
        for class in [OpClass::IntAlu, OpClass::Mem, OpClass::FloatMul] {
            let curve = ch.curve(class).expect("characterized");
            assert_eq!(curve.len(), 11);
            assert!(
                curve.last().unwrap().smoothed_ns > curve[0].smoothed_ns + 1.0,
                "{class}: {:?}",
                curve
            );
            // bf ascending.
            for w in curve.windows(2) {
                assert!(w[0].bf < w[1].bf);
            }
        }
    }

    #[test]
    fn characterization_is_deterministic() {
        let dev = Device::ultrascale_plus_vu9p();
        let a = characterize(&dev, &CharacterizeConfig::default());
        let b = characterize(&dev, &CharacterizeConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn paper_anchor_int_alu_at_64() {
        // §5.2: 0.78 ns sub measured at ≈ 2.08 ns under 64-way broadcast.
        let dev = Device::ultrascale_plus_vu9p();
        let cfg = CharacterizeConfig {
            noise: 0.0,
            ..CharacterizeConfig::default()
        };
        let ch = characterize(&dev, &cfg);
        let curve = ch.curve(OpClass::IntAlu).unwrap();
        let p64 = curve.iter().find(|p| p.bf == 64).unwrap();
        assert!(
            (1.7..=2.5).contains(&p64.smoothed_ns),
            "int-alu@64 = {} ns, expected ≈ 2.08",
            p64.smoothed_ns
        );
    }

    #[test]
    fn placed_backend_matches_analytic_roughly() {
        // The placed measurement should land in the same ballpark as the
        // analytic model for a mid-size broadcast.
        let dev = Device::ultrascale_plus_vu9p();
        let cfg = CharacterizeConfig {
            bfs: vec![16, 32, 64],
            classes: vec![OpClass::IntAlu],
            noise: 0.0,
            seed: 7,
            placed: true,
        };
        let placed = characterize(&dev, &cfg);
        let analytic = characterize(
            &dev,
            &CharacterizeConfig {
                placed: false,
                ..cfg
            },
        );
        let p = placed.curve(OpClass::IntAlu).unwrap();
        let a = analytic.curve(OpClass::IntAlu).unwrap();
        for (pp, aa) in p.iter().zip(a) {
            let ratio = pp.smoothed_ns / aa.smoothed_ns;
            assert!(
                (0.3..=3.5).contains(&ratio),
                "bf={}: placed {} vs analytic {}",
                pp.bf,
                pp.smoothed_ns,
                aa.smoothed_ns
            );
        }
    }
}
