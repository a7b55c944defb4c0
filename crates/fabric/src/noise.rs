//! Deterministic measurement noise.
//!
//! Physical implementation tools are heuristic; the paper smooths its
//! skeleton measurements by averaging neighbouring broadcast factors to
//! "suppress random noise caused by the heuristic optimization in
//! downstream processes" (§4.1). To exercise that machinery we perturb the
//! model's delays with *deterministic* pseudo-noise keyed on the
//! measurement identity, so results are reproducible across runs yet look
//! like real P&R jitter.

/// A deterministic noise source with a fixed relative amplitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Peak relative amplitude (e.g. 0.05 = ±5%).
    pub amplitude: f64,
    /// Seed mixed into every sample.
    pub seed: u64,
}

impl NoiseModel {
    /// Noise with the given amplitude and seed.
    pub fn new(amplitude: f64, seed: u64) -> Self {
        NoiseModel { amplitude, seed }
    }

    /// Returns `value` perturbed by a deterministic factor in
    /// `[1 - amplitude, 1 + amplitude]`, keyed on `(key_a, key_b)`.
    pub fn perturb(&self, value: f64, key_a: u64, key_b: u64) -> f64 {
        if self.amplitude == 0.0 {
            return value;
        }
        let h = splitmix64(
            self.seed ^ key_a.rotate_left(17) ^ key_b.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        // Map to [-1, 1).
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        value * (1.0 + self.amplitude * unit)
    }
}

/// SplitMix64 — small, high-quality 64-bit mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let n = NoiseModel::new(0.05, 42);
        assert_eq!(n.perturb(1.0, 3, 7), n.perturb(1.0, 3, 7));
        assert_ne!(n.perturb(1.0, 3, 7), n.perturb(1.0, 3, 8));
    }

    #[test]
    fn bounded_amplitude() {
        let n = NoiseModel::new(0.05, 1);
        for k in 0..1000u64 {
            let v = n.perturb(10.0, k, k * 31);
            assert!((9.5..=10.5).contains(&v), "sample {v} out of ±5%");
        }
    }

    #[test]
    fn silent_is_identity() {
        let n = NoiseModel::new(0.0, 0);
        assert_eq!(n.perturb(3.25, 9, 9), 3.25);
    }

    #[test]
    fn seeds_decorrelate() {
        let a = NoiseModel::new(0.05, 1);
        let b = NoiseModel::new(0.05, 2);
        let same = (0..100u64)
            .filter(|&k| a.perturb(1.0, k, 0) == b.perturb(1.0, k, 0))
            .count();
        assert!(same < 5, "{same} collisions between different seeds");
    }
}
