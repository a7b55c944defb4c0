//! The typed knob space the explorer searches.
//!
//! A [`KnobSpace`] is a cartesian product over the flow's configuration
//! knobs: the paper's 4-bit optimization cube
//! ([`OptimizationOptions`]), the HLS clock target, the number of
//! placement seeds and the placement effort. One point of the space is a
//! [`DseConfig`], which maps onto a [`Flow`] for a concrete design and
//! device.
//!
//! Points are *canonical*: `min_area_skid` without `skid_buffer` is a
//! no-op in the flow, so enumeration and sampling collapse such
//! configurations onto their `min_area_skid = false` twin instead of
//! evaluating the same implementation twice.

use hlsb::{Flow, OptimizationOptions, Partitioning, PlaceEffort};
use hlsb_fabric::Device;
use hlsb_ir::Design;
use hlsb_rng::Rng;

/// One point of the knob space: everything that distinguishes two flow
/// variants of the same design and device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DseConfig {
    /// The paper's optimization toggles (§4.1–§4.3).
    pub options: OptimizationOptions,
    /// HLS clock target, MHz.
    pub clock_mhz: f64,
    /// Placement seeds tried per implementation (best timing wins).
    pub place_seeds: u32,
    /// Placement effort.
    pub effort: PlaceEffort,
    /// Island partitioning of the implement stage.
    pub partitions: Partitioning,
}

impl DseConfig {
    /// Collapses no-op knob combinations: `min_area_skid` is only
    /// meaningful under `skid_buffer`.
    pub fn canonical(mut self) -> Self {
        if !self.options.skid_buffer {
            self.options.min_area_skid = false;
        }
        self
    }

    /// The flow this configuration denotes for a concrete design/device.
    /// `seed` is the shared base seed of the exploration (placement
    /// trials derive their own streams from it). Copies the design; to
    /// derive many points of one design, [`apply`](DseConfig::apply)
    /// each to clones of one base flow instead.
    pub fn flow(&self, design: &Design, device: &Device, seed: u64) -> Flow {
        self.apply(Flow::new(design.clone()).device(device.clone()).seed(seed))
    }

    /// Sets this configuration's knobs on `base`, a flow that already
    /// carries the design, device and seed. Clones of one base flow share
    /// its design and the design's digest.
    pub fn apply(&self, base: Flow) -> Flow {
        base.clock_mhz(self.clock_mhz)
            .options(self.options)
            .place_effort(self.effort)
            .place_seeds(self.place_seeds)
            .partitions(self.partitions)
    }

    /// Compact human-readable label, e.g. `BS-- @300 ×1 fast` (with a
    /// `pN`/`pauto` suffix when island partitioning is on): one letter
    /// per enabled optimization (Broadcast-aware, Sync-pruning, sKid,
    /// Min-area skid), clock target, placement-seed count, effort,
    /// partitioning.
    pub fn label(&self) -> String {
        format!(
            "{}{}{}{} @{:.0} ×{} {}{}",
            if self.options.broadcast_aware {
                'B'
            } else {
                '-'
            },
            if self.options.sync_pruning { 'S' } else { '-' },
            if self.options.skid_buffer { 'K' } else { '-' },
            if self.options.min_area_skid { 'M' } else { '-' },
            self.clock_mhz,
            self.place_seeds,
            self.effort.label(),
            match self.partitions {
                Partitioning::Off => String::new(),
                p => format!(" p{}", p.label()),
            }
        )
    }

    /// Identity tuple for dedup inside a space (design-independent; use
    /// [`Flow::config_key`] for the persistent store key).
    fn ident(&self) -> (bool, bool, bool, bool, u64, u32, bool, Partitioning) {
        (
            self.options.broadcast_aware,
            self.options.sync_pruning,
            self.options.skid_buffer,
            self.options.min_area_skid,
            self.clock_mhz.to_bits(),
            self.place_seeds,
            self.effort == PlaceEffort::Fast,
            self.partitions,
        )
    }
}

/// The cartesian knob space. Each field lists the values that dimension
/// may take; enumeration walks them in the written order, so results are
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct KnobSpace {
    /// Clock targets, MHz.
    pub clocks_mhz: Vec<f64>,
    /// Broadcast-aware scheduling on/off (§4.1).
    pub broadcast_aware: Vec<bool>,
    /// Synchronization pruning on/off (§4.2).
    pub sync_pruning: Vec<bool>,
    /// Skid-buffer control on/off (§4.3).
    pub skid_buffer: Vec<bool>,
    /// Min-area multi-level skid on/off.
    pub min_area_skid: Vec<bool>,
    /// Placement-seed counts.
    pub place_seeds: Vec<u32>,
    /// Placement efforts.
    pub efforts: Vec<PlaceEffort>,
    /// Island partitioning modes of the implement stage.
    pub partitions: Vec<Partitioning>,
}

impl KnobSpace {
    /// The full 4-bit optimization cube at the given clock targets, one
    /// placement seed, fast effort — the space of the paper's Table 2/3
    /// ablations, and the default for `hlsb-bench dse`.
    pub fn optimization_cube(clocks_mhz: Vec<f64>) -> Self {
        KnobSpace {
            clocks_mhz,
            broadcast_aware: vec![false, true],
            sync_pruning: vec![false, true],
            skid_buffer: vec![false, true],
            min_area_skid: vec![false, true],
            place_seeds: vec![1],
            efforts: vec![PlaceEffort::Fast],
            partitions: vec![Partitioning::Off],
        }
    }

    /// Every canonical configuration of the space, deduplicated, in
    /// deterministic order.
    pub fn enumerate(&self) -> Vec<DseConfig> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for &clock_mhz in &self.clocks_mhz {
            for &partitions in &self.partitions {
                for &effort in &self.efforts {
                    for &place_seeds in &self.place_seeds {
                        for &broadcast_aware in &self.broadcast_aware {
                            for &sync_pruning in &self.sync_pruning {
                                for &skid_buffer in &self.skid_buffer {
                                    for &min_area_skid in &self.min_area_skid {
                                        let cfg = DseConfig {
                                            options: OptimizationOptions {
                                                broadcast_aware,
                                                sync_pruning,
                                                skid_buffer,
                                                min_area_skid,
                                            },
                                            clock_mhz,
                                            place_seeds,
                                            effort,
                                            partitions,
                                        }
                                        .canonical();
                                        if seen.insert(cfg.ident()) {
                                            out.push(cfg);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Number of canonical configurations.
    pub fn size(&self) -> usize {
        self.enumerate().len()
    }

    /// One uniformly sampled canonical configuration.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is empty.
    pub fn sample(&self, rng: &mut Rng) -> DseConfig {
        let pick = |rng: &mut Rng, v: &[bool]| v[rng.gen_index(v.len())];
        DseConfig {
            options: OptimizationOptions {
                broadcast_aware: pick(rng, &self.broadcast_aware),
                sync_pruning: pick(rng, &self.sync_pruning),
                skid_buffer: pick(rng, &self.skid_buffer),
                min_area_skid: pick(rng, &self.min_area_skid),
            },
            clock_mhz: self.clocks_mhz[rng.gen_index(self.clocks_mhz.len())],
            place_seeds: self.place_seeds[rng.gen_index(self.place_seeds.len())],
            effort: self.efforts[rng.gen_index(self.efforts.len())],
            partitions: self.partitions[rng.gen_index(self.partitions.len())],
        }
        .canonical()
    }

    /// Samples up to `n` *distinct* canonical configurations. Returns
    /// fewer when the space is smaller than `n`. Deterministic for a
    /// fixed seed.
    pub fn sample_distinct(&self, n: usize, seed: u64) -> Vec<DseConfig> {
        let total = self.size();
        let mut rng = Rng::seed_from_u64(seed);
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        // The rejection loop terminates: once every point was seen the
        // bound below stops it.
        let mut attempts = 0usize;
        while out.len() < n.min(total) && attempts < 64 * total.max(1) {
            attempts += 1;
            let cfg = self.sample(&mut rng);
            if seen.insert(cfg.ident()) {
                out.push(cfg);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_enumerates_twelve_canonical_points_per_clock() {
        // 8 combos without skid collapse M; with skid M is free: 4 + 8.
        let space = KnobSpace::optimization_cube(vec![300.0]);
        let cfgs = space.enumerate();
        assert_eq!(cfgs.len(), 12);
        assert_eq!(space.size(), 12);
        assert!(cfgs
            .iter()
            .all(|c| c.options.skid_buffer || !c.options.min_area_skid));
        // Two clocks double the space.
        assert_eq!(KnobSpace::optimization_cube(vec![250.0, 300.0]).size(), 24);
    }

    #[test]
    fn enumeration_is_deterministic_and_labels_are_unique() {
        let space = KnobSpace::optimization_cube(vec![250.0, 300.0]);
        assert_eq!(space.enumerate(), space.enumerate());
        let labels: std::collections::HashSet<String> =
            space.enumerate().iter().map(DseConfig::label).collect();
        assert_eq!(labels.len(), space.size(), "labels must be unique");
    }

    #[test]
    fn sampling_is_seeded_and_distinct() {
        let space = KnobSpace::optimization_cube(vec![250.0, 300.0, 350.0]);
        let a = space.sample_distinct(10, 7);
        let b = space.sample_distinct(10, 7);
        assert_eq!(a, b, "same seed, same samples");
        assert_eq!(a.len(), 10);
        let c = space.sample_distinct(10, 8);
        assert_ne!(a, c, "different seed, different samples");
        // Requesting more than the space yields the whole space.
        let all = space.sample_distinct(10_000, 1);
        assert_eq!(all.len(), space.size());
        assert!(all.iter().all(|cfg| *cfg == cfg.canonical()));
    }

    #[test]
    fn flows_carry_the_config() {
        let design = hlsb_ir::Design::new("d");
        let device = Device::ultrascale_plus_vu9p();
        let cfg = DseConfig {
            options: OptimizationOptions::all(),
            clock_mhz: 333.0,
            place_seeds: 2,
            effort: PlaceEffort::Fast,
            partitions: Partitioning::Off,
        };
        let flow = cfg.flow(&design, &device, 5);
        let other = cfg.flow(&design, &device, 5);
        assert_eq!(flow.config_key(), other.config_key());
        let different = DseConfig {
            clock_mhz: 300.0,
            ..cfg
        }
        .flow(&design, &device, 5);
        assert_ne!(flow.config_key(), different.config_key());
        assert_eq!(cfg.label(), "BSKM @333 ×2 fast");
    }
}
