//! Shared analysis context: the design under lint, the target device, the
//! calibrated delay tables every rule consults, and the baseline schedule
//! the structural rules analyze.

use hlsb_delay::CalibratedModel;
use hlsb_fabric::{Device, WireModel};
use hlsb_ir::Design;
use hlsb_rtlgen::ScheduledLoop;

/// Everything a [`Rule`](crate::rules::Rule) needs, built once per run.
pub struct LintContext<'a> {
    /// The design under analysis.
    pub design: &'a Design,
    /// The target device.
    pub device: &'a Device,
    /// Clock period, ns. Broadcast penalties are judged against this.
    pub clock_ns: f64,
    /// The broadcast-calibrated model (paper §4.1's delay tables).
    pub calibrated: CalibratedModel,
    /// Wire model of the target fabric, for control-net estimates.
    pub wire: WireModel,
    /// The baseline schedule, `schedule[kernel][loop]`: broadcast-blind,
    /// injection-blind and unsplit, with each loop's unrolled body in
    /// [`ScheduledLoop::looop`].
    pub schedule: &'a [Vec<ScheduledLoop>],
}

impl<'a> LintContext<'a> {
    /// Builds the context around the baseline schedule of `design`,
    /// running the analytic characterization for the target device with
    /// `seed` (findings are deterministic for a fixed seed).
    ///
    /// # Panics
    ///
    /// Panics if `schedule` does not hold one entry per loop of `design`.
    pub(crate) fn with_schedule(
        design: &'a Design,
        device: &'a Device,
        clock_mhz: f64,
        seed: u64,
        schedule: &'a [Vec<ScheduledLoop>],
    ) -> Self {
        assert!(
            schedule.len() == design.kernels.len()
                && design
                    .kernels
                    .iter()
                    .zip(schedule)
                    .all(|(k, s)| k.loops.len() == s.len()),
            "baseline schedule shape does not match design '{}'",
            design.name
        );
        LintContext {
            design,
            device,
            clock_ns: 1000.0 / clock_mhz,
            calibrated: CalibratedModel::characterize_analytic(device, seed),
            wire: WireModel::for_device(device),
            schedule,
        }
    }

    /// Interconnect-delay budget for one data broadcast: past 15 % of the
    /// period, the unbudgeted wire excess starts displacing real logic.
    pub(crate) fn data_budget_ns(&self) -> f64 {
        0.15 * self.clock_ns
    }

    /// Extra interconnect delay a `fanout`-sink single-cycle control
    /// broadcast adds over an ordinary net: the capacitive per-sink term
    /// of the wire model, which dominates the thousand-sink stall nets
    /// of §3.3 (the base/log terms are paid by any net and are already
    /// in the cell delay budget).
    pub(crate) fn control_broadcast_excess_ns(&self, fanout: usize) -> f64 {
        self.wire.speed * self.wire.c_sink_ns * fanout as f64
    }

    /// The stall/enable fanout above which the control broadcast excess
    /// eats more than 25 % of the period on this fabric.
    pub(crate) fn stall_fanout_threshold(&self) -> usize {
        let budget = 0.25 * self.clock_ns;
        let per_sink = self.wire.speed * self.wire.c_sink_ns;
        ((budget / per_sink).ceil() as usize).max(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn context<'a>(d: &'a Design, dev: &'a Device, clock_mhz: f64) -> LintContext<'a> {
        LintContext::with_schedule(d, dev, clock_mhz, 1, &[])
    }

    #[test]
    fn thresholds_are_device_calibrated() {
        let d = Design::new("t");
        let fast = Device::ultrascale_plus_vu9p();
        let slow = Device::zynq_zc706();
        let t_fast = context(&d, &fast, 300.0).stall_fanout_threshold();
        let t_slow = context(&d, &slow, 300.0).stall_fanout_threshold();
        assert!(t_fast >= 8);
        // A slower family pays more per sink, so its stall line cannot
        // sit above the fast device's.
        assert!(t_slow <= t_fast, "slow {t_slow} vs fast {t_fast}");
    }
}
