//! Shared analysis context: the design under lint, the target device, the
//! calibrated delay tables every rule consults, and the baseline schedule
//! the structural rules analyze.

use hlsb_delay::{CalibratedModel, OpClass};
use hlsb_fabric::{Device, WireModel};
use hlsb_ir::Design;
use hlsb_rtlgen::ScheduledLoop;

/// Everything a [`Rule`](crate::Rule) needs, built once per run.
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
    pub fn with_schedule(
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
    pub fn data_budget_ns(&self) -> f64 {
        0.15 * self.clock_ns
    }

    /// Indicative broadcast-factor flag line for this device at this
    /// clock: the first power of two whose calibrated wire excess on the
    /// int-ALU curve exceeds [`data_budget_ns`](Self::data_budget_ns).
    /// Slower fabrics and faster clocks both lower the line. BA01 judges
    /// each finding at its exact fanout; this quantized figure is for
    /// reports and what-if summaries.
    pub fn data_broadcast_threshold(&self) -> usize {
        let budget = self.data_budget_ns();
        let mut bf = 2usize;
        while bf < 4096 && self.calibrated.wire_excess_ns(OpClass::IntAlu, bf) < budget {
            bf *= 2;
        }
        bf
    }

    /// Extra interconnect delay a `fanout`-sink single-cycle control
    /// broadcast adds over an ordinary net: the capacitive per-sink term
    /// of the wire model, which dominates the thousand-sink stall nets
    /// of §3.3 (the base/log terms are paid by any net and are already
    /// in the cell delay budget).
    pub fn control_broadcast_excess_ns(&self, fanout: usize) -> f64 {
        self.wire.speed * self.wire.c_sink_ns * fanout as f64
    }

    /// The stall/enable fanout above which the control broadcast excess
    /// eats more than 25 % of the period on this fabric.
    pub fn stall_fanout_threshold(&self) -> usize {
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
        let ctx_fast = context(&d, &fast, 300.0);
        let ctx_slow = context(&d, &slow, 300.0);
        let t_fast = ctx_fast.data_broadcast_threshold();
        let t_slow = ctx_slow.data_broadcast_threshold();
        assert!((2..=4096).contains(&t_fast));
        // A slower family reaches the same wire excess at a smaller
        // fanout, so its flag line cannot sit above the fast device's.
        assert!(t_slow <= t_fast, "slow {t_slow} vs fast {t_fast}");
        assert!(ctx_fast.stall_fanout_threshold() >= 8);
    }

    #[test]
    fn faster_clock_lowers_the_data_flag_line() {
        let d = Design::new("t");
        let dev = Device::ultrascale_plus_vu9p();
        let at = |mhz| context(&d, &dev, mhz).data_broadcast_threshold();
        assert!(at(500.0) <= at(150.0));
    }
}
