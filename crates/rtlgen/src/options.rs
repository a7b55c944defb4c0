//! Lowering options.

/// Pipeline flow-control style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlStyle {
    /// Conventional HLS control: broadcast the FIFO-status stall/enable to
    /// every register of the pipeline (paper §3.3).
    #[default]
    Stall,
    /// Skid-buffer-based control (§4.3): always-flowing pipeline with
    /// valid bits and a bounded bypass buffer.
    Skid {
        /// Place buffers at DP-optimized cut points (Fig. 12) instead of a
        /// single buffer at the end of the pipeline.
        min_area: bool,
    },
}

/// Options controlling RTL generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RtlOptions {
    /// Flow-control style for pipelined loops.
    pub control: ControlStyle,
    /// Prune parallel-module synchronization to the longest static latency
    /// (§4.2 case 2).
    pub sync_pruning: bool,
    /// Extra registered hops on inter-kernel channels, provisioned in the
    /// flow-control logic. Island-partitioned placement registers every
    /// net that crosses an island boundary, which adds one cycle of
    /// latency per crossing; skid buffers must grow by the same number of
    /// slots to keep the no-overflow contract (VC02). Zero for flat
    /// placement.
    pub crossing_slots: u64,
}

impl RtlOptions {
    /// The paper's baseline: stall control, full synchronization.
    pub fn baseline() -> Self {
        RtlOptions {
            control: ControlStyle::Stall,
            sync_pruning: false,
            crossing_slots: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_baseline() {
        assert_eq!(RtlOptions::default().control, ControlStyle::Stall);
        assert!(!RtlOptions::default().sync_pruning);
        assert_eq!(RtlOptions::baseline(), RtlOptions::default());
    }
}
