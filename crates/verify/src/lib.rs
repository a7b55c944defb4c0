//! # hlsb-verify — static dataflow and schedule-contract verifier
//!
//! The correctness gate in front of the optimizing flow: where
//! `hlsb-lint` estimates how much frequency the paper's implicit
//! broadcasts will cost, this crate checks whether the surrounding
//! design and the decisions the flow made are *sound* at all. Two pass
//! families:
//!
//! 1. **Dataflow network analysis** ([`check_network`]) on the input
//!    [`hlsb_ir::Design`]: builds the kernel↔FIFO channel graph and
//!    statically detects single-writer/single-reader violations, shared
//!    arrays written by concurrent dataflow kernels (race), channel
//!    cycles and sequenced channels whose capacity cannot cover the
//!    in-flight token bound (deadlock), and dead channels / unobservable
//!    kernels. Runs in microseconds — cheap enough to pre-gate every
//!    candidate of a design-space exploration.
//!
//! 2. **Schedule-contract checking** ([`check_schedule`] /
//!    [`check_lower`]) on the flow's cached schedule and lowering
//!    artifacts: every broadcast-aware chain cut must land below the
//!    device-calibrated delay threshold (§4.1), every skid depth must
//!    satisfy the paper's `N+1` bound plus the registered-gate slack
//!    (§4.3), and every sync-prune decision must be covered by a waited
//!    module's static latency (§4.2).
//!
//! | rule | name | detects |
//! |---|---|---|
//! | `VN01` | fifo-multi-writer | a FIFO written from more than one loop |
//! | `VN02` | fifo-multi-reader | a FIFO read from more than one loop |
//! | `VN03` | array-race | an array written while concurrent kernels access it |
//! | `VN04` | channel-deadlock | a channel cycle, or capacity/order that cannot clear |
//! | `VN05` | dead-channel | a FIFO neither read nor written by any kernel |
//! | `VN06` | dead-kernel | a kernel with no observable effect that is never called |
//! | `VC01` | cut-threshold | a scheduled chain past the clock budget without a violation record |
//! | `VC02` | skid-depth | a skid buffer below the `N+1` + gate-slack bound |
//! | `VC03` | illegal-prune | a pruned done-signal not covered by the waited set |
//!
//! Findings use the shared [`hlsb_findings`] machinery, so verify and
//! lint reports render through the same table/JSONL/SARIF paths and
//! merge into one SARIF log with distinct rule IDs.
//!
//! # Example
//!
//! ```
//! use hlsb_ir::builder::DesignBuilder;
//! use hlsb_ir::types::DataType;
//!
//! # fn main() -> Result<(), hlsb_ir::IrError> {
//! let mut b = DesignBuilder::new("two_writers");
//! let f = b.fifo("ch", DataType::Int(32), 2);
//! let sink = b.fifo("out", DataType::Int(32), 2);
//! b.dataflow();
//! let mut k1 = b.kernel("producer_a");
//! let mut l = k1.pipelined_loop("w", 16, 1);
//! let v = l.indvar("i");
//! l.fifo_write(f, v);
//! l.finish();
//! k1.finish();
//! let mut k2 = b.kernel("producer_b");
//! let mut l = k2.pipelined_loop("w", 16, 1);
//! let v = l.indvar("i");
//! l.fifo_write(f, v);
//! l.finish();
//! k2.finish();
//! let mut k3 = b.kernel("consumer");
//! let mut l = k3.pipelined_loop("r", 32, 1);
//! let v = l.fifo_read(f, DataType::Int(32));
//! l.fifo_write(sink, v);
//! l.finish();
//! k3.finish();
//! let design = b.finish()?;
//!
//! let report = hlsb_verify::verify_network(&design, "VU9P", 300.0);
//! assert!(report.has_rule("VN01")); // two producers write `ch`
//! # Ok(())
//! # }
//! ```

pub mod contract;
pub mod network;

pub use contract::{check_lower, check_schedule, LoopContract};
pub use network::check_network;

use hlsb_findings::{Diagnostic, Location, Report, RuleMeta, Severity};
use hlsb_ir::Design;

/// SARIF driver name of this tool.
pub(crate) const TOOL: &str = "hlsb-verify";

/// The full rule registry, in id order.
pub(crate) const RULES: [RuleMeta; 9] = [
    RuleMeta {
        id: "VN01",
        name: "fifo-multi-writer",
        section: "§3.2",
        summary: "A FIFO channel is written from more than one loop",
        remedy: "dedicate one producer loop per channel (split the stream or add a merge kernel)",
    },
    RuleMeta {
        id: "VN02",
        name: "fifo-multi-reader",
        section: "§3.2",
        summary: "A FIFO channel is read from more than one loop",
        remedy: "dedicate one consumer loop per channel (duplicate the stream with a tee kernel)",
    },
    RuleMeta {
        id: "VN03",
        name: "array-race",
        section: "§3.2",
        summary: "An array is written while multiple concurrent dataflow kernels access it",
        remedy: "privatize the array per kernel or stream the data through a FIFO channel",
    },
    RuleMeta {
        id: "VN04",
        name: "channel-deadlock",
        section: "§3.2/§4.3",
        summary: "A channel cycle or write/read order whose FIFO capacity cannot clear",
        remedy: "break the channel cycle, reorder the loops, or deepen the FIFO to the token bound",
    },
    RuleMeta {
        id: "VN05",
        name: "dead-channel",
        section: "§3.2",
        summary: "A FIFO channel is neither read nor written by any kernel",
        remedy: "remove the unused channel declaration",
    },
    RuleMeta {
        id: "VN06",
        name: "dead-kernel",
        section: "§3.2",
        summary: "A kernel with no observable effect that no other kernel calls",
        remedy: "remove the kernel or connect its results to an output, store or channel",
    },
    RuleMeta {
        id: "VC01",
        name: "cut-threshold",
        section: "§4.1",
        summary: "A scheduled chain exceeds the clock budget without a recorded violation",
        remedy:
            "re-run broadcast-aware scheduling; the chain cut must land below clock_ns * margin",
    },
    RuleMeta {
        id: "VC02",
        name: "skid-depth",
        section: "§4.3",
        summary: "A skid buffer is shallower than the N+1 bound plus the registered-gate slack",
        remedy: "size each buffer to segment length + 1 + GATE_PIPELINE slots",
    },
    RuleMeta {
        id: "VC03",
        name: "illegal-prune",
        section: "§4.2",
        summary: "A pruned done-signal is not covered by a waited module's static latency",
        remedy: "only prune fixed-latency modules dominated by the waited set's longest latency",
    },
];

/// Metadata of all rules, in id order — the registry every verify
/// [`Report`] carries for SARIF rendering.
pub(crate) fn rule_metas() -> Vec<RuleMeta> {
    RULES.to_vec()
}

/// An empty verify report for the given analysis context.
pub fn report(design: &str, device: &str, clock_mhz: f64) -> Report {
    Report {
        tool: TOOL,
        design: design.to_string(),
        device: device.to_string(),
        clock_mhz,
        rules: rule_metas(),
        diagnostics: Vec::new(),
    }
}

/// Runs the full dataflow network analysis over `design` and returns the
/// findings as a sorted report. `device` and `clock_mhz` only label the
/// report — the network rules are structural and device-independent.
pub fn verify_network(design: &Design, device: &str, clock_mhz: f64) -> Report {
    let mut rep = report(&design.name, device, clock_mhz);
    network::check_network(design, &mut rep.diagnostics);
    rep.sort_worst_first();
    rep
}

/// Builds one finding of rule `id`, filling the rule metadata from the
/// registry.
///
/// # Panics
///
/// Panics if `id` is not a registered rule.
pub(crate) fn finding(
    id: &str,
    severity: Severity,
    subject: String,
    message: String,
    location: Location,
    factor: usize,
    est_penalty_ns: f64,
) -> Diagnostic {
    let meta = RULES
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("unregistered verify rule {id}"));
    Diagnostic {
        rule: meta.id,
        rule_name: meta.name,
        severity,
        section: meta.section,
        subject,
        message,
        location,
        broadcast_factor: factor,
        est_penalty_ns,
        remedy: meta.remedy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let ids: Vec<_> = RULES.iter().map(|r| r.id).collect();
        assert_eq!(
            ids,
            ["VN01", "VN02", "VN03", "VN04", "VN05", "VN06", "VC01", "VC02", "VC03"]
        );
        for r in &RULES {
            assert!(!r.name.is_empty());
            assert!(r.section.contains('§'), "{} cites no section", r.id);
            assert!(!r.summary.is_empty());
            assert!(!r.remedy.is_empty());
        }
    }

    #[test]
    fn report_carries_tool_and_registry() {
        let r = report("d", "dev", 300.0);
        assert_eq!(r.tool, "hlsb-verify");
        assert_eq!(r.rules.len(), RULES.len());
        assert!(r.is_clean());
        let sarif = r.to_sarif();
        assert!(sarif.contains("\"name\":\"hlsb-verify\""));
        assert!(sarif.contains("\"id\":\"VC03\""));
    }
}
