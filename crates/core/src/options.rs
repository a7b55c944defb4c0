//! Flow options.
//!
//! Each knob has one spelling, written by its `label` (the toggle mask
//! of [`OptimizationOptions`] by its `Display`) and read back by its
//! `FromStr`: every record, job line, report label and command line
//! goes through these two, so `label().parse()` always round-trips.
//! [`OptimizationOptions`]' reader also takes four named presets
//! (`none`, `data`, `skid`, `all`), the short forms command lines use.
//! The one other written form is the long label persisted on trace root
//! spans, which nothing reads back.

use std::fmt;
use std::str::FromStr;

/// Which of the paper's optimizations the flow applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptimizationOptions {
    /// Broadcast-aware scheduling (§4.1): calibrated delays + register
    /// insertion + memory-access pipelining.
    pub broadcast_aware: bool,
    /// Synchronization pruning (§4.2): dataflow loop splitting and
    /// longest-latency-only waits.
    pub sync_pruning: bool,
    /// Skid-buffer-based pipeline control (§4.3).
    pub skid_buffer: bool,
    /// Min-area multi-level skid buffers (DP split). Only meaningful with
    /// `skid_buffer`.
    pub min_area_skid: bool,
}

impl OptimizationOptions {
    /// The paper's baseline: everything off (stock HLS behaviour).
    pub fn none() -> Self {
        OptimizationOptions::default()
    }

    /// All optimizations on (the paper's "Opt" columns).
    pub fn all() -> Self {
        OptimizationOptions {
            broadcast_aware: true,
            sync_pruning: true,
            skid_buffer: true,
            min_area_skid: true,
        }
    }

    /// Only the data-broadcast optimization (Table 3's "Opt. Data" row).
    pub fn data_only() -> Self {
        OptimizationOptions {
            broadcast_aware: true,
            ..OptimizationOptions::default()
        }
    }

    /// Skid control without the min-area split (Table 2's "Skid Buffer").
    pub fn skid_plain() -> Self {
        OptimizationOptions {
            skid_buffer: true,
            ..OptimizationOptions::default()
        }
    }
}

impl OptimizationOptions {
    /// The options' long form, written on every root span's `options`
    /// attribute: the enabled optimizations joined by `+`
    /// (`broadcast-aware+sync-pruning+skid-min-area`), or `none`. The
    /// min-area toggle shows only with skid buffers on, as `skid-min-area`
    /// in place of `skid`. Traces are persisted, so the form is frozen;
    /// everything else spells the options with [`Display`](fmt::Display).
    pub(crate) fn span_label(&self) -> String {
        let mut parts = Vec::new();
        if self.broadcast_aware {
            parts.push("broadcast-aware");
        }
        if self.sync_pruning {
            parts.push("sync-pruning");
        }
        if self.skid_buffer {
            parts.push(if self.min_area_skid {
                "skid-min-area"
            } else {
                "skid"
            });
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }
}

impl fmt::Display for OptimizationOptions {
    /// The toggle mask, the options' one spelling: `BSKM` (Broadcast-aware,
    /// Sync-pruning, sKid, Min-area skid) with `-` for an off toggle,
    /// e.g. `B--M`; `----` is the baseline.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self;
        let mask: String = [
            o.broadcast_aware,
            o.sync_pruning,
            o.skid_buffer,
            o.min_area_skid,
        ]
        .into_iter()
        .zip("BSKM".chars())
        .map(|(on, letter)| if on { letter } else { '-' })
        .collect();
        f.pad(&mask)
    }
}

impl FromStr for OptimizationOptions {
    type Err = ParseKnobError;

    /// Reads the toggle mask [`Display`](fmt::Display) writes, or a named
    /// preset: `none`, `data` ([`data_only`](Self::data_only)), `skid`
    /// ([`skid_plain`](Self::skid_plain)) or `all`.
    fn from_str(s: &str) -> Result<Self, ParseKnobError> {
        match s {
            "none" => return Ok(OptimizationOptions::none()),
            "data" => return Ok(OptimizationOptions::data_only()),
            "skid" => return Ok(OptimizationOptions::skid_plain()),
            "all" => return Ok(OptimizationOptions::all()),
            _ => {}
        }
        let toggle = |i: usize| match (s.as_bytes().get(i), b"BSKM"[i]) {
            (Some(&c), letter) if c == letter => Ok(true),
            (Some(b'-'), _) => Ok(false),
            _ => Err(ParseKnobError),
        };
        if s.len() != 4 {
            return Err(ParseKnobError);
        }
        Ok(OptimizationOptions {
            broadcast_aware: toggle(0)?,
            sync_pruning: toggle(1)?,
            skid_buffer: toggle(2)?,
            min_area_skid: toggle(3)?,
        })
    }
}

/// Forced pipeline-register injection at named stage boundaries.
///
/// Where [`OptimizationOptions::broadcast_aware`] inserts register
/// modules *reactively* (only where the calibrated model proves a chain
/// violates the budget), this knob forces them *proactively*: every
/// value produced in a named boundary cycle of the pre-injection
/// schedule and consumed combinationally in that same cycle is routed
/// through an extra `Reg` module (`hlsb_sched::inject_registers`). The
/// pipeline gets deeper — the extra latency is real, reported by probes
/// and visible to the timed simulator — in exchange for shorter
/// combinational chains after lowering, which is what the closed-loop
/// Fmax explorer (`hlsb-explore`) trades off against the clock target.
///
/// Boundaries are cycle indices of the pre-injection schedule. A
/// boundary that names a stage no loop of the design has is a
/// configuration error ([`FlowError::BadParameter`]); a boundary that
/// exists but crosses no combinational chain is a no-op.
///
/// [`FlowError::BadParameter`]: crate::FlowError::BadParameter
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum RegisterInjection {
    /// No forced registers (the classic flow).
    #[default]
    Off,
    /// Force a register after every chain source alive at each of these
    /// stage boundaries (sorted, deduplicated cycle indices).
    At(Vec<u32>),
}

impl RegisterInjection {
    /// Injection at the given boundaries, canonicalized: sorted,
    /// deduplicated, and collapsed to [`RegisterInjection::Off`] when
    /// empty — so equal configurations always hash equally in
    /// [`Flow::config_key`](crate::Flow::config_key).
    pub fn at(mut boundaries: Vec<u32>) -> Self {
        boundaries.sort_unstable();
        boundaries.dedup();
        if boundaries.is_empty() {
            RegisterInjection::Off
        } else {
            RegisterInjection::At(boundaries)
        }
    }

    /// The requested boundaries (empty when off).
    pub fn boundaries(&self) -> &[u32] {
        match self {
            RegisterInjection::Off => &[],
            RegisterInjection::At(b) => b,
        }
    }

    /// Whether any boundary is requested.
    pub fn is_enabled(&self) -> bool {
        !self.boundaries().is_empty()
    }

    /// Compact label for reports: `off` or `r1.3` (boundaries joined by
    /// `.`).
    pub fn label(&self) -> String {
        if self.is_enabled() {
            let parts: Vec<String> = self.boundaries().iter().map(u32::to_string).collect();
            format!("r{}", parts.join("."))
        } else {
            "off".to_string()
        }
    }
}

/// A knob spelling that names no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseKnobError;

impl fmt::Display for ParseKnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("unknown knob value")
    }
}

impl std::error::Error for ParseKnobError {}

impl FromStr for RegisterInjection {
    type Err = ParseKnobError;

    /// Reads a [`RegisterInjection::label`]: `off` or `r` followed by
    /// `.`-joined boundaries.
    fn from_str(s: &str) -> Result<Self, ParseKnobError> {
        if s == "off" {
            return Ok(RegisterInjection::Off);
        }
        let boundaries = s
            .strip_prefix('r')
            .ok_or(ParseKnobError)?
            .split('.')
            .map(|b| b.parse().map_err(|_| ParseKnobError))
            .collect::<Result<_, _>>()?;
        Ok(RegisterInjection::at(boundaries))
    }
}

/// Placement effort (trade runtime for quality; results stay
/// deterministic for a fixed seed and effort). Spelled `fast` or
/// `normal` ([`PlaceEffort::label`]) everywhere it is written or read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlaceEffort {
    /// Reduced annealing for tests and quick iterations.
    Fast,
    /// Default annealing.
    #[default]
    Normal,
}

impl PlaceEffort {
    /// The effort's one spelling: `fast` or `normal`.
    pub fn label(self) -> &'static str {
        match self {
            PlaceEffort::Fast => "fast",
            PlaceEffort::Normal => "normal",
        }
    }
}

impl FromStr for PlaceEffort {
    type Err = ParseKnobError;

    /// Reads a [`PlaceEffort::label`].
    fn from_str(s: &str) -> Result<Self, ParseKnobError> {
        match s {
            "fast" => Ok(PlaceEffort::Fast),
            "normal" => Ok(PlaceEffort::Normal),
            _ => Err(ParseKnobError),
        }
    }
}

/// Island partitioning of the implement stage.
///
/// With partitioning on, the netlist is cut along its dataflow seams
/// (inter-kernel FIFOs), every island is annealed independently in a
/// reserved device region, and inter-island nets are registered
/// (`hlsb-place::partition`). Islands place in parallel, yet the result
/// is a pure function of `(netlist, seed, partition)` — never of the
/// worker thread count.
///
/// Spelled `off`, `auto` or the island count ([`Partitioning::label`])
/// everywhere it is written or read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Partitioning {
    /// Flat placement: one annealer over the whole device (the classic
    /// flow, bit-identical to pre-partitioning releases).
    #[default]
    Off,
    /// Island count chosen from netlist size and device geometry
    /// (`hlsb_place::auto_islands`); small designs stay flat.
    Auto,
    /// Exactly this many islands (clamped to what the device can host;
    /// `0` and `1` mean flat).
    Fixed(u32),
}

impl Partitioning {
    /// Whether partitioning is enabled at all (`Fixed(0)` and `Fixed(1)`
    /// degenerate to flat placement).
    pub(crate) fn is_enabled(self) -> bool {
        match self {
            Partitioning::Off => false,
            Partitioning::Auto => true,
            Partitioning::Fixed(k) => k >= 2,
        }
    }

    /// The partitioning's one spelling: `off`, `auto` or the island
    /// count.
    pub fn label(self) -> String {
        match self {
            Partitioning::Off => "off".to_string(),
            Partitioning::Auto => "auto".to_string(),
            Partitioning::Fixed(k) => k.to_string(),
        }
    }
}

impl FromStr for Partitioning {
    type Err = ParseKnobError;

    /// Reads a [`Partitioning::label`].
    fn from_str(s: &str) -> Result<Self, ParseKnobError> {
        match s {
            "off" => Ok(Partitioning::Off),
            "auto" => Ok(Partitioning::Auto),
            n => n
                .parse()
                .map(Partitioning::Fixed)
                .map_err(|_| ParseKnobError),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_canonicalizes() {
        assert_eq!(RegisterInjection::at(vec![]), RegisterInjection::Off);
        assert_eq!(
            RegisterInjection::at(vec![3, 1, 3]),
            RegisterInjection::At(vec![1, 3])
        );
        assert_eq!(RegisterInjection::at(vec![3, 1]).label(), "r1.3");
        assert_eq!(RegisterInjection::Off.label(), "off");
        assert!(!RegisterInjection::Off.is_enabled());
        assert_eq!(RegisterInjection::at(vec![2]).boundaries(), &[2]);
    }

    #[test]
    fn every_knob_label_parses_back_to_itself() {
        for effort in [PlaceEffort::Fast, PlaceEffort::Normal] {
            assert_eq!(effort.label().parse(), Ok(effort));
        }
        for p in [
            Partitioning::Off,
            Partitioning::Auto,
            Partitioning::Fixed(0),
            Partitioning::Fixed(1),
            Partitioning::Fixed(2),
            Partitioning::Fixed(16),
        ] {
            assert_eq!(p.label().parse(), Ok(p));
        }
        for inject in [
            RegisterInjection::Off,
            RegisterInjection::at(vec![1]),
            RegisterInjection::at(vec![1, 3]),
        ] {
            assert_eq!(inject.label().parse(), Ok(inject));
        }
        for code in 0..16u8 {
            let options = OptimizationOptions {
                broadcast_aware: code & 1 != 0,
                sync_pruning: code & 2 != 0,
                skid_buffer: code & 4 != 0,
                min_area_skid: code & 8 != 0,
            };
            assert_eq!(options.to_string().parse(), Ok(options));
        }
        assert_eq!(PlaceEffort::Fast.label(), "fast");
        assert_eq!(OptimizationOptions::all().to_string(), "BSKM");
        assert_eq!(OptimizationOptions::data_only().to_string(), "B---");
        assert_eq!(Partitioning::Fixed(16).label(), "16");
    }

    #[test]
    fn span_labels_are_frozen() {
        // Written on every persisted root span: byte-identical forever.
        let expected = [
            ("----", "none"),
            ("B---", "broadcast-aware"),
            ("-S--", "sync-pruning"),
            ("BS--", "broadcast-aware+sync-pruning"),
            ("--K-", "skid"),
            ("B-K-", "broadcast-aware+skid"),
            ("-SK-", "sync-pruning+skid"),
            ("BSK-", "broadcast-aware+sync-pruning+skid"),
            ("---M", "none"),
            ("B--M", "broadcast-aware"),
            ("-S-M", "sync-pruning"),
            ("BS-M", "broadcast-aware+sync-pruning"),
            ("--KM", "skid-min-area"),
            ("B-KM", "broadcast-aware+skid-min-area"),
            ("-SKM", "sync-pruning+skid-min-area"),
            ("BSKM", "broadcast-aware+sync-pruning+skid-min-area"),
        ];
        for (mask, label) in expected {
            let options: OptimizationOptions = mask.parse().expect("a mask");
            assert_eq!(options.span_label(), label, "{mask}");
        }
    }

    #[test]
    fn knob_parsers_reject_other_spellings() {
        // `base` and `opt` were explore's aliases; the lowercase job mask
        // is read only by the job-line decoder.
        for bad in [
            "", "r", "r1..2", "fastest", "-1", "base", "opt", "bskm", "All",
        ] {
            assert_eq!(
                bad.parse::<OptimizationOptions>(),
                Err(ParseKnobError),
                "{bad:?}"
            );
            assert_eq!(bad.parse::<PlaceEffort>(), Err(ParseKnobError), "{bad:?}");
            assert_eq!(bad.parse::<Partitioning>(), Err(ParseKnobError), "{bad:?}");
            assert_eq!(
                bad.parse::<RegisterInjection>(),
                Err(ParseKnobError),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn earlier_spellings_keep_their_values() {
        // Every spelling a command line took before the option set had
        // one reader, with the value it read to then: the 16 masks and
        // the diagnostic binaries' four levels (explore's `none` and
        // `all` among them).
        let mut old: Vec<(String, OptimizationOptions)> = (0..16u8)
            .map(|code| {
                let letter = |bit: u8, c: char| if code & bit != 0 { c } else { '-' };
                let mask = [
                    letter(1, 'B'),
                    letter(2, 'S'),
                    letter(4, 'K'),
                    letter(8, 'M'),
                ];
                let options = OptimizationOptions {
                    broadcast_aware: code & 1 != 0,
                    sync_pruning: code & 2 != 0,
                    skid_buffer: code & 4 != 0,
                    min_area_skid: code & 8 != 0,
                };
                (mask.iter().collect(), options)
            })
            .collect();
        for (name, options) in [
            ("none", OptimizationOptions::none()),
            ("data", OptimizationOptions::data_only()),
            ("skid", OptimizationOptions::skid_plain()),
            ("all", OptimizationOptions::all()),
        ] {
            old.push((name.to_string(), options));
        }
        for (spelling, options) in old {
            assert_eq!(spelling.parse(), Ok(options), "{spelling}");
        }
    }

    #[test]
    fn presets() {
        assert!(!OptimizationOptions::none().broadcast_aware);
        let all = OptimizationOptions::all();
        assert!(all.broadcast_aware && all.sync_pruning && all.skid_buffer && all.min_area_skid);
        assert!(OptimizationOptions::data_only().broadcast_aware);
        assert!(!OptimizationOptions::data_only().skid_buffer);
        assert!(OptimizationOptions::skid_plain().skid_buffer);
        assert!(!OptimizationOptions::skid_plain().min_area_skid);
    }
}
