//! Structured diagnostics: what a rule found, where, and how bad it is.

use std::fmt;

/// How severe a finding is.
///
/// Ordering is semantic: `Info < Warning < Error`, so `max()` over a
/// report yields the worst finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// An optimization opportunity; impact below the flag line.
    Info,
    /// A structure likely to cost frequency or throughput.
    Warning,
    /// A defect that threatens correctness or the clock target on its
    /// own.
    Error,
}

impl Severity {
    /// SARIF `level` string for this severity.
    pub(crate) fn sarif_level(self) -> &'static str {
        match self {
            Severity::Info => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parses the display form (`info` / `warning` / `error`), as used by
    /// the CLIs' `--deny <severity>` flag.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "info" => Some(Severity::Info),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        f.write_str(s)
    }
}

/// Where in the IR a finding is anchored. HLS designs have no source
/// files, so the location is the kernel/loop hierarchy plus the pragma
/// that creates the broadcast (unroll, pipeline, array_partition).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Location {
    /// Kernel name, if the finding is inside a kernel.
    pub kernel: Option<String>,
    /// Loop name, if the finding is inside a loop.
    pub looop: Option<String>,
    /// The directive responsible (e.g. `unroll=64`, `pipeline II=1`,
    /// `array_partition cyclic factor=8`).
    pub pragma: Option<String>,
}

impl Location {
    /// `design/kernel/loop` path used in reports and SARIF logical
    /// locations.
    pub(crate) fn path(&self, design: &str) -> String {
        let mut p = design.to_string();
        if let Some(k) = &self.kernel {
            p.push('/');
            p.push_str(k);
        }
        if let Some(l) = &self.looop {
            p.push('/');
            p.push_str(l);
        }
        p
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.kernel, &self.looop) {
            (Some(k), Some(l)) => write!(f, "{k}/{l}")?,
            (Some(k), None) => write!(f, "{k}")?,
            (None, Some(l)) => write!(f, "{l}")?,
            (None, None) => write!(f, "<design>")?,
        }
        if let Some(p) = &self.pragma {
            write!(f, " [{p}]")?;
        }
        Ok(())
    }
}

/// One finding from one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Rule id (`BA01`, `VN01`, ...).
    pub rule: &'static str,
    /// Short rule name (`data-broadcast`, `fifo-multi-writer`, ...).
    pub rule_name: &'static str,
    /// Severity of this particular finding.
    pub severity: Severity,
    /// Paper section the rule reproduces (e.g. `§3.1/§4.1`).
    pub section: &'static str,
    /// The net / instruction / array / channel / module the finding is
    /// about.
    pub subject: String,
    /// Human-readable explanation.
    pub message: String,
    /// IR location.
    pub location: Location,
    /// Broadcast factor (fanout) — or, for network findings, the
    /// violating endpoint count — the finding is based on.
    pub broadcast_factor: usize,
    /// Estimated extra interconnect delay from the calibrated model, ns
    /// (0 for pure structural findings).
    pub est_penalty_ns: f64,
    /// Suggested fix, phrased in terms of this workspace's options.
    pub remedy: &'static str,
}

/// Static metadata of one rule, declared in the SARIF run even when the
/// rule did not fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleMeta {
    /// Stable rule id (`BA01`, `VN01`, ...).
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// Paper section(s) the rule reproduces.
    pub section: &'static str,
    /// One-line description (SARIF `shortDescription`).
    pub summary: &'static str,
    /// Suggested fix attached to every finding of this rule.
    pub remedy: &'static str,
}

/// The result of analyzing one design against one device with one tool.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The producing tool (`hlsb-lint`, `hlsb-verify`) — the SARIF driver
    /// name and the table header prefix.
    pub tool: &'static str,
    /// Design name.
    pub design: String,
    /// Device name.
    pub device: String,
    /// Clock target the analysis assumed, MHz.
    pub clock_mhz: f64,
    /// The tool's full rule registry (declared in SARIF metadata even for
    /// rules that did not fire).
    pub rules: Vec<RuleMeta>,
    /// Findings, worst first (severity, then estimated penalty).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Whether any finding came from the given rule id.
    pub fn has_rule(&self, id: &str) -> bool {
        self.diagnostics.iter().any(|d| d.rule == id)
    }

    /// Number of findings at exactly this severity.
    pub(crate) fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// Number of findings at or above this severity — what the CLIs'
    /// `--deny <severity>` gates on.
    pub fn count_at_least(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity >= sev)
            .count()
    }

    /// Worst severity in the report, if any finding exists.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Total estimated penalty of the findings whose rule id the
    /// predicate selects, ns. The DSE proxy passes the rules a candidate
    /// configuration does *not* remedy (BA01/BA02 ↔ broadcast-aware
    /// scheduling, PC01 ↔ skid buffers, SY01 ↔ sync pruning), yielding
    /// the residual penalty that configuration would still pay.
    pub fn penalty_where(&self, select: impl Fn(&str) -> bool) -> f64 {
        self.diagnostics
            .iter()
            .filter(|d| select(d.rule))
            .map(|d| d.est_penalty_ns)
            .sum()
    }

    /// Sorts findings worst first (severity, then estimated penalty),
    /// ties broken by rule id then subject for determinism.
    pub fn sort_worst_first(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(b.est_penalty_ns.total_cmp(&a.est_penalty_ns))
                .then(a.rule.cmp(b.rule))
                .then(a.subject.cmp(&b.subject))
        });
    }

    /// Renders the human-readable table.
    pub fn to_table(&self) -> String {
        crate::render::render_table(self)
    }

    /// Renders one JSON object per finding (JSON Lines).
    pub fn to_jsonl(&self) -> String {
        crate::render::render_jsonl(self)
    }

    /// Renders a single-run SARIF 2.1.0 document.
    pub fn to_sarif(&self) -> String {
        crate::render::render_sarif(std::slice::from_ref(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, sev: Severity) -> Diagnostic {
        Diagnostic {
            rule,
            rule_name: "test",
            severity: sev,
            section: "§0",
            subject: "x".into(),
            message: "m".into(),
            location: Location::default(),
            broadcast_factor: 2,
            est_penalty_ns: 0.1,
            remedy: "r",
        }
    }

    fn report(diags: Vec<Diagnostic>) -> Report {
        Report {
            tool: "hlsb-test",
            design: "d".into(),
            device: "dev".into(),
            clock_mhz: 300.0,
            rules: vec![],
            diagnostics: diags,
        }
    }

    #[test]
    fn severity_orders_and_maps_to_sarif() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.sarif_level(), "error");
        assert_eq!(Severity::Info.sarif_level(), "note");
        assert_eq!(Severity::Warning.to_string(), "warning");
    }

    #[test]
    fn severity_parses_its_display_form() {
        for sev in [Severity::Info, Severity::Warning, Severity::Error] {
            assert_eq!(Severity::parse(&sev.to_string()), Some(sev));
        }
        assert_eq!(Severity::parse("fatal"), None);
    }

    #[test]
    fn location_paths() {
        let loc = Location {
            kernel: Some("top".into()),
            looop: Some("main".into()),
            pragma: Some("unroll=8".into()),
        };
        assert_eq!(loc.path("d"), "d/top/main");
        assert_eq!(loc.to_string(), "top/main [unroll=8]");
        assert_eq!(Location::default().path("d"), "d");
    }

    #[test]
    fn report_queries() {
        let r = report(vec![
            diag("BA01", Severity::Warning),
            diag("PC01", Severity::Error),
        ]);
        assert!(r.has_rule("BA01"));
        assert!(!r.has_rule("SY01"));
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count_at_least(Severity::Warning), 2);
        assert_eq!(r.count_at_least(Severity::Error), 1);
        assert_eq!(r.max_severity(), Some(Severity::Error));
        assert!(!r.is_clean());
    }

    #[test]
    fn penalty_scores_aggregate_per_rule() {
        let r = report(vec![
            diag("BA01", Severity::Warning),
            diag("BA01", Severity::Warning),
            diag("PC01", Severity::Error),
        ]);
        assert!((r.penalty_where(|_| true) - 0.3).abs() < 1e-12);
        assert!((r.penalty_where(|rule| rule == "BA01") - 0.2).abs() < 1e-12);
        assert!((r.penalty_where(|rule| rule == "SY01")).abs() < 1e-12);
        // Residual after remedying the data rules: only PC01 remains.
        let residual = r.penalty_where(|rule| rule != "BA01" && rule != "BA02");
        assert!((residual - 0.1).abs() < 1e-12);
    }

    #[test]
    fn sort_puts_worst_first() {
        let mut r = report(vec![
            diag("ZZ99", Severity::Info),
            diag("BA01", Severity::Error),
            diag("AA01", Severity::Warning),
        ]);
        r.sort_worst_first();
        let order: Vec<_> = r.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(order, ["BA01", "AA01", "ZZ99"]);
    }
}
