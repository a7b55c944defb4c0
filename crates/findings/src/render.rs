//! Report renderers: human-readable table, JSON Lines and SARIF 2.1.0.
//!
//! JSON is emitted by hand — the workspace builds offline with no
//! external dependencies, so there is no serde here. Strings are escaped
//! by the workspace codec's [`json_escape`].

use crate::diag::{Diagnostic, Report};
use crate::json::json_escape;
use std::fmt::Write as _;

/// Formats a float for JSON: finite, plain decimal notation.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "null".into()
    }
}

/// Renders the human-readable findings table.
pub fn render_table(report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} on {} @ {:.0} MHz — {} finding(s)",
        report.tool,
        report.design,
        report.device,
        report.clock_mhz,
        report.diagnostics.len()
    );
    if report.diagnostics.is_empty() {
        let _ = writeln!(out, "  clean: no findings above the flag lines");
        return out;
    }
    let _ = writeln!(
        out,
        "{:<7} {:<5} {:<9} {:<28} {:>6} {:>9}  SUBJECT",
        "SEV", "RULE", "SECTION", "LOCATION", "BF", "EST(ns)"
    );
    for d in &report.diagnostics {
        let _ = writeln!(
            out,
            "{:<7} {:<5} {:<9} {:<28} {:>6} {:>9.2}  {}",
            d.severity.to_string(),
            d.rule,
            d.section,
            d.location.to_string(),
            d.broadcast_factor,
            d.est_penalty_ns,
            d.subject
        );
        let _ = writeln!(out, "        {}", d.message);
        let _ = writeln!(out, "        fix: {}", d.remedy);
    }
    let _ = writeln!(
        out,
        "summary: {} error(s), {} warning(s), {} info",
        report.count(crate::Severity::Error),
        report.count(crate::Severity::Warning),
        report.count(crate::Severity::Info),
    );
    out
}

fn diagnostic_json(report: &Report, d: &Diagnostic) -> String {
    let mut o = String::from("{");
    let _ = write!(
        o,
        "\"tool\":\"{}\",\"design\":\"{}\",\"device\":\"{}\",\"rule\":\"{}\",\"name\":\"{}\",\
         \"severity\":\"{}\",\"section\":\"{}\",\"subject\":\"{}\",",
        json_escape(report.tool),
        json_escape(&report.design),
        json_escape(&report.device),
        d.rule,
        d.rule_name,
        d.severity,
        json_escape(d.section),
        json_escape(&d.subject),
    );
    let _ = write!(
        o,
        "\"kernel\":{},\"loop\":{},\"pragma\":{},",
        d.location
            .kernel
            .as_ref()
            .map_or("null".into(), |k| format!("\"{}\"", json_escape(k))),
        d.location
            .looop
            .as_ref()
            .map_or("null".into(), |l| format!("\"{}\"", json_escape(l))),
        d.location
            .pragma
            .as_ref()
            .map_or("null".into(), |p| format!("\"{}\"", json_escape(p))),
    );
    let _ = write!(
        o,
        "\"broadcast_factor\":{},\"est_penalty_ns\":{},\"message\":\"{}\",\"remedy\":\"{}\"}}",
        d.broadcast_factor,
        json_num(d.est_penalty_ns),
        json_escape(&d.message),
        json_escape(d.remedy),
    );
    o
}

/// Renders one JSON object per finding, newline-separated (JSON Lines).
pub fn render_jsonl(report: &Report) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        out.push_str(&diagnostic_json(report, d));
        out.push('\n');
    }
    out
}

/// Emits one SARIF run: driver metadata (tool name + rule registry) and
/// the results of every report in `group` (all from the same tool).
fn sarif_run(tool: &str, group: &[&Report]) -> String {
    // The rule registry comes from the first report of the group — every
    // report produced by one tool carries the same registry.
    let mut rules_json = String::new();
    let rules = group.first().map(|r| r.rules.as_slice()).unwrap_or(&[]);
    for (i, r) in rules.iter().enumerate() {
        if i > 0 {
            rules_json.push(',');
        }
        let _ = write!(
            rules_json,
            "{{\"id\":\"{}\",\"name\":\"{}\",\
             \"shortDescription\":{{\"text\":\"{}\"}},\
             \"help\":{{\"text\":\"{}\"}},\
             \"properties\":{{\"paperSection\":\"{}\"}}}}",
            r.id,
            r.name,
            json_escape(r.summary),
            json_escape(r.remedy),
            json_escape(r.section),
        );
    }

    let mut results_json = String::new();
    let mut first = true;
    for report in group {
        for d in &report.diagnostics {
            if !first {
                results_json.push(',');
            }
            first = false;
            let _ = write!(
                results_json,
                "{{\"ruleId\":\"{}\",\"level\":\"{}\",\
                 \"message\":{{\"text\":\"{}\"}},\
                 \"locations\":[{{\"logicalLocations\":[{{\
                 \"fullyQualifiedName\":\"{}\",\"kind\":\"function\"}}]}}],\
                 \"properties\":{{\"subject\":\"{}\",\"broadcastFactor\":{},\
                 \"estPenaltyNs\":{},\"paperSection\":\"{}\",\
                 \"device\":\"{}\",\"remedy\":\"{}\"}}}}",
                d.rule,
                d.severity.sarif_level(),
                json_escape(&d.message),
                json_escape(&d.location.path(&report.design)),
                json_escape(&d.subject),
                d.broadcast_factor,
                json_num(d.est_penalty_ns),
                json_escape(d.section),
                json_escape(&report.device),
                json_escape(d.remedy),
            );
        }
    }

    format!(
        "{{\"tool\":{{\"driver\":{{\"name\":\"{}\",\
         \"version\":\"{}\",\"informationUri\":\
         \"https://example.com/hlsb\",\"rules\":[{rules_json}]}}}},\
         \"results\":[{results_json}]}}",
        json_escape(tool),
        env!("CARGO_PKG_VERSION"),
    )
}

/// Renders one SARIF 2.1.0 document covering all `reports`, grouped into
/// one run per producing tool — so lint and verify findings land in a
/// single log with distinct rule IDs and per-driver rule metadata.
/// Findings reference logical locations (`design/kernel/loop`) since HLS
/// IR has no source files.
pub fn render_sarif(reports: &[Report]) -> String {
    // Group by tool, preserving first-seen order.
    let mut tools: Vec<&'static str> = Vec::new();
    for r in reports {
        if !tools.contains(&r.tool) {
            tools.push(r.tool);
        }
    }

    let mut runs_json = String::new();
    for (i, tool) in tools.iter().enumerate() {
        if i > 0 {
            runs_json.push(',');
        }
        let group: Vec<&Report> = reports.iter().filter(|r| r.tool == *tool).collect();
        runs_json.push_str(&sarif_run(tool, &group));
    }

    format!(
        "{{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/\
         Schemata/sarif-schema-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{runs_json}]}}",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Location, RuleMeta, Severity};

    fn sample() -> Report {
        Report {
            tool: "hlsb-lint",
            design: "demo".into(),
            device: "VU9P".into(),
            clock_mhz: 300.0,
            rules: vec![
                RuleMeta {
                    id: "BA01",
                    name: "data-broadcast",
                    section: "§3.1/§4.1",
                    summary: "wide data broadcast",
                    remedy: "use broadcast_aware",
                },
                RuleMeta {
                    id: "BA02",
                    name: "control-broadcast",
                    section: "§3.2",
                    summary: "wide control broadcast",
                    remedy: "use skid buffers",
                },
            ],
            diagnostics: vec![Diagnostic {
                rule: "BA01",
                rule_name: "data-broadcast",
                severity: Severity::Error,
                section: "§3.1/§4.1",
                subject: "coef \"q\"".into(),
                message: "64-way\nbroadcast".into(),
                location: Location {
                    kernel: Some("top".into()),
                    looop: Some("main".into()),
                    pragma: Some("unroll=64".into()),
                },
                broadcast_factor: 64,
                est_penalty_ns: 1.3,
                remedy: "use \\ broadcast_aware",
            }],
        }
    }

    #[test]
    fn table_lists_finding_and_summary() {
        let t = render_table(&sample());
        assert!(t.contains("hlsb-lint: demo on VU9P"));
        assert!(t.contains("BA01"));
        assert!(t.contains("top/main [unroll=64]"));
        assert!(t.contains("1 error(s)"));
        let clean = Report {
            diagnostics: vec![],
            ..sample()
        };
        assert!(render_table(&clean).contains("clean"));
    }

    #[test]
    fn jsonl_is_one_escaped_object_per_line() {
        let j = render_jsonl(&sample());
        assert_eq!(j.lines().count(), 1);
        let line = j.lines().next().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"tool\":\"hlsb-lint\""));
        assert!(line.contains("\"rule\":\"BA01\""));
        assert!(line.contains("64-way\\nbroadcast"));
        assert!(line.contains("\"est_penalty_ns\":1.3000"));
        assert!(line.contains("coef \\\"q\\\""));
    }

    #[test]
    fn sarif_has_schema_rules_and_results() {
        let s = render_sarif(&[sample()]);
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("\"name\":\"hlsb-lint\""));
        // Every registered rule is declared in metadata even if only one
        // fired.
        for id in ["BA01", "BA02"] {
            assert!(s.contains(&format!("\"id\":\"{id}\"")), "{id} missing");
        }
        assert!(s.contains("\"ruleId\":\"BA01\""));
        assert!(s.contains("\"level\":\"error\""));
        assert!(s.contains("\"fullyQualifiedName\":\"demo/top/main\""));
        // Balanced braces — a cheap structural sanity check on the
        // hand-rolled JSON.
        let open = s.matches('{').count();
        let close = s.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn sarif_merges_multiple_reports_into_one_run() {
        let a = sample();
        let mut b = sample();
        b.design = "other".into();
        let s = render_sarif(&[a, b]);
        assert_eq!(s.matches("\"ruleId\":\"BA01\"").count(), 2);
        assert_eq!(s.matches("\"runs\":[").count(), 1);
        assert_eq!(s.matches("\"driver\"").count(), 1);
    }

    #[test]
    fn sarif_groups_distinct_tools_into_separate_runs() {
        let lint = sample();
        let mut verify = sample();
        verify.tool = "hlsb-verify";
        verify.rules = vec![RuleMeta {
            id: "VN01",
            name: "fifo-multi-writer",
            section: "§2",
            summary: "two loops write one FIFO",
            remedy: "dedicate the channel",
        }];
        verify.diagnostics[0].rule = "VN01";
        let s = render_sarif(&[lint, verify]);
        assert_eq!(s.matches("\"runs\":[").count(), 1);
        assert_eq!(s.matches("\"driver\"").count(), 2);
        assert!(s.contains("\"name\":\"hlsb-lint\""));
        assert!(s.contains("\"name\":\"hlsb-verify\""));
        assert!(s.contains("\"ruleId\":\"VN01\""));
        // Each run declares only its own tool's rules.
        assert_eq!(s.matches("\"id\":\"VN01\"").count(), 1);
        let open = s.matches('{').count();
        let close = s.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn empty_report_list_is_still_valid_sarif() {
        let s = render_sarif(&[]);
        assert!(s.contains("\"runs\":[]"));
        let open = s.matches('{').count();
        let close = s.matches('}').count();
        assert_eq!(open, close);
    }
}
