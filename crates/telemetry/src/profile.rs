//! Self-time profiling over [`TraceTree`] span trees.
//!
//! A span's *total* time is its own duration; its *self* time is that
//! duration minus the time covered by its children — the time genuinely
//! spent at that level rather than delegated. Children that run in
//! parallel (placement trials) overlap, so the covered time is the union
//! of their windows, not the sum. Aggregating by span path
//! (`flow/implement/trial-0`) across one or many trees turns raw traces
//! into the classic profiler questions: where does the wall clock go,
//! and which stage actually burns it.
//!
//! Two renderings: a sorted self-time table, and the collapsed-stack
//! format (`path;sub;sub value`) that flamegraph tooling ingests
//! directly.

use std::collections::BTreeMap;

use hlsb_trace::{SpanNode, TraceTree};

/// Aggregated timing for one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Slash-joined span path from the root (e.g. `flow/implement`).
    pub path: String,
    /// Number of spans aggregated into this row.
    pub count: u64,
    /// Total wall time of those spans, milliseconds.
    pub total_ms: f64,
    /// Self wall time, milliseconds: the span's duration minus the union
    /// of its children's windows, each clipped to the span's own window.
    /// Overlapping (parallel) children count once, so this is never
    /// negative and a parent whose children overlap keeps the time they
    /// do not cover.
    pub self_ms: f64,
}

/// Aggregates one or more span trees by span path. Rows are sorted by
/// descending self time (ties broken by path, so output is stable).
pub fn self_time(trees: &[&TraceTree]) -> Vec<ProfileRow> {
    let mut by_path: BTreeMap<String, ProfileRow> = BTreeMap::new();
    for tree in trees {
        for span in &tree.spans {
            let self_us = span.dur_us - covered_us(tree, span);
            let path = tree.path(span.id);
            let row = by_path.entry(path.clone()).or_insert(ProfileRow {
                path,
                count: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
            row.count += 1;
            row.total_ms += span.dur_us / 1000.0;
            row.self_ms += self_us / 1000.0;
        }
    }
    let mut rows: Vec<ProfileRow> = by_path.into_values().collect();
    rows.sort_by(|a, b| {
        b.self_ms
            .total_cmp(&a.self_ms)
            .then_with(|| a.path.cmp(&b.path))
    });
    rows
}

/// Length of the union of `parent`'s child windows, each clipped to the
/// parent's own window.
fn covered_us(tree: &TraceTree, parent: &SpanNode) -> f64 {
    let (start, end) = (parent.start_us, parent.start_us + parent.dur_us);
    let mut windows: Vec<(f64, f64)> = tree
        .children(parent.id)
        .map(|c| (c.start_us.max(start), (c.start_us + c.dur_us).min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    windows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut covered, mut reach) = (0.0, start);
    for (s, e) in windows {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    covered
}

/// Renders profile rows as an aligned table (self-time descending, with
/// a totals line).
pub fn render_table(rows: &[ProfileRow]) -> String {
    let width = rows
        .iter()
        .map(|r| r.path.len())
        .max()
        .unwrap_or(4)
        .max("path".len());
    let mut out = format!(
        "{:<width$} {:>7} {:>12} {:>12} {:>6}\n",
        "path", "count", "self (ms)", "total (ms)", "self%"
    );
    let self_sum: f64 = rows.iter().map(|r| r.self_ms).sum();
    for r in rows {
        let pct = if self_sum > 0.0 {
            100.0 * r.self_ms / self_sum
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<width$} {:>7} {:>12.3} {:>12.3} {:>5.1}%\n",
            r.path, r.count, r.self_ms, r.total_ms, pct
        ));
    }
    out.push_str(&format!(
        "{:<width$} {:>7} {:>12.3}\n",
        "total",
        rows.iter().map(|r| r.count).sum::<u64>(),
        self_sum
    ));
    out
}

/// Renders the aggregate as collapsed stacks — one `path;sub;sub value`
/// line per path with non-zero self time, value in integer microseconds
/// — the input format of flamegraph generators. Lines are path-sorted
/// (deterministic), and the path separator is `;` as the format
/// requires.
pub fn collapsed_stacks(trees: &[&TraceTree]) -> String {
    let mut rows = self_time(trees);
    rows.sort_by(|a, b| a.path.cmp(&b.path));
    let mut out = String::new();
    for r in &rows {
        let us = (r.self_ms * 1000.0).round() as u64;
        if us == 0 {
            continue;
        }
        out.push_str(&format!("{} {us}\n", r.path.replace('/', ";")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_trace::Tracer;

    /// A tree with known nesting: root(flow) -> implement -> trial-0/1.
    fn tree() -> TraceTree {
        let tracer = Tracer::enabled();
        let root = tracer.root("flow");
        {
            let imp = root.child("implement");
            {
                let t0 = imp.child("trial-0");
                t0.set_window(0.0, 400.0);
            }
            {
                let t1 = imp.child("trial-1");
                t1.set_window(400.0, 500.0);
            }
            imp.set_window(0.0, 1000.0);
        }
        root.set_window(0.0, 1200.0);
        root.finish();
        tracer.take_tree()
    }

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        let t = tree();
        let rows = self_time(&[&t]);
        let by_path = |p: &str| rows.iter().find(|r| r.path == p).unwrap();
        // flow: 1200 total, 1000 in implement -> 200us self.
        assert!((by_path("flow").self_ms - 0.2).abs() < 1e-9);
        assert!((by_path("flow").total_ms - 1.2).abs() < 1e-9);
        // implement: 1000 total, 900 in trials -> 100us self.
        assert!((by_path("flow/implement").self_ms - 0.1).abs() < 1e-9);
        // Leaves: self == total.
        assert!((by_path("flow/implement/trial-0").self_ms - 0.4).abs() < 1e-9);
        assert!((by_path("flow/implement/trial-1").self_ms - 0.5).abs() < 1e-9);
        // Sorted by self time descending.
        assert_eq!(rows[0].path, "flow/implement/trial-1");
    }

    #[test]
    fn aggregation_spans_multiple_trees() {
        let a = tree();
        let b = tree();
        let rows = self_time(&[&a, &b]);
        let imp = rows.iter().find(|r| r.path == "flow/implement").unwrap();
        assert_eq!(imp.count, 2);
        assert!((imp.total_ms - 2.0).abs() < 1e-9);
        assert!((imp.self_ms - 0.2).abs() < 1e-9);
    }

    #[test]
    fn collapsed_stacks_use_semicolons_and_integer_us() {
        let t = tree();
        let text = collapsed_stacks(&[&t]);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.contains(&"flow 200"));
        assert!(lines.contains(&"flow;implement 100"));
        assert!(lines.contains(&"flow;implement;trial-0 400"));
        assert!(lines.contains(&"flow;implement;trial-1 500"));
        // Path-sorted and deterministic.
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Two parallel trials, [0, 600] and [100, 700] us, inside a
        // [0, 1000] us implement: together they cover [0, 700].
        let tracer = Tracer::enabled();
        let root = tracer.root("flow");
        {
            let imp = root.child("implement");
            imp.child("trial-0").set_window(0.0, 600.0);
            imp.child("trial-1").set_window(100.0, 600.0);
            imp.set_window(0.0, 1000.0);
        }
        root.set_window(0.0, 1000.0);
        let t = tracer.take_tree();
        let rows = self_time(&[&t]);
        let imp = rows.iter().find(|r| r.path == "flow/implement").unwrap();
        assert!((imp.self_ms - 0.3).abs() < 1e-9, "{}", imp.self_ms);
    }

    #[test]
    fn table_renders_every_row_and_totals() {
        let t = tree();
        let rows = self_time(&[&t]);
        let text = render_table(&rows);
        assert!(text.contains("flow/implement/trial-1"));
        assert!(text.lines().last().unwrap().starts_with("total"));
        // Overlapping children beyond the parent clamp at zero, never
        // negative.
        let tracer = Tracer::enabled();
        let root = tracer.root("r");
        {
            let c = root.child("c");
            c.set_window(0.0, 500.0);
        }
        root.set_window(0.0, 100.0); // parent shorter than child
        root.finish();
        let shallow = tracer.take_tree();
        let rows = self_time(&[&shallow]);
        assert!(rows.iter().all(|r| r.self_ms >= 0.0));
    }
}
