//! Pass-level observability: wall time and key counters per stage.
//!
//! Every pipeline stage ([`crate::passes`]) contributes one [`PassRecord`]
//! to the run's [`PassTrace`], which lands on
//! [`ImplementationResult::trace`](crate::ImplementationResult::trace).
//! This is the flow's flat observability layer: sweeps can report where
//! the time goes, and tests can assert structural properties such as "the
//! lint pre-pass reused the front-end instead of re-running it".
//!
//! A `PassTrace` is always the flat view of the run's stage spans
//! ([`hlsb_trace`]): the session records one span per stage whether or
//! not [`Flow::trace`](crate::Flow::trace) is set, and derives the trace
//! with [`PassTrace::from_span_tree`] — each depth-1 stage span becomes
//! one record, its unsigned attributes become the counters. The span is
//! the stage's only timer, so the two views cannot drift apart.

use std::fmt;

/// One executed (or cache-satisfied) pass.
#[derive(Debug, Clone)]
pub struct PassRecord {
    /// Stage name (`front-end`, `schedule`, `lower`, `implement`,
    /// `sign-off`, `lint`).
    pub pass: String,
    /// Wall-clock time spent in the stage, milliseconds.
    pub wall_ms: f64,
    /// Stage counters, e.g. `("executions", 1)` or `("cache-hits", 1)`.
    pub counters: Vec<(String, u64)>,
}

/// Structural equality: wall times vary run to run and machine to machine,
/// so two records are equal when they describe the same pass with the same
/// counters. This keeps `ImplementationResult` comparisons meaningful for
/// the determinism guarantees (cached ≡ fresh, parallel ≡ sequential).
impl PartialEq for PassRecord {
    fn eq(&self, other: &Self) -> bool {
        self.pass == other.pass && self.counters == other.counters
    }
}

/// Trace of every pass executed for one implementation run, in order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PassTrace {
    /// Pass records, in execution order.
    pub records: Vec<PassRecord>,
}

impl PassTrace {
    /// The flat view of a span tree: each depth-1 span under the root
    /// becomes one record (wall time from the span, counters from its
    /// unsigned-integer attributes, insertion order preserved).
    pub fn from_span_tree(tree: &hlsb_trace::TraceTree) -> PassTrace {
        let mut trace = PassTrace::default();
        let Some(root) = tree.root() else {
            return trace;
        };
        for span in tree.children(root.id) {
            trace.records.push(PassRecord {
                pass: span.name.clone(),
                wall_ms: span.dur_us / 1000.0,
                counters: span
                    .attrs
                    .iter()
                    .filter_map(|a| a.value.as_u64().map(|v| (a.key.clone(), v)))
                    .collect(),
            });
        }
        trace
    }

    /// The total of `counter` across **all** records of `pass` (`None` if
    /// no record of the pass carries the counter). Batch runs
    /// (`run_many`, DSE) append one record per flow per stage, so a
    /// single-record lookup would silently undercount.
    pub fn counter(&self, pass: &str, counter: &str) -> Option<u64> {
        let mut total = None;
        for rec in self.records.iter().filter(|r| r.pass == pass) {
            for (name, v) in &rec.counters {
                if name == counter {
                    *total.get_or_insert(0) += v;
                }
            }
        }
        total
    }

    /// Total wall time across all recorded passes, milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.records.iter().map(|r| r.wall_ms).sum()
    }

    /// Accumulates another trace's records into per-pass totals (counters
    /// summed, wall times summed) — for sweep-level reporting.
    pub fn merge(&mut self, other: &PassTrace) {
        for rec in &other.records {
            if let Some(mine) = self.records.iter_mut().find(|r| r.pass == rec.pass) {
                mine.wall_ms += rec.wall_ms;
                for (name, v) in &rec.counters {
                    if let Some((_, mv)) = mine.counters.iter_mut().find(|(n, _)| n == name) {
                        *mv += v;
                    } else {
                        mine.counters.push((name.clone(), *v));
                    }
                }
            } else {
                self.records.push(rec.clone());
            }
        }
    }
}

impl fmt::Display for PassTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<12} {:>10}  counters", "pass", "wall (ms)")?;
        for r in &self.records {
            let counters = r
                .counters
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            writeln!(f, "{:<12} {:>10.3}  {}", r.pass, r.wall_ms, counters)?;
        }
        write!(f, "{:<12} {:>10.3}", "total", self.total_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pass: &str, ms: f64, counters: Vec<(&str, u64)>) -> PassRecord {
        PassRecord {
            pass: pass.to_string(),
            wall_ms: ms,
            counters: counters
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
        }
    }

    #[test]
    fn equality_is_structural_not_temporal() {
        let a = rec("front-end", 1.0, vec![("executions", 1)]);
        let b = rec("front-end", 99.0, vec![("executions", 1)]);
        assert_eq!(a, b, "wall time must not affect equality");
        let c = rec("front-end", 1.0, vec![("executions", 2)]);
        assert_ne!(a, c, "counters must affect equality");
    }

    #[test]
    fn counter_lookup_and_total() {
        let t = PassTrace {
            records: vec![rec("lower", 0.5, vec![("cells", 42)])],
        };
        assert_eq!(t.counter("lower", "cells"), Some(42));
        assert_eq!(t.counter("lower", "nope"), None);
        assert_eq!(t.counter("nope", "cells"), None);
        assert!(t.total_ms() >= 0.0);
        assert!(t.to_string().contains("lower"));
    }

    #[test]
    fn counter_total_sums_across_repeated_records() {
        // run_many / DSE append one record per flow per stage; the lookup
        // must total them, not read only the first.
        let t = PassTrace {
            records: vec![
                rec("implement", 1.0, vec![("trials", 3)]),
                rec("schedule", 0.5, vec![("executions", 1)]),
                rec("implement", 2.0, vec![("trials", 5)]),
                rec("implement", 1.0, vec![]),
            ],
        };
        assert_eq!(t.counter("implement", "trials"), Some(8));
        // A pass present without the counter still reports None.
        assert_eq!(t.counter("schedule", "trials"), None);
    }

    #[test]
    fn merge_accumulates_per_pass() {
        let mut a = PassTrace {
            records: vec![rec("front-end", 1.0, vec![("executions", 1)])],
        };
        let b = PassTrace {
            records: vec![
                rec("front-end", 2.0, vec![("executions", 0), ("cache-hits", 1)]),
                rec("lower", 3.0, vec![("cells", 7)]),
            ],
        };
        a.merge(&b);
        assert_eq!(a.counter("front-end", "executions"), Some(1));
        assert_eq!(a.counter("front-end", "cache-hits"), Some(1));
        assert_eq!(a.counter("lower", "cells"), Some(7));
        assert!((a.total_ms() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn from_span_tree_mirrors_stage_spans() {
        let tracer = hlsb_trace::Tracer::enabled();
        let root = tracer.root("flow");
        {
            let fe = root.child("front-end");
            fe.attr("executions", 1u64);
            fe.attr_volatile("cache-hits", 0u64);
            fe.attr("clock-ns", 3.0); // non-integer attrs are not counters
                                      // Depth-2 spans (e.g. placement trials) are not records.
            let _inner = fe.child("sub");
        }
        root.finish();
        let trace = PassTrace::from_span_tree(&tracer.take_tree());
        assert_eq!(trace.records.len(), 1);
        assert_eq!(trace.records[0].pass, "front-end");
        assert_eq!(
            trace.records[0].counters,
            vec![("executions".to_string(), 1), ("cache-hits".to_string(), 0)]
        );
    }
}
