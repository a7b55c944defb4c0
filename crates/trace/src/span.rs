//! The span collector: [`Tracer`], [`SpanGuard`] and the recorded node
//! types.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::MetricsRegistry;
use crate::tree::TraceTree;
use crate::value::Value;

/// One key–value attribute on a span.
///
/// `volatile` marks attributes whose value legitimately varies between
/// equivalent runs — cache hit counts, thread counts, anything derived
/// from *how* the work was executed rather than *what* was decided. They
/// are stripped by [`TraceTree::normalized`], so trace equality quantifies
/// over decisions only.
#[derive(Debug, Clone, PartialEq)]
pub struct Attr {
    /// Attribute key.
    pub key: String,
    /// Attribute value.
    pub value: Value,
    /// Excluded from normalized trace equality when set.
    pub volatile: bool,
}

/// A structured decision event: a named point-in-time record of one
/// choice the pipeline made (a chain split, a pruned done-signal, a skid
/// buffer placed), with deterministic attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionEvent {
    /// Event name, dot-namespaced by stage (`schedule.split`,
    /// `sync.prune`, `skid.buffer`, …).
    pub name: String,
    /// Microseconds since the tracer's epoch. Excluded from normalized
    /// equality.
    pub ts_us: f64,
    /// Deterministic event payload.
    pub attrs: Vec<(String, Value)>,
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Creation-ordered id within the tree.
    pub id: u32,
    /// Parent span id; `None` for the root.
    pub parent: Option<u32>,
    /// Span name (`flow`, `front-end`, `trial-0`, …).
    pub name: String,
    /// Display track (Chrome `tid`): 0 for the main flow lane, `idx + 1`
    /// for placement trials. Excluded from normalized equality.
    pub track: u32,
    /// Start, microseconds since the tracer's epoch. Excluded from
    /// normalized equality.
    pub start_us: f64,
    /// Duration in microseconds (0 while open). Excluded from normalized
    /// equality.
    pub dur_us: f64,
    /// Attributes, in insertion order.
    pub attrs: Vec<Attr>,
    /// Decision events, in insertion order.
    pub events: Vec<DecisionEvent>,
}

#[derive(Default)]
struct State {
    spans: Vec<SpanNode>,
    metrics: MetricsRegistry,
}

struct Inner {
    epoch: Instant,
    state: Mutex<State>,
}

/// The span collector handle. Cheap to clone; all clones write to the
/// same tree. A disabled tracer ([`Tracer::disabled`]) carries nothing —
/// every operation on it (and on its guards) is a branch and a return.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    /// A collecting tracer; the epoch is now.
    pub fn enabled() -> Self {
        Tracer {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// The zero-cost no-op tracer.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// Whether this tracer records anything.
    pub(crate) fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since the epoch (0 when disabled — no clock is read).
    pub fn now_us(&self) -> f64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_secs_f64() * 1e6,
            None => 0.0,
        }
    }

    /// Opens a root span (no parent).
    pub fn root(&self, name: &str) -> SpanGuard {
        self.open(name, None)
    }

    /// Bumps a metrics counter (no-op when disabled).
    pub(crate) fn count(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.state.lock().unwrap().metrics.count(name, delta);
        }
    }

    /// Records `value` into the named fixed-bucket histogram (no-op when
    /// disabled). See [`MetricsRegistry::observe`].
    pub(crate) fn observe(&self, name: &str, bounds: &[f64], value: f64) {
        if let Some(inner) = &self.inner {
            inner
                .state
                .lock()
                .unwrap()
                .metrics
                .observe(name, bounds, value);
        }
    }

    /// Moves the collected tree out of the tracer, leaving it empty.
    /// Call after the root guard has finished.
    pub fn take_tree(&self) -> TraceTree {
        match &self.inner {
            Some(inner) => {
                let mut state = inner.state.lock().unwrap();
                TraceTree {
                    spans: std::mem::take(&mut state.spans),
                    metrics: std::mem::take(&mut state.metrics),
                }
            }
            None => TraceTree::default(),
        }
    }

    fn open(&self, name: &str, parent: Option<u32>) -> SpanGuard {
        let id = match &self.inner {
            Some(inner) => {
                let start_us = inner.epoch.elapsed().as_secs_f64() * 1e6;
                let mut state = inner.state.lock().unwrap();
                let id = state.spans.len() as u32;
                state.spans.push(SpanNode {
                    id,
                    parent,
                    name: name.to_string(),
                    track: 0,
                    start_us,
                    dur_us: 0.0,
                    attrs: Vec::new(),
                    events: Vec::new(),
                });
                Some(id)
            }
            None => None,
        };
        SpanGuard {
            tracer: self.clone(),
            id,
            closed: Cell::new(false),
        }
    }

    fn with_span(&self, id: u32, f: impl FnOnce(&mut SpanNode)) {
        if let Some(inner) = &self.inner {
            let mut state = inner.state.lock().unwrap();
            f(&mut state.spans[id as usize]);
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// An open span. Dropping (or [`finish`](SpanGuard::finish)ing) the guard
/// stamps the duration. All operations are no-ops on a disabled tracer.
pub struct SpanGuard {
    tracer: Tracer,
    id: Option<u32>,
    closed: Cell<bool>,
}

impl SpanGuard {
    /// Whether this guard records anything — gate expensive payload
    /// construction on it (the [`crate::event!`] macro does).
    pub fn is_enabled(&self) -> bool {
        self.id.is_some()
    }

    /// Opens a child span.
    pub fn child(&self, name: &str) -> SpanGuard {
        self.tracer.open(name, self.id)
    }

    /// Sets a deterministic attribute.
    pub fn attr(&self, key: &str, value: impl Into<Value>) {
        self.put_attr(key, value.into(), false);
    }

    /// Sets a volatile attribute (excluded from normalized equality).
    pub fn attr_volatile(&self, key: &str, value: impl Into<Value>) {
        self.put_attr(key, value.into(), true);
    }

    /// Records a decision event on this span.
    pub fn event(&self, name: &str, attrs: Vec<(&str, Value)>) {
        if let Some(id) = self.id {
            let ts_us = self.tracer.now_us();
            self.tracer.with_span(id, |s| {
                s.events.push(DecisionEvent {
                    name: name.to_string(),
                    ts_us,
                    attrs: attrs.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
                });
            });
        }
    }

    /// Assigns the span to a display track (Chrome `tid`). The main lane
    /// is 0; placement trials use `idx + 1`.
    pub fn set_track(&self, track: u32) {
        if let Some(id) = self.id {
            self.tracer.with_span(id, |s| s.track = track);
        }
    }

    /// Overrides the span's time window (for work measured elsewhere,
    /// e.g. placement trials timed inside their worker threads and
    /// emitted post-hoc in deterministic order). Marks the span finished.
    pub fn set_window(&self, start_us: f64, dur_us: f64) {
        if let Some(id) = self.id {
            self.tracer.with_span(id, |s| {
                s.start_us = start_us;
                s.dur_us = dur_us;
            });
        }
        self.closed.set(true);
    }

    /// Bumps a metrics counter on the underlying tracer.
    pub fn count(&self, name: &str, delta: u64) {
        if self.id.is_some() {
            self.tracer.count(name, delta);
        }
    }

    /// Records into a fixed-bucket histogram on the underlying tracer.
    pub fn observe(&self, name: &str, bounds: &[f64], value: f64) {
        if self.id.is_some() {
            self.tracer.observe(name, bounds, value);
        }
    }

    /// Closes the span, stamping its duration.
    pub fn finish(self) {
        self.close();
    }

    fn put_attr(&self, key: &str, value: Value, volatile: bool) {
        if let Some(id) = self.id {
            self.tracer.with_span(id, |s| {
                s.attrs.push(Attr {
                    key: key.to_string(),
                    value,
                    volatile,
                });
            });
        }
    }

    fn close(&self) {
        if self.closed.replace(true) {
            return;
        }
        if let Some(id) = self.id {
            let now = self.tracer.now_us();
            self.tracer.with_span(id, |s| s.dur_us = now - s.start_us);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_in_creation_order() {
        let tracer = Tracer::enabled();
        let root = tracer.root("flow");
        let a = root.child("a");
        a.attr("k", 1u64);
        a.attr_volatile("hits", 2u64);
        a.event("a.decided", vec![("x", Value::U64(9))]);
        a.finish();
        let b = root.child("b");
        b.set_track(3);
        b.set_window(10.0, 5.0);
        root.finish();

        let tree = tracer.take_tree();
        assert_eq!(tree.spans.len(), 3);
        assert_eq!(tree.spans[0].name, "flow");
        assert_eq!(tree.spans[1].parent, Some(0));
        assert_eq!(tree.spans[1].attrs.len(), 2);
        assert!(tree.spans[1].attrs[1].volatile);
        assert_eq!(
            tree.spans[1].events[0].attrs[0],
            ("x".into(), Value::U64(9))
        );
        assert_eq!(tree.spans[2].track, 3);
        assert_eq!(tree.spans[2].start_us, 10.0);
        assert_eq!(tree.spans[2].dur_us, 5.0);
        assert!(tree.spans[0].dur_us >= 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_reads_no_clock() {
        let tracer = Tracer::disabled();
        assert_eq!(tracer.now_us(), 0.0);
        let root = tracer.root("flow");
        root.attr("k", 1u64);
        root.event("e", vec![]);
        root.count("c", 1);
        root.observe("h", &[1.0], 0.5);
        root.finish();
        let tree = tracer.take_tree();
        assert!(tree.spans.is_empty());
        assert!(tree.metrics.is_empty());
    }

    #[test]
    fn tracer_is_shareable_across_threads() {
        let tracer = Tracer::enabled();
        let root = tracer.root("flow");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = tracer.clone();
                s.spawn(move || {
                    t.count("n", 1);
                    let _ = t.now_us();
                });
            }
        });
        root.finish();
        let tree = tracer.take_tree();
        assert_eq!(tree.metrics.counter("n"), 4);
    }

    #[test]
    fn drop_closes_open_spans_once() {
        let tracer = Tracer::enabled();
        {
            let root = tracer.root("flow");
            let _child = root.child("inner");
        } // both dropped here
        let tree = tracer.take_tree();
        assert!(tree.spans.iter().all(|s| s.dur_us >= 0.0));
    }
}
