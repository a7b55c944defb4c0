//! Exporters: Chrome trace-event JSON and line-delimited JSONL, and the
//! JSONL decoder behind [`TraceTree::from_jsonl`].
//!
//! Both go through the workspace codec ([`hlsb_findings::json`]):
//! serialization is string concatenation with a fixed key order, and
//! floats are printed with Rust's `{:?}` (shortest round-trip), which
//! makes `export → parse → re-export` byte-identical.

use hlsb_findings::json::{self, JsonError, Object};
use hlsb_findings::json_escape;

use crate::span::{Attr, DecisionEvent, SpanNode};
use crate::tree::TraceTree;
use crate::value::{fmt_f64, Value};

// ---------------------------------------------------------------------------
// Chrome trace-event JSON
// ---------------------------------------------------------------------------

/// Renders one or more labelled runs as a Chrome trace-event JSON object
/// (`{"displayTimeUnit":"ms","traceEvents":[...]}`), loadable in Perfetto
/// or `chrome://tracing`.
///
/// Each `(label, tree)` pair becomes one process (`pid` = index) named
/// after the label. Spans are complete (`ph:"X"`) events; decision events
/// are thread-scoped instants (`ph:"i"`). Track 0 is the main flow lane;
/// placement trials sit on tracks `idx + 1` and are named `trial-idx`.
pub fn chrome_trace(runs: &[(&str, &TraceTree)]) -> String {
    let mut events: Vec<String> = Vec::new();
    for (pid, (label, tree)) in runs.iter().enumerate() {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(label)
        ));
        let mut tracks: Vec<u32> = tree.spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for track in tracks {
            let name = if track == 0 {
                "flow".to_string()
            } else {
                format!("trial-{}", track - 1)
            };
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{track},\
                 \"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }
        for span in &tree.spans {
            let args: Vec<String> = span
                .attrs
                .iter()
                .map(|a| format!("\"{}\":{}", json_escape(&a.key), a.value.to_json()))
                .collect();
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"name\":\"{}\",\"args\":{{{}}}}}",
                span.track,
                fmt_f64(span.start_us),
                fmt_f64(span.dur_us),
                json_escape(&span.name),
                args.join(",")
            ));
            for event in &span.events {
                let args: Vec<String> = event
                    .attrs
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", json_escape(k), v.to_json()))
                    .collect();
                events.push(format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{},\"ts\":{},\
                     \"name\":\"{}\",\"args\":{{{}}}}}",
                    span.track,
                    fmt_f64(event.ts_us),
                    json_escape(&event.name),
                    args.join(",")
                ));
            }
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

// ---------------------------------------------------------------------------
// JSONL
// ---------------------------------------------------------------------------

fn attr_json(a: &Attr) -> String {
    format!(
        "[\"{}\",{},{}]",
        json_escape(&a.key),
        a.value.to_json(),
        a.volatile
    )
}

fn event_json(e: &DecisionEvent) -> String {
    let attrs: Vec<String> = e
        .attrs
        .iter()
        .map(|(k, v)| format!("[\"{}\",{}]", json_escape(k), v.to_json()))
        .collect();
    format!(
        "{{\"name\":\"{}\",\"ts_us\":{},\"attrs\":[{}]}}",
        json_escape(&e.name),
        fmt_f64(e.ts_us),
        attrs.join(",")
    )
}

impl TraceTree {
    /// Serializes the tree as line-delimited JSON: one `span` record per
    /// span (creation order), then one `counter` record per counter and
    /// one `histogram` record per histogram (name order). The encoding
    /// round-trips losslessly: `from_jsonl(to_jsonl())` reproduces the
    /// tree exactly, and re-exporting yields byte-identical output.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let attrs: Vec<String> = span.attrs.iter().map(attr_json).collect();
            let events: Vec<String> = span.events.iter().map(event_json).collect();
            let parent = match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"type\":\"span\",\"id\":{},\"parent\":{parent},\
                 \"name\":\"{}\",\"track\":{},\"start_us\":{},\"dur_us\":{},\
                 \"attrs\":[{}],\"events\":[{}]}}\n",
                span.id,
                json_escape(&span.name),
                span.track,
                fmt_f64(span.start_us),
                fmt_f64(span.dur_us),
                attrs.join(","),
                events.join(",")
            ));
        }
        for (name, v) in &self.metrics.counters {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}\n",
                json_escape(name)
            ));
        }
        for (name, h) in &self.metrics.histograms {
            let bounds: Vec<String> = h.bounds.iter().map(|b| fmt_f64(*b)).collect();
            let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
            // min/max only exist once something was observed; empty
            // histograms omit them (and the parser restores the empty
            // sentinels), keeping the round trip byte-identical.
            let extremes = if h.total > 0 {
                format!(",\"min\":{},\"max\":{}", fmt_f64(h.min), fmt_f64(h.max))
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"bounds\":[{}],\
                 \"counts\":[{}],\"total\":{},\"sum\":{}{}}}\n",
                json_escape(name),
                bounds.join(","),
                counts.join(","),
                h.total,
                fmt_f64(h.sum),
                extremes
            ));
        }
        out
    }

    /// Parses a tree previously written by [`TraceTree::to_jsonl`].
    pub fn from_jsonl(text: &str) -> Result<TraceTree, String> {
        let mut tree = TraceTree::default();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            json::decode(line, |o| read_record(&mut tree, o))
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        }
        for (i, span) in tree.spans.iter().enumerate() {
            if span.id as usize != i {
                return Err(format!(
                    "span records out of order: id {} at position {i}",
                    span.id
                ));
            }
        }
        Ok(tree)
    }
}

fn read_record(tree: &mut TraceTree, o: &mut Object) -> Result<(), JsonError> {
    match o.req::<String>("type")?.as_str() {
        "span" => tree.spans.push(read_span(o)?),
        "counter" => {
            let name = o.req("name")?;
            tree.metrics.counters.insert(name, o.req("value")?);
        }
        "histogram" => {
            let name = o.req("name")?;
            let hist = crate::Histogram {
                bounds: o.req("bounds")?,
                counts: o.req("counts")?,
                total: o.req("total")?,
                sum: o.req("sum")?,
                // Empty histograms omit min/max (so do trees written
                // before they were tracked): restore the empty sentinels.
                min: o.opt("min")?.unwrap_or(f64::INFINITY),
                max: o.opt("max")?.unwrap_or(f64::NEG_INFINITY),
            };
            tree.metrics.histograms.insert(name, hist);
        }
        _ => {
            return Err(JsonError::Mistyped(
                "type".to_string(),
                "`span`, `counter` or `histogram`",
            ))
        }
    }
    Ok(())
}

fn read_span(o: &mut Object) -> Result<SpanNode, JsonError> {
    Ok(SpanNode {
        id: o.req("id")?,
        parent: o.opt("parent")?,
        name: o.req("name")?,
        track: o.req("track")?,
        start_us: o.req("start_us")?,
        dur_us: o.req("dur_us")?,
        attrs: o
            .req::<Vec<(String, Value, bool)>>("attrs")?
            .into_iter()
            .map(|(key, value, volatile)| Attr {
                key,
                value,
                volatile,
            })
            .collect(),
        events: o
            .req::<Vec<Object>>("events")?
            .into_iter()
            .map(|mut e| {
                let event = DecisionEvent {
                    name: e.req("name")?,
                    ts_us: e.req("ts_us")?,
                    attrs: e.req("attrs")?,
                };
                e.finish()?;
                Ok(event)
            })
            .collect::<Result<_, JsonError>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;
    use hlsb_findings::json::Json;

    fn sample() -> TraceTree {
        let tracer = Tracer::enabled();
        let root = tracer.root("flow");
        root.attr("design", "genome \"g\"");
        root.attr_volatile("cache-hits", 2u64);
        {
            let sched = root.child("schedule");
            sched.attr("clock-ns", 3.0030030030030037);
            sched.event(
                "schedule.split",
                vec![("cut", Value::U64(5)), ("excess-ns", Value::F64(0.125))],
            );
        }
        {
            let trial = root.child("trial-0");
            trial.set_track(1);
            trial.set_window(100.5, 42.25);
        }
        tracer.count("decisions.schedule.split", 1);
        tracer.observe("slack-ns", &[0.0, 0.5, 1.0], 0.25);
        root.finish();
        tracer.take_tree()
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let tree = sample();
        let text = tree.to_jsonl();
        let parsed = TraceTree::from_jsonl(&text).unwrap();
        // Full equality — timestamps and volatile flags included.
        assert_eq!(parsed, tree);
        // Re-export is byte-identical.
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn jsonl_rejects_malformed_input() {
        assert!(TraceTree::from_jsonl("{\"type\":\"span\"").is_err());
        assert!(TraceTree::from_jsonl("{\"type\":\"mystery\"}").is_err());
        assert!(TraceTree::from_jsonl(
            "{\"type\":\"span\",\"id\":4,\"parent\":null,\"name\":\"x\",\
             \"track\":0,\"start_us\":0.0,\"dur_us\":0.0,\"attrs\":[],\"events\":[]}"
        )
        .is_err());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_shapes() {
        let tree = sample();
        let text = chrome_trace(&[("genome+all", &tree)]);
        let mut doc = json::parse_object(&text).unwrap();
        assert_eq!(doc.req::<String>("displayTimeUnit").unwrap(), "ms");
        let events: Vec<Object> = doc.req("traceEvents").unwrap();
        let field = |e: &Object, name: &str| e.clone().take(name).unwrap();
        let ph = |e: &Object| field(e, "ph");
        let is = |tag: &str| Json::Str(tag.to_string());
        assert!(events.iter().any(|e| ph(e) == is("M")));
        assert_eq!(events.iter().filter(|e| ph(e) == is("X")).count(), 3);
        assert_eq!(events.iter().filter(|e| ph(e) == is("i")).count(), 1);
        // The trial span sits on its own track.
        let trial = events
            .iter()
            .find(|e| field(e, "name") == is("trial-0") && ph(e) == is("X"))
            .unwrap();
        assert_eq!(field(trial, "tid"), Json::U64(1));
    }
}
