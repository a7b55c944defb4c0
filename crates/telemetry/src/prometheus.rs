//! Prometheus text-format (exposition format v0.0.4) rendering of a
//! [`MetricsRegistry`], plus a dependency-free TCP scrape endpoint.
//!
//! Counters become `<name>_total` gauges-of-truth; histograms become the
//! canonical cumulative `_bucket{le="..."}` series with `+Inf`, `_sum`
//! and `_count`. Metric names are sanitized (`serve.wave-ms` →
//! `hlsb_serve_wave_ms`) and label values escaped per the spec
//! (backslash, double quote, newline). Rendering iterates the
//! registry's BTreeMaps, so output is deterministic for a given
//! snapshot — the golden-text tests rely on that.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hlsb_trace::MetricsRegistry;

/// The Content-Type a Prometheus scraper expects.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Sanitizes a registry metric name into a Prometheus metric name:
/// every character outside `[a-zA-Z0-9_:]` becomes `_`, and the
/// workspace prefix `hlsb_` is prepended (`serve.wave-ms` →
/// `hlsb_serve_wave_ms`).
pub(crate) fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("hlsb_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline.
pub(crate) fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Formats a float the way Prometheus expects: integral values without
/// a fraction (`le="10"`), everything else in Rust's shortest
/// round-trip notation.
fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return if v.is_nan() {
            "NaN".to_string()
        } else if v > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        };
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

fn label_block(labels: &[(&str, &str)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Renders the registry in the Prometheus text exposition format.
/// `labels` are attached to every sample (e.g. `[("tool", "serve")]`).
pub fn render_prometheus(metrics: &MetricsRegistry, labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (name, value) in &metrics.counters {
        let pname = format!("{}_total", metric_name(name));
        out.push_str(&format!("# TYPE {pname} counter\n"));
        out.push_str(&format!("{pname}{} {value}\n", label_block(labels, None)));
    }
    for (name, h) in &metrics.histograms {
        let pname = metric_name(name);
        out.push_str(&format!("# TYPE {pname} histogram\n"));
        let mut cumulative = 0u64;
        for (i, count) in h.counts.iter().enumerate() {
            cumulative += count;
            let le = match h.bounds.get(i) {
                Some(b) => fmt_num(*b),
                None => "+Inf".to_string(),
            };
            out.push_str(&format!(
                "{pname}_bucket{} {cumulative}\n",
                label_block(labels, Some(("le", &le)))
            ));
        }
        out.push_str(&format!(
            "{pname}_sum{} {}\n",
            label_block(labels, None),
            fmt_num(h.sum)
        ));
        out.push_str(&format!(
            "{pname}_count{} {}\n",
            label_block(labels, None),
            h.total
        ));
    }
    out
}

/// A minimal std-only scrape endpoint: answers every HTTP GET on the
/// bound address with a fresh snapshot from the `render` closure.
/// Bind to port 0 for an ephemeral port; [`addr`](MetricsServer::addr)
/// reports what was bound. The listener thread stops when the server is
/// shut down (or dropped).
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`) and serves snapshots from
    /// `render` on a background thread.
    ///
    /// # Errors
    ///
    /// I/O errors binding the listener.
    pub fn start(
        addr: impl ToSocketAddrs,
        render: impl Fn() -> String + Send + Sync + 'static,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    let _ = answer(stream, &render);
                }
            }
        });
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and joins it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_and_join();
        }
    }
}

/// Reads the request head (best effort, bounded) and writes one
/// `200 OK` text response with the current snapshot.
fn answer(mut stream: TcpStream, render: &impl Fn() -> String) -> std::io::Result<()> {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut head = [0u8; 1024];
    let mut seen = 0usize;
    // Read until the blank line ending the request head (or the buffer
    // fills / times out — any GET is answered the same way).
    while seen < head.len() {
        match stream.read(&mut head[seen..]) {
            Ok(0) => break,
            Ok(n) => {
                seen += n;
                if head[..seen].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = render();
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {CONTENT_TYPE}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Scrapes `addr` once over plain TCP and returns the response body
/// (used by tests and the serve CLI's self-check; a real deployment
/// points Prometheus at the endpoint instead).
///
/// # Errors
///
/// Connection or read errors, or a malformed HTTP response.
pub fn scrape(addr: impl ToSocketAddrs) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: hlsb\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "no HTTP header/body separator in scrape response",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> MetricsRegistry {
        let mut m = MetricsRegistry::default();
        m.count("serve.jobs", 7);
        m.count("serve.store-hits", 3);
        m.observe("serve.wave-ms", &[1.0, 10.0, 100.0], 0.5);
        m.observe("serve.wave-ms", &[1.0, 10.0, 100.0], 42.0);
        m.observe("serve.wave-ms", &[1.0, 10.0, 100.0], 950.0);
        m
    }

    #[test]
    fn golden_text_round_trip() {
        let text = render_prometheus(&registry(), &[]);
        let expected = "\
# TYPE hlsb_serve_jobs_total counter
hlsb_serve_jobs_total 7
# TYPE hlsb_serve_store_hits_total counter
hlsb_serve_store_hits_total 3
# TYPE hlsb_serve_wave_ms histogram
hlsb_serve_wave_ms_bucket{le=\"1\"} 1
hlsb_serve_wave_ms_bucket{le=\"10\"} 1
hlsb_serve_wave_ms_bucket{le=\"100\"} 2
hlsb_serve_wave_ms_bucket{le=\"+Inf\"} 3
hlsb_serve_wave_ms_sum 992.5
hlsb_serve_wave_ms_count 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn labels_attach_to_every_sample_and_escape() {
        let mut m = MetricsRegistry::default();
        m.count("c", 1);
        m.observe("h", &[1.0], 2.0);
        let nasty = "a\\b \"q\"\nnl";
        let text = render_prometheus(&m, &[("design", nasty)]);
        let escaped = "a\\\\b \\\"q\\\"\\nnl";
        assert!(text.contains(&format!("hlsb_c_total{{design=\"{escaped}\"}} 1")));
        assert!(text.contains(&format!("hlsb_h_bucket{{design=\"{escaped}\",le=\"1\"}} 0")));
        assert!(text.contains(&format!(
            "hlsb_h_bucket{{design=\"{escaped}\",le=\"+Inf\"}} 1"
        )));
        assert!(text.contains(&format!("hlsb_h_sum{{design=\"{escaped}\"}} 2")));
        assert!(text.contains(&format!("hlsb_h_count{{design=\"{escaped}\"}} 1")));
    }

    #[test]
    fn buckets_are_cumulative_and_end_at_inf_with_count() {
        let text = render_prometheus(&registry(), &[]);
        let mut last = 0u64;
        let mut inf = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("hlsb_serve_wave_ms_bucket") {
                let v: u64 = rest.split_whitespace().last().unwrap().parse().unwrap();
                assert!(v >= last, "buckets must be cumulative: {line}");
                last = v;
                if rest.contains("+Inf") {
                    inf = Some(v);
                }
            }
        }
        assert_eq!(inf, Some(3), "+Inf bucket equals the observation count");
        assert!(text.contains("hlsb_serve_wave_ms_count 3"));
    }

    #[test]
    fn fractional_bounds_keep_their_fraction() {
        let mut m = MetricsRegistry::default();
        m.observe("u", &[0.25, 0.5], 0.3);
        let text = render_prometheus(&m, &[]);
        assert!(text.contains("hlsb_u_bucket{le=\"0.25\"} 0"));
        assert!(text.contains("hlsb_u_bucket{le=\"0.5\"} 1"));
    }

    #[test]
    fn endpoint_serves_live_snapshots() {
        use std::sync::Mutex;
        let shared = Arc::new(Mutex::new(MetricsRegistry::default()));
        let handle = shared.clone();
        let server = MetricsServer::start("127.0.0.1:0", move || {
            render_prometheus(&handle.lock().unwrap(), &[])
        })
        .expect("bind ephemeral port");
        let addr = server.addr();

        shared.lock().unwrap().count("live", 1);
        let body = scrape(addr).expect("first scrape");
        assert!(body.contains("hlsb_live_total 1"), "{body}");

        // The endpoint snapshots at scrape time, not at start time.
        shared.lock().unwrap().count("live", 4);
        let body = scrape(addr).expect("second scrape");
        assert!(body.contains("hlsb_live_total 5"), "{body}");
        server.shutdown();
    }
}
