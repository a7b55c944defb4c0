//! End-to-end telemetry: the persistent run ledger across killed and
//! resumed farm processes, ledger neutrality on flow results, live
//! Prometheus scraping mid-run, and the regression sentinel over a real
//! ledger.

use std::path::PathBuf;
use std::sync::Arc;

use hlsb::{Flow, FlowSession, OptimizationOptions, PlaceEffort};
use hlsb_serve::{JobServer, ServeConfig};
use hlsb_store::ArtifactStore;
use hlsb_telemetry::{check, render_prometheus, scrape, Baseline, MetricsServer, RunLedger};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("hlsb_telemetry_test")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn job(design: &str) -> String {
    format!("{{\"design\":\"{design}\",\"options\":\"none\"}}")
}

fn serve_cfg(wave: usize) -> ServeConfig {
    ServeConfig {
        workers: 1,
        wave,
        verify: true,
        trace: false,
    }
}

/// Sum of one counter over every `serve-wave` ledger record.
fn wave_total(records: &[hlsb_telemetry::RunRecord], counter: &str) -> u64 {
    records
        .iter()
        .filter(|r| r.tool == "serve-wave")
        .map(|r| r.counter(counter))
        .sum()
}

#[test]
fn killed_and_resumed_serve_ledger_matches_uninterrupted_totals() {
    // The acceptance criterion: a job stream served by a process that
    // dies mid-run and a fresh process that finishes the remainder must
    // leave a ledger whose merged per-wave records equal an
    // uninterrupted run's totals. The stream's tail repeats its head, so
    // the split converts in-run dedup hits into cross-process store hits
    // — the *sum* is what the ledger must preserve.
    let dir = scratch("kill_resume");
    let mut lines: Vec<String> = (0..8).map(|i| job(&format!("fuzz:{i}"))).collect();
    lines.extend((0..4).map(|i| job(&format!("fuzz:{i}"))));

    // Uninterrupted reference run.
    let store = Arc::new(ArtifactStore::open(dir.join("store-a")).unwrap());
    let ledger = Arc::new(RunLedger::open(dir.join("ledger-a.jsonl")).unwrap());
    let mut server = JobServer::with_store(serve_cfg(4), store).with_ledger(ledger.clone());
    let summary = server.process(lines.iter().cloned(), |_| {});
    assert_eq!(summary.jobs, 12);
    assert_eq!(summary.evaluated, 8);
    drop(server);
    let uninterrupted = ledger.records();

    // Killed after the first 6 jobs, resumed by a fresh process over the
    // same store and the same ledger file.
    let ledger_path = dir.join("ledger-b.jsonl");
    {
        let store = Arc::new(ArtifactStore::open(dir.join("store-b")).unwrap());
        let ledger = Arc::new(RunLedger::open(&ledger_path).unwrap());
        let mut first = JobServer::with_store(serve_cfg(4), store).with_ledger(ledger);
        first.process(lines[..6].iter().cloned(), |_| {});
        // The process dies here; waves already run are on disk.
    }
    {
        let store = Arc::new(ArtifactStore::open(dir.join("store-b")).unwrap());
        let ledger = Arc::new(RunLedger::open(&ledger_path).unwrap());
        let mut second = JobServer::with_store(serve_cfg(4), store).with_ledger(ledger);
        second.process(lines[6..].iter().cloned(), |_| {});
    }
    let resumed = RunLedger::load(&ledger_path).unwrap();

    for counter in ["jobs", "evaluated"] {
        assert_eq!(
            wave_total(&resumed, counter),
            wave_total(&uninterrupted, counter),
            "merged {counter} totals diverge"
        );
    }
    // In-run dedup (uninterrupted) becomes store hits (resumed): only
    // the sum is stable across the kill.
    assert_eq!(
        wave_total(&resumed, "store-hits") + wave_total(&resumed, "dedup-hits"),
        wave_total(&uninterrupted, "store-hits") + wave_total(&uninterrupted, "dedup-hits"),
        "merged hit totals diverge"
    );
    assert_eq!(wave_total(&uninterrupted, "jobs"), 12);
    assert_eq!(wave_total(&uninterrupted, "evaluated"), 8);
    assert_eq!(
        wave_total(&uninterrupted, "store-hits") + wave_total(&uninterrupted, "dedup-hits"),
        4
    );
    // Per-flow records ride along: one per fresh evaluation, all ok.
    let flows = |records: &[hlsb_telemetry::RunRecord]| {
        records
            .iter()
            .filter(|r| r.tool == "flow" && r.status == "ok")
            .count()
    };
    assert_eq!(flows(&uninterrupted), 8);
    assert_eq!(flows(&resumed), 8);
}

#[test]
fn ledger_and_tracing_leave_flow_results_bit_identical() {
    let bench = hlsb_benchmarks::all_benchmarks()
        .into_iter()
        .min_by_key(|b| b.design.name.clone())
        .unwrap();
    let flow = |trace: bool| {
        Flow::new(bench.design.clone())
            .device(bench.device.clone())
            .clock_mhz(bench.clock_mhz)
            .options(OptimizationOptions::all())
            .place_effort(PlaceEffort::Fast)
            .place_seeds(1)
            .seed(7)
            .trace(trace)
    };

    let ledger = Arc::new(RunLedger::in_memory());
    let session = FlowSession::new().with_ledger(ledger.clone());
    let traced = session.run(&flow(true)).expect("traced flow succeeds");
    let plain = FlowSession::new()
        .run(&flow(false))
        .expect("plain flow succeeds");
    assert_eq!(
        traced, plain,
        "ledger + tracing must not perturb the implementation"
    );

    let records = ledger.records();
    assert_eq!(records.len(), 1, "one ledger record per top-level run");
    let rec = &records[0];
    assert_eq!(rec.tool, "flow");
    assert_eq!(rec.design, bench.design.name);
    assert_eq!(rec.status, "ok");
    assert!(rec.wall_ms > 0.0);
    assert!(
        rec.stage_ms("implement").unwrap_or(0.0) > 0.0,
        "stage timings recorded: {:?}",
        rec.stages
    );

    // An untraced run records the same stages: they come from the stage
    // spans, which do not depend on tracing.
    let plain_ledger = Arc::new(RunLedger::in_memory());
    FlowSession::new()
        .with_ledger(plain_ledger.clone())
        .run(&flow(false))
        .expect("plain flow succeeds");
    let plain_records = plain_ledger.records();
    assert_eq!(plain_records.len(), 1);
    let stage_names =
        |r: &hlsb_telemetry::RunRecord| r.stages.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(stage_names(&plain_records[0]), stage_names(rec));
}

#[test]
fn live_prometheus_endpoint_scrapes_mid_run_and_after() {
    // The jobs iterator is pulled lazily and waves run synchronously as
    // they fill, so a scrape fired while yielding the third job sees
    // exactly the first wave's metrics — a deterministic mid-run
    // observation of a real two-wave serve.
    let mut server = JobServer::new(serve_cfg(2));
    let handle = server.metrics_handle();
    let metrics_server = MetricsServer::start("127.0.0.1:0", move || {
        render_prometheus(&handle.lock().unwrap(), &[("tool", "serve")])
    })
    .expect("bind ephemeral port");
    let addr = metrics_server.addr();

    let lines: Vec<String> = (0..4).map(|i| job(&format!("fuzz:{i}"))).collect();
    let mut mid_run = String::new();
    let stream = lines.into_iter().enumerate().map(|(i, line)| {
        if i == 2 {
            mid_run = scrape(addr).expect("mid-run scrape");
        }
        line
    });
    let mut done = 0;
    server.process(stream, |_| done += 1);
    assert_eq!(done, 4);

    assert!(
        mid_run.contains("hlsb_serve_jobs_total{tool=\"serve\"} 2"),
        "mid-run scrape sees wave one only:\n{mid_run}"
    );
    assert!(
        mid_run.contains("# TYPE hlsb_serve_wave_ms histogram"),
        "{mid_run}"
    );

    let after = scrape(addr).expect("post-run scrape");
    assert!(
        after.contains("hlsb_serve_jobs_total{tool=\"serve\"} 4"),
        "final scrape sees both waves:\n{after}"
    );
    assert!(
        after.contains("hlsb_serve_wave_ms_count{tool=\"serve\"} 2"),
        "{after}"
    );
    metrics_server.shutdown();
}

#[test]
fn sentinel_gates_a_real_ledger_and_detects_a_planted_slowdown() {
    // Build a real ledger: six distinct jobs through a serving process.
    let dir = scratch("sentinel");
    let path = dir.join("ledger.jsonl");
    {
        let ledger = Arc::new(RunLedger::open(&path).unwrap());
        let mut server = JobServer::new(serve_cfg(3)).with_ledger(ledger);
        let lines: Vec<String> = (0..6).map(|i| job(&format!("fuzz:{i}"))).collect();
        server.process(lines, |_| {});
    }
    let records = RunLedger::load(&path).unwrap();
    assert!(records.iter().any(|r| r.tool == "serve-wave"));
    assert!(records.iter().any(|r| r.tool == "flow"));

    // A baseline derived from the run passes against the same run.
    let baseline = Baseline::from_records(&records, 5, 4.0);
    assert!(!baseline.stages.is_empty());
    let clean = check(&records, &baseline, 5);
    assert_eq!(clean.regressions(), 0, "{}", clean.render());

    // Plant a sustained 8x wave slowdown (filling the whole window so
    // the median moves) and the sentinel trips.
    let mut doctored = records.clone();
    for _ in 0..5 {
        let slow = records
            .iter()
            .find(|r| r.tool == "serve-wave")
            .map(|r| {
                let mut d = r.clone();
                for (_, ms) in &mut d.stages {
                    *ms *= 8.0;
                }
                d
            })
            .unwrap();
        doctored.push(slow);
    }
    let tripped = check(&doctored, &baseline, 5);
    assert!(tripped.regressions() > 0, "{}", tripped.render());
    assert!(
        tripped
            .checks
            .iter()
            .any(|c| !c.ok && c.what.contains("serve-wave")),
        "{}",
        tripped.render()
    );
}

#[test]
fn committed_baseline_parses_and_gates_planted_regressions() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/baseline.json");
    let text = std::fs::read_to_string(path).expect("results/baseline.json is committed");
    let baseline = Baseline::parse(&text).expect("committed baseline parses");
    assert!(
        !baseline.stages.is_empty(),
        "baseline gates stage latencies"
    );
    assert!(!baseline.rates.is_empty(), "baseline gates hit rates");
    for rule in &baseline.stages {
        assert!(rule.median_ms > 0.0 && rule.max_ratio >= 1.0, "{rule:?}");
    }

    // Synthesize a ledger that matches every committed rule: stage
    // medians scaled by `factor`, serve records carrying a healthy hit
    // rate. At factor 1 the gate passes; a sustained slowdown past the
    // headroom ratio trips every stage rule.
    let ledger_at = |factor: f64| -> Vec<hlsb_telemetry::RunRecord> {
        let mut records = Vec::new();
        for rule in &baseline.stages {
            let design = if rule.design == "*" {
                "d"
            } else {
                &rule.design
            };
            for _ in 0..3 {
                let mut rec = hlsb_telemetry::RunRecord::new(
                    &rule.tool,
                    design,
                    0,
                    "ok",
                    rule.median_ms * factor,
                );
                rec.add_stage(&rule.stage, rule.median_ms * factor);
                if baseline.rates.iter().any(|r| r.tool == rule.tool) {
                    rec.add_count("jobs", 2);
                    rec.add_count("store-hits", 1);
                }
                records.push(rec);
            }
        }
        records
    };

    let clean = check(&ledger_at(1.0), &baseline, 5);
    assert_eq!(clean.regressions(), 0, "{}", clean.render());

    let worst_ratio = baseline
        .stages
        .iter()
        .map(|r| r.max_ratio)
        .fold(1.0, f64::max);
    let slow = check(&ledger_at(worst_ratio * 2.0), &baseline, 5);
    assert_eq!(
        slow.regressions(),
        baseline.stages.len(),
        "every stage rule trips on a sustained slowdown:\n{}",
        slow.render()
    );
}
