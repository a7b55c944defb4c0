//! End-to-end batch serving: the compile-farm contract that a warm store
//! answers a repeated job stream with zero place-and-route work and a
//! byte-identical outcome stream — plus in-run dedup, rejection handling
//! and worker-count invariance.

use std::path::PathBuf;
use std::sync::Arc;

use hlsb_serve::{JobOutcome, JobServer, JobStatus, ServeConfig};
use hlsb_store::ArtifactStore;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("hlsb_serve_batch_test")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn serve(server: &mut JobServer, lines: &[String]) -> (Vec<JobOutcome>, hlsb_serve::ServeSummary) {
    let mut out = Vec::new();
    let summary = server.process(lines.to_vec(), |o| out.push(o.clone()));
    (out, summary)
}

fn outcome_stream(out: &[JobOutcome]) -> Vec<String> {
    out.iter().map(JobOutcome::to_json).collect()
}

#[test]
fn warm_store_serves_all_nine_benchmarks_with_zero_evaluations() {
    // The headline acceptance criterion: enqueue the nine paper
    // benchmarks against a store twice. Pass one evaluates everything;
    // pass two (a fresh server process over the same directory) answers
    // every job from disk — zero full place-and-route runs — and its
    // outcome stream is byte-identical.
    let dir = scratch("nine_benchmarks");
    let lines: Vec<String> = hlsb_benchmarks::all_benchmarks()
        .iter()
        .map(|b| format!("{{\"design\":\"{}\",\"options\":\"all\"}}", b.design.name))
        .collect();
    assert_eq!(lines.len(), 9, "the paper's benchmark suite");
    let cfg = ServeConfig::default();

    let store = Arc::new(ArtifactStore::open(&dir).unwrap());
    let mut cold = JobServer::with_store(cfg.clone(), store.clone());
    let (cold_out, cold_summary) = serve(&mut cold, &lines);
    assert_eq!(cold_summary.evaluated, 9, "cold store evaluates everything");
    assert_eq!(cold_summary.store_hits, 0);
    assert_eq!(cold_summary.failed, 0);
    assert_eq!(store.result_count(), 9);
    for o in &cold_out {
        assert_eq!(o.status, JobStatus::Done, "{:?}", o);
        assert!(o.record.as_ref().unwrap().fmax_mhz > 0.0);
    }

    // A freshly opened handle stands in for a second process.
    let rewarmed = Arc::new(ArtifactStore::open(&dir).unwrap());
    let mut warm = JobServer::with_store(cfg, rewarmed);
    let (warm_out, warm_summary) = serve(&mut warm, &lines);
    assert_eq!(warm_summary.evaluated, 0, "warm store: zero P&R work");
    assert_eq!(warm_summary.store_hits, 9);
    assert_eq!(outcome_stream(&warm_out), outcome_stream(&cold_out));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn duplicate_jobs_in_one_stream_dedup_to_one_evaluation() {
    // The same configuration queued five times (with distinct client
    // ids, straddling wave boundaries) costs one evaluation; every copy
    // answers with the same record, and ids pass through untouched.
    let mut server = JobServer::new(ServeConfig {
        wave: 2,
        ..ServeConfig::default()
    });
    let lines: Vec<String> = (0..5)
        .map(|i| format!("{{\"id\":\"client-{i}\",\"design\":\"fuzz:7\"}}"))
        .collect();
    let (out, summary) = serve(&mut server, &lines);
    assert_eq!(summary.jobs, 5);
    assert_eq!(summary.evaluated, 1);
    assert_eq!(summary.dedup_hits, 4);
    let first = out[0].record.clone().expect("evaluated");
    for (i, o) in out.iter().enumerate() {
        assert_eq!(o.id, format!("client-{i}"));
        assert_eq!(o.status, JobStatus::Done);
        assert_eq!(o.record.as_ref(), Some(&first), "copy {i} diverged");
    }
}

#[test]
fn rejected_jobs_are_never_stored_and_reject_identically_warm() {
    // Dirty designs trip the verify pre-gate. Rejections are not
    // persisted — a warm pass re-verifies and re-rejects with the same
    // findings — while the clean job in the same stream is stored and
    // answered from disk the second time.
    let dir = scratch("rejections");
    let lines = vec![
        "{\"design\":\"dirty:0\"}".to_string(), // seed 0 plants VN01
        "{\"design\":\"fuzz:3\"}".to_string(),
    ];
    let store = Arc::new(ArtifactStore::open(&dir).unwrap());
    let mut cold = JobServer::with_store(ServeConfig::default(), store.clone());
    let (cold_out, cold_summary) = serve(&mut cold, &lines);
    assert_eq!(cold_summary.rejected, 1);
    assert_eq!(cold_summary.evaluated, 1);
    assert_eq!(cold_out[0].status, JobStatus::Rejected);
    assert_eq!(cold_out[0].findings, vec!["VN01".to_string()]);
    assert_eq!(store.result_count(), 1, "only the clean job is persisted");

    let rewarmed = Arc::new(ArtifactStore::open(&dir).unwrap());
    let mut warm = JobServer::with_store(ServeConfig::default(), rewarmed);
    let (warm_out, warm_summary) = serve(&mut warm, &lines);
    assert_eq!(
        warm_summary.rejected, 1,
        "rejection repeats on a warm store"
    );
    assert_eq!(warm_summary.store_hits, 1);
    assert_eq!(warm_summary.evaluated, 0);
    assert_eq!(outcome_stream(&warm_out), outcome_stream(&cold_out));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn worker_count_never_changes_the_outcome_stream() {
    // The wave runner hands fresh flows to run_many; its work-stealing
    // schedule must stay invisible in the deterministic outcome lines,
    // whatever the pool width or wave size.
    let lines: Vec<String> = (0..6)
        .map(|i| format!("{{\"design\":\"fuzz:{}\",\"options\":\"bs\"}}", i % 4))
        .collect();
    let mut narrow = JobServer::new(ServeConfig {
        workers: 1,
        wave: 2,
        ..ServeConfig::default()
    });
    let mut wide = JobServer::new(ServeConfig {
        workers: 4,
        wave: 32,
        ..ServeConfig::default()
    });
    let (narrow_out, narrow_summary) = serve(&mut narrow, &lines);
    let (wide_out, wide_summary) = serve(&mut wide, &lines);
    assert_eq!(outcome_stream(&narrow_out), outcome_stream(&wide_out));
    assert_eq!(narrow_summary.evaluated, 4, "4 unique configurations");
    assert_eq!(wide_summary.evaluated, 4);
    assert_eq!(narrow_summary.dedup_hits, 2);
    assert_eq!(wide_summary.dedup_hits, 2);
}

#[test]
fn store_sharing_between_serve_and_plain_sessions_is_transparent() {
    // A result published by a direct FlowSession user (e.g. the DSE
    // driver with --store) must answer a later serve job for the same
    // configuration, because both sides key by Flow::config_key.
    use hlsb::{Evaluation, Flow, FlowSession, PlaceEffort};
    let dir = scratch("cross_tool");
    let store = Arc::new(ArtifactStore::open(&dir).unwrap());

    // Mirror JobSpec's defaults (fast effort, one placement seed) so the
    // config keys agree.
    let design = hlsb_sim::random_design(21);
    let flow = Flow::new(design)
        .device(hlsb_fabric::Device::ultrascale_plus_vu9p())
        .clock_mhz(300.0)
        .place_effort(PlaceEffort::Fast)
        .place_seeds(1)
        .seed(1)
        .verify(true);
    let session = FlowSession::with_threads(1)
        .with_backend(store.clone() as Arc<dyn hlsb_store::ArtifactBackend>);
    let key = flow.config_key();
    let mut evals = session.evaluate_many(vec![(flow, "direct".to_string(), key)]);
    let Some(Evaluation::Fresh {
        result, published, ..
    }) = evals.pop()
    else {
        panic!("a cold store runs the flow");
    };
    published.expect("the session publishes to the store");

    // fuzz:21 resolves to the same design, device and clock — the serve
    // job must be answered from the store without evaluation.
    let rewarmed = Arc::new(ArtifactStore::open(&dir).unwrap());
    let mut server = JobServer::with_store(ServeConfig::default(), rewarmed);
    let (out, summary) = serve(&mut server, &["{\"design\":\"fuzz:21\"}".to_string()]);
    assert_eq!(summary.evaluated, 0);
    assert_eq!(summary.store_hits, 1);
    assert_eq!(out[0].status, JobStatus::Done);
    let rec = out[0].record.as_ref().expect("stored record");
    assert_eq!(rec.label, "direct", "the stored record answers verbatim");
    assert_eq!(rec.fmax_mhz, result.fmax_mhz);
    std::fs::remove_dir_all(&dir).unwrap();
}
