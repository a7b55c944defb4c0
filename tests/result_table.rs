//! One result table behind every tool: `hlsb-serve` jobs and `hlsb-dse`
//! sweeps answer from, and publish to, the same `ResultRecord` table
//! through `FlowSession::evaluate_many`.
//!
//! * a store warmed by serve answers a DSE grid with zero full runs and
//!   the cold run's metrics and frontier, and a store warmed by DSE
//!   answers serve jobs with zero evaluations;
//! * a batch the store answers entirely runs nothing;
//! * a store that refuses publishes never fails a job: serve counts the
//!   refusals, DSE returns the error.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hlsb::{Evaluation, FlowSession};
use hlsb_dse::{DseConfig, DseReport, Explorer, KnobSpace};
use hlsb_fabric::Device;
use hlsb_ir::Design;
use hlsb_serve::{JobOutcome, JobServer, JobSpec, JobStatus, ServeConfig, ServeSummary};
use hlsb_store::{ArtifactBackend, ArtifactStore, ResultRecord, StageKind};

/// The serve design `fuzz:<SEED>` and its DSE twin share config keys:
/// the serve defaults (VU9P, 300 MHz, flow seed 1, fast effort, one
/// placement seed) are the DSE defaults of the cube below.
const SEED: u64 = 5;

fn design() -> Design {
    hlsb_sim::random_design(SEED)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("hlsb_result_table_test")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn space() -> KnobSpace {
    KnobSpace::optimization_cube(vec![300.0])
}

/// One serve job per canonical point of the cube.
fn jobs() -> Vec<String> {
    space()
        .enumerate()
        .iter()
        .map(|cfg: &DseConfig| {
            JobSpec {
                design: format!("fuzz:{SEED}"),
                options: cfg.options,
                ..JobSpec::default()
            }
            .to_json()
        })
        .collect()
}

fn explore(session: &FlowSession) -> io::Result<DseReport> {
    Explorer::new(&design(), &Device::ultrascale_plus_vu9p())
        .space(space())
        .verify_iters(0)
        .run(session)
}

fn serve(server: &mut JobServer, lines: Vec<String>) -> (Vec<JobOutcome>, ServeSummary) {
    let mut out = Vec::new();
    let summary = server.process(lines, |o| out.push(o.clone()));
    (out, summary)
}

fn on_store(dir: &PathBuf) -> FlowSession {
    FlowSession::new().with_backend(Arc::new(ArtifactStore::open(dir).unwrap()))
}

/// Every point's (label, key, fmax bits, latency, area), in point order.
fn point_metrics(report: &DseReport) -> Vec<(String, u64, u64, u64, u64)> {
    report
        .points
        .iter()
        .map(|p| {
            (
                p.config.label(),
                p.key,
                p.metrics.fmax_mhz.to_bits(),
                p.metrics.latency_cycles,
                p.metrics.area_cells,
            )
        })
        .collect()
}

#[test]
fn a_store_warmed_by_serve_answers_a_dse_grid_without_running() {
    let cold = explore(&FlowSession::new()).expect("no store attached");
    assert_eq!(cold.full_evals, 12);

    let dir = scratch("serve_then_dse");
    let store = Arc::new(ArtifactStore::open(&dir).unwrap());
    let (_, summary) = serve(
        &mut JobServer::with_store(ServeConfig::default(), store),
        jobs(),
    );
    assert_eq!(summary.evaluated, 12, "serve fills the store");

    let warm = explore(&on_store(&dir)).expect("disk store");
    assert_eq!(warm.full_evals, 0, "every point is a serve record");
    assert_eq!(warm.store_hits, warm.points.len());
    assert_eq!(point_metrics(&warm), point_metrics(&cold));
    assert_eq!(warm.frontier, cold.frontier);
    assert!(warm.points.iter().all(|p| p.from_store));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_store_warmed_by_dse_answers_serve_jobs_without_evaluation() {
    let dir = scratch("dse_then_serve");
    let report = explore(&on_store(&dir)).expect("disk store");
    assert_eq!(report.full_evals, 12, "DSE fills the store");

    let store = Arc::new(ArtifactStore::open(&dir).unwrap());
    let (out, summary) = serve(
        &mut JobServer::with_store(ServeConfig::default(), store),
        jobs(),
    );
    assert_eq!(summary.evaluated, 0, "every job is a DSE record");
    assert_eq!(summary.store_hits, 12);
    for (o, p) in out.iter().zip(&report.points) {
        assert_eq!(o.status, JobStatus::Done, "{o:?}");
        let rec = o.record.as_ref().expect("stored record");
        assert_eq!(rec.key, p.key);
        assert_eq!(rec.fmax_mhz, p.metrics.fmax_mhz);
        assert_eq!(rec.label, p.config.label(), "DSE labels its records");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_batch_of_store_hits_runs_nothing() {
    let store = Arc::new(ArtifactStore::in_memory());
    let flows = || {
        space()
            .enumerate()
            .iter()
            .map(|cfg| {
                let flow = cfg.flow(&design(), &Device::ultrascale_plus_vu9p(), 1);
                let key = flow.config_key();
                (flow, cfg.label(), key)
            })
            .collect::<Vec<_>>()
    };
    let cold = FlowSession::new().with_backend(store.clone());
    let fresh = cold.evaluate_many(flows());
    assert!(fresh.iter().all(|e| matches!(
        e,
        Evaluation::Fresh {
            published: Ok(()),
            ..
        }
    )));
    assert_eq!(store.result_count(), 12);

    let warm = FlowSession::new().with_backend(store);
    let answers = warm.evaluate_many(flows());
    for (a, f) in answers.iter().zip(&fresh) {
        let (Evaluation::Stored(stored), Evaluation::Fresh { record, .. }) = (a, f) else {
            panic!("a warm batch is answered from the store: {a:?}");
        };
        assert_eq!(stored, record);
    }
    assert_eq!(
        warm.cache_stats().requests(),
        0,
        "no pipeline stage ran on the warm session"
    );
}

/// A store whose result appends always fail, as on a full disk.
struct RefusingStore;

impl ArtifactBackend for RefusingStore {
    fn lookup(&self, _stage: StageKind, _key: u64) -> Option<u64> {
        None
    }

    fn publish(&self, _stage: StageKind, _key: u64, _fingerprint: u64, _wall_ms: f64) {}

    fn lookup_result(&self, _key: u64) -> Option<ResultRecord> {
        None
    }

    fn publish_result(&self, _rec: ResultRecord) -> io::Result<()> {
        Err(io::Error::other("store refuses appends"))
    }
}

#[test]
fn refused_publishes_are_counted_by_serve_and_returned_by_dse() {
    let cfg = ServeConfig {
        wave: 2,
        ..ServeConfig::default()
    };
    let mut server = JobServer::with_backend(cfg, Arc::new(RefusingStore));
    let mut lines = jobs();
    lines.truncate(3);
    lines.push(lines[0].clone()); // a duplicate is answered from memory
    let (out, summary) = serve(&mut server, lines);
    assert!(out.iter().all(|o| o.status == JobStatus::Done), "{out:?}");
    assert_eq!(summary.evaluated, 3);
    assert_eq!(summary.dedup_hits, 1);
    assert_eq!(summary.store_put_errors, summary.evaluated);

    let session = FlowSession::new().with_backend(Arc::new(RefusingStore));
    let err = Explorer::new(&design(), &Device::ultrascale_plus_vu9p())
        .space(space())
        .budget(2)
        .verify_iters(0)
        .run(&session)
        .expect_err("a refused publish fails the sweep");
    assert_eq!(err.to_string(), "store refuses appends");
}

/// A store that keeps results but fails every stage-fingerprint append,
/// counting the failures as a disk store does.
#[derive(Default)]
struct StageRefusingStore {
    refused: AtomicU64,
}

impl ArtifactBackend for StageRefusingStore {
    fn lookup(&self, _stage: StageKind, _key: u64) -> Option<u64> {
        None
    }

    fn publish(&self, _stage: StageKind, _key: u64, _fingerprint: u64, _wall_ms: f64) {
        self.refused.fetch_add(1, Ordering::Relaxed);
    }

    fn publish_errors(&self) -> u64 {
        self.refused.load(Ordering::Relaxed)
    }

    fn lookup_result(&self, _key: u64) -> Option<ResultRecord> {
        None
    }

    fn publish_result(&self, _rec: ResultRecord) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn refused_stage_publishes_are_counted_per_serve_run() {
    let store = Arc::new(StageRefusingStore::default());
    let mut server = JobServer::with_backend(ServeConfig::default(), store.clone());
    let mut lines = jobs();
    lines.truncate(2);
    let (out, summary) = serve(&mut server, lines.clone());
    assert!(out.iter().all(|o| o.status == JobStatus::Done), "{out:?}");
    assert_eq!(summary.evaluated, 2);
    assert!(summary.stage_put_errors > 0, "{summary:?}");
    assert_eq!(summary.stage_put_errors as u64, store.publish_errors());
    assert_eq!(summary.store_put_errors, 0);
    assert!(
        summary
            .render()
            .contains(&format!("({} stage put errors)", summary.stage_put_errors)),
        "{}",
        summary.render()
    );

    // A second run answers from memory: no new refusals, and the summary
    // line reads as it does on a healthy store.
    let (_, again) = serve(&mut server, lines);
    assert_eq!(again.dedup_hits, 2);
    assert_eq!(again.stage_put_errors, 0);
    assert!(!again.render().contains("put errors"), "{}", again.render());
}
