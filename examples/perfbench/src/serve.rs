//! `serve-farm`: compile-farm traffic through `JobServer` on a
//! persistent store in a scratch directory, fed in 32-job waves by one
//! client. A round has three phases:
//!
//! * **cold** — a fresh store and server take the job stream (fuzzed
//!   designs, every 16th one with a planted network defect): every job
//!   is a write;
//! * **warm** — the same stream through fresh servers, each opening the
//!   store as a new process would: pure reads;
//! * **steady** — one more fresh server takes a stream of 90%
//!   resubmitted and 10% new jobs: reads beside writes.
//!
//! One operation is one wave, rendered to outcome lines as `hlsb-serve`
//! writes them; a fresh server's first wave includes opening the store.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hlsb_rng::{derive_seed, Rng};
use hlsb_serve::{JobOutcome, JobServer, JobSpec, JobStatus, ServeConfig, ServeSummary};
use hlsb_store::{ArtifactStore, ResultRecord};
use hlsb_trace::{SpanGuard, Tracer};

use crate::harness::{self, ms_since, Checks, Ctx, Outcome, Paired, Round, Work};
use crate::replay::{hash_debug, layer, FlowConfig, Replay, Stop};
use crate::stats::median;

/// Jobs per wave.
const WAVE: usize = 32;
/// Every this-many cold jobs is a planted-defect design.
const DIRTY_EVERY: usize = 16;
/// Every this-many steady jobs is new; the rest are resubmissions.
const NEW_EVERY: usize = 10;

struct Inputs {
    /// Cold job lines, and the rule each planted-defect job must be
    /// rejected for.
    cold: Vec<String>,
    planted: Vec<Option<&'static str>>,
    /// Steady job lines, and for each resubmission the cold job it
    /// repeats.
    steady: Vec<String>,
    repeats: Vec<Option<usize>>,
    warm_passes: usize,
}

fn job_line(id: &str, design: &str) -> String {
    format!("{{\"id\":\"{id}\",\"design\":\"{design}\",\"options\":\"all\"}}")
}

fn setup(ctx: &Ctx) -> Inputs {
    let (jobs, warm_passes) = if ctx.quick { (256, 2) } else { (2000, 10) };
    let mut cold = Vec::with_capacity(jobs);
    let mut planted = Vec::with_capacity(jobs);
    for i in 0..jobs {
        let s = derive_seed(ctx.seed, i as u64);
        if i % DIRTY_EVERY == DIRTY_EVERY - 1 {
            planted.push(Some(hlsb_sim::random_dirty_design(s).1));
            cold.push(job_line(&format!("c{i}"), &format!("dirty:{s}")));
        } else {
            planted.push(None);
            cold.push(job_line(&format!("c{i}"), &format!("fuzz:{s}")));
        }
    }
    let mut rng = Rng::seed_from_u64(derive_seed(ctx.seed, 0x57EAD));
    let mut steady = Vec::with_capacity(jobs);
    let mut repeats = Vec::with_capacity(jobs);
    for j in 0..jobs {
        if j % NEW_EVERY == NEW_EVERY - 1 {
            let s = derive_seed(ctx.seed, (jobs + j) as u64);
            steady.push(job_line(&format!("s{j}"), &format!("fuzz:{s}")));
            repeats.push(None);
        } else {
            let src = rng.gen_index(jobs);
            steady.push(cold[src].clone());
            repeats.push(Some(src));
        }
    }
    Inputs {
        cold,
        planted,
        steady,
        repeats,
        warm_passes,
    }
}

fn server(dir: &Path) -> JobServer {
    let store = ArtifactStore::open(dir).expect("open the scratch store");
    let cfg = ServeConfig {
        workers: 1,
        wave: WAVE,
        verify: true,
        trace: false,
    };
    JobServer::with_store(cfg, Arc::new(store))
}

/// Serves one wave as `hlsb-serve` does: processes it and renders each
/// outcome line.
fn serve_wave(server: &mut JobServer, wave: &[String], lines: &mut Vec<String>) -> ServeSummary {
    server.process(wave.iter().cloned(), |o| lines.push(o.to_json()))
}

/// One pass of a job stream through a fresh server on the store in
/// `dir`, timing each wave; opening the store counts toward the first.
/// Returns the outcome lines and the store hits and rejections.
fn pass(dir: &Path, jobs: &[String], op_ms: &mut Vec<f64>) -> (Vec<String>, usize, usize) {
    let mut t0 = Instant::now();
    let mut server = server(dir);
    let mut lines = Vec::with_capacity(jobs.len());
    let (mut hits, mut rejected) = (0, 0);
    for wave in jobs.chunks(WAVE) {
        let summary = serve_wave(&mut server, wave, &mut lines);
        op_ms.push(ms_since(t0));
        t0 = Instant::now();
        hits += summary.store_hits;
        rejected += summary.rejected;
    }
    (lines, hits, rejected)
}

/// What one round measured besides its waves: jobs per second of each
/// phase, the warm and steady store hit rate, and cold rejections.
#[derive(Debug, Clone, Copy)]
struct Phases {
    cold: f64,
    warm: f64,
    steady: f64,
    store_hit_rate: f64,
    rejected: usize,
}

fn round(inputs: &Inputs, ctx: &Ctx, checks: &mut Checks) -> (Round, Phases) {
    let dir = ctx.scratch("serve");
    let mut r = Round::default();
    let jobs = inputs.cold.len() as f64;

    let t0 = Instant::now();
    let (cold, _, rejected) = pass(&dir, &inputs.cold, &mut r.op_ms);
    let cold_s = t0.elapsed().as_secs_f64();
    for (line, planted) in cold.iter().zip(&inputs.planted) {
        checks.op(cold_problem(line, *planted));
    }

    let t0 = Instant::now();
    let mut hits = 0;
    for p in 0..inputs.warm_passes {
        let (warm, h, _) = pass(&dir, &inputs.cold, &mut r.op_ms);
        hits += h;
        for (line, want) in warm.iter().zip(&cold) {
            checks.op((line != want).then(|| format!("warm pass {p} differs from cold: {line}")));
        }
    }
    let warm_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let (steady, h, _) = pass(&dir, &inputs.steady, &mut r.op_ms);
    hits += h;
    let steady_s = t0.elapsed().as_secs_f64();
    for (line, src) in steady.iter().zip(&inputs.repeats) {
        checks.op(match src {
            Some(src) => (*line != cold[*src]).then(|| format!("steady differs from cold: {line}")),
            None => (!line.contains("\"status\":\"done\"")).then(|| format!("not done: {line}")),
        });
    }
    let _ = std::fs::remove_dir_all(&dir);

    r.digest = hash_debug(&(&cold, &steady));
    let reads = inputs.warm_passes * inputs.cold.len() + inputs.steady.len();
    let phases = Phases {
        cold: jobs / cold_s,
        warm: jobs * inputs.warm_passes as f64 / warm_s,
        steady: inputs.steady.len() as f64 / steady_s,
        store_hit_rate: hits as f64 / reads as f64,
        rejected,
    };
    (r, phases)
}

/// Planted defects of error severity in the verify rule table; the
/// generator's other class, a dead channel (VN05), is a warning, and
/// such a design implements.
const REJECTING: [&str; 4] = ["VN01", "VN02", "VN03", "VN04"];

/// A cold job is right when its design is rejected exactly when its
/// planted defect is an error, and for that rule.
fn cold_problem(line: &str, planted: Option<&'static str>) -> Option<String> {
    let ok = match planted.filter(|rule| REJECTING.contains(rule)) {
        None => line.contains("\"status\":\"done\""),
        Some(rule) => {
            line.contains("\"status\":\"rejected\"") && line.contains(&format!("\"{rule}\""))
        }
    };
    (!ok).then(|| format!("expected {planted:?}: {line}"))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut checks = Checks::default();
    let (inputs, setup_s, measured) =
        harness::measure(ctx, || setup(ctx), |inputs| round(inputs, ctx, &mut checks));
    let (rounds, phases): (Vec<Round>, Vec<Phases>) = measured.into_iter().unzip();
    checks.same_results(&rounds);
    let mut layers = Vec::new();
    if ctx.traced {
        layers = traced(ctx, &inputs, &mut checks);
        let median_of = |f: fn(&Phases) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
        layers.extend([
            ("serve.cold_jobs_per_s".to_string(), median_of(|p| p.cold)),
            ("serve.warm_jobs_per_s".to_string(), median_of(|p| p.warm)),
            (
                "serve.steady_jobs_per_s".to_string(),
                median_of(|p| p.steady),
            ),
            ("store.hit_rate".to_string(), phases[0].store_hit_rate),
            ("verify.rejected".to_string(), phases[0].rejected as f64),
        ]);
    }
    Outcome {
        setup_s,
        rounds,
        op_labels: Vec::new(),
        checks,
        layers,
    }
}

/// A `JobServer` replayed from outside: the same wave logic over a
/// session mirror, with every layer call in a span.
struct ReplayServer {
    store: Arc<ArtifactStore>,
    replay: Replay,
    answered: HashMap<u64, ResultRecord>,
    jobs_seen: usize,
}

impl ReplayServer {
    fn open(span: &SpanGuard, dir: &Path) -> Self {
        let store =
            layer(span, "store.open", || ArtifactStore::open(dir)).expect("open the replay store");
        let store = Arc::new(store);
        ReplayServer {
            replay: Replay::with_store(Arc::clone(&store)),
            store,
            answered: HashMap::new(),
            jobs_seen: 0,
        }
    }

    /// Mirrors `JobServer::process` on one wave, rendering the outcome
    /// lines.
    fn wave(&mut self, span: &SpanGuard, wave: &[String], work: &mut Work) -> Vec<String> {
        let mut slots: Vec<JobOutcome> = Vec::with_capacity(wave.len());
        let mut pending: Vec<(usize, JobSpec, hlsb::Flow, String, u64)> = Vec::new();
        let mut in_flight: HashMap<u64, usize> = HashMap::new();
        let mut dups: Vec<(usize, usize)> = Vec::new();
        for (slot, line) in wave.iter().enumerate() {
            let index = self.jobs_seen;
            self.jobs_seen += 1;
            let mut outcome = JobOutcome {
                id: format!("job-{index}"),
                index,
                key: None,
                design: String::new(),
                status: JobStatus::Failed,
                record: None,
                findings: Vec::new(),
                error: None,
                from_store: false,
                deduped: false,
            };
            let job = match layer(span, "serve.parse", || JobSpec::from_json(line)) {
                Ok(job) => job,
                Err(e) => {
                    outcome.error = Some(e);
                    slots.push(outcome);
                    continue;
                }
            };
            if !job.id.is_empty() {
                outcome.id = job.id.clone();
            }
            outcome.design = job.design.clone();
            let (flow, label) = match layer(span, "serve.resolve", || job.resolve()) {
                Ok(resolved) => resolved,
                Err(e) => {
                    outcome.error = Some(e);
                    slots.push(outcome);
                    continue;
                }
            };
            let key = layer(span, "core.config_key", || flow.config_key());
            outcome.key = Some(key);
            if let Some(rec) = self.answered.get(&key) {
                outcome.status = JobStatus::Done;
                outcome.record = Some(rec.clone());
                outcome.deduped = true;
                slots.push(outcome);
                continue;
            }
            if let Some(primary) = in_flight.get(&key) {
                outcome.deduped = true;
                dups.push((slot, *primary));
                slots.push(outcome);
                continue;
            }
            if let Some(rec) = layer(span, "store.get", || self.store.get_result(key)) {
                outcome.status = JobStatus::Done;
                outcome.record = Some(rec.clone());
                outcome.from_store = true;
                self.answered.insert(key, rec);
                slots.push(outcome);
                continue;
            }
            in_flight.insert(key, slot);
            pending.push((slot, job, flow, label, key));
            slots.push(outcome);
        }

        // The server hands clones of the pending flows to its session.
        let flows: Vec<hlsb::Flow> = pending.iter().map(|p| p.2.clone()).collect();
        for ((slot, job, _, label, _), flow) in pending.into_iter().zip(flows) {
            // The job's flow in the open, for the replay (not part of
            // the server's work).
            let cfg = layer(span, "replay.mirror", || mirror(&job));
            let outcome = &mut slots[slot];
            match self.replay.run(span, &cfg) {
                Ok(v) => {
                    work.add_run(&v);
                    // `Flow::store_record` keys the record afresh.
                    let key = layer(span, "core.config_key", || flow.config_key());
                    let rec = ResultRecord {
                        key,
                        design: cfg.design.name.clone(),
                        label,
                        fmax_mhz: v.qor.fmax_mhz,
                        period_ns: v.qor.period_ns,
                        latency_cycles: v.qor.latency_cycles,
                        luts: v.qor.stats.luts,
                        ffs: v.qor.stats.ffs,
                        brams: v.qor.stats.brams,
                        dsps: v.qor.stats.dsps,
                        inserted_regs: v.qor.inserted_regs as u64,
                        duplicated_regs: v.qor.duplicated_regs as u64,
                        retime_moves: v.qor.retime_moves as u64,
                        wall_ms: 0.0,
                    };
                    layer(span, "store.put", || self.store.put_result(rec.clone()))
                        .expect("append to the replay store");
                    self.answered.insert(key, rec.clone());
                    outcome.status = JobStatus::Done;
                    outcome.record = Some(rec);
                }
                Err(Stop::Rejected(rules)) => {
                    outcome.status = JobStatus::Rejected;
                    outcome.findings = rules;
                }
                Err(Stop::Failed(e)) => {
                    outcome.status = JobStatus::Failed;
                    outcome.error = Some(e);
                }
            }
        }
        for (slot, primary) in dups {
            let p = slots[primary].clone();
            let dup = &mut slots[slot];
            dup.status = p.status;
            dup.record = p.record;
            dup.findings = p.findings;
            dup.error = p.error;
        }
        slots
            .iter()
            .map(|o| layer(span, "serve.outcome_json", || o.to_json()))
            .collect()
    }
}

/// The flow a fuzz or planted-defect job resolves to, in the open (as
/// `JobSpec::resolve` builds it), with the server's verify gate on.
fn mirror(job: &JobSpec) -> FlowConfig {
    let seed_of = |prefix: &str| -> u64 {
        job.design
            .strip_prefix(prefix)
            .and_then(|s| s.parse().ok())
            .expect("the farm stream holds fuzz and dirty jobs only")
    };
    let design = if job.design.starts_with("fuzz:") {
        hlsb_sim::random_design(seed_of("fuzz:"))
    } else {
        hlsb_sim::random_dirty_design(seed_of("dirty:")).0
    };
    assert_eq!(job.partitions, hlsb::Partitioning::Off);
    FlowConfig {
        clock_mhz: job.clock_mhz.unwrap_or(300.0),
        options: job.options,
        seed: job.seed,
        effort: job.effort,
        place_seeds: job.place_seeds,
        inject: job.inject.clone(),
        verify: true,
        ..FlowConfig::new(design)
    }
}

/// The traced round: every wave of all three phases through the
/// program's server, then through the replayed server, each on a
/// scratch store of its own.
fn traced(ctx: &Ctx, inputs: &Inputs, checks: &mut Checks) -> Vec<(String, f64)> {
    let program_dir = ctx.scratch("serve-program");
    let replay_dir = ctx.scratch("serve-replay");
    let tracer = Tracer::enabled();
    let root = tracer.root("serve-farm");
    let mut work = Work::default();
    let mut paired = Paired::default();
    let streams = std::iter::once(&inputs.cold)
        .chain(std::iter::repeat_n(&inputs.cold, inputs.warm_passes))
        .chain(std::iter::once(&inputs.steady));
    for jobs in streams {
        let mut program = paired.program(|| server(&program_dir));
        let mut replayed = paired.replay(|| ReplayServer::open(&root, &replay_dir));
        for wave in jobs.chunks(WAVE) {
            let mut want = Vec::with_capacity(wave.len());
            paired.program(|| serve_wave(&mut program, wave, &mut want));
            let got = paired.replay(|| {
                let span = root.child("wave");
                let got = replayed.wave(&span, wave, &mut work);
                span.finish();
                got
            });
            work.mismatches += differing(&got, &want);
        }
    }
    root.finish();
    let _ = std::fs::remove_dir_all(&program_dir);
    let _ = std::fs::remove_dir_all(&replay_dir);
    let tree = tracer.take_tree();
    let mut layers = harness::traced_layers(ctx, "serve-farm", &tree, paired, checks);
    layers.extend(work.metrics(&tree));
    layers
}

/// Lines that differ between a replayed and an untraced outcome stream.
fn differing(got: &[String], want: &[String]) -> u64 {
    let unequal = got.iter().zip(want).filter(|(g, w)| g != w).count();
    (unequal + got.len().abs_diff(want.len())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seed: u64) -> Ctx {
        Ctx {
            seed,
            seconds: 1.0,
            started: std::time::Instant::now(),
            traced: false,
            quick: false,
            out: std::env::temp_dir(),
        }
    }

    #[test]
    fn job_streams_are_a_function_of_the_seed() {
        let a = setup(&ctx(7));
        let b = setup(&ctx(7));
        assert_eq!(a.cold, b.cold);
        assert_eq!(a.steady, b.steady);
        assert_eq!(a.repeats, b.repeats);
        assert_eq!(a.planted, b.planted);
        let c = setup(&ctx(8));
        assert_ne!(a.cold, c.cold);
        assert_ne!(a.steady, c.steady);
    }

    #[test]
    fn job_streams_have_the_stated_mix() {
        let inputs = setup(&ctx(0xDAC2_2020));
        assert_eq!(inputs.cold.len(), 2000);
        assert_eq!(inputs.steady.len(), 2000);
        let dirty = inputs
            .cold
            .iter()
            .filter(|l| l.contains("\"dirty:"))
            .count();
        assert_eq!(dirty, 2000 / DIRTY_EVERY);
        assert_eq!(inputs.planted.iter().filter(|p| p.is_some()).count(), dirty);
        let new = inputs.repeats.iter().filter(|r| r.is_none()).count();
        assert_eq!(new, 2000 / NEW_EVERY);
        for (line, src) in inputs.steady.iter().zip(&inputs.repeats) {
            match src {
                Some(i) => assert_eq!(*line, inputs.cold[*i]),
                None => assert!(!inputs.cold.contains(line), "a new job repeats a cold one"),
            }
        }
        for line in inputs.cold.iter().chain(&inputs.steady) {
            let job = JobSpec::from_json(line).expect("generated jobs parse");
            assert_eq!(job.options, hlsb::OptimizationOptions::all());
        }
    }
}
