//! `probe-sweep`: `FlowSession::probe` with verify over the optimization
//! cube at four clock targets × the nine Table-1 benchmarks, each round
//! on a fresh single-threaded session — the cheap DSE/explore stage,
//! with no placement at all. One operation is one probe.

use std::time::Instant;

use hlsb::{Flow, FlowSession};
use hlsb_benchmarks::{all_benchmarks, Benchmark};
use hlsb_dse::{DseConfig, KnobSpace};
use hlsb_trace::Tracer;

use crate::harness::{self, ms_since, Checks, Ctx, Outcome, Paired, Round};
use crate::replay::{hash_debug, FlowConfig, ProbeView, Replay};

struct Inputs {
    benches: Vec<Benchmark>,
    points: Vec<(usize, DseConfig)>,
}

fn setup(ctx: &Ctx) -> Inputs {
    let clocks = if ctx.quick {
        vec![300.0]
    } else {
        vec![250.0, 300.0, 333.0, 400.0]
    };
    let cube = KnobSpace::optimization_cube(clocks).enumerate();
    let benches = all_benchmarks();
    let points = (0..benches.len())
        .flat_map(|b| cube.iter().map(move |c| (b, *c)))
        .collect();
    Inputs { benches, points }
}

/// A probe point as the program sees it: the flow DSE builds for it, with
/// the verify gate on.
fn flow(inputs: &Inputs, (b, dse): &(usize, DseConfig), seed: u64) -> Flow {
    let bench = &inputs.benches[*b];
    dse.flow(&bench.design, &bench.device, seed).verify(true)
}

/// The same probe point in the open, for the replay.
fn config(inputs: &Inputs, (b, dse): &(usize, DseConfig), seed: u64) -> FlowConfig {
    let bench = &inputs.benches[*b];
    FlowConfig {
        device: bench.device.clone(),
        clock_mhz: dse.clock_mhz,
        options: dse.options,
        seed,
        effort: dse.effort,
        place_seeds: dse.place_seeds,
        verify: true,
        ..FlowConfig::new(bench.design.clone())
    }
}

/// One probe through the program: its view, or why it failed or was
/// not verify-clean.
fn probe(session: &FlowSession, flow: &Flow) -> Result<ProbeView, String> {
    let p = session.probe(flow).map_err(|e| e.to_string())?;
    match &p.verify {
        Some(rep) if rep.count_at_least(hlsb_findings::Severity::Error) == 0 => {
            Ok(ProbeView::from(&p))
        }
        _ => Err("no clean verify report".to_string()),
    }
}

/// Whether each probe of a round built a stage artifact, and the
/// session's per-stage hit rates.
struct Misses {
    missed: Vec<bool>,
    front_end_hit_rate: f64,
    schedule_hit_rate: f64,
}

fn round(inputs: &Inputs, seed: u64, checks: &mut Checks) -> (Round, Misses) {
    let session = FlowSession::with_threads(1);
    let mut r = Round::default();
    let mut views = Vec::with_capacity(inputs.points.len());
    let mut missed = Vec::with_capacity(inputs.points.len());
    for point in &inputs.points {
        let flow = flow(inputs, point, seed);
        let misses = session.cache_stats().misses;
        let t0 = Instant::now();
        let out = probe(&session, &flow);
        r.op_ms.push(ms_since(t0));
        missed.push(session.cache_stats().misses > misses);
        let bench = &inputs.benches[point.0];
        checks.op(out
            .as_ref()
            .err()
            .map(|e| format!("{} {}: {e}", bench.name, point.1.label())));
        views.push(out.ok());
    }
    r.digest = hash_debug(&views);
    let stats = session.cache_stats_by_stage();
    let misses = Misses {
        missed,
        front_end_hit_rate: stats.front_end.hit_rate(),
        schedule_hit_rate: stats.schedule.hit_rate(),
    };
    (r, misses)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut checks = Checks::default();
    let (inputs, setup_s, measured) = harness::measure(
        ctx,
        || setup(ctx),
        |inputs| round(inputs, ctx.seed, &mut checks),
    );
    let (rounds, misses): (Vec<Round>, Vec<Misses>) = measured.into_iter().unzip();
    checks.same_results(&rounds);
    let mut layers = Vec::new();
    if ctx.traced {
        layers = traced(ctx, &inputs, &mut checks);
        // Probe latency split by whether the probe built an artifact.
        let m = &misses[0];
        let times = harness::per_op_times(&rounds);
        let rate = |miss: bool| {
            let (n, ms) = times
                .iter()
                .zip(&m.missed)
                .filter(|(_, &x)| x == miss)
                .fold((0.0, 0.0), |(n, ms), (t, _)| (n + 1.0, ms + t));
            harness::rate(n, ms / 1e3)
        };
        layers.extend([
            ("probe.hit.per_s".to_string(), rate(false)),
            ("probe.miss.per_s".to_string(), rate(true)),
            ("cache.front_end_hit_rate".to_string(), m.front_end_hit_rate),
            ("cache.schedule_hit_rate".to_string(), m.schedule_hit_rate),
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

/// The traced round: every probe through a fresh session, then
/// replayed layer by layer on a fresh session mirror.
fn traced(ctx: &Ctx, inputs: &Inputs, checks: &mut Checks) -> Vec<(String, f64)> {
    let tracer = Tracer::enabled();
    let root = tracer.root("probe-sweep");
    let session = FlowSession::with_threads(1);
    let mut replay = Replay::default();
    let mut paired = Paired::default();
    let mut mismatches = 0u64;
    for point in &inputs.points {
        let (flow, cfg) = (
            flow(inputs, point, ctx.seed),
            config(inputs, point, ctx.seed),
        );
        let want = paired.program(|| probe(&session, &flow)).ok();
        let got = paired.replay(|| {
            let span = root.child("probe");
            let got = replay.probe(&span, &cfg).ok();
            span.finish();
            got
        });
        mismatches += u64::from(got != want);
    }
    root.finish();
    let tree = tracer.take_tree();
    let mut layers = harness::traced_layers(ctx, "probe-sweep", &tree, paired, checks);
    layers.push(("replay.mismatches".to_string(), mismatches as f64));
    layers
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
    fn probe_points_cover_the_cube_and_carry_the_seed() {
        let inputs = setup(&ctx(7));
        // 12 canonical option sets × 4 clocks × 9 designs.
        assert_eq!(inputs.points.len(), 432);
        assert_eq!(inputs.points, setup(&ctx(7)).points);
        let a = flow(&inputs, &inputs.points[5], 7);
        let b = flow(&inputs, &inputs.points[5], 8);
        let cfg = config(&inputs, &inputs.points[5], 7);
        assert!(cfg.verify);
        assert_eq!(a.config_key(), cfg.flow().config_key());
        assert_ne!(a.config_key(), b.config_key());
    }
}
