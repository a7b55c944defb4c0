//! `suite-flow`: the nine Table-1 benchmarks × {none, all} at paper
//! settings (Normal effort, three placement seeds, flat), each round on
//! a fresh single-threaded session — the compile time a flow user waits
//! for. One operation is one flow.

use std::time::Instant;

use hlsb::{Flow, FlowSession, OptimizationOptions, PlaceEffort};
use hlsb_benchmarks::all_benchmarks;
use hlsb_sim::Stimulus;
use hlsb_trace::Tracer;

use crate::harness::{self, ms_since, Checks, Ctx, Outcome, Paired, Round, Work};
use crate::replay::{hash_debug, FlowConfig, Qor, Replay};

/// Loop iterations the correctness check simulates per flow.
const SIM_ITERS: u64 = 32;

struct Inputs {
    configs: Vec<FlowConfig>,
    flows: Vec<Flow>,
}

fn setup(ctx: &Ctx) -> Inputs {
    let (effort, place_seeds) = if ctx.quick {
        (PlaceEffort::Fast, 1)
    } else {
        (PlaceEffort::Normal, 3)
    };
    let mut configs = Vec::new();
    for b in all_benchmarks() {
        for options in [OptimizationOptions::none(), OptimizationOptions::all()] {
            configs.push(FlowConfig {
                device: b.device.clone(),
                clock_mhz: b.clock_mhz,
                options,
                seed: ctx.seed,
                effort,
                place_seeds,
                ..FlowConfig::new(b.design.clone())
            });
        }
    }
    let flows = configs.iter().map(FlowConfig::flow).collect();
    Inputs { configs, flows }
}

fn label(cfg: &FlowConfig) -> String {
    let options = if cfg.options == OptimizationOptions::all() {
        "all"
    } else {
        "none"
    };
    format!("{} {options}", cfg.design.name)
}

fn round(inputs: &Inputs, checks: &mut Checks) -> Round {
    let session = FlowSession::with_threads(1);
    let mut r = Round::default();
    let mut results = Vec::with_capacity(inputs.flows.len());
    for (cfg, flow) in inputs.configs.iter().zip(&inputs.flows) {
        let t0 = Instant::now();
        let out = session.run(flow);
        r.op_ms.push(ms_since(t0));
        checks.op(out.as_ref().err().map(|e| format!("{}: {e}", label(cfg))));
        results.push(out.ok().as_ref().map(Qor::from));
    }
    r.digest = hash_debug(&results);
    r
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut checks = Checks::default();
    let (inputs, setup_s, measured) = harness::measure(
        ctx,
        || setup(ctx),
        |inputs| (round(inputs, &mut checks), ()),
    );
    let rounds: Vec<Round> = measured.into_iter().map(|(r, ())| r).collect();
    checks.same_results(&rounds);

    // The golden interpreter against the timed simulator, untimed.
    let session = FlowSession::with_threads(1);
    for (cfg, flow) in inputs.configs.iter().zip(&inputs.flows) {
        let stim = Stimulus::seeded(&cfg.design, 1, SIM_ITERS as usize);
        let verdict = session
            .simulate(flow, &stim, SIM_ITERS)
            .map_err(|e| e.to_string())
            .and_then(|sim| sim.check());
        if let Err(e) = verdict {
            checks.fail(format!("{}: simulation check: {e}", label(cfg)));
        }
    }

    let layers = if ctx.traced {
        traced(ctx, &inputs, &mut checks)
    } else {
        Vec::new()
    };
    Outcome {
        setup_s,
        rounds,
        op_labels: inputs.configs.iter().map(label).collect(),
        checks,
        layers,
    }
}

/// The traced round: every flow through a fresh session, then replayed
/// layer by layer.
fn traced(ctx: &Ctx, inputs: &Inputs, checks: &mut Checks) -> Vec<(String, f64)> {
    let tracer = Tracer::enabled();
    let root = tracer.root("suite-flow");
    let session = FlowSession::with_threads(1);
    let mut replay = Replay::default();
    let mut work = Work::default();
    let mut paired = Paired::default();
    for (cfg, flow) in inputs.configs.iter().zip(&inputs.flows) {
        let want = paired.program(|| session.run(flow)).ok();
        let got = paired.replay(|| {
            let span = root.child("flow");
            let got = replay.run(&span, cfg).ok();
            span.finish();
            got
        });
        if let Some(v) = &got {
            work.add_run(v);
        }
        if got.map(|v| v.qor) != want.as_ref().map(Qor::from) {
            work.mismatches += 1;
        }
    }
    root.finish();
    let tree = tracer.take_tree();
    let mut layers = harness::traced_layers(ctx, "suite-flow", &tree, paired, checks);
    layers.extend(work.metrics(&tree));
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
    fn suite_flows_are_the_paper_settings_under_the_seed() {
        let a = setup(&ctx(7));
        assert_eq!(a.flows.len(), 18);
        for cfg in &a.configs {
            assert_eq!(
                (cfg.seed, cfg.effort, cfg.place_seeds),
                (7, PlaceEffort::Normal, 3)
            );
        }
        let keys = |i: &Inputs| i.flows.iter().map(Flow::config_key).collect::<Vec<_>>();
        assert_eq!(keys(&a), keys(&setup(&ctx(7))));
        let b = setup(&ctx(8));
        assert!(keys(&a).iter().zip(keys(&b)).all(|(x, y)| *x != y));
        // The open configuration and the program's flow agree.
        for (cfg, flow) in a.configs.iter().zip(&a.flows) {
            assert_eq!(cfg.flow().config_key(), flow.config_key());
        }
    }
}
