//! `serve` — compile-farm load generator and throughput harness.
//!
//! ```text
//! serve [--load <n>] [--designs <name,...>|all] [--dirty-every <k>]
//!       [--options <mask>] [--repeat <r>] [--passes <p>]
//!       [--workers <n>] [--wave <n>] [--store <dir>]
//!       [--timing-out <file>] [--emit] [--quiet]
//! ```
//!
//! Generates a deterministic job stream — `--load n` fuzzer-generated
//! designs (`fuzz:0..n`), and/or the named benchmarks — and drives it
//! through the [`hlsb_serve::JobServer`], measuring throughput. With
//! `--passes p` the same stream is served `p` times, each pass by a
//! *fresh* server over the same store, so pass 1 is the cold-store cost
//! and later passes the warm-store cost (the EXPERIMENTS.md throughput
//! curve: cold vs warm × worker count). `--repeat r` duplicates the
//! stream in-pass to measure in-run dedup instead. With `--emit` the
//! generated job lines are printed instead of served (pipe them to
//! `hlsb-serve`). `--timing-out` appends one JSONL row per pass — the
//! tracked throughput artifact.
//!
//! Exit status is 2 on usage errors or an unopenable store, 1 when any
//! job fails, 0 otherwise; `--help` prints the usage and exits 0.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

use hlsb_findings::cli::{self, Arg, Cli, CliError};
use hlsb_serve::{JobServer, JobStatus, ServeConfig};
use hlsb_store::ArtifactStore;

struct Args {
    load: usize,
    designs: Vec<String>,
    dirty_every: usize,
    options: String,
    repeat: usize,
    passes: usize,
    workers: usize,
    wave: usize,
    store: Option<String>,
    timing_out: Option<String>,
    emit: bool,
    quiet: bool,
}

const USAGE: &str = "usage: serve [--load <n>] [--designs <name,...>|all] [--dirty-every <k>]\n\
                     \x20            [--options <mask>] [--repeat <r>] [--passes <p>]\n\
                     \x20            [--workers <n>] [--wave <n>] [--store <dir>]\n\
                     \x20            [--timing-out <file>] [--emit] [--quiet]";

fn parse_args(cli: &mut Cli) -> Result<Args, CliError> {
    let mut args = Args {
        load: 0,
        designs: Vec::new(),
        dirty_every: 0,
        options: "none".to_string(),
        repeat: 1,
        passes: 1,
        workers: 0,
        wave: 32,
        store: None,
        timing_out: None,
        emit: false,
        quiet: false,
    };
    while let Some(arg) = cli.next_arg()? {
        match arg {
            Arg::Flag("--load") => args.load = cli.parse()?,
            Arg::Flag("--designs") => {
                let v = cli.value()?;
                args.designs = if v == "all" {
                    hlsb_benchmarks::all_benchmarks()
                        .into_iter()
                        .map(|b| b.design.name)
                        .collect()
                } else {
                    v.split(',').map(str::to_string).collect()
                };
            }
            Arg::Flag("--dirty-every") => args.dirty_every = cli.parse()?,
            Arg::Flag("--options") => {
                args.options = cli.value()?;
                cli.ensure(hlsb_serve::parse_options(&args.options).is_some())?;
            }
            Arg::Flag("--repeat") => args.repeat = cli.parse::<usize>()?.max(1),
            Arg::Flag("--passes") => args.passes = cli.parse::<usize>()?.max(1),
            Arg::Flag("--workers") => args.workers = cli.parse()?,
            Arg::Flag("--wave") => args.wave = cli.parse::<usize>()?.max(1),
            Arg::Flag("--store") => args.store = Some(cli.value()?),
            Arg::Flag("--timing-out") => args.timing_out = Some(cli.value()?),
            Arg::Flag("--emit") => args.emit = true,
            Arg::Flag("--quiet") => args.quiet = true,
            _ => return Err(CliError::unexpected(arg)),
        }
    }
    if args.load == 0 && args.designs.is_empty() {
        return Err(CliError::usage(
            "nothing to serve: give --load and/or --designs",
        ));
    }
    Ok(args)
}

/// The deterministic job stream for one pass: named benchmarks first,
/// then the fuzz load, the whole stream duplicated `repeat` times.
fn job_lines(args: &Args) -> Vec<String> {
    let mut base = Vec::new();
    for design in &args.designs {
        base.push(format!(
            "{{\"design\":\"{}\",\"options\":\"{}\"}}",
            design, args.options
        ));
    }
    for i in 0..args.load {
        let design = if args.dirty_every > 0 && (i + 1) % args.dirty_every == 0 {
            format!("dirty:{i}")
        } else {
            format!("fuzz:{i}")
        };
        base.push(format!(
            "{{\"design\":\"{design}\",\"options\":\"{}\"}}",
            args.options
        ));
    }
    let mut lines = Vec::with_capacity(base.len() * args.repeat);
    for _ in 0..args.repeat {
        lines.extend(base.iter().cloned());
    }
    lines
}

fn main() -> ExitCode {
    let args = cli::parse_env("serve", USAGE, parse_args);
    let lines = job_lines(&args);
    if args.emit {
        let stdout = std::io::stdout();
        let mut out = std::io::BufWriter::new(stdout.lock());
        for line in &lines {
            let _ = writeln!(out, "{line}");
        }
        return ExitCode::SUCCESS;
    }

    let store = match &args.store {
        Some(dir) => match ArtifactStore::open(dir) {
            Ok(store) => Some(Arc::new(store)),
            Err(e) => {
                eprintln!("serve: cannot open store {dir}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let cfg = ServeConfig {
        workers: args.workers,
        wave: args.wave,
        verify: true,
        trace: false,
    };

    let mut timing_rows = Vec::new();
    let mut any_failed = false;
    let mut first_pass_lines: Vec<String> = Vec::new();
    for pass in 0..args.passes {
        // A fresh server per pass: pass 0 measures the cold-store cost,
        // later passes the warm-store cost (in-run dedup reset).
        let mut server = match &store {
            Some(store) => JobServer::with_store(cfg.clone(), store.clone()),
            None => JobServer::new(cfg.clone()),
        };
        let stdout = std::io::stdout();
        let mut out = std::io::BufWriter::new(stdout.lock());
        let mut pass_lines = Vec::new();
        let summary = server.process(lines.iter().cloned(), |outcome| {
            any_failed |= outcome.status == JobStatus::Failed;
            let line = outcome.to_json();
            if !args.quiet {
                let _ = writeln!(out, "{line}");
            }
            pass_lines.push(line);
        });
        let _ = out.flush();
        if pass == 0 {
            first_pass_lines = pass_lines;
        } else if pass_lines != first_pass_lines {
            eprintln!("serve: pass {pass} outcome stream DIVERGED from pass 0");
            any_failed = true;
        }
        let phase = if pass == 0 { "cold" } else { "warm" };
        eprintln!("pass {pass} ({phase}): {}", summary.render());
        // Self-explaining throughput rows: the hit-rate and wave-latency
        // quantiles make results/serve.txt readable without cross-
        // referencing the summary stream. `verify_rejected` is named for
        // what it counts — jobs turned away by the sign-off contract,
        // not scheduler drops.
        let store_hit_rate = if summary.jobs > 0 {
            summary.store_hits as f64 / summary.jobs as f64
        } else {
            0.0
        };
        let metrics = server.metrics();
        let wave_ms = metrics.histogram("serve.wave-ms");
        let (wave_p50_ms, wave_p95_ms) = match wave_ms {
            Some(h) => (h.quantile(0.5), h.quantile(0.95)),
            None => (0.0, 0.0),
        };
        timing_rows.push(format!(
            "{{\"pass\":{pass},\"phase\":\"{phase}\",\"workers\":{},\"jobs\":{},\
             \"wall_ms\":{:.1},\"jobs_per_s\":{:.2},\"evaluated\":{},\"store_hits\":{},\
             \"dedup_hits\":{},\"verify_rejected\":{},\"failed\":{},\
             \"store_hit_rate\":{:.3},\"wave_p50_ms\":{:.1},\"wave_p95_ms\":{:.1}}}",
            server.session().threads(),
            summary.jobs,
            summary.wall_ms,
            summary.jobs_per_sec(),
            summary.evaluated,
            summary.store_hits,
            summary.dedup_hits,
            summary.rejected,
            summary.failed,
            store_hit_rate,
            wave_p50_ms,
            wave_p95_ms,
        ));
    }

    if let Some(path) = &args.timing_out {
        let mut file = match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            Ok(f) => f,
            Err(e) => {
                eprintln!("serve: cannot open {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for row in &timing_rows {
            if writeln!(file, "{row}").is_err() {
                eprintln!("serve: cannot write {path}");
                return ExitCode::FAILURE;
            }
        }
        eprintln!("appended {} timing rows to {path}", timing_rows.len());
    }
    if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
