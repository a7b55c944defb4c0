//! `hlsb-serve` — compile-farm batch job server CLI.
//!
//! ```text
//! hlsb-serve [--jobs <file>] [--store <dir>] [--workers <n>] [--wave <n>]
//!            [--no-verify] [--trace-out <file>] [--summary-out <file>]
//!            [--ledger <file>] [--metrics-out <file>] [--listen <addr>]
//! ```
//!
//! Reads one JSONL job per line from `--jobs` (or stdin), writes one
//! JSONL outcome per job to stdout in input order, and the volatile run
//! summary (throughput, hit/dedup accounting, `serve.*` metrics) to
//! stderr — and, with `--summary-out`, to a file. With `--store`, the
//! persistent artifact store at that directory answers repeated
//! configurations across invocations and processes.
//!
//! Telemetry: `--ledger` appends one run-ledger record per wave (plus
//! one per fresh flow evaluation) to a JSONL file shared safely across
//! processes; `--metrics-out` writes the final metrics snapshot in the
//! Prometheus text format; `--listen <addr>` (e.g. `127.0.0.1:9184`)
//! serves live snapshots of the wave metrics over HTTP for the whole
//! run — bind port 0 for an ephemeral port, printed on stderr.
//!
//! Exit code: 0 when every job was answered (`done` or `rejected`), 1
//! when any job `failed`, 2 for usage errors; `--help` prints the usage
//! and exits 0.

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::Arc;

use hlsb_findings::cli::{self, Arg, Cli, CliError};
use hlsb_serve::{JobServer, JobStatus, ServeConfig};
use hlsb_store::ArtifactStore;
use hlsb_telemetry::{render_prometheus, MetricsServer, RunLedger};

struct Args {
    jobs: Option<String>,
    store: Option<String>,
    workers: usize,
    wave: usize,
    verify: bool,
    trace_out: Option<String>,
    summary_out: Option<String>,
    ledger: Option<String>,
    metrics_out: Option<String>,
    listen: Option<String>,
}

const USAGE: &str = "usage: hlsb-serve [--jobs <file>] [--store <dir>] [--workers <n>] [--wave <n>]\n\
                     \x20                 [--no-verify] [--trace-out <file>] [--summary-out <file>]\n\
                     \x20                 [--ledger <file>] [--metrics-out <file>] [--listen <addr>]";

fn parse_args(cli: &mut Cli) -> Result<Args, CliError> {
    let mut args = Args {
        jobs: None,
        store: None,
        workers: 0,
        wave: 32,
        verify: true,
        trace_out: None,
        summary_out: None,
        ledger: None,
        metrics_out: None,
        listen: None,
    };
    while let Some(arg) = cli.next_arg()? {
        match arg {
            Arg::Flag("--jobs") => args.jobs = Some(cli.value()?),
            Arg::Flag("--store") => args.store = Some(cli.value()?),
            Arg::Flag("--workers") => args.workers = cli.parse()?,
            Arg::Flag("--wave") => args.wave = cli.parse()?,
            Arg::Flag("--no-verify") => args.verify = false,
            Arg::Flag("--trace-out") => args.trace_out = Some(cli.value()?),
            Arg::Flag("--summary-out") => args.summary_out = Some(cli.value()?),
            Arg::Flag("--ledger") => args.ledger = Some(cli.value()?),
            Arg::Flag("--metrics-out") => args.metrics_out = Some(cli.value()?),
            Arg::Flag("--listen") => args.listen = Some(cli.value()?),
            _ => return Err(CliError::unexpected(arg)),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = cli::parse_env("hlsb-serve", USAGE, parse_args);

    let cfg = ServeConfig {
        workers: args.workers,
        wave: args.wave.max(1),
        verify: args.verify,
        trace: args.trace_out.is_some(),
    };
    let mut server = match &args.store {
        Some(dir) => match ArtifactStore::open(dir) {
            Ok(store) => JobServer::with_store(cfg, Arc::new(store)),
            Err(e) => {
                eprintln!("hlsb-serve: cannot open store {dir}: {e}");
                return ExitCode::from(2);
            }
        },
        None => JobServer::new(cfg),
    };

    if let Some(path) = &args.ledger {
        match RunLedger::open(path) {
            Ok(ledger) => server = server.with_ledger(Arc::new(ledger)),
            Err(e) => {
                eprintln!("hlsb-serve: cannot open ledger {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let mut metrics_server = None;
    if let Some(addr) = &args.listen {
        let handle = server.metrics_handle();
        match MetricsServer::start(addr, move || {
            render_prometheus(&handle.lock().unwrap(), &[("tool", "serve")])
        }) {
            Ok(srv) => {
                eprintln!(
                    "hlsb-serve: metrics listening on http://{}/metrics",
                    srv.addr()
                );
                metrics_server = Some(srv);
            }
            Err(e) => {
                eprintln!("hlsb-serve: cannot listen on {addr}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let lines: Box<dyn Iterator<Item = String>> = match &args.jobs {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => Box::new(
                text.lines()
                    .map(str::to_string)
                    .collect::<Vec<_>>()
                    .into_iter(),
            ),
            Err(e) => {
                eprintln!("hlsb-serve: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => Box::new(std::io::stdin().lock().lines().map_while(Result::ok)),
    };

    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut any_failed = false;
    let summary = server.process(lines, |outcome| {
        any_failed |= outcome.status == JobStatus::Failed;
        let _ = writeln!(out, "{}", outcome.to_json());
    });
    let _ = out.flush();

    let rendered = format!("{}\n{}", summary.render(), server.metrics().render());
    eprintln!("{rendered}");
    if let Some(path) = &args.summary_out {
        if let Err(e) = std::fs::write(path, format!("{rendered}\n")) {
            eprintln!("hlsb-serve: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.metrics_out {
        let text = render_prometheus(&server.metrics(), &[("tool", "serve")]);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("hlsb-serve: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.trace_out {
        let tree = server.take_trace();
        if let Err(e) = std::fs::write(path, tree.to_jsonl()) {
            eprintln!("hlsb-serve: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    drop(metrics_server);
    if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
