//! `verify` — run the static dataflow/contract verifier on the paper's
//! benchmarks (or any subset), plus an optional fuzz corpus, without
//! placing or timing anything.
//!
//! ```text
//! verify [--design <name>|all] [--target vu9p|zc706|u50|virtex7]
//!        [--clock <mhz>] [--format table|jsonl|sarif]
//!        [--deny <severity>] [--fuzz <n>] [--with-lint] [--list]
//! ```
//!
//! Each benchmark goes through the network analysis *and* the schedule
//! contracts: the flow's own probe stage runs with [`Flow::verify`]
//! enabled, so the contract findings audit exactly the cached schedule
//! artifacts an implementation run would use. `--fuzz <n>` additionally
//! network-checks the first `n` generated fuzz designs (the clean
//! generator — any finding there is an analyzer or generator bug).
//! `--with-lint` also lints every selected benchmark; with
//! `--format sarif` both tools land in one SARIF document as separate
//! runs with distinct rule IDs.
//!
//! Exit status is 2 on usage errors (an unknown benchmark included), 1
//! if any finding is at or above the `--deny` severity (default `error`),
//! 0 otherwise; `--help` prints the usage and exits 0.

use hlsb::error::FlowError;
use hlsb::{Flow, FlowSession, OptimizationOptions};
use hlsb_bench::shell::{self, device_by_name, print_findings, resolve_benchmarks, Format};
use hlsb_benchmarks::{all_benchmarks, Benchmark};
use hlsb_fabric::Device;
use hlsb_findings::cli::{self, Arg, Cli, CliError};
use hlsb_findings::{Report, Severity};
use std::process::ExitCode;

struct Args {
    benches: Vec<Benchmark>,
    target: Option<Device>,
    clock_mhz: Option<f64>,
    format: Format,
    deny: Severity,
    fuzz: usize,
    with_lint: bool,
    list: bool,
}

const USAGE: &str = "usage: verify [--design <name>|all] [--target vu9p|zc706|u50|virtex7]\n\
                     \x20             [--clock <mhz>] [--format table|jsonl|sarif]\n\
                     \x20             [--deny info|warning|error] [--fuzz <n>] [--with-lint] [--list]";

fn parse_args(cli: &mut Cli) -> Result<Args, CliError> {
    let mut args = Args {
        benches: all_benchmarks(),
        target: None,
        clock_mhz: None,
        format: Format::Table,
        deny: Severity::Error,
        fuzz: 0,
        with_lint: false,
        list: false,
    };
    while let Some(arg) = cli.next_arg()? {
        match arg {
            Arg::Flag("--design") => args.benches = resolve_benchmarks(&cli.value()?)?,
            Arg::Flag("--target") => args.target = Some(cli.parse_with(device_by_name)?),
            Arg::Flag("--clock") => args.clock_mhz = Some(shell::read_mhz(cli)?),
            Arg::Flag("--format") => {
                args.format = Format::read(cli, &[Format::Table, Format::Jsonl, Format::Sarif])?;
            }
            Arg::Flag("--deny") => args.deny = cli.parse_with(Severity::parse)?,
            Arg::Flag("--fuzz") => args.fuzz = cli.parse()?,
            Arg::Flag("--with-lint") => args.with_lint = true,
            Arg::Flag("--list") => args.list = true,
            _ => return Err(CliError::unexpected(arg)),
        }
    }
    Ok(args)
}

/// Network analysis plus the schedule contracts, via the flow's own
/// probe stage — a rejected probe yields the report from the error, so
/// dirty designs still render all their findings. With `--with-lint` the
/// same probe runs the lint pre-pass, whose report comes second (a
/// rejected probe has none).
fn verify_benchmark(
    session: &FlowSession,
    bench: &Benchmark,
    args: &Args,
) -> (Report, Option<Report>) {
    let device = args.target.clone().unwrap_or_else(|| bench.device.clone());
    let flow = Flow::new(bench.design.clone())
        .device(device.clone())
        .clock_mhz(args.clock_mhz.unwrap_or(bench.clock_mhz))
        .options(OptimizationOptions::all())
        .verify(true)
        .lint(args.with_lint);
    match session.probe(&flow) {
        Ok(probe) => (
            probe.verify.expect("probe ran with Flow::verify on"),
            probe.lint,
        ),
        Err(FlowError::VerifyRejected { report }) => (*report, None),
        Err(e) => {
            // A structurally broken benchmark cannot be probed at all;
            // surface the failure as an empty report plus a stderr note.
            eprintln!("verify: probe of `{}` failed: {e}", bench.design.name);
            let report = hlsb_verify::report(
                &bench.design.name,
                &device.name,
                args.clock_mhz.unwrap_or(bench.clock_mhz),
            );
            (report, None)
        }
    }
}

fn main() -> ExitCode {
    let args = cli::parse_env("verify", USAGE, parse_args);
    if args.list {
        return shell::print_list();
    }
    let session = FlowSession::new();
    let (mut reports, lints): (Vec<Report>, Vec<Option<Report>>) = args
        .benches
        .iter()
        .map(|b| verify_benchmark(&session, b, &args))
        .unzip();
    for seed in 0..args.fuzz as u64 {
        let d = hlsb_sim::random_design(seed);
        reports.push(hlsb_verify::verify_network(&d, "fuzz", 300.0));
    }
    // Verify and lint reports group into separate SARIF runs by tool.
    reports.extend(lints.into_iter().flatten());
    print_findings(args.format, &reports, args.deny)
}
