//! `lint` — run the static implicit-broadcast analyzer on the paper's
//! benchmarks (or any subset) without placing or timing anything.
//!
//! ```text
//! lint [--design <name>|all] [--target vu9p|zc706|u50|virtex7]
//!      [--clock <mhz>] [--format table|jsonl|sarif]
//!      [--deny <severity>] [--list]
//! ```
//!
//! By default every benchmark is linted against its paper-mandated
//! device and clock. `--target`/`--clock` override both for
//! what-if runs (e.g. "would genome's broadcasts matter on a ZC706?").
//! Exit status is 2 on usage errors (an unknown benchmark included), 1
//! if any finding is at or above the `--deny` severity (default `error`),
//! 0 otherwise — so CI can gate on it like any other linter, and
//! `--deny warning` makes warnings fatal. `--help` prints the usage and
//! exits 0.

use hlsb::{Flow, FlowSession};
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
    list: bool,
}

const USAGE: &str = "usage: lint [--design <name>|all] [--target vu9p|zc706|u50|virtex7]\n\
                     \x20           [--clock <mhz>] [--format table|jsonl|sarif]\n\
                     \x20           [--deny info|warning|error] [--list]";

fn parse_args(cli: &mut Cli) -> Result<Args, CliError> {
    let mut args = Args {
        benches: all_benchmarks(),
        target: None,
        clock_mhz: None,
        format: Format::Table,
        deny: Severity::Error,
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
            Arg::Flag("--list") => args.list = true,
            _ => return Err(CliError::unexpected(arg)),
        }
    }
    Ok(args)
}

/// The lint pre-pass of the flow's own probe stage: front end and
/// baseline schedule, no placement or timing.
fn lint_benchmark(session: &FlowSession, bench: &Benchmark, args: &Args) -> Report {
    let device = args.target.clone().unwrap_or_else(|| bench.device.clone());
    let flow = Flow::new(bench.design.clone())
        .device(device)
        .clock_mhz(args.clock_mhz.unwrap_or(bench.clock_mhz))
        .lint(true);
    let probe = session
        .probe(&flow)
        .unwrap_or_else(|e| panic!("probe of `{}` failed: {e}", bench.design.name));
    probe.lint.expect("probe ran with Flow::lint on")
}

fn main() -> ExitCode {
    let args = cli::parse_env("lint", USAGE, parse_args);
    if args.list {
        return shell::print_list();
    }
    let session = FlowSession::new();
    let reports: Vec<Report> = args
        .benches
        .iter()
        .map(|b| lint_benchmark(&session, b, &args))
        .collect();
    print_findings(args.format, &reports, args.deny)
}
