//! `report` — noise-aware perf-regression sentinel over the run ledger.
//!
//! ```text
//! report --ledger <path> [--baseline <path>] [--window <n>]
//!        [--max-ratio <r>] [--write-baseline <path>]
//! ```
//!
//! Reads the run ledger (as written by `hlsb-serve --ledger`,
//! `dse --ledger`, `explore --ledger`, or any `FlowSession` with a
//! ledger attached) and checks the most recent `--window` records
//! (default 5) against a committed baseline. Stage rules compare the
//! *median* stage latency of the window against `median_ms × max_ratio`
//! — a single noisy sample cannot trip the gate, a sustained slowdown
//! does. Rate rules put a floor under cache effectiveness (e.g.
//! store-hit rate per job). Missing data fails closed: a rule with no
//! matching ledger records is a regression, not a skip.
//!
//! `--write-baseline` derives a fresh baseline from the ledger instead
//! of checking one: per-(tool, design, stage) medians with headroom
//! `--max-ratio` (default 4), plus hit-rate floors at half the observed
//! rate. Review and commit the file; `--baseline` then gates CI.
//!
//! Exit status is 2 on usage errors, 1 when any check regresses,
//! 0 when all checks pass; `--help` prints the usage and exits 0.

use hlsb_findings::cli::{self, Arg, Cli, CliError};
use hlsb_telemetry::{check, Baseline, RunLedger};
use std::process::ExitCode;

struct Args {
    ledger: String,
    baseline: Option<String>,
    window: usize,
    max_ratio: f64,
    write_baseline: Option<String>,
}

const USAGE: &str = "usage: report --ledger <path> [--baseline <path>] [--window <n>]\n\
                     \x20             [--max-ratio <r>] [--write-baseline <path>]";

fn parse_args(cli: &mut Cli) -> Result<Args, CliError> {
    let mut ledger = None;
    let mut args = Args {
        ledger: String::new(),
        baseline: None,
        window: 5,
        max_ratio: 4.0,
        write_baseline: None,
    };
    while let Some(arg) = cli.next_arg()? {
        match arg {
            Arg::Flag("--ledger") => ledger = Some(cli.value()?),
            Arg::Flag("--baseline") => args.baseline = Some(cli.value()?),
            Arg::Flag("--window") => {
                args.window = cli.parse()?;
                cli.ensure(args.window >= 1)?;
            }
            Arg::Flag("--max-ratio") => {
                args.max_ratio = cli.parse()?;
                cli.ensure(args.max_ratio.is_finite() && args.max_ratio >= 1.0)?;
            }
            Arg::Flag("--write-baseline") => args.write_baseline = Some(cli.value()?),
            _ => return Err(CliError::unexpected(arg)),
        }
    }
    args.ledger = ledger.ok_or(CliError::usage("--ledger is required"))?;
    if args.baseline.is_none() && args.write_baseline.is_none() {
        return Err(CliError::usage(
            "need --baseline to check or --write-baseline to derive one",
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = cli::parse_env("report", USAGE, parse_args);

    let records = match RunLedger::load(&args.ledger) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("report: cannot read ledger {}: {e}", args.ledger);
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.write_baseline {
        let baseline = Baseline::from_records(&records, args.window, args.max_ratio);
        if baseline.stages.is_empty() && baseline.rates.is_empty() {
            eprintln!("report: ledger {} yields an empty baseline", args.ledger);
            return ExitCode::from(2);
        }
        if let Err(e) = std::fs::write(path, baseline.render()) {
            eprintln!("report: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote baseline with {} stage rule(s) and {} rate rule(s) to {path}",
            baseline.stages.len(),
            baseline.rates.len()
        );
        if args.baseline.is_none() {
            return ExitCode::SUCCESS;
        }
    }

    let path = args.baseline.as_deref().expect("checked in parse_args");
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("report: cannot read baseline {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline = match Baseline::parse(&text) {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!("report: cannot parse baseline {path}: {e}");
            return ExitCode::from(2);
        }
    };

    let report = check(&records, &baseline, args.window);
    print!("{}", report.render());
    if report.regressions() > 0 {
        eprintln!("report: {} check(s) regressed", report.regressions());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
