//! The bench binaries' shell: the three things every command line of
//! `lint`, `verify`, `simcheck`, `dse`, `explore`, `trace`, `profile`,
//! `sweep`, `explain` and `export` decides, decided once.
//!
//! 1. **Benchmark selection.** A `--design` flag or a benchmark positional
//!    resolves through [`resolve_benchmark`] / [`resolve_benchmarks`]
//!    (substring match over display and design names, `all` for the nine
//!    Table-1 benchmarks); [`Selection`] reads the `[<benchmark>] [<level>]`
//!    positionals; [`print_list`] is the one `--list`.
//! 2. **Output format.** [`Format`] is the one `--format` value; a binary
//!    names the formats it renders and any other is a usage error.
//! 3. **Telemetry sinks.** [`open_ledger`] reads `--ledger`,
//!    [`campaign_record`] builds a search's ledger record, and every
//!    output file goes through [`write_or_exit`]: a file that cannot be
//!    written prints `<tool>: cannot write <path>: <error>` and exits 1.

use crate::{benchmark_flow, expect_all};
use hlsb::{
    chrome_trace, FlowSession, ImplementationResult, MetricsRegistry, OptimizationOptions,
    Partitioning, PassTrace, TraceTree,
};
use hlsb_benchmarks::{all_benchmarks, find_benchmark, Benchmark};
use hlsb_fabric::Device;
use hlsb_findings::cli::{self, Cli, CliError};
use hlsb_findings::{render_sarif, Report, Severity};
use hlsb_telemetry::{render_prometheus, RunLedger, RunRecord};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

/// Reads a `--target` device name: `vu9p`, `zc706`, `u50` or `virtex7`.
pub fn device_by_name(name: &str) -> Option<Device> {
    match name {
        "vu9p" => Some(Device::ultrascale_plus_vu9p()),
        "zc706" => Some(Device::zynq_zc706()),
        "u50" => Some(Device::alveo_u50()),
        "virtex7" => Some(Device::virtex7()),
        _ => None,
    }
}

/// Resolves a benchmark name through [`find_benchmark`]. An unknown
/// name is a usage error that lists the nine Table-1 names.
pub fn resolve_benchmark(name: &str) -> Result<Benchmark, CliError> {
    find_benchmark(name).ok_or_else(|| {
        let names: Vec<String> = all_benchmarks()
            .into_iter()
            .map(|b| b.design.name)
            .collect();
        CliError::usage(format!(
            "no benchmark matching `{name}` (one of: {})",
            names.join(", ")
        ))
    })
}

/// Like [`resolve_benchmark`], with `all` selecting the nine Table-1
/// benchmarks.
pub fn resolve_benchmarks(name: &str) -> Result<Vec<Benchmark>, CliError> {
    if name == "all" {
        Ok(all_benchmarks())
    } else {
        resolve_benchmark(name).map(|b| vec![b])
    }
}

/// `--list`: one line per Table-1 benchmark with its design name,
/// broadcast type, paper clock and device.
pub fn print_list() -> ExitCode {
    for b in all_benchmarks() {
        println!(
            "{:<19} {:<22} {:>3.0} MHz  {}",
            b.design.name, b.broadcast_type, b.clock_mhz, b.device.name
        );
    }
    ExitCode::SUCCESS
}

/// Reads a clock flag's value: a finite frequency above 0 MHz.
pub fn read_mhz(cli: &mut Cli) -> Result<f64, CliError> {
    let mhz: f64 = cli.parse()?;
    cli.ensure(mhz.is_finite() && mhz > 0.0)?;
    Ok(mhz)
}

/// The `[<benchmark>] [<level>]` positionals of `explain`, `export`,
/// `profile`, `sweep` and `trace`.
pub struct Selection {
    /// The selected benchmarks: one, or the nine for `all`.
    pub benches: Vec<Benchmark>,
    /// The level as given, for labels.
    pub level: String,
    /// The level read as an option set.
    pub options: OptimizationOptions,
}

impl Selection {
    /// Reads the benchmark (default `genome`; `all` only where `many`)
    /// and the level (default `default_level`, a preset or a `BSKM`
    /// mask) from the first two positionals. A bad level is reported
    /// before a bad benchmark.
    pub fn read(
        positional: &[String],
        many: bool,
        default_level: &str,
    ) -> Result<Selection, CliError> {
        let name = positional.first().map_or("genome", String::as_str);
        let level = positional.get(1).map_or(default_level, String::as_str);
        let options = cli::positional("optimization level", level)?;
        let benches = if many {
            resolve_benchmarks(name)?
        } else {
            vec![resolve_benchmark(name)?]
        };
        Ok(Selection {
            benches,
            level: level.to_string(),
            options,
        })
    }

    /// Runs every selected benchmark once at its paper settings with span
    /// tracing on, through one session. Labels read `<name> (<level>)`.
    pub fn run_traced(&self, partitions: Partitioning) -> Vec<(String, ImplementationResult)> {
        let flows: Vec<_> = self
            .benches
            .iter()
            .map(|b| {
                benchmark_flow(b, self.options)
                    .partitions(partitions)
                    .trace(true)
            })
            .collect();
        let labels: Vec<String> = self
            .benches
            .iter()
            .map(|b| format!("{} ({})", b.name, self.level))
            .collect();
        let results = expect_all(&labels, FlowSession::new().run_many(&flows));
        labels.into_iter().zip(results).collect()
    }
}

/// A report format: `table`, `jsonl` or `sarif`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable table.
    Table,
    /// One JSON object per line.
    Jsonl,
    /// One SARIF 2.1.0 document.
    Sarif,
}

impl FromStr for Format {
    type Err = ();

    fn from_str(s: &str) -> Result<Format, ()> {
        match s {
            "table" => Ok(Format::Table),
            "jsonl" => Ok(Format::Jsonl),
            "sarif" => Ok(Format::Sarif),
            _ => Err(()),
        }
    }
}

impl Format {
    /// Reads `--format`'s value; a format outside `renders` is a usage
    /// error, as an unknown one is.
    pub fn read(cli: &mut Cli, renders: &[Format]) -> Result<Format, CliError> {
        let format = cli.parse()?;
        cli.ensure(renders.contains(&format))?;
        Ok(format)
    }
}

/// Prints findings reports in `format` (SARIF: one document, one run per
/// tool) and returns the exit status: 1 if any finding is at or above
/// `deny`, 0 otherwise.
pub fn print_findings(format: Format, reports: &[Report], deny: Severity) -> ExitCode {
    match format {
        Format::Table => {
            for r in reports {
                print!("{}", r.to_table());
                println!();
            }
        }
        Format::Jsonl => reports.iter().for_each(|r| print!("{}", r.to_jsonl())),
        Format::Sarif => println!("{}", render_sarif(reports)),
    }
    if reports.iter().any(|r| r.count_at_least(deny) > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Reads `--ledger`'s value and opens the run ledger there; a path that
/// cannot hold one is a usage error, before any flow runs.
pub fn open_ledger(cli: &mut Cli) -> Result<Arc<RunLedger>, CliError> {
    let path = cli.value()?;
    RunLedger::open(&path)
        .map(Arc::new)
        .map_err(|e| CliError::usage(format!("cannot open ledger `{path}`: {e}")))
}

/// `session`, appending one ledger record per flow evaluation when a
/// ledger is given.
pub fn attach_ledger(session: FlowSession, ledger: Option<&Arc<RunLedger>>) -> FlowSession {
    match ledger {
        Some(ledger) => session.with_ledger(ledger.clone()),
        None => session,
    }
}

/// The ledger record of one search campaign (`dse`, `explore`) over one
/// design: wall time since `started`, status `ok` or `failed`, the
/// search's per-stage times and its counts.
pub fn campaign_record(
    tool: &str,
    design: &str,
    ok: bool,
    started: Instant,
    trace: &PassTrace,
    counts: &[(&str, usize)],
) -> RunRecord {
    let status = if ok { "ok" } else { "failed" };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut rec = RunRecord::new(tool, design, 0, status, wall_ms);
    for pass in &trace.records {
        rec.add_stage(&pass.pass, pass.wall_ms);
    }
    for &(name, count) in counts {
        rec.add_count(name, count as u64);
    }
    rec
}

/// Writes `contents` to `path`, or prints `<tool>: cannot write <path>:
/// <error>` and exits 1.
pub fn write_or_exit(tool: &str, path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("{tool}: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// `--metrics-out`: the trees' metrics merged, in the Prometheus text
/// format with a `tool` label.
pub fn write_metrics<'a>(tool: &str, path: &str, trees: impl IntoIterator<Item = &'a TraceTree>) {
    let mut metrics = MetricsRegistry::default();
    for tree in trees {
        metrics.merge(&tree.metrics);
    }
    write_or_exit(tool, path, render_prometheus(&metrics, &[("tool", tool)]));
}

/// `--trace-out`: the labelled trees as Chrome trace-event JSON, one
/// process per tree, then `wrote Chrome trace for <n> <what> to <path>`
/// on stdout.
pub fn write_chrome_trace<'a>(
    tool: &str,
    path: &str,
    runs: impl IntoIterator<Item = (&'a str, &'a TraceTree)>,
    what: &str,
) {
    let runs: Vec<_> = runs.into_iter().collect();
    write_or_exit(tool, path, chrome_trace(&runs));
    println!("wrote Chrome trace for {} {what} to {path}", runs.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_name_the_four_devices() {
        for name in ["vu9p", "zc706", "u50", "virtex7"] {
            assert!(device_by_name(name).is_some(), "{name}");
        }
        assert!(device_by_name("VU9P").is_none());
    }

    #[test]
    fn benchmark_names_resolve_by_design_or_display_name() {
        let by_design = resolve_benchmark("vector_product").unwrap();
        let by_display = resolve_benchmark("Vector Arithmetic").unwrap();
        assert_eq!(by_design.name, by_display.name);
        assert_eq!(resolve_benchmarks("vector_product").unwrap().len(), 1);
        assert_eq!(resolve_benchmarks("all").unwrap().len(), 9);
        // `dse` and `explore` matched design names exactly; the substring
        // resolver must pick the same benchmark for each of the nine.
        for b in all_benchmarks() {
            let resolved = resolve_benchmarks(&b.design.name).unwrap();
            assert_eq!(resolved.len(), 1);
            assert_eq!(resolved[0].design.name, b.design.name);
            assert_eq!(resolved[0].name, b.name);
        }
    }

    #[test]
    fn an_unknown_benchmark_is_a_usage_error_listing_the_nine() {
        for (name, result) in [
            ("nosuch", resolve_benchmarks("nosuch").map(|_| ())),
            ("all", resolve_benchmark("all").map(|_| ())),
        ] {
            let Err(CliError::Usage(message)) = result else {
                panic!("`{name}` resolved");
            };
            assert!(message.starts_with(&format!("no benchmark matching `{name}`")));
            for b in all_benchmarks() {
                assert!(message.contains(&b.design.name), "{message}");
            }
        }
    }

    #[test]
    fn selection_reads_level_before_benchmark() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let sel = Selection::read(&args(&["vector", "B-K-"]), false, "all").unwrap();
        assert_eq!(sel.benches.len(), 1);
        assert_eq!(sel.options.to_string(), "B-K-");
        let sel = Selection::read(&[], true, "none").unwrap();
        assert_eq!(sel.benches[0].design.name, "genome_chaining");
        assert_eq!(
            (sel.level.as_str(), sel.options.to_string().as_str()),
            ("none", "----")
        );
        assert_eq!(
            Selection::read(&args(&["all"]), true, "all")
                .unwrap()
                .benches
                .len(),
            9
        );
        assert!(Selection::read(&args(&["all"]), false, "all").is_err());
        assert_eq!(
            Selection::read(&args(&["nosuch", "bogus"]), true, "all").err(),
            Some(CliError::usage("bad optimization level `bogus`"))
        );
    }
}
