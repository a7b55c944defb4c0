//! Exports a benchmark's implemented netlist as structural Verilog.
//!
//! ```text
//! export [<benchmark>] [none|data|skid|all|<mask>] [<output.v>]
//! ```
//!
//! The benchmark defaults to `genome`, the level (a preset or a toggle
//! mask such as `B-K-`) to `all`; without an output path the Verilog
//! goes to stdout.
//!
//! Exit status is 2 on usage errors (an unknown benchmark or level
//! included), 1 if the output file cannot be written, 0 otherwise;
//! `--help` prints the usage and exits 0.

use hlsb_bench::benchmark_flow;
use hlsb_bench::shell::{self, Selection};
use hlsb_findings::cli::{self, Arg, CliError};
use hlsb_netlist::to_verilog;

const USAGE: &str = "usage: export [<benchmark>] [none|data|skid|all|<mask>] [<output.v>]";

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let selection = cli::parse_env("export", USAGE, |cli| {
        while let Some(arg) = cli.next_arg()? {
            match arg {
                Arg::Positional(p) if positional.len() < 3 => positional.push(p.to_string()),
                _ => return Err(CliError::unexpected(arg)),
            }
        }
        Selection::read(&positional, false, "all")
    });
    let bench = &selection.benches[0];
    let (result, netlist, _) = benchmark_flow(bench, selection.options)
        .run_detailed()
        .expect("flow");

    let verilog = to_verilog(&netlist);
    match positional.get(2) {
        Some(path) => {
            shell::write_or_exit("export", path, &verilog);
            eprintln!(
                "wrote {} ({} cells, Fmax {:.0} MHz) to {path}",
                bench.name,
                netlist.cell_count(),
                result.fmax_mhz
            );
        }
        None => print!("{verilog}"),
    }
}
