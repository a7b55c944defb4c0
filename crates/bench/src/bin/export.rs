//! Exports a benchmark's implemented netlist as structural Verilog.
//!
//! ```text
//! export [<benchmark>] [none|data|skid|all] [<output.v>]
//! ```
//!
//! The benchmark defaults to `genome`, the level to `all`; without an
//! output path the Verilog goes to stdout.
//!
//! Exit status is 2 on usage errors (an unknown benchmark or level
//! included), 0 otherwise; `--help` prints the usage and exits 0.

use hlsb::Flow;
use hlsb_bench::{parse_level, resolve_benchmark, SEED};
use hlsb_findings::cli::{self, Arg, CliError};
use hlsb_netlist::to_verilog;

const USAGE: &str = "usage: export [<benchmark>] [none|data|skid|all] [<output.v>]";

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let (bench, options) = cli::parse_env("export", USAGE, |cli| {
        while let Some(arg) = cli.next_arg()? {
            match arg {
                Arg::Positional(p) if positional.len() < 3 => positional.push(p.to_string()),
                _ => return Err(CliError::unexpected(arg)),
            }
        }
        let name = positional.first().map_or("genome", String::as_str);
        let options = parse_level(positional.get(1).map_or("all", String::as_str))?;
        Ok((resolve_benchmark(name)?, options))
    });
    let (result, netlist, _) = Flow::new(bench.design.clone())
        .device(bench.device.clone())
        .clock_mhz(bench.clock_mhz)
        .options(options)
        .seed(SEED)
        .run_detailed()
        .expect("flow");

    let verilog = to_verilog(&netlist);
    match positional.get(2) {
        Some(path) => {
            std::fs::write(path, &verilog).expect("write verilog");
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
