//! Diagnostic tool: prints the critical path of a benchmark under a given
//! optimization setting, plus the run's span trace with the decision
//! provenance (which chains were split, what was pruned, where skid
//! buffers landed).
//!
//! ```text
//! explain [<benchmark>] [none|data|skid|all|<mask>]
//! ```
//!
//! The benchmark defaults to `genome`, the level (a preset or a toggle
//! mask such as `B-K-`) to `none`.
//!
//! Exit status is 2 on usage errors (an unknown benchmark or level
//! included), 0 otherwise; `--help` prints the usage and exits 0.

use hlsb::Flow;
use hlsb_bench::{resolve_benchmark, SEED};
use hlsb_findings::cli::{self, Arg, CliError};

const USAGE: &str = "usage: explain [<benchmark>] [none|data|skid|all|<mask>]";

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let (bench, level, options) = cli::parse_env("explain", USAGE, |cli| {
        while let Some(arg) = cli.next_arg()? {
            match arg {
                Arg::Positional(p) if positional.len() < 2 => positional.push(p.to_string()),
                _ => return Err(CliError::unexpected(arg)),
            }
        }
        let name = positional.first().map_or("genome", String::as_str);
        let level = positional.get(1).map_or("none", String::as_str);
        let options = cli::positional("optimization level", level)?;
        let bench = resolve_benchmark(name)?;
        Ok((bench, level, options))
    });
    println!("== {} ({level}) on {} ==", bench.name, bench.device);

    let (result, netlist, placement) = Flow::new(bench.design.clone())
        .device(bench.device.clone())
        .clock_mhz(bench.clock_mhz)
        .options(options)
        .seed(SEED)
        .trace(true)
        .run_detailed()
        .expect("flow");

    println!(
        "Fmax {:.0} MHz  period {:.2} ns  depth {} cells",
        result.fmax_mhz,
        result.period_ns,
        result.timing.critical_path.len()
    );
    println!(
        "inserted_regs {}  duplicated {}  retime_moves {}  ctrl_fanout {}  mem_fanout {}  sync {}/{}",
        result.inserted_regs,
        result.duplicated_regs,
        result.retime_moves,
        result.lower_info.max_control_fanout,
        result.lower_info.max_memory_fanout,
        result.lower_info.sync_waited,
        result.lower_info.sync_inputs,
    );
    let wire = hlsb::fabric::WireModel::for_device(&bench.device);
    print!("{}", result.timing.path_text(&netlist, &placement, &wire));
    println!("stats: {}", result.stats);

    let tree = result.trace_tree().expect("flow ran with tracing enabled");
    println!();
    println!("decision provenance:");
    print!("{}", tree.render());
    if !tree.metrics.is_empty() {
        println!();
        print!("{}", tree.metrics.render());
    }
}
