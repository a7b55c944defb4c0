//! Regenerates Fig. 15b: achieved frequency of the genome design using the
//! HLS original schedule vs our broadcast-aware schedule, across unroll
//! factors. All ten flows run through one [`hlsb::FlowSession`] (parallel
//! up to the thread budget; each unroll factor's two variants share a
//! cached front-end).

use hlsb::{Flow, FlowSession, OptimizationOptions};
use hlsb_bench::{expect_all, pass_summary, SEED};
use hlsb_benchmarks::genome;

const UNROLLS: [u32; 5] = [8, 16, 32, 48, 64];

fn main() {
    let device = hlsb::fabric::Device::ultrascale_plus_vu9p();
    println!("Fig. 15b: genome Fmax vs unroll factor");
    println!(
        "{:>8} {:>16} {:>16} {:>7}",
        "unroll", "HLS sched (MHz)", "our sched (MHz)", "gain"
    );

    let mut flows = Vec::new();
    let mut labels = Vec::new();
    for unroll in UNROLLS {
        let design = genome::design(unroll);
        for (tag, opts) in [
            ("orig", OptimizationOptions::none()),
            ("data", OptimizationOptions::data_only()),
        ] {
            flows.push(
                Flow::new(design.clone())
                    .device(device.clone())
                    .clock_mhz(333.0)
                    .options(opts)
                    .seed(SEED),
            );
            labels.push(format!("genome u{unroll} ({tag})"));
        }
    }
    let session = FlowSession::new();
    let results = expect_all(&labels, session.run_many(&flows));

    for (unroll, pair) in UNROLLS.iter().zip(results.chunks(2)) {
        let (orig, ours) = (&pair[0], &pair[1]);
        println!(
            "{unroll:>8} {:>16.0} {:>16.0} {:>+6.0}%",
            orig.fmax_mhz,
            ours.fmax_mhz,
            ours.gain_over(orig)
        );
    }
    println!("\nexpected shape: the gap widens as the broadcast factor grows");
    println!("(paper anchor: 264 -> 341 MHz at unroll 64)");
    // Timings go to stderr so that stdout is a pure function of the flow.
    eprintln!("{}", pass_summary(&results, &session));
}
