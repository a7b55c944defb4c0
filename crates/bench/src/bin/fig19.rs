//! Regenerates Fig. 19: achieved frequency of the stream-buffer design
//! across buffer sizes, for the original design, the data-broadcast-only
//! optimization, and the full data + control optimization. The fifteen
//! flows run through one [`hlsb::FlowSession`] (parallel up to the
//! thread budget; each size's three variants share cached front-end and
//! schedule artifacts).

use hlsb::{Flow, FlowSession, OptimizationOptions};
use hlsb_bench::{expect_all, pass_summary, SEED};
use hlsb_benchmarks::stream_buffer;

const SIZES: [usize; 5] = [1 << 14, 1 << 16, 1 << 18, 1 << 20, 2_306_048];

fn main() {
    let device = hlsb::fabric::Device::ultrascale_plus_vu9p();
    println!("Fig. 19: stream buffer Fmax vs buffer size");
    println!(
        "{:>12} {:>7} {:>12} {:>12} {:>16}",
        "words", "BRAMs", "orig (MHz)", "data (MHz)", "data+ctrl (MHz)"
    );

    let mut flows = Vec::new();
    let mut labels = Vec::new();
    let mut brams = Vec::new();
    for words in SIZES {
        let design = stream_buffer::design(words);
        brams.push(design.arrays[0].bram_units());
        for (tag, opts) in [
            ("orig", OptimizationOptions::none()),
            ("data", OptimizationOptions::data_only()),
            ("all", OptimizationOptions::all()),
        ] {
            flows.push(
                Flow::new(design.clone())
                    .device(device.clone())
                    .clock_mhz(333.0)
                    .options(opts)
                    .seed(SEED),
            );
            labels.push(format!("stream buffer {words}w ({tag})"));
        }
    }
    let session = FlowSession::new();
    let results = expect_all(&labels, session.run_many(&flows));

    for ((words, brams), triple) in SIZES.iter().zip(brams).zip(results.chunks(3)) {
        println!(
            "{words:>12} {brams:>7} {:>12.0} {:>12.0} {:>16.0}",
            triple[0].fmax_mhz, triple[1].fmax_mhz, triple[2].fmax_mhz
        );
    }
    println!(
        "\nexpected shape: the original decays fastest with size; data-only\n\
         optimization helps but saturates; data + control stays high\n\
         (paper: both needed for scalable performance, §5.5)."
    );
    // Timings go to stderr so that stdout is a pure function of the flow.
    eprintln!("{}", pass_summary(&results, &session));
}
