//! Static lint before implementation: flag the implicit broadcasts of a
//! design from its baseline schedule alone, then run the flow with the lint pre-pass
//! attached and compare the prediction against the routed critical path.
//!
//! ```text
//! cargo run --release --example broadcast_lint
//! ```

use hlsb::{Flow, FlowSession, OptimizationOptions, PlaceEffort};
use hlsb_fabric::Device;
use hlsb_ir::builder::DesignBuilder;
use hlsb_ir::types::DataType;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One coefficient multiplied into 128 unrolled lanes: a §3.1 data
    // broadcast the HLS schedule report would not show.
    let mut b = DesignBuilder::new("fir128");
    let fin = b.fifo("x_in", DataType::Int(32), 2);
    let fout = b.fifo("y_out", DataType::Int(32), 2);
    let mut k = b.kernel("fir");
    let mut l = k.pipelined_loop("mac", 4096, 1);
    l.set_unroll(128);
    let c = l.invariant_input("coef", DataType::Int(32));
    let x = l.fifo_read(fin, DataType::Int(32));
    let y = l.mul(c, x);
    l.fifo_write(fout, y);
    l.finish();
    k.finish();
    let design = b.finish()?;

    // Stand-alone: a probe runs the front end and the baseline schedule
    // only — no placement, no STA — and lints with the device's
    // calibrated delay tables.
    let flow = Flow::new(design)
        .device(Device::ultrascale_plus_vu9p())
        .clock_mhz(300.0)
        .options(OptimizationOptions::none())
        .place_effort(PlaceEffort::Fast)
        .place_seeds(1)
        .lint(true);
    let session = FlowSession::new();
    let report = session.probe(&flow)?.lint.expect("lint pre-pass enabled");
    print!("{}", report.to_table());

    // Or as a pre-pass of the full flow: the report rides along with the
    // implementation result, and the session's cached schedule is reused.
    let result = session.run(&flow)?;
    let lint = result.lint.as_ref().expect("lint pre-pass enabled");
    println!(
        "\nflow: {:.0} MHz achieved; lint predicted {} finding(s), worst {:?}",
        result.fmax_mhz,
        lint.diagnostics.len(),
        lint.max_severity()
    );
    Ok(())
}
