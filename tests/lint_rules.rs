//! Per-rule lint tests on small fixture designs. Each test lints through
//! the lint pre-pass of `FlowSession::probe` (VU9P, 300 MHz, seed 1) and
//! keeps only the diagnostics of the rule under test.

use hlsb::{Flow, FlowSession};
use hlsb_fabric::Device;
use hlsb_findings::{Diagnostic, Severity};
use hlsb_ir::builder::DesignBuilder;
use hlsb_ir::pragma::Partition;
use hlsb_ir::types::DataType;
use hlsb_ir::Design;

/// The `rule` diagnostics of `design`'s lint report.
fn run(design: &Design, rule: &str) -> Vec<Diagnostic> {
    let flow = Flow::new(design.clone())
        .device(Device::ultrascale_plus_vu9p())
        .clock_mhz(300.0)
        .seed(1)
        .lint(true);
    let probe = FlowSession::new().probe(&flow).expect("probe succeeds");
    let report = probe.lint.expect("probe ran with Flow::lint on");
    report
        .diagnostics
        .into_iter()
        .filter(|d| d.rule == rule)
        .collect()
}

// ---- BA01 data-broadcast ----

/// One invariant coefficient multiplied into every unrolled lane.
fn broadcast_design(unroll: u32) -> Design {
    let mut b = DesignBuilder::new("ba01");
    let fin = b.fifo("in", DataType::Int(32), 2);
    let fout = b.fifo("out", DataType::Int(32), 2);
    let mut k = b.kernel("top");
    let mut l = k.pipelined_loop("main", 4096, 1);
    l.set_unroll(unroll);
    let coef = l.invariant_input("coef", DataType::Int(32));
    let x = l.fifo_read(fin, DataType::Int(32));
    let y = l.mul(coef, x);
    l.fifo_write(fout, y);
    l.finish();
    k.finish();
    b.finish().unwrap()
}

#[test]
fn ba01_flags_wide_unroll() {
    let diags = run(&broadcast_design(256), "BA01");
    assert!(!diags.is_empty(), "256-way broadcast must be flagged");
    let d = diags
        .iter()
        .find(|d| d.subject == "coef")
        .expect("coef flagged");
    assert!(d.broadcast_factor >= 256);
    assert!(d.est_penalty_ns > 0.0);
    assert_eq!(d.rule, "BA01");
    assert_eq!(d.location.kernel.as_deref(), Some("top"));
    assert_eq!(d.location.looop.as_deref(), Some("main"));
    assert!(d.location.pragma.as_deref().unwrap().contains("unroll=256"));
}

#[test]
fn ba01_silent_without_unrolling() {
    assert!(
        run(&broadcast_design(1), "BA01").is_empty(),
        "no unroll, no broadcast"
    );
}

#[test]
fn ba01_severity_grows_with_factor() {
    let wide = run(&broadcast_design(1024), "BA01");
    let worst = wide.iter().map(|d| d.severity).max().unwrap();
    assert_eq!(worst, Severity::Error, "1024-way fanout should be an error");
}

// ---- BA02 memory-scatter ----

fn buffer_design(len: usize, accessed: bool) -> Design {
    let mut b = DesignBuilder::new("ba02");
    let arr = b.array("buf", DataType::Int(32), len, Partition::None);
    let fout = b.fifo("out", DataType::Int(32), 2);
    let mut k = b.kernel("top");
    let mut l = k.pipelined_loop("main", 1024, 1);
    let i = l.indvar("i");
    let v = if accessed {
        l.load(arr, i, DataType::Int(32))
    } else {
        l.add(i, i)
    };
    l.fifo_write(fout, v);
    l.finish();
    k.finish();
    b.finish().unwrap()
}

#[test]
fn ba02_flags_the_papers_figure3_buffer() {
    // 737 280 x i32 is the paper's Figure 3 example: 640 BRAM units,
    // far beyond any single clock region.
    let diags = run(&buffer_design(737_280, true), "BA02");
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.rule, "BA02");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.broadcast_factor, 640);
    assert!(d.est_penalty_ns > 0.0);
}

#[test]
fn ba02_small_buffers_pass() {
    assert!(run(&buffer_design(1024, true), "BA02").is_empty());
}

#[test]
fn ba02_unaccessed_buffers_pass() {
    assert!(run(&buffer_design(737_280, false), "BA02").is_empty());
}

// ---- PC01 stall-broadcast ----

/// A deep wide pipeline: `stages` chained `bits`-wide adds.
fn pipeline_design(stages: usize, bits: u16) -> Design {
    let mut b = DesignBuilder::new("pc01");
    let fin = b.fifo("in", DataType::Bits(64), 2);
    let fout = b.fifo("out", DataType::Bits(64), 2);
    let mut k = b.kernel("top");
    let mut l = k.pipelined_loop("pipe", 65_536, 1);
    let x = l.fifo_read(fin, DataType::Bits(64));
    let mut v = l.repack(x, DataType::Int(bits));
    for _ in 0..stages {
        let r = l.reg(v);
        v = l.add(r, r);
    }
    let folded = l.repack(v, DataType::Bits(64));
    l.fifo_write(fout, folded);
    l.finish();
    k.finish();
    b.finish().unwrap()
}

#[test]
fn pc01_flags_deep_wide_pipelines() {
    let diags = run(&pipeline_design(64, 512), "PC01");
    assert_eq!(diags.len(), 1, "one stall net per pipelined loop");
    let d = &diags[0];
    assert_eq!(d.rule, "PC01");
    assert_eq!(d.subject, "pipe.stall");
    assert!(d.broadcast_factor > 10_000, "fanout {}", d.broadcast_factor);
    assert!(d.est_penalty_ns > 0.0);
}

#[test]
fn pc01_shallow_narrow_pipelines_pass() {
    assert!(run(&pipeline_design(2, 8), "PC01").is_empty());
}

// ---- SY01 sync-fanin ----

/// `n` fixed-latency PE kernels in one dataflow region.
fn dataflow_design(n: usize) -> Design {
    let mut b = DesignBuilder::new("sy01");
    b.dataflow();
    for i in 0..n {
        let fin = b.fifo(format!("in{i}"), DataType::Int(32), 2);
        let fout = b.fifo(format!("out{i}"), DataType::Int(32), 2);
        let mut k = b.kernel(format!("pe{i}"));
        k.set_static_latency(10 + i as u64);
        let mut l = k.pipelined_loop(format!("l{i}"), 256, 1);
        let x = l.fifo_read(fin, DataType::Int(32));
        let y = l.add(x, x);
        l.fifo_write(fout, y);
        l.finish();
        k.finish();
    }
    b.finish().unwrap()
}

/// One loop carrying `n` independent FIFO-to-FIFO flows.
fn fused_design(n: usize) -> Design {
    let mut b = DesignBuilder::new("fused");
    let fifos: Vec<_> = (0..n)
        .map(|i| {
            (
                b.fifo(format!("in{i}"), DataType::Int(32), 2),
                b.fifo(format!("out{i}"), DataType::Int(32), 2),
            )
        })
        .collect();
    let mut k = b.kernel("top");
    let mut l = k.pipelined_loop("fused", 256, 1);
    for &(fin, fout) in &fifos {
        let x = l.fifo_read(fin, DataType::Int(32));
        let y = l.add(x, x);
        l.fifo_write(fout, y);
    }
    l.finish();
    k.finish();
    b.finish().unwrap()
}

/// A top loop calling `n` fixed-latency PE kernels (Fig. 6b style — no
/// dataflow pragma; the sync comes from the call sites).
fn call_design(n: usize) -> Design {
    let mut b = DesignBuilder::new("calls");
    let fin = b.fifo("in", DataType::Int(32), 2);
    let fout = b.fifo("out", DataType::Int(32), 2);
    let mut pes = Vec::new();
    for i in 0..n {
        let mut pe = b.kernel(format!("pe{i}"));
        pe.set_static_latency(5 + i as u64);
        let mut l = pe.pipelined_loop("body", 256, 1);
        let x = l.invariant_input("x", DataType::Int(32));
        let y = l.add(x, x);
        l.output("y", y);
        l.finish();
        pes.push(pe.finish());
    }
    let mut top = b.kernel("top");
    let mut l = top.pipelined_loop("main", 256, 1);
    let x = l.fifo_read(fin, DataType::Int(32));
    let mut acc = None;
    for &pe in &pes {
        let r = l.call(pe, vec![x], DataType::Int(32));
        acc = Some(match acc {
            Some(a) => l.add(a, r),
            None => r,
        });
    }
    l.fifo_write(fout, acc.unwrap());
    l.finish();
    top.finish();
    b.finish().unwrap()
}

#[test]
fn sy01_flags_wide_dataflow_sync() {
    let diags = run(&dataflow_design(28), "SY01");
    let d = diags
        .iter()
        .find(|d| d.subject == "sy01.done")
        .expect("done reduce");
    assert_eq!(d.broadcast_factor, 28);
    assert!(d.severity >= Severity::Warning);
    // 27 of the 28 static-latency PEs are prunable.
    assert!(d.message.contains("wait on only 1"), "{}", d.message);
}

#[test]
fn sy01_flags_fused_flows() {
    let diags = run(&fused_design(4), "SY01");
    let d = diags
        .iter()
        .find(|d| d.subject == "top.fused")
        .expect("fused loop");
    assert_eq!(d.broadcast_factor, 4);
}

#[test]
fn sy01_single_flow_sequential_design_passes() {
    let diags = run(&fused_design(1), "SY01");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn sy01_flags_prunable_call_site_sync() {
    let diags = run(&call_design(4), "SY01");
    let d = diags
        .iter()
        .find(|d| d.subject == "top.main.done")
        .expect("call-site sync flagged");
    assert_eq!(d.broadcast_factor, 4);
    // All 4 PEs have static latency: only the slowest needs waiting.
    assert!(d.message.contains("wait on only 1"), "{}", d.message);
}
