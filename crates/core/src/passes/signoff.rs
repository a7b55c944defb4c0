//! Sign-off pass: final STA numbers, utilization and result assembly.

use hlsb_fabric::Device;
use hlsb_netlist::Netlist;
use hlsb_place::Placement;
use hlsb_rtlgen::LowerInfo;

use crate::passes::implement::ImplementOutput;
use crate::passes::ScheduleArtifact;
use crate::result::{ImplementationResult, PartitionSummary, Utilization};
use crate::trace::PassTrace;

/// Assembles the final [`ImplementationResult`] from the stage outputs.
/// The caller attaches the finished [`PassTrace`] afterwards (this pass
/// records itself into it too).
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble(
    device: &Device,
    schedule: &ScheduleArtifact,
    concurrency: hlsb_ir::Concurrency,
    lower_info: LowerInfo,
    imp: ImplementOutput,
    partition: Option<PartitionSummary>,
    lint: Option<hlsb_findings::Report>,
    verify: Option<hlsb_findings::Report>,
) -> (ImplementationResult, Netlist, Placement) {
    let ImplementOutput {
        netlist,
        placement,
        timing,
        fanout,
        retime,
    } = imp;
    let critical_cells: Vec<String> = timing
        .critical_path
        .iter()
        .map(|&c| {
            let cell = netlist.cell(c);
            format!("{}:{}", cell.kind, cell.name)
        })
        .collect();

    let stats = netlist.stats();
    let res = device.resources;
    let (lut_pct, ff_pct, bram_pct, dsp_pct) =
        stats.utilization(res.luts, res.ffs, res.brams, res.dsps);

    let result = ImplementationResult {
        fmax_mhz: timing.fmax_mhz,
        period_ns: timing.period_ns,
        utilization: Utilization {
            lut_pct,
            ff_pct,
            bram_pct,
            dsp_pct,
        },
        stats,
        timing,
        lower_info,
        schedule_depths: schedule.depths.clone(),
        latency_cycles: schedule.latency_cycles(concurrency),
        inserted_regs: schedule.inserted_regs,
        duplicated_regs: fanout.duplicated_registers,
        retime_moves: retime.moves,
        critical_cells,
        partition,
        lint,
        verify,
        trace: PassTrace::default(),
        span_tree: None,
    };
    (result, netlist, placement)
}
