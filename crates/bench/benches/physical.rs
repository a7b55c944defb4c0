//! Physical-flow performance: placement, STA and the optimization passes
//! on a mid-size lowered netlist.

use hlsb_bench::time_it;
use hlsb_delay::HlsPredictedModel;
use hlsb_fabric::{Device, WireModel};
use hlsb_ir::unroll::unroll_loop;
use hlsb_netlist::{Cell, Netlist};
use hlsb_place::{place_with, AnnealConfig, Region, SeedPlacement};
use hlsb_rtlgen::{lower_design, RtlOptions, ScheduledDesign, ScheduledLoop};
use hlsb_sched::schedule_loop;
use hlsb_timing::{
    optimize_fanout, refine_critical, retime, sta, FanoutOptions, RefineOptions, RetimeOptions,
};

/// One register driving `fanout` sinks built by `sink`: the shape of
/// vector_product's 2088-sink broadcast, whose sinks all seed into one
/// column.
fn broadcast(fanout: usize, sink: fn(String) -> Cell) -> Netlist {
    let mut nl = Netlist::new("broadcast");
    let src = nl.add_cell(Cell::ff("src", 32));
    let sinks: Vec<_> = (0..fanout)
        .map(|i| nl.add_cell(sink(format!("s{i}"))))
        .collect();
    nl.connect(src, &sinks);
    nl
}

/// `design` with every loop unrolled and scheduled at `period_ns`,
/// lowered with the baseline options.
fn lowered(design: &hlsb_ir::Design, period_ns: f64) -> Netlist {
    let model = HlsPredictedModel::new();
    let loops: Vec<Vec<ScheduledLoop>> = design
        .kernels
        .iter()
        .map(|k| {
            k.loops
                .iter()
                .map(|lp| {
                    let u = unroll_loop(lp).looop;
                    let schedule = schedule_loop(&u, design, &model, period_ns);
                    ScheduledLoop {
                        looop: u,
                        schedule,
                        mem_plan: Default::default(),
                    }
                })
                .collect()
        })
        .collect();
    lower_design(
        &ScheduledDesign {
            design,
            loops: &loops,
        },
        &RtlOptions::baseline(),
        &model,
    )
    .netlist
}

fn main() {
    println!("physical");
    let netlist = lowered(&hlsb_benchmarks::stencil::design(2), 3.0);
    let device = Device::ultrascale_plus_vu9p();
    let wire = WireModel::for_device(&device);
    let fast = AnnealConfig::fast();

    time_it("place_stencil2_fast", 10, || {
        place_with(&netlist, &device, 7, fast)
    });
    // Normal effort (the paper settings): ten times the moves, so the
    // move kernel dominates.
    time_it("place_stencil2_normal", 10, || {
        place_with(&netlist, &device, 7, AnnealConfig::default())
    });

    // Annealing cut to a single move, so the levelized seed (and the
    // polish sweeps) are what is timed.
    let seed_only = AnnealConfig {
        moves_per_cell: 0,
        min_moves: 1,
        max_moves: 1,
        batches: 1,
        ..fast
    };
    let bcast = broadcast(2048, |name| Cell::comb(name, 32, 0.4, 32));
    time_it("seed_place_broadcast2048", 10, || {
        place_with(&bcast, &device, 7, seed_only)
    });
    // The same from a shared seed placement: one move and the polish,
    // where every sink is priced against its 2048-arc driver.
    let seeded = SeedPlacement::new(&bcast, &device, Region::full(&device));
    time_it("polish_broadcast2048", 10, || seeded.anneal(7, seed_only));

    let placement = place_with(&netlist, &device, 7, fast);
    time_it("sta_stencil2", 10, || sta(&netlist, &placement, &wire));
    time_it("refine_stencil2", 10, || {
        let mut p = placement.clone();
        refine_critical(&netlist, &mut p, &wire, RefineOptions::default())
    });
    // Every sink captures, so one net holds 2048 capture arcs: the
    // shape where refinement's per-net capture maxima matter.
    let ff_bcast = broadcast(2048, |name| Cell::ff(name, 32));
    let ff_placement = place_with(&ff_bcast, &device, 7, fast);
    time_it("refine_broadcast2048", 10, || {
        let mut p = ff_placement.clone();
        refine_critical(&ff_bcast, &mut p, &wire, RefineOptions::default())
    });
    // A Table-1 netlist as a Fast-effort trial hands it to refinement:
    // placed, fanout-optimized and retimed. Its broadcasts put most
    // capture arcs on a few heavy nets.
    let vp = hlsb_benchmarks::find_benchmark("vector_product").expect("vector_product");
    let vp_wire = WireModel::for_device(&vp.device);
    let mut vp_netlist = lowered(&vp.design, 1000.0 / vp.clock_mhz);
    let mut vp_placement = place_with(&vp_netlist, &vp.device, 7, fast);
    optimize_fanout(&mut vp_netlist, &mut vp_placement, FanoutOptions::default());
    retime(
        &mut vp_netlist,
        &mut vp_placement,
        &vp_wire,
        RetimeOptions::default(),
    );
    time_it("refine_vector_product_fast", 10, || {
        let mut p = vp_placement.clone();
        refine_critical(&vp_netlist, &mut p, &vp_wire, RefineOptions::default())
    });
    time_it("fanout_opt_stencil2", 10, || {
        let mut nl = netlist.clone();
        let mut p = placement.clone();
        optimize_fanout(&mut nl, &mut p, FanoutOptions::default())
    });
}
