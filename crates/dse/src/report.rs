//! Renderers for [`DseReport`]: a human-readable frontier table and a
//! machine-readable JSONL stream.

use hlsb_findings::json_escape;

use crate::explore::{DseReport, EvaluatedPoint};

fn sim_tag(p: &EvaluatedPoint) -> &'static str {
    match &p.sim_check {
        None => "-",
        Some(Ok(())) => "ok",
        Some(Err(_)) => "FAIL",
    }
}

/// The Pareto frontier as a fixed-width table, one row per non-dominated
/// configuration, fastest first:
///
/// ```text
/// config               fmax MHz   latency   area  src    sim
/// BSKM @300 ×1 fast      312.5       1047  23456  run    ok
/// ```
pub fn frontier_table(report: &DseReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>9} {:>9} {:>7}  {:<5}  {}\n",
        "config", "fmax MHz", "latency", "area", "src", "sim"
    ));
    for p in report.frontier_points() {
        out.push_str(&format!(
            "{:<20} {:>9.1} {:>9} {:>7}  {:<5}  {}\n",
            p.config.label(),
            p.metrics.fmax_mhz,
            p.metrics.latency_cycles,
            p.metrics.area_cells,
            if p.from_store { "store" } else { "run" },
            sim_tag(p),
        ));
    }
    out
}

/// The frontier as JSON lines, one flat object per configuration: the
/// config key, design, label, the knobs (the option set as its `BSKM`
/// mask), the measured objectives, then `"pareto":true`, the store
/// provenance and the simulation verdict.
pub fn frontier_jsonl(report: &DseReport, design: &str) -> String {
    let mut out = String::new();
    for p in report.frontier_points() {
        let (c, m) = (&p.config, &p.metrics);
        out.push_str(&format!(
            "{{\"key\":{},\"design\":\"{}\",\"label\":\"{}\",\"options\":\"{}\",\
             \"clock_mhz\":{:?},\"place_seeds\":{},\"effort\":\"{}\",\"partitions\":\"{}\",\
             \"fmax_mhz\":{:?},\"latency_cycles\":{},\"area_cells\":{},\
             \"pareto\":true,\"from_store\":{},\"sim\":\"{}\"}}\n",
            p.key,
            json_escape(design),
            json_escape(&c.label()),
            c.options,
            c.clock_mhz,
            c.place_seeds,
            c.effort.label(),
            c.partitions.label(),
            m.fmax_mhz,
            m.latency_cycles,
            m.area_cells,
            p.from_store,
            sim_tag(p),
        ));
    }
    out
}

/// One-paragraph summary of the search effort: strategy, evaluation
/// counts, store/cache reuse, frontier size and semantics verdict.
pub fn summary_line(report: &DseReport) -> String {
    format!(
        "strategy={} points={} frontier={} probe-evals={} full-evals={} \
         store-hits={} infeasible={} budget-dropped={} \
         fe-cache={}+{}d/{} ({:.0}% hit) sched-cache={}+{}d/{} ({:.0}% hit) sim={}",
        report.strategy,
        report.points.len(),
        report.frontier.len(),
        report.probe_evals,
        report.full_evals,
        report.store_hits,
        report.infeasible,
        report.budget_dropped,
        report.cache_delta.front_end.hits,
        report.cache_delta.front_end.disk_hits,
        report.cache_delta.front_end.requests(),
        report.cache_delta.front_end.hit_rate() * 100.0,
        report.cache_delta.schedule.hits,
        report.cache_delta.schedule.disk_hits,
        report.cache_delta.schedule.requests(),
        report.cache_delta.schedule.hit_rate() * 100.0,
        if report.frontier_semantics_ok() {
            "ok"
        } else {
            "FAIL"
        },
    )
}
