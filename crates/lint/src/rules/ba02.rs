//! BA02 — memory scatter from large or heavily partitioned buffers
//! (paper §3.1 #2, Figure 3/4).
//!
//! A logical array that needs many 36 Kb BRAM units cannot sit in one
//! clock region: the placer scatters its banks across the die and the
//! address/data nets become die-crossing broadcasts. This rule compares
//! each accessed array's BRAM footprint against the capacity of one clock
//! region of the target device.

use crate::context::LintContext;
use crate::rules::Rule;
use hlsb_delay::OpClass;
use hlsb_findings::{Diagnostic, Location, Severity};
use hlsb_ir::{ArrayId, OpKind};

/// Detects array accesses whose BRAM footprint exceeds one clock region.
pub struct MemoryScatter;

/// Placement-grid units per clock-region edge. One grid unit is roughly a
/// CLB-column pitch; UltraScale clock regions are on the order of 30
/// columns across, and the same tile size is a fair proxy for the older
/// families' clock domains.
const REGION_EDGE_UNITS: u32 = 30;

/// BRAM units available in one clock region of `device` — total BRAMs
/// spread uniformly over the region grid.
pub(crate) fn brams_per_region(device: &hlsb_fabric::Device) -> usize {
    let rx = device.grid_w.div_ceil(REGION_EDGE_UNITS).max(1) as u64;
    let ry = device.grid_h.div_ceil(REGION_EDGE_UNITS).max(1) as u64;
    (device.resources.brams / (rx * ry)).max(1) as usize
}

/// Kernels/loops containing an access to `array`, for the location field.
fn access_sites(design: &hlsb_ir::Design, array: ArrayId) -> Vec<(String, String)> {
    let mut sites = Vec::new();
    for k in &design.kernels {
        for lp in &k.loops {
            let touches = lp.body.iter().any(
                |(_, inst)| matches!(inst.kind, OpKind::Load(a) | OpKind::Store(a) if a == array),
            );
            if touches {
                sites.push((k.name.clone(), lp.name.clone()));
            }
        }
    }
    sites
}

impl Rule for MemoryScatter {
    fn id(&self) -> &'static str {
        "BA02"
    }
    fn name(&self) -> &'static str {
        "memory-scatter"
    }
    fn section(&self) -> &'static str {
        "§3.1/§4.1"
    }
    fn summary(&self) -> &'static str {
        "array's BRAM footprint exceeds one clock region, scattering its access nets"
    }
    fn remedy(&self) -> &'static str {
        "pipeline the memory access path (OptimizationOptions::broadcast_aware inserts \
         address/data registers) or restructure the buffer into per-region tiles"
    }

    fn check(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let region_cap = brams_per_region(ctx.device);
        for (i, array) in ctx.design.arrays.iter().enumerate() {
            let units = array.bram_units();
            if units <= region_cap {
                continue;
            }
            let sites = access_sites(ctx.design, ArrayId(i as u32));
            if sites.is_empty() {
                continue; // never accessed: nothing fans out
            }
            let banks = array.partition.banks(array.len);
            let penalty = ctx.calibrated.wire_excess_ns(OpClass::Mem, units);
            let severity = if units > 2 * region_cap {
                Severity::Error
            } else {
                Severity::Warning
            };
            let (kernel, looop) = sites[0].clone();
            out.push(Diagnostic {
                rule: self.id(),
                rule_name: self.name(),
                severity,
                section: self.section(),
                subject: array.name.clone(),
                message: format!(
                    "array `{}` ({} x {}) spans {units} BRAM units in {banks} bank(s) \
                     but one clock region of {} holds only {region_cap}; its \
                     address/data nets become die-crossing broadcasts{}",
                    array.name,
                    array.len,
                    array.elem,
                    ctx.device.name,
                    if sites.len() > 1 {
                        format!(" (accessed from {} loops)", sites.len())
                    } else {
                        String::new()
                    }
                ),
                location: Location {
                    kernel: Some(kernel),
                    looop: Some(looop),
                    pragma: Some(format!("array_partition {}", array.partition)),
                },
                broadcast_factor: units,
                est_penalty_ns: penalty,
                remedy: self.remedy(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_fabric::Device;

    #[test]
    fn region_capacity_is_positive_everywhere() {
        for d in [
            Device::ultrascale_plus_vu9p(),
            Device::zynq_zc706(),
            Device::alveo_u50(),
            Device::virtex7(),
        ] {
            assert!(brams_per_region(&d) > 0, "{}", d.name);
        }
    }
}
