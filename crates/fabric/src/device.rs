//! FPGA device models.

use std::fmt;

/// Device family; scales the interconnect speed (older families are slower).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceFamily {
    /// Xilinx UltraScale+ (16 nm).
    UltraScalePlus,
    /// Xilinx Zynq-7000 (28 nm).
    Zynq7000,
    /// Xilinx Virtex-7 (28 nm).
    Virtex7,
}

impl DeviceFamily {
    /// Multiplicative delay factor relative to UltraScale+.
    pub(crate) fn speed_factor(self) -> f64 {
        match self {
            DeviceFamily::UltraScalePlus => 1.0,
            DeviceFamily::Zynq7000 => 1.38,
            DeviceFamily::Virtex7 => 1.30,
        }
    }
}

impl fmt::Display for DeviceFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceFamily::UltraScalePlus => "UltraScale+",
            DeviceFamily::Zynq7000 => "ZYNQ",
            DeviceFamily::Virtex7 => "Virtex-7",
        };
        f.write_str(s)
    }
}

/// Resource capacities of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Resources {
    /// Number of 6-input LUTs.
    pub luts: u64,
    /// Number of flip-flops.
    pub ffs: u64,
    /// Number of 36 Kb block RAMs.
    pub brams: u64,
    /// Number of DSP slices.
    pub dsps: u64,
}

/// A target FPGA device: a rectangular grid of sites plus capacities.
///
/// The grid is an abstract floorplan used by the placer; one grid unit
/// corresponds to roughly one CLB-column pitch, so wire delay per unit is a
/// few tens of picoseconds on modern silicon.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Marketing name, used in reports.
    pub name: String,
    /// Family (sets the speed factor).
    pub family: DeviceFamily,
    /// Grid width in placement units.
    pub grid_w: u32,
    /// Grid height in placement units.
    pub grid_h: u32,
    /// Resource capacities.
    pub resources: Resources,
}

impl Device {
    /// UltraScale+ VU9P, the AWS F1 instance device (Table 1 rows 1-2, 4-7).
    pub fn ultrascale_plus_vu9p() -> Self {
        Device {
            name: "UltraScale+ VU9P (AWS F1)".into(),
            family: DeviceFamily::UltraScalePlus,
            grid_w: 140,
            grid_h: 120,
            resources: Resources {
                luts: 1_182_240,
                ffs: 2_364_480,
                brams: 2_160,
                dsps: 6_840,
            },
        }
    }

    /// Zynq ZC706 (XC7Z045), used by the face-detection benchmark.
    pub fn zynq_zc706() -> Self {
        Device {
            name: "ZYNQ ZC706".into(),
            family: DeviceFamily::Zynq7000,
            grid_w: 70,
            grid_h: 60,
            resources: Resources {
                luts: 218_600,
                ffs: 437_200,
                brams: 545,
                dsps: 900,
            },
        }
    }

    /// Alveo U50 (UltraScale+ with HBM), used by the HBM stencil benchmark.
    pub fn alveo_u50() -> Self {
        Device {
            name: "UltraScale+ Alveo U50".into(),
            family: DeviceFamily::UltraScalePlus,
            grid_w: 110,
            grid_h: 100,
            resources: Resources {
                luts: 872_000,
                ffs: 1_743_000,
                brams: 1_344,
                dsps: 5_952,
            },
        }
    }

    /// Virtex-7 (Alpha-Data board), used by the pattern-matching benchmark.
    pub fn virtex7() -> Self {
        Device {
            name: "Virtex-7 (Alpha-Data)".into(),
            family: DeviceFamily::Virtex7,
            grid_w: 100,
            grid_h: 90,
            resources: Resources {
                luts: 433_200,
                ffs: 866_400,
                brams: 1_470,
                dsps: 3_600,
            },
        }
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_capacities() {
        for d in [
            Device::ultrascale_plus_vu9p(),
            Device::zynq_zc706(),
            Device::alveo_u50(),
            Device::virtex7(),
        ] {
            assert!(d.resources.luts > 100_000, "{}", d.name);
            assert!(d.resources.ffs >= d.resources.luts, "{}", d.name);
            assert!(d.resources.brams > 100, "{}", d.name);
            assert!(d.grid_w > 10 && d.grid_h > 10, "{}", d.name);
        }
    }

    #[test]
    fn older_families_are_slower() {
        assert!(
            DeviceFamily::Zynq7000.speed_factor() > DeviceFamily::UltraScalePlus.speed_factor()
        );
        assert!(DeviceFamily::Virtex7.speed_factor() > 1.0);
        assert_eq!(DeviceFamily::UltraScalePlus.speed_factor(), 1.0);
    }

    #[test]
    fn vu9p_is_biggest() {
        let vu9p = Device::ultrascale_plus_vu9p();
        let z = Device::zynq_zc706();
        assert!(vu9p.resources.luts > z.resources.luts);
    }

    #[test]
    fn display_uses_marketing_name() {
        assert!(Device::alveo_u50().to_string().contains("U50"));
        assert_eq!(DeviceFamily::Zynq7000.to_string(), "ZYNQ");
    }
}
