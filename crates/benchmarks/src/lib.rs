//! # hlsb-benchmarks — the paper's nine evaluation designs
//!
//! Parameterized reconstructions of the benchmarks in Table 1 of the DAC'20
//! paper, built from their published structure (source papers, code
//! snippets and §5 descriptions):
//!
//! | module | application | broadcast type | target |
//! |---|---|---|---|
//! | [`genome`] | genome sequencing chaining \[1\] | data | AWS F1 |
//! | [`lstm`] | CLINK LSTM inference \[9\] | data | AWS F1 |
//! | [`face_detect`] | Rosetta face detection \[10\] | data | ZC706 |
//! | [`matmul`] | matrix multiply \[4\] | pipe ctrl + data | AWS F1 |
//! | [`stream_buffer`] | large stream buffer (Fig. 18) | pipe ctrl + data | AWS F1 |
//! | [`stencil`] | SODA Jacobi pipeline \[2\] | pipe ctrl | AWS F1 |
//! | [`vector_arith`] | 512-wide vector product (Table 2) | pipe ctrl + sync | AWS F1 |
//! | [`hbm_stencil`] | HBM Jacobi, 28 ports \[2, 12\] | pipe ctrl + sync | Alveo U50 |
//! | [`pattern_match`] | pattern matching \[4\] | data + sync | Virtex-7 |
//!
//! Each module exposes a `design(params)` constructor and a `benchmark()`
//! preset with the paper's parameters and target device.

pub mod face_detect;
pub mod genome;
pub mod hbm_stencil;
pub mod lstm;
pub mod matmul;
pub mod pattern_match;
pub mod stencil;
pub mod stream_buffer;
pub mod vector_arith;

use hlsb_fabric::Device;
use hlsb_ir::Design;

/// A benchmark: a design plus its paper-mandated target device and clock.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Display name (Table 1 row).
    pub name: &'static str,
    /// Broadcast classification from Table 1.
    pub broadcast_type: &'static str,
    /// The design.
    pub design: Design,
    /// Target FPGA.
    pub device: Device,
    /// HLS clock target, MHz.
    pub clock_mhz: f64,
}

/// One benchmark by name: `(display name, design name, preset)`. Both
/// names are known without building the design.
type Entry = (&'static str, &'static str, fn() -> Benchmark);

/// The nine Table-1 benchmarks, in table order.
const TABLE1: [Entry; 9] = [
    ("Genome Sequencing", "genome_chaining", genome::benchmark),
    ("LSTM Network", "lstm_gate", lstm::benchmark),
    ("Face Detection", "face_detect", face_detect::benchmark),
    ("Matrix Multiply", "matmul", matmul::benchmark),
    ("Stream Buffer", "stream_buffer", stream_buffer::benchmark),
    ("Stencil", "jacobi_pipeline", stencil::benchmark),
    (
        "Vector Arithmetic",
        "vector_product",
        vector_arith::benchmark,
    ),
    (
        "HBM-Based Stencil",
        "hbm_stencil_scatter",
        hbm_stencil::benchmark,
    ),
    (
        "Pattern Matching",
        "pattern_match",
        pattern_match::benchmark,
    ),
];

/// The synthetic designs of [`synthetic_benchmarks`].
const SYNTHETIC: [Entry; 1] = [("dot-scale 512", "dot_scale", dot_scale)];

fn dot_scale() -> Benchmark {
    Benchmark {
        name: "dot-scale 512",
        broadcast_type: "Pipe. Ctrl.",
        design: vector_arith::dot_scale_pipeline(512),
        device: Device::ultrascale_plus_vu9p(),
        clock_mhz: 333.0,
    }
}

/// All nine Table-1 benchmarks with the paper's parameters.
pub fn all_benchmarks() -> Vec<Benchmark> {
    TABLE1.iter().map(|(_, _, build)| build()).collect()
}

/// Synthetic designs the diagnostic tools (`explain`, `trace`, sweeps)
/// and the compile-farm server can address by name alongside the
/// Table-1 set — parameterized structures the paper analyzes but does
/// not benchmark as a whole application.
pub fn synthetic_benchmarks() -> Vec<Benchmark> {
    SYNTHETIC.iter().map(|(_, _, build)| build()).collect()
}

/// Lowercase alphanumerics only: the form names are matched in.
fn norm(s: &str) -> String {
    s.chars()
        .filter(char::is_ascii_alphanumeric)
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// Resolves a benchmark by case-insensitive substring over the Table-1
/// set plus [`synthetic_benchmarks`]. Non-alphanumerics are ignored on
/// both sides, so `dotscale` matches "dot-scale 512" and `vector`
/// matches "Vector Arithmetic". Both the display name and the design name
/// are searched, and only the first match is built.
pub fn find_benchmark(pattern: &str) -> Option<Benchmark> {
    let needle = norm(pattern);
    TABLE1
        .iter()
        .chain(&SYNTHETIC)
        .find(|(name, design, _)| norm(name).contains(&needle) || norm(design).contains(&needle))
        .map(|(_, _, build)| build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_ir::verify::verify_design;

    #[test]
    fn all_nine_build_and_verify() {
        let benches = all_benchmarks();
        assert_eq!(benches.len(), 9);
        for b in &benches {
            verify_design(&b.design).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(b.clock_mhz > 100.0);
            assert!(b.design.inst_count() > 0, "{} is empty", b.name);
        }
    }

    #[test]
    fn catalog_names_match_the_built_benchmarks() {
        for (name, design, build) in TABLE1.iter().chain(&SYNTHETIC) {
            let b = build();
            assert_eq!((b.name, b.design.name.as_str()), (*name, *design));
        }
    }

    #[test]
    fn find_resolves_like_a_scan_of_every_built_benchmark() {
        // The reference resolver builds everything and scans the built
        // names. Every substring of every display and design name (and a
        // few misses) must resolve to an equal benchmark either way.
        let built: Vec<Benchmark> = all_benchmarks()
            .into_iter()
            .chain(synthetic_benchmarks())
            .collect();
        let reference = |pattern: &str| {
            let needle = norm(pattern);
            built
                .iter()
                .find(|b| norm(b.name).contains(&needle) || norm(&b.design.name).contains(&needle))
        };
        let mut patterns = vec!["nope".to_string(), "genome!!".to_string(), String::new()];
        for b in &built {
            for name in [b.name, b.design.name.as_str()] {
                let chars: Vec<char> = name.chars().collect();
                for i in 0..chars.len() {
                    for j in i + 1..=chars.len() {
                        patterns.push(chars[i..j].iter().collect());
                    }
                }
            }
        }
        for pattern in &patterns {
            let want = reference(pattern).map(|b| format!("{b:?}"));
            let got = find_benchmark(pattern).map(|b| format!("{b:?}"));
            assert_eq!(got, want, "pattern {pattern:?}");
        }
    }

    #[test]
    fn names_match_table1() {
        let names: Vec<&str> = all_benchmarks().iter().map(|b| b.name).collect();
        assert!(names.contains(&"Genome Sequencing"));
        assert!(names.contains(&"HBM-Based Stencil"));
        assert!(names.contains(&"Pattern Matching"));
    }
}
