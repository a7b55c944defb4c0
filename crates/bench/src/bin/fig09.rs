//! Regenerates Fig. 9: Vivado-HLS-estimated delay, our calibrated delay
//! and the raw experimental delay for three operator classes across
//! broadcast factors.
//!
//! ```text
//! fig09 [--placed]
//! ```
//!
//! Pass `--placed` to use the slow placed back-end (real placement + STA
//! per skeleton) instead of the analytic model.
//!
//! Exit status is 2 on usage errors, 0 otherwise; `--help` prints the
//! usage and exits 0.

use hlsb::delay::{
    characterize, classify, CalibratedModel, CharacterizeConfig, DelayModel, HlsPredictedModel,
    OpClass,
};
use hlsb::fabric::Device;
use hlsb::ir::{ArrayId, DataType, OpKind};
use hlsb_findings::cli::{self, Arg, CliError};

fn main() {
    let placed = cli::parse_env("fig09", "usage: fig09 [--placed]", |cli| {
        let mut placed = false;
        while let Some(arg) = cli.next_arg()? {
            match arg {
                Arg::Flag("--placed") => placed = true,
                _ => return Err(CliError::unexpected(arg)),
            }
        }
        Ok(placed)
    });
    let device = Device::ultrascale_plus_vu9p();
    let config = CharacterizeConfig {
        placed,
        ..CharacterizeConfig::default()
    };
    let ch = characterize(&device, &config);
    let calibrated = CalibratedModel::from_characterization(&ch);
    let predicted = HlsPredictedModel::new();

    let cases: [(&str, OpKind, DataType, OpClass); 3] = [
        ("int add", OpKind::Add, DataType::Int(32), OpClass::IntAlu),
        (
            "buffer access",
            OpKind::Store(ArrayId(0)),
            DataType::Int(32),
            OpClass::Mem,
        ),
        (
            "float mul",
            OpKind::Mul,
            DataType::Float32,
            OpClass::FloatMul,
        ),
    ];

    println!(
        "Fig. 9: delay vs broadcast factor ({} back-end)",
        if placed { "placed" } else { "analytic" }
    );
    for (name, op, ty, class) in cases {
        println!("\n-- {name} ({}) --", classify(op, ty));
        println!(
            "{:>6} {:>14} {:>16} {:>12}",
            "bf", "HLS est (ns)", "calibrated (ns)", "raw (ns)"
        );
        let curve = ch.curve(class).expect("characterized");
        for point in curve {
            println!(
                "{:>6} {:>14.2} {:>16.2} {:>12.2}",
                point.bf,
                predicted.delay_ns(op, ty, point.bf),
                calibrated.delay_ns(op, ty, point.bf),
                point.raw_ns,
            );
        }
    }
    println!(
        "\nexpected shape: add/buffer calibrated ≫ flat prediction at large bf;\n\
         float-mul prediction is conservative (above raw) until very large bf."
    );
}
