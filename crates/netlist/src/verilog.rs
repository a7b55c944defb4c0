//! Structural Verilog export.
//!
//! Emits a word-level structural netlist: one instance per cell, one wire
//! per net, plus a small behavioural primitive library (`hlsb_ff`,
//! `hlsb_comb`, …) so the output elaborates in any simulator. The export
//! exists for inspection and interchange — the cells are word-level
//! abstractions, so `hlsb_comb` is a generic delay element, not the
//! original operator logic.

use crate::cell::CellKind;
use crate::graph::Netlist;
use std::fmt::Write as _;

/// Sanitizes a cell name into a Verilog identifier.
fn ident(name: &str, fallback: usize) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() || out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out = format!("u{fallback}_{out}");
    }
    out
}

/// The behavioural primitive library emitted alongside every netlist.
pub(crate) const PRIMITIVES: &str = r#"
module hlsb_ff #(parameter WIDTH = 1) (
    input  wire             clk,
    input  wire [WIDTH-1:0] d,
    output reg  [WIDTH-1:0] q
);
    always @(posedge clk) q <= d;
endmodule

module hlsb_comb #(parameter WIDTH = 1, parameter NIN = 1, parameter DELAY_PS = 0) (
    input  wire [NIN*WIDTH-1:0] i,
    output wire [WIDTH-1:0]     o
);
    // Word-level abstraction: a generic reduction of the input words.
    genvar g;
    wire [WIDTH-1:0] words [0:NIN-1];
    generate
        for (g = 0; g < NIN; g = g + 1) begin : unpack
            assign words[g] = i[(g+1)*WIDTH-1 -: WIDTH];
        end
    endgenerate
    assign o = words[0];
endmodule

module hlsb_bram #(parameter WIDTH = 1, parameter UNITS = 1) (
    input  wire             clk,
    input  wire [WIDTH-1:0] d,
    output reg  [WIDTH-1:0] q
);
    always @(posedge clk) q <= d;
endmodule

module hlsb_const #(parameter WIDTH = 1, parameter VALUE = 0) (
    output wire [WIDTH-1:0] o
);
    assign o = VALUE;
endmodule
"#;

/// Emits the netlist as structural Verilog (primitive library included).
///
/// Input cells become module inputs, output cells module outputs; every
/// other cell is an instance of a primitive.
pub fn to_verilog(netlist: &Netlist) -> String {
    let mut v = String::new();
    let module_name = ident(&netlist.name, 0);

    // Ports.
    let mut ports = vec!["clk".to_string()];
    for (id, cell) in netlist.cells() {
        match cell.kind {
            CellKind::Input | CellKind::Output => {
                ports.push(format!("{}_{}", ident(&cell.name, id.index()), id.0));
            }
            _ => {}
        }
    }
    let _ = writeln!(v, "// generated by hlsb-netlist::verilog");
    let _ = writeln!(v, "module {module_name} (");
    let _ = writeln!(v, "    input wire clk,");
    let mut port_lines = Vec::new();
    for (id, cell) in netlist.cells() {
        let pname = format!("{}_{}", ident(&cell.name, id.index()), id.0);
        match cell.kind {
            CellKind::Input => port_lines.push(format!(
                "    input wire [{}:0] {pname}",
                cell.width.max(1) - 1
            )),
            CellKind::Output => port_lines.push(format!(
                "    output wire [{}:0] {pname}",
                cell.width.max(1) - 1
            )),
            _ => {}
        }
    }
    let _ = writeln!(v, "{}", port_lines.join(",\n"));
    let _ = writeln!(v, ");");

    // One wire per net, width from the driver.
    for (nid, net) in netlist.nets() {
        let w = netlist.cell(net.driver).width.max(1);
        let _ = writeln!(v, "    wire [{}:0] n{};", w - 1, nid.0);
    }

    // Instances.
    for (id, cell) in netlist.cells() {
        let inst = format!("{}_{}", ident(&cell.name, id.index()), id.0);
        let w = cell.width.max(1);
        let out = netlist
            .output_net(id)
            .map(|n| format!("n{}", n.0))
            .unwrap_or_else(|| "/* unused */ ".to_string());
        let ins: Vec<String> = netlist
            .input_nets(id)
            .iter()
            .map(|n| format!("n{}", n.0))
            .collect();
        match cell.kind {
            CellKind::Input => {
                if let Some(n) = netlist.output_net(id) {
                    let _ = writeln!(v, "    assign n{} = {inst};", n.0);
                }
            }
            CellKind::Output => {
                if let Some(&n) = netlist.input_nets(id).first() {
                    let _ = writeln!(v, "    assign {inst} = n{};", n.0);
                }
            }
            CellKind::Const => {
                if netlist.output_net(id).is_some() {
                    let _ = writeln!(v, "    hlsb_const #(.WIDTH({w})) {inst} (.o({out}));");
                }
            }
            CellKind::Ff => {
                let d = ins.first().cloned().unwrap_or_else(|| format!("{w}'d0"));
                let _ = writeln!(
                    v,
                    "    hlsb_ff #(.WIDTH({w})) {inst} (.clk(clk), .d({d}), .q({out}));"
                );
            }
            CellKind::Bram => {
                let d = ins.first().cloned().unwrap_or_else(|| format!("{w}'d0"));
                let _ = writeln!(
                    v,
                    "    hlsb_bram #(.WIDTH({w}), .UNITS({})) {inst} (.clk(clk), .d({d}), .q({out}));",
                    cell.brams.max(1)
                );
            }
            CellKind::Comb | CellKind::Dsp => {
                let nin = ins.len().max(1);
                let concat = if ins.is_empty() {
                    format!("{w}'d0")
                } else {
                    format!("{{{}}}", ins.join(", "))
                };
                let _ = writeln!(
                    v,
                    "    hlsb_comb #(.WIDTH({w}), .NIN({nin}), .DELAY_PS({})) {inst} (.i({concat}), .o({out}));",
                    (cell.delay_ns * 1000.0) as u64
                );
            }
        }
    }
    let _ = writeln!(v, "endmodule");
    v.push_str(PRIMITIVES);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;

    fn tiny() -> Netlist {
        let mut nl = Netlist::new("demo top");
        let i = nl.add_cell(Cell::input("din", 8));
        let f = nl.add_cell(Cell::ff("stage", 8));
        let a = nl.add_cell(Cell::comb("adder", 8, 0.78, 8));
        let o = nl.add_cell(Cell::output("dout", 8));
        nl.connect(i, &[f]);
        nl.connect(f, &[a]);
        nl.connect(a, &[o]);
        nl
    }

    #[test]
    fn emits_module_and_instances() {
        let v = to_verilog(&tiny());
        assert!(v.contains("module demo_top ("), "{v}");
        assert!(v.contains("hlsb_ff #(.WIDTH(8)) stage_1"), "{v}");
        assert!(
            v.contains("hlsb_comb #(.WIDTH(8), .NIN(1), .DELAY_PS(780))"),
            "{v}"
        );
        assert!(v.contains("output wire [7:0] dout_3"), "{v}");
        assert!(v.contains("endmodule"), "{v}");
    }

    #[test]
    fn module_and_primitive_blocks_are_balanced() {
        let v = to_verilog(&tiny());
        let opens = v.matches("module ").count() - v.matches("endmodule").count();
        assert_eq!(opens, 0, "{v}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(to_verilog(&tiny()), to_verilog(&tiny()));
    }

    #[test]
    fn weird_names_are_sanitized() {
        let mut nl = Netlist::new("9bad name!");
        let a = nl.add_cell(Cell::ff("1/бад", 4));
        let b = nl.add_cell(Cell::ff("x", 4));
        nl.connect(a, &[b]);
        let v = to_verilog(&nl);
        assert!(!v.contains('!'), "{v}");
        assert!(v.contains("module u0_9bad_name"), "{v}");
    }
}
