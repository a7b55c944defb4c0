//! Stimulus (external inputs) and I/O traces (observable outputs).
//!
//! Both simulator backends consume a [`Stimulus`] and produce an
//! [`IoTrace`]; the differential harness compares traces across
//! optimization variants. The stimulus follows the conventions of
//! [`hlsb_ir::interp::LoopIo`]: FIFO reads pop a per-FIFO input stream
//! (exhausted streams yield 0), invariants/constants are looked up by
//! instruction name, varying inputs cycle a named stream (defaulting to
//! the iteration index).

use hlsb_ir::interp::LoopIo;
use hlsb_ir::{Design, OpKind};
use hlsb_rng::Rng;
use std::collections::{BTreeMap, HashMap};

/// External input values for one simulation run of a design.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stimulus {
    /// Input stream per FIFO, keyed by FIFO index.
    pub fifo_inputs: HashMap<usize, Vec<i64>>,
    /// Loop-invariant input values by instruction name.
    pub invariants: HashMap<String, i64>,
    /// Varying input streams by instruction name (cycled).
    pub varying: HashMap<String, Vec<i64>>,
    /// Constant values by instruction name.
    pub constants: HashMap<String, i64>,
}

impl Stimulus {
    /// A seeded stimulus covering every FIFO, invariant, varying input and
    /// constant the design's loops mention: `len` values per stream,
    /// drawn from small signed ranges so arithmetic stays interesting
    /// (sign changes, zeros for the div-by-zero path).
    pub fn seeded(design: &Design, seed: u64, len: usize) -> Stimulus {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5717_0001);
        let mut stim = Stimulus::default();
        let draw = |rng: &mut Rng| rng.gen_i64(-100, 100);
        for fifo in 0..design.fifos.len() {
            let stream = (0..len).map(|_| draw(&mut rng)).collect();
            stim.fifo_inputs.insert(fifo, stream);
        }
        for kernel in &design.kernels {
            for lp in &kernel.loops {
                for (_, inst) in lp.body.iter() {
                    if inst.name.is_empty() {
                        continue;
                    }
                    match inst.kind {
                        OpKind::Const => {
                            let v = draw(&mut rng);
                            stim.constants.entry(inst.name.clone()).or_insert(v);
                        }
                        OpKind::Input { invariant: true } => {
                            let v = draw(&mut rng);
                            stim.invariants.entry(inst.name.clone()).or_insert(v);
                        }
                        OpKind::Input { invariant: false } => {
                            stim.varying
                                .entry(inst.name.clone())
                                .or_insert_with(|| (0..len).map(|_| draw(&mut rng)).collect());
                        }
                        _ => {}
                    }
                }
            }
        }
        stim
    }

    /// The interpreter state this stimulus seeds.
    pub(crate) fn to_io(&self) -> LoopIo {
        let mut io = LoopIo::default();
        for (&fifo, stream) in &self.fifo_inputs {
            io.fifo_inputs
                .insert(hlsb_ir::FifoId(fifo as u32), stream.clone());
        }
        io.invariants = self.invariants.clone();
        io.varying = self.varying.clone();
        io.constants = self.constants.clone();
        io
    }
}

/// The observable outputs of one simulation: every FIFO write stream and
/// every named `output`, in iteration order. Ordered maps so traces have
/// a deterministic `Debug` form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoTrace {
    /// Values written per FIFO (keyed by FIFO index), in push order.
    pub fifo_outputs: BTreeMap<usize, Vec<i64>>,
    /// Values recorded per named output, in iteration order.
    pub outputs: BTreeMap<String, Vec<i64>>,
}

impl IoTrace {
    /// Extracts the trace from a finished interpreter state.
    pub(crate) fn from_io(io: &LoopIo) -> IoTrace {
        IoTrace {
            fifo_outputs: io
                .fifo_outputs
                .iter()
                .filter(|(_, v)| !v.is_empty())
                .map(|(fid, v)| (fid.index(), v.clone()))
                .collect(),
            outputs: io
                .outputs
                .iter()
                .filter(|(_, v)| !v.is_empty())
                .map(|(n, v)| (n.clone(), v.clone()))
                .collect(),
        }
    }

    /// Total number of observed values.
    pub fn len(&self) -> usize {
        self.fifo_outputs.values().map(Vec::len).sum::<usize>()
            + self.outputs.values().map(Vec::len).sum::<usize>()
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// First difference against another trace, described for a failure
    /// message; `None` when the traces are identical.
    pub fn diff(&self, other: &IoTrace) -> Option<String> {
        let keys: std::collections::BTreeSet<usize> = self
            .fifo_outputs
            .keys()
            .chain(other.fifo_outputs.keys())
            .copied()
            .collect();
        for k in keys {
            let a = self.fifo_outputs.get(&k);
            let b = other.fifo_outputs.get(&k);
            if a != b {
                return Some(format!(
                    "fifo {k}: {:?} vs {:?}",
                    truncated(a),
                    truncated(b)
                ));
            }
        }
        let names: std::collections::BTreeSet<&String> =
            self.outputs.keys().chain(other.outputs.keys()).collect();
        for n in names {
            let a = self.outputs.get(n);
            let b = other.outputs.get(n);
            if a != b {
                return Some(format!(
                    "output {n:?}: {:?} vs {:?}",
                    truncated(a),
                    truncated(b)
                ));
            }
        }
        None
    }
}

/// At most the first 8 values of a stream, for diff messages.
fn truncated(v: Option<&Vec<i64>>) -> Vec<i64> {
    v.map(|v| v.iter().copied().take(8).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsb_ir::builder::DesignBuilder;
    use hlsb_ir::DataType;

    fn two_input_design() -> Design {
        let mut b = DesignBuilder::new("s");
        let fin = b.fifo("in", DataType::Int(32), 2);
        let mut k = b.kernel("top");
        let mut l = k.pipelined_loop("main", 4, 1);
        let c = l.constant("c", DataType::Int(32));
        let inv = l.invariant_input("inv", DataType::Int(32));
        let var = l.varying_input("var", DataType::Int(32));
        let x = l.fifo_read(fin, DataType::Int(32));
        let s = l.add(c, inv);
        let t = l.add(s, var);
        let u = l.add(t, x);
        l.output("o", u);
        l.finish();
        k.finish();
        b.finish().unwrap()
    }

    #[test]
    fn seeded_stimulus_covers_every_input_kind() {
        let d = two_input_design();
        let s = Stimulus::seeded(&d, 7, 6);
        assert_eq!(s.fifo_inputs[&0].len(), 6);
        assert!(s.constants.contains_key("c"));
        assert!(s.invariants.contains_key("inv"));
        assert_eq!(s.varying["var"].len(), 6);
        // Deterministic per seed, different across seeds.
        assert_eq!(s, Stimulus::seeded(&d, 7, 6));
        assert_ne!(s, Stimulus::seeded(&d, 8, 6));
    }

    #[test]
    fn trace_diff_pinpoints_first_mismatch() {
        let mut a = IoTrace::default();
        a.fifo_outputs.insert(0, vec![1, 2, 3]);
        let mut b = a.clone();
        assert!(a.diff(&b).is_none());
        b.fifo_outputs.get_mut(&0).unwrap()[1] = 9;
        let msg = a.diff(&b).expect("must differ");
        assert!(msg.contains("fifo 0"), "{msg}");

        let mut c = a.clone();
        c.outputs.insert("o".into(), vec![4]);
        let msg = a.diff(&c).expect("must differ");
        assert!(msg.contains("output"), "{msg}");
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
    }
}
