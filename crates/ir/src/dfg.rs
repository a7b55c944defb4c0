//! SSA dataflow graphs.

use crate::op::OpKind;
use crate::types::DataType;
use std::collections::HashMap;
use std::fmt;

/// Identifier of an instruction inside one [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

impl InstId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// One SSA instruction: an operation, its result type and its operands.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// The operation performed.
    pub kind: OpKind,
    /// Result type (for sink ops, the type of the value consumed).
    pub ty: DataType,
    /// Operand values, in positional order.
    pub operands: Vec<InstId>,
    /// Human-readable name for reports (may be empty).
    pub name: String,
}

impl Instruction {
    /// Creates an unnamed instruction.
    pub fn new(kind: OpKind, ty: DataType, operands: Vec<InstId>) -> Self {
        Instruction {
            kind,
            ty,
            operands,
            name: String::new(),
        }
    }
}

/// An SSA dataflow graph: the body of one loop (or straight-line region).
///
/// Instructions are stored in definition order; operands must refer to
/// earlier instructions, so the storage order is always a valid topological
/// order (the [`verify`](crate::verify) module enforces this).
///
/// # Example
///
/// ```
/// use hlsb_ir::dfg::Dfg;
/// use hlsb_ir::op::OpKind;
/// use hlsb_ir::types::DataType;
///
/// let mut dfg = Dfg::new();
/// let a = dfg.push(OpKind::Input { invariant: true }, DataType::Int(32), vec![]);
/// let b = dfg.push(OpKind::Input { invariant: false }, DataType::Int(32), vec![]);
/// let s = dfg.push(OpKind::Add, DataType::Int(32), vec![a, b]);
/// assert_eq!(dfg.users(a), &[s]);
/// assert_eq!(dfg.len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dfg {
    insts: Vec<Instruction>,
    users: Vec<Vec<InstId>>,
}

impl Dfg {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Dfg::default()
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the graph has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Appends an instruction and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if an operand refers to an instruction that does not exist yet
    /// (SSA dominance within a straight-line region).
    pub fn push(&mut self, kind: OpKind, ty: DataType, operands: Vec<InstId>) -> InstId {
        self.push_inst(Instruction::new(kind, ty, operands))
    }

    /// Appends a full [`Instruction`] and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if an operand refers to a not-yet-defined instruction.
    pub fn push_inst(&mut self, inst: Instruction) -> InstId {
        let id = InstId(self.insts.len() as u32);
        for &op in &inst.operands {
            assert!(
                op.index() < self.insts.len(),
                "operand {op} of new instruction is not yet defined"
            );
            self.users[op.index()].push(id);
        }
        self.insts.push(inst);
        self.users.push(Vec::new());
        id
    }

    /// Appends a named instruction and returns its id.
    pub fn push_named(
        &mut self,
        kind: OpKind,
        ty: DataType,
        operands: Vec<InstId>,
        name: impl Into<String>,
    ) -> InstId {
        let mut inst = Instruction::new(kind, ty, operands);
        inst.name = name.into();
        self.push_inst(inst)
    }

    /// The instruction with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn inst(&self, id: InstId) -> &Instruction {
        &self.insts[id.index()]
    }

    /// Mutable access to an instruction.
    ///
    /// Note: mutating operands through this does **not** update use lists;
    /// prefer [`Dfg::replace_operand`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Instruction {
        &mut self.insts[id.index()]
    }

    /// Instructions that use the value defined by `id`, in insertion order.
    pub fn users(&self, id: InstId) -> &[InstId] {
        &self.users[id.index()]
    }

    /// Number of readers of the value defined by `id`.
    ///
    /// This is the *static* broadcast factor of the paper's §4.1 — the
    /// scheduler refines it to same-cycle readers.
    pub fn fanout(&self, id: InstId) -> usize {
        self.users[id.index()].len()
    }

    /// Iterates over `(id, instruction)` pairs in definition (= topological)
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (InstId, &Instruction)> {
        self.insts
            .iter()
            .enumerate()
            .map(|(i, inst)| (InstId(i as u32), inst))
    }

    /// All instruction ids in definition order.
    pub fn ids(&self) -> impl Iterator<Item = InstId> + '_ {
        (0..self.insts.len() as u32).map(InstId)
    }

    /// Rewrites every use of `from` as an operand into a use of `to`,
    /// keeping use lists consistent.
    ///
    /// # Panics
    ///
    /// Panics if `to` is defined after any user of `from` (would break
    /// topological storage order).
    pub fn replace_all_uses(&mut self, from: InstId, to: InstId) {
        let user_list = std::mem::take(&mut self.users[from.index()]);
        for &u in &user_list {
            assert!(
                to.index() < u.index(),
                "replacement {to} must dominate user {u}"
            );
            for op in &mut self.insts[u.index()].operands {
                if *op == from {
                    *op = to;
                }
            }
            self.users[to.index()].push(u);
        }
    }

    /// Replaces operand slot `slot` of `user` with `new_def`, updating use
    /// lists.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range or `new_def` does not dominate
    /// `user`.
    pub fn replace_operand(&mut self, user: InstId, slot: usize, new_def: InstId) {
        assert!(new_def.index() < user.index(), "operand must dominate user");
        let old = self.insts[user.index()].operands[slot];
        self.insts[user.index()].operands[slot] = new_def;
        let list = &mut self.users[old.index()];
        if let Some(pos) = list.iter().position(|&u| u == user) {
            list.remove(pos);
        }
        self.users[new_def.index()].push(user);
    }

    /// RAW (read-after-write) dependencies of `id`: its operand list.
    pub fn raw_deps(&self, id: InstId) -> &[InstId] {
        &self.insts[id.index()].operands
    }

    /// Combinational depth of each instruction (longest path from a source,
    /// counting only compute ops as depth-1 hops). Useful for levelized
    /// placement seeds and sanity checks.
    pub fn depths(&self) -> Vec<u32> {
        let mut depth = vec![0u32; self.insts.len()];
        for (i, inst) in self.insts.iter().enumerate() {
            let base = inst
                .operands
                .iter()
                .map(|op| depth[op.index()])
                .max()
                .unwrap_or(0);
            depth[i] = base + u32::from(inst.kind.is_compute());
        }
        depth
    }

    /// Returns a copy of the graph with a [`OpKind::Reg`] inserted
    /// immediately after `def`, redirecting **all** existing users of
    /// `def` to the register — the paper's "insert register modules to the
    /// source code" fix that forces the scheduler to split an over-long
    /// broadcast chain (§4.1).
    ///
    /// Returns the new graph, the id of the register, and the mapping from
    /// old instruction ids to new ones.
    ///
    /// # Panics
    ///
    /// Panics if `def` is out of bounds.
    pub fn insert_reg_after(&self, def: InstId) -> (Dfg, InstId, Vec<InstId>) {
        let (dfg, regs, map) = self.clone().insert_regs_after(&[def]);
        (dfg, regs[0], map)
    }

    /// Batched form of [`Dfg::insert_reg_after`]: inserts one register
    /// after each listed def, consuming the graph. Returns the new graph,
    /// the register ids (parallel to `defs`; a repeated def names the same
    /// register), and the old-to-new id mapping.
    ///
    /// Instructions move into the new graph and their operands are
    /// remapped in place. Use lists are remapped too: the id map is
    /// monotone, so a list in definition order stays in definition order
    /// (a list left out of order by [`Dfg::replace_operand`] is sorted, as
    /// a rebuild by [`Dfg::push_inst`] would order it).
    ///
    /// # Panics
    ///
    /// Panics if any def is out of bounds.
    pub fn insert_regs_after(self, defs: &[InstId]) -> (Dfg, Vec<InstId>, Vec<InstId>) {
        let n = self.insts.len();
        let mut want = vec![false; n];
        for &d in defs {
            assert!(d.index() < n, "def out of bounds");
            want[d.index()] = true;
        }
        // Each instruction shifts down by the registers inserted before it;
        // a register takes the slot right after its def.
        let mut map: Vec<InstId> = Vec::with_capacity(n);
        let mut reg_of: Vec<Option<InstId>> = vec![None; n];
        let mut next = 0u32;
        for (i, &w) in want.iter().enumerate() {
            map.push(InstId(next));
            next += 1;
            if w {
                reg_of[i] = Some(InstId(next));
                next += 1;
            }
        }
        let mut insts = Vec::with_capacity(next as usize);
        let mut users = Vec::with_capacity(next as usize);
        for (i, (mut inst, mut uses)) in self.insts.into_iter().zip(self.users).enumerate() {
            for op in &mut inst.operands {
                *op = reg_of[op.index()].unwrap_or(map[op.index()]);
            }
            for u in &mut uses {
                *u = map[u.index()];
            }
            if !uses.is_sorted() {
                uses.sort_unstable();
            }
            match reg_of[i] {
                Some(reg) => {
                    let mut r = Instruction::new(OpKind::Reg, inst.ty, vec![map[i]]);
                    r.name = format!("{}_reg", inst.name);
                    insts.push(inst);
                    users.push(vec![reg]);
                    // The register takes over every use of its def.
                    insts.push(r);
                    users.push(uses);
                }
                None => {
                    insts.push(inst);
                    users.push(uses);
                }
            }
        }
        let regs = defs
            .iter()
            .map(|&d| reg_of[d.index()].expect("reg created"))
            .collect();
        (Dfg { insts, users }, regs, map)
    }

    /// Removes instructions whose values are never used and that have no
    /// side effects (dead code elimination), iterating until stable.
    /// Side-effecting instructions (stores, FIFO accesses, outputs, calls)
    /// and loop interface instructions (inputs, induction variables) are
    /// always kept.
    ///
    /// Returns the new graph and the old-to-new id mapping (`None` for
    /// removed instructions).
    pub fn eliminate_dead(&self) -> (Dfg, Vec<Option<InstId>>) {
        let keep_always = |kind: OpKind| {
            matches!(
                kind,
                OpKind::Store(_)
                    | OpKind::FifoWrite(_)
                    | OpKind::FifoRead(_)
                    | OpKind::Output
                    | OpKind::Call(_)
                    | OpKind::Input { .. }
                    | OpKind::IndVar
            )
        };
        let mut live = vec![false; self.insts.len()];
        // Seed with side-effecting roots, then propagate to operands.
        for (i, inst) in self.insts.iter().enumerate().rev() {
            if keep_always(inst.kind) || live[i] {
                live[i] = true;
                for op in &inst.operands {
                    live[op.index()] = true;
                }
            }
        }
        let mut out = Dfg::new();
        let mut map: Vec<Option<InstId>> = Vec::with_capacity(self.insts.len());
        for (i, inst) in self.insts.iter().enumerate() {
            if !live[i] {
                map.push(None);
                continue;
            }
            let mut cl = inst.clone();
            cl.operands = inst
                .operands
                .iter()
                .map(|op| map[op.index()].expect("live operand"))
                .collect();
            map.push(Some(out.push_inst(cl)));
        }
        (out, map)
    }

    /// Instructions grouped by connected component of the undirected
    /// use-def graph. Loop-invariant inputs and constants do **not**
    /// connect components when `split_invariants` is true (a shared scalar
    /// configuration value can be duplicated per flow, per the paper §4.2).
    pub fn connected_components(&self, split_invariants: bool) -> Vec<Vec<InstId>> {
        let n = self.insts.len();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        let duplicable = |inst: &Instruction| {
            split_invariants
                && matches!(inst.kind, OpKind::Const | OpKind::Input { invariant: true })
        };
        for (i, inst) in self.insts.iter().enumerate() {
            if duplicable(inst) {
                continue;
            }
            for op in &inst.operands {
                if duplicable(&self.insts[op.index()]) {
                    continue;
                }
                let (a, b) = (find(&mut parent, i as u32), find(&mut parent, op.0));
                parent[a as usize] = b;
            }
        }
        let mut groups: HashMap<u32, Vec<InstId>> = HashMap::new();
        for i in 0..n as u32 {
            // Duplicable sources attach to each user's component at split
            // time; standalone they form their own (dropped) singleton.
            if duplicable(&self.insts[i as usize]) {
                continue;
            }
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push(InstId(i));
        }
        let mut out: Vec<Vec<InstId>> = groups.into_values().collect();
        for g in &mut out {
            g.sort();
        }
        out.sort_by_key(|g| g[0]);
        out
    }
}

impl fmt::Display for Dfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (id, inst) in self.iter() {
            write!(f, "{id} = {} {}", inst.kind, inst.ty)?;
            for (i, op) in inst.operands.iter().enumerate() {
                if i == 0 {
                    write!(f, " ")?;
                } else {
                    write!(f, ", ")?;
                }
                write!(f, "{op}")?;
            }
            if !inst.name.is_empty() {
                write!(f, "  ; {}", inst.name)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::CmpPred;

    fn i32t() -> DataType {
        DataType::Int(32)
    }

    #[test]
    fn push_tracks_users() {
        let mut d = Dfg::new();
        let a = d.push(OpKind::Input { invariant: true }, i32t(), vec![]);
        let b = d.push(OpKind::Input { invariant: false }, i32t(), vec![]);
        let s1 = d.push(OpKind::Add, i32t(), vec![a, b]);
        let s2 = d.push(OpKind::Sub, i32t(), vec![a, s1]);
        assert_eq!(d.users(a), &[s1, s2]);
        assert_eq!(d.fanout(a), 2);
        assert_eq!(d.fanout(s2), 0);
    }

    #[test]
    #[should_panic(expected = "not yet defined")]
    fn forward_reference_panics() {
        let mut d = Dfg::new();
        d.push(OpKind::Not, i32t(), vec![InstId(5)]);
    }

    #[test]
    fn replace_all_uses_rewires() {
        let mut d = Dfg::new();
        let a = d.push(OpKind::Input { invariant: false }, i32t(), vec![]);
        let b = d.push(OpKind::Input { invariant: false }, i32t(), vec![]);
        let u = d.push(OpKind::Not, i32t(), vec![a]);
        d.replace_all_uses(a, b);
        assert_eq!(d.inst(u).operands, vec![b]);
        assert!(d.users(a).is_empty());
        assert_eq!(d.users(b), &[u]);
    }

    #[test]
    fn replace_operand_updates_single_slot() {
        let mut d = Dfg::new();
        let a = d.push(OpKind::Input { invariant: false }, i32t(), vec![]);
        let b = d.push(OpKind::Input { invariant: false }, i32t(), vec![]);
        let s = d.push(OpKind::Add, i32t(), vec![a, a]);
        d.replace_operand(s, 1, b);
        assert_eq!(d.inst(s).operands, vec![a, b]);
        assert_eq!(d.users(a), &[s]);
        assert_eq!(d.users(b), &[s]);
    }

    #[test]
    fn depths_count_compute_hops() {
        let mut d = Dfg::new();
        let a = d.push(OpKind::Input { invariant: false }, i32t(), vec![]);
        let x = d.push(OpKind::Add, i32t(), vec![a, a]);
        let y = d.push(OpKind::Mul, i32t(), vec![x, a]);
        let o = d.push(OpKind::Output, i32t(), vec![y]);
        let depth = d.depths();
        assert_eq!(depth[a.index()], 0);
        assert_eq!(depth[x.index()], 1);
        assert_eq!(depth[y.index()], 2);
        assert_eq!(depth[o.index()], 2); // Output is not a compute hop.
    }

    #[test]
    fn connected_components_split_independent_flows() {
        // Two independent flows sharing one invariant input.
        let mut d = Dfg::new();
        let inv = d.push(OpKind::Input { invariant: true }, i32t(), vec![]);
        let a = d.push(OpKind::Input { invariant: false }, i32t(), vec![]);
        let b = d.push(OpKind::Input { invariant: false }, i32t(), vec![]);
        let x = d.push(OpKind::Add, i32t(), vec![a, inv]);
        let y = d.push(OpKind::Add, i32t(), vec![b, inv]);
        let _ox = d.push(OpKind::Output, i32t(), vec![x]);
        let _oy = d.push(OpKind::Output, i32t(), vec![y]);

        let split = d.connected_components(true);
        assert_eq!(split.len(), 2, "invariant must not glue flows");
        let merged = d.connected_components(false);
        assert_eq!(merged.len(), 1, "without duplication the flows connect");
    }

    #[test]
    fn eliminate_dead_removes_unused_chains() {
        let mut d = Dfg::new();
        let a = d.push(OpKind::Input { invariant: false }, i32t(), vec![]);
        let live = d.push(OpKind::Not, i32t(), vec![a]);
        let _o = d.push(OpKind::Output, i32t(), vec![live]);
        // Dead tail: not -> not -> reg, never consumed.
        let d1 = d.push(OpKind::Not, i32t(), vec![a]);
        let d2 = d.push(OpKind::Not, i32t(), vec![d1]);
        let _d3 = d.push(OpKind::Reg, i32t(), vec![d2]);
        let (out, map) = d.eliminate_dead();
        assert_eq!(out.len(), 3);
        assert!(map[d1.index()].is_none());
        assert!(map[live.index()].is_some());
    }

    #[test]
    fn eliminate_dead_keeps_side_effects_and_interfaces() {
        let mut d = Dfg::new();
        let unused_input = d.push(OpKind::Input { invariant: true }, i32t(), vec![]);
        let v = d.push(OpKind::FifoRead(crate::design::FifoId(0)), i32t(), vec![]);
        let i = d.push(OpKind::IndVar, i32t(), vec![]);
        let _st = d.push(OpKind::Store(crate::design::ArrayId(0)), i32t(), vec![i, v]);
        let (out, map) = d.eliminate_dead();
        assert_eq!(out.len(), 4);
        assert!(map[unused_input.index()].is_some());
    }

    #[test]
    fn insert_reg_after_redirects_all_users() {
        let mut d = Dfg::new();
        let src = d.push_named(OpKind::Input { invariant: true }, i32t(), vec![], "src");
        let x = d.push(OpKind::Input { invariant: false }, i32t(), vec![]);
        let a = d.push(OpKind::Add, i32t(), vec![src, x]);
        let b = d.push(OpKind::Sub, i32t(), vec![src, a]);
        let (nd, reg, map) = d.insert_reg_after(src);
        assert_eq!(nd.len(), 5);
        assert_eq!(nd.inst(reg).kind, OpKind::Reg);
        assert_eq!(nd.inst(reg).name, "src_reg");
        // All former users of src now read the register.
        assert_eq!(nd.inst(map[a.index()]).operands[0], reg);
        assert_eq!(nd.inst(map[b.index()]).operands[0], reg);
        // Unrelated operands survive the remap.
        assert_eq!(nd.inst(map[b.index()]).operands[1], map[a.index()]);
        assert_eq!(nd.fanout(map[src.index()]), 1);
        assert_eq!(nd.fanout(reg), 2);
    }

    #[test]
    fn insert_reg_after_last_instruction() {
        let mut d = Dfg::new();
        let a = d.push(OpKind::Input { invariant: false }, i32t(), vec![]);
        let (nd, reg, map) = d.insert_reg_after(a);
        assert_eq!(nd.len(), 2);
        assert_eq!(nd.inst(reg).operands, vec![map[a.index()]]);
    }

    #[test]
    fn display_is_readable() {
        let mut d = Dfg::new();
        let a = d.push_named(OpKind::Input { invariant: true }, i32t(), vec![], "curr_x");
        let b = d.push(OpKind::Input { invariant: false }, i32t(), vec![]);
        let c = d.push(OpKind::Cmp(CmpPred::Lt), DataType::Bool, vec![a, b]);
        let text = d.to_string();
        assert!(text.contains("%0 = input.inv i32"), "{text}");
        assert!(text.contains("; curr_x"), "{text}");
        assert!(text.contains(&format!("{c} = cmp.lt i1 %0, %1")), "{text}");
    }
}
