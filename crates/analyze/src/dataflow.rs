//! Iterative dataflow over the CFG: reaching definitions.
//!
//! A classic worklist fixpoint over per-block bit sets. It seeds one
//! **synthetic definition per non-parameter register** at the entry — the
//! "still uninitialized" state — which is what the MCA001
//! uninitialized-read diagnostic queries.

use crate::cfg::{Cfg, Loc};
use mcmm_gpu_sim::ir::{Instr, KernelIr, Operand, Reg};

/// A dense bit set sized at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set with capacity for `n` bits.
    pub fn new(n: usize) -> Self {
        Self { words: vec![0; n.div_ceil(64)] }
    }

    /// Insert bit `i`; returns true if it was newly set.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Remove bit `i`.
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Is bit `i` set?
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// `self |= other`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | *b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Indices of set bits, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64).filter(move |b| bits & (1 << b) != 0).map(move |b| w * 64 + b)
        })
    }
}

/// The register an instruction writes, if any. `If`/`While` never appear
/// inside CFG blocks, so they are unreachable here.
pub fn instr_def(i: &Instr) -> Option<Reg> {
    match i {
        Instr::Mov { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::Un { dst, .. }
        | Instr::Cmp { dst, .. }
        | Instr::Sel { dst, .. }
        | Instr::Cvt { dst, .. }
        | Instr::Special { dst, .. }
        | Instr::Ld { dst, .. } => Some(*dst),
        Instr::Atomic { dst, .. } => *dst,
        Instr::St { .. } | Instr::Bar | Instr::Trap { .. } => None,
        Instr::If { .. } | Instr::While { .. } => unreachable!("control instr inside a CFG block"),
    }
}

fn push_operand(o: &Operand, out: &mut Vec<Reg>) {
    if let Operand::Reg(r) = o {
        out.push(*r);
    }
}

/// The registers an instruction reads.
pub fn instr_uses(i: &Instr, out: &mut Vec<Reg>) {
    out.clear();
    match i {
        Instr::Mov { src, .. } => push_operand(src, out),
        Instr::Bin { a, b, .. } | Instr::Cmp { a, b, .. } => {
            push_operand(a, out);
            push_operand(b, out);
        }
        Instr::Un { a, .. } | Instr::Cvt { a, .. } => push_operand(a, out),
        Instr::Sel { cond, a, b, .. } => {
            out.push(*cond);
            push_operand(a, out);
            push_operand(b, out);
        }
        Instr::Special { .. } | Instr::Bar | Instr::Trap { .. } => {}
        Instr::Ld { addr, .. } => push_operand(addr, out),
        Instr::St { addr, value, .. } => {
            push_operand(addr, out);
            push_operand(value, out);
        }
        Instr::Atomic { addr, value, .. } => {
            push_operand(addr, out);
            push_operand(value, out);
        }
        Instr::If { .. } | Instr::While { .. } => unreachable!("control instr inside a CFG block"),
    }
}

/// One definition site tracked by [`ReachingDefs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// The defined register.
    pub reg: Reg,
    /// Where: `Some(loc)` for a real write, `None` for the synthetic
    /// entry definition ("parameter value" for parameter registers,
    /// "uninitialized" for the rest).
    pub site: Option<Loc>,
}

/// Reaching definitions over the CFG.
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    /// All definition sites; bit `i` in the sets refers to `defs[i]`.
    pub defs: Vec<Def>,
    /// Per-block in-sets.
    pub block_in: Vec<BitSet>,
    /// Per-block out-sets.
    pub block_out: Vec<BitSet>,
    /// Indices (into `defs`) of the synthetic entry definitions of
    /// **non-parameter** registers — the "uninitialized" defs.
    pub uninit_defs: Vec<usize>,
    /// Number of synthetic defs (`defs[0..n_synthetic]`, one per
    /// register); real defs follow in block order.
    pub n_synthetic: usize,
}

impl ReachingDefs {
    /// Run the analysis to fixpoint.
    pub fn compute(kernel: &KernelIr, cfg: &Cfg) -> Self {
        // Collect definition sites: one synthetic per register at entry,
        // then every real write in block order.
        let mut defs: Vec<Def> = Vec::new();
        let mut uninit_defs = Vec::new();
        for r in 0..kernel.regs.len() {
            if r >= kernel.params.len() {
                uninit_defs.push(defs.len());
            }
            defs.push(Def { reg: Reg(r as u16), site: None });
        }
        let mut def_at: Vec<Vec<usize>> = vec![Vec::new(); cfg.blocks.len()];
        for (bid, block) in cfg.blocks.iter().enumerate() {
            for (loc, instr) in &block.instrs {
                if let Some(reg) = instr_def(instr) {
                    def_at[bid].push(defs.len());
                    defs.push(Def { reg, site: Some(*loc) });
                } else {
                    def_at[bid].push(usize::MAX);
                }
            }
        }
        // Per-register def lists for kill sets.
        let mut defs_of_reg: Vec<Vec<usize>> = vec![Vec::new(); kernel.regs.len()];
        for (i, d) in defs.iter().enumerate() {
            defs_of_reg[d.reg.0 as usize].push(i);
        }

        let n = defs.len();
        let gen_kill = |bid: usize| -> (BitSet, BitSet) {
            let mut gen = BitSet::new(n);
            let mut kill = BitSet::new(n);
            for (pos, (_, instr)) in cfg.blocks[bid].instrs.iter().enumerate() {
                if let Some(reg) = instr_def(instr) {
                    let id = def_at[bid][pos];
                    for &other in &defs_of_reg[reg.0 as usize] {
                        kill.insert(other);
                        gen.remove(other);
                    }
                    kill.remove(id);
                    gen.insert(id);
                }
            }
            (gen, kill)
        };
        let gk: Vec<(BitSet, BitSet)> = (0..cfg.blocks.len()).map(gen_kill).collect();

        let mut block_in = vec![BitSet::new(n); cfg.blocks.len()];
        let mut block_out = vec![BitSet::new(n); cfg.blocks.len()];
        // Boundary condition: every synthetic def reaches the entry.
        let mut seed = BitSet::new(n);
        for i in 0..kernel.regs.len() {
            seed.insert(i);
        }
        let rpo = cfg.reverse_postorder();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo {
                let mut inp = if b == cfg.entry { seed.clone() } else { BitSet::new(n) };
                for &p in &cfg.blocks[b].preds {
                    inp.union_with(&block_out[p]);
                }
                // out = gen ∪ (in − kill)
                let (gen, kill) = &gk[b];
                let mut out = inp.clone();
                for k in kill.iter() {
                    out.remove(k);
                }
                out.union_with(gen);
                if out != block_out[b] {
                    block_out[b] = out;
                    changed = true;
                }
                block_in[b] = inp;
            }
        }
        Self { defs, block_in, block_out, uninit_defs, n_synthetic: kernel.regs.len() }
    }

    /// Walk one block replaying the transfer function, calling `visit`
    /// with the state **before** each instruction.
    pub fn for_each_state<'c>(
        &self,
        cfg: &'c Cfg,
        bid: usize,
        mut visit: impl FnMut(&BitSet, Loc, &'c Instr),
    ) {
        // Real def ids were appended in block order after the synthetic
        // ones, so this block's first real def id is an offset count.
        let mut next_id = self.n_synthetic
            + cfg.blocks[..bid]
                .iter()
                .flat_map(|b| b.instrs.iter())
                .filter(|(_, i)| instr_def(i).is_some())
                .count();
        let mut state = self.block_in[bid].clone();
        for (loc, instr) in &cfg.blocks[bid].instrs {
            visit(&state, *loc, instr);
            if let Some(reg) = instr_def(instr) {
                // Kill every other def of the register, then gen this one.
                for (i, d) in self.defs.iter().enumerate() {
                    if d.reg == reg {
                        state.remove(i);
                    }
                }
                state.insert(next_id);
                next_id += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmm_gpu_sim::ir::{CmpOp, KernelBuilder, Type, Value};

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        let collected: Vec<usize> = s.iter().collect();
        assert_eq!(collected, vec![0, 129]);
        s.remove(0);
        assert!(!s.contains(0));
    }

    #[test]
    fn straight_line_defs_reach_the_exit() {
        let mut k = KernelBuilder::new("t");
        let p = k.param(Type::I64);
        let a = k.imm(Value::I32(1));
        let _ = (p, a);
        let kernel = k.finish();
        let cfg = Cfg::build(&kernel);
        let rd = ReachingDefs::compute(&kernel, &cfg);
        // At the exit, register a's synthetic def is killed by the Mov.
        let exit_in = &rd.block_in[cfg.exit];
        let a_synth = rd
            .uninit_defs
            .iter()
            .find(|&&d| rd.defs[d].reg == a)
            .copied()
            .expect("a has a synthetic def");
        assert!(!exit_in.contains(a_synth), "real def must kill the synthetic one");
    }

    #[test]
    fn branch_keeps_uninit_def_alive_on_one_path() {
        // r defined only in the then-branch: synthetic def must survive
        // to the join.
        let mut k = KernelBuilder::new("half");
        let _p = k.param(Type::I64);
        let i = k.thread_id_x();
        let c = k.cmp(CmpOp::Lt, i, Value::I32(4));
        let r = k.imm(Value::I32(0));
        // overwrite r only under the guard
        k.if_(c, |k| k.assign(r, Value::I32(7)));
        let kernel = k.finish();
        let cfg = Cfg::build(&kernel);
        let rd = ReachingDefs::compute(&kernel, &cfg);
        // r's real pre-branch def and its conditional def both reach exit;
        // the synthetic def does not (killed unconditionally by the imm).
        let r_defs: Vec<&Def> =
            rd.block_in[cfg.exit].iter().map(|i| &rd.defs[i]).filter(|d| d.reg == r).collect();
        assert_eq!(r_defs.len(), 2);
        assert!(r_defs.iter().all(|d| d.site.is_some()));
    }
}
