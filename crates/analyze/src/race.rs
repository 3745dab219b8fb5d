//! MCA003 — shared-memory data races via barrier-interval analysis.
//!
//! The checker runs a small SIMT abstract interpreter over all
//! `block_dim` lanes of block 0, tracking each register as a per-lane
//! concrete vector (or `Unknown`). Every shared-memory access whose byte
//! address is concrete is logged into the current *barrier interval*; a
//! `Bar` closes the interval and scans it for conflicts:
//!
//! > two accesses from **different lanes** touching an **overlapping
//! > byte** with **at least one write** (atomic-vs-atomic pairs are
//! > ordered and therefore fine, atomic-vs-plain is not).
//!
//! Anything the walker cannot evaluate concretely (loaded values,
//! float-derived conditions, unknown trip counts) degrades to `Unknown`
//! and is simply *not logged* — the analysis reports **definite races
//! only**, which is what lets every static finding be confirmed by the
//! dynamic racecheck in `mcmm-gpu-sim-ref`.

use crate::{AnalysisOptions, Diagnostic, Loc, MCA003};
use mcmm_gpu_sim::ir::{BinOp, CmpOp, Instr, KernelIr, Operand, Space, Special, Type, UnOp, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Upper bound on abstractly-executed instructions; prevents huge concrete
/// trip counts from stalling the lint gate.
const STEP_BUDGET: usize = 1_000_000;

/// A per-lane value vector, or nothing known.
#[derive(Debug, Clone, PartialEq)]
enum LaneVal {
    /// One integer per lane (both I32 and I64 registers; I32 ops re-wrap).
    Int(Vec<i64>),
    /// One predicate per lane.
    Bool(Vec<bool>),
    /// Not tracked (floats, loaded values, divergent-unknown writes).
    Unknown,
}

/// How an access touched memory, for the conflict rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Read,
    Write,
    Atomic,
}

impl Kind {
    fn conflicts(self, other: Kind) -> bool {
        !matches!((self, other), (Kind::Read, Kind::Read) | (Kind::Atomic, Kind::Atomic))
    }

    fn verb(self) -> &'static str {
        match self {
            Kind::Read => "reads",
            Kind::Write => "writes",
            Kind::Atomic => "atomically updates",
        }
    }
}

fn count_instrs(body: &[Instr]) -> u32 {
    body.iter()
        .map(|i| match i {
            Instr::If { then_, else_, .. } => 1 + count_instrs(then_) + count_instrs(else_),
            Instr::While { cond_block, body, .. } => {
                1 + count_instrs(cond_block) + count_instrs(body)
            }
            _ => 1,
        })
        .sum()
}

struct Racer<'k> {
    kernel: &'k KernelIr,
    nlanes: usize,
    warp_width: u32,
    block_dim: i64,
    grid_dim: i64,
    regs: Vec<LaneVal>,
    /// Current barrier interval: byte -> accesses.
    interval: BTreeMap<u64, Vec<(u32, Kind, Loc)>>,
    seen_pairs: BTreeSet<(Loc, Loc)>,
    diags: Vec<Diagnostic>,
    steps: usize,
    next_loc: u32,
    aborted: bool,
}

impl Racer<'_> {
    fn loc(&mut self) -> Loc {
        let l = Loc(self.next_loc);
        self.next_loc += 1;
        l
    }

    fn tick(&mut self) -> bool {
        self.steps += 1;
        if self.steps > STEP_BUDGET {
            self.aborted = true;
        }
        self.aborted
    }

    fn eval(&self, o: &Operand) -> LaneVal {
        match o {
            Operand::Reg(r) => self.regs[r.0 as usize].clone(),
            Operand::Imm(v) => match v {
                Value::I32(x) => LaneVal::Int(vec![i64::from(*x); self.nlanes]),
                Value::I64(x) => LaneVal::Int(vec![*x; self.nlanes]),
                Value::Bool(b) => LaneVal::Bool(vec![*b; self.nlanes]),
                _ => LaneVal::Unknown,
            },
        }
    }

    /// Write `val` into `dst` for the lanes active in `mask`; `exec=false`
    /// (taint mode under an unknown branch) forces `Unknown`.
    fn write(&mut self, dst: mcmm_gpu_sim::ir::Reg, val: LaneVal, mask: &[bool], exec: bool) {
        let slot = &mut self.regs[dst.0 as usize];
        if !exec {
            *slot = LaneVal::Unknown;
            return;
        }
        if !mask.iter().any(|&m| m) {
            return;
        }
        if mask.iter().all(|&m| m) {
            *slot = val;
            return;
        }
        match (&mut *slot, val) {
            (LaneVal::Int(old), LaneVal::Int(new)) => {
                for (l, &m) in mask.iter().enumerate() {
                    if m {
                        old[l] = new[l];
                    }
                }
            }
            (LaneVal::Bool(old), LaneVal::Bool(new)) => {
                for (l, &m) in mask.iter().enumerate() {
                    if m {
                        old[l] = new[l];
                    }
                }
            }
            (slot, _) => *slot = LaneVal::Unknown,
        }
    }

    fn record(&mut self, loc: Loc, addr: &Operand, bytes: u64, kind: Kind, mask: &[bool]) {
        let LaneVal::Int(addrs) = self.eval(addr) else { return };
        for (lane, &m) in mask.iter().enumerate() {
            if !m {
                continue;
            }
            let a = addrs[lane];
            if a < 0 {
                continue;
            }
            for b in (a as u64)..(a as u64 + bytes) {
                let entry = (lane as u32, kind, loc);
                let v = self.interval.entry(b).or_default();
                if !v.contains(&entry) {
                    v.push(entry);
                }
            }
        }
    }

    fn flush(&mut self) {
        let interval = std::mem::take(&mut self.interval);
        for (byte, accesses) in interval {
            for (i, &(la, ka, pa)) in accesses.iter().enumerate() {
                for &(lb, kb, pb) in &accesses[i + 1..] {
                    if la == lb || !ka.conflicts(kb) {
                        continue;
                    }
                    let key = if pa <= pb { (pa, pb) } else { (pb, pa) };
                    if !self.seen_pairs.insert(key) {
                        continue;
                    }
                    self.diags.push(Diagnostic {
                        code: MCA003,
                        loc: Some(key.0),
                        message: format!(
                            "shared-memory race in kernel `{}`: lane {la} {} byte {byte} \
                             at {pa} while lane {lb} {} it at {pb}, with no barrier \
                             between the accesses",
                            self.kernel.name,
                            ka.verb(),
                            kb.verb()
                        ),
                    });
                }
            }
        }
    }

    fn bin(&self, op: BinOp, dst_ty: Type, a: LaneVal, b: LaneVal) -> LaneVal {
        match (a, b) {
            (LaneVal::Int(x), LaneVal::Int(y)) => {
                let mut out = Vec::with_capacity(self.nlanes);
                for (xa, ya) in x.iter().zip(&y) {
                    let (xa, ya) = (*xa, *ya);
                    let v = match op {
                        BinOp::Add => xa.wrapping_add(ya),
                        BinOp::Sub => xa.wrapping_sub(ya),
                        BinOp::Mul => xa.wrapping_mul(ya),
                        BinOp::Div => {
                            if ya == 0 {
                                return LaneVal::Unknown;
                            }
                            xa.wrapping_div(ya)
                        }
                        BinOp::Rem => {
                            if ya == 0 {
                                return LaneVal::Unknown;
                            }
                            xa.wrapping_rem(ya)
                        }
                        BinOp::Min => xa.min(ya),
                        BinOp::Max => xa.max(ya),
                        BinOp::And => xa & ya,
                        BinOp::Or => xa | ya,
                        BinOp::Xor => xa ^ ya,
                        BinOp::Shl => xa.wrapping_shl(ya as u32 & 63),
                        BinOp::Shr => xa.wrapping_shr(ya as u32 & 63),
                    };
                    out.push(if dst_ty == Type::I32 { i64::from(v as i32) } else { v });
                }
                LaneVal::Int(out)
            }
            (LaneVal::Bool(x), LaneVal::Bool(y)) => match op {
                BinOp::And => LaneVal::Bool(x.iter().zip(&y).map(|(a, b)| *a && *b).collect()),
                BinOp::Or => LaneVal::Bool(x.iter().zip(&y).map(|(a, b)| *a || *b).collect()),
                BinOp::Xor => LaneVal::Bool(x.iter().zip(&y).map(|(a, b)| *a != *b).collect()),
                _ => LaneVal::Unknown,
            },
            _ => LaneVal::Unknown,
        }
    }

    fn walk(&mut self, body: &[Instr], mask: &[bool], exec: bool) {
        for instr in body {
            if self.tick() {
                return;
            }
            let loc = self.loc();
            match instr {
                Instr::Mov { dst, src } => {
                    let v = self.eval(src);
                    self.write(*dst, v, mask, exec);
                }
                Instr::Bin { op, dst, a, b } => {
                    let dt = self.kernel.regs[dst.0 as usize];
                    let v = self.bin(*op, dt, self.eval(a), self.eval(b));
                    self.write(*dst, v, mask, exec);
                }
                Instr::Un { op, dst, a } => {
                    let v = match (op, self.eval(a)) {
                        (UnOp::Neg, LaneVal::Int(x)) => {
                            LaneVal::Int(x.iter().map(|v| v.wrapping_neg()).collect())
                        }
                        (UnOp::Abs, LaneVal::Int(x)) => {
                            LaneVal::Int(x.iter().map(|v| v.wrapping_abs()).collect())
                        }
                        (UnOp::Not, LaneVal::Bool(x)) => {
                            LaneVal::Bool(x.iter().map(|v| !v).collect())
                        }
                        _ => LaneVal::Unknown,
                    };
                    self.write(*dst, v, mask, exec);
                }
                Instr::Cmp { op, dst, a, b } => {
                    let v = match (self.eval(a), self.eval(b)) {
                        (LaneVal::Int(x), LaneVal::Int(y)) => LaneVal::Bool(
                            x.iter()
                                .zip(&y)
                                .map(|(a, b)| match op {
                                    CmpOp::Eq => a == b,
                                    CmpOp::Ne => a != b,
                                    CmpOp::Lt => a < b,
                                    CmpOp::Le => a <= b,
                                    CmpOp::Gt => a > b,
                                    CmpOp::Ge => a >= b,
                                })
                                .collect(),
                        ),
                        _ => LaneVal::Unknown,
                    };
                    self.write(*dst, v, mask, exec);
                }
                Instr::Sel { dst, cond, a, b } => {
                    let v = match (&self.regs[cond.0 as usize], self.eval(a), self.eval(b)) {
                        (LaneVal::Bool(c), LaneVal::Int(x), LaneVal::Int(y)) => LaneVal::Int(
                            c.iter()
                                .zip(x.iter().zip(&y))
                                .map(|(c, (x, y))| if *c { *x } else { *y })
                                .collect(),
                        ),
                        _ => LaneVal::Unknown,
                    };
                    self.write(*dst, v, mask, exec);
                }
                Instr::Cvt { dst, a } => {
                    let dt = self.kernel.regs[dst.0 as usize];
                    let v = match self.eval(a) {
                        LaneVal::Int(x) if dt == Type::I32 => {
                            LaneVal::Int(x.iter().map(|v| i64::from(*v as i32)).collect())
                        }
                        LaneVal::Int(x) if dt == Type::I64 => LaneVal::Int(x),
                        _ => LaneVal::Unknown,
                    };
                    self.write(*dst, v, mask, exec);
                }
                Instr::Special { dst, kind } => {
                    let v = match kind {
                        Special::TidX => LaneVal::Int((0..self.nlanes as i64).collect()),
                        Special::LaneId => LaneVal::Int(
                            (0..self.nlanes as i64)
                                .map(|l| l % i64::from(self.warp_width))
                                .collect(),
                        ),
                        // The dynamic racecheck runs block 0, so pin the
                        // same block here — keeps findings reproducible.
                        Special::CtaIdX => LaneVal::Int(vec![0; self.nlanes]),
                        Special::NTidX => LaneVal::Int(vec![self.block_dim; self.nlanes]),
                        Special::NCtaIdX => LaneVal::Int(vec![self.grid_dim; self.nlanes]),
                    };
                    self.write(*dst, v, mask, exec);
                }
                Instr::Ld { dst, space, addr } => {
                    if exec && *space == Space::Shared {
                        let bytes = self.kernel.regs[dst.0 as usize].size();
                        self.record(loc, addr, bytes, Kind::Read, mask);
                    }
                    self.write(*dst, LaneVal::Unknown, mask, exec);
                }
                Instr::St { space, addr, value } => {
                    if exec && *space == Space::Shared {
                        let bytes = self.kernel.operand_type(value).map_or(0, Type::size);
                        self.record(loc, addr, bytes, Kind::Write, mask);
                    }
                }
                Instr::Atomic { space, addr, value, dst, .. } => {
                    if exec && *space == Space::Shared {
                        let bytes = self.kernel.operand_type(value).map_or(0, Type::size);
                        self.record(loc, addr, bytes, Kind::Atomic, mask);
                    }
                    if let Some(d) = dst {
                        self.write(*d, LaneVal::Unknown, mask, exec);
                    }
                }
                Instr::Bar => {
                    if exec {
                        self.flush();
                    }
                }
                Instr::Trap { .. } => {}
                Instr::If { cond, then_, else_ } => match self.regs[cond.0 as usize].clone() {
                    LaneVal::Bool(c) if exec => {
                        let tmask: Vec<bool> = mask.iter().zip(&c).map(|(m, c)| *m && *c).collect();
                        let emask: Vec<bool> =
                            mask.iter().zip(&c).map(|(m, c)| *m && !*c).collect();
                        self.walk(then_, &tmask, exec);
                        self.walk(else_, &emask, exec);
                    }
                    _ => {
                        // Unknown guard (or taint mode): traverse both arms
                        // for loc numbering, recording nothing.
                        self.walk(then_, mask, false);
                        self.walk(else_, mask, false);
                    }
                },
                Instr::While { cond_block, cond, body } => {
                    let loop_start = self.next_loc;
                    let loop_len = count_instrs(cond_block) + count_instrs(body);
                    let mut live = mask.to_vec();
                    loop {
                        self.next_loc = loop_start;
                        self.walk(cond_block, &live, exec);
                        let known = match (&self.regs[cond.0 as usize], exec) {
                            (LaneVal::Bool(c), true) => Some(c.clone()),
                            _ => None,
                        };
                        match known {
                            Some(c) => {
                                for (l, c) in live.iter_mut().zip(&c) {
                                    *l = *l && *c;
                                }
                                if !live.iter().any(|&m| m) {
                                    break;
                                }
                                self.walk(body, &live, exec);
                            }
                            None => {
                                // Unknown trip count: one taint pass over
                                // the body, then give up on this loop.
                                self.next_loc = loop_start;
                                self.walk(cond_block, &live, false);
                                self.walk(body, &live, false);
                                break;
                            }
                        }
                        if self.aborted {
                            break;
                        }
                    }
                    self.next_loc = loop_start + loop_len;
                }
            }
        }
    }
}

/// Run the MCA003 check.
pub fn check(kernel: &KernelIr, opts: &AnalysisOptions) -> Vec<Diagnostic> {
    if kernel.shared_bytes == 0 {
        return Vec::new(); // no shared memory, nothing to race on
    }
    let nlanes = opts.block_dim.max(1) as usize;
    // Match the interpreter: integer and predicate registers start
    // zeroed/false (so partially-masked writes merge against concrete
    // values); floats are untracked; parameters take launch values when
    // the options supply them and are otherwise unknown.
    let mut regs: Vec<LaneVal> = kernel
        .regs
        .iter()
        .map(|t| match t {
            Type::I32 | Type::I64 => LaneVal::Int(vec![0; nlanes]),
            Type::Bool => LaneVal::Bool(vec![false; nlanes]),
            Type::F32 | Type::F64 => LaneVal::Unknown,
        })
        .collect();
    for (i, _) in kernel.params.iter().enumerate() {
        match opts.param_values.get(&(i as u16)) {
            Some(&v) => regs[i] = LaneVal::Int(vec![v; nlanes]),
            None => regs[i] = LaneVal::Unknown,
        }
    }
    let mut r = Racer {
        kernel,
        nlanes,
        warp_width: opts.warp_width.max(1),
        block_dim: i64::from(opts.block_dim),
        grid_dim: i64::from(opts.grid_dim),
        regs,
        interval: BTreeMap::new(),
        seen_pairs: BTreeSet::new(),
        diags: Vec::new(),
        steps: 0,
        next_loc: 0,
        aborted: false,
    };
    let mask = vec![true; nlanes];
    r.walk(&kernel.body, &mask, true);
    if !r.aborted {
        r.flush(); // the interval between the last barrier and kernel exit
    }
    r.diags
}
