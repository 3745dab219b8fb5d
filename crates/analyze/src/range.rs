//! MCA004 — out-of-bounds memory accesses via value-range analysis.
//!
//! An abstract interpreter over the structured tree tracks each register as
//! a *base + interval* pair: the base is either nothing (a plain integer),
//! a pointer parameter (offset-from-base tracking), or unknown. Intervals
//! are refined by comparison guards (`if (i < n)` narrows `i` inside the
//! then-branch), joined at control-flow merges, and widened to fixpoint
//! around loops.
//!
//! Accesses are checked against two kinds of extents:
//!
//! * **Shared memory** — the kernel's own `shared_bytes` declaration is
//!   always known, so any shared access whose byte interval is finite and
//!   escapes `[0, shared_bytes)` is flagged.
//! * **Global memory** — only checked when the analysis options supply an
//!   extent for the pointer parameter ([`AnalysisOptions::buffer_bytes`]);
//!   unknown buffers are never flagged (no false positives on kernels
//!   whose sizes are launch-time values).
//!
//! Only accesses with *finite, provable* out-of-range intervals are
//! reported, so a clean kernel with runtime-sized buffers stays clean.

use crate::uninit::instr_def;
use crate::{AnalysisOptions, Diagnostic, Loc, MCA004};
use mcmm_gpu_sim::ir::{
    BinOp, CmpOp, Instr, KernelIr, Operand, Reg, Space, Special, Type, UnOp, Value,
};

/// Sentinel "infinity" for interval bounds; large enough to dominate any
/// i64 arithmetic, small enough that saturating i128 ops never wrap.
const INF: i128 = 1 << 100;

/// A closed integer interval `[lo, hi]` with saturating endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Iv {
    /// Lower bound (`-INF` = unbounded below).
    pub lo: i128,
    /// Upper bound (`INF` = unbounded above).
    pub hi: i128,
}

impl Iv {
    fn top() -> Self {
        Iv { lo: -INF, hi: INF }
    }

    fn point(v: i128) -> Self {
        Iv { lo: v, hi: v }
    }

    fn is_empty(self) -> bool {
        self.lo > self.hi
    }

    /// Both endpoints are real numbers, not sentinels.
    fn finite(self) -> bool {
        self.lo > -INF && self.hi < INF
    }

    fn clamp(self) -> Self {
        Iv { lo: self.lo.clamp(-INF, INF), hi: self.hi.clamp(-INF, INF) }
    }

    fn hull(a: Self, b: Self) -> Self {
        Iv { lo: a.lo.min(b.lo), hi: a.hi.max(b.hi) }
    }

    fn add(a: Self, b: Self) -> Self {
        Iv { lo: a.lo.saturating_add(b.lo), hi: a.hi.saturating_add(b.hi) }.clamp()
    }

    fn sub(a: Self, b: Self) -> Self {
        Iv { lo: a.lo.saturating_sub(b.hi), hi: a.hi.saturating_sub(b.lo) }.clamp()
    }

    fn mul(a: Self, b: Self) -> Self {
        let ps = [
            a.lo.saturating_mul(b.lo),
            a.lo.saturating_mul(b.hi),
            a.hi.saturating_mul(b.lo),
            a.hi.saturating_mul(b.hi),
        ];
        Iv { lo: *ps.iter().min().unwrap(), hi: *ps.iter().max().unwrap() }.clamp()
    }

    fn neg(self) -> Self {
        Iv { lo: self.hi.saturating_neg(), hi: self.lo.saturating_neg() }.clamp()
    }
}

/// What a register's value is an offset from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Base {
    /// A plain integer — the interval is the value itself.
    None,
    /// Offset from the pointer passed as parameter register `p`.
    Ptr(u16),
    /// Mixed/unknown provenance; never checked.
    Many,
}

/// Abstract value: base + interval.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AbsVal {
    base: Base,
    iv: Iv,
}

impl AbsVal {
    fn top() -> Self {
        AbsVal { base: Base::None, iv: Iv::top() }
    }

    fn many() -> Self {
        AbsVal { base: Base::Many, iv: Iv::top() }
    }

    fn join(a: Self, b: Self) -> Self {
        let base = if a.base == b.base { a.base } else { Base::Many };
        AbsVal { base, iv: Iv::hull(a.iv, b.iv) }
    }
}

/// A remembered comparison fact `a <op> b` held by a Bool register.
#[derive(Debug, Clone, Copy)]
struct Fact {
    op: CmpOp,
    a: FOp,
    b: FOp,
}

/// A fact operand: an immediate or a register pinned to the version it had
/// when the comparison executed (a later write invalidates the fact).
#[derive(Debug, Clone, Copy)]
enum FOp {
    Imm(i128),
    Reg(Reg, u64),
}

struct Analyzer<'k> {
    kernel: &'k KernelIr,
    opts: &'k AnalysisOptions,
    env: Vec<AbsVal>,
    /// Monotone write stamps; `facts` referencing stale stamps are dead.
    version: Vec<u64>,
    tick: u64,
    facts: Vec<Option<Fact>>,
    record: bool,
    next_loc: u32,
    found: Vec<(Loc, String)>,
}

impl Analyzer<'_> {
    fn loc(&mut self) -> Loc {
        let l = Loc(self.next_loc);
        self.next_loc += 1;
        l
    }

    fn write(&mut self, r: Reg, v: AbsVal) {
        self.env[r.0 as usize] = v;
        self.tick += 1;
        self.version[r.0 as usize] = self.tick;
        self.facts[r.0 as usize] = None;
    }

    fn eval(&self, o: &Operand) -> AbsVal {
        match o {
            Operand::Reg(r) => self.env[r.0 as usize],
            Operand::Imm(v) => match v {
                Value::I32(x) => AbsVal { base: Base::None, iv: Iv::point(i128::from(*x)) },
                Value::I64(x) => AbsVal { base: Base::None, iv: Iv::point(i128::from(*x)) },
                _ => AbsVal::top(),
            },
        }
    }

    fn fact_op(&self, o: &Operand) -> Option<FOp> {
        match o {
            Operand::Reg(r) => Some(FOp::Reg(*r, self.version[r.0 as usize])),
            Operand::Imm(Value::I32(x)) => Some(FOp::Imm(i128::from(*x))),
            Operand::Imm(Value::I64(x)) => Some(FOp::Imm(i128::from(*x))),
            Operand::Imm(_) => None,
        }
    }

    /// Current interval behind a fact operand, if it is still valid and a
    /// plain integer.
    fn fact_iv(&self, f: FOp) -> Option<Iv> {
        match f {
            FOp::Imm(v) => Some(Iv::point(v)),
            FOp::Reg(r, ver) => {
                let i = r.0 as usize;
                if self.version[i] == ver && self.env[i].base == Base::None {
                    Some(self.env[i].iv)
                } else {
                    None
                }
            }
        }
    }

    /// Narrow `env` assuming the Bool register `cond` is `polarity`.
    fn refine(&mut self, cond: Reg, polarity: bool) {
        let Some(fact) = self.facts[cond.0 as usize] else { return };
        let op = if polarity {
            fact.op
        } else {
            match fact.op {
                CmpOp::Eq => CmpOp::Ne,
                CmpOp::Ne => CmpOp::Eq,
                CmpOp::Lt => CmpOp::Ge,
                CmpOp::Le => CmpOp::Gt,
                CmpOp::Gt => CmpOp::Le,
                CmpOp::Ge => CmpOp::Lt,
            }
        };
        let (a_iv, b_iv) = (self.fact_iv(fact.a), self.fact_iv(fact.b));
        // Narrow one side against the other's pre-refinement interval;
        // refinement does not bump versions (the value is unchanged).
        let mut narrow = |side: FOp, bound: Option<Iv>, op_for_side: CmpOp| {
            let (FOp::Reg(r, ver), Some(bv)) = (side, bound) else { return };
            let i = r.0 as usize;
            if self.version[i] != ver || self.env[i].base != Base::None {
                return;
            }
            let iv = &mut self.env[i].iv;
            match op_for_side {
                CmpOp::Lt => iv.hi = iv.hi.min(bv.hi.saturating_sub(1)),
                CmpOp::Le => iv.hi = iv.hi.min(bv.hi),
                CmpOp::Gt => iv.lo = iv.lo.max(bv.lo.saturating_add(1)),
                CmpOp::Ge => iv.lo = iv.lo.max(bv.lo),
                CmpOp::Eq => {
                    iv.lo = iv.lo.max(bv.lo);
                    iv.hi = iv.hi.min(bv.hi);
                }
                CmpOp::Ne => {}
            }
        };
        narrow(fact.a, b_iv, op);
        // Mirror the operator for the right-hand side: `a < b` bounds `b`
        // from below by `a`.
        let mirrored = match op {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        };
        narrow(fact.b, a_iv, mirrored);
    }

    fn check_access(&mut self, loc: Loc, space: Space, addr: &Operand, bytes: u64, what: &str) {
        if !self.record {
            return;
        }
        let v = self.eval(addr);
        if v.iv.is_empty() {
            return; // branch proven dead by refinement
        }
        let bytes = i128::from(bytes);
        match space {
            Space::Shared => {
                let extent = i128::from(self.kernel.shared_bytes);
                if v.base == Base::None
                    && v.iv.finite()
                    && (v.iv.lo < 0 || v.iv.hi.saturating_add(bytes) > extent)
                {
                    self.found.push((
                        loc,
                        format!(
                            "shared-memory {what} at {loc} touches byte offsets \
                             [{}, {}) but the kernel `{}` declares only {extent} \
                             shared bytes",
                            v.iv.lo,
                            v.iv.hi.saturating_add(bytes),
                            self.kernel.name
                        ),
                    ));
                }
            }
            Space::Global => {
                let Base::Ptr(p) = v.base else { return };
                let Some(&ext) = self.opts.buffer_bytes.get(&p) else { return };
                let extent = i128::from(ext);
                if v.iv.finite() && (v.iv.lo < 0 || v.iv.hi.saturating_add(bytes) > extent) {
                    self.found.push((
                        loc,
                        format!(
                            "global {what} through pointer parameter r{p} at {loc} \
                             touches byte offsets [{}, {}) beyond its declared \
                             {extent}-byte extent in kernel `{}`",
                            v.iv.lo,
                            v.iv.hi.saturating_add(bytes),
                            self.kernel.name
                        ),
                    ));
                }
            }
        }
    }

    fn bin_val(&self, op: BinOp, a: AbsVal, b: AbsVal) -> AbsVal {
        use Base::*;
        match op {
            BinOp::Add => {
                let base = match (a.base, b.base) {
                    (None, None) => None,
                    (Ptr(p), None) | (None, Ptr(p)) => Ptr(p),
                    _ => Many,
                };
                AbsVal { base, iv: Iv::add(a.iv, b.iv) }
            }
            BinOp::Sub => {
                let base = match (a.base, b.base) {
                    (None, None) => None,
                    (Ptr(p), None) => Ptr(p),
                    _ => Many,
                };
                AbsVal { base, iv: Iv::sub(a.iv, b.iv) }
            }
            BinOp::Mul if a.base == None && b.base == None => {
                AbsVal { base: None, iv: Iv::mul(a.iv, b.iv) }
            }
            BinOp::Min if a.base == None && b.base == None => {
                AbsVal { base: None, iv: Iv { lo: a.iv.lo.min(b.iv.lo), hi: a.iv.hi.min(b.iv.hi) } }
            }
            BinOp::Max if a.base == None && b.base == None => {
                AbsVal { base: None, iv: Iv { lo: a.iv.lo.max(b.iv.lo), hi: a.iv.hi.max(b.iv.hi) } }
            }
            // Non-negative / positive division narrows; anything else is top.
            BinOp::Div
                if a.base == None
                    && b.base == None
                    && a.iv.lo >= 0
                    && b.iv.lo >= 1
                    && a.iv.finite()
                    && b.iv.finite() =>
            {
                AbsVal { base: None, iv: Iv { lo: a.iv.lo / b.iv.hi, hi: a.iv.hi / b.iv.lo } }
            }
            BinOp::And if a.base == None && b.base == None && a.iv.lo >= 0 && b.iv.lo >= 0 => {
                AbsVal { base: None, iv: Iv { lo: 0, hi: a.iv.hi.min(b.iv.hi) } }
            }
            _ => {
                if a.base == None && b.base == None {
                    AbsVal::top()
                } else {
                    AbsVal::many()
                }
            }
        }
    }

    fn walk(&mut self, body: &[Instr]) {
        for instr in body {
            let loc = self.loc();
            match instr {
                Instr::Mov { dst, src } => {
                    let v = self.eval(src);
                    self.write(*dst, v);
                }
                Instr::Bin { op, dst, a, b } => {
                    let v = self.bin_val(*op, self.eval(a), self.eval(b));
                    self.write(*dst, v);
                }
                Instr::Un { op, dst, a } => {
                    let av = self.eval(a);
                    let v = match op {
                        UnOp::Neg if av.base == Base::None => {
                            AbsVal { base: Base::None, iv: av.iv.neg() }
                        }
                        UnOp::Abs if av.base == Base::None => {
                            let iv = if av.iv.lo >= 0 {
                                av.iv
                            } else if av.iv.hi <= 0 {
                                av.iv.neg()
                            } else {
                                Iv { lo: 0, hi: av.iv.hi.max(av.iv.neg().hi) }
                            };
                            AbsVal { base: Base::None, iv }
                        }
                        _ => AbsVal::top(),
                    };
                    self.write(*dst, v);
                }
                Instr::Cmp { op, dst, a, b } => {
                    let fact = match (
                        self.kernel.operand_type(a).is_some_and(Type::is_int),
                        self.kernel.operand_type(b).is_some_and(Type::is_int),
                        self.fact_op(a),
                        self.fact_op(b),
                    ) {
                        (true, true, Some(fa), Some(fb)) => Some(Fact { op: *op, a: fa, b: fb }),
                        _ => None,
                    };
                    self.write(*dst, AbsVal::top());
                    self.facts[dst.0 as usize] = fact;
                }
                Instr::Sel { dst, a, b, .. } => {
                    let v = AbsVal::join(self.eval(a), self.eval(b));
                    self.write(*dst, v);
                }
                Instr::Cvt { dst, a } => {
                    let dt = self.kernel.regs[dst.0 as usize];
                    let at = self.kernel.operand_type(a);
                    let v = if dt.is_int() && at.is_some_and(Type::is_int) {
                        let av = self.eval(a);
                        // Narrowing to i32 wraps; only keep intervals that
                        // provably fit.
                        let fits_i32 =
                            av.iv.lo >= i128::from(i32::MIN) && av.iv.hi <= i128::from(i32::MAX);
                        if dt == Type::I64 || fits_i32 {
                            av
                        } else if av.base == Base::None {
                            AbsVal::top()
                        } else {
                            AbsVal::many()
                        }
                    } else {
                        AbsVal::top()
                    };
                    self.write(*dst, v);
                }
                Instr::Special { dst, kind } => {
                    let (lo, hi) = match kind {
                        Special::TidX => (0, i128::from(self.opts.block_dim) - 1),
                        Special::NTidX => {
                            (i128::from(self.opts.block_dim), i128::from(self.opts.block_dim))
                        }
                        Special::CtaIdX => (0, i128::from(self.opts.grid_dim) - 1),
                        Special::NCtaIdX => {
                            (i128::from(self.opts.grid_dim), i128::from(self.opts.grid_dim))
                        }
                        Special::LaneId => (0, i128::from(self.opts.warp_width) - 1),
                    };
                    self.write(*dst, AbsVal { base: Base::None, iv: Iv { lo, hi } });
                }
                Instr::Ld { dst, space, addr } => {
                    let bytes = self.kernel.regs[dst.0 as usize].size();
                    self.check_access(loc, *space, addr, bytes, "load");
                    self.write(*dst, AbsVal::top());
                }
                Instr::St { space, addr, value } => {
                    let bytes = self.kernel.operand_type(value).map_or(0, Type::size);
                    self.check_access(loc, *space, addr, bytes, "store");
                }
                Instr::Atomic { space, addr, value, dst, .. } => {
                    let bytes = self.kernel.operand_type(value).map_or(0, Type::size);
                    self.check_access(loc, *space, addr, bytes, "atomic");
                    if let Some(d) = dst {
                        self.write(*d, AbsVal::top());
                    }
                }
                Instr::Bar | Instr::Trap { .. } => {}
                Instr::If { cond, then_, else_ } => {
                    let saved_env = self.env.clone();
                    let saved_ver = self.version.clone();
                    let saved_facts = self.facts.clone();
                    self.refine(*cond, true);
                    self.walk(then_);
                    let then_env = std::mem::replace(&mut self.env, saved_env);
                    let then_ver = std::mem::replace(&mut self.version, saved_ver);
                    self.facts = saved_facts;
                    self.refine(*cond, false);
                    self.walk(else_);
                    for i in 0..self.env.len() {
                        self.env[i] = AbsVal::join(then_env[i], self.env[i]);
                        self.version[i] = then_ver[i].max(self.version[i]);
                        if then_ver[i] != self.version[i] {
                            self.facts[i] = None;
                        }
                    }
                }
                Instr::While { cond_block, cond, body } => {
                    let loop_start = self.next_loc;
                    let was_recording = self.record;
                    self.record = false;
                    // Fixpoint on the loop-header state, widening after two
                    // refining passes so strictly-growing bounds jump to
                    // infinity instead of crawling.
                    let mut header = self.env.clone();
                    // Facts from inside a previous pass must not survive
                    // into the next one: the env reset below changes values
                    // without bumping versions. Facts from *before* the
                    // loop stay valid (any body write bumps the version).
                    let entry_facts = self.facts.clone();
                    for pass in 0..64 {
                        self.next_loc = loop_start;
                        self.env = header.clone();
                        self.facts = entry_facts.clone();
                        self.walk(cond_block);
                        self.refine(*cond, true);
                        self.walk(body);
                        let mut next: Vec<AbsVal> = header
                            .iter()
                            .zip(&self.env)
                            .map(|(h, e)| AbsVal::join(*h, *e))
                            .collect();
                        if pass >= 2 {
                            for (n, h) in next.iter_mut().zip(&header) {
                                if n.iv.lo < h.iv.lo {
                                    n.iv.lo = -INF;
                                }
                                if n.iv.hi > h.iv.hi {
                                    n.iv.hi = INF;
                                }
                            }
                        }
                        if next == header {
                            break;
                        }
                        header = next;
                    }
                    // Recording pass over the stable state, then exit with
                    // the header narrowed by the negated condition.
                    self.record = was_recording;
                    self.next_loc = loop_start;
                    self.env = header;
                    self.facts = entry_facts;
                    self.walk(cond_block);
                    let exit_env = self.env.clone();
                    let exit_ver = self.version.clone();
                    let exit_facts = self.facts.clone();
                    self.refine(*cond, true);
                    self.walk(body);
                    self.env = exit_env;
                    self.version = exit_ver;
                    self.facts = exit_facts;
                    self.refine(*cond, false);
                }
            }
        }
    }
}

/// Closed-form classifications of registers, shared by the width-parametric
/// passes ([`crate::divergence`], [`crate::width`]). Where the interval
/// machinery above answers "what range can this register take", these
/// bindings answer the stronger question "what *function of the lane id* is
/// this register" — the form needed to evaluate a predicate at several
/// warp widths and compare the outcomes.
#[derive(Debug, Default, Clone)]
pub(crate) struct LaneBindings {
    /// Registers provably equal to `LaneId + offset` in every lane.
    pub lane: std::collections::BTreeMap<Reg, i64>,
    /// Registers provably equal to a compile-time integer constant.
    pub consts: std::collections::BTreeMap<Reg, i64>,
}

impl LaneBindings {
    /// Resolve an operand to `LaneId + k` form, if classified.
    pub fn lane_of(&self, o: &Operand) -> Option<i64> {
        match o {
            Operand::Reg(r) => self.lane.get(r).copied(),
            Operand::Imm(_) => None,
        }
    }

    /// Resolve an operand to a constant integer, if classified.
    pub fn const_of(&self, o: &Operand) -> Option<i64> {
        match o {
            Operand::Reg(r) => self.consts.get(r).copied(),
            Operand::Imm(Value::I32(v)) => Some(i64::from(*v)),
            Operand::Imm(Value::I64(v)) => Some(*v),
            Operand::Imm(_) => None,
        }
    }
}

/// Compute the lane-affine/constant bindings of a kernel.
///
/// Soundness rule: a register is classified only if it is written exactly
/// once in the entire kernel *and* that single write sits at top level
/// (outside every `If`/`While`), so the binding holds in every lane on
/// every execution. Loop induction variables (written per iteration) and
/// registers defined under divergent guards (undefined in skipping lanes)
/// are deliberately left out.
pub(crate) fn lane_bindings(kernel: &KernelIr) -> LaneBindings {
    use std::collections::BTreeMap;
    fn count_writes(body: &[Instr], writes: &mut BTreeMap<Reg, u32>) {
        for instr in body {
            if let Some(dst) = instr_def(instr) {
                *writes.entry(dst).or_default() += 1;
            }
            match instr {
                Instr::If { then_: a, else_: b, .. }
                | Instr::While { cond_block: a, body: b, .. } => {
                    count_writes(a, writes);
                    count_writes(b, writes);
                }
                _ => {}
            }
        }
    }
    let mut writes = BTreeMap::new();
    count_writes(&kernel.body, &mut writes);
    let single = |r: &Reg| writes.get(r).copied() == Some(1);

    let mut b = LaneBindings::default();
    for instr in &kernel.body {
        match instr {
            Instr::Special { dst, kind: Special::LaneId } if single(dst) => {
                b.lane.insert(*dst, 0);
            }
            Instr::Mov { dst, src } if single(dst) => {
                if let Some(off) = b.lane_of(src) {
                    b.lane.insert(*dst, off);
                } else if let Some(c) = b.const_of(src) {
                    b.consts.insert(*dst, c);
                }
            }
            Instr::Cvt { dst, a } if single(dst) => {
                let (dt, at) = (kernel.reg_type(*dst), kernel.operand_type(a));
                if dt.is_some_and(Type::is_int) && at.is_some_and(Type::is_int) {
                    if let Some(off) = b.lane_of(a) {
                        b.lane.insert(*dst, off);
                    } else if let Some(c) = b.const_of(a) {
                        b.consts.insert(*dst, c);
                    }
                }
            }
            Instr::Bin { op, dst, a, b: rhs } if single(dst) => {
                let (la, lb) = (b.lane_of(a), b.lane_of(rhs));
                let (ca, cb) = (b.const_of(a), b.const_of(rhs));
                match (op, la, lb, ca, cb) {
                    (BinOp::Add, Some(off), None, None, Some(c))
                    | (BinOp::Add, None, Some(off), Some(c), None) => {
                        b.lane.insert(*dst, off.wrapping_add(c));
                    }
                    (BinOp::Sub, Some(off), None, None, Some(c)) => {
                        b.lane.insert(*dst, off.wrapping_sub(c));
                    }
                    (op, None, None, Some(x), Some(y)) => {
                        let v = match op {
                            BinOp::Add => Some(x.wrapping_add(y)),
                            BinOp::Sub => Some(x.wrapping_sub(y)),
                            BinOp::Mul => Some(x.wrapping_mul(y)),
                            BinOp::And => Some(x & y),
                            BinOp::Or => Some(x | y),
                            BinOp::Xor => Some(x ^ y),
                            _ => None,
                        };
                        if let Some(v) = v {
                            b.consts.insert(*dst, v);
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    b
}

/// Run the MCA004 check.
pub fn check(kernel: &KernelIr, opts: &AnalysisOptions) -> Vec<Diagnostic> {
    let n = kernel.regs.len();
    let mut env = vec![AbsVal::top(); n];
    for (i, _) in kernel.params.iter().enumerate() {
        let p = i as u16;
        if opts.buffer_bytes.contains_key(&p) {
            env[i] = AbsVal { base: Base::Ptr(p), iv: Iv::point(0) };
        } else if let Some(&v) = opts.param_values.get(&p) {
            env[i] = AbsVal { base: Base::None, iv: Iv::point(i128::from(v)) };
        }
    }
    let mut a = Analyzer {
        kernel,
        opts,
        env,
        version: vec![0; n],
        tick: 0,
        facts: vec![None; n],
        record: true,
        next_loc: 0,
        found: Vec::new(),
    };
    a.walk(&kernel.body);
    let mut seen = std::collections::BTreeSet::new();
    a.found
        .into_iter()
        .filter(|(loc, _)| seen.insert(*loc))
        .map(|(loc, message)| Diagnostic { code: MCA004, loc: Some(loc), message })
        .collect()
}
