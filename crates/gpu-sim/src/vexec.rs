//! The block engine: run a lowered [`LvProgram`] over a whole thread
//! block.
//!
//! The engine executes the flat typed bytecode produced by
//! [`crate::lower`]: registers live in dense per-type pools (`Vec<f32>`,
//! `Vec<i64>`, …) laid out slot-major, each op dispatches on op×type
//! **once** and then runs a monomorphic per-lane loop, and immediates are
//! decoded once per op instead of once per lane.
//!
//! Divergence is tracked by a mask set whose "no bits" state is the
//! **full-mask fast path**: while no lane has diverged, per-lane loops
//! iterate `0..n` with no mask load at all, and branch splits/loop
//! narrowings that keep every lane active stay on the fast path.
//! Active-warp counts are carried on the mask and straight-line segments
//! charge their pre-summed issue counts with two multiplications, into a
//! [`LocalCounters`] flushed once at block exit.
//!
//! **Affine forms.** An i32 or i64 slot may hold a form instead of lanes:
//! lane `i` is `base + i·stride` (stride 0: uniform), like a GPU's
//! uniform registers, so index math (`ctaid·ntid + tid`, widened, scaled
//! to bytes) runs once per block. Int slots start as uniform 0, int
//! arguments as uniform. Under a full mask `TidX`, `CtaIdX`, `NTidX`,
//! `NCtaIdX`, `Mov`, `Add`, `Sub`, `Mul` and `Shl` by a uniform, `Cvt`
//! i64→i32 and a `Cvt` i32→i64 with no lane wrapping compute a form, and
//! a `Cmp` of two forms writes its bools from them. Any other op has the
//! forms it reads and the slot it writes written out into lanes first.
//! Memory ops read addresses off a form: a full-mask global load or store
//! stepping by its width checks its range once and moves words in a
//! straight loop; any other access checks each lane, failing and
//! committing lane by lane.
//!
//! Semantics are bit-identical to the scalar reference interpreter of the
//! `mcmm-gpu-sim-ref` crate: every lane loop and every form uses the exact
//! computation the interpreter does (including wrapping int arithmetic,
//! i32 shifts promoted through i64, conversions routed through f64, and
//! NaN comparison behaviour), shared memory is the one [`SharedMem`],
//! binary operators share [`bin_value`], and atomics and global accesses
//! go through the same [`GlobalMemory`] checks. That crate's block-level
//! differentials and `tests/exec_tier_differential.rs` hold the two
//! engines to byte-identical buffers, identical errors and identical
//! counter totals.
//!
//! A traced full-mask global access whose address form is unit-stride or
//! single-address is recorded in the trace's affine form, one header
//! instead of one record per lane, without reading a lane; global
//! atomics commit each run of consecutive lanes on one 8-byte word with
//! one read-modify-write. Both are invisible to everything but the host
//! clock.
//!
//! Race checking stays in the reference crate: its shadow access log
//! needs per-access interleaving hooks that would un-vectorize these
//! loops.

use crate::counters::LocalCounters;
use crate::exec::{bin_value, BlockCtx, SharedMem};
use crate::ir::{AtomicOp, BinOp, CmpOp, Space, Special, Type, Value};
use crate::lower::{LvNode, LvOp, LvProgram, LvSrc};
use crate::mem::GlobalMemory;
use crate::trace::{AccessKind, Affine, TraceScratch};
use crate::{Result, SimError};
use std::cell::Cell;

/// Execute one thread block of `prog`.
pub fn run_block_lv(ctx: &BlockCtx<'_>, prog: &LvProgram, args: &[Value]) -> Result<()> {
    let n = ctx.block_dim as usize;
    if args.len() != prog.params.len() {
        return Err(SimError::BadArguments(format!(
            "kernel {} expects {} args, got {}",
            prog.name,
            prog.params.len(),
            args.len()
        )));
    }
    let mut v = VInterp {
        ctx,
        prog,
        n,
        w: ctx.warp_width.max(1) as usize,
        f32s: vec![0.0; prog.pools.f32s as usize * n],
        f64s: vec![0.0; prog.pools.f64s as usize * n],
        i32s: vec![0; prog.pools.i32s as usize * n],
        i64s: vec![0; prog.pools.i64s as usize * n],
        i32f: Forms::new(prog.pools.i32s),
        i64f: Forms::new(prog.pools.i64s),
        bools: vec![false; prog.pools.bools as usize * n],
        shared: SharedMem::new(prog.shared_bytes),
        local: LocalCounters::new(),
        tblock: ctx.trace.map(|s| s.begin_block(ctx.block_id)),
        atomic_run: AtomicRun::default(),
    };
    for (i, (&arg, &ty)) in args.iter().zip(&prog.params).enumerate() {
        if arg.ty() != ty {
            return Err(SimError::BadArguments(format!(
                "arg {i} of {}: expected {ty}, got {}",
                prog.name,
                arg.ty()
            )));
        }
        v.splat(i, arg);
    }
    let mask = MaskSet::full(n, v.w);
    v.run(&prog.body, &mask)?;
    v.local.flush(ctx.counters);
    ctx.counters.add_block(u64::from(ctx.block_dim.div_ceil(ctx.warp_width.max(1))));
    if let (Some(sink), Some(tb)) = (ctx.trace, v.tblock.take()) {
        sink.finish_block(tb);
    }
    Ok(())
}

/// The set of active lanes, with its issue accounting precomputed.
/// `bits: None` means *all* lanes are active — the fast path every block
/// starts on and keeps until a branch or loop actually diverges.
#[derive(Clone)]
struct MaskSet {
    bits: Option<Vec<bool>>,
    /// Warps with ≥1 active lane (what one instruction issue costs).
    warps: u64,
    /// Active lanes.
    lanes: u64,
}

impl MaskSet {
    fn full(n: usize, w: usize) -> Self {
        Self { bits: None, warps: n.div_ceil(w) as u64, lanes: n as u64 }
    }

    /// Placeholder for a branch no lane takes; callers check `lanes > 0`
    /// before running under a mask, so the bits are never consulted.
    fn none() -> Self {
        Self { bits: None, warps: 0, lanes: 0 }
    }

    fn from_bits(bits: Vec<bool>, w: usize) -> Self {
        let lanes = bits.iter().filter(|&&b| b).count() as u64;
        let warps = bits.chunks(w).filter(|c| c.iter().any(|&b| b)).count() as u64;
        Self { bits: Some(bits), warps, lanes }
    }
}

/// The symbolic form of an int slot: lane `i` holds `base + i·stride`,
/// wrapping in i64. An i32 slot holds the low 32 bits, which is exactly
/// i32 wrapping arithmetic. Stride 0 means uniform.
#[derive(Clone, Copy)]
struct Form {
    base: i64,
    stride: i64,
}

impl Form {
    #[inline(always)]
    fn at(self, i: usize) -> i64 {
        self.base.wrapping_add(self.stride.wrapping_mul(i as i64))
    }
}

/// One int pool's forms by slot, each with whether the pool's lanes hold
/// it yet. Every slot starts as uniform 0, which the zeroed pool holds.
struct Forms(Vec<Option<(Form, bool)>>);

impl Forms {
    fn new(slots: u32) -> Self {
        Self(vec![Some((Form { base: 0, stride: 0 }, true)); slots as usize])
    }

    /// An operand's form; an immediate is uniform.
    fn get(&self, src: LvSrc) -> Option<Form> {
        match src {
            LvSrc::Slot(s) => self.0[s as usize].map(|(f, _)| f),
            LvSrc::Imm(bits) => Some(Form { base: bits as i64, stride: 0 }),
        }
    }

    fn set(&mut self, s: u32, form: Form) {
        self.0[s as usize] = Some((form, false));
    }

    /// Write slot `s`'s form out into `pool`, each value cut to the lane
    /// type by `wrap`, unless it is already; then `forget` drops it.
    fn write_out<T>(&mut self, pool: &mut [T], s: u32, n: usize, wrap: fn(i64) -> T, forget: bool) {
        let s = s as usize;
        if let Some((f, written @ false)) = &mut self.0[s] {
            *written = true;
            pool[s * n..(s + 1) * n].iter_mut().enumerate().for_each(|(i, v)| *v = wrap(f.at(i)));
        }
        if forget {
            self.0[s] = None;
        }
    }

    /// The form of `a op b`, if both have one and `op` keeps it: `Add`,
    /// `Sub`, `Mul` by a uniform, `Shl` by a uniform's low six bits.
    fn bin(&self, op: BinOp, a: LvSrc, b: LvSrc) -> Option<Form> {
        let (x, y) = (self.get(a)?, self.get(b)?);
        let map = |f: Form, g: &dyn Fn(i64) -> i64| Form { base: g(f.base), stride: g(f.stride) };
        let zip = |g: fn(i64, i64) -> i64| Form {
            base: g(x.base, y.base),
            stride: g(x.stride, y.stride),
        };
        Some(match op {
            BinOp::Add => zip(i64::wrapping_add),
            BinOp::Sub => zip(i64::wrapping_sub),
            BinOp::Mul if y.stride == 0 => map(x, &|v| v.wrapping_mul(y.base)),
            BinOp::Mul if x.stride == 0 => map(y, &|v| v.wrapping_mul(x.base)),
            BinOp::Shl if y.stride == 0 => map(x, &|v| v.wrapping_shl((y.base & 63) as u32)),
            _ => return None,
        })
    }
}

/// A memory op's lane addresses: its address operand's form, if it has
/// one, else its lanes in the i64 pool from `lanes` on. An immediate
/// always has a form.
#[derive(Clone, Copy)]
struct Addrs {
    form: Option<Form>,
    lanes: usize,
}

impl Addrs {
    #[inline(always)]
    fn at(self, pool: &[i64], i: usize) -> i64 {
        self.form.map_or_else(|| pool[self.lanes + i], |f| f.at(i))
    }

    /// A full-mask access over lanes `0..n` in the trace's affine form:
    /// the stride 0 or `width`, a non-negative base aligned to the width,
    /// and no overflow. `None` leaves the access to per-lane records.
    fn affine(self, n: usize, width: u32, bits: Option<&[bool]>) -> Option<Affine> {
        let (Some(f), None) = (self.form, bits) else { return None };
        let (w, count) = (i64::from(width), u32::try_from(n).ok().filter(|&c| c > 0)?);
        let fits = f.stride.checked_mul(i64::from(count) - 1).and_then(|s| f.base.checked_add(s));
        let ok = fits.is_some() && (f.stride == 0 || f.stride == w) && f.base >= 0;
        let affine = Affine { base: f.base as u64, stride: f.stride as u64, count };
        (ok && f.base % w == 0).then_some(affine)
    }
}

/// A resolved operand for one typed lane loop: a premultiplied pool base
/// (`slot * n`) or a decoded immediate. The two-variant match inside the
/// loop is loop-invariant and gets unswitched by the compiler.
#[derive(Clone, Copy)]
enum In<T> {
    Base(usize),
    Imm(T),
}

#[inline(always)]
fn rd<T: Copy>(pool: &[T], src: In<T>, i: usize) -> T {
    match src {
        In::Base(b) => pool[b + i],
        In::Imm(v) => v,
    }
}

fn resolve<T>(src: LvSrc, n: usize, dec: impl Fn(u64) -> T) -> In<T> {
    match src {
        LvSrc::Slot(s) => In::Base(s as usize * n),
        LvSrc::Imm(bits) => In::Imm(dec(bits)),
    }
}

fn dec_f32(b: u64) -> f32 {
    f32::from_bits(b as u32)
}
fn dec_f64(b: u64) -> f64 {
    f64::from_bits(b)
}
fn dec_i32(b: u64) -> i32 {
    b as u32 as i32
}
fn dec_i64(b: u64) -> i64 {
    b as i64
}
fn dec_bool(b: u64) -> bool {
    b != 0
}

#[inline(always)]
fn lane_addr(av: i64) -> Result<u64> {
    if av >= 0 {
        Ok(av as u64)
    } else {
        Err(SimError::OutOfBounds { addr: av as u64, len: 0 })
    }
}

/// `dst[d+i] = f(a_i)` over active lanes, within one pool.
fn map1<T: Copy>(
    pool: &mut [T],
    bits: Option<&[bool]>,
    n: usize,
    d: usize,
    a: In<T>,
    f: impl Fn(T) -> T,
) {
    match bits {
        None => {
            for i in 0..n {
                let v = f(rd(pool, a, i));
                pool[d + i] = v;
            }
        }
        Some(m) => {
            for i in 0..n {
                if m[i] {
                    let v = f(rd(pool, a, i));
                    pool[d + i] = v;
                }
            }
        }
    }
}

/// `dst[d+i] = f(a_i, b_i)` over active lanes, within one pool.
fn map2<T: Copy>(
    pool: &mut [T],
    bits: Option<&[bool]>,
    n: usize,
    d: usize,
    a: In<T>,
    b: In<T>,
    f: impl Fn(T, T) -> T,
) {
    match bits {
        None => {
            for i in 0..n {
                let v = f(rd(pool, a, i), rd(pool, b, i));
                pool[d + i] = v;
            }
        }
        Some(m) => {
            for i in 0..n {
                if m[i] {
                    let v = f(rd(pool, a, i), rd(pool, b, i));
                    pool[d + i] = v;
                }
            }
        }
    }
}

/// Fallible [`map2`], for integer div/rem which trap on zero divisors.
fn map2_try<T: Copy>(
    pool: &mut [T],
    bits: Option<&[bool]>,
    n: usize,
    d: usize,
    a: In<T>,
    b: In<T>,
    f: impl Fn(T, T) -> Result<T>,
) -> Result<()> {
    match bits {
        None => {
            for i in 0..n {
                let v = f(rd(pool, a, i), rd(pool, b, i))?;
                pool[d + i] = v;
            }
        }
        Some(m) => {
            for i in 0..n {
                if m[i] {
                    let v = f(rd(pool, a, i), rd(pool, b, i))?;
                    pool[d + i] = v;
                }
            }
        }
    }
    Ok(())
}

/// `dst[d+i] = f(i)` over active lanes, where `f` reads other pools.
fn fill<T>(dst: &mut [T], bits: Option<&[bool]>, n: usize, d: usize, f: impl Fn(usize) -> T) {
    match bits {
        None => {
            for i in 0..n {
                dst[d + i] = f(i);
            }
        }
        Some(m) => {
            for i in 0..n {
                if m[i] {
                    dst[d + i] = f(i);
                }
            }
        }
    }
}

/// Comparison loop into the bool pool, the operator hoisted out of the
/// lane loop. Native operators reproduce the reference interpreter's `partial_cmp`
/// exactly (every ordering comparison is false on NaN, `!=` is true).
fn cmp_loop<T: PartialOrd>(
    dst: &mut [bool],
    bits: Option<&[bool]>,
    n: usize,
    d: usize,
    a: impl Fn(usize) -> T,
    b: impl Fn(usize) -> T,
    op: CmpOp,
) {
    match op {
        CmpOp::Eq => fill(dst, bits, n, d, |i| a(i) == b(i)),
        CmpOp::Ne => fill(dst, bits, n, d, |i| a(i) != b(i)),
        CmpOp::Lt => fill(dst, bits, n, d, |i| a(i) < b(i)),
        CmpOp::Le => fill(dst, bits, n, d, |i| a(i) <= b(i)),
        CmpOp::Gt => fill(dst, bits, n, d, |i| a(i) > b(i)),
        CmpOp::Ge => fill(dst, bits, n, d, |i| a(i) >= b(i)),
    }
}

/// Select loop: condition in the bool pool, operands/result in `pool`.
#[allow(clippy::too_many_arguments)]
fn sel_into<T: Copy>(
    conds: &[bool],
    pool: &mut [T],
    bits: Option<&[bool]>,
    n: usize,
    d: usize,
    cb: usize,
    a: In<T>,
    b: In<T>,
) {
    match bits {
        None => {
            for i in 0..n {
                let v = if conds[cb + i] { rd(pool, a, i) } else { rd(pool, b, i) };
                pool[d + i] = v;
            }
        }
        Some(m) => {
            for i in 0..n {
                if m[i] {
                    let v = if conds[cb + i] { rd(pool, a, i) } else { rd(pool, b, i) };
                    pool[d + i] = v;
                }
            }
        }
    }
}

/// Conversion loop from the `src` pool into the `dst` pool.
fn cvt_into<S: Copy, D>(
    src: &[S],
    dst: &mut [D],
    bits: Option<&[bool]>,
    n: usize,
    d: usize,
    a: In<S>,
    f: impl Fn(S) -> D,
) {
    fill(dst, bits, n, d, |i| f(rd(src, a, i)));
}

/// Drive `f` over every active lane, stopping at the first error.
fn for_each_lane(
    bits: Option<&[bool]>,
    n: usize,
    mut f: impl FnMut(usize) -> Result<()>,
) -> Result<()> {
    match bits {
        None => {
            for i in 0..n {
                f(i)?;
            }
        }
        Some(m) => {
            for (i, &live) in m.iter().enumerate().take(n) {
                if live {
                    f(i)?;
                }
            }
        }
    }
    Ok(())
}

/// A global load handing each lane's raw bits to `put(i, raw)`: one range
/// check and a straight loop over a unit-stride `run`, else every active
/// lane in ascending order, checked on its own.
fn load(
    global: &GlobalMemory,
    run: Option<u64>,
    bits: Option<&[bool]>,
    n: usize,
    size: u64,
    addr: impl Fn(usize) -> i64,
    mut put: impl FnMut(usize, u64),
) -> Result<()> {
    if run.is_some_and(|base| global.read_range(base, size, n, &mut put).is_ok()) {
        return Ok(());
    }
    for_each_lane(bits, n, |i| {
        put(i, global.read_raw(lane_addr(addr(i))?, size)?);
        Ok(())
    })
}

/// A global store of each lane's raw bits `value(i)`, like [`load`]: a
/// failing lane returns its error after the lanes before it commit.
fn store(
    global: &GlobalMemory,
    run: Option<u64>,
    bits: Option<&[bool]>,
    n: usize,
    size: u64,
    addr: impl Fn(usize) -> i64,
    value: impl Fn(usize) -> u64,
) -> Result<()> {
    if run.is_some_and(|base| global.write_range(base, size, n, &value).is_ok()) {
        return Ok(());
    }
    for_each_lane(bits, n, |i| global.write_raw(lane_addr(addr(i))?, size, value(i)))
}

struct VInterp<'a> {
    ctx: &'a BlockCtx<'a>,
    prog: &'a LvProgram,
    n: usize,
    /// Warp width, clamped to ≥1 (same clamp as the reference interpreter).
    w: usize,
    f32s: Vec<f32>,
    f64s: Vec<f64>,
    i32s: Vec<i32>,
    i64s: Vec<i64>,
    i32f: Forms,
    i64f: Forms,
    bools: Vec<bool>,
    shared: SharedMem,
    local: LocalCounters,
    /// Present when the launch is traced; global accesses are recorded
    /// here and flushed to the sink at block exit.
    tblock: Option<TraceScratch>,
    /// The pending run of a global atomic, reused across instructions.
    atomic_run: AtomicRun,
}

/// Consecutive lanes (in commit order) of one global atomic whose
/// addresses share an 8-byte word, awaiting their single commit.
#[derive(Default)]
struct AtomicRun {
    lanes: Vec<usize>,
    ops: Vec<(u64, Value)>,
    olds: Vec<Value>,
}

impl<'a> VInterp<'a> {
    fn splat(&mut self, reg: usize, v: Value) {
        let (_, slot) = self.prog.reg_slots[reg];
        let n = self.n;
        let d = slot as usize * n;
        match v {
            Value::F32(x) => self.f32s[d..d + n].fill(x),
            Value::F64(x) => self.f64s[d..d + n].fill(x),
            Value::I32(x) => self.i32f.set(slot, Form { base: x.into(), stride: 0 }),
            Value::I64(x) => self.i64f.set(slot, Form { base: x, stride: 0 }),
            Value::Bool(x) => self.bools[d..d + n].fill(x),
        }
    }

    fn addrs(&self, addr: LvSrc) -> Addrs {
        let lanes = if let LvSrc::Slot(s) = addr { s as usize * self.n } else { 0 };
        Addrs { form: self.i64f.get(addr), lanes }
    }

    /// Write out the form of `src` if it is an int slot of type `ty`; a
    /// slot about to be written lane by lane (`forget`) then loses it.
    fn write_out(&mut self, ty: Type, src: LvSrc, forget: bool) {
        let (LvSrc::Slot(s), n) = (src, self.n) else { return };
        match ty {
            Type::I32 => self.i32f.write_out(&mut self.i32s, s, n, |v| v as i32, forget),
            Type::I64 => self.i64f.write_out(&mut self.i64s, s, n, |v| v, forget),
            _ => {}
        }
    }

    /// Run `op` on forms alone, if it keeps them (see the module docs);
    /// full mask only. `None` leaves it to the per-lane code.
    fn form_op(&mut self, op: &LvOp) -> Option<()> {
        let n = self.n;
        match *op {
            LvOp::Mov { ty: Type::I32, dst, src } => self.i32f.set(dst, self.i32f.get(src)?),
            LvOp::Mov { ty: Type::I64, dst, src } => self.i64f.set(dst, self.i64f.get(src)?),
            LvOp::Bin { op, ty: Type::I32, dst, a, b } => {
                self.i32f.set(dst, self.i32f.bin(op, a, b)?)
            }
            LvOp::Bin { op, ty: Type::I64, dst, a, b } => {
                self.i64f.set(dst, self.i64f.bin(op, a, b)?)
            }
            LvOp::Cvt { from: Type::I64, to: Type::I32, dst, a } => {
                self.i32f.set(dst, self.i64f.get(a)?)
            }
            LvOp::Cvt { from: Type::I32, to: Type::I64, dst, a } => {
                // Sign extension keeps the form only if no lane wraps in
                // i32; the lanes run monotonically from first to last.
                let f = self.i32f.get(a)?;
                let (base, stride) = (i64::from(f.base as i32), i64::from(f.stride as i32));
                i32::try_from(stride.checked_mul(n as i64 - 1)?.checked_add(base)?).ok()?;
                self.i64f.set(dst, Form { base, stride });
            }
            LvOp::Special { kind, dst } => {
                let (base, stride) = match kind {
                    Special::TidX => (0, 1),
                    Special::CtaIdX => (self.ctx.block_id.into(), 0),
                    Special::NTidX => (self.ctx.block_dim.into(), 0),
                    Special::NCtaIdX => (self.ctx.grid_dim.into(), 0),
                    Special::LaneId => return None,
                };
                self.i32f.set(dst, Form { base, stride });
            }
            LvOp::Cmp { op, ty, dst, a, b } => {
                let forms = match ty {
                    Type::I32 => &self.i32f,
                    Type::I64 => &self.i64f,
                    _ => return None,
                };
                let (x, y, wide) = (forms.get(a)?, forms.get(b)?, ty == Type::I64);
                // An i32 lane is its value's low 32 bits.
                let lane = |f: Form, i| if wide { f.at(i) } else { f.at(i) as i32 as i64 };
                let d = dst as usize * n;
                cmp_loop(&mut self.bools, None, n, d, |i| lane(x, i), |i| lane(y, i), op);
            }
            _ => return None,
        }
        Some(())
    }

    /// Ready `op` for the per-lane code: write out each int form it reads
    /// as a value (an immediate stands for none), and the form of the int
    /// slot it writes, which the lanes a partial mask skips or an address
    /// in that slot may need, before it goes.
    fn write_out_operands(&mut self, op: &LvOp) {
        let none = (Type::Bool, LvSrc::Imm(0));
        let (reads, dst) = match *op {
            LvOp::Mov { ty, dst, src } => ([(ty, src), none], Some((ty, dst))),
            LvOp::Un { ty, dst, a, .. } => ([(ty, a), none], Some((ty, dst))),
            LvOp::Bin { ty, dst, a, b, .. } => ([(ty, a), (ty, b)], Some((ty, dst))),
            LvOp::Sel { ty, dst, a, b, .. } => ([(ty, a), (ty, b)], Some((ty, dst))),
            LvOp::Cmp { ty, a, b, .. } => ([(ty, a), (ty, b)], None),
            LvOp::Cvt { from, to, dst, a } => ([(from, a), none], Some((to, dst))),
            LvOp::Special { dst, .. } => ([none, none], Some((Type::I32, dst))),
            LvOp::Ld { ty, dst, .. } => ([none, none], Some((ty, dst))),
            LvOp::St { ty, value, .. } => ([(ty, value), none], None),
            LvOp::Atomic { ty, value, dst, .. } => ([(ty, value), none], dst.map(|d| (ty, d))),
            LvOp::Bar | LvOp::Trap { .. } => return,
        };
        for (ty, src) in reads {
            self.write_out(ty, src, false);
        }
        if let Some((ty, d)) = dst {
            self.write_out(ty, LvSrc::Slot(d), true);
        }
    }

    fn run(&mut self, nodes: &'a [LvNode], mask: &MaskSet) -> Result<()> {
        let prog = self.prog;
        for node in nodes {
            match node {
                LvNode::Straight { start, end, instrs, ariths } => {
                    // The whole segment's issue accounting, pre-summed at
                    // lowering time: two multiplications, no mask scans.
                    self.local.warp_instructions += u64::from(*instrs) * mask.warps;
                    self.local.warp_arith += u64::from(*ariths) * mask.warps;
                    for op in &prog.ops[*start as usize..*end as usize] {
                        self.op(op, mask)?;
                    }
                }
                LvNode::If { cond, then_, else_ } => {
                    // The If itself issues once under the incoming mask,
                    // exactly like the reference interpreter's `step`.
                    self.local.warp_instructions += mask.warps;
                    let (t, e) = self.split(*cond, mask);
                    if t.lanes > 0 {
                        self.run(then_, &t)?;
                    }
                    if e.lanes > 0 {
                        self.run(else_, &e)?;
                    }
                }
                LvNode::While { cond_block, cond, body } => {
                    self.local.warp_instructions += mask.warps;
                    let mut m = mask.clone();
                    let mut guard = 0u64;
                    loop {
                        self.run(cond_block, &m)?;
                        self.narrow(&mut m, *cond);
                        if m.lanes == 0 {
                            break;
                        }
                        self.run(body, &m)?;
                        guard += 1;
                        if guard > 100_000_000 {
                            return Err(SimError::Trap(format!(
                                "kernel {}: loop exceeded iteration guard",
                                self.prog.name
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Split `mask` on a bool condition slot. A unanimously-taken branch
    /// of a full mask *stays* on the full-mask fast path.
    fn split(&self, cond: u32, mask: &MaskSet) -> (MaskSet, MaskSet) {
        let n = self.n;
        let cb = cond as usize * n;
        let c = &self.bools[cb..cb + n];
        match &mask.bits {
            None => {
                let t_lanes = c.iter().filter(|&&b| b).count();
                if t_lanes == n {
                    (MaskSet::full(n, self.w), MaskSet::none())
                } else if t_lanes == 0 {
                    (MaskSet::none(), MaskSet::full(n, self.w))
                } else {
                    let t = c.to_vec();
                    let e: Vec<bool> = c.iter().map(|&b| !b).collect();
                    (MaskSet::from_bits(t, self.w), MaskSet::from_bits(e, self.w))
                }
            }
            Some(bits) => {
                let t: Vec<bool> = bits.iter().zip(c).map(|(&m, &cv)| m && cv).collect();
                let e: Vec<bool> = bits.iter().zip(c).map(|(&m, &cv)| m && !cv).collect();
                (MaskSet::from_bits(t, self.w), MaskSet::from_bits(e, self.w))
            }
        }
    }

    /// Narrow a loop mask by its condition slot. A full mask no lane
    /// exits stays full.
    fn narrow(&self, m: &mut MaskSet, cond: u32) {
        let n = self.n;
        let cb = cond as usize * n;
        let c = &self.bools[cb..cb + n];
        match &mut m.bits {
            None => {
                if c.iter().all(|&b| b) {
                    return;
                }
                *m = MaskSet::from_bits(c.to_vec(), self.w);
            }
            Some(bits) => {
                for (b, &cv) in bits.iter_mut().zip(c) {
                    if *b && !cv {
                        *b = false;
                    }
                }
                let lanes = bits.iter().filter(|&&b| b).count() as u64;
                let warps = bits.chunks(self.w).filter(|ch| ch.iter().any(|&b| b)).count() as u64;
                m.lanes = lanes;
                m.warps = warps;
            }
        }
    }

    /// Read one lane of a typed operand as a boxed value (cold paths:
    /// atomics and shared-memory traffic only).
    fn read_value(&self, ty: Type, src: LvSrc, i: usize) -> Value {
        let n = self.n;
        match ty {
            Type::F32 => Value::F32(match src {
                LvSrc::Slot(s) => self.f32s[s as usize * n + i],
                LvSrc::Imm(b) => dec_f32(b),
            }),
            Type::F64 => Value::F64(match src {
                LvSrc::Slot(s) => self.f64s[s as usize * n + i],
                LvSrc::Imm(b) => dec_f64(b),
            }),
            Type::I32 => Value::I32(match src {
                LvSrc::Slot(s) => self.i32s[s as usize * n + i],
                LvSrc::Imm(b) => dec_i32(b),
            }),
            Type::I64 => Value::I64(match src {
                LvSrc::Slot(s) => self.i64s[s as usize * n + i],
                LvSrc::Imm(b) => dec_i64(b),
            }),
            Type::Bool => Value::Bool(match src {
                LvSrc::Slot(s) => self.bools[s as usize * n + i],
                LvSrc::Imm(b) => dec_bool(b),
            }),
        }
    }

    /// Write one lane of a typed pool from a boxed value (cold paths).
    fn set_lane(&mut self, ty: Type, d: usize, i: usize, v: Value) {
        match (ty, v) {
            (Type::F32, Value::F32(x)) => self.f32s[d + i] = x,
            (Type::F64, Value::F64(x)) => self.f64s[d + i] = x,
            (Type::I32, Value::I32(x)) => self.i32s[d + i] = x,
            (Type::I64, Value::I64(x)) => self.i64s[d + i] = x,
            (Type::Bool, Value::Bool(x)) => self.bools[d + i] = x,
            _ => unreachable!("lane type mismatch slipped past validation"),
        }
    }

    fn op(&mut self, op: &'a LvOp, mask: &MaskSet) -> Result<()> {
        let n = self.n;
        let bits = mask.bits.as_deref();
        if bits.is_none() && self.form_op(op).is_some() {
            return Ok(());
        }
        self.write_out_operands(op);
        match op {
            LvOp::Mov { ty, dst, src } => {
                let d = *dst as usize * n;
                match ty {
                    Type::F32 => map1(&mut self.f32s, bits, n, d, resolve(*src, n, dec_f32), |x| x),
                    Type::F64 => map1(&mut self.f64s, bits, n, d, resolve(*src, n, dec_f64), |x| x),
                    Type::I32 => map1(&mut self.i32s, bits, n, d, resolve(*src, n, dec_i32), |x| x),
                    Type::I64 => map1(&mut self.i64s, bits, n, d, resolve(*src, n, dec_i64), |x| x),
                    Type::Bool => {
                        map1(&mut self.bools, bits, n, d, resolve(*src, n, dec_bool), |x| x)
                    }
                }
            }
            LvOp::Bin { op, ty, dst, a, b } => {
                let d = *dst as usize * n;
                match ty {
                    Type::F32 => self.bin_f32(*op, d, *a, *b, bits),
                    Type::F64 => self.bin_f64(*op, d, *a, *b, bits),
                    Type::I32 => self.bin_i32(*op, d, *a, *b, bits)?,
                    Type::I64 => self.bin_i64(*op, d, *a, *b, bits)?,
                    Type::Bool => self.bin_bool(*op, d, *a, *b, bits),
                }
            }
            LvOp::Un { op, ty, dst, a } => {
                use crate::ir::UnOp::*;
                let d = *dst as usize * n;
                match ty {
                    Type::F32 => {
                        let a = resolve(*a, n, dec_f32);
                        let p = &mut self.f32s;
                        match op {
                            Neg => map1(p, bits, n, d, a, |x| -x),
                            Abs => map1(p, bits, n, d, a, |x| x.abs()),
                            Sqrt => map1(p, bits, n, d, a, |x| x.sqrt()),
                            Exp => map1(p, bits, n, d, a, |x| x.exp()),
                            Log => map1(p, bits, n, d, a, |x| x.ln()),
                            Floor => map1(p, bits, n, d, a, |x| x.floor()),
                            Not => unreachable!("not on float rejected by validation"),
                        }
                    }
                    Type::F64 => {
                        let a = resolve(*a, n, dec_f64);
                        let p = &mut self.f64s;
                        match op {
                            Neg => map1(p, bits, n, d, a, |x| -x),
                            Abs => map1(p, bits, n, d, a, |x| x.abs()),
                            Sqrt => map1(p, bits, n, d, a, |x| x.sqrt()),
                            Exp => map1(p, bits, n, d, a, |x| x.exp()),
                            Log => map1(p, bits, n, d, a, |x| x.ln()),
                            Floor => map1(p, bits, n, d, a, |x| x.floor()),
                            Not => unreachable!("not on float rejected by validation"),
                        }
                    }
                    Type::I32 => {
                        let a = resolve(*a, n, dec_i32);
                        let p = &mut self.i32s;
                        match op {
                            Neg => map1(p, bits, n, d, a, |x| x.wrapping_neg()),
                            Abs => map1(p, bits, n, d, a, |x| x.wrapping_abs()),
                            _ => unreachable!("{op:?} on int rejected by validation"),
                        }
                    }
                    Type::I64 => {
                        let a = resolve(*a, n, dec_i64);
                        let p = &mut self.i64s;
                        match op {
                            Neg => map1(p, bits, n, d, a, |x| x.wrapping_neg()),
                            Abs => map1(p, bits, n, d, a, |x| x.wrapping_abs()),
                            _ => unreachable!("{op:?} on int rejected by validation"),
                        }
                    }
                    Type::Bool => {
                        let a = resolve(*a, n, dec_bool);
                        match op {
                            Not => map1(&mut self.bools, bits, n, d, a, |x| !x),
                            _ => unreachable!("{op:?} on bool rejected by validation"),
                        }
                    }
                }
            }
            LvOp::Cmp { op, ty, dst, a, b } => {
                let d = *dst as usize * n;
                let out = &mut self.bools;
                match ty {
                    Type::F32 => {
                        let (p, a, b) =
                            (&self.f32s, resolve(*a, n, dec_f32), resolve(*b, n, dec_f32));
                        cmp_loop(out, bits, n, d, |i| rd(p, a, i), |i| rd(p, b, i), *op);
                    }
                    Type::F64 => {
                        let (p, a, b) =
                            (&self.f64s, resolve(*a, n, dec_f64), resolve(*b, n, dec_f64));
                        cmp_loop(out, bits, n, d, |i| rd(p, a, i), |i| rd(p, b, i), *op);
                    }
                    Type::I32 => {
                        let (p, a, b) =
                            (&self.i32s, resolve(*a, n, dec_i32), resolve(*b, n, dec_i32));
                        cmp_loop(out, bits, n, d, |i| rd(p, a, i), |i| rd(p, b, i), *op);
                    }
                    Type::I64 => {
                        let (p, a, b) =
                            (&self.i64s, resolve(*a, n, dec_i64), resolve(*b, n, dec_i64));
                        cmp_loop(out, bits, n, d, |i| rd(p, a, i), |i| rd(p, b, i), *op);
                    }
                    Type::Bool => {
                        // Operands and result share the bool pool: reuse
                        // the same-pool map. bool's operators order
                        // false < true exactly like the reference `cmp`.
                        let (a, b) = (resolve(*a, n, dec_bool), resolve(*b, n, dec_bool));
                        let p = out;
                        match op {
                            CmpOp::Eq => map2(p, bits, n, d, a, b, |x, y| x == y),
                            CmpOp::Ne => map2(p, bits, n, d, a, b, |x, y| x != y),
                            CmpOp::Lt => map2(p, bits, n, d, a, b, |x, y| !x & y),
                            CmpOp::Le => map2(p, bits, n, d, a, b, |x, y| x <= y),
                            CmpOp::Gt => map2(p, bits, n, d, a, b, |x, y| x & !y),
                            CmpOp::Ge => map2(p, bits, n, d, a, b, |x, y| x >= y),
                        }
                    }
                }
            }
            LvOp::Sel { ty, dst, cond, a, b } => {
                let d = *dst as usize * n;
                let cb = *cond as usize * n;
                match ty {
                    Type::F32 => {
                        let (a, b) = (resolve(*a, n, dec_f32), resolve(*b, n, dec_f32));
                        sel_into(&self.bools, &mut self.f32s, bits, n, d, cb, a, b);
                    }
                    Type::F64 => {
                        let (a, b) = (resolve(*a, n, dec_f64), resolve(*b, n, dec_f64));
                        sel_into(&self.bools, &mut self.f64s, bits, n, d, cb, a, b);
                    }
                    Type::I32 => {
                        let (a, b) = (resolve(*a, n, dec_i32), resolve(*b, n, dec_i32));
                        sel_into(&self.bools, &mut self.i32s, bits, n, d, cb, a, b);
                    }
                    Type::I64 => {
                        let (a, b) = (resolve(*a, n, dec_i64), resolve(*b, n, dec_i64));
                        sel_into(&self.bools, &mut self.i64s, bits, n, d, cb, a, b);
                    }
                    Type::Bool => {
                        // Condition, operands and result all share the
                        // bool pool: per-lane reads stay in one slice.
                        let (a, b) = (resolve(*a, n, dec_bool), resolve(*b, n, dec_bool));
                        let p = &mut self.bools;
                        match bits {
                            None => {
                                for i in 0..n {
                                    let v = if p[cb + i] { rd(p, a, i) } else { rd(p, b, i) };
                                    p[d + i] = v;
                                }
                            }
                            Some(m) => {
                                for i in 0..n {
                                    if m[i] {
                                        let v = if p[cb + i] { rd(p, a, i) } else { rd(p, b, i) };
                                        p[d + i] = v;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            LvOp::Cvt { from, to, dst, a } => self.cvt(*from, *to, *dst, *a, bits),
            LvOp::Special { kind, dst } => {
                let (ctx, w) = (self.ctx, self.w as u32);
                fill(&mut self.i32s, bits, n, *dst as usize * n, |i| match kind {
                    Special::TidX => i as i32,
                    Special::LaneId => (i as u32 % w) as i32,
                    Special::CtaIdX => ctx.block_id as i32,
                    Special::NTidX => ctx.block_dim as i32,
                    Special::NCtaIdX => ctx.grid_dim as i32,
                });
            }
            LvOp::Ld { ty, space, dst, addr } => self.ld(*ty, *space, *dst, *addr, mask)?,
            LvOp::St { ty, space, addr, value } => self.st(*ty, *space, *addr, *value, mask)?,
            LvOp::Atomic { op, ty, space, addr, value, dst } => {
                self.atomic(*op, *ty, *space, *addr, *value, *dst, mask)?;
            }
            LvOp::Bar => {
                // Same divergence contract as the reference: a barrier
                // under a partial mask deadlocks real hardware, so report
                // it with the identical error.
                if let Some(m) = bits {
                    if m.iter().any(|&b| !b) {
                        let active = m.iter().filter(|&&b| b).count();
                        return Err(SimError::BarrierDivergence(format!(
                            "kernel {}: barrier reached by {active} of {} lanes",
                            self.prog.name, self.n
                        )));
                    }
                }
                self.local.barriers += 1;
            }
            LvOp::Trap { message } => {
                return Err(SimError::Trap(format!("{}: {}", self.prog.name, message)));
            }
        }
        Ok(())
    }

    fn bin_f32(&mut self, op: BinOp, d: usize, a: LvSrc, b: LvSrc, bits: Option<&[bool]>) {
        let n = self.n;
        let (a, b) = (resolve(a, n, dec_f32), resolve(b, n, dec_f32));
        let p = &mut self.f32s;
        match op {
            BinOp::Add => map2(p, bits, n, d, a, b, |x, y| x + y),
            BinOp::Sub => map2(p, bits, n, d, a, b, |x, y| x - y),
            BinOp::Mul => map2(p, bits, n, d, a, b, |x, y| x * y),
            BinOp::Div => map2(p, bits, n, d, a, b, |x, y| x / y),
            BinOp::Rem => map2(p, bits, n, d, a, b, |x, y| x % y),
            BinOp::Min => map2(p, bits, n, d, a, b, |x, y| x.min(y)),
            BinOp::Max => map2(p, bits, n, d, a, b, |x, y| x.max(y)),
            _ => unreachable!("float {op:?} rejected by validation"),
        }
    }

    fn bin_f64(&mut self, op: BinOp, d: usize, a: LvSrc, b: LvSrc, bits: Option<&[bool]>) {
        let n = self.n;
        let (a, b) = (resolve(a, n, dec_f64), resolve(b, n, dec_f64));
        let p = &mut self.f64s;
        match op {
            BinOp::Add => map2(p, bits, n, d, a, b, |x, y| x + y),
            BinOp::Sub => map2(p, bits, n, d, a, b, |x, y| x - y),
            BinOp::Mul => map2(p, bits, n, d, a, b, |x, y| x * y),
            BinOp::Div => map2(p, bits, n, d, a, b, |x, y| x / y),
            BinOp::Rem => map2(p, bits, n, d, a, b, |x, y| x % y),
            BinOp::Min => map2(p, bits, n, d, a, b, |x, y| x.min(y)),
            BinOp::Max => map2(p, bits, n, d, a, b, |x, y| x.max(y)),
            _ => unreachable!("float {op:?} rejected by validation"),
        }
    }

    /// i32 arithmetic. The reference promotes through i64
    /// (`int_bin(i64::from(x), ...) as i32`); each arm below is the
    /// algebraically-equal direct form — except shifts, where promotion
    /// is semantically load-bearing (the shift count masks with 63, not
    /// 31) and therefore kept literally.
    fn bin_i32(
        &mut self,
        op: BinOp,
        d: usize,
        a: LvSrc,
        b: LvSrc,
        bits: Option<&[bool]>,
    ) -> Result<()> {
        let n = self.n;
        let (a, b) = (resolve(a, n, dec_i32), resolve(b, n, dec_i32));
        let p = &mut self.i32s;
        match op {
            BinOp::Add => map2(p, bits, n, d, a, b, |x, y| x.wrapping_add(y)),
            BinOp::Sub => map2(p, bits, n, d, a, b, |x, y| x.wrapping_sub(y)),
            BinOp::Mul => map2(p, bits, n, d, a, b, |x, y| x.wrapping_mul(y)),
            BinOp::Div => map2_try(p, bits, n, d, a, b, |x, y| {
                if y == 0 {
                    return Err(SimError::Trap("integer division by zero".into()));
                }
                Ok(i64::from(x).wrapping_div(i64::from(y)) as i32)
            })?,
            BinOp::Rem => map2_try(p, bits, n, d, a, b, |x, y| {
                if y == 0 {
                    return Err(SimError::Trap("integer remainder by zero".into()));
                }
                Ok(i64::from(x).wrapping_rem(i64::from(y)) as i32)
            })?,
            BinOp::Min => map2(p, bits, n, d, a, b, |x, y| x.min(y)),
            BinOp::Max => map2(p, bits, n, d, a, b, |x, y| x.max(y)),
            BinOp::And => map2(p, bits, n, d, a, b, |x, y| x & y),
            BinOp::Or => map2(p, bits, n, d, a, b, |x, y| x | y),
            BinOp::Xor => map2(p, bits, n, d, a, b, |x, y| x ^ y),
            BinOp::Shl => map2(p, bits, n, d, a, b, |x, y| {
                i64::from(x).wrapping_shl((i64::from(y) & 63) as u32) as i32
            }),
            BinOp::Shr => map2(p, bits, n, d, a, b, |x, y| {
                i64::from(x).wrapping_shr((i64::from(y) & 63) as u32) as i32
            }),
        }
        Ok(())
    }

    fn bin_i64(
        &mut self,
        op: BinOp,
        d: usize,
        a: LvSrc,
        b: LvSrc,
        bits: Option<&[bool]>,
    ) -> Result<()> {
        let n = self.n;
        let (a, b) = (resolve(a, n, dec_i64), resolve(b, n, dec_i64));
        let p = &mut self.i64s;
        match op {
            BinOp::Add => map2(p, bits, n, d, a, b, |x, y| x.wrapping_add(y)),
            BinOp::Sub => map2(p, bits, n, d, a, b, |x, y| x.wrapping_sub(y)),
            BinOp::Mul => map2(p, bits, n, d, a, b, |x, y| x.wrapping_mul(y)),
            BinOp::Div => map2_try(p, bits, n, d, a, b, |x, y| {
                if y == 0 {
                    return Err(SimError::Trap("integer division by zero".into()));
                }
                Ok(x.wrapping_div(y))
            })?,
            BinOp::Rem => map2_try(p, bits, n, d, a, b, |x, y| {
                if y == 0 {
                    return Err(SimError::Trap("integer remainder by zero".into()));
                }
                Ok(x.wrapping_rem(y))
            })?,
            BinOp::Min => map2(p, bits, n, d, a, b, |x, y| x.min(y)),
            BinOp::Max => map2(p, bits, n, d, a, b, |x, y| x.max(y)),
            BinOp::And => map2(p, bits, n, d, a, b, |x, y| x & y),
            BinOp::Or => map2(p, bits, n, d, a, b, |x, y| x | y),
            BinOp::Xor => map2(p, bits, n, d, a, b, |x, y| x ^ y),
            BinOp::Shl => map2(p, bits, n, d, a, b, |x, y| x.wrapping_shl((y & 63) as u32)),
            BinOp::Shr => map2(p, bits, n, d, a, b, |x, y| x.wrapping_shr((y & 63) as u32)),
        }
        Ok(())
    }

    fn bin_bool(&mut self, op: BinOp, d: usize, a: LvSrc, b: LvSrc, bits: Option<&[bool]>) {
        let n = self.n;
        let (a, b) = (resolve(a, n, dec_bool), resolve(b, n, dec_bool));
        let p = &mut self.bools;
        match op {
            BinOp::And => map2(p, bits, n, d, a, b, |x, y| x & y),
            BinOp::Or => map2(p, bits, n, d, a, b, |x, y| x | y),
            BinOp::Xor => map2(p, bits, n, d, a, b, |x, y| x ^ y),
            _ => unreachable!("bool {op:?} rejected by validation"),
        }
    }

    /// Conversions, routed exactly as the reference's `convert`: everything
    /// goes through f64 except integer→integer, and `F32→F32` keeps the
    /// (exact) f64 round-trip so the computation is literally the same.
    fn cvt(&mut self, from: Type, to: Type, dst: u32, a: LvSrc, bits: Option<&[bool]>) {
        let n = self.n;
        let d = dst as usize * n;
        match (from, to) {
            (Type::F32, Type::F32) => {
                map1(&mut self.f32s, bits, n, d, resolve(a, n, dec_f32), |x| f64::from(x) as f32)
            }
            (Type::F32, Type::F64) => {
                cvt_into(&self.f32s, &mut self.f64s, bits, n, d, resolve(a, n, dec_f32), f64::from)
            }
            (Type::F32, Type::I32) => {
                cvt_into(&self.f32s, &mut self.i32s, bits, n, d, resolve(a, n, dec_f32), |x| {
                    f64::from(x) as i32
                })
            }
            (Type::F32, Type::I64) => {
                cvt_into(&self.f32s, &mut self.i64s, bits, n, d, resolve(a, n, dec_f32), |x| {
                    f64::from(x) as i64
                })
            }
            (Type::F64, Type::F32) => {
                cvt_into(&self.f64s, &mut self.f32s, bits, n, d, resolve(a, n, dec_f64), |x| {
                    x as f32
                })
            }
            (Type::F64, Type::F64) => {
                map1(&mut self.f64s, bits, n, d, resolve(a, n, dec_f64), |x| x)
            }
            (Type::F64, Type::I32) => {
                cvt_into(&self.f64s, &mut self.i32s, bits, n, d, resolve(a, n, dec_f64), |x| {
                    x as i32
                })
            }
            (Type::F64, Type::I64) => {
                cvt_into(&self.f64s, &mut self.i64s, bits, n, d, resolve(a, n, dec_f64), |x| {
                    x as i64
                })
            }
            (Type::I32, Type::F32) => {
                cvt_into(&self.i32s, &mut self.f32s, bits, n, d, resolve(a, n, dec_i32), |x| {
                    f64::from(x) as f32
                })
            }
            (Type::I32, Type::F64) => {
                cvt_into(&self.i32s, &mut self.f64s, bits, n, d, resolve(a, n, dec_i32), f64::from)
            }
            (Type::I32, Type::I32) => {
                map1(&mut self.i32s, bits, n, d, resolve(a, n, dec_i32), |x| x)
            }
            (Type::I32, Type::I64) => {
                cvt_into(&self.i32s, &mut self.i64s, bits, n, d, resolve(a, n, dec_i32), i64::from)
            }
            (Type::I64, Type::F32) => {
                // Double rounding (i64→f64→f32) is the reference semantics.
                cvt_into(&self.i64s, &mut self.f32s, bits, n, d, resolve(a, n, dec_i64), |x| {
                    (x as f64) as f32
                })
            }
            (Type::I64, Type::F64) => {
                cvt_into(&self.i64s, &mut self.f64s, bits, n, d, resolve(a, n, dec_i64), |x| {
                    x as f64
                })
            }
            (Type::I64, Type::I32) => {
                cvt_into(&self.i64s, &mut self.i32s, bits, n, d, resolve(a, n, dec_i64), |x| {
                    x as i32
                })
            }
            (Type::I64, Type::I64) => {
                map1(&mut self.i64s, bits, n, d, resolve(a, n, dec_i64), |x| x)
            }
            _ => unreachable!("bool cvt rejected by validation"),
        }
    }

    /// Record one traced global access straight into the block's trace
    /// arena: as one affine header when the mask is full and the address
    /// form qualifies ([`Addrs::affine`]), else lane by lane in the order
    /// the reference interpreter records (ascending for loads and stores, commit
    /// order for atomics), before an I64 load may overwrite its address.
    /// Negative addresses are skipped — the execution loop faults on them
    /// and the trace of a failed launch is never consumed.
    fn trace_access(&mut self, kind: AccessKind, width: u32, am: Addrs, bits: Option<&[bool]>) {
        let (n, w) = (self.n, self.w);
        // Disjoint field borrows: the arena mutably, the address pool
        // shared.
        let Some(tb) = self.tblock.as_mut() else { return };
        if let Some(affine) = am.affine(n, width, bits) {
            tb.trace.push_affine(kind, width, affine);
            return;
        }
        let pool = &self.i64s;
        let mut record = |i: usize| {
            if bits.is_none_or(|m| m[i]) {
                let av = am.at(pool, i);
                if av >= 0 {
                    tb.trace.push_lane(i as u32, av as u64);
                }
            }
        };
        if kind == AccessKind::Atomic {
            crate::exec::round_robin_indices(n, w).for_each(&mut record);
        } else {
            (0..n).for_each(&mut record);
        }
        tb.trace.end_access(kind, width);
    }

    fn ld(&mut self, ty: Type, space: Space, dst: u32, addr: LvSrc, mask: &MaskSet) -> Result<()> {
        let (n, bits) = (self.n, mask.bits.as_deref());
        let d = dst as usize * n;
        let am = self.addrs(addr);
        if space == Space::Shared {
            // Shared traffic is not counted and not hot: stay on the
            // reference interpreter's Value-based path for identical behaviour.
            return for_each_lane(bits, n, |i| {
                let v = self.shared.load(ty, lane_addr(am.at(&self.i64s, i))?)?;
                self.set_lane(ty, d, i, v);
                Ok(())
            });
        }
        let size = ty.size();
        self.trace_access(AccessKind::Load, size as u32, am, bits);
        // A unit-stride run is checked once for all its lanes.
        let run = am.affine(n, size as u32, bits).filter(|a| a.stride == size).map(|a| a.base);
        let (global, addr) = (self.ctx.global, |i| am.at(&self.i64s, i));
        match ty {
            Type::F32 => {
                let p = &mut self.f32s;
                load(global, run, bits, n, size, addr, |i, r| p[d + i] = f32::from_bits(r as u32))
            }
            Type::F64 => {
                let p = &mut self.f64s;
                load(global, run, bits, n, size, addr, |i, r| p[d + i] = f64::from_bits(r))
            }
            Type::I32 => {
                let p = &mut self.i32s;
                load(global, run, bits, n, size, addr, |i, r| p[d + i] = r as u32 as i32)
            }
            Type::I64 => {
                // Destination and address lanes share one pool: read it
                // through cells, each lane's address before its value.
                let p = Cell::from_mut(&mut self.i64s[..]).as_slice_of_cells();
                let addr = |i: usize| am.form.map_or_else(|| p[am.lanes + i].get(), |f| f.at(i));
                load(global, run, bits, n, size, addr, |i, r| p[d + i].set(r as i64))
            }
            Type::Bool => unreachable!("bool ld rejected by validation"),
        }?;
        self.local.bytes_read += mask.lanes * size;
        Ok(())
    }

    fn st(
        &mut self,
        ty: Type,
        space: Space,
        addr: LvSrc,
        value: LvSrc,
        mask: &MaskSet,
    ) -> Result<()> {
        let (n, bits) = (self.n, mask.bits.as_deref());
        let am = self.addrs(addr);
        if space == Space::Shared {
            return for_each_lane(bits, n, |i| {
                let a = lane_addr(am.at(&self.i64s, i))?;
                self.shared.store(a, self.read_value(ty, value, i))
            });
        }
        let size = ty.size();
        self.trace_access(AccessKind::Store, size as u32, am, bits);
        let run = am.affine(n, size as u32, bits).filter(|a| a.stride == size).map(|a| a.base);
        let (global, addrs) = (self.ctx.global, &self.i64s);
        let addr = |i| am.at(addrs, i);
        match ty {
            Type::F32 => {
                let (p, vm) = (&self.f32s, resolve(value, n, dec_f32));
                store(global, run, bits, n, size, addr, |i| u64::from(rd(p, vm, i).to_bits()))
            }
            Type::F64 => {
                let (p, vm) = (&self.f64s, resolve(value, n, dec_f64));
                store(global, run, bits, n, size, addr, |i| rd(p, vm, i).to_bits())
            }
            Type::I32 => {
                let (p, vm) = (&self.i32s, resolve(value, n, dec_i32));
                store(global, run, bits, n, size, addr, |i| u64::from(rd(p, vm, i) as u32))
            }
            Type::I64 => {
                let vm = resolve(value, n, dec_i64);
                store(global, run, bits, n, size, addr, |i| rd(addrs, vm, i) as u64)
            }
            Type::Bool => unreachable!("bool st rejected by validation"),
        }?;
        self.local.bytes_written += mask.lanes * size;
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn atomic(
        &mut self,
        op: AtomicOp,
        ty: Type,
        space: Space,
        addr: LvSrc,
        value: LvSrc,
        dst: Option<u32>,
        mask: &MaskSet,
    ) -> Result<()> {
        let (am, bits) = (self.addrs(addr), mask.bits.as_deref());
        self.local.atomics += mask.lanes;
        if space == Space::Global {
            return self.global_atomic(op, ty, am, value, dst, bits);
        }
        let n = self.n;
        // Warp-round-robin commit order, identical to the reference's
        // `round_robin` (the order is a function of the warp width).
        for i in crate::exec::round_robin_indices(n, self.w) {
            if let Some(m) = bits {
                if !m[i] {
                    continue;
                }
            }
            let a = lane_addr(am.at(&self.i64s, i))?;
            let v = self.read_value(ty, value, i);
            // Single interpreter thread per block: plain RMW, exactly
            // like the reference interpreter.
            let cur = self.shared.load(ty, a)?;
            let new = match op {
                AtomicOp::Add => bin_value(BinOp::Add, cur, v)?,
                AtomicOp::Min => bin_value(BinOp::Min, cur, v)?,
                AtomicOp::Max => bin_value(BinOp::Max, cur, v)?,
                AtomicOp::Exch => v,
            };
            self.shared.store(a, new)?;
            if let Some(dslot) = dst {
                self.set_lane(ty, dslot as usize * n, i, cur);
            }
        }
        Ok(())
    }

    /// A global atomic, in the reference's warp-round-robin commit
    /// order, committing each run of consecutive lanes on one 8-byte
    /// word as a single read-modify-write. A lane whose address fails
    /// commits the lanes before it, then returns the error the reference
    /// interpreter gives for that lane.
    fn global_atomic(
        &mut self,
        op: AtomicOp,
        ty: Type,
        am: Addrs,
        value: LvSrc,
        dst: Option<u32>,
        bits: Option<&[bool]>,
    ) -> Result<()> {
        let n = self.n;
        self.trace_access(AccessKind::Atomic, ty.size() as u32, am, bits);
        let mut run = std::mem::take(&mut self.atomic_run);
        let mut order = crate::exec::round_robin_indices(n, self.w)
            .filter(|&i| bits.is_none_or(|m| m[i]))
            .peekable();
        while let Some(i) = order.next() {
            let a = lane_addr(am.at(&self.i64s, i))?;
            let v = self.read_value(ty, value, i);
            // The run ends where the next lane leaves this lane's word (a
            // negative next address never shares it, so a lane whose
            // address fails always starts a run).
            let ends = order.peek().is_none_or(|&j| am.at(&self.i64s, j) as u64 / 8 != a / 8);
            if ends && run.ops.is_empty() {
                // A lone lane, the common case for scattered atomics, skips
                // the run buffers.
                let old = self.ctx.global.atomic_rmw(a, op, v)?;
                if let Some(dslot) = dst {
                    self.set_lane(ty, dslot as usize * n, i, old);
                }
                continue;
            }
            run.lanes.push(i);
            run.ops.push((a, v));
            if ends {
                self.commit_atomic_run(op, ty, dst, &mut run)?;
            }
        }
        self.atomic_run = run;
        Ok(())
    }

    /// Commit a run of atomic lanes and write back each lane's old value,
    /// leaving the run empty.
    fn commit_atomic_run(
        &mut self,
        op: AtomicOp,
        ty: Type,
        dst: Option<u32>,
        run: &mut AtomicRun,
    ) -> Result<()> {
        run.olds.resize(run.ops.len(), Value::I32(0));
        self.ctx.global.atomic_rmw_run(op, &run.ops, &mut run.olds)?;
        if let Some(dslot) = dst {
            for (&i, &old) in run.lanes.iter().zip(&run.olds) {
                self.set_lane(ty, dslot as usize * self.n, i, old);
            }
        }
        run.lanes.clear();
        run.ops.clear();
        Ok(())
    }
}
