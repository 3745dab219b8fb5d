//! The scalar SIMT interpreter: the reference block engine.
//!
//! One thread block is interpreted as a wide lane vector: every instruction
//! is applied to all *active* lanes before the next instruction starts.
//! Executing the whole block in lockstep makes barrier semantics trivially
//! correct (barriers inside divergent control flow are UB on real GPUs and
//! remain out of contract here), while divergence is modelled with an
//! active-mask stack exactly as SIMT hardware does: `If` splits the mask,
//! `While` narrows it per iteration.
//!
//! Instruction issue is counted **per warp with at least one active lane**
//! (real hardware issues whole warps, and diverged warps pay for both
//! paths) — this is what makes the warp-width attribute of a device
//! observable in the performance counters.
//!
//! The interpreter walks [`KernelIr`](mcmm_gpu_sim::ir::KernelIr)
//! directly and boxes every lane value in [`Value`]: slow and simple,
//! which is what a reference is for. It shares with the production engine
//! only what both must compute identically: the block context, shared
//! memory, binary operators and the atomic commit order
//! ([`mcmm_gpu_sim::exec`]).

use mcmm_gpu_sim::counters::LaunchStats;
use mcmm_gpu_sim::exec::{bin_value, round_robin, BlockCtx, SharedMem};
use mcmm_gpu_sim::ir::{AtomicOp, BinOp, CmpOp, Instr, Operand, Space, Special, Type, UnOp, Value};
use mcmm_gpu_sim::trace::{AccessKind, TraceScratch};
use mcmm_gpu_sim::{Result, SimError};
use std::collections::{BTreeMap, BTreeSet};

/// Per-lane register storage, struct-of-arrays by type.
#[derive(Debug, Clone)]
enum LaneVec {
    F32(Vec<f32>),
    F64(Vec<f64>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    Bool(Vec<bool>),
}

impl LaneVec {
    fn zeroed(ty: Type, n: usize) -> Self {
        match ty {
            Type::F32 => LaneVec::F32(vec![0.0; n]),
            Type::F64 => LaneVec::F64(vec![0.0; n]),
            Type::I32 => LaneVec::I32(vec![0; n]),
            Type::I64 => LaneVec::I64(vec![0; n]),
            Type::Bool => LaneVec::Bool(vec![false; n]),
        }
    }

    fn splat(v: Value, n: usize) -> Self {
        match v {
            Value::F32(x) => LaneVec::F32(vec![x; n]),
            Value::F64(x) => LaneVec::F64(vec![x; n]),
            Value::I32(x) => LaneVec::I32(vec![x; n]),
            Value::I64(x) => LaneVec::I64(vec![x; n]),
            Value::Bool(x) => LaneVec::Bool(vec![x; n]),
        }
    }

    fn get(&self, lane: usize) -> Value {
        match self {
            LaneVec::F32(v) => Value::F32(v[lane]),
            LaneVec::F64(v) => Value::F64(v[lane]),
            LaneVec::I32(v) => Value::I32(v[lane]),
            LaneVec::I64(v) => Value::I64(v[lane]),
            LaneVec::Bool(v) => Value::Bool(v[lane]),
        }
    }

    fn set(&mut self, lane: usize, v: Value) {
        match (self, v) {
            (LaneVec::F32(s), Value::F32(x)) => s[lane] = x,
            (LaneVec::F64(s), Value::F64(x)) => s[lane] = x,
            (LaneVec::I32(s), Value::I32(x)) => s[lane] = x,
            (LaneVec::I64(s), Value::I64(x)) => s[lane] = x,
            (LaneVec::Bool(s), Value::Bool(x)) => s[lane] = x,
            _ => unreachable!("lane type mismatch slipped past validation"),
        }
    }
}

/// How a logged shared-memory access touched memory (racecheck mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SharedAccessKind {
    /// Plain load.
    Read,
    /// Plain store.
    Write,
    /// Atomic read-modify-write.
    Atomic,
}

impl SharedAccessKind {
    /// Two same-byte accesses from different lanes conflict unless both
    /// are reads (no mutation) or both are atomics (ordered by hardware).
    pub fn conflicts(self, other: SharedAccessKind) -> bool {
        !matches!(
            (self, other),
            (SharedAccessKind::Read, SharedAccessKind::Read)
                | (SharedAccessKind::Atomic, SharedAccessKind::Atomic)
        )
    }
}

/// One shared-memory race observed by [`run_block_racecheck`]: two lanes
/// touched the same byte in the same barrier interval, at least one of
/// them mutating it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceFinding {
    /// The shared-memory byte both lanes touched.
    pub byte: u64,
    /// First lane involved.
    pub lane_a: u32,
    /// How the first lane accessed the byte.
    pub kind_a: SharedAccessKind,
    /// Second lane involved.
    pub lane_b: u32,
    /// How the second lane accessed the byte.
    pub kind_b: SharedAccessKind,
}

/// Shadow access log for the current barrier interval.
#[derive(Default)]
struct RaceLog {
    /// byte -> distinct (lane, kind) accesses since the last barrier.
    interval: BTreeMap<u64, Vec<(u32, SharedAccessKind)>>,
    /// Already-reported conflict pairs, to keep findings deduplicated.
    seen: BTreeSet<(u32, SharedAccessKind, u32, SharedAccessKind)>,
    findings: Vec<RaceFinding>,
}

impl RaceLog {
    fn record(&mut self, lane: usize, addr: u64, len: u64, kind: SharedAccessKind) {
        for byte in addr..addr + len {
            let entry = (lane as u32, kind);
            let v = self.interval.entry(byte).or_default();
            if !v.contains(&entry) {
                v.push(entry);
            }
        }
    }

    /// Close the barrier interval: scan it for conflicts, then clear.
    fn flush(&mut self) {
        let interval = std::mem::take(&mut self.interval);
        for (byte, accesses) in interval {
            for (i, &(la, ka)) in accesses.iter().enumerate() {
                for &(lb, kb) in &accesses[i + 1..] {
                    if la == lb || !ka.conflicts(kb) {
                        continue;
                    }
                    let key =
                        if (la, ka) <= (lb, kb) { (la, ka, lb, kb) } else { (lb, kb, la, ka) };
                    if self.seen.insert(key) {
                        self.findings.push(RaceFinding {
                            byte,
                            lane_a: key.0,
                            kind_a: key.1,
                            lane_b: key.2,
                            kind_b: key.3,
                        });
                    }
                }
            }
        }
    }
}

struct Interp<'a> {
    ctx: &'a BlockCtx<'a>,
    regs: Vec<LaneVec>,
    shared: SharedMem,
    n: usize,
    /// What this block has counted; returned at block exit.
    stats: LaunchStats,
    /// Present in racecheck mode; shared accesses are mirrored into it.
    race: Option<RaceLog>,
    /// Present when the launch is traced; global accesses are recorded
    /// into the scratch's arena and flushed to the sink at block exit.
    tblock: Option<TraceScratch>,
}

/// Execute one thread block and return what it counted: the reference
/// engine's counterpart of [`mcmm_gpu_sim::vexec::run_block_lv`].
pub fn run_block(ctx: &BlockCtx<'_>, args: &[Value]) -> Result<LaunchStats> {
    run_block_impl(ctx, args, None).map(|(stats, _)| stats)
}

/// Execute one thread block with the shared-memory race detector enabled:
/// every shared access is mirrored into a shadow log, each barrier closes
/// the interval and scans it for same-byte cross-lane conflicts. The
/// conflict rule matches `mcmm-analyze`'s static MCA003 check exactly, so
/// static findings can be confirmed differentially against this mode.
pub fn run_block_racecheck(ctx: &BlockCtx<'_>, args: &[Value]) -> Result<Vec<RaceFinding>> {
    let (_, log) = run_block_impl(ctx, args, Some(RaceLog::default()))?;
    Ok(log.map(|l| l.findings).unwrap_or_default())
}

fn run_block_impl(
    ctx: &BlockCtx<'_>,
    args: &[Value],
    race: Option<RaceLog>,
) -> Result<(LaunchStats, Option<RaceLog>)> {
    let n = ctx.block_dim as usize;
    if args.len() != ctx.kernel.params.len() {
        return Err(SimError::BadArguments(format!(
            "kernel {} expects {} args, got {}",
            ctx.kernel.name,
            ctx.kernel.params.len(),
            args.len()
        )));
    }
    let mut regs = Vec::with_capacity(ctx.kernel.regs.len());
    for (i, &ty) in ctx.kernel.regs.iter().enumerate() {
        if i < args.len() {
            if args[i].ty() != ty {
                return Err(SimError::BadArguments(format!(
                    "arg {i} of {}: expected {ty}, got {}",
                    ctx.kernel.name,
                    args[i].ty()
                )));
            }
            regs.push(LaneVec::splat(args[i], n));
        } else {
            regs.push(LaneVec::zeroed(ty, n));
        }
    }
    let mut interp = Interp {
        ctx,
        regs,
        shared: SharedMem::new(ctx.kernel.shared_bytes),
        n,
        stats: LaunchStats::default(),
        race,
        tblock: ctx.trace.map(|s| s.begin_block(ctx.block_id)),
    };
    let mask = vec![true; n];
    let issues = interp.active_warps(&mask);
    interp.run(&ctx.kernel.body, &mask, issues)?;
    if let Some(log) = interp.race.as_mut() {
        log.flush(); // the interval between the last barrier and exit
    }
    if let (Some(sink), Some(tb)) = (ctx.trace, interp.tblock.take()) {
        sink.finish_block(tb);
    }
    Ok((interp.stats, interp.race))
}

impl<'a> Interp<'a> {
    /// Warps with ≥1 active lane under `mask`.
    fn active_warps(&self, mask: &[bool]) -> u64 {
        let w = self.ctx.warp_width.max(1) as usize;
        mask.chunks(w).filter(|c| c.iter().any(|&b| b)).count() as u64
    }

    fn eval(&self, o: &Operand, lane: usize) -> Value {
        match o {
            Operand::Reg(r) => self.regs[r.0 as usize].get(lane),
            Operand::Imm(v) => *v,
        }
    }

    /// Run `body` under `mask`. `issues` is the active-warp count of
    /// `mask`, computed by the caller once per mask *change* (block entry,
    /// branch split, loop narrowing) instead of once per instruction.
    fn run(&mut self, body: &[Instr], mask: &[bool], issues: u64) -> Result<()> {
        for instr in body {
            self.step(instr, mask, issues)?;
        }
        Ok(())
    }

    fn step(&mut self, instr: &Instr, mask: &[bool], issues: u64) -> Result<()> {
        if issues == 0 {
            return Ok(());
        }
        self.stats.warp_instructions += issues;
        match instr {
            Instr::Mov { dst, src } => {
                for lane in active(mask) {
                    let v = self.eval(src, lane);
                    self.regs[dst.0 as usize].set(lane, v);
                }
            }
            Instr::Bin { op, dst, a, b } => {
                self.stats.warp_arith += issues;
                for lane in active(mask) {
                    let va = self.eval(a, lane);
                    let vb = self.eval(b, lane);
                    let r = bin_value(*op, va, vb)?;
                    self.regs[dst.0 as usize].set(lane, r);
                }
            }
            Instr::Un { op, dst, a } => {
                self.stats.warp_arith += issues;
                for lane in active(mask) {
                    let va = self.eval(a, lane);
                    self.regs[dst.0 as usize].set(lane, un_value(*op, va));
                }
            }
            Instr::Cmp { op, dst, a, b } => {
                self.stats.warp_arith += issues;
                for lane in active(mask) {
                    let va = self.eval(a, lane);
                    let vb = self.eval(b, lane);
                    self.regs[dst.0 as usize].set(lane, Value::Bool(cmp_value(*op, va, vb)));
                }
            }
            Instr::Sel { dst, cond, a, b } => {
                self.stats.warp_arith += issues;
                for lane in active(mask) {
                    let c = matches!(self.regs[cond.0 as usize].get(lane), Value::Bool(true));
                    let v = if c { self.eval(a, lane) } else { self.eval(b, lane) };
                    self.regs[dst.0 as usize].set(lane, v);
                }
            }
            Instr::Cvt { dst, a } => {
                self.stats.warp_arith += issues;
                let ty = self.ctx.kernel.regs[dst.0 as usize];
                for lane in active(mask) {
                    let v = self.eval(a, lane);
                    self.regs[dst.0 as usize].set(lane, convert(v, ty));
                }
            }
            Instr::Special { dst, kind } => {
                let w = self.ctx.warp_width.max(1);
                for lane in active(mask) {
                    let v = match kind {
                        Special::TidX => lane as i32,
                        Special::CtaIdX => self.ctx.block_id as i32,
                        Special::NTidX => self.ctx.block_dim as i32,
                        Special::NCtaIdX => self.ctx.grid_dim as i32,
                        Special::LaneId => (lane as u32 % w) as i32,
                    };
                    self.regs[dst.0 as usize].set(lane, Value::I32(v));
                }
            }
            Instr::Ld { dst, space, addr } => {
                let ty = self.ctx.kernel.regs[dst.0 as usize];
                let mut lanes = 0u64;
                let tracing = *space == Space::Global && self.tblock.is_some();
                for lane in active(mask) {
                    let a = self.addr(addr, lane)?;
                    let v = match space {
                        Space::Global => self.ctx.global.load(ty, a)?,
                        Space::Shared => {
                            if let Some(log) = self.race.as_mut() {
                                log.record(lane, a, ty.size(), SharedAccessKind::Read);
                            }
                            self.shared.load(ty, a)?
                        }
                    };
                    self.regs[dst.0 as usize].set(lane, v);
                    if tracing {
                        self.tblock
                            .as_mut()
                            .expect("tracing checked")
                            .trace
                            .push_lane(lane as u32, a);
                    }
                    lanes += 1;
                }
                if *space == Space::Global {
                    self.stats.bytes_read += lanes * ty.size();
                }
                if tracing {
                    self.tblock
                        .as_mut()
                        .expect("tracing checked")
                        .trace
                        .end_access(AccessKind::Load, ty.size() as u32);
                }
            }
            Instr::St { space, addr, value } => {
                let mut lanes = 0u64;
                let mut sz = 0u64;
                let tracing = *space == Space::Global && self.tblock.is_some();
                for lane in active(mask) {
                    let a = self.addr(addr, lane)?;
                    let v = self.eval(value, lane);
                    sz = v.ty().size();
                    match space {
                        Space::Global => self.ctx.global.store(a, v)?,
                        Space::Shared => {
                            if let Some(log) = self.race.as_mut() {
                                log.record(lane, a, sz, SharedAccessKind::Write);
                            }
                            self.shared.store(a, v)?
                        }
                    }
                    if tracing {
                        self.tblock
                            .as_mut()
                            .expect("tracing checked")
                            .trace
                            .push_lane(lane as u32, a);
                    }
                    lanes += 1;
                }
                if *space == Space::Global {
                    self.stats.bytes_written += lanes * sz;
                }
                if tracing {
                    self.tblock
                        .as_mut()
                        .expect("tracing checked")
                        .trace
                        .end_access(AccessKind::Store, sz as u32);
                }
            }
            Instr::Atomic { op, space, addr, value, dst } => {
                let mut lanes = 0u64;
                let tracing = *space == Space::Global && self.tblock.is_some();
                let mut width = 0u32;
                // Colliding atomics commit in warp-scheduler order: warps
                // take turns issuing their lane at each position, so the
                // commit sequence — and the rounding of float sums —
                // depends on the warp width. Mirrored exactly by the
                // vectorized tier.
                for lane in round_robin(mask, self.ctx.warp_width) {
                    let a = self.addr(addr, lane)?;
                    let v = self.eval(value, lane);
                    if tracing {
                        self.tblock
                            .as_mut()
                            .expect("tracing checked")
                            .trace
                            .push_lane(lane as u32, a);
                        width = v.ty().size() as u32;
                    }
                    let old = match space {
                        Space::Global => self.ctx.global.atomic_rmw(a, *op, v)?,
                        Space::Shared => {
                            if let Some(log) = self.race.as_mut() {
                                log.record(lane, a, v.ty().size(), SharedAccessKind::Atomic);
                            }
                            // Single-threaded per block: plain RMW.
                            let cur = self.shared.load(v.ty(), a)?;
                            let new = match op {
                                AtomicOp::Add => bin_value(BinOp::Add, cur, v)?,
                                AtomicOp::Min => bin_value(BinOp::Min, cur, v)?,
                                AtomicOp::Max => bin_value(BinOp::Max, cur, v)?,
                                AtomicOp::Exch => v,
                            };
                            self.shared.store(a, new)?;
                            cur
                        }
                    };
                    if let Some(d) = dst {
                        self.regs[d.0 as usize].set(lane, old);
                    }
                    lanes += 1;
                }
                self.stats.atomics += lanes;
                if tracing {
                    self.tblock
                        .as_mut()
                        .expect("tracing checked")
                        .trace
                        .end_access(AccessKind::Atomic, width);
                }
            }
            Instr::Bar => {
                // A barrier is only sound when the whole block reaches it;
                // under a partial mask some lanes never arrive, which
                // deadlocks real hardware. Report instead of hanging.
                if mask.iter().any(|&b| !b) {
                    let active = mask.iter().filter(|&&b| b).count();
                    return Err(SimError::BarrierDivergence(format!(
                        "kernel {}: barrier reached by {active} of {} lanes",
                        self.ctx.kernel.name, self.n
                    )));
                }
                if let Some(log) = self.race.as_mut() {
                    log.flush();
                }
                self.stats.barriers += 1;
            }
            Instr::If { cond, then_, else_ } => {
                let (tmask, emask): (Vec<bool>, Vec<bool>) = {
                    let c = &self.regs[cond.0 as usize];
                    let mut t = vec![false; self.n];
                    let mut e = vec![false; self.n];
                    for lane in active(mask) {
                        if matches!(c.get(lane), Value::Bool(true)) {
                            t[lane] = true;
                        } else {
                            e[lane] = true;
                        }
                    }
                    (t, e)
                };
                // One active-warp scan per branch mask (the mask changed),
                // amortized over every instruction the branch runs.
                let t_issues = self.active_warps(&tmask);
                if t_issues > 0 {
                    self.run(then_, &tmask, t_issues)?;
                }
                let e_issues = self.active_warps(&emask);
                if e_issues > 0 {
                    self.run(else_, &emask, e_issues)?;
                }
            }
            Instr::While { cond_block, cond, body } => {
                let mut loop_mask = mask.to_vec();
                let mut loop_issues = issues;
                let mut guard = 0u64;
                loop {
                    self.run(cond_block, &loop_mask, loop_issues)?;
                    let narrowed = {
                        let c = &self.regs[cond.0 as usize];
                        let mut narrowed = false;
                        for (lane, active) in loop_mask.iter_mut().enumerate() {
                            if *active && !matches!(c.get(lane), Value::Bool(true)) {
                                *active = false;
                                narrowed = true;
                            }
                        }
                        narrowed
                    };
                    if narrowed {
                        loop_issues = self.active_warps(&loop_mask);
                    }
                    if loop_issues == 0 {
                        break;
                    }
                    self.run(body, &loop_mask, loop_issues)?;
                    guard += 1;
                    if guard > 100_000_000 {
                        return Err(SimError::Trap(format!(
                            "kernel {}: loop exceeded iteration guard",
                            self.ctx.kernel.name
                        )));
                    }
                }
            }
            Instr::Trap { message } => {
                return Err(SimError::Trap(format!("{}: {}", self.ctx.kernel.name, message)));
            }
        }
        Ok(())
    }

    fn addr(&self, o: &Operand, lane: usize) -> Result<u64> {
        match self.eval(o, lane) {
            Value::I64(a) if a >= 0 => Ok(a as u64),
            Value::I64(a) => Err(SimError::OutOfBounds { addr: a as u64, len: 0 }),
            other => Err(SimError::Trap(format!("address operand has type {}", other.ty()))),
        }
    }
}

fn active(mask: &[bool]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i)
}

fn un_value(op: UnOp, a: Value) -> Value {
    use UnOp::*;
    match a {
        Value::F32(x) => Value::F32(match op {
            Neg => -x,
            Abs => x.abs(),
            Sqrt => x.sqrt(),
            Exp => x.exp(),
            Log => x.ln(),
            Floor => x.floor(),
            Not => unreachable!("not on float rejected by validation"),
        }),
        Value::F64(x) => Value::F64(match op {
            Neg => -x,
            Abs => x.abs(),
            Sqrt => x.sqrt(),
            Exp => x.exp(),
            Log => x.ln(),
            Floor => x.floor(),
            Not => unreachable!("not on float rejected by validation"),
        }),
        Value::I32(x) => Value::I32(match op {
            Neg => x.wrapping_neg(),
            Abs => x.wrapping_abs(),
            _ => unreachable!("{op:?} on int rejected by validation"),
        }),
        Value::I64(x) => Value::I64(match op {
            Neg => x.wrapping_neg(),
            Abs => x.wrapping_abs(),
            _ => unreachable!("{op:?} on int rejected by validation"),
        }),
        Value::Bool(x) => Value::Bool(match op {
            Not => !x,
            _ => unreachable!("{op:?} on bool rejected by validation"),
        }),
    }
}

fn cmp_value(op: CmpOp, a: Value, b: Value) -> bool {
    use std::cmp::Ordering::*;
    let ord = match (a, b) {
        (Value::F32(x), Value::F32(y)) => x.partial_cmp(&y),
        (Value::F64(x), Value::F64(y)) => x.partial_cmp(&y),
        (Value::I32(x), Value::I32(y)) => Some(x.cmp(&y)),
        (Value::I64(x), Value::I64(y)) => Some(x.cmp(&y)),
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(&y)),
        _ => unreachable!("cmp type mismatch slipped past validation"),
    };
    match op {
        CmpOp::Eq => ord == Some(Equal),
        CmpOp::Ne => ord != Some(Equal), // NaN != NaN is true
        CmpOp::Lt => ord == Some(Less),
        CmpOp::Le => matches!(ord, Some(Less | Equal)),
        CmpOp::Gt => ord == Some(Greater),
        CmpOp::Ge => matches!(ord, Some(Greater | Equal)),
    }
}

fn convert(v: Value, to: Type) -> Value {
    let as_f64 = match v {
        Value::F32(x) => f64::from(x),
        Value::F64(x) => x,
        Value::I32(x) => f64::from(x),
        Value::I64(x) => x as f64,
        Value::Bool(_) => unreachable!("bool cvt rejected by validation"),
    };
    match to {
        Type::F32 => Value::F32(as_f64 as f32),
        Type::F64 => Value::F64(as_f64),
        Type::I32 => match v {
            // Integer→integer conversions must not round-trip through f64.
            Value::I64(x) => Value::I32(x as i32),
            Value::I32(x) => Value::I32(x),
            _ => Value::I32(as_f64 as i32),
        },
        Type::I64 => match v {
            Value::I32(x) => Value::I64(i64::from(x)),
            Value::I64(x) => Value::I64(x),
            _ => Value::I64(as_f64 as i64),
        },
        Type::Bool => unreachable!("bool cvt rejected by validation"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmm_gpu_sim::ir::{KernelBuilder, KernelIr};
    use mcmm_gpu_sim::mem::GlobalMemory;

    fn run(
        kernel: &KernelIr,
        args: &[Value],
        block_dim: u32,
        mem: &GlobalMemory,
    ) -> Result<LaunchStats> {
        let ctx = BlockCtx {
            kernel,
            global: mem,
            block_id: 0,
            grid_dim: 1,
            block_dim,
            warp_width: 32,
            trace: None,
        };
        run_block(&ctx, args)
    }

    #[test]
    fn saxpy_block_computes_correctly() {
        let mut k = KernelBuilder::new("saxpy");
        let a = k.param(Type::F32);
        let x = k.param(Type::I64);
        let y = k.param(Type::I64);
        let i = k.thread_id_x();
        let xi = k.ld_elem(Space::Global, Type::F32, x, i);
        let yi = k.ld_elem(Space::Global, Type::F32, y, i);
        let ax = k.bin(BinOp::Mul, a, xi);
        let s = k.bin(BinOp::Add, ax, yi);
        k.st_elem(Space::Global, y, i, s);
        let kernel = k.finish();

        let mem = GlobalMemory::new(4096);
        let xp = mem.alloc(64 * 4).unwrap();
        let yp = mem.alloc(64 * 4).unwrap();
        for i in 0..64u64 {
            mem.store(xp.0 + i * 4, Value::F32(i as f32)).unwrap();
            mem.store(yp.0 + i * 4, Value::F32(1.0)).unwrap();
        }
        run(
            &kernel,
            &[Value::F32(2.0), Value::I64(xp.0 as i64), Value::I64(yp.0 as i64)],
            64,
            &mem,
        )
        .unwrap();
        for i in 0..64u64 {
            assert_eq!(
                mem.load(Type::F32, yp.0 + i * 4).unwrap(),
                Value::F32(2.0 * i as f32 + 1.0)
            );
        }
    }

    #[test]
    fn divergent_if_executes_both_paths() {
        // even lanes get 1, odd lanes get 2.
        let mut k = KernelBuilder::new("div");
        let out = k.param(Type::I64);
        let i = k.thread_id_x();
        let two = k.imm(Value::I32(2));
        let r = k.bin(BinOp::Rem, i, two);
        let even = k.cmp(CmpOp::Eq, r, Value::I32(0));
        k.if_else(
            even,
            |k| k.st_elem(Space::Global, out, i, Value::I32(1)),
            |k| k.st_elem(Space::Global, out, i, Value::I32(2)),
        );
        let kernel = k.finish();
        let mem = GlobalMemory::new(1024);
        let p = mem.alloc(64 * 4).unwrap();
        run(&kernel, &[Value::I64(p.0 as i64)], 64, &mem).unwrap();
        for i in 0..64u64 {
            let expect = if i % 2 == 0 { 1 } else { 2 };
            assert_eq!(mem.load(Type::I32, p.0 + i * 4).unwrap(), Value::I32(expect));
        }
    }

    #[test]
    fn while_loop_with_per_lane_trip_counts() {
        // out[i] = sum of 0..i  (each lane loops i times — divergent exit).
        let mut k = KernelBuilder::new("tri");
        let out = k.param(Type::I64);
        let i = k.thread_id_x();
        let acc = k.imm(Value::I32(0));
        let j = k.imm(Value::I32(0));
        k.while_(
            |k| k.cmp(CmpOp::Lt, j, i),
            |k| {
                k.bin_assign(BinOp::Add, acc, j);
                k.bin_assign(BinOp::Add, j, Value::I32(1));
            },
        );
        k.st_elem(Space::Global, out, i, acc);
        let kernel = k.finish();
        let mem = GlobalMemory::new(1024);
        let p = mem.alloc(32 * 4).unwrap();
        run(&kernel, &[Value::I64(p.0 as i64)], 32, &mem).unwrap();
        for i in 0..32i64 {
            let expect = (0..i as i32).sum::<i32>();
            assert_eq!(mem.load(Type::I32, p.0 + i as u64 * 4).unwrap(), Value::I32(expect));
        }
    }

    #[test]
    fn shared_memory_reduction_with_barrier() {
        // Block-wide sum into out[0] via shared memory tree reduction.
        let mut k = KernelBuilder::new("reduce");
        let out = k.param(Type::I64);
        let sh = k.shared_alloc(64 * 4);
        let tid = k.thread_id_x();
        let tid_f = k.cvt(Type::F32, tid);
        k.st_elem(Space::Shared, sh, tid, tid_f);
        k.barrier();
        let stride = k.imm(Value::I32(32));
        k.while_(
            |k| k.cmp(CmpOp::Gt, stride, Value::I32(0)),
            |k| {
                let in_half = k.cmp(CmpOp::Lt, tid, stride);
                k.if_(in_half, |k| {
                    let other = k.bin(BinOp::Add, tid, stride);
                    let a = k.ld_elem(Space::Shared, Type::F32, sh, tid);
                    let b = k.ld_elem(Space::Shared, Type::F32, sh, other);
                    let s = k.bin(BinOp::Add, a, b);
                    k.st_elem(Space::Shared, sh, tid, s);
                });
                k.barrier();
                let two = k.imm(Value::I32(2));
                let half = k.bin(BinOp::Div, stride, two);
                k.assign(stride, half);
            },
        );
        let is0 = k.cmp(CmpOp::Eq, tid, Value::I32(0));
        k.if_(is0, |k| {
            let total = k.ld_elem(Space::Shared, Type::F32, sh, tid);
            let zero = k.imm(Value::I32(0));
            k.st_elem(Space::Global, out, zero, total);
        });
        let kernel = k.finish();
        let mem = GlobalMemory::new(1024);
        let p = mem.alloc(4).unwrap();
        let counters = run(&kernel, &[Value::I64(p.0 as i64)], 64, &mem).unwrap();
        let expect: f32 = (0..64).map(|x| x as f32).sum();
        assert_eq!(mem.load(Type::F32, p.0).unwrap(), Value::F32(expect));
        assert!(counters.barriers > 0);
    }

    #[test]
    fn atomics_accumulate_across_lanes() {
        let mut k = KernelBuilder::new("atomic");
        let out = k.param(Type::I64);
        let one = k.imm(Value::I32(1));
        let _ = k.atomic(AtomicOp::Add, Space::Global, out, one);
        let kernel = k.finish();
        let mem = GlobalMemory::new(256);
        let p = mem.alloc(4).unwrap();
        let c = run(&kernel, &[Value::I64(p.0 as i64)], 128, &mem).unwrap();
        assert_eq!(mem.load(Type::I32, p.0).unwrap(), Value::I32(128));
        assert_eq!(c.atomics, 128);
    }

    #[test]
    fn warp_issue_counting_respects_divergence() {
        // 64 lanes = 2 warps of 32. A branch taken only by lanes 0..32
        // issues 1 warp for the then-block.
        let mut k = KernelBuilder::new("issue");
        let out = k.param(Type::I64);
        let i = k.thread_id_x();
        let low = k.cmp(CmpOp::Lt, i, Value::I32(32));
        k.if_(low, |k| {
            k.st_elem(Space::Global, out, i, Value::I32(1));
        });
        let kernel = k.finish();
        let mem = GlobalMemory::new(1024);
        let p = mem.alloc(64 * 4).unwrap();
        let s = run(&kernel, &[Value::I64(p.0 as i64)], 64, &mem).unwrap();
        // The store-path instructions must have been issued for exactly 1
        // warp; the prologue for 2. Exact totals depend on the builder's
        // expansion, so assert the distinguishing bound instead:
        assert!(s.warp_instructions > 0);
        assert_eq!(s.bytes_written, 32 * 4, "only 32 lanes stored");
    }

    #[test]
    fn trap_aborts_launch() {
        let mut k = KernelBuilder::new("trap");
        let _ = k.param(Type::I64);
        k.trap("device-side assert");
        let kernel = k.finish();
        let mem = GlobalMemory::new(64);
        match run(&kernel, &[Value::I64(0)], 32, &mem) {
            Err(SimError::Trap(m)) => assert!(m.contains("device-side assert")),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn integer_division_by_zero_traps() {
        let mut k = KernelBuilder::new("divzero");
        let _p = k.param(Type::I64);
        let zero = k.imm(Value::I32(0));
        let one = k.imm(Value::I32(1));
        let _ = k.bin(BinOp::Div, one, zero);
        let kernel = k.finish();
        let mem = GlobalMemory::new(64);
        assert!(matches!(run(&kernel, &[Value::I64(0)], 1, &mem), Err(SimError::Trap(_))));
    }

    #[test]
    fn wrong_arg_count_and_type_rejected() {
        let mut k = KernelBuilder::new("args");
        let _a = k.param(Type::F32);
        let kernel = k.finish();
        let mem = GlobalMemory::new(64);
        assert!(matches!(run(&kernel, &[], 1, &mem), Err(SimError::BadArguments(_))));
        assert!(matches!(run(&kernel, &[Value::I32(1)], 1, &mem), Err(SimError::BadArguments(_))));
    }

    #[test]
    fn oob_store_fails_launch() {
        let mut k = KernelBuilder::new("oob");
        let out = k.param(Type::I64);
        let i = k.thread_id_x();
        k.st_elem(Space::Global, out, i, Value::I32(7));
        let kernel = k.finish();
        let mem = GlobalMemory::new(64); // far too small for 32 lanes
        assert!(matches!(
            run(&kernel, &[Value::I64(0)], 32, &mem),
            Err(SimError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn conversions() {
        assert_eq!(convert(Value::I32(-3), Type::F64), Value::F64(-3.0));
        assert_eq!(convert(Value::F64(2.9), Type::I32), Value::I32(2));
        assert_eq!(convert(Value::I64(1 << 40), Type::I32), Value::I32(0));
        assert_eq!(convert(Value::I32(7), Type::I64), Value::I64(7));
        // i64 precision: a value f64 cannot hold exactly must survive
        // i64→i64 "conversion" (identity path).
        let big = (1i64 << 62) + 1;
        assert_eq!(convert(Value::I64(big), Type::I64), Value::I64(big));
    }

    #[test]
    fn nan_comparisons() {
        let nan = Value::F32(f32::NAN);
        assert!(!cmp_value(CmpOp::Eq, nan, nan));
        assert!(cmp_value(CmpOp::Ne, nan, nan));
        assert!(!cmp_value(CmpOp::Lt, nan, nan));
        assert!(!cmp_value(CmpOp::Ge, nan, nan));
    }

    fn racecheck(kernel: &KernelIr, args: &[Value], block_dim: u32) -> Vec<RaceFinding> {
        let mem = GlobalMemory::new(4096);
        let ctx = BlockCtx {
            kernel,
            global: &mem,
            block_id: 0,
            grid_dim: 1,
            block_dim,
            warp_width: 32,
            trace: None,
        };
        run_block_racecheck(&ctx, args).unwrap()
    }

    #[test]
    fn racecheck_flags_all_lanes_writing_one_slot() {
        let mut k = KernelBuilder::new("race");
        let sh = k.shared_alloc(4);
        let tid = k.thread_id_x();
        k.st(Space::Shared, sh, tid);
        let findings = racecheck(&k.finish(), &[], 32);
        assert!(!findings.is_empty(), "same-slot writes must race");
        let f = findings[0];
        assert_ne!(f.lane_a, f.lane_b);
        assert!(f.kind_a.conflicts(f.kind_b));
    }

    #[test]
    fn racecheck_clean_when_barrier_separates_phases() {
        let mut k = KernelBuilder::new("no_race");
        let sh = k.shared_alloc(4 * 32);
        let tid = k.thread_id_x();
        k.st_elem(Space::Shared, sh, tid, tid);
        k.barrier();
        let zero = k.imm(Value::I32(0));
        let is0 = k.cmp(CmpOp::Eq, tid, Value::I32(0));
        k.if_(is0, |k| {
            let _ = k.ld_elem(Space::Shared, Type::I32, sh, zero);
            let _ = k.ld_elem(Space::Shared, Type::I32, sh, Value::I32(31));
        });
        let findings = racecheck(&k.finish(), &[], 32);
        assert!(findings.is_empty(), "barriered phases flagged: {findings:?}");
    }

    #[test]
    fn racecheck_removing_the_barrier_reintroduces_the_race() {
        let mut k = KernelBuilder::new("race_again");
        let sh = k.shared_alloc(4 * 32);
        let tid = k.thread_id_x();
        k.st_elem(Space::Shared, sh, tid, tid);
        let is0 = k.cmp(CmpOp::Eq, tid, Value::I32(0));
        k.if_(is0, |k| {
            let _ = k.ld_elem(Space::Shared, Type::I32, sh, Value::I32(31));
        });
        let findings = racecheck(&k.finish(), &[], 32);
        assert!(!findings.is_empty());
        assert!(findings.iter().any(|f| f.kind_a.conflicts(f.kind_b) && (f.byte / 4 == 31)));
    }

    #[test]
    fn racecheck_atomics_are_ordered() {
        let mut k = KernelBuilder::new("atomic_ok");
        let sh = k.shared_alloc(4);
        let tid = k.thread_id_x();
        let _ = k.atomic(AtomicOp::Add, Space::Shared, sh, tid);
        let findings = racecheck(&k.finish(), &[], 32);
        assert!(findings.is_empty(), "atomic-vs-atomic flagged: {findings:?}");
    }

    #[test]
    fn racecheck_does_not_disturb_results() {
        // The barriered tree-reduction still computes the right sum with
        // the detector on, and reports no races.
        let mut k = KernelBuilder::new("reduce");
        let out = k.param(Type::I64);
        let sh = k.shared_alloc(4 * 64);
        let tid = k.thread_id_x();
        k.st_elem(Space::Shared, sh, tid, tid);
        k.barrier();
        let stride = k.imm(Value::I32(32));
        k.while_(
            |k| k.cmp(CmpOp::Gt, stride, Value::I32(0)),
            |k| {
                let in_half = k.cmp(CmpOp::Lt, tid, stride);
                k.if_(in_half, |k| {
                    let other = k.bin(BinOp::Add, tid, stride);
                    let a = k.ld_elem(Space::Shared, Type::I32, sh, tid);
                    let b = k.ld_elem(Space::Shared, Type::I32, sh, other);
                    let s = k.bin(BinOp::Add, a, b);
                    k.st_elem(Space::Shared, sh, tid, s);
                });
                k.barrier();
                let two = k.imm(Value::I32(2));
                let half = k.bin(BinOp::Div, stride, two);
                k.assign(stride, half);
            },
        );
        let is0 = k.cmp(CmpOp::Eq, tid, Value::I32(0));
        k.if_(is0, |k| {
            let zero = k.imm(Value::I32(0));
            let total = k.ld_elem(Space::Shared, Type::I32, sh, zero);
            k.st_elem(Space::Global, out, zero, total);
        });
        let kernel = k.finish();

        let mem = GlobalMemory::new(4096);
        let outp = mem.alloc(4).unwrap();
        let ctx = BlockCtx {
            kernel: &kernel,
            global: &mem,
            block_id: 0,
            grid_dim: 1,
            block_dim: 64,
            warp_width: 32,
            trace: None,
        };
        let findings = run_block_racecheck(&ctx, &[Value::I64(outp.0 as i64)]).unwrap();
        assert!(findings.is_empty(), "correct reduction flagged: {findings:?}");
        assert_eq!(mem.load(Type::I32, outp.0).unwrap(), Value::I32((0..64).sum()));
    }
}
