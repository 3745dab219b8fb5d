//! Seeded-defect kernel corpus: at least two kernels per diagnostic code,
//! each carrying the [`AnalysisOptions`] under which its defect is
//! provable. Used by the analyzer's own tests, by the differential
//! race tests in the umbrella crate, and by the `analyze` report binary.

use crate::AnalysisOptions;
use mcmm_gpu_sim::device::DeviceSpec;
use mcmm_gpu_sim::ir::{
    AtomicOp, BinOp, CmpOp, Instr, KernelBuilder, KernelIr, Operand, Reg, Space, Special, Type,
    Value,
};

/// One corpus entry: a kernel seeded with exactly one class of defect.
#[derive(Debug, Clone)]
pub struct SeededKernel {
    /// The defective kernel.
    pub kernel: KernelIr,
    /// Options under which the defect is detectable.
    pub opts: AnalysisOptions,
    /// The diagnostic code the analyzer must emit.
    pub expect: &'static str,
}

/// MCA001: `r1 = r0` where `r0` has no definition at all.
fn uninit_plain() -> KernelIr {
    // KernelBuilder cannot express this defect (it defines every register
    // at creation), so build the IR directly — `validate` only checks
    // types, exactly like a real assembler.
    KernelIr {
        name: "seeded_uninit_plain".into(),
        params: vec![],
        regs: vec![Type::I32, Type::I32],
        shared_bytes: 0,
        body: vec![Instr::Mov { dst: Reg(1), src: Operand::Reg(Reg(0)) }],
    }
}

/// MCA001: `r2` written only in the then-branch, read unconditionally.
fn uninit_branch() -> KernelIr {
    KernelIr {
        name: "seeded_uninit_branch".into(),
        params: vec![Type::I32],
        regs: vec![Type::I32, Type::Bool, Type::I32],
        shared_bytes: 0,
        body: vec![
            Instr::Cmp {
                op: CmpOp::Lt,
                dst: Reg(1),
                a: Operand::Reg(Reg(0)),
                b: Operand::Imm(Value::I32(10)),
            },
            Instr::If {
                cond: Reg(1),
                then_: vec![Instr::Mov { dst: Reg(2), src: Operand::Imm(Value::I32(1)) }],
                else_: vec![],
            },
            Instr::Bin {
                op: BinOp::Add,
                dst: Reg(2),
                a: Operand::Reg(Reg(2)),
                b: Operand::Imm(Value::I32(2)),
            },
        ],
    }
}

/// MCA002: a barrier inside `if (tid < 16)` — half the block never arrives.
fn divergent_barrier_if() -> KernelIr {
    let mut k = KernelBuilder::new("seeded_divergent_barrier_if");
    let tid = k.thread_id_x();
    let c = k.cmp(CmpOp::Lt, tid, Value::I32(16));
    k.if_(c, |k| k.barrier());
    k.finish()
}

/// MCA002: a barrier inside `while (j < tid)` — per-lane trip counts.
fn divergent_barrier_loop() -> KernelIr {
    let mut k = KernelBuilder::new("seeded_divergent_barrier_loop");
    let tid = k.thread_id_x();
    let j = k.imm(Value::I32(0));
    k.while_(
        |k| k.cmp(CmpOp::Lt, j, tid),
        |k| {
            k.barrier();
            k.bin_assign(BinOp::Add, j, Value::I32(1));
        },
    );
    k.finish()
}

/// MCA003: every lane writes shared byte 0 in the same barrier interval.
fn race_same_slot() -> KernelIr {
    let mut k = KernelBuilder::new("seeded_race_same_slot");
    let sh = k.shared_alloc(4);
    let tid = k.thread_id_x();
    k.st(Space::Shared, sh, tid);
    k.finish()
}

/// MCA003: lane `i` writes `sh[i]` and reads `sh[i+1]` with no barrier in
/// between — a classic missing-`__syncthreads()` neighbour exchange.
fn race_neighbor_read() -> KernelIr {
    let mut k = KernelBuilder::new("seeded_race_neighbor_read");
    let sh = k.shared_alloc(4 * 257); // room for tid+1 at block_dim=256
    let tid = k.thread_id_x();
    k.st_elem(Space::Shared, sh, tid, tid);
    let t1 = k.bin(BinOp::Add, tid, Value::I32(1));
    let _ = k.ld_elem(Space::Shared, Type::I32, sh, t1);
    k.finish()
}

/// MCA004: stores `p[n]` when `p` holds exactly `n` elements.
fn oob_global_store() -> KernelIr {
    let mut k = KernelBuilder::new("seeded_oob_global_store");
    let p = k.param(Type::I64);
    let n = k.param(Type::I32);
    k.st_elem(Space::Global, p, n, Value::I32(7));
    k.finish()
}

/// MCA004: stores `sh[tid]` with 64 lanes into a 16-element shared array.
fn oob_shared_store() -> KernelIr {
    let mut k = KernelBuilder::new("seeded_oob_shared_store");
    let sh = k.shared_alloc(16 * 4);
    let tid = k.thread_id_x();
    k.st_elem(Space::Shared, sh, tid, tid);
    k.finish()
}

/// The full seeded-defect corpus: ≥ 2 kernels per diagnostic code.
pub fn seeded_defects() -> Vec<SeededKernel> {
    let defaults = AnalysisOptions::default();
    let mut oob_global_opts = AnalysisOptions::default();
    // p (param register 0) holds 8 i32 elements; n (param register 1) = 8.
    oob_global_opts.buffer_bytes.insert(0, 8 * 4);
    oob_global_opts.param_values.insert(1, 8);
    let oob_shared_opts = AnalysisOptions { block_dim: 64, ..AnalysisOptions::default() };
    vec![
        SeededKernel { kernel: uninit_plain(), opts: defaults.clone(), expect: crate::MCA001 },
        SeededKernel { kernel: uninit_branch(), opts: defaults.clone(), expect: crate::MCA001 },
        SeededKernel {
            kernel: divergent_barrier_if(),
            opts: defaults.clone(),
            expect: crate::MCA002,
        },
        SeededKernel {
            kernel: divergent_barrier_loop(),
            opts: defaults.clone(),
            expect: crate::MCA002,
        },
        SeededKernel { kernel: race_same_slot(), opts: defaults.clone(), expect: crate::MCA003 },
        SeededKernel { kernel: race_neighbor_read(), opts: defaults, expect: crate::MCA003 },
        SeededKernel { kernel: oob_global_store(), opts: oob_global_opts, expect: crate::MCA004 },
        SeededKernel { kernel: oob_shared_store(), opts: oob_shared_opts, expect: crate::MCA004 },
    ]
}

/// How a seeded portability defect manifests when the kernel is actually
/// executed on the vendor devices (the dynamic face of each `MCA006`–
/// `MCA010` claim, observed through the `mcmm-gpu-sim-ref` crate's
/// `diffval`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakMode {
    /// Completes on every device with identical output checksums.
    Portable,
    /// Completes everywhere, but each breaking device's output bytes
    /// differ from the (agreeing) remainder — a silent value break.
    SilentValues,
    /// Breaking devices refuse the launch outright (`BadLaunch`).
    RefusedLaunch,
    /// Breaking devices report barrier divergence — a deadlock on real
    /// hardware.
    Deadlock,
    /// Completes everywhere, but no two devices agree on the checksum:
    /// order-sensitive float atomics (informational `MCA010`).
    OrderSensitive,
}

/// One portability-corpus entry: a kernel seeded with exactly one
/// vendor-portability defect (or its defect-free twin), plus the full
/// static *and* dynamic expectation the differential tests hold it to.
#[derive(Debug, Clone)]
pub struct PortabilityKernel {
    /// The kernel under test.
    pub kernel: KernelIr,
    /// Launch/analysis assumptions (block and grid shape).
    pub opts: AnalysisOptions,
    /// The portability code this entry seeds; `None` for a clean twin,
    /// whose report must be empty on every device.
    pub expect: Option<&'static str>,
    /// `DeviceSpec::name`s on which the static gate must predict a break
    /// (`PortabilityReport::breaking_devices`). Empty for clean twins and
    /// for the non-gating `MCA010`.
    pub breaks_on: Vec<&'static str>,
    /// The behavior the simulator must exhibit.
    pub mode: BreakMode,
}

/// MCA006: `out[i] = lane < 32 ? 1 : 2` — uniformly 1 at widths 16 and
/// 32, but a 64-wide wavefront sees both arms: AMD silently diverges.
fn width_assumption_lt32() -> KernelIr {
    let mut k = KernelBuilder::new("seeded_width_lt32");
    let out = k.param(Type::I64);
    let i = k.global_thread_id_x();
    let lane = k.special(Special::LaneId);
    let c = k.cmp(CmpOp::Lt, lane, Value::I32(32));
    let v = k.sel(c, Value::I32(1), Value::I32(2));
    k.st_elem(Space::Global, out, i, v);
    k.finish()
}

/// Clean twin of [`width_assumption_lt32`]: `lane & 15` observes exactly
/// `tid % 16` at *every* width that is a multiple of 16 — same bytes on
/// all three vendors, so it must stay unflagged.
fn width_mask_portable() -> KernelIr {
    let mut k = KernelBuilder::new("portable_width_mask15");
    let out = k.param(Type::I64);
    let i = k.global_thread_id_x();
    let lane = k.special(Special::LaneId);
    let m = k.bin(BinOp::And, lane, Value::I32(15));
    k.st_elem(Space::Global, out, i, m);
    k.finish()
}

/// Shared-memory staging kernel used for the MCA007 pair: stage `tid`
/// through shared memory (distinct slots, barrier between write and
/// read) and write it back out.
fn shared_staging(name: &str, shared_bytes: u64) -> KernelIr {
    let mut k = KernelBuilder::new(name);
    let out = k.param(Type::I64);
    let sh = k.shared_alloc(shared_bytes);
    let tid = k.thread_id_x();
    let i = k.global_thread_id_x();
    k.st_elem(Space::Shared, sh, tid, tid);
    k.barrier();
    let v = k.ld_elem(Space::Shared, Type::I32, sh, tid);
    k.st_elem(Space::Global, out, i, v);
    k.finish()
}

/// Trivial `out[i] = i` kernel for the MCA008 pair — the defect lives in
/// the launch shape, not the body.
fn store_gid(name: &str) -> KernelIr {
    let mut k = KernelBuilder::new(name);
    let out = k.param(Type::I64);
    let i = k.global_thread_id_x();
    k.st_elem(Space::Global, out, i, i);
    k.finish()
}

/// MCA009: a barrier guarded by `lane < 32` — uniform (all lanes pass)
/// at widths 16 and 32, divergent at 64: deadlocks only on AMD.
fn width_dependent_barrier() -> KernelIr {
    let mut k = KernelBuilder::new("seeded_width_barrier");
    let out = k.param(Type::I64);
    let i = k.global_thread_id_x();
    k.st_elem(Space::Global, out, i, i);
    let lane = k.special(Special::LaneId);
    let c = k.cmp(CmpOp::Lt, lane, Value::I32(32));
    k.if_(c, |k| k.barrier());
    k.finish()
}

/// Clean twin of [`width_dependent_barrier`]: the same shape with an
/// unguarded (always block-uniform) barrier.
fn uniform_barrier() -> KernelIr {
    let mut k = KernelBuilder::new("portable_uniform_barrier");
    let out = k.param(Type::I64);
    let i = k.global_thread_id_x();
    k.st_elem(Space::Global, out, i, i);
    k.barrier();
    k.finish()
}

/// MCA010: every lane atomically adds a magnitude-varying `f32` into one
/// accumulator. The commit order is the device's warp-round-robin
/// schedule, so the rounded sum differs on all three widths.
fn float_atomic_reduce() -> KernelIr {
    let mut k = KernelBuilder::new("seeded_float_atomic");
    let out = k.param(Type::I64);
    let i = k.global_thread_id_x();
    let f = k.cvt(Type::F32, i);
    let sq = k.bin(BinOp::Mul, f, f);
    let v = k.bin(BinOp::Mul, sq, Value::F32(1000.1));
    k.atomic(AtomicOp::Add, Space::Global, out, v);
    k.finish()
}

/// Clean twin of [`float_atomic_reduce`]: an integer atomic sum is exact,
/// so every commit order yields the same bytes.
fn int_atomic_reduce() -> KernelIr {
    let mut k = KernelBuilder::new("portable_int_atomic");
    let out = k.param(Type::I64);
    let i = k.global_thread_id_x();
    k.atomic(AtomicOp::Add, Space::Global, out, i);
    k.finish()
}

/// The vendor-portability corpus: one seeded kernel per `MCA006`–`MCA010`
/// code, each paired with a defect-free twin of the same shape. Kept
/// separate from [`seeded_defects`] — these kernels are clean under the
/// vendor-neutral `MCA001`–`MCA005` checks and defective only relative to
/// a specific device.
pub fn portability_corpus() -> Vec<PortabilityKernel> {
    let nvidia = DeviceSpec::nvidia_a100().name;
    let amd = DeviceSpec::amd_mi250x().name;
    let intel = DeviceSpec::intel_pvc().name;
    let defaults = AnalysisOptions::default();
    vec![
        PortabilityKernel {
            kernel: width_assumption_lt32(),
            opts: defaults.clone(),
            expect: Some(crate::MCA006),
            breaks_on: vec![amd],
            mode: BreakMode::SilentValues,
        },
        PortabilityKernel {
            kernel: width_mask_portable(),
            opts: defaults.clone(),
            expect: None,
            breaks_on: vec![],
            mode: BreakMode::Portable,
        },
        PortabilityKernel {
            // 56 KiB of shared memory: over the A100's 48 KiB, within the
            // 64 KiB of the AMD and Intel parts.
            kernel: shared_staging("seeded_shared_56k", 56 << 10),
            opts: defaults.clone(),
            expect: Some(crate::MCA007),
            breaks_on: vec![nvidia],
            mode: BreakMode::RefusedLaunch,
        },
        PortabilityKernel {
            kernel: shared_staging("portable_shared_32k", 32 << 10),
            opts: defaults.clone(),
            expect: None,
            breaks_on: vec![],
            mode: BreakMode::Portable,
        },
        PortabilityKernel {
            // 2048 threads per block: over every preset device's limit.
            kernel: store_gid("seeded_block_2048"),
            opts: AnalysisOptions { block_dim: 2048, ..AnalysisOptions::default() },
            expect: Some(crate::MCA008),
            breaks_on: vec![nvidia, amd, intel],
            mode: BreakMode::RefusedLaunch,
        },
        PortabilityKernel {
            kernel: store_gid("portable_block_1024"),
            opts: AnalysisOptions { block_dim: 1024, ..AnalysisOptions::default() },
            expect: None,
            breaks_on: vec![],
            mode: BreakMode::Portable,
        },
        PortabilityKernel {
            kernel: width_dependent_barrier(),
            opts: defaults.clone(),
            expect: Some(crate::MCA009),
            breaks_on: vec![amd],
            mode: BreakMode::Deadlock,
        },
        PortabilityKernel {
            kernel: uniform_barrier(),
            opts: defaults.clone(),
            expect: None,
            breaks_on: vec![],
            mode: BreakMode::Portable,
        },
        PortabilityKernel {
            kernel: float_atomic_reduce(),
            opts: defaults.clone(),
            expect: Some(crate::MCA010),
            breaks_on: vec![], // informational: drift, not failure
            mode: BreakMode::OrderSensitive,
        },
        PortabilityKernel {
            kernel: int_atomic_reduce(),
            opts: defaults,
            expect: None,
            breaks_on: vec![],
            mode: BreakMode::Portable,
        },
    ]
}
