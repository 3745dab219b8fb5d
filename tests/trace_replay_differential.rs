//! Differential validation of the streaming trace-replay pipeline: the
//! parallel per-block path (L1 on the worker thread, deferred shared L2
//! stage) must be indistinguishable from the retained buffered serial
//! replay — bit-identical [`MemStats`] and byte-identical output
//! buffers for randomly generated kernels across all three vendor
//! presets and both execution tiers. The two tiers must agree too:
//! the vectorized tier records full-mask unit-stride and single-address
//! accesses in affine form while the scalar tier records every lane, so
//! equal stats pin the coalescer's affine expansion to the per-lane
//! reference, on full blocks and on a partial last block that falls
//! back to per-lane records. Also pins the scratch-pool
//! lifecycle: per-worker scratch reuse never leaks cache or trace state
//! across launches, a failed launch never poisons the pool, and the
//! process-wide replay-mode override reaches subsequently created
//! devices.

use many_models::gpu_sim::device::{Device, ExecTier, KernelArg, LaunchConfig};
use many_models::gpu_sim::ir::{
    AtomicOp, BinOp, CmpOp, KernelBuilder, KernelIr, Space, Type, Value,
};
use many_models::gpu_sim::{set_process_replay_mode, DeviceSpec, MemStats, ReplayMode};
use proptest::prelude::*;
use std::sync::Mutex;

const N: usize = 1536;
const BLOCK: u32 = 128;

/// Serializes the tests that touch the process-wide replay override.
static KNOB_LOCK: Mutex<()> = Mutex::new(());

/// A randomly-shaped but always well-formed kernel whose *memory
/// behavior* varies run to run: a unit-stride load, a strided gather
/// (stressing coalescing and L1 reuse differently per draw), an op
/// chain, a data-dependent branch, a unit-stride store, and optionally
/// a global atomic — every traced access kind.
#[derive(Debug, Clone)]
struct RandKernel {
    chain: Vec<(u8, f64)>,
    stride: i32,
    threshold: f64,
    with_atomic: bool,
}

impl RandKernel {
    fn build(&self) -> KernelIr {
        let mut k = KernelBuilder::new("rand_trace");
        let xp = k.param(Type::I64);
        let yp = k.param(Type::I64);
        let sp = k.param(Type::I64);
        let n = k.param(Type::I32);
        let i = k.global_thread_id_x();
        let ok = k.cmp(CmpOp::Lt, i, n);
        let this = self.clone();
        k.if_(ok, |k| {
            let x = k.ld_elem(Space::Global, Type::F64, xp, i);
            let is = k.bin(BinOp::Mul, i, Value::I32(this.stride));
            let j = k.bin(BinOp::Rem, is, n);
            let xj = k.ld_elem(Space::Global, Type::F64, xp, j);
            let acc = k.imm(Value::F64(0.0));
            k.assign(acc, x);
            k.bin_assign(BinOp::Add, acc, xj);
            for &(op, c) in &this.chain {
                let op = match op % 5 {
                    0 => BinOp::Add,
                    1 => BinOp::Sub,
                    2 => BinOp::Mul,
                    3 => BinOp::Min,
                    _ => BinOp::Max,
                };
                k.bin_assign(op, acc, Value::F64(c));
            }
            let t = k.imm(Value::F64(this.threshold));
            let below = k.cmp(CmpOp::Lt, acc, t);
            k.if_else(
                below,
                |k| k.bin_assign(BinOp::Mul, acc, Value::F64(-1.0)),
                |k| k.bin_assign(BinOp::Add, acc, Value::F64(0.5)),
            );
            k.st_elem(Space::Global, yp, i, acc);
            if this.with_atomic {
                k.atomic(AtomicOp::Add, Space::Global, sp, Value::F64(1.0));
            }
        });
        k.finish()
    }
}

/// Launch sizes that leave a partial last block: its lanes past `n`
/// are masked off, so the vectorized tier records that block's accesses
/// lane by lane beside the affine records of the full blocks.
fn partial_launch() -> impl Strategy<Value = usize> {
    let block = BLOCK as usize;
    (1..N / block, 1..block).prop_map(move |(blocks, rem)| blocks * block + rem)
}

fn arb_kernel() -> impl Strategy<Value = RandKernel> {
    (
        proptest::collection::vec((any::<u8>(), -3.0..3.0f64), 1..6),
        1..33i32,
        -2.0..2.0f64,
        any::<bool>(),
    )
        .prop_map(|(chain, stride, threshold, with_atomic)| RandKernel {
            chain,
            stride,
            threshold,
            with_atomic,
        })
}

/// One traced launch of `n` threads on a fresh device with the given
/// knobs: output bytes (both arrays + the atomic cell) and the replayed
/// `MemStats`.
fn run(
    kernel: &KernelIr,
    n: usize,
    spec: &DeviceSpec,
    tier: ExecTier,
    mode: ReplayMode,
) -> (Vec<u8>, MemStats) {
    let dev = Device::new(spec.clone());
    dev.set_exec_tier(tier);
    dev.set_tracing(true);
    dev.set_replay_mode(mode);
    let xs: Vec<f64> = (0..N).map(|i| i as f64 * 0.43 - 77.0).collect();
    let dx = dev.alloc_copy_f64(&xs).unwrap();
    let dy = dev.alloc_copy_f64(&vec![0.0; N]).unwrap();
    let ds = dev.alloc_copy_f64(&[0.0]).unwrap();
    let report = dev
        .launch_kernel(
            kernel,
            LaunchConfig::linear(n as u64, BLOCK),
            &[KernelArg::Ptr(dx), KernelArg::Ptr(dy), KernelArg::Ptr(ds), KernelArg::I32(n as i32)],
        )
        .unwrap();
    let mut bytes = dev.memcpy_d2h(dy, N as u64 * 8).unwrap().0;
    bytes.extend(dev.memcpy_d2h(ds, 8).unwrap().0);
    (bytes, report.mem.expect("traced launch must produce mem stats"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The production streaming pipeline is an exact refactoring of the
    /// buffered serial replay: for random kernels, on every vendor
    /// preset (warp widths 64/32/16, different cache geometries) and
    /// under both execution tiers, the two replay modes produce
    /// bit-identical `MemStats` — and, tracing being an observer,
    /// byte-identical buffers. The scalar tier's per-lane records and
    /// the vectorized tier's affine ones replay to the same stats and
    /// buffers as well, with and without a partial last block.
    #[test]
    fn replay_modes_agree_on_random_kernels(rk in arb_kernel(), partial in partial_launch()) {
        let kernel = rk.build();
        prop_assert_eq!(kernel.validate(), Ok(()));
        for n in [N, partial] {
            for spec in DeviceSpec::presets() {
                let mut tiers = Vec::new();
                for tier in [ExecTier::Scalar, ExecTier::Vectorized] {
                    let (buf_bytes, buf_mem) = run(&kernel, n, &spec, tier, ReplayMode::Buffered);
                    let (str_bytes, str_mem) = run(&kernel, n, &spec, tier, ReplayMode::Streaming);
                    prop_assert_eq!(
                        buf_mem, str_mem,
                        "MemStats diverge on {} ({:?}, n = {})", spec.name, tier, n
                    );
                    prop_assert_eq!(
                        &buf_bytes, &str_bytes,
                        "buffers diverge on {} ({:?}, n = {})", spec.name, tier, n
                    );
                    tiers.push((str_bytes, str_mem));
                }
                prop_assert_eq!(
                    tiers[0].1, tiers[1].1,
                    "MemStats diverge between tiers on {} (n = {})", spec.name, n
                );
                prop_assert_eq!(
                    &tiers[0].0, &tiers[1].0,
                    "buffers diverge between tiers on {} (n = {})", spec.name, n
                );
            }
        }
    }
}

/// A strided mixed-access kernel used by the lifecycle tests below.
fn mixed_kernel() -> KernelIr {
    RandKernel { chain: vec![(0, 1.25), (2, 0.5)], stride: 17, threshold: 0.0, with_atomic: true }
        .build()
}

/// Per-worker scratch reuse (trace arenas, L1 caches, coalescer
/// buffers) must never leak state between launches: every repeat launch
/// on one device replays to exactly the stats of the first, which equal
/// a fresh device's — and the cumulative cell merges them all.
#[test]
fn scratch_reuse_never_leaks_across_launches() {
    let kernel = mixed_kernel();
    let (_, fresh) =
        run(&kernel, N, &DeviceSpec::nvidia_a100(), ExecTier::Vectorized, ReplayMode::Streaming);

    let dev = Device::new(DeviceSpec::nvidia_a100());
    dev.set_tracing(true);
    dev.set_replay_mode(ReplayMode::Streaming);
    let xs: Vec<f64> = (0..N).map(|i| i as f64 * 0.43 - 77.0).collect();
    let dx = dev.alloc_copy_f64(&xs).unwrap();
    let dy = dev.alloc_copy_f64(&vec![0.0; N]).unwrap();
    let ds = dev.alloc_copy_f64(&[0.0]).unwrap();
    let args =
        [KernelArg::Ptr(dx), KernelArg::Ptr(dy), KernelArg::Ptr(ds), KernelArg::I32(N as i32)];
    let mut merged = MemStats::default();
    for round in 0..5 {
        let report =
            dev.launch_kernel(&kernel, LaunchConfig::linear(N as u64, BLOCK), &args).unwrap();
        let mem = report.mem.expect("traced launch must produce mem stats");
        assert_eq!(mem, fresh, "recycled scratch changed replay stats on round {round}");
        merged = merged.merged(mem);
    }
    assert_eq!(dev.mem_launches(), 5);
    assert_eq!(dev.mem_stats(), merged);
}

/// A launch that dies mid-flight abandons its trace without consuming
/// it; the next launch on the same device (drawing recycled scratch
/// from the same pool) must still replay to the fresh-device stats.
#[test]
fn failed_launch_does_not_poison_the_scratch_pool() {
    let kernel = mixed_kernel();
    let (_, fresh) =
        run(&kernel, N, &DeviceSpec::nvidia_a100(), ExecTier::Vectorized, ReplayMode::Streaming);

    let mut k = KernelBuilder::new("oob");
    let out = k.param(Type::I64);
    let i = k.global_thread_id_x();
    k.st_elem(Space::Global, out, i, Value::I32(1));
    let oob = k.finish();

    let dev = Device::new(DeviceSpec::nvidia_a100());
    dev.set_tracing(true);
    dev.set_replay_mode(ReplayMode::Streaming);
    // Pointer at the very end of memory → every block goes OOB.
    let bad = dev.spec().mem_bytes - 4;
    let res =
        dev.launch_kernel(&oob, LaunchConfig::linear(1024, 128), &[KernelArg::I64(bad as i64)]);
    assert!(res.is_err(), "OOB launch must fail");

    let xs: Vec<f64> = (0..N).map(|i| i as f64 * 0.43 - 77.0).collect();
    let dx = dev.alloc_copy_f64(&xs).unwrap();
    let dy = dev.alloc_copy_f64(&vec![0.0; N]).unwrap();
    let ds = dev.alloc_copy_f64(&[0.0]).unwrap();
    let report = dev
        .launch_kernel(
            &kernel,
            LaunchConfig::linear(N as u64, BLOCK),
            &[KernelArg::Ptr(dx), KernelArg::Ptr(dy), KernelArg::Ptr(ds), KernelArg::I32(N as i32)],
        )
        .unwrap();
    assert_eq!(report.mem.expect("traced"), fresh, "stale scratch leaked past a failed launch");
}

/// The process-wide override reaches subsequently created devices and
/// clears cleanly; both settings still replay to identical stats.
#[test]
fn process_replay_override_reaches_new_devices() {
    let _guard = KNOB_LOCK.lock().unwrap();
    let kernel = mixed_kernel();
    set_process_replay_mode(Some(ReplayMode::Buffered));
    let dev = Device::new(DeviceSpec::intel_pvc());
    assert_eq!(dev.replay_mode(), ReplayMode::Buffered);
    set_process_replay_mode(None);
    let dev2 = Device::new(DeviceSpec::intel_pvc());
    assert_eq!(dev2.replay_mode(), ReplayMode::Streaming);

    let launch = |dev: &Device| {
        dev.set_tracing(true);
        let xs: Vec<f64> = (0..N).map(|i| i as f64 * 0.43 - 77.0).collect();
        let dx = dev.alloc_copy_f64(&xs).unwrap();
        let dy = dev.alloc_copy_f64(&vec![0.0; N]).unwrap();
        let ds = dev.alloc_copy_f64(&[0.0]).unwrap();
        dev.launch_kernel(
            &kernel,
            LaunchConfig::linear(N as u64, BLOCK),
            &[KernelArg::Ptr(dx), KernelArg::Ptr(dy), KernelArg::Ptr(ds), KernelArg::I32(N as i32)],
        )
        .unwrap()
        .mem
        .expect("traced")
    };
    assert_eq!(launch(&dev), launch(&dev2), "replay modes disagree across the process knob");
}
