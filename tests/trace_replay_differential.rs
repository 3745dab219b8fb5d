//! Differential validation of traced launches on real kernels: the two
//! block engines must replay randomly generated kernels to
//! bit-identical [`MemStats`] and byte-identical output buffers across
//! all three vendor presets. The vectorized engine records a full-mask
//! access whose address form is unit-stride or single-address in affine
//! form while the reference interpreter records every lane, so equal
//! stats pin the coalescer's affine expansion to the per-lane reference,
//! on full blocks and on a partial last block that falls back to per-lane
//! records, and the vectorized engine's per-lane records of reversed and
//! non-unit strides to the reference's. (The memhier
//! unit tests pin the replay pipeline itself to a serial,
//! one-sector-at-a-time reference.) Also pins the scratch-pool
//! lifecycle: per-worker scratch reuse never leaks cache or trace state
//! across launches, and a failed launch never poisons the pool; and the
//! process-wide config override reaches new devices and nothing else.

use many_models::gpu_sim::device::{Device, KernelArg, LaunchConfig, TimingTier};
use many_models::gpu_sim::ir::{
    AtomicOp, BinOp, CmpOp, KernelBuilder, KernelIr, Space, Type, Value,
};
use many_models::gpu_sim::mem::DevicePtr;
use many_models::gpu_sim::{set_process_config, DeviceSpec, MemStats, SimConfig};
use mcmm_gpu_sim_ref::{launch_kernel, Engine};
use proptest::prelude::*;

#[path = "common/affine.rs"]
mod affine;
use affine::{affine_index, arb_index};

const N: usize = 1536;
const BLOCK: u32 = 128;

/// The environment's settings with tracing on.
fn traced() -> SimConfig {
    SimConfig { tracing: true, ..SimConfig::from_env() }
}

/// A randomly-shaped but always well-formed kernel whose *memory
/// behavior* varies run to run: a unit-stride load, a strided gather
/// (stressing coalescing and L1 reuse differently per draw), a load and
/// a store at an affine index (see [`affine::affine_index`]), an op chain, a
/// data-dependent branch, a unit-stride store, and optionally a global
/// atomic — every traced access kind.
#[derive(Debug, Clone)]
struct RandKernel {
    chain: Vec<(u8, f64)>,
    stride: i32,
    threshold: f64,
    with_atomic: bool,
    index: (i32, i32),
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
            let at = affine_index(k, i, n, this.index);
            let x_at = k.ld_elem(Space::Global, Type::F64, xp, at);
            k.bin_assign(BinOp::Add, acc, x_at);
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
            // Distinct lanes store to distinct elements past `y[..n]`,
            // unless every lane has the one index.
            if this.index.0 != 0 {
                let past = k.bin(BinOp::Add, at, n);
                k.st_elem(Space::Global, yp, past, acc);
            }
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
        arb_index(),
    )
        .prop_map(|(chain, stride, threshold, with_atomic, index)| RandKernel {
            chain,
            stride,
            threshold,
            with_atomic,
            index,
        })
}

/// Fresh buffers for a [`RandKernel`] launch of up to `N` lanes on `dev`:
/// `x` holds `5N` inputs and `y` `6N` zeros, room for every affine index,
/// and `s` the atomic's cell. Returns the arguments, `y` and `s`.
fn buffers(dev: &Device, n: usize) -> ([KernelArg; 4], DevicePtr, DevicePtr) {
    let xs: Vec<f64> = (0..5 * N).map(|i| i as f64 * 0.43 - 77.0).collect();
    let dx = dev.alloc_copy_f64(&xs).unwrap();
    let dy = dev.alloc_copy_f64(&vec![0.0; 6 * N]).unwrap();
    let ds = dev.alloc_copy_f64(&[0.0]).unwrap();
    let args =
        [KernelArg::Ptr(dx), KernelArg::Ptr(dy), KernelArg::Ptr(ds), KernelArg::I32(n as i32)];
    (args, dy, ds)
}

/// One traced launch of `n` threads on a fresh device, its blocks run by
/// `engine`: output bytes (both arrays + the atomic cell) and the
/// replayed `MemStats`.
fn run(kernel: &KernelIr, n: usize, spec: &DeviceSpec, engine: Engine) -> (Vec<u8>, MemStats) {
    let dev = Device::with_config(spec.clone(), traced());
    let (args, dy, ds) = buffers(&dev, n);
    let cfg = LaunchConfig::linear(n as u64, BLOCK);
    let report = launch_kernel(&dev, engine, kernel, cfg, &args).unwrap();
    let mut bytes = dev.memcpy_d2h(dy, 6 * N as u64 * 8).unwrap().0;
    bytes.extend(dev.memcpy_d2h(ds, 8).unwrap().0);
    (bytes, report.mem.expect("traced launch must produce mem stats"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For random kernels, on every vendor preset (warp widths
    /// 64/32/16, different cache geometries), the reference's per-lane
    /// records and the vectorized engine's affine ones replay to the same
    /// `MemStats`, and the two engines leave the same buffers, with and
    /// without a partial last block.
    #[test]
    fn tiers_agree_on_traced_random_kernels(rk in arb_kernel(), partial in partial_launch()) {
        let kernel = rk.build();
        prop_assert_eq!(kernel.validate(), Ok(()));
        for n in [N, partial] {
            for spec in DeviceSpec::presets() {
                let (ref_bytes, ref_mem) = run(&kernel, n, &spec, Engine::Reference);
                let (vector_bytes, vector_mem) = run(&kernel, n, &spec, Engine::Vectorized);
                prop_assert_eq!(
                    ref_mem, vector_mem,
                    "MemStats diverge between engines on {} (n = {})", spec.name, n
                );
                prop_assert_eq!(
                    &ref_bytes, &vector_bytes,
                    "buffers diverge between engines on {} (n = {})", spec.name, n
                );
            }
        }
    }
}

/// A strided mixed-access kernel used by the lifecycle tests below.
fn mixed_kernel() -> KernelIr {
    RandKernel {
        chain: vec![(0, 1.25), (2, 0.5)],
        stride: 17,
        threshold: 0.0,
        with_atomic: true,
        index: (3, 5),
    }
    .build()
}

/// Per-worker scratch reuse (trace arenas, L1 caches, coalescer
/// buffers) must never leak state between launches: every repeat launch
/// on one device replays to exactly the stats of the first, which equal
/// a fresh device's — and the device's totals merge them all.
#[test]
fn scratch_reuse_never_leaks_across_launches() {
    let kernel = mixed_kernel();
    let (_, fresh) = run(&kernel, N, &DeviceSpec::nvidia_a100(), Engine::Vectorized);

    let dev = Device::with_config(DeviceSpec::nvidia_a100(), traced());
    let (args, _, _) = buffers(&dev, N);
    let mut merged = MemStats::default();
    for round in 0..5 {
        let report =
            dev.launch_kernel(&kernel, LaunchConfig::linear(N as u64, BLOCK), &args).unwrap();
        let mem = report.mem.expect("traced launch must produce mem stats");
        assert_eq!(mem, fresh, "recycled scratch changed replay stats on round {round}");
        merged = merged.merged(mem);
    }
    let totals = dev.totals();
    assert_eq!((totals.traced_launches, totals.mem), (5, merged));
}

/// A launch that dies mid-flight abandons its trace without consuming
/// it; the next launch on the same device (drawing recycled scratch
/// from the same pool) must still replay to the fresh-device stats.
#[test]
fn failed_launch_does_not_poison_the_scratch_pool() {
    let kernel = mixed_kernel();
    let (_, fresh) = run(&kernel, N, &DeviceSpec::nvidia_a100(), Engine::Vectorized);

    let mut k = KernelBuilder::new("oob");
    let out = k.param(Type::I64);
    let i = k.global_thread_id_x();
    k.st_elem(Space::Global, out, i, Value::I32(1));
    let oob = k.finish();

    let dev = Device::with_config(DeviceSpec::nvidia_a100(), traced());
    // Pointer at the very end of memory → every block goes OOB.
    let bad = dev.spec().mem_bytes - 4;
    let res =
        dev.launch_kernel(&oob, LaunchConfig::linear(1024, 128), &[KernelArg::I64(bad as i64)]);
    assert!(res.is_err(), "OOB launch must fail");

    let (args, _, _) = buffers(&dev, N);
    let report = dev.launch_kernel(&kernel, LaunchConfig::linear(N as u64, BLOCK), &args).unwrap();
    assert_eq!(report.mem.expect("traced"), fresh, "stale scratch leaked past a failed launch");
}

/// Under the process-wide config override, a new device reports every
/// field of it, and `Device::with_config` still takes its own; once the
/// override is cleared, new devices are back on the environment's.
#[test]
fn process_config_override_reaches_new_devices() {
    let env = SimConfig::from_env();
    // Every field differs from the environment's.
    let forced = SimConfig {
        timing: if env.timing == TimingTier::Analytic {
            TimingTier::TraceDriven
        } else {
            TimingTier::Analytic
        },
        tracing: !env.tracing,
    };
    let fields = |d: &Device| SimConfig { timing: d.timing_tier(), tracing: d.tracing() };
    set_process_config(Some(forced));
    let overridden = Device::new(DeviceSpec::intel_pvc());
    let explicit = Device::with_config(DeviceSpec::intel_pvc(), env);
    set_process_config(None);
    let cleared = Device::new(DeviceSpec::intel_pvc());
    assert_eq!(fields(&overridden), forced);
    assert_eq!(fields(&explicit), env);
    assert_eq!(fields(&cleared), env);
}
