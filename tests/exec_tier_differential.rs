//! Differential validation of the two block engines: the scalar
//! reference interpreter (`mcmm-gpu-sim-ref`) and the device's lowered
//! lane-vector engine must be indistinguishable from outside —
//! byte-identical buffers, identical counter snapshots, identical errors
//! — on every vendor device, for randomly generated well-formed kernels,
//! for the analyzer's seeded defect corpus, for the five STREAM kernels
//! the 27-cell frontend sweep launches, and for the edges of the
//! vectorized engine's affine register forms and once-per-range memory
//! checks. The reference runs through the device's own launch path
//! (`Device::launch_kernel_with`), so only the block engine differs.

use many_models::babelstream::adapters::stream_kernels;
use many_models::babelstream::runner::{sweep, unsupported_count, verified_count};
use many_models::babelstream::{START_A, START_B, START_C};
use many_models::gpu_sim::counters::LaunchStats;
use many_models::gpu_sim::device::{Device, KernelArg, LaunchConfig};
use many_models::gpu_sim::exec::BlockCtx;
use many_models::gpu_sim::ir::{
    BinOp, CmpOp, KernelBuilder, KernelIr, Space, Special, Type, Value,
};
use many_models::gpu_sim::lower::lower;
use many_models::gpu_sim::mem::{DevicePtr, GlobalMemory};
use many_models::gpu_sim::vexec::run_block_lv;
use many_models::gpu_sim::{DeviceSpec, MemStats, SimConfig, SimError};
use mcmm_analyze::corpus;
use mcmm_gpu_sim_ref::{launch_kernel, run_block, Engine};
use proptest::prelude::*;

#[path = "common/affine.rs"]
mod affine;
use affine::{affine_index, arb_index};

/// A randomly-shaped but always well-formed kernel: an f64 op chain, a
/// data-dependent branch, and a lane-indexed loop — together covering
/// loads, stores, arithmetic, comparisons, divergence, and reconvergence —
/// plus a load and a store at an affine index (see [`affine::affine_index`]).
#[derive(Debug, Clone)]
struct RandKernel {
    chain: Vec<(u8, f64)>,
    threshold: f64,
    trips_mod: i32,
    index: (i32, i32),
}

impl RandKernel {
    fn build(&self) -> KernelIr {
        let mut k = KernelBuilder::new("rand_tier");
        let xp = k.param(Type::I64);
        let yp = k.param(Type::I64);
        let n = k.param(Type::I32);
        let i = k.global_thread_id_x();
        let ok = k.cmp(CmpOp::Lt, i, n);
        let this = self.clone();
        k.if_(ok, |k| {
            let x = k.ld_elem(Space::Global, Type::F64, xp, i);
            let acc = k.imm(Value::F64(0.0));
            k.assign(acc, x);
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
            // Divergent branch on the accumulated value.
            let t = k.imm(Value::F64(this.threshold));
            let below = k.cmp(CmpOp::Lt, acc, t);
            k.if_else(
                below,
                |k| k.bin_assign(BinOp::Mul, acc, Value::F64(-1.0)),
                |k| k.bin_assign(BinOp::Add, acc, Value::F64(0.5)),
            );
            // Per-lane trip counts: i % trips_mod iterations.
            let m = k.imm(Value::I32(this.trips_mod));
            let trips = k.bin(BinOp::Rem, i, m);
            let j = k.imm(Value::I32(0));
            k.while_(
                |k| k.cmp(CmpOp::Lt, j, trips),
                |k| {
                    k.bin_assign(BinOp::Add, acc, Value::F64(1.0));
                    k.bin_assign(BinOp::Add, j, Value::I32(1));
                },
            );
            k.st_elem(Space::Global, yp, i, acc);
            // Distinct lanes store to distinct elements past `y[..n]`,
            // unless every lane has the one index.
            if this.index.0 != 0 {
                let past = k.bin(BinOp::Add, at, n);
                k.st_elem(Space::Global, yp, past, acc);
            }
        });
        k.finish()
    }
}

fn arb_kernel() -> impl Strategy<Value = RandKernel> {
    (
        proptest::collection::vec((any::<u8>(), -3.0..3.0f64), 1..8),
        -2.0..2.0f64,
        1..9i32,
        arb_index(),
    )
        .prop_map(|(chain, threshold, trips_mod, index)| RandKernel {
            chain,
            threshold,
            trips_mod,
            index,
        })
}

/// Launch `kernel` (a [`RandKernel`]) over `n` lanes on a fresh device,
/// its blocks run by `engine`: `x` holds `5n` inputs and `y` `6n` zeros,
/// room for every affine index. Returns `y`'s bytes and the launch's
/// counters.
fn launch_rand(
    kernel: &KernelIr,
    spec: &DeviceSpec,
    engine: Engine,
    n: usize,
) -> (Vec<u8>, LaunchStats) {
    let inputs: Vec<f64> = (0..5 * n).map(|i| (i as f64) * 0.731 - 11.0).collect();
    let dev = Device::new(spec.clone());
    let dx = dev.alloc_copy_f64(&inputs).unwrap();
    let dy = dev.alloc_copy_f64(&vec![0.0; 6 * n]).unwrap();
    let args = [KernelArg::Ptr(dx), KernelArg::Ptr(dy), KernelArg::I32(n as i32)];
    let report =
        launch_kernel(&dev, engine, kernel, LaunchConfig::linear(n as u64, 64), &args).unwrap();
    (dev.memcpy_d2h(dy, 6 * n as u64 * 8).unwrap().0, report.stats)
}

/// Launch `kernel` on both engines of one vendor device and require
/// identical buffers and counter totals.
fn tiers_agree_on_device(kernel: &KernelIr, spec: DeviceSpec, n: usize) {
    let (ref_bytes, ref_stats) = launch_rand(kernel, &spec, Engine::Reference, n);
    let (vec_bytes, vec_stats) = launch_rand(kernel, &spec, Engine::Vectorized, n);
    assert_eq!(ref_bytes, vec_bytes, "buffers diverge on {}", spec.name);
    assert_eq!(ref_stats, vec_stats, "counters diverge on {}", spec.name);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random well-formed kernels produce byte-identical buffers and
    /// identical counter snapshots on both engines on all three vendor
    /// devices (whose warp widths — 64/32/16 — stress the issue
    /// accounting differently).
    #[test]
    fn tiers_agree_on_random_kernels(rk in arb_kernel()) {
        let kernel = rk.build();
        prop_assert_eq!(kernel.validate(), Ok(()));
        for spec in DeviceSpec::presets() {
            tiers_agree_on_device(&kernel, spec, 192);
        }
    }
}

/// A launch's result (its error, or its counters and replayed memory
/// stats) and the bytes of the range read back after it.
type Outcome = (Result<(LaunchStats, Option<MemStats>), SimError>, Vec<u8>);

/// Buffers for an edge-case launch: its arguments and the range to read
/// back.
type Setup<'a> = &'a dyn Fn(&Device) -> (Vec<KernelArg>, DevicePtr, u64);

fn outcome(
    spec: &DeviceSpec,
    engine: Engine,
    kernel: &KernelIr,
    cfg: LaunchConfig,
    setup: Setup,
) -> Outcome {
    let dev =
        Device::with_config(spec.clone(), SimConfig { tracing: true, ..SimConfig::from_env() });
    let (args, back, len) = setup(&dev);
    let res = launch_kernel(&dev, engine, kernel, cfg, &args).map(|r| (r.stats, r.mem));
    (res, dev.memcpy_d2h(back, len).unwrap().0)
}

/// Launch `kernel` on a fresh traced device of every preset, on both
/// engines, and require the same error, or the same counters and memory
/// stats, and the same bytes. Returns the reference's results.
fn edge_case_agrees(
    name: &str,
    kernel: &KernelIr,
    cfg: LaunchConfig,
    setup: Setup,
) -> Vec<Result<(LaunchStats, Option<MemStats>), SimError>> {
    let mut results = Vec::new();
    for spec in DeviceSpec::presets() {
        let run = |engine| outcome(&spec, engine, kernel, cfg, setup);
        let (want, want_bytes) = run(Engine::Reference);
        let (got, got_bytes) = run(Engine::Vectorized);
        assert_eq!(got, want, "{name} on {}: results", spec.name);
        assert_eq!(got_bytes, want_bytes, "{name} on {}: bytes", spec.name);
        results.push(want);
    }
    results
}

/// The edges of the vectorized engine's affine forms and its
/// once-per-range checks, each held to the reference on every preset.
#[test]
fn tiers_agree_on_affine_edge_cases() {
    // i32 lanes that wrap before their widening to i64, which therefore
    // sign-extends lane by lane: `i·2^30` from lane 2 on and
    // `i + i32::MAX - 100` from lane 101 on. Both are stored as i64, and
    // the wrapped i32 lanes as themselves. Full-mask comparisons of the
    // wrapping forms, against 0 and against each other, see each lane as
    // an i32; a `Sel` on each stores a flag per lane.
    let mut k = KernelBuilder::new("wrap_then_widen");
    let (wide, narrow, flags) = (k.param(Type::I64), k.param(Type::I64), k.param(Type::I64));
    let i = k.thread_id_x();
    let big = k.bin(BinOp::Mul, i, Value::I32(1 << 30));
    let near_max = k.bin(BinOp::Add, i, Value::I32(i32::MAX - 100));
    let (wide_big, wide_near) = (k.cvt(Type::I64, big), k.cvt(Type::I64, near_max));
    let sum = k.bin(BinOp::Add, wide_big, wide_near);
    k.st_elem(Space::Global, wide, i, sum);
    k.st_elem(Space::Global, narrow, i, near_max);
    let negative = k.cmp(CmpOp::Lt, near_max, Value::I32(0));
    let below = k.cmp(CmpOp::Lt, big, near_max);
    let neg_flag = k.sel(negative, Value::I32(1), Value::I32(0));
    let below_flag = k.sel(below, Value::I32(2), Value::I32(0));
    let flag = k.bin(BinOp::Or, neg_flag, below_flag);
    k.st_elem(Space::Global, flags, i, flag);
    let results =
        edge_case_agrees("wrap_then_widen", &k.finish(), LaunchConfig::linear(256, 256), &|dev| {
            let p = dev.alloc(256 * 16).unwrap();
            let args = [p, p.offset(256 * 8), p.offset(256 * 12)].map(KernelArg::Ptr);
            (args.into(), p, 256 * 16)
        });
    assert!(results.iter().all(Result::is_ok));

    // A unit-stride load, and a unit-stride store, that run off the end
    // of memory at lane 20 of 64: each fails there, and the store's lanes
    // 0..20 commit first.
    for store in [false, true] {
        let name = if store { "store_off_the_end" } else { "load_off_the_end" };
        let mut k = KernelBuilder::new(name);
        let (tail, out) = (k.param(Type::I64), k.param(Type::I64));
        let i = k.thread_id_x();
        let v =
            if store { k.cvt(Type::F64, i) } else { k.ld_elem(Space::Global, Type::F64, tail, i) };
        k.st_elem(Space::Global, if store { tail } else { out }, i, v);
        let results = edge_case_agrees(name, &k.finish(), LaunchConfig::linear(64, 64), &|dev| {
            let tail = dev.spec().mem_bytes - 20 * 8;
            let out = dev.alloc(64 * 8).unwrap();
            (vec![KernelArg::I64(tail as i64), KernelArg::Ptr(out)], DevicePtr(tail), 20 * 8)
        });
        for (res, spec) in results.iter().zip(DeviceSpec::presets()) {
            let want = SimError::OutOfBounds { addr: spec.mem_bytes, len: 8 };
            assert_eq!(res.as_ref().err(), Some(&want), "{name} on {}", spec.name);
        }
    }

    // A unit-stride f64 load from a base 4 bytes off alignment: lane 0
    // is misaligned.
    let mut k = KernelBuilder::new("misaligned_base");
    let (base, out) = (k.param(Type::I64), k.param(Type::I64));
    let i = k.thread_id_x();
    let v = k.ld_elem(Space::Global, Type::F64, base, i);
    k.st_elem(Space::Global, out, i, v);
    let at = std::cell::Cell::new(0);
    let results =
        edge_case_agrees("misaligned_base", &k.finish(), LaunchConfig::linear(64, 64), &|dev| {
            let (p, out) = (dev.alloc(65 * 8).unwrap(), dev.alloc(64 * 8).unwrap());
            at.set(p.0 + 4);
            (vec![KernelArg::I64(p.0 as i64 + 4), KernelArg::Ptr(out)], out, 64 * 8)
        });
    let want = SimError::Misaligned { addr: at.get(), align: 8 };
    assert!(results.iter().all(|res| res.as_ref().err() == Some(&want)));

    // 150 lanes in blocks of 64: the last block's branch on `i < n` runs
    // 22 of its lanes, whose int forms are written out and whose loads
    // and stores go lane by lane.
    let mut k = KernelBuilder::new("partial_last_block");
    let (x, y, z, n) =
        (k.param(Type::I64), k.param(Type::I64), k.param(Type::I64), k.param(Type::I32));
    let i = k.global_thread_id_x();
    let ok = k.cmp(CmpOp::Lt, i, n);
    k.if_(ok, |k| {
        let v = k.ld_elem(Space::Global, Type::F64, x, i);
        let w = k.bin(BinOp::Mul, v, Value::F64(2.0));
        k.st_elem(Space::Global, y, i, w);
        let four_i = k.bin(BinOp::Shl, i, Value::I32(2));
        let three_i = k.bin(BinOp::Sub, four_i, i);
        k.st_elem(Space::Global, z, i, three_i);
    });
    let results = edge_case_agrees(
        "partial_last_block",
        &k.finish(),
        LaunchConfig::linear(150, 64),
        &|dev| {
            let xs: Vec<f64> = (0..192).map(|i| f64::from(i) * 0.5 - 3.0).collect();
            let (x, out) = (dev.alloc_copy_f64(&xs).unwrap(), dev.alloc(192 * 12).unwrap());
            let args = vec![
                KernelArg::Ptr(x),
                KernelArg::Ptr(out),
                KernelArg::Ptr(out.offset(192 * 8)),
                KernelArg::I32(150),
            ];
            (args, out, 192 * 12)
        },
    );
    assert!(results.iter().all(Result::is_ok));

    // `LaneId` under a divergent mask: odd lanes overwrite a thread-id
    // form with their lane id, so the form is written out first and the
    // even lanes keep their thread id.
    let mut k = KernelBuilder::new("lane_id_divergent");
    let out = k.param(Type::I64);
    let i = k.thread_id_x();
    let v = k.mov(i);
    let bit = k.bin(BinOp::And, i, Value::I32(1));
    let odd = k.cmp(CmpOp::Ne, bit, Value::I32(0));
    k.if_(odd, |k| {
        let lane = k.special(Special::LaneId);
        k.assign(v, lane);
    });
    k.st_elem(Space::Global, out, i, v);
    let results =
        edge_case_agrees("lane_id_divergent", &k.finish(), LaunchConfig::linear(96, 96), &|dev| {
            let p = dev.alloc(96 * 4).unwrap();
            (vec![KernelArg::Ptr(p)], p, 96 * 4)
        });
    assert!(results.iter().all(Result::is_ok));
}

/// The analyzer's seeded defect corpus, block-level: some of these
/// kernels error at runtime, some run clean — in every case the two
/// engines must agree on the outcome, and when both succeed, on the
/// counter totals.
#[test]
fn tiers_agree_on_analyzer_corpus() {
    for entry in corpus::seeded_defects() {
        let kernel = &entry.kernel;
        let prog = lower(kernel);
        let run_engine = |vectorized: bool| {
            let mem = GlobalMemory::new(1 << 16);
            let ctx = BlockCtx {
                kernel,
                global: &mem,
                block_id: 0,
                grid_dim: entry.opts.grid_dim,
                block_dim: entry.opts.block_dim,
                warp_width: entry.opts.warp_width,
                trace: None,
            };
            if vectorized {
                run_block_lv(&ctx, &prog, &[])
            } else {
                run_block(&ctx, &[])
            }
        };
        // A block that succeeds returns its counters, so this compares
        // outcomes and, when both succeed, counter totals.
        let (ref_res, vec_res) = (run_engine(false), run_engine(true));
        assert_eq!(ref_res, vec_res, "engines disagree on corpus kernel `{}`", kernel.name);
    }
}

/// A device lowers each distinct kernel once and serves every further
/// launch from its kernel cache, whichever engine runs the blocks.
#[test]
fn program_cache_serves_repeat_launches() {
    let mut k = KernelBuilder::new("cached");
    let out = k.param(Type::I64);
    let i = k.global_thread_id_x();
    k.st_elem(Space::Global, out, i, i);
    let kernel = k.finish();

    for engine in [Engine::Vectorized, Engine::Reference] {
        let dev = Device::new(DeviceSpec::amd_mi250x());
        let p = dev.alloc(256 * 4).unwrap();
        let cfg = LaunchConfig::linear(256, 128);
        for _ in 0..3 {
            launch_kernel(&dev, engine, &kernel, cfg, &[KernelArg::Ptr(p)]).unwrap();
        }
        let stats = dev.program_cache_stats();
        assert_eq!(stats.misses, 1, "{engine:?} lowering count");
        assert_eq!(stats.hits, 2, "{engine:?} cache hits");
    }
}

/// One launch of each STREAM kernel in the sweep's order (Copy, Mul, Add,
/// Triad, Dot) over `n` elements on a fresh device, its blocks run by
/// `engine`: after each launch, its counters and the bytes of `a`, `b`,
/// `c` and the sum cell.
fn stream_launches(spec: &DeviceSpec, engine: Engine, n: usize) -> Vec<(LaunchStats, Vec<u8>)> {
    let dev = Device::new(spec.clone());
    let arrays = [START_A, START_B, START_C].map(|x| dev.alloc_copy_f64(&vec![x; n]).unwrap());
    let sum = dev.alloc_copy_f64(&[0.0]).unwrap();
    let mut args: Vec<KernelArg> =
        arrays.iter().chain([&sum]).map(|&p| KernelArg::Ptr(p)).collect();
    args.push(KernelArg::I32(n as i32));
    let cfg = LaunchConfig::linear(n as u64, 256);
    stream_kernels()
        .iter()
        .map(|kernel| {
            let stats = launch_kernel(&dev, engine, kernel, cfg, &args).unwrap().stats;
            let mut bytes: Vec<u8> = Vec::new();
            for (p, len) in arrays.iter().map(|&p| (p, n as u64 * 8)).chain([(sum, 8)]) {
                bytes.extend(dev.memcpy_d2h(p, len).unwrap().0);
            }
            (stats, bytes)
        })
        .collect()
}

/// The five STREAM kernels behind every cell of the 27-cell sweep, on
/// every preset: both engines leave equal counters and equal bytes after
/// each launch. Dot's sum cell is compared by value, not bytes: its
/// cross-block f64 atomics retire in scheduler order, so its last bits
/// differ from run to run on either engine.
#[test]
fn stream_kernels_agree_on_every_preset() {
    const N: usize = 1000; // four blocks of 256, the last one partial
    let names = ["Copy", "Mul", "Add", "Triad", "Dot"];
    for spec in DeviceSpec::presets() {
        let want = stream_launches(&spec, Engine::Reference, N);
        let got = stream_launches(&spec, Engine::Vectorized, N);
        for ((name, (want_stats, want_bytes)), (got_stats, got_bytes)) in
            names.iter().zip(&want).zip(&got)
        {
            assert_eq!(got_stats, want_stats, "{name} on {}: counters", spec.name);
            let arrays = 3 * N * 8;
            assert_eq!(
                got_bytes[..arrays],
                want_bytes[..arrays],
                "{name} on {}: arrays",
                spec.name
            );
            let cell = |b: &[u8]| f64::from_le_bytes(b[arrays..].try_into().unwrap());
            let (want_sum, got_sum) = (cell(want_bytes), cell(got_bytes));
            if *name == "Dot" {
                let tolerance = 1e-12 * want_sum.abs();
                assert!((got_sum - want_sum).abs() <= tolerance, "Dot on {}: sum", spec.name);
            } else {
                assert_eq!(got_sum.to_bits(), want_sum.to_bits(), "{name} on {}: sum", spec.name);
            }
        }
    }
}

/// The 27-cell model × vendor sweep reports the paper's support pattern:
/// 23 verified, 4 matrix holes. The cells launch only the five STREAM
/// kernels, which [`stream_kernels_agree_on_every_preset`] holds to the
/// reference engine.
#[test]
fn conformance_sweep_verifies_23_cells() {
    let s = sweep(256, 1);
    assert_eq!(s.entries.len(), 27);
    assert_eq!(verified_count(&s), 23, "verified cells");
    assert_eq!(unsupported_count(&s), 4, "matrix holes");
}
