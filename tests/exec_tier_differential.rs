//! Differential validation of the two execution tiers: the scalar
//! reference interpreter and the lowered lane-vector tier must be
//! indistinguishable from outside — byte-identical buffers, identical
//! counter snapshots, identical errors — on every vendor device, for
//! randomly generated well-formed kernels and for the analyzer's seeded
//! defect corpus alike. Also pins the contracts around the tier knob:
//! `run_block_racecheck` stays on the scalar tier no matter what the
//! process-wide override says, and the 27-cell frontend sweep reports the
//! same support pattern under both tiers.

use many_models::babelstream::runner::{sweep, unsupported_count, verified_count};
use many_models::gpu_sim::counters::{Counters, LaunchStats};
use many_models::gpu_sim::device::{Device, ExecTier, KernelArg, LaunchConfig};
use many_models::gpu_sim::exec::{run_block, run_block_racecheck, BlockCtx};
use many_models::gpu_sim::ir::{BinOp, CmpOp, KernelBuilder, KernelIr, Space, Type, Value};
use many_models::gpu_sim::lower::lower;
use many_models::gpu_sim::mem::GlobalMemory;
use many_models::gpu_sim::vexec::run_block_lv;
use many_models::gpu_sim::{set_process_config, DeviceSpec, OptLevel, SimConfig};
use mcmm_analyze::portability::portability;
use mcmm_analyze::{analyze, corpus, MCA003};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes the tests that touch the process-wide config override, so
/// they cannot race each other (or leak a forced setting into a test
/// that assumed the default).
static TIER_LOCK: Mutex<()> = Mutex::new(());

/// A randomly-shaped but always well-formed kernel: an f64 op chain, a
/// data-dependent branch, and a lane-indexed loop — together covering
/// loads, stores, arithmetic, comparisons, divergence, and reconvergence.
#[derive(Debug, Clone)]
struct RandKernel {
    chain: Vec<(u8, f64)>,
    threshold: f64,
    trips_mod: i32,
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
        });
        k.finish()
    }
}

fn arb_kernel() -> impl Strategy<Value = RandKernel> {
    (proptest::collection::vec((any::<u8>(), -3.0..3.0f64), 1..8), -2.0..2.0f64, 1..9i32)
        .prop_map(|(chain, threshold, trips_mod)| RandKernel { chain, threshold, trips_mod })
}

/// Launch `kernel` on both tiers of one vendor device (per-device
/// config — no global state) and require identical buffers and counter
/// totals.
fn tiers_agree_on_device(kernel: &KernelIr, spec: DeviceSpec, n: usize) {
    let inputs: Vec<f64> = (0..n).map(|i| (i as f64) * 0.731 - 11.0).collect();
    let run_tier = |tier: ExecTier| {
        let dev =
            Device::with_config(spec.clone(), SimConfig { exec: tier, ..SimConfig::from_env() });
        let dx = dev.alloc_copy_f64(&inputs).unwrap();
        let dy = dev.alloc_copy_f64(&vec![0.0; n]).unwrap();
        let report = dev
            .launch_kernel(
                kernel,
                LaunchConfig::linear(n as u64, 64),
                &[KernelArg::Ptr(dx), KernelArg::Ptr(dy), KernelArg::I32(n as i32)],
            )
            .unwrap();
        let bytes = dev.memcpy_d2h(dy, n as u64 * 8).unwrap().0;
        (bytes, report.stats)
    };
    let (scalar_bytes, scalar_stats) = run_tier(ExecTier::Scalar);
    let (vec_bytes, vec_stats) = run_tier(ExecTier::Vectorized);
    assert_eq!(scalar_bytes, vec_bytes, "buffers diverge on {}", spec.name);
    assert_eq!(scalar_stats, vec_stats, "counters diverge on {}", spec.name);
}

/// The counters optimization is not allowed to change: what the kernel
/// does to memory and how the launch was shaped. (`warp_instructions`,
/// `warp_arith`, and `bytes_read` legitimately shrink when the
/// middle-end removes arithmetic or merges redundant loads.)
fn semantic_counters(s: &LaunchStats) -> (u64, u64, u64, u64, u64) {
    (s.bytes_written, s.atomics, s.barriers, s.blocks, s.warps)
}

/// Launch `kernel` at every optimization level on both tiers of one
/// vendor device (per-device config — no global state) and require
/// byte-identical output buffers and identical semantic counters across
/// all six runs.
fn levels_agree_on_device(kernel: &KernelIr, spec: &DeviceSpec, n: usize) {
    let inputs: Vec<f64> = (0..n).map(|i| (i as f64) * 0.731 - 11.0).collect();
    let run = |tier: ExecTier, level: OptLevel| {
        let config = SimConfig { exec: tier, opt: level, ..SimConfig::from_env() };
        let dev = Device::with_config(spec.clone(), config);
        let dx = dev.alloc_copy_f64(&inputs).unwrap();
        let dy = dev.alloc_copy_f64(&vec![0.0; n]).unwrap();
        let report = dev
            .launch_kernel(
                kernel,
                LaunchConfig::linear(n as u64, 64),
                &[KernelArg::Ptr(dx), KernelArg::Ptr(dy), KernelArg::I32(n as i32)],
            )
            .unwrap();
        let bytes = dev.memcpy_d2h(dy, n as u64 * 8).unwrap().0;
        (bytes, report.stats)
    };
    let (ref_bytes, ref_stats) = run(ExecTier::Scalar, OptLevel::O0);
    for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
        for tier in [ExecTier::Scalar, ExecTier::Vectorized] {
            let (bytes, stats) = run(tier, level);
            assert_eq!(ref_bytes, bytes, "buffers diverge at {level} on {} ({tier:?})", spec.name);
            assert_eq!(
                semantic_counters(&ref_stats),
                semantic_counters(&stats),
                "semantic counters diverge at {level} on {} ({tier:?})",
                spec.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random well-formed kernels produce byte-identical buffers and
    /// identical counter snapshots under both tiers on all three vendor
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

    /// Random well-formed kernels produce byte-identical buffers and
    /// identical semantic counters at every optimization level × tier ×
    /// vendor combination — the middle-end's end-to-end soundness
    /// contract, exercised against the scalar-O0 reference.
    #[test]
    fn opt_levels_agree_on_random_kernels(rk in arb_kernel()) {
        let kernel = rk.build();
        prop_assert_eq!(kernel.validate(), Ok(()));
        for spec in DeviceSpec::presets() {
            levels_agree_on_device(&kernel, &spec, 192);
        }
    }
}

/// The analyzer's seeded defect corpus, block-level: some of these
/// kernels error at runtime, some run clean — in every case the two
/// tiers must agree on the outcome, and when both succeed, on the
/// counter totals.
#[test]
fn tiers_agree_on_analyzer_corpus() {
    for entry in corpus::seeded_defects() {
        let kernel = &entry.kernel;
        let prog = lower(kernel);
        let run_tier = |vectorized: bool| {
            let mem = GlobalMemory::new(1 << 16);
            let counters = Counters::new();
            let ctx = BlockCtx {
                kernel,
                global: &mem,
                counters: &counters,
                block_id: 0,
                grid_dim: entry.opts.grid_dim,
                block_dim: entry.opts.block_dim,
                warp_width: entry.opts.warp_width,
                trace: None,
            };
            let res =
                if vectorized { run_block_lv(&ctx, &prog, &[]) } else { run_block(&ctx, &[]) };
            (res, counters.snapshot())
        };
        let (scalar_res, scalar_stats) = run_tier(false);
        let (vec_res, vec_stats) = run_tier(true);
        assert_eq!(scalar_res, vec_res, "tiers disagree on corpus kernel `{}`", kernel.name);
        if scalar_res.is_ok() {
            assert_eq!(
                scalar_stats, vec_stats,
                "tier counters disagree on corpus kernel `{}`",
                kernel.name
            );
        }
    }
}

/// `run_block_racecheck` is pinned to the scalar tier: even with the
/// process-wide override forcing vectorized execution, the dynamic race
/// detector keeps working (its shadow access log needs the scalar
/// interpreter's per-access hooks).
#[test]
fn racecheck_stays_on_the_scalar_tier() {
    let _guard = TIER_LOCK.lock().unwrap();
    set_process_config(Some(SimConfig { exec: ExecTier::Vectorized, ..SimConfig::from_env() }));
    let racy = corpus::seeded_defects()
        .into_iter()
        .find(|e| e.expect == MCA003)
        .expect("corpus seeds at least one race kernel");
    let mem = GlobalMemory::new(1 << 16);
    let counters = Counters::new();
    let ctx = BlockCtx {
        kernel: &racy.kernel,
        global: &mem,
        counters: &counters,
        block_id: 0,
        grid_dim: racy.opts.grid_dim,
        block_dim: racy.opts.block_dim,
        warp_width: racy.opts.warp_width,
        trace: None,
    };
    let findings = run_block_racecheck(&ctx, &[]).expect("race kernel takes no arguments");
    set_process_config(None);
    assert!(!findings.is_empty(), "racecheck lost its findings under a forced vectorized tier");
}

/// A vectorized device lowers each distinct kernel once and serves every
/// further launch from its program cache; a scalar device never touches
/// the cache at all.
#[test]
fn program_cache_serves_repeat_launches() {
    let mut k = KernelBuilder::new("cached");
    let out = k.param(Type::I64);
    let i = k.global_thread_id_x();
    k.st_elem(Space::Global, out, i, i);
    let kernel = k.finish();

    for (tier, want_misses, want_hits) in [(ExecTier::Vectorized, 1, 2), (ExecTier::Scalar, 0, 0)] {
        let dev = Device::with_config(
            DeviceSpec::amd_mi250x(),
            SimConfig { exec: tier, ..SimConfig::from_env() },
        );
        let p = dev.alloc(256 * 4).unwrap();
        let cfg = LaunchConfig::linear(256, 128);
        for _ in 0..3 {
            dev.launch_kernel(&kernel, cfg, &[KernelArg::Ptr(p)]).unwrap();
        }
        let stats = dev.program_cache_stats();
        assert_eq!(stats.misses, want_misses, "{tier:?} lowering count");
        assert_eq!(stats.hits, want_hits, "{tier:?} cache hits");
    }
}

/// The 27-cell model × vendor sweep reports the same support pattern —
/// 23 verified, 4 matrix holes — when every session's device is forced
/// onto either tier.
#[test]
fn conformance_sweep_is_tier_invariant() {
    let _guard = TIER_LOCK.lock().unwrap();
    for tier in [ExecTier::Scalar, ExecTier::Vectorized] {
        set_process_config(Some(SimConfig { exec: tier, ..SimConfig::from_env() }));
        let s = sweep(256, 1);
        set_process_config(None);
        assert_eq!(s.entries.len(), 27, "{tier:?}");
        assert_eq!(verified_count(&s), 23, "{tier:?} verified cells");
        assert_eq!(unsupported_count(&s), 4, "{tier:?} matrix holes");
    }
}

/// The 27-cell sweep also reports the same support pattern at every
/// optimization level: the middle-end may make cells faster, never
/// change whether they verify. At O1/O2 the sweep's devices must in fact
/// have routed kernels through the middle-end (non-zero `OptStats`).
#[test]
fn conformance_sweep_is_opt_level_invariant() {
    let _guard = TIER_LOCK.lock().unwrap();
    for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
        set_process_config(Some(SimConfig { opt: level, ..SimConfig::from_env() }));
        let s = sweep(256, 1);
        set_process_config(None);
        assert_eq!(s.entries.len(), 27, "{level}");
        assert_eq!(verified_count(&s), 23, "{level} verified cells");
        assert_eq!(unsupported_count(&s), 4, "{level} matrix holes");
        if level == OptLevel::O0 {
            assert_eq!(s.opt.kernels, 0, "O0 must bypass the middle-end");
        } else {
            assert!(s.opt.kernels > 0, "{level} sweep never reached the middle-end");
        }
    }
}

/// The analyzer's verdicts are a property of the kernel as written:
/// every seeded-defect diagnosis and every portability report is
/// identical no matter what the process-wide optimization level says.
/// (The compile path's own post-optimization re-lint is defense in
/// depth; the authoritative verdicts must never move.)
#[test]
fn analyzer_verdicts_are_opt_level_invariant() {
    let _guard = TIER_LOCK.lock().unwrap();
    let snapshot = || {
        let mut out = String::new();
        for entry in corpus::seeded_defects() {
            let report = analyze(&entry.kernel, &entry.opts);
            out.push_str(&format!("{}: {report:?}\n", entry.kernel.name));
            assert!(
                report.diagnostics.iter().any(|d| d.code == entry.expect),
                "`{}` lost its {} verdict",
                entry.kernel.name,
                entry.expect
            );
        }
        for entry in corpus::portability_corpus() {
            let report = portability(&entry.kernel, &entry.opts);
            out.push_str(&format!("{}: {report:?}\n", entry.kernel.name));
        }
        out
    };
    let at_level = |opt| {
        set_process_config(Some(SimConfig { opt, ..SimConfig::from_env() }));
        snapshot()
    };
    let at_o0 = at_level(OptLevel::O0);
    for level in [OptLevel::O1, OptLevel::O2] {
        assert_eq!(at_o0, at_level(level), "analyzer verdicts moved at {level}");
    }
    set_process_config(None);
}
