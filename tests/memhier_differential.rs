//! Differential validation of the memory-hierarchy subsystem: tracing is
//! an observer. Computed buffers and launch counters must be byte-for-byte
//! identical across {reference, vectorized} block engines × {tracing off,
//! on} × {analytic, trace-driven} timing, the two engines must emit
//! *identical traces* (same replayed `MemStats`), replay must be
//! deterministic, and the per-vendor cache geometry must actually matter:
//! a unit-stride copy fills its sectors everywhere while a 128-byte-strided
//! gather's L1 hit rate splits the three warp widths apart.

use many_models::gpu_sim::device::{Device, KernelArg, LaunchConfig, TimingTier};
use many_models::gpu_sim::ir::{
    AtomicOp, BinOp, CmpOp, KernelBuilder, KernelIr, Space, Type, Value,
};
use many_models::gpu_sim::{DeviceSpec, MemStats, SimConfig};
use mcmm_gpu_sim_ref::{launch_kernel, Engine};
use std::sync::Arc;

const N: usize = 2048;
const BLOCK: u32 = 256;

/// Loads (unit-stride and strided), a store, and a global atomic — every
/// traced access kind in one kernel: `y[i] = x[i] + x[(7i) % n]` plus an
/// f64 atomic accumulation into `sum`.
fn mixed_kernel() -> KernelIr {
    let mut k = KernelBuilder::new("memhier_mixed");
    let xp = k.param(Type::I64);
    let yp = k.param(Type::I64);
    let sp = k.param(Type::I64);
    let n = k.param(Type::I32);
    let i = k.global_thread_id_x();
    let ok = k.cmp(CmpOp::Lt, i, n);
    k.if_(ok, |k| {
        let x = k.ld_elem(Space::Global, Type::F64, xp, i);
        let i7 = k.bin(BinOp::Mul, i, Value::I32(7));
        let j = k.bin(BinOp::Rem, i7, n);
        let xj = k.ld_elem(Space::Global, Type::F64, xp, j);
        let s = k.bin(BinOp::Add, x, xj);
        k.st_elem(Space::Global, yp, i, s);
        k.atomic(AtomicOp::Add, Space::Global, sp, Value::F64(1.5));
    });
    k.finish()
}

/// `c[i] = a[i]` — fully coalesced unit-stride streaming.
fn copy_kernel() -> KernelIr {
    let mut k = KernelBuilder::new("memhier_copy");
    let a = k.param(Type::I64);
    let c = k.param(Type::I64);
    let _sp = k.param(Type::I64);
    let n = k.param(Type::I32);
    let i = k.global_thread_id_x();
    let ok = k.cmp(CmpOp::Lt, i, n);
    k.if_(ok, |k| {
        let v = k.ld_elem(Space::Global, Type::F64, a, i);
        k.st_elem(Space::Global, c, i, v);
    });
    k.finish()
}

/// `c[i] = a[(i % 32) * 16]` — each warp gathers from 32 addresses spaced
/// 128 bytes apart, so the sectors a warp touches (and the L1 reuse
/// across warps) depend on the warp width.
fn gather_kernel() -> KernelIr {
    let mut k = KernelBuilder::new("memhier_gather");
    let a = k.param(Type::I64);
    let c = k.param(Type::I64);
    let _sp = k.param(Type::I64);
    let n = k.param(Type::I32);
    let i = k.global_thread_id_x();
    let ok = k.cmp(CmpOp::Lt, i, n);
    k.if_(ok, |k| {
        let rem = k.bin(BinOp::Rem, i, Value::I32(32));
        let idx = k.bin(BinOp::Mul, rem, Value::I32(16));
        let v = k.ld_elem(Space::Global, Type::F64, a, idx);
        k.st_elem(Space::Global, c, i, v);
    });
    k.finish()
}

/// One launch on a fresh device with the given knobs, its blocks run by
/// `engine`: returns the raw bytes of both arrays and the sum cell, the
/// launch stats, and the mem stats (present only when traced).
fn run(
    spec: DeviceSpec,
    kernel: &KernelIr,
    engine: Engine,
    tracing: bool,
    timing: TimingTier,
) -> (Vec<u8>, many_models::gpu_sim::counters::LaunchStats, Option<MemStats>) {
    let dev: Arc<Device> = Device::with_config(spec, SimConfig { timing, tracing });
    let xs: Vec<f64> = (0..N).map(|i| i as f64 * 0.37 - 100.0).collect();
    let dx = dev.alloc_copy_f64(&xs).unwrap();
    let dy = dev.alloc_copy_f64(&vec![0.0; N]).unwrap();
    let ds = dev.alloc_copy_f64(&[0.0]).unwrap();
    let args =
        [KernelArg::Ptr(dx), KernelArg::Ptr(dy), KernelArg::Ptr(ds), KernelArg::I32(N as i32)];
    let report =
        launch_kernel(&dev, engine, kernel, LaunchConfig::linear(N as u64, BLOCK), &args).unwrap();
    let mut bytes = dev.memcpy_d2h(dy, N as u64 * 8).unwrap().0;
    bytes.extend(dev.memcpy_d2h(ds, 8).unwrap().0);
    (bytes, report.stats, report.mem)
}

/// Trace one launch of `kernel` on `spec` (vectorized engine) and return
/// the replayed statistics.
fn traced_stats(spec: DeviceSpec, kernel: &KernelIr) -> MemStats {
    let (_, _, mem) = run(spec, kernel, Engine::Vectorized, true, TimingTier::Analytic);
    mem.expect("traced launch must produce mem stats")
}

#[test]
fn buffers_and_counters_survive_every_tier_combination() {
    let kernel = mixed_kernel();
    for spec in DeviceSpec::presets() {
        let (base_bytes, base_stats, base_mem) =
            run(spec.clone(), &kernel, Engine::Reference, false, TimingTier::Analytic);
        assert!(base_mem.is_none(), "untraced launch produced mem stats on {}", spec.name);
        for engine in Engine::BOTH {
            for tracing in [false, true] {
                for timing in [TimingTier::Analytic, TimingTier::TraceDriven] {
                    let (bytes, stats, mem) = run(spec.clone(), &kernel, engine, tracing, timing);
                    assert_eq!(
                        bytes, base_bytes,
                        "{}: buffers diverged ({engine:?}, tracing {tracing}, {timing:?})",
                        spec.name
                    );
                    assert_eq!(
                        stats, base_stats,
                        "{}: counters diverged ({engine:?}, tracing {tracing}, {timing:?})",
                        spec.name
                    );
                    let expect_mem = tracing || timing == TimingTier::TraceDriven;
                    assert_eq!(
                        mem.is_some(),
                        expect_mem,
                        "{}: mem stats presence wrong ({engine:?}, tracing {tracing}, {timing:?})",
                        spec.name
                    );
                }
            }
        }
    }
}

#[test]
fn scalar_and_vectorized_tiers_emit_identical_traces() {
    let kernel = mixed_kernel();
    for spec in DeviceSpec::presets() {
        let (_, _, reference) =
            run(spec.clone(), &kernel, Engine::Reference, true, TimingTier::Analytic);
        let (_, _, vector) =
            run(spec.clone(), &kernel, Engine::Vectorized, true, TimingTier::Analytic);
        assert_eq!(
            reference.unwrap(),
            vector.unwrap(),
            "block engines replay to different mem stats on {}",
            spec.name
        );
    }
}

#[test]
fn replay_is_deterministic() {
    let kernel = gather_kernel();
    for spec in DeviceSpec::presets() {
        let a = traced_stats(spec.clone(), &kernel);
        let b = traced_stats(spec.clone(), &kernel);
        assert_eq!(a, b, "two identical traced launches disagree on {}", spec.name);
    }
}

#[test]
fn coalesced_copy_fills_sectors_strided_gather_does_not() {
    let copy = copy_kernel();
    let gather = gather_kernel();
    for spec in DeviceSpec::presets() {
        let name = spec.name;
        let c = traced_stats(spec.clone(), &copy);
        assert!(
            c.sector_utilization() >= 0.95,
            "{name}: coalesced copy wastes sectors (utilization {:.3})",
            c.sector_utilization()
        );
        let g = traced_stats(spec, &gather);
        assert!(
            g.sector_utilization() < 0.50,
            "{name}: 128B-strided gather should not fill sectors (utilization {:.3})",
            g.sector_utilization()
        );
        assert!(g.l1_hit_rate() > 0.0, "{name}: warp-repeated gather must see L1 reuse");
    }
}

#[test]
fn gather_l1_hit_rate_separates_the_three_warp_widths() {
    let gather = gather_kernel();
    let rates: Vec<(&str, f64)> = DeviceSpec::presets()
        .into_iter()
        .map(|spec| {
            let name = spec.name;
            (name, traced_stats(spec, &gather).l1_hit_rate())
        })
        .collect();
    for i in 0..rates.len() {
        for j in i + 1..rates.len() {
            let (na, ra) = rates[i];
            let (nb, rb) = rates[j];
            assert!(
                (ra - rb).abs() > 0.02,
                "warp-width-sensitive gather does not separate {na} ({ra:.3}) from {nb} ({rb:.3})"
            );
        }
    }
}
