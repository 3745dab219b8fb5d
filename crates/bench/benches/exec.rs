//! Execution-tier microbenchmark: the BabelStream triad inner loop
//! (`a[i] = b[i] + scalar * c[i]`) through the scalar reference
//! interpreter vs the lowered lane-vector tier, on one simulated A100.
//!
//! The tentpole target is a ≥5× wall-clock speedup for the vectorized
//! tier at `block_dim ≥ 256`; `cargo run -p mcmm-bench --bin exec --
//! --smoke` enforces the weaker monotone form (vectorized ≥ scalar) in
//! CI, where criterion timings would be too noisy to gate on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcmm_babelstream::adapters::stream_kernels;
use mcmm_babelstream::{START_A, START_B, START_C};
use mcmm_gpu_sim::device::{Device, ExecTier, KernelArg, LaunchConfig};
use mcmm_gpu_sim::{DeviceSpec, SimConfig};
use std::hint::black_box;

fn bench_triad_tiers(c: &mut Criterion) {
    let mut g = c.benchmark_group("exec_tier_triad");
    g.sample_size(10);
    let triad = stream_kernels()[3].clone();
    let n = 1usize << 16;
    for (label, tier) in [("scalar", ExecTier::Scalar), ("vectorized", ExecTier::Vectorized)] {
        let config = SimConfig { exec: tier, ..SimConfig::resolve() };
        let dev = Device::with_config(DeviceSpec::nvidia_a100(), config);
        let da = dev.alloc_copy_f64(&vec![START_A; n]).unwrap();
        let db = dev.alloc_copy_f64(&vec![START_B; n]).unwrap();
        let dc = dev.alloc_copy_f64(&vec![START_C; n]).unwrap();
        let dsum = dev.alloc_copy_f64(&[0.0]).unwrap();
        let args = [
            KernelArg::Ptr(da),
            KernelArg::Ptr(db),
            KernelArg::Ptr(dc),
            KernelArg::Ptr(dsum),
            KernelArg::I32(n as i32),
        ];
        let cfg = LaunchConfig::linear(n as u64, 256);
        g.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
            b.iter(|| black_box(dev.launch_kernel(&triad, cfg, &args).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_triad_tiers);
criterion_main!(benches);
