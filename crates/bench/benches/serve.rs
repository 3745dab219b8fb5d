//! Serving-layer bench: cold vs warm compile-cache submission, and
//! end-to-end seeded workload replay through the concurrent service.
//!
//! The headline comparison is `submit/cold_cache` vs `submit/warm_cache`:
//! a cold submission pays route resolution + lint gate + ISA translation,
//! a warm one is a cache lookup plus scheduling. The content-addressed
//! cache must make the warm path at least an order of magnitude faster.

use criterion::{criterion_group, criterion_main, Criterion};
use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_gpu_sim::device::KernelArg;
use mcmm_gpu_sim::ir::{BinOp, CmpOp, KernelBuilder, KernelIr, Space, Type};
use mcmm_serve::workload::{Workload, WorkloadConfig};
use mcmm_serve::{ArgSpec, JobSpec, ServeConfig, Service};
use mcmm_toolchain::Registry;
use std::hint::black_box;

/// A compilation-heavy kernel: an unrolled degree-`depth` Horner chain,
/// `y[i] = (((x·a + x)·a + x)·a + x)…`. Real workloads submit kernels of
/// this size (unrolled stencils, fused element-wise towers); the cold
/// path pays lint + ISA translation proportional to the body, while the
/// warm path is one structural fingerprint plus a map lookup.
fn heavy_kernel(depth: usize) -> KernelIr {
    let mut k = KernelBuilder::new("horner_tower");
    let a = k.param(Type::F32);
    let x = k.param(Type::I64);
    let y = k.param(Type::I64);
    let n = k.param(Type::I32);
    let i = k.global_thread_id_x();
    let ok = k.cmp(CmpOp::Lt, i, n);
    k.if_(ok, |k| {
        let xi = k.ld_elem(Space::Global, Type::F32, x, i);
        let mut v = xi;
        for _ in 0..depth {
            let av = k.bin(BinOp::Mul, a, v);
            v = k.bin(BinOp::Add, av, xi);
        }
        k.st_elem(Space::Global, y, i, v);
    });
    k.finish()
}

fn spec(n: u64) -> JobSpec {
    JobSpec {
        kernel: heavy_kernel(512),
        model: Model::Cuda,
        language: Language::Cpp,
        vendor: Vendor::Nvidia,
        n,
        block_dim: 128,
        args: vec![
            ArgSpec::Scalar(KernelArg::F32(0.5)),
            ArgSpec::In(vec![0u8; n as usize * 4]),
            ArgSpec::In(vec![0u8; n as usize * 4]),
            ArgSpec::Scalar(KernelArg::I32(n as i32)),
        ],
        after: vec![],
        read_back: None,
    }
}

fn bench_submission(c: &mut Criterion) {
    let mut g = c.benchmark_group("submit");
    let n = 64u64;
    // A deep admission queue so the measured path is submission itself;
    // execution drains asynchronously on the stream workers.
    let deep = ServeConfig { queue_depth: 1 << 20, ..ServeConfig::default() };
    let job = spec(n);

    // Cold: every submission sees an empty cache — the full compile path
    // (route resolution, analyzer lint gate, ISA translation) runs.
    g.bench_function("cold_cache", |b| {
        let service = Service::new(deep);
        b.iter(|| {
            service.cache().clear();
            let h = service.submit(job.clone()).unwrap();
            assert!(!h.cache_hit, "cache was cleared; submission must miss");
            black_box(h.id)
        });
        service.drain();
    });

    // Warm: identical job, artifact already cached — the submission is a
    // content-addressed lookup plus scheduling.
    g.bench_function("warm_cache", |b| {
        let service = Service::new(deep);
        service.submit(job.clone()).unwrap().wait();
        b.iter(|| {
            let h = service.submit(job.clone()).unwrap();
            assert!(h.cache_hit, "repeat submission must hit the cache");
            black_box(h.id)
        });
        service.drain();
    });
    g.finish();
}

fn bench_workload(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload");
    let registry = Registry::paper();
    let workload = Workload::generate(
        WorkloadConfig { jobs: 60, seed: 0xBEEF, n: 64, chain_percent: 40, duplicate_percent: 0 },
        &registry,
    );
    g.bench_function("replay_60_jobs_concurrent", |b| {
        b.iter(|| {
            let service = Service::new(ServeConfig::default());
            let mut ids = Vec::new();
            let mut handles = Vec::new();
            for planned in &workload.jobs {
                let h = service.submit(planned.to_spec(&ids)).unwrap();
                ids.push(h.id);
                handles.push(h);
            }
            for h in &handles {
                black_box(h.wait());
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_submission, bench_workload);
criterion_main!(benches);
