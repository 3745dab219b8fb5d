//! A1/A2 — simulator ablations.
//!
//! * **A1 (SIMT width)**: the block engine executes a whole block as a wide
//!   lane vector; launching the same total work as 1-thread blocks forces
//!   scalar-style interpretation, exposing the dispatch amortisation.
//! * **A2 (block scheduling)**: static contiguous partitioning vs dynamic
//!   self-scheduling under a skewed per-block workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcmm_gpu_sim::device::{Device, KernelArg, LaunchConfig};
use mcmm_gpu_sim::ir::{BinOp, CmpOp, KernelBuilder, KernelIr, Space, Type, Value};
use mcmm_gpu_sim::isa::{assemble, IsaKind};
use mcmm_gpu_sim::sched::SchedulePolicy;
use mcmm_gpu_sim::DeviceSpec;
use std::hint::black_box;

fn saxpy() -> KernelIr {
    let mut k = KernelBuilder::new("saxpy");
    let a = k.param(Type::F32);
    let x = k.param(Type::I64);
    let y = k.param(Type::I64);
    let n = k.param(Type::I32);
    let i = k.global_thread_id_x();
    let ok = k.cmp(CmpOp::Lt, i, n);
    k.if_(ok, |k| {
        let xi = k.ld_elem(Space::Global, Type::F32, x, i);
        let yi = k.ld_elem(Space::Global, Type::F32, y, i);
        let ax = k.bin(BinOp::Mul, a, xi);
        let s = k.bin(BinOp::Add, ax, yi);
        k.st_elem(Space::Global, y, i, s);
    });
    k.finish()
}

/// Per-lane trip counts skewed by block: block b loops (b % 64) * 8 times.
fn skewed() -> KernelIr {
    let mut k = KernelBuilder::new("skewed");
    let y = k.param(Type::I64);
    let i = k.global_thread_id_x();
    let bid = k.block_id_x();
    let m = k.bin(BinOp::Rem, bid, Value::I32(64));
    let trips = k.bin(BinOp::Mul, m, Value::I32(8));
    let j = k.imm(Value::I32(0));
    let acc = k.imm(Value::F32(0.0));
    k.while_(
        |k| k.cmp(CmpOp::Lt, j, trips),
        |k| {
            k.bin_assign(BinOp::Add, acc, Value::F32(1.0));
            k.bin_assign(BinOp::Add, j, Value::I32(1));
        },
    );
    k.st_elem(Space::Global, y, i, acc);
    k.finish()
}

fn bench_simt_width(c: &mut Criterion) {
    let mut g = c.benchmark_group("a1_simt_width");
    g.sample_size(10);
    let dev = Device::new(DeviceSpec::nvidia_a100());
    let module = assemble(&saxpy(), IsaKind::PtxLike).unwrap();
    let n = 1 << 14;
    let dx = dev.alloc_copy_f32(&vec![1.0; n]).unwrap();
    let dy = dev.alloc_copy_f32(&vec![1.0; n]).unwrap();
    let args =
        [KernelArg::F32(2.0), KernelArg::Ptr(dx), KernelArg::Ptr(dy), KernelArg::I32(n as i32)];
    for block_dim in [1u32, 32, 256] {
        g.bench_with_input(BenchmarkId::new("block_dim", block_dim), &block_dim, |b, &bd| {
            let cfg = LaunchConfig::linear(n as u64, bd);
            b.iter(|| black_box(dev.launch(&module, cfg, &args).unwrap()))
        });
    }
    g.finish();
}

fn bench_scheduling(c: &mut Criterion) {
    let mut g = c.benchmark_group("a2_scheduling");
    g.sample_size(10);
    let dev = Device::new(DeviceSpec::nvidia_a100());
    let module = assemble(&skewed(), IsaKind::PtxLike).unwrap();
    let blocks = 256u32;
    let bd = 64u32;
    let dy = dev.alloc_copy_f32(&vec![0.0; (blocks * bd) as usize]).unwrap();
    for (name, policy) in [("static", SchedulePolicy::Static), ("dynamic", SchedulePolicy::Dynamic)]
    {
        g.bench_function(name, |b| {
            let cfg = LaunchConfig { grid_dim: blocks, block_dim: bd, policy, efficiency: 1.0 };
            b.iter(|| black_box(dev.launch(&module, cfg, &[KernelArg::Ptr(dy)]).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_simt_width, bench_scheduling);
criterion_main!(benches);
