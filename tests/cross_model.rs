//! Cross-frontend integration: the same SAXPY through every programming
//! model produces bit-identical results wherever the matrix says it runs,
//! and the ISA walls hold everywhere it doesn't.

use many_models::core::prelude::*;
use many_models::gpu_sim::device::{Device, KernelArg};
use many_models::gpu_sim::ir::{AtomicOp, Space, Type};
use many_models::gpu_sim::DeviceSpec;
use many_models::toolchain::vendor_device_spec;
use std::sync::Arc;

const N: usize = 1024;
const ALPHA: f64 = 2.5;

fn gold() -> Vec<f64> {
    (0..N).map(|i| ALPHA * i as f64 + 1.0).collect()
}

fn xs() -> Vec<f64> {
    (0..N).map(|i| i as f64).collect()
}

fn ys() -> Vec<f64> {
    vec![1.0; N]
}

#[test]
fn cuda_frontend_matches_gold_on_nvidia() {
    use many_models::cuda::{BinOp, CmpOp, CudaContext, KernelBuilder};
    let ctx = CudaContext::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
    let mut k = KernelBuilder::new("saxpy64");
    let a = k.param(Type::F64);
    let x = k.param(Type::I64);
    let y = k.param(Type::I64);
    let n = k.param(Type::I32);
    let i = k.global_thread_id_x();
    let ok = k.cmp(CmpOp::Lt, i, n);
    k.if_(ok, |k| {
        let xi = k.ld_elem(Space::Global, Type::F64, x, i);
        let yi = k.ld_elem(Space::Global, Type::F64, y, i);
        let ax = k.bin(BinOp::Mul, a, xi);
        let s = k.bin(BinOp::Add, ax, yi);
        k.st_elem(Space::Global, y, i, s);
    });
    let kernel = ctx.compile(&k.finish()).unwrap();
    let dx = ctx.upload(&xs()).unwrap();
    let dy = ctx.upload(&ys()).unwrap();
    ctx.launch(
        &kernel,
        (N as u32).div_ceil(256),
        256,
        &[KernelArg::F64(ALPHA), KernelArg::Ptr(dx), KernelArg::Ptr(dy), KernelArg::I32(N as i32)],
    )
    .unwrap();
    assert_eq!(ctx.download::<f64>(dy, N).unwrap(), gold());
}

#[test]
fn sycl_frontend_matches_gold_on_every_vendor() {
    use many_models::sycl::{BinOp, Queue, Value};
    for vendor in Vendor::ALL {
        let queue = Queue::new(Device::new(vendor_device_spec(vendor))).unwrap();
        let x = queue.malloc_device::<f64>(N).unwrap();
        let y = queue.malloc_device::<f64>(N).unwrap();
        queue.memcpy_to_device(x, &xs()).unwrap();
        queue.memcpy_to_device(y, &ys()).unwrap();
        queue
            .parallel_for_usm(N, &[x, y], |k, i, p| {
                let xi = k.ld_elem(Space::Global, Type::F64, p[0], i);
                let yi = k.ld_elem(Space::Global, Type::F64, p[1], i);
                let ax = k.bin(BinOp::Mul, xi, Value::F64(ALPHA));
                let s = k.bin(BinOp::Add, ax, yi);
                k.st_elem(Space::Global, p[1], i, s);
            })
            .unwrap();
        assert_eq!(queue.memcpy_from_device::<f64>(y, N).unwrap(), gold(), "{vendor}");
    }
}

#[test]
fn openmp_frontend_matches_gold_on_every_vendor() {
    use many_models::openmp::{BinOp, MapClause, OmpDevice, Value};
    for vendor in Vendor::ALL {
        let omp = OmpDevice::new(Device::new(vendor_device_spec(vendor))).unwrap();
        let mut x = xs();
        let mut y = ys();
        let mut maps = [MapClause::to(&mut x), MapClause::tofrom(&mut y)];
        omp.target_teams_distribute_parallel_for(N, &mut maps, None, &[], |b, i, p| {
            let xi = b.ld_elem(Space::Global, Type::F64, p[0], i);
            let yi = b.ld_elem(Space::Global, Type::F64, p[1], i);
            let ax = b.bin(BinOp::Mul, xi, Value::F64(ALPHA));
            let s = b.bin(BinOp::Add, ax, yi);
            b.st_elem(Space::Global, p[1], i, s);
        })
        .unwrap();
        assert_eq!(y, gold(), "{vendor}");
    }
}

#[test]
fn kokkos_and_stdpar_and_python_agree_on_a_reduction() {
    // Σ i over 0..N through three very different frontends.
    let expect: f64 = (0..N).map(|i| i as f64).sum();

    // Kokkos parallel_reduce on AMD.
    {
        use many_models::kokkos::{BinOp, ExecSpace};
        let space = ExecSpace::new(Device::new(DeviceSpec::amd_mi250x())).unwrap();
        let v = space.view_from_host("v", &xs()).unwrap();
        let sum = space
            .parallel_reduce_sum(N, &[&v], |k, i, p| {
                let _ = BinOp::Add; // the reduction op is implicit (sum)
                k.ld_elem(Space::Global, Type::F64, p[0], i)
            })
            .unwrap();
        assert_eq!(sum, expect);
    }

    // stdpar reduce on NVIDIA.
    {
        use many_models::stdpar::{par_unseq, DeviceVec};
        let policy = par_unseq(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        let v = DeviceVec::from_host(&policy, &xs()).unwrap();
        assert_eq!(policy.reduce(&v, 0.0).unwrap(), expect);
    }

    // Python .sum() on Intel.
    {
        use many_models::python::PyRuntime;
        let py = PyRuntime::new(Device::new(DeviceSpec::intel_pvc())).unwrap();
        let v = py.asarray(&xs()).unwrap();
        assert_eq!(py.sum(&v).unwrap(), expect);
    }
}

#[test]
fn isa_walls_hold_for_raw_modules() {
    // A module assembled for one vendor fails to load on the others, for
    // every ordered pair.
    use many_models::gpu_sim::isa::{assemble, IsaKind};
    let kernel = many_models::toolchain::probe::smoke_kernel();
    for src in IsaKind::ALL {
        let module = assemble(&kernel, src).unwrap();
        for vendor in Vendor::ALL {
            let device = Device::new(vendor_device_spec(vendor));
            let should_work = many_models::toolchain::vendor_isa(vendor) == src;
            let loaded = device.load(&module);
            assert_eq!(loaded.is_ok(), should_work, "{src:?} on {vendor}");
        }
    }
}

#[test]
fn atomics_agree_across_devices() {
    // The same atomic-histogram kernel gives identical counts on all
    // three devices despite different warp widths.
    use many_models::gpu_sim::ir::{BinOp, KernelBuilder, Value};
    let mut k = KernelBuilder::new("histogram");
    let hist = k.param(Type::I64);
    let i = k.global_thread_id_x();
    let bucket = k.bin(BinOp::Rem, i, Value::I32(16));
    let addr = k.elem_addr(Type::I32, hist, bucket);
    let one = k.imm(Value::I32(1));
    let _ = k.atomic(AtomicOp::Add, Space::Global, addr, one);
    let kernel = k.finish();

    let mut results = Vec::new();
    for vendor in Vendor::ALL {
        let device: Arc<Device> = Device::new(vendor_device_spec(vendor));
        let module = many_models::gpu_sim::isa::assemble(
            &kernel,
            many_models::toolchain::vendor_isa(vendor),
        )
        .unwrap();
        let hist_ptr = device.alloc(16 * 4).unwrap();
        device.memcpy_h2d(hist_ptr, &[0u8; 64]).unwrap();
        device
            .launch(
                &module,
                many_models::gpu_sim::device::LaunchConfig::linear(4096, 128),
                &[KernelArg::Ptr(hist_ptr)],
            )
            .unwrap();
        let (bytes, _) = device.memcpy_d2h(hist_ptr, 64).unwrap();
        let counts: Vec<i32> =
            bytes.chunks_exact(4).map(|c| i32::from_le_bytes(c.try_into().unwrap())).collect();
        results.push(counts);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
    assert!(results[0].iter().all(|&c| c == 4096 / 16));
}
