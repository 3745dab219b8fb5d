//! Every frontend allocation has an owner. A value that owns an array
//! frees it when it drops, even while its context lives; a raw pointer
//! belongs to the context that handed it out, which frees it by pointer
//! alone (`cudaFree`, `hipFree`) or when the context drops. So once the
//! arrays and their context are gone the device is back at capacity.

use many_models::gpu_sim::ir::{BinOp, Space, Type, Value};
use many_models::gpu_sim::mem::DevicePtr;
use many_models::gpu_sim::{Device, DeviceSpec};
use std::sync::Arc;

/// 128 KiB of `f64`.
const N: usize = 16 * 1024;

fn free_bytes(dev: &Device) -> u64 {
    dev.memory().free_bytes()
}

fn assert_at_capacity(dev: &Device, surface: &str) {
    let (free, capacity) = (free_bytes(dev), dev.memory().capacity());
    assert_eq!(
        free,
        capacity,
        "{surface} kept {} bytes after its context dropped",
        capacity - free
    );
}

fn ramp() -> Vec<f64> {
    (0..N).map(|i| i as f64).collect()
}

/// The contract `cudaFree` and `hipFree` share. `free` is `true` when the
/// call freed the pointer and `false` when it was refused as
/// `InvalidValue`.
fn pointers_belong_to_their_context<C>(
    spec: DeviceSpec,
    open: impl Fn(Arc<Device>) -> C,
    upload: impl Fn(&C, &[f64]) -> DevicePtr,
    free: impl Fn(&C, DevicePtr) -> bool,
) {
    let dev = Device::new(spec);
    let ctx = open(Arc::clone(&dev));
    let other = open(Arc::clone(&dev));

    // An early free gives the memory back while the context lives.
    let before = free_bytes(&dev);
    let p = upload(&ctx, &ramp());
    assert!(free_bytes(&dev) < before);
    assert!(free(&ctx, p), "the first free of a live pointer is accepted");
    assert_eq!(free_bytes(&dev), before);

    // A double free and a pointer from another context are refused and
    // free nothing.
    let foreign = upload(&other, &ramp());
    let before = free_bytes(&dev);
    assert!(!free(&ctx, p), "a double free is InvalidValue");
    assert!(!free(&ctx, foreign), "another context's pointer is InvalidValue");
    assert_eq!(free_bytes(&dev), before);

    // So two later uploads get distinct memory.
    let a = upload(&ctx, &ramp());
    let b = upload(&ctx, &ramp());
    assert_ne!(a, b);

    // Dropping the contexts gives back what they still hold.
    drop((ctx, other));
    assert_at_capacity(&dev, "a raw-pointer context");
}

#[test]
fn cuda_frees_by_pointer_and_with_its_context() {
    use many_models::cuda::{CudaContext, CudaError};
    pointers_belong_to_their_context(
        DeviceSpec::nvidia_a100(),
        |dev| CudaContext::new(dev).unwrap(),
        |ctx, data| ctx.upload(data).unwrap(),
        |ctx, p| match ctx.cuda_free(p) {
            Ok(()) => true,
            Err(CudaError::InvalidValue(_)) => false,
            Err(e) => panic!("{e}"),
        },
    );

    // Queued stream work on context memory drains before the context
    // gives it back.
    let dev = Device::new(DeviceSpec::nvidia_a100());
    let ctx = CudaContext::new(Arc::clone(&dev)).unwrap();
    let p = ctx.cuda_malloc(8 * N as u64).unwrap();
    let stream = ctx.cuda_stream_create();
    stream.memcpy_async_htod(p, vec![1; 8 * N]);
    drop(stream);
    drop(ctx);
    assert_at_capacity(&dev, "CUDA");
}

#[test]
fn hip_frees_by_pointer_and_with_its_context() {
    use many_models::hip::{HipContext, HipError};
    pointers_belong_to_their_context(
        DeviceSpec::amd_mi250x(),
        |dev| HipContext::new(dev).unwrap(),
        |ctx, data| ctx.upload(data).unwrap(),
        |ctx, p| match ctx.hip_free(p) {
            Ok(()) => true,
            Err(HipError::InvalidValue(_)) => false,
            Err(e) => panic!("{e}"),
        },
    );

    let dev = Device::new(DeviceSpec::amd_mi250x());
    let ctx = HipContext::new(Arc::clone(&dev)).unwrap();
    ctx.hip_malloc(8 * N as u64).unwrap();
    drop(ctx);
    assert_at_capacity(&dev, "HIP");
}

#[test]
fn sycl_buffers_and_usm_give_their_memory_back() {
    use many_models::sycl::{Buffer, Queue};
    let dev = Device::new(DeviceSpec::intel_pvc());
    let queue = Queue::new(Arc::clone(&dev)).unwrap();
    let before = free_bytes(&dev);
    let mut buf = Buffer::new(vec![1.0; N]);
    queue
        .parallel_for(N, &mut [&mut buf], |k, i, p| {
            k.st_elem(Space::Global, p[0], i, Value::F32(2.0));
        })
        .unwrap();
    assert!(free_bytes(&dev) < before);
    assert_eq!(buf.host_data().unwrap()[N - 1], 2.0);
    drop(buf);
    assert_eq!(free_bytes(&dev), before, "a dropped Buffer kept its device copy");

    // A buffer may outlive its queue; USM memory goes with the queue.
    let mut late = Buffer::new(vec![1.0; N]);
    queue.parallel_for(1, &mut [&mut late], |_, _, _| {}).unwrap();
    let usm = queue.malloc_device::<f64>(N).unwrap();
    queue.memcpy_to_device(usm, &ramp()).unwrap();
    drop(queue);
    drop(late);
    assert_at_capacity(&dev, "SYCL");
}

#[test]
fn kokkos_views_give_their_memory_back() {
    use many_models::kokkos::{ExecSpace, Layout};
    let dev = Device::new(DeviceSpec::nvidia_a100());
    let space = ExecSpace::new(Arc::clone(&dev)).unwrap();
    let before = free_bytes(&dev);
    let v = space.view_from_host("v", &ramp()).unwrap();
    let m = space.view_2d("m", 128, 128, Layout::Right).unwrap();
    let sum = space
        .parallel_reduce_sum(N, &[&v], |k, i, p| k.ld_elem(Space::Global, Type::F64, p[0], i))
        .unwrap();
    assert_eq!(sum, ramp().iter().sum::<f64>());
    drop((v, m));
    assert_eq!(free_bytes(&dev), before, "dropped views kept their memory");

    let late = space.view_from_host("late", &ramp()).unwrap();
    drop(space);
    drop(late);
    assert_at_capacity(&dev, "Kokkos");
}

#[test]
fn python_arrays_give_their_memory_back() {
    use many_models::python::{DType, PyRuntime};
    let dev = Device::new(DeviceSpec::amd_mi250x());
    let py = PyRuntime::new(Arc::clone(&dev)).unwrap();
    let before = free_bytes(&dev);
    let a = py.asarray(&ramp()).unwrap();
    let b = py.scalar_mul(2.0, &a).unwrap();
    let c = py.elementwise(BinOp::Add, &a, &b).unwrap();
    assert_eq!(py.sum(&c).unwrap(), 3.0 * ramp().iter().sum::<f64>());
    drop((a, b, c));
    assert_eq!(free_bytes(&dev), before, "dropped arrays kept their memory");

    let late = py.zeros(N, DType::Float32).unwrap();
    drop(py);
    drop(late);
    assert_at_capacity(&dev, "Python");
}

#[test]
fn stdpar_vectors_give_their_memory_back() {
    use many_models::stdpar::{par_unseq, DeviceVec};
    let dev = Device::new(DeviceSpec::nvidia_a100());
    let policy = par_unseq(Arc::clone(&dev)).unwrap();
    let before = free_bytes(&dev);
    let mut v = DeviceVec::from_host(&policy, &ramp()).unwrap();
    assert_eq!(policy.reduce(&v, 0.0).unwrap(), ramp().iter().sum::<f64>());
    policy.inclusive_scan(&mut v).unwrap();
    drop(v);
    assert_eq!(free_bytes(&dev), before, "a dropped DeviceVec kept its memory");

    let late = DeviceVec::zeroed(&policy, N).unwrap();
    drop(policy);
    drop(late);
    assert_at_capacity(&dev, "stdpar");
}

#[test]
fn alpaka_buffers_go_with_their_accelerator() {
    use many_models::alpaka::{Accelerator, AlpakaKernel, WorkDiv};
    use many_models::gpu_sim::ir::{KernelBuilder, Reg};
    struct Double;
    impl AlpakaKernel for Double {
        fn operator(&self, acc: &mut KernelBuilder, idx: Reg, buffers: &[Reg]) {
            let x = acc.ld_elem(Space::Global, Type::F64, buffers[0], idx);
            let y = acc.bin(BinOp::Add, x, x);
            acc.st_elem(Space::Global, buffers[0], idx, y);
        }
    }
    let dev = Device::new(DeviceSpec::intel_pvc());
    let acc = Accelerator::default_for_device(Arc::clone(&dev)).unwrap();
    let x = acc.alloc_buf(&ramp()).unwrap();
    acc.exec(WorkDiv::for_elements(N, 256), N, &Double, &[x]).unwrap();
    assert_eq!(acc.memcpy_to_host(x, N).unwrap()[3], 6.0);
    acc.alloc_buf(&ramp()).unwrap();
    drop(acc);
    assert_at_capacity(&dev, "alpaka");
}

#[test]
fn raja_reducers_and_arrays_give_their_memory_back() {
    use many_models::raja::{
        forall_reduce_max, ExecPolicy, RangeSegment, ReduceMax, ReduceSum, Resource,
    };
    let dev = Device::new(DeviceSpec::amd_mi250x());
    let res = Resource::new(Arc::clone(&dev));
    let x = res.alloc(&ramp()).unwrap();
    let before = free_bytes(&dev);
    let max = ReduceMax::new(&res, f64::NEG_INFINITY).unwrap();
    let policy = ExecPolicy::default_for(res.vendor());
    forall_reduce_max(&res, policy, RangeSegment::new(0, N), &[x], &max, |k, i, p| {
        k.ld_elem(Space::Global, Type::F64, p[0], i)
    })
    .unwrap();
    assert_eq!(max.get().unwrap(), (N - 1) as f64);
    let sum = ReduceSum::new(&res, 0.0).unwrap();
    assert!(free_bytes(&dev) < before);
    drop((max, sum));
    assert_eq!(free_bytes(&dev), before, "dropped reducers kept their cells");

    drop(res);
    assert_at_capacity(&dev, "RAJA");
}

#[test]
fn oversized_allocations_are_out_of_memory() {
    use many_models::cuda::{CudaContext, CudaError};
    use many_models::hip::{HipContext, HipError};
    use many_models::sycl::{Queue, SyclError};
    let dev = Device::new(DeviceSpec::nvidia_a100());
    let cuda = CudaContext::new(Arc::clone(&dev)).unwrap();
    let err = cuda.cuda_malloc(u64::MAX).unwrap_err();
    assert!(matches!(err, CudaError::MemoryAllocation(_)), "{err}");
    assert_at_capacity(&dev, "an oversized cudaMalloc");

    let dev = Device::new(DeviceSpec::amd_mi250x());
    let hip = HipContext::new(Arc::clone(&dev)).unwrap();
    let err = hip.hip_malloc(u64::MAX).unwrap_err();
    assert!(matches!(err, HipError::MemoryAllocation(_)), "{err}");
    assert_at_capacity(&dev, "an oversized hipMalloc");

    // (2^61 + 1) × 8 bytes wraps to 8 in 64-bit arithmetic.
    let dev = Device::new(DeviceSpec::intel_pvc());
    let queue = Queue::new(Arc::clone(&dev)).unwrap();
    let err = queue.malloc_device::<f64>((1 << 61) + 1).unwrap_err();
    assert!(matches!(err, SyclError::MemoryAllocation(_)), "{err}");
    assert_at_capacity(&dev, "an oversized SYCL malloc_device");
}

#[test]
fn a_sycl_buffer_follows_its_queue_to_another_device() {
    use many_models::sycl::{Buffer, Queue};
    let intel = Queue::new(Device::new(DeviceSpec::intel_pvc())).unwrap();
    let nvidia = Queue::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
    // The first allocation on each fresh device starts at the same
    // address, so a buffer that kept its Intel copy's pointer on the
    // NVIDIA queue would increment this unrelated allocation instead.
    let usm = nvidia.malloc_device::<f32>(64).unwrap();
    nvidia.memcpy_to_device(usm, &[9.0f32; 64]).unwrap();

    let mut buf = Buffer::new(vec![1.0; 64]);
    intel.parallel_for(64, &mut [&mut buf], |_, _, _| {}).unwrap();
    nvidia
        .parallel_for(64, &mut [&mut buf], |k, i, p| {
            let v = k.ld_elem(Space::Global, Type::F32, p[0], i);
            let w = k.bin(BinOp::Add, v, Value::F32(1.0));
            k.st_elem(Space::Global, p[0], i, w);
        })
        .unwrap();
    assert_eq!(buf.host_data().unwrap(), &[2.0; 64][..]);
    assert_eq!(nvidia.memcpy_from_device::<f32>(usm, 64).unwrap(), vec![9.0; 64]);
}
