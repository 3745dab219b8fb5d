//! Device memory of served jobs: a job's buffers belong to its handle, its
//! queued stream operations and any dependent that aliases them, and go
//! back to the device when the last of those is gone.

use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_gpu_sim::device::KernelArg;
use mcmm_gpu_sim::mem::GlobalMemory;
use mcmm_serve::{ArgSpec, JobSpec, KernelShape, ServeConfig, Service, SubmitError};

const N: u64 = 64;

fn f32_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn floats(bytes: &[u8]) -> Vec<f32> {
    bytes.chunks_exact(4).map(|b| f32::from_le_bytes(b.try_into().unwrap())).collect()
}

/// `shape(a, x, y)` over `N` elements on the NVIDIA device, reading `y`
/// back.
fn job(shape: KernelShape, a: f32, x: ArgSpec, y: ArgSpec) -> JobSpec {
    JobSpec {
        kernel: shape.kernel(),
        model: Model::Cuda,
        language: Language::Cpp,
        vendor: Vendor::Nvidia,
        n: N,
        block_dim: 32,
        args: vec![
            ArgSpec::Scalar(KernelArg::F32(a)),
            x,
            y,
            ArgSpec::Scalar(KernelArg::I32(N as i32)),
        ],
        after: vec![],
        read_back: Some(2),
    }
}

fn memory(service: &Service) -> &GlobalMemory {
    service.device(Vendor::Nvidia).memory()
}

#[test]
fn waited_jobs_give_their_memory_back() {
    // 64 jobs of 8 MiB each are twice the device's 256 MiB: they fit only
    // if every waited job's buffers go back when its handle drops.
    let service = Service::new(ServeConfig::default());
    let y = f32_bytes(&[1.0; N as usize]);
    let x = ArgSpec::Zeroed((8 << 20) - y.len() as u64);
    for i in 0..64 {
        let handle = service
            .submit(job(KernelShape::Saxpy, 2.0, x.clone(), ArgSpec::In(y.clone())))
            .unwrap_or_else(|e| panic!("job {i} refused: {e}"));
        let done = handle.wait();
        assert!(done.is_ok(), "job {i} failed: {:?}", done.error);
        assert_eq!(done.output, Some(y.clone()), "job {i}");
    }
    service.drain();
    assert_eq!(memory(&service).free_bytes(), memory(&service).capacity());
}

#[test]
fn a_dependency_can_be_named_while_its_producers_handle_is_held() {
    let service = Service::new(ServeConfig::default());
    let x = f32_bytes(&(0..N).map(|i| i as f32).collect::<Vec<_>>());
    let producer = service
        .submit(job(KernelShape::Scale, 3.0, ArgSpec::In(x), ArgSpec::Zeroed(N * 4)))
        .unwrap();
    // y = 2·(3i) + 1, reading the producer's output in place.
    let dependent = service
        .submit(job(
            KernelShape::Saxpy,
            2.0,
            ArgSpec::Output(producer.id, 2),
            ArgSpec::In(f32_bytes(&[1.0; N as usize])),
        ))
        .unwrap();
    let out = floats(&dependent.wait().output.expect("dependent output"));
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, 6.0 * i as f32 + 1.0, "element {i}");
    }

    // Released: the producer can no longer be named, as an aliased buffer
    // or as an ordering edge.
    let id = producer.id;
    drop(producer);
    let alias = job(KernelShape::Copy, 1.0, ArgSpec::Output(id, 2), ArgSpec::Zeroed(N * 4));
    assert!(matches!(service.submit(alias), Err(SubmitError::UnknownDependency(d)) if d == id));
    let mut after = job(KernelShape::Copy, 1.0, ArgSpec::Zeroed(N * 4), ArgSpec::Zeroed(N * 4));
    after.after = vec![id];
    assert!(matches!(service.submit(after), Err(SubmitError::UnknownDependency(d)) if d == id));

    drop(dependent);
    service.drain();
    assert_eq!(memory(&service).free_bytes(), memory(&service).capacity());
}

#[test]
fn a_dropped_handle_still_lets_its_job_complete() {
    // One stream: the middle job queues behind a large launch, and its
    // handle drops while it waits there. The job still runs, and the last
    // job reads its output through the buffer it aliased.
    let service = Service::new(ServeConfig { streams_per_device: 1, ..ServeConfig::default() });
    let big = 1u64 << 18;
    let mut ahead = job(KernelShape::Copy, 1.0, ArgSpec::Zeroed(big * 4), ArgSpec::Zeroed(big * 4));
    ahead.n = big;
    ahead.args[3] = ArgSpec::Scalar(KernelArg::I32(big as i32));
    ahead.read_back = None;
    let ahead = service.submit(ahead).unwrap();
    let x = f32_bytes(&(0..N).map(|i| i as f32).collect::<Vec<_>>());
    let dropped = service
        .submit(job(KernelShape::Scale, 5.0, ArgSpec::In(x), ArgSpec::Zeroed(N * 4)))
        .unwrap();
    let last = service
        .submit(job(KernelShape::Copy, 1.0, ArgSpec::Output(dropped.id, 2), ArgSpec::Zeroed(N * 4)))
        .unwrap();
    drop(dropped);
    drop(ahead);

    let out = floats(&last.wait().output.expect("last output"));
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, 5.0 * i as f32, "element {i}");
    }
    drop(last);
    service.drain();
    let counts = service.counts();
    assert_eq!((counts.submitted, counts.completed, counts.failed), (3, 3, 0));
    assert_eq!(memory(&service).free_bytes(), memory(&service).capacity());
}

#[test]
fn a_refused_submission_gives_back_what_it_allocated() {
    let service = Service::new(ServeConfig::default());
    let producer = service
        .submit(job(KernelShape::Copy, 1.0, ArgSpec::Zeroed(N * 4), ArgSpec::Zeroed(N * 4)))
        .unwrap();
    producer.wait();
    let before = memory(&service).free_bytes();

    // The fresh x buffer is allocated before the alias of the producer's
    // scalar slot is refused.
    let bad_alias =
        job(KernelShape::Copy, 1.0, ArgSpec::Zeroed(1 << 20), ArgSpec::Output(producer.id, 0));
    assert!(matches!(service.submit(bad_alias), Err(SubmitError::BadBuffer { arg: 0, .. })));
    assert_eq!(memory(&service).free_bytes(), before, "BadBuffer kept its buffers");

    // The second 200 MiB buffer does not fit beside the first.
    let too_big =
        job(KernelShape::Copy, 1.0, ArgSpec::Zeroed(200 << 20), ArgSpec::Zeroed(200 << 20));
    assert!(matches!(service.submit(too_big), Err(SubmitError::Alloc(_))));
    assert_eq!(memory(&service).free_bytes(), before, "Alloc kept its buffers");

    // Refusals hold no admission slot either.
    assert_eq!(service.in_flight(Vendor::Nvidia), 0);
}
