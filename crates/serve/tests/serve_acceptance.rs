//! Acceptance suite for the serving layer.
//!
//! The headline test replays the canonical seeded 500-job mixed workload
//! (all 9 frontends × 3 devices) through the concurrent service and
//! checks the contract end to end: no job dropped without an explicit
//! rejection, cache hit rate above 80%, and result buffers byte-identical
//! to a serial single-stream execution of the same plan.

use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_gpu_sim::device::KernelArg;
use mcmm_gpu_sim::ir::{Instr, KernelIr, Operand, Reg, Type};
use mcmm_serve::workload::{run_serial, PlannedInput, Workload, WorkloadConfig};
use mcmm_serve::{
    ArgSpec, JobCompletion, JobId, JobSpec, KernelShape, ServeConfig, Service, SubmitError,
};
use mcmm_toolchain::{CompileError, Registry};
use std::collections::VecDeque;

/// Submit a planned workload, retrying admission-control rejections by
/// waiting out the oldest outstanding job. Returns completions in plan
/// order plus the number of explicit rejections absorbed. Every handle is
/// kept until the run ends, so later jobs can chain onto any earlier one.
fn run_concurrent(service: &Service, workload: &Workload) -> (Vec<JobCompletion>, u64) {
    let mut ids: Vec<JobId> = Vec::with_capacity(workload.jobs.len());
    let mut outstanding: VecDeque<(usize, mcmm_serve::JobHandle)> = VecDeque::new();
    let mut retired: Vec<mcmm_serve::JobHandle> = Vec::new();
    let mut completions: Vec<Option<JobCompletion>> = Vec::new();
    completions.resize_with(workload.jobs.len(), || None);
    let mut rejections = 0u64;
    for (i, planned) in workload.jobs.iter().enumerate() {
        let spec = planned.to_spec(&ids);
        loop {
            match service.submit(spec.clone()) {
                Ok(handle) => {
                    ids.push(handle.id);
                    outstanding.push_back((i, handle));
                    break;
                }
                Err(SubmitError::QueueFull { .. }) => {
                    rejections += 1;
                    // Relieve pressure: retire the oldest outstanding job.
                    let (idx, handle) =
                        outstanding.pop_front().expect("queue full with nothing outstanding");
                    completions[idx] = Some(handle.wait());
                    retired.push(handle);
                }
                Err(e) => panic!("planned job {i} refused: {e}"),
            }
        }
    }
    for (idx, handle) in &outstanding {
        completions[*idx] = Some(handle.wait());
    }
    let completions: Vec<JobCompletion> =
        completions.into_iter().map(|c| c.expect("every planned job completes")).collect();
    (completions, rejections)
}

#[test]
fn seeded_500_job_workload_matches_serial_execution_bit_for_bit() {
    let registry = Registry::paper();
    let cfg = WorkloadConfig::default();
    assert_eq!(cfg.jobs, 500);
    let workload = Workload::generate(cfg, &registry);

    // The plan must exercise the whole serving surface.
    let (models, vendors) = workload.coverage();
    assert_eq!(models.len(), Model::ALL.len(), "all 9 frontends");
    assert_eq!(vendors.len(), Vendor::ALL.len(), "all 3 devices");

    let service = Service::new(ServeConfig::default());
    let (completions, _rejections) = run_concurrent(&service, &workload);

    // Zero dropped-without-rejection: every admitted job retired, and the
    // books balance exactly.
    let counts = service.counts();
    assert_eq!(counts.submitted, 500);
    assert_eq!(counts.completed + counts.failed, counts.submitted, "a job vanished");
    assert_eq!(counts.failed, 0, "workload jobs must all succeed");
    assert_eq!(completions.len(), 500);
    for c in &completions {
        assert!(c.is_ok(), "{} failed: {:?}", c.id, c.error);
        assert!(c.output.is_some(), "{} lost its read-back", c.id);
    }

    // Cache: 4 kernel shapes × the routable combos is far below 500, so
    // the content-addressed cache must serve the bulk of submissions.
    let cache = service.cache().stats();
    assert!(
        cache.hit_rate() > 0.80,
        "cache hit rate {:.1}% (hits {}, misses {})",
        cache.hit_rate() * 100.0,
        cache.hits,
        cache.misses
    );

    // Determinism: byte-identical to serial single-stream execution.
    let serial = run_serial(&workload, &registry);
    assert_eq!(serial.len(), completions.len());
    for (i, (expect, got)) in serial.iter().zip(&completions).enumerate() {
        assert_eq!(
            Some(expect),
            got.output.as_ref(),
            "job {i} ({:?} on {}) diverged from serial execution",
            workload.jobs[i].shape,
            workload.jobs[i].vendor
        );
    }

    // Latencies are modeled and sane: non-negative, and queueing means at
    // least some job saw a positive delay.
    assert!(completions.iter().all(|c| c.latency.seconds() >= 0.0));
    assert!(completions.iter().any(|c| c.latency.seconds() > 0.0));
}

#[test]
fn chained_jobs_observe_their_dependency() {
    // A scale chained into a saxpy through ArgSpec::Output must see the
    // scale's result, not the original bytes.
    let service = Service::new(ServeConfig::default());
    let n = 64u64;
    let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let y0: Vec<f32> = vec![1.0; n as usize];
    let bytes = |v: &[f32]| -> Vec<u8> { v.iter().flat_map(|f| f.to_le_bytes()).collect() };

    let first = JobSpec {
        kernel: KernelShape::Scale.kernel(),
        model: Model::Cuda,
        language: Language::Cpp,
        vendor: Vendor::Nvidia,
        n,
        block_dim: 32,
        args: vec![
            ArgSpec::Scalar(KernelArg::F32(3.0)),
            ArgSpec::In(bytes(&x)),
            ArgSpec::In(bytes(&y0)),
            ArgSpec::Scalar(KernelArg::I32(n as i32)),
        ],
        after: vec![],
        read_back: Some(2),
    };
    let h1 = service.submit(first).unwrap();
    let id1 = h1.id;

    // saxpy: y2 = 2·(3x) + 5
    let second = JobSpec {
        kernel: KernelShape::Saxpy.kernel(),
        model: Model::Sycl,
        language: Language::Cpp,
        vendor: Vendor::Nvidia,
        n,
        block_dim: 32,
        args: vec![
            ArgSpec::Scalar(KernelArg::F32(2.0)),
            ArgSpec::Output(id1, 2),
            ArgSpec::In(bytes(&vec![5.0f32; n as usize])),
            ArgSpec::Scalar(KernelArg::I32(n as i32)),
        ],
        after: vec![],
        read_back: Some(2),
    };
    let h2 = service.submit(second).unwrap();

    let c1 = h1.wait();
    let c2 = h2.wait();
    assert!(c1.is_ok() && c2.is_ok());
    let out: Vec<f32> = c2
        .output
        .unwrap()
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
        .collect();
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, 2.0 * (3.0 * i as f32) + 5.0, "element {i}");
    }
    service.drain();
}

#[test]
fn admission_control_rejects_rather_than_drops() {
    // Depth 2: the third concurrent submission must be an explicit
    // QueueFull, and after draining, submissions flow again.
    let service = Service::new(ServeConfig {
        streams_per_device: 1,
        queue_depth: 2,
        cache_capacity: 16,
        ..ServeConfig::default()
    });
    let n = 1u64 << 14;
    let spec = |chain: Option<JobId>| {
        let x: Vec<u8> = vec![0u8; n as usize * 4];
        JobSpec {
            kernel: KernelShape::Scale.kernel(),
            model: Model::Hip,
            language: Language::Cpp,
            vendor: Vendor::Amd,
            n,
            block_dim: 256,
            args: vec![
                ArgSpec::Scalar(KernelArg::F32(1.5)),
                match chain {
                    Some(id) => ArgSpec::Output(id, 2),
                    None => ArgSpec::In(x.clone()),
                },
                ArgSpec::In(x),
                ArgSpec::Scalar(KernelArg::I32(n as i32)),
            ],
            after: vec![],
            read_back: None,
        }
    };
    // Two jobs fill the queue; chaining keeps the second behind the first.
    let h1 = service.submit(spec(None)).unwrap();
    let h2 = service.submit(spec(Some(h1.id))).unwrap();
    let mut saw_rejection = false;
    for _ in 0..64 {
        match service.submit(spec(Some(h2.id))) {
            Err(SubmitError::QueueFull { vendor, depth, retry_after_jobs }) => {
                assert_eq!(vendor, Vendor::Amd);
                assert_eq!(depth, 2);
                // Queue exactly at depth → one retirement frees a slot.
                assert_eq!(retry_after_jobs, 1);
                saw_rejection = true;
                break;
            }
            Ok(h) => {
                // The lane drained fast enough to admit — wait and retry.
                h.wait();
            }
            Err(e) => panic!("unexpected refusal: {e}"),
        }
    }
    h1.wait();
    h2.wait();
    service.drain();
    if saw_rejection {
        assert!(service.counts().rejected >= 1);
        // After the rejection, the lane must accept again once idle.
        let h = service.submit(spec(None)).unwrap();
        assert!(h.wait().is_ok());
    }
    let counts = service.counts();
    assert_eq!(counts.completed + counts.failed, counts.submitted, "books must balance");
    assert_eq!(service.in_flight(Vendor::Amd), 0);
}

#[test]
fn queue_full_carries_a_retry_hint_and_counts_each_rejection() {
    // Depth 1: the second submission bounces with a retry hint, and
    // coming back with the same spec after one completion gets in.
    let service = Service::new(ServeConfig {
        streams_per_device: 1,
        queue_depth: 1,
        cache_capacity: 16,
        ..ServeConfig::default()
    });
    let n = 1u64 << 14;
    let spec = |scale: f32| {
        let x: Vec<u8> = vec![0u8; n as usize * 4];
        JobSpec {
            kernel: KernelShape::Scale.kernel(),
            model: Model::Hip,
            language: Language::Cpp,
            vendor: Vendor::Amd,
            n,
            block_dim: 256,
            args: vec![
                ArgSpec::Scalar(KernelArg::F32(scale)),
                ArgSpec::In(x.clone()),
                ArgSpec::In(x),
                ArgSpec::Scalar(KernelArg::I32(n as i32)),
            ],
            after: vec![],
            read_back: None,
        }
    };
    let first = service.submit(spec(1.0)).unwrap();
    // The lane is full: both a comeback spec and a give-up spec bounce.
    let comeback = spec(2.0);
    let Err(SubmitError::QueueFull { retry_after_jobs, .. }) = service.submit(comeback.clone())
    else {
        panic!("depth-1 lane must reject the second submission");
    };
    assert_eq!(retry_after_jobs, 1);
    assert!(matches!(service.submit(spec(3.0)), Err(SubmitError::QueueFull { .. })));
    assert_eq!(service.counts().rejected, 2);

    // Heed the hint: wait for one completion, then resubmit the same spec.
    first.wait();
    service.submit(comeback).unwrap().wait();
    service.drain();
    let counts = service.counts();
    assert_eq!(counts.rejected, 2, "rejection events are history, not state");
    assert_eq!(counts.submitted, 2);
}

#[test]
fn job_failures_stay_job_local() {
    // A job whose launch reads out of bounds fails alone; an unrelated
    // job submitted to the same device afterwards still succeeds.
    let service = Service::new(ServeConfig {
        streams_per_device: 1,
        queue_depth: 8,
        cache_capacity: 16,
        ..ServeConfig::default()
    });
    let n = 32u64;
    let good_bytes: Vec<u8> = vec![0u8; n as usize * 4];

    // The x pointer aims past the end of device memory: the kernel's
    // global load faults at launch time.
    let oob = {
        let dev = service.device(Vendor::Nvidia);
        mcmm_gpu_sim::mem::DevicePtr(dev.spec().mem_bytes)
    };
    let bad = JobSpec {
        kernel: KernelShape::Copy.kernel(),
        model: Model::Cuda,
        language: Language::Cpp,
        vendor: Vendor::Nvidia,
        n,
        block_dim: 32,
        args: vec![
            ArgSpec::Scalar(KernelArg::F32(1.0)),
            ArgSpec::Scalar(KernelArg::Ptr(oob)),
            ArgSpec::In(vec![0u8; n as usize * 4]),
            ArgSpec::Scalar(KernelArg::I32(n as i32)),
        ],
        after: vec![],
        read_back: Some(2),
    };
    let h_bad = service.submit(bad).unwrap();

    let good = JobSpec {
        kernel: KernelShape::Copy.kernel(),
        model: Model::Cuda,
        language: Language::Cpp,
        vendor: Vendor::Nvidia,
        n,
        block_dim: 32,
        args: vec![
            ArgSpec::Scalar(KernelArg::F32(1.0)),
            ArgSpec::In(good_bytes.clone()),
            ArgSpec::In(good_bytes),
            ArgSpec::Scalar(KernelArg::I32(n as i32)),
        ],
        after: vec![],
        read_back: Some(2),
    };
    let h_good = service.submit(good).unwrap();

    let c_bad = h_bad.wait();
    let c_good = h_good.wait();
    assert!(!c_bad.is_ok(), "out-of-bounds job must fail");
    assert!(c_bad.output.is_none(), "failed job must not produce output");
    assert!(c_good.is_ok(), "neighbour job poisoned by another tenant: {:?}", c_good.error);
    assert!(c_good.output.is_some());
    // The streams themselves stay healthy.
    service.drain();
    let counts = service.counts();
    assert_eq!(counts.failed, 1);
    assert_eq!(counts.completed, 1);
}

#[test]
fn bad_submissions_are_refused_up_front() {
    let service = Service::new(ServeConfig::default());
    let n = 16u64;
    let base = JobSpec {
        kernel: KernelShape::Copy.kernel(),
        model: Model::Cuda,
        language: Language::Cpp,
        vendor: Vendor::Nvidia,
        n,
        block_dim: 16,
        args: vec![
            ArgSpec::Scalar(KernelArg::F32(1.0)),
            ArgSpec::In(vec![0u8; n as usize * 4]),
            ArgSpec::In(vec![0u8; n as usize * 4]),
            ArgSpec::Scalar(KernelArg::I32(n as i32)),
        ],
        after: vec![],
        read_back: Some(2),
    };

    // SYCL Fortran has no route anywhere in the paper's matrix.
    let mut no_route = base.clone();
    no_route.model = Model::Sycl;
    no_route.language = Language::Fortran;
    no_route.vendor = Vendor::Intel;
    assert!(matches!(
        service.submit(no_route),
        Err(SubmitError::NoRoute {
            model: Model::Sycl,
            language: Language::Fortran,
            vendor: Vendor::Intel
        })
    ));

    // Unknown dependency.
    let mut unknown = base.clone();
    unknown.after = vec![JobId(999)];
    assert!(matches!(service.submit(unknown), Err(SubmitError::UnknownDependency(JobId(999)))));

    // Cross-device buffer alias.
    let on_nvidia = service.submit(base.clone()).unwrap();
    let mut cross = base.clone();
    cross.model = Model::Hip;
    cross.vendor = Vendor::Amd;
    cross.args[1] = ArgSpec::Output(on_nvidia.id, 2);
    assert!(matches!(
        service.submit(cross),
        Err(SubmitError::CrossDeviceDependency {
            expected: Vendor::Amd,
            found: Vendor::Nvidia,
            ..
        })
    ));

    // Aliasing a scalar slot.
    let mut scalar_alias = base.clone();
    scalar_alias.args[1] = ArgSpec::Output(on_nvidia.id, 0);
    assert!(matches!(service.submit(scalar_alias), Err(SubmitError::BadBuffer { arg: 0, .. })));

    assert!(on_nvidia.wait().is_ok());
    // Refusals must not leak admission slots.
    service.drain();
    assert_eq!(service.in_flight(Vendor::Nvidia), 0);
    assert_eq!(service.in_flight(Vendor::Amd), 0);
}

/// A kernel naming a register past its table is refused as invalid before
/// the lint gate sees it, and its refusal gives the admission slot back.
#[test]
fn a_kernel_naming_a_missing_register_is_refused_as_invalid() {
    let service = Service::new(ServeConfig::default());
    let spec = JobSpec {
        kernel: KernelIr {
            name: "dangling".into(),
            params: vec![],
            regs: vec![Type::I32],
            shared_bytes: 0,
            body: vec![Instr::Mov { dst: Reg(0), src: Operand::Reg(Reg(7)) }],
        },
        model: Model::Cuda,
        language: Language::Cpp,
        vendor: Vendor::Nvidia,
        n: 16,
        block_dim: 16,
        args: vec![],
        after: vec![],
        read_back: None,
    };
    let refused = service.submit(spec);
    assert!(
        matches!(refused, Err(SubmitError::Compile(CompileError::InvalidKernel(_)))),
        "got {:?}",
        refused.err()
    );
    assert_eq!(service.in_flight(Vendor::Nvidia), 0);
}

#[test]
fn two_services_with_the_same_seed_agree() {
    // Service-level determinism: same seed, two independent service
    // instances, identical outputs (and identical cache behaviour).
    let registry = Registry::paper();
    let cfg = WorkloadConfig {
        jobs: 120,
        seed: 0xDEAD_BEEF,
        n: 128,
        chain_percent: 50,
        duplicate_percent: 0,
    };
    let workload = Workload::generate(cfg, &registry);
    // Sanity: the plan contains chains (dependencies), not just islands.
    assert!(
        workload.jobs.iter().any(|j| matches!(j.x, PlannedInput::ChainedFrom(_))),
        "seed produced no chains; determinism test would be trivial"
    );

    let run = || {
        let service = Service::new(ServeConfig::default());
        let (completions, _) = run_concurrent(&service, &workload);
        let stats = service.cache().stats();
        let outputs: Vec<Vec<u8>> =
            completions.into_iter().map(|c| c.output.expect("output")).collect();
        (outputs, stats.misses)
    };
    let (a, a_misses) = run();
    let (b, b_misses) = run();
    assert_eq!(a, b, "two services disagreed on the same seeded plan");
    assert_eq!(a_misses, b_misses, "cache fills must be plan-determined");
}
