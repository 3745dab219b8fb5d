//! Acceptance: the failover router under a seeded fault storm.
//!
//! The resilience contract, end to end: with failover ON, a fault storm
//! plus a sticky route outage costs *zero* jobs and the results stay
//! byte-identical to the serial fault-free reference; with failover OFF
//! and the same seed, jobs are demonstrably lost. The whole run replays
//! from the seed alone.

use mcmm_chaos::{ChaosConfig, FaultInjector};
use mcmm_core::rating::{qualify, Evidence};
use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_serve::failover::BREAKER_THRESHOLD;
use mcmm_serve::workload::routable_combos;
use mcmm_serve::{
    run_serial, FailoverPolicy, FailoverRouter, KernelShape, PlannedInput, PlannedJob, ServeConfig,
    Service, SubmitError, Unserved, Workload, WorkloadConfig,
};

const SEED: u64 = 0xC0FFEE;

fn small_workload() -> WorkloadConfig {
    WorkloadConfig { jobs: 120, seed: SEED, n: 64, chain_percent: 40, duplicate_percent: 0 }
}

/// The storm used across these tests: transient faults everywhere plus a
/// sticky outage of NVIDIA's first-choice CUDA C++ route, which forces
/// genuine cross-route failover (nvcc → Clang CUDA).
fn storm() -> ChaosConfig {
    ChaosConfig::storm(SEED).with_outage("CUDA Toolkit (nvcc)", Some(Vendor::Nvidia))
}

struct RunOutcome {
    outputs: Vec<Option<Vec<u8>>>,
    stats: mcmm_serve::FailoverStats,
}

fn run_with(policy: FailoverPolicy) -> RunOutcome {
    let service = std::sync::Arc::new(Service::new(ServeConfig::default()));
    let injector = std::sync::Arc::new(FaultInjector::new(storm()));
    let workload = Workload::generate(small_workload(), service.registry());
    let mut router = FailoverRouter::new(
        std::sync::Arc::clone(&service),
        std::sync::Arc::clone(&injector),
        policy,
    );
    let outputs = router.run(&workload);
    service.drain();
    RunOutcome { outputs, stats: router.stats() }
}

#[test]
fn failover_on_loses_nothing_and_matches_serial_reference() {
    let outcome = run_with(FailoverPolicy::default());
    let s = &outcome.stats;
    assert_eq!(s.lost, 0, "failover must rescue every job: {s:?}");
    assert!(s.retries >= 1, "storm must force at least one retry: {s:?}");
    assert!(s.failovers >= 1, "outage must force a cross-route failover: {s:?}");
    assert!(!s.quarantined.is_empty(), "outage route must trip the breaker: {s:?}");
    assert!(s.degraded >= 1, "failed-over jobs finish on a worse-rated route: {s:?}");
    assert!(s.backoff_us_total > 0.0, "retries book modeled backoff: {s:?}");

    // Byte identity with the serial, fault-free reference: rescued jobs
    // return exactly the bytes they would have without the storm.
    let registry = mcmm_toolchain::Registry::paper();
    let workload = Workload::generate(small_workload(), &registry);
    let expected = run_serial(&workload, &registry);
    assert_eq!(outcome.outputs.len(), expected.len());
    for (i, (got, want)) in outcome.outputs.iter().zip(&expected).enumerate() {
        assert_eq!(got.as_deref(), Some(want.as_slice()), "job {i} bytes diverged");
    }
}

#[test]
fn failover_off_same_seed_loses_jobs() {
    let outcome = run_with(FailoverPolicy::disabled());
    let s = &outcome.stats;
    assert!(s.lost > 0, "without failover the outage must cost jobs: {s:?}");
    assert_eq!(s.retries, 0, "disabled policy must not retry: {s:?}");
    assert_eq!(s.failovers, 0, "disabled policy must not fail over: {s:?}");
    assert!(s.quarantined.is_empty(), "disabled policy must keep no breaker: {s:?}");
    assert_eq!(s.degraded, 0, "every job starts on its plan's first route: {s:?}");
    assert_eq!(
        outcome.outputs.iter().filter(|o| o.is_none()).count() as u64,
        s.lost,
        "every lost job is a None output"
    );
}

#[test]
fn whole_run_replays_from_the_seed() {
    let a = run_with(FailoverPolicy::default());
    let b = run_with(FailoverPolicy::default());
    assert_eq!(a.outputs, b.outputs, "same seed, same bytes");
    assert_eq!(a.stats.retries, b.stats.retries);
    assert_eq!(a.stats.failovers, b.stats.failovers);
    assert_eq!(a.stats.quarantined, b.stats.quarantined);
    assert_eq!(a.stats.degraded, b.stats.degraded);
    assert_eq!(a.stats.backoff_us_total, b.stats.backoff_us_total);
}

#[test]
fn quarantined_routes_are_skipped_at_admission() {
    let service = std::sync::Arc::new(Service::new(ServeConfig::default()));
    let injector = std::sync::Arc::new(FaultInjector::new(storm()));
    let workload = Workload::generate(small_workload(), service.registry());
    let mut router = FailoverRouter::new(
        std::sync::Arc::clone(&service),
        std::sync::Arc::clone(&injector),
        FailoverPolicy::default(),
    );
    router.run(&workload);
    service.drain();

    assert!(router.is_quarantined("CUDA Toolkit (nvcc)", Vendor::Nvidia));
    // Once the breaker has tripped, later CUDA C++ jobs start straight on
    // the fallback route — their traces never touch the dead route again.
    let dead = "CUDA Toolkit (nvcc)";
    let traces = router.traces();
    let quarantine_trip = traces
        .iter()
        .position(|t| {
            t.attempts.iter().filter(|a| a.route == dead && a.error.is_some()).count() > 0
                && t.final_route.as_deref().is_some_and(|r| r.contains("Clang"))
        })
        .expect("some job must have failed over from nvcc to Clang CUDA");
    let later_nvcc_attempts = traces[quarantine_trip + 1..]
        .iter()
        .flat_map(|t| t.attempts.iter())
        .filter(|a| a.route == dead)
        .count();
    assert_eq!(later_nvcc_attempts, 0, "quarantine must keep jobs off the dead route");

    // Rating delta: jobs that finished on the fallback carry the runtime
    // downgrade (Full -> non-vendor good support = positive delta).
    let degraded_trace = traces
        .iter()
        .find(|t| t.final_route.as_deref().is_some_and(|r| r.contains("Clang")))
        .expect("a failed-over job exists");
    assert!(degraded_trace.rating_delta > 0, "failover to a worse-rated route must book a delta");
}

/// Four threads share one router and take jobs from one counter, so no
/// job is run twice or skipped. Returns each job's `run_one` outcome.
fn run_concurrently(
    router: &FailoverRouter,
    workload: &Workload,
) -> Vec<Option<(Vec<u8>, String)>> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let outcomes: Vec<_> = (0..workload.jobs.len()).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(job) = workload.jobs.get(i) else { break };
                *outcomes[i].lock().unwrap() = router.run_one(i as u64, job);
            });
        }
    });
    outcomes.into_iter().map(|o| o.into_inner().unwrap()).collect()
}

fn standalone_workload() -> WorkloadConfig {
    WorkloadConfig { chain_percent: 0, ..small_workload() }
}

#[test]
fn concurrent_run_one_matches_the_serial_reference() {
    let service = std::sync::Arc::new(Service::new(ServeConfig::default()));
    let injector = std::sync::Arc::new(FaultInjector::new(ChaosConfig::quiet(SEED)));
    let router = FailoverRouter::new(service, injector, FailoverPolicy::default());
    let registry = mcmm_toolchain::Registry::paper();
    let workload = Workload::generate(standalone_workload(), &registry);
    let expected = run_serial(&workload, &registry);

    let outcomes = run_concurrently(&router, &workload);
    for (i, (got, want)) in outcomes.iter().zip(&expected).enumerate() {
        let (bytes, _) = got.as_ref().unwrap_or_else(|| panic!("job {i} was lost"));
        assert_eq!(bytes, want, "job {i} bytes diverged");
    }
    assert_eq!(router.stats().lost, 0);
}

#[test]
fn concurrent_run_one_fails_over_around_an_outage() {
    let service = std::sync::Arc::new(Service::new(ServeConfig::default()));
    let chaos = ChaosConfig::quiet(1).with_outage("nvcc", Some(Vendor::Nvidia));
    let injector = std::sync::Arc::new(FaultInjector::new(chaos));
    let router = FailoverRouter::new(service, injector, FailoverPolicy::default());
    let registry = mcmm_toolchain::Registry::paper();
    let workload = Workload::generate(standalone_workload(), &registry);
    let expected = run_serial(&workload, &registry);

    let outcomes = run_concurrently(&router, &workload);
    let mut cuda_on_nvidia = 0;
    for (i, ((got, want), job)) in outcomes.iter().zip(&expected).zip(&workload.jobs).enumerate() {
        let (bytes, route) = got.as_ref().unwrap_or_else(|| panic!("job {i} was lost"));
        assert_eq!(bytes, want, "job {i} bytes diverged");
        let cuda_cpp_on_nvidia = job.model == mcmm_core::taxonomy::Model::Cuda
            && job.language == mcmm_core::taxonomy::Language::Cpp
            && job.vendor == Vendor::Nvidia;
        if cuda_cpp_on_nvidia {
            cuda_on_nvidia += 1;
            assert!(!route.contains("nvcc"), "job {i} was served on the dead route {route}");
        }
    }
    assert!(cuda_on_nvidia > 0, "the workload must plan CUDA C++ jobs on NVIDIA");
    assert_eq!(router.stats().lost, 0);
    let nvidia = Vendor::Nvidia.to_string();
    assert!(
        router
            .breaker_states()
            .iter()
            .any(|b| b.route.contains("nvcc") && b.vendor == nvidia && b.open),
        "nvcc @ NVIDIA must be quarantined: {:?}",
        router.breaker_states()
    );
}

#[test]
fn a_full_device_is_refused_without_booking_the_route() {
    // A device with no memory left refuses every route of the cell alike:
    // the router hands the job back instead of retrying, failing over or
    // tripping the breaker of a healthy route.
    let service = std::sync::Arc::new(Service::new(ServeConfig::default()));
    let injector = std::sync::Arc::new(FaultInjector::new(ChaosConfig::quiet(SEED)));
    let router =
        FailoverRouter::new(std::sync::Arc::clone(&service), injector, FailoverPolicy::default());
    let registry = mcmm_toolchain::Registry::paper();
    let workload = Workload::generate(standalone_workload(), &registry);
    let expected = run_serial(&workload, &registry);
    let (i, job) = workload
        .jobs
        .iter()
        .enumerate()
        .find(|(_, j)| j.vendor == Vendor::Nvidia)
        .expect("the workload plans a job on NVIDIA");

    let device = service.device(Vendor::Nvidia);
    let filler = device.alloc_owned(device.memory().free_bytes()).unwrap();
    let threshold = BREAKER_THRESHOLD;
    for attempt in 0..=u64::from(threshold) {
        match router.try_run_one(attempt, job) {
            Err(Unserved::Refused(SubmitError::Alloc(_))) => {}
            other => panic!("a full device must refuse the job: {other:?}"),
        }
    }
    assert!(router.breaker_states().is_empty(), "{:?}", router.breaker_states());
    let stats = router.stats();
    assert_eq!((stats.lost, stats.retries, stats.failovers), (0, 0, 0));

    drop(filler);
    let (bytes, _) = router.try_run_one(u64::from(threshold) + 1, job).expect("served once free");
    assert_eq!(bytes, expected[i]);
}

/// A standalone `y = 2·x` job for one cell.
fn scale_job(model: Model, language: Language, vendor: Vendor) -> PlannedJob {
    PlannedJob {
        shape: KernelShape::Scale,
        model,
        language,
        vendor,
        a: 2.0,
        x: PlannedInput::Fresh(vec![1.0, 2.0, 3.0, 4.0]),
        y: vec![0.0; 4],
        n: 4,
    }
}

fn quiet_router(chaos: ChaosConfig) -> FailoverRouter {
    let service = std::sync::Arc::new(Service::new(ServeConfig::default()));
    FailoverRouter::new(
        service,
        std::sync::Arc::new(FaultInjector::new(chaos)),
        FailoverPolicy::default(),
    )
}

#[test]
fn the_router_serves_every_cell_on_the_services_first_choice() {
    // The router plans from the same ranking as `Service::submit` and the
    // serial reference, so with nothing failing it takes their route.
    let router = quiet_router(ChaosConfig::quiet(SEED));
    let registry = mcmm_toolchain::Registry::paper();
    for (i, (model, language, vendor)) in routable_combos(&registry).into_iter().enumerate() {
        let best = registry.select_best(model, language, vendor).expect("routable").name;
        let job = scale_job(model, language, vendor);
        let (_, route) = router
            .try_run_one(i as u64, &job)
            .unwrap_or_else(|e| panic!("{model} {language} on {vendor}: {e:?}"));
        assert_eq!(route, best, "{model} {language} on {vendor}");
    }
    assert!(router.traces().iter().all(|t| t.rating_delta == 0 && t.attempts.len() == 1));
}

#[test]
fn every_plan_starts_on_a_best_rated_route() {
    // `rating_delta` is final minus planned, so it is never negative only
    // while each cell's plan head is rated no worse than any of its routes.
    let registry = mcmm_toolchain::Registry::paper();
    let rating = |c: &mcmm_toolchain::VirtualCompiler| qualify(Evidence::from_route(&c.route));
    let mut cells = 0;
    for model in Model::ALL {
        for language in Language::ALL {
            for vendor in Vendor::ALL {
                let plan = registry.ranked(model, language, vendor);
                let Some(head) = plan.first() else { continue };
                cells += 1;
                let best = plan.iter().map(|c| rating(c)).min().expect("non-empty plan");
                assert_eq!(rating(head), best, "{model} {language} on {vendor}: {}", head.name);
            }
        }
    }
    assert_eq!(cells, 38, "the paper's matrix has 38 cells with a usable route");
}

#[test]
fn a_success_closes_the_breaker_it_follows() {
    // CUDA C++ on Intel has one route. Its first three attempts are
    // refused, which opens the breaker; with nowhere else to go the job
    // stays on the route, and the fourth attempt's success closes it.
    let chaos = ChaosConfig { budget: 3, launch_p: 1.0, ..ChaosConfig::quiet(1) };
    let router = quiet_router(chaos);
    let job = scale_job(Model::Cuda, Language::Cpp, Vendor::Intel);
    let (_, route) = router.try_run_one(0, &job).expect("served once the budget is spent");
    assert_eq!(route, "chipStar (cuspv)");
    let trace = &router.traces()[0];
    let refused = trace.attempts.iter().filter(|a| a.error.is_some()).count();
    assert_eq!((refused, trace.attempts.len()), (3, 4), "{trace:?}");
    let stats = router.stats();
    assert_eq!(stats.quarantined, vec!["chipStar (cuspv) @ Intel".to_owned()]);
    assert_eq!((stats.lost, stats.failovers), (0, 0));
    assert!(!router.is_quarantined(&route, Vendor::Intel));
    assert!(router.breaker_states().iter().all(|b| !b.open), "{:?}", router.breaker_states());
}

#[test]
fn an_empty_cell_is_refused_not_lost() {
    // SYCL Fortran has no route anywhere: that is the matrix's answer,
    // not a route fault, so the router books nothing.
    let router = quiet_router(ChaosConfig::quiet(SEED));
    let job = scale_job(Model::Sycl, Language::Fortran, Vendor::Nvidia);
    match router.try_run_one(0, &job) {
        Err(Unserved::Refused(SubmitError::NoRoute { model, language, vendor })) => {
            assert_eq!((model, language, vendor), (Model::Sycl, Language::Fortran, Vendor::Nvidia));
        }
        other => panic!("an empty cell must be refused as NoRoute: {other:?}"),
    }
    assert_eq!(router.stats().lost, 0);
    assert!(router.breaker_states().is_empty());
}
