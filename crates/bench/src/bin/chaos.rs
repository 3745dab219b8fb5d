//! X4 — chaos: replay the canonical workload through the execution
//! service under a seeded fault storm (transient faults at every pipeline
//! stage plus one sticky route outage per vendor), with the matrix-driven
//! failover router switched on — then off — and verify the resilience
//! contract:
//!
//! * failover ON: zero lost jobs, every result buffer byte-identical to
//!   fault-free serial execution, at least one retry and one cross-route
//!   failover, and every outage route quarantined;
//! * failover OFF, same seed: jobs are demonstrably lost;
//! * the whole run replays bit-for-bit from the seed alone.
//!
//! Usage: `cargo run -p mcmm-bench --bin chaos [--] [--smoke] [--jobs N]
//! [--seed S] [--json]`. Exits non-zero on any violated invariant, so
//! this binary doubles as the CI chaos gate.

use mcmm_chaos::{ChaosConfig, FaultInjector};
use mcmm_core::taxonomy::Vendor;
use mcmm_serve::workload::{run_serial, Workload, WorkloadConfig};
use mcmm_serve::{
    FailoverPolicy, FailoverRouter, FailoverStats, ServeConfig, ServeReport, Service,
};
use mcmm_toolchain::Registry;
use std::time::Instant;

/// The canonical storm: every stage can break, and each vendor's
/// first-rated route for one busy cell is down for the whole run —
/// NVIDIA's CUDA C++ toolkit, AMD's and Intel's first-choice SYCL
/// compilers — so every device must exercise real cross-route failover.
fn storm(seed: u64) -> ChaosConfig {
    ChaosConfig::storm(seed)
        .with_outage("CUDA Toolkit (nvcc)", Some(Vendor::Nvidia))
        .with_outage("Open SYCL (HIP/ROCm)", Some(Vendor::Amd))
        .with_outage("Intel oneAPI DPC++ (icpx -fsycl)", Some(Vendor::Intel))
}

struct Outcome {
    outputs: Vec<Option<Vec<u8>>>,
    stats: FailoverStats,
    report: ServeReport,
    example_trace: Option<String>,
}

/// One full pass: fresh service, fresh injector, sequential failover run.
fn run(jobs: usize, seed: u64, policy: FailoverPolicy) -> Outcome {
    let service = std::sync::Arc::new(Service::new(ServeConfig::default()));
    let injector = std::sync::Arc::new(FaultInjector::new(storm(seed)));
    let workload =
        Workload::generate(WorkloadConfig { jobs, seed, ..Default::default() }, service.registry());
    let mut router = FailoverRouter::new(
        std::sync::Arc::clone(&service),
        std::sync::Arc::clone(&injector),
        policy,
    );
    let wall = Instant::now();
    let outputs = router.run(&workload);
    service.drain();
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let report = ServeReport::collect(&service, &router.completions(), seed, wall_ms)
        .with_failover(router.stats());
    let example_trace = router
        .traces()
        .iter()
        .find(|t| {
            t.rating_delta > 0
                && t.final_route.is_some()
                && t.attempts.iter().any(|a| a.error.is_some())
        })
        .map(|t| {
            let steps: Vec<String> = t
                .attempts
                .iter()
                .map(|a| match &a.error {
                    Some(e) => format!("{} ✗ ({e})", a.route),
                    None => format!("{} ✓", a.route),
                })
                .collect();
            format!("job {}: {} (rating delta +{})", t.job, steps.join(" → "), t.rating_delta)
        });
    Outcome { outputs, stats: router.stats(), report, example_trace }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let smoke = flag("--smoke");
    let jobs = value("--jobs")
        .map(|v| v.parse().expect("--jobs takes a number"))
        .unwrap_or(if smoke { 60 } else { 500 });
    let seed =
        value("--seed").map(|v| v.parse().expect("--seed takes a number")).unwrap_or(0xC0FFEE);
    let json = flag("--json");

    let with_failover = run(jobs, seed, FailoverPolicy::default());
    if json {
        println!("{}", with_failover.report.to_json());
    } else {
        println!("── Fault storm over the executable matrix (X4) ──");
        println!("workload: {jobs} jobs, failover ON, storm seed {seed:#x}");
        print!("{}", with_failover.report.render());
        if let Some(t) = &with_failover.example_trace {
            println!("  trace      {t}");
        }
    }

    let mut failed = false;
    let s = &with_failover.stats;
    if s.lost != 0 {
        eprintln!("FAIL: failover lost {} jobs", s.lost);
        failed = true;
    }
    if s.retries == 0 {
        eprintln!("FAIL: the storm forced no retries");
        failed = true;
    }
    if s.failovers == 0 {
        eprintln!("FAIL: the outages forced no cross-route failover");
        failed = true;
    }
    for outage in &storm(seed).outages {
        let vendor = outage.vendor.expect("every canonical outage names its vendor");
        let label = format!("{} @ {vendor}", outage.toolchain);
        if !s.quarantined.contains(&label) {
            eprintln!("FAIL: the outage of {label} tripped no circuit breaker");
            failed = true;
        }
    }

    // Byte identity: a rescued job returns exactly the bytes it would
    // have produced without the storm (routes differ only in rating and
    // modeled efficiency, never in results — the portability argument).
    let registry = Registry::paper();
    let workload =
        Workload::generate(WorkloadConfig { jobs, seed, ..Default::default() }, &registry);
    let serial = run_serial(&workload, &registry);
    let divergent = serial
        .iter()
        .zip(&with_failover.outputs)
        .filter(|(expect, got)| got.as_ref() != Some(expect))
        .count();
    if divergent > 0 {
        eprintln!("FAIL: {divergent} rescued jobs diverged from fault-free serial execution");
        failed = true;
    } else if !json {
        println!("verify: all {} result buffers byte-identical to serial execution", serial.len());
    }

    // The counterfactual: same seed, no safety net → lost jobs.
    let without = run(jobs, seed, FailoverPolicy::disabled());
    if without.stats.lost == 0 {
        eprintln!("FAIL: disabling failover lost nothing — the storm has no teeth");
        failed = true;
    } else if !json {
        println!(
            "verify: failover OFF loses {} of {} jobs under the same storm",
            without.stats.lost, jobs
        );
    }

    // Reproducibility: the whole run replays from the seed alone.
    if !smoke {
        let replay = run(jobs, seed, FailoverPolicy::default());
        let identical = replay.outputs == with_failover.outputs
            && replay.stats.retries == s.retries
            && replay.stats.failovers == s.failovers
            && replay.stats.quarantined == s.quarantined
            && replay.stats.backoff_us_total == s.backoff_us_total;
        if !identical {
            eprintln!("FAIL: same seed, different storm — determinism broken");
            failed = true;
        } else if !json {
            println!("verify: second run of seed {seed:#x} is bit-identical");
        }
    }

    if failed {
        std::process::exit(1);
    }
}
