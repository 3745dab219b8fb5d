//! X3 — serve the matrix: replay a seeded mixed workload (all 9 frontends
//! × 3 devices) through the concurrent execution service, verify the
//! results byte-for-byte against serial single-stream execution, and
//! print the serving report.
//!
//! Usage: `cargo run -p mcmm-bench --bin serve [--] [--smoke] [--jobs N]
//! [--seed S] [--json]`. `--smoke` shrinks the workload for CI; `--json`
//! prints the machine-readable report instead of the human one. Exits
//! non-zero if any serving invariant is violated, so this binary doubles
//! as an end-to-end smoke test.

use mcmm_analyze::portability::portability;
use mcmm_analyze::AnalysisOptions;
use mcmm_core::taxonomy::Vendor;
use mcmm_serve::workload::{run_serial, KernelShape, Workload, WorkloadConfig};
use mcmm_serve::{
    JobCompletion, JobId, PortabilityRow, ServeConfig, ServeReport, Service, SubmitError,
};
use mcmm_toolchain::Registry;
use std::collections::VecDeque;
use std::time::Instant;

/// Per-device portability verdicts for every workload kernel shape: the
/// serving layer stays analyzer-free, so the rows are computed here and
/// attached to the report.
fn portability_rows() -> Vec<PortabilityRow> {
    let opts = AnalysisOptions::default();
    KernelShape::ALL
        .iter()
        .flat_map(|shape| {
            let report = portability(&shape.kernel(), &opts);
            report
                .verdicts
                .into_iter()
                .map(|v| PortabilityRow {
                    kernel: report.kernel.clone(),
                    device: v.device.to_string(),
                    warp_width: v.warp_width,
                    gate_clean: v.gate_clean(),
                    codes: v.codes().into_iter().map(str::to_string).collect(),
                })
                .collect::<Vec<_>>()
        })
        .collect()
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

    let registry = Registry::paper();
    let cfg = WorkloadConfig { jobs, seed, ..Default::default() };
    let workload = Workload::generate(cfg, &registry);
    let (models, vendors) = workload.coverage();

    let service = Service::new(ServeConfig::default());
    let wall = Instant::now();
    let (completions, retries) = replay(&service, &workload);
    service.drain();
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    let report = ServeReport::collect(&service, &completions, seed, wall_ms)
        .with_portability(portability_rows());
    if json {
        println!("{}", report.to_json());
    } else {
        println!("── Serving the executable matrix (X3) ──");
        println!(
            "workload: {} jobs over {} frontends × {} devices ({} admission retries)",
            jobs,
            models.len(),
            vendors.len(),
            retries
        );
        print!("{}", report.render());
    }

    // Invariants — the same contract the acceptance test enforces.
    let mut failed = false;
    let counts = service.counts();
    if counts.completed + counts.failed != counts.submitted {
        eprintln!(
            "FAIL: {} submitted but only {} retired",
            counts.submitted,
            counts.completed + counts.failed
        );
        failed = true;
    }
    if counts.failed > 0 {
        eprintln!("FAIL: {} workload jobs failed", counts.failed);
        failed = true;
    }
    // The replay's handles are gone and the streams drained, so every
    // job's buffers must be back on its device.
    for vendor in Vendor::ALL {
        let mem = service.device(vendor).memory();
        if mem.free_bytes() != mem.capacity() {
            let held = mem.capacity() - mem.free_bytes();
            eprintln!("FAIL: the {vendor} device still holds {held} bytes after the run");
            failed = true;
        }
    }
    // The 80% floor is a consequence of the key budget (4 shapes × ~24
    // routable combos ≈ 97 distinct cache keys), so it only holds once the
    // workload is large enough to amortize the compulsory misses.
    let hit_rate = service.cache().stats().hit_rate();
    if jobs >= 500 && hit_rate <= 0.80 {
        eprintln!("FAIL: cache hit rate {:.1}% ≤ 80%", hit_rate * 100.0);
        failed = true;
    }
    let serial = run_serial(&workload, &registry);
    let divergent = serial
        .iter()
        .zip(&completions)
        .filter(|(expect, got)| got.output.as_ref() != Some(expect))
        .count();
    if divergent > 0 {
        eprintln!("FAIL: {divergent} jobs diverged from serial single-stream execution");
        failed = true;
    } else if !json {
        println!("verify: all {} result buffers byte-identical to serial execution", serial.len());
    }
    // Every served kernel shape must be portable across all three vendor
    // devices — a BREAKS verdict here means the workload generator and
    // the portability suite disagree about our own kernels.
    let breaking = report.portability.iter().filter(|r| !r.gate_clean).count();
    if breaking > 0 {
        eprintln!("FAIL: {breaking} workload kernel-device verdicts break the portability gate");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// Submit the plan, absorbing admission-control rejections by retiring
/// the oldest outstanding job and retrying. Returns completions in plan
/// order and the number of retries. Every handle is kept until the replay
/// ends, so later jobs can chain onto any earlier one; returning drops
/// them all.
fn replay(service: &Service, workload: &Workload) -> (Vec<JobCompletion>, u64) {
    let mut ids: Vec<JobId> = Vec::with_capacity(workload.jobs.len());
    let mut outstanding: VecDeque<(usize, mcmm_serve::JobHandle)> = VecDeque::new();
    let mut retired: Vec<mcmm_serve::JobHandle> = Vec::new();
    let mut completions: Vec<Option<JobCompletion>> = Vec::new();
    completions.resize_with(workload.jobs.len(), || None);
    let mut retries = 0u64;
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
                    retries += 1;
                    let (idx, handle) =
                        outstanding.pop_front().expect("queue full with nothing outstanding");
                    completions[idx] = Some(handle.wait());
                    retired.push(handle);
                }
                Err(e) => {
                    eprintln!("FAIL: planned job {i} refused: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    for (idx, handle) in &outstanding {
        completions[*idx] = Some(handle.wait());
    }
    (completions.into_iter().map(|c| c.expect("every job completes")).collect(), retries)
}
