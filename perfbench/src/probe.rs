//! Layer probes of the span-traced run: calls into a layer's public
//! functions, made directly with the workload's own kernels, routes and
//! sizes, for the layers its closed loop cannot be timed inside of from
//! outside the program (compilation and launch below the service), and
//! for layers the workload does not run at all.
//!
//! Also sums the modeled counts of one launch per (kernel, vendor): exact
//! figures of the simulated hardware, which must repeat run to run.

use crate::common::{fnv1a, Tally};
use crate::http_small::{self, Combo};
use crate::spans::{Recorder, Tracer};
use mcmm_analyze::{analyze_with, AnalysisOptions};
use mcmm_chaos::{ChaosConfig, FaultInjector};
use mcmm_core::taxonomy::Vendor;
use mcmm_gpu_sim::device::{Device, KernelArg, LaunchConfig};
use mcmm_gpu_sim::ir::KernelIr;
use mcmm_gpu_sim::isa::assemble;
use mcmm_gpu_sim::{lower, MemStats};
use mcmm_serve::{FailoverPolicy, FailoverRouter, ServeConfig, Service};
use mcmm_toolchain::{vendor_device_spec, vendor_isa, CompileCache, DiskTier, Registry};
use std::hint::black_box;
use std::sync::Arc;

/// Uploads the buffers of one launch of kernel `k` on a device and
/// returns the launch arguments.
pub type LaunchArgs = Box<dyn Fn(usize, &Device) -> Vec<KernelArg>>;

/// What the probes exercise: the workload's kernels, routes and size.
pub struct Subject {
    pub kernels: Vec<KernelIr>,
    pub combos: Vec<Combo>,
    pub n: usize,
    pub block: u32,
    /// Bytes of one of the workload's buffers, for the copy probes.
    pub copy_bytes: usize,
    pub args: LaunchArgs,
}

/// Exact modeled counts of the reference launches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Modeled {
    pub warp_instructions: u64,
    pub mem: MemStats,
    pub modeled_us: f64,
}

/// Failures seen by a probe, kept like a workload's.
#[derive(Default)]
pub struct Checks {
    pub tally: Tally,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally.record(ok);
        if !ok && self.failures.len() < 5 {
            self.failures.push(what());
        }
    }
}

/// Repetitions of a launch probe: enough samples for small launches,
/// few for large ones.
fn reps(n: usize) -> usize {
    if n <= 4096 {
        20
    } else {
        3
    }
}

/// Devices with memory tracing off or on, as the serving layer
/// configures them.
fn devices(traced: bool) -> Service {
    Service::new(ServeConfig { tracing: traced, ..ServeConfig::default() })
}

/// Time device bring-up, lowering, the compile pipeline (lint, assembly,
/// cache miss and hit), module load, launches and copies.
pub fn layers(subject: &Subject, tracer: &Tracer, checks: &mut Checks) {
    let mut rec = Recorder::new(Some(tracer));
    for _ in 0..2 {
        for v in Vendor::ALL {
            drop(rec.time("gpu-sim.device.new", || Device::new(vendor_device_spec(v))));
        }
    }
    for k in &subject.kernels {
        for _ in 0..5 {
            black_box(rec.time("gpu-sim.lower.lower", || lower::lower(k)));
        }
    }

    let registry = Registry::paper();
    let dir = crate::run_dir("probe-artifacts");
    let disk = Arc::new(DiskTier::open(&dir).expect("artifact dir opens"));
    let cache = CompileCache::with_disk(1024, disk);
    for k in &subject.kernels {
        for &(model, language, vendor) in &subject.combos {
            let compiler =
                registry.select_best(model, language, vendor).expect("routable combination");
            let opts = AnalysisOptions::default();
            black_box(rec.time("analyze.lint", || analyze_with(k, &opts, &compiler.lint_checks())));
            let _ = black_box(rec.time("gpu-sim.isa.assemble", || assemble(k, vendor_isa(vendor))));
            let fresh = rec.time("toolchain.cache.fresh", || {
                cache.compile(compiler, k, model, language, vendor)
            });
            let hit = rec.time("toolchain.cache.hit", || {
                cache.compile(compiler, k, model, language, vendor)
            });
            let ok = matches!((&fresh, &hit), (Ok((_, false)), Ok((_, true))));
            checks.record(ok, || {
                format!("{} on {model} {language} {vendor}: {:?}", k.name, fresh.err())
            });
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let full = LaunchConfig::linear(subject.n as u64, subject.block);
    let one_block = LaunchConfig::linear(u64::from(subject.block), subject.block);
    for traced in [false, true] {
        let service = devices(traced);
        for v in Vendor::ALL {
            let dev = service.device(v);
            for (i, k) in subject.kernels.iter().enumerate() {
                let module = assemble(k, vendor_isa(v)).expect("kernel assembles");
                let kernel = dev.load(&module).expect("module loads");
                let args = (subject.args)(i, dev);
                let mut launch = |name: &'static str, cfg: LaunchConfig, rec: &mut Recorder| {
                    let r = rec.time(name, || dev.launch_kernel(&kernel, cfg, &args));
                    checks.record(r.is_ok(), || format!("{} on {v}: {:?}", k.name, r.err()));
                };
                launch("gpu-sim.warm", full, &mut Recorder::new(None));
                for _ in 0..reps(subject.n) {
                    if traced {
                        launch("gpu-sim.memtrace.launch", full, &mut rec);
                    } else {
                        launch("gpu-sim.exec.launch", full, &mut rec);
                        launch("gpu-sim.launch.fixed", one_block, &mut rec);
                        let _ = black_box(rec.time("gpu-sim.isa.load", || dev.load(&module)));
                    }
                }
            }
            if !traced {
                let bytes = vec![0x5a; subject.copy_bytes];
                let ptr = dev.alloc(bytes.len() as u64).expect("copy buffer fits");
                for _ in 0..reps(subject.n) {
                    let up = rec.time("gpu-sim.mem.h2d", || dev.memcpy_h2d(ptr, &bytes));
                    let down =
                        rec.time("gpu-sim.mem.d2h", || dev.memcpy_d2h(ptr, bytes.len() as u64));
                    checks.record(up.is_ok() && down.is_ok_and(|(b, _)| b == bytes), || {
                        format!("copy round trip on {v} failed")
                    });
                }
            }
        }
    }
}

/// One full launch per (kernel, vendor) on fresh traced devices, summed.
/// Done twice; the two sums must be identical.
pub fn modeled(subject: &Subject, checks: &mut Checks) -> Modeled {
    let batch = || {
        let service = devices(true);
        let mut sum = Modeled::default();
        for v in Vendor::ALL {
            let dev = service.device(v);
            for (i, k) in subject.kernels.iter().enumerate() {
                let args = (subject.args)(i, dev);
                let cfg = LaunchConfig::linear(subject.n as u64, subject.block);
                let report = dev.launch_kernel(k, cfg, &args).expect("reference launch runs");
                sum.warp_instructions += report.stats.warp_instructions;
                sum.mem = sum.mem.merged(report.mem.expect("serving devices trace"));
                sum.modeled_us += report.time.micros();
            }
        }
        sum
    };
    let first = batch();
    let again = batch();
    checks.record(first == again, || format!("modeled counts differ: {first:?} vs {again:?}"));
    first
}

/// The serving layer on the http-small job mix: `Service::submit` and
/// `JobHandle::wait` (spans when `tracer` is given, after an untimed
/// pass that compiles), then the failover router's per-request entry
/// point. Returns the router's retries.
pub fn serve(seed: u64, tracer: Option<&Tracer>, checks: &mut Checks) -> u64 {
    let jobs = http_small::sample_jobs(seed, 200);
    let want = http_small::reference(jobs.clone(), &Registry::paper());
    let service = Arc::new(Service::new(ServeConfig::default()));
    for pass in 0..2 {
        let mut rec = Recorder::new(if pass == 1 { tracer } else { None });
        for (i, job) in jobs.iter().enumerate() {
            rec.request = i as u64 + 1;
            let done = rec.span("client.job", |rec| {
                let handle =
                    rec.time("serve.service.submit", || service.submit(job.to_spec(&[]))).ok()?;
                Some(rec.time("serve.service.wait", || handle.wait()))
            });
            let ok = done.and_then(|c| c.output).is_some_and(|b| fnv1a(&b) == want[i]);
            checks.record(ok, || format!("service job {i} returned a wrong or no result"));
        }
    }
    let injector = Arc::new(FaultInjector::new(ChaosConfig::quiet(seed)));
    let mut router = FailoverRouter::new(Arc::clone(&service), injector, FailoverPolicy::default());
    router.set_record(false);
    for (i, job) in jobs.iter().enumerate() {
        let ok = router.run_one(i as u64, job).is_some_and(|(b, _)| fnv1a(&b) == want[i]);
        checks.record(ok, || format!("routed job {i} returned a wrong or no result"));
    }
    router.stats().retries
}
