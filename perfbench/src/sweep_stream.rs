//! `sweep-stream`: `mcmm_babelstream::runner::sweep` over the 9 frontends
//! × 3 vendors (23 runnable cells, 5 kernels each) with memory tracing on
//! through `MCMM_MEM_TRACE`, closed loop, one sweep at a time. Block
//! execution and the memory-trace pipeline on unit-stride accesses do
//! almost all the work; no HTTP, JSON or serving layer runs.
//!
//! BabelStream's inputs are its fixed constants, so the seed changes
//! nothing here. Each sweep must verify exactly 23 cells and report 4
//! unsupported, and its modeled memory counts and times must repeat
//! exactly from sweep to sweep.

use crate::common::{Phase, Tally};
use crate::probe::Subject;
use crate::spans::{Recorder, Tracer};
use crate::Workload;
use mcmm_babelstream::adapters::all_backends;
use mcmm_babelstream::runner::{self, unsupported_count, verified_count, SweepEntry};
use mcmm_core::taxonomy::Vendor;
use mcmm_gpu_sim::device::{Device, KernelArg};
use mcmm_gpu_sim::MemStats;
use mcmm_serve::workload::routable_combos;
use mcmm_toolchain::{vendor_device_spec, Registry};
use std::time::Instant;

const N: usize = 1 << 17;
const ITERS: usize = 1;
const CALLERS: usize = 1;
/// Goodput counts verified sweeps completed within this time.
const LIMIT_S: f64 = 30.0;
/// Elements of the warm-up sweep that compiles every (kernel, route).
const WARM_N: usize = 1024;

/// The modeled outcome of one full-size sweep: memory counts summed over
/// the cells, and the summed best modeled kernel times in microseconds.
type Modeled = (MemStats, f64);

pub struct SweepStream {
    tally: Tally,
    failures: Vec<String>,
    modeled: Option<Modeled>,
    /// Shared compile-cache and lowered-program `(hits, misses)` of the
    /// untraced sweeps.
    cache: (u64, u64),
    programs: (u64, u64),
}

impl SweepStream {
    /// Turn memory tracing on the way the environment knob does, then
    /// compile every (kernel, route) with one small sweep.
    pub fn setup(_seed: u64) -> Self {
        // Runs before this process starts any thread.
        std::env::set_var("MCMM_MEM_TRACE", "1");
        let mut this = Self {
            tally: Tally::default(),
            failures: Vec::new(),
            modeled: None,
            cache: (0, 0),
            programs: (0, 0),
        };
        let warm = runner::sweep(WARM_N, 1);
        this.check(&warm.entries, false);
        this
    }

    /// Check one sweep: 27 cells, 23 verified, 4 unsupported, and (for a
    /// full-size sweep) modeled counts identical to the first sweep's.
    fn check(&mut self, entries: &[SweepEntry], full: bool) -> bool {
        let mut ok =
            entries.len() == 27 && verified_count(entries) == 23 && unsupported_count(entries) == 4;
        if !ok && self.failures.len() < 5 {
            self.failures.push(format!(
                "sweep verified {} and refused {} of {} cells (want 23 and 4 of 27)",
                verified_count(entries),
                unsupported_count(entries),
                entries.len()
            ));
        }
        if full {
            let modeled = modeled(entries);
            match &self.modeled {
                None => self.modeled = Some(modeled),
                Some(first) if *first != modeled => {
                    ok = false;
                    self.failures.push("modeled counts differ between sweeps".into());
                }
                Some(_) => {}
            }
        }
        self.tally.record(ok);
        ok
    }
}

impl Workload for SweepStream {
    fn callers(&self) -> usize {
        CALLERS
    }

    fn limit_s(&self) -> f64 {
        LIMIT_S
    }

    /// Sweeps back to back for `secs` (at least one): `runner::sweep`
    /// untraced, or the same loop over `all_backends()` with a span around
    /// each cell when `tracer` is given.
    fn closed_loop(&mut self, secs: f64, tracer: Option<&Tracer>) -> Phase {
        let t = Instant::now();
        let mut phase = Phase::default();
        let mut rec = Recorder::new(tracer);
        while phase.ops.is_empty() || t.elapsed().as_secs_f64() < secs {
            let start = Instant::now();
            let entries = match tracer {
                None => {
                    let sweep = runner::sweep(N, ITERS);
                    self.cache.0 += sweep.cache_hits;
                    self.cache.1 += sweep.cache_misses;
                    self.programs.0 += sweep.programs.hits;
                    self.programs.1 += sweep.programs.misses;
                    sweep.entries
                }
                Some(_) => rec.span("bench.sweep", |rec| cells(rec, N, ITERS)),
            };
            let latency = start.elapsed().as_secs_f64();
            let ok = self.check(&entries, true);
            phase.ops.push((latency, ok));
        }
        phase.wall = t.elapsed();
        phase
    }

    /// Sweeps for `secs`; `sweep_s` is each sweep's wall-clock.
    fn measure(&mut self, secs: f64) -> (Phase, Vec<f64>) {
        let phase = self.closed_loop(secs, None);
        let sweeps = phase.ops.iter().map(|(lat, _)| *lat).collect();
        (phase, sweeps)
    }

    fn cache_counts(&self) -> ((u64, u64), (u64, u64)) {
        (self.cache, self.programs)
    }

    fn config(&self) -> String {
        crate::sim_config(&Device::new(vendor_device_spec(Vendor::Nvidia)))
    }

    fn subject(&self, _seed: u64) -> Subject {
        use mcmm_babelstream::{START_A, START_B, START_C};
        Subject {
            kernels: mcmm_babelstream::adapters::stream_kernels().to_vec(),
            combos: routable_combos(&Registry::paper()),
            n: N,
            block: 256,
            copy_bytes: N * 8,
            args: Box::new(move |_, dev: &Device| {
                let mut args: Vec<KernelArg> = [START_A, START_B, START_C]
                    .iter()
                    .map(|&v| {
                        KernelArg::Ptr(dev.alloc_copy_f64(&vec![v; N]).expect("probe upload"))
                    })
                    .collect();
                args.push(KernelArg::Ptr(dev.alloc_copy_f64(&[0.0]).expect("probe upload")));
                args.push(KernelArg::I32(N as i32));
                args
            }),
        }
    }

    fn finish(&mut self) -> (Tally, Vec<String>) {
        (self.tally, std::mem::take(&mut self.failures))
    }
}

/// Every (frontend, vendor) cell in `runner::sweep`'s order, each run
/// inside a `babelstream.cell` span.
pub fn cells(rec: &mut Recorder, n: usize, iters: usize) -> Vec<SweepEntry> {
    let mut entries = Vec::with_capacity(27);
    for backend in all_backends() {
        for vendor in Vendor::ALL {
            let outcome = rec.time("babelstream.cell", || backend.run(vendor, n, iters));
            entries.push(SweepEntry { model: backend.model_name(), vendor, outcome });
        }
    }
    entries
}

fn modeled(entries: &[SweepEntry]) -> Modeled {
    let mut mem = MemStats::default();
    let mut us = 0.0;
    for r in entries.iter().filter_map(|e| e.outcome.as_ref().ok()) {
        if let Some(m) = r.mem {
            mem = mem.merged(m);
        }
        us += r.kernels.iter().map(|k| k.best_time.micros()).sum::<f64>();
    }
    (mem, us)
}
