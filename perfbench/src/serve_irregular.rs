//! `serve-irregular`: two jobs in flight through [`Service::submit`] with
//! the default [`ServeConfig`] (memory tracing on), closed loop, at
//! n = 2^16 over every routable combination. Three kernels built here
//! scatter what the STREAM shapes keep unit-stride: an indirect gather
//! through a seeded index array, a 256-bin integer histogram by atomic
//! add (atomics bypass L1), and a shared-memory tile reverse behind a
//! barrier. Every output is checked against the same computation on the
//! host.
//!
//! The service never frees a finished job's buffers, so the benchmark
//! replaces it (sharing the warm compile cache) after a fixed number of
//! jobs. The replacement, and the warm-up launches that load its devices,
//! happen off the clock.

use crate::common::{f32_bytes, i32_bytes, Phase, Rng, Tally};
use crate::http_small::Combo;
use crate::probe::Subject;
use crate::spans::{Recorder, Tracer};
use crate::Workload;
use mcmm_core::taxonomy::Vendor;
use mcmm_gpu_sim::device::{Device, KernelArg};
use mcmm_gpu_sim::ir::{AtomicOp, BinOp, CmpOp, KernelBuilder, KernelIr, Space, Type, Value};
use mcmm_serve::workload::routable_combos;
use mcmm_serve::{ArgSpec, JobSpec, ServeConfig, Service};
use mcmm_toolchain::{CompileCache, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 1 << 16;
const BLOCK: u32 = 256;
const CALLERS: usize = 2;
/// Goodput counts correct jobs completed within this latency.
const LIMIT_S: f64 = 0.25;
const BINS: usize = 256;
/// Jobs one service runs before it is replaced (its device memory is
/// never given back).
const SERVICE_JOBS: u64 = 160;
const PASS_SHARE: f64 = 0.15;
/// Generator streams: warm-up jobs, route-pass jobs, closed-loop jobs,
/// probe launches.
const STREAM_WARM: u64 = 1 << 40;
const STREAM_PASS: u64 = 2 << 40;
const STREAM_JOBS: u64 = 3 << 40;
const STREAM_PROBE: u64 = 4 << 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Gather,
    Histogram,
    TileReverse,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Gather, Kind::Histogram, Kind::TileReverse];

    pub fn kernel(self) -> KernelIr {
        match self {
            Kind::Gather => {
                // out[i] = src[idx[i]]
                let mut k = KernelBuilder::new("bench_gather");
                let idx = k.param(Type::I64);
                let src = k.param(Type::I64);
                let out = k.param(Type::I64);
                let n = k.param(Type::I32);
                let i = k.global_thread_id_x();
                let ok = k.cmp(CmpOp::Lt, i, n);
                k.if_(ok, |k| {
                    let j = k.ld_elem(Space::Global, Type::I32, idx, i);
                    let v = k.ld_elem(Space::Global, Type::F32, src, j);
                    k.st_elem(Space::Global, out, i, v);
                });
                k.finish()
            }
            Kind::Histogram => {
                // bins[data[i] & 255] += 1
                let mut k = KernelBuilder::new("bench_histogram");
                let data = k.param(Type::I64);
                let bins = k.param(Type::I64);
                let n = k.param(Type::I32);
                let i = k.global_thread_id_x();
                let ok = k.cmp(CmpOp::Lt, i, n);
                k.if_(ok, |k| {
                    let v = k.ld_elem(Space::Global, Type::I32, data, i);
                    let bin = k.bin(BinOp::And, v, Value::I32(BINS as i32 - 1));
                    let addr = k.elem_addr(Type::I32, bins, bin);
                    k.atomic(AtomicOp::Add, Space::Global, addr, Value::I32(1));
                });
                k.finish()
            }
            Kind::TileReverse => {
                // out[i] = in[block base + (blockDim - 1 - tid)], staged
                // through a shared tile. No bounds guard: launched only with
                // n a multiple of the block size.
                let mut k = KernelBuilder::new("bench_tile_reverse");
                let input = k.param(Type::I64);
                let out = k.param(Type::I64);
                let _n = k.param(Type::I32);
                let tile = k.shared_alloc(u64::from(BLOCK) * 4);
                let tid = k.thread_id_x();
                let i = k.global_thread_id_x();
                let v = k.ld_elem(Space::Global, Type::F32, input, i);
                k.st_elem(Space::Shared, tile, tid, v);
                k.barrier();
                let bd = k.block_dim_x();
                let last = k.bin(BinOp::Sub, bd, Value::I32(1));
                let mirror = k.bin(BinOp::Sub, last, tid);
                let w = k.ld_elem(Space::Shared, Type::F32, tile, mirror);
                k.st_elem(Space::Global, out, i, w);
                k.finish()
            }
        }
    }
}

/// A buffer argument: uploaded contents, or a zeroed output of a length.
enum Buf {
    In(Vec<u8>),
    Out(usize),
}

/// One job's seeded inputs and the host's answer.
struct Inputs {
    pub kind: Kind,
    /// Buffer arguments in order (the trailing `n` excluded).
    pub buffers: Vec<Buf>,
    /// Argument index of the buffer the job reads back.
    pub read_back: usize,
    pub expected: Vec<u8>,
}

impl Inputs {
    pub fn new(kind: Kind, n: usize, rng: &mut Rng) -> Self {
        match kind {
            Kind::Gather => {
                let idx: Vec<i32> = (0..n).map(|_| rng.below(n as u64) as i32).collect();
                let src: Vec<f32> = (0..n).map(|_| rng.below(1 << 20) as f32 * 0.5).collect();
                let out: Vec<f32> = idx.iter().map(|&j| src[j as usize]).collect();
                Self {
                    kind,
                    buffers: vec![
                        Buf::In(i32_bytes(&idx)),
                        Buf::In(f32_bytes(&src)),
                        Buf::Out(n * 4),
                    ],
                    read_back: 2,
                    expected: f32_bytes(&out),
                }
            }
            Kind::Histogram => {
                let data: Vec<i32> = (0..n).map(|_| (rng.next_u64() >> 33) as i32).collect();
                let mut bins = vec![0i32; BINS];
                for v in &data {
                    bins[(v & (BINS as i32 - 1)) as usize] += 1;
                }
                Self {
                    kind,
                    buffers: vec![Buf::In(i32_bytes(&data)), Buf::Out(BINS * 4)],
                    read_back: 1,
                    expected: i32_bytes(&bins),
                }
            }
            Kind::TileReverse => {
                let input: Vec<f32> = (0..n).map(|_| rng.below(1 << 20) as f32 * 0.25).collect();
                let b = BLOCK as usize;
                let out: Vec<f32> = (0..n).map(|i| input[i / b * b + (b - 1 - i % b)]).collect();
                Self {
                    kind,
                    buffers: vec![Buf::In(f32_bytes(&input)), Buf::Out(n * 4)],
                    read_back: 1,
                    expected: f32_bytes(&out),
                }
            }
        }
    }

    fn spec(self, combo: Combo, kernel: &KernelIr, n: usize) -> (JobSpec, Vec<u8>) {
        let (model, language, vendor) = combo;
        let mut args: Vec<ArgSpec> = self
            .buffers
            .into_iter()
            .map(|b| match b {
                Buf::In(bytes) => ArgSpec::In(bytes),
                Buf::Out(len) => ArgSpec::Zeroed(len as u64),
            })
            .collect();
        args.push(ArgSpec::Scalar(KernelArg::I32(n as i32)));
        let spec = JobSpec {
            kernel: kernel.clone(),
            model,
            language,
            vendor,
            n: n as u64,
            block_dim: BLOCK,
            args,
            after: Vec::new(),
            read_back: Some(self.read_back),
        };
        (spec, self.expected)
    }

    /// Allocate and upload the buffers on `dev` for a direct launch over
    /// `n` elements.
    pub fn args(&self, dev: &Device, n: usize) -> Vec<KernelArg> {
        let mut args: Vec<KernelArg> = self
            .buffers
            .iter()
            .map(|b| {
                let zeros;
                let bytes = match b {
                    Buf::In(bytes) => bytes,
                    Buf::Out(len) => {
                        zeros = vec![0; *len];
                        &zeros
                    }
                };
                let ptr = dev.alloc(bytes.len() as u64).expect("probe buffer fits");
                dev.memcpy_h2d(ptr, bytes).expect("probe upload");
                KernelArg::Ptr(ptr)
            })
            .collect();
        args.push(KernelArg::I32(n as i32));
        args
    }
}

pub struct ServeIrregular {
    seed: u64,
    combos: Vec<Combo>,
    kernels: Vec<KernelIr>,
    cache: Arc<CompileCache>,
    service: Option<Service>,
    on_service: u64,
    next_job: u64,
    tally: Tally,
    failures: Vec<String>,
    /// Lowered-program `(hits, misses)` of services already replaced.
    programs_retired: (u64, u64),
}

impl ServeIrregular {
    /// Bring up the service and compile every (kernel, route) through it:
    /// one small job per kernel and routable combination.
    pub fn setup(seed: u64) -> Self {
        let combos = routable_combos(&Registry::paper());
        let cache = Arc::new(CompileCache::new(ServeConfig::default().cache_capacity));
        let mut this = Self {
            seed,
            combos,
            kernels: Kind::ALL.iter().map(|k| k.kernel()).collect(),
            cache,
            service: None,
            on_service: 0,
            next_job: 0,
            tally: Tally::default(),
            failures: Vec::new(),
            programs_retired: (0, 0),
        };
        this.replace_service();
        this
    }

    fn service(&self) -> &Service {
        self.service.as_ref().expect("service is up")
    }

    /// Swap in a fresh service over the shared compile cache and load
    /// every kernel on its devices with one small job per (kernel, route).
    fn replace_service(&mut self) {
        if let Some(old) = self.service.take() {
            let p = programs(&old);
            self.programs_retired = (self.programs_retired.0 + p.0, self.programs_retired.1 + p.1);
        }
        self.service = Some(Service::with_cache(
            ServeConfig::default(),
            Registry::paper(),
            Arc::clone(&self.cache),
        ));
        self.on_service = 0;
        let mut rng = Rng::stream(self.seed, STREAM_WARM);
        let mut rec = Recorder::new(None);
        for kind in Kind::ALL {
            for combo in self.combos.clone() {
                let inputs = Inputs::new(kind, BLOCK as usize, &mut rng);
                let (_, ok) = self.run_job(&mut rec, combo, inputs, BLOCK as usize);
                self.check(ok, || format!("warm-up {kind:?} on {combo:?} failed"));
            }
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally.record(ok);
        if !ok && self.failures.len() < 5 {
            self.failures.push(what());
        }
    }

    /// Submit one job, wait for it, and compare its read-back with the
    /// host's answer. Returns the latency (submit to completion) and the
    /// verdict.
    fn run_job(&self, rec: &mut Recorder, combo: Combo, inputs: Inputs, n: usize) -> (f64, bool) {
        let kernel = &self.kernels[Kind::ALL.iter().position(|&k| k == inputs.kind).unwrap_or(0)];
        let (spec, expected) = inputs.spec(combo, kernel, n);
        let service = self.service();
        let t = Instant::now();
        let outcome = rec.span("client.job", |rec| {
            let handle = rec.time("serve.service.submit", || service.submit(spec)).ok()?;
            Some(rec.time("serve.service.wait", || handle.wait()))
        });
        let latency = t.elapsed().as_secs_f64();
        let ok = outcome
            .is_some_and(|c| c.error.is_none() && c.output.as_deref() == Some(&expected[..]));
        (latency, ok)
    }

    /// The seeded plan of stream job `idx`.
    fn plan(&self, idx: u64) -> (Combo, Inputs) {
        let mut rng = Rng::stream(self.seed, STREAM_JOBS + idx);
        let kind = Kind::ALL[rng.below(3) as usize];
        let combo = self.combos[rng.below(self.combos.len() as u64) as usize];
        (combo, Inputs::new(kind, N, &mut rng))
    }

    /// Run `jobs` (generated by `make`) with `CALLERS` in flight until
    /// they are done or `budget` runs out; the service is replaced
    /// beforehand if they might not fit.
    fn batch(
        &mut self,
        jobs: u64,
        budget: Duration,
        tracer: Option<&Tracer>,
        make: &(dyn Fn(&Self, u64) -> (Combo, Inputs) + Sync),
    ) -> Phase {
        if self.on_service + jobs.min(SERVICE_JOBS) > SERVICE_JOBS {
            self.replace_service();
        }
        let jobs = jobs.min(SERVICE_JOBS - self.on_service);
        let taken = AtomicU64::new(0);
        let t = Instant::now();
        let this = &*self;
        let ops: Vec<(f64, bool)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..CALLERS)
                .map(|_| {
                    s.spawn(|| {
                        let mut rec = Recorder::new(tracer);
                        let mut out = Vec::new();
                        while t.elapsed() < budget {
                            let k = taken.fetch_add(1, Ordering::Relaxed);
                            if k >= jobs {
                                break;
                            }
                            let (combo, inputs) = make(this, k);
                            rec.request = this.next_job + k + 1;
                            out.push(this.run_job(&mut rec, combo, inputs, N));
                        }
                        out
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().expect("client thread")).collect()
        });
        let wall = t.elapsed();
        self.on_service += ops.len() as u64;
        for &(_, ok) in &ops {
            let idx = self.next_job;
            self.check(ok, || format!("job {idx} returned a wrong or no result"));
            self.next_job += 1;
        }
        Phase { wall, ops }
    }
}

impl Workload for ServeIrregular {
    fn callers(&self) -> usize {
        CALLERS
    }

    fn limit_s(&self) -> f64 {
        LIMIT_S
    }

    fn closed_loop(&mut self, secs: f64, tracer: Option<&Tracer>) -> Phase {
        let budget = Duration::from_secs_f64(secs);
        let mut phase = Phase::default();
        while phase.wall < budget {
            let base = self.next_job;
            let part =
                self.batch(SERVICE_JOBS, budget - phase.wall, tracer, &|w, k| w.plan(base + k));
            phase.merge(part);
        }
        phase
    }

    /// The closed loop, then repeated passes of one job per (kernel,
    /// route) for `sweep_s`.
    fn measure(&mut self, secs: f64) -> (Phase, Vec<f64>) {
        let phase = self.closed_loop(secs * (1.0 - PASS_SHARE), None);
        let pairs: Vec<(Kind, Combo)> =
            Kind::ALL.iter().flat_map(|&k| self.combos.iter().map(move |&c| (k, c))).collect();
        let t = Instant::now();
        let mut passes = Vec::new();
        while passes.is_empty() || t.elapsed().as_secs_f64() < secs * PASS_SHARE {
            let pass = self.batch(pairs.len() as u64, Duration::MAX, None, &|w, k| {
                let (kind, combo) = pairs[k as usize];
                (combo, Inputs::new(kind, N, &mut Rng::stream(w.seed, STREAM_PASS + k)))
            });
            passes.push(pass.wall.as_secs_f64());
        }
        (phase, passes)
    }

    /// Compile-cache `(hits, misses)` and lowered-program `(hits, misses)`
    /// over every service so far.
    fn cache_counts(&self) -> ((u64, u64), (u64, u64)) {
        let c = self.cache.stats();
        let p = programs(self.service());
        ((c.hits, c.misses), (p.0 + self.programs_retired.0, p.1 + self.programs_retired.1))
    }

    fn config(&self) -> String {
        crate::sim_config(self.service().device(Vendor::Nvidia))
    }

    fn subject(&self, seed: u64) -> Subject {
        let mut rng = Rng::stream(seed, STREAM_PROBE);
        let inputs: Vec<Inputs> = Kind::ALL.iter().map(|&k| Inputs::new(k, N, &mut rng)).collect();
        Subject {
            kernels: self.kernels.clone(),
            combos: self.combos.clone(),
            n: N,
            block: BLOCK,
            copy_bytes: N * 4,
            args: Box::new(move |k, dev: &Device| inputs[k].args(dev, N)),
        }
    }

    fn finish(&mut self) -> (Tally, Vec<String>) {
        (self.tally, std::mem::take(&mut self.failures))
    }
}

fn programs(service: &Service) -> (u64, u64) {
    Vendor::ALL.iter().fold((0, 0), |(h, m), &v| {
        let p = service.device(v).program_cache_stats();
        (h + p.hits, m + p.misses)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed() {
        for kind in Kind::ALL {
            let a = Inputs::new(kind, 1024, &mut Rng::stream(3, 9));
            let b = Inputs::new(kind, 1024, &mut Rng::stream(3, 9));
            assert_eq!(a.expected, b.expected);
            for (x, y) in a.buffers.iter().zip(&b.buffers) {
                match (x, y) {
                    (Buf::In(x), Buf::In(y)) => assert_eq!(x, y),
                    (Buf::Out(x), Buf::Out(y)) => assert_eq!(x, y),
                    _ => panic!("buffer kinds differ"),
                }
            }
        }
    }

    #[test]
    fn kernels_validate() {
        for kind in Kind::ALL {
            assert_eq!(kind.kernel().validate(), Ok(()));
        }
    }
}
