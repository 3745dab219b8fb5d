//! The multi-tenant execution service.
//!
//! One [`Service`] owns the three simulated vendor devices, a small fan of
//! streams per device, the shared content-addressed compile cache, and the
//! route registry. [`Service::submit`] resolves a job's route, compiles
//! through the cache (the analyzer lint gate runs once per cache fill, not
//! per launch), applies admission control, and maps the job's dependency
//! edges onto stream/event primitives:
//!
//! * every dependency becomes a [`Stream::wait_event`] on the dependency's
//!   completion event (launch-after-launch, including across streams);
//! * uploads, the launch, and the optional read-back run in stream order
//!   (transfer-after-launch);
//! * a completion event plus a host callback retire the job: the callback
//!   releases the admission slot and classifies the outcome — it fires
//!   even if the job failed, so slots can never leak.
//!
//! Job failures are **job-local**: operation closures route errors into
//! the job's error slot and report success to the stream, so one tenant's
//! out-of-bounds access never poisons the stream for its neighbours.

use crate::job::{ArgSpec, JobCompletion, JobId, JobSpec, SubmitError};
use mcmm_chaos::AttemptFaults;
use mcmm_core::taxonomy::Vendor;
use mcmm_gpu_sim::device::{Device, KernelArg, LaunchConfig};
use mcmm_gpu_sim::event::Event;
use mcmm_gpu_sim::mem::DevicePtr;
use mcmm_gpu_sim::stream::Stream;
use mcmm_gpu_sim::timing::ModeledTime;
use mcmm_gpu_sim::{Module, SimError};
use mcmm_toolchain::{vendor_device_spec, CompileCache, Registry};
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Concurrent streams per device (≥ 1).
    pub streams_per_device: usize,
    /// Admission-control bound: jobs in flight per device before
    /// submissions are rejected with [`SubmitError::QueueFull`].
    pub queue_depth: usize,
    /// Compile-cache capacity in artifacts.
    pub cache_capacity: usize,
    /// Whether the devices record memory-access traces, keeping the
    /// per-vendor L1/L2 rows of [`ServeReport`](crate::ServeReport) and
    /// the gateway's `/v1/stats` live on every request. Defaults to
    /// **on**: the streaming replay pipeline keeps the launch overhead
    /// within the budget the memhier bench gates
    /// (`BENCH_memhier.json`).
    pub tracing: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { streams_per_device: 3, queue_depth: 64, cache_capacity: 256, tracing: true }
    }
}

/// Aggregate job accounting. `submitted == completed + failed` once the
/// service is drained; `rejected` counts explicit admission refusals
/// (rejected submissions are not part of `submitted`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounts {
    /// Jobs accepted by admission control.
    pub submitted: u64,
    /// Jobs that finished with no error.
    pub completed: u64,
    /// Jobs that finished with a job-local error.
    pub failed: u64,
    /// Submissions refused with [`SubmitError::QueueFull`].
    pub rejected: u64,
    /// Accepted submissions that matched an earlier [`SubmitError::QueueFull`]
    /// rejection of the same spec — the tenant came back and got in.
    pub resubmitted: u64,
    /// Rejections whose spec was never accepted afterwards — the tenant
    /// gave up (or has not come back yet). `rejected` counts *events*;
    /// this counts the ones still unresolved.
    pub rejected_hard: u64,
}

/// Per-submission options: a route override and injected faults.
///
/// The default (no override, no faults) makes [`Service::submit_with`]
/// behave exactly like [`Service::submit`]. The failover router uses the
/// override to steer a retried job onto an alternative route of the same
/// cell, and threads the chaos injector's decisions through `faults`.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions<'a> {
    /// Compile through the route with this exact toolchain name instead
    /// of [`Registry::select_best`]'s choice. The route must exist,
    /// support the job's (model, language, vendor), and be usable,
    /// otherwise the submission fails with [`SubmitError::NoRoute`].
    pub route: Option<&'a str>,
    /// Faults to inject into this submission's pipeline stages.
    pub faults: AttemptFaults,
}

/// One device plus its scheduling state.
struct Lane {
    device: Arc<Device>,
    streams: Vec<Stream>,
    /// Round-robin cursor over `streams`.
    next_stream: AtomicUsize,
    /// Jobs admitted but not yet retired on this device.
    in_flight: Arc<AtomicUsize>,
}

/// Book-keeping for an accepted job, kept for dependency resolution.
struct JobRecord {
    vendor: Vendor,
    /// Per-argument device buffers: `(ptr, len)` for buffer args, `None`
    /// for scalars.
    buffers: Vec<Option<(DevicePtr, u64)>>,
    /// Retired when the job's last stream operation has run.
    done: Event,
}

/// A handle to one accepted job.
pub struct JobHandle {
    /// The job's service-wide id.
    pub id: JobId,
    /// The device the job was scheduled on.
    pub vendor: Vendor,
    /// Served from the compile cache?
    pub cache_hit: bool,
    done: Event,
    error: Arc<Mutex<Option<SimError>>>,
    output: Arc<Mutex<Option<Vec<u8>>>>,
    admitted_at: ModeledTime,
}

impl JobHandle {
    /// Block until the job retires and return its completion record.
    pub fn wait(self) -> JobCompletion {
        let at = self.done.wait();
        let latency =
            ModeledTime::from_seconds((at.seconds() - self.admitted_at.seconds()).max(0.0));
        JobCompletion {
            id: self.id,
            vendor: self.vendor,
            output: self.output.lock().take(),
            error: self.error.lock().take(),
            latency,
            cache_hit: self.cache_hit,
        }
    }

    /// Has the job retired yet?
    pub fn is_done(&self) -> bool {
        self.done.query()
    }
}

/// The concurrent kernel-execution service over the executable matrix.
pub struct Service {
    registry: Registry,
    cache: Arc<CompileCache>,
    lanes: BTreeMap<Vendor, Lane>,
    jobs: Mutex<HashMap<JobId, JobRecord>>,
    next_id: AtomicU64,
    queue_depth: usize,
    submitted: Arc<AtomicU64>,
    completed: Arc<AtomicU64>,
    failed: Arc<AtomicU64>,
    rejected: AtomicU64,
    resubmitted: AtomicU64,
    /// Spec-content keys of rejected submissions not yet resubmitted:
    /// key → outstanding rejection count. Distinguishes
    /// rejected-then-resubmitted jobs from hard rejections.
    rejected_pending: Mutex<HashMap<u64, u64>>,
}

/// Content key of a job spec, for matching a resubmission to its earlier
/// rejection: kernel fingerprint, route triple, launch shape, argument
/// bindings, dependencies, and read-back slot. Two submissions of the
/// same work hash equal even though they are distinct `JobSpec` values.
fn spec_key(spec: &JobSpec) -> u64 {
    let mut h = DefaultHasher::new();
    spec.kernel.fingerprint().hash(&mut h);
    (spec.model as u8, spec.language as u8, spec.vendor as u8).hash(&mut h);
    (spec.n, spec.block_dim).hash(&mut h);
    for a in &spec.args {
        match a {
            ArgSpec::Scalar(k) => (0u8, format!("{k:?}")).hash(&mut h),
            ArgSpec::In(bytes) => (1u8, bytes).hash(&mut h),
            ArgSpec::Zeroed(len) => (2u8, len).hash(&mut h),
            ArgSpec::Output(id, idx) => (3u8, id.0, idx).hash(&mut h),
        }
    }
    for id in &spec.after {
        id.0.hash(&mut h);
    }
    spec.read_back.hash(&mut h);
    h.finish()
}

impl Service {
    /// Bring up the service: three devices, `streams_per_device` streams
    /// each, a fresh compile cache, and the paper's route registry.
    pub fn new(cfg: ServeConfig) -> Self {
        Self::with_registry(cfg, Registry::paper())
    }

    /// Bring up the service over an arbitrary (e.g. evolved) registry.
    pub fn with_registry(cfg: ServeConfig, registry: Registry) -> Self {
        let cache = Arc::new(CompileCache::new(cfg.cache_capacity));
        Self::with_cache(cfg, registry, cache)
    }

    /// Bring up the service over an externally owned compile cache —
    /// typically one backed by a disk tier
    /// ([`CompileCache::with_disk`](mcmm_toolchain::CompileCache::with_disk))
    /// shared with other services or surviving across process restarts.
    /// `cfg.cache_capacity` is ignored; the injected cache's own capacity
    /// governs.
    pub fn with_cache(cfg: ServeConfig, registry: Registry, cache: Arc<CompileCache>) -> Self {
        let lanes = Vendor::ALL
            .into_iter()
            .map(|v| {
                let device = Device::new(vendor_device_spec(v));
                device.set_tracing(cfg.tracing);
                let streams = (0..cfg.streams_per_device.max(1))
                    .map(|_| Stream::new(Arc::clone(&device)))
                    .collect();
                (
                    v,
                    Lane {
                        device,
                        streams,
                        next_stream: AtomicUsize::new(0),
                        in_flight: Arc::new(AtomicUsize::new(0)),
                    },
                )
            })
            .collect();
        Self {
            registry,
            cache,
            lanes,
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            queue_depth: cfg.queue_depth.max(1),
            submitted: Arc::new(AtomicU64::new(0)),
            completed: Arc::new(AtomicU64::new(0)),
            failed: Arc::new(AtomicU64::new(0)),
            rejected: AtomicU64::new(0),
            resubmitted: AtomicU64::new(0),
            rejected_pending: Mutex::new(HashMap::new()),
        }
    }

    /// The shared compile cache.
    pub fn cache(&self) -> &CompileCache {
        &self.cache
    }

    /// The route registry this service schedules over.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The simulated device serving a vendor.
    pub fn device(&self, vendor: Vendor) -> &Arc<Device> {
        &self.lanes[&vendor].device
    }

    /// Jobs currently admitted but not retired on a vendor's device.
    pub fn in_flight(&self, vendor: Vendor) -> usize {
        self.lanes[&vendor].in_flight.load(Ordering::SeqCst)
    }

    /// Aggregate accounting so far.
    pub fn counts(&self) -> ServiceCounts {
        ServiceCounts {
            submitted: self.submitted.load(Ordering::SeqCst),
            completed: self.completed.load(Ordering::SeqCst),
            failed: self.failed.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            resubmitted: self.resubmitted.load(Ordering::SeqCst),
            rejected_hard: self.rejected_pending.lock().values().sum(),
        }
    }

    /// Submit a job. On success the job is queued on its device and a
    /// [`JobHandle`] tracks it; every refusal is an explicit
    /// [`SubmitError`] — the service never drops work silently.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        self.submit_with(spec, SubmitOptions::default())
    }

    /// [`Service::submit`] with per-submission [`SubmitOptions`]: an
    /// explicit route override (the failover router steering a retry onto
    /// an alternative route of the same cell) and injected faults.
    pub fn submit_with(
        &self,
        spec: JobSpec,
        opts: SubmitOptions<'_>,
    ) -> Result<JobHandle, SubmitError> {
        let lane = &self.lanes[&spec.vendor];
        let no_route = SubmitError::NoRoute {
            model: spec.model,
            language: spec.language,
            vendor: spec.vendor,
        };

        // 1. Route resolution — the matrix's empty cells surface here. An
        //    explicit override must name a usable route for the cell.
        let compiler = match opts.route {
            None => self.registry.select_best(spec.model, spec.language, spec.vendor),
            Some(name) => self
                .registry
                .ranked(spec.model, spec.language, spec.vendor)
                .into_iter()
                .find(|c| c.name == name),
        }
        .ok_or(no_route)?;

        // 2. Admission control: bounded in-flight jobs per device.
        let admitted = lane.in_flight.fetch_add(1, Ordering::SeqCst);
        if admitted >= self.queue_depth {
            lane.in_flight.fetch_sub(1, Ordering::SeqCst);
            self.rejected.fetch_add(1, Ordering::SeqCst);
            *self.rejected_pending.lock().entry(spec_key(&spec)).or_insert(0) += 1;
            return Err(SubmitError::QueueFull {
                vendor: spec.vendor,
                depth: self.queue_depth,
                retry_after_jobs: admitted - self.queue_depth + 1,
            });
        }
        // Admitted: if this spec bounced off admission earlier, the
        // tenant came back — settle one outstanding rejection. The key
        // hashes every input byte, so skip it while nothing is pending.
        {
            let mut pending = self.rejected_pending.lock();
            if !pending.is_empty() {
                let key = spec_key(&spec);
                if let Some(count) = pending.get_mut(&key) {
                    *count -= 1;
                    if *count == 0 {
                        pending.remove(&key);
                    }
                    self.resubmitted.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        // Any refusal below must give the slot back.
        let release_on_err = |e: SubmitError| {
            lane.in_flight.fetch_sub(1, Ordering::SeqCst);
            e
        };

        // 3. Compile through the content-addressed cache. The lint gate
        //    runs once per cache fill; warm submissions skip it entirely.
        //    An injected toolchain fault fails a cold compile only — a
        //    resident artifact rides it out.
        let (module, cache_hit) = self
            .cache
            .compile_faulted(
                compiler,
                &spec.kernel,
                spec.model,
                spec.language,
                spec.vendor,
                opts.faults.compile.as_deref(),
            )
            .map_err(|e| release_on_err(SubmitError::Compile(e)))?;
        let efficiency = compiler.efficiency();

        // 4. Resolve dependencies and bind buffers.
        let resolved = self.bind_args(&spec, &lane.device).map_err(release_on_err)?;

        // 5. Map the job onto a stream.
        let id = JobId(self.next_id.fetch_add(1, Ordering::SeqCst));
        let stream =
            &lane.streams[lane.next_stream.fetch_add(1, Ordering::SeqCst) % lane.streams.len()];
        let done = Event::new();
        let error: Arc<Mutex<Option<SimError>>> = Arc::new(Mutex::new(None));
        let output: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
        let admitted_at = lane.device.modeled_clock();

        for dep in &resolved.wait_on {
            stream.wait_event(dep);
        }
        // An injected upload fault aborts the job's *first* upload; the
        // remaining uploads are skipped via the job-local error slot, the
        // same path an organic transfer failure takes.
        let mut upload_fault = opts.faults.upload;
        for (ptr, bytes) in resolved.uploads {
            let slot = Arc::clone(&error);
            let fault = upload_fault.take();
            stream.exec(move |dev| {
                if slot.lock().is_some() {
                    return Ok(()); // a prior op of *this job* failed
                }
                if let Err(e) = dev.memcpy_h2d_faulted(ptr, &bytes, fault.as_ref()) {
                    slot.lock().get_or_insert(e);
                }
                Ok(()) // job-local error: never poison the stream
            });
        }
        {
            let slot = Arc::clone(&error);
            let module: Arc<Module> = Arc::clone(&module);
            let cfg = LaunchConfig::linear(spec.n, spec.block_dim).with_efficiency(efficiency);
            let args = resolved.args;
            let fault = opts.faults.launch;
            stream.exec(move |dev| {
                if slot.lock().is_some() {
                    return Ok(());
                }
                if let Err(e) = dev.launch_faulted(&module, cfg, &args, fault.as_ref()) {
                    slot.lock().get_or_insert(e);
                }
                Ok(())
            });
        }
        if let Some((ptr, len)) = resolved.read_back {
            let slot = Arc::clone(&error);
            let out = Arc::clone(&output);
            let fault = opts.faults.read_back;
            stream.exec(move |dev| {
                if slot.lock().is_some() {
                    return Ok(());
                }
                match dev.memcpy_d2h_faulted(ptr, len, fault.as_ref()) {
                    Ok((bytes, _)) => *out.lock() = Some(bytes),
                    Err(e) => {
                        slot.lock().get_or_insert(e);
                    }
                }
                Ok(())
            });
        }
        {
            // Retirement: release the admission slot and classify the
            // outcome. Runs even after failures — slots cannot leak. The
            // completion event is recorded *after* this, so by the time a
            // waiter observes `done`, the books already balance.
            let in_flight = Arc::clone(&lane.in_flight);
            let (completed, failed) = (Arc::clone(&self.completed), Arc::clone(&self.failed));
            let slot = Arc::clone(&error);
            stream.callback(move || {
                if slot.lock().is_some() {
                    failed.fetch_add(1, Ordering::SeqCst);
                } else {
                    completed.fetch_add(1, Ordering::SeqCst);
                }
                in_flight.fetch_sub(1, Ordering::SeqCst);
            });
        }
        stream.record(&done);

        self.submitted.fetch_add(1, Ordering::SeqCst);
        self.jobs.lock().insert(
            id,
            JobRecord { vendor: spec.vendor, buffers: resolved.buffers, done: done.clone() },
        );
        Ok(JobHandle { id, vendor: spec.vendor, cache_hit, done, error, output, admitted_at })
    }

    /// Block until every stream on every device has drained.
    pub fn drain(&self) {
        for lane in self.lanes.values() {
            for s in &lane.streams {
                // Serve streams are never poisoned (job errors are local),
                // so a sync error here is a service bug worth surfacing.
                s.synchronize().expect("serve stream poisoned");
            }
        }
    }

    /// Resolve `spec.args` into device pointers, uploads, and dependency
    /// events. Allocates fresh buffers; aliases dependency buffers.
    fn bind_args(&self, spec: &JobSpec, device: &Arc<Device>) -> Result<ResolvedArgs, SubmitError> {
        let jobs = self.jobs.lock();
        let mut wait_on = Vec::new();
        let mut dep_ids: Vec<JobId> = spec.after.clone();
        for a in &spec.args {
            if let ArgSpec::Output(id, _) = a {
                dep_ids.push(*id);
            }
        }
        dep_ids.sort();
        dep_ids.dedup();
        for id in &dep_ids {
            let rec = jobs.get(id).ok_or(SubmitError::UnknownDependency(*id))?;
            if spec.args.iter().any(|a| matches!(a, ArgSpec::Output(d, _) if d == id))
                && rec.vendor != spec.vendor
            {
                return Err(SubmitError::CrossDeviceDependency {
                    job: *id,
                    expected: spec.vendor,
                    found: rec.vendor,
                });
            }
            wait_on.push(rec.done.clone());
        }

        let mut args = Vec::with_capacity(spec.args.len());
        let mut buffers = Vec::with_capacity(spec.args.len());
        let mut uploads = Vec::new();
        let mut fresh: Vec<(DevicePtr, u64)> = Vec::new();
        let mut alloc = |len: u64| -> Result<DevicePtr, SubmitError> {
            let ptr = device.alloc(len).map_err(SubmitError::Alloc)?;
            fresh.push((ptr, len));
            Ok(ptr)
        };
        let mut failed = None;
        for a in &spec.args {
            match a {
                ArgSpec::Scalar(k) => {
                    args.push(*k);
                    buffers.push(None);
                }
                ArgSpec::In(bytes) => match alloc(bytes.len() as u64) {
                    Ok(ptr) => {
                        uploads.push((ptr, bytes.clone()));
                        args.push(KernelArg::Ptr(ptr));
                        buffers.push(Some((ptr, bytes.len() as u64)));
                    }
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                },
                ArgSpec::Zeroed(len) => match alloc(*len) {
                    Ok(ptr) => {
                        uploads.push((ptr, vec![0u8; *len as usize]));
                        args.push(KernelArg::Ptr(ptr));
                        buffers.push(Some((ptr, *len)));
                    }
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                },
                ArgSpec::Output(id, idx) => {
                    let rec = jobs.get(id).ok_or(SubmitError::UnknownDependency(*id))?;
                    let (ptr, len) = rec
                        .buffers
                        .get(*idx)
                        .copied()
                        .flatten()
                        .ok_or(SubmitError::BadBuffer { job: *id, arg: *idx })?;
                    args.push(KernelArg::Ptr(ptr));
                    buffers.push(Some((ptr, len)));
                }
            }
        }
        if let Some(e) = failed {
            // Give back what this job allocated before the failure.
            for (ptr, len) in fresh {
                device.free(ptr, len);
            }
            return Err(e);
        }
        let read_back = match spec.read_back {
            None => None,
            Some(idx) => Some(
                buffers
                    .get(idx)
                    .copied()
                    .flatten()
                    .ok_or(SubmitError::BadBuffer { job: JobId(0), arg: idx })?,
            ),
        };
        Ok(ResolvedArgs { args, buffers, uploads, wait_on, read_back })
    }
}

struct ResolvedArgs {
    /// Kernel arguments in signature order.
    args: Vec<KernelArg>,
    /// Per-argument buffer table (for later jobs' [`ArgSpec::Output`]).
    buffers: Vec<Option<(DevicePtr, u64)>>,
    /// Host data to upload in stream order before the launch.
    uploads: Vec<(DevicePtr, Vec<u8>)>,
    /// Dependency completion events to wait on.
    wait_on: Vec<Event>,
    /// Buffer to read back after the launch.
    read_back: Option<(DevicePtr, u64)>,
}
