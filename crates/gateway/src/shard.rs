//! The gateway's one executor: a vendor device trio behind a failover
//! router, one coalescer, and a bounded admission counter.
//!
//! Concurrent requests enter it without a lock. The router keeps its
//! breakers behind a lock of its own that no job holds while it runs, so
//! up to `queue_depth` admitted jobs execute at once on one [`Service`],
//! and identical submissions meet in the one coalescer table.

use crate::coalesce::{CoalesceStats, Coalescer};
use mcmm_chaos::{ChaosConfig, FaultInjector};
use mcmm_serve::{
    BreakerState, FailoverPolicy, FailoverRouter, PlannedJob, ServeConfig, Service, Unserved,
};
use mcmm_toolchain::{CompileCache, DiskStats, Registry};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Admission refusal: the executor is over its bound. Mirrors the
/// serving layer's `SubmitError::QueueFull` shape so the HTTP mapping
/// (503 + `Retry-After`) is uniform.
#[derive(Debug, Clone, Copy)]
pub struct ShardQueueFull {
    /// Requests pending at refusal time.
    pub depth: usize,
    /// How many completions must drain before a retry can be admitted.
    pub retry_after_jobs: usize,
}

/// The gateway's executor.
pub struct Shard {
    /// Always 0: the gateway has one executor.
    pub index: usize,
    service: Arc<Service>,
    router: FailoverRouter,
    /// The single-flight table every submission joins.
    pub coalescer: Coalescer,
    pending: AtomicUsize,
    queue_bound: usize,
    /// Monotone plan index handed to the router per executed job (feeds
    /// its deterministic backoff jitter).
    seq: AtomicU64,
    executed: AtomicU64,
}

impl Shard {
    /// Bring up the executor: a service over the paper registry and the
    /// given compile cache, and a failover router with the default policy,
    /// a quiet fault injector and recording off — a server outlives any
    /// bounded trace buffer. It admits at most `cfg.queue_depth`
    /// requests, the Service's per-device bound, so the Service never
    /// refuses one of its jobs as `QueueFull`.
    pub fn new(cfg: ServeConfig, cache: Arc<CompileCache>) -> Self {
        let service = Arc::new(Service::with_cache(cfg, Registry::paper(), cache));
        let injector = Arc::new(FaultInjector::new(ChaosConfig::quiet(0)));
        let mut router =
            FailoverRouter::new(Arc::clone(&service), injector, FailoverPolicy::default());
        router.set_record(false);
        Self {
            index: 0,
            service,
            router,
            coalescer: Coalescer::new(),
            pending: AtomicUsize::new(0),
            queue_bound: cfg.queue_depth.max(1),
            seq: AtomicU64::new(0),
            executed: AtomicU64::new(0),
        }
    }

    /// Admit one request, or refuse with the queue-full shape. Admission
    /// must be paired with [`Shard::try_run`] or [`Shard::run`] (which
    /// release the slot) or with [`Shard::release`].
    pub fn admit(&self) -> Result<(), ShardQueueFull> {
        let depth = self.pending.fetch_add(1, Ordering::SeqCst) + 1;
        if depth > self.queue_bound {
            self.pending.fetch_sub(1, Ordering::SeqCst);
            Err(ShardQueueFull { depth, retry_after_jobs: depth - self.queue_bound })
        } else {
            Ok(())
        }
    }

    /// Release an admitted slot without executing (coalesced followers).
    pub fn release(&self) {
        self.pending.fetch_sub(1, Ordering::SeqCst);
    }

    /// Execute one admitted job through the failover router and release
    /// the slot. Returns the read-back bytes and the serving route, or
    /// why the job was not served: its cell has no route, its device had
    /// no room for it, or it exhausted every route.
    pub fn try_run(&self, job: &PlannedJob) -> Result<(Vec<u8>, String), Unserved> {
        let plan_idx = self.seq.fetch_add(1, Ordering::Relaxed);
        let outcome = self.router.try_run_one(plan_idx, job);
        self.executed.fetch_add(1, Ordering::Relaxed);
        self.pending.fetch_sub(1, Ordering::SeqCst);
        outcome
    }

    /// [`Shard::try_run`] without the reason: `None` if the job was not
    /// served.
    pub fn run(&self, job: &PlannedJob) -> Option<(Vec<u8>, String)> {
        self.try_run(job).ok()
    }

    /// Requests currently admitted and not yet finished.
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::SeqCst)
    }

    /// Jobs actually executed (coalesced followers excluded).
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// The executor's service (device + cache access for reports).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Circuit-breaker states of the router.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.router.breaker_states()
    }

    /// Coalescing counters.
    pub fn coalesce_stats(&self) -> CoalesceStats {
        self.coalescer.stats()
    }

    /// Compile-cache counters (memory tier).
    pub fn cache_stats(&self) -> mcmm_toolchain::CacheStats {
        self.service.cache().stats()
    }

    /// Disk-tier counters, when the cache is disk-backed.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.service.cache().disk_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmm_core::taxonomy::{Language, Model, Vendor};
    use mcmm_serve::{KernelShape, PlannedInput};

    fn job() -> PlannedJob {
        PlannedJob {
            shape: KernelShape::Scale,
            model: Model::Cuda,
            language: Language::Cpp,
            vendor: Vendor::Nvidia,
            a: 2.0,
            x: PlannedInput::Fresh(vec![1.0, 2.0, 3.0, 4.0]),
            y: vec![0.0; 4],
            n: 4,
        }
    }

    fn shard(queue_depth: usize) -> Shard {
        let cfg = ServeConfig { queue_depth, ..ServeConfig::default() };
        Shard::new(cfg, Arc::new(CompileCache::default()))
    }

    #[test]
    fn executes_a_job_end_to_end() {
        let s = shard(8);
        s.admit().unwrap();
        let (bytes, route) = s.run(&job()).expect("quiet shard must not lose jobs");
        // y = a·x with a=2: [2,4,6,8] as f32 LE bytes.
        let want: Vec<u8> = [2.0f32, 4.0, 6.0, 8.0].iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(bytes, want);
        assert!(!route.is_empty());
        assert_eq!(s.pending(), 0, "slot must be released");
        assert_eq!(s.executed(), 1);
    }

    #[test]
    fn queue_bound_refuses_with_retry_hint() {
        let s = shard(2);
        s.admit().unwrap();
        s.admit().unwrap();
        let full = s.admit().unwrap_err();
        assert_eq!(full.retry_after_jobs, 1);
        assert_eq!(s.pending(), 2, "refused request must not hold a slot");
        s.release();
        assert!(s.admit().is_ok(), "drained slot re-admits");
    }
}
