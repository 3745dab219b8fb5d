//! The gateway proper: shard fan-out, tenant admission, coalescing, and
//! the JSON payloads behind every endpoint. [`Gateway`] is transport-free
//! — [`crate::server`] puts it behind TCP, tests call it directly.

use crate::api::{ApiError, SubmitRequest, SubmitResponse};
use crate::coalesce::{CoalesceStats, FlightResult, Join};
use crate::shard::Shard;
use crate::tenant::{TenantGovernor, TenantPolicy};
use mcmm_chaos::ChaosConfig;
use mcmm_core::matrix::CompatMatrix;
use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_gpu_sim::diffval::fnv1a;
use mcmm_serve::{FailoverPolicy, ServeConfig};
use mcmm_toolchain::{CompileCache, DiskStats, DiskTier, Registry};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Gateway construction knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Shard count (each shard owns a vendor device trio). ≥ 1.
    pub shards: usize,
    /// Per-shard admission bound: pending requests beyond this are
    /// refused with 503 + `Retry-After`.
    pub queue_bound: usize,
    /// Per-shard serving configuration.
    pub serve: ServeConfig,
    /// Failover policy of every shard's router.
    pub policy: FailoverPolicy,
    /// Per-tenant token-bucket policy.
    pub tenant: TenantPolicy,
    /// Chaos configuration of every shard's injector (quiet by default).
    pub chaos: ChaosConfig,
    /// Artifact directory for the disk-persisted compile-cache tier
    /// (shared by all shards); `None` keeps caches memory-only.
    pub artifact_dir: Option<PathBuf>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_bound: 256,
            serve: ServeConfig::default(),
            policy: FailoverPolicy::default(),
            tenant: TenantPolicy::default(),
            chaos: ChaosConfig::quiet(0),
            artifact_dir: None,
        }
    }
}

impl GatewayConfig {
    /// Apply the `MCMM_GATEWAY_SHARDS` and `MCMM_ARTIFACT_DIR` env knobs
    /// over this configuration.
    pub fn from_env(mut self) -> Self {
        if let Ok(v) = std::env::var("MCMM_GATEWAY_SHARDS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                self.shards = n.clamp(1, 64);
            }
        }
        if let Ok(dir) = std::env::var("MCMM_ARTIFACT_DIR") {
            if !dir.trim().is_empty() {
                self.artifact_dir = Some(PathBuf::from(dir));
            }
        }
        self
    }
}

/// Gateway-wide counters for reports and the bench.
#[derive(Debug, Clone, Serialize)]
pub struct GatewayStats {
    /// Requests accepted into a shard (leads + follows).
    pub submitted: u64,
    /// 429 refusals (tenant over rate).
    pub throttled: u64,
    /// 503 refusals (shard queue full).
    pub queue_full: u64,
    /// Coalescing leads across shards.
    pub coalesce_leads: u64,
    /// Coalescing joins across shards.
    pub coalesce_joins: u64,
    /// `joins / (leads + joins)` — the dedupe ratio.
    pub dedupe_ratio: f64,
    /// Memory-tier cache hits across shards.
    pub cache_hits: u64,
    /// Memory-tier cache misses across shards.
    pub cache_misses: u64,
    /// Disk-tier hits (when a disk tier is attached).
    pub disk_hits: u64,
    /// Disk-tier fills.
    pub disk_fills: u64,
    /// Disk-tier invalid (rejected) entries.
    pub disk_invalid: u64,
    /// Tenants currently tracked.
    pub tenants: usize,
    /// Traced launches merged into the memory rows across every shard
    /// device (> 0 whenever serve-side tracing is on, the default).
    pub mem_traced_launches: u64,
    /// Aggregate simulated-L1 hit rate across every shard device.
    pub mem_l1_hit_rate: f64,
    /// Aggregate simulated-L2 hit rate across every shard device.
    pub mem_l2_hit_rate: f64,
    /// Aggregate simulated DRAM traffic in bytes across every shard
    /// device.
    pub mem_dram_bytes: u64,
}

/// The sharded front-door core.
pub struct Gateway {
    shards: Vec<Arc<Shard>>,
    governor: TenantGovernor,
    disk: Option<Arc<DiskTier>>,
    throttled: AtomicU64,
    queue_full: AtomicU64,
    submitted: AtomicU64,
}

impl Gateway {
    /// Bring up the gateway: N shards, each with its own service and (if
    /// an artifact directory is configured) a compile cache backed by the
    /// shared disk tier.
    pub fn new(cfg: GatewayConfig) -> std::io::Result<Self> {
        let disk = match &cfg.artifact_dir {
            Some(dir) => Some(Arc::new(DiskTier::open(dir)?)),
            None => None,
        };
        let shards = (0..cfg.shards.max(1))
            .map(|i| {
                let cache = match &disk {
                    Some(tier) => Arc::new(CompileCache::with_disk(
                        cfg.serve.cache_capacity,
                        Arc::clone(tier),
                    )),
                    None => Arc::new(CompileCache::new(cfg.serve.cache_capacity)),
                };
                Arc::new(Shard::new(
                    i,
                    cfg.serve,
                    cache,
                    cfg.policy,
                    cfg.chaos.clone(),
                    cfg.queue_bound,
                ))
            })
            .collect();
        Ok(Self {
            shards,
            governor: TenantGovernor::new(cfg.tenant),
            disk,
            throttled: AtomicU64::new(0),
            queue_full: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
        })
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards (read access for reports/tests).
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// Submit one request end to end: tenant admission → fingerprint-hash
    /// shard routing → queue admission → coalesce-or-execute.
    pub fn submit(&self, req: &SubmitRequest) -> Result<SubmitResponse, ApiError> {
        let valid = req.validate()?;
        if let Err(t) = self.governor.admit(&req.tenant) {
            self.throttled.fetch_add(1, Ordering::Relaxed);
            return Err(ApiError {
                status: 429,
                message: format!("tenant {:?} over rate", req.tenant),
                retry_after: Some(t.retry_after_secs),
            });
        }
        let shard = &self.shards[(valid.key % self.shards.len() as u64) as usize];
        if let Err(full) = shard.admit() {
            self.queue_full.fetch_add(1, Ordering::Relaxed);
            return Err(ApiError {
                status: 503,
                message: format!(
                    "shard {} queue full (depth {}; retry after {} completions)",
                    shard.index, full.depth, full.retry_after_jobs
                ),
                // One pending job clears in well under a second on the
                // simulated devices; the hint scales with the backlog.
                retry_after: Some((full.retry_after_jobs as u64).div_ceil(64).max(1)),
            });
        }
        self.submitted.fetch_add(1, Ordering::Relaxed);

        let (result, coalesced) = match shard.coalescer.join(valid.key) {
            Join::Lead => {
                let result = match shard.run(&valid.job) {
                    Some((bytes, route)) => {
                        FlightResult { checksum: fnv1a(&bytes), route, error: None }
                    }
                    None => FlightResult {
                        checksum: 0,
                        route: String::new(),
                        error: Some("job lost: every route exhausted".into()),
                    },
                };
                shard.coalescer.complete(valid.key, result.clone());
                (result, false)
            }
            Join::Follow(flight) => {
                let result = flight.wait();
                shard.release();
                (result, true)
            }
        };
        if let Some(error) = result.error {
            return Err(ApiError { status: 500, message: error, retry_after: None });
        }
        Ok(SubmitResponse {
            checksum: format!("{:016x}", result.checksum),
            route: result.route,
            shard: shard.index,
            coalesced,
        })
    }

    /// Aggregate counters across shards.
    pub fn stats(&self) -> GatewayStats {
        let coalesce: CoalesceStats =
            self.shards.iter().fold(CoalesceStats::default(), |mut acc, s| {
                let c = s.coalesce_stats();
                acc.leads += c.leads;
                acc.joins += c.joins;
                acc
            });
        let (mut cache_hits, mut cache_misses) = (0, 0);
        for s in &self.shards {
            let c = s.cache_stats();
            cache_hits += c.hits;
            cache_misses += c.misses;
        }
        let disk = self.disk.as_ref().map(|d| d.stats()).unwrap_or_default();
        let (mem, mem_traced_launches) = self
            .shards
            .iter()
            .flat_map(|s| {
                mcmm_core::taxonomy::Vendor::ALL.into_iter().map(|v| {
                    (s.service().device(v).mem_stats(), s.service().device(v).mem_launches())
                })
            })
            .fold((mcmm_gpu_sim::MemStats::default(), 0u64), |(acc, n), (s, l)| {
                (acc.merged(s), n + l)
            });
        GatewayStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            throttled: self.throttled.load(Ordering::Relaxed),
            queue_full: self.queue_full.load(Ordering::Relaxed),
            coalesce_leads: coalesce.leads,
            coalesce_joins: coalesce.joins,
            dedupe_ratio: coalesce.dedupe_ratio(),
            cache_hits,
            cache_misses,
            disk_hits: disk.hits,
            disk_fills: disk.fills,
            disk_invalid: disk.invalid,
            tenants: self.governor.tenant_count(),
            mem_traced_launches,
            mem_l1_hit_rate: mem.l1_hit_rate(),
            mem_l2_hit_rate: mem.l2_hit_rate(),
            mem_dram_bytes: mem.dram_bytes,
        }
    }

    /// Disk-tier counters, when configured.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.disk.as_ref().map(|d| d.stats())
    }

    /// `GET /v1/matrix`: the paper's compatibility matrix, one entry per
    /// cell with its rating and route names.
    pub fn matrix_json(&self) -> String {
        #[derive(Serialize)]
        struct CellEntry {
            vendor: String,
            model: String,
            language: String,
            support: &'static str,
            routes: Vec<&'static str>,
        }
        let matrix = CompatMatrix::paper();
        let cells: Vec<CellEntry> = matrix
            .cells()
            .map(|c| CellEntry {
                vendor: c.id.vendor.to_string(),
                model: c.id.model.to_string(),
                language: c.id.language.to_string(),
                support: c.best_support().category_name(),
                routes: c.viable_routes().map(|r| r.toolchain).collect(),
            })
            .collect();
        serde_json::to_string(&cells).expect("matrix serializes")
    }

    /// `GET /v1/routes`: every usable compiler of the registry and the
    /// (model, language, vendor) cells it serves.
    pub fn routes_json(&self) -> String {
        #[derive(Serialize)]
        struct Target {
            model: String,
            language: String,
            vendor: String,
        }
        #[derive(Serialize)]
        struct RouteEntry {
            toolchain: &'static str,
            targets: Vec<Target>,
        }
        let registry = Registry::paper();
        let routes: Vec<RouteEntry> = registry
            .entries()
            .iter()
            .filter(|c| c.is_available())
            .map(|c| RouteEntry {
                toolchain: c.name,
                targets: Model::ALL
                    .into_iter()
                    .flat_map(|m| {
                        Language::ALL
                            .into_iter()
                            .flat_map(move |l| Vendor::ALL.into_iter().map(move |v| (m, l, v)))
                    })
                    .filter(|&(m, l, v)| c.supports(m, l, v))
                    .map(|(m, l, v)| Target {
                        model: m.to_string(),
                        language: l.to_string(),
                        vendor: v.to_string(),
                    })
                    .collect(),
            })
            .collect();
        serde_json::to_string(&routes).expect("routes serialize")
    }

    /// `GET /healthz`: liveness plus the per-(route, vendor) breaker
    /// states of every shard.
    pub fn healthz_json(&self) -> String {
        #[derive(Serialize)]
        struct ShardHealth {
            shard: usize,
            pending: usize,
            executed: u64,
            breakers: Vec<mcmm_serve::BreakerState>,
        }
        #[derive(Serialize)]
        struct Health {
            status: &'static str,
            shards: Vec<ShardHealth>,
        }
        let shards: Vec<ShardHealth> = self
            .shards
            .iter()
            .map(|s| ShardHealth {
                shard: s.index,
                pending: s.pending(),
                executed: s.executed(),
                breakers: s.breaker_states(),
            })
            .collect();
        let status = if shards.iter().all(|s| s.breakers.iter().all(|b| !b.open)) {
            "ok"
        } else {
            "degraded"
        };
        serde_json::to_string(&Health { status, shards }).expect("health serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GatewayConfig {
        GatewayConfig { shards: 2, ..GatewayConfig::default() }
    }

    fn req(tenant: &str, a: f32) -> SubmitRequest {
        SubmitRequest {
            tenant: tenant.into(),
            shape: "scale".into(),
            model: "CUDA".into(),
            language: "C++".into(),
            vendor: "NVIDIA".into(),
            a,
            x: vec![1.0, 2.0, 3.0, 4.0],
            y: vec![0.0; 4],
        }
    }

    #[test]
    fn submit_executes_and_checksums() {
        let gw = Gateway::new(small()).unwrap();
        let resp = gw.submit(&req("t", 2.0)).unwrap();
        let want: Vec<u8> = [2.0f32, 4.0, 6.0, 8.0].iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(resp.checksum, format!("{:016x}", fnv1a(&want)));
        assert!(!resp.coalesced);
        assert!(resp.shard < 2);
    }

    #[test]
    fn identical_requests_route_to_one_shard() {
        let gw = Gateway::new(small()).unwrap();
        let a = gw.submit(&req("t", 2.0)).unwrap();
        let b = gw.submit(&req("t", 2.0)).unwrap();
        assert_eq!(a.shard, b.shard, "fingerprint routing must be stable");
        assert_eq!(a.checksum, b.checksum);
    }

    #[test]
    fn throttled_tenant_gets_429_with_retry_hint() {
        let cfg =
            GatewayConfig { tenant: TenantPolicy { burst: 1.0, per_second: 0.0001 }, ..small() };
        let gw = Gateway::new(cfg).unwrap();
        gw.submit(&req("flooder", 2.0)).unwrap();
        let err = gw.submit(&req("flooder", 3.0)).unwrap_err();
        assert_eq!(err.status, 429);
        assert!(err.retry_after.is_some());
        // The neighbour is unaffected.
        gw.submit(&req("neighbour", 2.0)).unwrap();
        assert_eq!(gw.stats().throttled, 1);
    }

    #[test]
    fn health_and_matrix_endpoints_serialize() {
        let gw = Gateway::new(small()).unwrap();
        let health: serde_json::Value = serde_json::from_str(&gw.healthz_json()).unwrap();
        assert_eq!(health["status"], "ok");
        let matrix: serde_json::Value = serde_json::from_str(&gw.matrix_json()).unwrap();
        assert!(matrix.as_array().unwrap().len() >= 27, "9 models × 3 vendors at least");
        let routes: serde_json::Value = serde_json::from_str(&gw.routes_json()).unwrap();
        assert!(!routes.as_array().unwrap().is_empty());
    }
}
