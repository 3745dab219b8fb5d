//! The gateway proper: tenant admission, the one executor, coalescing,
//! and the JSON payloads behind every endpoint. [`Gateway`] is
//! transport-free — [`crate::server`] puts it behind TCP, tests call it
//! directly.

use crate::api::{ApiError, SubmitRequest, SubmitResponse};
use crate::coalesce::{FlightResult, Join};
use crate::shard::Shard;
use crate::tenant::{TenantGovernor, TenantPolicy};
use mcmm_core::matrix::CompatMatrix;
use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_gpu_sim::diffval::fnv1a;
use mcmm_serve::{ServeConfig, SubmitError, Unserved};
use mcmm_toolchain::{CompileCache, DiskTier, Registry};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Gateway construction knobs.
#[derive(Debug, Clone, Default)]
pub struct GatewayConfig {
    /// Serving configuration of the executor. Its `queue_depth` is also
    /// the gateway's admission bound: pending requests beyond it are
    /// refused with 503 + `Retry-After`.
    pub serve: ServeConfig,
    /// Per-tenant token-bucket policy.
    pub tenant: TenantPolicy,
    /// Artifact directory for the disk-persisted compile-cache tier;
    /// `None` keeps the cache memory-only.
    pub artifact_dir: Option<PathBuf>,
}

impl GatewayConfig {
    /// Apply the `MCMM_ARTIFACT_DIR` env knob over this configuration.
    pub fn from_env(mut self) -> Self {
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
    /// Requests admitted (leads + follows).
    pub submitted: u64,
    /// 429 refusals (tenant over rate).
    pub throttled: u64,
    /// 503 refusals: the admission bound was reached, or the job's
    /// device had no room for it.
    pub queue_full: u64,
    /// Coalescing leads.
    pub coalesce_leads: u64,
    /// Coalescing joins.
    pub coalesce_joins: u64,
    /// `joins / (leads + joins)` — the dedupe ratio.
    pub dedupe_ratio: f64,
    /// Memory-tier cache hits.
    pub cache_hits: u64,
    /// Memory-tier cache misses.
    pub cache_misses: u64,
    /// Disk-tier hits (when a disk tier is attached).
    pub disk_hits: u64,
    /// Disk-tier fills.
    pub disk_fills: u64,
    /// Disk-tier invalid (rejected) entries.
    pub disk_invalid: u64,
    /// Tenants currently tracked.
    pub tenants: usize,
    /// Traced launches merged into the memory rows across the three
    /// devices (> 0 whenever serve-side tracing is on, the default).
    pub mem_traced_launches: u64,
    /// Aggregate simulated-L1 hit rate across the three devices.
    pub mem_l1_hit_rate: f64,
    /// Aggregate simulated-L2 hit rate across the three devices.
    pub mem_l2_hit_rate: f64,
    /// Aggregate simulated DRAM traffic in bytes across the three
    /// devices.
    pub mem_dram_bytes: u64,
}

/// The front-door core.
pub struct Gateway {
    shard: Arc<Shard>,
    governor: TenantGovernor,
    throttled: AtomicU64,
    queue_full: AtomicU64,
    submitted: AtomicU64,
}

impl Gateway {
    /// Bring up the gateway: one executor whose compile cache is backed
    /// by the disk tier when an artifact directory is configured.
    pub fn new(cfg: GatewayConfig) -> std::io::Result<Self> {
        let cache = match &cfg.artifact_dir {
            Some(dir) => {
                CompileCache::with_disk(cfg.serve.cache_capacity, Arc::new(DiskTier::open(dir)?))
            }
            None => CompileCache::new(cfg.serve.cache_capacity),
        };
        Ok(Self {
            shard: Arc::new(Shard::new(cfg.serve, Arc::new(cache))),
            governor: TenantGovernor::new(cfg.tenant),
            throttled: AtomicU64::new(0),
            queue_full: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
        })
    }

    /// The executor.
    pub fn shard(&self) -> &Shard {
        &self.shard
    }

    /// Always 1: the gateway has one executor.
    pub fn shard_count(&self) -> usize {
        1
    }

    /// The executor, as a one-element slice.
    pub fn shards(&self) -> &[Arc<Shard>] {
        std::slice::from_ref(&self.shard)
    }

    /// Submit one request end to end: tenant admission → queue admission
    /// → coalesce-or-execute.
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
        let shard = &self.shard;
        if let Err(full) = shard.admit() {
            self.queue_full.fetch_add(1, Ordering::Relaxed);
            return Err(ApiError {
                status: 503,
                message: format!(
                    "queue full (depth {}; retry after {} completions)",
                    full.depth, full.retry_after_jobs
                ),
                // One pending job clears in well under a second on the
                // simulated devices; the hint scales with the backlog.
                retry_after: Some((full.retry_after_jobs as u64).div_ceil(64).max(1)),
            });
        }
        self.submitted.fetch_add(1, Ordering::Relaxed);

        let (result, coalesced) = match shard.coalescer.join(valid.key) {
            Join::Lead => {
                let result = match shard.try_run(&valid.job) {
                    Ok((bytes, route)) => {
                        FlightResult { checksum: fnv1a(&bytes), route, error: None }
                    }
                    Err(unserved) => {
                        let error = match unserved {
                            // A valid name for an empty cell of the matrix.
                            Unserved::Refused(e @ SubmitError::NoRoute { .. }) => {
                                ApiError::bad_request(e.to_string())
                            }
                            // Device memory frees as running jobs finish.
                            Unserved::Refused(e) => ApiError {
                                status: 503,
                                message: e.to_string(),
                                retry_after: Some(1),
                            },
                            Unserved::Lost => "job lost: every route exhausted".into(),
                        };
                        FlightResult { checksum: 0, route: String::new(), error: Some(error) }
                    }
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
            if error.status == 503 {
                self.queue_full.fetch_add(1, Ordering::Relaxed);
            }
            return Err(error);
        }
        Ok(SubmitResponse {
            checksum: format!("{:016x}", result.checksum),
            route: result.route,
            shard: shard.index,
            coalesced,
        })
    }

    /// Gateway counters.
    pub fn stats(&self) -> GatewayStats {
        let coalesce = self.shard.coalesce_stats();
        let cache = self.shard.cache_stats();
        let disk = self.shard.disk_stats().unwrap_or_default();
        let (mem, mem_traced_launches) = Vendor::ALL
            .into_iter()
            .map(|v| self.shard.service().device(v).totals())
            .fold((mcmm_gpu_sim::MemStats::default(), 0u64), |(acc, n), t| {
                (acc.merged(t.mem), n + t.traced_launches)
            });
        GatewayStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            throttled: self.throttled.load(Ordering::Relaxed),
            queue_full: self.queue_full.load(Ordering::Relaxed),
            coalesce_leads: coalesce.leads,
            coalesce_joins: coalesce.joins,
            dedupe_ratio: coalesce.dedupe_ratio(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
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

    /// `GET /healthz`: liveness, the executor's load, and its
    /// per-(route, vendor) breaker states.
    pub fn healthz_json(&self) -> String {
        #[derive(Serialize)]
        struct Health {
            status: &'static str,
            pending: usize,
            executed: u64,
            breakers: Vec<mcmm_serve::BreakerState>,
        }
        let breakers = self.shard.breaker_states();
        let status = if breakers.iter().all(|b| !b.open) { "ok" } else { "degraded" };
        let health = Health {
            status,
            pending: self.shard.pending(),
            executed: self.shard.executed(),
            breakers,
        };
        serde_json::to_string(&health).expect("health serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let gw = Gateway::new(GatewayConfig::default()).unwrap();
        let resp = gw.submit(&req("t", 2.0)).unwrap();
        let want: Vec<u8> = [2.0f32, 4.0, 6.0, 8.0].iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(resp.checksum, format!("{:016x}", fnv1a(&want)));
        assert!(!resp.coalesced);
        assert_eq!(resp.shard, 0);
    }

    #[test]
    fn throttled_tenant_gets_429_with_retry_hint() {
        let cfg = GatewayConfig {
            tenant: TenantPolicy { burst: 1.0, per_second: 0.0001 },
            ..Default::default()
        };
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
        let gw = Gateway::new(GatewayConfig::default()).unwrap();
        let health: serde_json::Value = serde_json::from_str(&gw.healthz_json()).unwrap();
        assert_eq!(health["status"], "ok");
        let matrix: serde_json::Value = serde_json::from_str(&gw.matrix_json()).unwrap();
        assert!(matrix.as_array().unwrap().len() >= 27, "9 models × 3 vendors at least");
        let routes: serde_json::Value = serde_json::from_str(&gw.routes_json()).unwrap();
        assert!(!routes.as_array().unwrap().is_empty());
    }
}
