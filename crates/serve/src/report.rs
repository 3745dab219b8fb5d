//! Serving reports: latency percentiles, throughput, cache behaviour, and
//! per-device utilization — human-readable and machine-readable (JSON).
//!
//! All times are **modeled** (device-clock) seconds unless a field says
//! `wall`: the point of the report is the analytic performance model, not
//! the host machine the simulation happens to run on.

use crate::failover::FailoverStats;
use crate::job::JobCompletion;
use crate::service::{Service, ServiceCounts};
use mcmm_core::taxonomy::Vendor;
use mcmm_gpu_sim::{MemStats, TransferStats};
use serde::Serialize;

/// Percentile summary over per-job modeled latencies (microseconds).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct LatencyStats {
    /// Median.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Mean.
    pub mean_us: f64,
    /// Worst observed.
    pub max_us: f64,
}

impl LatencyStats {
    /// Summarise a set of modeled latencies given in seconds.
    pub fn from_seconds(latencies: &[f64]) -> Self {
        if latencies.is_empty() {
            return Self::default();
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latency is never NaN"));
        let pct = |p: f64| {
            let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
            sorted[idx] * 1e6
        };
        Self {
            p50_us: pct(0.50),
            p99_us: pct(0.99),
            mean_us: sorted.iter().sum::<f64>() / sorted.len() as f64 * 1e6,
            max_us: sorted[sorted.len() - 1] * 1e6,
        }
    }
}

/// One device's share of the workload.
#[derive(Debug, Clone, Serialize)]
pub struct DeviceReport {
    /// Vendor name ("AMD", "Intel", "NVIDIA").
    pub vendor: String,
    /// Simulated device name.
    pub device: String,
    /// Kernel launches the device retired.
    pub launches: u64,
    /// Modeled busy time: the device clock after the run (seconds).
    pub busy_s: f64,
    /// `busy_s / makespan` — the fraction of the run this device was
    /// doing modeled work.
    pub utilization: f64,
    /// Host→device bytes moved over the run.
    pub h2d_bytes: u64,
    /// Device→host bytes moved over the run.
    pub d2h_bytes: u64,
    /// L1 hit rate over traced launches; `None` when nothing was traced
    /// (the default: tracing off, analytic timing).
    pub l1_hit_rate: Option<f64>,
    /// L2 hit rate over traced launches; `None` when nothing was traced.
    pub l2_hit_rate: Option<f64>,
}

/// Compile-cache behaviour over the run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CacheReport {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses (compiles actually performed).
    pub misses: u64,
    /// Artifacts evicted by the LRU policy.
    pub evictions: u64,
    /// Live entries at the end of the run.
    pub entries: usize,
    /// `hits / (hits + misses)`.
    pub hit_rate: f64,
}

/// Device kernel-cache behaviour, summed over the three devices. The
/// compile cache above deduplicates *route compilations*; this one
/// deduplicates the *decode and lane-vector lowering* each device performs
/// per distinct kernel.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ProgramsReport {
    /// Launches served by an already-decoded and lowered kernel.
    pub hits: u64,
    /// Decodes and lowerings actually performed.
    pub misses: u64,
    /// Distinct kernels cached across the devices.
    pub entries: usize,
    /// `hits / (hits + misses)`.
    pub hit_rate: f64,
}

/// Job accounting, mirrored from [`ServiceCounts`] for serialization.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct JobsReport {
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs that retired cleanly.
    pub completed: u64,
    /// Jobs that retired with a job-local error.
    pub failed: u64,
    /// Submissions explicitly refused by admission control.
    pub rejected: u64,
    /// Accepted submissions that matched an earlier rejection — the
    /// tenant heeded the `retry_after_jobs` hint and got in.
    pub resubmitted: u64,
    /// Rejections never followed by an accepted resubmission.
    pub rejected_hard: u64,
}

/// One workload kernel's portability verdict on one vendor device, as
/// computed by the caller. The serving layer itself stays free of the
/// static analyzer — the `serve` bench binary feeds these rows from
/// `mcmm-analyze`'s per-device portability suite (MCA006–MCA010) so the
/// report can show, next to the throughput numbers, *which* of the served
/// kernels would survive a move to another vendor's hardware.
#[derive(Debug, Clone, Serialize)]
pub struct PortabilityRow {
    /// Kernel name.
    pub kernel: String,
    /// Simulated device name (`DeviceSpec::name`).
    pub device: String,
    /// Warp/wavefront/sub-group width of that device.
    pub warp_width: u32,
    /// No gating finding (MCA006–MCA009) on this device; informational
    /// MCA010 drift does not clear this flag to `false`.
    pub gate_clean: bool,
    /// Distinct diagnostic codes present for this kernel on this device.
    pub codes: Vec<String>,
}

/// The full serving report.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Workload seed, for reproduction.
    pub seed: u64,
    /// Job accounting.
    pub jobs: JobsReport,
    /// Compile-cache behaviour.
    pub cache: CacheReport,
    /// Device kernel-cache behaviour.
    pub programs: ProgramsReport,
    /// Modeled latency summary (admission → retirement, queueing included).
    pub latency: LatencyStats,
    /// Modeled makespan: the slowest device clock (seconds).
    pub makespan_s: f64,
    /// Jobs per modeled second over the makespan.
    pub throughput_jobs_per_s: f64,
    /// Host wall-clock of the run (milliseconds) — reported for context,
    /// not part of the performance model.
    pub wall_ms: f64,
    /// Per-device breakdown.
    pub devices: Vec<DeviceReport>,
    /// Failover accounting, when the run went through the
    /// [`crate::FailoverRouter`].
    pub failover: Option<FailoverStats>,
    /// Per-kernel, per-device portability verdicts for the served
    /// workload shapes (empty unless the caller attached them with
    /// [`ServeReport::with_portability`]).
    pub portability: Vec<PortabilityRow>,
}

impl ServeReport {
    /// Assemble the report from a drained service and its completions.
    pub fn collect(
        service: &Service,
        completions: &[JobCompletion],
        seed: u64,
        wall_ms: f64,
    ) -> Self {
        let counts: ServiceCounts = service.counts();
        let cache = service.cache().stats();
        let programs = Vendor::ALL
            .into_iter()
            .map(|v| service.device(v).program_cache_stats())
            .fold(mcmm_gpu_sim::ProgramCacheStats::default(), |acc, s| acc.merged(s));
        let latencies: Vec<f64> = completions.iter().map(|c| c.latency.seconds()).collect();

        let clocks: Vec<(Vendor, f64, u64, String, TransferStats, Option<MemStats>)> = Vendor::ALL
            .into_iter()
            .map(|v| {
                let dev = service.device(v);
                let mem = (dev.mem_launches() > 0).then(|| dev.mem_stats());
                (
                    v,
                    dev.modeled_clock().seconds(),
                    dev.launches(),
                    dev.spec().name.to_string(),
                    dev.transfer_stats(),
                    mem,
                )
            })
            .collect();
        let makespan = clocks.iter().map(|c| c.1).fold(0.0f64, f64::max);
        let devices = clocks
            .into_iter()
            .map(|(v, busy, launches, device, xfer, mem)| DeviceReport {
                vendor: v.to_string(),
                device,
                launches,
                busy_s: busy,
                utilization: if makespan > 0.0 { busy / makespan } else { 0.0 },
                h2d_bytes: xfer.h2d_bytes,
                d2h_bytes: xfer.d2h_bytes,
                l1_hit_rate: mem.map(|m| m.l1_hit_rate()),
                l2_hit_rate: mem.map(|m| m.l2_hit_rate()),
            })
            .collect();

        Self {
            seed,
            jobs: JobsReport {
                submitted: counts.submitted,
                completed: counts.completed,
                failed: counts.failed,
                rejected: counts.rejected,
                resubmitted: counts.resubmitted,
                rejected_hard: counts.rejected_hard,
            },
            cache: CacheReport {
                hits: cache.hits,
                misses: cache.misses,
                evictions: cache.evictions,
                entries: cache.entries,
                hit_rate: cache.hit_rate(),
            },
            programs: ProgramsReport {
                hits: programs.hits,
                misses: programs.misses,
                entries: programs.entries,
                hit_rate: programs.hit_rate(),
            },
            latency: LatencyStats::from_seconds(&latencies),
            makespan_s: makespan,
            throughput_jobs_per_s: if makespan > 0.0 {
                completions.len() as f64 / makespan
            } else {
                0.0
            },
            wall_ms,
            devices,
            failover: None,
            portability: Vec::new(),
        }
    }

    /// Attach a failover run's accounting (builder style).
    pub fn with_failover(mut self, stats: FailoverStats) -> Self {
        self.failover = Some(stats);
        self
    }

    /// Attach per-kernel portability verdicts (builder style).
    pub fn with_portability(mut self, rows: Vec<PortabilityRow>) -> Self {
        self.portability = rows;
        self
    }

    /// Machine-readable JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("serve report (seed {:#x})\n", self.seed));
        out.push_str(&format!(
            "  jobs       {} submitted, {} completed, {} failed, {} rejected ({} resubmitted, {} hard)\n",
            self.jobs.submitted,
            self.jobs.completed,
            self.jobs.failed,
            self.jobs.rejected,
            self.jobs.resubmitted,
            self.jobs.rejected_hard
        ));
        out.push_str(&format!(
            "  cache      {:.1}% hit rate ({} hits / {} misses, {} evictions, {} live)\n",
            self.cache.hit_rate * 100.0,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.entries
        ));
        out.push_str(&format!(
            "  programs   {:.1}% hit rate ({} hits / {} misses, {} lowered programs)\n",
            self.programs.hit_rate * 100.0,
            self.programs.hits,
            self.programs.misses,
            self.programs.entries
        ));
        out.push_str(&format!(
            "  latency    p50 {:.1} us, p99 {:.1} us, mean {:.1} us, max {:.1} us (modeled)\n",
            self.latency.p50_us, self.latency.p99_us, self.latency.mean_us, self.latency.max_us
        ));
        out.push_str(&format!(
            "  throughput {:.0} jobs per modeled second (makespan {:.3} ms, wall {:.0} ms)\n",
            self.throughput_jobs_per_s,
            self.makespan_s * 1e3,
            self.wall_ms
        ));
        for d in &self.devices {
            let caches = match (d.l1_hit_rate, d.l2_hit_rate) {
                (Some(l1), Some(l2)) => {
                    format!(", L1 {:.0}% / L2 {:.0}% hit", l1 * 100.0, l2 * 100.0)
                }
                _ => String::new(),
            };
            out.push_str(&format!(
                "  {:<7} {:<22} {:>4} launches, busy {:.3} ms, {:>5.1}% utilized, \
                 xfer {:.2} MB in / {:.2} MB out{}\n",
                d.vendor,
                d.device,
                d.launches,
                d.busy_s * 1e3,
                d.utilization * 100.0,
                d.h2d_bytes as f64 / 1e6,
                d.d2h_bytes as f64 / 1e6,
                caches
            ));
        }
        if let Some(f) = &self.failover {
            out.push_str(&format!(
                "  failover   {} retries, {} failovers, {} degraded, {} lost, backoff {:.0} us\n",
                f.retries, f.failovers, f.degraded, f.lost, f.backoff_us_total
            ));
            out.push_str(&format!(
                "  breaker    {} quarantined route(s): [{}] ({} health checks)\n",
                f.quarantined.len(),
                f.quarantined.join(", "),
                f.health_checks
            ));
        }
        if !self.portability.is_empty() {
            let broken = self.portability.iter().filter(|r| !r.gate_clean).count();
            out.push_str(&format!(
                "  portability {} kernel-device verdicts, {} gate-breaking\n",
                self.portability.len(),
                broken
            ));
            for r in &self.portability {
                let codes =
                    if r.codes.is_empty() { "clean".to_string() } else { r.codes.join(",") };
                out.push_str(&format!(
                    "    {:<18} {:<26} w{:<3} {} [{}]\n",
                    r.kernel,
                    r.device,
                    r.warp_width,
                    if r.gate_clean { "ok    " } else { "BREAKS" },
                    codes
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_a_known_distribution() {
        // 1..=100 microseconds.
        let lat: Vec<f64> = (1..=100).map(|v| v as f64 * 1e-6).collect();
        let s = LatencyStats::from_seconds(&lat);
        assert!((s.p50_us - 51.0).abs() < 1.5, "p50 {}", s.p50_us);
        assert!((s.p99_us - 99.0).abs() < 1.5, "p99 {}", s.p99_us);
        assert!((s.mean_us - 50.5).abs() < 0.1, "mean {}", s.mean_us);
        assert!((s.max_us - 100.0).abs() < 1e-9, "max {}", s.max_us);
    }

    #[test]
    fn empty_latencies_are_zero() {
        let s = LatencyStats::from_seconds(&[]);
        assert_eq!(s.p50_us, 0.0);
        assert_eq!(s.max_us, 0.0);
    }
}
