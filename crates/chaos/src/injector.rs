//! The fault injector: pure-hash per-attempt decisions, a global budget,
//! and the append-only fault log.

use crate::config::ChaosConfig;
use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_gpu_sim::fault::{LaunchFault, TransferFault};
use parking_lot::Mutex;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies one job attempt for fault rolling. Each field feeds the
/// decision hash, so job 7's third attempt on route X rolls differently
/// from its first — retries are not doomed to hit the same fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptCtx<'a> {
    /// Stable per-run job number (the workload plan index).
    pub job: u64,
    /// Attempt counter for this job, starting at 0.
    pub attempt: u32,
    /// Source programming model.
    pub model: Model,
    /// Source language.
    pub language: Language,
    /// Target vendor lane.
    pub vendor: Vendor,
    /// Toolchain name of the route carrying the attempt.
    pub route: &'a str,
}

/// The faults decided for one attempt — at most one stage breaks per
/// attempt (the first stage to fail also aborts the rest, so deciding
/// several would be unobservable anyway).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttemptFaults {
    /// Fail a cold compile with this transient-fault reason.
    pub compile: Option<String>,
    /// Abort the input upload.
    pub upload: Option<TransferFault>,
    /// Break the kernel launch (refusal, stall, or lane crash).
    pub launch: Option<LaunchFault>,
    /// Abort the result read-back.
    pub read_back: Option<TransferFault>,
}

impl AttemptFaults {
    /// No faults — the attempt runs clean.
    pub fn none() -> Self {
        Self::default()
    }

    /// Does this attempt carry no fault?
    pub fn is_clean(&self) -> bool {
        self.compile.is_none()
            && self.upload.is_none()
            && self.launch.is_none()
            && self.read_back.is_none()
    }
}

/// What kind of fault was injected (for records and summaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum FaultKind {
    /// Sticky route outage (budget-exempt launch refusal).
    Outage,
    /// Transient toolchain failure on a cold compile.
    Compile,
    /// Aborted host→device upload.
    Upload,
    /// Refused launch.
    LaunchRefusal,
    /// Watchdog-killed stall.
    Stall,
    /// One block's lanes crashed.
    LaneCrash,
    /// Aborted device→host read-back.
    ReadBack,
}

impl FaultKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Outage => "outage",
            FaultKind::Compile => "compile-fault",
            FaultKind::Upload => "upload-fault",
            FaultKind::LaunchRefusal => "launch-refusal",
            FaultKind::Stall => "stall",
            FaultKind::LaneCrash => "lane-crash",
            FaultKind::ReadBack => "read-back-fault",
        }
    }
}

/// One injected fault, as logged.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Plan index of the job whose attempt was broken.
    pub job: u64,
    /// Which attempt (0-based).
    pub attempt: u32,
    /// Toolchain name of the route the attempt was on.
    pub route: String,
    /// Vendor lane.
    pub vendor: Vendor,
    /// What broke.
    pub kind: FaultKind,
}

/// Aggregate view of everything the injector did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct FaultSummary {
    /// Transient faults injected (counted against the budget).
    pub transient: u64,
    /// Outage refusals served (budget-exempt).
    pub outage_hits: u64,
    /// Budget still unspent.
    pub budget_remaining: u64,
    /// Compile faults injected.
    pub compile: u64,
    /// Upload faults injected.
    pub upload: u64,
    /// Launch refusals injected (transient, not outages).
    pub launch_refusals: u64,
    /// Stalls injected.
    pub stalls: u64,
    /// Lane crashes injected.
    pub lane_crashes: u64,
    /// Read-back faults injected.
    pub read_back: u64,
}

/// The seeded fault injector. Cheap to share behind an `Arc`; all
/// mutable state is the budget counter and the fault log.
#[derive(Debug)]
pub struct FaultInjector {
    config: ChaosConfig,
    budget_left: AtomicU64,
    log: Mutex<Vec<FaultRecord>>,
}

/// splitmix64 finalizer — the standard 64-bit avalanche.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// Build an injector from a policy.
    pub fn new(config: ChaosConfig) -> Self {
        let budget_left = AtomicU64::new(config.budget);
        Self { config, budget_left, log: Mutex::new(Vec::new()) }
    }

    /// The policy this injector applies.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// The decision hash for one (attempt, stage): pure in all inputs.
    fn hash(&self, ctx: &AttemptCtx<'_>, stage: u64) -> u64 {
        let mut h = splitmix(self.config.seed ^ stage.wrapping_mul(0xA24B_AED4_963E_E407));
        h = splitmix(h ^ ctx.job);
        h = splitmix(h ^ u64::from(ctx.attempt));
        h = splitmix(
            h ^ (ctx.vendor as u64) << 32 ^ (ctx.model as u64) << 16 ^ ctx.language as u64,
        );
        for chunk in ctx.route.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = splitmix(h ^ u64::from_le_bytes(word));
        }
        h
    }

    /// Uniform `[0, 1)` draw from a hash (53 mantissa bits).
    fn unit(h: u64) -> f64 {
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Spend one unit of budget; `false` when exhausted.
    fn spend_budget(&self) -> bool {
        self.budget_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
            .is_ok()
    }

    fn record(&self, ctx: &AttemptCtx<'_>, kind: FaultKind) {
        self.log.lock().push(FaultRecord {
            job: ctx.job,
            attempt: ctx.attempt,
            route: ctx.route.to_owned(),
            vendor: ctx.vendor,
            kind,
        });
    }

    /// Decide the faults for one attempt.
    ///
    /// Order of evaluation is fixed: a sticky outage wins outright
    /// (budget-exempt — the route is *down*, not unlucky); otherwise the
    /// stages roll in pipeline order (compile, upload, launch refusal,
    /// stall, lane crash, read-back) and the first hit is the attempt's
    /// single fault, charged to the budget. An exhausted budget makes the
    /// injector fall silent — the run always terminates.
    pub fn decide(&self, ctx: &AttemptCtx<'_>) -> AttemptFaults {
        if self.config.outage_for(ctx.route, ctx.vendor).is_some() {
            self.record(ctx, FaultKind::Outage);
            return AttemptFaults {
                launch: Some(LaunchFault::Refuse(format!("route outage: {}", ctx.route))),
                ..AttemptFaults::none()
            };
        }
        let stages = [
            (FaultKind::Compile, self.config.compile_p),
            (FaultKind::Upload, self.config.upload_p),
            (FaultKind::LaunchRefusal, self.config.launch_p),
            (FaultKind::Stall, self.config.stall_p),
            (FaultKind::LaneCrash, self.config.lane_crash_p),
            (FaultKind::ReadBack, self.config.read_back_p),
        ];
        for (stage_no, (kind, p)) in stages.into_iter().enumerate() {
            let h = self.hash(ctx, stage_no as u64 + 1);
            if Self::unit(h) >= p {
                continue;
            }
            if !self.spend_budget() {
                return AttemptFaults::none();
            }
            self.record(ctx, kind);
            let mut faults = AttemptFaults::none();
            match kind {
                FaultKind::Compile => {
                    faults.compile = Some(format!("injected toolchain fault (job {})", ctx.job));
                }
                FaultKind::Upload => {
                    faults.upload = Some(TransferFault::new("injected upload abort"));
                }
                FaultKind::LaunchRefusal => {
                    faults.launch = Some(LaunchFault::Refuse("injected launch refusal".into()));
                }
                FaultKind::Stall => {
                    faults.launch = Some(LaunchFault::Stall(self.config.stall_us));
                }
                FaultKind::LaneCrash => {
                    faults.launch = Some(LaunchFault::CrashBlock((h >> 7) as u32));
                }
                FaultKind::ReadBack => {
                    faults.read_back = Some(TransferFault::new("injected read-back abort"));
                }
                FaultKind::Outage => unreachable!("outages are handled above"),
            }
            return faults;
        }
        AttemptFaults::none()
    }

    /// Everything injected so far, in decision order.
    pub fn records(&self) -> Vec<FaultRecord> {
        self.log.lock().clone()
    }

    /// Aggregate counters over the log.
    pub fn summary(&self) -> FaultSummary {
        let log = self.log.lock();
        let mut s = FaultSummary {
            budget_remaining: self.budget_left.load(Ordering::Relaxed),
            ..FaultSummary::default()
        };
        for r in log.iter() {
            match r.kind {
                FaultKind::Outage => s.outage_hits += 1,
                FaultKind::Compile => s.compile += 1,
                FaultKind::Upload => s.upload += 1,
                FaultKind::LaunchRefusal => s.launch_refusals += 1,
                FaultKind::Stall => s.stalls += 1,
                FaultKind::LaneCrash => s.lane_crashes += 1,
                FaultKind::ReadBack => s.read_back += 1,
            }
            if r.kind != FaultKind::Outage {
                s.transient += 1;
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(job: u64, attempt: u32, route: &str) -> AttemptCtx<'_> {
        AttemptCtx {
            job,
            attempt,
            model: Model::Cuda,
            language: Language::Cpp,
            vendor: Vendor::Nvidia,
            route,
        }
    }

    /// Sweep a few hundred synthetic attempts through an injector.
    fn sweep(inj: &FaultInjector) -> Vec<AttemptFaults> {
        let routes = ["CUDA Toolkit (nvcc)", "Open SYCL", "DPC++ (CUDA plugin)"];
        (0..300u64).map(|j| inj.decide(&ctx(j, (j % 3) as u32, routes[(j % 3) as usize]))).collect()
    }

    #[test]
    fn same_seed_same_decisions() {
        let a = FaultInjector::new(ChaosConfig::storm(42));
        let b = FaultInjector::new(ChaosConfig::storm(42));
        assert_eq!(sweep(&a), sweep(&b));
        assert_eq!(a.records(), b.records());
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultInjector::new(ChaosConfig::storm(42));
        let b = FaultInjector::new(ChaosConfig::storm(43));
        assert_ne!(sweep(&a), sweep(&b), "two seeds agreeing on 300 rolls is a broken hash");
    }

    #[test]
    fn quiet_config_never_faults() {
        let inj = FaultInjector::new(ChaosConfig::quiet(7));
        assert!(sweep(&inj).iter().all(AttemptFaults::is_clean));
        assert_eq!(inj.summary(), FaultSummary::default());
    }

    #[test]
    fn budget_caps_transient_faults() {
        let mut cfg = ChaosConfig::storm(1);
        // Make every stage near-certain so the budget is the only limit.
        cfg.launch_p = 1.0;
        cfg.budget = 5;
        let inj = FaultInjector::new(cfg);
        let faulted = sweep(&inj).iter().filter(|f| !f.is_clean()).count();
        assert_eq!(faulted, 5, "budget must cap injections");
        let s = inj.summary();
        assert_eq!(s.transient, 5);
        assert_eq!(s.budget_remaining, 0);
        // And once exhausted the injector stays silent.
        assert!(inj.decide(&ctx(999, 0, "CUDA Toolkit (nvcc)")).is_clean());
    }

    #[test]
    fn retries_reroll_their_fate() {
        // With a per-attempt hash, the same job's successive attempts must
        // not be locked to one outcome: over many jobs, at least one job
        // that faults on attempt 0 runs clean on attempt 1.
        let mut cfg = ChaosConfig::storm(11);
        cfg.budget = u64::MAX / 2;
        let inj = FaultInjector::new(cfg);
        let recovered = (0..500u64).any(|j| {
            !inj.decide(&ctx(j, 0, "CUDA Toolkit (nvcc)")).is_clean()
                && inj.decide(&ctx(j, 1, "CUDA Toolkit (nvcc)")).is_clean()
        });
        assert!(recovered, "attempt number must feed the decision hash");
    }

    #[test]
    fn outages_are_sticky_targeted_and_budget_exempt() {
        let cfg = ChaosConfig::quiet(3).with_outage("nvcc", Some(Vendor::Nvidia));
        let inj = FaultInjector::new(cfg); // budget is 0
        for attempt in 0..4 {
            let f = inj.decide(&ctx(1, attempt, "CUDA Toolkit (nvcc)"));
            match f.launch {
                Some(LaunchFault::Refuse(reason)) => assert!(reason.contains("outage")),
                other => panic!("outage must refuse every attempt, got {other:?}"),
            }
        }
        // Other routes on the same vendor are untouched.
        assert!(inj.decide(&ctx(1, 0, "Clang CUDA (LLVM)")).is_clean());
        let s = inj.summary();
        assert_eq!(s.outage_hits, 4);
        assert_eq!(s.transient, 0, "outages never spend budget");
    }

    #[test]
    fn storm_injects_every_stage_somewhere() {
        // Over a long sweep the storm must exercise each fault kind at
        // least once — otherwise the canonical bench can't claim coverage.
        let mut cfg = ChaosConfig::storm(0xC0FFEE);
        cfg.budget = u64::MAX / 2;
        let inj = FaultInjector::new(cfg);
        for j in 0..4000u64 {
            inj.decide(&ctx(j, 0, "CUDA Toolkit (nvcc)"));
        }
        let s = inj.summary();
        assert!(s.compile > 0, "{s:?}");
        assert!(s.upload > 0, "{s:?}");
        assert!(s.launch_refusals > 0, "{s:?}");
        assert!(s.stalls > 0, "{s:?}");
        assert!(s.lane_crashes > 0, "{s:?}");
        assert!(s.read_back > 0, "{s:?}");
    }
}
