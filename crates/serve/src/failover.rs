//! Matrix-driven route failover over the execution service.
//!
//! The paper's matrix lists *alternative routes* per (model, language,
//! vendor) cell; this module is where the alternatives earn their keep.
//! The [`FailoverRouter`] runs a workload job by job through a
//! [`Service`] while a chaos [`FaultInjector`] breaks attempts, and
//! reacts the way a resilient serving layer should:
//!
//! * **Retry with backoff** — a failed attempt is retried on the same
//!   route up to [`FailoverPolicy::max_retries`] times, with exponential
//!   backoff in *modeled* time (accounted, never slept), jittered by the
//!   workload seed so two runs of one seed book identical backoff.
//! * **Route failover** — when a route keeps failing, the router asks the
//!   matrix for the next-best-rated alternative for the same cell
//!   ([`mcmm_core::query::advise`] +
//!   [`Cell::routes_by_rating`](mcmm_core::Cell::routes_by_rating)),
//!   health-checks it ([`mcmm_toolchain::probe::route_health`]), and
//!   recompiles the job through the shared
//!   [`CompileCache`](mcmm_toolchain::CompileCache) on the new
//!   route. Results are byte-identical across routes — only ratings,
//!   efficiency, and failure behaviour differ — which is exactly the
//!   paper's portability argument in executable form.
//! * **Circuit breaking** — a (route, vendor) pair that accumulates
//!   [`FailoverPolicy::breaker_threshold`] consecutive failures is
//!   quarantined: subsequent jobs skip it at admission time, a *runtime*
//!   downgrade of the matrix's static rating. A success resets the
//!   breaker.
//!
//! Every decision is recorded in a per-job [`FailoverTrace`] (route tried
//! → fault observed → fallback chosen → rating delta), and aggregate
//! [`FailoverStats`] feed the serving report.
//!
//! The router executes jobs *sequentially* (submit, wait, react). That is
//! deliberate: the chaos budget is consumed in a deterministic order, so
//! a whole fault storm — which faults fire, which jobs fail over, which
//! routes trip breakers — replays exactly from the seed alone.

use crate::job::{JobCompletion, JobId};
use crate::service::{Service, SubmitOptions};
use crate::workload::Workload;
use mcmm_chaos::{AttemptCtx, FaultInjector};
use mcmm_core::matrix::CompatMatrix;
use mcmm_core::query::{advise, Query};
use mcmm_core::rating::{qualify, Evidence};
use mcmm_core::support::Support;
use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_toolchain::probe::route_health;
use serde::Serialize;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Failover tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct FailoverPolicy {
    /// Master switch: `false` degrades the router to single-attempt
    /// submission (faults still fire — this is the "measure the damage
    /// without the safety net" mode).
    pub enabled: bool,
    /// Retries on the *same* route before failing over to the next one.
    pub max_retries: u32,
    /// Base of the exponential backoff, in modeled microseconds.
    pub backoff_base_us: f64,
    /// Consecutive failures that quarantine a (route, vendor) pair.
    pub breaker_threshold: u32,
    /// Hard cap on attempts per job across all routes — the router's own
    /// termination guarantee under a hostile fault policy.
    pub max_attempts: u32,
}

impl Default for FailoverPolicy {
    fn default() -> Self {
        Self {
            enabled: true,
            max_retries: 2,
            backoff_base_us: 50.0,
            breaker_threshold: 3,
            max_attempts: 12,
        }
    }
}

impl FailoverPolicy {
    /// The no-safety-net policy: one attempt per job, no retries, no
    /// failover, no quarantine.
    pub fn disabled() -> Self {
        Self { enabled: false, ..Self::default() }
    }
}

/// Aggregate failover accounting for one run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FailoverStats {
    /// Re-attempts on the same route.
    pub retries: u64,
    /// Route switches (same cell, next-best-rated alternative).
    pub failovers: u64,
    /// Jobs that exhausted every option and were lost.
    pub lost: u64,
    /// Jobs that finished on a route rated worse than their first choice.
    pub degraded: u64,
    /// Quarantined (route, vendor) pairs, as `"route @ vendor"` labels,
    /// in quarantine order.
    pub quarantined: Vec<String>,
    /// Total modeled backoff booked, in microseconds.
    pub backoff_us_total: f64,
    /// Route health checks performed before adopting failover targets.
    pub health_checks: u64,
}

/// One attempt of one job, as traced.
#[derive(Debug, Clone, Serialize)]
pub struct AttemptRecord {
    /// Toolchain name of the route carrying the attempt.
    pub route: String,
    /// Why the attempt failed (`None` = it succeeded).
    pub error: Option<String>,
    /// Modeled backoff booked after this attempt, in microseconds.
    pub backoff_us: f64,
}

/// The per-job failover trace: route tried → fault → fallback chosen →
/// rating delta.
#[derive(Debug, Clone, Serialize)]
pub struct FailoverTrace {
    /// Plan index of the job.
    pub job: u64,
    /// The matrix's first-choice route for the job's cell (quarantine
    /// ignored — this is the *static* rating's pick).
    pub planned_route: String,
    /// Every attempt, in order.
    pub attempts: Vec<AttemptRecord>,
    /// Route of the successful attempt; `None` if the job was lost.
    pub final_route: Option<String>,
    /// Support-rating positions moved, planned → final: 0 = finished on
    /// the planned rating, positive = finished that many support
    /// categories worse (the runtime downgrade), negative never happens
    /// (the plan starts at the best rating).
    pub rating_delta: i32,
}

/// One route of a job's failover plan.
#[derive(Debug, Clone)]
struct PlanRoute {
    /// Toolchain name (also the [`SubmitOptions::route`] override).
    name: String,
    /// The matrix's static rating of the route.
    support: Support,
}

/// One (route, vendor) circuit breaker, as surfaced by `/healthz`.
#[derive(Debug, Clone, Serialize)]
pub struct BreakerState {
    /// Toolchain name of the route.
    pub route: String,
    /// Target vendor.
    pub vendor: String,
    /// Consecutive failures booked since the last success.
    pub consecutive_failures: u32,
    /// Tripped (quarantined)? Open breakers are skipped at admission.
    pub open: bool,
}

/// The failover router. Shares the service and the injector by `Arc` (so
/// long-lived owners like gateway shards need no borrow lifetime); owns
/// the breaker state, quarantine set, traces, and stats.
pub struct FailoverRouter {
    service: Arc<Service>,
    injector: Arc<FaultInjector>,
    policy: FailoverPolicy,
    matrix: CompatMatrix,
    /// Consecutive-failure counters per (route, vendor).
    breaker: HashMap<(String, Vendor), u32>,
    /// Tripped breakers: skipped at admission by subsequent jobs.
    quarantined: BTreeSet<(String, Vendor)>,
    stats: FailoverStats,
    traces: Vec<FailoverTrace>,
    /// Completion records of the successful final attempts, for reports.
    completions: Vec<JobCompletion>,
    /// Keep per-job traces and completions? Long-running servers turn
    /// this off so memory stays bounded by the breaker table, not the
    /// request count; aggregate [`FailoverStats`] accumulate either way.
    record: bool,
}

impl FailoverRouter {
    /// Build a router over a service and an injector, planning against
    /// the paper's matrix.
    pub fn new(
        service: Arc<Service>,
        injector: Arc<FaultInjector>,
        policy: FailoverPolicy,
    ) -> Self {
        Self {
            service,
            injector,
            policy,
            matrix: CompatMatrix::paper(),
            breaker: HashMap::new(),
            quarantined: BTreeSet::new(),
            stats: FailoverStats::default(),
            traces: Vec::new(),
            completions: Vec::new(),
            record: true,
        }
    }

    /// Toggle per-job trace/completion recording (on by default). With it
    /// off, [`FailoverRouter::traces`] and
    /// [`FailoverRouter::completions`] stay empty.
    pub fn set_record(&mut self, record: bool) {
        self.record = record;
    }

    /// The service this router submits to.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Aggregate stats so far.
    pub fn stats(&self) -> &FailoverStats {
        &self.stats
    }

    /// Per-job traces, in plan order.
    pub fn traces(&self) -> &[FailoverTrace] {
        &self.traces
    }

    /// Completion records of the successful final attempts (lost jobs
    /// have none), for latency reporting.
    pub fn completions(&self) -> &[JobCompletion] {
        &self.completions
    }

    /// Is a (route, vendor) pair currently quarantined?
    pub fn is_quarantined(&self, route: &str, vendor: Vendor) -> bool {
        self.quarantined.contains(&(route.to_owned(), vendor))
    }

    /// Every (route, vendor) breaker with at least one booked failure or
    /// an open quarantine, sorted by (route, vendor) — the `/healthz`
    /// payload of the front-door.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        let mut keys: BTreeSet<(String, Vendor)> = self.breaker.keys().cloned().collect();
        keys.extend(self.quarantined.iter().cloned());
        keys.into_iter()
            .map(|(route, vendor)| BreakerState {
                open: self.quarantined.contains(&(route.clone(), vendor)),
                consecutive_failures: self
                    .breaker
                    .get(&(route.clone(), vendor))
                    .copied()
                    .unwrap_or(0),
                vendor: vendor.to_string(),
                route,
            })
            .collect()
    }

    /// Run a workload job by job, reacting to failures. Returns each
    /// job's read-back bytes (`None` = the job was lost). With failover
    /// enabled and a bounded fault budget, no job should be lost; with it
    /// disabled, every injected fault costs its job.
    pub fn run(&mut self, workload: &Workload) -> Vec<Option<Vec<u8>>> {
        let mut ids: Vec<JobId> = Vec::with_capacity(workload.jobs.len());
        let mut outputs = Vec::with_capacity(workload.jobs.len());
        for (plan_idx, job) in workload.jobs.iter().enumerate() {
            match self.run_job(plan_idx as u64, job, &ids) {
                Some((id, bytes, _route)) => {
                    ids.push(id);
                    outputs.push(Some(bytes));
                }
                None => {
                    self.stats.lost += 1;
                    // JobId(0) is never assigned by the service, so any
                    // dependant of a lost job fails with
                    // UnknownDependency — losses propagate explicitly
                    // down the chain instead of silently reading junk.
                    ids.push(JobId(0));
                    outputs.push(None);
                }
            }
        }
        outputs
    }

    /// The matrix's route plan for a cell: the cell's routes ranked
    /// best-rated first (name tie-break), intersected with the registry's
    /// usable compilers; any usable compiler the cell does not list is
    /// appended in registry order, rated from its own route evidence.
    /// Quarantine is applied by the caller.
    fn plan_for(&self, model: Model, language: Language, vendor: Vendor) -> Vec<PlanRoute> {
        let usable = self.service.registry().ranked(model, language, vendor);
        let query = Query::new().vendors([vendor]).models([model]).languages([language]);
        let advice = advise(&self.matrix, &query);
        let mut plan: Vec<PlanRoute> = advice
            .best()
            .map(|cell| {
                cell.routes_by_rating()
                    .into_iter()
                    .filter(|(r, _)| usable.iter().any(|c| c.name == r.toolchain))
                    .map(|(r, s)| PlanRoute { name: r.toolchain.to_owned(), support: s })
                    .collect()
            })
            .unwrap_or_default();
        for c in &usable {
            if !plan.iter().any(|p| p.name == c.name) {
                plan.push(PlanRoute {
                    name: c.name.to_owned(),
                    support: qualify(Evidence::from_route(&c.route)),
                });
            }
        }
        plan
    }

    /// Deterministic backoff jitter in `[0.5, 1.5)`, derived from the
    /// injector's seed and the attempt identity.
    fn jitter(&self, job: u64, attempt: u32) -> f64 {
        let mut z = self
            .injector
            .config()
            .seed
            .wrapping_add(job.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(u64::from(attempt));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        0.5 + (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Book one failure against a route's breaker; quarantine on trip.
    fn note_failure(&mut self, route: &str, vendor: Vendor) {
        let key = (route.to_owned(), vendor);
        let count = self.breaker.entry(key.clone()).or_insert(0);
        *count += 1;
        if *count >= self.policy.breaker_threshold && self.quarantined.insert(key) {
            self.stats.quarantined.push(format!("{route} @ {vendor}"));
        }
    }

    /// Next plan slot that is not quarantined and passes a health check,
    /// searching from `from`. Falls back to plain "not quarantined" if no
    /// candidate passes, and to `from` itself if everything is
    /// quarantined — the router never deadlocks on an empty choice.
    fn next_route(
        &mut self,
        plan: &[PlanRoute],
        from: usize,
        model: Model,
        language: Language,
        vendor: Vendor,
    ) -> usize {
        for step in 1..=plan.len() {
            let idx = (from + step) % plan.len();
            if self.is_quarantined(&plan[idx].name, vendor) {
                continue;
            }
            let healthy = self
                .service
                .registry()
                .ranked(model, language, vendor)
                .into_iter()
                .find(|c| c.name == plan[idx].name)
                .is_some_and(|c| {
                    self.stats.health_checks += 1;
                    route_health(c, self.service.cache(), model, language, vendor)
                });
            if healthy {
                return idx;
            }
        }
        for step in 1..=plan.len() {
            let idx = (from + step) % plan.len();
            if !self.is_quarantined(&plan[idx].name, vendor) {
                return idx;
            }
        }
        from
    }

    /// Run one *standalone* planned job (no dependencies on earlier jobs)
    /// through the full failover machinery: retries, route switches, and
    /// breakers all apply, and the breaker state persists into the next
    /// call. Returns the read-back bytes plus the toolchain name of the
    /// route that finally served the job, or `None` if it was lost. This
    /// is the gateway's per-request entry point.
    pub fn run_one(
        &mut self,
        plan_idx: u64,
        job: &crate::workload::PlannedJob,
    ) -> Option<(Vec<u8>, String)> {
        if let Some((_, bytes, route)) = self.run_job(plan_idx, job, &[]) {
            Some((bytes, route))
        } else {
            self.stats.lost += 1;
            None
        }
    }

    /// Run one planned job to success or loss.
    fn run_job(
        &mut self,
        plan_idx: u64,
        job: &crate::workload::PlannedJob,
        ids: &[JobId],
    ) -> Option<(JobId, Vec<u8>, String)> {
        let plan = self.plan_for(job.model, job.language, job.vendor);
        if plan.is_empty() {
            if self.record {
                self.traces.push(FailoverTrace {
                    job: plan_idx,
                    planned_route: String::new(),
                    attempts: Vec::new(),
                    final_route: None,
                    rating_delta: 0,
                });
            }
            return None;
        }
        let planned = plan[0].clone();
        // Admission-time quarantine skip: start from the best-rated route
        // that is not quarantined (fall back to the plan head if all are).
        let mut route_idx =
            plan.iter().position(|r| !self.is_quarantined(&r.name, job.vendor)).unwrap_or(0);
        let max_attempts = if self.policy.enabled { self.policy.max_attempts.max(1) } else { 1 };
        let mut tries_on_route = 0u32;
        let mut trace = FailoverTrace {
            job: plan_idx,
            planned_route: planned.name.clone(),
            attempts: Vec::new(),
            final_route: None,
            rating_delta: 0,
        };

        for attempt in 0..max_attempts {
            let route = plan[route_idx].clone();
            let faults = self.injector.decide(&AttemptCtx {
                job: plan_idx,
                attempt,
                model: job.model,
                language: job.language,
                vendor: job.vendor,
                route: &route.name,
            });
            let spec = job.to_spec(ids);
            let submitted =
                self.service.submit_with(spec, SubmitOptions { route: Some(&route.name), faults });
            let error = match submitted {
                Ok(handle) => {
                    let done = handle.wait();
                    match done.error {
                        None => {
                            // Success: reset the breaker, settle the trace.
                            self.breaker.remove(&(route.name.clone(), job.vendor));
                            trace.attempts.push(AttemptRecord {
                                route: route.name.clone(),
                                error: None,
                                backoff_us: 0.0,
                            });
                            trace.final_route = Some(route.name.clone());
                            trace.rating_delta = route.support as i32 - planned.support as i32;
                            if trace.rating_delta > 0 {
                                self.stats.degraded += 1;
                            }
                            let id = done.id;
                            let bytes = done.output.clone().unwrap_or_default();
                            if self.record {
                                self.traces.push(trace);
                                self.completions.push(done);
                            }
                            return Some((id, bytes, route.name));
                        }
                        Some(e) => e.to_string(),
                    }
                }
                Err(e) => e.to_string(),
            };

            // Failure path.
            self.note_failure(&route.name, job.vendor);
            let mut backoff_us = 0.0;
            if self.policy.enabled && attempt + 1 < max_attempts {
                if tries_on_route < self.policy.max_retries {
                    // Retry the same route after exponential backoff.
                    tries_on_route += 1;
                    self.stats.retries += 1;
                    backoff_us = self.policy.backoff_base_us
                        * f64::from(1u32 << tries_on_route.min(16))
                        * self.jitter(plan_idx, attempt);
                    self.stats.backoff_us_total += backoff_us;
                } else {
                    // Route exhausted: fail over to the matrix's next
                    // alternative for the cell.
                    let next =
                        self.next_route(&plan, route_idx, job.model, job.language, job.vendor);
                    if next != route_idx {
                        self.stats.failovers += 1;
                        route_idx = next;
                    }
                    tries_on_route = 0;
                }
            }
            trace.attempts.push(AttemptRecord {
                route: route.name.clone(),
                error: Some(error),
                backoff_us,
            });
        }
        if self.record {
            self.traces.push(trace);
        }
        None
    }
}
