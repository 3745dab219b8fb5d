//! Route failover over the execution service.
//!
//! The paper's matrix lists *alternative routes* per (model, language,
//! vendor) cell; this module is where the alternatives earn their keep.
//! The [`FailoverRouter`] runs a workload job by job through a
//! [`Service`] while a chaos [`FaultInjector`] breaks attempts, and
//! reacts the way a resilient serving layer should:
//!
//! * **Retry with backoff** — a failed attempt is retried on the same
//!   route up to [`MAX_RETRIES`] times, with exponential backoff in
//!   *modeled* time (accounted, never slept), jittered by the workload
//!   seed so two runs of one seed book identical backoff.
//! * **Route failover** — a job's plan is its cell's usable routes in the
//!   order the Service picks them
//!   ([`Registry::ranked`](mcmm_toolchain::Registry::ranked)), so the
//!   plan starts on the route [`Service::submit`] would take. When a route
//!   keeps failing, the router moves to the next route of the plan,
//!   health-checks it ([`mcmm_toolchain::probe::route_health`]), and
//!   recompiles the job through the shared
//!   [`CompileCache`](mcmm_toolchain::CompileCache) on the new
//!   route. Results are byte-identical across routes — only ratings,
//!   efficiency, and failure behaviour differ — which is exactly the
//!   paper's portability argument in executable form.
//! * **Circuit breaking** — each (route, vendor) pair counts its
//!   consecutive failures, and its breaker is open while the count has
//!   reached [`BREAKER_THRESHOLD`]: subsequent jobs skip the pair at
//!   admission time, a *runtime* downgrade of the matrix's static rating.
//!   A success removes the count and so closes the breaker.
//!
//! The retry, backoff, breaker and attempt limits are constants;
//! [`FailoverPolicy`] only switches failover, breakers included, on or
//! off.
//!
//! A device with no room for a job — the Service refuses it as
//! [`SubmitError::QueueFull`] or cannot allocate its buffers — is load,
//! not a route fault. The router books no breaker failure for it and tries
//! no other route (every route of the cell runs on that device); it hands
//! the job back as [`Unserved::Refused`] for the caller to resubmit. A job
//! whose cell has no route at all is refused the same way, as
//! [`SubmitError::NoRoute`].
//!
//! Every decision is recorded in a per-job [`FailoverTrace`] (route tried
//! → fault observed → fallback chosen → rating delta), and aggregate
//! [`FailoverStats`] feed the serving report.
//!
//! [`FailoverRouter::run`] executes a workload *sequentially* (submit,
//! wait, react). That is deliberate: the chaos budget is consumed in a
//! deterministic order, so a whole fault storm — which faults fire, which
//! jobs fail over, which routes trip breakers — replays exactly from the
//! seed alone. [`FailoverRouter::run_one`] takes `&self`, so many threads
//! (the gateway's request handlers) can run jobs through one router at
//! once; they share its breakers, and their interleaving, not the seed,
//! decides the order in which failures are booked.

use crate::job::{JobCompletion, JobId, SubmitError};
use crate::service::{JobHandle, Service, SubmitOptions};
use crate::workload::{PlannedJob, Workload};
use mcmm_chaos::{AttemptCtx, FaultInjector};
use mcmm_core::rating::{qualify, Evidence};
use mcmm_core::taxonomy::Vendor;
use mcmm_toolchain::probe::route_health;
use mcmm_toolchain::VirtualCompiler;
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Retries on the *same* route before failing over to the next one.
pub const MAX_RETRIES: u32 = 2;
/// Base of the exponential retry backoff, in modeled microseconds.
pub const BACKOFF_BASE_US: f64 = 50.0;
/// Consecutive failures that open a (route, vendor) pair's breaker.
pub const BREAKER_THRESHOLD: u32 = 3;
/// Hard cap on attempts per job across all routes — the router's own
/// termination guarantee under a hostile fault policy.
pub const MAX_ATTEMPTS: u32 = 12;

/// Whether the router retries and fails over at all.
#[derive(Debug, Clone, Copy)]
pub struct FailoverPolicy {
    /// Master switch: `false` degrades the router to single-attempt
    /// submission with no breaker (faults still fire — this is the
    /// "measure the damage without the safety net" mode).
    pub enabled: bool,
}

impl Default for FailoverPolicy {
    fn default() -> Self {
        Self { enabled: true }
    }
}

impl FailoverPolicy {
    /// The no-safety-net policy: one attempt per job, on the plan's first
    /// route, with no retry, no failover and no breaker. A failure is
    /// booked nowhere, so no pair is quarantined, no job is degraded and
    /// every failed attempt loses its job.
    pub fn disabled() -> Self {
        Self { enabled: false }
    }
}

/// Aggregate failover accounting for one run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FailoverStats {
    /// Re-attempts on the same route.
    pub retries: u64,
    /// Route switches (same cell, next route of the plan).
    pub failovers: u64,
    /// Jobs that exhausted every option and were lost.
    pub lost: u64,
    /// Jobs that finished on a route rated worse than their first choice.
    pub degraded: u64,
    /// (route, vendor) pairs whose breaker opened, as `"route @ vendor"`
    /// labels, each listed once, at its first trip.
    pub quarantined: Vec<String>,
    /// Total modeled backoff booked, in microseconds.
    pub backoff_us_total: f64,
    /// Route health checks performed before adopting failover targets.
    pub health_checks: u64,
}

/// Why the router did not serve a job.
#[derive(Debug, Clone, PartialEq)]
pub enum Unserved {
    /// The Service refused the job without any route being at fault: its
    /// cell has no route ([`SubmitError::NoRoute`]), or its device had no
    /// room for it ([`SubmitError::QueueFull`] or [`SubmitError::Alloc`]),
    /// in which case it can be resubmitted once work drains. No breaker
    /// was booked.
    Refused(SubmitError),
    /// Every route was tried and failed.
    Lost,
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
    /// The head of the job's plan: the route the Service itself picks for
    /// the cell ([`Registry::select_best`](mcmm_toolchain::Registry::select_best)),
    /// whether or not its breaker is open.
    pub planned_route: String,
    /// Every attempt, in order.
    pub attempts: Vec<AttemptRecord>,
    /// Route of the successful attempt; `None` if the job was not served.
    pub final_route: Option<String>,
    /// Support-rating positions moved, planned → final: 0 = finished on
    /// the planned rating, positive = finished that many support
    /// categories worse (the runtime downgrade), negative never happens
    /// (the plan starts at a best-rated route).
    pub rating_delta: i32,
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
    /// Has the count reached [`BREAKER_THRESHOLD`]? Open breakers are
    /// skipped at admission.
    pub open: bool,
}

/// The failover router. Shares the service and the injector by `Arc` (so
/// long-lived owners like the gateway need no borrow lifetime). Its
/// breakers, stats and records sit behind one lock that is taken only
/// between steps of a job, never across a submit, a wait or a
/// health-check compile, so many threads can run jobs through one router
/// at once.
pub struct FailoverRouter {
    service: Arc<Service>,
    injector: Arc<FaultInjector>,
    policy: FailoverPolicy,
    /// Keep per-job traces and completions? Long-running servers turn
    /// this off so memory stays bounded by the breaker table, not the
    /// request count; aggregate [`FailoverStats`] accumulate either way.
    record: bool,
    state: Mutex<RouterState>,
}

/// The router's mutable state.
#[derive(Default)]
struct RouterState {
    /// Consecutive failures per (route, vendor) since its last success;
    /// the pair's breaker is open while its count has reached
    /// [`BREAKER_THRESHOLD`].
    breaker: BTreeMap<(String, Vendor), u32>,
    stats: FailoverStats,
    traces: Vec<FailoverTrace>,
    /// Completion records of the successful final attempts, for reports.
    completions: Vec<JobCompletion>,
}

impl RouterState {
    fn is_open(&self, route: &str, vendor: Vendor) -> bool {
        self.breaker.get(&(route.to_owned(), vendor)).is_some_and(|&n| n >= BREAKER_THRESHOLD)
    }

    /// Book one failure against a route's breaker; list the pair in the
    /// stats the first time it trips.
    fn note_failure(&mut self, route: &str, vendor: Vendor) {
        let count = self.breaker.entry((route.to_owned(), vendor)).or_insert(0);
        *count += 1;
        if *count == BREAKER_THRESHOLD {
            let label = format!("{route} @ {vendor}");
            if !self.stats.quarantined.contains(&label) {
                self.stats.quarantined.push(label);
            }
        }
    }
}

/// A route's support category, as the rating engine qualifies it.
fn rating(compiler: &VirtualCompiler) -> i32 {
    qualify(Evidence::from_route(&compiler.route)) as i32
}

impl FailoverRouter {
    /// Build a router over a service and an injector. Every job is planned
    /// from the service's own registry.
    pub fn new(
        service: Arc<Service>,
        injector: Arc<FaultInjector>,
        policy: FailoverPolicy,
    ) -> Self {
        Self { service, injector, policy, record: true, state: Mutex::new(RouterState::default()) }
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
    pub fn stats(&self) -> FailoverStats {
        self.state.lock().stats.clone()
    }

    /// Per-job traces, in the order the jobs finished (plan order for
    /// [`FailoverRouter::run`]).
    pub fn traces(&self) -> Vec<FailoverTrace> {
        self.state.lock().traces.clone()
    }

    /// Completion records of the successful final attempts (lost jobs
    /// have none), for latency reporting.
    pub fn completions(&self) -> Vec<JobCompletion> {
        self.state.lock().completions.clone()
    }

    /// Is a (route, vendor) pair's breaker open?
    pub fn is_quarantined(&self, route: &str, vendor: Vendor) -> bool {
        self.state.lock().is_open(route, vendor)
    }

    /// Every (route, vendor) breaker with at least one failure booked
    /// since its last success, sorted by (route, vendor) — the `/healthz`
    /// payload of the front-door.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.state
            .lock()
            .breaker
            .iter()
            .map(|((route, vendor), &count)| BreakerState {
                route: route.clone(),
                vendor: vendor.to_string(),
                consecutive_failures: count,
                open: count >= BREAKER_THRESHOLD,
            })
            .collect()
    }

    /// Run a workload job by job, reacting to failures. Returns each
    /// job's read-back bytes (`None` = the job was lost). With failover
    /// enabled and a bounded fault budget, no job should be lost; with it
    /// disabled, every injected fault costs its job. Every served job's
    /// handle is kept until the run ends, so a later job can chain onto
    /// any earlier one. A job the router refuses is lost too: nothing
    /// resubmits it.
    pub fn run(&mut self, workload: &Workload) -> Vec<Option<Vec<u8>>> {
        let mut ids: Vec<JobId> = Vec::with_capacity(workload.jobs.len());
        let mut handles: Vec<JobHandle> = Vec::with_capacity(workload.jobs.len());
        let mut outputs = Vec::with_capacity(workload.jobs.len());
        for (plan_idx, job) in workload.jobs.iter().enumerate() {
            match self.run_job(plan_idx as u64, job, &ids) {
                Ok((handle, bytes, _route)) => {
                    ids.push(handle.id);
                    handles.push(handle);
                    outputs.push(Some(bytes));
                }
                Err(_) => {
                    self.state.lock().stats.lost += 1;
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

    /// Next plan slot whose breaker is closed and that passes a health
    /// check, searching from `from`. Falls back to plain "breaker closed"
    /// if no candidate passes, and to `from` itself if every breaker is
    /// open — the router never deadlocks on an empty choice.
    fn next_route(&self, plan: &[&VirtualCompiler], from: usize, job: &PlannedJob) -> usize {
        let candidates = (1..=plan.len()).map(|step| (from + step) % plan.len());
        for idx in candidates.clone() {
            if self.is_quarantined(plan[idx].name, job.vendor) {
                continue;
            }
            self.state.lock().stats.health_checks += 1;
            if route_health(plan[idx], self.service.cache(), job.model, job.language, job.vendor) {
                return idx;
            }
        }
        candidates
            .into_iter()
            .find(|&idx| !self.is_quarantined(plan[idx].name, job.vendor))
            .unwrap_or(from)
    }

    /// Run one *standalone* planned job (no dependencies on earlier jobs)
    /// through the full failover machinery: retries, route switches, and
    /// breakers all apply, and the breaker state persists into the next
    /// call. Returns the read-back bytes plus the toolchain name of the
    /// route that finally served the job, or why it was not served; only
    /// a lost job is booked in the stats. This is the gateway's
    /// per-request entry point; concurrent calls share the breakers.
    pub fn try_run_one(
        &self,
        plan_idx: u64,
        job: &PlannedJob,
    ) -> Result<(Vec<u8>, String), Unserved> {
        match self.run_job(plan_idx, job, &[]) {
            Ok((_, bytes, route)) => Ok((bytes, route)),
            Err(Unserved::Lost) => {
                self.state.lock().stats.lost += 1;
                Err(Unserved::Lost)
            }
            Err(refused) => Err(refused),
        }
    }

    /// [`FailoverRouter::try_run_one`] without the reason: `None` if the
    /// job was lost or refused.
    pub fn run_one(&self, plan_idx: u64, job: &PlannedJob) -> Option<(Vec<u8>, String)> {
        self.try_run_one(plan_idx, job).ok()
    }

    /// Run one planned job until it is served, lost or refused. A served
    /// job comes back with its handle, which keeps it nameable as a
    /// dependency.
    fn run_job(
        &self,
        plan_idx: u64,
        job: &PlannedJob,
        ids: &[JobId],
    ) -> Result<(JobHandle, Vec<u8>, String), Unserved> {
        let plan = self.service.registry().ranked(job.model, job.language, job.vendor);
        let Some(&planned) = plan.first() else {
            return Err(Unserved::Refused(SubmitError::NoRoute {
                model: job.model,
                language: job.language,
                vendor: job.vendor,
            }));
        };
        // Admission-time quarantine skip: start from the first route whose
        // breaker is closed (fall back to the plan head if all are open).
        let mut route_idx = if self.policy.enabled {
            let state = self.state.lock();
            plan.iter().position(|c| !state.is_open(c.name, job.vendor)).unwrap_or(0)
        } else {
            0
        };
        let max_attempts = if self.policy.enabled { MAX_ATTEMPTS } else { 1 };
        let mut tries_on_route = 0u32;
        let mut trace = FailoverTrace {
            job: plan_idx,
            planned_route: planned.name.to_owned(),
            attempts: Vec::new(),
            final_route: None,
            rating_delta: 0,
        };

        for attempt in 0..max_attempts {
            let route = plan[route_idx];
            let faults = self.injector.decide(&AttemptCtx {
                job: plan_idx,
                attempt,
                model: job.model,
                language: job.language,
                vendor: job.vendor,
                route: route.name,
            });
            let spec = job.to_spec(ids);
            let submitted =
                self.service.submit_with(spec, SubmitOptions { route: Some(route.name), faults });
            let error = match submitted {
                Ok(handle) => {
                    let done = handle.wait();
                    match done.error {
                        None => {
                            // Success: settle the trace, then close the
                            // breaker and book the outcome.
                            trace.attempts.push(AttemptRecord {
                                route: route.name.to_owned(),
                                error: None,
                                backoff_us: 0.0,
                            });
                            trace.final_route = Some(route.name.to_owned());
                            trace.rating_delta = rating(route) - rating(planned);
                            let bytes = done.output.clone().unwrap_or_default();
                            let mut state = self.state.lock();
                            state.breaker.remove(&(route.name.to_owned(), job.vendor));
                            if trace.rating_delta > 0 {
                                state.stats.degraded += 1;
                            }
                            if self.record {
                                state.traces.push(trace);
                                state.completions.push(done);
                            }
                            return Ok((handle, bytes, route.name.to_owned()));
                        }
                        Some(e) => e.to_string(),
                    }
                }
                Err(e @ (SubmitError::QueueFull { .. } | SubmitError::Alloc(_))) => {
                    // The device is full, whichever route compiled the
                    // job: give it back without booking the route.
                    trace.attempts.push(AttemptRecord {
                        route: route.name.to_owned(),
                        error: Some(e.to_string()),
                        backoff_us: 0.0,
                    });
                    if self.record {
                        self.state.lock().traces.push(trace);
                    }
                    return Err(Unserved::Refused(e));
                }
                Err(e) => e.to_string(),
            };

            // Failure path: only a router that fails over keeps breakers.
            if self.policy.enabled {
                self.state.lock().note_failure(route.name, job.vendor);
            }
            let mut backoff_us = 0.0;
            if self.policy.enabled && attempt + 1 < max_attempts {
                if tries_on_route < MAX_RETRIES {
                    // Retry the same route after exponential backoff.
                    tries_on_route += 1;
                    backoff_us = BACKOFF_BASE_US
                        * f64::from(1u32 << tries_on_route)
                        * self.jitter(plan_idx, attempt);
                    let mut state = self.state.lock();
                    state.stats.retries += 1;
                    state.stats.backoff_us_total += backoff_us;
                } else {
                    // Route exhausted: fail over to the plan's next route.
                    let next = self.next_route(&plan, route_idx, job);
                    if next != route_idx {
                        self.state.lock().stats.failovers += 1;
                        route_idx = next;
                    }
                    tries_on_route = 0;
                }
            }
            trace.attempts.push(AttemptRecord {
                route: route.name.to_owned(),
                error: Some(error),
                backoff_us,
            });
        }
        if self.record {
            self.state.lock().traces.push(trace);
        }
        Err(Unserved::Lost)
    }
}
