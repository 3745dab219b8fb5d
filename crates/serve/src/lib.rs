//! # mcmm-serve — a concurrent kernel-execution service over the matrix
//!
//! The paper's compatibility matrix says which (model, language, vendor)
//! routes *exist*; [`mcmm_toolchain`] makes them *executable*; this crate
//! makes them *servable*: a multi-tenant service that accepts jobs —
//! kernel IR plus a route plus launch configuration plus buffers — and
//! runs them concurrently across the three simulated vendor devices.
//!
//! Three pieces:
//!
//! * **Compile cache** ([`mcmm_toolchain::CompileCache`], shared) —
//!   content-addressed on (kernel-IR fingerprint × route), LRU-evicted,
//!   so the analyzer lint gate and ISA translation run once per distinct
//!   (kernel, route) pair no matter how many tenants submit it.
//! * **Scheduler** ([`Service`]) — per-device stream fans with bounded
//!   admission ([`SubmitError::QueueFull`] is an explicit rejection, never
//!   a silent drop), and dependency-aware job DAGs mapped onto the
//!   simulator's stream/event primitives: launch-after-launch edges become
//!   `wait_event`, read-backs become transfer-after-launch on the job's
//!   stream. Job failures stay job-local.
//! * **Load generator + reports** ([`Workload`], [`ServeReport`]) — a
//!   seeded, deterministic mixed workload over every routable frontend ×
//!   device combination, and a report with throughput, p50/p99 modeled
//!   latency, cache hit rate, and per-device utilization, in both
//!   human-readable and JSON form.
//!
//! The determinism contract, exercised by the integration tests: the
//! concurrent service produces **byte-identical** result buffers to a
//! serial single-stream execution of the same plan ([`run_serial`]).

pub mod failover;
pub mod job;
pub mod report;
pub mod service;
pub mod workload;

pub use failover::{
    AttemptRecord, BreakerState, FailoverPolicy, FailoverRouter, FailoverStats, FailoverTrace,
    Unserved,
};
pub use job::{ArgSpec, JobCompletion, JobId, JobSpec, SubmitError};
pub use report::{DeviceReport, LatencyStats, PortabilityRow, ServeReport};
pub use service::{JobHandle, ServeConfig, Service, ServiceCounts, SubmitOptions};
pub use workload::{run_serial, KernelShape, PlannedInput, PlannedJob, Workload, WorkloadConfig};
