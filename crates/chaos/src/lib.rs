//! # mcmm-chaos — deterministic fault injection for the executable matrix
//!
//! The paper's matrix catalogs *alternative routes* per vendor × model ×
//! language cell. A route catalog only becomes a resilience mechanism
//! when routes can actually fail — so this crate supplies the failures:
//! a seeded, reproducible fault-injection substrate that decides, for
//! every job attempt, whether its compile, upload, launch, or read-back
//! should break, and how.
//!
//! Responsibilities are split deliberately:
//!
//! * **Mechanics** live in the layers being broken: `mcmm-gpu-sim`
//!   exposes `*_faulted` device/stream entry points taking
//!   [`LaunchFault`]/[`TransferFault`] values, and `mcmm-toolchain`'s
//!   compile cache takes an optional fault that fails a cache miss.
//! * **Policy** lives here: [`ChaosConfig`] holds per-stage
//!   probabilities, sticky [`RouteOutage`]s, and a global fault *budget*;
//!   [`FaultInjector::decide`] turns those into concrete
//!   [`AttemptFaults`] for one attempt.
//! * **Consumption** lives in `mcmm-serve`'s failover router, which
//!   threads the decided faults through submission and reacts to the
//!   resulting errors with retries, backoff, and matrix-driven route
//!   failover.
//!
//! ## Determinism
//!
//! Every decision is a pure hash of (seed, job, attempt, stage, route,
//! vendor) — no wall clock, no shared RNG state. Two injectors built
//! from the same [`ChaosConfig`] make identical decisions in any
//! interleaving; the only mutable state is the fault budget (consumed in
//! submission order, which the serving layer keeps deterministic) and
//! the append-only fault log.

mod config;
mod injector;

pub use config::{ChaosConfig, RouteOutage};
pub use injector::{
    AttemptCtx, AttemptFaults, FaultInjector, FaultKind, FaultRecord, FaultSummary,
};

pub use mcmm_gpu_sim::fault::{LaunchFault, TransferFault};
