//! # mcmm-gateway — the HTTP front-door over the executable matrix
//!
//! ROADMAP item 1 in executable form: the compatibility matrix is only
//! useful at production scale if it can be *served*. This crate composes
//! the in-process pieces the serving layer already provides — the
//! content-addressed [`CompileCache`](mcmm_toolchain::CompileCache) (now
//! with a disk-persisted tier), admission control, and the
//! [`FailoverRouter`](mcmm_serve::FailoverRouter) — into a networked,
//! multi-tenant HTTP/1.1 service:
//!
//! * **[`http`]** — the minimal HTTP/1.1 surface (request parsing,
//!   keep-alive, `Content-Length` responses) over `std::net`,
//!   shim-style: no external HTTP crate exists in this build environment.
//! * **[`api`]** — the JSON wire types and their validation into the
//!   serving layer's planned-job vocabulary.
//! * **[`shard`]** — the one executor: a vendor device trio, compile
//!   cache, and failover router with circuit breakers, which concurrent
//!   requests enter without a lock.
//! * **[`coalesce`]** — single-flight merging of concurrent identical
//!   `(fingerprint, route, args)` submissions: one execution, every
//!   waiter gets the result.
//! * **[`tenant`]** — per-tenant token-bucket admission (429 +
//!   `Retry-After`), complementing the executor's admission bound (503 +
//!   `Retry-After`) and its device-capacity refusals (503 too, never
//!   booked against a route's breaker). A request for a cell the matrix
//!   leaves empty is a 400.
//! * **[`gateway`]** — the transport-free core: admission, coalescing,
//!   and the JSON payload behind every endpoint.
//! * **[`server`]** — the worker-thread accept pool putting the core
//!   behind TCP.
//! * **[`client`]** — a keep-alive loopback client for benches and tests.
//!
//! | Endpoint | Method | Purpose |
//! |---|---|---|
//! | `/v1/submit` | POST | Execute one kernel job (coalesced, failover-routed) |
//! | `/v1/matrix` | GET | The paper's compatibility matrix with ratings |
//! | `/v1/routes` | GET | Usable toolchains and the cells they serve |
//! | `/v1/stats` | GET | Gateway counters (coalescing, caches, tenants) |
//! | `/healthz` | GET | Liveness + per-(route, vendor) breaker states |

pub mod api;
pub mod client;
pub mod coalesce;
pub mod gateway;
pub mod http;
pub mod server;
pub mod shard;
pub mod tenant;

pub use api::{ApiError, ErrorBody, SubmitRequest, SubmitResponse};
pub use client::HttpClient;
pub use coalesce::{CoalesceStats, Coalescer};
pub use gateway::{Gateway, GatewayConfig, GatewayStats};
pub use server::HttpServer;
pub use shard::Shard;
pub use tenant::{TenantGovernor, TenantPolicy};
