//! # mcmm-frontend — the shared execution spine under every model frontend
//!
//! The paper's central observation is that the many programming models
//! are thin, vendor-flavored surfaces over the same launch-and-memcpy
//! reality. This crate is that reality, extracted once:
//!
//! ```text
//! model-cuda  model-hip  model-sycl … model-python      (surfaces)
//!      └──────────┴──────────┴──────────────┘
//!                 ExecutionSession                       (this crate)
//!            │ route resolution (executable routes only)
//!            │ typed H2D/D2H transfer (Element: f32/f64)
//!            │ CompileCache + per-route lint gate
//!            │ launch with route efficiency
//!                 mcmm-gpu-sim devices                   (substrate)
//! ```
//!
//! * [`ExecutionSession`] — device acquisition, owned buffers and the
//!   pointer table raw-pointer surfaces allocate into, typed transfers,
//!   cached compilation, launch; opened per (model, language, vendor)
//!   and refusing exactly where the matrix refuses.
//! * [`Element`] — the `f32`/`f64` transfer trait that replaces the
//!   per-crate `memcpy_*`/`memcpy_*_f64` method pairs.
//! * [`FrontendError`] — the layered error taxonomy (routing / toolchain
//!   / device) each model maps into its idiomatic error enum without
//!   losing the cause chain.
//! * [`Frontend`] + [`FrontendRegistry`] — the uniform handle benchmarks
//!   iterate instead of hand-written per-model adapters.
//! * [`shared_cache`] — the process-wide [`CompileCache`] all sessions
//!   share by default, so identical kernels compile once across
//!   frontends, sweeps, and repetitions.

mod element;
mod error;
mod registry;
mod session;

pub use element::Element;
pub use error::FrontendError;
pub use registry::{Frontend, FrontendRegistry};
pub use session::{shared_cache, DeviceBuffer, ExecutionSession};

pub use mcmm_toolchain::{CacheStats, CompileCache, ProgramCacheStats};
