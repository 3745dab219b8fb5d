//! `mcmm-analyze` — static analysis over the kernel IR, and the sanitizer
//! gate every route in the compatibility matrix compiles through.
//!
//! The paper's central observation is that the same kernel source meets
//! very different *toolchains* depending on the (model, vendor) route
//! taken through the compatibility matrix — and that toolchain maturity,
//! not language semantics, decides what gets caught at compile time. This
//! crate reproduces that axis: a pass suite over
//! [`mcmm_gpu_sim::ir::KernelIr`] that virtual compilers run as a lint
//! gate, with per-route strictness derived from the route's metadata.
//!
//! # Analyses
//!
//! Every analysis walks the structured `If`/`While` tree directly and
//! numbers instructions in the same pre-order ([`Loc`]).
//!
//! * [`uninit`] — the registers written on every path and on some path
//!   to each point, with `If` arms joined and loops iterated to fixpoint.
//! * [`divergence`] — thread-variance taint over the structured tree.
//! * [`range`] — interval analysis with guard refinement and widening.
//! * [`race`] — per-lane concrete execution with barrier-interval
//!   conflict detection.
//!
//! # Diagnostic codes
//!
//! | Code | Check | Minimal offending kernel |
//! |------|-------|--------------------------|
//! | `MCA001` | [`Check::UninitRead`] | `r1 = r0 + 1` where `r0` is neither a parameter nor ever written: the register is read before any definition reaches it. |
//! | `MCA002` | [`Check::DivergentBarrier`] | `if (tid < 16) { __syncthreads(); }` — lanes 16.. never reach the barrier, deadlocking the block on real hardware. |
//! | `MCA003` | [`Check::SharedRace`] | `sh[0] = tid;` with no barrier — every lane writes the same shared bytes in one barrier interval. |
//! | `MCA004` | [`Check::OutOfBounds`] | `p[n] = 7` when the launch declares `p` to hold `n` elements — the store lands one element past the extent. |
//! | `MCA005` | translation coverage | a source translator silently dropped a construct (e.g. an async memcpy lowered by an incomplete OpenACC→OpenMP pass); reported by `mcmm-translate`, not by [`analyze`]. |
//! | `MCA006` | [`width`] | `out[tid] = (lane < 32) ? a : b` — uniform on 32-wide warps and 16-wide sub-groups, but lanes 32..63 of a 64-wide wavefront take the other arm: the kernel silently computes different results on one vendor. |
//! | `MCA007` | [`capacity`] | a kernel declaring 56 KiB of shared memory — fits the 64 KiB scratchpads, exceeds a 48 KiB-per-block device and fails to launch there. |
//! | `MCA008` | [`capacity`] | a launch shape of 2048 threads per block — over every preset device's 1024-thread limit. |
//! | `MCA009` | [`portability`] | `if (lane < 32) { __syncthreads(); }` — all lanes arrive at widths 16 and 32, half a 64-wide wavefront never does: a deadlock only one vendor observes. |
//! | `MCA010` | [`portability`] | `atomicAdd(&sum, x)` on floats — the commit order (and therefore the rounding) depends on the warp width, so the three vendors produce three different sums. |
//!
//! `MCA001`–`MCA004` are vendor-neutral and run under a single set of
//! launch assumptions; `MCA006`–`MCA010` form the **portability suite**
//! ([`portability::portability`]), which re-runs the width-parametric
//! analyses once per vendor [`mcmm_gpu_sim::DeviceSpec`] and reports a
//! verdict per device. Every "breaks on vendor X" claim is differentially
//! validated against the simulator (three devices × two block engines)
//! by `tests/portability_differential.rs` and the `analyze --smoke` gate.
//!
//! Seeded-defect kernels demonstrating each code live in [`corpus`].
//!
//! # Precision contract
//!
//! The gate runs on every kernel each virtual toolchain compiles, so the
//! suite is engineered for **zero false positives**: range checks fire
//! only on finite, provable out-of-range intervals; race checks report
//! only concrete lane/byte conflicts (each reproducible by the dynamic
//! racecheck in `mcmm-gpu-sim-ref`); divergence taint is exact on the
//! structured tree.

#![warn(missing_docs)]

pub mod capacity;
pub mod corpus;
pub mod divergence;
pub mod portability;
pub mod race;
pub mod range;
pub mod uninit;
pub mod width;

use mcmm_gpu_sim::ir::KernelIr;
use std::collections::{BTreeMap, BTreeSet};

/// Read of a potentially-uninitialized register.
pub const MCA001: &str = "MCA001";
/// Barrier under thread-divergent control flow.
pub const MCA002: &str = "MCA002";
/// Shared-memory data race within a barrier interval.
pub const MCA003: &str = "MCA003";
/// Out-of-bounds memory access against a known extent.
pub const MCA004: &str = "MCA004";
/// Construct dropped by a source-to-source translator (emitted by
/// `mcmm-translate`'s coverage audit, not by the IR passes here).
pub const MCA005: &str = "MCA005";
/// Warp-width assumption: a lane predicate or mask that computes different
/// values on devices of a different warp/wavefront/sub-group width.
pub const MCA006: &str = "MCA006";
/// Shared-memory demand exceeds a vendor device's per-block capacity.
pub const MCA007: &str = "MCA007";
/// Block shape exceeds a vendor device's thread-per-block limit.
pub const MCA008: &str = "MCA008";
/// Barrier that is uniform at some warp widths but divergent at a vendor's
/// width — a deadlock only that vendor observes.
pub const MCA009: &str = "MCA009";
/// Order-sensitive floating-point atomic: the commit order depends on the
/// warp width, so results differ across vendors.
pub const MCA010: &str = "MCA010";

/// The individual analyses a toolchain can enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Check {
    /// MCA001 — reads of registers no definition reaches.
    UninitRead,
    /// MCA002 — barriers that not all lanes of a block reach.
    DivergentBarrier,
    /// MCA003 — conflicting shared-memory accesses between barriers.
    SharedRace,
    /// MCA004 — accesses outside shared memory or declared buffer extents.
    OutOfBounds,
}

impl Check {
    /// Every check, in diagnostic-code order.
    pub const ALL: [Check; 4] =
        [Check::UninitRead, Check::DivergentBarrier, Check::SharedRace, Check::OutOfBounds];

    /// The stable diagnostic code this check emits.
    pub fn code(self) -> &'static str {
        match self {
            Check::UninitRead => MCA001,
            Check::DivergentBarrier => MCA002,
            Check::SharedRace => MCA003,
            Check::OutOfBounds => MCA004,
        }
    }
}

/// A stable instruction location: pre-order index over the structured
/// body (an `If`/`While` is numbered before its children). Every analysis
/// numbers the same way, so locations in diagnostics can be
/// cross-referenced between checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc(pub u32);

impl std::fmt::Display for Loc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One finding, with a stable code for matching in tests and gates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`MCA001`..`MCA010`).
    pub code: &'static str,
    /// Pre-order instruction location, when the finding has one.
    pub loc: Option<Loc>,
    /// Human-readable description, naming the kernel and registers.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// Launch-shape and extent assumptions the analyses run under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Threads per block (`blockDim.x`).
    pub block_dim: u32,
    /// Blocks per grid (`gridDim.x`).
    pub grid_dim: u32,
    /// Warp/wavefront width.
    pub warp_width: u32,
    /// Known byte extents of pointer parameters, by parameter register
    /// index. Pointers absent from this map are never bounds-checked.
    pub buffer_bytes: BTreeMap<u16, u64>,
    /// Known concrete values of integer parameters, by parameter register
    /// index.
    pub param_values: BTreeMap<u16, i64>,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            block_dim: 256,
            grid_dim: 1,
            warp_width: 32,
            buffer_bytes: BTreeMap::new(),
            param_values: BTreeMap::new(),
        }
    }
}

/// The outcome of analyzing one kernel.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AnalysisReport {
    /// All findings, sorted by location, code and message, without repeats.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Is at least one finding with this code present?
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The distinct codes present, in order.
    pub fn codes(&self) -> BTreeSet<&'static str> {
        self.diagnostics.iter().map(|d| d.code).collect()
    }
}

/// Run every check (see [`Check::ALL`]) on a kernel. The kernel must pass
/// [`KernelIr::validate`]: the analyses index its register table by every
/// register it names.
pub fn analyze(kernel: &KernelIr, opts: &AnalysisOptions) -> AnalysisReport {
    analyze_with(kernel, opts, &Check::ALL)
}

/// Run a chosen subset of checks on a kernel — this is what the per-route
/// lint gates in `mcmm-toolchain` call, with the subset derived from the
/// route's completeness and maintenance metadata. The kernel must pass
/// [`KernelIr::validate`], as for [`analyze`].
pub fn analyze_with(kernel: &KernelIr, opts: &AnalysisOptions, checks: &[Check]) -> AnalysisReport {
    let mut diagnostics = Vec::new();
    for check in checks {
        match check {
            Check::UninitRead => diagnostics.extend(uninit::check(kernel)),
            Check::DivergentBarrier => {
                diagnostics.extend(divergence::check(kernel, opts.warp_width))
            }
            Check::SharedRace => diagnostics.extend(race::check(kernel, opts)),
            Check::OutOfBounds => diagnostics.extend(range::check(kernel, opts)),
        }
    }
    // Sorting by message too puts equal findings side by side, so `dedup`
    // drops every repeat, not only adjacent ones.
    diagnostics.sort_by(|a, b| (a.loc, a.code, &a.message).cmp(&(b.loc, b.code, &b.message)));
    diagnostics.dedup();
    AnalysisReport { diagnostics }
}
