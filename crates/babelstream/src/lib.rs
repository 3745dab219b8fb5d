//! # mcmm-babelstream — BabelStream across every model and vendor
//!
//! The paper declines to evaluate performance (§5) but names BabelStream
//! \[53\] as the closest thing to a performance overview. This crate builds
//! that extension: the five STREAM kernels
//!
//! ```text
//! Copy:  c[i] = a[i]
//! Mul:   b[i] = scalar * c[i]
//! Add:   c[i] = a[i] + b[i]
//! Triad: a[i] = b[i] + scalar * c[i]
//! Dot:   sum += a[i] * b[i]
//! ```
//!
//! implemented **through each programming-model frontend's own public
//! API** (one adapter per model in [`adapters`]), run on each simulated
//! vendor device, reporting *modeled* GB/s from the analytic timing model.
//! Shapes — which routes reach which devices, native vs translated vs
//! experimental gradients, per-device peak-bandwidth ordering — reproduce;
//! absolute numbers are calibration, not measurement (EXPERIMENTS.md).

pub mod adapters;
pub mod report;
pub mod runner;

use mcmm_core::taxonomy::Vendor;
use mcmm_gpu_sim::timing::ModeledTime;
use mcmm_gpu_sim::{MemStats, ProgramCacheStats};
use std::fmt;

/// The five BabelStream kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKernel {
    /// `c[i] = a[i]`
    Copy,
    /// `b[i] = scalar * c[i]`
    Mul,
    /// `c[i] = a[i] + b[i]`
    Add,
    /// `a[i] = b[i] + scalar * c[i]`
    Triad,
    /// `sum += a[i] * b[i]`
    Dot,
}

impl StreamKernel {
    /// All kernels in BabelStream order.
    pub const ALL: [StreamKernel; 5] = [
        StreamKernel::Copy,
        StreamKernel::Mul,
        StreamKernel::Add,
        StreamKernel::Triad,
        StreamKernel::Dot,
    ];

    /// The kernel's BabelStream name.
    pub fn name(self) -> &'static str {
        match self {
            StreamKernel::Copy => "Copy",
            StreamKernel::Mul => "Mul",
            StreamKernel::Add => "Add",
            StreamKernel::Triad => "Triad",
            StreamKernel::Dot => "Dot",
        }
    }

    /// Bytes moved per element (f64): the canonical BabelStream counting.
    pub fn bytes_per_element(self) -> u64 {
        match self {
            StreamKernel::Copy | StreamKernel::Mul | StreamKernel::Dot => 2 * 8,
            StreamKernel::Add | StreamKernel::Triad => 3 * 8,
        }
    }
}

impl fmt::Display for StreamKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// BabelStream's canonical initial value for array `a`.
pub const START_A: f64 = 0.1;
/// BabelStream's canonical initial value for array `b`.
pub const START_B: f64 = 0.2;
/// BabelStream's canonical initial value for array `c`.
pub const START_C: f64 = 0.0;
/// BabelStream's canonical Mul/Triad scalar.
pub const SCALAR: f64 = 0.4;

/// Per-kernel outcome of a run.
#[derive(Debug, Clone, Copy)]
pub struct KernelResult {
    /// Which kernel this result belongs to.
    pub kernel: StreamKernel,
    /// Best (minimum) modeled time of a single iteration.
    pub best_time: ModeledTime,
    /// Bytes the kernel moves per iteration (counted, not assumed).
    pub bytes: u64,
}

impl KernelResult {
    /// Modeled bandwidth in GB/s.
    pub fn gbps(&self) -> f64 {
        self.best_time.bandwidth_gbps(self.bytes)
    }
}

/// The outcome of running the benchmark through one model on one vendor.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The frontend ("CUDA", "HIP", …).
    pub model: &'static str,
    /// The toolchain the frontend resolved (diagnostics).
    pub toolchain: String,
    /// The vendor whose simulated device ran the benchmark.
    pub vendor: Vendor,
    /// Elements per array.
    pub n: usize,
    /// Per-kernel results.
    pub kernels: Vec<KernelResult>,
    /// The dot-product result.
    pub dot: f64,
    /// Did the final array contents match the host-side gold recurrence?
    pub verified: bool,
    /// Lowered-program cache traffic on this run's device (sessions own a
    /// fresh device, so this is exactly what the run itself generated).
    pub programs: ProgramCacheStats,
    /// Memory-hierarchy statistics summed over this run's launches, when
    /// the device traced them (`MCMM_MEM_TRACE` / trace-driven timing);
    /// `None` on untraced runs.
    pub mem: Option<MemStats>,
}

impl RunResult {
    /// Result for one kernel.
    pub fn kernel(&self, k: StreamKernel) -> Option<&KernelResult> {
        self.kernels.iter().find(|r| r.kernel == k)
    }

    /// Triad bandwidth — the headline BabelStream number.
    pub fn triad_gbps(&self) -> f64 {
        self.kernel(StreamKernel::Triad).map(KernelResult::gbps).unwrap_or(0.0)
    }
}

/// Why a model couldn't run on a vendor.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are fully specified per variant
pub enum StreamError {
    /// The matrix has no route (e.g. OpenACC on Intel).
    Unsupported { model: &'static str, vendor: Vendor, detail: String },
    /// The run failed.
    Failed(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Unsupported { model, vendor, detail } => {
                write!(f, "{model} does not run on {vendor}: {detail}")
            }
            StreamError::Failed(m) => write!(f, "benchmark failed: {m}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Host-side gold values: BabelStream's uniform arrays mean each array is
/// one scalar evolving by the kernel recurrence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gold {
    /// Current uniform value of array `a`.
    pub a: f64,
    /// Current uniform value of array `b`.
    pub b: f64,
    /// Current uniform value of array `c`.
    pub c: f64,
}

impl Gold {
    /// The gold values before any iteration.
    pub fn initial() -> Self {
        Self { a: START_A, b: START_B, c: START_C }
    }

    /// Advance one full iteration (Copy, Mul, Add, Triad; Dot is
    /// side-effect-free).
    pub fn step(&mut self) {
        self.c = self.a;
        self.b = SCALAR * self.c;
        self.c = self.a + self.b;
        self.a = self.b + SCALAR * self.c;
    }

    /// The expected dot product after the last iteration, for `n`
    /// elements.
    pub fn expected_dot(&self, n: usize) -> f64 {
        self.a * self.b * n as f64
    }
}

/// A model adapter: runs BabelStream through one frontend.
pub trait StreamBackend: Sync {
    /// The model column this adapter represents.
    fn model_name(&self) -> &'static str;

    /// Run `iters` iterations of the five kernels over `n` f64 elements on
    /// the given vendor's simulated device.
    fn run(&self, vendor: Vendor, n: usize, iters: usize) -> Result<RunResult, StreamError>;
}

/// Verify device arrays against the gold recurrence within BabelStream's
/// tolerance.
pub fn verify(a: &[f64], b: &[f64], c: &[f64], gold: Gold) -> bool {
    let tol = 1e-8;
    let close = |xs: &[f64], g: f64| xs.iter().all(|&x| ((x - g) / g.max(1e-30)).abs() < tol);
    close(a, gold.a) && close(b, gold.b) && close(c, gold.c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_counts_match_babelstream() {
        assert_eq!(StreamKernel::Copy.bytes_per_element(), 16);
        assert_eq!(StreamKernel::Mul.bytes_per_element(), 16);
        assert_eq!(StreamKernel::Add.bytes_per_element(), 24);
        assert_eq!(StreamKernel::Triad.bytes_per_element(), 24);
        assert_eq!(StreamKernel::Dot.bytes_per_element(), 16);
    }

    #[test]
    fn gold_recurrence_stays_finite_and_positive() {
        let mut g = Gold::initial();
        for _ in 0..100 {
            g.step();
            assert!(g.a.is_finite() && g.a > 0.0);
            assert!(g.b.is_finite() && g.b > 0.0);
            assert!(g.c.is_finite() && g.c > 0.0);
        }
    }

    #[test]
    fn verify_accepts_gold_and_rejects_garbage() {
        let mut g = Gold::initial();
        g.step();
        let a = vec![g.a; 10];
        let b = vec![g.b; 10];
        let c = vec![g.c; 10];
        assert!(verify(&a, &b, &c, g));
        let bad = vec![g.a * 1.01; 10];
        assert!(!verify(&bad, &b, &c, g));
    }

    #[test]
    fn gbps_computation() {
        let r = KernelResult {
            kernel: StreamKernel::Copy,
            best_time: ModeledTime::from_seconds(0.001),
            bytes: 16_000_000,
        };
        assert!((r.gbps() - 16.0).abs() < 1e-9);
    }
}
