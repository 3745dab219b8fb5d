//! Run the full model × vendor sweep.

use crate::adapters::all_backends;
use crate::{RunResult, StreamError};
use mcmm_core::taxonomy::Vendor;
use mcmm_frontend::{shared_cache, CacheStats, ProgramCacheStats};
use mcmm_gpu_sim::MemStats;
use std::ops::Deref;

/// The outcome of one (model, vendor) cell of the sweep.
#[derive(Debug)]
pub struct SweepEntry {
    /// The model column.
    pub model: &'static str,
    /// The vendor row.
    pub vendor: Vendor,
    /// The run's result, or why it could not run.
    pub outcome: Result<RunResult, StreamError>,
}

/// A completed sweep: the 27 cell outcomes plus what the sweep did to
/// the process-wide [`CompileCache`](mcmm_frontend::CompileCache)
/// every session compiles through. Derefs to the entry slice, so report
/// helpers taking `&[SweepEntry]` accept a `&Sweep` unchanged.
#[derive(Debug)]
pub struct Sweep {
    /// One entry per (model, vendor) cell.
    pub entries: Vec<SweepEntry>,
    /// Shared-cache hits attributable to this sweep (counter delta).
    pub cache_hits: u64,
    /// Shared-cache misses attributable to this sweep (counter delta).
    pub cache_misses: u64,
    /// Lowered-program cache traffic summed over every cell that ran
    /// (each session brings up a fresh device, so per-run stats add up
    /// cleanly — no delta needed).
    pub programs: ProgramCacheStats,
    /// Memory-hierarchy statistics summed over every traced cell, `None`
    /// when no cell traced (the default: tracing off, analytic timing).
    pub mem: Option<MemStats>,
}

impl Sweep {
    /// Fraction of this sweep's compile requests served from the shared
    /// cache (0 when the sweep compiled nothing).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl Deref for Sweep {
    type Target = [SweepEntry];

    fn deref(&self) -> &[SweepEntry] {
        &self.entries
    }
}

/// Sweep every registered model over every vendor, reporting the shared
/// compile-cache traffic the sweep generated.
pub fn sweep(n: usize, iters: usize) -> Sweep {
    let before: CacheStats = shared_cache().stats();
    let backends = all_backends();
    let mut entries = Vec::with_capacity(backends.len() * Vendor::ALL.len());
    for backend in &backends {
        for vendor in Vendor::ALL {
            entries.push(SweepEntry {
                model: backend.model_name(),
                vendor,
                outcome: backend.run(vendor, n, iters),
            });
        }
    }
    let after = shared_cache().stats();
    let programs = entries
        .iter()
        .filter_map(|e| e.outcome.as_ref().ok())
        .fold(ProgramCacheStats::default(), |acc, r| acc.merged(r.programs));
    let mem = entries
        .iter()
        .filter_map(|e| e.outcome.as_ref().ok())
        .filter_map(|r| r.mem)
        .fold(None, |acc: Option<MemStats>, m| Some(acc.map_or(m, |a| a.merged(m))));
    Sweep {
        entries,
        cache_hits: after.hits.saturating_sub(before.hits),
        cache_misses: after.misses.saturating_sub(before.misses),
        programs,
        mem,
    }
}

/// How many sweep cells ran and verified.
pub fn verified_count(entries: &[SweepEntry]) -> usize {
    entries.iter().filter(|e| matches!(&e.outcome, Ok(r) if r.verified)).count()
}

/// How many sweep cells are unsupported (matrix holes).
pub fn unsupported_count(entries: &[SweepEntry]) -> usize {
    entries.iter().filter(|e| matches!(&e.outcome, Err(StreamError::Unsupported { .. }))).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_expected_support_pattern() {
        // Small n to keep the full 27-cell sweep quick.
        let entries = sweep(512, 1);
        assert_eq!(entries.len(), 27);
        // Holes: CUDA on AMD+Intel, HIP on Intel, OpenACC on Intel = 4.
        assert_eq!(unsupported_count(&entries), 4);
        // Everything else runs and verifies.
        assert_eq!(verified_count(&entries), 23);
        // No cell fails for any reason other than Unsupported.
        for e in entries.iter() {
            if let Err(err) = &e.outcome {
                assert!(
                    matches!(err, StreamError::Unsupported { .. }),
                    "{} on {} failed: {err}",
                    e.model,
                    e.vendor
                );
            }
        }
    }

    #[test]
    fn repeated_sweep_hits_the_shared_cache() {
        // Warm the process-wide cache, then sweep again: every cell
        // re-compiles the same five kernels through the same routes, so
        // the second pass must be served from the cache.
        let _warm = sweep(256, 1);
        let again = sweep(256, 1);
        assert!(
            again.cache_hits > 0,
            "second sweep saw no cache hits (hits {}, misses {})",
            again.cache_hits,
            again.cache_misses
        );
        assert!(again.cache_hit_rate() > 0.0);
    }

    #[test]
    fn multi_iteration_sweep_hits_the_program_cache() {
        // With two iterations every kernel launches twice on its session's
        // fresh device: the first launch lowers (miss), the second reuses
        // the cached lane-vector program (hit).
        let s = sweep(256, 2);
        assert!(s.programs.misses > 0, "expected at least one lowering (got {:?})", s.programs);
        assert!(
            s.programs.hits > 0,
            "second launches saw no program-cache hits (got {:?})",
            s.programs
        );
        assert!(s.programs.hit_rate() > 0.0);
    }
}
