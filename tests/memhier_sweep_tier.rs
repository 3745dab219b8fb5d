//! The 27-cell frontend sweep under the trace-driven timing tier: which
//! routes exist and verify is a property of the compatibility matrix, not
//! of how launches are timed — the support pattern must be identical to
//! the analytic tier's. Lives in its own integration-test binary because
//! it sets the process-wide config override, which would race any other
//! test assuming the default.

use many_models::babelstream::runner::{sweep, unsupported_count, verified_count};
use many_models::gpu_sim::{set_process_config, SimConfig, TimingTier};

#[test]
fn sweep_support_pattern_is_timing_tier_invariant() {
    let traced = SimConfig { timing: TimingTier::TraceDriven, ..SimConfig::from_env() };
    set_process_config(Some(traced));
    let s = sweep(512, 1);
    set_process_config(None);

    assert_eq!(s.len(), 27);
    assert_eq!(unsupported_count(&s), 4, "matrix holes changed under trace-driven timing");
    assert_eq!(verified_count(&s), 23, "verified cells changed under trace-driven timing");

    // Trace-driven timing traces every launch, so every cell that ran
    // must carry coherent memory statistics.
    let traced = s.mem.expect("trace-driven sweep must aggregate mem stats");
    assert!(traced.requests > 0);
    for e in s.iter() {
        if let Ok(r) = &e.outcome {
            let m = r.mem.unwrap_or_else(|| {
                panic!("{} on {} ran trace-driven but has no mem stats", e.model, e.vendor)
            });
            assert!(m.requests > 0, "{} on {} traced nothing", e.model, e.vendor);
            assert_eq!(
                m.l2_hits + m.l2_misses,
                m.l2_accesses,
                "{} on {}: inconsistent L2 accounting",
                e.model,
                e.vendor
            );
            assert_eq!(
                m.mshr_merges,
                m.requests - m.transactions,
                "{} on {}: inconsistent MSHR accounting",
                e.model,
                e.vendor
            );
        }
    }
}
