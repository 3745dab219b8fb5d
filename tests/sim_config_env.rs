//! How `SimConfig::from_env` reads the four `MCMM_*` simulator variables:
//! every accepted spelling selects its setting, and anything else leaves
//! the default. The benchmark's sweep-stream workload turns tracing on
//! only through `MCMM_MEM_TRACE=1`, so a parse slip there would silently
//! drop its traces. Lives in its own integration-test binary because it
//! sets process environment variables, which would race any other test
//! that builds a device.

use many_models::gpu_sim::{ExecTier, OptLevel, SimConfig, TimingTier};

const VARS: [&str; 4] = ["MCMM_EXEC_TIER", "MCMM_TIMING_TIER", "MCMM_MEM_TRACE", "MCMM_OPT_LEVEL"];

#[test]
fn from_env_reads_every_accepted_spelling() {
    for var in VARS {
        std::env::remove_var(var);
    }
    let default = SimConfig::default();
    assert_eq!(SimConfig::from_env(), default, "unset variables must leave the defaults");

    let exec = |exec| SimConfig { exec, ..default };
    let timing = |timing| SimConfig { timing, ..default };
    let tracing = |tracing| SimConfig { tracing, ..default };
    let opt = |opt| SimConfig { opt, ..default };
    let cases = [
        ("MCMM_EXEC_TIER", "scalar", exec(ExecTier::Scalar)),
        ("MCMM_EXEC_TIER", "SCALAR", exec(ExecTier::Scalar)),
        ("MCMM_EXEC_TIER", "Scalar", exec(ExecTier::Scalar)),
        ("MCMM_EXEC_TIER", "vectorized", exec(ExecTier::Vectorized)),
        ("MCMM_EXEC_TIER", "simd", exec(ExecTier::Vectorized)),
        ("MCMM_TIMING_TIER", "traced", timing(TimingTier::TraceDriven)),
        ("MCMM_TIMING_TIER", "TRACED", timing(TimingTier::TraceDriven)),
        ("MCMM_TIMING_TIER", "trace-driven", timing(TimingTier::TraceDriven)),
        ("MCMM_TIMING_TIER", "Trace-Driven", timing(TimingTier::TraceDriven)),
        ("MCMM_TIMING_TIER", "analytic", timing(TimingTier::Analytic)),
        ("MCMM_TIMING_TIER", "trace", timing(TimingTier::Analytic)),
        ("MCMM_MEM_TRACE", "1", tracing(true)),
        ("MCMM_MEM_TRACE", "on", tracing(true)),
        ("MCMM_MEM_TRACE", "ON", tracing(true)),
        ("MCMM_MEM_TRACE", "true", tracing(true)),
        ("MCMM_MEM_TRACE", "TRUE", tracing(true)),
        ("MCMM_MEM_TRACE", "0", tracing(false)),
        ("MCMM_MEM_TRACE", "yes", tracing(false)),
        ("MCMM_OPT_LEVEL", "0", opt(OptLevel::O0)),
        ("MCMM_OPT_LEVEL", "1", opt(OptLevel::O1)),
        ("MCMM_OPT_LEVEL", "o1", opt(OptLevel::O1)),
        ("MCMM_OPT_LEVEL", "O1", opt(OptLevel::O1)),
        ("MCMM_OPT_LEVEL", "2", opt(OptLevel::O2)),
        ("MCMM_OPT_LEVEL", "o2", opt(OptLevel::O2)),
        ("MCMM_OPT_LEVEL", "O2", opt(OptLevel::O2)),
        ("MCMM_OPT_LEVEL", "3", opt(OptLevel::O0)),
    ];
    for (var, value, want) in cases {
        std::env::set_var(var, value);
        assert_eq!(SimConfig::from_env(), want, "{var}={value}");
        std::env::remove_var(var);
    }
    assert_eq!(SimConfig::from_env(), default, "every variable is removed again");
}
