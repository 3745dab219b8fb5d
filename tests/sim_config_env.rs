//! How `SimConfig::from_env` reads the two `MCMM_*` simulator variables:
//! every accepted spelling selects its setting, and anything else leaves
//! the default. The benchmark's sweep-stream workload turns tracing on
//! only through `MCMM_MEM_TRACE=1`, so a parse slip there would silently
//! drop its traces. A leftover `MCMM_EXEC_TIER`, the retired block-engine
//! knob, changes nothing. Lives in its own integration-test binary because it
//! sets process environment variables, which would race any other test
//! that builds a device.

use many_models::core::taxonomy::{Language, Model, Vendor};
use many_models::gpu_sim::ir::{BinOp, KernelBuilder, KernelIr, Space, Type, Value};
use many_models::gpu_sim::isa::disassemble;
use many_models::gpu_sim::{SimConfig, TimingTier};
use many_models::toolchain::select_best;
use std::sync::{Mutex, PoisonError};

const VARS: [&str; 3] = ["MCMM_EXEC_TIER", "MCMM_TIMING_TIER", "MCMM_MEM_TRACE"];

/// Serializes the tests that set variables, so neither sees the other's.
static ENV: Mutex<()> = Mutex::new(());

#[test]
fn from_env_reads_every_accepted_spelling() {
    let _env = ENV.lock().unwrap_or_else(PoisonError::into_inner);
    for var in VARS {
        std::env::remove_var(var);
    }
    let default = SimConfig::default();
    assert_eq!(SimConfig::from_env(), default, "unset variables must leave the defaults");

    let timing = |timing| SimConfig { timing, ..default };
    let tracing = |tracing| SimConfig { tracing, ..default };
    let cases = [
        ("MCMM_EXEC_TIER", "scalar", default),
        ("MCMM_EXEC_TIER", "SCALAR", default),
        ("MCMM_EXEC_TIER", "Scalar", default),
        ("MCMM_EXEC_TIER", "vectorized", default),
        ("MCMM_EXEC_TIER", "simd", default),
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
    ];
    for (var, value, want) in cases {
        std::env::set_var(var, value);
        assert_eq!(SimConfig::from_env(), want, "{var}={value}");
        std::env::remove_var(var);
    }
    assert_eq!(SimConfig::from_env(), default, "every variable is removed again");
}

/// `out[i·8] = i` beside a dead `i + 1`: a multiply an optimizer would
/// turn into a shift and an add it would drop.
fn scaled_store() -> KernelIr {
    let mut k = KernelBuilder::new("scaled_store");
    let out = k.param(Type::I64);
    let i = k.global_thread_id_x();
    let _dead = k.bin(BinOp::Add, i, Value::I32(1));
    let at = k.bin(BinOp::Mul, i, Value::I32(8));
    k.st_elem(Space::Global, out, at, i);
    k.finish()
}

/// No variable selects an optimizer: with a stale `MCMM_OPT_LEVEL=2` in
/// the environment, every vendor's best route still emits a module that
/// disassembles to the kernel as written.
#[test]
fn routes_compile_kernels_as_written_under_a_stale_opt_level() {
    let _env = ENV.lock().unwrap_or_else(PoisonError::into_inner);
    let kernel = scaled_store();
    std::env::set_var("MCMM_OPT_LEVEL", "2");
    let modules: Vec<_> = Vendor::ALL
        .into_iter()
        .map(|vendor| {
            let route = select_best(Model::OpenMp, Language::Cpp, vendor).expect("OpenMP route");
            (vendor, route.compile(&kernel, Model::OpenMp, Language::Cpp, vendor))
        })
        .collect();
    std::env::remove_var("MCMM_OPT_LEVEL");
    for (vendor, module) in modules {
        let module = module.unwrap_or_else(|e| panic!("{vendor}: {e}"));
        assert_eq!(disassemble(&module).unwrap(), kernel, "{vendor}: module differs");
    }
}
