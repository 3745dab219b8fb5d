//! Execute a [`GpuProgram`] on a simulated device.
//!
//! The executor enforces the matrix's platform walls: a program's dialect
//! must have a registered toolchain for the device's vendor (CUDA C++ has
//! none on AMD — run HIPIFY first). Kernels compile through that toolchain
//! and launches pay its efficiency factor.

use crate::ast::{Arg, Dialect, GpuProgram, Op};
use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_gpu_sim::device::{Device, DeviceAlloc, KernelArg, LaunchConfig};
use mcmm_toolchain::Registry;
use std::collections::HashMap;
use std::sync::Arc;

/// Why a program refused to run.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are fully specified per variant
pub enum ExecError {
    /// The dialect has no toolchain on this vendor — the compatibility
    /// wall (e.g. CUDA C++ on AMD before HIPIFY).
    NoRouteForDialect { dialect: Dialect, vendor: Vendor },
    /// Program bug: unknown variable, bad kernel index, …
    Malformed(String),
    /// Simulator-level failure.
    Runtime(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::NoRouteForDialect { dialect, vendor } => {
                write!(f, "no toolchain runs {dialect:?} programs on {vendor} devices")
            }
            ExecError::Malformed(m) => write!(f, "malformed program: {m}"),
            ExecError::Runtime(m) => write!(f, "runtime: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Model+language a dialect corresponds to in the matrix.
pub fn dialect_axes(dialect: Dialect) -> (Model, Language) {
    match dialect {
        Dialect::CudaCpp => (Model::Cuda, Language::Cpp),
        Dialect::CudaFortran => (Model::Cuda, Language::Fortran),
        Dialect::HipCpp => (Model::Hip, Language::Cpp),
        Dialect::SyclCpp => (Model::Sycl, Language::Cpp),
        Dialect::OpenAccCpp => (Model::OpenAcc, Language::Cpp),
        Dialect::OpenAccFortran => (Model::OpenAcc, Language::Fortran),
        Dialect::OpenMpCpp => (Model::OpenMp, Language::Cpp),
        Dialect::OpenMpFortran => (Model::OpenMp, Language::Fortran),
    }
}

/// Run a program; returns every `CopyOut` array by name. Arrays the
/// program never frees, and every array of a run that fails, are freed
/// on return.
///
/// Note the *source-dialect* rule: a CUDA C++ program only runs where a
/// CUDA C++ **IR-level toolchain** exists. Source translators in this
/// crate don't count — they produce a *different program* you then run.
pub fn run_program(
    program: &GpuProgram,
    device: &Arc<Device>,
) -> Result<HashMap<&'static str, Vec<f32>>, ExecError> {
    let vendor = mcmm_toolchain::isa_vendor(device.spec().isa);
    let (model, language) = dialect_axes(program.dialect);
    let registry = Registry::paper();
    let compiler = registry
        .select_best(model, language, vendor)
        .ok_or(ExecError::NoRouteForDialect { dialect: program.dialect, vendor })?;

    let mut arrays: HashMap<&'static str, (DeviceAlloc, usize)> = HashMap::new();
    let mut outputs = HashMap::new();

    for step in &program.steps {
        match &step.op {
            Op::Alloc { var, elems } => {
                let buf = device
                    .alloc_owned(*elems as u64 * 4)
                    .map_err(|e| ExecError::Runtime(e.to_string()))?;
                arrays.insert(var, (buf, *elems));
            }
            Op::CopyIn { var, data } | Op::CopyInAsync { var, data, .. } => {
                let (buf, elems) = arrays
                    .get(var)
                    .ok_or_else(|| ExecError::Malformed(format!("copyin to unknown {var}")))?;
                if data.len() > *elems {
                    return Err(ExecError::Malformed(format!("copyin overflows {var}")));
                }
                let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
                device
                    .memcpy_h2d(buf.ptr(), &bytes)
                    .map_err(|e| ExecError::Runtime(e.to_string()))?;
            }
            Op::Launch { kernel, n, args } => {
                let def = program
                    .kernels
                    .get(*kernel)
                    .ok_or_else(|| ExecError::Malformed(format!("no kernel {kernel}")))?;
                let module = compiler
                    .compile(&def.ir, model, language, vendor)
                    .map_err(|e| ExecError::Runtime(e.to_string()))?;
                let mut kargs = Vec::with_capacity(args.len());
                for a in args {
                    kargs.push(match a {
                        Arg::Scalar(v) => KernelArg::F32(*v),
                        Arg::N => KernelArg::I32(*n as i32),
                        Arg::Array(name) => {
                            let (buf, _) = arrays.get(name).ok_or_else(|| {
                                ExecError::Malformed(format!("launch uses unknown {name}"))
                            })?;
                            buf.arg()
                        }
                    });
                }
                let cfg =
                    LaunchConfig::linear(*n as u64, 256).with_efficiency(compiler.efficiency());
                device
                    .launch(&module, cfg, &kargs)
                    .map_err(|e| ExecError::Runtime(e.to_string()))?;
            }
            Op::CopyOut { var } => {
                let (buf, elems) = arrays
                    .get(var)
                    .ok_or_else(|| ExecError::Malformed(format!("copyout of unknown {var}")))?;
                let data = device
                    .read_f32(buf.ptr(), *elems)
                    .map_err(|e| ExecError::Runtime(e.to_string()))?;
                outputs.insert(*var, data);
            }
            Op::Free { var } => {
                arrays.remove(var);
            }
            Op::Sync => { /* launches are synchronous in the executor */ }
        }
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::cuda_saxpy_program;
    use mcmm_gpu_sim::DeviceSpec;

    #[test]
    fn cuda_program_runs_on_nvidia() {
        let p = cuda_saxpy_program(256, 2.0);
        let dev = Device::new(DeviceSpec::nvidia_a100());
        let out = run_program(&p, &dev).unwrap();
        let y = &out["y"];
        for (i, v) in y.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32 + 1.0);
        }
    }

    #[test]
    fn cuda_program_fails_on_amd_without_translation() {
        // Description 18: "CUDA is not directly supported on AMD GPUs" —
        // HIPIFY is a *source translator*, so the untranslated program has
        // no IR-level route.
        let p = cuda_saxpy_program(64, 2.0);
        let dev = Device::new(DeviceSpec::amd_mi250x());
        match run_program(&p, &dev) {
            Err(ExecError::NoRouteForDialect {
                dialect: Dialect::CudaCpp,
                vendor: Vendor::Amd,
            }) => {}
            other => panic!("expected NoRouteForDialect, got {other:?}"),
        }
    }

    #[test]
    fn a_failed_launch_gives_every_array_back() {
        // Without its `n` argument the launch is refused after both
        // arrays were allocated and filled.
        let mut p = cuda_saxpy_program(256, 2.0);
        for step in &mut p.steps {
            if let Op::Launch { args, .. } = &mut step.op {
                args.pop();
            }
        }
        let dev = Device::new(DeviceSpec::nvidia_a100());
        assert!(matches!(run_program(&p, &dev), Err(ExecError::Runtime(_))));
        assert_eq!(dev.memory().free_bytes(), dev.memory().capacity(), "arrays leaked");
    }

    #[test]
    fn malformed_programs_are_rejected() {
        let mut p = cuda_saxpy_program(16, 1.0);
        p.steps.remove(0); // drop the x allocation
        let dev = Device::new(DeviceSpec::nvidia_a100());
        assert!(matches!(run_program(&p, &dev), Err(ExecError::Malformed(_))));
    }
}
