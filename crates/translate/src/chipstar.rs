//! chipStar (descriptions 31, 33; previously CHIP-SPV): CUDA and HIP on
//! Intel GPUs via OpenCL / Level Zero.
//!
//! chipStar is not a source rewriter — it is a compiler wrapper (`cuspv`
//! replaces `nvcc` calls) that takes the CUDA/HIP program *as is* and
//! compiles it for Intel's SPIR-V consumption. We mirror that: the program
//! text is untouched; [`run_on_intel`] compiles its kernels straight
//! to the SPIR-V-like ISA with the chipStar route's (experimental,
//! research-grade) efficiency.

use crate::ast::{Dialect, GpuProgram};
use crate::TranslateError;
use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_gpu_sim::device::{Device, DeviceAlloc, KernelArg, LaunchConfig};
use mcmm_toolchain::Registry;
use std::collections::HashMap;
use std::sync::Arc;

/// The result of running a CUDA/HIP program on Intel through chipStar.
#[derive(Debug)]
pub struct ChipStarRun {
    /// `CopyOut` results by variable.
    pub outputs: HashMap<&'static str, Vec<f32>>,
    /// The route efficiency that was applied.
    pub efficiency: f64,
}

/// Compile and run a CUDA or HIP program on an Intel device via the
/// chipStar route.
pub fn run_on_intel(
    program: &GpuProgram,
    device: &Arc<Device>,
) -> Result<ChipStarRun, TranslateError> {
    let model = match program.dialect {
        Dialect::CudaCpp => Model::Cuda,
        Dialect::HipCpp => Model::Hip,
        other => return Err(TranslateError::WrongDialect { translator: "chipStar", found: other }),
    };
    let vendor = mcmm_toolchain::isa_vendor(device.spec().isa);
    if vendor != Vendor::Intel {
        return Err(TranslateError::UnsupportedConstructs {
            translator: "chipStar",
            constructs: vec![format!("target vendor {vendor} (chipStar serves Intel GPUs)")],
        });
    }
    let registry = Registry::paper();
    let compiler = registry
        .select(model, Language::Cpp, Vendor::Intel)
        .into_iter()
        .find(|c| c.name.starts_with("chipStar"))
        .ok_or(TranslateError::UnsupportedConstructs {
            translator: "chipStar",
            constructs: vec!["no chipStar route registered".into()],
        })?;

    // Interpret the host program with chipStar as the compiler.
    use crate::ast::{Arg, Op};
    let mut arrays: HashMap<&'static str, (DeviceAlloc, usize)> = HashMap::new();
    let mut outputs = HashMap::new();
    let fail = |m: String| TranslateError::UnsupportedConstructs {
        translator: "chipStar",
        constructs: vec![m],
    };
    for step in &program.steps {
        match &step.op {
            Op::Alloc { var, elems } => {
                let buf = device.alloc_owned(*elems as u64 * 4).map_err(|e| fail(e.to_string()))?;
                arrays.insert(var, (buf, *elems));
            }
            Op::CopyIn { var, data } | Op::CopyInAsync { var, data, .. } => {
                let (buf, _) = arrays.get(var).ok_or_else(|| fail(format!("unknown {var}")))?;
                let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
                device.memcpy_h2d(buf.ptr(), &bytes).map_err(|e| fail(e.to_string()))?;
            }
            Op::Launch { kernel, n, args } => {
                let def = &program.kernels[*kernel];
                let module = compiler
                    .compile(&def.ir, model, Language::Cpp, Vendor::Intel)
                    .map_err(|e| fail(e.to_string()))?;
                let mut kargs = Vec::new();
                for a in args {
                    kargs.push(match a {
                        Arg::Scalar(v) => KernelArg::F32(*v),
                        Arg::N => KernelArg::I32(*n as i32),
                        Arg::Array(name) => {
                            arrays.get(name).ok_or_else(|| fail(format!("unknown {name}")))?.0.arg()
                        }
                    });
                }
                let cfg =
                    LaunchConfig::linear(*n as u64, 256).with_efficiency(compiler.efficiency());
                device.launch(&module, cfg, &kargs).map_err(|e| fail(e.to_string()))?;
            }
            Op::CopyOut { var } => {
                let (buf, elems) = arrays.get(var).ok_or_else(|| fail(format!("unknown {var}")))?;
                let data = device.read_f32(buf.ptr(), *elems).map_err(|e| fail(e.to_string()))?;
                outputs.insert(*var, data);
            }
            Op::Free { var } => {
                arrays.remove(var);
            }
            Op::Sync => {}
        }
    }
    Ok(ChipStarRun { outputs, efficiency: compiler.efficiency() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::cuda_saxpy_program;
    use mcmm_gpu_sim::DeviceSpec;

    #[test]
    fn cuda_program_runs_unmodified_on_intel() {
        // Description 31: cuspv replaces nvcc — no source change.
        let cuda = cuda_saxpy_program(128, 2.0);
        let dev = Device::new(DeviceSpec::intel_pvc());
        let run = run_on_intel(&cuda, &dev).unwrap();
        for (i, v) in run.outputs["y"].iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32 + 1.0);
        }
        // Research project: noticeably below native efficiency.
        assert!(run.efficiency < 0.8, "chipStar efficiency {}", run.efficiency);
    }

    #[test]
    fn hip_program_runs_via_chipstar_too() {
        // Description 33: HIP → OpenCL/Level Zero.
        let hip = crate::hipify::hipify(&cuda_saxpy_program(64, 1.0)).unwrap();
        let dev = Device::new(DeviceSpec::intel_pvc());
        let run = run_on_intel(&hip, &dev).unwrap();
        assert_eq!(run.outputs["y"][10], 11.0);
    }

    #[test]
    fn refuses_non_intel_devices() {
        let cuda = cuda_saxpy_program(8, 1.0);
        let dev = Device::new(DeviceSpec::amd_mi250x());
        assert!(run_on_intel(&cuda, &dev).is_err());
    }

    #[test]
    fn refuses_sycl_sources() {
        let m = crate::syclomatic::syclomatic(&cuda_saxpy_program(8, 1.0)).unwrap();
        let dev = Device::new(DeviceSpec::intel_pvc());
        assert!(matches!(
            run_on_intel(&m.program, &dev),
            Err(TranslateError::WrongDialect { translator: "chipStar", .. })
        ));
    }
}
