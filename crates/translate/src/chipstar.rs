//! chipStar (descriptions 31, 33; previously CHIP-SPV): CUDA and HIP on
//! Intel GPUs via OpenCL / Level Zero.
//!
//! chipStar is not a source rewriter — it is a compiler wrapper (`cuspv`
//! replaces `nvcc` calls) that takes the CUDA/HIP program *as is* and
//! compiles it for Intel's SPIR-V consumption. We mirror that: the program
//! text is untouched; [`run_on_intel`] runs it through the same
//! interpreter as [`crate::exec::run_program`], with chipStar as the
//! compiler: kernels go straight to the SPIR-V-like ISA at the chipStar
//! route's (experimental, research-grade) efficiency.

use crate::ast::{Dialect, GpuProgram};
use crate::TranslateError;
use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_gpu_sim::device::Device;
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
    let fail = |construct: String| TranslateError::UnsupportedConstructs {
        translator: "chipStar",
        constructs: vec![construct],
    };
    let vendor = mcmm_toolchain::isa_vendor(device.spec().isa);
    if vendor != Vendor::Intel {
        return Err(fail(format!("target vendor {vendor} (chipStar serves Intel GPUs)")));
    }
    let registry = Registry::paper();
    let compiler = registry
        .select(model, Language::Cpp, Vendor::Intel)
        .into_iter()
        .find(|c| c.name.starts_with("chipStar"))
        .ok_or_else(|| fail("no chipStar route registered".into()))?;
    let outputs =
        crate::exec::run_with(program, device, compiler).map_err(|e| fail(e.to_string()))?;
    Ok(ChipStarRun { outputs, efficiency: compiler.efficiency() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{cuda_saxpy_program, Op};
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
    fn an_overflowing_copyin_is_refused() {
        // x's upload is twice x's allocation and comes after y's, so
        // copying it through would overwrite y.
        let mut p = cuda_saxpy_program(64, 2.0);
        p.steps.swap(2, 3);
        let Op::CopyIn { var: "x", data } = &mut p.steps[3].op else { panic!("x's upload") };
        *data = vec![1.0; 128];
        let err = run_on_intel(&p, &Device::new(DeviceSpec::intel_pvc())).unwrap_err();
        assert!(err.to_string().contains("copyin overflows x"), "{err}");
    }

    #[test]
    fn a_launch_of_a_missing_kernel_is_refused() {
        let mut p = cuda_saxpy_program(64, 2.0);
        let Op::Launch { kernel, .. } = &mut p.steps[4].op else { panic!("the launch") };
        *kernel = 7;
        let err = run_on_intel(&p, &Device::new(DeviceSpec::intel_pvc())).unwrap_err();
        assert!(err.to_string().contains("no kernel 7"), "{err}");
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
