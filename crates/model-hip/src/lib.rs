//! # mcmm-model-hip — a HIP-style frontend
//!
//! HIP is AMD's native model, "strongly inspired by CUDA" (descriptions 3
//! and 20): API calls are named like their CUDA counterparts
//! (`hip_malloc` ↔ `cuda_malloc`) and kernels are identical. The frontend
//! dispatches on [`HipPlatform`], the analogue of the `HIP_PLATFORM`
//! environment variable:
//!
//! * `HipPlatform::Amd` — the native path: hipcc driving the virtual
//!   Clang/AMDGPU backend, full efficiency.
//! * `HipPlatform::Nvidia` — the CUDA backend of description 3: the same
//!   source compiles for NVIDIA devices through the translated route, with
//!   the route's efficiency factor applied.
//!
//! Intel GPUs are *not* a HIP platform (description 33 — chipStar is a
//! `mcmm-translate` route), so [`HipContext::new`] refuses them.
//!
//! The Fortran surface ([`hipfort`]) provides ready-made interfaces to the
//! HIP API (description 4): same functionality, Fortran conventions.

pub mod hipfort;

use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_frontend::{Element, ExecutionSession, Frontend, FrontendError};
use mcmm_gpu_sim::device::{Device, KernelArg, LaunchConfig, LaunchReport};
use mcmm_gpu_sim::ir::KernelIr;
use mcmm_gpu_sim::isa::Module;
use mcmm_gpu_sim::mem::DevicePtr;
use std::fmt;
use std::sync::Arc;

pub use mcmm_gpu_sim::ir::{BinOp, CmpOp, KernelBuilder, Space, Type, UnOp, Value};

/// The `HIP_PLATFORM` selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HipPlatform {
    /// `HIP_PLATFORM=amd` — ROCm/Clang AMDGPU backend.
    Amd,
    /// `HIP_PLATFORM=nvidia` — the CUDA backend.
    Nvidia,
}

impl HipPlatform {
    /// Infer the platform for a device's vendor, as hipcc does from the
    /// environment. Intel has no HIP platform.
    pub fn for_vendor(vendor: Vendor) -> Option<HipPlatform> {
        match vendor {
            Vendor::Amd => Some(HipPlatform::Amd),
            Vendor::Nvidia => Some(HipPlatform::Nvidia),
            Vendor::Intel => None,
        }
    }

    fn vendor(self) -> Vendor {
        match self {
            HipPlatform::Amd => Vendor::Amd,
            HipPlatform::Nvidia => Vendor::Nvidia,
        }
    }
}

/// Errors in the style of `hipError_t`.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are fully specified per variant
pub enum HipError {
    /// `hipErrorNoDevice` — no HIP platform covers this device.
    NoDevice { actual: Vendor },
    /// `hipErrorMemoryAllocation`.
    MemoryAllocation(String),
    /// `hipErrorInvalidValue`.
    InvalidValue(String),
    /// `hipErrorLaunchFailure`.
    LaunchFailure(String),
    /// No toolchain available for the platform.
    NoToolchain,
}

impl fmt::Display for HipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HipError::NoDevice { actual } => {
                write!(f, "hipErrorNoDevice: no HIP platform for {actual} devices (see chipStar)")
            }
            HipError::MemoryAllocation(m) => write!(f, "hipErrorMemoryAllocation: {m}"),
            HipError::InvalidValue(m) => write!(f, "hipErrorInvalidValue: {m}"),
            HipError::LaunchFailure(m) => write!(f, "hipErrorLaunchFailure: {m}"),
            HipError::NoToolchain => write!(f, "no HIP toolchain registered"),
        }
    }
}

impl std::error::Error for HipError {}

/// Result alias in the HIP style.
pub type HipResult<T> = Result<T, HipError>;

/// A HIP context bound to a device through a platform — a HIP-flavored
/// surface over the shared [`ExecutionSession`] spine. The memory behind
/// the pointers it hands out belongs to the context: [`HipContext::hip_free`]
/// gives one back early, and dropping the context gives back the rest.
pub struct HipContext {
    session: ExecutionSession,
    platform: HipPlatform,
}

impl HipContext {
    /// Create a context, inferring `HIP_PLATFORM` from the device vendor.
    /// Refuses Intel devices (description 33).
    pub fn new(device: Arc<Device>) -> HipResult<Self> {
        Self::with_language(device, Language::Cpp)
    }

    /// The hipfort path (description 4).
    pub fn new_fortran(device: Arc<Device>) -> HipResult<Self> {
        Self::with_language(device, Language::Fortran)
    }

    fn with_language(device: Arc<Device>, language: Language) -> HipResult<Self> {
        let vendor = mcmm_toolchain::isa_vendor(device.spec().isa);
        let platform =
            HipPlatform::for_vendor(vendor).ok_or(HipError::NoDevice { actual: vendor })?;
        let session =
            ExecutionSession::open_on(device, Model::Hip, language).map_err(|e| match e {
                FrontendError::NoRoute { vendor, .. } => HipError::NoDevice { actual: vendor },
                other => HipError::LaunchFailure(other.to_string()),
            })?;
        debug_assert_eq!(platform.vendor(), session.vendor());
        Ok(Self { session, platform })
    }

    /// Which platform the context uses.
    pub fn platform(&self) -> HipPlatform {
        self.platform
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<Device> {
        self.session.device()
    }

    /// The execution-spine session under this context.
    pub fn session(&self) -> &ExecutionSession {
        &self.session
    }

    /// `hipMalloc`.
    pub fn hip_malloc(&self, len: u64) -> HipResult<DevicePtr> {
        let len = usize::try_from(len).map_err(|e| HipError::MemoryAllocation(e.to_string()))?;
        let buf =
            self.session.alloc::<u8>(len).map_err(|e| HipError::MemoryAllocation(e.to_string()))?;
        Ok(self.session.hold(buf))
    }

    /// `hipFree` — by pointer alone. A pointer this context did not
    /// allocate, or has freed already, is `hipErrorInvalidValue`.
    pub fn hip_free(&self, ptr: DevicePtr) -> HipResult<()> {
        self.session.free(ptr).map_err(|e| HipError::InvalidValue(e.to_string()))
    }

    /// `hipMemcpyHtoD`.
    pub fn hip_memcpy_htod(&self, dst: DevicePtr, src: &[u8]) -> HipResult<()> {
        self.session
            .upload_raw(dst, src)
            .map(|_| ())
            .map_err(|e| HipError::InvalidValue(e.to_string()))
    }

    /// `hipMemcpyDtoH`.
    pub fn hip_memcpy_dtoh(&self, src: DevicePtr, len: u64) -> HipResult<Vec<u8>> {
        self.session
            .download_raw(src, len as usize)
            .map_err(|e| HipError::InvalidValue(e.to_string()))
    }

    /// `hipMalloc` + `hipMemcpyHtoD` of a typed slice; free the pointer
    /// with [`HipContext::hip_free`].
    pub fn upload<T: Element>(&self, data: &[T]) -> HipResult<DevicePtr> {
        let buf =
            self.session.upload(data).map_err(|e| HipError::MemoryAllocation(e.to_string()))?;
        Ok(self.session.hold(buf))
    }

    /// Download `n` typed values.
    pub fn download<T: Element>(&self, ptr: DevicePtr, n: usize) -> HipResult<Vec<T>> {
        self.session.download_raw(ptr, n).map_err(|e| HipError::InvalidValue(e.to_string()))
    }

    /// Compile with hipcc for the context's platform. On
    /// `HipPlatform::Nvidia` this resolves the CUDA-backend route and
    /// carries its efficiency penalty. Goes through the spine's shared,
    /// lint-gated compile cache.
    pub fn compile(&self, kernel: &KernelIr) -> HipResult<HipKernel> {
        let module = self.session.compile(kernel).map_err(|e| match e {
            FrontendError::NoRoute { .. } => HipError::NoToolchain,
            other => HipError::LaunchFailure(other.to_string()),
        })?;
        Ok(HipKernel {
            module,
            efficiency: self.session.efficiency(),
            toolchain: self.session.toolchain(),
        })
    }

    /// `hipLaunchKernelGGL`.
    pub fn launch(
        &self,
        kernel: &HipKernel,
        grid_dim: u32,
        block_dim: u32,
        args: &[KernelArg],
    ) -> HipResult<LaunchReport> {
        let cfg = LaunchConfig {
            grid_dim,
            block_dim,
            policy: Default::default(),
            efficiency: kernel.efficiency,
        };
        self.session
            .launch(&kernel.module, cfg, args)
            .map_err(|e| HipError::LaunchFailure(e.to_string()))
    }
}

/// The HIP column as a spine [`Frontend`]: native on AMD, CUDA backend on
/// NVIDIA, refused on Intel (descriptions 3, 33).
pub struct HipFrontend;

impl Frontend for HipFrontend {
    fn model(&self) -> Model {
        Model::Hip
    }

    fn open(&self, vendor: Vendor) -> Result<ExecutionSession, FrontendError> {
        ExecutionSession::open(Model::Hip, Language::Cpp, vendor)
    }
}

/// A compiled HIP kernel.
pub struct HipKernel {
    module: Arc<Module>,
    efficiency: f64,
    /// The virtual toolchain that produced the module.
    pub toolchain: &'static str,
}

impl HipKernel {
    /// The compiled module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Route efficiency applied at launch.
    pub fn efficiency(&self) -> f64 {
        self.efficiency
    }
}

/// Build the canonical HIP saxpy kernel (identical kernel syntax to CUDA —
/// description 3 notes "keywords of the kernel syntax are identical").
pub fn saxpy_kernel() -> KernelIr {
    let mut k = KernelBuilder::new("hip_saxpy");
    let a = k.param(Type::F32);
    let x = k.param(Type::I64);
    let y = k.param(Type::I64);
    let n = k.param(Type::I32);
    let i = k.global_thread_id_x();
    let ok = k.cmp(CmpOp::Lt, i, n);
    k.if_(ok, |k| {
        let xi = k.ld_elem(Space::Global, Type::F32, x, i);
        let yi = k.ld_elem(Space::Global, Type::F32, y, i);
        let ax = k.bin(BinOp::Mul, a, xi);
        let s = k.bin(BinOp::Add, ax, yi);
        k.st_elem(Space::Global, y, i, s);
    });
    k.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmm_gpu_sim::DeviceSpec;

    #[test]
    fn native_amd_path_is_full_efficiency() {
        let ctx = HipContext::new(Device::new(DeviceSpec::amd_mi250x())).unwrap();
        assert_eq!(ctx.platform(), HipPlatform::Amd);
        let k = ctx.compile(&saxpy_kernel()).unwrap();
        assert_eq!(k.toolchain, "hipcc (ROCm/Clang AMDGPU)");
        assert_eq!(k.efficiency(), 1.0);
    }

    #[test]
    fn nvidia_platform_uses_cuda_backend_with_penalty() {
        // Description 3: HIP on NVIDIA via HIP_PLATFORM=nvidia.
        let ctx = HipContext::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        assert_eq!(ctx.platform(), HipPlatform::Nvidia);
        let k = ctx.compile(&saxpy_kernel()).unwrap();
        assert_eq!(k.toolchain, "hipcc (CUDA backend)");
        assert!(k.efficiency() < 1.0, "translated route must carry a penalty");
        assert_eq!(k.module().isa, mcmm_gpu_sim::isa::IsaKind::PtxLike);
    }

    #[test]
    fn intel_devices_are_refused() {
        // Description 33: no native HIP on Intel.
        match HipContext::new(Device::new(DeviceSpec::intel_pvc())) {
            Err(HipError::NoDevice { actual }) => assert_eq!(actual, Vendor::Intel),
            other => panic!("expected NoDevice, got {:?}", other.err()),
        }
    }

    #[test]
    fn same_source_runs_on_both_platforms() {
        // §6: "NVIDIA and AMD GPUs can be used from the same source code."
        let kernel_src = saxpy_kernel();
        for spec in [DeviceSpec::amd_mi250x(), DeviceSpec::nvidia_a100()] {
            let name = spec.name;
            let ctx = HipContext::new(Device::new(spec)).unwrap();
            let kernel = ctx.compile(&kernel_src).unwrap();
            let n = 2048usize;
            let xs: Vec<f32> = (0..n).map(|i| (i % 100) as f32).collect();
            let ys = vec![3.0f32; n];
            let dx = ctx.upload(&xs).unwrap();
            let dy = ctx.upload(&ys).unwrap();
            ctx.launch(
                &kernel,
                (n as u32).div_ceil(256),
                256,
                &[
                    KernelArg::F32(4.0),
                    KernelArg::Ptr(dx),
                    KernelArg::Ptr(dy),
                    KernelArg::I32(n as i32),
                ],
            )
            .unwrap();
            let out = ctx.download::<f32>(dy, n).unwrap();
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, 4.0 * ((i % 100) as f32) + 3.0, "{name} wrong at {i}");
            }
        }
    }

    #[test]
    fn memcpy_roundtrip() {
        let ctx = HipContext::new(Device::new(DeviceSpec::amd_mi250x())).unwrap();
        let p = ctx.hip_malloc(512).unwrap();
        let data: Vec<u8> = (0..=255u8).cycle().take(512).collect();
        ctx.hip_memcpy_htod(p, &data).unwrap();
        assert_eq!(ctx.hip_memcpy_dtoh(p, 512).unwrap(), data);
        ctx.hip_free(p).unwrap();
    }

    #[test]
    fn platform_inference() {
        assert_eq!(HipPlatform::for_vendor(Vendor::Amd), Some(HipPlatform::Amd));
        assert_eq!(HipPlatform::for_vendor(Vendor::Nvidia), Some(HipPlatform::Nvidia));
        assert_eq!(HipPlatform::for_vendor(Vendor::Intel), None);
    }
}
