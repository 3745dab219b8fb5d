//! # mcmm-model-cuda — a CUDA-style frontend for the simulated ecosystem
//!
//! Mirrors the CUDA runtime API surface (description 1 of the paper) on
//! top of the virtual substrate: contexts, `cudaMalloc`/`cudaMemcpy`
//! analogues, kernel launches through the nvcc-like virtual compiler, and
//! the CUDA Fortran surface of description 2 ([`cuf`]): explicit Fortran
//! kernels with 1-based indexing plus `cuf kernels` auto-parallelised
//! loops.
//!
//! CUDA is NVIDIA's native model: [`CudaContext::new`] refuses non-NVIDIA
//! devices with [`CudaError::NoDevice`] — reaching AMD or Intel from CUDA
//! code requires the translators in `mcmm-translate` (HIPIFY, SYCLomatic,
//! chipStar), exactly as in the paper (descriptions 18, 31).

pub mod cuf;
pub mod streams;

use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_frontend::{Element, ExecutionSession, Frontend, FrontendError};
use mcmm_gpu_sim::device::{Device, KernelArg, LaunchConfig, LaunchReport};
use mcmm_gpu_sim::ir::KernelIr;
use mcmm_gpu_sim::isa::Module;
use mcmm_gpu_sim::mem::DevicePtr;
use std::fmt;
use std::sync::Arc;

pub use mcmm_gpu_sim::ir::{BinOp, CmpOp, KernelBuilder, Space, Type, UnOp, Value};

/// Errors in the style of `cudaError_t`.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are fully specified per variant
pub enum CudaError {
    /// `cudaErrorNoDevice` — the device is not a CUDA (NVIDIA) device.
    NoDevice { actual: Vendor },
    /// `cudaErrorMemoryAllocation`.
    MemoryAllocation(String),
    /// `cudaErrorInvalidValue`.
    InvalidValue(String),
    /// `cudaErrorLaunchFailure`.
    LaunchFailure(String),
    /// No toolchain available (should not happen on NVIDIA).
    NoToolchain,
}

impl fmt::Display for CudaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CudaError::NoDevice { actual } => {
                write!(f, "cudaErrorNoDevice: CUDA requires an NVIDIA device, found {actual}")
            }
            CudaError::MemoryAllocation(m) => write!(f, "cudaErrorMemoryAllocation: {m}"),
            CudaError::InvalidValue(m) => write!(f, "cudaErrorInvalidValue: {m}"),
            CudaError::LaunchFailure(m) => write!(f, "cudaErrorLaunchFailure: {m}"),
            CudaError::NoToolchain => write!(f, "no CUDA toolchain registered"),
        }
    }
}

impl std::error::Error for CudaError {}

/// Result alias in the CUDA style.
pub type CudaResult<T> = Result<T, CudaError>;

/// Direction of a `cudaMemcpy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemcpyKind {
    /// Host memory → device memory.
    HostToDevice,
    /// Device memory → host memory.
    DeviceToHost,
    /// Device memory → device memory.
    DeviceToDevice,
}

/// A CUDA context bound to one NVIDIA device — a thin, CUDA-flavored
/// surface over the shared [`ExecutionSession`] spine. The memory behind
/// the pointers it hands out belongs to the context: [`CudaContext::cuda_free`]
/// gives one back early, and dropping the context gives back the rest.
pub struct CudaContext {
    session: ExecutionSession,
}

/// Map a routing refusal into `cudaErrorNoDevice`, anything else into the
/// closest CUDA error, keeping the cause text.
fn open_error(e: FrontendError) -> CudaError {
    match e {
        FrontendError::NoRoute { vendor, .. } => CudaError::NoDevice { actual: vendor },
        FrontendError::Discontinued { .. } => CudaError::NoToolchain,
        other => CudaError::LaunchFailure(other.to_string()),
    }
}

impl CudaContext {
    /// Create a context on a device. Errors with [`CudaError::NoDevice`]
    /// if the device is not NVIDIA — the spine has no executable CUDA
    /// route to any other vendor.
    pub fn new(device: Arc<Device>) -> CudaResult<Self> {
        Self::with_language(device, Language::Cpp)
    }

    /// Create a CUDA Fortran context (NVHPC `nvfortran -cuda` analogue).
    pub fn new_fortran(device: Arc<Device>) -> CudaResult<Self> {
        Self::with_language(device, Language::Fortran)
    }

    fn with_language(device: Arc<Device>, language: Language) -> CudaResult<Self> {
        let session =
            ExecutionSession::open_on(device, Model::Cuda, language).map_err(open_error)?;
        Ok(Self { session })
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<Device> {
        self.session.device()
    }

    /// The execution-spine session under this context.
    pub fn session(&self) -> &ExecutionSession {
        &self.session
    }

    /// `cudaMalloc` — allocate `len` bytes.
    pub fn cuda_malloc(&self, len: u64) -> CudaResult<DevicePtr> {
        let len = usize::try_from(len).map_err(|e| CudaError::MemoryAllocation(e.to_string()))?;
        let buf = self
            .session
            .alloc::<u8>(len)
            .map_err(|e| CudaError::MemoryAllocation(e.to_string()))?;
        Ok(self.session.hold(buf))
    }

    /// `cudaFree` — by pointer alone. A pointer this context did not
    /// allocate, or has freed already, is `cudaErrorInvalidValue`.
    pub fn cuda_free(&self, ptr: DevicePtr) -> CudaResult<()> {
        self.session.free(ptr).map_err(|e| CudaError::InvalidValue(e.to_string()))
    }

    /// `cudaMemcpy` for raw bytes.
    pub fn cuda_memcpy(
        &self,
        dst: DevicePtr,
        src_host: &mut [u8],
        kind: MemcpyKind,
    ) -> CudaResult<()> {
        match kind {
            MemcpyKind::HostToDevice => self
                .session
                .upload_raw(dst, src_host)
                .map(|_| ())
                .map_err(|e| CudaError::InvalidValue(e.to_string())),
            MemcpyKind::DeviceToHost => {
                let data: Vec<u8> = self
                    .session
                    .download_raw(dst, src_host.len())
                    .map_err(|e| CudaError::InvalidValue(e.to_string()))?;
                src_host.copy_from_slice(&data);
                Ok(())
            }
            MemcpyKind::DeviceToDevice => Err(CudaError::InvalidValue(
                "device-to-device memcpy requires two device pointers; use cuda_memcpy_d2d".into(),
            )),
        }
    }

    /// `cudaMemcpy` device-to-device.
    pub fn cuda_memcpy_d2d(&self, dst: DevicePtr, src: DevicePtr, len: u64) -> CudaResult<()> {
        self.session
            .device()
            .memory()
            .copy_within(src, dst, len)
            .map_err(|e| CudaError::InvalidValue(e.to_string()))
    }

    /// `cudaMalloc` + `cudaMemcpy` of a typed slice (CUDA codebases wrap
    /// the pair the same way); free the pointer with [`CudaContext::cuda_free`].
    pub fn upload<T: Element>(&self, data: &[T]) -> CudaResult<DevicePtr> {
        let buf =
            self.session.upload(data).map_err(|e| CudaError::MemoryAllocation(e.to_string()))?;
        Ok(self.session.hold(buf))
    }

    /// Download `n` typed values.
    pub fn download<T: Element>(&self, ptr: DevicePtr, n: usize) -> CudaResult<Vec<T>> {
        self.session.download_raw(ptr, n).map_err(|e| CudaError::InvalidValue(e.to_string()))
    }

    /// Compile a kernel with the best available CUDA toolchain (nvcc-like;
    /// Clang-CUDA is the registered fallback, as in description 1) through
    /// the spine's shared, lint-gated compile cache.
    pub fn compile(&self, kernel: &KernelIr) -> CudaResult<CudaKernel> {
        let module = self.session.compile(kernel).map_err(|e| match e {
            FrontendError::NoRoute { .. } => CudaError::NoToolchain,
            other => CudaError::LaunchFailure(other.to_string()),
        })?;
        Ok(CudaKernel {
            module,
            efficiency: self.session.efficiency(),
            toolchain: self.session.toolchain(),
        })
    }

    /// `<<<grid, block>>>` launch.
    pub fn launch(
        &self,
        kernel: &CudaKernel,
        grid_dim: u32,
        block_dim: u32,
        args: &[KernelArg],
    ) -> CudaResult<LaunchReport> {
        let cfg = LaunchConfig {
            grid_dim,
            block_dim,
            policy: Default::default(),
            efficiency: kernel.efficiency,
        };
        self.session
            .launch(&kernel.module, cfg, args)
            .map_err(|e| CudaError::LaunchFailure(e.to_string()))
    }
}

/// The CUDA column as a spine [`Frontend`]: accepts NVIDIA, refuses AMD
/// and Intel (descriptions 18, 31).
pub struct CudaFrontend;

impl Frontend for CudaFrontend {
    fn model(&self) -> Model {
        Model::Cuda
    }

    fn open(&self, vendor: Vendor) -> Result<ExecutionSession, FrontendError> {
        ExecutionSession::open(Model::Cuda, Language::Cpp, vendor)
    }
}

/// A compiled CUDA kernel (module + the toolchain that produced it).
pub struct CudaKernel {
    module: Arc<Module>,
    efficiency: f64,
    /// Which virtual toolchain compiled this kernel.
    pub toolchain: &'static str,
}

impl CudaKernel {
    /// The compiled module (used by BabelStream adapters and tests).
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Route efficiency applied at launch.
    pub fn efficiency(&self) -> f64 {
        self.efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmm_gpu_sim::DeviceSpec;

    fn nvidia() -> Arc<Device> {
        Device::new(DeviceSpec::nvidia_a100())
    }

    fn saxpy_ir() -> KernelIr {
        let mut k = KernelBuilder::new("saxpy");
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

    #[test]
    fn context_rejects_non_nvidia_devices() {
        // Description 18/31: CUDA does not run directly on AMD/Intel.
        for spec in [DeviceSpec::amd_mi250x(), DeviceSpec::intel_pvc()] {
            let dev = Device::new(spec);
            match CudaContext::new(dev) {
                Err(CudaError::NoDevice { actual }) => assert_ne!(actual, Vendor::Nvidia),
                other => panic!("expected NoDevice, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn saxpy_end_to_end() {
        let ctx = CudaContext::new(nvidia()).unwrap();
        let kernel = ctx.compile(&saxpy_ir()).unwrap();
        assert_eq!(kernel.toolchain, "CUDA Toolkit (nvcc)");
        assert_eq!(kernel.efficiency(), 1.0);

        let n = 1 << 12;
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let ys = vec![0.5f32; n];
        let dx = ctx.upload(&xs).unwrap();
        let dy = ctx.upload(&ys).unwrap();
        ctx.launch(
            &kernel,
            (n as u32).div_ceil(256),
            256,
            &[
                KernelArg::F32(2.0),
                KernelArg::Ptr(dx),
                KernelArg::Ptr(dy),
                KernelArg::I32(n as i32),
            ],
        )
        .unwrap();
        let out = ctx.download::<f32>(dy, n).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32 + 0.5);
        }
    }

    #[test]
    fn memcpy_roundtrip_and_d2d() {
        let ctx = CudaContext::new(nvidia()).unwrap();
        let a = ctx.cuda_malloc(1024).unwrap();
        let b = ctx.cuda_malloc(1024).unwrap();
        let mut host: Vec<u8> = (0..=255).cycle().take(1024).collect();
        ctx.cuda_memcpy(a, &mut host, MemcpyKind::HostToDevice).unwrap();
        ctx.cuda_memcpy_d2d(b, a, 1024).unwrap();
        let mut back = vec![0u8; 1024];
        ctx.cuda_memcpy(b, &mut back, MemcpyKind::DeviceToHost).unwrap();
        assert_eq!(host, back);
        ctx.cuda_free(a).unwrap();
        ctx.cuda_free(b).unwrap();
    }

    #[test]
    fn invalid_memcpy_kind_reports_invalid_value() {
        let ctx = CudaContext::new(nvidia()).unwrap();
        let a = ctx.cuda_malloc(16).unwrap();
        let mut buf = vec![0u8; 16];
        assert!(matches!(
            ctx.cuda_memcpy(a, &mut buf, MemcpyKind::DeviceToDevice),
            Err(CudaError::InvalidValue(_))
        ));
    }

    #[test]
    fn oversized_malloc_fails_cleanly() {
        let ctx = CudaContext::new(nvidia()).unwrap();
        let err = ctx.cuda_malloc(1 << 60).unwrap_err();
        assert!(matches!(err, CudaError::MemoryAllocation(_)));
        assert!(err.to_string().contains("cudaErrorMemoryAllocation"));
    }

    #[test]
    fn f64_kernels_work() {
        let mut k = KernelBuilder::new("scale64");
        let x = k.param(Type::I64);
        let n = k.param(Type::I32);
        let i = k.global_thread_id_x();
        let ok = k.cmp(CmpOp::Lt, i, n);
        k.if_(ok, |k| {
            let v = k.ld_elem(Space::Global, Type::F64, x, i);
            let w = k.bin(BinOp::Mul, v, Value::F64(3.0));
            k.st_elem(Space::Global, x, i, w);
        });
        let ir = k.finish();
        let ctx = CudaContext::new(nvidia()).unwrap();
        let kernel = ctx.compile(&ir).unwrap();
        let data: Vec<f64> = (0..100).map(f64::from).collect();
        let d = ctx.upload(&data).unwrap();
        ctx.launch(&kernel, 1, 128, &[KernelArg::Ptr(d), KernelArg::I32(100)]).unwrap();
        let out = ctx.download::<f64>(d, 100).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 3.0 * i as f64);
        }
    }
}
