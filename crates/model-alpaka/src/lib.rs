//! # mcmm-model-alpaka — an Alpaka-style frontend
//!
//! Alpaka (descriptions 15, 16, 29, 43) abstracts accelerators behind
//! *accelerator tags* and explicit *work division*. The frontend mirrors
//! that: [`AccTag`] selects the backend (CUDA / Clang-CUDA on NVIDIA,
//! HIP / OpenMP on AMD, the **experimental** SYCL backend on Intel since
//! v0.9.0), [`WorkDiv`] carries the grid/block split, and kernels are
//! types implementing [`AlpakaKernel`] — Alpaka kernels are functors, not
//! lambdas.
//!
//! There is no Fortran surface (description 16) — nothing here accepts
//! Fortran, matching the type-level absence in SYCL.

use mcmm_core::provider::Maintenance;
use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_frontend::{ExecutionSession, Frontend, FrontendError};
use mcmm_gpu_sim::device::{Device, KernelArg, LaunchConfig};
use mcmm_gpu_sim::ir::{KernelBuilder, Reg, Type};
use mcmm_gpu_sim::mem::DevicePtr;
use std::fmt;
use std::sync::Arc;

pub use mcmm_gpu_sim::ir::{BinOp, CmpOp, Space, UnOp, Value};

/// Alpaka accelerator tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccTag {
    /// `AccGpuCudaRt` — NVIDIA through nvcc.
    GpuCudaRt,
    /// NVIDIA through Clang's CUDA support.
    GpuCudaClang,
    /// `AccGpuHipRt` — AMD through HIP.
    GpuHipRt,
    /// AMD through the OpenMP backend.
    GpuOmp,
    /// Intel through the experimental SYCL backend (v0.9.0+).
    GpuSyclIntel,
}

impl AccTag {
    /// The registry toolchain realising this tag.
    fn toolchain_name(self) -> &'static str {
        match self {
            AccTag::GpuCudaRt => "Alpaka CUDA backend (nvcc)",
            AccTag::GpuCudaClang => "Alpaka Clang-CUDA backend (clang++)",
            AccTag::GpuHipRt => "Alpaka HIP backend",
            AccTag::GpuOmp => "Alpaka OpenMP backend",
            AccTag::GpuSyclIntel => "Alpaka SYCL backend (experimental, v0.9.0+)",
        }
    }

    /// The vendor each tag targets.
    fn vendor(self) -> Vendor {
        match self {
            AccTag::GpuCudaRt | AccTag::GpuCudaClang => Vendor::Nvidia,
            AccTag::GpuHipRt | AccTag::GpuOmp => Vendor::Amd,
            AccTag::GpuSyclIntel => Vendor::Intel,
        }
    }

    /// The default tag for a vendor (what `alpaka::ExampleDefaultAcc`
    /// resolves to).
    pub fn default_for(vendor: Vendor) -> AccTag {
        match vendor {
            Vendor::Nvidia => AccTag::GpuCudaRt,
            Vendor::Amd => AccTag::GpuHipRt,
            Vendor::Intel => AccTag::GpuSyclIntel,
        }
    }
}

/// Explicit work division (alpaka::WorkDivMembers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkDiv {
    /// Number of blocks in the grid.
    pub blocks: u32,
    /// Threads per block.
    pub threads_per_block: u32,
}

impl WorkDiv {
    /// A valid work division covering `n` elements.
    pub fn for_elements(n: usize, threads_per_block: u32) -> Self {
        let t = threads_per_block.max(1);
        Self { blocks: (n as u32).div_ceil(t).max(1), threads_per_block: t }
    }
}

/// Alpaka kernels are functors: a type with an `operator()` receiving the
/// accelerator (here: the builder + thread index + buffer bases).
pub trait AlpakaKernel {
    /// Build the kernel body for one element index.
    fn operator(&self, acc: &mut KernelBuilder, idx: Reg, buffers: &[Reg]);
}

/// Alpaka errors.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are fully specified per variant
pub enum AlpakaError {
    /// The tag does not match the device, or the backend is missing.
    WrongAccelerator { tag: AccTag, device_vendor: Vendor },
    /// Runtime failure.
    Runtime(String),
}

impl fmt::Display for AlpakaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlpakaError::WrongAccelerator { tag, device_vendor } => {
                write!(f, "accelerator {tag:?} does not match a {device_vendor} device")
            }
            AlpakaError::Runtime(m) => write!(f, "alpaka: {m}"),
        }
    }
}

impl std::error::Error for AlpakaError {}

/// Result alias.
pub type AlpakaResult<T> = Result<T, AlpakaError>;

/// An accelerator instance: device + tag + resolved route.
pub struct Accelerator {
    session: ExecutionSession,
    tag: AccTag,
}

impl Accelerator {
    /// Construct with an explicit tag; the tag must match the device.
    pub fn new(device: Arc<Device>, tag: AccTag) -> AlpakaResult<Self> {
        let vendor = mcmm_toolchain::isa_vendor(device.spec().isa);
        if tag.vendor() != vendor {
            return Err(AlpakaError::WrongAccelerator { tag, device_vendor: vendor });
        }
        let session = ExecutionSession::open_with_toolchain_on(
            device,
            Model::Alpaka,
            Language::Cpp,
            tag.toolchain_name(),
        )
        .map_err(|e| match e {
            FrontendError::NoRoute { .. } | FrontendError::Discontinued { .. } => {
                AlpakaError::WrongAccelerator { tag, device_vendor: vendor }
            }
            other => AlpakaError::Runtime(other.to_string()),
        })?;
        Ok(Self { session, tag })
    }

    /// Construct the default accelerator for a device.
    pub fn default_for_device(device: Arc<Device>) -> AlpakaResult<Self> {
        let vendor = mcmm_toolchain::isa_vendor(device.spec().isa);
        Self::new(device, AccTag::default_for(vendor))
    }

    /// The accelerator tag.
    pub fn tag(&self) -> AccTag {
        self.tag
    }

    /// The shared execution session underneath this accelerator.
    pub fn session(&self) -> &ExecutionSession {
        &self.session
    }

    /// Is the backend experimental (Intel SYCL, description 43)?
    pub fn is_experimental(&self) -> bool {
        self.session.route().maintenance == Maintenance::Experimental
    }

    /// Allocate a device buffer from host data. The accelerator holds it
    /// until it drops.
    pub fn alloc_buf(&self, data: &[f64]) -> AlpakaResult<DevicePtr> {
        let buf = self.session.upload(data).map_err(|e| AlpakaError::Runtime(e.to_string()))?;
        Ok(self.session.hold(buf))
    }

    /// Read a device buffer back.
    pub fn memcpy_to_host(&self, ptr: DevicePtr, n: usize) -> AlpakaResult<Vec<f64>> {
        self.session.download_raw::<f64>(ptr, n).map_err(|e| AlpakaError::Runtime(e.to_string()))
    }

    /// `alpaka::exec` — run a kernel functor with an explicit work
    /// division over `n` elements.
    pub fn exec<K: AlpakaKernel>(
        &self,
        work: WorkDiv,
        n: usize,
        kernel: &K,
        buffers: &[DevicePtr],
    ) -> AlpakaResult<()> {
        let mut b = KernelBuilder::new("alpaka_kernel");
        let bases: Vec<Reg> = buffers.iter().map(|_| b.param(Type::I64)).collect();
        let n_param = b.param(Type::I32);
        let i = b.global_thread_id_x();
        let ok = b.cmp(CmpOp::Lt, i, n_param);
        // Functor trait takes &self, so it can be invoked inside the
        // closure without the Option dance.
        let bases_ref = &bases;
        b.if_(ok, |b| kernel.operator(b, i, bases_ref));
        let ir = b.finish();
        let module = self.session.compile(&ir).map_err(|e| AlpakaError::Runtime(e.to_string()))?;
        let mut args: Vec<KernelArg> = buffers.iter().map(|&p| KernelArg::Ptr(p)).collect();
        args.push(KernelArg::I32(n as i32));
        // Alpaka's work division is explicit, so the launch geometry comes
        // from the WorkDiv rather than the session's linear default.
        let cfg = LaunchConfig {
            grid_dim: work.blocks,
            block_dim: work.threads_per_block,
            policy: Default::default(),
            efficiency: self.session.efficiency(),
        };
        self.session
            .launch(&module, cfg, &args)
            .map(|_| ())
            .map_err(|e| AlpakaError::Runtime(e.to_string()))
    }
}

/// [`Frontend`] registration for the shared BabelStream adapter.
pub struct AlpakaFrontend;

impl Frontend for AlpakaFrontend {
    fn model(&self) -> Model {
        Model::Alpaka
    }

    fn open(&self, vendor: Vendor) -> Result<ExecutionSession, FrontendError> {
        ExecutionSession::open(Model::Alpaka, Language::Cpp, vendor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmm_gpu_sim::DeviceSpec;

    struct AxpyKernel {
        alpha: f64,
    }

    impl AlpakaKernel for AxpyKernel {
        fn operator(&self, acc: &mut KernelBuilder, idx: Reg, buffers: &[Reg]) {
            let x = acc.ld_elem(Space::Global, Type::F64, buffers[0], idx);
            let y = acc.ld_elem(Space::Global, Type::F64, buffers[1], idx);
            let ax = acc.bin(BinOp::Mul, x, Value::F64(self.alpha));
            let s = acc.bin(BinOp::Add, ax, y);
            acc.st_elem(Space::Global, buffers[1], idx, s);
        }
    }

    #[test]
    fn default_accelerators_cover_all_vendors() {
        for spec in DeviceSpec::presets() {
            let name = spec.name;
            let acc = Accelerator::default_for_device(Device::new(spec)).unwrap();
            let n = 333;
            let x = acc.alloc_buf(&(0..n).map(|i| i as f64).collect::<Vec<_>>()).unwrap();
            let y = acc.alloc_buf(&vec![100.0; n]).unwrap();
            acc.exec(WorkDiv::for_elements(n, 64), n, &AxpyKernel { alpha: 2.0 }, &[x, y]).unwrap();
            let out = acc.memcpy_to_host(y, n).unwrap();
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, 2.0 * i as f64 + 100.0, "{name}");
            }
        }
    }

    #[test]
    fn intel_backend_is_experimental() {
        // Description 43: experimental SYCL support since v0.9.0.
        let acc = Accelerator::default_for_device(Device::new(DeviceSpec::intel_pvc())).unwrap();
        assert_eq!(acc.tag(), AccTag::GpuSyclIntel);
        assert!(acc.is_experimental());
        let nv = Accelerator::default_for_device(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        assert!(!nv.is_experimental());
    }

    #[test]
    fn mismatched_tag_is_rejected() {
        match Accelerator::new(Device::new(DeviceSpec::amd_mi250x()), AccTag::GpuCudaRt) {
            Err(AlpakaError::WrongAccelerator {
                tag: AccTag::GpuCudaRt,
                device_vendor: Vendor::Amd,
            }) => {}
            Err(other) => panic!("unexpected error {other:?}"),
            Ok(_) => panic!("CUDA tag must not bind an AMD device"),
        }
    }

    #[test]
    fn alternate_backends_work() {
        // NVIDIA via Clang-CUDA, AMD via the OpenMP backend.
        let acc =
            Accelerator::new(Device::new(DeviceSpec::nvidia_a100()), AccTag::GpuCudaClang).unwrap();
        let n = 64;
        let x = acc.alloc_buf(&vec![1.0; n]).unwrap();
        let y = acc.alloc_buf(&vec![1.0; n]).unwrap();
        acc.exec(WorkDiv::for_elements(n, 32), n, &AxpyKernel { alpha: 1.0 }, &[x, y]).unwrap();
        assert!(acc.memcpy_to_host(y, n).unwrap().iter().all(|&v| v == 2.0));

        let acc = Accelerator::new(Device::new(DeviceSpec::amd_mi250x()), AccTag::GpuOmp).unwrap();
        let x = acc.alloc_buf(&vec![2.0; n]).unwrap();
        let y = acc.alloc_buf(&vec![0.0; n]).unwrap();
        acc.exec(WorkDiv::for_elements(n, 32), n, &AxpyKernel { alpha: 3.0 }, &[x, y]).unwrap();
        assert!(acc.memcpy_to_host(y, n).unwrap().iter().all(|&v| v == 6.0));
    }

    #[test]
    fn workdiv_covers_elements() {
        let w = WorkDiv::for_elements(1000, 128);
        assert!(u64::from(w.blocks) * u64::from(w.threads_per_block) >= 1000);
        let w = WorkDiv::for_elements(0, 128);
        assert_eq!(w.blocks, 1);
        let w = WorkDiv::for_elements(5, 0);
        assert_eq!(w.threads_per_block, 1);
        assert_eq!(w.blocks, 5);
    }
}
