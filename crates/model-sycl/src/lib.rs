//! # mcmm-model-sycl — a SYCL-style frontend
//!
//! SYCL (descriptions 5, 21, 35) is the C++17-based Khronos standard and
//! Intel's prime model. This frontend mirrors its shape: a [`Queue`] bound
//! to a device, [`Buffer`]s with host shadows and accessor-style transfer
//! semantics, USM-style device allocations, and `parallel_for` over 1-D
//! ranges with the kernel body built through the shared IR builder.
//!
//! SYCL reaches **all three vendors**, but through different
//! implementations ([`SyclImpl`]):
//!
//! * [`SyclImpl::Dpcpp`] — Intel's LLVM compiler: native on Intel, a
//!   plugin on NVIDIA (CUDA) and AMD (ROCm).
//! * [`SyclImpl::OpenSycl`] — the community implementation (previously
//!   hipSYCL).
//! * [`SyclImpl::ComputeCpp`] — CodePlay's product, unsupported since
//!   September 2023: constructing a queue with it fails.
//!
//! There is **no Fortran surface** (description 6) — that absence is
//! type-level: nothing in this crate accepts Fortran.

use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_frontend::{DeviceBuffer, Element, ExecutionSession, Frontend, FrontendError};
use mcmm_gpu_sim::device::{Device, KernelArg, LaunchReport};
use mcmm_gpu_sim::ir::{KernelBuilder, KernelIr, Reg, Type};
use mcmm_gpu_sim::mem::DevicePtr;
use std::fmt;
use std::sync::Arc;

pub use mcmm_gpu_sim::ir::{BinOp, CmpOp, Space, UnOp, Value};

/// SYCL implementations the paper surveys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyclImpl {
    /// Intel's LLVM-based DPC++ (open source + oneAPI commercial).
    Dpcpp,
    /// Open SYCL (previously hipSYCL).
    OpenSycl,
    /// CodePlay ComputeCpp — unsupported since 09/2023.
    ComputeCpp,
}

impl SyclImpl {
    /// The registry toolchain name realising this implementation on a
    /// vendor.
    fn toolchain_name(self, vendor: Vendor) -> Option<&'static str> {
        match (self, vendor) {
            (SyclImpl::Dpcpp, Vendor::Intel) => Some("Intel oneAPI DPC++ (icpx -fsycl)"),
            (SyclImpl::Dpcpp, Vendor::Nvidia) => Some("DPC++ (CUDA plugin)"),
            (SyclImpl::Dpcpp, Vendor::Amd) => Some("DPC++ (ROCm plugin)"),
            (SyclImpl::OpenSycl, Vendor::Nvidia) => Some("Open SYCL"),
            (SyclImpl::OpenSycl, Vendor::Amd) => Some("Open SYCL (HIP/ROCm)"),
            (SyclImpl::OpenSycl, Vendor::Intel) => Some("Open SYCL (SPIR-V/Level Zero)"),
            (SyclImpl::ComputeCpp, Vendor::Nvidia | Vendor::Intel) => Some("ComputeCpp"),
            (SyclImpl::ComputeCpp, Vendor::Amd) => None,
        }
    }
}

/// SYCL-style errors (`sycl::exception` categories).
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are fully specified per variant
pub enum SyclError {
    /// No implementation covers this device (or the implementation is
    /// discontinued).
    NoImplementation { implementation: SyclImpl, vendor: Vendor },
    /// `errc::memory_allocation`.
    MemoryAllocation(String),
    /// `errc::invalid`.
    Invalid(String),
    /// Kernel/runtime failure.
    Runtime(String),
}

impl fmt::Display for SyclError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyclError::NoImplementation { implementation, vendor } => {
                write!(f, "sycl: {implementation:?} has no backend for {vendor} devices")
            }
            SyclError::MemoryAllocation(m) => write!(f, "sycl: memory allocation failed: {m}"),
            SyclError::Invalid(m) => write!(f, "sycl: invalid: {m}"),
            SyclError::Runtime(m) => write!(f, "sycl: runtime error: {m}"),
        }
    }
}

impl std::error::Error for SyclError {}

/// Result alias.
pub type SyclResult<T> = Result<T, SyclError>;

/// An in-order SYCL queue on one device through one implementation — a
/// SYCL-flavored surface over the shared [`ExecutionSession`] spine. USM
/// allocations belong to the queue and are freed when it drops.
pub struct Queue {
    session: ExecutionSession,
    implementation: SyclImpl,
}

impl Queue {
    /// Create a queue with an explicit implementation choice.
    pub fn with_impl(device: Arc<Device>, implementation: SyclImpl) -> SyclResult<Self> {
        let vendor = mcmm_toolchain::isa_vendor(device.spec().isa);
        let name = implementation
            .toolchain_name(vendor)
            .ok_or(SyclError::NoImplementation { implementation, vendor })?;
        // The spine resolves the named toolchain and refuses discontinued
        // ones (ComputeCpp after September 2023).
        let session =
            ExecutionSession::open_with_toolchain_on(device, Model::Sycl, Language::Cpp, name)
                .map_err(|e| match e {
                    FrontendError::NoRoute { vendor, .. }
                    | FrontendError::Discontinued { vendor, .. } => {
                        SyclError::NoImplementation { implementation, vendor }
                    }
                    other => SyclError::Runtime(other.to_string()),
                })?;
        Ok(Self { session, implementation })
    }

    /// Create a queue with the default (best available) implementation —
    /// what `sycl::queue{gpu_selector_v}` does.
    pub fn new(device: Arc<Device>) -> SyclResult<Self> {
        let vendor = mcmm_toolchain::isa_vendor(device.spec().isa);
        for implementation in [SyclImpl::Dpcpp, SyclImpl::OpenSycl] {
            if let Ok(q) = Self::with_impl(Arc::clone(&device), implementation) {
                return Ok(q);
            }
        }
        Err(SyclError::NoImplementation { implementation: SyclImpl::Dpcpp, vendor })
    }

    /// The implementation behind this queue.
    pub fn implementation(&self) -> SyclImpl {
        self.implementation
    }

    /// The toolchain name (diagnostics).
    pub fn toolchain(&self) -> &'static str {
        self.session.toolchain()
    }

    /// The device vendor.
    pub fn vendor(&self) -> Vendor {
        self.session.vendor()
    }

    /// The route efficiency applied at launch.
    pub fn efficiency(&self) -> f64 {
        self.session.efficiency()
    }

    /// The execution-spine session under this queue.
    pub fn session(&self) -> &ExecutionSession {
        &self.session
    }

    /// USM: `malloc_device<T>` — one generic allocation path for every
    /// element type. The queue holds the allocation until it drops.
    pub fn malloc_device<T: Element>(&self, n: usize) -> SyclResult<DevicePtr> {
        let buf =
            self.session.alloc::<T>(n).map_err(|e| SyclError::MemoryAllocation(e.to_string()))?;
        Ok(self.session.hold(buf))
    }

    /// `parallel_for` over raw USM pointers (no buffer bookkeeping): the
    /// body receives base registers in `ptrs` order. Returns the launch
    /// report (used by the BabelStream adapter for modeled timings).
    pub fn parallel_for_usm(
        &self,
        range: usize,
        ptrs: &[DevicePtr],
        body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg]),
    ) -> SyclResult<LaunchReport> {
        let mut b = KernelBuilder::new("sycl_parallel_for_usm");
        let bases: Vec<Reg> = ptrs.iter().map(|_| b.param(Type::I64)).collect();
        let n_param = b.param(Type::I32);
        let i = b.global_thread_id_x();
        let ok = b.cmp(CmpOp::Lt, i, n_param);
        let mut f = Some(body);
        let bases_ref = &bases;
        b.if_(ok, |b| {
            if let Some(f) = f.take() {
                f(b, i, bases_ref);
            }
        });
        let kernel = b.finish();
        let mut args: Vec<KernelArg> = ptrs.iter().map(|&p| KernelArg::Ptr(p)).collect();
        args.push(KernelArg::I32(range as i32));
        self.session
            .run(&kernel, range as u64, 256, &args)
            .map_err(|e| SyclError::Runtime(e.to_string()))
    }

    /// USM copy host→device — generic over the element type ([`Element`]).
    pub fn memcpy_to_device<T: Element>(&self, dst: DevicePtr, src: &[T]) -> SyclResult<()> {
        self.session.upload_raw(dst, src).map(|_| ()).map_err(|e| SyclError::Invalid(e.to_string()))
    }

    /// USM copy device→host — generic over the element type.
    pub fn memcpy_from_device<T: Element>(&self, src: DevicePtr, n: usize) -> SyclResult<Vec<T>> {
        self.session.download_raw(src, n).map_err(|e| SyclError::Invalid(e.to_string()))
    }

    /// `parallel_for` over a 1-D range: the body closure receives the
    /// builder, the global index register (`item.get_id(0)`), and the base
    /// registers of the buffers passed in `buffers`.
    ///
    /// This is the buffer/accessor path: buffers are implicitly available
    /// to the kernel, the runtime wires their device pointers as arguments.
    pub fn parallel_for(
        &self,
        range: usize,
        buffers: &mut [&mut Buffer],
        body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg]),
    ) -> SyclResult<LaunchReport> {
        // Ensure device copies are current.
        for buf in buffers.iter_mut() {
            buf.sync_to_device(self)?;
        }
        let mut b = KernelBuilder::new("sycl_parallel_for");
        let bases: Vec<Reg> = buffers.iter().map(|_| b.param(Type::I64)).collect();
        let n_param = b.param(Type::I32);
        let i = b.global_thread_id_x();
        let ok = b.cmp(CmpOp::Lt, i, n_param);
        let mut f = Some(body);
        let bases_ref = &bases;
        b.if_(ok, |b| {
            if let Some(f) = f.take() {
                f(b, i, bases_ref);
            }
        });
        let kernel = b.finish();
        let report = self.run_kernel(&kernel, range, buffers)?;
        for buf in buffers.iter_mut() {
            buf.mark_device_dirty();
        }
        Ok(report)
    }

    fn run_kernel(
        &self,
        kernel: &KernelIr,
        range: usize,
        buffers: &[&mut Buffer],
    ) -> SyclResult<LaunchReport> {
        let mut args: Vec<KernelArg> =
            buffers.iter().map(|buf| buf.device.as_ref().expect("synced").arg()).collect();
        args.push(KernelArg::I32(range as i32));
        self.session
            .run(kernel, range as u64, 256, &args)
            .map_err(|e| SyclError::Runtime(e.to_string()))
    }
}

/// The SYCL column as a spine [`Frontend`]: one model, all three vendors
/// (§6: SYCL "supports all three GPU platform\[s\]").
pub struct SyclFrontend;

impl Frontend for SyclFrontend {
    fn model(&self) -> Model {
        Model::Sycl
    }

    fn open(&self, vendor: Vendor) -> Result<ExecutionSession, FrontendError> {
        ExecutionSession::open(Model::Sycl, Language::Cpp, vendor)
    }
}

/// A SYCL buffer: host data with a lazily materialised device shadow.
/// Reading the host data after kernels ran synchronises back — the
/// accessor-at-destruction semantics of SYCL buffers, made explicit. The
/// shadow lives on the device of the last queue that ran a kernel on the
/// buffer; the buffer owns it and frees it when it drops.
pub struct Buffer {
    host: Vec<f32>,
    device: Option<DeviceBuffer<f32>>,
    device_dirty: bool,
}

impl Buffer {
    /// Wrap host data.
    pub fn new(host: Vec<f32>) -> Self {
        Self { host, device: None, device_dirty: false }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.host.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.host.is_empty()
    }

    /// Make the shadow current on `queue`'s device. A shadow on another
    /// device is read back first if kernels wrote it, then freed.
    fn sync_to_device(&mut self, queue: &Queue) -> SyclResult<()> {
        let here = queue.session.device();
        if self.device.as_ref().is_some_and(|buf| !Arc::ptr_eq(buf.device(), here)) {
            self.read_back()?;
            self.device = None;
        }
        if self.device.is_none() {
            let buf = queue
                .session
                .upload(&self.host)
                .map_err(|e| SyclError::MemoryAllocation(e.to_string()))?;
            self.device = Some(buf);
        }
        Ok(())
    }

    /// Copy a shadow that kernels wrote back into the host data, from the
    /// device that holds it.
    fn read_back(&mut self) -> SyclResult<()> {
        if let (true, Some(buf)) = (self.device_dirty, &self.device) {
            let (bytes, _) = buf
                .device()
                .memcpy_d2h(buf.ptr(), buf.byte_len())
                .map_err(|e| SyclError::Invalid(e.to_string()))?;
            self.host = f32::from_device_bytes(&bytes);
            self.device_dirty = false;
        }
        Ok(())
    }

    fn mark_device_dirty(&mut self) {
        self.device_dirty = true;
    }

    /// Host accessor: synchronise back (if kernels wrote the buffer) and
    /// read the data. Like SYCL's `host_accessor`, it needs no queue.
    pub fn host_data(&mut self) -> SyclResult<&[f32]> {
        self.read_back()?;
        Ok(&self.host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmm_gpu_sim::DeviceSpec;

    fn vector_add(queue: &Queue) -> Vec<f32> {
        let n = 1024;
        let mut a = Buffer::new((0..n).map(|i| i as f32).collect());
        let mut b = Buffer::new((0..n).map(|i| 2.0 * i as f32).collect());
        let mut c = Buffer::new(vec![0.0; n]);
        {
            let mut bufs = [&mut a, &mut b, &mut c];
            queue
                .parallel_for(n, &mut bufs, |k, i, bases| {
                    let av = k.ld_elem(Space::Global, Type::F32, bases[0], i);
                    let bv = k.ld_elem(Space::Global, Type::F32, bases[1], i);
                    let s = k.bin(BinOp::Add, av, bv);
                    k.st_elem(Space::Global, bases[2], i, s);
                })
                .unwrap();
        }
        c.host_data().unwrap().to_vec()
    }

    #[test]
    fn sycl_reaches_all_three_vendors() {
        // §6: SYCL "supports all three GPU platform[s]".
        for spec in DeviceSpec::presets() {
            let name = spec.name;
            let queue = Queue::new(Device::new(spec)).unwrap();
            let out = vector_add(&queue);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, 3.0 * i as f32, "{name} wrong at {i}");
            }
        }
    }

    #[test]
    fn default_implementation_is_dpcpp_everywhere() {
        for spec in DeviceSpec::presets() {
            let queue = Queue::new(Device::new(spec)).unwrap();
            assert_eq!(queue.implementation(), SyclImpl::Dpcpp);
        }
    }

    #[test]
    fn native_on_intel_full_efficiency_elsewhere_not() {
        let q = Queue::new(Device::new(DeviceSpec::intel_pvc())).unwrap();
        assert_eq!(q.toolchain(), "Intel oneAPI DPC++ (icpx -fsycl)");
        assert_eq!(q.efficiency(), 1.0);
        let q = Queue::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        assert_eq!(q.toolchain(), "DPC++ (CUDA plugin)");
        // DPC++ on NVIDIA is complete+active (non-vendor good) → still 1.0
        // directness-wise; Open SYCL path also works:
        let q2 =
            Queue::with_impl(Device::new(DeviceSpec::nvidia_a100()), SyclImpl::OpenSycl).unwrap();
        assert_eq!(q2.toolchain(), "Open SYCL");
    }

    #[test]
    fn computecpp_is_discontinued() {
        // Description 5/35: ComputeCpp unsupported since 09/2023.
        for spec in [DeviceSpec::nvidia_a100(), DeviceSpec::intel_pvc()] {
            match Queue::with_impl(Device::new(spec), SyclImpl::ComputeCpp) {
                Err(SyclError::NoImplementation { .. }) => {}
                Err(other) => panic!("unexpected error {other:?}"),
                Ok(_) => panic!("ComputeCpp queue must not construct"),
            }
        }
        // And it never supported AMD at all in our registry.
        match Queue::with_impl(Device::new(DeviceSpec::amd_mi250x()), SyclImpl::ComputeCpp) {
            Err(SyclError::NoImplementation { vendor: Vendor::Amd, .. }) => {}
            Err(other) => panic!("unexpected error {other:?}"),
            Ok(_) => panic!("ComputeCpp never supported AMD"),
        }
    }

    #[test]
    fn usm_roundtrip() {
        let q = Queue::new(Device::new(DeviceSpec::amd_mi250x())).unwrap();
        let p = q.malloc_device::<f32>(100).unwrap();
        let data: Vec<f32> = (0..100).map(|i| i as f32 * 0.25).collect();
        q.memcpy_to_device(p, &data).unwrap();
        assert_eq!(q.memcpy_from_device::<f32>(p, 100).unwrap(), data);
        // f64 goes through the very same generic path.
        let p64 = q.malloc_device::<f64>(50).unwrap();
        let data64: Vec<f64> = (0..50).map(|i| i as f64 * 0.125).collect();
        q.memcpy_to_device(p64, &data64).unwrap();
        assert_eq!(q.memcpy_from_device::<f64>(p64, 50).unwrap(), data64);
    }

    #[test]
    fn buffer_host_accessor_syncs_back_only_when_dirty() {
        let q = Queue::new(Device::new(DeviceSpec::intel_pvc())).unwrap();
        let mut buf = Buffer::new(vec![1.0; 16]);
        // Untouched buffer: host data readable without any device traffic.
        assert_eq!(buf.host_data().unwrap(), &[1.0; 16][..]);
        let mut bufs = [&mut buf];
        q.parallel_for(16, &mut bufs, |k, i, bases| {
            let v = k.ld_elem(Space::Global, Type::F32, bases[0], i);
            let w = k.bin(BinOp::Add, v, Value::F32(1.0));
            k.st_elem(Space::Global, bases[0], i, w);
        })
        .unwrap();
        assert_eq!(buf.host_data().unwrap(), &[2.0; 16][..]);
    }
}
