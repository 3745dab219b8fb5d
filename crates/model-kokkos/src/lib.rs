//! # mcmm-model-kokkos — a Kokkos-style frontend
//!
//! Kokkos (descriptions 13, 14, 28, 42) is the community performance-
//! portability ecosystem: `View`s carry data with a memory layout,
//! execution spaces select a backend, and `parallel_for` /
//! `parallel_reduce` / `parallel_scan` express the algorithms. The
//! frontend mirrors that shape:
//!
//! * [`ExecSpace`] — the backend: CUDA / NVHPC / Clang on NVIDIA, HIP /
//!   OpenMP-offload on AMD, the **experimental** SYCL backend on Intel
//!   (description 42 — constructing it works, but the route's efficiency
//!   penalty applies and [`ExecSpace::is_experimental`] reports it).
//! * [`View`] — device data with [`Layout`] (Left = column-major like
//!   Fortran, Right = row-major like C) governing 2-D index linearisation.
//! * [`flcl`] — the Fortran Language Compatibility Layer of description
//!   14: a thin Fortran-convention wrapper (1-based indices).

use mcmm_core::provider::Maintenance;
use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_frontend::{DeviceBuffer, ExecutionSession, Frontend, FrontendError};
use mcmm_gpu_sim::device::{Device, KernelArg};
use mcmm_gpu_sim::ir::{AtomicOp, KernelBuilder, Reg, Type};
use mcmm_gpu_sim::mem::DevicePtr;
use std::fmt;
use std::sync::Arc;

pub use mcmm_gpu_sim::ir::{BinOp, CmpOp, Space, UnOp, Value};

/// Kokkos errors.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are fully specified per variant
pub enum KokkosError {
    /// No Kokkos backend for this device/language.
    NoBackend { vendor: Vendor, language: Language },
    /// Runtime failure.
    Runtime(String),
}

impl fmt::Display for KokkosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KokkosError::NoBackend { vendor, language } => {
                write!(f, "Kokkos has no {language} backend for {vendor} GPUs")
            }
            KokkosError::Runtime(m) => write!(f, "kokkos: {m}"),
        }
    }
}

impl std::error::Error for KokkosError {}

/// Result alias.
pub type KokkosResult<T> = Result<T, KokkosError>;

/// Memory layout of a rank-2 view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Column-major (`LayoutLeft`, Fortran order) — the GPU default.
    Left,
    /// Row-major (`LayoutRight`, C order).
    Right,
}

/// A Kokkos execution space: device + selected backend route.
pub struct ExecSpace {
    session: ExecutionSession,
}

fn open_error(e: FrontendError) -> KokkosError {
    match e {
        FrontendError::NoRoute { vendor, language, .. } => {
            KokkosError::NoBackend { vendor, language }
        }
        FrontendError::Discontinued { vendor, .. } => {
            KokkosError::NoBackend { vendor, language: Language::Cpp }
        }
        other => KokkosError::Runtime(other.to_string()),
    }
}

impl ExecSpace {
    /// `Kokkos::DefaultExecutionSpace` — the best backend for the device.
    pub fn new(device: Arc<Device>) -> KokkosResult<Self> {
        Self::with_language(device, Language::Cpp)
    }

    fn with_language(device: Arc<Device>, language: Language) -> KokkosResult<Self> {
        let session =
            ExecutionSession::open_on(device, Model::Kokkos, language).map_err(open_error)?;
        Ok(Self { session })
    }

    /// The shared execution session underneath this space.
    pub fn session(&self) -> &ExecutionSession {
        &self.session
    }

    /// The backend toolchain name.
    pub fn backend(&self) -> &'static str {
        self.session.toolchain()
    }

    /// Is the backend experimental (description 42: Intel's SYCL backend)?
    pub fn is_experimental(&self) -> bool {
        self.session.route().maintenance == Maintenance::Experimental
    }

    /// Route efficiency.
    pub fn efficiency(&self) -> f64 {
        self.session.efficiency()
    }

    fn run(
        &self,
        n: usize,
        views: &[DevicePtr],
        extra: &[KernelArg],
        body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg]),
    ) -> KokkosResult<()> {
        let mut b = KernelBuilder::new("kokkos_parallel");
        let bases: Vec<Reg> = views.iter().map(|_| b.param(Type::I64)).collect();
        for a in extra {
            match a {
                KernelArg::Ptr(_) | KernelArg::I64(_) => b.param(Type::I64),
                KernelArg::I32(_) => b.param(Type::I32),
                KernelArg::F32(_) => b.param(Type::F32),
                KernelArg::F64(_) => b.param(Type::F64),
            };
        }
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
        let mut args: Vec<KernelArg> = views.iter().map(|&p| KernelArg::Ptr(p)).collect();
        args.extend_from_slice(extra);
        args.push(KernelArg::I32(n as i32));
        self.session
            .run(&kernel, n as u64, 256, &args)
            .map(|_| ())
            .map_err(|e| KokkosError::Runtime(e.to_string()))
    }

    /// `Kokkos::parallel_for(RangePolicy(0, n), functor)`.
    pub fn parallel_for(
        &self,
        n: usize,
        views: &[&View],
        body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg]),
    ) -> KokkosResult<()> {
        let ptrs: Vec<DevicePtr> = views.iter().map(|v| v.buf.ptr()).collect();
        self.run(n, &ptrs, &[], body)
    }

    /// `Kokkos::parallel_reduce` with a sum reducer.
    pub fn parallel_reduce_sum(
        &self,
        n: usize,
        views: &[&View],
        body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg]) -> Reg,
    ) -> KokkosResult<f64> {
        let cell =
            self.session.reduction_cell(0.0).map_err(|e| KokkosError::Runtime(e.to_string()))?;
        let ptrs: Vec<DevicePtr> = views.iter().map(|v| v.buf.ptr()).collect();
        let nviews = ptrs.len();
        self.run(n, &ptrs, &[cell.arg()], |b, i, bases| {
            let contribution = body(b, i, bases);
            let cell_reg = Reg(nviews as u16); // param right after the views
            let _ = b.atomic(AtomicOp::Add, Space::Global, cell_reg, contribution);
        })?;
        self.session.read_cell(&cell).map_err(|e| KokkosError::Runtime(e.to_string()))
    }

    /// Create a rank-1 view from host data.
    pub fn view_from_host(&self, label: &'static str, data: &[f64]) -> KokkosResult<View> {
        let buf = self.upload(data)?;
        Ok(View { label, buf, dims: [data.len(), 1], layout: Layout::Left })
    }

    fn upload(&self, data: &[f64]) -> KokkosResult<DeviceBuffer<f64>> {
        self.session.upload(data).map_err(|e| KokkosError::Runtime(e.to_string()))
    }

    /// Create a zero-filled rank-2 view.
    pub fn view_2d(
        &self,
        label: &'static str,
        rows: usize,
        cols: usize,
        layout: Layout,
    ) -> KokkosResult<View> {
        let buf = self.upload(&vec![0.0; rows * cols])?;
        Ok(View { label, buf, dims: [rows, cols], layout })
    }

    /// `deep_copy` back to the host.
    pub fn deep_copy_to_host(&self, view: &View) -> KokkosResult<Vec<f64>> {
        self.session.download(&view.buf).map_err(|e| KokkosError::Runtime(e.to_string()))
    }
}

/// [`Frontend`] registration for the shared BabelStream adapter.
pub struct KokkosFrontend;

impl Frontend for KokkosFrontend {
    fn model(&self) -> Model {
        Model::Kokkos
    }

    fn open(&self, vendor: Vendor) -> Result<ExecutionSession, FrontendError> {
        ExecutionSession::open(Model::Kokkos, Language::Cpp, vendor)
    }
}

/// A Kokkos view: labeled device data with layout. The view owns its
/// data and frees it when it drops.
pub struct View {
    /// Kokkos views carry a human-readable label.
    pub label: &'static str,
    buf: DeviceBuffer<f64>,
    dims: [usize; 2],
    layout: Layout,
}

impl View {
    /// Extent along a rank.
    pub fn extent(&self, rank: usize) -> usize {
        self.dims[rank]
    }

    /// Emit the linearised index of `(i, j)` under this view's layout.
    pub fn index_2d(&self, b: &mut KernelBuilder, i: Reg, j: Reg) -> Reg {
        match self.layout {
            Layout::Left => {
                // column-major: i + j*rows
                let rows = b.imm(Value::I32(self.dims[0] as i32));
                let jr = b.bin(BinOp::Mul, j, rows);
                b.bin(BinOp::Add, i, jr)
            }
            Layout::Right => {
                // row-major: i*cols + j
                let cols = b.imm(Value::I32(self.dims[1] as i32));
                let ic = b.bin(BinOp::Mul, i, cols);
                b.bin(BinOp::Add, ic, j)
            }
        }
    }
}

/// The Fortran Language Compatibility Layer (description 14).
pub mod flcl {
    use super::*;

    /// Bind the FLCL for a device: resolves the Kokkos *Fortran* route
    /// (rated "limited" in the paper — a compatibility layer, not a
    /// Fortran Kokkos).
    pub fn exec_space(device: Arc<Device>) -> KokkosResult<ExecSpace> {
        ExecSpace::with_language(device, Language::Fortran)
    }

    /// Fortran-style `parallel_for` over `1..=n` (1-based indices).
    pub fn parallel_for_1based(
        space: &ExecSpace,
        n: usize,
        views: &[&View],
        body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg]),
    ) -> KokkosResult<()> {
        space.parallel_for(n, views, |b, i0, bases| {
            let i = b.bin(BinOp::Add, i0, Value::I32(1));
            body(b, i, bases);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmm_gpu_sim::DeviceSpec;

    #[test]
    fn parallel_for_on_all_three_vendors() {
        // §6: "Kokkos and Alpaka … support all three platform[s]" (Intel
        // via the experimental SYCL backend).
        for spec in DeviceSpec::presets() {
            let name = spec.name;
            let space = ExecSpace::new(Device::new(spec)).unwrap();
            let v = space.view_from_host("v", &vec![1.0; 256]).unwrap();
            space
                .parallel_for(256, &[&v], |b, i, bases| {
                    let x = b.ld_elem(Space::Global, Type::F64, bases[0], i);
                    let y = b.bin(BinOp::Mul, x, Value::F64(7.0));
                    b.st_elem(Space::Global, bases[0], i, y);
                })
                .unwrap();
            let out = space.deep_copy_to_host(&v).unwrap();
            assert!(out.iter().all(|&x| x == 7.0), "{name}");
        }
    }

    #[test]
    fn backends_match_descriptions() {
        let nv = ExecSpace::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        assert_eq!(nv.backend(), "Kokkos CUDA backend (nvcc)");
        assert!(!nv.is_experimental());
        let amd = ExecSpace::new(Device::new(DeviceSpec::amd_mi250x())).unwrap();
        assert_eq!(amd.backend(), "Kokkos HIP backend");
        // Description 42: Intel only through the experimental SYCL backend.
        let intel = ExecSpace::new(Device::new(DeviceSpec::intel_pvc())).unwrap();
        assert_eq!(intel.backend(), "Kokkos SYCL backend (experimental)");
        assert!(intel.is_experimental());
        assert!(intel.efficiency() < nv.efficiency());
    }

    #[test]
    fn parallel_reduce_sum() {
        let space = ExecSpace::new(Device::new(DeviceSpec::amd_mi250x())).unwrap();
        let data: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let v = space.view_from_host("data", &data).unwrap();
        let sum = space
            .parallel_reduce_sum(500, &[&v], |b, i, bases| {
                b.ld_elem(Space::Global, Type::F64, bases[0], i)
            })
            .unwrap();
        assert_eq!(sum, data.iter().sum::<f64>());
    }

    #[test]
    fn a_refused_reduction_gives_its_cell_back() {
        // A barrier under the range guard fails the route's lint gate
        // after the reduction cell was allocated.
        let space = ExecSpace::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        let v = space.view_from_host("data", &[1.0; 64]).unwrap();
        let memory = space.session.device().memory();
        let before = memory.free_bytes();
        let err = space
            .parallel_reduce_sum(64, &[&v], |b, i, bases| {
                b.barrier();
                b.ld_elem(Space::Global, Type::F64, bases[0], i)
            })
            .unwrap_err();
        assert!(err.to_string().contains("MCA002"), "{err}");
        assert_eq!(memory.free_bytes(), before, "the reduction cell leaked");
    }

    #[test]
    fn layout_left_vs_right() {
        let space = ExecSpace::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        for layout in [Layout::Left, Layout::Right] {
            let m = space.view_2d("m", 4, 8, layout).unwrap();
            // Write m(i, j) = 10*i + j over the flattened 32 elements.
            space
                .parallel_for(32, &[&m], |b, lin, bases| {
                    // i = lin % 4, j = lin / 4
                    let four = b.imm(Value::I32(4));
                    let i = b.bin(BinOp::Rem, lin, four);
                    let j = b.bin(BinOp::Div, lin, four);
                    let idx = m.index_2d(b, i, j);
                    let ten = b.imm(Value::I32(10));
                    let v0 = b.bin(BinOp::Mul, i, ten);
                    let v1 = b.bin(BinOp::Add, v0, j);
                    let v = b.cvt(Type::F64, v1);
                    b.st_elem(Space::Global, bases[0], idx, v);
                })
                .unwrap();
            let host = space.deep_copy_to_host(&m).unwrap();
            // Check a couple of positions according to the layout.
            match layout {
                Layout::Left => {
                    // element (i=2, j=3) lives at 2 + 3*4 = 14
                    assert_eq!(host[14], 23.0);
                }
                Layout::Right => {
                    // element (i=2, j=3) lives at 2*8 + 3 = 19
                    assert_eq!(host[19], 23.0);
                }
            }
        }
    }

    #[test]
    fn flcl_fortran_layer_works_but_is_limited_tier() {
        // Description 14: FLCL on all three platforms.
        for spec in DeviceSpec::presets() {
            let name = spec.name;
            let space = flcl::exec_space(Device::new(spec)).unwrap();
            assert_eq!(
                space.backend(),
                if name.contains("Intel") {
                    "Kokkos FLCL (over SYCL backend)"
                } else {
                    "Kokkos FLCL"
                }
            );
            assert!(space.efficiency() < 0.9, "FLCL binding is not free");
            let v = space.view_from_host("x", &vec![1.0; 64]).unwrap();
            flcl::parallel_for_1based(&space, 64, &[&v], |b, i, bases| {
                let i0 = b.bin(BinOp::Sub, i, Value::I32(1));
                let x = b.ld_elem(Space::Global, Type::F64, bases[0], i0);
                let iv = b.cvt(Type::F64, i);
                let y = b.bin(BinOp::Add, x, iv);
                b.st_elem(Space::Global, bases[0], i0, y);
            })
            .unwrap();
            let out = space.deep_copy_to_host(&v).unwrap();
            for (idx, val) in out.iter().enumerate() {
                assert_eq!(*val, 1.0 + (idx + 1) as f64, "{name}");
            }
        }
    }

    #[test]
    fn view_metadata() {
        let space = ExecSpace::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        let v = space.view_2d("mat", 3, 5, Layout::Right).unwrap();
        assert_eq!(v.label, "mat");
        assert_eq!(v.extent(0), 3);
        assert_eq!(v.extent(1), 5);
    }
}
