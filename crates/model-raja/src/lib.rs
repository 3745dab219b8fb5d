//! # mcmm-model-raja — the paper's "most notable exclusion", included
//!
//! §5 Discussion: "The most notable exclusion is certainly RAJA … similar
//! in spirit to, albeit not as popular as Kokkos." This extension crate
//! builds the RAJA-style frontend the paper left out — without touching
//! the published 51-cell matrix (RAJA stays excluded from `mcmm-core`'s
//! dataset; an extension test shows how the matrix *would* grow via
//! `mcmm_core::evolution::Event::AddRoute`).
//!
//! The surface mirrors RAJA's idioms: [`forall`] over a [`RangeSegment`]
//! with a typed execution policy ([`ExecPolicy`]), and reducer objects
//! ([`ReduceSum`], [`ReduceMin`], [`ReduceMax`]) that accumulate during a
//! `forall` and are read with `.get()` afterwards — RAJA's signature
//! difference from Kokkos' return-value reductions.
//!
//! Backend coverage mirrors the real project: CUDA and HIP backends are
//! production, the SYCL backend is newer — modeled experimental here, like
//! Kokkos' (LLNL tracks RAJA SYCL support as maturing).

use mcmm_core::provider::{Maintenance, Provider};
use mcmm_core::route::{Completeness, Directness, Route, RouteKind};
use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_frontend::{DeviceBuffer, ExecutionSession};
use mcmm_gpu_sim::device::{Device, KernelArg, LaunchConfig};
use mcmm_gpu_sim::ir::{AtomicOp, KernelBuilder, Reg, Space, Type};
use mcmm_gpu_sim::mem::DevicePtr;
use std::fmt;
use std::sync::Arc;

pub use mcmm_gpu_sim::ir::{BinOp, CmpOp, UnOp, Value};

/// RAJA execution policies (the subset with GPU backends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings are fully specified per variant
pub enum ExecPolicy {
    /// `RAJA::cuda_exec<BLOCK_SIZE>` — NVIDIA.
    CudaExec { block_size: u32 },
    /// `RAJA::hip_exec<BLOCK_SIZE>` — AMD.
    HipExec { block_size: u32 },
    /// `RAJA::sycl_exec<WORK_GROUP_SIZE>` — Intel (newer backend).
    SyclExec { work_group_size: u32 },
    /// `RAJA::omp_target_parallel_for_exec<THREADS>` — any vendor.
    OmpTargetExec { threads: u32 },
}

impl ExecPolicy {
    /// The default policy for a vendor (`RAJA::expt::ExecPolicy` chooser).
    pub fn default_for(vendor: Vendor) -> ExecPolicy {
        match vendor {
            Vendor::Nvidia => ExecPolicy::CudaExec { block_size: 256 },
            Vendor::Amd => ExecPolicy::HipExec { block_size: 256 },
            Vendor::Intel => ExecPolicy::SyclExec { work_group_size: 256 },
        }
    }

    fn vendor(self) -> Option<Vendor> {
        match self {
            ExecPolicy::CudaExec { .. } => Some(Vendor::Nvidia),
            ExecPolicy::HipExec { .. } => Some(Vendor::Amd),
            ExecPolicy::SyclExec { .. } => Some(Vendor::Intel),
            ExecPolicy::OmpTargetExec { .. } => None, // any vendor
        }
    }

    fn block_size(self) -> u32 {
        match self {
            ExecPolicy::CudaExec { block_size } | ExecPolicy::HipExec { block_size } => block_size,
            ExecPolicy::SyclExec { work_group_size } => work_group_size,
            ExecPolicy::OmpTargetExec { threads } => threads,
        }
    }

    /// The route metadata this backend would carry in an extended matrix.
    pub fn route(self) -> Route {
        match self {
            ExecPolicy::CudaExec { .. } => Route::new(
                "RAJA CUDA backend",
                RouteKind::Library,
                Provider::Community("RAJA"),
                Directness::Direct,
                Completeness::Complete,
            ),
            ExecPolicy::HipExec { .. } => Route::new(
                "RAJA HIP backend",
                RouteKind::Library,
                Provider::Community("RAJA"),
                Directness::Direct,
                Completeness::Complete,
            ),
            ExecPolicy::SyclExec { .. } => Route::new(
                "RAJA SYCL backend",
                RouteKind::Library,
                Provider::Community("RAJA"),
                Directness::Direct,
                Completeness::Majority,
            )
            .maintenance(Maintenance::Experimental),
            ExecPolicy::OmpTargetExec { .. } => Route::new(
                "RAJA OpenMP-target backend",
                RouteKind::Library,
                Provider::Community("RAJA"),
                Directness::Direct,
                Completeness::Majority,
            ),
        }
    }
}

/// RAJA errors.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are fully specified per variant
pub enum RajaError {
    /// The policy's backend does not target this device.
    PolicyMismatch { policy: ExecPolicy, device_vendor: Vendor },
    /// Runtime failure.
    Runtime(String),
}

impl fmt::Display for RajaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RajaError::PolicyMismatch { policy, device_vendor } => {
                write!(f, "{policy:?} does not execute on {device_vendor} devices")
            }
            RajaError::Runtime(m) => write!(f, "raja: {m}"),
        }
    }
}

impl std::error::Error for RajaError {}

/// Result alias.
pub type RajaResult<T> = Result<T, RajaError>;

/// `RAJA::RangeSegment(begin, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeSegment {
    /// Inclusive start index.
    pub begin: usize,
    /// Exclusive end index.
    pub end: usize,
}

impl RangeSegment {
    /// `RAJA::RangeSegment(begin, end)` — half-open.
    pub fn new(begin: usize, end: usize) -> Self {
        assert!(begin <= end, "RangeSegment must be non-decreasing");
        Self { begin, end }
    }

    /// Number of indices in the segment.
    pub fn len(&self) -> usize {
        self.end - self.begin
    }

    /// Is the segment empty?
    pub fn is_empty(&self) -> bool {
        self.begin == self.end
    }
}

/// A RAJA resource: device + policy defaults.
///
/// RAJA is not in the paper's matrix, so the resource rides the spine
/// through [`ExecutionSession::for_route`] with the extension routes
/// declared on [`ExecPolicy`]. The default-policy session carries the
/// transfers; each `forall` opens a per-policy session (the compile
/// cache is process-wide, so repeated launches still hit it).
pub struct Resource {
    session: ExecutionSession,
    vendor: Vendor,
}

/// The nominal model slot extension sessions run under; the paper calls
/// RAJA "similar in spirit to" Kokkos, whose matrix column it borrows.
const HOST_MODEL: Model = Model::Kokkos;

fn session_for(device: Arc<Device>, policy: ExecPolicy) -> RajaResult<ExecutionSession> {
    ExecutionSession::for_route(device, HOST_MODEL, Language::Cpp, policy.route())
        .map_err(|e| RajaError::Runtime(e.to_string()))
}

impl Resource {
    /// Wrap a device.
    pub fn new(device: Arc<Device>) -> Self {
        let vendor = mcmm_toolchain::isa_vendor(device.spec().isa);
        let session = session_for(device, ExecPolicy::default_for(vendor))
            .expect("RAJA default backends are executable routes");
        Self { session, vendor }
    }

    /// The device vendor.
    pub fn vendor(&self) -> Vendor {
        self.vendor
    }

    /// The shared execution session carrying this resource's transfers.
    pub fn session(&self) -> &ExecutionSession {
        &self.session
    }

    /// Allocate + upload a device array. The resource holds it until it
    /// drops.
    pub fn alloc(&self, data: &[f64]) -> RajaResult<DevicePtr> {
        let buf = self.session.upload(data).map_err(|e| RajaError::Runtime(e.to_string()))?;
        Ok(self.session.hold(buf))
    }

    /// Read back a device array.
    pub fn to_host(&self, ptr: DevicePtr, n: usize) -> RajaResult<Vec<f64>> {
        self.session.download_raw::<f64>(ptr, n).map_err(|e| RajaError::Runtime(e.to_string()))
    }
}

/// A reducer kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReduceKind {
    Sum,
    Min,
    Max,
}

/// A RAJA reducer object: create before `forall`, combined inside the
/// kernel by the `forall_reduce_*` helpers, read with `.get()` afterwards.
/// Its device cell is freed when it drops.
pub struct Reducer<'r> {
    res: &'r Resource,
    cell: DeviceBuffer<f64>,
}

/// `RAJA::ReduceSum<reduce_policy, double>`.
pub struct ReduceSum<'r>(Reducer<'r>);
/// `RAJA::ReduceMin<reduce_policy, double>`.
pub struct ReduceMin<'r>(Reducer<'r>);
/// `RAJA::ReduceMax<reduce_policy, double>`.
pub struct ReduceMax<'r>(Reducer<'r>);

impl<'r> Reducer<'r> {
    /// The identity is fixed by `init` and the combine op.
    fn new(res: &'r Resource, init: f64) -> RajaResult<Self> {
        let cell =
            res.session.reduction_cell(init).map_err(|e| RajaError::Runtime(e.to_string()))?;
        Ok(Self { res, cell })
    }

    /// Emit the combine of `v` into this reducer inside a kernel body.
    /// `cell_reg` is the register carrying the reducer's device address
    /// (provided by [`forall_reduce`]).
    fn combine_ir(kind: ReduceKind, b: &mut KernelBuilder, cell_reg: Reg, v: Reg) {
        let op = match kind {
            ReduceKind::Sum => AtomicOp::Add,
            ReduceKind::Min => AtomicOp::Min,
            ReduceKind::Max => AtomicOp::Max,
        };
        let _ = b.atomic(op, Space::Global, cell_reg, v);
    }

    fn get(&self) -> RajaResult<f64> {
        self.res.session.read_cell(&self.cell).map_err(|e| RajaError::Runtime(e.to_string()))
    }
}

impl<'r> ReduceSum<'r> {
    /// Create a sum reducer with the given initial value.
    pub fn new(res: &'r Resource, init: f64) -> RajaResult<Self> {
        Ok(Self(Reducer::new(res, init)?))
    }
    /// `.get()` — host-side read after the forall.
    pub fn get(&self) -> RajaResult<f64> {
        self.0.get()
    }
}

impl<'r> ReduceMin<'r> {
    /// Create a min reducer with the given initial value.
    pub fn new(res: &'r Resource, init: f64) -> RajaResult<Self> {
        Ok(Self(Reducer::new(res, init)?))
    }
    /// `.get()` — host-side read after the forall.
    pub fn get(&self) -> RajaResult<f64> {
        self.0.get()
    }
}

impl<'r> ReduceMax<'r> {
    /// Create a max reducer with the given initial value.
    pub fn new(res: &'r Resource, init: f64) -> RajaResult<Self> {
        Ok(Self(Reducer::new(res, init)?))
    }
    /// `.get()` — host-side read after the forall.
    pub fn get(&self) -> RajaResult<f64> {
        self.0.get()
    }
}

fn launch(
    res: &Resource,
    policy: ExecPolicy,
    seg: RangeSegment,
    arrays: &[DevicePtr],
    extra_cell: Option<DevicePtr>,
    body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg], Option<Reg>),
) -> RajaResult<()> {
    if let Some(required) = policy.vendor() {
        if required != res.vendor {
            return Err(RajaError::PolicyMismatch { policy, device_vendor: res.vendor });
        }
    }
    if seg.is_empty() {
        return Ok(());
    }
    let route = policy.route();
    let mut b = KernelBuilder::new("raja_forall");
    let bases: Vec<Reg> = arrays.iter().map(|_| b.param(Type::I64)).collect();
    let cell_reg = extra_cell.map(|_| b.param(Type::I64));
    let begin = b.param(Type::I32);
    let end = b.param(Type::I32);
    let t = b.global_thread_id_x();
    let i = b.bin(BinOp::Add, t, begin);
    let ok = b.cmp(CmpOp::Lt, i, end);
    let mut f = Some(body);
    let bases_ref = &bases;
    b.if_(ok, |b| {
        if let Some(f) = f.take() {
            f(b, i, bases_ref, cell_reg);
        }
    });
    let kernel = b.finish();
    let session = if route == *res.session.route() {
        None
    } else {
        Some(session_for(Arc::clone(res.session.device()), policy)?)
    };
    let session = session.as_ref().unwrap_or(&res.session);
    let module = session.compile(&kernel).map_err(|e| RajaError::Runtime(e.to_string()))?;
    let mut args: Vec<KernelArg> = arrays.iter().map(|&p| KernelArg::Ptr(p)).collect();
    if let Some(c) = extra_cell {
        args.push(KernelArg::Ptr(c));
    }
    args.push(KernelArg::I32(seg.begin as i32));
    args.push(KernelArg::I32(seg.end as i32));
    let cfg = LaunchConfig::linear(seg.len() as u64, policy.block_size())
        .with_efficiency(session.efficiency());
    session.launch(&module, cfg, &args).map_err(|e| RajaError::Runtime(e.to_string()))?;
    Ok(())
}

/// `RAJA::forall<policy>(segment, [=](int i) { ... })`.
pub fn forall(
    res: &Resource,
    policy: ExecPolicy,
    seg: RangeSegment,
    arrays: &[DevicePtr],
    body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg]),
) -> RajaResult<()> {
    launch(res, policy, seg, arrays, None, |b, i, bases, _| body(b, i, bases))
}

/// A `forall` that feeds a [`ReduceSum`]/[`ReduceMin`]/[`ReduceMax`]: the
/// body returns the per-iteration contribution register.
pub fn forall_reduce_sum(
    res: &Resource,
    policy: ExecPolicy,
    seg: RangeSegment,
    arrays: &[DevicePtr],
    reducer: &ReduceSum,
    body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg]) -> Reg,
) -> RajaResult<()> {
    launch(res, policy, seg, arrays, Some(reducer.0.cell.ptr()), |b, i, bases, cell| {
        let v = body(b, i, bases);
        Reducer::combine_ir(ReduceKind::Sum, b, cell.expect("cell present"), v);
    })
}

/// The min variant.
pub fn forall_reduce_min(
    res: &Resource,
    policy: ExecPolicy,
    seg: RangeSegment,
    arrays: &[DevicePtr],
    reducer: &ReduceMin,
    body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg]) -> Reg,
) -> RajaResult<()> {
    launch(res, policy, seg, arrays, Some(reducer.0.cell.ptr()), |b, i, bases, cell| {
        let v = body(b, i, bases);
        Reducer::combine_ir(ReduceKind::Min, b, cell.expect("cell present"), v);
    })
}

/// The max variant.
pub fn forall_reduce_max(
    res: &Resource,
    policy: ExecPolicy,
    seg: RangeSegment,
    arrays: &[DevicePtr],
    reducer: &ReduceMax,
    body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg]) -> Reg,
) -> RajaResult<()> {
    launch(res, policy, seg, arrays, Some(reducer.0.cell.ptr()), |b, i, bases, cell| {
        let v = body(b, i, bases);
        Reducer::combine_ir(ReduceKind::Max, b, cell.expect("cell present"), v);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmm_gpu_sim::DeviceSpec;
    use mcmm_toolchain::efficiency::route_efficiency;

    #[test]
    fn forall_daxpy_on_all_vendors() {
        // RAJA reaches all three platforms, like Kokkos (§5: "similar in
        // spirit").
        for spec in DeviceSpec::presets() {
            let name = spec.name;
            let res = Resource::new(Device::new(spec));
            let policy = ExecPolicy::default_for(res.vendor());
            let n = 512;
            let x = res.alloc(&(0..n).map(|i| i as f64).collect::<Vec<_>>()).unwrap();
            let y = res.alloc(&vec![1.0; n]).unwrap();
            forall(&res, policy, RangeSegment::new(0, n), &[x, y], |b, i, p| {
                let xv = b.ld_elem(Space::Global, Type::F64, p[0], i);
                let yv = b.ld_elem(Space::Global, Type::F64, p[1], i);
                let ax = b.bin(BinOp::Mul, xv, Value::F64(2.0));
                let s = b.bin(BinOp::Add, ax, yv);
                b.st_elem(Space::Global, p[1], i, s);
            })
            .unwrap();
            let out = res.to_host(y, n).unwrap();
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, 2.0 * i as f64 + 1.0, "{name}");
            }
        }
    }

    #[test]
    fn range_segments_respect_begin() {
        // Only [100, 200) gets written.
        let res = Resource::new(Device::new(DeviceSpec::nvidia_a100()));
        let n = 300;
        let y = res.alloc(&vec![0.0; n]).unwrap();
        forall(
            &res,
            ExecPolicy::CudaExec { block_size: 64 },
            RangeSegment::new(100, 200),
            &[y],
            |b, i, p| {
                b.st_elem(Space::Global, p[0], i, Value::F64(1.0));
            },
        )
        .unwrap();
        let out = res.to_host(y, n).unwrap();
        for (i, v) in out.iter().enumerate() {
            let expect = if (100..200).contains(&i) { 1.0 } else { 0.0 };
            assert_eq!(*v, expect, "index {i}");
        }
    }

    #[test]
    fn reducer_objects_accumulate() {
        let res = Resource::new(Device::new(DeviceSpec::amd_mi250x()));
        let policy = ExecPolicy::HipExec { block_size: 128 };
        let n = 1000;
        let data: Vec<f64> = (0..n).map(|i| ((i * 31) % 97) as f64).collect();
        let x = res.alloc(&data).unwrap();

        let sum = ReduceSum::new(&res, 0.0).unwrap();
        forall_reduce_sum(&res, policy, RangeSegment::new(0, n), &[x], &sum, |b, i, p| {
            b.ld_elem(Space::Global, Type::F64, p[0], i)
        })
        .unwrap();
        assert_eq!(sum.get().unwrap(), data.iter().sum::<f64>());

        let min = ReduceMin::new(&res, f64::INFINITY).unwrap();
        forall_reduce_min(&res, policy, RangeSegment::new(0, n), &[x], &min, |b, i, p| {
            b.ld_elem(Space::Global, Type::F64, p[0], i)
        })
        .unwrap();
        assert_eq!(min.get().unwrap(), data.iter().copied().fold(f64::INFINITY, f64::min));

        let max = ReduceMax::new(&res, f64::NEG_INFINITY).unwrap();
        forall_reduce_max(&res, policy, RangeSegment::new(0, n), &[x], &max, |b, i, p| {
            b.ld_elem(Space::Global, Type::F64, p[0], i)
        })
        .unwrap();
        assert_eq!(max.get().unwrap(), data.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn policy_vendor_mismatch_is_rejected() {
        let res = Resource::new(Device::new(DeviceSpec::intel_pvc()));
        let err = forall(
            &res,
            ExecPolicy::CudaExec { block_size: 256 },
            RangeSegment::new(0, 8),
            &[],
            |_, _, _| {},
        )
        .unwrap_err();
        assert!(matches!(err, RajaError::PolicyMismatch { device_vendor: Vendor::Intel, .. }));
    }

    #[test]
    fn omp_target_policy_is_portable() {
        for spec in DeviceSpec::presets() {
            let res = Resource::new(Device::new(spec));
            let y = res.alloc(&vec![0.0; 64]).unwrap();
            forall(
                &res,
                ExecPolicy::OmpTargetExec { threads: 64 },
                RangeSegment::new(0, 64),
                &[y],
                |b, i, p| {
                    let iv = b.cvt(Type::F64, i);
                    b.st_elem(Space::Global, p[0], i, iv);
                },
            )
            .unwrap();
            let out = res.to_host(y, 64).unwrap();
            assert!(out.iter().enumerate().all(|(i, &v)| v == i as f64));
        }
    }

    #[test]
    fn sycl_backend_is_experimental_with_penalty() {
        let route = ExecPolicy::SyclExec { work_group_size: 128 }.route();
        assert_eq!(route.maintenance, Maintenance::Experimental);
        assert!(
            route_efficiency(&route)
                < route_efficiency(&ExecPolicy::CudaExec { block_size: 128 }.route())
        );
    }

    #[test]
    fn empty_segment_is_a_noop() {
        let res = Resource::new(Device::new(DeviceSpec::nvidia_a100()));
        forall(
            &res,
            ExecPolicy::default_for(res.vendor()),
            RangeSegment::new(5, 5),
            &[],
            |_, _, _| panic!("must not build a body for an empty segment"),
        )
        .unwrap();
    }
}
