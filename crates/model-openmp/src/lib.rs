//! # mcmm-model-openmp — an OpenMP-target-offload-style frontend
//!
//! OpenMP is "supported on all three platforms — and even for both C++ and
//! Fortran" (§6); it is the paper's portability workhorse. This frontend
//! mirrors the directive surface as a builder:
//!
//! ```text
//! #pragma omp target teams distribute parallel for \
//!         map(to: x[0:n]) map(tofrom: y[0:n]) reduction(+: sum)
//! ```
//!
//! becomes a target region builder with [`MapClause`]s and an optional
//! [`Reduction`]. Each vendor resolves to its compiler route (NVHPC, GCC,
//! Clang, AOMP, icpx, Cray), and — as in the paper — the vendor compilers
//! implement *subsets* of the specification ([`OmpFeature`]): requesting a
//! feature a compiler lacks fails with [`OmpError::UnsupportedFeature`],
//! the executable form of the "some support" rating.

use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_frontend::{DeviceBuffer, ExecutionSession, Frontend, FrontendError};
use mcmm_gpu_sim::device::{Device, KernelArg};
use mcmm_gpu_sim::ir::{AtomicOp, KernelBuilder, Reg, Space, Type};
use std::fmt;
use std::sync::Arc;

pub use mcmm_gpu_sim::ir::{BinOp, CmpOp, UnOp, Value};

/// OpenMP offloading features beyond the baseline (4.5 target offload).
///
/// The per-compiler support sets reflect the paper's description 9/24/38:
/// NVHPC implements "only a subset of the entire OpenMP 5.0 standard";
/// AOMP "most OpenMP 4.5 and some OpenMP 5.0"; Intel "all OpenMP 4.5 and
/// most 5.0/5.1".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OmpFeature {
    /// Baseline `target teams distribute parallel for` (OpenMP 4.5).
    TargetOffload45,
    /// `reduction` clauses on target regions (4.5, but patchy on GPUs).
    TargetReduction,
    /// OpenMP 5.0 `loop` construct.
    LoopConstruct50,
    /// 5.0 unified shared memory requirement.
    UnifiedSharedMemory50,
    /// 5.1 `metadirective`.
    Metadirective51,
}

/// Which features each virtual compiler supports.
fn supported_features(toolchain: &str) -> &'static [OmpFeature] {
    use OmpFeature::*;
    match toolchain {
        // NVHPC: subset of 5.0 — no metadirective, no loop construct.
        "NVIDIA HPC SDK (nvc/nvc++ -mp)" | "NVIDIA HPC SDK (nvfortran -mp)" => {
            &[TargetOffload45, TargetReduction, UnifiedSharedMemory50]
        }
        // GCC: 4.5 complete; 5.x in progress.
        "GCC (-fopenmp -foffload=nvptx-none)"
        | "GCC (gfortran -fopenmp)"
        | "GCC (-fopenmp, amdgcn)" => &[TargetOffload45, TargetReduction],
        // Clang: 4.5 + selected 5.0/5.1.
        "Clang (-fopenmp -fopenmp-targets=nvptx64)" => {
            &[TargetOffload45, TargetReduction, LoopConstruct50]
        }
        // AOMP: most 4.5, some 5.0.
        "AOMP (Clang-based)" | "AOMP (flang -fopenmp)" | "AOMP (NVIDIA target)" => {
            &[TargetOffload45, TargetReduction, LoopConstruct50]
        }
        // Cray: subset of 5.0/5.1.
        "HPE Cray PE (CC -fopenmp)" | "HPE Cray PE (ftn -fopenmp)" => {
            &[TargetOffload45, TargetReduction, LoopConstruct50, Metadirective51]
        }
        // Intel: all 4.5, most 5.0/5.1.
        "Intel oneAPI DPC++/C++ (icpx -qopenmp)" | "Intel Fortran Compiler ifx (-qopenmp)" => &[
            TargetOffload45,
            TargetReduction,
            LoopConstruct50,
            UnifiedSharedMemory50,
            Metadirective51,
        ],
        // LLVM Flang and other minimal routes: baseline only.
        _ => &[TargetOffload45],
    }
}

/// Errors raised by the OpenMP frontend.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are fully specified per variant
pub enum OmpError {
    /// No OpenMP compiler for this vendor/language.
    NoCompiler { vendor: Vendor, language: Language },
    /// The selected compiler lacks a requested feature — the executable
    /// form of the paper's "some support" rating.
    UnsupportedFeature { toolchain: String, feature: OmpFeature },
    /// Runtime/launch failure.
    Runtime(String),
}

impl fmt::Display for OmpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OmpError::NoCompiler { vendor, language } => {
                write!(f, "no OpenMP offload compiler for {language} on {vendor}")
            }
            OmpError::UnsupportedFeature { toolchain, feature } => {
                write!(f, "{toolchain} does not implement {feature:?}")
            }
            OmpError::Runtime(m) => write!(f, "openmp runtime: {m}"),
        }
    }
}

impl std::error::Error for OmpError {}

/// Result alias.
pub type OmpResult<T> = Result<T, OmpError>;

/// A `map` clause direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapDir {
    /// `map(to: …)` — upload only.
    To,
    /// `map(from: …)` — download only.
    From,
    /// `map(tofrom: …)` — upload and download.
    ToFrom,
}

/// One `map(dir: array[0:n])` clause over host `f64` data.
pub struct MapClause<'a> {
    /// Transfer direction.
    pub dir: MapDir,
    /// The host array being mapped.
    pub host: &'a mut [f64],
}

impl<'a> MapClause<'a> {
    /// `map(to: host[0:n])`.
    pub fn to(host: &'a mut [f64]) -> Self {
        Self { dir: MapDir::To, host }
    }
    /// `map(from: host[0:n])`.
    pub fn from(host: &'a mut [f64]) -> Self {
        Self { dir: MapDir::From, host }
    }
    /// `map(tofrom: host[0:n])`.
    pub fn tofrom(host: &'a mut [f64]) -> Self {
        Self { dir: MapDir::ToFrom, host }
    }
}

/// A `reduction(+|min|max : scalar)` clause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reduction {
    /// `reduction(+: …)` with the given initial value.
    Sum(f64),
    /// `reduction(min: …)` with the given initial value.
    Min(f64),
    /// `reduction(max: …)` with the given initial value.
    Max(f64),
}

impl Reduction {
    fn identity(self) -> f64 {
        match self {
            Reduction::Sum(v) | Reduction::Min(v) | Reduction::Max(v) => v,
        }
    }
    fn atomic_op(self) -> AtomicOp {
        match self {
            Reduction::Sum(_) => AtomicOp::Add,
            Reduction::Min(_) => AtomicOp::Min,
            Reduction::Max(_) => AtomicOp::Max,
        }
    }
}

/// The OpenMP device runtime for one device + language — a directive-
/// flavored surface over the shared [`ExecutionSession`] spine.
pub struct OmpDevice {
    session: ExecutionSession,
}

impl OmpDevice {
    /// Bind with the best registered compiler (C++).
    pub fn new(device: Arc<Device>) -> OmpResult<Self> {
        Self::with_language(device, Language::Cpp)
    }

    /// Bind a Fortran OpenMP compiler (description 10/25/39).
    pub fn new_fortran(device: Arc<Device>) -> OmpResult<Self> {
        Self::with_language(device, Language::Fortran)
    }

    fn with_language(device: Arc<Device>, language: Language) -> OmpResult<Self> {
        let session =
            ExecutionSession::open_on(device, Model::OpenMp, language).map_err(|e| match e {
                FrontendError::NoRoute { vendor, language, .. } => {
                    OmpError::NoCompiler { vendor, language }
                }
                other => OmpError::Runtime(other.to_string()),
            })?;
        Ok(Self { session })
    }

    /// Bind a *specific* compiler by toolchain name (for the feature-subset
    /// tests and the ECP-BoF-style comparisons).
    pub fn with_compiler(device: Arc<Device>, toolchain: &str) -> OmpResult<Self> {
        let vendor = mcmm_toolchain::isa_vendor(device.spec().isa);
        for language in [Language::Cpp, Language::Fortran] {
            match ExecutionSession::open_with_toolchain_on(
                Arc::clone(&device),
                Model::OpenMp,
                language,
                toolchain,
            ) {
                Ok(session) => return Ok(Self { session }),
                Err(FrontendError::NoRoute { .. }) => continue,
                Err(other) => return Err(OmpError::Runtime(other.to_string())),
            }
        }
        Err(OmpError::NoCompiler { vendor, language: Language::Cpp })
    }

    /// The resolved toolchain name.
    pub fn toolchain(&self) -> &'static str {
        self.session.toolchain()
    }

    /// The execution-spine session under this runtime.
    pub fn session(&self) -> &ExecutionSession {
        &self.session
    }

    /// Does the bound compiler implement a feature?
    pub fn supports(&self, feature: OmpFeature) -> bool {
        supported_features(self.session.toolchain()).contains(&feature)
    }

    /// Execute a target region:
    /// `#pragma omp target teams distribute parallel for` over `0..n`.
    ///
    /// The body receives the builder, the loop index, and base registers
    /// for each map clause (in order). With a reduction, a final register
    /// (the last base) addresses the 8-byte reduction cell.
    pub fn target_teams_distribute_parallel_for(
        &self,
        n: usize,
        maps: &mut [MapClause<'_>],
        reduction: Option<Reduction>,
        features: &[OmpFeature],
        body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg]),
    ) -> OmpResult<Option<f64>> {
        // Feature gate: baseline + reduction + anything explicitly used.
        let mut needed = vec![OmpFeature::TargetOffload45];
        if reduction.is_some() {
            needed.push(OmpFeature::TargetReduction);
        }
        needed.extend_from_slice(features);
        for f in needed {
            if !self.supports(f) {
                return Err(OmpError::UnsupportedFeature {
                    toolchain: self.session.toolchain().to_owned(),
                    feature: f,
                });
            }
        }

        // Map "to"/"tofrom" data in. Every buffer frees itself on return.
        let mut bufs: Vec<DeviceBuffer<f64>> = Vec::with_capacity(maps.len());
        for m in maps.iter() {
            let buf = self
                .session
                .alloc::<f64>(m.host.len())
                .map_err(|e| OmpError::Runtime(e.to_string()))?;
            if matches!(m.dir, MapDir::To | MapDir::ToFrom) {
                self.session
                    .upload_into(&buf, m.host)
                    .map_err(|e| OmpError::Runtime(e.to_string()))?;
            }
            bufs.push(buf);
        }
        let red_cell = reduction
            .map(|r| self.session.reduction_cell(r.identity()))
            .transpose()
            .map_err(|e| OmpError::Runtime(e.to_string()))?;

        // Build the kernel.
        let mut b = KernelBuilder::new("omp_target_region");
        let mut bases: Vec<Reg> = bufs.iter().map(|_| b.param(Type::I64)).collect();
        if red_cell.is_some() {
            bases.push(b.param(Type::I64));
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

        let mut args: Vec<KernelArg> = bufs.iter().map(DeviceBuffer::arg).collect();
        if let Some(cell) = &red_cell {
            args.push(cell.arg());
        }
        args.push(KernelArg::I32(n as i32));
        self.session
            .run(&kernel, n as u64, 256, &args)
            .map_err(|e| OmpError::Runtime(e.to_string()))?;

        // Map "from"/"tofrom" data out.
        for (m, buf) in maps.iter_mut().zip(&bufs) {
            if matches!(m.dir, MapDir::From | MapDir::ToFrom) {
                let out: Vec<f64> =
                    self.session.download(buf).map_err(|e| OmpError::Runtime(e.to_string()))?;
                m.host.copy_from_slice(&out);
            }
        }
        red_cell
            .map(|cell| self.session.read_cell(&cell))
            .transpose()
            .map_err(|e| OmpError::Runtime(e.to_string()))
    }

    /// Open a persistent `#pragma omp target data` region: arrays stay
    /// resident across multiple target regions (what BabelStream-style
    /// codes do).
    pub fn target_data(&self) -> TargetData<'_> {
        TargetData { omp: self, arrays: Vec::new() }
    }

    /// Atomic reduction helper for bodies: `reduction_cell += v`.
    pub fn atomic_reduce(b: &mut KernelBuilder, red: Reduction, cell: Reg, v: Reg) {
        let _ = b.atomic(red.atomic_op(), Space::Global, cell, v);
    }
}

/// A persistent `#pragma omp target data` region. Arrays mapped into the
/// region stay on the device across [`TargetData::parallel_for`] calls;
/// [`TargetData::update_from`] mirrors `#pragma omp target update from`.
/// Dropping the region frees its arrays.
pub struct TargetData<'a> {
    omp: &'a OmpDevice,
    arrays: Vec<DeviceBuffer<f64>>,
}

impl<'a> TargetData<'a> {
    /// `map(to: data[0:n])` — upload; returns the array's region index.
    pub fn map_to(&mut self, data: &[f64]) -> OmpResult<usize> {
        let index = self.map_alloc(data.len())?;
        self.omp
            .session
            .upload_into(&self.arrays[index], data)
            .map_err(|e| OmpError::Runtime(e.to_string()))?;
        Ok(index)
    }

    /// `map(alloc: …[0:n])` — device-only allocation.
    pub fn map_alloc(&mut self, len: usize) -> OmpResult<usize> {
        let buf =
            self.omp.session.alloc::<f64>(len).map_err(|e| OmpError::Runtime(e.to_string()))?;
        self.arrays.push(buf);
        Ok(self.arrays.len() - 1)
    }

    /// A target region over `0..n` inside this data region: the body gets
    /// base registers for every mapped array, in mapping order. Returns
    /// the launch's modeled report.
    pub fn parallel_for(
        &self,
        n: usize,
        body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg]),
    ) -> OmpResult<mcmm_gpu_sim::device::LaunchReport> {
        let mut b = KernelBuilder::new("omp_target_region");
        let bases: Vec<Reg> = self.arrays.iter().map(|_| b.param(Type::I64)).collect();
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
        let mut args: Vec<KernelArg> = self.arrays.iter().map(DeviceBuffer::arg).collect();
        args.push(KernelArg::I32(n as i32));
        self.omp
            .session
            .run(&kernel, n as u64, 256, &args)
            .map_err(|e| OmpError::Runtime(e.to_string()))
    }

    /// `#pragma omp target update from(...)` — read an array back.
    pub fn update_from(&self, index: usize) -> OmpResult<Vec<f64>> {
        self.omp.session.download(&self.arrays[index]).map_err(|e| OmpError::Runtime(e.to_string()))
    }

    /// Close the region, freeing device memory (as dropping it does).
    pub fn close(self) {}
}

/// The OpenMP column as a spine [`Frontend`] (§6: "supported on all three
/// platforms — and even for both C++ and Fortran").
pub struct OpenMpFrontend;

impl Frontend for OpenMpFrontend {
    fn model(&self) -> Model {
        Model::OpenMp
    }

    fn open(&self, vendor: Vendor) -> Result<ExecutionSession, FrontendError> {
        ExecutionSession::open(Model::OpenMp, Language::Cpp, vendor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmm_gpu_sim::DeviceSpec;

    #[test]
    fn target_data_region_keeps_arrays_resident() {
        let omp = OmpDevice::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        let mut region = omp.target_data();
        let a = region.map_to(&vec![1.0; 64]).unwrap();
        let b = region.map_alloc(64).unwrap();
        // Two successive regions over the same device arrays.
        region
            .parallel_for(64, |k, i, p| {
                let v = k.ld_elem(Space::Global, Type::F64, p[0], i);
                let w = k.bin(BinOp::Mul, v, Value::F64(3.0));
                k.st_elem(Space::Global, p[1], i, w);
            })
            .unwrap();
        region
            .parallel_for(64, |k, i, p| {
                let v = k.ld_elem(Space::Global, Type::F64, p[1], i);
                let w = k.bin(BinOp::Add, v, Value::F64(1.0));
                k.st_elem(Space::Global, p[1], i, w);
            })
            .unwrap();
        let out = region.update_from(b).unwrap();
        assert!(out.iter().all(|&v| v == 4.0));
        let unchanged = region.update_from(a).unwrap();
        assert!(unchanged.iter().all(|&v| v == 1.0));
        region.close();
    }

    #[test]
    fn openmp_offload_works_on_all_vendors_in_both_languages() {
        // §6: "OpenMP … is supported on all three platforms — and even for
        // both C++ and Fortran."
        for spec in DeviceSpec::presets() {
            for fortran in [false, true] {
                let dev = Device::new(spec.clone());
                let omp = if fortran {
                    OmpDevice::new_fortran(dev).unwrap()
                } else {
                    OmpDevice::new(dev).unwrap()
                };
                let n = 512;
                let mut x: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let mut y = vec![1.0f64; n];
                let mut maps = [MapClause::to(&mut x), MapClause::tofrom(&mut y)];
                omp.target_teams_distribute_parallel_for(n, &mut maps, None, &[], |b, i, p| {
                    let xv = b.ld_elem(Space::Global, Type::F64, p[0], i);
                    let yv = b.ld_elem(Space::Global, Type::F64, p[1], i);
                    let ax = b.bin(BinOp::Mul, xv, Value::F64(2.0));
                    let s = b.bin(BinOp::Add, ax, yv);
                    b.st_elem(Space::Global, p[1], i, s);
                })
                .unwrap();
                for (i, v) in y.iter().enumerate() {
                    assert_eq!(*v, 2.0 * i as f64 + 1.0, "{} fortran={fortran}", spec.name);
                }
            }
        }
    }

    #[test]
    fn reduction_sums_correctly() {
        let omp = OmpDevice::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        let n = 1000;
        let mut x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut maps = [MapClause::to(&mut x)];
        let sum = omp
            .target_teams_distribute_parallel_for(
                n,
                &mut maps,
                Some(Reduction::Sum(0.0)),
                &[],
                |b, i, p| {
                    let xv = b.ld_elem(Space::Global, Type::F64, p[0], i);
                    OmpDevice::atomic_reduce(b, Reduction::Sum(0.0), p[1], xv);
                },
            )
            .unwrap()
            .unwrap();
        assert_eq!(sum, (0..n).map(|i| i as f64).sum::<f64>());
    }

    #[test]
    fn min_max_reductions() {
        let omp = OmpDevice::new(Device::new(DeviceSpec::amd_mi250x())).unwrap();
        let n = 256;
        let mut x: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64).collect();
        x[77] = -5.0;
        let expected_min = -5.0;
        let mut maps = [MapClause::to(&mut x)];
        let min = omp
            .target_teams_distribute_parallel_for(
                n,
                &mut maps,
                Some(Reduction::Min(f64::INFINITY)),
                &[],
                |b, i, p| {
                    let xv = b.ld_elem(Space::Global, Type::F64, p[0], i);
                    OmpDevice::atomic_reduce(b, Reduction::Min(0.0), p[1], xv);
                },
            )
            .unwrap()
            .unwrap();
        assert_eq!(min, expected_min);
    }

    #[test]
    fn feature_subsets_match_descriptions() {
        // NVHPC: no 5.0 loop construct (subset of 5.0) — "some support".
        let nv = OmpDevice::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        assert_eq!(nv.toolchain(), "NVIDIA HPC SDK (nvc/nvc++ -mp)");
        assert!(nv.supports(OmpFeature::TargetOffload45));
        assert!(!nv.supports(OmpFeature::LoopConstruct50));
        // Intel: full coverage including metadirective.
        let intel = OmpDevice::new(Device::new(DeviceSpec::intel_pvc())).unwrap();
        assert!(intel.supports(OmpFeature::Metadirective51));
    }

    #[test]
    fn missing_feature_fails_the_compile() {
        let nv = OmpDevice::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        let mut x = vec![0.0f64; 8];
        let mut maps = [MapClause::tofrom(&mut x)];
        let err = nv
            .target_teams_distribute_parallel_for(
                8,
                &mut maps,
                None,
                &[OmpFeature::Metadirective51],
                |_, _, _| {},
            )
            .unwrap_err();
        match err {
            OmpError::UnsupportedFeature { feature, .. } => {
                assert_eq!(feature, OmpFeature::Metadirective51);
            }
            other => panic!("expected UnsupportedFeature, got {other:?}"),
        }
    }

    #[test]
    fn specific_compilers_can_be_requested() {
        // The ECP BoF comparison style: same region, different compilers.
        let dev = Device::new(DeviceSpec::nvidia_a100());
        for tc in [
            "NVIDIA HPC SDK (nvc/nvc++ -mp)",
            "GCC (-fopenmp -foffload=nvptx-none)",
            "Clang (-fopenmp -fopenmp-targets=nvptx64)",
            "AOMP (NVIDIA target)",
            "HPE Cray PE (CC -fopenmp)",
        ] {
            let omp = OmpDevice::with_compiler(Arc::clone(&dev), tc).unwrap();
            assert_eq!(omp.toolchain(), tc);
            let mut x = vec![1.0f64; 64];
            let mut maps = [MapClause::tofrom(&mut x)];
            omp.target_teams_distribute_parallel_for(64, &mut maps, None, &[], |b, i, p| {
                let v = b.ld_elem(Space::Global, Type::F64, p[0], i);
                let w = b.bin(BinOp::Add, v, Value::F64(1.0));
                b.st_elem(Space::Global, p[0], i, w);
            })
            .unwrap();
            assert!(x.iter().all(|&v| v == 2.0), "{tc}");
        }
    }

    #[test]
    fn map_from_writes_without_reading_garbage() {
        let omp = OmpDevice::new(Device::new(DeviceSpec::intel_pvc())).unwrap();
        let mut out = vec![-1.0f64; 32];
        let mut maps = [MapClause::from(&mut out)];
        omp.target_teams_distribute_parallel_for(32, &mut maps, None, &[], |b, i, p| {
            let iv = b.cvt(Type::F64, i);
            b.st_elem(Space::Global, p[0], i, iv);
        })
        .unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
    }
}
