//! # mcmm-model-python — the "etc (Python)" column
//!
//! Python reaches GPUs through per-vendor package stacks (descriptions 17,
//! 30, 44): CUDA Python / CuPy / Numba on NVIDIA, the experimental
//! CuPy-ROCm / PyHIP stack on AMD, and Intel's dpctl / numba-dpex / dpnp.
//! This frontend models the two defining properties of that ecosystem:
//!
//! * **Dynamic typing** — [`PyArray`] carries its dtype at runtime
//!   ([`DType`]); elementwise operations type-check dynamically and raise
//!   [`PyError::TypeError`], not compile errors.
//! * **Package availability per platform** — [`PyRuntime::import_`]
//!   succeeds or raises [`PyError::ImportError`] according to the matrix
//!   (e.g. `import cupy` works on NVIDIA, warns-but-works on ROCm, fails
//!   on Intel; `import dpnp` only works on Intel).
//!
//! Operations are JIT-built to kernel IR and launched through the
//! vendor's Python-route toolchain — exactly how CuPy/dpnp wrap native
//! runtimes underneath (the paper: Python "relies on backends in
//! lower-level languages").

use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_frontend::{Element, ExecutionSession, Frontend, FrontendError};
use mcmm_gpu_sim::device::{Device, KernelArg};
use mcmm_gpu_sim::ir::{BinOp, CmpOp, KernelBuilder, Space, Type};
use mcmm_gpu_sim::mem::DevicePtr;
use std::fmt;
use std::sync::Arc;

pub use mcmm_gpu_sim::ir::Value;

/// NumPy-style dtypes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    /// `numpy.float32`.
    Float32,
    /// `numpy.float64`.
    Float64,
    /// `numpy.int32`.
    Int32,
    /// `numpy.int64`.
    Int64,
}

impl DType {
    fn ir_type(self) -> Type {
        match self {
            DType::Float32 => Type::F32,
            DType::Float64 => Type::F64,
            DType::Int32 => Type::I32,
            DType::Int64 => Type::I64,
        }
    }

    /// NumPy type-promotion for binary ops (subset).
    pub fn promote(self, other: DType) -> DType {
        use DType::*;
        match (self, other) {
            (Float64, _) | (_, Float64) => Float64,
            (Float32, _) | (_, Float32) => Float32,
            (Int64, _) | (_, Int64) => Int64,
            _ => Int32,
        }
    }

    /// The NumPy dtype name.
    pub fn name(self) -> &'static str {
        match self {
            DType::Float32 => "float32",
            DType::Float64 => "float64",
            DType::Int32 => "int32",
            DType::Int64 => "int64",
        }
    }
}

/// Python-style exceptions.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are fully specified per variant
pub enum PyError {
    /// `ImportError: no module named ...` — the package is not available
    /// on this platform (or is unmaintained).
    ImportError { package: String, vendor: Vendor, reason: String },
    /// `TypeError` — dynamic dtype/shape mismatch.
    TypeError(String),
    /// `RuntimeError`.
    RuntimeError(String),
}

impl fmt::Display for PyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PyError::ImportError { package, vendor, reason } => {
                write!(f, "ImportError: no usable module '{package}' on {vendor}: {reason}")
            }
            PyError::TypeError(m) => write!(f, "TypeError: {m}"),
            PyError::RuntimeError(m) => write!(f, "RuntimeError: {m}"),
        }
    }
}

impl std::error::Error for PyError {}

/// Result alias.
pub type PyResult<T> = Result<T, PyError>;

/// The Python packages the paper's descriptions 17/30/44 cover, with their
/// registry toolchain names per vendor.
fn package_toolchain(package: &str, vendor: Vendor) -> Option<&'static str> {
    match (package, vendor) {
        ("cuda-python", Vendor::Nvidia) => Some("CUDA Python"),
        ("cupy", Vendor::Nvidia) => Some("CuPy"),
        ("cupy", Vendor::Amd) => Some("CuPy (ROCm, experimental)"),
        ("pycuda", Vendor::Nvidia) => Some("PyCUDA"),
        ("numba", Vendor::Nvidia) => Some("Numba (CUDA target)"),
        ("numba", Vendor::Amd) => Some("Numba (ROCm target)"),
        ("cunumeric", Vendor::Nvidia) => Some("cuNumeric"),
        ("pyhip-interface", Vendor::Amd) => Some("PyHIP"),
        ("pyopencl", Vendor::Amd) => Some("PyOpenCL"),
        ("dpctl", Vendor::Intel) => Some("dpctl"),
        ("numba-dpex", Vendor::Intel) => Some("numba-dpex"),
        ("dpnp", Vendor::Intel) => Some("dpnp"),
        _ => None,
    }
}

/// A typed element with a NumPy dtype — ties the spine's [`Element`]
/// transfer path to the runtime [`DType`] tag carried by [`PyArray`].
pub trait PyElement: Element {
    /// The NumPy dtype this element type maps to.
    const DTYPE: DType;
}

impl PyElement for f32 {
    const DTYPE: DType = DType::Float32;
}

impl PyElement for f64 {
    const DTYPE: DType = DType::Float64;
}

/// A Python runtime bound to one device — `python` with the platform's
/// GPU stack installed, layered over the shared [`ExecutionSession`].
pub struct PyRuntime {
    session: ExecutionSession,
    /// Which package is serving as the array backend.
    pub backend_package: String,
}

/// Map a spine refusal to a Python `ImportError` for `package`.
fn import_error(package: &str, e: FrontendError) -> PyError {
    match e {
        FrontendError::NoRoute { vendor, detail, .. } => {
            PyError::ImportError { package: package.to_owned(), vendor, reason: detail }
        }
        FrontendError::Discontinued { vendor, .. } => PyError::ImportError {
            package: package.to_owned(),
            vendor,
            reason: "package is unmaintained (paper §5 'Topicality')".into(),
        },
        other => PyError::RuntimeError(other.to_string()),
    }
}

impl PyRuntime {
    /// Start a runtime with the platform's default array package
    /// (CuPy on NVIDIA, CuPy-ROCm on AMD, dpnp on Intel).
    pub fn new(device: Arc<Device>) -> PyResult<Self> {
        let vendor = mcmm_toolchain::isa_vendor(device.spec().isa);
        let package = match vendor {
            Vendor::Nvidia | Vendor::Amd => "cupy",
            Vendor::Intel => "dpnp",
        };
        Self::with_package(device, package)
    }

    /// `import <package>` and use it as the array backend.
    pub fn with_package(device: Arc<Device>, package: &str) -> PyResult<Self> {
        let session = import_session(Arc::clone(&device), package)?;
        Ok(Self { session, backend_package: package.to_owned() })
    }

    /// `import <package>` — checks availability without rebinding.
    pub fn import_(&self, package: &str) -> PyResult<()> {
        import_session(Arc::clone(self.session.device()), package).map(|_| ())
    }

    /// The execution-spine session under this runtime.
    pub fn session(&self) -> &ExecutionSession {
        &self.session
    }

    /// `cupy.asarray(host)` — upload, tagging the array with the dtype of
    /// the host slice. One generic path; the `_f32`/`_f64` names are
    /// deprecated sugar over it.
    pub fn asarray<T: PyElement>(&self, data: &[T]) -> PyResult<PyArray> {
        let ptr = self
            .session
            .alloc_bytes((data.len() * T::BYTES) as u64)
            .map_err(|e| PyError::RuntimeError(e.to_string()))?;
        self.session.upload_raw(ptr, data).map_err(|e| PyError::RuntimeError(e.to_string()))?;
        Ok(PyArray { ptr, len: data.len(), dtype: T::DTYPE })
    }

    /// `cupy.asarray(host)` for `float64`.
    #[deprecated(since = "0.1.0", note = "use the generic `asarray` instead")]
    pub fn asarray_f64(&self, data: &[f64]) -> PyResult<PyArray> {
        self.asarray(data)
    }

    /// `cupy.asarray(host, dtype=float32)`.
    #[deprecated(since = "0.1.0", note = "use the generic `asarray` instead")]
    pub fn asarray_f32(&self, data: &[f32]) -> PyResult<PyArray> {
        self.asarray(data)
    }

    /// `cupy.zeros(n, dtype)`.
    pub fn zeros(&self, n: usize, dtype: DType) -> PyResult<PyArray> {
        match dtype {
            DType::Float64 => self.asarray(&vec![0.0f64; n]),
            DType::Float32 => self.asarray(&vec![0.0f32; n]),
            other => Err(PyError::TypeError(format!("zeros: unsupported dtype {}", other.name()))),
        }
    }

    /// Elementwise binary op (`a + b`, `a * b`, …) with NumPy promotion.
    pub fn elementwise(&self, op: BinOp, a: &PyArray, b: &PyArray) -> PyResult<PyArray> {
        if a.len != b.len {
            return Err(PyError::TypeError(format!(
                "operands could not be broadcast together: {} vs {}",
                a.len, b.len
            )));
        }
        let out_dtype = a.dtype.promote(b.dtype);
        if out_dtype != a.dtype || out_dtype != b.dtype {
            return Err(PyError::TypeError(format!(
                "implicit promotion {} vs {} not supported by this backend; cast first",
                a.dtype.name(),
                b.dtype.name()
            )));
        }
        let out = self.zeros(a.len, out_dtype)?;
        let ty = out_dtype.ir_type();
        let mut k = KernelBuilder::new("py_elementwise");
        let pa = k.param(Type::I64);
        let pb = k.param(Type::I64);
        let po = k.param(Type::I64);
        let n = k.param(Type::I32);
        let i = k.global_thread_id_x();
        let ok = k.cmp(CmpOp::Lt, i, n);
        k.if_(ok, |k| {
            let va = k.ld_elem(Space::Global, ty, pa, i);
            let vb = k.ld_elem(Space::Global, ty, pb, i);
            let vo = k.bin(op, va, vb);
            k.st_elem(Space::Global, po, i, vo);
        });
        self.launch(&k.finish(), a.len, &[a.ptr, b.ptr, out.ptr])?;
        Ok(out)
    }

    /// `arr.copy()` — an explicit device-side copy into a new array.
    pub fn copy(&self, a: &PyArray) -> PyResult<PyArray> {
        let out = self.zeros(a.len, a.dtype)?;
        let ty = a.dtype.ir_type();
        let mut k = KernelBuilder::new("py_copy");
        let pa = k.param(Type::I64);
        let po = k.param(Type::I64);
        let n = k.param(Type::I32);
        let i = k.global_thread_id_x();
        let ok = k.cmp(CmpOp::Lt, i, n);
        k.if_(ok, |k| {
            let v = k.ld_elem(Space::Global, ty, pa, i);
            k.st_elem(Space::Global, po, i, v);
        });
        self.launch(&k.finish(), a.len, &[a.ptr, out.ptr])?;
        Ok(out)
    }

    /// `alpha * arr` — scalar multiplication producing a new array
    /// (f64 arrays), the NumPy broadcast idiom with its temporary.
    pub fn scalar_mul(&self, alpha: f64, a: &PyArray) -> PyResult<PyArray> {
        if a.dtype != DType::Float64 {
            return Err(PyError::TypeError(format!(
                "scalar_mul: expected float64, got {}",
                a.dtype.name()
            )));
        }
        let out = self.zeros(a.len, a.dtype)?;
        let mut k = KernelBuilder::new("py_scalar_mul");
        let pa = k.param(Type::I64);
        let po = k.param(Type::I64);
        let alpha_p = k.param(Type::F64);
        let n = k.param(Type::I32);
        let i = k.global_thread_id_x();
        let ok = k.cmp(CmpOp::Lt, i, n);
        k.if_(ok, |k| {
            let v = k.ld_elem(Space::Global, Type::F64, pa, i);
            let w = k.bin(BinOp::Mul, v, alpha_p);
            k.st_elem(Space::Global, po, i, w);
        });
        // scalar_mul has an extra f64 argument between the pointers and n.
        let args = [
            KernelArg::Ptr(a.ptr),
            KernelArg::Ptr(out.ptr),
            KernelArg::F64(alpha),
            KernelArg::I32(a.len as i32),
        ];
        self.session
            .run(&k.finish(), a.len as u64, 256, &args)
            .map_err(|e| PyError::RuntimeError(e.to_string()))?;
        Ok(out)
    }

    /// `arr.sum()` — reduction to a host scalar (f64 arrays).
    pub fn sum(&self, a: &PyArray) -> PyResult<f64> {
        if a.dtype != DType::Float64 {
            return Err(PyError::TypeError(format!(
                "sum: expected float64, got {}",
                a.dtype.name()
            )));
        }
        let cell =
            self.session.alloc::<f64>(1).map_err(|e| PyError::RuntimeError(e.to_string()))?;
        self.session
            .device()
            .memory()
            .store(cell.ptr().0, Value::F64(0.0))
            .map_err(|e| PyError::RuntimeError(e.to_string()))?;
        let mut k = KernelBuilder::new("py_sum");
        let pa = k.param(Type::I64);
        let pc = k.param(Type::I64);
        let n = k.param(Type::I32);
        let i = k.global_thread_id_x();
        let ok = k.cmp(CmpOp::Lt, i, n);
        k.if_(ok, |k| {
            let v = k.ld_elem(Space::Global, Type::F64, pa, i);
            let _ = k.atomic(mcmm_gpu_sim::ir::AtomicOp::Add, Space::Global, pc, v);
        });
        self.launch(&k.finish(), a.len, &[a.ptr, cell.ptr()])?;
        let out = self
            .session
            .device()
            .memory()
            .load(Type::F64, cell.ptr().0)
            .map_err(|e| PyError::RuntimeError(e.to_string()))?;
        match out {
            Value::F64(x) => Ok(x),
            _ => unreachable!("sum cell is f64"),
        }
    }

    /// `cupy.asnumpy(arr)` — download to host, checking the runtime dtype
    /// against the requested element type.
    pub fn asnumpy<T: PyElement>(&self, a: &PyArray) -> PyResult<Vec<T>> {
        if a.dtype != T::DTYPE {
            return Err(PyError::TypeError(format!(
                "asnumpy: array is {}, requested {}",
                a.dtype.name(),
                T::DTYPE.name()
            )));
        }
        self.session.download_raw(a.ptr, a.len).map_err(|e| PyError::RuntimeError(e.to_string()))
    }

    /// `cupy.asnumpy(arr)` for `float64`.
    #[deprecated(since = "0.1.0", note = "use the generic `asnumpy` instead")]
    pub fn asnumpy_f64(&self, a: &PyArray) -> PyResult<Vec<f64>> {
        self.asnumpy(a)
    }

    fn launch(
        &self,
        kernel: &mcmm_gpu_sim::ir::KernelIr,
        n: usize,
        ptrs: &[DevicePtr],
    ) -> PyResult<()> {
        let mut args: Vec<KernelArg> = ptrs.iter().map(|&p| KernelArg::Ptr(p)).collect();
        args.push(KernelArg::I32(n as i32));
        self.session
            .run(kernel, n as u64, 256, &args)
            .map(|_| ())
            .map_err(|e| PyError::RuntimeError(e.to_string()))
    }
}

fn import_session(device: Arc<Device>, package: &str) -> PyResult<ExecutionSession> {
    let vendor = mcmm_toolchain::isa_vendor(device.spec().isa);
    let toolchain = package_toolchain(package, vendor).ok_or_else(|| PyError::ImportError {
        package: package.to_owned(),
        vendor,
        reason: "package does not exist for this platform".into(),
    })?;
    ExecutionSession::open_with_toolchain_on(device, Model::Python, Language::Python, toolchain)
        .map_err(|e| import_error(package, e))
}

/// The "etc (Python)" column as a spine [`Frontend`] (§6: "well-supported
/// by all three platforms").
pub struct PythonFrontend;

impl Frontend for PythonFrontend {
    fn model(&self) -> Model {
        Model::Python
    }

    fn language(&self) -> Language {
        Language::Python
    }

    fn open(&self, vendor: Vendor) -> Result<ExecutionSession, FrontendError> {
        ExecutionSession::open(Model::Python, Language::Python, vendor)
    }
}

/// A device array with runtime dtype — the `cupy.ndarray`/`dpnp.ndarray`
/// analogue (rank 1).
#[derive(Debug)]
pub struct PyArray {
    ptr: DevicePtr,
    len: usize,
    /// Runtime dtype.
    pub dtype: DType,
}

impl PyArray {
    /// `len(arr)`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `len(arr) == 0`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmm_gpu_sim::DeviceSpec;

    #[test]
    fn numpy_style_arithmetic_on_all_vendors() {
        // §6: "Python … is also well-supported by all three platforms."
        for spec in DeviceSpec::presets() {
            let name = spec.name;
            let py = PyRuntime::new(Device::new(spec)).unwrap();
            let a = py.asarray(&[1.0, 2.0, 3.0, 4.0]).unwrap();
            let b = py.asarray(&[10.0, 20.0, 30.0, 40.0]).unwrap();
            let c = py.elementwise(BinOp::Add, &a, &b).unwrap();
            assert_eq!(py.asnumpy::<f64>(&c).unwrap(), vec![11.0, 22.0, 33.0, 44.0], "{name}");
            let d = py.elementwise(BinOp::Mul, &a, &b).unwrap();
            assert_eq!(py.asnumpy::<f64>(&d).unwrap(), vec![10.0, 40.0, 90.0, 160.0], "{name}");
        }
    }

    #[test]
    fn default_backends_per_vendor() {
        let nv = PyRuntime::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        assert_eq!(nv.backend_package, "cupy");
        let amd = PyRuntime::new(Device::new(DeviceSpec::amd_mi250x())).unwrap();
        assert_eq!(amd.backend_package, "cupy"); // cupy-rocm, experimental
        let intel = PyRuntime::new(Device::new(DeviceSpec::intel_pvc())).unwrap();
        assert_eq!(intel.backend_package, "dpnp");
    }

    #[test]
    fn import_availability_matches_matrix() {
        let nv = PyRuntime::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        nv.import_("cuda-python").unwrap();
        nv.import_("numba").unwrap();
        nv.import_("cunumeric").unwrap();
        assert!(matches!(nv.import_("dpnp"), Err(PyError::ImportError { .. })));

        let amd = PyRuntime::new(Device::new(DeviceSpec::amd_mi250x())).unwrap();
        amd.import_("pyhip-interface").unwrap();
        amd.import_("pyopencl").unwrap();
        // Description 30: Numba's ROCm target "is not maintained anymore".
        match amd.import_("numba") {
            Err(PyError::ImportError { reason, .. }) => assert!(reason.contains("unmaintained")),
            other => panic!("expected ImportError, got {other:?}"),
        }

        let intel = PyRuntime::new(Device::new(DeviceSpec::intel_pvc())).unwrap();
        intel.import_("dpctl").unwrap();
        intel.import_("numba-dpex").unwrap();
        assert!(matches!(intel.import_("cupy"), Err(PyError::ImportError { .. })));
    }

    #[test]
    fn dynamic_type_errors() {
        let py = PyRuntime::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        let a = py.asarray(&[1.0, 2.0]).unwrap();
        let b = py.asarray(&[1.0, 2.0, 3.0]).unwrap();
        match py.elementwise(BinOp::Add, &a, &b) {
            Err(PyError::TypeError(m)) => assert!(m.contains("broadcast")),
            other => panic!("expected TypeError, got {other:?}"),
        }
        let c = py.asarray(&[1.0f32, 2.0]).unwrap();
        assert!(matches!(py.elementwise(BinOp::Add, &a, &c), Err(PyError::TypeError(_))));
    }

    #[test]
    fn sum_reduction() {
        let py = PyRuntime::new(Device::new(DeviceSpec::intel_pvc())).unwrap();
        let a = py.asarray(&(0..100).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(py.sum(&a).unwrap(), 4950.0);
        let f32arr = py.asarray(&[1.0f32]).unwrap();
        assert!(matches!(py.sum(&f32arr), Err(PyError::TypeError(_))));
    }

    #[test]
    #[allow(deprecated)]
    fn deprecated_asarray_names_still_work() {
        let py = PyRuntime::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        let a = py.asarray_f64(&[1.0, 2.0]).unwrap();
        assert_eq!(py.asnumpy_f64(&a).unwrap(), vec![1.0, 2.0]);
        let b = py.asarray_f32(&[1.0, 2.0]).unwrap();
        assert_eq!(b.dtype, DType::Float32);
    }

    #[test]
    fn dtype_promotion_table() {
        assert_eq!(DType::Float32.promote(DType::Float64), DType::Float64);
        assert_eq!(DType::Int32.promote(DType::Int64), DType::Int64);
        assert_eq!(DType::Int64.promote(DType::Float32), DType::Float32);
        assert_eq!(DType::Int32.promote(DType::Int32), DType::Int32);
    }

    #[test]
    fn f32_arrays_work_end_to_end() {
        let py = PyRuntime::new(Device::new(DeviceSpec::amd_mi250x())).unwrap();
        let a = py.asarray(&[1.5f32, 2.5]).unwrap();
        let b = py.asarray(&[0.5f32, 0.5]).unwrap();
        let c = py.elementwise(BinOp::Sub, &a, &b).unwrap();
        assert_eq!(c.dtype, DType::Float32);
        // Read back as f32 through the device API.
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }
}
