//! # mcmm-model-stdpar — standard-language parallelism
//!
//! "Standard language parallelism appears to be the model with the fastest
//! change at the moment" (§6). This frontend mirrors both surfaces the
//! paper tracks (descriptions 11, 12, 26, 27, 40, 41):
//!
//! * **C++ parallel STL** — [`DeviceVec`] plus offloaded algorithms
//!   (`for_each`, `transform`, `reduce`, `inclusive_scan`) under an
//!   execution policy ([`par_unseq`]). Vendor coverage follows the matrix:
//!   NVIDIA full (`nvc++ -stdpar=gpu`), Intel through oneDPL (note the
//!   **custom namespace** — our policy carries `namespace_note`), AMD only
//!   through experimental venues (roc-stdpar; expect reduced efficiency).
//! * **Fortran `do concurrent`** — [`do_concurrent`]: supported on NVIDIA
//!   (nvfortran) and Intel (ifx), **nowhere on AMD** (description 27
//!   returns [`StdparError::NoSupport`]).

use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_frontend::{DeviceBuffer, ExecutionSession, Frontend, FrontendError};
use mcmm_gpu_sim::device::{Device, KernelArg};
use mcmm_gpu_sim::ir::{AtomicOp, KernelBuilder, Reg, Type};
use mcmm_gpu_sim::mem::DevicePtr;
use std::fmt;
use std::sync::Arc;

pub use mcmm_gpu_sim::ir::{BinOp, CmpOp, Space, UnOp, Value};

/// Errors raised by the stdpar frontend.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are fully specified per variant
pub enum StdparError {
    /// No standard-parallelism route on this platform/language —
    /// description 27 (AMD Fortran) is the canonical case.
    NoSupport { vendor: Vendor, language: Language },
    /// Runtime failure.
    Runtime(String),
}

impl fmt::Display for StdparError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StdparError::NoSupport { vendor, language } => {
                write!(f, "no standard-parallelism offload for {language} on {vendor} GPUs")
            }
            StdparError::Runtime(m) => write!(f, "stdpar runtime: {m}"),
        }
    }
}

impl std::error::Error for StdparError {}

/// Result alias.
pub type StdparResult<T> = Result<T, StdparError>;

/// An execution policy bound to a device (``std::execution::par_unseq``
/// with offload, as `-stdpar=gpu` interprets it) — a pSTL-flavored surface
/// over the shared [`ExecutionSession`] spine.
pub struct Policy {
    session: ExecutionSession,
    /// Intel's oneDPL keeps pSTL in `oneapi::dpl::` rather than `std::`
    /// (§5 "ambivalence") — surfaced so callers can see the caveat.
    pub namespace_note: Option<&'static str>,
}

/// Construct the offloading policy for a device (C++ surface).
pub fn par_unseq(device: Arc<Device>) -> StdparResult<Policy> {
    let session =
        ExecutionSession::open_on(device, Model::Standard, Language::Cpp).map_err(|e| match e {
            FrontendError::NoRoute { vendor, language, .. } => {
                StdparError::NoSupport { vendor, language }
            }
            other => StdparError::Runtime(other.to_string()),
        })?;
    let namespace_note = (session.vendor() == Vendor::Intel)
        .then_some("algorithms live in oneapi::dpl::, not std:: (paper §5)");
    Ok(Policy { session, namespace_note })
}

impl Policy {
    /// The resolved toolchain.
    pub fn toolchain(&self) -> &'static str {
        self.session.toolchain()
    }

    /// The route efficiency (AMD's experimental venues pay a penalty).
    pub fn efficiency(&self) -> f64 {
        self.session.efficiency()
    }

    /// The execution-spine session under this policy.
    pub fn session(&self) -> &ExecutionSession {
        &self.session
    }

    fn run(
        &self,
        n: usize,
        arrays: &[DevicePtr],
        extra: &[KernelArg],
        body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg]),
    ) -> StdparResult<()> {
        let mut b = KernelBuilder::new("stdpar_algorithm");
        let bases: Vec<Reg> = arrays.iter().map(|_| b.param(Type::I64)).collect();
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
        let mut args: Vec<KernelArg> = arrays.iter().map(|&p| KernelArg::Ptr(p)).collect();
        args.extend_from_slice(extra);
        args.push(KernelArg::I32(n as i32));
        self.session
            .run(&kernel, n as u64, 256, &args)
            .map(|_| ())
            .map_err(|e| StdparError::Runtime(e.to_string()))
    }

    /// `std::for_each(policy, v.begin(), v.end(), f)` — `f` mutates
    /// elements in place via the builder.
    pub fn for_each(
        &self,
        v: &mut DeviceVec,
        body: impl FnOnce(&mut KernelBuilder, Reg, Reg),
    ) -> StdparResult<()> {
        self.run(v.len(), &[v.buf.ptr()], &[], |b, i, bases| body(b, i, bases[0]))
    }

    /// The counted, multi-range form — `std::for_each_n` over a zip of
    /// device vectors, as BabelStream's stdpar variant writes it with
    /// `views::iota` indices. The body receives base registers in `vs`
    /// order.
    pub fn for_each_zip(
        &self,
        n: usize,
        vs: &[&DeviceVec],
        body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg]),
    ) -> StdparResult<()> {
        let ptrs: Vec<DevicePtr> = vs.iter().map(|v| v.buf.ptr()).collect();
        self.run(n, &ptrs, &[], body)
    }

    /// `std::transform(policy, in.begin(), in.end(), out.begin(), f)`.
    pub fn transform(
        &self,
        input: &DeviceVec,
        output: &mut DeviceVec,
        body: impl FnOnce(&mut KernelBuilder, Reg) -> Reg,
    ) -> StdparResult<()> {
        assert_eq!(input.len(), output.len(), "transform length mismatch");
        self.run(input.len(), &[input.buf.ptr(), output.buf.ptr()], &[], |b, i, bases| {
            let x = b.ld_elem(Space::Global, Type::F64, bases[0], i);
            let y = body(b, x);
            b.st_elem(Space::Global, bases[1], i, y);
        })
    }

    /// `std::reduce(policy, v.begin(), v.end(), init)` — atomic-add tree.
    pub fn reduce(&self, v: &DeviceVec, init: f64) -> StdparResult<f64> {
        let cell =
            self.session.reduction_cell(init).map_err(|e| StdparError::Runtime(e.to_string()))?;
        self.run(v.len(), &[v.buf.ptr()], &[cell.arg()], |b, i, bases| {
            let x = b.ld_elem(Space::Global, Type::F64, bases[0], i);
            let cell_reg = mcmm_gpu_sim::ir::Reg(1); // second param
            let _ = b.atomic(AtomicOp::Add, Space::Global, cell_reg, x);
        })?;
        self.session.read_cell(&cell).map_err(|e| StdparError::Runtime(e.to_string()))
    }

    /// `std::inclusive_scan` — implemented as a (work-inefficient but
    /// correct) multi-pass Hillis–Steele scan on the device.
    pub fn inclusive_scan(&self, v: &mut DeviceVec) -> StdparResult<()> {
        let n = v.len();
        if n == 0 {
            return Ok(());
        }
        let tmp = self
            .session
            .upload(&vec![0.0f64; n])
            .map_err(|e| StdparError::Runtime(e.to_string()))?;
        let mut src = v.buf.ptr();
        let mut dst = tmp.ptr();
        let mut offset = 1usize;
        let mut flipped = false;
        while offset < n {
            let off = offset as i32;
            self.run(n, &[src, dst], &[KernelArg::I32(off)], |b, i, bases| {
                let x = b.ld_elem(Space::Global, Type::F64, bases[0], i);
                let off_reg = mcmm_gpu_sim::ir::Reg(2); // third param
                let j = b.bin(BinOp::Sub, i, off_reg);
                let has_prev = b.cmp(CmpOp::Ge, j, Value::I32(0));
                b.if_else(
                    has_prev,
                    |b| {
                        let prev = b.ld_elem(Space::Global, Type::F64, bases[0], j);
                        let s = b.bin(BinOp::Add, x, prev);
                        b.st_elem(Space::Global, bases[1], i, s);
                    },
                    |b| {
                        b.st_elem(Space::Global, bases[1], i, x);
                    },
                );
            })?;
            std::mem::swap(&mut src, &mut dst);
            flipped = !flipped;
            offset *= 2;
        }
        if flipped {
            // Result currently lives in tmp; copy back.
            self.session
                .device()
                .memory()
                .copy_within(src, v.buf.ptr(), n as u64 * 8)
                .map_err(|e| StdparError::Runtime(e.to_string()))?;
        }
        Ok(())
    }

    /// Download a vector.
    pub fn to_host(&self, v: &DeviceVec) -> StdparResult<Vec<f64>> {
        self.session.download(&v.buf).map_err(|e| StdparError::Runtime(e.to_string()))
    }
}

/// The C++ pSTL column as a spine [`Frontend`] (§6: "the model with the
/// fastest change at the moment").
pub struct StdparFrontend;

impl Frontend for StdparFrontend {
    fn model(&self) -> Model {
        Model::Standard
    }

    fn open(&self, vendor: Vendor) -> Result<ExecutionSession, FrontendError> {
        ExecutionSession::open(Model::Standard, Language::Cpp, vendor)
    }
}

/// A device-resident `std::vector<double>` analogue. The vector owns its
/// device memory and frees it when it drops.
pub struct DeviceVec {
    buf: DeviceBuffer<f64>,
}

impl DeviceVec {
    /// Upload host data.
    pub fn from_host(policy: &Policy, data: &[f64]) -> StdparResult<Self> {
        let buf = policy.session.upload(data).map_err(|e| StdparError::Runtime(e.to_string()))?;
        Ok(Self { buf })
    }

    /// Zero-initialised device vector.
    pub fn zeroed(policy: &Policy, len: usize) -> StdparResult<Self> {
        Self::from_host(policy, &vec![0.0; len])
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the vector empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Fortran `do concurrent` (descriptions 12, 27, 41): loop over `1..=n`
/// with the body receiving the 1-based index and array bases.
///
/// Supported on NVIDIA (nvfortran -stdpar=gpu) and Intel (ifx); **AMD has
/// no venue** and returns [`StdparError::NoSupport`].
pub fn do_concurrent(
    device: Arc<Device>,
    n: usize,
    arrays: &[DevicePtr],
    body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg]),
) -> StdparResult<()> {
    let session = ExecutionSession::open_on(device, Model::Standard, Language::Fortran).map_err(
        |e| match e {
            FrontendError::NoRoute { vendor, language, .. } => {
                StdparError::NoSupport { vendor, language }
            }
            other => StdparError::Runtime(other.to_string()),
        },
    )?;
    let mut b = KernelBuilder::new("do_concurrent");
    let bases: Vec<Reg> = arrays.iter().map(|_| b.param(Type::I64)).collect();
    let n_param = b.param(Type::I32);
    let i0 = b.global_thread_id_x();
    let i = b.bin(BinOp::Add, i0, Value::I32(1)); // 1-based, Fortran-style
    let ok = b.cmp(CmpOp::Le, i, n_param);
    let mut f = Some(body);
    let bases_ref = &bases;
    b.if_(ok, |b| {
        if let Some(f) = f.take() {
            f(b, i, bases_ref);
        }
    });
    let kernel = b.finish();
    let mut args: Vec<KernelArg> = arrays.iter().map(|&p| KernelArg::Ptr(p)).collect();
    args.push(KernelArg::I32(n as i32));
    session
        .run(&kernel, n as u64, 256, &args)
        .map(|_| ())
        .map_err(|e| StdparError::Runtime(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmm_gpu_sim::DeviceSpec;

    #[test]
    fn for_each_and_transform_on_nvidia() {
        let policy = par_unseq(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        assert_eq!(policy.toolchain(), "NVIDIA HPC SDK (nvc++ -stdpar=gpu)");
        assert!(policy.namespace_note.is_none());
        let mut v = DeviceVec::from_host(&policy, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        policy
            .for_each(&mut v, |b, i, base| {
                let x = b.ld_elem(Space::Global, Type::F64, base, i);
                let y = b.bin(BinOp::Mul, x, Value::F64(2.0));
                b.st_elem(Space::Global, base, i, y);
            })
            .unwrap();
        assert_eq!(policy.to_host(&v).unwrap(), vec![2.0, 4.0, 6.0, 8.0]);

        let mut out = DeviceVec::zeroed(&policy, 4).unwrap();
        policy.transform(&v, &mut out, |b, x| b.un(UnOp::Sqrt, x)).unwrap();
        let host = policy.to_host(&out).unwrap();
        for (a, b) in host.iter().zip([2.0f64, 4.0, 6.0, 8.0]) {
            assert!((a - b.sqrt()).abs() < 1e-12);
        }
    }

    #[test]
    fn reduce_matches_sequential() {
        let policy = par_unseq(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let v = DeviceVec::from_host(&policy, &data).unwrap();
        let sum = policy.reduce(&v, 10.0).unwrap();
        assert_eq!(sum, 10.0 + data.iter().sum::<f64>());
    }

    #[test]
    fn inclusive_scan_matches_sequential() {
        let policy = par_unseq(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        for n in [1usize, 2, 3, 17, 64, 100] {
            let data: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
            let mut v = DeviceVec::from_host(&policy, &data).unwrap();
            policy.inclusive_scan(&mut v).unwrap();
            let got = policy.to_host(&v).unwrap();
            let mut expect = data.clone();
            for i in 1..n {
                expect[i] += expect[i - 1];
            }
            assert_eq!(got, expect, "n={n}");
        }
    }

    #[test]
    fn intel_carries_the_namespace_caveat() {
        // §5: "all pSTL functionality currently resides in a custom
        // namespace" — the 'some support' ambivalence.
        let policy = par_unseq(Device::new(DeviceSpec::intel_pvc())).unwrap();
        assert_eq!(policy.toolchain(), "oneDPL (oneapi::dpl::)");
        assert!(policy.namespace_note.unwrap().contains("oneapi::dpl::"));
    }

    #[test]
    fn amd_cpp_works_but_with_experimental_penalty() {
        // Description 26: only experimental venues on AMD.
        let policy = par_unseq(Device::new(DeviceSpec::amd_mi250x())).unwrap();
        assert!(policy.efficiency() < 0.9, "experimental routes must pay: {}", policy.efficiency());
        let mut v = DeviceVec::from_host(&policy, &[1.0; 128]).unwrap();
        policy
            .for_each(&mut v, |b, i, base| {
                let x = b.ld_elem(Space::Global, Type::F64, base, i);
                let y = b.bin(BinOp::Add, x, Value::F64(1.0));
                b.st_elem(Space::Global, base, i, y);
            })
            .unwrap();
        assert!(policy.to_host(&v).unwrap().iter().all(|&x| x == 2.0));
    }

    #[test]
    fn do_concurrent_on_nvidia_and_intel_but_not_amd() {
        // Descriptions 12 & 41 vs 27.
        for spec in [DeviceSpec::nvidia_a100(), DeviceSpec::intel_pvc()] {
            let dev = Device::new(spec);
            let data: Vec<f64> = vec![5.0; 100];
            let ptr = dev.alloc_copy_f64(&data).unwrap();
            do_concurrent(Arc::clone(&dev), 100, &[ptr], |b, i, bases| {
                let i0 = b.bin(BinOp::Sub, i, Value::I32(1));
                let x = b.ld_elem(Space::Global, Type::F64, bases[0], i0);
                let iv = b.cvt(Type::F64, i);
                let y = b.bin(BinOp::Add, x, iv);
                b.st_elem(Space::Global, bases[0], i0, y);
            })
            .unwrap();
            let out = dev.read_f64(ptr, 100).unwrap();
            for (idx, v) in out.iter().enumerate() {
                assert_eq!(*v, 5.0 + (idx + 1) as f64);
            }
        }
        // AMD: description 27 — "no (known) way".
        let dev = Device::new(DeviceSpec::amd_mi250x());
        let err = do_concurrent(dev, 10, &[], |_, _, _| {}).unwrap_err();
        assert!(matches!(
            err,
            StdparError::NoSupport { vendor: Vendor::Amd, language: Language::Fortran }
        ));
    }
}
