//! # mcmm-model-openacc — an OpenACC-style frontend
//!
//! OpenACC (descriptions 7, 8, 22, 23, 36, 37) is the older of the two
//! directive models, historically strongest on NVIDIA. The frontend
//! mirrors its surface: [`DataRegion`]s (`#pragma acc data copyin/copyout/
//! create`), [`DataRegion::parallel_loop`] (`#pragma acc parallel loop
//! gang vector`), and the `kernels` construct where the "compiler" (this
//! frontend) chooses the decomposition itself.
//!
//! Vendor coverage matches the paper exactly:
//!
//! * **NVIDIA** — vendor-complete (NVHPC), plus GCC and Clacc.
//! * **AMD** — community only (GCC, Clacc); Clacc internally *translates
//!   OpenACC to OpenMP*, which we reproduce by lowering through the same
//!   IR path with the Clacc route's efficiency.
//! * **Intel** — **no direct support** ([`AccError::NoSupport`]); the error
//!   points at Intel's OpenACC→OpenMP migration tool in `mcmm-translate`,
//!   as description 36 does.

use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_frontend::{DeviceBuffer, ExecutionSession, Frontend, FrontendError};
use mcmm_gpu_sim::device::{Device, KernelArg, LaunchConfig};
use mcmm_gpu_sim::ir::{KernelBuilder, Reg, Type};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

pub use mcmm_gpu_sim::ir::{BinOp, CmpOp, Space, UnOp, Value};

/// OpenACC gang/vector decomposition of a `parallel loop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopSchedule {
    /// `num_gangs` — thread blocks.
    pub gangs: Option<u32>,
    /// `vector_length` — threads per gang.
    pub vector_length: u32,
}

impl Default for LoopSchedule {
    fn default() -> Self {
        Self { gangs: None, vector_length: 128 }
    }
}

/// Errors raised by the OpenACC frontend.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are fully specified per variant
pub enum AccError {
    /// Description 36/37: no OpenACC support on this platform; the message
    /// names the migration path.
    NoSupport { vendor: Vendor, language: Language, hint: &'static str },
    /// Runtime/launch failure.
    Runtime(String),
}

impl fmt::Display for AccError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccError::NoSupport { vendor, language, hint } => {
                write!(f, "OpenACC {language} is not supported on {vendor} GPUs; {hint}")
            }
            AccError::Runtime(m) => write!(f, "openacc runtime: {m}"),
        }
    }
}

impl std::error::Error for AccError {}

/// Result alias.
pub type AccResult<T> = Result<T, AccError>;

/// An OpenACC-capable device binding — a directive-flavored surface over
/// the shared [`ExecutionSession`] spine.
pub struct AccDevice {
    session: ExecutionSession,
}

impl AccDevice {
    /// Bind for C/C++ sources.
    pub fn new(device: Arc<Device>) -> AccResult<Self> {
        Self::with_language(device, Language::Cpp)
    }

    /// Bind for Fortran sources (descriptions 8, 23, 37).
    pub fn new_fortran(device: Arc<Device>) -> AccResult<Self> {
        Self::with_language(device, Language::Fortran)
    }

    fn with_language(device: Arc<Device>, language: Language) -> AccResult<Self> {
        let session =
            ExecutionSession::open_on(device, Model::OpenAcc, language).map_err(|e| match e {
                FrontendError::NoRoute { vendor, language, .. } => AccError::NoSupport {
                    vendor,
                    language,
                    hint: "use the Intel Application Migration Tool (mcmm-translate::acc2mp) \
                       to convert the directives to OpenMP",
                },
                other => AccError::Runtime(other.to_string()),
            })?;
        Ok(Self { session })
    }

    /// The resolved toolchain.
    pub fn toolchain(&self) -> &'static str {
        self.session.toolchain()
    }

    /// The execution-spine session under this binding.
    pub fn session(&self) -> &ExecutionSession {
        &self.session
    }

    /// Open a structured data region.
    pub fn data_region(&self) -> DataRegion<'_> {
        DataRegion { acc: self, arrays: Vec::new(), names: HashMap::new() }
    }

    fn launch_loop(
        &self,
        n: usize,
        schedule: LoopSchedule,
        arrays: &[KernelArg],
        body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg]),
    ) -> AccResult<()> {
        let mut b = KernelBuilder::new("acc_parallel_loop");
        let bases: Vec<Reg> = arrays.iter().map(|_| b.param(Type::I64)).collect();
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
        let module = self.session.compile(&kernel).map_err(|e| AccError::Runtime(e.to_string()))?;
        let vl = schedule.vector_length.max(1);
        let gangs = schedule.gangs.unwrap_or_else(|| (n as u32).div_ceil(vl).max(1));
        let cfg = LaunchConfig {
            grid_dim: gangs,
            block_dim: vl,
            policy: Default::default(),
            efficiency: self.session.efficiency(),
        };
        let mut args = arrays.to_vec();
        args.push(KernelArg::I32(n as i32));
        self.session
            .launch(&module, cfg, &args)
            .map(|_| ())
            .map_err(|e| AccError::Runtime(e.to_string()))
    }
}

/// The OpenACC column as a spine [`Frontend`]: vendor-complete on NVIDIA,
/// community compilers on AMD, refused on Intel (descriptions 7, 22, 36).
pub struct OpenAccFrontend;

impl Frontend for OpenAccFrontend {
    fn model(&self) -> Model {
        Model::OpenAcc
    }

    fn open(&self, vendor: Vendor) -> Result<ExecutionSession, FrontendError> {
        ExecutionSession::open(Model::OpenAcc, Language::Cpp, vendor)
    }
}

/// A structured `#pragma acc data` region: arrays are attached with
/// copyin/copyout/create semantics and transferred when the region closes.
/// Dropping the region, closed or not, frees its arrays.
pub struct DataRegion<'a> {
    acc: &'a AccDevice,
    arrays: Vec<(DeviceBuffer<f64>, Transfer)>,
    names: HashMap<&'static str, usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transfer {
    CopyIn,
    CopyOut,
    Create,
}

impl<'a> DataRegion<'a> {
    /// `copyin(name[0:n])` — upload now, discard at region end.
    pub fn copyin(self, name: &'static str, data: &[f64]) -> AccResult<Self> {
        let buf = self.acc.session.upload(data).map_err(|e| AccError::Runtime(e.to_string()))?;
        Ok(self.attach(name, buf, Transfer::CopyIn))
    }

    /// `copyout(name[0:n])` — allocate now, download at region end.
    pub fn copyout(self, name: &'static str, len: usize) -> AccResult<Self> {
        let buf = self.acc.session.alloc(len).map_err(|e| AccError::Runtime(e.to_string()))?;
        Ok(self.attach(name, buf, Transfer::CopyOut))
    }

    /// `create(name[0:n])` — device-only scratch.
    pub fn create(self, name: &'static str, len: usize) -> AccResult<Self> {
        let buf = self.acc.session.alloc(len).map_err(|e| AccError::Runtime(e.to_string()))?;
        Ok(self.attach(name, buf, Transfer::Create))
    }

    fn attach(mut self, name: &'static str, buf: DeviceBuffer<f64>, transfer: Transfer) -> Self {
        self.names.insert(name, self.arrays.len());
        self.arrays.push((buf, transfer));
        self
    }

    /// `#pragma acc parallel loop` over `0..n`. The body receives base
    /// registers in attachment order.
    pub fn parallel_loop(
        &self,
        n: usize,
        schedule: LoopSchedule,
        body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg]),
    ) -> AccResult<()> {
        let arrays: Vec<KernelArg> = self.arrays.iter().map(|(buf, _)| buf.arg()).collect();
        self.acc.launch_loop(n, schedule, &arrays, body)
    }

    /// `#pragma acc kernels` — the compiler picks the schedule.
    pub fn kernels(
        &self,
        n: usize,
        body: impl FnOnce(&mut KernelBuilder, Reg, &[Reg]),
    ) -> AccResult<()> {
        self.parallel_loop(n, LoopSchedule::default(), body)
    }

    /// `#pragma acc update host(name)` — read an array back mid-region
    /// (any transfer class).
    pub fn update_host(&self, name: &'static str) -> AccResult<Vec<f64>> {
        let &idx = self
            .names
            .get(name)
            .ok_or_else(|| AccError::Runtime(format!("no array named {name}")))?;
        self.acc.session.download(&self.arrays[idx].0).map_err(|e| AccError::Runtime(e.to_string()))
    }

    /// `#pragma acc update device(name)` — push host data mid-region.
    pub fn update_device(&self, name: &'static str, data: &[f64]) -> AccResult<()> {
        let &idx = self
            .names
            .get(name)
            .ok_or_else(|| AccError::Runtime(format!("no array named {name}")))?;
        let buf = &self.arrays[idx].0;
        if data.len() > buf.len() {
            return Err(AccError::Runtime(format!("update device overflows {name}")));
        }
        self.acc
            .session
            .upload_into(buf, data)
            .map(|_| ())
            .map_err(|e| AccError::Runtime(e.to_string()))
    }

    /// Close the region: download every `copyout` array into the provided
    /// host slices (by name), free device memory.
    pub fn close(self, outputs: &mut [(&'static str, &mut [f64])]) -> AccResult<()> {
        for (name, host) in outputs.iter_mut() {
            let &idx = self
                .names
                .get(name)
                .ok_or_else(|| AccError::Runtime(format!("no array named {name}")))?;
            let (buf, transfer) = &self.arrays[idx];
            if *transfer != Transfer::CopyOut {
                return Err(AccError::Runtime(format!("{name} is not a copyout array")));
            }
            let data: Vec<f64> =
                self.acc.session.download(buf).map_err(|e| AccError::Runtime(e.to_string()))?;
            host.copy_from_slice(&data);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmm_gpu_sim::DeviceSpec;

    fn run_vec_scale(acc: &AccDevice) -> Vec<f64> {
        let n = 512;
        let input: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let region = acc.data_region().copyin("x", &input).unwrap().copyout("y", n).unwrap();
        region
            .parallel_loop(n, LoopSchedule::default(), |b, i, p| {
                let xv = b.ld_elem(Space::Global, Type::F64, p[0], i);
                let yv = b.bin(BinOp::Mul, xv, Value::F64(3.0));
                b.st_elem(Space::Global, p[1], i, yv);
            })
            .unwrap();
        let mut out = vec![0.0; n];
        region.close(&mut [("y", &mut out)]).unwrap();
        out
    }

    #[test]
    fn nvidia_uses_vendor_compiler() {
        // Description 7: NVHPC is the most extensive route; §5 pins the
        // cell as "complete".
        let acc = AccDevice::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        assert_eq!(acc.toolchain(), "NVIDIA HPC SDK (nvc/nvc++ -acc)");
        let out = run_vec_scale(&acc);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 3.0 * i as f64);
        }
    }

    #[test]
    fn amd_works_through_community_compilers() {
        // Description 22: GCC or Clacc, no AMD-provided route.
        let acc = AccDevice::new(Device::new(DeviceSpec::amd_mi250x())).unwrap();
        assert!(
            acc.toolchain().starts_with("GCC") || acc.toolchain().starts_with("Clacc"),
            "unexpected toolchain {}",
            acc.toolchain()
        );
        let out = run_vec_scale(&acc);
        assert_eq!(out[100], 300.0);
    }

    #[test]
    fn intel_has_no_openacc() {
        // Description 36 and the §6 conclusion: "support for Intel GPUs
        // does not exist". The migration tool is a translator, not a
        // compiler, so select_best finds nothing.
        match AccDevice::new(Device::new(DeviceSpec::intel_pvc())) {
            Err(AccError::NoSupport { vendor: Vendor::Intel, hint, .. }) => {
                assert!(hint.contains("acc2mp"));
            }
            other => panic!("expected NoSupport, got {:?}", other.err()),
        }
    }

    #[test]
    fn fortran_route_differs_from_cpp_on_amd() {
        // Description 23: Fortran OpenACC on AMD via gfortran/Cray.
        let acc = AccDevice::new_fortran(Device::new(DeviceSpec::amd_mi250x())).unwrap();
        assert!(
            acc.toolchain().contains("gfortran") || acc.toolchain().contains("Cray"),
            "unexpected {}",
            acc.toolchain()
        );
        let out = run_vec_scale(&acc);
        assert_eq!(out[7], 21.0);
    }

    #[test]
    fn explicit_gang_vector_schedule() {
        let acc = AccDevice::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        let n = 300;
        let input = vec![1.0f64; n];
        let region = acc.data_region().copyin("x", &input).unwrap().copyout("y", n).unwrap();
        region
            .parallel_loop(n, LoopSchedule { gangs: Some(5), vector_length: 64 }, |b, i, p| {
                let xv = b.ld_elem(Space::Global, Type::F64, p[0], i);
                let yv = b.bin(BinOp::Add, xv, Value::F64(41.0));
                b.st_elem(Space::Global, p[1], i, yv);
            })
            .unwrap();
        let mut out = vec![0.0; n];
        region.close(&mut [("y", &mut out)]).unwrap();
        assert!(out.iter().all(|&v| v == 42.0));
    }

    #[test]
    fn kernels_construct_picks_its_own_schedule() {
        let acc = AccDevice::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        let n = 100;
        let region = acc.data_region().copyout("y", n).unwrap();
        region
            .kernels(n, |b, i, p| {
                let iv = b.cvt(Type::F64, i);
                b.st_elem(Space::Global, p[0], i, iv);
            })
            .unwrap();
        let mut out = vec![0.0; n];
        region.close(&mut [("y", &mut out)]).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
    }

    #[test]
    fn closing_with_wrong_name_errors() {
        let acc = AccDevice::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        let region = acc.data_region().copyout("y", 4).unwrap();
        let mut out = vec![0.0; 4];
        let err = region.close(&mut [("nope", &mut out)]).unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn copyin_arrays_cannot_be_copied_out() {
        let acc = AccDevice::new(Device::new(DeviceSpec::nvidia_a100())).unwrap();
        let region = acc.data_region().copyin("x", &[1.0, 2.0]).unwrap();
        let mut out = vec![0.0; 2];
        let err = region.close(&mut [("x", &mut out)]).unwrap_err();
        assert!(err.to_string().contains("not a copyout"));
    }
}
