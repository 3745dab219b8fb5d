//! The blanket BabelStream adapter over the shared execution spine.
//!
//! Until the `mcmm-frontend` refactor, this directory held one
//! hand-written adapter per programming model (~1.3k lines re-stating
//! the same five kernels and the same alloc/launch/verify loop nine
//! times). The paper's point — every model is a vendor-flavored surface
//! over the same launch-and-memcpy reality — is now structural: each
//! `model-*` crate exports a [`Frontend`], and a single
//! [`FrontendAdapter`] runs BabelStream through whatever session that
//! frontend opens. Vendor-refusal semantics stay with the frontends
//! (the session open refuses exactly where the matrix refuses), so the
//! 27-cell sweep pattern is unchanged.

use crate::{
    Gold, KernelResult, RunResult, StreamBackend, StreamError, StreamKernel, SCALAR, START_A,
    START_B, START_C,
};
use mcmm_core::taxonomy::Vendor;
use mcmm_frontend::{Frontend, FrontendRegistry};
use mcmm_gpu_sim::device::{Device, KernelArg};
use mcmm_gpu_sim::ir::{AtomicOp, BinOp, CmpOp, KernelBuilder, KernelIr, Space, Type, Value};
use mcmm_gpu_sim::timing::ModeledTime;
use std::collections::HashMap;

/// Build the five kernels with the uniform signature
/// `(a: ptr, b: ptr, c: ptr, sum: ptr, n: i32)`. Public so the analyzer's
/// clean-corpus tests and the `analyze` report binary can audit the exact
/// kernels the benchmark launches.
pub fn stream_kernels() -> [KernelIr; 5] {
    let build = |name: &str,
                 f: &dyn Fn(
        &mut KernelBuilder,
        mcmm_gpu_sim::ir::Reg,
        [mcmm_gpu_sim::ir::Reg; 4],
    )| {
        let mut k = KernelBuilder::new(name);
        let a = k.param(Type::I64);
        let b = k.param(Type::I64);
        let c = k.param(Type::I64);
        let sum = k.param(Type::I64);
        let n = k.param(Type::I32);
        let i = k.global_thread_id_x();
        let ok = k.cmp(CmpOp::Lt, i, n);
        let mut body = Some(f);
        k.if_(ok, |k| {
            if let Some(f) = body.take() {
                f(k, i, [a, b, c, sum]);
            }
        });
        k.finish()
    };
    [
        build("stream_copy", &|k, i, [a, _b, c, _s]| {
            let v = k.ld_elem(Space::Global, Type::F64, a, i);
            k.st_elem(Space::Global, c, i, v);
        }),
        build("stream_mul", &|k, i, [_a, b, c, _s]| {
            let v = k.ld_elem(Space::Global, Type::F64, c, i);
            let w = k.bin(BinOp::Mul, v, Value::F64(SCALAR));
            k.st_elem(Space::Global, b, i, w);
        }),
        build("stream_add", &|k, i, [a, b, c, _s]| {
            let va = k.ld_elem(Space::Global, Type::F64, a, i);
            let vb = k.ld_elem(Space::Global, Type::F64, b, i);
            let s = k.bin(BinOp::Add, va, vb);
            k.st_elem(Space::Global, c, i, s);
        }),
        build("stream_triad", &|k, i, [a, b, c, _s]| {
            let vb = k.ld_elem(Space::Global, Type::F64, b, i);
            let vc = k.ld_elem(Space::Global, Type::F64, c, i);
            let sc = k.bin(BinOp::Mul, vc, Value::F64(SCALAR));
            let s = k.bin(BinOp::Add, vb, sc);
            k.st_elem(Space::Global, a, i, s);
        }),
        build("stream_dot", &|k, i, [a, b, _c, sum]| {
            let va = k.ld_elem(Space::Global, Type::F64, a, i);
            let vb = k.ld_elem(Space::Global, Type::F64, b, i);
            let p = k.bin(BinOp::Mul, va, vb);
            let _ = k.atomic(AtomicOp::Add, Space::Global, sum, p);
        }),
    ]
}

/// The blanket adapter: BabelStream through any [`Frontend`]'s session.
pub struct FrontendAdapter {
    frontend: Box<dyn Frontend>,
}

impl FrontendAdapter {
    /// Wrap a concrete frontend.
    pub fn new(frontend: impl Frontend + 'static) -> Self {
        Self { frontend: Box::new(frontend) }
    }

    /// Wrap an already-boxed frontend (registry entries).
    pub fn boxed(frontend: Box<dyn Frontend>) -> Self {
        Self { frontend }
    }
}

impl StreamBackend for FrontendAdapter {
    fn model_name(&self) -> &'static str {
        self.frontend.name()
    }

    fn run(&self, vendor: Vendor, n: usize, iters: usize) -> Result<RunResult, StreamError> {
        let model = self.frontend.name();
        // The frontend applies its own refusal semantics; a refusal is a
        // matrix hole, anything else is a real failure.
        let session = self.frontend.open(vendor).map_err(|e| {
            if e.is_refusal() {
                StreamError::Unsupported { model, vendor, detail: e.to_string() }
            } else {
                StreamError::Failed(e.to_string())
            }
        })?;
        let fail = |e: mcmm_frontend::FrontendError| StreamError::Failed(e.to_string());

        let modules = stream_kernels()
            .iter()
            .map(|k| session.compile(k))
            .collect::<Result<Vec<_>, _>>()
            .map_err(fail)?;
        let toolchain = session.toolchain().to_owned();

        let da = session.upload(&vec![START_A; n]).map_err(fail)?;
        let db = session.upload(&vec![START_B; n]).map_err(fail)?;
        let dc = session.upload(&vec![START_C; n]).map_err(fail)?;
        let dsum = session.upload(&[0.0f64]).map_err(fail)?;
        let args = [
            KernelArg::Ptr(da.ptr()),
            KernelArg::Ptr(db.ptr()),
            KernelArg::Ptr(dc.ptr()),
            KernelArg::Ptr(dsum.ptr()),
            KernelArg::I32(n as i32),
        ];
        let cfg = session.launch_config(n as u64, 256);

        let mut sw = Stopwatch::new(session.device());
        let mut gold = Gold::initial();
        let mut dot = 0.0;
        for _ in 0..iters {
            for (idx, kernel) in
                [StreamKernel::Copy, StreamKernel::Mul, StreamKernel::Add, StreamKernel::Triad]
                    .iter()
                    .enumerate()
            {
                sw.time(*kernel, || session.launch(&modules[idx], cfg, &args)).map_err(fail)?;
            }
            gold.step();
            // Dot: zero the cell, then reduce.
            session
                .device()
                .memory()
                .store(dsum.ptr().0, Value::F64(0.0))
                .map_err(|e| StreamError::Failed(e.to_string()))?;
            sw.time(StreamKernel::Dot, || session.launch(&modules[4], cfg, &args)).map_err(fail)?;
            dot = session.download(&dsum).map_err(fail)?[0];
        }

        let a = session.download(&da).map_err(fail)?;
        let b = session.download(&db).map_err(fail)?;
        let c = session.download(&dc).map_err(fail)?;
        let dot_ok = ((dot - gold.expected_dot(n)) / gold.expected_dot(n)).abs() < 1e-8;
        Ok(RunResult {
            model,
            toolchain,
            vendor,
            n,
            kernels: sw.results(n),
            dot,
            verified: crate::verify(&a, &b, &c, gold) && dot_ok,
            programs: session.device().program_cache_stats(),
            mem: (session.device().mem_launches() > 0).then(|| session.device().mem_stats()),
        })
    }
}

/// The nine model frontends in Figure 1 column order (Python last; the
/// three native models first).
pub fn frontend_registry() -> FrontendRegistry {
    FrontendRegistry::new()
        .with(Box::new(mcmm_model_cuda::CudaFrontend))
        .with(Box::new(mcmm_model_hip::HipFrontend))
        .with(Box::new(mcmm_model_sycl::SyclFrontend))
        .with(Box::new(mcmm_model_openacc::OpenAccFrontend))
        .with(Box::new(mcmm_model_openmp::OpenMpFrontend))
        .with(Box::new(mcmm_model_stdpar::StdparFrontend))
        .with(Box::new(mcmm_model_kokkos::KokkosFrontend))
        .with(Box::new(mcmm_model_alpaka::AlpakaFrontend))
        .with(Box::new(mcmm_model_python::PythonFrontend))
}

/// All adapters, derived from the frontend registry instead of a
/// hand-maintained list.
pub fn all_backends() -> Vec<Box<dyn StreamBackend>> {
    frontend_registry()
        .into_frontends()
        .into_iter()
        .map(|f| Box::new(FrontendAdapter::boxed(f)) as Box<dyn StreamBackend>)
        .collect()
}

/// Per-kernel minimum-time tracker based on the device's modeled clock —
/// frontends without a report-returning launch are timed by clock deltas.
pub(crate) struct Stopwatch<'d> {
    device: &'d Device,
    best: HashMap<StreamKernel, f64>,
}

impl<'d> Stopwatch<'d> {
    pub fn new(device: &'d Device) -> Self {
        Self { device, best: HashMap::new() }
    }

    /// Time one kernel execution (modeled time, not wall time).
    pub fn time<T, E>(
        &mut self,
        kernel: StreamKernel,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let t0 = self.device.modeled_clock().seconds();
        let out = f()?;
        let dt = self.device.modeled_clock().seconds() - t0;
        let entry = self.best.entry(kernel).or_insert(f64::INFINITY);
        if dt < *entry {
            *entry = dt;
        }
        Ok(out)
    }

    /// Finish: per-kernel results with BabelStream's assumed byte counts.
    pub fn results(&self, n: usize) -> Vec<KernelResult> {
        StreamKernel::ALL
            .iter()
            .filter_map(|&k| {
                self.best.get(&k).map(|&secs| KernelResult {
                    kernel: k,
                    best_time: ModeledTime::from_seconds(secs),
                    bytes: k.bytes_per_element() * n as u64,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmm_gpu_sim::DeviceSpec;

    #[test]
    fn nine_backends_registered() {
        let names: Vec<_> = all_backends().iter().map(|b| b.model_name()).collect();
        assert_eq!(
            names,
            vec![
                "CUDA",
                "HIP",
                "SYCL",
                "OpenACC",
                "OpenMP",
                "Standard",
                "Kokkos",
                "ALPAKA",
                "etc (Python)"
            ]
        );
    }

    #[test]
    fn native_runs_verify_with_pinned_toolchains() {
        for (model, vendor, toolchain) in [
            ("CUDA", Vendor::Nvidia, "CUDA Toolkit (nvcc)"),
            ("HIP", Vendor::Amd, "hipcc (ROCm/Clang AMDGPU)"),
            ("SYCL", Vendor::Intel, "Intel oneAPI DPC++ (icpx -fsycl)"),
        ] {
            let backends = all_backends();
            let backend = backends.iter().find(|b| b.model_name() == model).unwrap();
            let r = backend.run(vendor, 4096, 2).unwrap();
            assert!(r.verified, "{model} on {vendor} failed verification");
            assert_eq!(r.kernels.len(), 5);
            assert!(r.triad_gbps() > 0.0);
            assert_eq!(r.toolchain, toolchain);
        }
    }

    #[test]
    fn matrix_holes_refuse_with_unsupported() {
        // The CUDA *runtime* refuses non-NVIDIA devices; translators are
        // a different program (see mcmm-translate). Same for HIP and
        // OpenACC on Intel.
        let backends = all_backends();
        for (model, vendor) in [
            ("CUDA", Vendor::Amd),
            ("CUDA", Vendor::Intel),
            ("HIP", Vendor::Intel),
            ("OpenACC", Vendor::Intel),
        ] {
            let backend = backends.iter().find(|b| b.model_name() == model).unwrap();
            match backend.run(vendor, 64, 1) {
                Err(StreamError::Unsupported { model: m, vendor: v, detail }) => {
                    assert_eq!(m, model);
                    assert_eq!(v, vendor);
                    assert!(
                        detail.contains(vendor.name()),
                        "refusal must name the vendor: {detail}"
                    );
                }
                other => panic!("{model} on {vendor}: expected Unsupported, got {other:?}"),
            }
        }
    }

    #[test]
    fn stopwatch_tracks_minimum() {
        let dev = Device::new(DeviceSpec::nvidia_a100());
        let mut sw = Stopwatch::new(&dev);
        // Two timed ops of different modeled cost; the smaller wins.
        sw.time::<_, std::convert::Infallible>(StreamKernel::Copy, || {
            let p = dev.alloc(1 << 20).unwrap();
            dev.memcpy_h2d(p, &vec![0u8; 1 << 20]).unwrap();
            Ok(())
        })
        .unwrap();
        sw.time::<_, std::convert::Infallible>(StreamKernel::Copy, || {
            let p = dev.alloc(1 << 10).unwrap();
            dev.memcpy_h2d(p, &vec![0u8; 1 << 10]).unwrap();
            Ok(())
        })
        .unwrap();
        let r = sw.results(1024);
        assert_eq!(r.len(), 1);
        // The best time must correspond to the small copy.
        assert!(r[0].best_time.seconds() < 1e-4);
    }
}
