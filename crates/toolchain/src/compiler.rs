//! Virtual compilers — one per encoded route.

use crate::{efficiency::route_efficiency, vendor_isa};
use mcmm_analyze::{analyze_with, AnalysisOptions, Check, Diagnostic};
use mcmm_core::provider::Maintenance;
use mcmm_core::route::{Completeness, Route, RouteKind};
use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_gpu_sim::ir::KernelIr;
use mcmm_gpu_sim::isa::{assemble, Module};
use std::fmt;

/// Why a compilation was refused — each variant corresponds to a hole the
/// paper documents.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are fully specified per variant
pub enum CompileError {
    /// The toolchain does not accept this model/language pair
    /// (e.g. SYCL has no Fortran surface, description 6).
    UnsupportedSource { toolchain: String, model: Model, language: Language },
    /// The toolchain cannot target this vendor
    /// (e.g. nvcc cannot emit GCN code).
    UnsupportedTarget { toolchain: String, vendor: Vendor },
    /// The toolchain is discontinued (ComputeCpp after 09/2023, ZLUDA).
    Discontinued { toolchain: String },
    /// The kernel itself is invalid.
    InvalidKernel(String),
    /// A transient, injected toolchain failure (a crashed compiler
    /// process, a wedged license server, a full build cache). Produced
    /// only through the fault-injection entry points
    /// ([`crate::cache::CompileCache::compile_faulted`]) so resilience
    /// layers can retry it; an organic refusal never uses this variant.
    ToolchainFault { toolchain: String, reason: String },
    /// The toolchain's static-analysis gate rejected the kernel. Which
    /// checks run depends on the route's maturity (see
    /// [`VirtualCompiler::lint_checks`]) — exactly the paper's point that
    /// what gets caught at compile time varies per toolchain, not per
    /// language.
    Lint { toolchain: String, diagnostics: Vec<Diagnostic> },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnsupportedSource { toolchain, model, language } => {
                write!(f, "{toolchain}: does not accept {model} {language}")
            }
            CompileError::UnsupportedTarget { toolchain, vendor } => {
                write!(f, "{toolchain}: cannot target {vendor} GPUs")
            }
            CompileError::Discontinued { toolchain } => {
                write!(f, "{toolchain}: discontinued / unmaintained")
            }
            CompileError::InvalidKernel(m) => write!(f, "invalid kernel: {m}"),
            CompileError::ToolchainFault { toolchain, reason } => {
                write!(f, "{toolchain}: transient toolchain fault: {reason}")
            }
            CompileError::Lint { toolchain, diagnostics } => {
                write!(f, "{toolchain}: lint gate rejected kernel")?;
                for d in diagnostics {
                    write!(f, "; {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// A virtual compiler: the executable form of one dataset route.
#[derive(Debug, Clone)]
pub struct VirtualCompiler {
    /// Toolchain name — identical to the dataset route's `toolchain` string.
    pub name: &'static str,
    /// Which model/language pairs this compiler front-end accepts.
    pub accepts: Vec<(Model, Language)>,
    /// Which vendors it can emit code for.
    pub targets: Vec<Vendor>,
    /// The dataset route this compiler realises (metadata for rating and
    /// efficiency).
    pub route: Route,
}

impl VirtualCompiler {
    /// Can this compiler handle the given source on the given target?
    pub fn supports(&self, model: Model, language: Language, vendor: Vendor) -> bool {
        self.accepts.contains(&(model, language)) && self.targets.contains(&vendor)
    }

    /// Is the compiler usable at all (not discontinued)?
    pub fn is_available(&self) -> bool {
        self.route.maintenance != Maintenance::Unmaintained
    }

    /// The efficiency factor its emitted code achieves.
    pub fn efficiency(&self) -> f64 {
        route_efficiency(&self.route)
    }

    /// Which static checks this toolchain enforces at compile time,
    /// derived from the route's maturity metadata — mirroring the real
    /// ecosystem, where a first-party complete toolchain ships sanitizers
    /// an experimental port does not:
    ///
    /// * every toolchain warns on uninitialized reads (MCA001);
    /// * `Complete`/`Majority` front-ends understand the barrier contract
    ///   well enough to reject divergent barriers (MCA002);
    /// * only `Complete` toolchains carry the interprocedural machinery
    ///   for bounds checking (MCA004);
    /// * the shared-memory race detector (MCA003) additionally needs an
    ///   *actively maintained* complete toolchain.
    pub fn lint_checks(&self) -> Vec<Check> {
        let mut checks = vec![Check::UninitRead];
        if matches!(self.route.completeness, Completeness::Complete | Completeness::Majority) {
            checks.push(Check::DivergentBarrier);
        }
        if self.route.completeness == Completeness::Complete {
            checks.push(Check::OutOfBounds);
            if self.route.maintenance == Maintenance::Active {
                checks.push(Check::SharedRace);
            }
        }
        checks
    }

    /// Does this route's front-end understand vendor portability well
    /// enough to gate on it? Mirrors [`VirtualCompiler::lint_checks`]:
    /// only `Complete` and `Majority` routes carry the per-device passes
    /// (MCA006–MCA009); immature ports compile warp-width assumptions
    /// straight through, exactly like the real ecosystem.
    pub fn gates_portability(&self) -> bool {
        matches!(self.route.completeness, Completeness::Complete | Completeness::Majority)
    }

    /// Compile a kernel for the given source pair and target vendor.
    ///
    /// This is where the paper's compatibility holes become real failures:
    /// unsupported source → [`CompileError::UnsupportedSource`],
    /// unsupported vendor → [`CompileError::UnsupportedTarget`],
    /// discontinued toolchain → [`CompileError::Discontinued`].
    pub fn compile(
        &self,
        kernel: &KernelIr,
        model: Model,
        language: Language,
        vendor: Vendor,
    ) -> Result<Module, CompileError> {
        if !self.accepts.contains(&(model, language)) {
            return Err(CompileError::UnsupportedSource {
                toolchain: self.name.to_owned(),
                model,
                language,
            });
        }
        if !self.targets.contains(&vendor) {
            return Err(CompileError::UnsupportedTarget {
                toolchain: self.name.to_owned(),
                vendor,
            });
        }
        if !self.is_available() {
            return Err(CompileError::Discontinued { toolchain: self.name.to_owned() });
        }
        // The sanitizer gate: analyze under generic launch assumptions
        // (no known buffer extents — only provable defects fire).
        let report = analyze_with(kernel, &AnalysisOptions::default(), &self.lint_checks());
        if !report.is_clean() {
            return Err(CompileError::Lint {
                toolchain: self.name.to_owned(),
                diagnostics: report.diagnostics,
            });
        }
        // The vendor-portability gate: mature routes additionally check the
        // kernel against the *target* device's shape — warp width (MCA006,
        // MCA009), shared capacity (MCA007), thread limit (MCA008). The
        // informational MCA010 never gates: real reduction kernels carry it
        // by design.
        if self.gates_portability() {
            let spec = crate::vendor_device_spec(vendor);
            let port = mcmm_analyze::portability::portability_on(
                kernel,
                &AnalysisOptions::default(),
                std::slice::from_ref(&spec),
            );
            let gating: Vec<Diagnostic> =
                port.verdicts.iter().flat_map(|v| v.gating_diagnostics()).collect();
            if !gating.is_empty() {
                return Err(CompileError::Lint {
                    toolchain: self.name.to_owned(),
                    diagnostics: gating,
                });
            }
        }
        assemble(kernel, vendor_isa(vendor)).map_err(|e| CompileError::InvalidKernel(e.to_string()))
    }

    /// Does this route's software kind involve compiling IR at all?
    /// (Source translators transform frontend sources instead; they are
    /// exercised in `mcmm-translate`.)
    pub fn is_ir_compiler(&self) -> bool {
        !matches!(self.route.kind, RouteKind::SourceTranslator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmm_core::provider::Provider;
    use mcmm_core::route::{Completeness, Directness};
    use mcmm_gpu_sim::ir::{KernelBuilder, Type};

    fn nvcc_like() -> VirtualCompiler {
        VirtualCompiler {
            name: "CUDA Toolkit (nvcc)",
            accepts: vec![(Model::Cuda, Language::Cpp)],
            targets: vec![Vendor::Nvidia],
            route: Route::new(
                "CUDA Toolkit (nvcc)",
                RouteKind::Compiler,
                Provider::DeviceVendor,
                Directness::Direct,
                Completeness::Complete,
            ),
        }
    }

    fn trivial_kernel() -> KernelIr {
        let mut k = KernelBuilder::new("t");
        let _ = k.param(Type::I64);
        k.finish()
    }

    #[test]
    fn compiles_supported_combination() {
        let c = nvcc_like();
        let m = c.compile(&trivial_kernel(), Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        assert_eq!(m.isa, mcmm_gpu_sim::isa::IsaKind::PtxLike);
        assert_eq!(c.efficiency(), 1.0);
    }

    #[test]
    fn rejects_wrong_language() {
        let c = nvcc_like();
        let err = c
            .compile(&trivial_kernel(), Model::Cuda, Language::Fortran, Vendor::Nvidia)
            .unwrap_err();
        assert!(matches!(err, CompileError::UnsupportedSource { .. }));
        assert!(err.to_string().contains("Fortran"));
    }

    #[test]
    fn rejects_wrong_vendor() {
        let c = nvcc_like();
        let err =
            c.compile(&trivial_kernel(), Model::Cuda, Language::Cpp, Vendor::Amd).unwrap_err();
        assert!(matches!(err, CompileError::UnsupportedTarget { .. }));
        assert!(err.to_string().contains("AMD"));
    }

    #[test]
    fn discontinued_toolchain_refuses() {
        let mut c = nvcc_like();
        c.route = c.route.maintenance(Maintenance::Unmaintained);
        let err =
            c.compile(&trivial_kernel(), Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap_err();
        assert!(matches!(err, CompileError::Discontinued { .. }));
        assert!(!c.is_available());
    }

    /// A kernel with a barrier under a thread-dependent branch: the classic
    /// MCA002 defect, used to exercise the lint gate below.
    fn divergent_barrier_kernel() -> KernelIr {
        use mcmm_gpu_sim::ir::{CmpOp, Value};
        let mut k = KernelBuilder::new("div_bar");
        let tid = k.thread_id_x();
        let low = k.cmp(CmpOp::Lt, tid, Value::I32(16));
        k.if_(low, |k| k.barrier());
        k.finish()
    }

    #[test]
    fn complete_route_lints_divergent_barriers() {
        let c = nvcc_like();
        let err = c
            .compile(&divergent_barrier_kernel(), Model::Cuda, Language::Cpp, Vendor::Nvidia)
            .unwrap_err();
        match &err {
            CompileError::Lint { toolchain, diagnostics } => {
                assert_eq!(*toolchain, "CUDA Toolkit (nvcc)");
                assert!(diagnostics.iter().any(|d| d.code == mcmm_analyze::MCA002));
            }
            other => panic!("expected a lint rejection, got {other:?}"),
        }
        assert!(err.to_string().contains("lint gate"));
    }

    #[test]
    fn minimal_route_skips_the_barrier_check() {
        let mut c = nvcc_like();
        c.route.completeness = Completeness::Minimal;
        // An immature port does not carry the barrier sanitizer …
        assert_eq!(c.lint_checks(), vec![Check::UninitRead]);
        // … so the same defective kernel compiles.
        c.compile(&divergent_barrier_kernel(), Model::Cuda, Language::Cpp, Vendor::Nvidia)
            .expect("minimal route must not run the barrier check");
    }

    #[test]
    fn lint_checks_follow_route_maturity() {
        let c = nvcc_like();
        assert_eq!(
            c.lint_checks(),
            vec![Check::UninitRead, Check::DivergentBarrier, Check::OutOfBounds, Check::SharedRace]
        );
        let mut majority = nvcc_like();
        majority.route.completeness = Completeness::Majority;
        assert_eq!(majority.lint_checks(), vec![Check::UninitRead, Check::DivergentBarrier]);
    }

    /// A barrier guarded by `lane < 32`: uniform on 16- and 32-wide
    /// devices, divergent — a deadlock — on a 64-wide wavefront. The
    /// MCA009 portability class.
    fn width_dependent_barrier_kernel() -> KernelIr {
        use mcmm_gpu_sim::ir::{CmpOp, Special, Value};
        let mut k = KernelBuilder::new("w_bar");
        let lane = k.special(Special::LaneId);
        let low = k.cmp(CmpOp::Lt, lane, Value::I32(32));
        k.if_(low, |k| k.barrier());
        k.finish()
    }

    /// The portability gate is per-*target*: the same kernel from the
    /// same toolchain compiles for the vendor whose device shape it fits
    /// and is rejected for the vendor it would deadlock on.
    #[test]
    fn portability_gate_is_target_specific() {
        let mut c = nvcc_like();
        c.targets = vec![Vendor::Nvidia, Vendor::Amd];
        let k = width_dependent_barrier_kernel();
        c.compile(&k, Model::Cuda, Language::Cpp, Vendor::Nvidia)
            .expect("uniform at width 32: must compile for NVIDIA");
        let err = c.compile(&k, Model::Cuda, Language::Cpp, Vendor::Amd).unwrap_err();
        match &err {
            CompileError::Lint { diagnostics, .. } => {
                assert!(diagnostics.iter().any(|d| d.code == mcmm_analyze::MCA009));
            }
            other => panic!("expected a portability rejection, got {other:?}"),
        }
    }

    /// Immature ports do not carry the portability passes — the same
    /// AMD-fatal kernel compiles straight through a `Minimal` route.
    #[test]
    fn minimal_route_skips_the_portability_gate() {
        let mut c = nvcc_like();
        c.targets = vec![Vendor::Amd];
        c.route.completeness = Completeness::Minimal;
        assert!(!c.gates_portability());
        c.compile(&width_dependent_barrier_kernel(), Model::Cuda, Language::Cpp, Vendor::Amd)
            .expect("minimal route must not run the portability passes");
    }

    #[test]
    fn every_uninit_read_is_rejected_everywhere() {
        use mcmm_gpu_sim::ir::{Instr, Operand, Reg};
        // Even the weakest route rejects a read of a never-written register.
        let kernel = KernelIr {
            name: "uninit".into(),
            params: vec![],
            regs: vec![Type::I32, Type::I32],
            shared_bytes: 0,
            body: vec![Instr::Mov { dst: Reg(1), src: Operand::Reg(Reg(0)) }],
        };
        let mut c = nvcc_like();
        c.route.completeness = Completeness::Minimal;
        let err = c.compile(&kernel, Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap_err();
        match err {
            CompileError::Lint { diagnostics, .. } => {
                assert!(diagnostics.iter().all(|d| d.code == mcmm_analyze::MCA001));
            }
            other => panic!("expected a lint rejection, got {other:?}"),
        }
    }
}
