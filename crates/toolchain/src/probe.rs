//! The executable probe (experiment E4): regenerate Figure 1 from observed
//! behaviour.
//!
//! For every vendor × model × language combination the probe
//!
//! 1. collects the registered toolchains,
//! 2. **functionally verifies** each available IR-level route by compiling
//!    a SAXPY smoke kernel and running it on the simulated device of that
//!    vendor, checking the numerical result,
//! 3. synthesizes [`Evidence`] from the route metadata and replays the §3
//!    rating engine,
//! 4. reports the derived category next to the encoded one.
//!
//! `tests/probe_matrix.rs` asserts the derived matrix equals the published
//! one for all 51 cells.

use crate::cache::CompileCache;
use crate::registry::Registry;
use crate::vendor_device_spec;
use mcmm_analyze::portability::portability;
use mcmm_analyze::AnalysisOptions;
use mcmm_core::matrix::CompatMatrix;
use mcmm_core::rating::{rate_evidence_on_device, Evidence};
use mcmm_core::support::Support;
use mcmm_core::taxonomy::{all_combinations, Language, Model, Vendor};
use mcmm_gpu_sim::device::{Device, DeviceAlloc, KernelArg, LaunchConfig};
use mcmm_gpu_sim::ir::{BinOp, CmpOp, KernelBuilder, KernelIr, Space, Type};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Probe result for one combination.
#[derive(Debug, Clone)]
pub struct ProbedCell {
    /// The cell's vendor row.
    pub vendor: Vendor,
    /// The cell's model column.
    pub model: Model,
    /// The cell's language sub-column.
    pub language: Language,
    /// Category derived by replaying the rating engine on route evidence.
    pub derived: Support,
    /// Category encoded from the paper.
    pub encoded: Support,
    /// Routes that compiled and produced a numerically correct SAXPY.
    pub functional_routes: Vec<&'static str>,
    /// Routes that exist but were not functionally exercised (source
    /// translators, discontinued toolchains).
    pub unexercised_routes: Vec<&'static str>,
    /// The smoke kernel's per-device portability verdict on this cell's
    /// vendor device (gating codes MCA006–MCA009 only): `false` caps
    /// every route of the cell at Limited via
    /// [`mcmm_core::rating::qualify_on_device`].
    pub device_gate_clean: bool,
}

impl ProbedCell {
    /// Does the derived category match the published figure?
    pub fn matches(&self) -> bool {
        self.derived == self.encoded
    }
}

/// The full probe report.
#[derive(Debug)]
pub struct ProbeReport {
    /// One probed result per matrix cell, in Figure 1 order.
    pub cells: Vec<ProbedCell>,
}

impl ProbeReport {
    /// Number of cells whose derived category matches the figure.
    pub fn matching(&self) -> usize {
        self.cells.iter().filter(|c| c.matches()).count()
    }

    /// Cells that disagree (should be empty).
    pub fn mismatches(&self) -> Vec<&ProbedCell> {
        self.cells.iter().filter(|c| !c.matches()).collect()
    }

    /// Total functionally verified routes.
    pub fn functional_route_count(&self) -> usize {
        self.cells.iter().map(|c| c.functional_routes.len()).sum()
    }
}

/// The smoke kernel: SAXPY, the paper community's hello-world.
pub fn smoke_kernel() -> KernelIr {
    let mut k = KernelBuilder::new("probe_saxpy");
    let a = k.param(Type::F32);
    let x = k.param(Type::I64);
    let y = k.param(Type::I64);
    let n = k.param(Type::I32);
    let i = k.global_thread_id_x();
    let ok = k.cmp(CmpOp::Lt, i, n);
    k.if_(ok, |k| {
        let xi = k.ld_elem(Space::Global, Type::F32, x, i);
        let yi = k.ld_elem(Space::Global, Type::F32, y, i);
        let ax = k.bin(BinOp::Mul, a, xi);
        let s = k.bin(BinOp::Add, ax, yi);
        k.st_elem(Space::Global, y, i, s);
    });
    k.finish()
}

/// Run the SAXPY smoke test through one compiled module on one device.
/// Both buffers free themselves on every exit.
fn smoke_run(device: &Arc<Device>, module: &mcmm_gpu_sim::Module, efficiency: f64) -> bool {
    const N: usize = 512;
    let xs: Vec<f32> = (0..N).map(|i| i as f32).collect();
    let ys = vec![1.0f32; N];
    let upload = |data: &[f32]| -> mcmm_gpu_sim::Result<DeviceAlloc> {
        let buf = device.alloc_owned(data.len() as u64 * 4)?;
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        device.memcpy_h2d(buf.ptr(), &bytes)?;
        Ok(buf)
    };
    let Ok(dx) = upload(&xs) else { return false };
    let Ok(dy) = upload(&ys) else { return false };
    let cfg = LaunchConfig::linear(N as u64, 128).with_efficiency(efficiency);
    device
        .launch(module, cfg, &[KernelArg::F32(2.0), dx.arg(), dy.arg(), KernelArg::I32(N as i32)])
        .is_ok()
        && device
            .read_f32(dy.ptr(), N)
            .map(|out| out.iter().enumerate().all(|(i, &v)| v == 2.0 * i as f32 + 1.0))
            .unwrap_or(false)
}

/// Health-check one route: compile the SAXPY smoke kernel through the
/// cache and run it on a scratch device of the target vendor, verifying
/// the numerical result. This is the check the failover router performs
/// before adopting an alternative route for a failed job — a route that
/// cannot pass its own smoke test is no failover target. Warm caches make
/// repeated checks of the same route a map lookup plus one tiny launch.
pub fn route_health(
    compiler: &crate::compiler::VirtualCompiler,
    cache: &CompileCache,
    model: Model,
    language: Language,
    vendor: Vendor,
) -> bool {
    if !compiler.is_available() || !compiler.is_ir_compiler() {
        return false;
    }
    match cache.compile(compiler, &smoke_kernel(), model, language, vendor) {
        Ok((module, _hit)) => {
            let device = Device::new(vendor_device_spec(vendor));
            smoke_run(&device, &module, compiler.efficiency())
        }
        Err(_) => false,
    }
}

/// Probe the full matrix with a throwaway compile cache.
pub fn probe(matrix: &CompatMatrix) -> ProbeReport {
    probe_with_cache(matrix, &CompileCache::default())
}

/// Probe the full matrix, compiling every route through `cache`.
///
/// Repeated probes sharing one cache (the test harness, the serving
/// layer's warm-up) reuse each route's artifact instead of re-running the
/// lint gate and assembler per probe — same derived categories, a fraction
/// of the compile work.
pub fn probe_with_cache(matrix: &CompatMatrix, cache: &CompileCache) -> ProbeReport {
    let registry = Registry::from_matrix(matrix);
    let kernel = smoke_kernel();
    let devices: BTreeMap<Vendor, std::sync::Arc<Device>> =
        Vendor::ALL.iter().map(|&v| (v, Device::new(vendor_device_spec(v)))).collect();

    // The smoke kernel's per-vendor portability verdicts, computed once:
    // the derived rating of a cell is capped at Limited when the probe's
    // own workload is predicted to break on that cell's device.
    let port = portability(&kernel, &AnalysisOptions::default());
    let device_clean: BTreeMap<Vendor, bool> = Vendor::ALL
        .iter()
        .map(|&v| {
            let name = vendor_device_spec(v).name;
            (v, port.verdict_for(name).is_none_or(|verdict| verdict.gate_clean()))
        })
        .collect();

    let mut cells = Vec::with_capacity(51);
    for (vendor, model, language) in all_combinations() {
        let routes = registry.select(model, language, vendor);
        let mut functional = Vec::new();
        let mut unexercised = Vec::new();
        for c in &routes {
            if c.is_available() && c.is_ir_compiler() {
                match cache.compile(c, &kernel, model, language, vendor) {
                    Ok((module, _hit)) => {
                        if smoke_run(&devices[&vendor], &module, c.efficiency()) {
                            functional.push(c.name);
                        } else {
                            unexercised.push(c.name);
                        }
                    }
                    Err(_) => unexercised.push(c.name),
                }
            } else {
                unexercised.push(c.name);
            }
        }
        let outcome = rate_evidence_on_device(
            routes.iter().map(|c| Evidence::from_route(&c.route)),
            device_clean[&vendor],
        );
        let encoded = matrix.support(vendor, model, language);
        cells.push(ProbedCell {
            vendor,
            model,
            language,
            derived: outcome.primary,
            encoded,
            functional_routes: functional,
            unexercised_routes: unexercised,
            device_gate_clean: device_clean[&vendor],
        });
    }
    ProbeReport { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_kernel_validates() {
        assert_eq!(smoke_kernel().validate(), Ok(()));
    }

    #[test]
    fn native_cells_are_functional() {
        let report = probe(&CompatMatrix::paper());
        for (v, m) in
            [(Vendor::Nvidia, Model::Cuda), (Vendor::Amd, Model::Hip), (Vendor::Intel, Model::Sycl)]
        {
            let cell = report
                .cells
                .iter()
                .find(|c| c.vendor == v && c.model == m && c.language == Language::Cpp)
                .unwrap();
            assert!(!cell.functional_routes.is_empty(), "{v} native model has no functional route");
        }
    }

    #[test]
    fn probe_covers_all_51_cells() {
        let report = probe(&CompatMatrix::paper());
        assert_eq!(report.cells.len(), 51);
    }

    /// The guarded SAXPY smoke kernel is portable by construction, so the
    /// per-device cap never fires on it — which is exactly why wiring the
    /// portability verdict into the probe leaves all 51 derived categories
    /// equal to the published figure.
    #[test]
    fn smoke_kernel_is_portability_clean_on_every_device() {
        let report = probe(&CompatMatrix::paper());
        assert!(report.cells.iter().all(|c| c.device_gate_clean));
        assert!(report.mismatches().is_empty());
    }

    #[test]
    fn route_health_passes_functional_routes_and_fails_broken_ones() {
        let registry = Registry::paper();
        let cache = CompileCache::default();
        let good = registry.select_best(Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        assert!(route_health(good, &cache, Model::Cuda, Language::Cpp, Vendor::Nvidia));
        // The same compiler asked to target a vendor it cannot reach.
        assert!(!route_health(good, &cache, Model::Cuda, Language::Cpp, Vendor::Amd));
        // A discontinued toolchain is never healthy.
        let dead = registry
            .select(Model::Sycl, Language::Cpp, Vendor::Nvidia)
            .into_iter()
            .find(|c| c.name == "ComputeCpp")
            .unwrap();
        assert!(!route_health(dead, &cache, Model::Sycl, Language::Cpp, Vendor::Nvidia));
    }
}
