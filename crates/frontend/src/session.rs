//! The execution session: one vendor-bound spine instance.
//!
//! An [`ExecutionSession`] is what every model frontend *is* underneath:
//! a device, a resolved toolchain route and a compile cache. The session
//! owns the mechanics — allocation, typed transfer, cached+linted
//! compilation, launch — while the model crates keep their paper-faithful
//! surfaces and map [`FrontendError`] into their idiomatic error enums.
//!
//! ## Route resolution
//!
//! [`ExecutionSession::open`] resolves the best *executable* route for
//! (model, language, vendor) from the paper registry: ranked like the
//! failover router ranks them, but additionally filtered by
//! `Route::is_executable` — a frontend refuses cells whose only support
//! is a source translator, an unmaintained project, or a research-class
//! translation shim (chipStar), even though those routes legitimately
//! appear in the matrix. This is exactly the accept/refuse pattern of the
//! BabelStream sweep and is verified cell-by-cell by the conformance
//! suite against `mcmm_core::query`.
//!
//! ## Device memory
//!
//! Every allocation has one owner. A value that owns an array (a Kokkos
//! `View`, a SYCL `Buffer`, a reduction cell) holds a [`DeviceBuffer`]
//! and gives the memory back when it drops. A surface whose API hands
//! out raw pointers (`cudaMalloc`, `hipMalloc`, SYCL's `malloc_device`)
//! passes the buffer to [`ExecutionSession::hold`] instead: the session
//! keeps it in a table keyed by pointer, [`ExecutionSession::free`] takes
//! it back by that pointer alone, and whatever is left goes when the
//! session drops.

use crate::element::Element;
use crate::error::FrontendError;
use mcmm_core::route::Route;
use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_gpu_sim::device::{Device, DeviceAlloc, KernelArg, LaunchConfig, LaunchReport};
use mcmm_gpu_sim::ir::{KernelIr, Type, Value};
use mcmm_gpu_sim::isa::Module;
use mcmm_gpu_sim::mem::DevicePtr;
use mcmm_gpu_sim::timing::ModeledTime;
use mcmm_toolchain::{isa_vendor, vendor_device_spec, CompileCache, Registry, VirtualCompiler};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, OnceLock};

/// The process-wide compile cache every session uses unless it is given
/// a private one. Sharing is the point: ten frontends lowering the same
/// structural kernel through the same route hit the same artifact, and
/// a repeated BabelStream sweep compiles nothing at all.
pub fn shared_cache() -> Arc<CompileCache> {
    static CACHE: OnceLock<Arc<CompileCache>> = OnceLock::new();
    Arc::clone(CACHE.get_or_init(|| Arc::new(CompileCache::default())))
}

const POISONED: &str = "a thread panicked while holding a session's pointer table";

/// A typed view over one [`DeviceAlloc`]: `len` elements of `T`. The
/// allocation frees itself when the buffer drops — the session's answer
/// to the manual `alloc`/`free` pairs the model crates used to carry.
pub struct DeviceBuffer<T: Element> {
    alloc: DeviceAlloc,
    len: usize,
    _elem: PhantomData<T>,
}

impl<T: Element> DeviceBuffer<T> {
    /// The raw device pointer (for kernel arguments and crates whose
    /// public API hands out pointers).
    pub fn ptr(&self) -> DevicePtr {
        self.alloc.ptr()
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size in bytes on the device.
    pub fn byte_len(&self) -> u64 {
        self.alloc.len()
    }

    /// This buffer as a kernel pointer argument.
    pub fn arg(&self) -> KernelArg {
        self.alloc.arg()
    }

    /// The untyped allocation underneath, for holders that tag the
    /// element type at run time (Python's dtype).
    pub fn into_alloc(self) -> DeviceAlloc {
        self.alloc
    }
}

/// One model × language frontend bound to one vendor's device, with the
/// route and cache resolved. See the module docs.
pub struct ExecutionSession {
    device: Arc<Device>,
    model: Model,
    language: Language,
    vendor: Vendor,
    compiler: VirtualCompiler,
    cache: Arc<CompileCache>,
    /// The allocations behind raw pointers this session handed out, by
    /// start address (see [`ExecutionSession::hold`]).
    held: Mutex<HashMap<DevicePtr, DeviceAlloc>>,
}

impl std::fmt::Debug for ExecutionSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionSession")
            .field("model", &self.model)
            .field("language", &self.language)
            .field("vendor", &self.vendor)
            .field("toolchain", &self.compiler.name)
            .finish()
    }
}

impl ExecutionSession {
    /// Open a session on a fresh simulated device of `vendor`, resolving
    /// the best executable route for (model, language) — or refuse with a
    /// [`FrontendError::NoRoute`] naming the vendor, exactly where the
    /// matrix refuses.
    pub fn open(model: Model, language: Language, vendor: Vendor) -> Result<Self, FrontendError> {
        Self::open_on(Device::new(vendor_device_spec(vendor)), model, language)
    }

    /// Open a session on an existing device (its vendor is implied by the
    /// ISA it executes).
    pub fn open_on(
        device: Arc<Device>,
        model: Model,
        language: Language,
    ) -> Result<Self, FrontendError> {
        let vendor = isa_vendor(device.spec().isa);
        let compiler = resolve_best(model, language, vendor)?;
        Ok(Self::assemble_session(device, model, language, vendor, compiler))
    }

    /// Open a session through a *named* toolchain (the SYCL
    /// implementations, OpenMP's per-vendor compilers, Python's backend
    /// packages). Refuses with [`FrontendError::Discontinued`] when the
    /// route exists but is unmaintained, and [`FrontendError::NoRoute`]
    /// when the name is not an executable route of the cell.
    pub fn open_with_toolchain(
        model: Model,
        language: Language,
        vendor: Vendor,
        toolchain: &str,
    ) -> Result<Self, FrontendError> {
        Self::open_with_toolchain_on(
            Device::new(vendor_device_spec(vendor)),
            model,
            language,
            toolchain,
        )
    }

    /// [`ExecutionSession::open_with_toolchain`] on an existing device.
    pub fn open_with_toolchain_on(
        device: Arc<Device>,
        model: Model,
        language: Language,
        toolchain: &str,
    ) -> Result<Self, FrontendError> {
        let vendor = isa_vendor(device.spec().isa);
        let compiler = resolve_named(model, language, vendor, toolchain)?;
        Ok(Self::assemble_session(device, model, language, vendor, compiler))
    }

    /// Open a session over an *extension* route that is not part of the
    /// paper's matrix (RAJA's backends). The route is taken at face
    /// value; it must still be executable.
    pub fn for_route(
        device: Arc<Device>,
        model: Model,
        language: Language,
        route: Route,
    ) -> Result<Self, FrontendError> {
        let vendor = isa_vendor(device.spec().isa);
        if !route.is_executable() {
            return Err(FrontendError::NoRoute {
                model,
                language,
                vendor,
                detail: format!("extension route {} is not executable", route.toolchain),
            });
        }
        let compiler = VirtualCompiler {
            name: route.toolchain,
            accepts: vec![(model, language)],
            targets: vec![vendor],
            route,
        };
        Ok(Self::assemble_session(device, model, language, vendor, compiler))
    }

    fn assemble_session(
        device: Arc<Device>,
        model: Model,
        language: Language,
        vendor: Vendor,
        compiler: VirtualCompiler,
    ) -> Self {
        Self {
            device,
            model,
            language,
            vendor,
            compiler,
            cache: shared_cache(),
            held: Mutex::default(),
        }
    }

    /// Use a private compile cache instead of the process-wide one.
    pub fn with_cache(mut self, cache: Arc<CompileCache>) -> Self {
        self.cache = cache;
        self
    }

    // ───────────────────────── accessors ─────────────────────────

    /// The device this session executes on.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// The vendor lane.
    pub fn vendor(&self) -> Vendor {
        self.vendor
    }

    /// The programming model.
    pub fn model(&self) -> Model {
        self.model
    }

    /// The source language.
    pub fn language(&self) -> Language {
        self.language
    }

    /// Name of the resolved toolchain route.
    pub fn toolchain(&self) -> &'static str {
        self.compiler.name
    }

    /// The resolved route's metadata.
    pub fn route(&self) -> &Route {
        &self.compiler.route
    }

    /// The route's efficiency factor (feeds the timing model).
    pub fn efficiency(&self) -> f64 {
        self.compiler.efficiency()
    }

    /// The compile cache this session fills and hits.
    pub fn cache(&self) -> &Arc<CompileCache> {
        &self.cache
    }

    /// The device's modeled clock.
    pub fn modeled_clock(&self) -> ModeledTime {
        self.device.modeled_clock()
    }

    // ────────────────── allocation and transfer ──────────────────

    /// Allocate a typed device buffer of `len` elements, freed on drop.
    pub fn alloc<T: Element>(&self, len: usize) -> Result<DeviceBuffer<T>, FrontendError> {
        let alloc = self.device.alloc_owned((len * T::BYTES) as u64)?;
        Ok(DeviceBuffer { alloc, len, _elem: PhantomData })
    }

    /// Allocate a buffer and upload `data` into it.
    pub fn upload<T: Element>(&self, data: &[T]) -> Result<DeviceBuffer<T>, FrontendError> {
        let buf = self.alloc(data.len())?;
        self.upload_into(&buf, data)?;
        Ok(buf)
    }

    /// Upload `data` into an existing buffer (from its start).
    pub fn upload_into<T: Element>(
        &self,
        buf: &DeviceBuffer<T>,
        data: &[T],
    ) -> Result<ModeledTime, FrontendError> {
        self.upload_raw(buf.ptr(), data)
    }

    /// Download the whole buffer back to the host.
    pub fn download<T: Element>(&self, buf: &DeviceBuffer<T>) -> Result<Vec<T>, FrontendError> {
        self.download_raw(buf.ptr(), buf.len)
    }

    /// Typed upload to a raw device pointer, for surfaces whose copies
    /// take pointers (`cudaMemcpy`, `hipMemcpyHtoD`, SYCL USM `memcpy`).
    pub fn upload_raw<T: Element>(
        &self,
        dst: DevicePtr,
        data: &[T],
    ) -> Result<ModeledTime, FrontendError> {
        let bytes = T::to_device_bytes(data);
        Ok(self.device.memcpy_h2d(dst, &bytes)?)
    }

    /// Typed download of `len` elements from a raw device pointer.
    pub fn download_raw<T: Element>(
        &self,
        src: DevicePtr,
        len: usize,
    ) -> Result<Vec<T>, FrontendError> {
        let (bytes, _) = self.device.memcpy_d2h(src, (len * T::BYTES) as u64)?;
        Ok(T::from_device_bytes(&bytes))
    }

    /// Hand `buf` to the session and return its raw pointer: the memory
    /// stays allocated until [`ExecutionSession::free`] names the pointer
    /// or the session drops. Surfaces whose API hands out raw pointers
    /// (`cudaMalloc`, `hipMalloc`, SYCL USM) allocate this way.
    pub fn hold<T: Element>(&self, buf: DeviceBuffer<T>) -> DevicePtr {
        let ptr = buf.ptr();
        self.held.lock().expect(POISONED).insert(ptr, buf.alloc);
        ptr
    }

    /// Free an allocation the session holds, by its pointer alone, as
    /// `cudaFree` does. A pointer the session does not hold (freed
    /// already, from another session, or not the start of an allocation)
    /// is [`FrontendError::UnknownPointer`], and nothing is freed.
    pub fn free(&self, ptr: DevicePtr) -> Result<(), FrontendError> {
        let alloc = self.held.lock().expect(POISONED).remove(&ptr);
        alloc.map(drop).ok_or(FrontendError::UnknownPointer(ptr))
    }

    /// A one-element `f64` buffer set to `init`: the cell a reduction
    /// kernel combines into with atomics. The store is untimed, so it
    /// does not move the modeled clock.
    pub fn reduction_cell(&self, init: f64) -> Result<DeviceBuffer<f64>, FrontendError> {
        let cell = self.alloc(1)?;
        self.device.memory().store(cell.ptr().0, Value::F64(init))?;
        Ok(cell)
    }

    /// Read a [`ExecutionSession::reduction_cell`] back, untimed like
    /// its store.
    pub fn read_cell(&self, cell: &DeviceBuffer<f64>) -> Result<f64, FrontendError> {
        match self.device.memory().load(Type::F64, cell.ptr().0)? {
            Value::F64(x) => Ok(x),
            _ => unreachable!("an f64 load yields an f64"),
        }
    }

    // ─────────────────── compilation and launch ───────────────────

    /// Compile a kernel through the resolved route: served from the
    /// shared cache when resident, otherwise lint-gated and assembled
    /// once.
    pub fn compile(&self, kernel: &KernelIr) -> Result<Arc<Module>, FrontendError> {
        let (module, _hit) =
            self.cache.compile(&self.compiler, kernel, self.model, self.language, self.vendor)?;
        Ok(module)
    }

    /// A linear launch configuration carrying the route's efficiency —
    /// how translated/experimental routes end up slower than native ones
    /// on the same silicon.
    pub fn launch_config(&self, n: u64, block_dim: u32) -> LaunchConfig {
        LaunchConfig::linear(n, block_dim).with_efficiency(self.efficiency())
    }

    /// Launch a compiled module.
    pub fn launch(
        &self,
        module: &Module,
        cfg: LaunchConfig,
        args: &[KernelArg],
    ) -> Result<LaunchReport, FrontendError> {
        Ok(self.device.launch(module, cfg, args)?)
    }

    /// Compile-and-launch over `n` linear elements with the route's
    /// efficiency applied — the common path of every frontend's
    /// `parallel_for`.
    pub fn run(
        &self,
        kernel: &KernelIr,
        n: u64,
        block_dim: u32,
        args: &[KernelArg],
    ) -> Result<LaunchReport, FrontendError> {
        let module = self.compile(kernel)?;
        self.launch(&module, self.launch_config(n, block_dim), args)
    }
}

/// Best executable route for a cell, or a refusal naming the vendor.
fn resolve_best(
    model: Model,
    language: Language,
    vendor: Vendor,
) -> Result<VirtualCompiler, FrontendError> {
    let registry = Registry::paper();
    if let Some(c) =
        registry.ranked(model, language, vendor).into_iter().find(|c| c.route.is_executable())
    {
        return Ok(c.clone());
    }
    Err(FrontendError::NoRoute {
        model,
        language,
        vendor,
        detail: no_route_detail(&registry, model, language, vendor),
    })
}

/// A named route of the cell, refusing unmaintained or non-executable
/// toolchains the way the ecosystem refuses them.
fn resolve_named(
    model: Model,
    language: Language,
    vendor: Vendor,
    toolchain: &str,
) -> Result<VirtualCompiler, FrontendError> {
    let registry = Registry::paper();
    let Some(c) =
        registry.select(model, language, vendor).into_iter().find(|c| c.name == toolchain)
    else {
        return Err(FrontendError::NoRoute {
            model,
            language,
            vendor,
            detail: format!("the matrix records no toolchain named \"{toolchain}\" for this cell"),
        });
    };
    if !c.is_available() {
        return Err(FrontendError::Discontinued { toolchain: toolchain.to_owned(), vendor });
    }
    if !c.route.is_executable() {
        return Err(FrontendError::NoRoute {
            model,
            language,
            vendor,
            detail: format!(
                "\"{toolchain}\" is a {} route a frontend cannot drive",
                c.route.kind.label()
            ),
        });
    }
    Ok(c.clone())
}

/// Explain a refusal in the paper's terms: name what the matrix *does*
/// record for the cell.
fn no_route_detail(
    registry: &Registry,
    model: Model,
    language: Language,
    vendor: Vendor,
) -> String {
    let all = registry.select(model, language, vendor);
    if all.is_empty() {
        return "the matrix records no route at all".to_owned();
    }
    let names: Vec<String> =
        all.iter().map(|c| format!("{} ({})", c.name, c.route.kind.label())).collect();
    format!("only non-executable routes exist: {}", names.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmm_gpu_sim::ir::{BinOp, CmpOp, KernelBuilder, Space, Type};

    /// y[i] = a * x[i] + y[i] over f64.
    fn daxpy_kernel() -> KernelIr {
        let mut k = KernelBuilder::new("daxpy");
        let a = k.param(Type::F64);
        let x = k.param(Type::I64);
        let y = k.param(Type::I64);
        let n = k.param(Type::I32);
        let i = k.global_thread_id_x();
        let ok = k.cmp(CmpOp::Lt, i, n);
        k.if_(ok, |k| {
            let xi = k.ld_elem(Space::Global, Type::F64, x, i);
            let yi = k.ld_elem(Space::Global, Type::F64, y, i);
            let ax = k.bin(BinOp::Mul, a, xi);
            let s = k.bin(BinOp::Add, ax, yi);
            k.st_elem(Space::Global, y, i, s);
        });
        k.finish()
    }

    #[test]
    fn native_cells_open_and_execute() {
        for (model, vendor, toolchain) in [
            (Model::Cuda, Vendor::Nvidia, "CUDA Toolkit (nvcc)"),
            (Model::Hip, Vendor::Amd, "hipcc (ROCm/Clang AMDGPU)"),
            (Model::Sycl, Vendor::Intel, "Intel oneAPI DPC++ (icpx -fsycl)"),
        ] {
            let s = ExecutionSession::open(model, Language::Cpp, vendor).unwrap();
            assert_eq!(s.toolchain(), toolchain);
            assert_eq!(s.vendor(), vendor);
            assert_eq!(s.efficiency(), 1.0);

            let n = 512usize;
            let xs = vec![2.0f64; n];
            let ys = vec![1.0f64; n];
            let dx = s.upload(&xs).unwrap();
            let dy = s.upload(&ys).unwrap();
            s.run(
                &daxpy_kernel(),
                n as u64,
                128,
                &[KernelArg::F64(3.0), dx.arg(), dy.arg(), KernelArg::I32(n as i32)],
            )
            .unwrap();
            let out = s.download(&dy).unwrap();
            assert!(out.iter().all(|&v| (v - 7.0).abs() < 1e-12), "{model} on {vendor}");
        }
    }

    #[test]
    fn refused_cells_name_the_vendor() {
        // CUDA C++ on AMD: HIPIFY only — a source translator.
        let err = ExecutionSession::open(Model::Cuda, Language::Cpp, Vendor::Amd).unwrap_err();
        assert!(err.is_refusal());
        assert!(err.to_string().contains("AMD"), "{err}");
        // HIP C++ on Intel: chipStar is registry-usable but a research
        // shim — the frontend still refuses.
        let err = ExecutionSession::open(Model::Hip, Language::Cpp, Vendor::Intel).unwrap_err();
        assert!(err.is_refusal());
        assert!(err.to_string().contains("Intel"), "{err}");
        assert!(err.to_string().contains("chipStar"), "refusal should cite the shim: {err}");
    }

    #[test]
    fn named_toolchains_resolve_and_discontinued_ones_refuse() {
        let s = ExecutionSession::open_with_toolchain(
            Model::Sycl,
            Language::Cpp,
            Vendor::Nvidia,
            "Open SYCL",
        )
        .unwrap();
        assert_eq!(s.toolchain(), "Open SYCL");

        let err = ExecutionSession::open_with_toolchain(
            Model::Sycl,
            Language::Cpp,
            Vendor::Nvidia,
            "ComputeCpp",
        )
        .unwrap_err();
        assert!(matches!(err, FrontendError::Discontinued { .. }), "{err}");
        assert!(err.to_string().contains("NVIDIA"));
    }

    #[test]
    fn sessions_share_the_process_cache() {
        let k = daxpy_kernel();
        let a = ExecutionSession::open(Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        let before = a.cache().stats();
        a.compile(&k).unwrap();
        let b = ExecutionSession::open(Model::Cuda, Language::Cpp, Vendor::Nvidia).unwrap();
        b.compile(&k).unwrap();
        let after = b.cache().stats();
        assert!(after.hits > before.hits, "second session must hit the artifact the first filled");
    }

    #[test]
    fn extension_routes_run_outside_the_matrix() {
        use mcmm_core::provider::Provider;
        use mcmm_core::route::{Completeness, Directness, RouteKind};
        let route = Route::new(
            "RAJA CUDA backend",
            RouteKind::Library,
            Provider::Community("RAJA"),
            Directness::Direct,
            Completeness::Complete,
        );
        let device = Device::new(vendor_device_spec(Vendor::Nvidia));
        let s = ExecutionSession::for_route(device, Model::Cuda, Language::Cpp, route).unwrap();
        assert_eq!(s.toolchain(), "RAJA CUDA backend");
        let dx = s.upload(&vec![1.0f64; 64]).unwrap();
        let dy = s.upload(&vec![0.5f64; 64]).unwrap();
        s.run(
            &daxpy_kernel(),
            64,
            64,
            &[KernelArg::F64(2.0), dx.arg(), dy.arg(), KernelArg::I32(64)],
        )
        .unwrap();
        let out = s.download(&dy).unwrap();
        assert!(out.iter().all(|&v| (v - 2.5).abs() < 1e-12));
    }
}
