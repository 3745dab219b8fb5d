//! Simulated GPU devices.
//!
//! A [`DeviceSpec`] carries the public-datasheet attributes of one device
//! model; the three presets correspond to the flagship HPC parts of the
//! paper's three vendors (§1): NVIDIA A100, one GCD of an AMD Instinct
//! MI250X (Frontier), and one stack of an Intel Data Center GPU Max
//! ("Ponte Vecchio", Aurora). Attribute values are public-spec numbers and
//! serve as *calibration*, not measurement — see EXPERIMENTS.md.
//!
//! A [`Device`] owns global memory, a block-execution worker count sized
//! to the host, a kernel cache, and a modeled clock accumulating
//! [`crate::timing::ModeledTime`]. The kernel cache keys each kernel by the
//! fingerprint its [`Module`] carries and holds it decoded and lowered, so
//! a kernel is decoded, checked and lowered once per device and every later
//! load or launch is one lookup.

use crate::counters::{Counters, LaunchStats, StatsCell};
use crate::exec::{injected_block_crash, BlockCtx};
use crate::fault::{LaunchFault, TransferFault};
use crate::ir::{KernelIr, Value};
use crate::isa::{disassemble, IsaKind, Module};
use crate::lower::{lower, LvProgram};
use crate::mem::{DevicePtr, GlobalMemory};
use crate::memhier::{MemHierSpec, MemStats};
use crate::pool::{run_indexed, ScratchPool};
use crate::sched::SchedulePolicy;
use crate::timing::{kernel_time, kernel_time_traced, transfer_time, ModeledTime};
use crate::trace::{TraceScratch, TraceSink};
use crate::vexec::run_block_lv;
use crate::{Result, SimError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The engine a device runs kernel blocks on. Every device runs the
/// lowered lane-vector bytecode of [`crate::lower`] + [`crate::vexec`], so
/// `Vectorized` is the only value; this exists only for the benchmark's
/// configuration line ([`Device::exec_tier`]).
#[derive(Debug, Clone, Copy)]
pub enum ExecTier {
    /// Lowered lane-vector bytecode ([`crate::lower`] + [`crate::vexec`]).
    Vectorized,
}

/// Which timing model a device uses to derive modeled launch times.
///
/// Neither tier changes what a kernel computes — buffers and counters
/// are byte-identical across tiers; only the modeled time differs:
///
/// * [`TimingTier::Analytic`] — the roofline bound in
///   [`crate::timing::kernel_time`]: flat `bytes_total / dram_gbps`,
///   blind to access patterns.
/// * [`TimingTier::TraceDriven`] — the launch's memory-access trace is
///   replayed through the device's coalescer + L1/L2 hierarchy
///   ([`crate::memhier`]) and the resulting sector traffic feeds
///   [`crate::timing::kernel_time_traced`]. Implies access tracing for
///   the launch.
///
/// The default is `Analytic`; a device takes its tier from its
/// [`SimConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TimingTier {
    /// Roofline model over aggregate counters ([`crate::timing::kernel_time`]).
    #[default]
    Analytic,
    /// Trace replay through the memory hierarchy ([`crate::memhier`]).
    TraceDriven,
}

/// The simulator's settings, fixed for a device's whole life. No setting
/// changes what a kernel computes: buffers are byte-identical under every
/// value of every field, and only modeled times and whether [`MemStats`]
/// are collected differ.
///
/// [`Device::new`] starts a device on [`SimConfig::resolve`];
/// [`Device::with_config`] takes one explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimConfig {
    /// The model launch times are derived with.
    pub timing: TimingTier,
    /// Record every launch's memory-access trace and replay it into
    /// [`LaunchReport::mem`] and [`Device::mem_stats`], even when the
    /// timing tier does not need one.
    pub tracing: bool,
}

/// The optimization level a device reports. Kernels are always lowered as
/// written, so `O0` is the only level; this exists only for the
/// benchmark's configuration line ([`Device::opt_level`]).
#[derive(Debug, Clone, Copy)]
pub enum OptLevel {
    /// Kernels lowered as written.
    O0,
}

/// The process-wide override [`SimConfig::resolve`] returns when set.
static PROCESS_CONFIG: Mutex<Option<SimConfig>> = Mutex::new(None);

/// Make [`SimConfig::resolve`] return `cfg` instead of reading the
/// environment (`None` clears the override), so every subsequently
/// created [`Device`] and every later compile use it. Exists so tests can
/// flip settings without racing on the process environment.
pub fn set_process_config(cfg: Option<SimConfig>) {
    *PROCESS_CONFIG.lock() = cfg;
}

impl SimConfig {
    /// The settings the environment asks for, read afresh on every call
    /// (a process may set a variable after start-up). A variable that is
    /// unset or holds anything else leaves its field at the default:
    ///
    /// * `MCMM_TIMING_TIER`: `traced` or `trace-driven` (any case) selects
    ///   trace-driven timing;
    /// * `MCMM_MEM_TRACE`: `1`, `on`, `ON`, `true` or `TRUE` turns tracing on.
    pub fn from_env() -> Self {
        let var = |name| std::env::var(name).unwrap_or_default();
        let lower = |name| var(name).to_ascii_lowercase();
        Self {
            timing: match lower("MCMM_TIMING_TIER").as_str() {
                "traced" | "trace-driven" => TimingTier::TraceDriven,
                _ => TimingTier::Analytic,
            },
            tracing: matches!(var("MCMM_MEM_TRACE").as_str(), "1" | "on" | "ON" | "true" | "TRUE"),
        }
    }

    /// The settings a new device starts with and the toolchain compiles
    /// under: the process override ([`set_process_config`]) if one is
    /// set, else [`SimConfig::from_env`].
    pub fn resolve() -> Self {
        PROCESS_CONFIG.lock().unwrap_or_else(Self::from_env)
    }
}

/// Static attributes of a device model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name.
    pub name: &'static str,
    /// The ISA this device executes — also identifies the vendor.
    pub isa: IsaKind,
    /// Streaming multiprocessors / compute units / Xe-cores.
    pub compute_units: u32,
    /// Warp (NVIDIA, 32), wavefront (AMD, 64), sub-group (Intel, 16) width.
    pub warp_width: u32,
    /// Boost clock in GHz.
    pub clock_ghz: f64,
    /// Warp-instructions each CU can issue per cycle (schedulers).
    pub warp_issue_per_cycle: f64,
    /// Peak DRAM bandwidth in decimal GB/s.
    pub dram_gbps: f64,
    /// Host interconnect bandwidth in GB/s.
    pub pcie_gbps: f64,
    /// Kernel launch latency in microseconds.
    pub launch_latency_us: f64,
    /// Host↔device transfer latency in microseconds.
    pub transfer_latency_us: f64,
    /// Device memory capacity in bytes (simulated allocations are smaller).
    pub mem_bytes: u64,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Shared memory per block in bytes.
    pub shared_per_block: u64,
    /// Modeled cost of one global atomic (nanoseconds, per compute
    /// unit) — a per-vendor throughput attribute.
    pub atomic_ns: f64,
    /// Cache-hierarchy geometry and latencies (coalescer sector size,
    /// L1/L2 shape, per-level latencies and L2 bandwidth).
    pub memhier: MemHierSpec,
}

impl DeviceSpec {
    /// NVIDIA A100-SXM4-80GB (public datasheet values).
    pub fn nvidia_a100() -> Self {
        Self {
            name: "NVIDIA A100 (sim)",
            isa: IsaKind::PtxLike,
            compute_units: 108,
            warp_width: 32,
            clock_ghz: 1.41,
            warp_issue_per_cycle: 4.0,
            dram_gbps: 2039.0,
            pcie_gbps: 32.0,
            launch_latency_us: 5.0,
            transfer_latency_us: 10.0,
            mem_bytes: 256 << 20, // simulated capacity, not the real 80 GB
            max_threads_per_block: 1024,
            shared_per_block: 48 << 10,
            atomic_ns: 2.0,
            memhier: MemHierSpec::nvidia_a100(),
        }
    }

    /// One GCD of an AMD Instinct MI250X (Frontier's device).
    pub fn amd_mi250x() -> Self {
        Self {
            name: "AMD Instinct MI250X GCD (sim)",
            isa: IsaKind::GcnLike,
            compute_units: 110,
            warp_width: 64,
            clock_ghz: 1.70,
            warp_issue_per_cycle: 2.0,
            dram_gbps: 1638.0,
            pcie_gbps: 36.0,
            launch_latency_us: 6.0,
            transfer_latency_us: 10.0,
            mem_bytes: 256 << 20,
            max_threads_per_block: 1024,
            shared_per_block: 64 << 10,
            atomic_ns: 2.4,
            memhier: MemHierSpec::amd_mi250x(),
        }
    }

    /// One stack of an Intel Data Center GPU Max 1550 ("Ponte Vecchio",
    /// Aurora's device).
    pub fn intel_pvc() -> Self {
        Self {
            name: "Intel Data Center GPU Max (sim)",
            isa: IsaKind::SpirvLike,
            compute_units: 128,
            warp_width: 16,
            clock_ghz: 1.60,
            warp_issue_per_cycle: 4.0,
            dram_gbps: 1638.0,
            pcie_gbps: 32.0,
            launch_latency_us: 8.0,
            transfer_latency_us: 12.0,
            mem_bytes: 256 << 20,
            max_threads_per_block: 1024,
            shared_per_block: 64 << 10,
            atomic_ns: 3.0,
            memhier: MemHierSpec::intel_pvc(),
        }
    }

    /// All three presets.
    pub fn presets() -> [DeviceSpec; 3] {
        [Self::nvidia_a100(), Self::amd_mi250x(), Self::intel_pvc()]
    }
}

/// A kernel argument at launch time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelArg {
    /// A 32-bit float scalar.
    F32(f32),
    /// A 64-bit float scalar.
    F64(f64),
    /// A 32-bit integer scalar.
    I32(i32),
    /// A 64-bit integer scalar.
    I64(i64),
    /// A device pointer (passed to the kernel as its I64 byte address).
    Ptr(DevicePtr),
}

impl KernelArg {
    fn to_value(self) -> Value {
        match self {
            KernelArg::F32(x) => Value::F32(x),
            KernelArg::F64(x) => Value::F64(x),
            KernelArg::I32(x) => Value::I32(x),
            KernelArg::I64(x) => Value::I64(x),
            KernelArg::Ptr(p) => Value::I64(p.0 as i64),
        }
    }
}

/// A 1-D launch configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchConfig {
    /// Number of blocks.
    pub grid_dim: u32,
    /// Threads per block.
    pub block_dim: u32,
    /// Block scheduling policy.
    pub policy: SchedulePolicy,
    /// Route-efficiency factor (0, 1]; native toolchains use 1.0.
    pub efficiency: f64,
}

impl LaunchConfig {
    /// Grid sized to cover `n` elements with `block_dim` threads per block.
    pub fn linear(n: u64, block_dim: u32) -> Self {
        let bd = block_dim.max(1);
        let grid = n.div_ceil(u64::from(bd)).max(1);
        Self {
            grid_dim: u32::try_from(grid).expect("grid too large"),
            block_dim: bd,
            policy: SchedulePolicy::default(),
            efficiency: 1.0,
        }
    }

    /// Override the route efficiency.
    pub fn with_efficiency(mut self, efficiency: f64) -> Self {
        self.efficiency = efficiency;
        self
    }

    /// Override the scheduling policy.
    pub fn with_policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        u64::from(self.grid_dim) * u64::from(self.block_dim)
    }
}

/// The result of one launch: counters plus modeled time.
#[derive(Debug, Clone, Copy)]
pub struct LaunchReport {
    /// The performance counters the launch accumulated.
    pub stats: LaunchStats,
    /// The modeled execution time derived from those counters.
    pub time: ModeledTime,
    /// Memory-hierarchy statistics from replaying the launch's access
    /// trace — present when the device traced the launch (tracing
    /// enabled or the trace-driven timing tier active).
    pub mem: Option<MemStats>,
}

/// Cumulative host↔device transfer volume of one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Bytes moved host → device.
    pub h2d_bytes: u64,
    /// Completed host → device transfers.
    pub h2d_count: u64,
    /// Bytes moved device → host.
    pub d2h_bytes: u64,
    /// Completed device → host transfers.
    pub d2h_count: u64,
}

impl TransferStats {
    /// Total bytes moved over the interconnect in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.h2d_bytes + self.d2h_bytes
    }
}

/// A simulated GPU device.
pub struct Device {
    spec: DeviceSpec,
    memory: GlobalMemory,
    /// Host threads a launch runs blocks on besides the caller's.
    workers: usize,
    /// Every kernel loaded or launched here, decoded and lowered once.
    kernels: KernelCache,
    clock: Mutex<f64>,
    /// Cumulative per-device counters, merged once per completed launch
    /// under a lock so concurrent readers get consistent snapshots.
    cumulative: StatsCell,
    /// The settings every launch on this device runs under.
    config: SimConfig,
    /// Reusable per-worker tracing scratch (trace arenas + L1-stage
    /// buffers), shared by every launch so capacity amortizes to its
    /// high-water mark.
    trace_scratch: Arc<ScratchPool<TraceScratch>>,
    /// Recycled shared-L2 cache for the streaming replay's launch-exit
    /// stage (its line array runs to megabytes; rebuilding it per
    /// launch would dwarf the replay itself).
    l2_scratch: Arc<parking_lot::Mutex<Option<crate::cache::SectoredCache>>>,
    /// Cumulative memory-hierarchy stats over traced launches, with the
    /// number of traced launches merged in.
    mem_cumulative: crate::counters::MemStatsCell,
    /// Cumulative host↔device transfer volume.
    transfers: Mutex<TransferStats>,
}

/// `len` bytes of one device's memory, freed when this owner drops, so
/// every exit path of its holder gives the memory back. Made by
/// [`Device::alloc_owned`]; share one with `Arc` to alias it.
pub struct DeviceAlloc {
    device: Arc<Device>,
    ptr: DevicePtr,
    len: u64,
}

impl DeviceAlloc {
    /// Where the allocation starts.
    pub fn ptr(&self) -> DevicePtr {
        self.ptr
    }

    /// Its size in bytes, as requested.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Was it requested zero bytes long?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The allocation as a kernel pointer argument.
    pub fn arg(&self) -> KernelArg {
        KernelArg::Ptr(self.ptr)
    }
}

impl std::fmt::Debug for DeviceAlloc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceAlloc").field("ptr", &self.ptr).field("len", &self.len).finish()
    }
}

impl Drop for DeviceAlloc {
    fn drop(&mut self) {
        self.device.free(self.ptr, self.len);
    }
}

/// How a device's kernel cache has performed so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to decode and lower.
    pub misses: u64,
    /// Distinct kernels currently cached.
    pub entries: usize,
}

impl ProgramCacheStats {
    /// Fraction of lookups served from the cache (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Field-wise sum, for aggregating across devices.
    pub fn merged(self, other: ProgramCacheStats) -> ProgramCacheStats {
        ProgramCacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            entries: self.entries + other.entries,
        }
    }
}

/// A kernel as a device holds it: the decoded IR [`Device::load`] returns
/// and the lowered program its blocks run.
#[derive(Clone)]
struct Loaded {
    kernel: Arc<KernelIr>,
    program: Arc<LvProgram>,
}

/// A device's kernels, keyed by [`KernelIr::fingerprint`]. Unbounded:
/// programs are small (a flat op vector) and the distinct-kernel
/// population is bounded by what was loaded onto the device.
#[derive(Default)]
struct KernelCache {
    map: Mutex<HashMap<u64, Loaded>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl KernelCache {
    /// The kernel under `fingerprint`, decoding and lowering it on a miss.
    /// A failed decode caches nothing.
    fn get_or_insert(
        &self,
        fingerprint: u64,
        decode: impl FnOnce() -> Result<KernelIr>,
    ) -> Result<Loaded> {
        if let Some(loaded) = self.map.lock().get(&fingerprint) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(loaded.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Decode and lower outside the lock: both are pure, so a racing
        // duplicate is wasted work at worst, and the first insert wins.
        let kernel = decode()?;
        let loaded = Loaded { program: Arc::new(lower(&kernel)), kernel: Arc::new(kernel) };
        Ok(self.map.lock().entry(fingerprint).or_insert(loaded).clone())
    }

    fn stats(&self) -> ProgramCacheStats {
        ProgramCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.lock().len(),
        }
    }
}

impl Device {
    /// Bring up a device of the given model under
    /// [`SimConfig::resolve`]'s settings. Launches run blocks on one
    /// worker thread per host core (at most 8) plus the calling thread
    /// (the *modeled* CU count only affects timing).
    pub fn new(spec: DeviceSpec) -> Arc<Self> {
        Self::with_config(spec, SimConfig::resolve())
    }

    /// [`Device::new`] under `config`, whatever the process override and
    /// the environment say.
    pub fn with_config(spec: DeviceSpec, config: SimConfig) -> Arc<Self> {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Arc::new(Self {
            memory: GlobalMemory::new(spec.mem_bytes),
            workers: workers.min(8),
            kernels: KernelCache::default(),
            clock: Mutex::new(0.0),
            cumulative: StatsCell::new(),
            config,
            trace_scratch: Arc::new(ScratchPool::new()),
            l2_scratch: Arc::new(parking_lot::Mutex::new(None)),
            mem_cumulative: crate::counters::MemStatsCell::new(),
            transfers: Mutex::new(TransferStats::default()),
            spec,
        })
    }

    /// Always [`ExecTier::Vectorized`]. Kept only for the benchmark's
    /// configuration line, which prints it.
    pub fn exec_tier(&self) -> ExecTier {
        ExecTier::Vectorized
    }

    /// The timing tier this device models launch times with.
    pub fn timing_tier(&self) -> TimingTier {
        self.config.timing
    }

    /// Whether this device records memory-access traces independently of
    /// the timing tier.
    pub fn tracing(&self) -> bool {
        self.config.tracing
    }

    /// Cumulative memory-hierarchy statistics over every traced launch.
    pub fn mem_stats(&self) -> MemStats {
        self.mem_cumulative.read()
    }

    /// Number of traced launches merged into [`Device::mem_stats`].
    pub fn mem_launches(&self) -> u64 {
        self.mem_cumulative.merges()
    }

    /// Cumulative host↔device transfer volume.
    pub fn transfer_stats(&self) -> TransferStats {
        *self.transfers.lock()
    }

    /// Always [`OptLevel::O0`]. Kept only for the benchmark's
    /// configuration line, which prints it.
    pub fn opt_level(&self) -> OptLevel {
        OptLevel::O0
    }

    /// Hit/miss statistics of the kernel cache, counting one lookup per
    /// [`Device::load`] and per launch.
    pub fn program_cache_stats(&self) -> ProgramCacheStats {
        self.kernels.stats()
    }

    /// The device model.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Raw global memory (used by model frontends for typed access).
    pub fn memory(&self) -> &GlobalMemory {
        &self.memory
    }

    /// Total modeled time accumulated on this device.
    pub fn modeled_clock(&self) -> ModeledTime {
        ModeledTime::from_seconds(*self.clock.lock())
    }

    /// Cumulative counters over every launch this device has completed.
    /// The snapshot is consistent (all fields from the same instant) and
    /// safe to read while launches are in flight on other threads.
    pub fn stats(&self) -> LaunchStats {
        self.cumulative.read()
    }

    /// Number of launches completed on this device.
    pub fn launches(&self) -> u64 {
        self.cumulative.merges()
    }

    fn advance_clock(&self, t: ModeledTime) {
        *self.clock.lock() += t.seconds();
    }

    /// Allocate `len` bytes of device memory.
    pub fn alloc(&self, len: u64) -> Result<DevicePtr> {
        self.memory.alloc(len)
    }

    /// Free a device allocation. Outside this crate memory is freed
    /// only by dropping its [`DeviceAlloc`].
    pub(crate) fn free(&self, ptr: DevicePtr, len: u64) {
        self.memory.free(ptr, len);
    }

    /// Allocate `len` bytes of device memory that the returned
    /// [`DeviceAlloc`] owns and frees when it drops.
    pub fn alloc_owned(self: &Arc<Self>, len: u64) -> Result<DeviceAlloc> {
        let ptr = self.alloc(len)?;
        Ok(DeviceAlloc { device: Arc::clone(self), ptr, len })
    }

    /// Host → device transfer; advances the modeled clock and records
    /// the volume in [`Device::transfer_stats`].
    pub fn memcpy_h2d(&self, dst: DevicePtr, data: &[u8]) -> Result<ModeledTime> {
        self.memory.write_bytes(dst, data)?;
        let t = transfer_time(&self.spec, data.len() as u64);
        self.advance_clock(t);
        let mut xfer = self.transfers.lock();
        xfer.h2d_bytes += data.len() as u64;
        xfer.h2d_count += 1;
        Ok(t)
    }

    /// Device → host transfer; advances the modeled clock and records
    /// the volume in [`Device::transfer_stats`].
    pub fn memcpy_d2h(&self, src: DevicePtr, len: u64) -> Result<(Vec<u8>, ModeledTime)> {
        let data = self.memory.read_bytes(src, len)?;
        let t = transfer_time(&self.spec, len);
        self.advance_clock(t);
        let mut xfer = self.transfers.lock();
        xfer.d2h_bytes += len;
        xfer.d2h_count += 1;
        Ok((data, t))
    }

    /// [`Device::memcpy_h2d`] with an optional injected transfer fault:
    /// the copy aborts before touching device memory, but the modeled
    /// transfer latency for the attempted bytes is still paid.
    pub fn memcpy_h2d_faulted(
        &self,
        dst: DevicePtr,
        data: &[u8],
        fault: Option<&TransferFault>,
    ) -> Result<ModeledTime> {
        if let Some(f) = fault {
            self.advance_clock(transfer_time(&self.spec, data.len() as u64));
            return Err(SimError::FaultInjected(format!("h2d transfer aborted: {}", f.reason)));
        }
        self.memcpy_h2d(dst, data)
    }

    /// [`Device::memcpy_d2h`] with an optional injected transfer fault.
    pub fn memcpy_d2h_faulted(
        &self,
        src: DevicePtr,
        len: u64,
        fault: Option<&TransferFault>,
    ) -> Result<(Vec<u8>, ModeledTime)> {
        if let Some(f) = fault {
            self.advance_clock(transfer_time(&self.spec, len));
            return Err(SimError::FaultInjected(format!("d2h transfer aborted: {}", f.reason)));
        }
        self.memcpy_d2h(src, len)
    }

    /// Allocate and upload an `f32` slice.
    pub fn alloc_copy_f32(&self, data: &[f32]) -> Result<DevicePtr> {
        let ptr = self.alloc(data.len() as u64 * 4)?;
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.memcpy_h2d(ptr, &bytes)?;
        Ok(ptr)
    }

    /// Allocate and upload an `f64` slice.
    pub fn alloc_copy_f64(&self, data: &[f64]) -> Result<DevicePtr> {
        let ptr = self.alloc(data.len() as u64 * 8)?;
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.memcpy_h2d(ptr, &bytes)?;
        Ok(ptr)
    }

    /// Read back `n` `f32` values.
    pub fn read_f32(&self, ptr: DevicePtr, n: usize) -> Result<Vec<f32>> {
        let (bytes, _) = self.memcpy_d2h(ptr, n as u64 * 4)?;
        Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect())
    }

    /// Read back `n` `f64` values.
    pub fn read_f64(&self, ptr: DevicePtr, n: usize) -> Result<Vec<f64>> {
        let (bytes, _) = self.memcpy_d2h(ptr, n as u64 * 8)?;
        Ok(bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect())
    }

    /// Load a module: one lookup on the fingerprint it carries. A kernel
    /// this device has not seen is decoded, checked against that
    /// fingerprint and lowered, once. Rejects foreign ISAs — the hard
    /// compatibility wall of the paper's matrix.
    pub fn load(&self, module: &Module) -> Result<Arc<KernelIr>> {
        Ok(self.resolve(module)?.kernel)
    }

    fn resolve(&self, module: &Module) -> Result<Loaded> {
        if module.isa != self.spec.isa {
            return Err(SimError::IsaMismatch { module: module.isa, device: self.spec.isa });
        }
        self.kernels.get_or_insert(module.fingerprint, || disassemble(module))
    }

    /// Launch a kernel and wait for completion. Returns counters and the
    /// modeled execution time (also added to the device clock).
    pub fn launch(
        &self,
        module: &Module,
        cfg: LaunchConfig,
        args: &[KernelArg],
    ) -> Result<LaunchReport> {
        self.launch_faulted(module, cfg, args, None)
    }

    /// [`Device::launch`] with an optional injected launch fault:
    ///
    /// * [`LaunchFault::Refuse`] — fails before any block runs; launch
    ///   latency is paid, memory untouched.
    /// * [`LaunchFault::Stall`] — the device hangs for the given modeled
    ///   microseconds, then the watchdog kills the launch; nothing
    ///   executes but the stall lands on the device clock.
    /// * [`LaunchFault::CrashBlock`] — one block (index modulo the grid)
    ///   crashes before issuing; sibling blocks may already have written,
    ///   so a retry must use fresh buffers.
    pub fn launch_faulted(
        &self,
        module: &Module,
        cfg: LaunchConfig,
        args: &[KernelArg],
        fault: Option<&LaunchFault>,
    ) -> Result<LaunchReport> {
        let loaded = self.resolve(module)?;
        match fault {
            None => self.run(&loaded, cfg, args, None, run_block_lv),
            Some(LaunchFault::Refuse(reason)) => {
                self.advance_clock(ModeledTime::from_seconds(self.spec.launch_latency_us * 1e-6));
                Err(SimError::FaultInjected(format!("launch refused: {reason}")))
            }
            Some(LaunchFault::Stall(us)) => {
                self.advance_clock(ModeledTime::from_seconds(
                    (self.spec.launch_latency_us + us.max(0.0)) * 1e-6,
                ));
                Err(SimError::FaultInjected(format!(
                    "watchdog killed launch after {us:.0} us stall"
                )))
            }
            Some(LaunchFault::CrashBlock(b)) => {
                self.run(&loaded, cfg, args, Some(b % cfg.grid_dim.max(1)), run_block_lv)
            }
        }
    }

    /// Launch a kernel given as IR, cached under its
    /// [`KernelIr::fingerprint`] like a loaded module's.
    pub fn launch_kernel(
        &self,
        kernel: &KernelIr,
        cfg: LaunchConfig,
        args: &[KernelArg],
    ) -> Result<LaunchReport> {
        self.launch_kernel_with(kernel, cfg, args, run_block_lv)
    }

    /// [`Device::launch_kernel`] with each block run by `run_block`, which
    /// is handed the block's context, the kernel's lowered program and the
    /// arguments. Exists so tests can substitute the reference engine of
    /// the `mcmm-gpu-sim-ref` crate: the launch checks, scheduling,
    /// tracing, counters, modeled time and kernel cache stay the device's
    /// own, so a differential compares two block engines and nothing else.
    pub fn launch_kernel_with(
        &self,
        kernel: &KernelIr,
        cfg: LaunchConfig,
        args: &[KernelArg],
        run_block: impl Fn(&BlockCtx<'_>, &LvProgram, &[Value]) -> Result<()> + Sync,
    ) -> Result<LaunchReport> {
        let loaded = self.kernels.get_or_insert(kernel.fingerprint(), || Ok(kernel.clone()))?;
        self.run(&loaded, cfg, args, None, run_block)
    }

    fn run(
        &self,
        loaded: &Loaded,
        cfg: LaunchConfig,
        args: &[KernelArg],
        crash_block: Option<u32>,
        run_block: impl Fn(&BlockCtx<'_>, &LvProgram, &[Value]) -> Result<()> + Sync,
    ) -> Result<LaunchReport> {
        let kernel: &KernelIr = &loaded.kernel;
        if cfg.block_dim == 0 || cfg.grid_dim == 0 {
            return Err(SimError::BadLaunch("zero grid or block dimension".into()));
        }
        if cfg.block_dim > self.spec.max_threads_per_block {
            return Err(SimError::BadLaunch(format!(
                "block_dim {} exceeds device limit {}",
                cfg.block_dim, self.spec.max_threads_per_block
            )));
        }
        if kernel.shared_bytes > self.spec.shared_per_block {
            return Err(SimError::BadLaunch(format!(
                "kernel needs {} B shared, device offers {}",
                kernel.shared_bytes, self.spec.shared_per_block
            )));
        }
        if !(cfg.efficiency > 0.0 && cfg.efficiency <= 1.0) {
            return Err(SimError::BadLaunch(format!("efficiency {} out of (0,1]", cfg.efficiency)));
        }
        let values: Vec<Value> = args.iter().map(|a| a.to_value()).collect();

        let timing = self.timing_tier();
        // The trace-driven timing tier needs a trace; the tracing flag
        // asks for one regardless of how time is modeled.
        let sink = if self.tracing() || timing == TimingTier::TraceDriven {
            Some(TraceSink::new(
                self.spec.memhier,
                self.spec.warp_width,
                Arc::clone(&self.trace_scratch),
                Arc::clone(&self.l2_scratch),
            ))
        } else {
            None
        };

        let counters = Counters::new();
        // Happy-path early exit is a relaxed load; the mutex is touched
        // only by blocks that actually fail.
        let failed = AtomicBool::new(false);
        let error: Mutex<Option<SimError>> = Mutex::new(None);
        let fail = |e: SimError| {
            error.lock().get_or_insert(e);
            failed.store(true, Ordering::Relaxed);
        };
        run_indexed(self.workers, cfg.grid_dim as usize, cfg.policy, |block| {
            if failed.load(Ordering::Relaxed) {
                return; // a sibling block already failed — stop early
            }
            let ctx = BlockCtx {
                kernel,
                global: &self.memory,
                counters: &counters,
                block_id: block as u32,
                grid_dim: cfg.grid_dim,
                block_dim: cfg.block_dim,
                warp_width: self.spec.warp_width,
                trace: sink.as_ref(),
            };
            if crash_block == Some(ctx.block_id) {
                fail(injected_block_crash(&ctx));
                return;
            }
            if let Err(e) = run_block(&ctx, &loaded.program, &values) {
                fail(e);
            }
        });
        if let Some(e) = error.into_inner() {
            return Err(e);
        }
        let stats = counters.snapshot();
        let mem = sink.map(TraceSink::finish);
        let time = match (timing, &mem) {
            (TimingTier::TraceDriven, Some(m)) => {
                kernel_time_traced(&self.spec, &stats, m, cfg.efficiency)
            }
            _ => kernel_time(&self.spec, &stats, cfg.efficiency),
        };
        self.advance_clock(time);
        self.cumulative.merge(stats);
        if let Some(m) = mem {
            self.mem_cumulative.merge(m);
        }
        Ok(LaunchReport { stats, time, mem })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, CmpOp, KernelBuilder, Space, Type};
    use crate::isa::assemble;

    fn saxpy_kernel() -> KernelIr {
        let mut k = KernelBuilder::new("saxpy");
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

    #[test]
    fn owned_allocations_free_when_their_last_owner_drops() {
        let dev = Device::new(DeviceSpec::nvidia_a100());
        let whole = dev.memory().free_bytes();
        let a = dev.alloc_owned(1000).unwrap();
        let b = Arc::new(dev.alloc_owned(8).unwrap());
        let alias = Arc::clone(&b);
        assert_eq!(whole - dev.memory().free_bytes(), 1024 + 256);
        drop((a, b));
        assert_eq!(whole - dev.memory().free_bytes(), 256, "the alias still owns its bytes");
        drop(alias);
        assert_eq!(dev.memory().free_bytes(), whole);
    }

    #[test]
    fn end_to_end_saxpy_on_each_vendor() {
        let kernel = saxpy_kernel();
        for spec in DeviceSpec::presets() {
            let isa = spec.isa;
            let name = spec.name;
            let dev = Device::new(spec);
            let module = assemble(&kernel, isa).unwrap();
            let n = 1000usize;
            let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let ys = vec![10.0f32; n];
            let dx = dev.alloc_copy_f32(&xs).unwrap();
            let dy = dev.alloc_copy_f32(&ys).unwrap();
            let report = dev
                .launch(
                    &module,
                    LaunchConfig::linear(n as u64, 256),
                    &[
                        KernelArg::F32(2.0),
                        KernelArg::Ptr(dx),
                        KernelArg::Ptr(dy),
                        KernelArg::I32(n as i32),
                    ],
                )
                .unwrap();
            let out = dev.read_f32(dy, n).unwrap();
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, 2.0 * i as f32 + 10.0, "{name} wrong at {i}");
            }
            assert!(report.time.seconds() > 0.0);
            assert_eq!(report.stats.blocks, 4);
        }
    }

    #[test]
    fn cross_isa_launch_fails() {
        let kernel = saxpy_kernel();
        let dev = Device::new(DeviceSpec::amd_mi250x());
        let module = assemble(&kernel, IsaKind::PtxLike).unwrap();
        match dev.launch(&module, LaunchConfig::linear(32, 32), &[]) {
            Err(SimError::IsaMismatch { module: m, device: d }) => {
                assert_eq!(m, IsaKind::PtxLike);
                assert_eq!(d, IsaKind::GcnLike);
            }
            other => panic!("expected IsaMismatch, got {other:?}"),
        }
    }

    #[test]
    fn launch_limits_enforced() {
        let kernel = saxpy_kernel();
        let dev = Device::new(DeviceSpec::nvidia_a100());
        let module = assemble(&kernel, IsaKind::PtxLike).unwrap();
        let cfg = LaunchConfig {
            grid_dim: 1,
            block_dim: 4096,
            policy: SchedulePolicy::Dynamic,
            efficiency: 1.0,
        };
        assert!(matches!(dev.launch(&module, cfg, &[]), Err(SimError::BadLaunch(_))));
        let cfg = LaunchConfig {
            grid_dim: 0,
            block_dim: 32,
            policy: SchedulePolicy::Dynamic,
            efficiency: 1.0,
        };
        assert!(matches!(dev.launch(&module, cfg, &[]), Err(SimError::BadLaunch(_))));
        let cfg = LaunchConfig::linear(32, 32).with_efficiency(0.0);
        assert!(matches!(dev.launch(&module, cfg, &[]), Err(SimError::BadLaunch(_))));
    }

    #[test]
    fn warp_width_differs_across_vendors_in_counters() {
        // The same launch issues fewer (wider) warps on AMD (64) than on
        // Intel (16).
        let kernel = saxpy_kernel();
        let mut warps = Vec::new();
        for spec in [DeviceSpec::amd_mi250x(), DeviceSpec::intel_pvc()] {
            let isa = spec.isa;
            let dev = Device::new(spec);
            let module = assemble(&kernel, isa).unwrap();
            let n = 256usize;
            let dx = dev.alloc_copy_f32(&vec![0.0; n]).unwrap();
            let dy = dev.alloc_copy_f32(&vec![0.0; n]).unwrap();
            let report = dev
                .launch(
                    &module,
                    LaunchConfig::linear(n as u64, 256),
                    &[
                        KernelArg::F32(1.0),
                        KernelArg::Ptr(dx),
                        KernelArg::Ptr(dy),
                        KernelArg::I32(n as i32),
                    ],
                )
                .unwrap();
            warps.push(report.stats.warps);
        }
        assert_eq!(warps[0], 4, "AMD: 256/64");
        assert_eq!(warps[1], 16, "Intel: 256/16");
    }

    #[test]
    fn modeled_clock_accumulates() {
        let dev = Device::new(DeviceSpec::nvidia_a100());
        assert_eq!(dev.modeled_clock().seconds(), 0.0);
        let ptr = dev.alloc(1024).unwrap();
        dev.memcpy_h2d(ptr, &[0u8; 1024]).unwrap();
        let t1 = dev.modeled_clock();
        assert!(t1.seconds() > 0.0);
        let (_, _) = dev.memcpy_d2h(ptr, 1024).unwrap();
        assert!(dev.modeled_clock().seconds() > t1.seconds());
    }

    #[test]
    fn transfers_pin_modeled_time_and_volume() {
        // Modeled transfer cost depends on the length alone — the A100's
        // 10 µs latency plus the bytes over 32 GB/s — never on how the
        // host moves them. An unaligned odd length takes every copy path.
        const LEN: u64 = 4099;
        let dev = Device::new(DeviceSpec::nvidia_a100());
        let ptr = dev.alloc(LEN + 3).unwrap().offset(3);
        let want = 10.0 * 1e-6 + LEN as f64 / (32.0 * 1e9);
        let data: Vec<u8> = (0..LEN).map(|i| i as u8).collect();

        assert_eq!(dev.memcpy_h2d(ptr, &data).unwrap().seconds(), want);
        assert_eq!(dev.modeled_clock().seconds(), want);
        let h2d_only = TransferStats { h2d_bytes: LEN, h2d_count: 1, ..TransferStats::default() };
        assert_eq!(dev.transfer_stats(), h2d_only);

        let (back, t) = dev.memcpy_d2h(ptr, LEN).unwrap();
        assert_eq!(back, data);
        assert_eq!(t.seconds(), want);
        assert_eq!(dev.modeled_clock().seconds(), want + want);
        assert_eq!(
            dev.transfer_stats(),
            TransferStats { d2h_bytes: LEN, d2h_count: 1, ..h2d_only }
        );
    }

    #[test]
    fn program_cache_lowers_once_per_fingerprint() {
        // Loads and both launch paths share one entry per kernel.
        let kernel = saxpy_kernel();
        let dev = Device::new(DeviceSpec::nvidia_a100());
        let module = assemble(&kernel, IsaKind::PtxLike).unwrap();
        let k1 = dev.load(&module).unwrap();
        let k2 = dev.load(&module).unwrap();
        assert!(Arc::ptr_eq(&k1, &k2));
        let p = dev.alloc_copy_f32(&[0.0; 32]).unwrap();
        let args = [KernelArg::F32(1.0), KernelArg::Ptr(p), KernelArg::Ptr(p), KernelArg::I32(32)];
        dev.launch(&module, LaunchConfig::linear(32, 32), &args).unwrap();
        dev.launch_kernel(&kernel, LaunchConfig::linear(32, 32), &args).unwrap();
        let s = dev.program_cache_stats();
        assert_eq!((s.misses, s.hits, s.entries), (1, 3, 1));
        assert_eq!(s.hit_rate(), 0.75);
    }

    #[test]
    fn forged_module_is_refused_and_caches_nothing() {
        // Kernel A's bytes carrying kernel B's fingerprint.
        let mut b = KernelBuilder::new("fill");
        let out = b.param(Type::I64);
        let i = b.global_thread_id_x();
        b.st_elem(Space::Global, out, i, Value::F32(7.0));
        let real = assemble(&b.finish(), IsaKind::PtxLike).unwrap();
        let a = assemble(&saxpy_kernel(), IsaKind::PtxLike).unwrap();
        let forged = Module { fingerprint: real.fingerprint, ..a };
        let dev = Device::new(DeviceSpec::nvidia_a100());
        let p = dev.alloc_copy_f32(&[0.0; 32]).unwrap();
        let cfg = LaunchConfig::linear(32, 32);
        assert!(matches!(dev.load(&forged), Err(SimError::InvalidModule(_))));
        let launched = dev.launch(&forged, cfg, &[KernelArg::Ptr(p)]);
        assert!(matches!(launched, Err(SimError::InvalidModule(_))));
        dev.launch(&real, cfg, &[KernelArg::Ptr(p)]).unwrap();
        assert_eq!(dev.read_f32(p, 32).unwrap(), vec![7.0; 32]);
    }

    #[test]
    fn stats_merge_sums_fields() {
        let a = ProgramCacheStats { hits: 1, misses: 2, entries: 3 };
        let b = ProgramCacheStats { hits: 10, misses: 20, entries: 30 };
        assert_eq!(a.merged(b), ProgramCacheStats { hits: 11, misses: 22, entries: 33 });
    }

    #[test]
    fn kernel_errors_propagate_from_blocks() {
        let mut k = KernelBuilder::new("oob");
        let out = k.param(Type::I64);
        let i = k.global_thread_id_x();
        k.st_elem(Space::Global, out, i, Value::I32(1));
        let kernel = k.finish();
        let dev = Device::new(DeviceSpec::nvidia_a100());
        let module = assemble(&kernel, IsaKind::PtxLike).unwrap();
        // Pointer at the very end of memory → every block goes OOB.
        let bad = dev.spec().mem_bytes - 4;
        let res =
            dev.launch(&module, LaunchConfig::linear(1024, 128), &[KernelArg::I64(bad as i64)]);
        assert!(matches!(res, Err(SimError::OutOfBounds { .. })));
    }

    #[test]
    fn cumulative_stats_accumulate_across_launches() {
        let kernel = saxpy_kernel();
        let dev = Device::new(DeviceSpec::nvidia_a100());
        let module = assemble(&kernel, IsaKind::PtxLike).unwrap();
        assert_eq!(dev.stats(), LaunchStats::default());
        assert_eq!(dev.launches(), 0);
        let n = 512usize;
        let dx = dev.alloc_copy_f32(&vec![1.0; n]).unwrap();
        let dy = dev.alloc_copy_f32(&vec![1.0; n]).unwrap();
        let args =
            [KernelArg::F32(2.0), KernelArg::Ptr(dx), KernelArg::Ptr(dy), KernelArg::I32(n as i32)];
        let r1 = dev.launch(&module, LaunchConfig::linear(n as u64, 128), &args).unwrap();
        let r2 = dev.launch(&module, LaunchConfig::linear(n as u64, 128), &args).unwrap();
        assert_eq!(dev.launches(), 2);
        assert_eq!(dev.stats(), r1.stats.merged(r2.stats));
    }

    #[test]
    fn f64_roundtrip_helpers() {
        let dev = Device::new(DeviceSpec::intel_pvc());
        let data: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        let p = dev.alloc_copy_f64(&data).unwrap();
        assert_eq!(dev.read_f64(p, 100).unwrap(), data);
    }

    #[test]
    fn static_and_dynamic_scheduling_agree_on_results() {
        let kernel = saxpy_kernel();
        let dev = Device::new(DeviceSpec::nvidia_a100());
        let module = assemble(&kernel, IsaKind::PtxLike).unwrap();
        let n = 10_000usize;
        for policy in [SchedulePolicy::Static, SchedulePolicy::Dynamic] {
            let dx = dev.alloc_copy_f32(&vec![1.0; n]).unwrap();
            let dy = dev.alloc_copy_f32(&vec![1.0; n]).unwrap();
            dev.launch(
                &module,
                LaunchConfig::linear(n as u64, 128).with_policy(policy),
                &[
                    KernelArg::F32(3.0),
                    KernelArg::Ptr(dx),
                    KernelArg::Ptr(dy),
                    KernelArg::I32(n as i32),
                ],
            )
            .unwrap();
            let out = dev.read_f32(dy, n).unwrap();
            assert!(out.iter().all(|&v| v == 4.0), "{policy:?} wrong");
            dev.free(dx, n as u64 * 4);
            dev.free(dy, n as u64 * 4);
        }
    }
}
