//! # mcmm-gpu-sim — a virtual GPU substrate
//!
//! This machine has no AMD, Intel, or NVIDIA GPU, and Rust has no mature
//! offload ecosystem — so this crate builds the hardware the paper surveys
//! as a simulator (see DESIGN.md "Substitutions"). It provides:
//!
//! * [`ir`] — a typed, structured kernel IR with a safe builder, the common
//!   currency all programming-model frontends lower to;
//! * [`isa`] — three vendor-style virtual instruction sets (PTX-like,
//!   GCN-like, SPIR-V-like) with assembler/disassembler; a device only
//!   executes its own ISA, which makes "model X cannot reach vendor Y" a
//!   real load-time failure rather than a flag;
//! * [`device`] — device models for the three vendors with public-spec
//!   attributes (compute units, warp/wavefront/sub-group width, clocks,
//!   memory bandwidth), and [`DeviceAlloc`], device memory that frees
//!   itself on drop;
//! * [`mem`] — device global memory on a lock-free word-atomic backing
//!   store, with an allocator and host↔device transfers;
//! * [`lower`] + [`vexec`] — the block engine: each kernel is lowered
//!   once, as written, into flat typed lane-vector bytecode, cached per
//!   device beside the decoded kernel under the fingerprint its module
//!   carries, and each block runs it as a wide lane vector with
//!   divergence masks;
//! * [`exec`] — what a block engine is handed ([`exec::BlockCtx`]) and the
//!   semantics it shares with the scalar reference interpreter that the
//!   test-only `mcmm-gpu-sim-ref` crate holds;
//! * [`pool`] + [`sched`] — per-launch scoped worker threads and block
//!   schedulers distributing blocks over simulated compute units;
//! * [`stream`] + [`event`] — asynchronous in-order queues and events;
//! * [`counters`] + [`timing`] — the launch counters
//!   ([`counters::LaunchStats`]) and the analytic timing model that
//!   produces *modeled* (deterministic, hardware-free) execution times;
//! * [`trace`] + [`coalesce`] + [`cache`] + [`memhier`] — optional
//!   per-warp memory-access tracing and the per-vendor coalescer →
//!   L1 → L2 → DRAM models behind the trace-driven timing tier.
//!
//! ## Quickstart: SAXPY on a simulated A100
//!
//! ```
//! use mcmm_gpu_sim::prelude::*;
//!
//! // Build y[i] += a * x[i] in the IR.
//! let mut k = KernelBuilder::new("saxpy");
//! let a = k.param(Type::F32);
//! let x = k.param(Type::I64);
//! let y = k.param(Type::I64);
//! let n = k.param(Type::I32);
//! let i = k.global_thread_id_x();
//! let in_range = k.cmp(CmpOp::Lt, i, n);
//! k.if_(in_range, |k| {
//!     let xi = k.ld_elem(Space::Global, Type::F32, x, i);
//!     let yi = k.ld_elem(Space::Global, Type::F32, y, i);
//!     let ax = k.bin(BinOp::Mul, a, xi);
//!     let sum = k.bin(BinOp::Add, ax, yi);
//!     k.st_elem(Space::Global, y, i, sum);
//! });
//! let kernel = k.finish();
//!
//! // Compile for and run on a simulated NVIDIA device.
//! let device = Device::new(DeviceSpec::nvidia_a100());
//! let module = assemble(&kernel, IsaKind::PtxLike).unwrap();
//!
//! let xs = vec![1.0f32; 1024];
//! let ys = vec![2.0f32; 1024];
//! let dx = device.alloc_copy_f32(&xs).unwrap();
//! let dy = device.alloc_copy_f32(&ys).unwrap();
//!
//! let launch = LaunchConfig::linear(1024, 256);
//! device
//!     .launch(&module, launch, &[
//!         KernelArg::F32(3.0),
//!         KernelArg::Ptr(dx),
//!         KernelArg::Ptr(dy),
//!         KernelArg::I32(1024),
//!     ])
//!     .unwrap();
//!
//! let out = device.read_f32(dy, 1024).unwrap();
//! assert!(out.iter().all(|&v| (v - 5.0).abs() < 1e-6));
//! ```

pub mod cache;
pub mod coalesce;
pub mod counters;
pub mod device;
pub mod diffval;
pub mod event;
pub mod exec;
pub mod fault;
pub mod ir;
pub mod isa;
pub mod lower;
pub mod mem;
pub mod memhier;
pub mod pool;
pub mod sched;
pub mod stream;
pub mod timing;
pub mod trace;
pub mod vexec;

/// Common re-exports.
pub mod prelude {
    pub use crate::counters::LaunchStats;
    pub use crate::device::{
        set_process_config, Device, DeviceAlloc, DeviceSpec, DeviceTotals, KernelArg, LaunchConfig,
        ProgramCacheStats, SimConfig, TimingTier,
    };
    pub use crate::event::Event;
    pub use crate::fault::{LaunchFault, TransferFault};
    pub use crate::ir::{
        AtomicOp, BinOp, CmpOp, KernelBuilder, KernelIr, Reg, Space, Type, UnOp, Value,
    };
    pub use crate::isa::{assemble, disassemble, IsaKind, Module};
    pub use crate::mem::DevicePtr;
    pub use crate::memhier::{MemHierSpec, MemStats};
    pub use crate::sched::SchedulePolicy;
    pub use crate::stream::Stream;
    pub use crate::timing::ModeledTime;
    pub use crate::SimError;
}

pub use device::{
    set_process_config, Device, DeviceAlloc, DeviceSpec, DeviceTotals, ProgramCacheStats,
    SimConfig, TimingTier,
};
pub use isa::{IsaKind, Module};
pub use memhier::{MemHierSpec, MemStats};

/// Errors surfaced by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A module built for one vendor ISA was loaded on a device of another.
    IsaMismatch {
        /// The ISA the module was assembled for.
        module: isa::IsaKind,
        /// The ISA the device executes.
        device: isa::IsaKind,
    },
    /// A memory access fell outside any allocation.
    OutOfBounds {
        /// Faulting byte address.
        addr: u64,
        /// Access length in bytes.
        len: u64,
    },
    /// A memory access violated natural alignment.
    Misaligned {
        /// Faulting byte address.
        addr: u64,
        /// Required alignment in bytes.
        align: u64,
    },
    /// Device memory exhausted.
    OutOfMemory {
        /// Bytes requested (after granule rounding).
        requested: u64,
        /// Bytes currently free.
        available: u64,
    },
    /// A module failed to decode or validate.
    InvalidModule(String),
    /// Kernel argument count/types don't match the kernel signature.
    BadArguments(String),
    /// The launch configuration exceeds device limits.
    BadLaunch(String),
    /// A kernel trapped at runtime; the message carries the detail.
    Trap(String),
    /// A block-wide barrier was reached with only part of the block
    /// active — divergent control flow around `__syncthreads()`, which
    /// deadlocks real hardware. The simulator reports it instead of
    /// hanging; which kernels trigger it depends on the device's warp
    /// width (the MCA009 portability class).
    BarrierDivergence(String),
    /// A synthetic fault injected through the [`fault`] hooks. Distinct
    /// from every organic error so resilience layers can retry injected
    /// failures without masking real bugs.
    FaultInjected(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::IsaMismatch { module, device } => {
                write!(f, "ISA mismatch: module is {module:?}, device executes {device:?}")
            }
            SimError::OutOfBounds { addr, len } => {
                write!(f, "out-of-bounds access at {addr:#x} (+{len})")
            }
            SimError::Misaligned { addr, align } => {
                write!(f, "misaligned access at {addr:#x} (requires {align}-byte alignment)")
            }
            SimError::OutOfMemory { requested, available } => {
                write!(f, "out of device memory: requested {requested}, available {available}")
            }
            SimError::InvalidModule(m) => write!(f, "invalid module: {m}"),
            SimError::BadArguments(m) => write!(f, "bad kernel arguments: {m}"),
            SimError::BadLaunch(m) => write!(f, "bad launch configuration: {m}"),
            SimError::Trap(m) => write!(f, "kernel trap: {m}"),
            SimError::BarrierDivergence(m) => write!(f, "barrier divergence: {m}"),
            SimError::FaultInjected(m) => write!(f, "injected fault: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;
