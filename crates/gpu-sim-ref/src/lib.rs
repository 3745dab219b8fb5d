//! # mcmm-gpu-sim-ref — the reference block engine
//!
//! `mcmm-gpu-sim` runs every kernel block on one engine, the lowered
//! lane-vector bytecode of [`mcmm_gpu_sim::vexec`]. This crate holds the
//! oracle that engine is judged against:
//!
//! * [`interp`] — the scalar SIMT interpreter, which walks the kernel IR
//!   directly ([`run_block`]), and its shared-memory race checker
//!   ([`run_block_racecheck`], the dynamic side of the analyzer's MCA003);
//! * [`diffval`] — one launch on one device and engine collapsed into a
//!   comparable [`diffval::Observation`];
//! * [`launch_kernel`] — a device launch whose blocks run on the chosen
//!   [`Engine`].
//!
//! Only tests and benches depend on this crate: the root differential
//! tests, `mcmm-analyze`'s dev tests and `mcmm-bench`. No production crate
//! does, so the reference never ships behind a production knob.
//!
//! A reference launch goes through [`Device::launch_kernel_with`]: the
//! device's own launch checks, scheduling, tracing, counters, modeled time
//! and kernel cache, with only the block engine swapped. A differential
//! therefore compares two block engines, not two launch paths.

pub mod diffval;
pub mod interp;

pub use interp::{run_block, run_block_racecheck, RaceFinding, SharedAccessKind};

use mcmm_gpu_sim::device::{Device, KernelArg, LaunchConfig, LaunchReport};
use mcmm_gpu_sim::ir::KernelIr;
use mcmm_gpu_sim::Result;

/// The block engine a differential launch runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The scalar interpreter in [`interp`].
    Reference,
    /// The device's own engine, [`mcmm_gpu_sim::vexec`].
    Vectorized,
}

impl Engine {
    /// Both engines, reference first.
    pub const BOTH: [Engine; 2] = [Engine::Reference, Engine::Vectorized];
}

/// Launch `kernel` on `dev` with its blocks run by `engine`; everything
/// else is [`Device::launch_kernel`]'s.
pub fn launch_kernel(
    dev: &Device,
    engine: Engine,
    kernel: &KernelIr,
    cfg: LaunchConfig,
    args: &[KernelArg],
) -> Result<LaunchReport> {
    match engine {
        Engine::Reference => {
            dev.launch_kernel_with(kernel, cfg, args, |ctx, _, values| run_block(ctx, values))
        }
        Engine::Vectorized => dev.launch_kernel(kernel, cfg, args),
    }
}
