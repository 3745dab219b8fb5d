//! Differential validation: reduce one kernel launch on one device and
//! block engine to a single comparable [`Observation`].
//!
//! The portability analyses (`MCA006`–`MCA010` in `mcmm-analyze`) make
//! falsifiable claims — "this kernel breaks on the 64-wide device", "this
//! launch is refused on NVIDIA". This module is the experimental side of
//! that bargain: it launches a kernel with a deterministic argument
//! convention and collapses the outcome into an observation that can be
//! compared across vendor devices and block engines:
//!
//! * [`Observation::RefusedLaunch`] — the device rejected the launch
//!   configuration (`BadLaunch`): the dynamic face of `MCA007`/`MCA008`.
//! * [`Observation::Deadlock`] — a barrier was reached by only part of a
//!   block (`BarrierDivergence`), which hangs real hardware: the dynamic
//!   face of `MCA009` (and of the vendor-neutral `MCA002`).
//! * [`Observation::Faulted`] — any other runtime error (trap, OOB, …).
//! * [`Observation::Checksum`] — the launch completed; the value is an
//!   FNV-1a hash over every output buffer's bytes. Two devices that
//!   "support" a kernel but checksum differently expose a *silent*
//!   portability break: the dynamic face of `MCA006` and `MCA010`.
//!
//! The argument convention is fixed so the same kernel is comparable
//! everywhere: each `I64` parameter becomes a zero-initialised device
//! buffer of 8 bytes per launched thread, each `I32` parameter receives
//! the total thread count, and float scalars receive a fixed constant.

use crate::{launch_kernel, Engine};
use mcmm_gpu_sim::device::{Device, DeviceSpec, KernelArg, LaunchConfig};
use mcmm_gpu_sim::diffval::fnv1a;
use mcmm_gpu_sim::ir::{KernelIr, Type};
use mcmm_gpu_sim::SimError;

/// The outcome of one kernel launch, collapsed for cross-device and
/// cross-engine comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// The launch ran to completion; FNV-1a hash of all output buffers.
    Checksum(u64),
    /// The device refused the launch configuration (`MCA007`/`MCA008`).
    RefusedLaunch,
    /// A partially-active block reached a barrier (`MCA002`/`MCA009`);
    /// real hardware would hang, the simulator reports it.
    Deadlock,
    /// Any other runtime failure.
    Faulted,
}

impl Observation {
    /// Whether the launch completed at all.
    pub fn completed(self) -> bool {
        matches!(self, Observation::Checksum(_))
    }
}

impl std::fmt::Display for Observation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Observation::Checksum(c) => write!(f, "checksum {c:#018x}"),
            Observation::RefusedLaunch => write!(f, "refused launch"),
            Observation::Deadlock => write!(f, "barrier deadlock"),
            Observation::Faulted => write!(f, "runtime fault"),
        }
    }
}

/// Launch `kernel` on a fresh device built from `spec`, its blocks run by
/// `engine`, and collapse the outcome into an [`Observation`].
///
/// Arguments follow the fixed convention described in the module docs;
/// kernels meant for this harness (the analyzer's portability corpus)
/// are written against it.
pub fn observe(
    spec: &DeviceSpec,
    engine: Engine,
    kernel: &KernelIr,
    block_dim: u32,
    grid_dim: u32,
) -> Observation {
    let dev = Device::new(spec.clone());
    let threads = u64::from(block_dim.max(1)) * u64::from(grid_dim.max(1));
    let bytes_per_buffer = threads * 8;

    let mut args = Vec::with_capacity(kernel.params.len());
    let mut buffers = Vec::new();
    for &ty in &kernel.params {
        match ty {
            Type::I64 => {
                let ptr = match dev.alloc(bytes_per_buffer) {
                    Ok(p) => p,
                    Err(_) => return Observation::Faulted,
                };
                if dev.memcpy_h2d(ptr, &vec![0u8; bytes_per_buffer as usize]).is_err() {
                    return Observation::Faulted;
                }
                buffers.push(ptr);
                args.push(KernelArg::Ptr(ptr));
            }
            Type::F32 => args.push(KernelArg::F32(1.5)),
            Type::F64 => args.push(KernelArg::F64(1.5)),
            // I32 (and anything else integral) receives the thread count.
            _ => args.push(KernelArg::I32(threads as i32)),
        }
    }

    let cfg = LaunchConfig {
        grid_dim: grid_dim.max(1),
        block_dim: block_dim.max(1),
        ..LaunchConfig::linear(threads, block_dim.max(1))
    };
    match launch_kernel(&dev, engine, kernel, cfg, &args) {
        Ok(_) => {}
        Err(SimError::BadLaunch(_)) => return Observation::RefusedLaunch,
        Err(SimError::BarrierDivergence(_)) => return Observation::Deadlock,
        Err(_) => return Observation::Faulted,
    }

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for ptr in buffers {
        match dev.memcpy_d2h(ptr, bytes_per_buffer) {
            Ok((bytes, _)) => {
                // Chain per-buffer hashes so buffer boundaries matter.
                h ^= fnv1a(&bytes);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Err(_) => return Observation::Faulted,
        }
    }
    Observation::Checksum(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmm_gpu_sim::ir::{KernelBuilder, Space};

    fn store_tid_kernel() -> KernelIr {
        let mut k = KernelBuilder::new("store_tid");
        let out = k.param(Type::I64);
        let i = k.global_thread_id_x();
        k.st_elem(Space::Global, out, i, i);
        k.finish()
    }

    #[test]
    fn checksum_is_deterministic_and_engine_invariant() {
        let kernel = store_tid_kernel();
        let spec = DeviceSpec::nvidia_a100();
        let a = observe(&spec, Engine::Reference, &kernel, 64, 2);
        let b = observe(&spec, Engine::Reference, &kernel, 64, 2);
        let c = observe(&spec, Engine::Vectorized, &kernel, 64, 2);
        assert!(a.completed());
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn oversized_block_is_a_refused_launch() {
        let kernel = store_tid_kernel();
        let spec = DeviceSpec::amd_mi250x();
        assert_eq!(observe(&spec, Engine::Reference, &kernel, 2048, 1), Observation::RefusedLaunch);
    }
}
