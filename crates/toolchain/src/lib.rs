//! # mcmm-toolchain — virtual compilers and the executable route graph
//!
//! This crate connects the paper's *knowledge* layer (`mcmm-core`: which
//! toolchain reaches which device) with the *substrate* layer
//! (`mcmm-gpu-sim`: devices that only execute their own ISA). Every route
//! encoded in the Figure 1 dataset becomes a [`VirtualCompiler`]: an object
//! that accepts kernels of one programming model + language, targets a set
//! of vendors, and compiles the shared kernel IR into the target's virtual
//! ISA — or refuses, exactly where the paper says the ecosystem refuses.
//!
//! The registry is **derived from the dataset** (single source of truth);
//! what is independent is the machinery it drives: ISA walls are enforced
//! by `mcmm-gpu-sim`, per-route efficiency factors feed the timing model,
//! and [`probe`] compiles and runs a smoke kernel through every viable
//! route to verify the matrix is not just data but *behaviour*.

pub mod cache;
pub mod compiler;
pub mod diskcache;
pub mod efficiency;
pub mod probe;
pub mod registry;

pub use cache::{CacheStats, CompileCache};
pub use compiler::{CompileError, VirtualCompiler};
pub use diskcache::{DiskStats, DiskTier};
pub use mcmm_gpu_sim::{ExecTier, OptLevel, OptStats, ProgramCacheStats};
pub use registry::{select, select_best, Registry};

use mcmm_core::taxonomy::Vendor;
use mcmm_gpu_sim::isa::IsaKind;

/// The virtual ISA executed by each vendor's devices.
pub fn vendor_isa(vendor: Vendor) -> IsaKind {
    match vendor {
        Vendor::Nvidia => IsaKind::PtxLike,
        Vendor::Amd => IsaKind::GcnLike,
        Vendor::Intel => IsaKind::SpirvLike,
    }
}

/// The vendor whose devices execute the given ISA.
pub fn isa_vendor(isa: IsaKind) -> Vendor {
    match isa {
        IsaKind::PtxLike => Vendor::Nvidia,
        IsaKind::GcnLike => Vendor::Amd,
        IsaKind::SpirvLike => Vendor::Intel,
    }
}

/// The simulated device model for a vendor.
pub fn vendor_device_spec(vendor: Vendor) -> mcmm_gpu_sim::DeviceSpec {
    match vendor {
        Vendor::Nvidia => mcmm_gpu_sim::DeviceSpec::nvidia_a100(),
        Vendor::Amd => mcmm_gpu_sim::DeviceSpec::amd_mi250x(),
        Vendor::Intel => mcmm_gpu_sim::DeviceSpec::intel_pvc(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendor_isa_is_a_bijection() {
        for v in Vendor::ALL {
            assert_eq!(isa_vendor(vendor_isa(v)), v);
        }
        for i in IsaKind::ALL {
            assert_eq!(vendor_isa(isa_vendor(i)), i);
        }
    }

    #[test]
    fn device_specs_execute_their_vendor_isa() {
        for v in Vendor::ALL {
            assert_eq!(vendor_device_spec(v).isa, vendor_isa(v));
        }
    }
}
