//! The layered frontend error taxonomy.
//!
//! Every model frontend fails in the same three layers, in pipeline
//! order:
//!
//! 1. **Routing** — the matrix has no executable route for the cell, or a
//!    specifically requested toolchain is discontinued. These are the
//!    paper's compatibility holes made operational: the frontend refuses
//!    the vendor *before* any device work happens.
//! 2. **Toolchain** — an executable route exists but the compile fails
//!    (lint gate, invalid kernel).
//! 3. **Device** — the compiled module fails at transfer or launch time
//!    (ISA walls, OOM, traps).
//!
//! Model crates wrap [`FrontendError`] into their idiomatic error enums
//! (`CudaError`, `SyclError`, …) but must keep the cause chain: the
//! variants here implement [`std::error::Error::source`], and refusal
//! messages always name the refusing vendor.

use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_gpu_sim::SimError;
use mcmm_toolchain::CompileError;
use std::fmt;

/// Why an execution-spine operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FrontendError {
    /// Routing layer: the matrix offers no route a runtime frontend can
    /// drive for this cell (only source translators, unmaintained
    /// projects, or minimal-coverage translation shims). The `detail`
    /// names what *does* exist, mirroring the paper's per-cell notes.
    NoRoute {
        /// The programming model that refused.
        model: Model,
        /// Its source language.
        language: Language,
        /// The vendor being refused.
        vendor: Vendor,
        /// What the matrix records instead of an executable route.
        detail: String,
    },
    /// Routing layer: a specific toolchain was requested by name but is
    /// discontinued or unmaintained (ComputeCpp, ZLUDA, Numba-ROCm).
    Discontinued {
        /// The requested toolchain.
        toolchain: String,
        /// The vendor it would have targeted.
        vendor: Vendor,
    },
    /// Toolchain layer: the route exists but compilation failed.
    Compile(CompileError),
    /// Device layer: transfer or launch failed on the simulated device.
    Device(SimError),
}

impl FrontendError {
    /// Is this a matrix-level refusal (routing layer), as opposed to a
    /// failure of an accepted route?
    pub fn is_refusal(&self) -> bool {
        matches!(self, FrontendError::NoRoute { .. } | FrontendError::Discontinued { .. })
    }

    /// The vendor involved, when the error identifies one. Refusals
    /// always do — the conformance suite checks refusal messages name
    /// the actual vendor.
    pub fn vendor(&self) -> Option<Vendor> {
        match self {
            FrontendError::NoRoute { vendor, .. } => Some(*vendor),
            FrontendError::Discontinued { vendor, .. } => Some(*vendor),
            FrontendError::Compile(CompileError::UnsupportedTarget { vendor, .. }) => Some(*vendor),
            _ => None,
        }
    }
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::NoRoute { model, language, vendor, detail } => {
                write!(f, "no executable route for {model} ({language}) on {vendor} GPUs: {detail}")
            }
            FrontendError::Discontinued { toolchain, vendor } => {
                write!(f, "{toolchain} targeting {vendor} GPUs is discontinued/unmaintained")
            }
            FrontendError::Compile(e) => write!(f, "compilation failed: {e}"),
            FrontendError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for FrontendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrontendError::Compile(e) => Some(e),
            FrontendError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CompileError> for FrontendError {
    fn from(e: CompileError) -> Self {
        FrontendError::Compile(e)
    }
}

impl From<SimError> for FrontendError {
    fn from(e: SimError) -> Self {
        FrontendError::Device(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn refusals_name_the_vendor() {
        let e = FrontendError::NoRoute {
            model: Model::Cuda,
            language: Language::Cpp,
            vendor: Vendor::Amd,
            detail: "only the HIPIFY source translator".into(),
        };
        assert!(e.is_refusal());
        assert_eq!(e.vendor(), Some(Vendor::Amd));
        assert!(e.to_string().contains("AMD"));
        assert!(e.to_string().contains("CUDA"));

        let e =
            FrontendError::Discontinued { toolchain: "ComputeCpp".into(), vendor: Vendor::Nvidia };
        assert!(e.is_refusal());
        assert!(e.to_string().contains("NVIDIA"));
    }

    #[test]
    fn cause_chain_survives_wrapping() {
        let inner = SimError::Trap("divide by zero".into());
        let e = FrontendError::Device(inner.clone());
        let src = e.source().expect("device errors carry a source");
        assert_eq!(src.to_string(), inner.to_string());
        assert!(!e.is_refusal());
    }
}
