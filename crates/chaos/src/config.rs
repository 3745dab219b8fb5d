//! Fault policy: what can break, how often, where, and how much in total.

use mcmm_core::taxonomy::Vendor;

/// A sticky, targeted outage: every attempt routed through a matching
/// toolchain is refused at launch, for the whole run. Outages model a
/// *broken route* (a pulled driver, a poisoned module cache) rather than
/// transient noise, so they are exempt from the fault budget — they are
/// what forces the failover router to actually change routes.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOutage {
    /// Substring matched against the route's toolchain name
    /// (e.g. `"nvcc"` matches `"CUDA Toolkit (nvcc)"`).
    pub toolchain: String,
    /// Restrict the outage to one vendor lane; `None` breaks the route
    /// everywhere it is registered.
    pub vendor: Option<Vendor>,
}

/// The complete, seed-included fault policy. A config value plus the
/// workload it is applied to fully determine every injected fault.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed mixed into every per-attempt fault roll.
    pub seed: u64,
    /// Maximum number of *transient* faults injected across the run.
    /// Outages are exempt (they are route state, not noise).
    pub budget: u64,
    /// Probability a cold compile fails with a transient toolchain fault.
    pub compile_p: f64,
    /// Probability the host→device input upload aborts.
    pub upload_p: f64,
    /// Probability a launch is refused before any block runs.
    pub launch_p: f64,
    /// Probability the device stalls until the watchdog kills the launch.
    pub stall_p: f64,
    /// Probability one block's lanes crash mid-kernel.
    pub lane_crash_p: f64,
    /// Probability the device→host result read-back aborts.
    pub read_back_p: f64,
    /// Modeled stall duration in microseconds for stall faults.
    pub stall_us: f64,
    /// Sticky route outages (see [`RouteOutage`]).
    pub outages: Vec<RouteOutage>,
}

impl ChaosConfig {
    /// No faults at all — the identity policy. Useful as a base to build
    /// targeted scenarios on (e.g. a single outage, nothing else).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            budget: 0,
            compile_p: 0.0,
            upload_p: 0.0,
            launch_p: 0.0,
            stall_p: 0.0,
            lane_crash_p: 0.0,
            read_back_p: 0.0,
            stall_us: 0.0,
            outages: Vec::new(),
        }
    }

    /// The canonical fault storm: every stage can break with a few
    /// percent probability, bounded by a budget sized for the 500-job
    /// canonical workload — enough injected faults to exercise retries
    /// everywhere without drowning the run.
    pub fn storm(seed: u64) -> Self {
        Self {
            budget: 96,
            compile_p: 0.015,
            upload_p: 0.010,
            launch_p: 0.025,
            stall_p: 0.020,
            lane_crash_p: 0.010,
            read_back_p: 0.010,
            stall_us: 250.0,
            ..Self::quiet(seed)
        }
    }

    /// Add a sticky outage (builder style).
    pub fn with_outage(mut self, toolchain: impl Into<String>, vendor: Option<Vendor>) -> Self {
        self.outages.push(RouteOutage { toolchain: toolchain.into(), vendor });
        self
    }

    /// Does an outage cover this (route, vendor)?
    pub(crate) fn outage_for(&self, route: &str, vendor: Vendor) -> Option<&RouteOutage> {
        self.outages
            .iter()
            .find(|o| route.contains(o.toolchain.as_str()) && o.vendor.is_none_or(|v| v == vendor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outage_matching_respects_vendor_scope() {
        let c = ChaosConfig::quiet(1)
            .with_outage("nvcc", Some(Vendor::Nvidia))
            .with_outage("Open SYCL", None);
        assert!(c.outage_for("CUDA Toolkit (nvcc)", Vendor::Nvidia).is_some());
        assert!(c.outage_for("CUDA Toolkit (nvcc)", Vendor::Amd).is_none());
        // Unscoped outage hits every vendor lane.
        assert!(c.outage_for("Open SYCL (HIP/ROCm)", Vendor::Amd).is_some());
        assert!(c.outage_for("Open SYCL (SPIR-V/Level Zero)", Vendor::Intel).is_some());
        assert!(c.outage_for("hipcc", Vendor::Amd).is_none());
    }
}
