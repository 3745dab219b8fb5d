//! The analytic timing model.
//!
//! The simulator runs on a CPU, so wall-clock times say nothing about GPU
//! performance. Instead, each launch's *modeled* time is derived from the
//! performance counters against the device attributes — a classic
//! roofline-style bound:
//!
//! ```text
//! t = launch_latency + max(compute_time, memory_time) / efficiency
//! compute_time = warp_instructions / (compute_units × warps_per_cu_per_cycle × clock)
//! memory_time  = (bytes_read + bytes_written) / dram_bandwidth
//! ```
//!
//! `efficiency` (0 < e ≤ 1) is contributed by the toolchain route: native
//! compilers get 1.0, translated/indirect routes get the penalty factors
//! the literature reports (see `mcmm-toolchain`). The model is
//! deterministic: identical launches produce identical modeled times,
//! which is what lets the benchmark harness reproduce *shapes* without
//! hardware.

use crate::counters::LaunchStats;
use crate::device::DeviceSpec;
use crate::memhier::MemStats;

/// A modeled duration in seconds, with convenience accessors.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct ModeledTime {
    seconds: f64,
}

impl ModeledTime {
    /// From raw seconds (must be finite and non-negative).
    pub fn from_seconds(seconds: f64) -> Self {
        assert!(seconds.is_finite() && seconds >= 0.0, "invalid modeled time {seconds}");
        Self { seconds }
    }

    /// Zero time.
    pub fn zero() -> Self {
        Self { seconds: 0.0 }
    }

    /// The duration in seconds.
    pub fn seconds(self) -> f64 {
        self.seconds
    }

    /// The duration in microseconds.
    pub fn micros(self) -> f64 {
        self.seconds * 1e6
    }

    /// Effective bandwidth achieved moving `bytes` in this time (GB/s,
    /// decimal GB as BabelStream reports).
    pub fn bandwidth_gbps(self, bytes: u64) -> f64 {
        if self.seconds == 0.0 {
            return 0.0;
        }
        (bytes as f64 / 1e9) / self.seconds
    }

    /// The longer of two modeled times.
    pub fn max(self, other: ModeledTime) -> ModeledTime {
        if self.seconds >= other.seconds {
            self
        } else {
            other
        }
    }
}

impl std::ops::Sub for ModeledTime {
    /// Difference of modeled times, saturating at zero (a modeled
    /// duration is never negative).
    type Output = ModeledTime;
    fn sub(self, rhs: ModeledTime) -> ModeledTime {
        ModeledTime { seconds: (self.seconds - rhs.seconds).max(0.0) }
    }
}

impl std::ops::Add for ModeledTime {
    /// Summing modeled times yields a modeled time.
    type Output = ModeledTime;
    fn add(self, rhs: ModeledTime) -> ModeledTime {
        ModeledTime { seconds: self.seconds + rhs.seconds }
    }
}

impl std::iter::Sum for ModeledTime {
    fn sum<I: Iterator<Item = ModeledTime>>(iter: I) -> Self {
        iter.fold(ModeledTime::zero(), |a, b| a + b)
    }
}

/// Model the time of one kernel launch.
///
/// `efficiency` is the route-efficiency factor in (0, 1]; pass 1.0 for a
/// native toolchain.
pub fn kernel_time(spec: &DeviceSpec, stats: &LaunchStats, efficiency: f64) -> ModeledTime {
    assert!(efficiency > 0.0 && efficiency <= 1.0, "efficiency out of range: {efficiency}");
    // Instruction throughput: each CU retires `ipc` warp-instructions per
    // cycle across its schedulers.
    let issue_rate = spec.compute_units as f64 * spec.warp_issue_per_cycle * spec.clock_ghz * 1e9;
    let compute = stats.warp_instructions as f64 / issue_rate;
    let memory = stats.bytes_total() as f64 / (spec.dram_gbps * 1e9);
    let busy = compute.max(memory) + atomic_cost(spec, stats);
    ModeledTime::from_seconds(spec.launch_latency_us * 1e-6 + busy / efficiency)
}

/// Atomics serialize on contention; charge the device's per-op cost
/// (`DeviceSpec::atomic_ns`, a per-vendor attribute) on top of the
/// roofline bound.
fn atomic_cost(spec: &DeviceSpec, stats: &LaunchStats) -> f64 {
    stats.atomics as f64 * spec.atomic_ns * 1e-9 / spec.compute_units as f64
}

/// Model the time of one kernel launch from its replayed memory-hierarchy
/// statistics — the trace-driven timing tier.
///
/// The compute and atomic terms match [`kernel_time`]; the flat
/// `bytes_total / dram_gbps` memory term is replaced by the larger of the
/// modeled L2 and DRAM traffic times (each level's actual sector traffic
/// over that level's bandwidth), plus a one-time hierarchy fill latency.
/// For a perfectly coalesced stream `dram_bytes ≈ bytes_total` and the two
/// tiers agree closely; an uncoalesced gather moves more DRAM sectors than
/// the kernel requested bytes and is charged accordingly.
pub fn kernel_time_traced(
    spec: &DeviceSpec,
    stats: &LaunchStats,
    mem: &MemStats,
    efficiency: f64,
) -> ModeledTime {
    assert!(efficiency > 0.0 && efficiency <= 1.0, "efficiency out of range: {efficiency}");
    let issue_rate = spec.compute_units as f64 * spec.warp_issue_per_cycle * spec.clock_ghz * 1e9;
    let compute = stats.warp_instructions as f64 / issue_rate;
    let h = &spec.memhier;
    let l2_bytes = mem.l2_accesses * h.sector_bytes;
    let l2_time = l2_bytes as f64 / (h.l2_gbps * 1e9);
    let dram_time = mem.dram_bytes as f64 / (spec.dram_gbps * 1e9);
    let fill_latency = if mem.transactions + mem.l2_accesses > 0 {
        (h.l1_latency_ns + h.l2_latency_ns + h.dram_latency_ns) * 1e-9
    } else {
        0.0
    };
    let memory = l2_time.max(dram_time) + fill_latency;
    let busy = compute.max(memory) + atomic_cost(spec, stats);
    ModeledTime::from_seconds(spec.launch_latency_us * 1e-6 + busy / efficiency)
}

/// Model a host↔device transfer over the interconnect.
pub fn transfer_time(spec: &DeviceSpec, bytes: u64) -> ModeledTime {
    ModeledTime::from_seconds(
        spec.transfer_latency_us * 1e-6 + bytes as f64 / (spec.pcie_gbps * 1e9),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    fn stats(bytes: u64, instrs: u64) -> LaunchStats {
        LaunchStats {
            warp_instructions: instrs,
            bytes_read: bytes / 2,
            bytes_written: bytes - bytes / 2,
            ..Default::default()
        }
    }

    #[test]
    fn memory_bound_kernel_tracks_bandwidth() {
        let spec = DeviceSpec::nvidia_a100();
        // 1 GB of traffic, trivial compute.
        let s = stats(1_000_000_000, 1000);
        let t = kernel_time(&spec, &s, 1.0);
        let achieved = t.bandwidth_gbps(s.bytes_total());
        // Achieved BW must be close to (but below) peak.
        assert!(achieved < spec.dram_gbps);
        assert!(achieved > 0.9 * spec.dram_gbps, "achieved {achieved} vs peak {}", spec.dram_gbps);
    }

    #[test]
    fn compute_bound_kernel_scales_with_instructions() {
        let spec = DeviceSpec::nvidia_a100();
        let t1 = kernel_time(&spec, &stats(0, 1_000_000_000), 1.0);
        let t2 = kernel_time(&spec, &stats(0, 2_000_000_000), 1.0);
        assert!(t2.seconds() > 1.9 * (t1.seconds() - spec.launch_latency_us * 1e-6));
    }

    #[test]
    fn efficiency_penalty_slows_down() {
        let spec = DeviceSpec::amd_mi250x();
        let s = stats(1_000_000_000, 1000);
        let native = kernel_time(&spec, &s, 1.0);
        let translated = kernel_time(&spec, &s, 0.8);
        assert!(translated.seconds() > native.seconds());
        let ratio = (translated.seconds() - spec.launch_latency_us * 1e-6)
            / (native.seconds() - spec.launch_latency_us * 1e-6);
        assert!((ratio - 1.25).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn launch_latency_floors_empty_kernels() {
        let spec = DeviceSpec::intel_pvc();
        let t = kernel_time(&spec, &LaunchStats::default(), 1.0);
        assert!((t.micros() - spec.launch_latency_us).abs() < 1e-9);
    }

    #[test]
    fn transfers_include_latency_and_bandwidth() {
        let spec = DeviceSpec::nvidia_a100();
        let small = transfer_time(&spec, 8);
        let big = transfer_time(&spec, 1_000_000_000);
        assert!(small.micros() >= spec.transfer_latency_us);
        assert!(big.seconds() > 1.0 / spec.pcie_gbps * 0.9);
    }

    #[test]
    #[should_panic(expected = "efficiency out of range")]
    fn zero_efficiency_rejected() {
        let spec = DeviceSpec::nvidia_a100();
        kernel_time(&spec, &LaunchStats::default(), 0.0);
    }

    #[test]
    fn modeled_time_arithmetic() {
        let a = ModeledTime::from_seconds(1.0);
        let b = ModeledTime::from_seconds(2.0);
        assert_eq!((a + b).seconds(), 3.0);
        let sum: ModeledTime = [a, b, a].into_iter().sum();
        assert_eq!(sum.seconds(), 4.0);
        assert_eq!(ModeledTime::zero().bandwidth_gbps(100), 0.0);
        assert!((ModeledTime::from_seconds(1.0).bandwidth_gbps(2_000_000_000) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn modeled_time_sub_saturates_and_max_picks_larger() {
        let a = ModeledTime::from_seconds(1.0);
        let b = ModeledTime::from_seconds(2.5);
        assert_eq!((b - a).seconds(), 1.5);
        assert_eq!((a - b).seconds(), 0.0, "durations never go negative");
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn nvidia_atomic_cost_pins_old_flat_charge() {
        // Atomic throughput moved from a hard-coded 2 ns into
        // `DeviceSpec::atomic_ns`; the NVIDIA preset keeps the historical
        // 2 ns so modeled times are unchanged there.
        let spec = DeviceSpec::nvidia_a100();
        assert_eq!(spec.atomic_ns, 2.0);
        let s = LaunchStats { atomics: 1_000_000, ..Default::default() };
        let t = kernel_time(&spec, &s, 1.0);
        let old = spec.launch_latency_us * 1e-6 + 1_000_000.0 * 2e-9 / spec.compute_units as f64;
        assert!((t.seconds() - old).abs() < 1e-15, "{} vs {}", t.seconds(), old);
    }

    #[test]
    fn atomic_cost_is_a_per_vendor_attribute() {
        let s = LaunchStats { atomics: 10_000_000, ..Default::default() };
        let per_vendor: Vec<f64> = DeviceSpec::presets()
            .iter()
            .map(|spec| kernel_time(spec, &s, 1.0).seconds() - spec.launch_latency_us * 1e-6)
            .collect();
        assert!(per_vendor.iter().all(|&t| t > 0.0));
        // NVIDIA (2.0 ns / 108 CUs) is cheapest per atomic here.
        assert!(per_vendor[0] < per_vendor[1]);
        assert!(per_vendor[0] < per_vendor[2]);
    }

    #[test]
    fn traced_tier_matches_analytic_on_streaming_traffic() {
        // A stream whose DRAM traffic equals its requested bytes should
        // time out nearly identically under both tiers (the traced tier
        // adds only the one-time fill latency).
        let spec = DeviceSpec::nvidia_a100();
        let s = stats(1_000_000_000, 1000);
        let mem = MemStats {
            transactions: s.bytes_total() / 32,
            l2_accesses: s.bytes_total() / 32,
            dram_bytes: s.bytes_total(),
            dram_sectors: s.bytes_total() / 32,
            ..Default::default()
        };
        let analytic = kernel_time(&spec, &s, 1.0);
        let traced = kernel_time_traced(&spec, &s, &mem, 1.0);
        let ratio = traced.seconds() / analytic.seconds();
        assert!((0.95..=1.05).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn traced_tier_charges_uncoalesced_dram_traffic() {
        // Same requested bytes, but the gather moves 4× the DRAM sectors:
        // the traced tier must be slower.
        let spec = DeviceSpec::nvidia_a100();
        let s = stats(250_000_000, 1000);
        let coalesced = MemStats {
            l2_accesses: s.bytes_total() / 32,
            dram_bytes: s.bytes_total(),
            ..Default::default()
        };
        let gathered = MemStats {
            l2_accesses: 4 * s.bytes_total() / 32,
            dram_bytes: 4 * s.bytes_total(),
            ..Default::default()
        };
        let fast = kernel_time_traced(&spec, &s, &coalesced, 1.0);
        let slow = kernel_time_traced(&spec, &s, &gathered, 1.0);
        assert!(slow.seconds() > 2.0 * (fast.seconds() - spec.launch_latency_us * 1e-6));
    }

    #[test]
    fn traced_tier_with_no_memory_traffic_floors_at_launch_latency() {
        let spec = DeviceSpec::intel_pvc();
        let t = kernel_time_traced(&spec, &LaunchStats::default(), &MemStats::default(), 1.0);
        assert!((t.micros() - spec.launch_latency_us).abs() < 1e-9);
    }
}
