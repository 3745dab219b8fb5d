//! The vendor-portability pass suite (MCA006–MCA010) and its per-kernel
//! [`PortabilityReport`].
//!
//! Where `MCA001`–`MCA004` ask "is this kernel correct", this suite asks
//! the paper's question: **on which vendor's device is it correct?** Every
//! analysis is parameterized by a [`DeviceSpec`] — warp width 32/64/16,
//! shared-memory capacity, thread-per-block limit — and run once per
//! preset device, yielding one [`DeviceVerdict`] per vendor:
//!
//! * `MCA006` — warp-width assumptions ([`crate::width`]): lane
//!   arithmetic against warp-sized literals whose value provably differs
//!   on one width.
//! * `MCA007` — shared-memory demand over the device's per-block capacity
//!   ([`crate::capacity`]).
//! * `MCA008` — block shape over the device's thread limit
//!   ([`crate::capacity`]).
//! * `MCA009` — width-dependent divergent barriers: divergent at *this*
//!   device's width but not at every width
//!   ([`crate::divergence::divergent_barrier_locs`]). Barriers divergent
//!   at all widths are the vendor-neutral `MCA002`'s domain and are not
//!   double-reported here.
//! * `MCA010` — order-sensitive float atomics: the simulator (like real
//!   warp schedulers) commits colliding atomics in a width-dependent
//!   order, so float `atomicAdd` sums differ across all three vendors.
//!   Reported on every device, and — unlike the other codes — treated as
//!   *informational* by the compile gates: real reduction kernels
//!   (BabelStream dot, every frontend's `reduce`) legitimately contain it
//!   and tolerate the rounding drift.
//!
//! The static claims here are differentially validated against the
//! simulator: `tests/portability_differential.rs` and `analyze --smoke`
//! run every corpus kernel on all three devices under both execution
//! tiers and require each breaks-on-vendor claim to match the observed
//! deadlock, launch refusal, or checksum divergence — with zero false
//! positives on clean kernels.

use crate::{divergence, width, AnalysisOptions, Diagnostic, Loc, MCA006, MCA009, MCA010};
use mcmm_gpu_sim::device::DeviceSpec;
use mcmm_gpu_sim::ir::{AtomicOp, Instr, KernelIr, Type};
use std::collections::{BTreeMap, BTreeSet};

/// The portability verdict for one kernel on one vendor device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceVerdict {
    /// The device's marketing name (`DeviceSpec::name`).
    pub device: &'static str,
    /// The device's warp/wavefront/sub-group width.
    pub warp_width: u32,
    /// The portability findings specific to this device.
    pub diagnostics: Vec<Diagnostic>,
}

impl DeviceVerdict {
    /// No portability findings at all on this device.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The distinct codes present.
    pub fn codes(&self) -> BTreeSet<&'static str> {
        self.diagnostics.iter().map(|d| d.code).collect()
    }

    /// Clean for gating purposes: no findings that predict the kernel
    /// *breaks* on this device. `MCA010` is excluded — it predicts
    /// cross-vendor result drift, not a failure, and legitimate reduction
    /// kernels carry it by design.
    pub fn gate_clean(&self) -> bool {
        self.diagnostics.iter().all(|d| d.code == MCA010)
    }

    /// The findings that gate (everything but `MCA010`).
    pub fn gating_diagnostics(&self) -> Vec<Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code != MCA010).cloned().collect()
    }
}

/// Per-kernel aggregation: one verdict per preset vendor device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortabilityReport {
    /// The analyzed kernel's name.
    pub kernel: String,
    /// One verdict per [`DeviceSpec::presets`] entry, in preset order
    /// (NVIDIA, AMD, Intel).
    pub verdicts: Vec<DeviceVerdict>,
}

impl PortabilityReport {
    /// Clean on every device.
    pub fn is_clean(&self) -> bool {
        self.verdicts.iter().all(DeviceVerdict::is_clean)
    }

    /// Gate-clean on every device (ignores informational `MCA010`).
    pub fn gate_clean(&self) -> bool {
        self.verdicts.iter().all(DeviceVerdict::gate_clean)
    }

    /// The verdict for one device, looked up by spec name.
    pub fn verdict_for(&self, device: &str) -> Option<&DeviceVerdict> {
        self.verdicts.iter().find(|v| v.device == device)
    }

    /// Devices this kernel is statically predicted to *break* on
    /// (deadlock or refused launch or wrong values — gating codes only).
    pub fn breaking_devices(&self) -> Vec<&'static str> {
        self.verdicts.iter().filter(|v| !v.gate_clean()).map(|v| v.device).collect()
    }

    /// Every distinct code across all devices.
    pub fn codes(&self) -> BTreeSet<&'static str> {
        self.verdicts.iter().flat_map(|v| v.codes()).collect()
    }
}

/// Locations of order-sensitive float atomics (`AtomicOp::Add` on `F32`/
/// `F64` values).
fn float_atomic_locs(kernel: &KernelIr) -> Vec<(Loc, Type)> {
    fn walk(kernel: &KernelIr, body: &[Instr], next: &mut u32, out: &mut Vec<(Loc, Type)>) {
        for instr in body {
            let loc = Loc(*next);
            *next += 1;
            match instr {
                Instr::Atomic { op: AtomicOp::Add, value, .. } => {
                    if let Some(ty) = kernel.operand_type(value) {
                        if ty.is_float() {
                            out.push((loc, ty));
                        }
                    }
                }
                Instr::If { then_, else_, .. } => {
                    walk(kernel, then_, next, out);
                    walk(kernel, else_, next, out);
                }
                Instr::While { cond_block, body, .. } => {
                    walk(kernel, cond_block, next, out);
                    walk(kernel, body, next, out);
                }
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(kernel, &kernel.body, &mut 0, &mut out);
    out
}

/// Run the full portability suite over the preset vendor devices.
pub fn portability(kernel: &KernelIr, opts: &AnalysisOptions) -> PortabilityReport {
    portability_on(kernel, opts, &DeviceSpec::presets())
}

/// Run the portability suite over an explicit device list.
pub fn portability_on(
    kernel: &KernelIr,
    opts: &AnalysisOptions,
    devices: &[DeviceSpec],
) -> PortabilityReport {
    // The width universe is always the full preset set (plus any novel
    // width among `devices`): "assumes a warp width" and "divergent at
    // *some* but not all widths" are claims about the ecosystem, not
    // about whichever subset of devices a caller gates against — so a
    // single-device gate reaches the same verdict as the full report.
    let widths: Vec<u32> = {
        let mut ws: Vec<u32> = DeviceSpec::presets()
            .iter()
            .map(|d| d.warp_width)
            .chain(devices.iter().map(|d| d.warp_width))
            .collect();
        ws.sort_unstable();
        ws.dedup();
        ws
    };

    // MCA006: width-assumption findings, each carrying its breaking widths.
    let width_findings = width::findings(kernel, opts, &widths);

    // MCA009: per-width divergent-barrier reachability. Barriers divergent
    // at *every* width belong to the vendor-neutral MCA002.
    let barrier_locs: BTreeMap<u32, BTreeSet<Loc>> =
        widths.iter().map(|&w| (w, divergence::divergent_barrier_locs(kernel, w))).collect();
    let divergent_everywhere: BTreeSet<Loc> = widths
        .iter()
        .map(|w| barrier_locs[w].clone())
        .reduce(|a, b| a.intersection(&b).copied().collect())
        .unwrap_or_default();

    // MCA010: device-independent detection, reported per device.
    let float_atomics = float_atomic_locs(kernel);

    let verdicts = devices
        .iter()
        .map(|spec| {
            let mut diagnostics = Vec::new();
            for f in &width_findings {
                if f.breaking_widths.contains(&spec.warp_width) {
                    diagnostics.push(Diagnostic {
                        code: MCA006,
                        loc: Some(f.loc),
                        message: f.message.clone(),
                    });
                }
            }
            diagnostics.extend(crate::capacity::check(kernel, opts, spec));
            for &loc in barrier_locs[&spec.warp_width].difference(&divergent_everywhere) {
                diagnostics.push(Diagnostic {
                    code: MCA009,
                    loc: Some(loc),
                    message: format!(
                        "barrier at {loc} in kernel `{}` is uniform at other warp widths \
                         but divergent at width {} — lanes of a `{}` \
                         warp that fail the guard never arrive: vendor-specific deadlock",
                        kernel.name, spec.warp_width, spec.name
                    ),
                });
            }
            for &(loc, ty) in &float_atomics {
                diagnostics.push(Diagnostic {
                    code: MCA010,
                    loc: Some(loc),
                    message: format!(
                        "atomic {ty} add at {loc} in kernel `{}` commits in warp-order: \
                         the rounding of the sum depends on the {}-wide schedule of `{}` \
                         and differs across vendors",
                        kernel.name, spec.warp_width, spec.name
                    ),
                });
            }
            diagnostics.sort_by(|a, b| (a.loc, a.code).cmp(&(b.loc, b.code)));
            DeviceVerdict { device: spec.name, warp_width: spec.warp_width, diagnostics }
        })
        .collect();

    PortabilityReport { kernel: kernel.name.clone(), verdicts }
}
