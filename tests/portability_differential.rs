//! Differential validation of the vendor-portability suite (MCA006–
//! MCA010): every static "breaks on vendor X" claim must match what the
//! simulator actually does when the kernel runs on X — a refused launch,
//! a barrier deadlock, or output bytes that diverge from the other
//! vendors — on *both* block engines, with zero false positives on
//! defect-free kernels.

use many_models::gpu_sim::ir::{BinOp, CmpOp, KernelBuilder, KernelIr, Space, Type, Value};
use many_models::gpu_sim::DeviceSpec;
use mcmm_analyze::corpus::{self, BreakMode, PortabilityKernel};
use mcmm_analyze::portability::{portability, portability_on, PortabilityReport};
use mcmm_analyze::AnalysisOptions;
use mcmm_gpu_sim_ref::diffval::{observe, Observation};
use mcmm_gpu_sim_ref::Engine;
use proptest::prelude::*;

/// Run one corpus kernel on every preset device, requiring the two
/// block engines to agree on each observation; returns one observation
/// per device, in preset order.
fn observe_everywhere(entry: &PortabilityKernel) -> Vec<Observation> {
    DeviceSpec::presets()
        .iter()
        .map(|spec| {
            let [reference, vectorized] = Engine::BOTH.map(|engine| {
                observe(spec, engine, &entry.kernel, entry.opts.block_dim, entry.opts.grid_dim)
            });
            assert_eq!(
                reference, vectorized,
                "engines disagree for `{}` on {}",
                entry.kernel.name, spec.name
            );
            reference
        })
        .collect()
}

/// Every seeded portability kernel is statically flagged with its code on
/// exactly the predicted vendor set, and every clean twin's report is
/// empty on every device (zero false positives).
#[test]
fn portability_corpus_static_claims() {
    for entry in corpus::portability_corpus() {
        assert_eq!(entry.kernel.validate(), Ok(()), "`{}` must be well-formed", entry.kernel.name);
        let report = portability(&entry.kernel, &entry.opts);
        assert_eq!(report.kernel, entry.kernel.name);
        match entry.expect {
            None => assert!(
                report.is_clean(),
                "false positive on clean kernel `{}`: {:?}",
                entry.kernel.name,
                report
            ),
            Some(code) => assert!(
                report.codes().contains(code),
                "`{}` must be flagged {code}, got {:?}",
                entry.kernel.name,
                report.codes()
            ),
        }
        assert_eq!(
            report.breaking_devices(),
            entry.breaks_on,
            "wrong breaking-device set for `{}`",
            entry.kernel.name
        );
    }
}

/// The heart of the suite: each static per-device verdict is checked
/// against the kernel's actual behavior on that device. A device the gate
/// calls broken must refuse, deadlock, or produce divergent bytes; a
/// device the gate calls clean must complete and agree byte-for-byte with
/// every other clean device.
#[test]
fn static_claims_match_execution() {
    for entry in corpus::portability_corpus() {
        let name = &entry.kernel.name;
        let report = portability(&entry.kernel, &entry.opts);
        let observations = observe_everywhere(&entry);
        let devices = DeviceSpec::presets();

        // Static gate verdict per device must equal membership in the
        // predicted breaking set.
        for spec in &devices {
            let verdict = report.verdict_for(spec.name).expect("verdict per preset");
            assert_eq!(
                !verdict.gate_clean(),
                entry.breaks_on.contains(&spec.name),
                "gate verdict for `{name}` on {} contradicts the corpus claim",
                spec.name
            );
        }

        // Observed behavior per device must match the declared mode.
        let clean_checksums: Vec<u64> = devices
            .iter()
            .zip(&observations)
            .filter(|(spec, _)| !entry.breaks_on.contains(&spec.name))
            .map(|(spec, obs)| match obs {
                Observation::Checksum(c) => *c,
                other => panic!(
                    "`{name}` on clean device {}: expected completion, got {other}",
                    spec.name
                ),
            })
            .collect();

        match entry.mode {
            BreakMode::Portable => {
                assert!(
                    clean_checksums.windows(2).all(|w| w[0] == w[1]),
                    "`{name}`: clean devices disagree: {observations:?}"
                );
            }
            BreakMode::SilentValues => {
                assert!(
                    clean_checksums.windows(2).all(|w| w[0] == w[1]),
                    "`{name}`: clean devices disagree: {observations:?}"
                );
                for (spec, obs) in devices.iter().zip(&observations) {
                    if entry.breaks_on.contains(&spec.name) {
                        match obs {
                            Observation::Checksum(c) => assert!(
                                !clean_checksums.contains(c),
                                "`{name}` on {}: bytes match clean devices — no observable break",
                                spec.name
                            ),
                            other => panic!(
                                "`{name}` on {}: expected silent divergence, got {other}",
                                spec.name
                            ),
                        }
                    }
                }
            }
            BreakMode::RefusedLaunch | BreakMode::Deadlock => {
                let want = if entry.mode == BreakMode::RefusedLaunch {
                    Observation::RefusedLaunch
                } else {
                    Observation::Deadlock
                };
                assert!(
                    clean_checksums.windows(2).all(|w| w[0] == w[1]),
                    "`{name}`: clean devices disagree: {observations:?}"
                );
                for (spec, obs) in devices.iter().zip(&observations) {
                    if entry.breaks_on.contains(&spec.name) {
                        assert_eq!(*obs, want, "`{name}` on breaking device {}", spec.name);
                    }
                }
            }
            BreakMode::OrderSensitive => {
                // All devices complete, but no two agree: the float-atomic
                // sum is a function of the warp schedule.
                let sums: Vec<u64> = observations
                    .iter()
                    .map(|o| match o {
                        Observation::Checksum(c) => *c,
                        other => panic!("`{name}`: expected completion everywhere, got {other}"),
                    })
                    .collect();
                for i in 0..sums.len() {
                    for j in (i + 1)..sums.len() {
                        assert_ne!(
                            sums[i], sums[j],
                            "`{name}`: {} and {} agree — atomic order not width-sensitive",
                            devices[i].name, devices[j].name
                        );
                    }
                }
            }
        }
    }
}

/// The vendor-neutral seeded-defect corpus (MCA001–MCA004 kernels) never
/// trips the portability gate: their defects are wrong-on-every-vendor,
/// which is exactly what the per-vendor suite must *not* claim.
#[test]
fn vendor_neutral_corpus_is_gate_clean() {
    for entry in corpus::seeded_defects() {
        let report = portability(&entry.kernel, &entry.opts);
        assert!(
            report.gate_clean(),
            "vendor-neutral kernel `{}` tripped the portability gate: {report:?}",
            entry.kernel.name
        );
    }
}

/// Per-device verdicts are a function of the kernel and that device
/// alone: recomputing the report, or rotating the device list, changes
/// nothing about any individual verdict.
#[test]
fn reports_are_deterministic_and_device_order_invariant() {
    let presets = DeviceSpec::presets();
    let rotated: Vec<DeviceSpec> =
        [presets[2].clone(), presets[0].clone(), presets[1].clone()].to_vec();
    for entry in corpus::portability_corpus() {
        let a = portability(&entry.kernel, &entry.opts);
        let b = portability(&entry.kernel, &entry.opts);
        assert_eq!(a, b, "report for `{}` not deterministic", entry.kernel.name);
        let r = portability_on(&entry.kernel, &entry.opts, &rotated);
        for spec in &presets {
            assert_eq!(
                a.verdict_for(spec.name),
                r.verdict_for(spec.name),
                "verdict for `{}` on {} depends on device-list order",
                entry.kernel.name,
                spec.name
            );
        }
    }
}

/// A randomly-shaped but always portable kernel: f64 arithmetic, a
/// data-dependent branch, and a lane-indexed loop — no barriers, no
/// atomics, no shared memory, no warp-literal lane comparisons.
#[derive(Debug, Clone)]
struct PortableKernel {
    chain: Vec<(u8, f64)>,
    threshold: f64,
    trips_mod: i32,
}

impl PortableKernel {
    fn build(&self) -> KernelIr {
        let mut k = KernelBuilder::new("rand_portable");
        let xp = k.param(Type::I64);
        let yp = k.param(Type::I64);
        let n = k.param(Type::I32);
        let i = k.global_thread_id_x();
        let ok = k.cmp(CmpOp::Lt, i, n);
        let this = self.clone();
        k.if_(ok, |k| {
            let x = k.ld_elem(Space::Global, Type::F64, xp, i);
            let acc = k.imm(Value::F64(0.0));
            k.assign(acc, x);
            for &(op, c) in &this.chain {
                let op = match op % 5 {
                    0 => BinOp::Add,
                    1 => BinOp::Sub,
                    2 => BinOp::Mul,
                    3 => BinOp::Min,
                    _ => BinOp::Max,
                };
                k.bin_assign(op, acc, Value::F64(c));
            }
            let t = k.imm(Value::F64(this.threshold));
            let below = k.cmp(CmpOp::Lt, acc, t);
            k.if_else(
                below,
                |k| k.bin_assign(BinOp::Mul, acc, Value::F64(-1.0)),
                |k| k.bin_assign(BinOp::Add, acc, Value::F64(0.5)),
            );
            let m = k.imm(Value::I32(this.trips_mod));
            let trips = k.bin(BinOp::Rem, i, m);
            let j = k.imm(Value::I32(0));
            k.while_(
                |k| k.cmp(CmpOp::Lt, j, trips),
                |k| {
                    k.bin_assign(BinOp::Add, acc, Value::F64(1.0));
                    k.bin_assign(BinOp::Add, j, Value::I32(1));
                },
            );
            k.st_elem(Space::Global, yp, i, acc);
        });
        k.finish()
    }
}

fn arb_portable() -> impl Strategy<Value = PortableKernel> {
    (proptest::collection::vec((any::<u8>(), -3.0..3.0f64), 1..8), -2.0..2.0f64, 1..9i32)
        .prop_map(|(chain, threshold, trips_mod)| PortableKernel { chain, threshold, trips_mod })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zero false positives on randomly generated portable kernels: the
    /// per-vendor suite must keep quiet on every one of them, at every
    /// block shape a preset device admits.
    #[test]
    fn no_false_positives_on_random_portable_kernels(
        pk in arb_portable(),
        block_dim in (0usize..5).prop_map(|i| [32u32, 64, 128, 256, 1024][i]),
    ) {
        let kernel = pk.build();
        prop_assert_eq!(kernel.validate(), Ok(()));
        let opts = AnalysisOptions { block_dim, ..AnalysisOptions::default() };
        let report: PortabilityReport = portability(&kernel, &opts);
        prop_assert!(report.is_clean(), "false positive: {:?}", report);
    }
}
