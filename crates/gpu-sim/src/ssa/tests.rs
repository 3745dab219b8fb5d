//! Middle-end unit tests: round-trip execution equality, pinned per-pass
//! rewrite counts, fixpoint termination, and deterministic pass order.

use super::*;
use crate::device::{Device, KernelArg, LaunchConfig};
use crate::ir::{BinOp, CmpOp, KernelBuilder, Space};
use crate::isa::assemble;

/// A kernel exercising every structured feature the builder has: a
/// guard `If`, a divergent `If`/`else` writing a pre-initialized
/// register, a carried-slot loop with a loop-invariant expression, and
/// element loads/stores (whose address chains are CSE fodder).
fn gnarly() -> KernelIr {
    let mut k = KernelBuilder::new("gnarly");
    let xs = k.param(Type::I64);
    let ys = k.param(Type::I64);
    let n = k.param(Type::I32);
    let i = k.global_thread_id_x();
    let ok = k.cmp(CmpOp::Lt, i, n);
    k.if_(ok, |k| {
        let xi = k.ld_elem(Space::Global, Type::F32, xs, i);
        let r = k.bin(BinOp::Rem, i, Value::I32(2));
        let odd = k.cmp(CmpOp::Eq, r, Value::I32(1));
        let v = k.mov(Value::F32(0.0));
        k.if_else(
            odd,
            |k| {
                let t = k.bin(BinOp::Mul, xi, Value::F32(2.0));
                k.assign(v, t);
            },
            |k| {
                let t = k.bin(BinOp::Add, xi, Value::F32(1.0));
                k.assign(v, t);
            },
        );
        let acc = k.mov(Value::F32(0.0));
        let j = k.mov(Value::I32(0));
        k.while_(
            |k| k.cmp(CmpOp::Lt, j, Value::I32(4)),
            |k| {
                let w = k.bin(BinOp::Add, v, v);
                k.bin_assign(BinOp::Add, acc, w);
                k.bin_assign(BinOp::Add, j, Value::I32(1));
            },
        );
        let out_v = k.bin(BinOp::Add, acc, v);
        k.st_elem(Space::Global, ys, i, out_v);
    });
    k.finish()
}

/// A loop whose feedback is a pure register swap: after copy propagation
/// the carried moves form a cycle, forcing the reconstruction's
/// parallel-move resolver down its scratch-register path.
fn swap_kernel() -> KernelIr {
    let mut k = KernelBuilder::new("swap");
    let out = k.param(Type::I64);
    let trips = k.param(Type::I32);
    let a = k.mov(Value::F32(1.0));
    let b = k.mov(Value::F32(2.0));
    let j = k.mov(Value::I32(0));
    k.while_(
        |k| k.cmp(CmpOp::Lt, j, trips),
        |k| {
            let t = k.mov(a);
            k.assign(a, b);
            k.assign(b, t);
            k.bin_assign(BinOp::Add, j, Value::I32(1));
        },
    );
    k.st_elem(Space::Global, out, Value::I32(0), a);
    k.st_elem(Space::Global, out, Value::I32(1), b);
    k.finish()
}

/// Single-thread launch for kernels whose params are `(out_ptr, trips)`.
fn run_swap(kernel: &KernelIr, spec: &DeviceSpec, trips: i32) -> Vec<f32> {
    let isa = spec.isa;
    let dev = Device::new(spec.clone());
    let out = dev.alloc_copy_f32(&[0.0, 0.0]).unwrap();
    let module = assemble(kernel, isa).unwrap();
    dev.launch(&module, LaunchConfig::linear(1, 1), &[KernelArg::Ptr(out), KernelArg::I32(trips)])
        .unwrap();
    dev.read_f32(out, 2).unwrap()
}

fn run_f32(kernel: &KernelIr, spec: &DeviceSpec, input: &[f32], out_len: usize) -> Vec<f32> {
    let isa = spec.isa;
    let dev = Device::new(spec.clone());
    let dx = dev.alloc_copy_f32(input).unwrap();
    let dy = dev.alloc_copy_f32(&vec![0.0; out_len]).unwrap();
    let module = assemble(kernel, isa).unwrap();
    dev.launch(
        &module,
        LaunchConfig::linear(input.len().max(1) as u64, 64),
        &[KernelArg::Ptr(dx), KernelArg::Ptr(dy), KernelArg::I32(input.len() as i32)],
    )
    .unwrap();
    dev.read_f32(dy, out_len).unwrap()
}

#[test]
fn optimized_kernels_execute_identically() {
    let kernel = gnarly();
    let input: Vec<f32> = (0..200).map(|i| i as f32 * 0.5 - 30.0).collect();
    for spec in DeviceSpec::presets() {
        let reference = run_f32(&kernel, &spec, &input, input.len());
        for level in [OptLevel::O1, OptLevel::O2] {
            let (opt, stats) = optimize(&kernel, level, Some(&spec));
            assert_eq!(opt.validate(), Ok(()), "{level} on {}", spec.name);
            assert_eq!(stats.kernels, 1);
            let got = run_f32(&opt, &spec, &input, input.len());
            for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    r.to_bits(),
                    "{level} on {} diverges at element {i}: {g} vs {r}",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn optimization_shrinks_the_gnarly_kernel() {
    let kernel = gnarly();
    let spec = DeviceSpec::nvidia_a100();
    let (_, o1) = optimize(&kernel, OptLevel::O1, Some(&spec));
    let (_, o2) = optimize(&kernel, OptLevel::O2, Some(&spec));
    // The element-address chains (`cvt`/`mul`/`add` per access) repeat
    // between the load and the store: CSE must merge some of them.
    assert!(o2.cse_merged > 0, "expected CSE hits, got {o2:?}");
    assert!(o2.licm_hoisted > 0, "expected LICM hoists, got {o2:?}");
    assert!(o2.instrs_after < o2.instrs_before, "O2 should shrink: {o2:?}");
    assert!(o2.instrs_after <= o1.instrs_after, "O2 at most O1's size");
}

#[test]
fn swap_loop_round_trips_through_the_cycle_breaker() {
    let kernel = swap_kernel();
    let spec = DeviceSpec::amd_mi250x();
    // Odd trip count: the swap must actually be observable.
    let reference = run_swap(&kernel, &spec, 3);
    assert_eq!(reference, vec![2.0, 1.0]);
    for level in [OptLevel::O1, OptLevel::O2] {
        let (opt, _) = optimize(&kernel, level, Some(&spec));
        assert_eq!(run_swap(&opt, &spec, 3), reference, "{level}");
    }
}

#[test]
fn zero_trip_loop_round_trips() {
    let kernel = swap_kernel();
    let spec = DeviceSpec::intel_pvc();
    let reference = run_swap(&kernel, &spec, 0);
    assert_eq!(reference, vec![1.0, 2.0]);
    for level in [OptLevel::O1, OptLevel::O2] {
        let (opt, _) = optimize(&kernel, level, Some(&spec));
        assert_eq!(run_swap(&opt, &spec, 0), reference, "{level}");
    }
}

// ---- pinned per-pass behaviour --------------------------------------

#[test]
fn const_fold_pins() {
    let mut k = KernelBuilder::new("cf");
    let out = k.param(Type::I64);
    let p = k.param(Type::I32);
    let a = k.bin(BinOp::Add, Value::I32(3), Value::I32(4));
    let b = k.bin(BinOp::Add, a, p);
    // Raw store to the pointer itself: no address-chain instructions to
    // muddy the pinned counts.
    k.st(Space::Global, out, b);
    let kernel = k.finish();
    let mut f = build::build(&kernel);
    // One fold (3+4) plus one operand resolution (a → 7 in b).
    assert_eq!(ConstFold.run(&mut f), 2);
    assert_eq!(ConstFold.run(&mut f), 0, "fixpoint after one run");
}

#[test]
fn const_fold_preserves_trapping_division() {
    let mut k = KernelBuilder::new("trapdiv");
    let out = k.param(Type::I64);
    let d = k.bin(BinOp::Div, Value::I32(1), Value::I32(0));
    k.st(Space::Global, out, d);
    let kernel = k.finish();
    let mut f = build::build(&kernel);
    assert_eq!(ConstFold.run(&mut f), 0, "a trapping fold must stay put");
    let out = reconstruct::reconstruct(&f);
    assert!(out.instruction_count() >= kernel.instruction_count(), "the division must survive");
}

#[test]
fn dce_pins() {
    let mut k = KernelBuilder::new("dce");
    let out = k.param(Type::I64);
    let p = k.param(Type::I32);
    let _dead = k.bin(BinOp::Mul, p, p);
    let live = k.bin(BinOp::Add, p, p);
    k.st_elem(Space::Global, out, Value::I32(0), live);
    let kernel = k.finish();
    let mut f = build::build(&kernel);
    let before = f.op_count();
    assert_eq!(Dce.run(&mut f), 1, "exactly the dead multiply");
    assert_eq!(f.op_count(), before - 1);
    assert_eq!(Dce.run(&mut f), 0);
}

#[test]
fn cse_pins() {
    let mut k = KernelBuilder::new("cse");
    let out = k.param(Type::I64);
    let p = k.param(Type::I32);
    let d1 = k.bin(BinOp::Add, p, p);
    let d2 = k.bin(BinOp::Add, p, p);
    let s = k.bin(BinOp::Add, d1, d2);
    k.st_elem(Space::Global, out, Value::I32(0), s);
    let kernel = k.finish();
    let mut f = build::build(&kernel);
    assert_eq!(Cse.run(&mut f), 1, "the duplicate add merges");
    assert_eq!(Cse.run(&mut f), 0);
}

#[test]
fn cse_does_not_merge_loads_across_a_store() {
    let mut k = KernelBuilder::new("ld-st-ld");
    let buf = k.param(Type::I64);
    let out = k.param(Type::I64);
    let a = k.ld_elem(Space::Global, Type::F32, buf, Value::I32(0));
    k.st_elem(Space::Global, buf, Value::I32(0), Value::F32(9.0));
    let b = k.ld_elem(Space::Global, Type::F32, buf, Value::I32(0));
    let s = k.bin(BinOp::Add, a, b);
    k.st_elem(Space::Global, out, Value::I32(0), s);
    let kernel = k.finish();
    let mut f = build::build(&kernel);
    // The address chains may merge; the reload of `buf[0]` must not.
    let merged = Cse.run(&mut f);
    assert!(merged > 0, "address chains should still merge");
    let run = |kernel: &KernelIr| {
        let spec = DeviceSpec::nvidia_a100();
        let dev = Device::new(spec.clone());
        let buf = dev.alloc_copy_f32(&[5.0]).unwrap();
        let out = dev.alloc_copy_f32(&[0.0]).unwrap();
        let module = assemble(kernel, spec.isa).unwrap();
        dev.launch(
            &module,
            LaunchConfig::linear(1, 1),
            &[KernelArg::Ptr(buf), KernelArg::Ptr(out)],
        )
        .unwrap();
        dev.read_f32(out, 1).unwrap()
    };
    let (opt, _) = optimize(&kernel, OptLevel::O2, None);
    assert_eq!(run(&kernel), vec![14.0], "load + stored value");
    assert_eq!(run(&opt), run(&kernel));
}

#[test]
fn licm_pins() {
    let mut k = KernelBuilder::new("licm");
    let out = k.param(Type::I64);
    let p = k.param(Type::F32);
    let acc = k.mov(Value::F32(0.0));
    let j = k.mov(Value::I32(0));
    k.while_(
        |k| k.cmp(CmpOp::Lt, j, Value::I32(8)),
        |k| {
            let w = k.bin(BinOp::Mul, p, p);
            k.bin_assign(BinOp::Add, acc, w);
            k.bin_assign(BinOp::Add, j, Value::I32(1));
        },
    );
    k.st_elem(Space::Global, out, Value::I32(0), acc);
    let kernel = k.finish();
    let mut f = build::build(&kernel);
    assert_eq!(Licm.run(&mut f), 1, "exactly the invariant multiply");
    assert_eq!(Licm.run(&mut f), 0);
}

#[test]
fn strength_reduce_pins() {
    let mut k = KernelBuilder::new("sr");
    let out = k.param(Type::I64);
    let p = k.param(Type::I32);
    let m8 = k.bin(BinOp::Mul, p, Value::I32(8));
    let m1 = k.bin(BinOp::Mul, p, Value::I32(1));
    let a0 = k.bin(BinOp::Add, m8, Value::I32(0));
    let s = k.bin(BinOp::Add, a0, m1);
    k.st_elem(Space::Global, out, Value::I32(0), s);
    let kernel = k.finish();
    let mut f = build::build(&kernel);
    // ×8 → shift, ×1 → copy, +0 → copy.
    assert_eq!(StrengthReduce.run(&mut f), 3);
    assert_eq!(StrengthReduce.run(&mut f), 0);
}

#[test]
fn divergence_flatten_scales_with_execution_width() {
    let mut k = KernelBuilder::new("div");
    let out = k.param(Type::I64);
    let p = k.param(Type::F32);
    let cond = k.cmp(CmpOp::Gt, p, Value::F32(0.0));
    let v = k.mov(Value::F32(0.0));
    k.if_else(
        cond,
        |k| {
            let a = k.bin(BinOp::Mul, p, Value::F32(3.0));
            let b = k.bin(BinOp::Add, a, Value::F32(1.0));
            let c = k.bin(BinOp::Mul, b, b);
            k.assign(v, c);
        },
        |k| {
            let t = k.bin(BinOp::Sub, Value::F32(0.0), p);
            k.assign(v, t);
        },
    );
    k.st_elem(Space::Global, out, Value::I32(0), v);
    let kernel = k.finish();
    // 7 arm ops total (including the `assign` copies): the 64-wide
    // wavefront (threshold 8) flattens, the 32-wide warp (threshold 4)
    // and 16-wide sub-group (threshold 2) do not.
    let count_for = |spec: DeviceSpec| {
        let mut f = build::build(&kernel);
        DivergenceFlatten::for_spec(&spec).run(&mut f)
    };
    assert_eq!(count_for(DeviceSpec::amd_mi250x()), 1);
    assert_eq!(count_for(DeviceSpec::nvidia_a100()), 0);
    assert_eq!(count_for(DeviceSpec::intel_pvc()), 0);
}

#[test]
fn addr_chain_fold_is_sub_group_only() {
    let mut k = KernelBuilder::new("addr");
    let out = k.param(Type::I64);
    let p = k.param(Type::I64);
    let a = k.bin(BinOp::Add, p, Value::I64(8));
    let b = k.bin(BinOp::Add, a, Value::I64(16));
    k.st_elem(Space::Global, out, Value::I32(0), b);
    let kernel = k.finish();
    let mut f = build::build(&kernel);
    assert_eq!(AddrChainFold::for_spec(&DeviceSpec::nvidia_a100()).run(&mut f), 0);
    assert_eq!(AddrChainFold::for_spec(&DeviceSpec::intel_pvc()).run(&mut f), 1);
    // After the fold `b = p + 24`; the intermediate add is now dead.
    assert_eq!(Dce.run(&mut f), 1);
}

// ---- pass-manager mechanics -----------------------------------------

/// A pass that never converges: it flips the first binary op between
/// `Add` and `Sub` and always reports one rewrite.
struct Oscillate;

impl Pass for Oscillate {
    fn name(&self) -> &'static str {
        "oscillate"
    }
    fn run(&self, f: &mut SsaFunc) -> u64 {
        let mut flipped = 0;
        passes::for_each_op(&mut f.body, &mut |i| {
            if flipped == 0 {
                if let SsaOp::Bin(op @ (BinOp::Add | BinOp::Sub), ..) = &mut i.op {
                    *op = if *op == BinOp::Add { BinOp::Sub } else { BinOp::Add };
                    flipped = 1;
                }
            }
        });
        flipped
    }
}

#[test]
fn pass_manager_terminates_on_oscillating_pass() {
    let mut k = KernelBuilder::new("osc");
    let out = k.param(Type::I64);
    let p = k.param(Type::I32);
    let s = k.bin(BinOp::Add, p, p);
    k.st_elem(Space::Global, out, Value::I32(0), s);
    let kernel = k.finish();
    let mut f = build::build(&kernel);
    let pm = PassManager::new().with(Box::new(Oscillate));
    let stats = pm.run(&mut f);
    assert_eq!(stats.sweeps, PassManager::MAX_SWEEPS, "cap must trip");
    assert_eq!(stats.pass_runs(), PassManager::MAX_SWEEPS);
    assert_eq!(stats.passes[0].rewrites, PassManager::MAX_SWEEPS);
}

#[test]
fn pass_manager_stops_at_fixpoint() {
    let kernel = gnarly();
    let mut f = build::build(&kernel);
    let pm = pipeline(OptLevel::O1, None);
    let stats = pm.run(&mut f);
    assert!(stats.sweeps < PassManager::MAX_SWEEPS, "O1 must converge: {stats:?}");
    // The last sweep is the all-zero one that proves the fixpoint.
    let per_sweep: Vec<u64> = stats.passes.iter().map(|p| p.runs).collect();
    assert!(per_sweep.iter().all(|&r| r == stats.sweeps));
}

#[test]
fn pipeline_order_is_deterministic() {
    let spec = DeviceSpec::intel_pvc();
    assert!(pipeline(OptLevel::O0, Some(&spec)).names().is_empty());
    assert_eq!(pipeline(OptLevel::O1, None).names(), ["const-fold", "dce"]);
    assert_eq!(
        pipeline(OptLevel::O2, Some(&spec)).names(),
        [
            "const-fold",
            "dce",
            "strength-reduce",
            "cse",
            "licm",
            "divergence-flatten",
            "addr-chain-fold"
        ]
    );
    assert_eq!(
        pipeline(OptLevel::O2, None).names(),
        ["const-fold", "dce", "strength-reduce", "cse", "licm"],
        "no vendor passes without a device spec"
    );
}

#[test]
fn opt_level_tags_and_names() {
    assert_eq!([OptLevel::O0, OptLevel::O1, OptLevel::O2].map(OptLevel::tag), [0, 1, 2]);
    assert_eq!(OptLevel::O2.to_string(), "O2");
}

#[test]
fn o0_is_the_identity() {
    let kernel = gnarly();
    let (out, stats) = optimize(&kernel, OptLevel::O0, None);
    assert_eq!(out, kernel);
    assert_eq!(stats, OptStats::default());
    assert_eq!(out.fingerprint(), kernel.fingerprint());
}
