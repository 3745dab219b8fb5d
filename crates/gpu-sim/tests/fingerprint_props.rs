//! Property tests for `KernelIr::fingerprint` — the key the
//! content-addressed compile cache indexes on. Two guarantees matter for
//! cache correctness under failover recompiles:
//!
//! 1. structurally-equal kernels collide (a rebuilt-but-identical kernel
//!    must hit the cache), and
//! 2. any single-instruction mutation changes the hash (a changed kernel
//!    must *never* silently hit a stale artifact).
//!
//! Since the fingerprint hashes the stream the ISA encoder writes, a third
//! property pins the two together: valid kernels share a fingerprint
//! exactly when they assemble to the same bytes.

use mcmm_gpu_sim::ir::{
    AtomicOp, BinOp, CmpOp, Instr, KernelIr, Operand, Reg, Space, Special, Type, UnOp, Value,
};
use mcmm_gpu_sim::isa::{assemble, IsaKind};
use proptest::prelude::*;

/// A compact, always-valid instruction plan: each entry maps to one
/// instruction (or one `If`/`While` with its nested plans) over the typed
/// register file [`REGS`]. `Imm` moves an immediate of each `Value` type
/// into a register of that type; `Cvt` widens an I32 register to I64, F32
/// or F64.
#[derive(Debug, Clone, PartialEq)]
enum PlannedInstr {
    MovImm { dst: u8, imm: i32 },
    Bin { op: u8, dst: u8, a: u8, b: u8 },
    Un { op: u8, dst: u8, a: u8 },
    Imm { ty: u8, v: i8 },
    Cmp { op: u8, a: u8, b: u8 },
    Sel { cond: u8, dst: u8, a: u8, imm: i32 },
    Cvt { to: u8, a: u8 },
    Special { dst: u8, kind: u8 },
    Ld { space: u8, to: u8, imm_addr: bool },
    St { space: u8, value: u8, imm_addr: bool },
    Atomic { op: u8, space: u8, value: u8, dst: bool },
    Bar,
    Trap { message: u8 },
    If { cond: u8, then_: Vec<PlannedInstr>, else_: Vec<PlannedInstr> },
    While { cond_block: Vec<PlannedInstr>, cond: u8, body: Vec<PlannedInstr> },
}

/// r0–r3 are I32 (the operands of `MovImm`, `Bin` and `Un`), r4 is the I64
/// address, then one F32, one F64 and two Bool registers.
const REGS: [Type; 9] = [
    Type::I32,
    Type::I32,
    Type::I32,
    Type::I32,
    Type::I64,
    Type::F32,
    Type::F64,
    Type::Bool,
    Type::Bool,
];
const NREGS: u8 = 4;
const ADDR: Reg = Reg(4);
const MESSAGES: [&str; 3] = ["", "bounds", "assertion failed: x < n"];

fn i32_reg(code: u8) -> Reg {
    Reg(u16::from(code % NREGS))
}

fn bool_reg(code: u8) -> Reg {
    Reg(7 + u16::from(code % 2))
}

fn space(code: u8) -> Space {
    if code.is_multiple_of(2) {
        Space::Global
    } else {
        Space::Shared
    }
}

fn bin_op(code: u8) -> BinOp {
    match code % 4 {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        _ => BinOp::Xor,
    }
}

fn un_op(code: u8) -> UnOp {
    if code.is_multiple_of(2) {
        UnOp::Neg
    } else {
        UnOp::Abs
    }
}

fn cmp_op(code: u8) -> CmpOp {
    [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][usize::from(code % 6)]
}

fn atomic_op(code: u8) -> AtomicOp {
    [AtomicOp::Add, AtomicOp::Min, AtomicOp::Max, AtomicOp::Exch][usize::from(code % 4)]
}

fn special(code: u8) -> Special {
    [Special::TidX, Special::CtaIdX, Special::NTidX, Special::NCtaIdX, Special::LaneId]
        [usize::from(code % 5)]
}

/// An addressable register of I32, I64, F32 or F64 by `code`.
fn typed_reg(code: u8) -> Reg {
    [Reg(0), ADDR, Reg(5), Reg(6)][usize::from(code % 4)]
}

/// An immediate of every `Value` type by `ty`, and the register it fits.
fn immediate(ty: u8, v: i8) -> (Reg, Value) {
    match ty % 5 {
        0 => (Reg(5), Value::F32(f32::from(v) * 0.5)),
        1 => (Reg(6), Value::F64(f64::from(v) * 0.25)),
        2 => (Reg(1), Value::I32(i32::from(v))),
        3 => (ADDR, Value::I64(i64::from(v) << 3)),
        _ => (Reg(7), Value::Bool(v % 2 != 0)),
    }
}

fn addr(imm_addr: bool) -> Operand {
    if imm_addr {
        Operand::Imm(Value::I64(64))
    } else {
        Operand::Reg(ADDR)
    }
}

fn lower(p: &PlannedInstr) -> Instr {
    let block = |plan: &[PlannedInstr]| plan.iter().map(lower).collect();
    match p {
        &PlannedInstr::MovImm { dst, imm } => {
            Instr::Mov { dst: i32_reg(dst), src: Operand::Imm(Value::I32(imm)) }
        }
        &PlannedInstr::Bin { op, dst, a, b } => Instr::Bin {
            op: bin_op(op),
            dst: i32_reg(dst),
            a: Operand::Reg(i32_reg(a)),
            b: Operand::Reg(i32_reg(b)),
        },
        &PlannedInstr::Un { op, dst, a } => {
            Instr::Un { op: un_op(op), dst: i32_reg(dst), a: Operand::Reg(i32_reg(a)) }
        }
        &PlannedInstr::Imm { ty, v } => {
            let (dst, value) = immediate(ty, v);
            Instr::Mov { dst, src: Operand::Imm(value) }
        }
        &PlannedInstr::Cmp { op, a, b } => Instr::Cmp {
            op: cmp_op(op),
            dst: bool_reg(a ^ b),
            a: Operand::Reg(i32_reg(a)),
            b: Operand::Reg(i32_reg(b)),
        },
        &PlannedInstr::Sel { cond, dst, a, imm } => Instr::Sel {
            dst: i32_reg(dst),
            cond: bool_reg(cond),
            a: Operand::Reg(i32_reg(a)),
            b: Operand::Imm(Value::I32(imm)),
        },
        &PlannedInstr::Cvt { to, a } => {
            Instr::Cvt { dst: typed_reg(1 + to % 3), a: Operand::Reg(i32_reg(a)) }
        }
        &PlannedInstr::Special { dst, kind } => {
            Instr::Special { dst: i32_reg(dst), kind: special(kind) }
        }
        &PlannedInstr::Ld { space: s, to, imm_addr } => {
            Instr::Ld { dst: typed_reg(to), space: space(s), addr: addr(imm_addr) }
        }
        &PlannedInstr::St { space: s, value, imm_addr } => Instr::St {
            space: space(s),
            addr: addr(imm_addr),
            value: Operand::Reg(typed_reg(value)),
        },
        &PlannedInstr::Atomic { op, space: s, value, dst } => Instr::Atomic {
            op: atomic_op(op),
            space: space(s),
            addr: Operand::Reg(ADDR),
            value: Operand::Reg(i32_reg(value)),
            dst: dst.then(|| i32_reg(value + 1)),
        },
        PlannedInstr::Bar => Instr::Bar,
        &PlannedInstr::Trap { message } => {
            Instr::Trap { message: MESSAGES[usize::from(message) % MESSAGES.len()].into() }
        }
        PlannedInstr::If { cond, then_, else_ } => {
            Instr::If { cond: bool_reg(*cond), then_: block(then_), else_: block(else_) }
        }
        PlannedInstr::While { cond_block, cond, body } => {
            Instr::While { cond_block: block(cond_block), cond: bool_reg(*cond), body: block(body) }
        }
    }
}

fn build(name: &str, shared_bytes: u64, plan: &[PlannedInstr]) -> KernelIr {
    let kernel = KernelIr {
        name: name.to_string(),
        params: vec![],
        regs: REGS.to_vec(),
        shared_bytes,
        body: plan.iter().map(lower).collect(),
    };
    assert_eq!(kernel.validate(), Ok(()), "the generator plans valid kernels only");
    kernel
}

/// Mutate exactly one planned instruction, the `idx`-th in pre-order (modulo
/// the count), into a structurally different one (same slot, different
/// content).
fn mutate_one(plan: &mut [PlannedInstr], idx: usize) {
    let idx = idx % count(plan);
    mutate_at(plan, &mut { idx });
}

fn count(plan: &[PlannedInstr]) -> usize {
    plan.iter()
        .map(|p| match p {
            PlannedInstr::If { then_: a, else_: b, .. }
            | PlannedInstr::While { cond_block: a, body: b, .. } => 1 + count(a) + count(b),
            _ => 1,
        })
        .sum()
}

/// Mutate the `*left`-th instruction of `plan` in pre-order, counting down.
fn mutate_at(plan: &mut [PlannedInstr], left: &mut usize) -> bool {
    for p in plan {
        if *left == 0 {
            *p = mutated(p.clone());
            return true;
        }
        *left -= 1;
        if let PlannedInstr::If { then_: a, else_: b, .. }
        | PlannedInstr::While { cond_block: a, body: b, .. } = p
        {
            if mutate_at(a, left) || mutate_at(b, left) {
                return true;
            }
        }
    }
    false
}

fn mutated(p: PlannedInstr) -> PlannedInstr {
    use PlannedInstr as P;
    match p {
        P::MovImm { dst, imm } => P::MovImm { dst, imm: imm.wrapping_add(1) },
        P::Bin { op, dst, a, b } => P::Bin { op: op.wrapping_add(1), dst, a, b },
        P::Un { op, dst, a } => P::Un { op: op.wrapping_add(1), dst, a },
        P::Imm { ty, v } => P::Imm { ty, v: v.wrapping_add(1) },
        P::Cmp { op, a, b } => P::Cmp { op: op.wrapping_add(1), a, b },
        P::Sel { cond, dst, a, imm } => P::Sel { cond, dst, a, imm: imm.wrapping_add(1) },
        P::Cvt { to, a } => P::Cvt { to: (to % 3 + 1) % 3, a },
        P::Special { dst, kind } => P::Special { dst, kind: (kind % 5 + 1) % 5 },
        P::Ld { space, to, imm_addr } => P::Ld { space: space ^ 1, to, imm_addr },
        P::St { space, value, imm_addr } => P::St { space, value, imm_addr: !imm_addr },
        P::Atomic { op, space, value, dst } => P::Atomic { op, space, value, dst: !dst },
        P::Bar => P::Trap { message: 0 },
        P::Trap { message } => P::Trap { message: (message % 3 + 1) % 3 },
        P::If { cond, then_, else_ } => P::If { cond: cond ^ 1, then_, else_ },
        P::While { cond_block, cond, body } => P::While { cond_block, cond: cond ^ 1, body },
    }
}

fn arb_leaf() -> impl Strategy<Value = PlannedInstr> {
    use PlannedInstr as P;
    prop_oneof![
        (0u8..NREGS, -100i32..100).prop_map(|(dst, imm)| P::MovImm { dst, imm }),
        (0u8..8, 0u8..NREGS, 0u8..NREGS, 0u8..NREGS).prop_map(|(op, dst, a, b)| P::Bin {
            op,
            dst,
            a,
            b
        }),
        (0u8..8, 0u8..NREGS, 0u8..NREGS).prop_map(|(op, dst, a)| P::Un { op, dst, a }),
        (0u8..5, -4i8..4).prop_map(|(ty, v)| P::Imm { ty, v }),
        (0u8..6, 0u8..NREGS, 0u8..NREGS).prop_map(|(op, a, b)| P::Cmp { op, a, b }),
        (0u8..2, 0u8..NREGS, 0u8..NREGS, -2i32..2).prop_map(|(cond, dst, a, imm)| P::Sel {
            cond,
            dst,
            a,
            imm
        }),
        (0u8..3, 0u8..NREGS).prop_map(|(to, a)| P::Cvt { to, a }),
        (0u8..NREGS, 0u8..5).prop_map(|(dst, kind)| P::Special { dst, kind }),
        (0u8..2, 0u8..4, any::<bool>()).prop_map(|(space, to, imm_addr)| P::Ld {
            space,
            to,
            imm_addr
        }),
        (0u8..2, 0u8..4, any::<bool>()).prop_map(|(space, value, imm_addr)| P::St {
            space,
            value,
            imm_addr
        }),
        (0u8..4, 0u8..2, 0u8..NREGS, any::<bool>()).prop_map(|(op, space, value, dst)| P::Atomic {
            op,
            space,
            value,
            dst
        }),
        Just(P::Bar),
        (0u8..3).prop_map(|message| P::Trap { message }),
    ]
}

/// Leaves, and `If`s and `While`s nested up to three deep around them.
fn arb_instr() -> impl Strategy<Value = PlannedInstr> {
    arb_leaf().prop_recursive(3, 64, 4, |inner| {
        let block = proptest::collection::vec(inner.clone(), 0..3).boxed();
        prop_oneof![
            inner,
            (0u8..2, block.clone(), block.clone())
                .prop_map(|(cond, then_, else_)| PlannedInstr::If { cond, then_, else_ }),
            (block.clone(), 0u8..2, block).prop_map(|(cond_block, cond, body)| {
                PlannedInstr::While { cond_block, cond, body }
            }),
        ]
    })
}

fn arb_plan() -> impl Strategy<Value = Vec<PlannedInstr>> {
    proptest::collection::vec(arb_instr(), 1..40)
}

proptest! {
    #[test]
    fn structurally_equal_kernels_collide(plan in arb_plan(), shared in 0u64..4096) {
        // Build the same kernel twice from the same plan — independent
        // allocations, same structure.
        let a = build("prop_kernel", shared, &plan);
        let b = build("prop_kernel", shared, &plan);
        prop_assert_eq!(a.clone(), b.clone());
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn single_op_mutation_changes_the_hash(plan in arb_plan(), idx in 0usize..64) {
        let original = build("prop_kernel", 0, &plan);
        let mut mutated_plan = plan.clone();
        mutate_one(&mut mutated_plan, idx);
        let mutated = build("prop_kernel", 0, &mutated_plan);
        prop_assert_ne!(original.clone(), mutated.clone(), "mutation must change structure");
        prop_assert_ne!(
            original.fingerprint(), mutated.fingerprint(),
            "a one-instruction change must change the cache key"
        );
    }

    #[test]
    fn name_shared_and_arity_feed_the_hash(plan in arb_plan()) {
        let base = build("prop_kernel", 64, &plan);
        let renamed = build("prop_kernel2", 64, &plan);
        let resized = build("prop_kernel", 128, &plan);
        prop_assert_ne!(base.fingerprint(), renamed.fingerprint());
        prop_assert_ne!(base.fingerprint(), resized.fingerprint());

        // An extra register (unused) still changes the key: register
        // tables are part of the compiled artifact.
        let mut wider = build("prop_kernel", 64, &plan);
        wider.regs.push(Type::F32);
        prop_assert_ne!(base.fingerprint(), wider.fingerprint());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fingerprint hashes what the module encoder writes, so two valid
    /// kernels share one exactly when their modules share every byte. Each
    /// side is one short plan with nothing mutated or the instruction at
    /// one of two pre-order sites mutated, so at least a third of the pairs
    /// are equal and the rest differ in one or two instructions.
    #[test]
    fn fingerprints_are_equal_exactly_when_modules_are(
        plan in proptest::collection::vec(arb_instr(), 1..4),
        sites in (0usize..64, 0usize..64),
        picks in (0usize..3, 0usize..3),
    ) {
        let kernel = |pick: usize| {
            let mut plan = plan.clone();
            match pick {
                1 => mutate_one(&mut plan, sites.0),
                2 => mutate_one(&mut plan, sites.1),
                _ => {}
            }
            build("prop_kernel", 0, &plan)
        };
        let (a, b) = (kernel(picks.0), kernel(picks.1));
        let bytes = |k: &KernelIr| assemble(k, IsaKind::PtxLike).expect("valid kernel").bytes;
        let same_fingerprint = a.fingerprint() == b.fingerprint();
        prop_assert_eq!(same_fingerprint, bytes(&a) == bytes(&b), "{:?} vs {:?}", a, b);
    }
}

#[test]
fn float_immediates_hash_by_bit_pattern() {
    // 0.0 and -0.0 compare equal as floats but are different constants in
    // a compiled artifact; the fingerprint must keep them apart.
    let mk = |v: f32| KernelIr {
        name: "fneg".into(),
        params: vec![],
        regs: vec![Type::F32],
        shared_bytes: 0,
        body: vec![Instr::Mov { dst: Reg(0), src: Operand::Imm(Value::F32(v)) }],
    };
    assert_ne!(mk(0.0).fingerprint(), mk(-0.0).fingerprint());
}
