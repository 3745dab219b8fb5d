//! MCA001 pinned finding by finding: the exact code, location and message
//! for each path shape the check distinguishes. The kernels are raw
//! `KernelIr` because `KernelBuilder` defines every register it creates.

use mcmm_analyze::{analyze_with, AnalysisOptions, Check, MCA001};
use mcmm_gpu_sim::ir::{BinOp, CmpOp, Instr, KernelIr, Operand, Reg, Type, Value};

fn kernel(name: &str, params: &[Type], locals: &[Type], body: Vec<Instr>) -> KernelIr {
    let k = KernelIr {
        name: name.into(),
        params: params.to_vec(),
        regs: params.iter().chain(locals).copied().collect(),
        shared_bytes: 0,
        body,
    };
    assert_eq!(k.validate(), Ok(()), "test kernel `{name}` must be valid IR");
    k
}

/// MCA001's findings as `(code, pre-order loc, message)`.
fn findings(k: &KernelIr) -> Vec<(&'static str, Option<u32>, String)> {
    analyze_with(k, &AnalysisOptions::default(), &[Check::UninitRead])
        .diagnostics
        .into_iter()
        .map(|d| (d.code, d.loc.map(|l| l.0), d.message))
        .collect()
}

fn mov(dst: u16, v: i32) -> Instr {
    Instr::Mov { dst: Reg(dst), src: Operand::Imm(Value::I32(v)) }
}

fn copy(dst: u16, src: u16) -> Instr {
    Instr::Mov { dst: Reg(dst), src: Operand::Reg(Reg(src)) }
}

fn add(dst: u16, a: u16, b: Operand) -> Instr {
    Instr::Bin { op: BinOp::Add, dst: Reg(dst), a: Operand::Reg(Reg(a)), b }
}

fn lt(dst: u16, a: u16, b: Operand) -> Instr {
    Instr::Cmp { op: CmpOp::Lt, dst: Reg(dst), a: Operand::Reg(Reg(a)), b }
}

fn imm(v: i32) -> Operand {
    Operand::Imm(Value::I32(v))
}

fn read(reg: u16, verb: &str, loc: u32, kernel: &str) -> (&'static str, Option<u32>, String) {
    let message =
        format!("register r{reg} {verb} before initialization at #{loc} in kernel `{kernel}`");
    (MCA001, Some(loc), message)
}

fn branch(reg: u16, kernel: &str) -> (&'static str, Option<u32>, String) {
    let message =
        format!("branch condition r{reg} may be read before initialization in kernel `{kernel}`");
    (MCA001, None, message)
}

/// r0 param, r1 = (r0 < 10), r2 and r3 scratch.
const BRANCHY: [Type; 3] = [Type::Bool, Type::I32, Type::I32];

#[test]
fn written_in_both_arms_is_clean() {
    let k = kernel(
        "both_arms",
        &[Type::I32],
        &BRANCHY,
        vec![
            lt(1, 0, imm(10)),
            Instr::If { cond: Reg(1), then_: vec![mov(2, 1)], else_: vec![mov(2, 2)] },
            add(3, 2, imm(1)),
        ],
    );
    assert_eq!(findings(&k), vec![]);
}

#[test]
fn written_in_the_then_arm_only_may_be_read() {
    let k = kernel(
        "then_only",
        &[Type::I32],
        &BRANCHY,
        // #0 r1 = r0 < 10; #1 if (r1) { #2 r2 = 1 }; #3 r3 = r2 + 1
        vec![
            lt(1, 0, imm(10)),
            Instr::If { cond: Reg(1), then_: vec![mov(2, 1)], else_: vec![] },
            add(3, 2, imm(1)),
        ],
    );
    assert_eq!(findings(&k), vec![read(2, "may be read", 3, "then_only")]);
}

#[test]
fn never_written_is_read() {
    let k = kernel(
        "never",
        &[Type::I32],
        &BRANCHY,
        // #0 r1 = r0 < 10; #1 if (r1) { #2 r3 = 1 }; #3 r3 = r2 + 1
        vec![
            lt(1, 0, imm(10)),
            Instr::If { cond: Reg(1), then_: vec![mov(3, 1)], else_: vec![] },
            add(3, 2, imm(1)),
        ],
    );
    assert_eq!(findings(&k), vec![read(2, "is read", 3, "never")]);
}

#[test]
fn a_later_write_in_a_loop_body_reaches_an_earlier_read() {
    // #0 r1 = 0; #1 while (#2 r2 = r1 < r0) { #3 r4 = r3 + 1; #4 r3 = r4;
    // #5 r1 = r1 + 1 }; #6 r4 = r3
    let k = kernel(
        "loop_carried",
        &[Type::I32],
        &[Type::I32, Type::Bool, Type::I32, Type::I32],
        vec![
            mov(1, 0),
            Instr::While {
                cond_block: vec![lt(2, 1, Operand::Reg(Reg(0)))],
                cond: Reg(2),
                body: vec![add(4, 3, imm(1)), copy(3, 4), add(1, 1, imm(1))],
            },
            copy(4, 3),
        ],
    );
    assert_eq!(
        findings(&k),
        vec![read(3, "may be read", 3, "loop_carried"), read(3, "may be read", 6, "loop_carried")]
    );
}

#[test]
fn nothing_after_a_trap_is_read() {
    let k = kernel(
        "dead_tail",
        &[],
        &[Type::I32, Type::I32],
        vec![Instr::Trap { message: "stop".into() }, copy(1, 0)],
    );
    assert_eq!(findings(&k), vec![]);

    // #0 if (r0) { #1 trap; #2 r2 = r1 } else { #3 r1 = 1 }; #4 r2 = r1
    // The trapping arm reaches no join, so r1 is written on every path to
    // #4: the else arm is the only one that falls through.
    let k = kernel(
        "dead_arm",
        &[Type::Bool],
        &[Type::I32, Type::I32],
        vec![
            Instr::If {
                cond: Reg(0),
                then_: vec![Instr::Trap { message: "stop".into() }, copy(2, 1)],
                else_: vec![mov(1, 1)],
            },
            copy(2, 1),
        ],
    );
    assert_eq!(findings(&k), vec![]);
}

#[test]
fn unwritten_conditions_are_loc_less_branch_findings() {
    let k = kernel(
        "if_cond",
        &[],
        &[Type::Bool, Type::I32],
        vec![Instr::If { cond: Reg(0), then_: vec![mov(1, 1)], else_: vec![] }],
    );
    assert_eq!(findings(&k), vec![branch(0, "if_cond")]);

    let k = kernel(
        "while_cond",
        &[],
        &[Type::Bool, Type::I32],
        vec![Instr::While { cond_block: vec![], cond: Reg(0), body: vec![mov(1, 1)] }],
    );
    assert_eq!(findings(&k), vec![branch(0, "while_cond")]);
}

#[test]
fn a_condition_branched_on_twice_is_one_finding() {
    // r1's finding sorts between r0's two: both of r0's must still merge.
    let branch_on = |cond| Instr::If { cond: Reg(cond), then_: vec![mov(2, 1)], else_: vec![] };
    let k = kernel(
        "twice_cond",
        &[],
        &[Type::Bool, Type::Bool, Type::I32],
        vec![branch_on(0), branch_on(1), branch_on(0)],
    );
    assert_eq!(findings(&k), vec![branch(0, "twice_cond"), branch(1, "twice_cond")]);
}

#[test]
fn a_register_read_twice_by_one_instruction_is_one_finding() {
    let k = kernel("twice", &[], &[Type::I32, Type::I32], vec![add(0, 1, Operand::Reg(Reg(1)))]);
    assert_eq!(findings(&k), vec![read(1, "is read", 0, "twice")]);
}

#[test]
fn parameters_are_never_flagged() {
    let k = kernel(
        "params",
        &[Type::I32, Type::Bool],
        &[Type::I32],
        vec![
            add(2, 0, Operand::Reg(Reg(0))),
            Instr::If { cond: Reg(1), then_: vec![copy(2, 0)], else_: vec![] },
            Instr::While { cond_block: vec![], cond: Reg(1), body: vec![add(2, 0, imm(1))] },
        ],
    );
    assert_eq!(findings(&k), vec![]);
}
