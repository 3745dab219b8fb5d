//! Property tests over randomly generated structured kernels: MCA001's
//! findings against an oracle that carries the written registers of every
//! path explicitly.

use mcmm_analyze::{analyze_with, AnalysisOptions, Check, Diagnostic, MCA001};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::collections::BTreeSet;

use mcmm_gpu_sim::ir::{BinOp, CmpOp, Instr, KernelIr, Operand, Reg, Type, Value};

/// A control-flow shape; mapped onto concrete IR below. Register 0 is an
/// I32 parameter, register 1 a Bool the prologue writes; registers 2–4
/// (I32) and 5 (Bool) start uninitialized and only `Write` shapes write
/// them.
#[derive(Debug, Clone)]
enum Shape {
    Straight,
    Trap,
    Write(u16),
    Read(u16),
    If(u16, Vec<Shape>, Vec<Shape>),
    While(u16, Vec<Shape>, Vec<Shape>),
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Straight),
        Just(Shape::Trap),
        (2u16..6).prop_map(Shape::Write),
        (2u16..6).prop_map(Shape::Write),
        (2u16..6).prop_map(Shape::Read),
        (2u16..6).prop_map(Shape::Read),
    ]
    .prop_recursive(3, 24, 4, |inner| {
        // Conditions: r1 is always written, r5 only where a shape wrote it.
        let cond = || prop_oneof![Just(1u16), Just(5u16)];
        prop_oneof![
            inner.clone(),
            (cond(), pvec(inner.clone(), 1..4), pvec(inner.clone(), 0..3))
                .prop_map(|(c, t, e)| Shape::If(c, t, e)),
            (cond(), pvec(inner.clone(), 0..3), pvec(inner, 1..3))
                .prop_map(|(c, cb, b)| Shape::While(c, cb, b)),
        ]
    })
}

/// Lower a shape tree to a valid, typed kernel: `Write` of an I32 is a
/// `Mov`, of the Bool a `Cmp`; `Read` of an I32 adds it to itself, of the
/// Bool selects on it.
fn kernel_from(shapes: &[Shape]) -> KernelIr {
    const R0: Operand = Operand::Reg(Reg(0));
    fn lt(dst: u16) -> Instr {
        Instr::Cmp { op: CmpOp::Lt, dst: Reg(dst), a: R0, b: Operand::Imm(Value::I32(4)) }
    }
    fn emit(shapes: &[Shape]) -> Vec<Instr> {
        shapes
            .iter()
            .map(|s| match *s {
                Shape::Straight => Instr::Mov { dst: Reg(0), src: Operand::Imm(Value::I32(1)) },
                Shape::Trap => Instr::Trap { message: "generated".into() },
                Shape::Write(5) => lt(5),
                Shape::Write(r) => Instr::Mov { dst: Reg(r), src: Operand::Imm(Value::I32(1)) },
                Shape::Read(5) => {
                    Instr::Sel { dst: Reg(0), cond: Reg(5), a: R0, b: Operand::Imm(Value::I32(0)) }
                }
                Shape::Read(r) => Instr::Bin {
                    op: BinOp::Add,
                    dst: Reg(0),
                    a: Operand::Reg(Reg(r)),
                    b: Operand::Reg(Reg(r)),
                },
                Shape::If(c, ref t, ref e) => {
                    Instr::If { cond: Reg(c), then_: emit(t), else_: emit(e) }
                }
                Shape::While(c, ref cb, ref b) => {
                    Instr::While { cond_block: emit(cb), cond: Reg(c), body: emit(b) }
                }
            })
            .collect()
    }
    let mut body = vec![lt(1)];
    body.extend(emit(shapes));
    KernelIr {
        name: "generated".into(),
        params: vec![Type::I32],
        regs: vec![Type::I32, Type::Bool, Type::I32, Type::I32, Type::I32, Type::Bool],
        shared_bytes: 0,
        body,
    }
}

/// `(pre-order loc, register, verb)`; loc-less branch-condition findings
/// have the verb "branch".
type Finding = (Option<u32>, u16, &'static str);

/// The written-register bitmask of every path reaching a point; empty
/// where no path reaches.
type Paths = BTreeSet<u64>;

/// The findings MCA001 should report on `kernel_from(shapes)`.
fn oracle(shapes: &[Shape]) -> BTreeSet<Finding> {
    /// Note a read of `r` at `loc` (`None`: a branch condition).
    fn note(paths: &Paths, loc: Option<u32>, r: u16, found: Option<&mut BTreeSet<Finding>>) {
        let lacking = paths.iter().filter(|m| *m & (1 << r) == 0).count();
        let verb = match loc {
            _ if lacking == 0 => return,
            None => "branch",
            Some(_) if lacking == paths.len() => "is read",
            Some(_) => "may be read",
        };
        if let Some(found) = found {
            found.insert((loc, r, verb));
        }
    }
    /// Walk `shapes` from `paths`; `found` is `None` on loop passes before
    /// the fixpoint, whose findings do not count.
    fn run(
        shapes: &[Shape],
        mut paths: Paths,
        loc: &mut u32,
        mut found: Option<&mut BTreeSet<Finding>>,
    ) -> Paths {
        for shape in shapes {
            let here = *loc;
            *loc += 1;
            match shape {
                Shape::Straight => {}
                Shape::Trap => paths.clear(),
                Shape::Write(r) => paths = paths.iter().map(|m| m | (1 << r)).collect(),
                Shape::Read(r) => note(&paths, Some(here), *r, found.as_deref_mut()),
                Shape::If(c, t, e) => {
                    note(&paths, None, *c, found.as_deref_mut());
                    let mut out = run(t, paths.clone(), loc, found.as_deref_mut());
                    out.extend(run(e, paths, loc, found.as_deref_mut()));
                    paths = out;
                }
                Shape::While(c, cond_block, body) => {
                    let start = *loc;
                    let mut header = paths.clone();
                    loop {
                        // header = entry ∪ body-out
                        let exit = run(cond_block, header.clone(), loc, None);
                        let mut next = paths.clone();
                        next.extend(run(body, exit, loc, None));
                        *loc = start;
                        if next == header {
                            break;
                        }
                        header = next;
                    }
                    let exit = run(cond_block, header, loc, found.as_deref_mut());
                    note(&exit, None, *c, found.as_deref_mut());
                    run(body, exit.clone(), loc, found.as_deref_mut());
                    paths = exit;
                }
            }
        }
        paths
    }
    let mut found = BTreeSet::new();
    // r0 is a parameter, and the prologue at #0 writes r1.
    run(shapes, Paths::from([0b11]), &mut 1, Some(&mut found));
    found
}

fn as_finding(d: &Diagnostic) -> Finding {
    assert_eq!(d.code, MCA001);
    let (prefix, verb) = match d.loc {
        None => ("branch condition r", "branch"),
        Some(_) if d.message.contains(" may be read ") => ("register r", "may be read"),
        Some(_) => ("register r", "is read"),
    };
    let reg = d.message.strip_prefix(prefix).and_then(|m| m.split(' ').next()?.parse().ok());
    let reg = reg.unwrap_or_else(|| panic!("unexpected MCA001 message: {}", d.message));
    (d.loc.map(|l| l.0), reg, verb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// MCA001 reports exactly the oracle's findings, and each located one
    /// once.
    #[test]
    fn uninit_reads_match_a_path_set_oracle(shapes in pvec(shape_strategy(), 0..6)) {
        let kernel = kernel_from(&shapes);
        prop_assert_eq!(kernel.validate(), Ok(()));
        let report = analyze_with(&kernel, &AnalysisOptions::default(), &[Check::UninitRead]);
        let found: Vec<Finding> = report.diagnostics.iter().map(as_finding).collect();
        let located = found.iter().filter(|f| f.0.is_some()).count();
        let set: BTreeSet<Finding> = found.into_iter().collect();
        prop_assert_eq!(located, set.iter().filter(|f| f.0.is_some()).count());
        prop_assert_eq!(set, oracle(&shapes), "kernel: {:?}", kernel.body);
    }
}
