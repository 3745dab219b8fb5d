//! Property tests over randomly generated structured kernels: CFG
//! invariants and dataflow fixpoint consistency.

use mcmm_analyze::cfg::{Cfg, Terminator};
use mcmm_analyze::dataflow::{BitSet, ReachingDefs};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

use mcmm_gpu_sim::ir::{CmpOp, Instr, KernelIr, Operand, Reg, Type, Value};

/// A control-flow shape; mapped onto concrete IR below.
#[derive(Debug, Clone)]
enum Shape {
    Straight,
    Trap,
    If(Vec<Shape>, Vec<Shape>),
    While(Vec<Shape>, Vec<Shape>),
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Straight),
        Just(Shape::Straight),
        Just(Shape::Straight),
        Just(Shape::Trap),
    ]
    .prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            Just(Shape::Straight),
            (pvec(inner.clone(), 1..4), pvec(inner.clone(), 1..3))
                .prop_map(|(t, e)| Shape::If(t, e)),
            (pvec(inner.clone(), 1..3), pvec(inner, 1..3)).prop_map(|(c, b)| Shape::While(c, b)),
        ]
    })
}

/// Lower a shape tree to a (valid, typed) kernel: register 0 is an I32
/// scratch, register 1 a Bool condition.
fn kernel_from(shapes: &[Shape]) -> KernelIr {
    fn emit(shapes: &[Shape]) -> Vec<Instr> {
        shapes
            .iter()
            .map(|s| match s {
                Shape::Straight => Instr::Mov { dst: Reg(0), src: Operand::Imm(Value::I32(1)) },
                Shape::Trap => Instr::Trap { message: "generated".into() },
                Shape::If(t, e) => Instr::If { cond: Reg(1), then_: emit(t), else_: emit(e) },
                Shape::While(c, b) => {
                    let mut cond_block = emit(c);
                    cond_block.push(Instr::Cmp {
                        op: CmpOp::Lt,
                        dst: Reg(1),
                        a: Operand::Reg(Reg(0)),
                        b: Operand::Imm(Value::I32(4)),
                    });
                    Instr::While { cond_block, cond: Reg(1), body: emit(b) }
                }
            })
            .collect()
    }
    let mut body = vec![
        Instr::Mov { dst: Reg(0), src: Operand::Imm(Value::I32(0)) },
        Instr::Cmp {
            op: CmpOp::Lt,
            dst: Reg(1),
            a: Operand::Reg(Reg(0)),
            b: Operand::Imm(Value::I32(4)),
        },
    ];
    body.extend(emit(shapes));
    KernelIr {
        name: "generated".into(),
        params: vec![],
        regs: vec![Type::I32, Type::Bool],
        shared_bytes: 0,
        body,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reaching definitions is a genuine fixpoint: re-applying the
    /// transfer function to the solution changes nothing, and every edge
    /// satisfies out[pred] ⊆ in[succ].
    #[test]
    fn reaching_defs_is_a_fixpoint(shapes in pvec(shape_strategy(), 0..6)) {
        let kernel = kernel_from(&shapes);
        let cfg = Cfg::build(&kernel);
        let rd = ReachingDefs::compute(&kernel, &cfg);
        for (b, block) in cfg.blocks.iter().enumerate() {
            for s in block.term.succs() {
                // union semantics: everything flowing out of b must be
                // in s's in-set already.
                let mut merged = rd.block_in[s].clone();
                let grew = merged.union_with(&rd.block_out[b]);
                prop_assert!(!grew, "edge {}->{} not saturated", b, s);
            }
        }
        // Synthetic defs for every register exist and reach the entry.
        prop_assert_eq!(rd.n_synthetic, kernel.regs.len());
        for d in 0..rd.n_synthetic {
            prop_assert!(rd.block_in[cfg.entry].contains(d));
        }
    }

    /// Structural invariants of the lowering itself: preds/succs agree,
    /// and only the exit (plus trap blocks) may Return.
    #[test]
    fn cfg_edges_are_symmetric(shapes in pvec(shape_strategy(), 0..6)) {
        let kernel = kernel_from(&shapes);
        let cfg = Cfg::build(&kernel);
        for (b, block) in cfg.blocks.iter().enumerate() {
            for s in block.term.succs() {
                prop_assert!(
                    cfg.blocks[s].preds.contains(&b),
                    "edge {}->{} missing from preds", b, s
                );
            }
            if matches!(block.term, Terminator::Return) {
                prop_assert!(b == cfg.exit, "non-exit block {} Returns", b);
            }
        }
    }

    /// BitSet union is idempotent and monotone (used by every fixpoint).
    #[test]
    fn bitset_union_is_idempotent(xs in pvec(0usize..200, 0..40), ys in pvec(0usize..200, 0..40)) {
        let mut a = BitSet::new(200);
        let mut b = BitSet::new(200);
        for x in &xs { a.insert(*x); }
        for y in &ys { b.insert(*y); }
        let mut u = a.clone();
        u.union_with(&b);
        for x in &xs { prop_assert!(u.contains(*x)); }
        for y in &ys { prop_assert!(u.contains(*y)); }
        let mut again = u.clone();
        let grew = again.union_with(&b);
        prop_assert!(!grew, "second union must be a no-op");
    }
}
