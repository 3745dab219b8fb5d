//! Lowering pass: compile [`KernelIr`] into a flat, typed, register-resolved
//! lane-vector bytecode ([`LvProgram`]) executed by [`crate::vexec`].
//!
//! Interpreting the IR directly, as the reference interpreter of the
//! `mcmm-gpu-sim-ref` crate does, re-derives everything per instruction per
//! lane: operands are pattern-matched (`Operand::Reg` vs
//! `Operand::Imm`), register values round-trip through the boxed [`Value`]
//! enum, and instruction/arith issue counts are recomputed on every step.
//! Lowering hoists all of that to compile time:
//!
//! - **registers → typed pool slots**: every register is assigned a slot in
//!   a dense per-type pool (`Vec<f32>`, `Vec<i64>`, …), so the executor
//!   indexes flat arrays instead of matching `LaneVec` variants;
//! - **operands → [`LvSrc`]**: either a pre-resolved pool slot or an
//!   immediate stored as raw bits, decoded once per op — never per lane;
//! - **ops → [`LvOp`]**, tagged with their [`Type`] so the executor
//!   dispatches op×type once and then runs a dense monomorphic lane loop;
//! - **straight-line segments → [`LvNode::Straight`]** spans over the flat
//!   op array with their per-warp instruction/arith issue counts
//!   *pre-summed*, so counter accounting is two multiplications per
//!   segment instead of two atomic RMWs per instruction.
//!
//! Programs are pure functions of the kernel IR, so a device lowers each
//! distinct kernel once, when it first loads it, and keeps the program
//! beside the decoded kernel under [`KernelIr::fingerprint`] — the
//! identity an [`crate::isa::Module`] carries (see
//! [`crate::device::Device::load`]).
//!
//! Lowering assumes a kernel that passed [`KernelIr::validate`] (every
//! kernel the device layer sees has: builders validate by construction,
//! module disassembly validates explicitly). Type consistency guaranteed
//! there is what lets the lowered ops carry a single `Type` tag.

use crate::ir::{
    AtomicOp, BinOp, CmpOp, Instr, KernelIr, Operand, Reg, Space, Special, Type, UnOp, Value,
};

/// Number of slots in each typed register pool of a lowered program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSizes {
    /// `f32` slots.
    pub f32s: u32,
    /// `f64` slots.
    pub f64s: u32,
    /// `i32` slots.
    pub i32s: u32,
    /// `i64` slots.
    pub i64s: u32,
    /// `bool` slots.
    pub bools: u32,
}

/// A pre-resolved operand: a slot in the op's typed pool, or an immediate
/// stored as raw little-endian bits (decoded once per op dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LvSrc {
    /// Pool slot index (pool chosen by the op's type tag).
    Slot(u32),
    /// Immediate, as raw bits of the op's type.
    Imm(u64),
}

/// One flat lane-vector op. `dst`/`Slot` indices address the pool selected
/// by the op's `ty` tag; cross-type ops (`Cmp`, `Sel`, `Cvt`) say which
/// pool each side lives in.
#[derive(Debug, Clone, PartialEq)]
pub enum LvOp {
    /// `dst = src` within the `ty` pool.
    Mov {
        /// Operand type.
        ty: Type,
        /// Destination slot.
        dst: u32,
        /// Source.
        src: LvSrc,
    },
    /// Binary arithmetic within the `ty` pool.
    Bin {
        /// Operator.
        op: BinOp,
        /// Operand/result type.
        ty: Type,
        /// Destination slot.
        dst: u32,
        /// Left operand.
        a: LvSrc,
        /// Right operand.
        b: LvSrc,
    },
    /// Unary arithmetic within the `ty` pool.
    Un {
        /// Operator.
        op: UnOp,
        /// Operand/result type.
        ty: Type,
        /// Destination slot.
        dst: u32,
        /// Operand.
        a: LvSrc,
    },
    /// Comparison: operands in the `ty` pool, result in the bool pool.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Operand type.
        ty: Type,
        /// Destination slot in the *bool* pool.
        dst: u32,
        /// Left operand.
        a: LvSrc,
        /// Right operand.
        b: LvSrc,
    },
    /// Select: condition in the bool pool, operands/result in `ty`.
    Sel {
        /// Operand/result type.
        ty: Type,
        /// Destination slot.
        dst: u32,
        /// Condition slot in the *bool* pool.
        cond: u32,
        /// Taken when the condition lane is true.
        a: LvSrc,
        /// Taken when the condition lane is false.
        b: LvSrc,
    },
    /// Conversion from the `from` pool into the `to` pool.
    Cvt {
        /// Source type.
        from: Type,
        /// Destination type.
        to: Type,
        /// Destination slot in the `to` pool.
        dst: u32,
        /// Operand in the `from` pool.
        a: LvSrc,
    },
    /// Special register read into the i32 pool.
    Special {
        /// Which special value.
        kind: Special,
        /// Destination slot in the *i32* pool.
        dst: u32,
    },
    /// Load from memory into the `ty` pool. Address in the *i64* pool.
    Ld {
        /// Element type.
        ty: Type,
        /// Address space.
        space: Space,
        /// Destination slot.
        dst: u32,
        /// Byte address (i64 pool or immediate).
        addr: LvSrc,
    },
    /// Store from the `ty` pool to memory. Address in the *i64* pool.
    St {
        /// Element type.
        ty: Type,
        /// Address space.
        space: Space,
        /// Byte address (i64 pool or immediate).
        addr: LvSrc,
        /// Value to store.
        value: LvSrc,
    },
    /// Atomic read-modify-write.
    Atomic {
        /// The RMW operator.
        op: AtomicOp,
        /// Element type.
        ty: Type,
        /// Address space.
        space: Space,
        /// Byte address (i64 pool or immediate).
        addr: LvSrc,
        /// Operand value.
        value: LvSrc,
        /// Where the old value goes, if captured.
        dst: Option<u32>,
    },
    /// Block-wide barrier.
    Bar,
    /// Device-side abort.
    Trap {
        /// Message, prefixed with the kernel name at raise time.
        message: String,
    },
}

/// Structured control-flow skeleton over the flat op array. Divergence
/// handling stays a tree (masks nest exactly like the IR nests), but all
/// straight-line work between control-flow points is a pre-measured span.
#[derive(Debug, Clone, PartialEq)]
pub enum LvNode {
    /// `ops[start..end]` run under one unchanged mask. `instrs`/`ariths`
    /// are the segment's pre-summed per-warp issue counts.
    Straight {
        /// First op index.
        start: u32,
        /// One past the last op index.
        end: u32,
        /// Warp-instruction issues per active warp for the whole segment.
        instrs: u32,
        /// Of which arithmetic issues.
        ariths: u32,
    },
    /// Mask split on a bool condition slot.
    If {
        /// Condition slot in the bool pool.
        cond: u32,
        /// Nodes run under the true sub-mask.
        then_: Vec<LvNode>,
        /// Nodes run under the false sub-mask.
        else_: Vec<LvNode>,
    },
    /// Guarded loop: run `cond_block`, narrow the mask by `cond`, run
    /// `body` while any lane survives.
    While {
        /// Nodes computing the condition each iteration.
        cond_block: Vec<LvNode>,
        /// Condition slot in the bool pool.
        cond: u32,
        /// Loop body nodes.
        body: Vec<LvNode>,
    },
}

/// A lowered, executable lane-vector program. Immutable once built;
/// shared across launches through the device's kernel cache.
#[derive(Debug, Clone, PartialEq)]
pub struct LvProgram {
    /// Kernel name (for trap messages and diagnostics).
    pub name: String,
    /// Shared memory bytes per block.
    pub shared_bytes: u64,
    /// Parameter types, in argument order.
    pub params: Vec<Type>,
    /// register index → (type, slot in that type's pool).
    pub reg_slots: Vec<(Type, u32)>,
    /// Slot counts per typed pool.
    pub pools: PoolSizes,
    /// The flat op array all [`LvNode::Straight`] spans index into.
    pub ops: Vec<LvOp>,
    /// The control-flow skeleton.
    pub body: Vec<LvNode>,
}

/// Lower a validated kernel to lane-vector bytecode.
pub fn lower(kernel: &KernelIr) -> LvProgram {
    let mut pools = PoolSizes::default();
    let reg_slots: Vec<(Type, u32)> = kernel
        .regs
        .iter()
        .map(|&ty| {
            let counter = match ty {
                Type::F32 => &mut pools.f32s,
                Type::F64 => &mut pools.f64s,
                Type::I32 => &mut pools.i32s,
                Type::I64 => &mut pools.i64s,
                Type::Bool => &mut pools.bools,
            };
            let slot = *counter;
            *counter += 1;
            (ty, slot)
        })
        .collect();
    let mut lw = Lowerer { reg_slots: &reg_slots, ops: Vec::new() };
    let body = lw.block(&kernel.body);
    let ops = lw.ops;
    LvProgram {
        name: kernel.name.clone(),
        shared_bytes: kernel.shared_bytes,
        params: kernel.params.clone(),
        reg_slots,
        pools,
        ops,
        body,
    }
}

struct Lowerer<'a> {
    reg_slots: &'a [(Type, u32)],
    ops: Vec<LvOp>,
}

impl Lowerer<'_> {
    fn slot(&self, r: Reg) -> u32 {
        self.reg_slots[r.0 as usize].1
    }

    fn reg_ty(&self, r: Reg) -> Type {
        self.reg_slots[r.0 as usize].0
    }

    fn src(&self, o: &Operand) -> LvSrc {
        match o {
            Operand::Reg(r) => LvSrc::Slot(self.slot(*r)),
            Operand::Imm(v) => LvSrc::Imm(imm_bits(*v)),
        }
    }

    fn operand_ty(&self, o: &Operand) -> Type {
        match o {
            Operand::Reg(r) => self.reg_ty(*r),
            Operand::Imm(v) => v.ty(),
        }
    }

    fn block(&mut self, body: &[Instr]) -> Vec<LvNode> {
        let mut nodes = Vec::new();
        let mut seg = Segment::open(self.ops.len());
        for instr in body {
            match instr {
                Instr::If { cond, then_, else_ } => {
                    seg.close(&mut nodes, self.ops.len());
                    let then_ = self.block(then_);
                    let else_ = self.block(else_);
                    nodes.push(LvNode::If { cond: self.slot(*cond), then_, else_ });
                    seg = Segment::open(self.ops.len());
                }
                Instr::While { cond_block, cond, body } => {
                    seg.close(&mut nodes, self.ops.len());
                    let cond_block = self.block(cond_block);
                    let body = self.block(body);
                    nodes.push(LvNode::While { cond_block, cond: self.slot(*cond), body });
                    seg = Segment::open(self.ops.len());
                }
                straight => {
                    let (op, arith) = self.lower_straight(straight);
                    self.ops.push(op);
                    seg.instrs += 1;
                    seg.ariths += u32::from(arith);
                }
            }
        }
        seg.close(&mut nodes, self.ops.len());
        nodes
    }

    /// Lower one non-control-flow instruction; the bool says whether it
    /// counts as an arithmetic issue.
    fn lower_straight(&self, instr: &Instr) -> (LvOp, bool) {
        match instr {
            Instr::Mov { dst, src } => (
                LvOp::Mov { ty: self.reg_ty(*dst), dst: self.slot(*dst), src: self.src(src) },
                false,
            ),
            Instr::Bin { op, dst, a, b } => (
                LvOp::Bin {
                    op: *op,
                    ty: self.reg_ty(*dst),
                    dst: self.slot(*dst),
                    a: self.src(a),
                    b: self.src(b),
                },
                true,
            ),
            Instr::Un { op, dst, a } => (
                LvOp::Un { op: *op, ty: self.reg_ty(*dst), dst: self.slot(*dst), a: self.src(a) },
                true,
            ),
            Instr::Cmp { op, dst, a, b } => (
                LvOp::Cmp {
                    op: *op,
                    ty: self.operand_ty(a),
                    dst: self.slot(*dst),
                    a: self.src(a),
                    b: self.src(b),
                },
                true,
            ),
            Instr::Sel { dst, cond, a, b } => (
                LvOp::Sel {
                    ty: self.reg_ty(*dst),
                    dst: self.slot(*dst),
                    cond: self.slot(*cond),
                    a: self.src(a),
                    b: self.src(b),
                },
                true,
            ),
            Instr::Cvt { dst, a } => (
                LvOp::Cvt {
                    from: self.operand_ty(a),
                    to: self.reg_ty(*dst),
                    dst: self.slot(*dst),
                    a: self.src(a),
                },
                true,
            ),
            Instr::Special { dst, kind } => {
                (LvOp::Special { kind: *kind, dst: self.slot(*dst) }, false)
            }
            Instr::Ld { dst, space, addr } => (
                LvOp::Ld {
                    ty: self.reg_ty(*dst),
                    space: *space,
                    dst: self.slot(*dst),
                    addr: self.src(addr),
                },
                false,
            ),
            Instr::St { space, addr, value } => (
                LvOp::St {
                    ty: self.operand_ty(value),
                    space: *space,
                    addr: self.src(addr),
                    value: self.src(value),
                },
                false,
            ),
            Instr::Atomic { op, space, addr, value, dst } => (
                LvOp::Atomic {
                    op: *op,
                    ty: self.operand_ty(value),
                    space: *space,
                    addr: self.src(addr),
                    value: self.src(value),
                    dst: dst.as_ref().map(|d| self.slot(*d)),
                },
                false,
            ),
            Instr::Bar => (LvOp::Bar, false),
            Instr::Trap { message } => (LvOp::Trap { message: message.clone() }, false),
            Instr::If { .. } | Instr::While { .. } => {
                unreachable!("control flow handled by block()")
            }
        }
    }
}

/// An open straight-line segment being accumulated by `block()`.
struct Segment {
    start: usize,
    instrs: u32,
    ariths: u32,
}

impl Segment {
    fn open(start: usize) -> Self {
        Self { start, instrs: 0, ariths: 0 }
    }

    fn close(self, nodes: &mut Vec<LvNode>, end: usize) {
        if self.instrs > 0 {
            nodes.push(LvNode::Straight {
                start: self.start as u32,
                end: end as u32,
                instrs: self.instrs,
                ariths: self.ariths,
            });
        }
    }
}

/// Encode an immediate as the raw bits its typed lane loop will decode.
fn imm_bits(v: Value) -> u64 {
    match v {
        Value::F32(x) => u64::from(x.to_bits()),
        Value::F64(x) => x.to_bits(),
        Value::I32(x) => u64::from(x as u32),
        Value::I64(x) => x as u64,
        Value::Bool(x) => u64::from(x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::KernelBuilder;

    fn saxpy() -> KernelIr {
        let mut k = KernelBuilder::new("saxpy");
        let a = k.param(Type::F32);
        let x = k.param(Type::I64);
        let y = k.param(Type::I64);
        let i = k.thread_id_x();
        let xi = k.ld_elem(Space::Global, Type::F32, x, i);
        let yi = k.ld_elem(Space::Global, Type::F32, y, i);
        let ax = k.bin(BinOp::Mul, a, xi);
        let s = k.bin(BinOp::Add, ax, yi);
        k.st_elem(Space::Global, y, i, s);
        k.finish()
    }

    #[test]
    fn straight_line_kernel_lowers_to_one_segment() {
        let p = lower(&saxpy());
        assert_eq!(p.body.len(), 1, "no control flow ⇒ one segment: {:?}", p.body);
        match p.body[0] {
            LvNode::Straight { start, end, instrs, ariths } => {
                assert_eq!(start, 0);
                assert_eq!(end as usize, p.ops.len());
                assert_eq!(instrs as usize, p.ops.len());
                // Two muls/adds are arithmetic; address computation adds more.
                assert!(ariths >= 2);
                assert!(ariths < instrs);
            }
            ref other => panic!("expected straight segment, got {other:?}"),
        }
    }

    #[test]
    fn typed_pools_partition_the_registers() {
        let k = saxpy();
        let p = lower(&k);
        let total = p.pools.f32s + p.pools.f64s + p.pools.i32s + p.pools.i64s + p.pools.bools;
        assert_eq!(total as usize, k.regs.len());
        // Slots are dense and unique per type.
        for ty in [Type::F32, Type::F64, Type::I32, Type::I64, Type::Bool] {
            let mut slots: Vec<u32> =
                p.reg_slots.iter().filter(|(t, _)| *t == ty).map(|&(_, s)| s).collect();
            slots.sort_unstable();
            assert_eq!(slots, (0..slots.len() as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn control_flow_splits_segments() {
        let mut k = KernelBuilder::new("cf");
        let out = k.param(Type::I64);
        let i = k.thread_id_x();
        let low = k.cmp(CmpOp::Lt, i, Value::I32(4));
        k.if_else(
            low,
            |k| k.st_elem(Space::Global, out, i, Value::I32(1)),
            |k| k.st_elem(Space::Global, out, i, Value::I32(2)),
        );
        k.st_elem(Space::Global, out, i, Value::I32(3));
        let p = lower(&k.finish());
        // prologue segment, If node, epilogue segment.
        assert_eq!(p.body.len(), 3);
        assert!(matches!(p.body[0], LvNode::Straight { .. }));
        match &p.body[1] {
            LvNode::If { then_, else_, .. } => {
                assert!(!then_.is_empty());
                assert!(!else_.is_empty());
            }
            other => panic!("expected If, got {other:?}"),
        }
        assert!(matches!(p.body[2], LvNode::Straight { .. }));
    }

    #[test]
    fn immediates_are_pre_encoded() {
        let mut k = KernelBuilder::new("imm");
        let r = k.imm(Value::F32(1.5));
        let _ = k.bin(BinOp::Add, r, Value::F32(2.5));
        let p = lower(&k.finish());
        let found = p.ops.iter().any(|op| {
            matches!(op, LvOp::Bin { op: BinOp::Add, ty: Type::F32, b: LvSrc::Imm(bits), .. }
                if *bits == u64::from(2.5f32.to_bits()))
        });
        assert!(found, "immediate not encoded as raw bits: {:?}", p.ops);
    }
}
