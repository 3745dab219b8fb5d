//! The kernel intermediate representation.
//!
//! Every programming-model frontend in this workspace lowers to this IR; it
//! plays the role LLVM IR plays in the real ecosystem the paper describes
//! (§6: "A key component in the ecosystem is the LLVM toolchain").
//!
//! The IR is a register machine with **structured control flow** (`If`,
//! `While`) rather than raw branches — this keeps the SIMT interpreter's
//! divergence handling simple and makes the IR trivially reducible.
//! Registers are typed at declaration; [`KernelBuilder`] type-checks at
//! construction time (panicking on programmer error, like slice indexing),
//! while [`KernelIr::validate`] re-checks decoded, untrusted modules and
//! returns errors instead.

use std::fmt;

/// Scalar types of the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// 32-bit IEEE-754 float.
    F32,
    /// 64-bit IEEE-754 float.
    F64,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer (also the pointer type).
    I64,
    /// Predicate (comparison results, control-flow conditions).
    Bool,
}

impl Type {
    /// Size in bytes when stored to memory. `Bool` is not addressable.
    pub fn size(self) -> u64 {
        match self {
            Type::F32 | Type::I32 => 4,
            Type::F64 | Type::I64 => 8,
            Type::Bool => 1,
        }
    }

    /// Is this type addressable (loadable/storable)?
    pub fn addressable(self) -> bool {
        !matches!(self, Type::Bool)
    }

    /// Is this a floating-point type?
    pub fn is_float(self) -> bool {
        matches!(self, Type::F32 | Type::F64)
    }

    /// Is this an integer type?
    pub fn is_int(self) -> bool {
        matches!(self, Type::I32 | Type::I64)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Type::F32 => "f32",
            Type::F64 => "f64",
            Type::I32 => "i32",
            Type::I64 => "i64",
            Type::Bool => "bool",
        };
        f.write_str(s)
    }
}

/// A runtime scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A 32-bit float.
    F32(f32),
    /// A 64-bit float.
    F64(f64),
    /// A 32-bit integer.
    I32(i32),
    /// A 64-bit integer / byte address.
    I64(i64),
    /// A predicate.
    Bool(bool),
}

impl Value {
    /// The type of this value.
    pub fn ty(self) -> Type {
        match self {
            Value::F32(_) => Type::F32,
            Value::F64(_) => Type::F64,
            Value::I32(_) => Type::I32,
            Value::I64(_) => Type::I64,
            Value::Bool(_) => Type::Bool,
        }
    }
}

/// A virtual register handle. Obtained from [`KernelBuilder`]; the type is
/// recorded in the kernel's register table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u16);

/// An instruction operand: a register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Read a register.
    Reg(Reg),
    /// An immediate constant.
    Imm(Value),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<Value> for Operand {
    fn from(v: Value) -> Self {
        Operand::Imm(v)
    }
}

/// Binary arithmetic/logical operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition (wrapping for integers).
    Add,
    /// Subtraction (wrapping for integers).
    Sub,
    /// Multiplication (wrapping for integers).
    Mul,
    /// Division; integer division by zero traps.
    Div,
    /// Remainder; integer remainder by zero traps.
    Rem,
    /// Minimum (IEEE `min` for floats).
    Min,
    /// Maximum (IEEE `max` for floats).
    Max,
    /// Bitwise/logical AND (integers and bools).
    And,
    /// Bitwise/logical OR (integers and bools).
    Or,
    /// Bitwise/logical XOR (integers and bools).
    Xor,
    /// Left shift (shift amount masked, integers only).
    Shl,
    /// Arithmetic right shift (shift amount masked, integers only).
    Shr,
}

impl BinOp {
    /// Is the op defined for floating-point operands?
    pub fn supports_float(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Sub
                | BinOp::Mul
                | BinOp::Div
                | BinOp::Rem
                | BinOp::Min
                | BinOp::Max
        )
    }
}

/// Unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Square root (floats only).
    Sqrt,
    /// Natural exponential (floats only).
    Exp,
    /// Natural logarithm (floats only).
    Log,
    /// Round toward negative infinity (floats only).
    Floor,
    /// Logical not (Bool only).
    Not,
}

/// Comparison operations (result type is always `Bool`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal (false for NaN operands).
    Eq,
    /// Not equal (true for NaN operands).
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// Atomic read-modify-write operations on memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicOp {
    /// Atomic addition.
    Add,
    /// Atomic minimum.
    Min,
    /// Atomic maximum.
    Max,
    /// Atomic exchange; the old value is returned.
    Exch,
}

/// Memory spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Device global memory, shared by all blocks, persists across
    /// launches.
    Global,
    /// Per-block scratchpad (CUDA `__shared__`, SYCL local, OpenMP teams
    /// private).
    Shared,
}

/// Special (read-only) hardware registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Special {
    /// Thread index within the block, x dimension (`threadIdx.x`).
    TidX,
    /// Block index within the grid (`blockIdx.x`).
    CtaIdX,
    /// Block dimension (`blockDim.x`).
    NTidX,
    /// Grid dimension (`gridDim.x`).
    NCtaIdX,
    /// Lane index within the warp/wavefront/sub-group.
    LaneId,
}

/// One IR instruction. Control flow is structured: `If` and `While` carry
/// nested instruction sequences.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are fully specified per variant
pub enum Instr {
    /// `dst = src`
    Mov { dst: Reg, src: Operand },
    /// `dst = a <op> b`
    Bin { op: BinOp, dst: Reg, a: Operand, b: Operand },
    /// `dst = <op> a`
    Un { op: UnOp, dst: Reg, a: Operand },
    /// `dst = a <cmp> b` (dst is Bool)
    Cmp { op: CmpOp, dst: Reg, a: Operand, b: Operand },
    /// `dst = cond ? a : b`
    Sel { dst: Reg, cond: Reg, a: Operand, b: Operand },
    /// `dst = convert<ty>(a)` — dst must have type `ty`.
    Cvt { dst: Reg, a: Operand },
    /// `dst = special-register`
    Special { dst: Reg, kind: Special },
    /// `dst = *(space + addr)` — `addr` is an I64 byte address.
    Ld { dst: Reg, space: Space, addr: Operand },
    /// `*(space + addr) = value`
    St { space: Space, addr: Operand, value: Operand },
    /// Atomic RMW; if `dst` is set it receives the old value.
    Atomic { op: AtomicOp, space: Space, addr: Operand, value: Operand, dst: Option<Reg> },
    /// Block-wide barrier (`__syncthreads()`).
    Bar,
    /// Structured conditional.
    If { cond: Reg, then_: Vec<Instr>, else_: Vec<Instr> },
    /// Structured loop: re-evaluate `cond_block`, test `cond`, run `body`
    /// while any active lane's `cond` holds.
    While { cond_block: Vec<Instr>, cond: Reg, body: Vec<Instr> },
    /// Formatted trap — aborts the launch with a message (used for
    /// device-side assertions).
    Trap { message: String },
}

/// One event in a bracketed pre-order walk over a structured instruction
/// tree (see [`walk`]). Control instructions are bracketed: an `If`
/// produces `Enter`, its `then_` events, `ElseArm`, its `else_` events,
/// then `Exit`; a `While` produces `Enter`, its `cond_block` events,
/// `LoopBody`, its `body` events, then `Exit`. Straight-line instructions
/// produce a single `Enter`. The stream is unambiguous without block
/// lengths, so one traversal serves every recursive consumer
/// (fingerprinting, the analyzer's CFG lowering).
#[derive(Debug, Clone, Copy)]
pub enum Step<'a> {
    /// Pre-order arrival at an instruction. For `If`/`While` the nested
    /// blocks follow as further events before the matching bracket.
    Enter(&'a Instr),
    /// Between the `then_` and `else_` blocks of the innermost open `If`
    /// (carries that `If` instruction).
    ElseArm(&'a Instr),
    /// Between the `cond_block` and `body` of the innermost open `While`
    /// (carries that `While` instruction).
    LoopBody(&'a Instr),
    /// Closing bracket of the innermost open `If`/`While` (carries it).
    Exit(&'a Instr),
}

/// Drive `f` over `body` and all nested blocks as one [`Step`] event
/// stream, in structured pre-order.
pub fn walk<'a>(body: &'a [Instr], f: &mut impl FnMut(Step<'a>)) {
    for instr in body {
        match instr {
            Instr::If { then_, else_, .. } => {
                f(Step::Enter(instr));
                walk(then_, f);
                f(Step::ElseArm(instr));
                walk(else_, f);
                f(Step::Exit(instr));
            }
            Instr::While { cond_block, body, .. } => {
                f(Step::Enter(instr));
                walk(cond_block, f);
                f(Step::LoopBody(instr));
                walk(body, f);
                f(Step::Exit(instr));
            }
            _ => f(Step::Enter(instr)),
        }
    }
}

/// A complete kernel: signature, register table, shared-memory size, body.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelIr {
    /// Kernel name (diagnostics only).
    pub name: String,
    /// Types of the kernel parameters; parameters occupy registers
    /// `0..params.len()` on entry.
    pub params: Vec<Type>,
    /// Types of all registers (including parameter registers).
    pub regs: Vec<Type>,
    /// Static shared-memory requirement in bytes.
    pub shared_bytes: u64,
    /// The body.
    pub body: Vec<Instr>,
}

impl KernelIr {
    /// Type of a register; `None` if out of range.
    pub fn reg_type(&self, r: Reg) -> Option<Type> {
        self.regs.get(r.0 as usize).copied()
    }

    /// A structural content fingerprint: equal kernels hash equal, and any
    /// change to the signature, register table, shared-memory size, or any
    /// instruction (including nested blocks and float immediates, compared
    /// by bit pattern) changes the hash with overwhelming probability.
    /// This is the key the content-addressed compile cache indexes on, so
    /// it is built to be cheap: one FNV-1a-style pass over the structure,
    /// no intermediate formatting.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.bytes(self.name.as_bytes());
        fp.word(self.params.len() as u64);
        for p in &self.params {
            fp.word(*p as u64);
        }
        fp.word(self.regs.len() as u64);
        for r in &self.regs {
            fp.word(*r as u64);
        }
        fp.word(self.shared_bytes);
        fp.word(self.body.len() as u64);
        walk(&self.body, &mut |step| fp.step(step));
        fp.finish()
    }

    /// Validate an (untrusted, e.g. freshly disassembled) kernel: register
    /// indices in range, operand types consistent, addresses I64,
    /// conditions Bool, loads/stores of addressable types only.
    pub fn validate(&self) -> Result<(), String> {
        if self.params.len() > self.regs.len() {
            return Err(format!(
                "{} params but only {} registers",
                self.params.len(),
                self.regs.len()
            ));
        }
        for (i, (p, r)) in self.params.iter().zip(&self.regs).enumerate() {
            if p != r {
                return Err(format!("param {i} type {p} does not match register type {r}"));
            }
        }
        self.validate_block(&self.body)
    }

    fn operand_type(&self, o: &Operand) -> Result<Type, String> {
        match o {
            Operand::Reg(r) => {
                self.reg_type(*r).ok_or_else(|| format!("register {r:?} out of range"))
            }
            Operand::Imm(v) => Ok(v.ty()),
        }
    }

    fn validate_block(&self, body: &[Instr]) -> Result<(), String> {
        for instr in body {
            self.validate_instr(instr)?;
        }
        Ok(())
    }

    fn dst_type(&self, dst: Reg) -> Result<Type, String> {
        self.reg_type(dst).ok_or_else(|| format!("destination {dst:?} out of range"))
    }

    fn validate_instr(&self, instr: &Instr) -> Result<(), String> {
        match instr {
            Instr::Mov { dst, src } => {
                let (d, s) = (self.dst_type(*dst)?, self.operand_type(src)?);
                if d != s {
                    return Err(format!("mov type mismatch: {d} <- {s}"));
                }
            }
            Instr::Bin { op, dst, a, b } => {
                let (d, ta, tb) =
                    (self.dst_type(*dst)?, self.operand_type(a)?, self.operand_type(b)?);
                if ta != tb || ta != d {
                    return Err(format!("bin {op:?} type mismatch: {d} <- {ta}, {tb}"));
                }
                if d == Type::Bool && !matches!(op, BinOp::And | BinOp::Or | BinOp::Xor) {
                    return Err(format!("bin {op:?} not defined on bool"));
                }
                if d.is_float() && !op.supports_float() {
                    return Err(format!("bin {op:?} not defined on {d}"));
                }
            }
            Instr::Un { op, dst, a } => {
                let (d, ta) = (self.dst_type(*dst)?, self.operand_type(a)?);
                if d != ta {
                    return Err(format!("un {op:?} type mismatch: {d} <- {ta}"));
                }
                match op {
                    UnOp::Not if d != Type::Bool => {
                        return Err("not requires bool".into());
                    }
                    UnOp::Sqrt | UnOp::Exp | UnOp::Log | UnOp::Floor if !d.is_float() => {
                        return Err(format!("un {op:?} requires float, got {d}"));
                    }
                    UnOp::Neg | UnOp::Abs if d == Type::Bool => {
                        return Err(format!("un {op:?} not defined on bool"));
                    }
                    _ => {}
                }
            }
            Instr::Cmp { dst, a, b, .. } => {
                let (d, ta, tb) =
                    (self.dst_type(*dst)?, self.operand_type(a)?, self.operand_type(b)?);
                if d != Type::Bool {
                    return Err(format!("cmp destination must be bool, got {d}"));
                }
                if ta != tb {
                    return Err(format!("cmp operand mismatch: {ta} vs {tb}"));
                }
            }
            Instr::Sel { dst, cond, a, b } => {
                let d = self.dst_type(*dst)?;
                if self.reg_type(*cond) != Some(Type::Bool) {
                    return Err("sel condition must be bool".into());
                }
                let (ta, tb) = (self.operand_type(a)?, self.operand_type(b)?);
                if ta != tb || ta != d {
                    return Err(format!("sel type mismatch: {d} <- {ta}, {tb}"));
                }
            }
            Instr::Cvt { dst, a } => {
                let (d, s) = (self.dst_type(*dst)?, self.operand_type(a)?);
                if d == Type::Bool || s == Type::Bool {
                    return Err("cvt does not apply to bool".into());
                }
            }
            Instr::Special { dst, .. } => {
                if self.dst_type(*dst)? != Type::I32 {
                    return Err("special registers are i32".into());
                }
            }
            Instr::Ld { dst, addr, .. } => {
                let d = self.dst_type(*dst)?;
                if !d.addressable() {
                    return Err(format!("cannot load {d}"));
                }
                if self.operand_type(addr)? != Type::I64 {
                    return Err("load address must be i64".into());
                }
            }
            Instr::St { addr, value, .. } => {
                let v = self.operand_type(value)?;
                if !v.addressable() {
                    return Err(format!("cannot store {v}"));
                }
                if self.operand_type(addr)? != Type::I64 {
                    return Err("store address must be i64".into());
                }
            }
            Instr::Atomic { addr, value, dst, .. } => {
                let v = self.operand_type(value)?;
                if !v.addressable() {
                    return Err(format!("cannot atomically update {v}"));
                }
                if self.operand_type(addr)? != Type::I64 {
                    return Err("atomic address must be i64".into());
                }
                if let Some(d) = dst {
                    if self.dst_type(*d)? != v {
                        return Err("atomic old-value register type mismatch".into());
                    }
                }
            }
            Instr::Bar | Instr::Trap { .. } => {}
            Instr::If { cond, then_, else_ } => {
                if self.reg_type(*cond) != Some(Type::Bool) {
                    return Err("if condition must be bool".into());
                }
                self.validate_block(then_)?;
                self.validate_block(else_)?;
            }
            Instr::While { cond_block, cond, body } => {
                if self.reg_type(*cond) != Some(Type::Bool) {
                    return Err("while condition must be bool".into());
                }
                self.validate_block(cond_block)?;
                self.validate_block(body)?;
            }
        }
        Ok(())
    }
}

/// FNV-1a-style accumulator behind [`KernelIr::fingerprint`], with an
/// extra diffusion shift per word so structurally-close kernels (one
/// immediate changed, two instructions swapped) land far apart.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        self.0 ^= self.0 >> 29;
    }

    fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(buf));
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::F32(x) => {
                self.word(1);
                self.word(x.to_bits() as u64);
            }
            Value::F64(x) => {
                self.word(2);
                self.word(x.to_bits());
            }
            Value::I32(x) => {
                self.word(3);
                self.word(*x as u32 as u64);
            }
            Value::I64(x) => {
                self.word(4);
                self.word(*x as u64);
            }
            Value::Bool(x) => {
                self.word(5);
                self.word(*x as u64);
            }
        }
    }

    fn operand(&mut self, o: &Operand) {
        match o {
            Operand::Reg(r) => {
                self.word(1);
                self.word(r.0 as u64);
            }
            Operand::Imm(v) => {
                self.word(2);
                self.value(v);
            }
        }
    }

    /// Consume one [`Step`] of the shared structured walk. Block lengths
    /// are hashed at the opening bracket of each nested block (they are
    /// available on the borrowed control instruction), which reproduces
    /// the exact word sequence of the original recursive encoder — so
    /// fingerprints are stable across the walker refactor.
    fn step(&mut self, step: Step<'_>) {
        match step {
            Step::Enter(Instr::If { cond, then_, .. }) => {
                self.word(12);
                self.word(cond.0 as u64);
                self.word(then_.len() as u64);
            }
            Step::ElseArm(Instr::If { else_, .. }) => self.word(else_.len() as u64),
            Step::Enter(Instr::While { cond_block, .. }) => {
                self.word(13);
                self.word(cond_block.len() as u64);
            }
            Step::LoopBody(Instr::While { cond, body, .. }) => {
                self.word(cond.0 as u64);
                self.word(body.len() as u64);
            }
            Step::Exit(_) | Step::ElseArm(_) | Step::LoopBody(_) => {}
            Step::Enter(i) => self.instr(i),
        }
    }

    /// Hash one straight-line instruction (`If`/`While` go through
    /// [`Fingerprint::step`], which also hashes their nested blocks).
    fn instr(&mut self, i: &Instr) {
        match i {
            Instr::Mov { dst, src } => {
                self.word(1);
                self.word(dst.0 as u64);
                self.operand(src);
            }
            Instr::Bin { op, dst, a, b } => {
                self.word(2);
                self.word(*op as u64);
                self.word(dst.0 as u64);
                self.operand(a);
                self.operand(b);
            }
            Instr::Un { op, dst, a } => {
                self.word(3);
                self.word(*op as u64);
                self.word(dst.0 as u64);
                self.operand(a);
            }
            Instr::Cmp { op, dst, a, b } => {
                self.word(4);
                self.word(*op as u64);
                self.word(dst.0 as u64);
                self.operand(a);
                self.operand(b);
            }
            Instr::Sel { dst, cond, a, b } => {
                self.word(5);
                self.word(dst.0 as u64);
                self.word(cond.0 as u64);
                self.operand(a);
                self.operand(b);
            }
            Instr::Cvt { dst, a } => {
                self.word(6);
                self.word(dst.0 as u64);
                self.operand(a);
            }
            Instr::Special { dst, kind } => {
                self.word(7);
                self.word(dst.0 as u64);
                self.word(*kind as u64);
            }
            Instr::Ld { dst, space, addr } => {
                self.word(8);
                self.word(dst.0 as u64);
                self.word(*space as u64);
                self.operand(addr);
            }
            Instr::St { space, addr, value } => {
                self.word(9);
                self.word(*space as u64);
                self.operand(addr);
                self.operand(value);
            }
            Instr::Atomic { op, space, addr, value, dst } => {
                self.word(10);
                self.word(*op as u64);
                self.word(*space as u64);
                self.operand(addr);
                self.operand(value);
                match dst {
                    None => self.word(0),
                    Some(r) => {
                        self.word(1);
                        self.word(r.0 as u64);
                    }
                }
            }
            Instr::Bar => self.word(11),
            Instr::If { .. } | Instr::While { .. } => {
                unreachable!("control instructions are hashed by Fingerprint::step")
            }
            Instr::Trap { message } => {
                self.word(14);
                self.bytes(message.as_bytes());
            }
        }
    }

    fn finish(&self) -> u64 {
        // Final avalanche so short kernels still use the full width.
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x
    }
}

/// Safe builder for [`KernelIr`]. Panics on type errors at build time —
/// those are programming errors in a frontend, analogous to slice-index
/// panics. Untrusted input goes through [`KernelIr::validate`] instead.
pub struct KernelBuilder {
    name: String,
    params: Vec<Type>,
    regs: Vec<Type>,
    shared_bytes: u64,
    /// Stack of open blocks; instructions append to the innermost.
    blocks: Vec<Vec<Instr>>,
}

impl KernelBuilder {
    /// Start building a kernel.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            params: Vec::new(),
            regs: Vec::new(),
            shared_bytes: 0,
            blocks: vec![Vec::new()],
        }
    }

    /// Declare the next kernel parameter. Must be called before any other
    /// register is allocated.
    pub fn param(&mut self, ty: Type) -> Reg {
        assert_eq!(
            self.params.len(),
            self.regs.len(),
            "params must be declared before any other register"
        );
        self.params.push(ty);
        self.fresh(ty)
    }

    /// Reserve `bytes` of shared memory; returns its base address operand
    /// (shared addresses start at 0).
    pub fn shared_alloc(&mut self, bytes: u64) -> Operand {
        let base = self.shared_bytes;
        // Keep 8-byte alignment for every allocation.
        self.shared_bytes = (base + bytes + 7) & !7;
        Operand::Imm(Value::I64(base as i64))
    }

    fn fresh(&mut self, ty: Type) -> Reg {
        let idx = u16::try_from(self.regs.len()).expect("register file overflow");
        self.regs.push(ty);
        Reg(idx)
    }

    fn ty_of(&self, o: Operand) -> Type {
        match o {
            Operand::Reg(r) => self.regs[r.0 as usize],
            Operand::Imm(v) => v.ty(),
        }
    }

    fn push(&mut self, i: Instr) {
        self.blocks.last_mut().expect("no open block").push(i);
    }

    /// Emit `dst = src` into a fresh register.
    pub fn mov(&mut self, src: impl Into<Operand>) -> Reg {
        let src = src.into();
        let dst = self.fresh(self.ty_of(src));
        self.push(Instr::Mov { dst, src });
        dst
    }

    /// Emit a move into an *existing* register (mutation — needed for loop
    /// induction variables).
    pub fn assign(&mut self, dst: Reg, src: impl Into<Operand>) {
        let src = src.into();
        assert_eq!(self.regs[dst.0 as usize], self.ty_of(src), "assign type mismatch");
        self.push(Instr::Mov { dst, src });
    }

    /// Emit an immediate constant.
    pub fn imm(&mut self, v: Value) -> Reg {
        self.mov(v)
    }

    /// Emit `a <op> b`.
    pub fn bin(&mut self, op: BinOp, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let (a, b) = (a.into(), b.into());
        let (ta, tb) = (self.ty_of(a), self.ty_of(b));
        assert_eq!(ta, tb, "bin {op:?}: operand types differ ({ta} vs {tb})");
        assert!(!ta.is_float() || op.supports_float(), "bin {op:?} not defined on {ta}");
        let dst = self.fresh(ta);
        self.push(Instr::Bin { op, dst, a, b });
        dst
    }

    /// Emit `a <op> b` accumulating into an existing register.
    pub fn bin_assign(&mut self, op: BinOp, dst: Reg, b: impl Into<Operand>) {
        let b = b.into();
        let t = self.regs[dst.0 as usize];
        assert_eq!(t, self.ty_of(b), "bin_assign type mismatch");
        self.push(Instr::Bin { op, dst, a: Operand::Reg(dst), b });
    }

    /// Emit `<op> a`.
    pub fn un(&mut self, op: UnOp, a: impl Into<Operand>) -> Reg {
        let a = a.into();
        let dst = self.fresh(self.ty_of(a));
        self.push(Instr::Un { op, dst, a });
        dst
    }

    /// Emit `a <cmp> b`, yielding a Bool register.
    pub fn cmp(&mut self, op: CmpOp, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let (a, b) = (a.into(), b.into());
        assert_eq!(self.ty_of(a), self.ty_of(b), "cmp operand types differ");
        let dst = self.fresh(Type::Bool);
        self.push(Instr::Cmp { op, dst, a, b });
        dst
    }

    /// Emit `cond ? a : b`.
    pub fn sel(&mut self, cond: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let (a, b) = (a.into(), b.into());
        assert_eq!(self.ty_of(a), self.ty_of(b), "sel operand types differ");
        let dst = self.fresh(self.ty_of(a));
        self.push(Instr::Sel { dst, cond, a, b });
        dst
    }

    /// Emit a conversion to `ty`.
    pub fn cvt(&mut self, ty: Type, a: impl Into<Operand>) -> Reg {
        let a = a.into();
        assert!(ty != Type::Bool && self.ty_of(a) != Type::Bool, "cvt does not apply to bool");
        let dst = self.fresh(ty);
        self.push(Instr::Cvt { dst, a });
        dst
    }

    /// Read a special register (always I32).
    pub fn special(&mut self, kind: Special) -> Reg {
        let dst = self.fresh(Type::I32);
        self.push(Instr::Special { dst, kind });
        dst
    }

    /// `threadIdx.x`
    pub fn thread_id_x(&mut self) -> Reg {
        self.special(Special::TidX)
    }

    /// `blockIdx.x`
    pub fn block_id_x(&mut self) -> Reg {
        self.special(Special::CtaIdX)
    }

    /// `blockDim.x`
    pub fn block_dim_x(&mut self) -> Reg {
        self.special(Special::NTidX)
    }

    /// `gridDim.x`
    pub fn grid_dim_x(&mut self) -> Reg {
        self.special(Special::NCtaIdX)
    }

    /// `blockIdx.x * blockDim.x + threadIdx.x` — the canonical global
    /// linear thread index (I32).
    pub fn global_thread_id_x(&mut self) -> Reg {
        let bid = self.block_id_x();
        let bdim = self.block_dim_x();
        let tid = self.thread_id_x();
        let prod = self.bin(BinOp::Mul, bid, bdim);
        self.bin(BinOp::Add, prod, tid)
    }

    /// Raw typed load from a byte address (I64).
    pub fn ld(&mut self, space: Space, ty: Type, addr: impl Into<Operand>) -> Reg {
        let addr = addr.into();
        assert!(ty.addressable(), "cannot load {ty}");
        assert_eq!(self.ty_of(addr), Type::I64, "load address must be i64");
        let dst = self.fresh(ty);
        self.push(Instr::Ld { dst, space, addr });
        dst
    }

    /// Raw typed store to a byte address (I64).
    pub fn st(&mut self, space: Space, addr: impl Into<Operand>, value: impl Into<Operand>) {
        let (addr, value) = (addr.into(), value.into());
        assert_eq!(self.ty_of(addr), Type::I64, "store address must be i64");
        assert!(self.ty_of(value).addressable(), "cannot store {}", self.ty_of(value));
        self.push(Instr::St { space, addr, value });
    }

    /// Compute the byte address `base + index * sizeof(ty)`; `index` may be
    /// I32 (widened) or I64.
    pub fn elem_addr(
        &mut self,
        ty: Type,
        base: impl Into<Operand>,
        index: impl Into<Operand>,
    ) -> Reg {
        let (base, index) = (base.into(), index.into());
        assert_eq!(self.ty_of(base), Type::I64, "base pointer must be i64");
        let idx64 = match self.ty_of(index) {
            Type::I64 => self.mov(index),
            Type::I32 => self.cvt(Type::I64, index),
            other => panic!("element index must be integer, got {other}"),
        };
        let sz = self.imm(Value::I64(ty.size() as i64));
        let off = self.bin(BinOp::Mul, idx64, sz);
        self.bin(BinOp::Add, base, off)
    }

    /// Load `base[index]` of element type `ty`.
    pub fn ld_elem(
        &mut self,
        space: Space,
        ty: Type,
        base: impl Into<Operand>,
        index: impl Into<Operand>,
    ) -> Reg {
        let addr = self.elem_addr(ty, base, index);
        self.ld(space, ty, addr)
    }

    /// Store `value` to `base[index]`.
    pub fn st_elem(
        &mut self,
        space: Space,
        base: impl Into<Operand>,
        index: impl Into<Operand>,
        value: impl Into<Operand>,
    ) {
        let value = value.into();
        let ty = self.ty_of(value);
        let addr = self.elem_addr(ty, base, index);
        self.st(space, addr, value);
    }

    /// Atomic RMW on a byte address; returns the old value.
    pub fn atomic(
        &mut self,
        op: AtomicOp,
        space: Space,
        addr: impl Into<Operand>,
        value: impl Into<Operand>,
    ) -> Reg {
        let (addr, value) = (addr.into(), value.into());
        assert_eq!(self.ty_of(addr), Type::I64, "atomic address must be i64");
        let ty = self.ty_of(value);
        assert!(ty.addressable(), "cannot atomically update {ty}");
        let dst = self.fresh(ty);
        self.push(Instr::Atomic { op, space, addr, value, dst: Some(dst) });
        dst
    }

    /// Block-wide barrier.
    pub fn barrier(&mut self) {
        self.push(Instr::Bar);
    }

    /// Device-side assertion failure.
    pub fn trap(&mut self, message: impl Into<String>) {
        self.push(Instr::Trap { message: message.into() });
    }

    /// Structured `if cond { then }`.
    pub fn if_(&mut self, cond: Reg, then_: impl FnOnce(&mut Self)) {
        self.if_else(cond, then_, |_| {});
    }

    /// Structured `if cond { then } else { else }`.
    pub fn if_else(
        &mut self,
        cond: Reg,
        then_: impl FnOnce(&mut Self),
        else_: impl FnOnce(&mut Self),
    ) {
        assert_eq!(self.regs[cond.0 as usize], Type::Bool, "if condition must be bool");
        self.blocks.push(Vec::new());
        then_(self);
        let t = self.blocks.pop().expect("builder block stack corrupted");
        self.blocks.push(Vec::new());
        else_(self);
        let e = self.blocks.pop().expect("builder block stack corrupted");
        self.push(Instr::If { cond, then_: t, else_: e });
    }

    /// Structured `while`: `cond_fn` computes the condition register each
    /// iteration; `body_fn` is the loop body.
    pub fn while_(
        &mut self,
        cond_fn: impl FnOnce(&mut Self) -> Reg,
        body_fn: impl FnOnce(&mut Self),
    ) {
        self.blocks.push(Vec::new());
        let cond = cond_fn(self);
        let cond_block = self.blocks.pop().expect("builder block stack corrupted");
        assert_eq!(self.regs[cond.0 as usize], Type::Bool, "while condition must be bool");
        self.blocks.push(Vec::new());
        body_fn(self);
        let body = self.blocks.pop().expect("builder block stack corrupted");
        self.push(Instr::While { cond_block, cond, body });
    }

    /// Finish and return the kernel. Debug-asserts validity.
    pub fn finish(mut self) -> KernelIr {
        assert_eq!(self.blocks.len(), 1, "unbalanced control-flow blocks");
        let kernel = KernelIr {
            name: self.name,
            params: self.params,
            regs: self.regs,
            shared_bytes: self.shared_bytes,
            body: self.blocks.pop().unwrap(),
        };
        debug_assert_eq!(kernel.validate(), Ok(()), "builder produced invalid IR");
        kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saxpy() -> KernelIr {
        let mut k = KernelBuilder::new("saxpy");
        let a = k.param(Type::F32);
        let x = k.param(Type::I64);
        let y = k.param(Type::I64);
        let n = k.param(Type::I32);
        let i = k.global_thread_id_x();
        let ok = k.cmp(CmpOp::Lt, i, n);
        k.if_(ok, |k| {
            let xi = k.ld_elem(Space::Global, Type::F32, x, i);
            let yi = k.ld_elem(Space::Global, Type::F32, y, i);
            let ax = k.bin(BinOp::Mul, a, xi);
            let s = k.bin(BinOp::Add, ax, yi);
            k.st_elem(Space::Global, y, i, s);
        });
        k.finish()
    }

    #[test]
    fn saxpy_builds_and_validates() {
        let k = saxpy();
        assert_eq!(k.params.len(), 4);
        assert!(matches!(k.body.last(), Some(Instr::If { .. })));
        assert_eq!(k.validate(), Ok(()));
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        // Equal structure, equal fingerprint — across separate builds.
        assert_eq!(saxpy().fingerprint(), saxpy().fingerprint());

        // Any structural edit moves the fingerprint: name, an immediate's
        // bit pattern, shared memory, or an extra instruction.
        let base = saxpy();
        let mut renamed = base.clone();
        renamed.name = "saxpy2".into();
        assert_ne!(base.fingerprint(), renamed.fingerprint());

        let mut shared = base.clone();
        shared.shared_bytes += 4;
        assert_ne!(base.fingerprint(), shared.fingerprint());

        let mut extra = base.clone();
        extra.body.push(Instr::Bar);
        assert_ne!(base.fingerprint(), extra.fingerprint());

        // Nested edits count too: flip the comparison inside the guard.
        let mut flipped = base.clone();
        if let Some(Instr::Cmp { op, .. }) =
            flipped.body.iter_mut().find(|i| matches!(i, Instr::Cmp { .. }))
        {
            *op = CmpOp::Le;
        } else {
            panic!("saxpy has a guard compare");
        }
        assert_ne!(base.fingerprint(), flipped.fingerprint());

        // Float immediates compare by bits: 0.0 and -0.0 are ==, but are
        // different kernels (e.g. under copysign/division semantics).
        let imm = |v: f32| {
            let mut k = KernelBuilder::new("imm");
            k.mov(Value::F32(v));
            k.finish()
        };
        assert_ne!(imm(0.0).fingerprint(), imm(-0.0).fingerprint());
        assert_eq!(imm(1.5).fingerprint(), imm(1.5).fingerprint());
    }

    #[test]
    fn type_sizes() {
        assert_eq!(Type::F32.size(), 4);
        assert_eq!(Type::F64.size(), 8);
        assert_eq!(Type::I32.size(), 4);
        assert_eq!(Type::I64.size(), 8);
        assert!(!Type::Bool.addressable());
        assert!(Type::F32.addressable());
    }

    #[test]
    #[should_panic(expected = "operand types differ")]
    fn builder_rejects_mixed_types() {
        let mut k = KernelBuilder::new("bad");
        let a = k.param(Type::F32);
        let b = k.param(Type::F64);
        k.bin(BinOp::Add, a, b);
    }

    #[test]
    #[should_panic(expected = "not defined on")]
    fn builder_rejects_float_shift() {
        let mut k = KernelBuilder::new("bad");
        let a = k.param(Type::F32);
        k.bin(BinOp::Shl, a, a);
    }

    #[test]
    #[should_panic(expected = "params must be declared before")]
    fn params_must_come_first() {
        let mut k = KernelBuilder::new("bad");
        let _ = k.imm(Value::I32(0));
        k.param(Type::F32);
    }

    #[test]
    fn validate_catches_out_of_range_registers() {
        let k = KernelIr {
            name: "bad".into(),
            params: vec![],
            regs: vec![Type::F32],
            shared_bytes: 0,
            body: vec![Instr::Mov { dst: Reg(7), src: Operand::Imm(Value::F32(0.0)) }],
        };
        assert!(k.validate().unwrap_err().contains("out of range"));
    }

    #[test]
    fn validate_catches_bool_load() {
        let k = KernelIr {
            name: "bad".into(),
            params: vec![],
            regs: vec![Type::Bool, Type::I64],
            shared_bytes: 0,
            body: vec![Instr::Ld { dst: Reg(0), space: Space::Global, addr: Operand::Reg(Reg(1)) }],
        };
        assert!(k.validate().unwrap_err().contains("cannot load"));
    }

    #[test]
    fn validate_catches_non_bool_condition() {
        let k = KernelIr {
            name: "bad".into(),
            params: vec![],
            regs: vec![Type::I32],
            shared_bytes: 0,
            body: vec![Instr::If { cond: Reg(0), then_: vec![], else_: vec![] }],
        };
        assert!(k.validate().unwrap_err().contains("must be bool"));
    }

    #[test]
    fn shared_alloc_is_aligned() {
        let mut k = KernelBuilder::new("sh");
        let a = k.shared_alloc(3);
        let b = k.shared_alloc(5);
        match (a, b) {
            (Operand::Imm(Value::I64(a)), Operand::Imm(Value::I64(b))) => {
                assert_eq!(a, 0);
                assert_eq!(b % 8, 0);
                assert!(b >= 3);
            }
            other => panic!("unexpected operands {other:?}"),
        }
        let kernel = k.finish();
        assert!(kernel.shared_bytes >= 8);
        assert_eq!(kernel.shared_bytes % 8, 0);
    }

    #[test]
    fn while_loop_builds() {
        // i = 0; while (i < 10) { i += 1 }
        let mut k = KernelBuilder::new("loop");
        let i = k.imm(Value::I32(0));
        k.while_(
            |k| k.cmp(CmpOp::Lt, i, Value::I32(10)),
            |k| k.bin_assign(BinOp::Add, i, Value::I32(1)),
        );
        let kernel = k.finish();
        assert_eq!(kernel.validate(), Ok(()));
        assert!(matches!(kernel.body.last(), Some(Instr::While { .. })));
    }

    #[test]
    fn value_types_roundtrip() {
        assert_eq!(Value::F32(1.0).ty(), Type::F32);
        assert_eq!(Value::F64(1.0).ty(), Type::F64);
        assert_eq!(Value::I32(1).ty(), Type::I32);
        assert_eq!(Value::I64(1).ty(), Type::I64);
        assert_eq!(Value::Bool(true).ty(), Type::Bool);
    }
}
