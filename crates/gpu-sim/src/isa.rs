//! Vendor-style virtual instruction sets.
//!
//! Real toolchains lower portable IR into vendor ISAs: CUDA C++ → PTX →
//! SASS on NVIDIA, Clang/AMDGPU → GCN code objects on AMD, DPC++ → SPIR-V →
//! Xe binaries on Intel. This module mirrors that boundary: a [`Module`] is
//! a byte artifact in exactly one [`IsaKind`], produced by [`assemble`] and
//! consumed by devices of the matching vendor only. Loading a PTX-like
//! module on a GCN-like device fails — the same hard wall the paper's
//! compatibility matrix documents.
//!
//! The three ISAs share one structural encoding and differ in magic
//! number and opcode numbering, so modules are genuinely not
//! interchangeable at the byte level. [`disassemble`] decodes a module back
//! to validated [`KernelIr`] (it is what the executor uses to load code).
//!
//! The same encoder defines a kernel's identity: [`KernelIr::fingerprint`]
//! hashes the stream [`assemble`] writes, at opcode base 0 and without
//! magic or version, so a new instruction needs one encoder edit. A module
//! carries that fingerprint, computed once by [`assemble`]. Devices cache
//! kernels on it without reading the bytes, and [`disassemble`] refuses
//! bytes that decode to any other kernel, so a module cannot name one
//! kernel and carry another.

use crate::ir::{
    AtomicOp, BinOp, CmpOp, Instr, KernelIr, Operand, Reg, Space, Special, Type, UnOp, Value,
};
use crate::{Result, SimError};

/// The three vendor-style virtual ISAs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsaKind {
    /// NVIDIA-style (PTX → SASS).
    PtxLike,
    /// AMD-style (AMDGPU/GCN code objects).
    GcnLike,
    /// Intel-style (SPIR-V consumed by Level Zero).
    SpirvLike,
}

impl IsaKind {
    /// All ISAs.
    pub const ALL: [IsaKind; 3] = [IsaKind::PtxLike, IsaKind::GcnLike, IsaKind::SpirvLike];

    /// The 4-byte magic identifying modules of this ISA.
    pub fn magic(self) -> [u8; 4] {
        match self {
            IsaKind::PtxLike => *b"PTXv",
            IsaKind::GcnLike => *b"GCNv",
            IsaKind::SpirvLike => *b"SPVv",
        }
    }

    /// Offset added to every opcode — makes the instruction streams of the
    /// three ISAs byte-incompatible, as in reality.
    fn opcode_base(self) -> u8 {
        match self {
            IsaKind::PtxLike => 0x00,
            IsaKind::GcnLike => 0x40,
            IsaKind::SpirvLike => 0x80,
        }
    }

    /// Identify a module's ISA from its magic bytes.
    pub fn sniff(bytes: &[u8]) -> Option<IsaKind> {
        let magic: [u8; 4] = bytes.get(..4)?.try_into().ok()?;
        IsaKind::ALL.into_iter().find(|k| k.magic() == magic)
    }
}

/// Current encoding version.
const VERSION: u16 = 1;

/// A compiled kernel module: one kernel in one vendor ISA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    /// Which ISA the bytes are encoded in.
    pub isa: IsaKind,
    /// [`KernelIr::fingerprint`] of the encoded kernel: the module's
    /// identity, which [`disassemble`] checks against the bytes.
    pub fingerprint: u64,
    /// The encoded bytes (magic + version + kernel).
    pub bytes: Vec<u8>,
}

/// Assemble a kernel into a module of the given ISA. Fails if the kernel
/// does not validate, which includes every kernel the format cannot hold.
pub fn assemble(kernel: &KernelIr, isa: IsaKind) -> Result<Module> {
    kernel.validate().map_err(SimError::InvalidModule)?;
    let mut w = Writer { sink: Vec::with_capacity(256), base: isa.opcode_base() };
    w.sink.bytes(&isa.magic());
    w.u16(VERSION);
    w.kernel(kernel);
    Ok(Module { isa, fingerprint: kernel.fingerprint(), bytes: w.sink })
}

/// [`KernelIr::fingerprint`]: the stream [`assemble`] writes for `kernel`,
/// without magic or version and at opcode base 0, hashed as it is written.
pub(crate) fn fingerprint(kernel: &KernelIr) -> u64 {
    let mut w = Writer { sink: HashSink(0xCBF2_9CE4_8422_2325), base: 0 };
    w.kernel(kernel);
    // Final avalanche so short kernels still use the full width.
    let x = w.sink.0 ^ (w.sink.0 >> 33);
    let x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^ (x >> 33)
}

/// Decode a module back into validated IR. Checks magic, version, runs the
/// full [`KernelIr::validate`] on the result, and checks that the result is
/// the kernel [`Module::fingerprint`] names.
pub fn disassemble(module: &Module) -> Result<KernelIr> {
    let sniffed = IsaKind::sniff(&module.bytes)
        .ok_or_else(|| SimError::InvalidModule("unrecognized magic".into()))?;
    if sniffed != module.isa {
        return Err(SimError::IsaMismatch { module: module.isa, device: sniffed });
    }
    let mut r = Reader { bytes: &module.bytes, pos: 4, base: module.isa.opcode_base() };
    let version = r.u16()?;
    if version != VERSION {
        return Err(SimError::InvalidModule(format!("unsupported version {version}")));
    }
    let name = r.str_()?;
    let nparams = r.u16()? as usize;
    let mut params = Vec::with_capacity(nparams);
    for _ in 0..nparams {
        params.push(r.ty()?);
    }
    let nregs = r.u16()? as usize;
    let mut regs = Vec::with_capacity(nregs);
    for _ in 0..nregs {
        regs.push(r.ty()?);
    }
    let shared_bytes = r.u64()?;
    let body = r.block(0)?;
    if r.pos != r.bytes.len() {
        return Err(SimError::InvalidModule(format!(
            "trailing garbage: {} bytes",
            r.bytes.len() - r.pos
        )));
    }
    let kernel = KernelIr { name, params, regs, shared_bytes, body };
    kernel.validate().map_err(SimError::InvalidModule)?;
    let fingerprint = kernel.fingerprint();
    if fingerprint != module.fingerprint {
        return Err(SimError::InvalidModule(format!(
            "bytes encode kernel {fingerprint:016x}, module names {:016x}",
            module.fingerprint
        )));
    }
    Ok(kernel)
}

// ───────────────────────── encoding internals ──────────────────────────

/// Where a [`Writer`] puts a kernel's encoding: module bytes, or the
/// fingerprint's hash.
trait Sink {
    /// The low `width` bytes of `v`, little-endian.
    fn put(&mut self, v: u64, width: usize);
    /// Raw bytes, after the length that counts them.
    fn bytes(&mut self, b: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, v: u64, width: usize) {
        self.extend_from_slice(&v.to_le_bytes()[..width]);
    }
    fn bytes(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }
}

/// FNV-1a-style hash behind [`fingerprint`]. Each [`Sink::put`] is one
/// whole 64-bit word, so a length the module format could not store still
/// hashes in full; an extra diffusion shift per word lands structurally
/// close kernels (one immediate changed, two instructions swapped) far
/// apart.
struct HashSink(u64);

impl Sink for HashSink {
    fn put(&mut self, v: u64, _width: usize) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        self.0 ^= self.0 >> 29;
    }
    fn bytes(&mut self, b: &[u8]) {
        for chunk in b.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.put(u64::from_le_bytes(word), 8);
        }
    }
}

/// The one encoder of a kernel's structure, over either [`Sink`].
struct Writer<S> {
    sink: S,
    base: u8,
}

impl<S: Sink> Writer<S> {
    fn kernel(&mut self, kernel: &KernelIr) {
        self.str_(&kernel.name);
        self.len(kernel.params.len(), 2);
        for &t in &kernel.params {
            self.ty(t);
        }
        self.len(kernel.regs.len(), 2);
        for &t in &kernel.regs {
            self.ty(t);
        }
        self.u64(kernel.shared_bytes);
        self.block(&kernel.body);
    }
    fn u8(&mut self, v: u8) {
        self.sink.put(v.into(), 1);
    }
    fn u16(&mut self, v: u16) {
        self.sink.put(v.into(), 2);
    }
    fn u32(&mut self, v: u32) {
        self.sink.put(v.into(), 4);
    }
    fn u64(&mut self, v: u64) {
        self.sink.put(v, 8);
    }
    /// A count the module stores in `width` bytes. [`KernelIr::validate`]
    /// refuses a two-byte count that does not fit before [`assemble`]; no
    /// block in memory holds 2^32 instructions.
    fn len(&mut self, n: usize, width: usize) {
        self.sink.put(n as u64, width);
    }
    fn str_(&mut self, s: &str) {
        self.len(s.len(), 2);
        self.sink.bytes(s.as_bytes());
    }
    fn ty(&mut self, t: Type) {
        self.u8(t as u8);
    }
    fn reg(&mut self, r: Reg) {
        self.u16(r.0);
    }
    fn operand(&mut self, o: &Operand) {
        match o {
            Operand::Reg(r) => {
                self.u8(0);
                self.reg(*r);
            }
            Operand::Imm(v) => {
                self.u8(1);
                self.ty(v.ty());
                match *v {
                    Value::F32(x) => self.u32(x.to_bits()),
                    Value::F64(x) => self.u64(x.to_bits()),
                    Value::I32(x) => self.u32(x as u32),
                    Value::I64(x) => self.u64(x as u64),
                    Value::Bool(x) => self.u8(x.into()),
                }
            }
        }
    }
    fn opcode(&mut self, op: u8) {
        self.u8(op.wrapping_add(self.base));
    }
    fn block(&mut self, body: &[Instr]) {
        self.len(body.len(), 4);
        for i in body {
            self.instr(i);
        }
    }
    fn instr(&mut self, i: &Instr) {
        match i {
            Instr::Mov { dst, src } => {
                self.opcode(0);
                self.reg(*dst);
                self.operand(src);
            }
            Instr::Bin { op, dst, a, b } => {
                self.opcode(1);
                self.u8(*op as u8);
                self.reg(*dst);
                self.operand(a);
                self.operand(b);
            }
            Instr::Un { op, dst, a } => {
                self.opcode(2);
                self.u8(*op as u8);
                self.reg(*dst);
                self.operand(a);
            }
            Instr::Cmp { op, dst, a, b } => {
                self.opcode(3);
                self.u8(*op as u8);
                self.reg(*dst);
                self.operand(a);
                self.operand(b);
            }
            Instr::Sel { dst, cond, a, b } => {
                self.opcode(4);
                self.reg(*dst);
                self.reg(*cond);
                self.operand(a);
                self.operand(b);
            }
            Instr::Cvt { dst, a } => {
                self.opcode(5);
                self.reg(*dst);
                self.operand(a);
            }
            Instr::Special { dst, kind } => {
                self.opcode(6);
                self.reg(*dst);
                self.u8(*kind as u8);
            }
            Instr::Ld { dst, space, addr } => {
                self.opcode(7);
                self.reg(*dst);
                self.u8(*space as u8);
                self.operand(addr);
            }
            Instr::St { space, addr, value } => {
                self.opcode(8);
                self.u8(*space as u8);
                self.operand(addr);
                self.operand(value);
            }
            Instr::Atomic { op, space, addr, value, dst } => {
                self.opcode(9);
                self.u8(*op as u8);
                self.u8(*space as u8);
                self.operand(addr);
                self.operand(value);
                match dst {
                    Some(d) => {
                        self.u8(1);
                        self.reg(*d);
                    }
                    None => self.u8(0),
                }
            }
            Instr::Bar => self.opcode(10),
            Instr::If { cond, then_, else_ } => {
                self.opcode(11);
                self.reg(*cond);
                self.block(then_);
                self.block(else_);
            }
            Instr::While { cond_block, cond, body } => {
                self.opcode(12);
                self.block(cond_block);
                self.reg(*cond);
                self.block(body);
            }
            Instr::Trap { message } => {
                self.opcode(13);
                self.str_(message);
            }
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: u8,
}

/// Deepest block nesting a module holds: the decoder refuses more (defense
/// against stack exhaustion from malicious modules), so
/// [`KernelIr::validate`] refuses it before [`assemble`].
pub(crate) const MAX_DEPTH: u32 = 64;

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| SimError::InvalidModule("truncated module".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn str_(&mut self) -> Result<String> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SimError::InvalidModule("non-UTF-8 string".into()))
    }
    fn ty(&mut self) -> Result<Type> {
        Ok(match self.u8()? {
            0 => Type::F32,
            1 => Type::F64,
            2 => Type::I32,
            3 => Type::I64,
            4 => Type::Bool,
            t => return Err(SimError::InvalidModule(format!("bad type code {t}"))),
        })
    }
    fn reg(&mut self) -> Result<Reg> {
        Ok(Reg(self.u16()?))
    }
    fn operand(&mut self) -> Result<Operand> {
        match self.u8()? {
            0 => Ok(Operand::Reg(self.reg()?)),
            1 => {
                let ty = self.ty()?;
                Ok(Operand::Imm(match ty {
                    Type::F32 => Value::F32(f32::from_bits(self.u32()?)),
                    Type::F64 => Value::F64(f64::from_bits(self.u64()?)),
                    Type::I32 => Value::I32(self.u32()? as i32),
                    Type::I64 => Value::I64(self.u64()? as i64),
                    Type::Bool => Value::Bool(self.u8()? != 0),
                }))
            }
            t => Err(SimError::InvalidModule(format!("bad operand tag {t}"))),
        }
    }
    fn binop(&mut self) -> Result<BinOp> {
        Ok(match self.u8()? {
            0 => BinOp::Add,
            1 => BinOp::Sub,
            2 => BinOp::Mul,
            3 => BinOp::Div,
            4 => BinOp::Rem,
            5 => BinOp::Min,
            6 => BinOp::Max,
            7 => BinOp::And,
            8 => BinOp::Or,
            9 => BinOp::Xor,
            10 => BinOp::Shl,
            11 => BinOp::Shr,
            v => return Err(SimError::InvalidModule(format!("bad binop {v}"))),
        })
    }
    fn unop(&mut self) -> Result<UnOp> {
        Ok(match self.u8()? {
            0 => UnOp::Neg,
            1 => UnOp::Abs,
            2 => UnOp::Sqrt,
            3 => UnOp::Exp,
            4 => UnOp::Log,
            5 => UnOp::Floor,
            6 => UnOp::Not,
            v => return Err(SimError::InvalidModule(format!("bad unop {v}"))),
        })
    }
    fn cmpop(&mut self) -> Result<CmpOp> {
        Ok(match self.u8()? {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Gt,
            5 => CmpOp::Ge,
            v => return Err(SimError::InvalidModule(format!("bad cmpop {v}"))),
        })
    }
    fn atomicop(&mut self) -> Result<AtomicOp> {
        Ok(match self.u8()? {
            0 => AtomicOp::Add,
            1 => AtomicOp::Min,
            2 => AtomicOp::Max,
            3 => AtomicOp::Exch,
            v => return Err(SimError::InvalidModule(format!("bad atomic op {v}"))),
        })
    }
    fn space(&mut self) -> Result<Space> {
        Ok(match self.u8()? {
            0 => Space::Global,
            1 => Space::Shared,
            v => return Err(SimError::InvalidModule(format!("bad space {v}"))),
        })
    }
    fn special(&mut self) -> Result<Special> {
        Ok(match self.u8()? {
            0 => Special::TidX,
            1 => Special::CtaIdX,
            2 => Special::NTidX,
            3 => Special::NCtaIdX,
            4 => Special::LaneId,
            v => return Err(SimError::InvalidModule(format!("bad special {v}"))),
        })
    }
    fn block(&mut self, depth: u32) -> Result<Vec<Instr>> {
        if depth > MAX_DEPTH {
            return Err(SimError::InvalidModule("nesting too deep".into()));
        }
        let n = self.u32()? as usize;
        // Each instruction needs at least one byte; reject absurd counts
        // before allocating.
        if n > self.bytes.len() - self.pos.min(self.bytes.len()) {
            return Err(SimError::InvalidModule("instruction count exceeds module size".into()));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.instr(depth)?);
        }
        Ok(out)
    }
    fn instr(&mut self, depth: u32) -> Result<Instr> {
        let raw = self.u8()?;
        let op = raw.wrapping_sub(self.base);
        Ok(match op {
            0 => Instr::Mov { dst: self.reg()?, src: self.operand()? },
            1 => {
                let op = self.binop()?;
                Instr::Bin { op, dst: self.reg()?, a: self.operand()?, b: self.operand()? }
            }
            2 => {
                let op = self.unop()?;
                Instr::Un { op, dst: self.reg()?, a: self.operand()? }
            }
            3 => {
                let op = self.cmpop()?;
                Instr::Cmp { op, dst: self.reg()?, a: self.operand()?, b: self.operand()? }
            }
            4 => Instr::Sel {
                dst: self.reg()?,
                cond: self.reg()?,
                a: self.operand()?,
                b: self.operand()?,
            },
            5 => Instr::Cvt { dst: self.reg()?, a: self.operand()? },
            6 => Instr::Special { dst: self.reg()?, kind: self.special()? },
            7 => Instr::Ld { dst: self.reg()?, space: self.space()?, addr: self.operand()? },
            8 => Instr::St { space: self.space()?, addr: self.operand()?, value: self.operand()? },
            9 => {
                let op = self.atomicop()?;
                let space = self.space()?;
                let addr = self.operand()?;
                let value = self.operand()?;
                let dst = if self.u8()? != 0 { Some(self.reg()?) } else { None };
                Instr::Atomic { op, space, addr, value, dst }
            }
            10 => Instr::Bar,
            11 => {
                let cond = self.reg()?;
                let then_ = self.block(depth + 1)?;
                let else_ = self.block(depth + 1)?;
                Instr::If { cond, then_, else_ }
            }
            12 => {
                let cond_block = self.block(depth + 1)?;
                let cond = self.reg()?;
                let body = self.block(depth + 1)?;
                Instr::While { cond_block, cond, body }
            }
            13 => Instr::Trap { message: self.str_()? },
            v => return Err(SimError::InvalidModule(format!("bad opcode {v} (raw {raw})"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::KernelBuilder;

    fn sample_kernel() -> KernelIr {
        let mut k = KernelBuilder::new("sample");
        let x = k.param(Type::I64);
        let n = k.param(Type::I32);
        let i = k.global_thread_id_x();
        let ok = k.cmp(CmpOp::Lt, i, n);
        k.if_else(
            ok,
            |k| {
                let v = k.ld_elem(Space::Global, Type::F64, x, i);
                let w = k.un(UnOp::Sqrt, v);
                k.st_elem(Space::Global, x, i, w);
            },
            |k| {
                let z = k.imm(Value::I32(0));
                let _ = k.sel(ok, z, Value::I32(1));
            },
        );
        let acc = k.imm(Value::I32(0));
        k.while_(
            |k| k.cmp(CmpOp::Lt, acc, Value::I32(3)),
            |k| {
                k.bin_assign(BinOp::Add, acc, Value::I32(1));
                k.barrier();
            },
        );
        let addr = k.imm(Value::I64(0));
        let one = k.imm(Value::I32(1));
        let _old = k.atomic(AtomicOp::Add, Space::Global, addr, one);
        k.finish()
    }

    #[test]
    fn roundtrip_all_isas() {
        let kernel = sample_kernel();
        for isa in IsaKind::ALL {
            let module = assemble(&kernel, isa).unwrap();
            assert_eq!(module.isa, isa);
            let back = disassemble(&module).unwrap();
            assert_eq!(back, kernel, "{isa:?} roundtrip changed the kernel");
        }
    }

    #[test]
    fn isas_produce_different_bytes() {
        let kernel = sample_kernel();
        let ptx = assemble(&kernel, IsaKind::PtxLike).unwrap();
        let gcn = assemble(&kernel, IsaKind::GcnLike).unwrap();
        let spv = assemble(&kernel, IsaKind::SpirvLike).unwrap();
        assert_ne!(ptx.bytes, gcn.bytes);
        assert_ne!(gcn.bytes, spv.bytes);
        assert_ne!(ptx.bytes, spv.bytes);
    }

    #[test]
    fn sniff_identifies_isa() {
        let kernel = sample_kernel();
        for isa in IsaKind::ALL {
            let m = assemble(&kernel, isa).unwrap();
            assert_eq!(IsaKind::sniff(&m.bytes), Some(isa));
        }
        assert_eq!(IsaKind::sniff(b"ELF\x7f----"), None);
        assert_eq!(IsaKind::sniff(b"PT"), None);
    }

    #[test]
    fn cross_isa_bytes_do_not_decode() {
        // A GCN module relabeled as PTX must be rejected.
        let kernel = sample_kernel();
        let gcn = assemble(&kernel, IsaKind::GcnLike).unwrap();
        let forged = Module { isa: IsaKind::PtxLike, ..gcn.clone() };
        match disassemble(&forged) {
            Err(SimError::IsaMismatch { .. }) => {}
            other => panic!("expected IsaMismatch, got {other:?}"),
        }
        // And even with matching labels, the opcode streams differ: force
        // the magic to PTX but keep GCN opcodes.
        let mut bytes = gcn.bytes.clone();
        bytes[..4].copy_from_slice(&IsaKind::PtxLike.magic());
        let forged = Module { isa: IsaKind::PtxLike, fingerprint: gcn.fingerprint, bytes };
        assert!(disassemble(&forged).is_err());
    }

    #[test]
    fn bytes_of_another_kernel_do_not_decode() {
        // Kernel A's bytes under kernel B's fingerprint: every byte is a
        // valid module, but not the one the fingerprint names.
        let a = assemble(&sample_kernel(), IsaKind::PtxLike).unwrap();
        let b = assemble(&KernelBuilder::new("b").finish(), IsaKind::PtxLike).unwrap();
        let forged = Module { fingerprint: b.fingerprint, ..a };
        assert!(matches!(disassemble(&forged), Err(SimError::InvalidModule(_))));
    }

    #[test]
    fn truncated_modules_rejected() {
        let kernel = sample_kernel();
        let m = assemble(&kernel, IsaKind::PtxLike).unwrap();
        for cut in [5, 10, m.bytes.len() / 2, m.bytes.len() - 1] {
            let t = Module { bytes: m.bytes[..cut].to_vec(), ..m.clone() };
            assert!(disassemble(&t).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let kernel = sample_kernel();
        let mut m = assemble(&kernel, IsaKind::PtxLike).unwrap();
        m.bytes.push(0xAA);
        assert!(matches!(disassemble(&m), Err(SimError::InvalidModule(_))));
    }

    #[test]
    fn corrupted_bytes_never_panic() {
        // Deterministic fuzz: flip each byte in turn; decoding must return
        // (Ok or Err), never panic, and if Ok the kernel must be the one
        // the module names.
        let kernel = sample_kernel();
        let m = assemble(&kernel, IsaKind::PtxLike).unwrap();
        for i in 4..m.bytes.len() {
            let mut bytes = m.bytes.clone();
            bytes[i] ^= 0xFF;
            let module = Module { bytes, ..m.clone() };
            if let Ok(k) = disassemble(&module) {
                assert_eq!(k, kernel, "flipping byte {i} decoded another kernel");
            }
        }
    }
}
