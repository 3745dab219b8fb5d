//! What a block engine is handed, and the semantics every block engine
//! shares.
//!
//! A device runs each thread block of a launch on a block engine: in
//! production the lowered lane-vector bytecode of [`crate::vexec`]; in
//! tests, through [`Device::launch_kernel_with`](crate::device::Device::launch_kernel_with),
//! the scalar reference interpreter of the `mcmm-gpu-sim-ref` crate. Both
//! are handed a [`BlockCtx`], and both take from here the pieces whose
//! results must agree bit for bit: [`SharedMem`]'s bounds and alignment
//! checks, [`bin_value`]'s arithmetic, and the warp-round-robin order
//! colliding atomics commit in ([`round_robin`]).

use crate::counters::Counters;
use crate::ir::{BinOp, KernelIr, Type, Value};
use crate::mem::GlobalMemory;
use crate::{Result, SimError};

/// Per-block shared memory (one host thread runs a block ⇒ plain bytes,
/// no atomics needed, but the same bounds/alignment contract as global
/// memory). Every block engine uses it, so all get identical
/// bounds/alignment behaviour.
pub struct SharedMem {
    bytes: Vec<u8>,
}

impl SharedMem {
    /// `size` zeroed bytes.
    pub fn new(size: u64) -> Self {
        Self { bytes: vec![0; size as usize] }
    }

    fn check(&self, addr: u64, len: u64) -> Result<usize> {
        let end = addr.checked_add(len).ok_or(SimError::OutOfBounds { addr, len })?;
        if end > self.bytes.len() as u64 {
            return Err(SimError::OutOfBounds { addr, len });
        }
        if !addr.is_multiple_of(len) {
            return Err(SimError::Misaligned { addr, align: len });
        }
        Ok(addr as usize)
    }

    /// Read a `ty` at `addr`, which must lie inside and be naturally
    /// aligned.
    pub fn load(&self, ty: Type, addr: u64) -> Result<Value> {
        let i = self.check(addr, ty.size())?;
        let raw = &self.bytes[i..i + ty.size() as usize];
        Ok(match ty {
            Type::F32 => Value::F32(f32::from_le_bytes(raw.try_into().unwrap())),
            Type::F64 => Value::F64(f64::from_le_bytes(raw.try_into().unwrap())),
            Type::I32 => Value::I32(i32::from_le_bytes(raw.try_into().unwrap())),
            Type::I64 => Value::I64(i64::from_le_bytes(raw.try_into().unwrap())),
            Type::Bool => Value::Bool(raw[0] != 0),
        })
    }

    /// Write `v` at `addr`, under [`SharedMem::load`]'s checks.
    pub fn store(&mut self, addr: u64, v: Value) -> Result<()> {
        let ty = v.ty();
        let i = self.check(addr, ty.size())?;
        match v {
            Value::F32(x) => self.bytes[i..i + 4].copy_from_slice(&x.to_le_bytes()),
            Value::F64(x) => self.bytes[i..i + 8].copy_from_slice(&x.to_le_bytes()),
            Value::I32(x) => self.bytes[i..i + 4].copy_from_slice(&x.to_le_bytes()),
            Value::I64(x) => self.bytes[i..i + 8].copy_from_slice(&x.to_le_bytes()),
            Value::Bool(x) => self.bytes[i] = u8::from(x),
        }
        Ok(())
    }
}

/// Everything a block execution needs.
pub struct BlockCtx<'a> {
    /// The kernel to interpret.
    pub kernel: &'a KernelIr,
    /// Device global memory.
    pub global: &'a GlobalMemory,
    /// Shared launch counters.
    pub counters: &'a Counters,
    /// `blockIdx.x`
    pub block_id: u32,
    /// `gridDim.x`
    pub grid_dim: u32,
    /// `blockDim.x`
    pub block_dim: u32,
    /// Warp / wavefront / sub-group width of the device.
    pub warp_width: u32,
    /// When present, global-memory accesses are recorded here
    /// (observational; never changes what the kernel computes).
    pub trace: Option<&'a crate::trace::TraceSink>,
}

/// The error produced when an injected lane crash aborts a block before
/// its first instruction ([`crate::fault::LaunchFault::CrashBlock`]). The
/// message names the exact SIMT context that died; the device layer calls
/// this in place of the block engine for the crashing block.
pub fn injected_block_crash(ctx: &BlockCtx<'_>) -> SimError {
    SimError::FaultInjected(format!(
        "lanes of block {}/{} crashed in kernel `{}`",
        ctx.block_id, ctx.grid_dim, ctx.kernel.name
    ))
}

/// Active lanes in warp-round-robin commit order: position 0 of every
/// warp, then position 1 of every warp, … — the order a warp scheduler
/// interleaves colliding atomics, and therefore a function of the warp
/// width. Shared by every block engine so they stay byte-identical.
pub fn round_robin(mask: &[bool], warp_width: u32) -> impl Iterator<Item = usize> + '_ {
    round_robin_indices(mask.len(), warp_width.max(1) as usize).filter(move |&lane| mask[lane])
}

/// The bare lane-index order underlying [`round_robin`], for the
/// vectorized engine (which applies its own mask representation).
pub(crate) fn round_robin_indices(n: usize, warp_width: usize) -> impl Iterator<Item = usize> {
    let w = warp_width.max(1).min(n.max(1));
    (0..w).flat_map(move |p| (p..n).step_by(w))
}

/// `a op b` on two values of one type, as every block engine computes it:
/// wrapping integer arithmetic with i32 promoted through i64, shift
/// amounts taken mod 64, and a trap on integer division by zero.
pub fn bin_value(op: BinOp, a: Value, b: Value) -> Result<Value> {
    use BinOp::*;
    Ok(match (a, b) {
        (Value::F32(x), Value::F32(y)) => Value::F32(match op {
            Add => x + y,
            Sub => x - y,
            Mul => x * y,
            Div => x / y,
            Rem => x % y,
            Min => x.min(y),
            Max => x.max(y),
            _ => unreachable!("float {op:?} rejected by validation"),
        }),
        (Value::F64(x), Value::F64(y)) => Value::F64(match op {
            Add => x + y,
            Sub => x - y,
            Mul => x * y,
            Div => x / y,
            Rem => x % y,
            Min => x.min(y),
            Max => x.max(y),
            _ => unreachable!("float {op:?} rejected by validation"),
        }),
        (Value::I32(x), Value::I32(y)) => {
            Value::I32(int_bin(op, i64::from(x), i64::from(y))? as i32)
        }
        (Value::I64(x), Value::I64(y)) => Value::I64(int_bin(op, x, y)?),
        (Value::Bool(x), Value::Bool(y)) => Value::Bool(match op {
            And => x & y,
            Or => x | y,
            Xor => x ^ y,
            _ => unreachable!("bool {op:?} rejected by validation"),
        }),
        _ => unreachable!("operand type mismatch slipped past validation"),
    })
}

pub(crate) fn int_bin(op: BinOp, x: i64, y: i64) -> Result<i64> {
    use BinOp::*;
    Ok(match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        Div => {
            if y == 0 {
                return Err(SimError::Trap("integer division by zero".into()));
            }
            x.wrapping_div(y)
        }
        Rem => {
            if y == 0 {
                return Err(SimError::Trap("integer remainder by zero".into()));
            }
            x.wrapping_rem(y)
        }
        Min => x.min(y),
        Max => x.max(y),
        And => x & y,
        Or => x | y,
        Xor => x ^ y,
        Shl => x.wrapping_shl((y & 63) as u32),
        Shr => x.wrapping_shr((y & 63) as u32),
    })
}
