//! Device global memory.
//!
//! Backing store is a slab of `AtomicU64` words, so concurrently executing
//! blocks can read and write without locks and without data races (the
//! approach Rust Atomics and Locks teaches: make the unsynchronized
//! accesses atomic-relaxed instead of UB). Sub-word stores splice bytes via
//! `fetch_update`; kernel-visible atomics ([`GlobalMemory::atomic_rmw`])
//! use CAS loops on the containing word.
//!
//! Bulk transfers ([`GlobalMemory::write_bytes`] / [`GlobalMemory::read_bytes`])
//! move whole words: one relaxed store or load per word the range covers
//! entirely, and a masked `fetch_update` splice (or a byte extraction) only
//! for the at most two edge words it covers in part. That is
//! race-equivalent to a byte-at-a-time copy: a whole-word store writes only
//! bytes the copy overwrites anyway, and the splice keeps a concurrent
//! kernel store or atomic to an edge word's other bytes intact.
//!
//! Allocation is a simple first-fit free-list with 256-byte-aligned blocks
//! (real GPU allocators also hand out aligned slabs).

use crate::ir::{AtomicOp, Type, Value};
use crate::{Result, SimError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// A pointer into device global memory (byte offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevicePtr(pub u64);

impl DevicePtr {
    /// Pointer arithmetic in bytes.
    pub fn offset(self, bytes: u64) -> DevicePtr {
        DevicePtr(self.0 + bytes)
    }
}

/// Allocation granularity/alignment.
const ALIGN: u64 = 256;

#[derive(Debug, Clone, Copy)]
struct FreeBlock {
    start: u64,
    len: u64,
}

/// Device global memory: word-atomic slab + allocator.
pub struct GlobalMemory {
    words: Box<[AtomicU64]>,
    size: u64,
    free: Mutex<Vec<FreeBlock>>,
}

impl GlobalMemory {
    /// Create a memory of `size` bytes (rounded up to 8).
    pub fn new(size: u64) -> Self {
        let size = (size + 7) & !7;
        let nwords = (size / 8) as usize;
        // Go through `vec![0u64; n]`, which takes the zeroed-page
        // allocation path: a simulated 256 MB device then costs address
        // space, not physically touched pages, so bringing up many
        // devices at once (e.g. the gateway's shards) is cheap.
        // Constructing the words one `AtomicU64::new(0)` at a time
        // faults in every page up front — multi-second, sys-time-bound
        // construction on small machines.
        const _: () = assert!(
            std::mem::size_of::<AtomicU64>() == std::mem::size_of::<u64>()
                && std::mem::align_of::<AtomicU64>() == std::mem::align_of::<u64>()
        );
        let zeroed: Box<[u64]> = vec![0u64; nwords].into_boxed_slice();
        // SAFETY: `AtomicU64` has the same size, alignment, and bit
        // validity as `u64` (asserted above), and all-zero bits are the
        // valid value 0; the box's allocation is passed through unchanged.
        let words = unsafe { Box::from_raw(Box::into_raw(zeroed) as *mut [AtomicU64]) };
        Self { words, size, free: Mutex::new(vec![FreeBlock { start: 0, len: size }]) }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.size
    }

    /// Currently free bytes (sum over free list).
    pub fn free_bytes(&self) -> u64 {
        self.free.lock().iter().map(|b| b.len).sum()
    }

    /// Allocate `len` bytes; returns an aligned device pointer.
    pub fn alloc(&self, len: u64) -> Result<DevicePtr> {
        let want = ((len.max(1)) + ALIGN - 1) & !(ALIGN - 1);
        let mut free = self.free.lock();
        for i in 0..free.len() {
            if free[i].len >= want {
                let ptr = free[i].start;
                free[i].start += want;
                free[i].len -= want;
                if free[i].len == 0 {
                    free.remove(i);
                }
                return Ok(DevicePtr(ptr));
            }
        }
        Err(SimError::OutOfMemory { requested: want, available: free.iter().map(|b| b.len).sum() })
    }

    /// Free an allocation made by [`GlobalMemory::alloc`] with its original
    /// length. Coalesces adjacent free blocks.
    pub fn free(&self, ptr: DevicePtr, len: u64) {
        let want = ((len.max(1)) + ALIGN - 1) & !(ALIGN - 1);
        let mut free = self.free.lock();
        free.push(FreeBlock { start: ptr.0, len: want });
        free.sort_by_key(|b| b.start);
        let mut i = 0;
        while i + 1 < free.len() {
            if free[i].start + free[i].len == free[i + 1].start {
                free[i].len += free[i + 1].len;
                free.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }

    fn check(&self, addr: u64, len: u64) -> Result<()> {
        if addr.checked_add(len).is_none_or(|end| end > self.size) {
            return Err(SimError::OutOfBounds { addr, len });
        }
        Ok(())
    }

    fn check_aligned(&self, addr: u64, align: u64) -> Result<()> {
        if !addr.is_multiple_of(align) {
            return Err(SimError::Misaligned { addr, align });
        }
        Ok(())
    }

    /// Read a raw little-endian scalar of up to 8 bytes at a naturally
    /// aligned address. `pub(crate)` so the vectorized engine's typed
    /// load/store loops skip the `Value` round-trip while inheriting the
    /// exact bounds/alignment checks.
    pub(crate) fn read_raw(&self, addr: u64, len: u64) -> Result<u64> {
        self.check(addr, len)?;
        self.check_aligned(addr, len)?;
        Ok(self.get(addr, len))
    }

    /// Write a raw little-endian scalar of up to 8 bytes at a naturally
    /// aligned address. See [`GlobalMemory::read_raw`] on visibility.
    pub(crate) fn write_raw(&self, addr: u64, len: u64, value: u64) -> Result<()> {
        self.check(addr, len)?;
        self.check_aligned(addr, len)?;
        self.set(addr, len, value);
        Ok(())
    }

    /// Read `n` consecutive `width`-byte scalars from `addr` into
    /// `put(k, raw)` after one bounds check for the whole range: the
    /// vectorized engine's unit-stride loads, whose base its address form
    /// has already aligned to `width`. Nothing is read if the check fails.
    pub(crate) fn read_range(
        &self,
        addr: u64,
        width: u64,
        n: usize,
        mut put: impl FnMut(usize, u64),
    ) -> Result<()> {
        self.check(addr, width * n as u64)?;
        (0..n).for_each(|k| put(k, self.get(addr + k as u64 * width, width)));
        Ok(())
    }

    /// Write `value(k)` as scalar `k` of a range like
    /// [`GlobalMemory::read_range`]'s, after one bounds check for all of
    /// it. Nothing is written if the check fails.
    pub(crate) fn write_range(
        &self,
        addr: u64,
        width: u64,
        n: usize,
        value: impl Fn(usize) -> u64,
    ) -> Result<()> {
        self.check(addr, width * n as u64)?;
        (0..n).for_each(|k| self.set(addr + k as u64 * width, width, value(k)));
        Ok(())
    }

    /// The `len` bytes at `addr`, within one word, already checked.
    fn get(&self, addr: u64, len: u64) -> u64 {
        let word = self.words[(addr / 8) as usize].load(Ordering::Relaxed);
        let mask = if len == 8 { u64::MAX } else { (1 << (len * 8)) - 1 };
        (word >> ((addr % 8) * 8)) & mask
    }

    /// Store `value` as the `len` bytes at `addr`, within one word,
    /// already checked.
    fn set(&self, addr: u64, len: u64, value: u64) {
        if len == 8 {
            self.words[(addr / 8) as usize].store(value, Ordering::Relaxed);
        } else {
            self.splice(addr, len, value);
        }
    }

    /// Store the low `len` bytes of `value` at `addr` (1 ≤ `len` ≤ 8, all
    /// within one word) and leave the word's other bytes as they are: one
    /// masked `fetch_update`, so a concurrent store or atomic to those
    /// bytes survives. The caller has bounds-checked the range.
    fn splice(&self, addr: u64, len: u64, value: u64) {
        let shift = (addr % 8) * 8;
        let mask = (u64::MAX >> (64 - len * 8)) << shift;
        self.words[(addr / 8) as usize]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                Some((old & !mask) | ((value << shift) & mask))
            })
            .expect("fetch_update closure always returns Some");
    }

    /// Typed load.
    pub fn load(&self, ty: Type, addr: u64) -> Result<Value> {
        let raw = self.read_raw(addr, ty.size())?;
        Ok(decode(ty, raw))
    }

    /// Typed store.
    pub fn store(&self, addr: u64, value: Value) -> Result<()> {
        let ty = value.ty();
        self.write_raw(addr, ty.size(), encode(value))
    }

    /// Kernel-visible atomic read-modify-write. Returns the old value.
    pub fn atomic_rmw(&self, addr: u64, op: AtomicOp, operand: Value) -> Result<Value> {
        let len = operand.ty().size();
        self.check(addr, len)?;
        self.check_aligned(addr, len)?;
        let mut old = operand;
        self.words[(addr / 8) as usize]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |word| {
                let (new, prev) = rmw_lane(word, addr, op, operand);
                old = prev;
                Some(new)
            })
            .expect("fetch_update closure always returns Some");
        Ok(old)
    }

    /// Kernel-visible atomic read-modify-writes of a run of lanes whose
    /// `(address, operand)` pairs all lie in one 8-byte word, applied in
    /// order as one `fetch_update` on that word: the same result as one
    /// [`atomic_rmw`](Self::atomic_rmw) per lane with no other access
    /// between them. Lane `k`'s old value lands in `olds[k]`. Bounds and
    /// alignment are checked per lane first; if lane `k` fails, the
    /// lanes before it commit and lane `k`'s error is returned.
    pub(crate) fn atomic_rmw_run(
        &self,
        op: AtomicOp,
        run: &[(u64, Value)],
        olds: &mut [Value],
    ) -> Result<()> {
        let first_bad = run.iter().enumerate().find_map(|(k, &(addr, v))| {
            let len = v.ty().size();
            self.check(addr, len).and_then(|()| self.check_aligned(addr, len)).err().map(|e| (k, e))
        });
        let (run, result) = match first_bad {
            Some((k, e)) => (&run[..k], Err(e)),
            None => (run, Ok(())),
        };
        let Some(&(first, _)) = run.first() else { return result };
        debug_assert!(run.iter().all(|&(addr, _)| addr / 8 == first / 8), "run spans words");
        self.words[(first / 8) as usize]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |mut word| {
                for (&(addr, operand), old) in run.iter().zip(olds.iter_mut()) {
                    (word, *old) = rmw_lane(word, addr, op, operand);
                }
                Some(word)
            })
            .expect("fetch_update closure always returns Some");
        result
    }

    /// Host → device copy. Each word the range covers entirely takes one
    /// relaxed store; the at most two edge words it covers in part are
    /// spliced (see the module docs on why this is race-equivalent). An
    /// out-of-bounds copy writes nothing.
    pub fn write_bytes(&self, ptr: DevicePtr, data: &[u8]) -> Result<()> {
        self.check(ptr.0, data.len() as u64)?;
        let (head, body) = data.split_at(head_len(ptr.0, data.len()));
        self.write_edge(ptr.0, head);
        let chunks = body.chunks_exact(8);
        let tail = chunks.remainder();
        let first = ((ptr.0 + head.len() as u64) / 8) as usize;
        for (w, chunk) in self.words[first..].iter().zip(chunks) {
            let chunk = chunk.try_into().expect("chunks_exact yields 8-byte chunks");
            w.store(u64::from_le_bytes(chunk), Ordering::Relaxed);
        }
        self.write_edge(ptr.0 + (data.len() - tail.len()) as u64, tail);
        Ok(())
    }

    /// Device → host copy: one relaxed load per word the range touches.
    pub fn read_bytes(&self, ptr: DevicePtr, len: u64) -> Result<Vec<u8>> {
        self.check(ptr.0, len)?;
        let mut out = vec![0u8; len as usize];
        let (head, body) = out.split_at_mut(head_len(ptr.0, len as usize));
        self.read_edge(ptr.0, head);
        let first = ((ptr.0 + head.len() as u64) / 8) as usize;
        let mut chunks = body.chunks_exact_mut(8);
        for (w, chunk) in self.words[first..].iter().zip(&mut chunks) {
            chunk.copy_from_slice(&w.load(Ordering::Relaxed).to_le_bytes());
        }
        let tail = chunks.into_remainder();
        self.read_edge(ptr.0 + len - tail.len() as u64, tail);
        Ok(out)
    }

    /// Splice `bytes`, which lie within one word, in at `addr`.
    fn write_edge(&self, addr: u64, bytes: &[u8]) {
        if !bytes.is_empty() {
            let mut le = [0u8; 8];
            le[..bytes.len()].copy_from_slice(bytes);
            self.splice(addr, bytes.len() as u64, u64::from_le_bytes(le));
        }
    }

    /// Fill `out` from `addr`, whose range lies within one word.
    fn read_edge(&self, addr: u64, out: &mut [u8]) {
        if !out.is_empty() {
            let word = self.words[(addr / 8) as usize].load(Ordering::Relaxed).to_le_bytes();
            let lo = (addr % 8) as usize;
            out.copy_from_slice(&word[lo..lo + out.len()]);
        }
    }

    /// Device → device copy.
    pub fn copy_within(&self, src: DevicePtr, dst: DevicePtr, len: u64) -> Result<()> {
        let data = self.read_bytes(src, len)?;
        self.write_bytes(dst, &data)
    }
}

/// One lane's atomic `op` with `operand` at `addr` applied to `word`, the
/// 8-byte word holding it: the updated word and the lane's old value.
fn rmw_lane(word: u64, addr: u64, op: AtomicOp, operand: Value) -> (u64, Value) {
    let ty = operand.ty();
    let len = ty.size();
    let shift = (addr % 8) * 8;
    let mask = if len == 8 { u64::MAX } else { ((1u64 << (len * 8)) - 1) << shift };
    let old = decode(ty, (word & mask) >> shift);
    let new = match op {
        AtomicOp::Add => arith(old, operand, |a, b| a + b, |a, b| a.wrapping_add(b)),
        AtomicOp::Min => arith(old, operand, f64::min, i64::min),
        AtomicOp::Max => arith(old, operand, f64::max, i64::max),
        AtomicOp::Exch => operand,
    };
    ((word & !mask) | ((encode(new) << shift) & mask), old)
}

/// Length of a `len`-byte copy's head: the bytes at `addr` before the
/// first word boundary, or all of them if the copy ends first.
fn head_len(addr: u64, len: usize) -> usize {
    (((8 - addr % 8) % 8) as usize).min(len)
}

fn encode(v: Value) -> u64 {
    match v {
        Value::F32(x) => u64::from(x.to_bits()),
        Value::F64(x) => x.to_bits(),
        Value::I32(x) => u64::from(x as u32),
        Value::I64(x) => x as u64,
        Value::Bool(x) => u64::from(x),
    }
}

fn decode(ty: Type, raw: u64) -> Value {
    match ty {
        Type::F32 => Value::F32(f32::from_bits(raw as u32)),
        Type::F64 => Value::F64(f64::from_bits(raw)),
        Type::I32 => Value::I32(raw as u32 as i32),
        Type::I64 => Value::I64(raw as i64),
        Type::Bool => Value::Bool(raw != 0),
    }
}

/// Apply a float/int arithmetic closure pair on same-typed values.
fn arith(a: Value, b: Value, f: impl Fn(f64, f64) -> f64, i: impl Fn(i64, i64) -> i64) -> Value {
    match (a, b) {
        (Value::F32(x), Value::F32(y)) => Value::F32(f(f64::from(x), f64::from(y)) as f32),
        (Value::F64(x), Value::F64(y)) => Value::F64(f(x, y)),
        (Value::I32(x), Value::I32(y)) => Value::I32(i(i64::from(x), i64::from(y)) as i32),
        (Value::I64(x), Value::I64(y)) => Value::I64(i(x, y)),
        _ => unreachable!("atomic operand type mismatch slipped past validation"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn alloc_free_roundtrip() {
        let m = GlobalMemory::new(4096);
        assert_eq!(m.capacity(), 4096);
        let a = m.alloc(100).unwrap();
        let b = m.alloc(100).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.0 % ALIGN, 0);
        assert_eq!(b.0 % ALIGN, 0);
        m.free(a, 100);
        m.free(b, 100);
        assert_eq!(m.free_bytes(), 4096);
        // After coalescing we can allocate the whole thing.
        let c = m.alloc(4096).unwrap();
        assert_eq!(c.0, 0);
    }

    #[test]
    fn out_of_memory_reports_available() {
        let m = GlobalMemory::new(1024);
        let _a = m.alloc(512).unwrap();
        match m.alloc(1024) {
            Err(SimError::OutOfMemory { requested, available }) => {
                assert_eq!(requested, 1024);
                assert_eq!(available, 512);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn typed_load_store_roundtrip() {
        let m = GlobalMemory::new(256);
        m.store(0, Value::F32(1.5)).unwrap();
        m.store(4, Value::F32(-2.5)).unwrap();
        m.store(8, Value::F64(3.25)).unwrap();
        m.store(16, Value::I32(-7)).unwrap();
        m.store(24, Value::I64(i64::MIN)).unwrap();
        assert_eq!(m.load(Type::F32, 0).unwrap(), Value::F32(1.5));
        assert_eq!(m.load(Type::F32, 4).unwrap(), Value::F32(-2.5));
        assert_eq!(m.load(Type::F64, 8).unwrap(), Value::F64(3.25));
        assert_eq!(m.load(Type::I32, 16).unwrap(), Value::I32(-7));
        assert_eq!(m.load(Type::I64, 24).unwrap(), Value::I64(i64::MIN));
    }

    #[test]
    fn sub_word_stores_do_not_clobber_neighbors() {
        let m = GlobalMemory::new(64);
        m.store(0, Value::I32(0x1111_1111)).unwrap();
        m.store(4, Value::I32(0x2222_2222)).unwrap();
        m.store(0, Value::I32(-1)).unwrap();
        assert_eq!(m.load(Type::I32, 4).unwrap(), Value::I32(0x2222_2222));
    }

    #[test]
    fn bounds_and_alignment_enforced() {
        let m = GlobalMemory::new(64);
        assert!(matches!(m.load(Type::F64, 60), Err(SimError::OutOfBounds { .. })));
        assert!(matches!(m.load(Type::F64, 4), Err(SimError::Misaligned { .. })));
        assert!(matches!(m.store(2, Value::F32(0.0)), Err(SimError::Misaligned { .. })));
        assert!(matches!(m.store(64, Value::I32(0)), Err(SimError::OutOfBounds { .. })));
        // Address arithmetic overflow must not wrap.
        assert!(matches!(m.load(Type::F64, u64::MAX - 3), Err(SimError::OutOfBounds { .. })));
        // A bulk read is bounds-checked before its buffer is allocated.
        assert!(matches!(m.read_bytes(DevicePtr(8), u64::MAX), Err(SimError::OutOfBounds { .. })));
    }

    #[test]
    fn atomic_add_f32_and_i64() {
        let m = GlobalMemory::new(64);
        m.store(0, Value::F32(1.0)).unwrap();
        let old = m.atomic_rmw(0, AtomicOp::Add, Value::F32(2.5)).unwrap();
        assert_eq!(old, Value::F32(1.0));
        assert_eq!(m.load(Type::F32, 0).unwrap(), Value::F32(3.5));

        m.store(8, Value::I64(10)).unwrap();
        let old = m.atomic_rmw(8, AtomicOp::Add, Value::I64(-3)).unwrap();
        assert_eq!(old, Value::I64(10));
        assert_eq!(m.load(Type::I64, 8).unwrap(), Value::I64(7));
    }

    #[test]
    fn atomic_min_max_exch() {
        let m = GlobalMemory::new(64);
        m.store(0, Value::I32(5)).unwrap();
        m.atomic_rmw(0, AtomicOp::Min, Value::I32(3)).unwrap();
        assert_eq!(m.load(Type::I32, 0).unwrap(), Value::I32(3));
        m.atomic_rmw(0, AtomicOp::Max, Value::I32(9)).unwrap();
        assert_eq!(m.load(Type::I32, 0).unwrap(), Value::I32(9));
        let old = m.atomic_rmw(0, AtomicOp::Exch, Value::I32(42)).unwrap();
        assert_eq!(old, Value::I32(9));
        assert_eq!(m.load(Type::I32, 0).unwrap(), Value::I32(42));
    }

    #[test]
    fn atomic_run_equals_one_rmw_per_lane() {
        // Both i32 halves of one word, then an f64 cell: each run must
        // leave the memory and hand back the old values that per-lane
        // atomics in the same order do.
        let i32_run: Vec<(u64, Value)> = [(8, 3), (12, -4), (8, 5), (8, i32::MAX), (12, 7)]
            .map(|(a, v)| (a, Value::I32(v)))
            .into();
        let f64_run: Vec<(u64, Value)> =
            [0.1, 2.5e16, -0.3, 1.0].map(|v| (16, Value::F64(v))).into();
        for op in [AtomicOp::Add, AtomicOp::Min, AtomicOp::Max, AtomicOp::Exch] {
            for run in [&i32_run, &f64_run] {
                let (runs, lanes) = (GlobalMemory::new(64), GlobalMemory::new(64));
                for m in [&runs, &lanes] {
                    m.write_bytes(DevicePtr(0), &[0x5a; 24]).unwrap();
                }
                let mut olds = vec![Value::I32(0); run.len()];
                runs.atomic_rmw_run(op, run, &mut olds).unwrap();
                let want: Vec<Value> =
                    run.iter().map(|&(a, v)| lanes.atomic_rmw(a, op, v).unwrap()).collect();
                assert_eq!(olds, want, "{op:?}");
                assert_eq!(runs.read_bytes(DevicePtr(0), 64), lanes.read_bytes(DevicePtr(0), 64));
            }
        }
    }

    #[test]
    fn atomic_run_commits_the_lanes_before_a_failing_one() {
        // The last word of memory: a misaligned lane, then one that runs
        // past the end. Each error is the one the lane's own atomic
        // gives, after the lanes before it have committed.
        let m = GlobalMemory::new(64);
        let mut olds = [Value::I32(0); 3];
        let run = [(56, Value::I32(1)), (60, Value::I32(2)), (58, Value::I32(4))];
        let err = m.atomic_rmw_run(AtomicOp::Add, &run, &mut olds).unwrap_err();
        assert_eq!(err, SimError::Misaligned { addr: 58, align: 4 });
        assert_eq!(m.load(Type::I32, 56).unwrap(), Value::I32(1));
        assert_eq!(m.load(Type::I32, 60).unwrap(), Value::I32(2));
        let run = [(56, Value::I64(5)), (60, Value::I64(6))];
        let err = m.atomic_rmw_run(AtomicOp::Add, &run, &mut olds).unwrap_err();
        assert_eq!(err, SimError::OutOfBounds { addr: 60, len: 8 });
        assert_eq!(m.load(Type::I64, 56).unwrap(), Value::I64((2 << 32) + 1 + 5));
        // A failing first lane commits nothing.
        let err = m.atomic_rmw_run(AtomicOp::Exch, &[(64, Value::I32(9))], &mut olds);
        assert_eq!(err, Err(SimError::OutOfBounds { addr: 64, len: 4 }));
        assert_eq!(m.load(Type::I64, 56).unwrap(), Value::I64((2 << 32) + 6));
    }

    #[test]
    fn byte_copies_roundtrip_unaligned() {
        let m = GlobalMemory::new(256);
        let data: Vec<u8> = (0..100).collect();
        m.write_bytes(DevicePtr(3), &data).unwrap();
        assert_eq!(m.read_bytes(DevicePtr(3), 100).unwrap(), data);
        m.copy_within(DevicePtr(3), DevicePtr(128), 100).unwrap();
        assert_eq!(m.read_bytes(DevicePtr(128), 100).unwrap(), data);
    }

    /// The byte-at-a-time host → device copy the word path replaced: one
    /// spliced `fetch_update` per byte. Kept only as the reference the
    /// property tests below diff against.
    fn write_bytes_ref(m: &GlobalMemory, ptr: DevicePtr, data: &[u8]) -> Result<()> {
        m.check(ptr.0, data.len() as u64)?;
        for (i, &b) in data.iter().enumerate() {
            let addr = ptr.0 + i as u64;
            let w = &m.words[(addr / 8) as usize];
            let shift = (addr % 8) * 8;
            let mask = 0xFFu64 << shift;
            w.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                Some((old & !mask) | ((u64::from(b)) << shift))
            })
            .expect("fetch_update closure always returns Some");
        }
        Ok(())
    }

    /// The byte-at-a-time device → host reference: one load per byte.
    fn read_bytes_ref(m: &GlobalMemory, ptr: DevicePtr, len: u64) -> Result<Vec<u8>> {
        m.check(ptr.0, len)?;
        let mut out = Vec::with_capacity(len as usize);
        for i in 0..len {
            let addr = ptr.0 + i;
            let word = m.words[(addr / 8) as usize].load(Ordering::Relaxed);
            out.push((word >> ((addr % 8) * 8)) as u8);
        }
        Ok(out)
    }

    /// A memory holding exactly `fill` (a whole number of words), set
    /// straight on the slab so it does not depend on the copy paths.
    fn filled(fill: &[u8]) -> GlobalMemory {
        let m = GlobalMemory::new(fill.len() as u64);
        for (w, chunk) in m.words.iter().zip(fill.chunks_exact(8)) {
            w.store(u64::from_le_bytes(chunk.try_into().unwrap()), Ordering::Relaxed);
        }
        m
    }

    /// Every byte of `m`, read straight off the slab.
    fn snapshot(m: &GlobalMemory) -> Vec<u8> {
        m.words.iter().flat_map(|w| w.load(Ordering::Relaxed).to_le_bytes()).collect()
    }

    /// An in-bounds `(addr, len)` in a `size`-byte memory, of the shape
    /// `kind` picks: anywhere (so mostly an unaligned head and tail), zero
    /// length, within one word, or ending on the memory's last byte.
    fn in_bounds(size: u64, (kind, a, b): (u8, u64, u64)) -> (u64, u64) {
        match kind {
            0 => {
                let addr = a % (size + 1);
                (addr, b % (size - addr + 1))
            }
            1 => (a % (size + 1), 0),
            2 => {
                let addr = a % size;
                (addr, 1 + b % (8 - addr % 8))
            }
            _ => {
                let len = b % (size + 1);
                (size - len, len)
            }
        }
    }

    /// A `(addr, len)` with `addr + len` past the end of a `size`-byte
    /// memory: straddling the end, starting past it, or overflowing `u64`.
    fn out_of_bounds(size: u64, (kind, a, b): (u8, u64, u64)) -> (u64, u64) {
        let len = 1 + b % 64;
        match kind {
            0 => (size - a % len.min(size + 1), len),
            1 => (size + 1 + a % 64, b % 64),
            _ => (u64::MAX - a % len, len),
        }
    }

    /// Whether `r` is the `OutOfBounds` error for exactly `addr` and `len`.
    fn is_oob<T>(r: Result<T>, addr: u64, len: u64) -> bool {
        matches!(r, Err(SimError::OutOfBounds { addr: a, len: l }) if a == addr && l == len)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn word_copies_match_the_byte_reference(
            words in 1usize..40,
            fill in collection::vec(any::<u8>(), 320..321),
            payload in collection::vec(any::<u8>(), 320..321),
            write in (0u8..4, any::<u64>(), any::<u64>()),
            read in (0u8..4, any::<u64>(), any::<u64>()),
        ) {
            let fill = &fill[..words * 8];
            let size = fill.len() as u64;
            let (addr, len) = in_bounds(size, write);
            let data = &payload[..len as usize];
            let (word, byte) = (filled(fill), filled(fill));
            word.write_bytes(DevicePtr(addr), data).unwrap();
            write_bytes_ref(&byte, DevicePtr(addr), data).unwrap();
            prop_assert_eq!(snapshot(&word), snapshot(&byte));
            prop_assert_eq!(word.read_bytes(DevicePtr(addr), len).unwrap(), data);
            let (addr, len) = in_bounds(size, read);
            prop_assert_eq!(
                word.read_bytes(DevicePtr(addr), len).unwrap(),
                read_bytes_ref(&word, DevicePtr(addr), len).unwrap()
            );
        }

        #[test]
        fn out_of_bounds_copies_write_nothing(
            words in 1usize..40,
            fill in collection::vec(any::<u8>(), 320..321),
            range in (0u8..3, any::<u64>(), any::<u64>()),
        ) {
            let fill = &fill[..words * 8];
            let (addr, len) = out_of_bounds(fill.len() as u64, range);
            let m = filled(fill);
            let data = vec![0xA5; len as usize];
            prop_assert!(is_oob(m.write_bytes(DevicePtr(addr), &data), addr, len));
            prop_assert!(is_oob(write_bytes_ref(&m, DevicePtr(addr), &data), addr, len));
            prop_assert_eq!(snapshot(&m), fill);
            prop_assert!(is_oob(m.read_bytes(DevicePtr(addr), len), addr, len));
            prop_assert!(is_oob(read_bytes_ref(&m, DevicePtr(addr), len), addr, len));
        }
    }

    #[test]
    fn unaligned_copies_keep_concurrent_edge_atomics_exact() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        const ROUNDS: i32 = 50_000;
        const ADDERS: i32 = 2;
        // The copy covers bytes 4..20: its head word (bytes 0..8) holds the
        // counter at 0..4 and its tail word (16..24) the counter at 20..24.
        // The copy repeats for as long as the adders run.
        let m = GlobalMemory::new(64);
        let data: Vec<u8> = (1..=16).collect();
        let start = Barrier::new(ADDERS as usize + 1);
        let adders_done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                start.wait();
                while !adders_done.load(Ordering::SeqCst) {
                    m.write_bytes(DevicePtr(4), &data).unwrap();
                }
            });
            let adders: Vec<_> = (0..ADDERS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        for _ in 0..ROUNDS {
                            for addr in [0, 20] {
                                m.atomic_rmw(addr, AtomicOp::Add, Value::I32(1)).unwrap();
                            }
                        }
                    })
                })
                .collect();
            for adder in adders {
                adder.join().unwrap();
            }
            adders_done.store(true, Ordering::SeqCst);
            writer.join().unwrap();
        });
        assert_eq!(m.load(Type::I32, 0).unwrap(), Value::I32(ROUNDS * ADDERS));
        assert_eq!(m.load(Type::I32, 20).unwrap(), Value::I32(ROUNDS * ADDERS));
        assert_eq!(m.read_bytes(DevicePtr(4), 16).unwrap(), data);
    }

    #[test]
    fn concurrent_atomic_adds_are_exact() {
        use std::sync::Arc;
        let m = Arc::new(GlobalMemory::new(64));
        m.store(0, Value::I64(0)).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.atomic_rmw(0, AtomicOp::Add, Value::I64(1)).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.load(Type::I64, 0).unwrap(), Value::I64(4000));
    }
}
