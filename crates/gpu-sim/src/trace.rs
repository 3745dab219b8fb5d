//! Per-warp memory-access tracing.
//!
//! Both block engines can optionally record every **global-memory**
//! access a block performs: which lanes were active, which byte address
//! each lane touched, how wide the access was, and whether it was a
//! load, store, or atomic. The trace is the input to the coalescer and
//! cache models in [`crate::coalesce`] / [`crate::cache`] /
//! [`crate::memhier`]; it is *observational only* — recording a trace
//! never changes what a kernel computes, and the differential tests pin
//! output buffers byte-identical with tracing on or off.
//!
//! Design constraints:
//!
//! * **Near-zero overhead when off.** Interpreters carry an
//!   `Option<TraceScratch>`; the hot path pays one `is_some()` branch
//!   per memory instruction when tracing is disabled.
//! * **Zero per-access allocations when on.** A [`BlockTrace`] is a
//!   flat SoA arena — fixed-size access headers indexing into one
//!   shared lane/address pool — so recording a lane is two `Vec`
//!   pushes into buffers that amortize to their high-water mark and
//!   are recycled across launches via the device's [`ScratchPool`].
//! * **Affine accesses cost one header.** A full-mask access whose
//!   address register has an affine form (lane `i` at `base + i × stride`,
//!   the stride the access width or 0) is recorded without reading a lane
//!   by [`BlockTrace::push_affine`] as a single header
//!   holding `(base, stride, count)`, with nothing in the pools. The
//!   encoding is vendor-neutral: only the warp-width-parametric
//!   coalescer ([`crate::coalesce::coalesce_into`]) expands it, per
//!   vendor, into the same sector requests the lane records would
//!   produce. [`AccessView::lanes`] names the two forms ([`Lanes`]), so
//!   no consumer can read an affine access as an empty lane list.
//! * **Engine-equivalent.** The vectorized engine and the reference
//!   interpreter of the `mcmm-gpu-sim-ref` crate must describe the same
//!   accesses for the same launch. The reference records every access
//!   lane by lane: in ascending lane order for loads/stores and in the
//!   device's warp-round-robin commit order for atomics (the order both
//!   engines actually commit them in). The vectorized engine records the
//!   same lanes, except that it takes the affine form when the address's
//!   form is full-mask unit-stride or single-address; the coalescer maps
//!   both to identical requests.
//! * **Deterministic replay.** Blocks run on worker threads and finish
//!   in nondeterministic order; the shared-state stage sorts by block
//!   id first, so replay is stable run-to-run.
//!
//! The sink streams: because L1 is private per block,
//! [`TraceSink::finish_block`] runs coalescing + the L1 stage *on the
//! worker thread at block exit*, buffering only the far smaller
//! L2-request stream; [`TraceSink::finish`] then replays the
//! block-id-sorted streams through the shared L2. The memhier unit tests
//! pin this split to a serial walk of the whole launch, one sector at a
//! time, with bit-identical [`MemStats`].

use crate::cache::SectoredCache;
use crate::memhier::{replay_block_l1, replay_l2, BlockL2Stream, L1Scratch, MemHierSpec};
use crate::pool::ScratchPool;
use crate::MemStats;
use parking_lot::Mutex;
use std::sync::Arc;

/// What kind of access a trace entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Global-memory load.
    Load,
    /// Global-memory store.
    Store,
    /// Global-memory read-modify-write (bypasses L1, served by L2).
    Atomic,
}

/// One access's header in the flat trace encoding: its kind, width,
/// the end of its lane range in the block's lane/address pools (the
/// start is the previous header's end; an affine access's range is
/// empty), and the affine form, if the access took it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AccessHeader {
    kind: AccessKind,
    width: u32,
    end: u32,
    affine: Option<Affine>,
}

/// A full-mask access in affine form: lane `i` of `0..count` touched
/// byte address `base + i × stride`, where the stride is the access
/// width (unit stride) or 0 (every lane on one address) and `base` is
/// aligned to the width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Affine {
    /// Lane 0's byte address.
    pub base: u64,
    /// Byte distance between consecutive lanes: the width or 0.
    pub stride: u64,
    /// Number of lanes, `0..count` (the whole block).
    pub count: u32,
}

/// All traced accesses of one block, in program order, as a flat SoA
/// arena: headers index ranges of the shared lane/address pools.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockTrace {
    /// Linear block id within the launch.
    pub block: u32,
    headers: Vec<AccessHeader>,
    lanes: Vec<u32>,
    addrs: Vec<u64>,
}

/// A borrowed view of one recorded access: its kind, width, and the
/// lanes it touched, in whichever form they were recorded.
#[derive(Debug, Clone, Copy)]
pub struct AccessView<'a> {
    /// Load, store, or atomic.
    pub kind: AccessKind,
    /// Access width in bytes per lane (1, 4, or 8 today).
    pub width: u32,
    /// The lanes and the byte address each one touched.
    pub lanes: Lanes<'a>,
}

/// The two encodings of an access's lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lanes<'a> {
    /// One header for the whole block (see [`Affine`]).
    Affine(Affine),
    /// One record per active lane, as parallel slices.
    PerLane {
        /// Lane index within the block, per recorded lane. Ascending
        /// for loads/stores; warp-round-robin commit order for atomics.
        lanes: &'a [u32],
        /// Byte address per recorded lane, parallel to `lanes`.
        addrs: &'a [u64],
    },
}

impl AccessView<'_> {
    /// Number of lanes the access touched.
    pub fn lane_count(&self) -> u64 {
        match self.lanes {
            Lanes::Affine(a) => u64::from(a.count),
            Lanes::PerLane { lanes, .. } => lanes.len() as u64,
        }
    }
}

impl BlockTrace {
    /// An empty trace for the given block.
    pub fn new(block: u32) -> Self {
        Self { block, ..Self::default() }
    }

    /// Record one lane of the access currently being assembled.
    #[inline]
    pub fn push_lane(&mut self, lane: u32, addr: u64) {
        self.lanes.push(lane);
        self.addrs.push(addr);
    }

    /// Seal the access currently being assembled. A no-op if no lanes
    /// were pushed since the last seal (inactive warps trace nothing).
    #[inline]
    pub fn end_access(&mut self, kind: AccessKind, width: u32) {
        let end = self.lanes.len() as u32;
        if end > self.sealed() {
            self.headers.push(AccessHeader { kind, width, end, affine: None });
        }
    }

    /// Record a whole access in affine form, as one header with nothing
    /// in the lane/address pools. A no-op for zero lanes. Must not be
    /// called while an access is being assembled lane by lane.
    #[inline]
    pub fn push_affine(&mut self, kind: AccessKind, width: u32, affine: Affine) {
        let end = self.sealed();
        debug_assert_eq!(end as usize, self.lanes.len(), "push_affine inside a per-lane access");
        debug_assert!(affine.stride == 0 || affine.stride == u64::from(width));
        debug_assert!(affine.base.is_multiple_of(u64::from(width)));
        debug_assert!(u64::from(affine.count)
            .checked_mul(affine.stride)
            .and_then(|span| span.checked_add(affine.base))
            .is_some());
        if affine.count > 0 {
            self.headers.push(AccessHeader { kind, width, end, affine: Some(affine) });
        }
    }

    /// End of the last sealed access's range in the lane/address pools.
    fn sealed(&self) -> u32 {
        self.headers.last().map_or(0, |h| h.end)
    }

    /// The block's accesses in the order it issued them.
    pub fn accesses(&self) -> impl Iterator<Item = AccessView<'_>> {
        self.headers.iter().scan(0usize, |start, h| {
            let range = *start..h.end as usize;
            *start = h.end as usize;
            let lanes = match h.affine {
                Some(a) => Lanes::Affine(a),
                None => {
                    Lanes::PerLane { lanes: &self.lanes[range.clone()], addrs: &self.addrs[range] }
                }
            };
            Some(AccessView { kind: h.kind, width: h.width, lanes })
        })
    }

    /// Number of sealed accesses.
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// Whether the block recorded no accesses.
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// Forget all recorded accesses but keep the arena's capacity (for
    /// scratch reuse across blocks and launches).
    pub fn clear(&mut self) {
        self.block = 0;
        self.headers.clear();
        self.lanes.clear();
        self.addrs.clear();
    }
}

/// Per-worker reusable tracing state: the block's trace arena plus the
/// L1-stage scratch (cache, coalescer buffers) the sink replays it with
/// at block exit. Pooled on the device so its buffers
/// survive across blocks *and* launches at their high-water mark.
#[derive(Debug, Default)]
pub struct TraceScratch {
    /// The arena the executing block records into.
    pub trace: BlockTrace,
    l1: L1Scratch,
}

/// Launch-wide collector blocks record into.
///
/// Block engines call [`begin_block`](Self::begin_block) when a traced
/// block starts and [`finish_block`](Self::finish_block) when it exits;
/// the device calls [`finish`](Self::finish) after the block phase to
/// obtain the launch's [`MemStats`]. A block that fails mid-flight
/// simply drops its scratch — the trace of a failed launch is never
/// consumed (the launch as a whole errors before replay).
#[derive(Debug)]
pub struct TraceSink {
    spec: MemHierSpec,
    warp_width: u32,
    scratch: Arc<ScratchPool<TraceScratch>>,
    /// Device-owned slot recycling the shared-L2 cache between launches
    /// (its line array runs to megabytes).
    l2_slot: Arc<Mutex<Option<SectoredCache>>>,
    /// Per-block L2-request streams awaiting the shared L2 stage.
    streams: Mutex<Vec<BlockL2Stream>>,
}

impl TraceSink {
    /// A sink drawing per-worker scratch from `scratch` and the shared-L2
    /// cache from `l2_slot` (pass the device's pool and slot so buffers
    /// persist across launches).
    pub fn new(
        spec: MemHierSpec,
        warp_width: u32,
        scratch: Arc<ScratchPool<TraceScratch>>,
        l2_slot: Arc<Mutex<Option<SectoredCache>>>,
    ) -> Self {
        Self { spec, warp_width, scratch, l2_slot, streams: Mutex::new(Vec::new()) }
    }

    /// Hand out a (recycled) scratch for a block that is starting.
    pub fn begin_block(&self, block: u32) -> TraceScratch {
        let mut s = self.scratch.acquire();
        s.trace.block = block;
        s
    }

    /// Flush one finished block. Called once per block, at exit, on the
    /// worker thread that ran the block: this is where coalescing and the
    /// private-L1 stage happen — in parallel across workers — leaving
    /// only the L2-request stream buffered.
    pub fn finish_block(&self, mut scratch: TraceScratch) {
        let stream = replay_block_l1(&self.spec, self.warp_width, &scratch.trace, &mut scratch.l1);
        self.streams.lock().push(stream);
        scratch.trace.clear();
        self.scratch.release(scratch);
    }

    /// Replay whatever reached the sink into the launch's [`MemStats`].
    /// Deterministic: same launch ⇒ same stats, whatever order its blocks
    /// finished in.
    pub fn finish(self) -> MemStats {
        let mut slot = self.l2_slot.lock();
        replay_l2(&self.spec, self.streams.into_inner(), &mut slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memhier::replay;

    fn one_load_trace(block: u32) -> BlockTrace {
        let mut t = BlockTrace::new(block);
        t.push_lane(0, u64::from(block) * 64);
        t.end_access(AccessKind::Load, 4);
        t
    }

    /// A sink with a private scratch pool and L2 slot.
    fn sink(spec: MemHierSpec, warp_width: u32) -> TraceSink {
        TraceSink::new(spec, warp_width, Arc::default(), Arc::default())
    }

    /// Record each trace into `sink` as a block would, in the given order.
    fn feed(sink: &TraceSink, traces: &[BlockTrace]) {
        for t in traces {
            let mut s = sink.begin_block(t.block);
            s.trace = t.clone();
            sink.finish_block(s);
        }
    }

    #[test]
    fn sink_replays_out_of_order_blocks_in_block_order() {
        // A one-set, two-way L2, and blocks 0–3 loading lines 0, 0x1000,
        // 0x2000 and 0 again. In block order, block 2 evicts line 0 and
        // block 3 misses it; in the order the blocks finish here
        // (3, 0, 2, 1), block 0 would hit it.
        let spec = MemHierSpec {
            l1_bytes: 128,
            l1_ways: 1,
            l2_bytes: 256,
            l2_ways: 2,
            ..MemHierSpec::nvidia_a100()
        };
        let traces: Vec<BlockTrace> = (0..4u32)
            .zip([0, 0x1000, 0x2000, 0])
            .map(|(block, addr)| {
                let mut t = BlockTrace::new(block);
                t.push_lane(0, addr);
                t.end_access(AccessKind::Load, 4);
                t
            })
            .collect();
        let want = replay(&spec, 32, &traces);
        assert_eq!((want.l2_hits, want.l2_misses), (0, 4));
        let s = sink(spec, 32);
        feed(&s, &[3, 0, 2, 1].map(|b| traces[b].clone()));
        assert_eq!(s.finish(), want);
    }

    #[test]
    fn empty_sink_replays_to_zero_stats() {
        assert_eq!(sink(MemHierSpec::nvidia_a100(), 32).finish(), MemStats::default());
    }

    #[test]
    fn arena_round_trips_accesses_in_program_order() {
        let mut t = BlockTrace::new(7);
        t.push_lane(0, 0);
        t.push_lane(1, 8);
        t.end_access(AccessKind::Load, 8);
        t.push_lane(3, 160);
        t.end_access(AccessKind::Store, 4);
        t.push_lane(0, 256);
        t.end_access(AccessKind::Atomic, 8);
        let views: Vec<_> = t.accesses().collect();
        assert_eq!(t.len(), 3);
        assert_eq!(views[0].kind, AccessKind::Load);
        assert_eq!(views[0].width, 8);
        assert_eq!(views[0].lanes, Lanes::PerLane { lanes: &[0, 1], addrs: &[0, 8] });
        assert_eq!(views[1].kind, AccessKind::Store);
        assert_eq!(views[1].lanes, Lanes::PerLane { lanes: &[3], addrs: &[160] });
        assert_eq!(views[2].kind, AccessKind::Atomic);
        assert_eq!(views[2].lanes, Lanes::PerLane { lanes: &[0], addrs: &[256] });
    }

    #[test]
    fn affine_headers_interleave_with_per_lane_accesses() {
        let unit = Affine { base: 1024, stride: 8, count: 256 };
        let single = Affine { base: 64, stride: 0, count: 256 };
        let mut t = BlockTrace::new(1);
        t.push_affine(AccessKind::Load, 8, unit);
        t.push_lane(2, 40);
        t.push_lane(5, 16);
        t.end_access(AccessKind::Atomic, 4);
        t.push_affine(AccessKind::Atomic, 8, single);
        // Zero lanes record nothing, in either form.
        t.push_affine(AccessKind::Store, 8, Affine { count: 0, ..unit });
        t.end_access(AccessKind::Store, 8);
        t.push_lane(0, 8);
        t.end_access(AccessKind::Store, 4);
        assert_eq!(t.lanes.len(), 3, "affine accesses leave the pools alone");
        let views: Vec<_> = t.accesses().collect();
        let forms: Vec<_> = views.iter().map(|v| (v.kind, v.width, v.lanes)).collect();
        assert_eq!(
            forms,
            vec![
                (AccessKind::Load, 8, Lanes::Affine(unit)),
                (AccessKind::Atomic, 4, Lanes::PerLane { lanes: &[2, 5], addrs: &[40, 16] }),
                (AccessKind::Atomic, 8, Lanes::Affine(single)),
                (AccessKind::Store, 4, Lanes::PerLane { lanes: &[0], addrs: &[8] }),
            ]
        );
        let counts: Vec<u64> = views.iter().map(AccessView::lane_count).collect();
        assert_eq!(counts, vec![256, 2, 256, 1]);
    }

    #[test]
    fn empty_access_records_no_header() {
        let mut t = BlockTrace::new(0);
        t.end_access(AccessKind::Load, 8);
        assert!(t.is_empty());
        t.push_lane(5, 40);
        t.end_access(AccessKind::Store, 8);
        // Sealing again without new lanes must not duplicate the header.
        t.end_access(AccessKind::Load, 4);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn clear_keeps_capacity_but_forgets_contents() {
        let mut t = one_load_trace(9);
        let cap = (t.headers.capacity(), t.lanes.capacity(), t.addrs.capacity());
        t.clear();
        assert!(t.is_empty() && t.block == 0);
        assert!(t.headers.capacity() >= cap.0 && t.lanes.capacity() >= cap.1);
        assert!(t.addrs.capacity() >= cap.2);
    }

    #[test]
    fn sink_matches_the_serial_reference() {
        // Three blocks of 64 unit-stride f64 loads that share L2 lines
        // (each block starts 256 B after the last), finishing out of
        // order, through one sink whose scratch is reused across blocks.
        let spec = MemHierSpec::nvidia_a100();
        let traces: Vec<BlockTrace> = (0..3u32)
            .map(|block| {
                let mut t = BlockTrace::new(block);
                for l in 0..64u32 {
                    t.push_lane(l, u64::from(l) * 8 + u64::from(block) * 256);
                }
                t.end_access(AccessKind::Load, 8);
                t
            })
            .collect();
        let s = sink(spec, 32);
        feed(&s, &[2, 0, 1].map(|b| traces[b].clone()));
        assert_eq!(s.finish(), replay(&spec, 32, &traces));
    }
}
