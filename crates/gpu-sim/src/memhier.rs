//! The per-vendor memory hierarchy: coalescer → L1 → L2 → DRAM.
//!
//! [`replay_block_l1`] and [`replay_l2`] drive a launch's access trace
//! ([`crate::trace`]) through the width-parametric coalescer
//! ([`crate::coalesce`]) and two levels of sectored cache
//! ([`crate::cache`]), producing [`MemStats`] — the
//! hit/miss/transaction/DRAM-sector counts the trace-driven timing tier
//! uses to refine `kernel_time`, and the numbers the benchmark reports
//! surface as L1/L2 hit rates and sector utilization.
//!
//! The model (documented simplifications included):
//!
//! * **Per-block L1, shared L2.** Each block replays against a fresh L1
//!   (real GPUs give each CU a private L1 and blocks rarely share one);
//!   all blocks share one L2 in block-id order. This keeps the replay
//!   deterministic regardless of how the worker threads interleaved blocks.
//! * **MSHR merging within a warp.** Lane accesses that coalesce into an
//!   already-pending sector transaction count as `mshr_merges` — the
//!   within-warp expression of miss-status-holding-register combining.
//! * **Atomics bypass L1** and are served read-modify-write by L2, as on
//!   real hardware.
//! * **Write policies.** Write-allocate L1s fill a partially-covered
//!   store miss from L2 but allocate fully-covered sectors dirty without
//!   a fill; AMD's write-through L1 forwards every store to L2 (updating
//!   a resident copy in place). Dirty L1 sectors flush to L2 at block
//!   exit; dirty L2 sectors flush to DRAM at launch exit.

use crate::cache::SectoredCache;
use crate::coalesce::{coalesce_into, CoalesceScratch, SectorReq};
use crate::trace::{AccessKind, BlockTrace};

/// Cache-hierarchy geometry and latencies of one device, the
/// `DeviceSpec::memhier` field. Values for the presets follow public
/// per-vendor specs, with L2 capacities sim-scaled alongside
/// `mem_bytes`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemHierSpec {
    /// Memory-transaction granule in bytes (32 on NVIDIA, 64 on
    /// AMD/Intel) — the coalescer's sector size and both caches' fill
    /// granule.
    pub sector_bytes: u64,
    /// L1 capacity in bytes.
    pub l1_bytes: u64,
    /// L1 line size in bytes.
    pub l1_line_bytes: u64,
    /// L1 associativity.
    pub l1_ways: u32,
    /// Whether the L1 allocates on store misses (false = write-through
    /// no-allocate, the CDNA2 vector L1 policy).
    pub l1_write_alloc: bool,
    /// L2 capacity in bytes (sim-scaled).
    pub l2_bytes: u64,
    /// L2 line size in bytes.
    pub l2_line_bytes: u64,
    /// L2 associativity.
    pub l2_ways: u32,
    /// L1 hit latency (nanoseconds).
    pub l1_latency_ns: f64,
    /// L2 hit latency (nanoseconds).
    pub l2_latency_ns: f64,
    /// DRAM access latency (nanoseconds).
    pub dram_latency_ns: f64,
    /// Aggregate L2 bandwidth (GB/s), the bound on L1-miss traffic.
    pub l2_gbps: f64,
}

impl MemHierSpec {
    /// NVIDIA A100-flavored hierarchy: 32B sectors in 128B lines,
    /// 128 KiB/SM L1, write-allocate; 8 MiB L2 (sim-scaled from 40 MiB).
    pub fn nvidia_a100() -> Self {
        Self {
            sector_bytes: 32,
            l1_bytes: 128 << 10,
            l1_line_bytes: 128,
            l1_ways: 4,
            l1_write_alloc: true,
            l2_bytes: 8 << 20,
            l2_line_bytes: 128,
            l2_ways: 16,
            l1_latency_ns: 30.0,
            l2_latency_ns: 150.0,
            dram_latency_ns: 350.0,
            l2_gbps: 4830.0,
        }
    }

    /// AMD MI250X (one GCD): 64B lines, 16 KiB write-through vector L1;
    /// 4 MiB L2 (sim-scaled from 8 MiB).
    pub fn amd_mi250x() -> Self {
        Self {
            sector_bytes: 64,
            l1_bytes: 16 << 10,
            l1_line_bytes: 64,
            l1_ways: 4,
            l1_write_alloc: false,
            l2_bytes: 4 << 20,
            l2_line_bytes: 64,
            l2_ways: 16,
            l1_latency_ns: 60.0,
            l2_latency_ns: 220.0,
            dram_latency_ns: 380.0,
            l2_gbps: 4096.0,
        }
    }

    /// Intel Ponte Vecchio: 64B lines, 512 KiB L1 per Xe-core slice,
    /// write-allocate; 16 MiB L2 (sim-scaled from 2×204 MiB).
    pub fn intel_pvc() -> Self {
        Self {
            sector_bytes: 64,
            l1_bytes: 512 << 10,
            l1_line_bytes: 64,
            l1_ways: 8,
            l1_write_alloc: true,
            l2_bytes: 16 << 20,
            l2_line_bytes: 64,
            l2_ways: 16,
            l1_latency_ns: 40.0,
            l2_latency_ns: 200.0,
            dram_latency_ns: 360.0,
            l2_gbps: 3686.0,
        }
    }
}

/// Memory-hierarchy statistics for one launch (or, via [`merged`],
/// summed over many launches).
///
/// Invariants the differential tests pin: `l1_hits + l1_misses` equals
/// the non-atomic transaction count, `l2_hits + l2_misses` equals
/// `l2_accesses`, and `bytes_covered ≤ transactions × sector_bytes`.
///
/// [`merged`]: MemStats::merged
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Lane-level global-memory accesses (one per active lane per
    /// memory instruction).
    pub requests: u64,
    /// Coalesced sector transactions issued by warps.
    pub transactions: u64,
    /// Lane requests absorbed into an already-pending sector
    /// transaction of the same warp (MSHR-style combining).
    pub mshr_merges: u64,
    /// L1 transactions that hit.
    pub l1_hits: u64,
    /// L1 transactions that missed (write-through stores count here).
    pub l1_misses: u64,
    /// Sector requests reaching L2 (L1 misses + L1 writebacks + atomics).
    pub l2_accesses: u64,
    /// L2 accesses that hit.
    pub l2_hits: u64,
    /// L2 accesses that missed.
    pub l2_misses: u64,
    /// Sectors moved between L2 and DRAM (fills + writebacks).
    pub dram_sectors: u64,
    /// Bytes moved between L2 and DRAM.
    pub dram_bytes: u64,
    /// Bytes the kernel's lanes asked for (Σ lanes × width).
    pub bytes_requested: u64,
    /// Bytes of issued sectors actually covered by lane accesses.
    pub bytes_covered: u64,
}

impl MemStats {
    /// `l1_hits / (l1_hits + l1_misses)`, or 0 with no traffic.
    pub fn l1_hit_rate(&self) -> f64 {
        ratio(self.l1_hits, self.l1_hits + self.l1_misses)
    }

    /// `l2_hits / l2_accesses`, or 0 with no traffic.
    pub fn l2_hit_rate(&self) -> f64 {
        ratio(self.l2_hits, self.l2_accesses)
    }

    /// Fraction of transaction bytes the kernel actually used —
    /// 1.0 for a perfectly coalesced stream, `width / sector_bytes`
    /// for a wide-strided gather.
    pub fn sector_utilization(&self) -> f64 {
        let moved: u64 = self.transactions * self.sector_bytes_inferred();
        ratio(self.bytes_covered, moved)
    }

    /// Field-wise sum (for sweep/cumulative aggregation).
    #[must_use]
    pub fn merged(&self, other: Self) -> Self {
        Self {
            requests: self.requests + other.requests,
            transactions: self.transactions + other.transactions,
            mshr_merges: self.mshr_merges + other.mshr_merges,
            l1_hits: self.l1_hits + other.l1_hits,
            l1_misses: self.l1_misses + other.l1_misses,
            l2_accesses: self.l2_accesses + other.l2_accesses,
            l2_hits: self.l2_hits + other.l2_hits,
            l2_misses: self.l2_misses + other.l2_misses,
            dram_sectors: self.dram_sectors + other.dram_sectors,
            dram_bytes: self.dram_bytes + other.dram_bytes,
            bytes_requested: self.bytes_requested + other.bytes_requested,
            bytes_covered: self.bytes_covered + other.bytes_covered,
        }
    }

    /// The sector size the stats were produced under, recovered from
    /// the DRAM accounting (every DRAM sector moves `sector_bytes`).
    /// Falls back to 32 when no DRAM traffic occurred.
    fn sector_bytes_inferred(&self) -> u64 {
        self.dram_bytes.checked_div(self.dram_sectors).unwrap_or(32)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Distinct sectors of one line in ascending order, gathered from
/// consecutive requests of one kind: what one of [`SectoredCache`]'s run
/// calls serves with a single probe.
#[derive(Debug, Clone, Copy)]
struct LineRun {
    line: u64,
    /// Line-relative sector bits (see [`SectoredCache::locate`]).
    sectors: u64,
    /// The sectors whose every byte was written.
    full: u64,
}

impl LineRun {
    /// The run of the one sector at `addr` of `cache`.
    fn new(cache: &SectoredCache, addr: u64, full: bool) -> Self {
        let (line, bit) = cache.locate(addr);
        Self { line, sectors: bit, full: if full { bit } else { 0 } }
    }

    /// Append the sector at `addr` if it continues the run: same line,
    /// above every sector so far. A repeated sector does not (it must see
    /// what the run did to it), so it starts the next run.
    fn join(&mut self, cache: &SectoredCache, addr: u64, full: bool) -> bool {
        let (line, bit) = cache.locate(addr);
        let joins = line == self.line && bit > self.sectors;
        if joins {
            self.sectors |= bit;
            if full {
                self.full |= bit;
            }
        }
        joins
    }
}

/// L2 + DRAM accounting shared by every block of a replay.
struct Shared {
    l2: SectoredCache,
    stats: MemStats,
    sector_bytes: u64,
    /// Scratch for one run's writebacks, which DRAM only counts.
    evicted: Vec<u64>,
}

impl Shared {
    fn new(l2: SectoredCache, sector_bytes: u64) -> Self {
        Self { l2, stats: MemStats::default(), sector_bytes, evicted: Vec::new() }
    }

    fn dram(&mut self, sectors: u64) {
        self.stats.dram_sectors += sectors;
        self.stats.dram_bytes += sectors * self.sector_bytes;
    }

    /// A run of fill reads (`write` false) or of writes — stores,
    /// writebacks, atomics — arriving at L2. Writes allocate, and fully
    /// covered sectors (writebacks, full write-through stores) allocate
    /// without a DRAM fill.
    fn l2_run(&mut self, write: bool, run: LineRun) {
        let LineRun { line, sectors, full } = run;
        let out = if write {
            self.l2.write_run(line, sectors, full, &mut self.evicted)
        } else {
            self.l2.read_run(line, sectors, &mut self.evicted)
        };
        let (count, hits) = (u64::from(sectors.count_ones()), u64::from(out.hits.count_ones()));
        self.stats.l2_accesses += count;
        self.stats.l2_hits += hits;
        self.stats.l2_misses += count - hits;
        self.dram(u64::from(out.fills.count_ones()) + self.evicted.len() as u64);
        self.evicted.clear();
    }

    /// One L2-bound request on its own, as the serial reference serves
    /// them.
    #[cfg(test)]
    fn l2_req(&mut self, req: L2Req) {
        self.l2_run(req.is_write(), LineRun::new(&self.l2, req.sector(), req.full_cover()));
    }

    /// Launch exit: dirty L2 sectors drain to DRAM.
    fn finish(mut self) -> (MemStats, SectoredCache) {
        let dirty = self.l2.flush_dirty_count();
        self.dram(dirty);
        (self.stats, self.l2)
    }
}

/// Drive one L1 line run of an access of `kind`, and append the L2-bound
/// requests it causes to `out` in the order its sectors would cause them
/// one at a time: the first sector's fill, the writebacks of the line it
/// evicted, then the other sectors' fills. `evicted` is scratch for those
/// writebacks.
fn l1_run(
    spec: &MemHierSpec,
    l1: &mut SectoredCache,
    kind: AccessKind,
    run: LineRun,
    stats: &mut MemStats,
    evicted: &mut Vec<u64>,
    out: &mut Vec<L2Req>,
) {
    let LineRun { line, sectors, full } = run;
    let count = u64::from(sectors.count_ones());
    let o = match kind {
        AccessKind::Load => l1.read_run(line, sectors, evicted),
        AccessKind::Store if spec.l1_write_alloc => l1.write_run(line, sectors, full, evicted),
        AccessKind::Store => {
            // Write-through no-allocate: L2 serves the store; resident
            // L1 copies are refreshed in place, clean.
            l1.touch_run(line, sectors);
            stats.l1_misses += count;
            for sector in l1.sectors(line, sectors) {
                out.push(L2Req::write(sector, full & l1.locate(sector).1 != 0));
            }
            return;
        }
        AccessKind::Atomic => {
            // Atomics bypass L1: read-modify-write in L2.
            out.extend(l1.sectors(line, sectors).map(|s| L2Req::write(s, false)));
            return;
        }
    };
    let hits = u64::from(o.hits.count_ones());
    stats.l1_hits += hits;
    stats.l1_misses += count - hits;
    // Only the first sector can miss the line, so every writeback
    // follows its fill and precedes the rest.
    let first = if evicted.is_empty() { 0 } else { sectors & sectors.wrapping_neg() };
    for sector in l1.sectors(line, o.fills & first) {
        out.push(L2Req::read(sector));
    }
    for &sector in evicted.iter() {
        out.push(L2Req::write(sector, true));
    }
    evicted.clear();
    for sector in l1.sectors(line, o.fills & !first) {
        out.push(L2Req::read(sector));
    }
}

/// Replay a launch trace through the hierarchy, producing its
/// [`MemStats`]: the serial **reference** the unit tests diff the
/// streaming split against. Every block's full trace walks the
/// coalescer, a fresh private L1, and the shared L2 on one thread, in
/// the order of `blocks`, one sector request at a time, whereas the split
/// ([`replay_block_l1`] per block on the workers + [`replay_l2`] once at
/// launch exit) serves line runs.
#[cfg(test)]
pub(crate) fn replay(spec: &MemHierSpec, warp_width: u32, blocks: &[BlockTrace]) -> MemStats {
    let l2 = SectoredCache::new(spec.l2_bytes, spec.l2_line_bytes, spec.l2_ways, spec.sector_bytes);
    let mut shared = Shared::new(l2, spec.sector_bytes);
    let (mut evicted, mut l2_reqs) = (Vec::new(), Vec::new());
    for block in blocks {
        let mut l1 =
            SectoredCache::new(spec.l1_bytes, spec.l1_line_bytes, spec.l1_ways, spec.sector_bytes);
        for access in block.accesses() {
            let reqs = crate::coalesce::coalesce(&access, warp_width, spec.sector_bytes);
            let lanes = access.lane_count();
            shared.stats.requests += lanes;
            shared.stats.bytes_requested += lanes * u64::from(access.width);
            shared.stats.transactions += reqs.len() as u64;
            for req in &reqs {
                shared.stats.mshr_merges += u64::from(req.lanes.saturating_sub(1));
                shared.stats.bytes_covered += req.covered_bytes();
                let run = LineRun::new(&l1, req.addr, req.full(spec.sector_bytes));
                l1_run(
                    spec,
                    &mut l1,
                    access.kind,
                    run,
                    &mut shared.stats,
                    &mut evicted,
                    &mut l2_reqs,
                );
                for req in l2_reqs.drain(..) {
                    shared.l2_req(req);
                }
            }
        }
        // Block exit: dirty L1 sectors drain to L2 as full-sector writes.
        l1.flush_dirty(|sector| shared.l2_req(L2Req::write(sector, true)));
    }
    shared.finish().0
}

/// One L2-bound sector request emitted by the per-block L1 stage,
/// packed into a single word: sector addresses are ≥ 32-byte aligned,
/// so the low bits carry the request kind. Bit 0 = write (vs fill
/// read), bit 1 = full sector cover (write-combining, no fill).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Req(u64);

impl L2Req {
    const WRITE: u64 = 1 << 0;
    const FULL: u64 = 1 << 1;

    /// A fill read of `sector`.
    pub fn read(sector: u64) -> Self {
        debug_assert_eq!(sector & 31, 0);
        Self(sector)
    }

    /// A store or writeback of `sector`; `full` = every byte covered.
    pub fn write(sector: u64, full: bool) -> Self {
        debug_assert_eq!(sector & 31, 0);
        Self(sector | Self::WRITE | if full { Self::FULL } else { 0 })
    }

    /// The sector-aligned address.
    pub fn sector(self) -> u64 {
        self.0 & !(Self::WRITE | Self::FULL)
    }

    /// Whether this is a write (store/writeback) rather than a fill.
    pub fn is_write(self) -> bool {
        self.0 & Self::WRITE != 0
    }

    /// Whether the write covered the whole sector.
    pub fn full_cover(self) -> bool {
        self.0 & Self::FULL != 0
    }
}

/// What survives a block after its private L1 stage: the (far smaller)
/// ordered stream of requests that reached L2, plus the block's
/// contribution to the launch-commutative stat fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockL2Stream {
    /// Linear block id — [`replay_l2`] sorts on it for determinism.
    pub block: u32,
    /// L2-bound requests in the block's program order.
    pub reqs: Vec<L2Req>,
    /// Per-block partial of the L1-stage stat fields (`requests`,
    /// `transactions`, `mshr_merges`, `l1_*`, `bytes_*`); all u64 sums,
    /// so accumulation order cannot change the launch totals.
    pub partial: MemStats,
}

/// Reusable per-worker buffers for [`replay_block_l1`]: the private L1
/// (reset, not reallocated, between blocks), the coalescer's scratch,
/// and the previous block's L2-stream length, which presizes the next
/// stream (the streams themselves move on to [`replay_l2`]). Pooled via
/// [`crate::pool::ScratchPool`] so capacity persists across blocks and
/// launches.
#[derive(Debug, Default)]
pub struct L1Scratch {
    l1: Option<SectoredCache>,
    coalesce: CoalesceScratch,
    reqs: Vec<SectorReq>,
    evicted: Vec<u64>,
    stream_len: usize,
}

/// The private L1 for one block: recycled and reset when the slot
/// already holds a matching geometry, rebuilt when the scratch
/// migrates to a device with a different hierarchy.
fn l1_for<'a>(slot: &'a mut Option<SectoredCache>, spec: &MemHierSpec) -> &'a mut SectoredCache {
    let fits = slot.as_ref().is_some_and(|c| {
        c.geometry_matches(spec.l1_bytes, spec.l1_line_bytes, spec.l1_ways, spec.sector_bytes)
    });
    if fits {
        let l1 = slot.as_mut().expect("checked above");
        l1.reset();
        l1
    } else {
        slot.insert(SectoredCache::new(
            spec.l1_bytes,
            spec.l1_line_bytes,
            spec.l1_ways,
            spec.sector_bytes,
        ))
    }
}

/// The streaming pipeline's per-block stage, run **on the worker
/// thread at block exit**: coalesce the block's trace and drive it
/// through a private L1, emitting only the L2-bound request stream.
/// Each access's consecutive requests whose sectors ascend within one
/// L1 line (a whole 128 B NVIDIA line for a unit-stride warp) take one
/// probe as a line run, and their L2 requests come out in the order a
/// serial walk of the launch causes them one sector at a time. L1 outcomes
/// depend only on L1 state, never on L2, so deferring the shared stage
/// cannot change any count. At block exit the dirty L1 sectors are
/// appended to the stream in ascending order.
pub fn replay_block_l1(
    spec: &MemHierSpec,
    warp_width: u32,
    trace: &BlockTrace,
    scratch: &mut L1Scratch,
) -> BlockL2Stream {
    let L1Scratch { l1: l1_slot, coalesce: cscratch, reqs, evicted, stream_len } = scratch;
    let l1 = l1_for(l1_slot, spec);
    let mut l2_reqs = Vec::with_capacity(*stream_len);
    let mut stats = MemStats::default();
    for access in trace.accesses() {
        coalesce_into(&access, warp_width, spec.sector_bytes, cscratch, reqs);
        let lanes = access.lane_count();
        stats.requests += lanes;
        stats.bytes_requested += lanes * u64::from(access.width);
        stats.transactions += reqs.len() as u64;
        for req in reqs.iter() {
            stats.mshr_merges += u64::from(req.lanes.saturating_sub(1));
            stats.bytes_covered += req.covered_bytes();
        }
        let full = |req: &SectorReq| req.full(spec.sector_bytes);
        let mut rest = reqs.iter().peekable();
        while let Some(first) = rest.next() {
            let mut run = LineRun::new(l1, first.addr, full(first));
            while rest.next_if(|req| run.join(l1, req.addr, full(req))).is_some() {}
            l1_run(spec, l1, access.kind, run, &mut stats, evicted, &mut l2_reqs);
        }
    }
    // Block exit: dirty L1 sectors drain to L2 as full-sector writes.
    l1.flush_dirty(|sector| l2_reqs.push(L2Req::write(sector, true)));
    *stream_len = l2_reqs.len();
    BlockL2Stream { block: trace.block, reqs: l2_reqs, partial: stats }
}

/// The shared L2 for one launch: recycled from the device-owned `slot`
/// when the geometry matches (its line array runs to megabytes —
/// rebuilding it per launch would dwarf the replay itself), rebuilt
/// otherwise. `reset` makes reuse bit-identical to a fresh cache.
fn l2_for(slot: &mut Option<SectoredCache>, spec: &MemHierSpec) -> SectoredCache {
    let fits = slot.as_ref().is_some_and(|c| {
        c.geometry_matches(spec.l2_bytes, spec.l2_line_bytes, spec.l2_ways, spec.sector_bytes)
    });
    if fits {
        let mut l2 = slot.take().expect("checked above");
        l2.reset();
        l2
    } else {
        SectoredCache::new(spec.l2_bytes, spec.l2_line_bytes, spec.l2_ways, spec.sector_bytes)
    }
}

/// The streaming pipeline's shared stage, run once at launch exit:
/// replay the per-block L2 streams through the shared L2 in block-id
/// order (sorted here — block ids are unique, so the unstable sort is
/// deterministic) and fold in the per-block partials. Consecutive
/// requests of one kind (fill reads, or writes) whose sectors ascend
/// within one L2 line are served as one line run, and the dirty L2
/// sectors left at launch exit are only counted. Produces stats
/// bit-identical to the unit tests' serial, one-sector-at-a-time
/// reference over the same launch.
/// `l2_slot` holds the recycled shared-L2 cache between launches.
pub fn replay_l2(
    spec: &MemHierSpec,
    mut streams: Vec<BlockL2Stream>,
    l2_slot: &mut Option<SectoredCache>,
) -> MemStats {
    streams.sort_unstable_by_key(|s| s.block);
    let mut shared = Shared::new(l2_for(l2_slot, spec), spec.sector_bytes);
    for stream in &streams {
        shared.stats = shared.stats.merged(stream.partial);
        let mut rest = stream.reqs.iter().peekable();
        while let Some(first) = rest.next() {
            let (l2, write) = (&shared.l2, first.is_write());
            let mut run = LineRun::new(l2, first.sector(), first.full_cover());
            while rest
                .next_if(|req| {
                    req.is_write() == write && run.join(l2, req.sector(), req.full_cover())
                })
                .is_some()
            {}
            shared.l2_run(write, run);
        }
    }
    let (stats, l2) = shared.finish();
    *l2_slot = Some(l2);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::round_robin;
    use crate::trace::{AccessKind, Affine};
    use proptest::collection;
    use proptest::prelude::*;

    /// Append one access to a trace arena from a lane/address iterator.
    fn push(
        t: &mut BlockTrace,
        kind: AccessKind,
        width: u32,
        it: impl Iterator<Item = (u32, u64)>,
    ) {
        for (lane, addr) in it {
            t.push_lane(lane, addr);
        }
        t.end_access(kind, width);
    }

    /// One block, 256 lanes: the warp-width-sensitive gather
    /// `out[i] = in[(i % 32) * 16] + src[i]` over f64, as traced.
    fn gather_block(n: u32) -> BlockTrace {
        let mut t = BlockTrace::new(0);
        push(&mut t, AccessKind::Load, 8, (0..n).map(|l| (l, u64::from(l % 32) * 128)));
        push(&mut t, AccessKind::Load, 8, (0..n).map(|l| (l, 0x10_0000 + u64::from(l) * 8)));
        push(&mut t, AccessKind::Store, 8, (0..n).map(|l| (l, 0x20_0000 + u64::from(l) * 8)));
        t
    }

    /// Run the streaming split (per-block L1 stage + shared L2 stage)
    /// over the same trace the serial reference sees.
    fn replay_streaming(spec: &MemHierSpec, warp_width: u32, blocks: &[BlockTrace]) -> MemStats {
        let mut scratch = L1Scratch::default();
        // Feed blocks in reverse to prove the sort restores block order.
        let streams: Vec<BlockL2Stream> = blocks
            .iter()
            .rev()
            .map(|b| replay_block_l1(spec, warp_width, b, &mut scratch))
            .collect();
        replay_l2(spec, streams, &mut None)
    }

    const PRESETS: [(fn() -> MemHierSpec, u32); 3] = [
        (MemHierSpec::nvidia_a100, 32),
        (MemHierSpec::amd_mi250x, 64),
        (MemHierSpec::intel_pvc, 16),
    ];

    #[test]
    fn vendor_presets_diverge_on_warp_width_sensitive_pattern() {
        let trace = [gather_block(256)];
        let nv = replay(&MemHierSpec::nvidia_a100(), 32, &trace);
        let amd = replay(&MemHierSpec::amd_mi250x(), 64, &trace);
        let intel = replay(&MemHierSpec::intel_pvc(), 16, &trace);
        let rates = [nv.l1_hit_rate(), amd.l1_hit_rate(), intel.l1_hit_rate()];
        // All three must differ pairwise by a measurable margin.
        assert!((rates[0] - rates[1]).abs() > 0.02, "nv {} vs amd {}", rates[0], rates[1]);
        assert!((rates[0] - rates[2]).abs() > 0.02, "nv {} vs intel {}", rates[0], rates[2]);
        assert!((rates[1] - rates[2]).abs() > 0.02, "amd {} vs intel {}", rates[1], rates[2]);
    }

    #[test]
    fn coalesced_stream_has_full_sector_utilization() {
        // copy: load a[i], store c[i], unit stride, 256B-aligned bases.
        let mut t = BlockTrace::new(0);
        push(&mut t, AccessKind::Load, 8, (0..256).map(|l| (l, u64::from(l) * 8)));
        push(&mut t, AccessKind::Store, 8, (0..256).map(|l| (l, 0x10_0000 + u64::from(l) * 8)));
        for (spec, w) in PRESETS {
            let s = replay(&spec(), w, std::slice::from_ref(&t));
            assert!(s.sector_utilization() > 0.99, "{}", s.sector_utilization());
            // Streaming: DRAM traffic ≈ requested bytes (fills for the
            // load + writebacks for the store).
            assert_eq!(s.dram_bytes, s.bytes_requested);
        }
    }

    #[test]
    fn strided_gather_wastes_dram_traffic() {
        // 128B-strided 8B gather on NVIDIA: 8 useful bytes per 32B sector.
        let mut t = BlockTrace::new(0);
        push(&mut t, AccessKind::Load, 8, (0..256).map(|l| (l, u64::from(l) * 128)));
        let s = replay(&MemHierSpec::nvidia_a100(), 32, std::slice::from_ref(&t));
        assert!((s.sector_utilization() - 0.25).abs() < 1e-9);
        assert_eq!(s.dram_bytes, 4 * s.bytes_requested);
    }

    #[test]
    fn atomics_bypass_l1() {
        let mut t = BlockTrace::new(0);
        push(&mut t, AccessKind::Atomic, 8, (0..32).map(|l| (l, 0)));
        let s = replay(&MemHierSpec::nvidia_a100(), 32, std::slice::from_ref(&t));
        assert_eq!(s.l1_hits + s.l1_misses, 0);
        assert_eq!(s.l2_accesses, 1, "32 lanes on one address = one L2 RMW");
        assert_eq!(s.mshr_merges, 31);
    }

    #[test]
    fn replay_is_deterministic() {
        let trace = [gather_block(256), gather_block(256)];
        let a = replay(&MemHierSpec::amd_mi250x(), 64, &trace);
        let b = replay(&MemHierSpec::amd_mi250x(), 64, &trace);
        assert_eq!(a, b);
    }

    #[test]
    fn accounting_invariants_hold() {
        let trace = [gather_block(256)];
        for (spec, w) in PRESETS {
            let spec = spec();
            let s = replay(&spec, w, &trace);
            assert_eq!(s.l2_hits + s.l2_misses, s.l2_accesses);
            assert_eq!(s.requests, 768);
            assert_eq!(s.bytes_requested, 768 * 8);
            assert!(s.bytes_covered <= s.transactions * spec.sector_bytes);
            assert_eq!(s.mshr_merges, s.requests - s.transactions);
        }
    }

    #[test]
    fn streaming_split_is_bit_identical_to_serial_replay() {
        // Multi-block launch with cross-block L2 reuse, every access
        // kind, and a write-through preset in the mix; one shared
        // scratch across all blocks (reset, not reallocated).
        let mut blocks: Vec<BlockTrace> = (0..6u32)
            .map(|b| {
                let mut t = gather_block(256);
                t.block = b;
                push(&mut t, AccessKind::Atomic, 8, (0..32).map(|l| (l, u64::from(l % 4) * 64)));
                t
            })
            .collect();
        // An empty block must also round-trip.
        blocks.push(BlockTrace::new(6));
        for trace in [blocks, line_run_blocks()] {
            for (preset, w) in PRESETS {
                for spec in [preset(), shrunk(preset)] {
                    let serial = replay(&spec, w, &trace);
                    assert_eq!(replay_streaming(&spec, w, &trace), serial, "{spec:?}");
                }
            }
        }
    }

    /// `preset` with its L1 shrunk to 1 KiB and its L2 to 16 KiB, every
    /// other field as shipped, so modest traces overflow both levels.
    fn shrunk(preset: fn() -> MemHierSpec) -> MemHierSpec {
        MemHierSpec { l1_bytes: 1 << 10, l2_bytes: 16 << 10, ..preset() }
    }

    /// Eight blocks of seeded traffic touching 61.5 KiB of a 128 KiB
    /// range, about four times the shrunken L2: scattered f64 gathers,
    /// unit- and 2×-strided f64 stores (full and partial sector cover),
    /// and scattered 4-byte atomics. Each access stays inside a 1 KiB
    /// window that random-walks in 512-byte steps (with an occasional far
    /// jump), so consecutive accesses half-overlap and LRU order decides
    /// hits in the 1 KiB L1; windows recur across blocks, so it decides
    /// hits in the L2 too.
    fn eviction_blocks() -> Vec<BlockTrace> {
        let mut state = 0x5EED_u64;
        let mut next = |bound: u64| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix(state) % bound
        };
        let mut blocks = Vec::new();
        let mut window = 0u64;
        for b in 0..8u32 {
            let mut t = BlockTrace::new(b);
            for _ in 0..32 {
                window = match next(8) {
                    0 => next(256) * 512,
                    1..=3 => window.saturating_sub(512),
                    _ => (window + 512).min(127 << 10),
                };
                match next(4) {
                    0 | 1 => {
                        let lanes = (0..64).map(|l| (l, window + next(128) * 8));
                        push(&mut t, AccessKind::Load, 8, lanes);
                    }
                    2 => {
                        let stride = 8 << next(2);
                        let lanes = (0..64).map(|l| (l, window + u64::from(l) * stride));
                        push(&mut t, AccessKind::Store, 8, lanes);
                    }
                    _ => {
                        let lanes = (0..64).map(|l| (l, window + next(256) * 4));
                        push(&mut t, AccessKind::Atomic, 4, lanes);
                    }
                }
            }
            blocks.push(t);
        }
        blocks
    }

    /// splitmix64's output function: a well-spread hash of `z`.
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One access of [`random_block`], as raw draws: its form, kind,
    /// width, window and seed.
    type AccessDraw = (u8, u8, u8, u64, u64);

    /// Block `block` of a random launch with `block_dim` lanes per block,
    /// recorded as the block engines record it on a `warp_width`-wide device. Each
    /// access is a load, store or atomic of 1, 4 or 8 bytes inside a 4 KiB
    /// window, at one of 16 places 2 KiB apart (34 KiB in all, twice the
    /// shrunken L2), so accesses and blocks share lines. A quarter of the
    /// accesses are affine unit-stride headers and a quarter affine
    /// single-address ones; the rest are per-lane, scattered over the
    /// window or unit-stride from a random slot in it, under a full,
    /// prefix, random or sparse mask, with lanes ascending for loads and
    /// stores and in warp-round-robin order for atomics.
    fn random_block(
        block: u32,
        block_dim: u32,
        warp_width: u32,
        draws: &[AccessDraw],
    ) -> BlockTrace {
        let mut t = BlockTrace::new(block);
        for &(form, kind, width, window, seed) in draws {
            let kind =
                [AccessKind::Load, AccessKind::Store, AccessKind::Atomic][usize::from(kind % 3)];
            let width = [1u32, 4, 8][usize::from(width % 3)];
            let w = u64::from(width);
            let slot = |x: u64| window % 16 * 2048 + mix(x) % (4096 / w) * w;
            let affine = |stride| Affine { base: slot(seed), stride, count: block_dim };
            match form % 4 {
                0 => t.push_affine(kind, width, affine(w)),
                1 => t.push_affine(kind, width, affine(0)),
                form => {
                    let hash = |lane: usize| mix(seed.wrapping_add(lane as u64));
                    let prefix = 1 + hash(usize::MAX) as usize % block_dim as usize;
                    let shape = mix(!seed) % 4;
                    let mask: Vec<bool> = (0..block_dim as usize)
                        .map(|lane| match shape {
                            0 => true,
                            1 => lane < prefix,
                            2 => hash(lane) % 2 == 0,
                            _ => hash(lane) % 8 == 0,
                        })
                        .collect();
                    let lanes: Vec<usize> = match kind {
                        AccessKind::Atomic => round_robin(&mask, warp_width).collect(),
                        _ => (0..mask.len()).filter(|&lane| mask[lane]).collect(),
                    };
                    for lane in lanes {
                        let addr = match form {
                            2 => slot(seed ^ hash(lane)),
                            _ => slot(seed) + lane as u64 * w,
                        };
                        t.push_lane(lane as u32, addr);
                    }
                    t.end_access(kind, width);
                }
            }
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random multi-block launches of [`random_block`]s replay to the
        /// same stats through the streaming split (blocks fed in reverse)
        /// as through the serial walk one sector at a time, on the three
        /// presets and their shrunken forms.
        #[test]
        fn streaming_split_matches_the_serial_reference_on_random_traces(
            block_dim in 1..200u32,
            blocks in collection::vec(
                collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>(), any::<u64>()), 1..24),
                1..6,
            ),
        ) {
            for (preset, w) in PRESETS {
                let trace: Vec<BlockTrace> = (0..)
                    .zip(&blocks)
                    .map(|(block, draws)| random_block(block, block_dim, w, draws))
                    .collect();
                for spec in [preset(), shrunk(preset)] {
                    prop_assert_eq!(
                        replay_streaming(&spec, w, &trace),
                        replay(&spec, w, &trace),
                        "{:?}, {} lanes per block", spec, block_dim
                    );
                }
            }
        }
    }

    #[test]
    fn eviction_heavy_replay_pins_absolute_stats() {
        // Exact counts under true LRU in both levels: evicting any other
        // way, in either level, moves them.
        let expected = [
            MemStats {
                requests: 16384,
                transactions: 9363,
                mshr_merges: 7021,
                l1_hits: 2299,
                l1_misses: 3575,
                l2_accesses: 8136,
                l2_hits: 5645,
                l2_misses: 2491,
                dram_sectors: 4365,
                dram_bytes: 139680,
                bytes_requested: 109312,
                bytes_covered: 101948,
            },
            MemStats {
                requests: 16384,
                transactions: 3789,
                mshr_merges: 12595,
                l1_hits: 334,
                l1_misses: 2109,
                l2_accesses: 3455,
                l2_hits: 2176,
                l2_misses: 1279,
                dram_sectors: 2214,
                dram_bytes: 141696,
                bytes_requested: 109312,
                bytes_covered: 95368,
            },
            MemStats {
                requests: 16384,
                transactions: 8647,
                mshr_merges: 7737,
                l1_hits: 3252,
                l1_misses: 1874,
                l2_accesses: 5939,
                l2_hits: 4660,
                l2_misses: 1279,
                dram_sectors: 2262,
                dram_bytes: 144768,
                bytes_requested: 109312,
                bytes_covered: 105544,
            },
        ];
        let blocks = eviction_blocks();
        for ((preset, w), want) in PRESETS.into_iter().zip(expected) {
            let spec = shrunk(preset);
            let sector = spec.sector_bytes;
            assert_eq!(replay(&spec, w, &blocks), want, "serial, sector_bytes {sector}");
            assert_eq!(replay_streaming(&spec, w, &blocks), want, "split, sector_bytes {sector}");
        }
    }

    /// Three blocks, each shifted by 2 KiB from the last so that
    /// neighbours share lines in L2, whose accesses put the edge cases of
    /// line runs in both stages' request streams, for
    /// `streaming_split_is_bit_identical_to_serial_replay`.
    fn line_run_blocks() -> Vec<BlockTrace> {
        (0..3u32)
            .map(|b| {
                let mut t = BlockTrace::new(b);
                let at = u64::from(b) << 11;
                let lanes =
                    |n: u32, addr: fn(u64) -> u64| (0..n).map(move |l| (l, at + addr(l.into())));
                // Unit-stride f64 loads of 2 KiB: 16 whole NVIDIA lines.
                push(&mut t, AccessKind::Load, 8, lanes(256, |l| 0x1000 + l * 8));
                // An unaligned f64 store whose partial first and last
                // sectors sit inside one 128 B line.
                push(&mut t, AccessKind::Store, 8, lanes(12, |l| 0x2008 + l * 8));
                // Two 32-lane warps on sectors 0 and 2 of one 128 B line
                // (16-lane warps repeat a sector, 64-lane ones share one).
                push(&mut t, AccessKind::Load, 4, lanes(64, |l| 0x3000 + l / 32 * 64 + l % 8 * 4));
                // Back-to-back accesses to one line: the second repeats
                // sectors the first touched, so L2 runs end there.
                push(&mut t, AccessKind::Atomic, 4, lanes(4, |l| 0x4000 + l * 4));
                push(&mut t, AccessKind::Atomic, 4, lanes(4, |l| 0x4000 + l * 4));
                push(&mut t, AccessKind::Load, 8, lanes(8, |l| 0x4000 + l * 8));
                push(&mut t, AccessKind::Load, 8, lanes(16, |l| 0x4000 + l * 8));
                // A fill read, then an atomic on the next sector of its
                // line: one L2 run must not mix the two kinds.
                push(&mut t, AccessKind::Load, 4, lanes(1, |_| 0x5000));
                push(&mut t, AccessKind::Atomic, 4, lanes(1, |_| 0x5020));
                // Stores to lines the first access made resident: an AMD
                // write-through store touches them, partially at the end.
                push(&mut t, AccessKind::Store, 8, lanes(250, |l| 0x1000 + l * 8));
                // Loads that, in the shrunken L1s, evict the dirty lines.
                push(&mut t, AccessKind::Load, 8, lanes(256, |l| 0x6000 + l * 8));
                t
            })
            .collect()
    }

    #[test]
    fn an_evicting_fill_reaches_l2_before_the_writeback() {
        // A one-line L1 and a one-set, two-way L2. Block 0 dirties line 0
        // in L1, then a load of line 0x1000 evicts it: L2 sees the fill
        // read, then the writeback, so line 0 is its most recent line
        // and an atomic on line 0x2000 evicts line 0x1000. Block 1's load
        // of line 0x1000 therefore misses L2; in the opposite order it
        // would hit. Every L2 access misses.
        let spec = MemHierSpec {
            l1_bytes: 128,
            l1_ways: 1,
            l2_bytes: 256,
            l2_ways: 2,
            ..MemHierSpec::nvidia_a100()
        };
        let mut first = BlockTrace::new(0);
        push(&mut first, AccessKind::Store, 8, (0..4).map(|l| (l, u64::from(l) * 8)));
        push(&mut first, AccessKind::Load, 4, [(0, 0x1000)].into_iter());
        push(&mut first, AccessKind::Atomic, 4, [(0, 0x2000)].into_iter());
        let mut second = BlockTrace::new(1);
        push(&mut second, AccessKind::Load, 4, [(0, 0x1000)].into_iter());
        let blocks = [first, second];
        let want = MemStats {
            requests: 7,
            transactions: 4,
            mshr_merges: 3,
            l1_hits: 0,
            l1_misses: 3,
            l2_accesses: 4,
            l2_hits: 0,
            l2_misses: 4,
            dram_sectors: 5,
            dram_bytes: 160,
            bytes_requested: 44,
            bytes_covered: 44,
        };
        assert_eq!(replay(&spec, 32, &blocks), want, "serial");
        assert_eq!(replay_streaming(&spec, 32, &blocks), want, "split");
    }

    #[test]
    fn l2_req_packing_round_trips() {
        for sector in [0u64, 32, 64, 0xFFFF_FFE0, 1 << 40] {
            let r = L2Req::read(sector);
            assert!(!r.is_write() && r.sector() == sector);
            for full in [false, true] {
                let w = L2Req::write(sector, full);
                assert!(w.is_write());
                assert_eq!(w.full_cover(), full);
                assert_eq!(w.sector(), sector);
            }
        }
    }

    #[test]
    fn scratch_rebuilds_l1_when_geometry_changes() {
        let blocks = [gather_block(256)];
        let mut scratch = L1Scratch::default();
        // NVIDIA then AMD through one scratch: the second run must not
        // inherit the 128KiB NVIDIA L1.
        let _ = replay_block_l1(&MemHierSpec::nvidia_a100(), 32, &blocks[0], &mut scratch);
        let amd_reused = replay_block_l1(&MemHierSpec::amd_mi250x(), 64, &blocks[0], &mut scratch);
        let amd_fresh =
            replay_block_l1(&MemHierSpec::amd_mi250x(), 64, &blocks[0], &mut L1Scratch::default());
        assert_eq!(amd_reused, amd_fresh);
    }
}
