//! Warp-width-parametric memory coalescing.
//!
//! Real GPU memory systems do not see "lane 17 loaded 8 bytes"; they see
//! *sector transactions*. The coalescer takes one traced memory
//! instruction ([`crate::trace::AccessView`]) and groups its lane
//! accesses by hardware warp (lane / warp_width), then within each warp
//! deduplicates the touched sectors — NVIDIA coalesces 32 lanes into
//! 32-byte sectors, AMD coalesces 64 lanes into 64-byte sectors, Intel
//! coalesces 16 lanes. The same stride therefore produces *different*
//! transaction counts per vendor, which is exactly the per-vendor
//! divergence the memory-hierarchy tier models.
//!
//! Each produced [`SectorReq`] carries a byte-cover bitmask so the cache
//! layer can account sector utilization (bytes the kernel asked for vs
//! bytes the transaction moved) and distinguish full-sector stores
//! (write-combining, no fill needed) from partial ones.
//!
//! [`coalesce_into`] is the streaming pipeline's allocation-free entry
//! point: it reuses caller-owned buffers (one entry per lane, sorted
//! unstably by (warp, sector) and merged in place of the old
//! `BTreeMap`), so a hot replay loop performs no per-access heap
//! allocation once the buffers reach their high-water mark.
//!
//! An access recorded in affine form ([`Lanes::Affine`]: unit stride or
//! one address for the whole block) skips the per-lane entries. Its
//! lanes are `0..count` and each warp's addresses form one contiguous
//! byte run (or one address), so the coalescer walks that run sector by
//! sector and emits each warp's requests directly — O(sectors) instead
//! of O(lanes log lanes) — in the same (warp, sector) order, with the
//! same covers and lane counts the per-lane path would produce. The
//! per-lane path stays the reference the tests diff the affine one
//! against.

use crate::trace::{AccessView, Affine, Lanes};

/// One coalesced memory transaction: a sector-aligned request produced
/// by merging all lane accesses of one warp that fall in that sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectorReq {
    /// Sector-aligned byte address.
    pub addr: u64,
    /// Bitmask of bytes within the sector the warp actually touched
    /// (bit `i` = byte `addr + i`). Sectors are at most 64 bytes, so a
    /// `u64` always suffices.
    pub cover: u64,
    /// Number of lane accesses merged into this transaction.
    pub lanes: u32,
}

impl SectorReq {
    /// Bytes of the sector the warp actually used.
    pub fn covered_bytes(&self) -> u64 {
        u64::from(self.cover.count_ones())
    }

    /// Whether every byte of the sector is covered (needed for
    /// fill-free store allocation).
    pub fn full(&self, sector_bytes: u64) -> bool {
        debug_assert!(sector_bytes <= 64);
        if sector_bytes == 64 {
            self.cover == u64::MAX
        } else {
            self.cover == (1u64 << sector_bytes) - 1
        }
    }
}

/// Reusable buffers for [`coalesce_into`]: one `(warp, sector, cover)`
/// entry per lane, recycled across accesses at high-water capacity.
#[derive(Debug, Default)]
pub struct CoalesceScratch {
    entries: Vec<(u32, u64, u64)>,
}

/// Coalesce one traced access into per-warp sector transactions,
/// appending to `out` (which is cleared first) without allocating once
/// the scratch buffers are warm.
///
/// Lanes are grouped by `lane / warp_width`; within a warp, accesses to
/// the same sector merge into one [`SectorReq`]. Results are ordered by
/// (warp, sector address) — the unstable sort key is exactly the merge
/// key, so the output order matches the original `BTreeMap` iteration
/// order and keeps the replay deterministic regardless of lane order in
/// the trace. Accesses are naturally aligned and at most 8 bytes wide,
/// and sectors are ≥ 32 bytes, so a single lane access never spans two
/// sectors. An affine access is expanded without per-lane entries (see
/// the module docs) into exactly the requests its lane records would
/// give.
pub fn coalesce_into(
    access: &AccessView<'_>,
    warp_width: u32,
    sector_bytes: u64,
    scratch: &mut CoalesceScratch,
    out: &mut Vec<SectorReq>,
) {
    debug_assert!(sector_bytes.is_power_of_two() && (32..=64).contains(&sector_bytes));
    let warp_width = warp_width.max(1);
    out.clear();
    let (lanes, addrs) = match access.lanes {
        Lanes::Affine(a) => return coalesce_affine(a, access.width, warp_width, sector_bytes, out),
        Lanes::PerLane { lanes, addrs } => (lanes, addrs),
    };
    // Every real warp width is a power of two; this loop runs per traced
    // lane, so the division must compile to a shift there.
    let warp_shift =
        if warp_width.is_power_of_two() { Some(warp_width.trailing_zeros()) } else { None };
    let entries = &mut scratch.entries;
    entries.clear();
    for (&lane, &addr) in lanes.iter().zip(addrs) {
        let warp = match warp_shift {
            Some(s) => lane >> s,
            None => lane / warp_width,
        };
        let sector = addr & !(sector_bytes - 1);
        let offset = addr - sector;
        debug_assert!(offset + u64::from(access.width) <= sector_bytes);
        entries.push((warp, sector, byte_mask(u64::from(access.width)) << offset));
    }
    entries.sort_unstable_by_key(|&(warp, sector, _)| (warp, sector));
    let mut prev: Option<(u32, u64)> = None;
    for &(warp, sector, bits) in entries.iter() {
        if prev == Some((warp, sector)) {
            // Same (warp, sector) run as the previous entry: merge.
            let req = out.last_mut().expect("run continuation implies an open request");
            req.cover |= bits;
            req.lanes += 1;
        } else {
            out.push(SectorReq { addr: sector, cover: bits, lanes: 1 });
            prev = Some((warp, sector));
        }
    }
}

/// The requests of an affine access, warp by warp: lanes `lo..hi` of a
/// warp touch one address (stride 0) or the contiguous bytes
/// `base + lo × width .. base + hi × width` (unit stride), so each
/// sector the run crosses is one request covering the run's bytes in
/// it, merged from `bytes / width` lanes.
fn coalesce_affine(
    a: Affine,
    width: u32,
    warp_width: u32,
    sector_bytes: u64,
    out: &mut Vec<SectorReq>,
) {
    let width = u64::from(width);
    for lo in (0..a.count).step_by(warp_width as usize) {
        let hi = a.count.min(lo.saturating_add(warp_width));
        if a.stride == 0 {
            let sector = a.base & !(sector_bytes - 1);
            let cover = byte_mask(width) << (a.base - sector);
            out.push(SectorReq { addr: sector, cover, lanes: hi - lo });
            continue;
        }
        let (mut start, end) = (a.base + u64::from(lo) * width, a.base + u64::from(hi) * width);
        while start < end {
            let sector = start & !(sector_bytes - 1);
            let stop = end.min(sector + sector_bytes);
            let bytes = stop - start;
            let cover = byte_mask(bytes) << (start - sector);
            out.push(SectorReq { addr: sector, cover, lanes: (bytes / width) as u32 });
            start = stop;
        }
    }
}

/// The low `bytes` bits set (`bytes` ≤ 64).
fn byte_mask(bytes: u64) -> u64 {
    if bytes >= 64 {
        u64::MAX
    } else {
        (1u64 << bytes) - 1
    }
}

/// Coalesce one traced access, allocating fresh buffers — the
/// convenience form the unit tests and their serial reference replay use.
#[cfg(test)]
pub(crate) fn coalesce(
    access: &AccessView<'_>,
    warp_width: u32,
    sector_bytes: u64,
) -> Vec<SectorReq> {
    let mut scratch = CoalesceScratch::default();
    let mut out = Vec::new();
    coalesce_into(access, warp_width, sector_bytes, &mut scratch, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{AccessKind, BlockTrace};
    use proptest::prelude::*;

    /// Assemble a one-access trace arena and return it (views borrow
    /// from it at the use site).
    fn access(width: u32, lanes: impl IntoIterator<Item = (u32, u64)>) -> BlockTrace {
        let mut t = BlockTrace::new(0);
        for (lane, addr) in lanes {
            t.push_lane(lane, addr);
        }
        t.end_access(AccessKind::Load, width);
        t
    }

    fn run(t: &BlockTrace, warp_width: u32, sector_bytes: u64) -> Vec<SectorReq> {
        coalesce(&t.accesses().next().expect("one access"), warp_width, sector_bytes)
    }

    #[test]
    fn unit_stride_f64_warp32_fills_sectors() {
        // 32 lanes × 8B contiguous = 256B = eight full 32B sectors.
        let a = access(8, (0..32).map(|l| (l, u64::from(l) * 8)));
        let reqs = run(&a, 32, 32);
        assert_eq!(reqs.len(), 8);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.addr, i as u64 * 32);
            assert!(r.full(32));
            assert_eq!(r.lanes, 4);
        }
    }

    #[test]
    fn warp_width_changes_transaction_grouping() {
        // Same 64 lanes, 4B stride-16 (64B apart): every access lands in
        // its own sector, but warp grouping differs: w64 = one warp of 64
        // transactions, w16 = four warps of 16. Totals equal; the warp
        // boundary matters once sectors are shared.
        let a = access(4, (0..64).map(|l| (l, u64::from(l) * 64)));
        assert_eq!(run(&a, 64, 64).len(), 64);
        assert_eq!(run(&a, 16, 64).len(), 64);
        // Broadcast: all lanes hit one address — one transaction per warp.
        let b = access(4, (0..64).map(|l| (l, 0)));
        assert_eq!(run(&b, 64, 64).len(), 1);
        assert_eq!(run(&b, 16, 64).len(), 4);
    }

    #[test]
    fn strided_gather_wastes_sector_cover() {
        // 8B loads, 128B apart: each sector transaction covers 8/32 bytes.
        let a = access(8, (0..32).map(|l| (l, u64::from(l) * 128)));
        let reqs = run(&a, 32, 32);
        assert_eq!(reqs.len(), 32);
        for r in &reqs {
            assert_eq!(r.covered_bytes(), 8);
            assert!(!r.full(32));
        }
    }

    #[test]
    fn full_cover_detection_at_64b() {
        let a = access(8, (0..8).map(|l| (l, u64::from(l) * 8)));
        let reqs = run(&a, 32, 64);
        assert_eq!(reqs.len(), 1);
        assert!(reqs[0].full(64));
        assert_eq!(reqs[0].lanes, 8);
    }

    #[test]
    fn deterministic_regardless_of_lane_order() {
        let fwd = access(4, (0..32).map(|l| (l, u64::from(l) * 4)));
        let rev = access(4, (0..32).rev().map(|l| (l, u64::from(l) * 4)));
        assert_eq!(run(&fwd, 32, 32), run(&rev, 32, 32));
    }

    #[test]
    fn scratch_reuse_matches_fresh_buffers() {
        // Drive several accesses through one scratch; each result must
        // equal the allocation-per-call form.
        let mut scratch = CoalesceScratch::default();
        let mut out = Vec::new();
        for stride in [4u64, 8, 64, 128] {
            let a = access(4, (0..64).map(|l| (l, u64::from(l) * stride)));
            let view = a.accesses().next().expect("one access");
            coalesce_into(&view, 32, 32, &mut scratch, &mut out);
            assert_eq!(out, coalesce(&view, 32, 32), "stride {stride}");
        }
    }

    /// The affine access and its lane-by-lane expansion, each coalesced:
    /// (affine requests, per-lane requests).
    fn both_forms(
        a: Affine,
        width: u32,
        warp_width: u32,
        sector_bytes: u64,
    ) -> (Vec<SectorReq>, Vec<SectorReq>) {
        let mut affine = BlockTrace::new(0);
        affine.push_affine(AccessKind::Load, width, a);
        let lanes = access(width, (0..a.count).map(|l| (l, a.base + u64::from(l) * a.stride)));
        (run(&affine, warp_width, sector_bytes), run(&lanes, warp_width, sector_bytes))
    }

    #[test]
    fn affine_unit_stride_matches_lane_records() {
        // 256 f64 lanes from a sector-aligned base: eight full 32B
        // sectors per 32-wide warp, exactly like the per-lane form.
        let a = Affine { base: 4096, stride: 8, count: 256 };
        let (affine, lanes) = both_forms(a, 8, 32, 32);
        assert_eq!(affine, lanes);
        assert_eq!(affine.len(), 64);
        assert!(affine.iter().all(|r| r.full(32) && r.lanes == 4));
    }

    #[test]
    fn affine_single_address_is_one_request_per_warp() {
        // Dot's `sum` cell: every lane on one f64. A 100-lane block is
        // four 32-wide warps, the last one with 4 lanes.
        let a = Affine { base: 72, stride: 0, count: 100 };
        let (affine, lanes) = both_forms(a, 8, 32, 64);
        assert_eq!(affine, lanes);
        let counts: Vec<u32> = affine.iter().map(|r| r.lanes).collect();
        assert_eq!(counts, vec![32, 32, 32, 4]);
        assert!(affine.iter().all(|r| r.addr == 64 && r.cover == 0xff << 8));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The affine expansion is exactly the per-lane sort-and-merge:
        /// same requests in the same (warp, sector) order, with the same
        /// covers and lane counts, for width-aligned bases at every
        /// offset in a sector but its start, unit and zero strides,
        /// block sizes that leave a partial last warp, power-of-two and
        /// other warp widths, and both sector sizes.
        #[test]
        fn affine_expansion_matches_per_lane_coalescing(
            width in 0..3usize,
            unit_stride in any::<bool>(),
            count in 1..1025u32,
            warp in 0..4usize,
            sector64 in any::<bool>(),
            page in 0..64u64,
            slot in any::<u64>(),
        ) {
            let width = [1u32, 4, 8][width];
            let warp_width = [16u32, 32, 64, 24][warp];
            let sector_bytes = if sector64 { 64 } else { 32 };
            let slots = sector_bytes / u64::from(width);
            let base = page * sector_bytes + (1 + slot % (slots - 1)) * u64::from(width);
            let stride = if unit_stride { u64::from(width) } else { 0 };
            let a = Affine { base, stride, count };
            let (affine, lanes) = both_forms(a, width, warp_width, sector_bytes);
            prop_assert_eq!(affine, lanes, "{:?} width {} warp {}", a, width, warp_width);
        }
    }

    #[test]
    fn shared_sector_across_warps_stays_split() {
        // Lanes 31 and 32 touch the same 64B sector from different
        // 32-wide warps: two transactions, not one.
        let a = access(4, [(31u32, 60u64), (32, 0)]);
        let reqs = run(&a, 32, 64);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].addr, 0);
        assert_eq!(reqs[1].addr, 0);
    }
}
