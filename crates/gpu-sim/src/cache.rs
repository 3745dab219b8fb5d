//! Sectored, set-associative cache model.
//!
//! A cache is an array of sets × ways of *lines*; each line is divided
//! into sectors (the coalescer's transaction granule) with independent
//! valid/dirty bits, so a miss fills only the sector that was asked for
//! — the sectored-fill behaviour of real NVIDIA/AMD/Intel cache levels,
//! and the reason a strided gather moves far more DRAM bytes than the
//! kernel requested.
//!
//! The model is purely functional on addresses: no data is stored
//! (correctness lives in [`crate::mem`]; this layer only counts). It is
//! deterministic — LRU ticks advance in replay order and eviction
//! writebacks come out sorted — so the same trace always yields the same
//! statistics.
//!
//! Write policy is decided by the caller per level:
//! * write-allocate (NVIDIA/Intel L1, both L2s): a store miss fills the
//!   sector from below — unless the warp covered *every* byte of the
//!   sector, in which case it allocates dirty without a fill
//!   (write-combining; keeps a streaming write from reading its own
//!   destination).
//! * no-allocate (AMD's write-through L1): a store miss does not touch
//!   the cache; the caller forwards the write to the next level.

/// Result of driving one sector request through a cache level.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheOutcome {
    /// The sector was already resident.
    pub hit: bool,
    /// The sector had to be fetched from the level below.
    pub filled: bool,
    /// Dirty sectors evicted by this access (sector-aligned addresses),
    /// which the caller must write to the level below.
    pub writebacks: Vec<u64>,
}

/// One cache level. See the module docs for the policy model.
///
/// Lines are stored as parallel arrays (SoA), not an array of structs:
/// a probe scans all ways of one set, and for a multi-megabyte L2 with
/// 16 ways the struct layout would pull ~10 host cache lines per probe
/// where the tag array alone needs two. The replay is memory-latency
/// bound on exactly that scan, so the layout is the difference between
/// tracing being cheap enough to leave on and not.
///
/// Line validity is "tick ≥ floor": `ticks` holds the LRU clock at last
/// touch, and [`reset`](Self::reset) simply raises `floor` past every
/// existing tick — O(1) invalidation of the whole array with no writes,
/// and stale lines (tick < floor) are chosen exactly like never-used
/// ways in victim selection.
#[derive(Debug, Clone)]
pub struct SectoredCache {
    line_bytes: u64,
    sector_bytes: u64,
    sectors_per_line: u32,
    sets: u64,
    /// `log2(line_bytes)` / `log2(sector_bytes)` / `sets - 1` — the
    /// probe path runs per replayed sector, so indexing must be
    /// shift-and-mask, not division.
    line_shift: u32,
    sector_shift: u32,
    set_mask: u64,
    ways: usize,
    /// Line-aligned base address per line; `u64::MAX` = never used.
    tags: Vec<u64>,
    /// LRU clock at last touch per line; `< floor` = invalid.
    ticks: Vec<u64>,
    /// Per-sector valid bits per line.
    valid: Vec<u64>,
    /// Per-sector dirty bits per line.
    dirty: Vec<u64>,
    /// Monotonic LRU clock; never rewinds (resets move `floor` instead).
    tick: u64,
    /// Validity threshold: only lines touched at or after it exist.
    floor: u64,
    /// Indices of lines that became dirty since the last flush/reset,
    /// so [`flush_dirty`] walks the dirty set instead of every line.
    /// May hold duplicates or since-cleaned indices; the flush rechecks.
    ///
    /// [`flush_dirty`]: SectoredCache::flush_dirty
    dirty_lines: Vec<u32>,
}

impl SectoredCache {
    /// Build a cache of `bytes` capacity with the given line size,
    /// associativity, and sector granule. `sector_bytes` must divide
    /// `line_bytes`; capacity is rounded down to whole sets.
    pub fn new(bytes: u64, line_bytes: u64, ways: u32, sector_bytes: u64) -> Self {
        assert!(line_bytes.is_power_of_two() && sector_bytes.is_power_of_two());
        assert!(sector_bytes <= line_bytes && line_bytes / sector_bytes <= 64);
        let sets = set_count(bytes, line_bytes, ways);
        let ways = ways.max(1) as usize;
        let lines = (sets as usize) * ways;
        assert!(lines <= u32::MAX as usize, "cache line count must fit the dirty-line index");
        Self {
            line_bytes,
            sector_bytes,
            sectors_per_line: (line_bytes / sector_bytes) as u32,
            sets,
            line_shift: line_bytes.trailing_zeros(),
            sector_shift: sector_bytes.trailing_zeros(),
            set_mask: sets - 1,
            ways,
            tags: vec![u64::MAX; lines],
            ticks: vec![0; lines],
            valid: vec![0; lines],
            dirty: vec![0; lines],
            tick: 0,
            floor: 1,
            dirty_lines: Vec::new(),
        }
    }

    /// Whether the line at `i` is currently valid (touched at or after
    /// the validity floor).
    fn live(&self, i: usize) -> bool {
        self.ticks[i] >= self.floor
    }

    fn set_range(&self, addr: u64) -> std::ops::Range<usize> {
        let set = ((addr >> self.line_shift) & self.set_mask) as usize;
        set * self.ways..(set + 1) * self.ways
    }

    fn sector_bit(&self, addr: u64) -> (u64, u64) {
        let tag = addr & !(self.line_bytes - 1);
        let idx = (addr - tag) >> self.sector_shift;
        debug_assert!(idx < u64::from(self.sectors_per_line));
        (tag, 1u64 << idx)
    }

    /// Locate the way holding `tag` within the set, if resident. Scans
    /// only the tag array (the probe's hot cache lines); the tick check
    /// runs on tag match alone, so a stale leftover of the same tag
    /// from before a reset reads as a miss.
    fn find(&self, range: std::ops::Range<usize>, tag: u64) -> Option<usize> {
        let floor = self.floor;
        self.tags[range.clone()]
            .iter()
            .enumerate()
            .position(|(o, &t)| t == tag && self.ticks[range.start + o] >= floor)
            .map(|o| range.start + o)
    }

    /// Evict the LRU way of the set and return its dirty sectors. One
    /// pass over the set's ticks: the first invalid way wins at once
    /// (stale lines count as empty, keeping victim choice identical to a
    /// freshly-built cache), else the live way with the oldest tick
    /// (live ticks are unique, so there are no ties). The shared L2 runs
    /// this on every line miss, serially at launch exit.
    fn evict_lru(&mut self, range: std::ops::Range<usize>) -> (usize, Vec<u64>) {
        let floor = self.floor;
        let mut victim = range.start;
        let mut oldest = u64::MAX;
        for (i, &t) in range.clone().zip(&self.ticks[range]) {
            if t < floor {
                victim = i;
                break;
            }
            if t < oldest {
                victim = i;
                oldest = t;
            }
        }
        let mut writebacks = Vec::new();
        if self.live(victim) && self.dirty[victim] != 0 {
            for s in 0..self.sectors_per_line {
                if self.dirty[victim] & (1u64 << s) != 0 {
                    writebacks.push(self.tags[victim] + (u64::from(s) << self.sector_shift));
                }
            }
        }
        self.tags[victim] = u64::MAX;
        self.ticks[victim] = 0;
        (victim, writebacks)
    }

    /// Install a line at `i` (previously evicted or stale).
    fn fill_line(&mut self, i: usize, tag: u64, valid: u64, dirty: u64) {
        self.tags[i] = tag;
        self.ticks[i] = self.tick;
        self.valid[i] = valid;
        self.dirty[i] = dirty;
    }

    /// Record that the line at `i` is about to gain its first dirty
    /// sector since allocation or the last flush.
    fn note_dirty(&mut self, i: usize) {
        if self.dirty[i] == 0 {
            self.dirty_lines.push(i as u32);
        }
    }

    /// Drive a read of one sector (sector-aligned address).
    pub fn read(&mut self, sector: u64) -> CacheOutcome {
        self.tick += 1;
        let (tag, bit) = self.sector_bit(sector);
        let range = self.set_range(sector);
        if let Some(i) = self.find(range.clone(), tag) {
            self.ticks[i] = self.tick;
            if self.valid[i] & bit != 0 {
                return CacheOutcome { hit: true, ..Default::default() };
            }
            self.valid[i] |= bit;
            return CacheOutcome { filled: true, ..Default::default() };
        }
        let (victim, writebacks) = self.evict_lru(range);
        self.fill_line(victim, tag, bit, 0);
        CacheOutcome { filled: true, writebacks, ..Default::default() }
    }

    /// Drive a store of one sector. `full_cover` means the warp wrote
    /// every byte of the sector; `write_alloc` selects the allocate
    /// policy (see module docs). With `write_alloc = false` a miss
    /// leaves the cache untouched and the caller forwards the write.
    pub fn write(&mut self, sector: u64, full_cover: bool, write_alloc: bool) -> CacheOutcome {
        self.tick += 1;
        let (tag, bit) = self.sector_bit(sector);
        let range = self.set_range(sector);
        if let Some(i) = self.find(range.clone(), tag) {
            self.ticks[i] = self.tick;
            if self.valid[i] & bit != 0 {
                self.note_dirty(i);
                self.dirty[i] |= bit;
                return CacheOutcome { hit: true, ..Default::default() };
            }
            // Sector miss in a resident line.
            let filled = !full_cover;
            if !write_alloc && filled {
                // No-allocate caches never fill on store.
                return CacheOutcome::default();
            }
            self.note_dirty(i);
            self.valid[i] |= bit;
            self.dirty[i] |= bit;
            return CacheOutcome { filled, ..Default::default() };
        }
        if !write_alloc {
            return CacheOutcome::default();
        }
        let (victim, writebacks) = self.evict_lru(range);
        self.fill_line(victim, tag, bit, bit);
        self.dirty_lines.push(victim as u32);
        CacheOutcome { filled: !full_cover, writebacks, ..Default::default() }
    }

    /// Write-through assist: refresh a resident copy on a store that is
    /// served by the level below. Returns whether the sector was
    /// resident (and is now up to date, still clean).
    pub fn update_if_present(&mut self, sector: u64) -> bool {
        self.tick += 1;
        let (tag, bit) = self.sector_bit(sector);
        let range = self.set_range(sector);
        if let Some(i) = self.find(range, tag) {
            self.ticks[i] = self.tick;
            return self.valid[i] & bit != 0;
        }
        false
    }

    /// Return the cache to its just-built state — every line invalid —
    /// without touching the line arrays. Replaces a fresh `new()` per
    /// block in the streaming replay's per-worker scratch, and MUST be
    /// equivalent to one: the differential suite pins scratch-reused
    /// replays bit-identical to fresh-cache replays. O(1): raising the
    /// validity floor past the clock invalidates every line with no
    /// array writes (a hot-loop requirement — the L2's arrays run to
    /// megabytes). The clock itself never rewinds, but LRU only ever
    /// compares ticks within one lifetime, so absolute values are
    /// unobservable.
    pub fn reset(&mut self) {
        self.floor = self.tick + 1;
        self.dirty_lines.clear();
    }

    /// Whether this cache was built with exactly the given geometry
    /// (capacity expressed as sets × ways × line bytes, post-rounding).
    pub fn geometry_matches(
        &self,
        bytes: u64,
        line_bytes: u64,
        ways: u32,
        sector_bytes: u64,
    ) -> bool {
        self.line_bytes == line_bytes
            && self.sector_bytes == sector_bytes
            && self.ways == ways.max(1) as usize
            && self.sets == set_count(bytes, line_bytes, ways)
    }

    /// Flush every dirty sector, returning their sorted addresses. Used
    /// at block exit (L1 → L2) and launch exit (L2 → DRAM). Walks only
    /// the lines that dirtied since the last flush/reset, not the whole
    /// array.
    pub fn flush_dirty(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut dl = std::mem::take(&mut self.dirty_lines);
        for &idx in &dl {
            let i = idx as usize;
            // Recheck: the entry may be stale (line evicted or already
            // flushed via a duplicate index).
            if !self.live(i) || self.dirty[i] == 0 {
                continue;
            }
            for s in 0..self.sectors_per_line {
                if self.dirty[i] & (1u64 << s) != 0 {
                    out.push(self.tags[i] + (u64::from(s) << self.sector_shift));
                }
            }
            self.dirty[i] = 0;
        }
        dl.clear();
        self.dirty_lines = dl;
        out.sort_unstable();
        out
    }
}

/// Sets in a cache of `bytes` capacity: whole sets of `ways` lines,
/// at least one, rounded down to a power of two so the set index is a
/// mask. [`SectoredCache::new`] and [`SectoredCache::geometry_matches`]
/// must agree on it, or recycled caches get rebuilt every block (or
/// reused with the wrong shape).
fn set_count(bytes: u64, line_bytes: u64, ways: u32) -> u64 {
    let sets = (bytes / (line_bytes * u64::from(ways.max(1)))).max(1);
    1u64 << (63 - sets.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn read_miss_then_hit() {
        let mut c = SectoredCache::new(1 << 10, 128, 4, 32);
        let first = c.read(64);
        assert!(!first.hit && first.filled);
        let second = c.read(64);
        assert!(second.hit && !second.filled);
        // A different sector of the same line still misses (sectored fill).
        let other = c.read(96);
        assert!(!other.hit && other.filled);
    }

    #[test]
    fn full_cover_store_allocates_without_fill() {
        let mut c = SectoredCache::new(1 << 10, 128, 4, 32);
        let w = c.write(0, true, true);
        assert!(!w.hit && !w.filled);
        // The sector is now resident and dirty; a read hits.
        assert!(c.read(0).hit);
        assert_eq!(c.flush_dirty(), vec![0]);
    }

    #[test]
    fn partial_store_miss_fills_under_write_allocate() {
        let mut c = SectoredCache::new(1 << 10, 128, 4, 32);
        let w = c.write(32, false, true);
        assert!(!w.hit && w.filled);
        assert_eq!(c.flush_dirty(), vec![32]);
    }

    #[test]
    fn no_allocate_store_miss_leaves_cache_untouched() {
        let mut c = SectoredCache::new(1 << 10, 64, 4, 64);
        let w = c.write(0, true, false);
        assert!(!w.hit && !w.filled && w.writebacks.is_empty());
        assert!(!c.read(0).hit, "store must not have allocated");
    }

    #[test]
    fn lru_eviction_writes_back_dirty_sectors() {
        // Direct-mapped-ish: 2 ways, line 64, sector 64, 2 sets (256B).
        let mut c = SectoredCache::new(256, 64, 2, 64);
        // Fill set 0 (addresses ≡ 0 mod 128) with dirty lines.
        assert!(!c.write(0, true, true).filled);
        assert!(!c.write(128, true, true).filled);
        // Third distinct line in the same set evicts LRU (addr 0).
        let out = c.read(256);
        assert_eq!(out.writebacks, vec![0]);
        // Address 0 must now miss again.
        assert!(!c.read(0).hit);
    }

    #[test]
    fn reset_is_equivalent_to_a_fresh_cache() {
        let mut reused = SectoredCache::new(4 << 10, 128, 4, 32);
        // Dirty it thoroughly, then reset.
        for i in 0..512u64 {
            reused.write((i * 32) & !31, false, true);
        }
        reused.reset();
        let mut fresh = SectoredCache::new(4 << 10, 128, 4, 32);
        let outcomes = |c: &mut SectoredCache| {
            let mut hits = 0;
            for i in 0..2048u64 {
                if c.read(((i * 96) % (16 << 10)) & !31).hit {
                    hits += 1;
                }
            }
            (hits, c.flush_dirty())
        };
        assert_eq!(outcomes(&mut reused), outcomes(&mut fresh));
        assert!(reused.geometry_matches(4 << 10, 128, 4, 32));
        assert!(!reused.geometry_matches(8 << 10, 128, 4, 32));
    }

    #[test]
    fn deterministic_replay() {
        let drive = || {
            let mut c = SectoredCache::new(4 << 10, 128, 4, 32);
            let mut hits = 0;
            for i in 0..4096u64 {
                let addr = (i * 96) % (16 << 10);
                if c.read(addr & !31).hit {
                    hits += 1;
                }
            }
            (hits, c.flush_dirty())
        };
        assert_eq!(drive(), drive());
    }

    /// One resident line of the reference model.
    #[derive(Clone)]
    struct RefLine {
        tag: u64,
        valid: u64,
        dirty: u64,
    }

    /// The policy of [`SectoredCache`] written the obvious way: each set
    /// is a list of its resident lines, least recently used first, and a
    /// reset empties every list. No ticks, no floor, no way indices.
    struct RefCache {
        line_bytes: u64,
        sector_bytes: u64,
        ways: usize,
        sets: Vec<Vec<RefLine>>,
    }

    impl RefCache {
        fn new(bytes: u64, line_bytes: u64, ways: u32, sector_bytes: u64) -> Self {
            let ways = ways as usize;
            let mut sets = 1;
            while 2 * sets * line_bytes * ways as u64 <= bytes {
                sets *= 2;
            }
            Self { line_bytes, sector_bytes, ways, sets: vec![Vec::new(); sets as usize] }
        }

        /// The line tag of `addr` and the bit of its sector.
        fn locate(&self, addr: u64) -> (u64, u64) {
            let offset = addr % self.line_bytes;
            (addr - offset, 1 << (offset / self.sector_bytes))
        }

        fn set(&mut self, tag: u64) -> &mut Vec<RefLine> {
            let n = self.sets.len() as u64;
            &mut self.sets[(tag / self.line_bytes % n) as usize]
        }

        /// The resident line with `tag`, moved to most recently used.
        fn touch(&mut self, tag: u64) -> Option<&mut RefLine> {
            let set = self.set(tag);
            let i = set.iter().position(|l| l.tag == tag)?;
            let line = set.remove(i);
            set.push(line);
            set.last_mut()
        }

        fn dirty_sectors(&self, line: &RefLine) -> Vec<u64> {
            (0..64)
                .filter(|s| line.dirty >> s & 1 != 0)
                .map(|s| line.tag + s * self.sector_bytes)
                .collect()
        }

        /// Install `line` as most recently used, evicting the least
        /// recently used line of a full set; returns its dirty sectors.
        fn install(&mut self, line: RefLine) -> Vec<u64> {
            let ways = self.ways;
            let set = self.set(line.tag);
            let victim = (set.len() == ways).then(|| set.remove(0));
            set.push(line);
            victim.map_or_else(Vec::new, |v| self.dirty_sectors(&v))
        }

        fn read(&mut self, addr: u64) -> CacheOutcome {
            let (tag, bit) = self.locate(addr);
            if let Some(line) = self.touch(tag) {
                let hit = line.valid & bit != 0;
                line.valid |= bit;
                return CacheOutcome { hit, filled: !hit, ..Default::default() };
            }
            let writebacks = self.install(RefLine { tag, valid: bit, dirty: 0 });
            CacheOutcome { filled: true, writebacks, ..Default::default() }
        }

        fn write(&mut self, addr: u64, full: bool, alloc: bool) -> CacheOutcome {
            let (tag, bit) = self.locate(addr);
            if let Some(line) = self.touch(tag) {
                let hit = line.valid & bit != 0;
                if !hit && !full && !alloc {
                    return CacheOutcome::default();
                }
                line.valid |= bit;
                line.dirty |= bit;
                return CacheOutcome { hit, filled: !hit && !full, ..Default::default() };
            }
            if !alloc {
                return CacheOutcome::default();
            }
            let writebacks = self.install(RefLine { tag, valid: bit, dirty: bit });
            CacheOutcome { filled: !full, writebacks, ..Default::default() }
        }

        fn update_if_present(&mut self, addr: u64) -> bool {
            let (tag, bit) = self.locate(addr);
            self.touch(tag).is_some_and(|line| line.valid & bit != 0)
        }

        fn reset(&mut self) {
            self.sets.iter_mut().for_each(Vec::clear);
        }

        fn flush_dirty(&mut self) -> Vec<u64> {
            let mut out: Vec<u64> =
                self.sets.iter().flatten().flat_map(|l| self.dirty_sectors(l)).collect();
            self.sets.iter_mut().flatten().for_each(|l| l.dirty = 0);
            out.sort_unstable();
            out
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random geometries (1–4 KiB, 2–16 ways, 32/64 B sectors, lines
        /// of 1–4 sectors) driven by random operation sequences over a
        /// footprint of two to four times the capacity, so sets overflow
        /// with live lines and victim choice decides later outcomes.
        #[test]
        fn matches_the_reference_model(
            kib in 1u64..5,
            ways in 2u32..17,
            sector_shift in 5u32..7,
            sectors_per_line in 0u32..3,
            spread in 2u64..5,
            ops in collection::vec((0u8..100, any::<u64>(), 0u8..4), 200..600),
        ) {
            let sector_bytes = 1u64 << sector_shift;
            let line_bytes = sector_bytes << sectors_per_line;
            let bytes = kib << 10;
            let mut real = SectoredCache::new(bytes, line_bytes, ways, sector_bytes);
            let mut model = RefCache::new(bytes, line_bytes, ways, sector_bytes);
            let footprint = bytes * spread / sector_bytes;
            for (step, &(op, pick, flags)) in ops.iter().enumerate() {
                let addr = pick % footprint * sector_bytes;
                let (full, alloc) = (flags & 1 != 0, flags & 2 != 0);
                match op {
                    0..=44 => prop_assert_eq!(
                        real.read(addr),
                        model.read(addr),
                        "step {step} read {addr:#x}"
                    ),
                    45..=84 => prop_assert_eq!(
                        real.write(addr, full, alloc),
                        model.write(addr, full, alloc),
                        "step {step} write {addr:#x} full {full} alloc {alloc}"
                    ),
                    85..=94 => prop_assert_eq!(
                        real.update_if_present(addr),
                        model.update_if_present(addr),
                        "step {step} update {addr:#x}"
                    ),
                    95..=97 => prop_assert_eq!(
                        real.flush_dirty(),
                        model.flush_dirty(),
                        "step {step} flush"
                    ),
                    _ => {
                        real.reset();
                        model.reset();
                    }
                }
            }
            prop_assert_eq!(real.flush_dirty(), model.flush_dirty(), "final flush");
        }
    }
}
