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
//! Requests arrive as *line runs*: distinct sectors of one line, taken
//! in ascending order, served by one tag probe. A run means exactly what
//! its sectors would mean one at a time in ascending order: the first
//! sector decides whether the line is resident and what it evicts, and
//! the others find it resident. A caller may therefore split a run into
//! single sectors (the serial reference replay does) without changing
//! any outcome.
//!
//! Write policy is decided by the caller per level:
//! * write-allocate (NVIDIA/Intel L1, both L2s): a store miss fills the
//!   sector from below — unless the warp covered *every* byte of the
//!   sector, in which case it allocates dirty without a fill
//!   (write-combining; keeps a streaming write from reading its own
//!   destination).
//! * no-allocate (AMD's write-through L1): the caller forwards every
//!   store to the next level and only refreshes resident copies
//!   ([`SectoredCache::touch_run`]); a store miss leaves the cache as it
//!   was.
//!
//! A set's live ways are always a prefix `0..n` of its ways: lines are
//! only ever installed at way `n` of a set with room, or in place of a
//! full set's least recently used way, and nothing but a reset empties
//! a way. So a probe compares only the `n` live tags, a set with room
//! takes way `n` without a scan, and only a full set scans its ticks for
//! the victim. `n` is stamped with the reset generation, which makes a
//! reset O(1): every stamp from an earlier generation reads as `n = 0`.

/// What one line run did, as line-relative sector masks: bit `s` is
/// sector `s` of the line, and only the run's own bits are set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// Sectors that were already resident.
    pub hits: u64,
    /// Sectors fetched from the level below.
    pub fills: u64,
}

/// One cache level. See the module docs for the policy model.
///
/// Lines are stored as parallel arrays (SoA), not an array of structs:
/// a probe scans the live ways of one set, and for a multi-megabyte L2
/// with 16 ways the struct layout would pull ~10 host cache lines per
/// probe where the tag array alone needs two. The replay is
/// memory-latency bound on exactly that scan, so the layout is the
/// difference between tracing being cheap enough to leave on and not.
#[derive(Debug, Clone)]
pub struct SectoredCache {
    line_bytes: u64,
    sector_bytes: u64,
    sets: u64,
    /// `log2(line_bytes)` / `log2(sector_bytes)` / `sets - 1` — the
    /// probe path runs per replayed run, so indexing must be
    /// shift-and-mask, not division.
    line_shift: u32,
    sector_shift: u32,
    set_mask: u64,
    ways: usize,
    /// Per set, `epoch + n`: its live ways are `0..n`. A stamp at or
    /// below `epoch` means `n = 0`.
    live: Vec<u64>,
    /// The reset generation, in steps of `ways`: a stamp from before a
    /// reset is at most the old `epoch + ways`, the new `epoch`, so every
    /// set reads as empty after one.
    epoch: u64,
    /// Line-aligned base address per way; meaningful for live ways only.
    tags: Vec<u64>,
    /// LRU clock at last touch per way. Every touch takes a fresh clock
    /// value, so the live ways of a set never tie.
    ticks: Vec<u64>,
    /// Per-sector valid bits per line.
    valid: Vec<u64>,
    /// Per-sector dirty bits per line.
    dirty: Vec<u64>,
    /// Monotonic LRU clock; never rewinds (resets bump `epoch` instead).
    tick: u64,
    /// Ways whose line became dirty since the last flush/reset, so a
    /// flush walks the dirty set instead of every line. Every entry is a
    /// live way; it may repeat, or name a way whose line has since been
    /// cleaned or replaced, so the flush rechecks the dirty bits.
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
            sets,
            line_shift: line_bytes.trailing_zeros(),
            sector_shift: sector_bytes.trailing_zeros(),
            set_mask: sets - 1,
            ways,
            live: vec![0; sets as usize],
            epoch: 0,
            tags: vec![0; lines],
            ticks: vec![0; lines],
            valid: vec![0; lines],
            dirty: vec![0; lines],
            tick: 0,
            dirty_lines: Vec::new(),
        }
    }

    /// The line holding byte address `addr`, and the bit of its sector
    /// in a run mask.
    #[inline]
    pub fn locate(&self, addr: u64) -> (u64, u64) {
        let line = addr & !(self.line_bytes - 1);
        (line, 1 << ((addr - line) >> self.sector_shift))
    }

    /// The addresses of the sectors of `line` that `mask` names, in
    /// ascending order.
    #[inline]
    pub fn sectors(&self, line: u64, mask: u64) -> impl Iterator<Item = u64> {
        let shift = self.sector_shift;
        let mut rest = mask;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let sector = rest.trailing_zeros();
                rest &= rest - 1;
                line + (u64::from(sector) << shift)
            })
        })
    }

    /// Advance the clock and look `line` up for a run of `sectors`:
    /// `Ok(way)` if it is resident, now as the most recently used line;
    /// otherwise `Err((set, n))` with the set's live-way count, for
    /// [`install`](Self::install). Ticks only order lines, so one step
    /// per run orders them as one step per sector would.
    #[inline]
    fn probe(&mut self, line: u64, sectors: u64) -> Result<usize, (usize, usize)> {
        debug_assert_eq!(line & (self.line_bytes - 1), 0, "runs name a line-aligned address");
        debug_assert!(sectors != 0, "a run has at least one sector");
        debug_assert!(
            u64::from(u64::BITS - sectors.leading_zeros()) <= self.line_bytes >> self.sector_shift,
            "a run's sectors lie in its line"
        );
        self.tick += 1;
        let set = ((line >> self.line_shift) & self.set_mask) as usize;
        let n = self.live[set].saturating_sub(self.epoch) as usize;
        let base = set * self.ways;
        match self.tags[base..base + n].iter().position(|&t| t == line) {
            Some(way) => {
                self.ticks[base + way] = self.tick;
                Ok(base + way)
            }
            None => Err((set, n)),
        }
    }

    /// Install `line` in `set`, which has `n` live ways and does not hold
    /// it: at way `n` if the set has room, else in place of the set's
    /// least recently used line (see [`evict`](Self::evict)).
    #[inline]
    fn install(
        &mut self,
        (set, n): (usize, usize),
        line: u64,
        valid: u64,
        dirty: u64,
        writebacks: &mut Vec<u64>,
    ) {
        let i = if n < self.ways {
            self.live[set] = self.epoch + n as u64 + 1;
            set * self.ways + n
        } else {
            self.evict(set, writebacks)
        };
        self.tags[i] = line;
        self.ticks[i] = self.tick;
        self.valid[i] = valid;
        self.dirty[i] = dirty;
        if dirty != 0 {
            self.dirty_lines.push(i as u32);
        }
    }

    /// The way of the full `set`'s least recently used line, whose dirty
    /// sectors are appended to `writebacks` in ascending order.
    fn evict(&mut self, set: usize, writebacks: &mut Vec<u64>) -> usize {
        let base = set * self.ways;
        let ticks = &self.ticks[base..base + self.ways];
        let (mut lru, mut oldest) = (0, ticks[0]);
        for (way, &t) in ticks.iter().enumerate().skip(1) {
            if t < oldest {
                (lru, oldest) = (way, t);
            }
        }
        let i = base + lru;
        writebacks.extend(self.sectors(self.tags[i], self.dirty[i]));
        i
    }

    /// Read a run of `sectors` (line-relative bits, see the module docs)
    /// of the line-aligned address `line`. A line miss evicts at most one
    /// line, whose dirty sectors are appended to `writebacks`.
    #[inline]
    pub fn read_run(&mut self, line: u64, sectors: u64, writebacks: &mut Vec<u64>) -> RunOutcome {
        match self.probe(line, sectors) {
            Ok(i) => {
                let hits = self.valid[i] & sectors;
                self.valid[i] |= sectors;
                RunOutcome { hits, fills: sectors & !hits }
            }
            Err(slot) => {
                self.install(slot, line, sectors, 0, writebacks);
                RunOutcome { hits: 0, fills: sectors }
            }
        }
    }

    /// Store a run of `sectors` of `line` under write-allocate (see the
    /// module docs). `full` marks the sectors the warp wrote every byte
    /// of; the others fill from below if they were not resident.
    #[inline]
    pub fn write_run(
        &mut self,
        line: u64,
        sectors: u64,
        full: u64,
        writebacks: &mut Vec<u64>,
    ) -> RunOutcome {
        match self.probe(line, sectors) {
            Ok(i) => {
                let hits = self.valid[i] & sectors;
                if self.dirty[i] == 0 {
                    self.dirty_lines.push(i as u32);
                }
                self.valid[i] |= sectors;
                self.dirty[i] |= sectors;
                RunOutcome { hits, fills: sectors & !hits & !full }
            }
            Err(slot) => {
                self.install(slot, line, sectors, sectors, writebacks);
                RunOutcome { hits: 0, fills: sectors & !full }
            }
        }
    }

    /// Write-through assist: refresh the resident copies of a run of
    /// sectors on a store that is served by the level below. Returns the
    /// sectors that were resident (and are now up to date, still clean).
    #[inline]
    pub fn touch_run(&mut self, line: u64, sectors: u64) -> u64 {
        match self.probe(line, sectors) {
            Ok(i) => self.valid[i] & sectors,
            Err(_) => 0,
        }
    }

    /// Return the cache to its just-built state — every line invalid —
    /// without touching the line arrays. Replaces a fresh `new()` per
    /// block in the streaming replay's per-worker scratch, and MUST be
    /// equivalent to one: the differential suite pins scratch-reused
    /// replays bit-identical to fresh-cache replays. O(1): a new
    /// generation empties every set's live prefix with no array writes
    /// (a hot-loop requirement — the L2's arrays run to megabytes). The
    /// clock itself never rewinds, but LRU only ever compares ticks
    /// within one generation, so absolute values are unobservable.
    pub fn reset(&mut self) {
        self.epoch += self.ways as u64;
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

    /// Flush every dirty sector, handing their addresses to `emit` in
    /// ascending order. Used at block exit (L1 → L2). Walks only the
    /// lines that dirtied since the last flush/reset, sorted by tag:
    /// resident lines are distinct, so their sectors come out sorted, and
    /// a repeated entry follows its first, which has already cleaned it.
    pub fn flush_dirty(&mut self, mut emit: impl FnMut(u64)) {
        let mut lines = std::mem::take(&mut self.dirty_lines);
        lines.sort_unstable_by_key(|&i| self.tags[i as usize]);
        for &i in &lines {
            let dirty = std::mem::take(&mut self.dirty[i as usize]);
            self.sectors(self.tags[i as usize], dirty).for_each(&mut emit);
        }
        lines.clear();
        self.dirty_lines = lines;
    }

    /// Flush every dirty sector and return how many there were. Used at
    /// launch exit (L2 → DRAM), which only counts them, so nothing is
    /// sorted.
    pub fn flush_dirty_count(&mut self) -> u64 {
        let mut count = 0;
        for i in self.dirty_lines.drain(..) {
            count += u64::from(std::mem::take(&mut self.dirty[i as usize]).count_ones());
        }
        count
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

    /// Read the one sector at `addr`.
    fn read(c: &mut SectoredCache, addr: u64, writebacks: &mut Vec<u64>) -> RunOutcome {
        let (line, bit) = c.locate(addr);
        c.read_run(line, bit, writebacks)
    }

    /// Store the one sector at `addr`.
    fn write(
        c: &mut SectoredCache,
        addr: u64,
        full: bool,
        writebacks: &mut Vec<u64>,
    ) -> RunOutcome {
        let (line, bit) = c.locate(addr);
        c.write_run(line, bit, if full { bit } else { 0 }, writebacks)
    }

    fn flushed(c: &mut SectoredCache) -> Vec<u64> {
        let mut out = Vec::new();
        c.flush_dirty(|s| out.push(s));
        out
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = SectoredCache::new(1 << 10, 128, 4, 32);
        let wb = &mut Vec::new();
        let (line, bit) = c.locate(64);
        assert_eq!(read(&mut c, 64, wb), RunOutcome { hits: 0, fills: bit });
        assert_eq!(read(&mut c, 64, wb), RunOutcome { hits: bit, fills: 0 });
        // A different sector of the same line still misses (sectored fill).
        let (_, other) = c.locate(96);
        assert_eq!(read(&mut c, 96, wb), RunOutcome { hits: 0, fills: other });
        // One probe serves the whole line: two sectors hit, two fill.
        assert_eq!(c.read_run(line, 0b1111, wb), RunOutcome { hits: bit | other, fills: 0b0011 });
        assert!(wb.is_empty());
    }

    #[test]
    fn full_cover_store_allocates_without_fill() {
        let mut c = SectoredCache::new(1 << 10, 128, 4, 32);
        let wb = &mut Vec::new();
        assert_eq!(write(&mut c, 0, true, wb), RunOutcome::default());
        // The sector is now resident and dirty; a read hits.
        assert_eq!(read(&mut c, 0, wb).hits, 1);
        assert_eq!(flushed(&mut c), vec![0]);
    }

    #[test]
    fn partial_store_miss_fills_under_write_allocate() {
        let mut c = SectoredCache::new(1 << 10, 128, 4, 32);
        let wb = &mut Vec::new();
        assert_eq!(write(&mut c, 32, false, wb), RunOutcome { hits: 0, fills: 0b10 });
        // A store run over a missing line fills only its partial sectors.
        assert_eq!(c.write_run(256, 0b1110, 0b0110, wb), RunOutcome { hits: 0, fills: 0b1000 });
        assert_eq!(flushed(&mut c), vec![32, 256 + 32, 256 + 64, 256 + 96]);
        assert_eq!(flushed(&mut c), Vec::<u64>::new());
    }

    #[test]
    fn no_allocate_store_miss_leaves_cache_untouched() {
        let mut c = SectoredCache::new(1 << 10, 64, 4, 64);
        let wb = &mut Vec::new();
        assert_eq!(c.touch_run(0, 1), 0);
        assert_eq!(read(&mut c, 0, wb).hits, 0, "store must not have allocated");
        // A store to a resident line refreshes it in place, still clean.
        assert_eq!(c.touch_run(0, 1), 1);
        assert!(wb.is_empty());
        assert_eq!(flushed(&mut c), Vec::<u64>::new());
    }

    #[test]
    fn lru_eviction_writes_back_dirty_sectors() {
        // Direct-mapped-ish: 2 ways, line 64, sector 64, 2 sets (256B).
        let mut c = SectoredCache::new(256, 64, 2, 64);
        let wb = &mut Vec::new();
        // Fill set 0 (addresses ≡ 0 mod 128) with dirty lines.
        assert_eq!(write(&mut c, 0, true, wb).fills, 0);
        assert_eq!(write(&mut c, 128, true, wb).fills, 0);
        // Third distinct line in the same set evicts LRU (addr 0).
        read(&mut c, 256, wb);
        assert_eq!(*wb, vec![0]);
        // Address 0 must now miss again.
        assert_eq!(read(&mut c, 0, wb).hits, 0);
        assert_eq!(c.flush_dirty_count(), 0, "both dirty lines were evicted");
    }

    #[test]
    fn a_run_evicts_once() {
        // One set of two 4-sector lines.
        let mut c = SectoredCache::new(256, 128, 2, 32);
        let wb = &mut Vec::new();
        c.write_run(0, 0b0101, 0b0101, wb);
        c.read_run(128, 0b0001, wb);
        c.read_run(0, 0b1110, wb);
        c.touch_run(128, 0b0001);
        // Line 128 was touched last; this read makes line 0 the most
        // recent of the two, so the next miss evicts line 128.
        c.read_run(0, 0b0001, wb);
        assert_eq!(c.read_run(256, 0b0011, wb), RunOutcome { hits: 0, fills: 0b0011 });
        assert!(wb.is_empty(), "the clean line 128 was the victim");
        // Line 0 is now least recent: a four-sector store run evicts it
        // once, writing back its two dirty sectors in ascending order.
        assert_eq!(c.write_run(384, 0b1111, 0b1111, wb), RunOutcome::default());
        assert_eq!(*wb, vec![0, 64]);
        assert_eq!(c.flush_dirty_count(), 4);
        assert_eq!(c.flush_dirty_count(), 0);
    }

    #[test]
    fn deterministic_replay() {
        let drive = || {
            let mut c = SectoredCache::new(4 << 10, 128, 4, 32);
            let (mut hits, mut wb) = (0, Vec::new());
            for i in 0..4096u64 {
                let addr = (i * 96) % (16 << 10);
                hits += read(&mut c, addr & !31, &mut wb).hits.count_ones();
            }
            (hits, wb, flushed(&mut c))
        };
        assert_eq!(drive(), drive());
    }

    #[test]
    fn reset_is_equivalent_to_a_fresh_cache() {
        let outcomes = |c: &mut SectoredCache| {
            let mut hits = 0;
            let mut writebacks = Vec::new();
            for i in 0..2048u64 {
                let addr = ((i * 96) % (16 << 10)) & !31;
                hits += read(c, addr, &mut writebacks).hits.count_ones();
                if i % 3 == 0 {
                    write(c, addr ^ 32, i % 2 == 0, &mut writebacks);
                }
            }
            (hits, writebacks, flushed(c))
        };
        let mut reused = SectoredCache::new(4 << 10, 128, 4, 32);
        // Several generations, each leaving every set full and dirty.
        for _ in 0..3 {
            for i in 0..512u64 {
                write(&mut reused, (i * 32) & !31, false, &mut Vec::new());
            }
            reused.reset();
            let mut fresh = SectoredCache::new(4 << 10, 128, 4, 32);
            assert_eq!(outcomes(&mut reused), outcomes(&mut fresh));
        }
        assert!(reused.geometry_matches(4 << 10, 128, 4, 32));
        assert!(!reused.geometry_matches(8 << 10, 128, 4, 32));
    }

    /// One resident line of the reference model.
    #[derive(Clone)]
    struct RefLine {
        tag: u64,
        valid: u64,
        dirty: u64,
    }

    /// What one sector request did in the reference model.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct RefOutcome {
        hit: bool,
        filled: bool,
        writebacks: Vec<u64>,
    }

    /// The policy of [`SectoredCache`] written the obvious way, one
    /// sector at a time: each set is a list of its resident lines, least
    /// recently used first, and a reset empties every list. No ticks, no
    /// generations, no way indices, no runs.
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

        fn read(&mut self, addr: u64) -> RefOutcome {
            let (tag, bit) = self.locate(addr);
            if let Some(line) = self.touch(tag) {
                let hit = line.valid & bit != 0;
                line.valid |= bit;
                return RefOutcome { hit, filled: !hit, ..Default::default() };
            }
            let writebacks = self.install(RefLine { tag, valid: bit, dirty: 0 });
            RefOutcome { filled: true, writebacks, ..Default::default() }
        }

        fn write(&mut self, addr: u64, full: bool) -> RefOutcome {
            let (tag, bit) = self.locate(addr);
            if let Some(line) = self.touch(tag) {
                let hit = line.valid & bit != 0;
                line.valid |= bit;
                line.dirty |= bit;
                return RefOutcome { hit, filled: !hit && !full, ..Default::default() };
            }
            let writebacks = self.install(RefLine { tag, valid: bit, dirty: bit });
            RefOutcome { filled: !full, writebacks, ..Default::default() }
        }

        fn update_if_present(&mut self, addr: u64) -> RefOutcome {
            let (tag, bit) = self.locate(addr);
            let hit = self.touch(tag).is_some_and(|line| line.valid & bit != 0);
            RefOutcome { hit, ..Default::default() }
        }

        /// Apply `op` to each sector of a run in ascending order and
        /// gather what a run call reports: hit and fill masks, and every
        /// writeback in the order the sectors caused them.
        fn run(
            &mut self,
            line: u64,
            sectors: u64,
            mut op: impl FnMut(&mut Self, u64, u64) -> RefOutcome,
        ) -> (RunOutcome, Vec<u64>) {
            let mut out = RunOutcome::default();
            let mut writebacks = Vec::new();
            for s in (0..64).filter(|s| sectors >> s & 1 != 0) {
                let bit = 1u64 << s;
                let o = op(self, line + s * self.sector_bytes, bit);
                out.hits |= if o.hit { bit } else { 0 };
                out.fills |= if o.filled { bit } else { 0 };
                writebacks.extend(o.writebacks);
            }
            (out, writebacks)
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
        /// of 1, 2 or 4 sectors) driven by random line runs over a
        /// footprint of two to four times the capacity, so sets overflow
        /// with live, often dirty lines and victim choice decides later
        /// outcomes. About half the runs are one sector (as the serial
        /// replay drives the cache); the rest take a random ascending
        /// subset of the line's sectors, so a line miss inside a run
        /// evicts a dirty LRU line. Each run (a read, a store with a
        /// random full-cover mask, or a write-through touch) is diffed
        /// against the reference model applied sector by sector.
        #[test]
        fn matches_the_reference_model(
            kib in 1u64..5,
            ways in 2u32..17,
            sector_shift in 5u32..7,
            sectors_per_line in 0u32..3,
            spread in 2u64..5,
            ops in collection::vec((0u8..100, any::<u64>(), any::<u64>(), any::<u64>()), 200..600),
        ) {
            let sector_bytes = 1u64 << sector_shift;
            let line_bytes = sector_bytes << sectors_per_line;
            let bytes = kib << 10;
            let mut real = SectoredCache::new(bytes, line_bytes, ways, sector_bytes);
            let mut model = RefCache::new(bytes, line_bytes, ways, sector_bytes);
            let lines = bytes * spread / line_bytes;
            let all = (1u64 << (1 << sectors_per_line)) - 1;
            let mut writebacks = Vec::new();
            for (step, &(op, pick, shape, flags)) in ops.iter().enumerate() {
                let line = pick % lines * line_bytes;
                let sectors = match shape & all {
                    _ if shape >> 63 == 0 => 1 << (shape % (1 << sectors_per_line)),
                    0 => all,
                    some => some,
                };
                let full = flags & sectors;
                writebacks.clear();
                match op {
                    0..=44 => {
                        let got = real.read_run(line, sectors, &mut writebacks);
                        let want = model.run(line, sectors, |m, addr, _| m.read(addr));
                        prop_assert_eq!((got, writebacks.clone()), want,
                            "step {step} read {line:#x} {sectors:#b}");
                    }
                    45..=74 => {
                        let got = real.write_run(line, sectors, full, &mut writebacks);
                        let want = model.run(line, sectors, |m, addr, bit| {
                            m.write(addr, full & bit != 0)
                        });
                        prop_assert_eq!((got, writebacks.clone()), want,
                            "step {step} write {line:#x} {sectors:#b} full {full:#b}");
                    }
                    75..=94 => {
                        let got = real.touch_run(line, sectors);
                        let want = model.run(line, sectors, |m, addr, _| m.update_if_present(addr));
                        prop_assert_eq!(got, want.0.hits, "step {step} touch {line:#x} {sectors:#b}");
                    }
                    95 | 96 => {
                        prop_assert_eq!(flushed(&mut real), model.flush_dirty(), "step {step} flush");
                    }
                    97 => prop_assert_eq!(
                        real.flush_dirty_count(),
                        model.flush_dirty().len() as u64,
                        "step {step} count-only flush"
                    ),
                    _ => {
                        real.reset();
                        model.reset();
                    }
                }
            }
            prop_assert_eq!(flushed(&mut real), model.flush_dirty(), "final flush");
        }
    }
}
