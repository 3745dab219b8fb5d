//! Performance counters collected during a launch.
//!
//! Counters are accumulated per block into a shared [`Counters`] with
//! relaxed atomics (blocks run concurrently on the pool); the final
//! snapshot feeds the analytic timing model in [`crate::timing`].

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Mutable, thread-shared counters for one launch.
#[derive(Debug, Default)]
pub struct Counters {
    /// Warp-instructions issued (one per instruction per warp, regardless
    /// of how many lanes were active — SIMT issues the full warp).
    pub warp_instructions: AtomicU64,
    /// Of which arithmetic (FLOP-counting) issues.
    pub warp_arith: AtomicU64,
    /// Bytes read from global memory (active lanes × element size).
    pub bytes_read: AtomicU64,
    /// Bytes written to global memory.
    pub bytes_written: AtomicU64,
    /// Atomic operations performed (lane-level).
    pub atomics: AtomicU64,
    /// Barriers executed (block-level).
    pub barriers: AtomicU64,
    /// Blocks executed.
    pub blocks: AtomicU64,
    /// Warps executed (sum over blocks).
    pub warps: AtomicU64,
}

impl Counters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` warp-instruction issues.
    pub fn add_warp_instructions(&self, n: u64) {
        self.warp_instructions.fetch_add(n, Ordering::Relaxed);
    }
    /// Record `n` arithmetic warp issues.
    pub fn add_warp_arith(&self, n: u64) {
        self.warp_arith.fetch_add(n, Ordering::Relaxed);
    }
    /// Record `n` bytes read from global memory.
    pub fn add_bytes_read(&self, n: u64) {
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
    }
    /// Record `n` bytes written to global memory.
    pub fn add_bytes_written(&self, n: u64) {
        self.bytes_written.fetch_add(n, Ordering::Relaxed);
    }
    /// Record `n` lane-level atomic operations.
    pub fn add_atomics(&self, n: u64) {
        self.atomics.fetch_add(n, Ordering::Relaxed);
    }
    /// Record `n` block-level barriers.
    pub fn add_barriers(&self, n: u64) {
        self.barriers.fetch_add(n, Ordering::Relaxed);
    }
    /// Record one completed block of `warps` warps.
    pub fn add_block(&self, warps: u64) {
        self.blocks.fetch_add(1, Ordering::Relaxed);
        self.warps.fetch_add(warps, Ordering::Relaxed);
    }

    /// Immutable snapshot.
    pub fn snapshot(&self) -> LaunchStats {
        LaunchStats {
            warp_instructions: self.warp_instructions.load(Ordering::Relaxed),
            warp_arith: self.warp_arith.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            atomics: self.atomics.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
            blocks: self.blocks.load(Ordering::Relaxed),
            warps: self.warps.load(Ordering::Relaxed),
        }
    }
}

/// Block-local counter accumulator: plain `u64`s an interpreter bumps on
/// its own stack while a block runs, flushed to the shared atomic
/// [`Counters`] exactly once at block exit — one relaxed RMW per field
/// instead of one per instruction. Both block engines (the vectorized
/// engine and the reference interpreter of the `mcmm-gpu-sim-ref` crate)
/// accumulate through this, which is also what makes their reported totals
/// bit-identical: the same additions land in the same single flush.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalCounters {
    /// Warp-instruction issues accumulated by this block.
    pub warp_instructions: u64,
    /// Arithmetic warp issues accumulated by this block.
    pub warp_arith: u64,
    /// Bytes read from global memory by this block.
    pub bytes_read: u64,
    /// Bytes written to global memory by this block.
    pub bytes_written: u64,
    /// Lane-level atomics performed by this block.
    pub atomics: u64,
    /// Barriers this block executed.
    pub barriers: u64,
}

impl LocalCounters {
    /// Fresh zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flush the accumulated counts into the shared launch counters.
    /// Zero fields are skipped entirely (no atomic traffic at all for a
    /// block that, say, never touched global memory).
    pub fn flush(&self, counters: &Counters) {
        if self.warp_instructions > 0 {
            counters.add_warp_instructions(self.warp_instructions);
        }
        if self.warp_arith > 0 {
            counters.add_warp_arith(self.warp_arith);
        }
        if self.bytes_read > 0 {
            counters.add_bytes_read(self.bytes_read);
        }
        if self.bytes_written > 0 {
            counters.add_bytes_written(self.bytes_written);
        }
        if self.atomics > 0 {
            counters.add_atomics(self.atomics);
        }
        if self.barriers > 0 {
            counters.add_barriers(self.barriers);
        }
    }
}

/// Immutable launch statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Warp-instructions issued (whole warps, regardless of active lanes).
    pub warp_instructions: u64,
    /// Arithmetic (FLOP-class) warp issues.
    pub warp_arith: u64,
    /// Bytes read from global memory.
    pub bytes_read: u64,
    /// Bytes written to global memory.
    pub bytes_written: u64,
    /// Lane-level atomic operations.
    pub atomics: u64,
    /// Block-level barriers executed.
    pub barriers: u64,
    /// Blocks executed.
    pub blocks: u64,
    /// Warps executed (summed over blocks).
    pub warps: u64,
}

impl LaunchStats {
    /// Total global-memory traffic.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Merge two launches' statistics.
    pub fn merged(self, other: LaunchStats) -> LaunchStats {
        LaunchStats {
            warp_instructions: self.warp_instructions + other.warp_instructions,
            warp_arith: self.warp_arith + other.warp_arith,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            atomics: self.atomics + other.atomics,
            barriers: self.barriers + other.barriers,
            blocks: self.blocks + other.blocks,
            warps: self.warps + other.warps,
        }
    }
}

/// A lock-protected accumulator of [`LaunchStats`] whose reads are
/// *consistent*: all fields come from the same instant.
///
/// [`Counters`] accumulates with relaxed per-field atomics, which is right
/// for the hot per-block path but means a reader racing a launch can see a
/// torn view (bytes from one block, warps from another). A `StatsCell` is
/// the opposite trade-off: writers merge a whole `LaunchStats` under a
/// mutex at launch granularity, and [`StatsCell::read`] returns an
/// atomic-in-the-transactional-sense snapshot — safe to call from a
/// reporting thread while launches are in flight on other threads. The
/// device's cumulative counters ([`crate::device::Device::stats`]) and the
/// serving layer's utilization reports are built on this.
#[derive(Debug, Default)]
pub struct StatsCell {
    inner: Mutex<(LaunchStats, u64)>,
}

impl StatsCell {
    /// A zeroed cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one completed launch's statistics into the running total.
    pub fn merge(&self, stats: LaunchStats) {
        let mut g = self.inner.lock();
        g.0 = g.0.merged(stats);
        g.1 += 1;
    }

    /// A consistent snapshot of the running total. Never torn, even with
    /// concurrent [`StatsCell::merge`] calls in flight.
    pub fn read(&self) -> LaunchStats {
        self.inner.lock().0
    }

    /// Number of launches merged so far, consistent with [`StatsCell::read`].
    pub fn merges(&self) -> u64 {
        self.inner.lock().1
    }
}

/// [`StatsCell`]'s counterpart for memory-hierarchy statistics: a
/// consistent accumulator of per-launch
/// [`MemStats`](crate::memhier::MemStats). Traced launches merge a whole
/// snapshot under one mutex; readers (serve/gateway reporting threads)
/// always see launch-granular totals, never a torn view.
#[derive(Debug, Default)]
pub struct MemStatsCell {
    inner: Mutex<(crate::memhier::MemStats, u64)>,
}

impl MemStatsCell {
    /// A zeroed cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one traced launch's memory statistics into the total.
    pub fn merge(&self, stats: crate::memhier::MemStats) {
        let mut g = self.inner.lock();
        g.0 = g.0.merged(stats);
        g.1 += 1;
    }

    /// A consistent snapshot of the running total.
    pub fn read(&self) -> crate::memhier::MemStats {
        self.inner.lock().0
    }

    /// Number of traced launches merged so far.
    pub fn merges(&self) -> u64 {
        self.inner.lock().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_adds() {
        let c = Counters::new();
        c.add_warp_instructions(10);
        c.add_warp_arith(4);
        c.add_bytes_read(128);
        c.add_bytes_written(64);
        c.add_atomics(2);
        c.add_barriers(1);
        c.add_block(8);
        let s = c.snapshot();
        assert_eq!(s.warp_instructions, 10);
        assert_eq!(s.warp_arith, 4);
        assert_eq!(s.bytes_total(), 192);
        assert_eq!(s.blocks, 1);
        assert_eq!(s.warps, 8);
    }

    #[test]
    fn merged_sums_fields() {
        let a =
            LaunchStats { warp_instructions: 1, bytes_read: 2, blocks: 1, ..Default::default() };
        let b =
            LaunchStats { warp_instructions: 3, bytes_written: 4, blocks: 2, ..Default::default() };
        let m = a.merged(b);
        assert_eq!(m.warp_instructions, 4);
        assert_eq!(m.bytes_total(), 6);
        assert_eq!(m.blocks, 3);
    }

    #[test]
    fn stats_cell_snapshots_are_consistent_under_concurrent_merges() {
        use std::sync::Arc;
        // Each merge adds a LaunchStats whose fields are all equal, so any
        // *consistent* snapshot must have all fields equal — a torn read
        // (some merges visible in one field but not another) breaks that
        // invariant.
        let cell = Arc::new(StatsCell::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        cell.merge(LaunchStats {
                            warp_instructions: 1,
                            warp_arith: 1,
                            bytes_read: 1,
                            bytes_written: 1,
                            atomics: 1,
                            barriers: 1,
                            blocks: 1,
                            warps: 1,
                        });
                    }
                })
            })
            .collect();
        let reader = {
            let (cell, stop) = (Arc::clone(&cell), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let s = cell.read();
                    assert!(
                        [
                            s.warp_arith,
                            s.bytes_read,
                            s.bytes_written,
                            s.atomics,
                            s.barriers,
                            s.blocks,
                            s.warps
                        ]
                        .iter()
                        .all(|&v| v == s.warp_instructions),
                        "torn snapshot: {s:?}"
                    );
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        let s = cell.read();
        assert_eq!(s.blocks, 2000);
        assert_eq!(cell.merges(), 2000);
    }

    #[test]
    fn concurrent_accumulation() {
        use std::sync::Arc;
        let c = Arc::new(Counters::new());
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.add_warp_instructions(1);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(c.snapshot().warp_instructions, 4000);
    }
}
