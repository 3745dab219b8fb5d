//! Block-execution parallelism and per-worker scratch reuse.
//!
//! Simulated compute units execute a launch's thread blocks concurrently:
//! [`run_indexed`] runs `f(0..n)` on scoped threads for the duration of
//! one call (the calling thread participates), claiming indices by a
//! [`SchedulePolicy`]. [`ScratchPool`] recycles the buffers those
//! participants need from one call to the next.

use crate::sched::SchedulePolicy;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `f(0..n)` on `workers` scoped threads plus the calling thread and
/// wait for completion (the caller participates, so one worker still
/// overlaps with the host). Never spawns more participants than indices.
pub fn run_indexed<F>(workers: usize, n: usize, policy: SchedulePolicy, f: F)
where
    F: Fn(usize) + Send + Sync,
{
    if n == 0 {
        return;
    }
    let claim = AtomicUsize::new(0);
    let participants = (workers.max(1) + 1).min(n);
    let (f, claim) = (&f, &claim);
    std::thread::scope(|scope| {
        for worker_idx in 1..participants {
            scope.spawn(move || claim_loop(n, worker_idx, participants, policy, claim, f));
        }
        claim_loop(n, 0, participants, policy, claim, f);
    });
}

fn claim_loop(
    n: usize,
    me: usize,
    participants: usize,
    policy: SchedulePolicy,
    claim: &AtomicUsize,
    f: &(impl Fn(usize) + Send + Sync),
) {
    match policy {
        SchedulePolicy::Static => {
            let per = n.div_ceil(participants);
            let start = me * per;
            let end = ((me + 1) * per).min(n);
            for i in start..end {
                f(i);
            }
        }
        SchedulePolicy::Dynamic => loop {
            let i = claim.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            f(i);
        },
    }
}

/// A free-list of reusable per-worker scratch buffers.
///
/// Workers `acquire` a scratch at task start and `release` it at task
/// exit, so buffer capacity amortizes to its high-water mark instead of
/// being reallocated per task. The list is bounded by the number of
/// concurrently-running workers in steady state; `CAP` is a backstop so
/// a burst can never pin unbounded memory. One uncontended
/// `parking_lot` lock per acquire/release — noise next to the work a
/// task does between them.
#[derive(Debug)]
pub struct ScratchPool<T> {
    free: Mutex<Vec<T>>,
}

impl<T> ScratchPool<T> {
    /// Retained-scratch backstop: comfortably above the `workers + 1`
    /// participants of any launch a device runs.
    const CAP: usize = 32;

    /// An empty pool.
    pub fn new() -> Self {
        Self { free: Mutex::new(Vec::new()) }
    }

    /// Scratches currently parked in the free list.
    pub fn available(&self) -> usize {
        self.free.lock().len()
    }

    /// Return a scratch to the pool for reuse.
    pub fn release(&self, scratch: T) {
        let mut free = self.free.lock();
        if free.len() < Self::CAP {
            free.push(scratch);
        }
    }
}

impl<T: Default> ScratchPool<T> {
    /// Take a recycled scratch, or a fresh one if the list is empty.
    pub fn acquire(&self) -> T {
        self.free.lock().pop().unwrap_or_default()
    }
}

impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_indexed_covers_every_index_dynamic() {
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        run_indexed(4, 1000, SchedulePolicy::Dynamic, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                1,
                "index {i} run {} times",
                h.load(Ordering::Relaxed)
            );
        }
    }

    #[test]
    fn run_indexed_covers_every_index_static() {
        let hits: Vec<AtomicU64> = (0..97).map(|_| AtomicU64::new(0)).collect();
        run_indexed(3, 97, SchedulePolicy::Static, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn run_indexed_zero_is_noop() {
        run_indexed(2, 0, SchedulePolicy::Dynamic, |_| panic!("must not run"));
    }

    #[test]
    fn run_indexed_n_smaller_than_workers() {
        let hits = AtomicU64::new(0);
        run_indexed(8, 3, SchedulePolicy::Static, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn single_worker_pool_still_works() {
        let sum = AtomicU64::new(0);
        run_indexed(1, 10, SchedulePolicy::Dynamic, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn scratch_pool_recycles_buffers() {
        let pool: ScratchPool<Vec<u64>> = ScratchPool::new();
        let mut v = pool.acquire();
        assert!(v.is_empty());
        v.reserve(1024);
        let cap = v.capacity();
        v.clear();
        pool.release(v);
        assert_eq!(pool.available(), 1);
        // The recycled buffer keeps its capacity.
        assert!(pool.acquire().capacity() >= cap);
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn scratch_pool_is_bounded() {
        let pool: ScratchPool<u32> = ScratchPool::new();
        for i in 0..100 {
            pool.release(i);
        }
        assert_eq!(pool.available(), 32);
    }
}
