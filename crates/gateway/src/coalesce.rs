//! In-flight request coalescing ("single-flight").
//!
//! Two concurrent submissions with identical `(fingerprint, route, args)`
//! identity are the *same computation*: the kernels here are pure
//! functions of their inputs, so executing once and fanning the result
//! out to every waiter is indistinguishable from executing twice — except
//! in cost. The [`Coalescer`] keys in-flight work by the validated
//! submission key ([`crate::api::ValidSubmit::key`]); the first arrival
//! becomes the **leader** and executes, later arrivals become
//! **followers** and block on the leader's flight until it publishes a
//! result.
//!
//! The flight is removed from the table *before* the result is published
//! to waiters, so a request arriving after completion starts a fresh
//! flight — coalescing only ever merges genuinely overlapping work and
//! never serves stale results.

use crate::api::ApiError;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a flight resolves to, shared verbatim with every follower.
#[derive(Debug, Clone)]
pub struct FlightResult {
    /// FNV-1a checksum of the result buffer.
    pub checksum: u64,
    /// Toolchain name of the serving route.
    pub route: String,
    /// Why the leader was not served, if it was not; followers answer
    /// with the same status, message and retry hint.
    pub error: Option<ApiError>,
}

/// One in-flight execution.
pub struct Flight {
    slot: Mutex<Option<FlightResult>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Self { slot: Mutex::new(None), done: Condvar::new() }
    }

    /// Block until the leader publishes, then clone the result.
    pub fn wait(&self) -> FlightResult {
        let mut slot = self.slot.lock();
        while slot.is_none() {
            self.done.wait(&mut slot);
        }
        slot.clone().expect("flight published")
    }
}

/// Joining a key either makes this request the executing leader or a
/// waiting follower.
pub enum Join {
    /// Execute, then [`Coalescer::complete`] the key.
    Lead,
    /// Wait on this flight; the leader's result fans out.
    Follow(Arc<Flight>),
}

/// The gateway's single-flight table.
#[derive(Default)]
pub struct Coalescer {
    flights: Mutex<HashMap<u64, Arc<Flight>>>,
    leads: AtomicU64,
    joins: AtomicU64,
}

/// Aggregate coalescing counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Flights that actually executed.
    pub leads: u64,
    /// Requests that piggybacked on an in-flight execution.
    pub joins: u64,
}

impl CoalesceStats {
    /// Fraction of coalescable submissions that were deduplicated:
    /// `joins / (leads + joins)`; 0 when nothing was submitted.
    pub fn dedupe_ratio(&self) -> f64 {
        let total = self.leads + self.joins;
        if total == 0 {
            0.0
        } else {
            self.joins as f64 / total as f64
        }
    }
}

impl Coalescer {
    /// Fresh, empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Join a key: the first concurrent arrival leads, the rest follow.
    pub fn join(&self, key: u64) -> Join {
        let mut flights = self.flights.lock();
        if let Some(flight) = flights.get(&key) {
            self.joins.fetch_add(1, Ordering::Relaxed);
            Join::Follow(Arc::clone(flight))
        } else {
            flights.insert(key, Arc::new(Flight::new()));
            self.leads.fetch_add(1, Ordering::Relaxed);
            Join::Lead
        }
    }

    /// Publish the leader's result: retire the flight (newcomers start
    /// fresh) and wake every follower with a clone of the result.
    pub fn complete(&self, key: u64, result: FlightResult) {
        let flight = self.flights.lock().remove(&key);
        if let Some(flight) = flight {
            *flight.slot.lock() = Some(result);
            flight.done.notify_all();
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CoalesceStats {
        CoalesceStats {
            leads: self.leads.load(Ordering::Relaxed),
            joins: self.joins.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_joins_merge_and_fan_out() {
        let c = Arc::new(Coalescer::new());
        let Join::Lead = c.join(7) else { panic!("first join must lead") };
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let Join::Follow(flight) = c.join(7) else { panic!("overlap must follow") };
                std::thread::spawn(move || flight.wait().checksum)
            })
            .collect();
        c.complete(7, FlightResult { checksum: 0xABCD, route: "nvcc".into(), error: None });
        for f in followers {
            assert_eq!(f.join().unwrap(), 0xABCD);
        }
        let s = c.stats();
        assert_eq!((s.leads, s.joins), (1, 4));
        assert!((s.dedupe_ratio() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn completed_flights_do_not_serve_later_arrivals() {
        let c = Coalescer::new();
        assert!(matches!(c.join(1), Join::Lead));
        c.complete(1, FlightResult { checksum: 1, route: "r".into(), error: None });
        // The key is retired: a post-completion arrival leads a new flight
        // instead of reading the old result.
        assert!(matches!(c.join(1), Join::Lead));
        assert_eq!(c.stats().joins, 0);
    }

    #[test]
    fn distinct_keys_never_merge() {
        let c = Coalescer::new();
        assert!(matches!(c.join(1), Join::Lead));
        assert!(matches!(c.join(2), Join::Lead));
        assert_eq!(c.stats().leads, 2);
    }
}
