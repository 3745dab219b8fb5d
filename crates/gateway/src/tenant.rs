//! Multi-tenant fair admission: one token bucket per tenant.
//!
//! Every tenant gets the same bucket (capacity + refill rate), so a
//! tenant flooding the front-door exhausts *its own* tokens and starts
//! collecting `429 Too Many Requests` while its neighbours' buckets stay
//! full — fair sharing by starvation isolation rather than scheduling.
//! The refusal carries a `Retry-After` derived from the refill rate, the
//! same shape the admission bound's `503` uses, so clients handle both
//! backpressure paths identically.
//!
//! A bucket that has refilled to `burst` admits exactly like a fresh one,
//! so the table forgets full buckets: whenever it has doubled since its
//! last sweep (and holds at least 1,024 tenants), one pass drops
//! every full bucket. The table stays bounded by the tenants that are
//! actually drawing on their tokens, and no admission decision changes.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::Instant;

/// The table size below which the governor never sweeps.
const SWEEP_FLOOR: usize = 1024;

/// Per-tenant rate limit configuration.
#[derive(Debug, Clone, Copy)]
pub struct TenantPolicy {
    /// Burst size: requests a silent tenant may fire at once.
    pub burst: f64,
    /// Sustained admission rate, tokens per second.
    pub per_second: f64,
}

impl Default for TenantPolicy {
    /// Generous defaults sized for loopback benchmarking: ample burst,
    /// effectively unthrottled sustained rate.
    fn default() -> Self {
        Self { burst: 10_000.0, per_second: 1_000_000.0 }
    }
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

impl Bucket {
    /// Tokens held at `now`, refilled at `policy`'s rate up to its burst.
    fn tokens_at(&self, now: Instant, policy: &TenantPolicy) -> f64 {
        let elapsed = now.saturating_duration_since(self.last).as_secs_f64();
        (self.tokens + elapsed * policy.per_second).min(policy.burst)
    }
}

/// The per-tenant token-bucket table.
pub struct TenantGovernor {
    policy: TenantPolicy,
    table: Mutex<Table>,
}

/// The buckets, and how many survived the last sweep.
#[derive(Default)]
struct Table {
    buckets: HashMap<String, Bucket>,
    swept_to: usize,
}

/// A refusal: how long (whole seconds, rounded up, minimum 1) until a
/// token will be available — the HTTP `Retry-After` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Throttled {
    /// Seconds until retry is worthwhile.
    pub retry_after_secs: u64,
}

impl TenantGovernor {
    /// A governor applying one policy to every tenant.
    pub fn new(policy: TenantPolicy) -> Self {
        Self { policy, table: Mutex::new(Table::default()) }
    }

    /// Admit one request from a tenant, or refuse with a retry hint.
    pub fn admit(&self, tenant: &str) -> Result<(), Throttled> {
        self.admit_at(tenant, Instant::now())
    }

    fn admit_at(&self, tenant: &str, now: Instant) -> Result<(), Throttled> {
        let policy = &self.policy;
        let mut table = self.table.lock();
        if table.buckets.len() >= SWEEP_FLOOR.max(2 * table.swept_to) {
            table.buckets.retain(|_, b| b.tokens_at(now, policy) < policy.burst);
            table.swept_to = table.buckets.len();
        }
        let bucket = table
            .buckets
            .entry(tenant.to_owned())
            .or_insert_with(|| Bucket { tokens: policy.burst, last: now });
        bucket.tokens = bucket.tokens_at(now, policy);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - bucket.tokens;
            let secs = (deficit / policy.per_second.max(f64::MIN_POSITIVE)).ceil() as u64;
            Err(Throttled { retry_after_secs: secs.max(1) })
        }
    }

    /// Tenants currently tracked: every tenant whose bucket is not full,
    /// and full ones not yet swept.
    pub fn tenant_count(&self) -> usize {
        self.table.lock().buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_is_admitted_then_throttled() {
        let g = TenantGovernor::new(TenantPolicy { burst: 3.0, per_second: 0.001 });
        for _ in 0..3 {
            assert!(g.admit("a").is_ok());
        }
        let t = g.admit("a").unwrap_err();
        assert!(t.retry_after_secs >= 1, "retry hint must be at least a second");
    }

    #[test]
    fn tenants_are_isolated() {
        let g = TenantGovernor::new(TenantPolicy { burst: 1.0, per_second: 0.001 });
        assert!(g.admit("flooder").is_ok());
        assert!(g.admit("flooder").is_err());
        // The neighbour's bucket is untouched by the flood.
        assert!(g.admit("neighbour").is_ok());
        assert_eq!(g.tenant_count(), 2);
    }

    #[test]
    fn one_request_tenants_do_not_pile_up() {
        // Under the default policy a bucket refills in a microsecond, so
        // each sweep finds nearly every earlier tenant full.
        let g = TenantGovernor::new(TenantPolicy::default());
        for t in 0..100_000 {
            assert!(g.admit(&format!("tenant-{t}")).is_ok());
            assert!(g.tenant_count() < 2 * SWEEP_FLOOR, "{} tenants after {t}", g.tenant_count());
        }
    }

    #[test]
    fn a_throttled_flooder_is_never_forgotten() {
        // One token per millisecond, one request every 10 µs: each
        // one-request tenant is full again a millisecond later, while the
        // flooder, asking at every step, never is.
        let g = TenantGovernor::new(TenantPolicy { burst: 1.0, per_second: 1000.0 });
        let start = Instant::now();
        let mut admitted = 0;
        for t in 0..100_000u64 {
            let now = start + std::time::Duration::from_micros(10 * t);
            admitted += u64::from(g.admit_at("flooder", now).is_ok());
            g.admit_at(&format!("tenant-{t}"), now).unwrap();
            assert!(g.table.lock().buckets.contains_key("flooder"), "dropped at step {t}");
        }
        // One second of requests: the burst plus one refill per millisecond.
        assert!((1000..=1001).contains(&admitted), "flooder admitted {admitted} times");
        assert!(g.tenant_count() < 2 * SWEEP_FLOOR, "{} tenants tracked", g.tenant_count());
    }

    #[test]
    fn tokens_refill_over_time() {
        let g = TenantGovernor::new(TenantPolicy { burst: 1.0, per_second: 1000.0 });
        assert!(g.admit("a").is_ok());
        // At 1000 tokens/sec a few milliseconds refill the bucket.
        let deadline = Instant::now() + std::time::Duration::from_millis(250);
        loop {
            if g.admit("a").is_ok() {
                break;
            }
            assert!(Instant::now() < deadline, "bucket never refilled");
            std::thread::yield_now();
        }
    }
}
