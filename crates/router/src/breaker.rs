//! The per-node circuit breaker of [`Router::scatter`](crate::Router):
//! a node that keeps failing is skipped until a cooldown elapses, then
//! probed with one leg.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct BreakerInner {
    consecutive_failures: u32,
    open_until: Option<Instant>,
    probing: bool,
}

/// Circuit breaker for one node.
///
/// Closed → (threshold consecutive failures) → Open(until) →
/// (cooldown) → HalfOpen (one probe) → Closed on success, re-Open on
/// failure.
#[derive(Debug, Default)]
pub(crate) struct Breaker {
    state: Mutex<BreakerInner>,
    trips: AtomicU64,
}

impl Breaker {
    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether a leg for this node may run now. In the open state
    /// this admits exactly one half-open probe once the cooldown
    /// elapsed; the caller owes the breaker one `record_*` for every
    /// `true`.
    pub(crate) fn admit(&self, now: Instant) -> bool {
        let mut s = self.lock();
        match s.open_until {
            None => true,
            Some(until) if now < until => false,
            Some(_) if s.probing => false,
            Some(_) => {
                s.probing = true;
                true
            }
        }
    }

    /// Whether the breaker is currently closed (read-only: does not
    /// consume the half-open probe).
    #[cfg(test)]
    pub(crate) fn is_closed(&self, now: Instant) -> bool {
        let s = self.lock();
        match s.open_until {
            None => true,
            Some(until) => now >= until && !s.probing,
        }
    }

    /// A leg succeeded: the breaker closes fully.
    pub(crate) fn record_success(&self) {
        let mut s = self.lock();
        s.consecutive_failures = 0;
        s.open_until = None;
        s.probing = false;
    }

    /// A leg failed. Returns `true` when this failure tripped (or
    /// re-tripped) the breaker.
    pub(crate) fn record_failure(&self, now: Instant, threshold: u32, cooldown: Duration) -> bool {
        let mut s = self.lock();
        s.consecutive_failures = s.consecutive_failures.saturating_add(1);
        let trip = s.probing || s.consecutive_failures >= threshold;
        s.probing = false;
        if trip {
            s.open_until = Some(now + cooldown);
            self.trips.fetch_add(1, Ordering::Relaxed);
        }
        trip
    }

    /// Closed/half-open → open transitions so far.
    pub(crate) fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COOLDOWN: Duration = Duration::from_millis(50);

    #[test]
    fn breaker_admits_closed_trips_then_half_opens() {
        let breaker = Breaker::default();
        let t0 = Instant::now();
        assert!(breaker.admit(t0));
        assert!(!breaker.record_failure(t0, 2, COOLDOWN));
        assert!(breaker.admit(t0));
        assert!(
            breaker.record_failure(t0, 2, COOLDOWN),
            "second failure trips"
        );
        assert!(!breaker.admit(t0), "open: skip");
        assert!(!breaker.is_closed(t0));
        assert!(!breaker.admit(t0 + Duration::from_millis(10)), "still open");
        // Cooldown elapsed: exactly one half-open probe.
        let after = t0 + Duration::from_millis(60);
        assert!(breaker.is_closed(after), "reading does not take the probe");
        assert!(breaker.admit(after), "half-open probe admitted");
        assert!(!breaker.admit(after), "only one probe at a time");
        assert!(!breaker.is_closed(after), "a probe is in flight");
        // Probe failure re-trips immediately (no threshold wait).
        assert!(breaker.record_failure(after, 2, COOLDOWN));
        assert!(!breaker.admit(after + Duration::from_millis(10)));
        // Next probe succeeds: breaker closes fully.
        let later = after + Duration::from_millis(60);
        assert!(breaker.admit(later));
        breaker.record_success();
        assert!(breaker.admit(later), "closed again: everyone admitted");
        assert_eq!(breaker.trips(), 2);
    }
}
