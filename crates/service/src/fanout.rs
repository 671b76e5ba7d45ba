//! The one fan-out primitive: what happens to a leg that is late, lost,
//! skipped or failing is defined here and nowhere else.
//!
//! The executor fans a query out over shards, the router scatters a
//! request over nodes; both degrade the same way. [`gather`] owns the
//! whole fault path of one fan-out — breaker admission, starting each
//! admitted target, collecting replies on one tagged channel until all
//! replied or the deadline passed, attributing every missing reply
//! ([`Miss`]), and the breaker bookkeeping — generic over the reply
//! payload `T` and the caller's own failure type `F`. What a caller
//! keeps is what only it knows: how a leg is started and how a [`Miss`]
//! maps onto its public failure enum and counters.
//!
//! Every admitted target gets exactly one `record_*` on its
//! [`Breaker`], so a half-open probe always resolves: reply → closed,
//! anything else → open again for a fresh cooldown.

use crossbeam::channel::{self, RecvTimeoutError, Sender};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct BreakerInner {
    consecutive_failures: u32,
    open_until: Option<Instant>,
    probing: bool,
}

/// Circuit breaker for one fan-out target (a shard, a node).
///
/// Closed → (threshold consecutive failures) → Open(until) →
/// (cooldown) → HalfOpen (one probe) → Closed on success, re-Open on
/// failure.
#[derive(Debug, Default)]
pub struct Breaker {
    state: Mutex<BreakerInner>,
    trips: AtomicU64,
}

impl Breaker {
    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether a leg for this target may run now. In the open state
    /// this admits exactly one half-open probe once the cooldown
    /// elapsed; the caller owes the breaker one `record_*` for every
    /// `true`.
    pub fn admit(&self, now: Instant) -> bool {
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
    fn is_closed(&self, now: Instant) -> bool {
        let s = self.lock();
        match s.open_until {
            None => true,
            Some(until) => now >= until && !s.probing,
        }
    }

    /// A leg succeeded: the breaker closes fully.
    pub fn record_success(&self) {
        let mut s = self.lock();
        s.consecutive_failures = 0;
        s.open_until = None;
        s.probing = false;
    }

    /// A leg failed. Returns `true` when this failure tripped (or
    /// re-tripped) the breaker.
    pub fn record_failure(&self, now: Instant, threshold: u32, cooldown: Duration) -> bool {
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
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }
}

/// Why one target's slot in a [`gather`] holds no reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Miss<F> {
    /// The target's breaker was open; its leg was never started.
    BreakerOpen,
    /// `start` refused the leg, or the leg itself reported a failure.
    Failed(F),
    /// The leg had not replied when the deadline passed.
    Timeout,
    /// Every reply handle was dropped with this leg still outstanding
    /// (whoever held it ended without replying).
    Lost,
}

/// The reply handle of one started leg; whoever runs the leg sends its
/// outcome here, from any thread, exactly once.
#[derive(Debug)]
pub struct Reply<T, F> {
    target: usize,
    tx: Sender<(usize, Result<T, F>)>,
}

impl<T, F> Reply<T, F> {
    /// Delivers the leg's outcome. A collector that already gave up
    /// (deadline passed) is not an error: the outcome is dropped.
    pub fn send(self, outcome: Result<T, F>) {
        let _ = self.tx.send((self.target, outcome));
    }
}

/// One fault-tolerant fan-out over `breakers.len()` targets.
///
/// Targets whose breaker admits them are handed to `start(i, reply)`,
/// which must not block on the leg (it queues it somewhere) and either
/// returns `Ok(())` or an early failure. Once every leg is started the
/// caller's own `work` runs (it may run queued legs itself, sending
/// their replies). Replies are then collected until every started leg
/// answered or `deadline` passed (`None` waits for all). The result has
/// one slot per target, in target order: the reply, or the [`Miss`]
/// that explains its absence. Failed, late and lost legs are charged to
/// their breaker with `threshold` / `cooldown`; replies close it.
pub fn gather<T, F, B: Deref<Target = Breaker>>(
    breakers: &[B],
    threshold: u32,
    cooldown: Duration,
    deadline: Option<Instant>,
    mut start: impl FnMut(usize, Reply<T, F>) -> Result<(), F>,
    work: impl FnOnce(),
) -> Vec<Result<T, Miss<F>>> {
    let now = Instant::now();
    let (tx, rx) = channel::unbounded();
    let mut slots: Vec<Option<Result<T, Miss<F>>>> = Vec::with_capacity(breakers.len());
    let mut pending = 0usize;
    for (target, breaker) in breakers.iter().enumerate() {
        slots.push(if !breaker.admit(now) {
            Some(Err(Miss::BreakerOpen))
        } else {
            let reply = Reply {
                target,
                tx: tx.clone(),
            };
            match start(target, reply) {
                Ok(()) => {
                    pending += 1;
                    None
                }
                Err(failure) => {
                    breaker.record_failure(Instant::now(), threshold, cooldown);
                    Some(Err(Miss::Failed(failure)))
                }
            }
        });
    }
    drop(tx);
    work();

    let mut lost = false;
    while pending > 0 {
        let received = match deadline {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(d) => rx.recv_timeout(d.saturating_duration_since(Instant::now())),
        };
        match received {
            Ok((target, outcome)) => {
                pending -= 1;
                match &outcome {
                    Ok(_) => breakers[target].record_success(),
                    Err(_) => {
                        breakers[target].record_failure(Instant::now(), threshold, cooldown);
                    }
                }
                slots[target] = Some(outcome.map_err(Miss::Failed));
            }
            Err(RecvTimeoutError::Timeout) => break,
            Err(RecvTimeoutError::Disconnected) => {
                lost = true;
                break;
            }
        }
    }

    slots
        .into_iter()
        .zip(breakers)
        .map(|(slot, breaker)| {
            slot.unwrap_or_else(|| {
                breaker.record_failure(Instant::now(), threshold, cooldown);
                Err(if lost { Miss::Lost } else { Miss::Timeout })
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const COOLDOWN: Duration = Duration::from_millis(50);

    fn breakers(n: usize) -> Vec<Breaker> {
        (0..n).map(|_| Breaker::default()).collect()
    }

    /// [`gather`] with no work of the caller's own.
    fn legs<T, F>(
        b: &[Breaker],
        threshold: u32,
        cooldown: Duration,
        deadline: Option<Instant>,
        start: impl FnMut(usize, Reply<T, F>) -> Result<(), F>,
    ) -> Vec<Result<T, Miss<F>>> {
        let refs: Vec<&Breaker> = b.iter().collect();
        gather(&refs, threshold, cooldown, deadline, start, || {})
    }

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

    #[test]
    fn all_replies_land_in_target_order() {
        let b = breakers(3);
        let got = legs(&b, 3, COOLDOWN, None, |i, reply: Reply<usize, ()>| {
            std::thread::spawn(move || reply.send(Ok(i * 10)));
            Ok(())
        });
        assert_eq!(got, vec![Ok(0), Ok(10), Ok(20)]);
        assert!(b.iter().all(|b| b.trips() == 0));
    }

    #[test]
    fn the_callers_work_runs_after_every_start_and_its_replies_count() {
        let b = [Breaker::default(), Breaker::default()];
        let queued = std::cell::RefCell::new(Vec::new());
        let start = |i, reply: Reply<usize, ()>| {
            queued.borrow_mut().push((i, reply));
            Ok(())
        };
        let work = || {
            for (i, reply) in queued.take() {
                reply.send(Ok(i + 1));
            }
        };
        assert_eq!(
            gather(&[&b[0], &b[1]], 1, COOLDOWN, None, start, work),
            [Ok(1), Ok(2)]
        );
    }

    #[test]
    fn a_leg_past_the_deadline_is_a_timeout_and_the_rest_are_kept() {
        let b = breakers(3);
        let mut held = None; // keeps leg 1's channel connected, never answers
        let deadline = Instant::now() + Duration::from_millis(20);
        let got = legs(&b, 1, COOLDOWN, Some(deadline), |i, reply| {
            if i == 1 {
                held = Some(reply);
            } else {
                reply.send(Ok::<_, ()>(i));
            }
            Ok(())
        });
        assert_eq!(got, vec![Ok(0), Err(Miss::Timeout), Ok(2)]);
        assert_eq!(b[1].trips(), 1, "the late leg is charged");
        assert_eq!(b[0].trips() + b[2].trips(), 0);
    }

    #[test]
    fn a_dropped_reply_handle_is_a_lost_leg() {
        let b = breakers(2);
        let got = legs(&b, 1, COOLDOWN, None, |i, reply| {
            if i == 0 {
                reply.send(Ok::<_, ()>("answered"));
            } // leg 1's handle is dropped unanswered
            Ok(())
        });
        assert_eq!(got, vec![Ok("answered"), Err(Miss::Lost)]);
        assert_eq!(b[1].trips(), 1, "the lost leg is charged");
    }

    #[test]
    fn a_refused_start_and_a_failing_leg_are_charged_failures() {
        let b = breakers(3);
        let got = legs(&b, 1, COOLDOWN, None, |i, reply| match i {
            0 => Err("queue closed"),
            1 => {
                reply.send(Err("leg failed"));
                Ok(())
            }
            _ => {
                reply.send(Ok(7));
                Ok(())
            }
        });
        assert_eq!(
            got,
            vec![
                Err(Miss::Failed("queue closed")),
                Err(Miss::Failed("leg failed")),
                Ok(7)
            ]
        );
        assert_eq!((b[0].trips(), b[1].trips(), b[2].trips()), (1, 1, 0));
    }

    #[test]
    fn nothing_admitted_means_nothing_started_and_no_wait() {
        let b = breakers(2);
        let now = Instant::now();
        for breaker in &b {
            breaker.record_failure(now, 1, Duration::from_secs(60));
        }
        let mut started = 0;
        let got = legs(&b, 1, COOLDOWN, None, |_, _: Reply<(), ()>| {
            started += 1;
            Ok(())
        });
        assert_eq!(got, vec![Err(Miss::BreakerOpen), Err(Miss::BreakerOpen)]);
        assert_eq!(started, 0);
    }

    #[test]
    fn a_half_open_probe_always_resolves() {
        let b = breakers(1);
        b[0].record_failure(Instant::now(), 1, Duration::ZERO);
        // The probe is started and never answers: re-tripped, not stuck.
        let got = legs(&b, 1, Duration::ZERO, None, |_, _: Reply<(), ()>| Ok(()));
        assert_eq!(got, vec![Err(Miss::Lost)]);
        assert_eq!(b[0].trips(), 2);
        // The next fan-out probes again, and a reply closes the breaker.
        let got = legs(&b, 1, Duration::ZERO, None, |_, reply| {
            reply.send(Ok::<_, ()>(()));
            Ok(())
        });
        assert_eq!(got, vec![Ok(())]);
        assert!(b[0].is_closed(Instant::now()));
        assert_eq!(b[0].trips(), 2);
    }
}
