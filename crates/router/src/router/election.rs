//! Leadership: term/vote elections, standby takeover, and promotion of
//! the most caught-up follower.

use super::{Router, RouterError};
use qcluster_service::{Request, Response};
use std::hash::BuildHasher;
use std::sync::atomic::Ordering;
use std::sync::MutexGuard;
use std::time::{Duration, Instant};

impl Router {
    /// One election at a time per partition for this router: two of its
    /// own threads bidding against each other would only fence each
    /// other out. Anti-entropy also stands back while the lock is held,
    /// so the router's own lease renewals cannot starve its election.
    fn election_lock(&self, partition: usize) -> MutexGuard<'_, ()> {
        self.partitions[partition]
            .election
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Wins a first term for `partition` unless this router already
    /// holds one: nothing is shipped at term 0.
    pub(super) fn ensure_term(&self, partition: usize) -> Result<u64, RouterError> {
        let _held = self.election_lock(partition);
        match self.partitions[partition].term.load(Ordering::Acquire) {
            0 => self.run_election(partition),
            term => Ok(term),
        }
    }

    /// Wins a fresh term for `partition` (see [`Router::run_election`]).
    pub(super) fn elect(&self, partition: usize) -> Result<u64, RouterError> {
        let _held = self.election_lock(partition);
        self.run_election(partition)
    }

    /// Runs one term/vote election for `partition`: probes every
    /// replica's acknowledged term, bids `max + 1`, and wins only when
    /// a **majority** of the partition's replicas grant the vote. Vote
    /// rounds are retried (after [`Router::election_pause`]) until
    /// [`RouterConfig::election_timeout`] elapses, so a dead leader's
    /// lease can be outwaited. Returns the won term. The caller holds
    /// the partition's election lock.
    ///
    /// # Errors
    ///
    /// [`RouterError::ElectionLost`] when no round reached a majority
    /// within the timeout.
    fn run_election(&self, partition: usize) -> Result<u64, RouterError> {
        let part = &self.partitions[partition];
        let lease_ms = self.config.lease_duration.as_millis() as u64;
        let majority = part.replicas.len() / 2 + 1;
        let deadline = Instant::now() + self.config.election_timeout;
        let mut observed = part.term.load(Ordering::Acquire);
        loop {
            // The bid must exceed every term already granted anywhere
            // in the partition, or no node can vote for it.
            for r in 0..part.replicas.len() {
                if let Ok(status) = self.status(partition, r) {
                    observed = observed.max(status.term);
                }
            }
            let candidate = observed + 1;
            let mut grants = 0usize;
            for r in 0..part.replicas.len() {
                match self.repl_exchange(
                    partition,
                    r,
                    &Request::Vote {
                        term: candidate,
                        lease_ms,
                    },
                ) {
                    Ok(Response::Voted { granted: true, .. }) => grants += 1,
                    Ok(Response::Voted {
                        granted: false,
                        term,
                    }) => {
                        observed = observed.max(term);
                    }
                    Ok(_) | Err(_) => {}
                }
            }
            if grants >= majority {
                part.term.store(candidate, Ordering::Release);
                self.counters.elections_won.fetch_add(1, Ordering::Relaxed);
                return Ok(candidate);
            }
            observed = observed.max(candidate);
            if Instant::now() >= deadline {
                self.counters.elections_lost.fetch_add(1, Ordering::Relaxed);
                return Err(RouterError::ElectionLost {
                    partition,
                    term: observed,
                });
            }
            std::thread::sleep(self.election_pause());
        }
    }

    /// The pause before a retried vote round: a draw from
    /// `[election_backoff, 2·election_backoff)` off this router's own
    /// stream (Raft §5.2's randomized timeout). Two routers that split
    /// a partition's votes retry at different times, so one of them
    /// soon collects a majority.
    fn election_pause(&self) -> Duration {
        let base = self.config.election_backoff;
        let span = u64::try_from(base.as_nanos()).unwrap_or(u64::MAX).max(1);
        let draw = self.jitter_draws.fetch_add(1, Ordering::Relaxed);
        base + Duration::from_nanos(self.jitter.hash_one(draw) % span)
    }

    /// Explicitly assumes leadership of `partition` without moving its
    /// data leader: wins a fresh term from a majority of the replicas,
    /// then fences (and leases) every reachable replica at that term.
    /// This is how a standby or replacement router takes over a
    /// partition; any previously-shipping router is fenced out with
    /// `StaleTerm` from its next ship onward.
    ///
    /// # Errors
    ///
    /// [`RouterError::ElectionLost`] when a majority refuses the vote
    /// (another router holds the term or an unexpired lease).
    pub fn acquire(&self, partition: usize) -> Result<u64, RouterError> {
        let term = self.elect(partition)?;
        let part = &self.partitions[partition];
        for r in 0..part.replicas.len() {
            let _ = self.fence_replica(partition, r);
        }
        Ok(term)
    }

    /// Promotes the most caught-up reachable replica of `partition`
    /// (excluding the current leader) to leader, returning its index.
    /// Promotion is an election, not local bookkeeping: the router
    /// first wins a fresh term from a majority of the partition's
    /// replicas (see [`Router::replica_consensus`]), so two routers
    /// racing a promotion over the same nodes cannot both succeed —
    /// the loser's subsequent ships are fenced with `StaleTerm`.
    ///
    /// This and a failed leader leg inside [`Router::ingest`] are the
    /// only promotions: no query, breaker trip or anti-entropy round
    /// runs one. So a partition that takes only queries (every one but
    /// `map.ingest_partition()`, or all of them when nothing ingests)
    /// degrades its dead leader's leg — `Transport`, then
    /// `BreakerOpen` — until a caller promotes it here.
    ///
    /// # Errors
    ///
    /// - [`RouterError::ElectionLost`] when another router holds the
    ///   term (or an unexpired lease) — the partition keeps its
    ///   current leader.
    /// - [`RouterError::Unavailable`] when the term was won but no
    ///   other replica answers a status probe.
    pub fn promote(&self, partition: usize) -> Result<usize, RouterError> {
        self.promote_from(partition, self.leader_of(partition))
    }

    /// [`Router::promote`] for a caller that saw `failed` fail as leader:
    /// when another thread has already moved the leader off it, that
    /// promotion is the answer and no second election is run.
    pub(super) fn promote_from(
        &self,
        partition: usize,
        failed: usize,
    ) -> Result<usize, RouterError> {
        let _held = self.election_lock(partition);
        let part = &self.partitions[partition];
        let current = part.leader.load(Ordering::Acquire);
        if current != failed {
            return Ok(current);
        }
        self.run_election(partition)?;
        let mut best: Option<(usize, u64)> = None;
        let mut failures = Vec::new();
        for r in 0..part.replicas.len() {
            if r == current {
                continue;
            }
            match self.status(partition, r) {
                Ok(status) => {
                    if best.is_none_or(|(_, t)| status.total > t) {
                        best = Some((r, status.total));
                    }
                }
                Err(kind) => failures.push(self.failure(partition, r, kind)),
            }
        }
        let Some((winner, _)) = best else {
            return Err(RouterError::Unavailable(failures));
        };
        part.leader.store(winner, Ordering::Release);
        part.replicas[winner].breaker.record_success();
        self.counters.promotions.fetch_add(1, Ordering::Relaxed);
        Ok(winner)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Router, RouterConfig, ShardMap};
    use std::net::SocketAddr;
    use std::time::Duration;

    fn router(backoff: Duration) -> Router {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let config = RouterConfig {
            election_backoff: backoff,
            ..RouterConfig::default()
        };
        Router::new(ShardMap::even(&[addr], 10).unwrap(), config).unwrap()
    }

    #[test]
    fn election_pauses_are_jittered_in_range_and_differ_per_router() {
        let backoff = Duration::from_millis(100);
        let a = router(backoff);
        for _ in 0..1_000 {
            let pause = a.election_pause();
            assert!(
                backoff <= pause && pause < 2 * backoff,
                "{pause:?} outside [{backoff:?}, {:?})",
                2 * backoff
            );
        }
        let (a, b) = (router(backoff), router(backoff));
        let draws = |r: &Router| (0..16).map(|_| r.election_pause()).collect::<Vec<_>>();
        assert_ne!(draws(&a), draws(&b));
    }
}
