//! Ingest and replication: fenced majority-acked writes, WAL shipping
//! to followers, background anti-entropy, and the replica status probe.

use super::{AntiEntropyHandle, NodeFailureKind, Router, RouterError, SyncOutcome};
use qcluster_failpoint as failpoint;
use qcluster_service::{Request, Response, ServiceError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, TryLockError};
use std::time::{Duration, Instant};

/// One replica's answer to a `Status` probe.
pub(super) struct ReplicaStatus {
    pub(super) total: u64,
    pub(super) durable: u64,
    pub(super) term: u64,
    pub(super) leased: bool,
}

impl Router {
    /// Durably ingests one vector into the cluster: the write lands on
    /// the ingest partition's leader, then the leader's WAL is shipped
    /// to the partition's followers, and the ingest is acked only once
    /// a **majority** of replicas hold it — so a subsequently killed
    /// leader cannot lose an acked write. A leader failure triggers
    /// one promotion + retry before giving up.
    ///
    /// Returns the assigned **global** id and the number of replicas
    /// holding the record at ack time.
    ///
    /// # Errors
    ///
    /// - [`RouterError::ElectionLost`] when this router holds no term
    ///   yet and cannot win one (it never ships at term 0).
    /// - [`RouterError::Unavailable`] when no replica can take the write.
    /// - [`RouterError::NoQuorum`] when the write landed but could not
    ///   reach a majority (the record may survive; the caller must not
    ///   treat it as acked).
    pub fn ingest(&self, vector: Vec<f64>) -> Result<(usize, usize), RouterError> {
        let p = self.map.ingest_partition();
        let part = &self.partitions[p];
        self.ensure_term(p)?;
        let mut leader = part.leader.load(Ordering::Acquire);
        if failpoint::active() && failpoint::evaluate_sleepy("router.lease.expire").is_some() {
            // Injected lease expiry: this router must re-win its term
            // before it may ship again.
            self.elect(p)?;
        }
        // Fence before writing: an empty fenced Apply confirms no
        // other router has won a newer term (and renews the lease). A
        // StaleTerm here means this router is deposed — promotion must
        // not retry its way around the fence.
        let attempt = |leader: usize| -> Result<Response, NodeFailureKind> {
            self.fence_replica(p, leader)?;
            self.call_replica(
                p,
                leader,
                Request::Ingest {
                    vector: vector.clone(),
                },
            )
        };
        let response = match attempt(leader) {
            Ok(response) => response,
            Err(kind @ NodeFailureKind::StaleTerm(_)) => {
                return Err(RouterError::Unavailable(
                    vec![self.failure(p, leader, kind)],
                ));
            }
            Err(first_kind) => {
                // One promotion + retry: a dead leader must not stall
                // ingest while healthy followers hold the data.
                let first = self.failure(p, leader, first_kind);
                leader = self
                    .promote_from(p, leader)
                    .map_err(|_| RouterError::Unavailable(vec![first.clone()]))?;
                attempt(leader).map_err(|kind| {
                    RouterError::Unavailable(vec![first, self.failure(p, leader, kind)])
                })?
            }
        };
        if let Response::Error(e) = &response {
            // The node rejected the vector itself (its breaker took it
            // as a delivered reply).
            return Err(RouterError::InvalidRequest(e.to_string()));
        }
        let Response::Ingested { id, total } = response else {
            return Err(RouterError::Protocol(
                "ingest answered with something else".into(),
            ));
        };

        let mut copies = 1usize;
        for r in 0..part.replicas.len() {
            if r == leader {
                continue;
            }
            let inline = Some(self.config.max_inline_lag);
            if self
                .catch_up(p, leader, r, total as u64, inline, false)
                .is_ok()
            {
                copies += 1;
            }
        }
        let majority = part.replicas.len() / 2 + 1;
        if copies < majority {
            return Err(RouterError::NoQuorum {
                partition: p,
                copies,
                replicas: part.replicas.len(),
            });
        }
        Ok((part.id_base + id, copies))
    }

    /// One fenced `Apply` to `replica`, stamped with this router's term
    /// for `partition` and a fresh leader lease; empty `frames` make it
    /// a pure fence probe / lease renewal. Returns the replica's
    /// `(total, applied)`; a `StaleTerm` rejection means a newer leader
    /// has fenced this router out.
    fn ship(
        &self,
        partition: usize,
        replica: usize,
        frames: Vec<u8>,
    ) -> Result<(u64, u64), NodeFailureKind> {
        let request = Request::ReplApply {
            term: self.partitions[partition].term.load(Ordering::Acquire),
            lease_ms: self.config.lease_duration.as_millis() as u64,
            frames,
        };
        match self.repl_exchange(partition, replica, &request)? {
            Response::Applied { total, applied } => Ok((total, applied)),
            _ => Err(NodeFailureKind::Remote(
                "apply answered with something else".into(),
            )),
        }
    }

    /// Confirms this router still leads `partition` on `replica` by
    /// sending an empty fenced `Apply` — a pure fence probe that also
    /// renews the replica's leader lease.
    pub(super) fn fence_replica(
        &self,
        partition: usize,
        replica: usize,
    ) -> Result<(), NodeFailureKind> {
        self.ship(partition, replica, Vec::new()).map(|_| ())
    }

    /// One replication exchange with a specific replica, within one
    /// deadline, `client.read_timeout` from its start (a dial included).
    /// Replication traffic bypasses the circuit breakers and the
    /// `router.node` failpoints on purpose: status probes must work
    /// while a node's query breaker is open, or promotion could never
    /// examine a recovering follower. A node's error reply is
    /// [`NodeFailureKind::StaleTerm`] when it fenced a ship out (counted
    /// in `fenced_stale_ships`), [`NodeFailureKind::Remote`] otherwise.
    pub(super) fn repl_exchange(
        &self,
        partition: usize,
        replica: usize,
        request: &Request,
    ) -> Result<Response, NodeFailureKind> {
        let deadline = Instant::now() + self.config.client.read_timeout;
        let node = &self.partitions[partition].replicas[replica];
        let mut client = node.checkout(&self.config.client, deadline)?;
        let timeout = deadline.saturating_duration_since(Instant::now());
        let result = client
            .send(request)
            .and_then(|id| client.receive(id, timeout));
        node.checkin(client, result.as_ref().err());
        match result? {
            Response::Error(ServiceError::StaleTerm { current }) => {
                self.count(|c| c.fenced_stale_ships += 1);
                Err(NodeFailureKind::StaleTerm(current))
            }
            Response::Error(e) => Err(NodeFailureKind::Remote(e.to_string())),
            response => Ok(response),
        }
    }

    /// One `Status` probe: the replica's replication and consensus
    /// position.
    pub(super) fn status(
        &self,
        partition: usize,
        replica: usize,
    ) -> Result<ReplicaStatus, NodeFailureKind> {
        match self.repl_exchange(partition, replica, &Request::ReplStatus)? {
            Response::ReplStatus {
                total,
                durable,
                term,
                leased,
            } => Ok(ReplicaStatus {
                total,
                durable,
                term,
                leased,
            }),
            _ => Err(NodeFailureKind::Remote(
                "status probe answered with something else".into(),
            )),
        }
    }

    /// Ships the leader's committed records to one follower until the
    /// follower's total reaches `target`. With `max_lag`, a follower
    /// further behind than that is refused (the ingest ack path passes
    /// [`RouterConfig::max_inline_lag`] and leaves such a follower to
    /// anti-entropy, so it cannot stall every ingest). Apply is
    /// idempotent on the follower, so a torn exchange is safely
    /// re-driven from the follower's authoritative status; a
    /// `StaleTerm` rejection stops the stream.
    fn catch_up(
        &self,
        partition: usize,
        leader: usize,
        follower: usize,
        target: u64,
        max_lag: Option<u64>,
        anti_entropy: bool,
    ) -> Result<u64, NodeFailureKind> {
        let mut follower_total = self.status(partition, follower)?.total;
        if let Some(max_lag) = max_lag {
            let lag = target.saturating_sub(follower_total);
            if lag > max_lag {
                return Err(NodeFailureKind::Remote(format!(
                    "follower {lag} records behind (inline cap {max_lag}); left to anti-entropy"
                )));
            }
        }
        while follower_total < target {
            let batch = self.config.replication_batch.max(1);
            let Response::Chunk {
                total: leader_total,
                frames,
            } = self.repl_exchange(
                partition,
                leader,
                &Request::ReplFetch {
                    from: follower_total,
                    max: batch,
                },
            )?
            else {
                return Err(NodeFailureKind::Remote(
                    "fetch answered with something else".into(),
                ));
            };
            let shipped = leader_total
                .min(follower_total + u64::from(batch))
                .saturating_sub(follower_total);
            if shipped == 0 || frames.is_empty() {
                return Err(NodeFailureKind::Remote(format!(
                    "leader has {leader_total} records but shipped none from {follower_total}"
                )));
            }
            self.count(|c| c.replication_records_shipped += shipped);
            let (total, applied) = self.ship(partition, follower, frames)?;
            self.count(|c| {
                c.replication_records_applied += applied;
                c.anti_entropy_chunks_shipped += u64::from(anti_entropy);
            });
            if total <= follower_total {
                return Err(NodeFailureKind::Remote(format!(
                    "follower stuck at {total} records"
                )));
            }
            follower_total = total;
        }
        Ok(follower_total)
    }

    /// Brings every follower of `partition` up to the current leader's
    /// committed total, returning the per-replica totals observed.
    /// Useful after a cold start and as a periodic anti-entropy pass.
    ///
    /// # Errors
    ///
    /// [`RouterError::ElectionLost`] when this router holds no term and
    /// cannot win one, [`RouterError::Unavailable`] when the leader's
    /// status cannot be read; per-follower failures are reported in the
    /// result vector.
    pub fn sync_partition(&self, partition: usize) -> Result<SyncOutcome, RouterError> {
        self.ensure_term(partition)?;
        let part = &self.partitions[partition];
        let leader = part.leader.load(Ordering::Acquire);
        let total = self
            .status(partition, leader)
            .map_err(|kind| RouterError::Unavailable(vec![self.failure(partition, leader, kind)]))?
            .total;
        let mut results = Vec::new();
        for r in 0..part.replicas.len() {
            if r == leader {
                continue;
            }
            let outcome = self
                .catch_up(partition, leader, r, total, None, false)
                .map_err(|kind| self.failure(partition, r, kind));
            results.push((r, outcome));
        }
        Ok(results)
    }

    /// Spawns the background anti-entropy thread: every `interval` it
    /// renews this router's leader leases (once it holds a term) and
    /// streams unbounded catch-up to every lagging or rejoining
    /// follower, off the ingest path. Chunks shipped this way are
    /// counted in `ClusterGauges::anti_entropy_chunks_shipped`.
    /// Dropping the returned handle stops and joins the thread.
    ///
    /// # Panics
    ///
    /// Panics when the OS refuses the thread.
    pub fn start_anti_entropy(self: &Arc<Self>, interval: Duration) -> AntiEntropyHandle {
        let router = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("qrouter-anti-entropy".into())
            .spawn(move || {
                while !flag.load(Ordering::SeqCst) {
                    for p in 0..router.partitions.len() {
                        router.anti_entropy_pass(p);
                    }
                    // Sleep in slices so a drop of the handle is prompt.
                    let mut slept = Duration::ZERO;
                    while slept < interval && !flag.load(Ordering::SeqCst) {
                        let step = Duration::from_millis(20).min(interval - slept);
                        std::thread::sleep(step);
                        slept += step;
                    }
                }
            })
            .expect("spawn anti-entropy thread");
        AntiEntropyHandle {
            stop,
            join: Some(join),
        }
    }

    /// One anti-entropy round for `partition`: lease renewal on every
    /// reachable replica, then unbounded catch-up streaming to every
    /// follower behind the leader. A router that holds no term yet has
    /// nothing to renew and may not ship: the round is a no-op until an
    /// ingest, sync or `acquire` wins one. So is a round that finds an
    /// election of this router in progress: renewing its own leases
    /// then would keep every node refusing its own vote. Failures are
    /// tolerated — the next round retries.
    fn anti_entropy_pass(&self, partition: usize) {
        let part = &self.partitions[partition];
        let electing = matches!(part.election.try_lock(), Err(TryLockError::WouldBlock));
        if electing || part.term.load(Ordering::Acquire) == 0 {
            return;
        }
        for r in 0..part.replicas.len() {
            let _ = self.fence_replica(partition, r);
        }
        let leader = part.leader.load(Ordering::Acquire);
        let Ok(ReplicaStatus { total, .. }) = self.status(partition, leader) else {
            return;
        };
        for r in 0..part.replicas.len() {
            if r != leader {
                let _ = self.catch_up(partition, leader, r, total, None, true);
            }
        }
    }

    /// Replication status `(total, durable)` of one replica, straight
    /// from the node.
    ///
    /// # Errors
    ///
    /// [`RouterError::Unavailable`] when the replica cannot be reached.
    pub fn replica_status(
        &self,
        partition: usize,
        replica: usize,
    ) -> Result<(u64, u64), RouterError> {
        self.status(partition, replica)
            .map(|s| (s.total, s.durable))
            .map_err(|kind| RouterError::Unavailable(vec![self.failure(partition, replica, kind)]))
    }

    /// Consensus position `(term, leased)` of one replica, straight
    /// from the node: the highest term it has acknowledged and whether
    /// a leader lease is currently unexpired on it.
    ///
    /// # Errors
    ///
    /// [`RouterError::Unavailable`] when the replica cannot be reached.
    pub fn replica_consensus(
        &self,
        partition: usize,
        replica: usize,
    ) -> Result<(u64, bool), RouterError> {
        self.status(partition, replica)
            .map(|s| (s.term, s.leased))
            .map_err(|kind| RouterError::Unavailable(vec![self.failure(partition, replica, kind)]))
    }
}
