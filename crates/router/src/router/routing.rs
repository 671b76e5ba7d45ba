//! The request path: scatter legs over nodes through the shared
//! fan-out primitive, replica selection, sessions, queries, feedback
//! and cluster-wide stats.

use super::{
    NodeFailure, NodeFailureKind, NodeJob, ReadPreference, Router, RouterError, ScatterReport,
    SessionState,
};
use qcluster_failpoint as failpoint;
use qcluster_index::{merge_top_k, Neighbor, SearchStats};
use qcluster_service::fanout::{gather, Breaker, Miss};
use qcluster_service::{
    FeedPointDto, MetricsSnapshot, NeighborDto, Request, Response, SearchStatsDto,
};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// One leg of a scatter: the request for replica `.1` of partition `.0`.
type Leg = (usize, usize, Request);

/// A collected leg: its partition, replica, and the node's (non-error)
/// response or the typed reason it is missing.
type LegOutcome = (usize, usize, Result<Response, NodeFailureKind>);

impl Router {
    /// Counts one missing leg and names it in the router's failure
    /// vocabulary. (Breaker bookkeeping already happened in `gather`.)
    fn note_miss(&self, miss: Miss<NodeFailureKind>) -> NodeFailureKind {
        let (counter, kind) = match miss {
            // Skipping is not a health observation.
            Miss::BreakerOpen => (
                &self.counters.node_breaker_skips,
                NodeFailureKind::BreakerOpen,
            ),
            Miss::Timeout | Miss::Lost => (&self.counters.node_timeouts, NodeFailureKind::Timeout),
            Miss::Failed(kind) => (&self.counters.node_failures, kind),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        kind
    }

    /// Sends every leg to its node's worker and collects the replies
    /// under one fresh per-node deadline: breaker admission, deadline,
    /// and attribution are `gather`'s; what is the router's own is the
    /// failpoint in front of each leg and the hand-off to the worker.
    /// Never blocks on the network while dispatching.
    pub(super) fn scatter(&self, legs: Vec<Leg>) -> Vec<LegOutcome> {
        let deadline = Instant::now() + self.config.node_deadline;
        let breakers: Vec<&Breaker> = legs
            .iter()
            .map(|&(p, r, _)| &self.partitions[p].replicas[r].breaker)
            .collect();
        let targets: Vec<(usize, usize)> = legs.iter().map(|&(p, r, _)| (p, r)).collect();
        let mut requests: Vec<Option<Request>> = legs.into_iter().map(|l| Some(l.2)).collect();
        // Injected `partial:<n>` caps on a leg's neighbor list.
        let mut partial: Vec<Option<usize>> = vec![None; targets.len()];
        let outcomes = gather(
            &breakers,
            self.config.breaker_threshold,
            self.config.breaker_cooldown,
            Some(deadline),
            |i, reply| {
                let (p, r) = targets[i];
                // Failpoints: the partition-specific name wins over the
                // generic one; formatting only happens while any
                // failpoint is armed.
                if failpoint::active() {
                    let action = failpoint::evaluate_sleepy(&format!("router.node.{p}"))
                        .or_else(|| failpoint::evaluate_sleepy("router.node"));
                    match action {
                        Some(failpoint::Action::Error(msg))
                        | Some(failpoint::Action::Panic(msg)) => {
                            return Err(NodeFailureKind::Remote(format!(
                                "injected failure on partition {p}: {msg}"
                            )));
                        }
                        Some(failpoint::Action::Partial(n)) => partial[i] = Some(n),
                        Some(failpoint::Action::Sleep(_)) | None => {}
                    }
                }
                let request = requests[i].take().expect("each leg starts once");
                self.partitions[p].replicas[r]
                    .tx
                    .send(NodeJob::Call { request, reply })
                    .map_err(|_| NodeFailureKind::Transport("node worker exited".into()))
            },
            || {},
        );
        outcomes
            .into_iter()
            .zip(targets)
            .zip(partial)
            .map(|((outcome, (p, r)), cap)| {
                let mut outcome = outcome.map_err(|miss| self.note_miss(miss));
                if let (Some(cap), Ok(Response::Neighbors { neighbors, .. })) = (cap, &mut outcome)
                {
                    neighbors.truncate(cap);
                }
                (p, r, outcome)
            })
            .collect()
    }

    /// One synchronous call to a specific replica.
    pub(super) fn call_replica(
        &self,
        partition: usize,
        replica: usize,
        request: Request,
    ) -> Result<Response, NodeFailureKind> {
        let (_, _, outcome) = self
            .scatter(vec![(partition, replica, request)])
            .pop()
            .expect("one leg in, one outcome out");
        outcome
    }

    pub(super) fn failure(
        &self,
        partition: usize,
        replica: usize,
        kind: NodeFailureKind,
    ) -> NodeFailure {
        NodeFailure {
            partition,
            addr: self.partitions[partition].replicas[replica].addr,
            kind,
        }
    }

    fn unexpected(&self, partition: usize, replica: usize, response: &Response) -> NodeFailure {
        self.failure(
            partition,
            replica,
            NodeFailureKind::Remote(format!("unexpected response: {response:?}")),
        )
    }

    /// Picks the replica serving a query leg for `partition` per the
    /// configured [`ReadPreference`], constrained by the session's
    /// read-your-writes marks: a replica behind the session's latest
    /// feed round or acked ingest total never serves its queries.
    fn read_replica(&self, partition: usize, sess: &SessionState) -> usize {
        let part = &self.partitions[partition];
        let leader = part.leader.load(Ordering::Acquire);
        let now = Instant::now();
        let known = |r: usize| part.replicas[r].known_total.load(Ordering::Acquire);
        if let ReadPreference::StaleOk { max_lag } = self.config.read_preference {
            if !part.replicas[leader].breaker.is_closed(now) {
                let leader_total = known(leader);
                let mut ryw_blocked = false;
                for (r, node) in part.replicas.iter().enumerate() {
                    if r == leader || !node.breaker.is_closed(now) {
                        continue;
                    }
                    if leader_total.saturating_sub(known(r)) > max_lag {
                        continue;
                    }
                    if sess.ryw_ok(partition, r, known(r)) {
                        self.counters.stale_reads.fetch_add(1, Ordering::Relaxed);
                        return r;
                    }
                    ryw_blocked = true;
                }
                if ryw_blocked {
                    // A lag-bounded follower existed but sat behind
                    // this session's marks: read-your-writes wins over
                    // the stale-read preference.
                    self.counters
                        .ryw_leader_fallbacks
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if sess.ryw_ok(partition, leader, known(leader)) {
            return leader;
        }
        // The leader itself is behind the session (it missed a feed
        // broadcast another replica acked): any replica satisfying the
        // marks serves, else degrade to the leader.
        (0..part.replicas.len())
            .find(|&r| r != leader && sess.ryw_ok(partition, r, known(r)))
            .unwrap_or(leader)
    }

    // ------------------------------------------------------------------
    // Sessions
    // ------------------------------------------------------------------

    /// Opens a session on every replica of every partition (followers
    /// included, so failover and stale reads keep the session state)
    /// and returns the router-level session id.
    ///
    /// # Errors
    ///
    /// [`RouterError::Unavailable`] when any partition has *zero*
    /// replicas with the session — such a cluster could never answer.
    pub fn create_session(&self, engine: Option<&str>) -> Result<u64, RouterError> {
        let mut legs = Vec::new();
        for (p, part) in self.partitions.iter().enumerate() {
            for r in 0..part.replicas.len() {
                let engine = engine.map(str::to_string);
                legs.push((p, r, Request::CreateSession { engine }));
            }
        }
        let mut sids: HashMap<(usize, usize), u64> = HashMap::new();
        let mut failures = Vec::new();
        for (p, r, outcome) in self.scatter(legs) {
            match outcome {
                Ok(Response::SessionCreated { session }) => {
                    sids.insert((p, r), session);
                }
                Ok(other) => failures.push(self.unexpected(p, r, &other)),
                Err(kind) => failures.push(self.failure(p, r, kind)),
            }
        }
        for p in 0..self.partitions.len() {
            if !sids.keys().any(|&(sp, _)| sp == p) {
                return Err(RouterError::Unavailable(failures));
            }
        }
        let session = self.next_session.fetch_add(1, Ordering::Relaxed);
        self.sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(
                session,
                SessionState {
                    bindings: sids,
                    ..SessionState::default()
                },
            );
        Ok(session)
    }

    /// Closes `session` on every replica that holds it.
    ///
    /// # Errors
    ///
    /// [`RouterError::UnknownSession`] when the router never issued
    /// `session` (node-side close failures are best-effort ignored —
    /// node sessions also expire by idle TTL).
    pub fn close_session(&self, session: u64) -> Result<(), RouterError> {
        let state = self
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&session)
            .ok_or(RouterError::UnknownSession(session))?;
        let legs = state
            .bindings
            .iter()
            .map(|(&(p, r), &sid)| (p, r, Request::CloseSession { session: sid }))
            .collect();
        self.scatter(legs);
        Ok(())
    }

    pub(super) fn session_state(&self, session: u64) -> Result<SessionState, RouterError> {
        self.sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&session)
            .cloned()
            .ok_or(RouterError::UnknownSession(session))
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Scatters one k-NN round to one replica per partition and merges
    /// the partial top-k lists (ids remapped to the global space,
    /// ties by `(distance, id)` — identical to the executor's shard
    /// merge). Missing legs degrade the response instead of failing it;
    /// `nodes_ok / nodes_total` on the returned [`Response::Neighbors`]
    /// carry the coverage.
    ///
    /// # Errors
    ///
    /// - [`RouterError::UnknownSession`] for a session this router
    ///   never issued.
    /// - [`RouterError::Unavailable`] when *zero* partitions answered.
    pub fn query(
        &self,
        session: u64,
        k: usize,
        vector: Option<Vec<f64>>,
        deadline_ms: Option<u64>,
    ) -> Result<ScatterReport, RouterError> {
        let sess = self.session_state(session)?;
        let nodes_total = self.partitions.len();
        let mut failures: Vec<NodeFailure> = Vec::new();
        let mut legs = Vec::new();
        for p in 0..self.partitions.len() {
            let r = self.read_replica(p, &sess);
            let Some(&sid) = sess.bindings.get(&(p, r)) else {
                failures.push(self.failure(
                    p,
                    r,
                    NodeFailureKind::Remote("replica holds no session state".into()),
                ));
                continue;
            };
            legs.push((
                p,
                r,
                Request::Query {
                    session: sid,
                    k,
                    vector: vector.clone(),
                    deadline_ms,
                },
            ));
        }
        let mut lists: Vec<Vec<Neighbor>> = Vec::with_capacity(legs.len());
        let mut stats = SearchStats::default();
        let (mut shards_ok, mut shards_total, mut nodes_ok) = (0usize, 0usize, 0usize);
        for (p, r, outcome) in self.scatter(legs) {
            match outcome {
                Ok(Response::Neighbors {
                    neighbors,
                    stats: leg_stats,
                    shards_ok: leg_shards_ok,
                    shards_total: leg_shards_total,
                    ..
                }) => {
                    let id_base = self.partitions[p].id_base;
                    lists.push(
                        neighbors
                            .into_iter()
                            .map(|n| Neighbor {
                                id: id_base + n.id,
                                distance: n.distance,
                            })
                            .collect(),
                    );
                    stats.absorb(&SearchStats::from(leg_stats));
                    shards_ok += leg_shards_ok;
                    shards_total += leg_shards_total;
                    nodes_ok += 1;
                }
                Ok(other) => failures.push(self.unexpected(p, r, &other)),
                Err(kind) => failures.push(self.failure(p, r, kind)),
            }
        }
        if nodes_ok == 0 {
            return Err(RouterError::Unavailable(failures));
        }
        let degraded = nodes_ok < nodes_total || shards_ok < shards_total;
        if degraded {
            self.counters
                .degraded_responses
                .fetch_add(1, Ordering::Relaxed);
        }
        let neighbors: Vec<NeighborDto> = merge_top_k(lists, k)
            .into_iter()
            .map(NeighborDto::from)
            .collect();
        failures.sort_by_key(|f| f.partition);
        Ok(ScatterReport {
            response: Response::Neighbors {
                session,
                neighbors,
                stats: SearchStatsDto::from(stats),
                shards_ok,
                shards_total,
                nodes_ok,
                nodes_total,
                degraded,
            },
            failures,
        })
    }

    // ------------------------------------------------------------------
    // Feedback
    // ------------------------------------------------------------------

    /// Marks global corpus ids as relevant: resolves each id's vector
    /// from its owning partition's leader, then broadcasts the explicit
    /// `(id, vector, score)` triples to every replica holding the
    /// session (so refined queries agree across replicas and survive
    /// failover).
    ///
    /// # Errors
    ///
    /// - [`RouterError::UnknownSession`] / [`RouterError::InvalidRequest`]
    ///   for bad inputs.
    /// - [`RouterError::Unavailable`] when a vector's owner partition
    ///   could not resolve it, or when any partition ends up with zero
    ///   replicas that accepted the feed.
    pub fn feed(
        &self,
        session: u64,
        relevant_ids: &[usize],
        scores: Option<&[f64]>,
    ) -> Result<Response, RouterError> {
        if relevant_ids.is_empty() {
            return Err(RouterError::InvalidRequest("empty feedback".into()));
        }
        if let Some(scores) = scores {
            if scores.len() != relevant_ids.len() {
                return Err(RouterError::InvalidRequest(format!(
                    "{} ids but {} scores",
                    relevant_ids.len(),
                    scores.len()
                )));
            }
        }
        let sess = self.session_state(session)?;

        // Resolve vectors with one scatter: a `FetchVectors` leg to
        // every owning partition's leader (local id = global -
        // id_base), preserving the caller's input order in `points`.
        let mut by_owner: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, &id) in relevant_ids.iter().enumerate() {
            by_owner.entry(self.map.owner(id)).or_default().push(i);
        }
        let mut points: Vec<Option<FeedPointDto>> = vec![None; relevant_ids.len()];
        let mut owners: Vec<(usize, Vec<usize>)> = by_owner.into_iter().collect();
        owners.sort_by_key(|(p, _)| *p);
        let legs = owners
            .iter()
            .map(|(p, indices)| {
                let id_base = self.partitions[*p].id_base;
                let leader = self.partitions[*p].leader.load(Ordering::Acquire);
                let ids = indices.iter().map(|&i| relevant_ids[i] - id_base).collect();
                (*p, leader, Request::FetchVectors { ids })
            })
            .collect();
        // Every leg is collected; the lowest failing partition names
        // the error.
        for ((p, leader, outcome), (_, indices)) in self.scatter(legs).into_iter().zip(&owners) {
            match outcome {
                Ok(Response::Vectors { vectors }) if vectors.len() == indices.len() => {
                    for (&i, vector) in indices.iter().zip(vectors) {
                        points[i] = Some(FeedPointDto {
                            id: relevant_ids[i],
                            vector,
                            score: scores.map_or(self.config.default_score, |s| s[i]),
                        });
                    }
                }
                Ok(Response::Vectors { vectors }) => {
                    return Err(RouterError::Protocol(format!(
                        "partition {p} resolved {} of {} vectors",
                        vectors.len(),
                        indices.len()
                    )));
                }
                Ok(_) => {
                    return Err(RouterError::Protocol(format!(
                        "partition {p} answered FetchVectors with something else"
                    )));
                }
                Err(kind) => {
                    return Err(RouterError::Unavailable(
                        vec![self.failure(p, leader, kind)],
                    ));
                }
            }
        }
        let points: Vec<FeedPointDto> = points
            .into_iter()
            .map(|p| p.expect("every id resolved by its owner"))
            .collect();

        // Broadcast to every replica holding the session.
        let legs = sess
            .bindings
            .iter()
            .map(|(&(p, r), &sid)| {
                let points = points.clone();
                (
                    p,
                    r,
                    Request::FeedPoints {
                        session: sid,
                        points,
                    },
                )
            })
            .collect();
        let mut accepted: Option<Response> = None;
        let mut ok_partitions: Vec<bool> = vec![false; self.partitions.len()];
        let mut acked_replicas: Vec<(usize, usize)> = Vec::new();
        let mut failures = Vec::new();
        for (p, r, outcome) in self.scatter(legs) {
            match outcome {
                Ok(Response::FeedAccepted {
                    iteration,
                    clusters,
                    ..
                }) => {
                    ok_partitions[p] = true;
                    acked_replicas.push((p, r));
                    accepted.get_or_insert(Response::FeedAccepted {
                        session,
                        iteration,
                        clusters,
                    });
                }
                Ok(other) => failures.push(self.unexpected(p, r, &other)),
                Err(kind) => failures.push(self.failure(p, r, kind)),
            }
        }
        if !ok_partitions.iter().all(|&ok| ok) {
            return Err(RouterError::Unavailable(failures));
        }
        // Advance the session's read-your-writes feed mark: from here
        // on, only replicas that acked this round serve its queries.
        {
            let mut sessions = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(state) = sessions.get_mut(&session) {
                state.feed_round += 1;
                let round = state.feed_round;
                for &(p, r) in &acked_replicas {
                    state.feed_acked.insert((p, r), round);
                }
            }
        }
        Ok(accepted.expect("all partitions accepted"))
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /// Cluster-wide metrics: every reachable partition leader's
    /// snapshot absorbed into one (counters summed, quantiles bounded
    /// by the per-node maxima), with [`MetricsSnapshot::cluster`]
    /// replaced by this router's own counters.
    ///
    /// # Errors
    ///
    /// [`RouterError::Unavailable`] when no node answered.
    pub fn stats(&self) -> Result<MetricsSnapshot, RouterError> {
        let legs = self
            .partitions
            .iter()
            .enumerate()
            .map(|(p, part)| (p, part.leader.load(Ordering::Acquire), Request::Stats))
            .collect();
        let mut merged: Option<MetricsSnapshot> = None;
        let mut failures = Vec::new();
        for (p, r, outcome) in self.scatter(legs) {
            match outcome {
                Ok(Response::Stats(snapshot)) => match merged.as_mut() {
                    None => merged = Some(*snapshot),
                    Some(agg) => agg.absorb(&snapshot),
                },
                Ok(other) => failures.push(self.unexpected(p, r, &other)),
                Err(kind) => failures.push(self.failure(p, r, kind)),
            }
        }
        let mut snapshot = merged.ok_or(RouterError::Unavailable(failures))?;
        snapshot.cluster = self.cluster_gauges();
        Ok(snapshot)
    }
}
