//! The request path: scatter legs over nodes through the shared
//! fan-out primitive, replica selection, the sessions the router hosts,
//! queries, feedback and cluster-wide stats.

use super::{
    NodeFailure, NodeFailureKind, NodeJob, ReadPreference, Router, RouterError, ScatterReport,
};
use qcluster_failpoint as failpoint;
use qcluster_index::{merge_top_k, Neighbor, SearchStats};
use qcluster_service::fanout::{gather, Breaker, Miss};
use qcluster_service::{
    feedback_points, MetricsSnapshot, NeighborDto, QuerySpec, Request, Response, SearchStatsDto,
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
    /// read-your-writes `mark` there: a replica whose committed total
    /// is behind an acked ingest of the session never serves its
    /// queries.
    fn read_replica(&self, partition: usize, mark: Option<u64>) -> usize {
        let part = &self.partitions[partition];
        let leader = part.leader.load(Ordering::Acquire);
        let now = Instant::now();
        let known = |r: usize| part.replicas[r].known_total.load(Ordering::Acquire);
        let ryw_ok = |r: usize| mark.is_none_or(|mark| known(r) >= mark);
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
                    if ryw_ok(r) {
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
        if ryw_ok(leader) {
            return leader;
        }
        // The router has not yet seen the leader reach the session's
        // mark: any replica known to satisfy it serves, else degrade to
        // the leader.
        (0..part.replicas.len())
            .find(|&r| r != leader && ryw_ok(r))
            .unwrap_or(leader)
    }

    // ------------------------------------------------------------------
    // Sessions
    // ------------------------------------------------------------------

    /// Opens a session hosting the method `engine` names in
    /// `METHODS` (`None` is `"qcluster"`). At capacity the least
    /// recently used session is evicted, and its ingest marks with it.
    /// Local: no leg is sent.
    ///
    /// # Errors
    ///
    /// [`RouterError::InvalidRequest`] for an unknown name.
    pub fn create_session(&self, engine: Option<&str>) -> Result<u64, RouterError> {
        let (session, evicted) = self
            .sessions
            .create(engine.unwrap_or("qcluster"), &self.metrics)?;
        if !evicted.is_empty() {
            let mut marks = self.ingest_marks.lock().unwrap_or_else(|e| e.into_inner());
            for id in evicted {
                marks.remove(&id);
            }
        }
        Ok(session)
    }

    /// Closes `session`. Local: no leg is sent.
    ///
    /// # Errors
    ///
    /// [`RouterError::UnknownSession`] when `session` is not live.
    pub fn close_session(&self, session: u64) -> Result<(), RouterError> {
        self.sessions.close(session, &self.metrics)?;
        self.ingest_marks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&session);
        Ok(())
    }

    /// Fails with [`RouterError::UnknownSession`] unless `session` is
    /// live (refreshing its recency).
    pub(super) fn check_session(&self, session: u64) -> Result<(), RouterError> {
        Ok(self.sessions.touch(session)?)
    }

    /// Raises `session`'s read-your-writes mark on `partition` to
    /// `total`, if the session is still live.
    pub(super) fn raise_ingest_mark(&self, session: u64, partition: usize, total: u64) {
        let mut marks = self.ingest_marks.lock().unwrap_or_else(|e| e.into_inner());
        if self.sessions.contains(session) {
            let mark = marks
                .entry(session)
                .or_default()
                .entry(partition)
                .or_insert(0);
            *mark = (*mark).max(total);
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Compiles one k-NN round — the example `vector`, or the session's
    /// refined query — and scatters it as a `QueryCompiled` to one
    /// replica per partition, then merges the partial top-k lists (ids
    /// remapped to the global space, ties by `(distance, id)` —
    /// identical to the executor's shard merge). Missing legs degrade
    /// the response instead of failing it; `nodes_ok / nodes_total` on
    /// the returned [`Response::Neighbors`] carry the coverage.
    ///
    /// # Errors
    ///
    /// - [`RouterError::UnknownSession`] for a session that is not live.
    /// - [`RouterError::InvalidRequest`] when the session has no query
    ///   yet (no feedback), the query is not finite, or a node
    ///   rejected the request (`k == 0`, a wrong dimensionality).
    /// - [`RouterError::Unavailable`] when *zero* partitions answered.
    pub fn query(
        &self,
        session: u64,
        k: usize,
        vector: Option<Vec<f64>>,
        deadline_ms: Option<u64>,
    ) -> Result<ScatterReport, RouterError> {
        let query = self.sessions.query(session, vector, &self.metrics)?;
        let spec = QuerySpec::of(&*query)?;
        spec.check()?;
        let marks = self
            .ingest_marks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&session)
            .cloned()
            .unwrap_or_default();
        let nodes_total = self.partitions.len();
        let legs = (0..nodes_total)
            .map(|p| {
                let r = self.read_replica(p, marks.get(&p).copied());
                let query = spec.clone();
                (
                    p,
                    r,
                    Request::QueryCompiled {
                        query,
                        k,
                        deadline_ms,
                    },
                )
            })
            .collect();
        let mut failures: Vec<NodeFailure> = Vec::new();
        let mut lists: Vec<Vec<Neighbor>> = Vec::with_capacity(nodes_total);
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
                Ok(Response::Error(e)) => return Err(RouterError::InvalidRequest(e.to_string())),
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

    /// Marks global corpus ids as relevant: checks them with
    /// [`feedback_points`] as a node does, resolves each id's vector
    /// with one `FetchVectors` scatter to the owning partitions'
    /// leaders, then feeds the session's method on the calling thread.
    ///
    /// # Errors
    ///
    /// - [`RouterError::UnknownSession`] for a session that is not live.
    /// - [`RouterError::InvalidRequest`] for an empty feed, a
    ///   score-count mismatch, a score that is not positive and finite,
    ///   an id outside the corpus (its owner says so), or a feed the
    ///   method rejects.
    /// - [`RouterError::Unavailable`] when a vector's owner partition
    ///   could not resolve it.
    pub fn feed(
        &self,
        session: u64,
        relevant_ids: &[usize],
        scores: Option<&[f64]>,
    ) -> Result<Response, RouterError> {
        let points = feedback_points(relevant_ids, scores, || {
            self.check_session(session)?;
            self.fetch_vectors(relevant_ids)
        })?;
        let (fed, _) = self.sessions.feed(session, &points, &self.metrics)?;
        Ok(Response::FeedAccepted {
            session,
            iteration: fed.iteration,
            clusters: fed.clusters,
        })
    }

    /// The vectors of global ids, in order, from one scatter: a
    /// `FetchVectors` leg to every owning partition's leader (local id =
    /// global - id_base). Every leg is collected; the lowest failing
    /// partition names the error.
    fn fetch_vectors(&self, ids: &[usize]) -> Result<Vec<Vec<f64>>, RouterError> {
        let mut by_owner: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, &id) in ids.iter().enumerate() {
            by_owner.entry(self.map.owner(id)).or_default().push(i);
        }
        let mut owners: Vec<(usize, Vec<usize>)> = by_owner.into_iter().collect();
        owners.sort_by_key(|(p, _)| *p);
        let legs = owners
            .iter()
            .map(|(p, indices)| {
                let id_base = self.partitions[*p].id_base;
                let leader = self.partitions[*p].leader.load(Ordering::Acquire);
                let local = indices.iter().map(|&i| ids[i] - id_base).collect();
                (*p, leader, Request::FetchVectors { ids: local })
            })
            .collect();
        let mut vectors = vec![Vec::new(); ids.len()];
        for ((p, leader, outcome), (_, indices)) in self.scatter(legs).into_iter().zip(&owners) {
            match outcome {
                Ok(Response::Vectors { vectors: got }) if got.len() == indices.len() => {
                    for (&i, vector) in indices.iter().zip(got) {
                        vectors[i] = vector;
                    }
                }
                Ok(Response::Vectors { vectors: got }) => {
                    return Err(RouterError::Protocol(format!(
                        "partition {p} resolved {} of {} vectors",
                        got.len(),
                        indices.len()
                    )));
                }
                Ok(Response::Error(e)) => return Err(RouterError::InvalidRequest(e.to_string())),
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
        Ok(vectors)
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /// Cluster-wide metrics: every reachable partition leader's
    /// snapshot absorbed into one (counters summed, quantiles bounded
    /// by the per-node maxima). The session, plan-cache and feed
    /// figures are this router's own, since it hosts the sessions, and
    /// [`MetricsSnapshot::cluster`] holds its cluster counters.
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
        let own = self.metrics.snapshot(
            self.sessions.len() as u64,
            Default::default(),
            0,
            0,
            Default::default(),
        );
        snapshot.feed = own.feed;
        snapshot.plan_cache_hits = own.plan_cache_hits;
        snapshot.plan_cache_misses = own.plan_cache_misses;
        snapshot.evictions = own.evictions;
        snapshot.sessions_created = own.sessions_created;
        snapshot.sessions_closed = own.sessions_closed;
        snapshot.active_sessions = own.active_sessions;
        snapshot.cluster = self.cluster_gauges();
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use crate::{synthetic_slice, NodeFailureKind, Router, RouterConfig, ShardMap};
    use qcluster_failpoint::{self as failpoint, Action};
    use qcluster_net::{Server, ServerConfig};
    use qcluster_service::{Response, Service, ServiceConfig};
    use std::sync::Arc;

    /// A request frame damaged on the way is a transport failure of its
    /// leg, so the query degrades over the other nodes, although the
    /// node answers the damaged frame with a typed `InvalidRequest`.
    #[test]
    fn a_corrupted_leg_degrades_the_query_instead_of_failing_it() {
        let _serial = failpoint::test_lock();
        failpoint::clear_all();
        let (dim, per) = (4, 50);
        let servers: Vec<Server> = (0..3)
            .map(|i| {
                let config = ServiceConfig {
                    num_shards: 2,
                    ..ServiceConfig::default()
                };
                let service = Service::new(&synthetic_slice(i * per, per, dim), config).unwrap();
                Server::bind("127.0.0.1:0", Arc::new(service), ServerConfig::default()).unwrap()
            })
            .collect();
        let addrs: Vec<_> = servers.iter().map(Server::local_addr).collect();
        let map = ShardMap::even(&addrs, 3 * per).unwrap();
        let router = Router::new(map, RouterConfig::default()).unwrap();
        let session = router.create_session(None).unwrap();
        // Fires once, on the next frame encoded in this process: one
        // leg's request (creating a session sent none).
        failpoint::configure_counted(
            "net.frame.corrupt",
            Action::Error("bitflip".into()),
            0,
            Some(1),
        );
        let report = router.query(session, 5, Some(vec![0.5; dim]), None);
        failpoint::clear_all();
        let report = report.unwrap();
        let Response::Neighbors {
            nodes_ok, degraded, ..
        } = report.response
        else {
            panic!("expected neighbors, got {:?}", report.response)
        };
        assert_eq!(nodes_ok, 2);
        assert!(degraded);
        assert!(
            matches!(&report.failures[..], [f] if matches!(&f.kind, NodeFailureKind::Transport(msg) if msg.contains("undecodable"))),
            "{:?}",
            report.failures
        );
        assert_eq!(router.cluster_gauges().node_failures, 1);
        drop(router);
        for server in servers {
            server.shutdown();
        }
    }
}
