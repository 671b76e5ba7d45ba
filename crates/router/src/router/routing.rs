//! The request path: scatter legs over nodes behind their circuit
//! breakers, the sessions the router hosts, queries, feedback and
//! cluster-wide stats.

use super::{NodeFailure, NodeFailureKind, NodeHandle, Router, RouterError, ScatterReport};
use qcluster_failpoint as failpoint;
use qcluster_index::{merge_top_k, Neighbor, SearchStats};
use qcluster_net::{is_undecodable, Client};
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

/// A leg whose request is written: its connection, the request's id,
/// the leg's deadline, and an injected `partial:<n>` cap on its
/// neighbor list.
type Written = (Client, u64, Instant, Option<usize>);

/// Reads a written leg's reply within what is left of its deadline,
/// then settles the connection with its node.
fn read_leg(
    node: &NodeHandle,
    (mut client, id, deadline, cap): Written,
) -> Result<Response, NodeFailureKind> {
    let result = client.receive(id, deadline.saturating_duration_since(Instant::now()));
    node.checkin(client, result.as_ref().err());
    match result {
        // The router sends only well-formed frames: one the node could
        // not decode was damaged on the way.
        Ok(Response::Error(e)) if is_undecodable(&e) => {
            Err(NodeFailureKind::Transport(e.to_string()))
        }
        // A rejection of the request itself is a delivered reply: the
        // node is healthy.
        Ok(Response::Error(e)) if !e.is_caller_fault() => {
            Err(NodeFailureKind::Remote(e.to_string()))
        }
        Ok(mut response) => {
            if let (Some(cap), Response::Neighbors { neighbors, .. }) = (cap, &mut response) {
                neighbors.truncate(cap);
            }
            Ok(response)
        }
        Err(e) => Err(e.into()),
    }
}

impl Router {
    /// Starts one admitted leg to partition `p`'s replica `node`: the
    /// failpoint in front of it, then its request written on a pooled
    /// (or freshly dialed) connection.
    fn write_leg(
        &self,
        p: usize,
        node: &NodeHandle,
        request: &Request,
    ) -> Result<Written, NodeFailureKind> {
        let deadline = Instant::now() + self.config.client.read_timeout;
        let mut cap = None;
        // Failpoints: the partition-specific name wins over the generic
        // one; formatting only happens while any failpoint is armed.
        if failpoint::active() {
            let action = failpoint::evaluate_sleepy(&format!("router.node.{p}"))
                .or_else(|| failpoint::evaluate_sleepy("router.node"));
            match action {
                Some(failpoint::Action::Error(msg)) | Some(failpoint::Action::Panic(msg)) => {
                    return Err(NodeFailureKind::Remote(format!(
                        "injected failure on partition {p}: {msg}"
                    )));
                }
                Some(failpoint::Action::Partial(n)) => cap = Some(n),
                Some(failpoint::Action::Sleep(_)) | None => {}
            }
        }
        let mut client = node.checkout(&self.config.client, deadline)?;
        match client.send(request) {
            Ok(id) => Ok((client, id, deadline, cap)),
            Err(e) => {
                node.checkin(client, Some(&e));
                Err(e.into())
            }
        }
    }

    /// Charges one leg to its node's breaker and counts it: a reply
    /// closes the breaker, a failure counts against it. `None` is a leg
    /// the open breaker skipped, which is not a health observation.
    fn settle(
        &self,
        node: &NodeHandle,
        outcome: Option<Result<Response, NodeFailureKind>>,
    ) -> Result<Response, NodeFailureKind> {
        let Some(outcome) = outcome else {
            self.counters
                .node_breaker_skips
                .fetch_add(1, Ordering::Relaxed);
            return Err(NodeFailureKind::BreakerOpen);
        };
        match &outcome {
            Ok(_) => node.breaker.record_success(),
            Err(kind) => {
                let (threshold, cooldown) =
                    (self.config.breaker_threshold, self.config.breaker_cooldown);
                node.breaker
                    .record_failure(Instant::now(), threshold, cooldown);
                let counter = match kind {
                    NodeFailureKind::Timeout => &self.counters.node_timeouts,
                    _ => &self.counters.node_failures,
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
        outcome
    }

    /// Runs every leg on the calling thread. Each leg's node breaker is
    /// asked for admission, and every admitted leg's request is written
    /// before any reply is read. A leg has one deadline,
    /// `client.read_timeout` from when it starts: its failpoint, dial,
    /// write and read all count against it, and no leg waits on
    /// another's. A late reply is dropped with its connection. Every
    /// admitted leg is charged to its breaker exactly once, so a
    /// half-open probe always resolves.
    pub(super) fn scatter(&self, legs: Vec<Leg>) -> Vec<LegOutcome> {
        let now = Instant::now();
        // `None` for a leg its breaker skipped.
        let written: Vec<Option<Result<Written, NodeFailureKind>>> = legs
            .iter()
            .map(|&(p, r, ref request)| {
                let node = &self.partitions[p].replicas[r];
                node.breaker
                    .admit(now)
                    .then(|| self.write_leg(p, node, request))
            })
            .collect();
        written
            .into_iter()
            .zip(legs)
            .map(|(leg, (p, r, _))| {
                let node = &self.partitions[p].replicas[r];
                let read = leg.map(|leg| leg.and_then(|leg| read_leg(node, leg)));
                (p, r, self.settle(node, read))
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

    // ------------------------------------------------------------------
    // Sessions
    // ------------------------------------------------------------------

    /// Opens a session hosting the method `engine` names in
    /// `METHODS` (`None` is `"qcluster"`). At capacity the least
    /// recently used session is evicted. Local: no leg is sent.
    ///
    /// # Errors
    ///
    /// [`RouterError::InvalidRequest`] for an unknown name.
    pub fn create_session(&self, engine: Option<&str>) -> Result<u64, RouterError> {
        Ok(self
            .sessions
            .create(engine.unwrap_or("qcluster"), &self.metrics)?)
    }

    /// Closes `session`. Local: no leg is sent.
    ///
    /// # Errors
    ///
    /// [`RouterError::UnknownSession`] when `session` is not live.
    pub fn close_session(&self, session: u64) -> Result<(), RouterError> {
        Ok(self.sessions.close(session, &self.metrics)?)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Compiles one k-NN round — the example `vector`, or the session's
    /// refined query — and scatters it as a `QueryCompiled` to every
    /// partition's leader, then merges the partial top-k lists (ids
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
        let (query, _) = self.sessions.query(session, vector, &self.metrics)?;
        let spec = QuerySpec::of(&*query)?;
        spec.check()?;
        let nodes_total = self.partitions.len();
        let legs = self
            .partitions
            .iter()
            .enumerate()
            .map(|(p, part)| {
                let request = Request::QueryCompiled {
                    query: spec.clone(),
                    k,
                    deadline_ms,
                };
                (p, part.leader.load(Ordering::Acquire), request)
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
    /// leaders (a follower answers for a leader that cannot), then
    /// feeds the session's method on the calling thread.
    ///
    /// # Errors
    ///
    /// - [`RouterError::UnknownSession`] for a session that is not live.
    /// - [`RouterError::InvalidRequest`] for an empty feed, a
    ///   score-count mismatch, a score that is not positive and finite,
    ///   an id outside the corpus (its owner says so), or a feed the
    ///   method rejects.
    /// - [`RouterError::Unavailable`] when neither the leader nor any
    ///   follower of a vector's partition resolved it.
    pub fn feed(
        &self,
        session: u64,
        relevant_ids: &[usize],
        scores: Option<&[f64]>,
    ) -> Result<Response, RouterError> {
        let points = feedback_points(relevant_ids, scores, || {
            self.sessions.touch(session)?;
            self.fetch_vectors(relevant_ids)
        })?;
        let fed = self.sessions.feed(session, &points, &self.metrics)?;
        Ok(Response::FeedAccepted {
            session,
            iteration: fed.iteration,
            clusters: fed.clusters,
        })
    }

    /// The vectors of global ids, in order, from one scatter: a
    /// `FetchVectors` leg to every owning partition's leader (local id =
    /// global - id_base). A leg that fails in transport, times out or
    /// meets an open breaker is retried on the partition's followers in
    /// order, and the first complete answer is taken: an id's vector
    /// never changes, so a follower that answers returns the leader's
    /// exact vector. Every leg is collected; the lowest failing
    /// partition names the error.
    fn fetch_vectors(&self, ids: &[usize]) -> Result<Vec<Vec<f64>>, RouterError> {
        let mut by_owner: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, &id) in ids.iter().enumerate() {
            by_owner.entry(self.map.owner(id)).or_default().push(i);
        }
        let mut owners: Vec<(usize, Vec<usize>)> = by_owner.into_iter().collect();
        owners.sort_by_key(|(p, _)| *p);
        let request = |p: usize, indices: &[usize]| {
            let id_base = self.partitions[p].id_base;
            let ids = indices.iter().map(|&i| ids[i] - id_base).collect();
            Request::FetchVectors { ids }
        };
        let legs = owners
            .iter()
            .map(|(p, indices)| {
                let leader = self.partitions[*p].leader.load(Ordering::Acquire);
                (*p, leader, request(*p, indices))
            })
            .collect();
        let mut vectors = vec![Vec::new(); ids.len()];
        for ((p, leader, outcome), (_, indices)) in self.scatter(legs).into_iter().zip(&owners) {
            let got = match outcome {
                Ok(Response::Vectors { vectors: got }) if got.len() == indices.len() => got,
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
                Err(
                    kind @ (NodeFailureKind::Transport(_)
                    | NodeFailureKind::Timeout
                    | NodeFailureKind::BreakerOpen),
                ) => {
                    let mut failures = vec![self.failure(p, leader, kind)];
                    let followers = (0..self.partitions[p].replicas.len()).filter(|&r| r != leader);
                    let mut found = None;
                    for r in followers {
                        match self.call_replica(p, r, request(p, indices)) {
                            Ok(Response::Vectors { vectors: got })
                                if got.len() == indices.len() =>
                            {
                                found = Some(got);
                                break;
                            }
                            Ok(other) => failures.push(self.unexpected(p, r, &other)),
                            Err(kind) => failures.push(self.failure(p, r, kind)),
                        }
                    }
                    found.ok_or(RouterError::Unavailable(failures))?
                }
                Err(kind) => {
                    return Err(RouterError::Unavailable(
                        vec![self.failure(p, leader, kind)],
                    ));
                }
            };
            for (&i, vector) in indices.iter().zip(got) {
                vectors[i] = vector;
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
    use crate::{
        synthetic_slice, NodeFailureKind, Router, RouterConfig, RouterError, ScatterReport,
        ShardMap,
    };
    use qcluster_failpoint::{self as failpoint, Action};
    use qcluster_net::{ClientConfig, Server, ServerConfig};
    use qcluster_service::{Response, Service, ServiceConfig};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const DIM: usize = 4;

    /// Three in-process nodes of 50 points, each over `num_shards`
    /// shards, behind one router under `config`.
    fn cluster(num_shards: usize, config: RouterConfig) -> (Vec<Server>, Router) {
        let servers: Vec<Server> = (0..3).map(|i| node(i, num_shards, "127.0.0.1:0")).collect();
        let addrs: Vec<_> = servers.iter().map(Server::local_addr).collect();
        let router = Router::new(ShardMap::even(&addrs, 150).unwrap(), config).unwrap();
        (servers, router)
    }

    /// Node `i` of [`cluster`], serving on `addr`.
    fn node(i: usize, num_shards: usize, addr: &str) -> Server {
        let config = ServiceConfig {
            num_shards,
            ..ServiceConfig::default()
        };
        let service = Service::new(&synthetic_slice(i * 50, 50, DIM), config).unwrap();
        Server::bind(addr, Arc::new(service), ServerConfig::default()).unwrap()
    }

    /// One example query: its report and how many nodes answered.
    fn query(router: &Router, session: u64) -> (ScatterReport, usize) {
        let report = router
            .query(session, 5, Some(vec![0.5; DIM]), None)
            .unwrap();
        match report.response {
            Response::Neighbors { nodes_ok, .. } => (report, nodes_ok),
            ref other => panic!("expected neighbors, got {other:?}"),
        }
    }

    /// A session cap of zero is a typed error, not a panic.
    #[test]
    fn a_zero_session_cap_is_an_invalid_request() {
        let map = ShardMap::even(&["127.0.0.1:7801".parse().unwrap()], 10).unwrap();
        let config = RouterConfig {
            max_sessions: 0,
            ..RouterConfig::default()
        };
        let refused = Router::new(map, config);
        assert!(matches!(refused, Err(RouterError::InvalidRequest(_))));
    }

    /// A router built later over the same map, as after a restart,
    /// reissues no id: its first is above every id the first router
    /// issued. Creating a session sends no leg, so no node runs.
    #[test]
    fn a_restarted_router_reissues_no_session_id() {
        let addrs: Vec<_> = (0..3)
            .map(|i| format!("127.0.0.1:{}", 7801 + i).parse().unwrap())
            .collect();
        let map = ShardMap::even(&addrs, 300).unwrap();
        let first = Router::new(map.clone(), RouterConfig::default()).unwrap();
        let issued: Vec<u64> = (0..100)
            .map(|_| first.create_session(None).unwrap())
            .collect();
        drop(first);
        let second = Router::new(map, RouterConfig::default()).unwrap();
        let next = second.create_session(None).unwrap();
        assert!(issued.iter().all(|&id| id < next), "{issued:?} vs {next}");
    }

    /// A request frame damaged on the way is a transport failure of its
    /// leg, so the query degrades over the other nodes, although the
    /// node answers the damaged frame with a typed `InvalidRequest`.
    #[test]
    fn a_corrupted_leg_degrades_the_query_instead_of_failing_it() {
        let _serial = failpoint::test_lock();
        failpoint::clear_all();
        let (servers, router) = cluster(2, RouterConfig::default());
        let session = router.create_session(None).unwrap();
        // Fires once, on the next frame encoded in this process: one
        // leg's request (creating a session sent none).
        failpoint::configure_counted(
            "net.frame.corrupt",
            Action::Error("bitflip".into()),
            0,
            Some(1),
        );
        let (report, nodes_ok) = query(&router, session);
        failpoint::clear_all();
        assert_eq!(nodes_ok, 2);
        assert!(matches!(
            report.response,
            Response::Neighbors { degraded: true, .. }
        ));
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

    /// A leg that misses its deadline costs only its own query: its
    /// late reply dies with its dropped connection, so the next leg to
    /// the same node is answered in time.
    #[test]
    fn a_late_leg_does_not_delay_the_next_leg_to_its_node() {
        let _serial = failpoint::test_lock();
        failpoint::clear_all();
        let config = RouterConfig {
            client: ClientConfig {
                read_timeout: Duration::from_millis(300),
                ..ClientConfig::default()
            },
            ..RouterConfig::default()
        };
        let (_servers, router) = cluster(1, config);
        let session = router.create_session(None).unwrap();
        assert_eq!(query(&router, session).1, 3);
        // One node's only shard job stalls well past the deadline.
        failpoint::configure_counted("executor.shard", Action::Sleep(1500), 0, Some(1));
        let (late, late_ok) = query(&router, session);
        let (next, next_ok) = query(&router, session);
        failpoint::clear_all();
        assert_eq!(late_ok, 2);
        assert!(
            matches!(&late.failures[..], [f] if f.kind == NodeFailureKind::Timeout),
            "{:?}",
            late.failures
        );
        assert_eq!(next_ok, 3, "{:?}", next.failures);
        assert_eq!(router.cluster_gauges().node_timeouts, 1);
    }

    /// A dial to a node that neither accepts nor refuses (a powered-off
    /// host, a network partition) costs only its own leg, within the
    /// leg's deadline: the other legs still answer in time.
    #[test]
    fn a_node_that_never_accepts_costs_only_its_own_leg() {
        let _serial = failpoint::test_lock();
        failpoint::clear_all();
        let (servers, _) = cluster(1, RouterConfig::default());
        // A listener nobody accepts on, its backlog filled: a further
        // dial to it hangs until it times out.
        let blackhole = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut addrs: Vec<_> = servers.iter().map(Server::local_addr).collect();
        addrs[0] = blackhole.local_addr().unwrap();
        let mut queued = Vec::new();
        while let Ok(stream) = TcpStream::connect_timeout(&addrs[0], Duration::from_millis(100)) {
            queued.push(stream);
            assert!(queued.len() < 4096, "the backlog never filled");
        }
        let config = RouterConfig {
            client: ClientConfig {
                read_timeout: Duration::from_millis(300),
                ..ClientConfig::default()
            },
            ..RouterConfig::default()
        };
        let router = Router::new(ShardMap::even(&addrs, 150).unwrap(), config).unwrap();
        let started = Instant::now();
        let (report, nodes_ok) = query(&router, router.create_session(None).unwrap());
        // One 300 ms dial, not `connect_timeout` (2 s) per attempt.
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(nodes_ok, 2);
        assert!(
            matches!(&report.failures[..], [f] if f.partition == 0 && matches!(f.kind, NodeFailureKind::Transport(_)))
        );
    }

    /// A node that restarts at the same address closed every pooled
    /// connection to it: the first leg that meets a dead one drops them
    /// all, so the next leg dials fresh instead of failing on a sibling.
    #[test]
    fn a_restarted_node_leaves_no_stale_connection_in_the_pool() {
        let _serial = failpoint::test_lock();
        failpoint::clear_all();
        let (mut servers, router) = cluster(1, RouterConfig::default());
        // Several connections idle in node 0's pool, as concurrent
        // callers leave them.
        let pool = &router.partitions[0].replicas[0];
        let far = Instant::now() + Duration::from_secs(5);
        let clients: Vec<_> = (0..4)
            .map(|_| pool.checkout(&router.config.client, far))
            .collect();
        clients
            .into_iter()
            .for_each(|client| pool.checkin(client.unwrap(), None));
        let addr = servers[0].local_addr().to_string();
        servers.remove(0).shutdown();
        servers.push(node(0, 1, &addr));
        let session = router.create_session(None).unwrap();
        let (stale, stale_ok) = query(&router, session);
        assert_eq!(stale_ok, 2);
        assert!(
            matches!(&stale.failures[..], [f] if f.partition == 0 && matches!(f.kind, NodeFailureKind::Transport(_)))
        );
        assert_eq!(pool.idle().len(), 0);
        assert_eq!(query(&router, session).1, 3);
    }

    /// An address nothing listens on: a dial to it is refused at once.
    fn dead_addr() -> SocketAddr {
        TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
    }

    /// A half-open probe always resolves: a probe leg that fails is
    /// charged and re-opens its breaker for a fresh (here zero)
    /// cooldown, so the next scatter probes again, and once the node is
    /// back its reply closes the breaker.
    #[test]
    fn a_half_open_probe_always_resolves() {
        let _serial = failpoint::test_lock();
        failpoint::clear_all();
        let dead = dead_addr();
        let servers: Vec<Server> = (1..3).map(|i| node(i, 1, "127.0.0.1:0")).collect();
        let mut addrs = vec![dead];
        addrs.extend(servers.iter().map(Server::local_addr));
        let config = RouterConfig {
            breaker_threshold: 1,
            breaker_cooldown: Duration::ZERO,
            ..RouterConfig::default()
        };
        let router = Router::new(ShardMap::even(&addrs, 150).unwrap(), config).unwrap();
        let session = router.create_session(None).unwrap();
        let breaker = &router.partitions[0].replicas[0].breaker;
        // The first failure trips the breaker; the second query's leg is
        // the half-open probe, and its failure trips it again.
        for trips in 1..=2 {
            let (report, nodes_ok) = query(&router, session);
            assert_eq!(nodes_ok, 2);
            assert!(
                matches!(&report.failures[..], [f] if matches!(f.kind, NodeFailureKind::Transport(_))),
                "{:?}",
                report.failures
            );
            assert_eq!(breaker.trips(), trips);
        }
        let _revived = node(0, 1, &dead.to_string());
        assert_eq!(query(&router, session).1, 3);
        assert!(breaker.is_closed(Instant::now()));
        assert_eq!(breaker.trips(), 2);
        assert_eq!(router.cluster_gauges().node_breaker_skips, 0);
    }

    /// A leg that fails before its request is written (its dial is
    /// refused) and a leg its node answers with a failure (`Overloaded`)
    /// are both charged to their node's breaker; a reply is not.
    #[test]
    fn a_refused_start_and_a_failing_leg_are_charged_failures() {
        let _serial = failpoint::test_lock();
        failpoint::clear_all();
        let overloaded = ServiceConfig {
            num_shards: 1,
            max_queued_jobs: 0,
            ..ServiceConfig::default()
        };
        let overloaded = Service::new(&synthetic_slice(50, 50, DIM), overloaded).unwrap();
        let overloaded =
            Server::bind("127.0.0.1:0", Arc::new(overloaded), ServerConfig::default()).unwrap();
        let healthy = node(2, 1, "127.0.0.1:0");
        let addrs = [dead_addr(), overloaded.local_addr(), healthy.local_addr()];
        let config = RouterConfig {
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(60),
            ..RouterConfig::default()
        };
        let router = Router::new(ShardMap::even(&addrs, 150).unwrap(), config).unwrap();
        let (report, nodes_ok) = query(&router, router.create_session(None).unwrap());
        assert_eq!(nodes_ok, 1);
        assert!(
            matches!(&report.failures[..], [refused, failed]
                if matches!(refused.kind, NodeFailureKind::Transport(_))
                && matches!(&failed.kind, NodeFailureKind::Remote(msg) if msg.contains("overloaded"))),
            "{:?}",
            report.failures
        );
        let trips: Vec<u64> = (0..3)
            .map(|p| router.partitions[p].replicas[0].breaker.trips())
            .collect();
        assert_eq!(trips, [1, 1, 0]);
        assert_eq!(router.cluster_gauges().node_failures, 2);
    }

    /// Legs whose breakers are all open are never started: the scatter
    /// dials and counts nothing but the skips, and answers at once.
    #[test]
    fn nothing_admitted_means_nothing_started_and_no_wait() {
        let _serial = failpoint::test_lock();
        failpoint::clear_all();
        let (_servers, router) = cluster(1, RouterConfig::default());
        let session = router.create_session(None).unwrap();
        for part in &router.partitions {
            let breaker = &part.replicas[0].breaker;
            breaker.record_failure(Instant::now(), 1, Duration::from_secs(60));
        }
        let started = Instant::now();
        let refused = router.query(session, 5, Some(vec![0.5; DIM]), None);
        assert!(started.elapsed() < Duration::from_secs(1));
        let Err(RouterError::Unavailable(failures)) = refused else {
            panic!("expected Unavailable, got {refused:?}");
        };
        assert_eq!(failures.len(), 3);
        assert!(failures
            .iter()
            .all(|f| f.kind == NodeFailureKind::BreakerOpen));
        let gauges = router.cluster_gauges();
        assert_eq!(
            (
                gauges.node_breaker_skips,
                gauges.node_failures,
                gauges.node_timeouts
            ),
            (3, 0, 0)
        );
        assert!(router
            .partitions
            .iter()
            .all(|p| p.replicas[0].idle().is_empty()));
    }
}
