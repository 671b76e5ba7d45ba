//! The scatter–gather router: one process fronting N `qcluster-net`
//! node processes.
//!
//! Every query fans out to one replica per partition over framed TCP,
//! the partial top-k lists come back with node-local ids, and the
//! router remaps them onto the global id space (`global = id_base +
//! local`) before k-way-merging with the same `(distance, id)`
//! tie-break the in-process executor uses — so a healthy cluster is
//! bit-for-bit equal to a single node holding the whole corpus.
//!
//! ## Degradation
//!
//! Nodes degrade exactly the way the executor degrades shards: a
//! per-node deadline bounds each leg, a per-node circuit breaker trips
//! after consecutive failures and skips the node (degraded coverage)
//! until a cooldown elapses, then half-opens with a single probe.
//! Every missing leg is attributed with a typed [`NodeFailureKind`],
//! and responses carry `nodes_ok / nodes_total` cluster coverage next
//! to the per-node `shards_ok / shards_total`.
//!
//! ## Replication
//!
//! Partitions may be replicated. The router ships the leader's WAL to
//! followers over the replication frame kind (`Fetch` from the
//! follower's committed record offset on the leader, `Apply` on the
//! follower — idempotent, so a torn exchange is simply re-driven). An
//! acked ingest is one that reached a **majority** of the partition's
//! replicas, so killing the leader loses nothing: promotion probes the
//! surviving replicas' replication status and elects the one with the
//! highest committed total. [`ReadPreference::StaleOk`] additionally
//! lets queries fall back to a follower whose known replication lag is
//! within a bound when the leader's breaker is open.
//!
//! ## Consensus: terms, leases, fencing
//!
//! Each partition carries a monotonic **term**, persisted node-side
//! next to the WAL. Promotion is a term/vote handshake: the router
//! probes replica terms, bids `max + 1`, and leads only after a
//! **majority** of the partition's replicas grant the vote — so two
//! routers contending over the same nodes cannot both win a term.
//! Every replication ship (and the empty fence probe preceding each
//! ingest) carries `(term, lease_ms)`; a follower that has acknowledged
//! a higher term rejects the ship with a typed `StaleTerm`, fencing
//! zombie leaders and never-elected second routers. Leadership is
//! **lease-based**: each accepted fenced ship renews the follower's
//! leader lease, and while any lease is unexpired the follower refuses
//! competing votes — an actively-shipping leader cannot be deposed,
//! a dead one is deposable one lease window after its last renewal.
//!
//! Replica reads are **read-your-writes** per session: the router
//! tracks each session's feed rounds and acked ingest totals, and a
//! query leg only goes to a replica at-or-past the session's marks
//! (falling back to the leader, counted in
//! `ClusterGauges::ryw_leader_fallbacks`).
//!
//! [`Router::start_anti_entropy`] spawns a background thread that
//! renews leases and streams catch-up chunks to lagging or rejoining
//! followers **off the ingest path** (inline catch-up is bounded by
//! [`RouterConfig::max_inline_lag`]).
//!
//! ## Failpoints
//!
//! `router.node` (any leg) and `router.node.<p>` (partition `p`)
//! inject faults before a leg is dispatched: `error:<msg>` /
//! `panic:<msg>` fail the leg, `sleep:<ms>` delays it, and
//! `partial:<n>` truncates the leg's neighbor list to `n` entries.
//! `router.lease.expire` (any action) makes the router treat its
//! leader lease as lapsed before an ingest: it must re-win its term
//! via a fresh election before shipping again.

use crate::map::ShardMap;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use qcluster_failpoint as failpoint;
use qcluster_index::{merge_top_k, Neighbor};
use qcluster_net::{Client, ClientConfig, ReplReply, ReplRequest};
use qcluster_service::{
    ClusterGauges, FeedPointDto, MetricsSnapshot, NeighborDto, Request, Response, SearchStatsDto,
};
use std::collections::HashMap;
use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which replica of a partition serves queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPreference {
    /// Always the current leader (linearizable with respect to acked
    /// ingests). A leg whose leader breaker is open fails as
    /// [`NodeFailureKind::BreakerOpen`].
    LeaderOnly,
    /// Leader normally, but when the leader's breaker is open, fall
    /// back to a follower whose router-observed replication lag (in
    /// committed records) is at most `max_lag`.
    StaleOk {
        /// Largest acceptable records-behind-leader for a fallback read.
        max_lag: u64,
    },
}

/// Tunables for [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Per-leg reply deadline: how long one node may take to answer
    /// before the leg is attributed [`NodeFailureKind::Timeout`].
    pub node_deadline: Duration,
    /// Consecutive leg failures that trip one node's circuit breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before half-opening.
    pub breaker_cooldown: Duration,
    /// Transport tunables for the per-node connections.
    pub client: ClientConfig,
    /// Records per replication `Fetch` round.
    pub replication_batch: u32,
    /// Replica selection for query legs.
    pub read_preference: ReadPreference,
    /// Relevance score assigned when a feed omits explicit scores
    /// (matches the single-node service default).
    pub default_score: f64,
    /// How long a follower honors a leader lease (and a vote lease)
    /// after granting it. An actively-shipping leader renews within
    /// this window; failover after a leader death waits at most one
    /// window.
    pub lease_duration: Duration,
    /// Pause between retried vote rounds while an election is refused
    /// (typically because a prior leader's lease has not lapsed yet).
    pub election_backoff: Duration,
    /// Total time one [`Router::promote`] may spend retrying vote
    /// rounds before reporting [`RouterError::ElectionLost`]. Must
    /// cover at least one `lease_duration` or a dead leader's lease
    /// can never be outwaited.
    pub election_timeout: Duration,
    /// Largest records-behind-target a follower may be and still be
    /// caught up inline during an ingest ack. A follower further
    /// behind (e.g. rejoining after a kill) is left to the
    /// anti-entropy thread so it cannot stall every ingest.
    pub max_inline_lag: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            node_deadline: Duration::from_secs(5),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
            client: ClientConfig::default(),
            replication_batch: 256,
            read_preference: ReadPreference::LeaderOnly,
            default_score: 3.0,
            lease_duration: Duration::from_millis(1_500),
            election_backoff: Duration::from_millis(100),
            election_timeout: Duration::from_secs(4),
            max_inline_lag: 4_096,
        }
    }
}

/// Why one node leg contributed nothing to a scatter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeFailureKind {
    /// Dial, socket, or frame failure reaching the node.
    Transport(String),
    /// The node answered with an error (or an injected fault fired).
    Remote(String),
    /// The node had not answered when the per-node deadline elapsed.
    Timeout,
    /// The node's circuit breaker was open; the leg was never sent.
    BreakerOpen,
    /// The node rejected a replication ship or fence probe because it
    /// has acknowledged a higher term — this router's leadership is
    /// fenced out. Carries the node's current term.
    StaleTerm(u64),
}

impl fmt::Display for NodeFailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeFailureKind::Transport(msg) => write!(f, "transport: {msg}"),
            NodeFailureKind::Remote(msg) => write!(f, "remote: {msg}"),
            NodeFailureKind::Timeout => write!(f, "timeout"),
            NodeFailureKind::BreakerOpen => write!(f, "breaker open"),
            NodeFailureKind::StaleTerm(current) => {
                write!(f, "stale term (node at term {current})")
            }
        }
    }
}

/// One node's failure in a scatter, attributed to its partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeFailure {
    /// Partition index within the shard map.
    pub partition: usize,
    /// The failing node's address.
    pub addr: SocketAddr,
    /// What went wrong.
    pub kind: NodeFailureKind,
}

/// A router-level error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterError {
    /// The session id is unknown to this router.
    UnknownSession(u64),
    /// Every leg the operation depended on failed.
    Unavailable(Vec<NodeFailure>),
    /// An acked write could not reach a majority of a partition's
    /// replicas.
    NoQuorum {
        /// The partition that fell short.
        partition: usize,
        /// Replicas holding the write (leader included).
        copies: usize,
        /// Replicas in the partition.
        replicas: usize,
    },
    /// A node answered something structurally impossible.
    Protocol(String),
    /// The request was malformed before any leg was dispatched.
    InvalidRequest(String),
    /// A term/vote election did not reach a majority within the
    /// election timeout — another router holds the partition (or its
    /// lease has not lapsed). `term` is the highest term observed.
    ElectionLost {
        /// The contested partition.
        partition: usize,
        /// Highest term seen during the failed rounds.
        term: u64,
    },
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::UnknownSession(id) => write!(f, "unknown router session {id}"),
            RouterError::Unavailable(failures) => {
                write!(f, "no node answered ({} failures:", failures.len())?;
                for failure in failures {
                    write!(
                        f,
                        " [p{} {} {}]",
                        failure.partition, failure.addr, failure.kind
                    )?;
                }
                write!(f, ")")
            }
            RouterError::NoQuorum {
                partition,
                copies,
                replicas,
            } => write!(
                f,
                "partition {partition}: write reached {copies} of {replicas} replicas (no majority)"
            ),
            RouterError::Protocol(msg) => write!(f, "protocol: {msg}"),
            RouterError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            RouterError::ElectionLost { partition, term } => write!(
                f,
                "partition {partition}: election lost (highest term observed {term})"
            ),
        }
    }
}

impl std::error::Error for RouterError {}

/// The outcome of one scattered query.
#[derive(Debug, Clone)]
pub struct ScatterReport {
    /// The merged [`Response::Neighbors`] with cluster coverage filled
    /// in (`nodes_ok` / `nodes_total`).
    pub response: Response,
    /// Typed attribution for every missing leg.
    pub failures: Vec<NodeFailure>,
}

/// Circuit-breaker state for one node (same state machine as the
/// executor's per-shard breaker: closed → open after `threshold`
/// consecutive failures → one half-open probe after the cooldown).
#[derive(Debug, Default)]
struct BreakerInner {
    consecutive_failures: u32,
    open_until: Option<Instant>,
    probing: bool,
}

#[derive(Debug, Default)]
struct NodeBreaker {
    state: Mutex<BreakerInner>,
}

impl NodeBreaker {
    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether a leg for this node may be dispatched now; in the open
    /// state this admits exactly one half-open probe per cooldown.
    fn admit(&self, now: Instant) -> bool {
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
    /// consume the half-open probe). Used by replica selection.
    fn is_closed(&self, now: Instant) -> bool {
        let s = self.lock();
        match s.open_until {
            None => true,
            Some(until) => now >= until && !s.probing,
        }
    }

    fn record_success(&self) {
        let mut s = self.lock();
        s.consecutive_failures = 0;
        s.open_until = None;
        s.probing = false;
    }

    /// Returns `true` when this failure tripped (or re-tripped) the
    /// breaker.
    fn record_failure(&self, now: Instant, threshold: u32, cooldown: Duration) -> bool {
        let mut s = self.lock();
        s.consecutive_failures = s.consecutive_failures.saturating_add(1);
        let trip = s.probing || s.consecutive_failures >= threshold;
        s.probing = false;
        if trip {
            s.open_until = Some(now + cooldown);
        }
        trip
    }
}

/// Work for one node's connection-owning worker thread.
enum NodeJob {
    Call {
        request: Request,
        reply: Sender<Result<Response, String>>,
    },
    Repl {
        payload: Vec<u8>,
        reply: Sender<Result<Vec<u8>, String>>,
    },
}

/// One replica's connection worker plus router-side health state.
struct NodeHandle {
    addr: SocketAddr,
    tx: Sender<NodeJob>,
    breaker: NodeBreaker,
    /// Committed record count the router last observed on this node
    /// (via ingest acks, replication replies, and status probes) —
    /// the basis for stale-bounded replica selection.
    known_total: AtomicU64,
}

struct PartitionState {
    id_base: usize,
    replicas: Vec<NodeHandle>,
    /// Index of the current leader within `replicas` (promotion moves it).
    leader: AtomicUsize,
    /// The replication term this router leads the partition at (0 =
    /// never elected: ships go out unfenced, accepted only by nodes
    /// that have themselves never seen a fenced leader).
    term: AtomicU64,
}

/// Router-side cluster counters, mirrored into
/// [`MetricsSnapshot::cluster`] by [`Router::stats`].
#[derive(Debug, Default)]
struct Counters {
    node_failures: AtomicU64,
    node_timeouts: AtomicU64,
    node_breaker_skips: AtomicU64,
    node_breaker_trips: AtomicU64,
    degraded_responses: AtomicU64,
    promotions: AtomicU64,
    replication_records_shipped: AtomicU64,
    replication_records_applied: AtomicU64,
    stale_reads: AtomicU64,
    elections_won: AtomicU64,
    elections_lost: AtomicU64,
    fenced_stale_ships: AtomicU64,
    anti_entropy_chunks_shipped: AtomicU64,
    ryw_leader_fallbacks: AtomicU64,
}

/// One dispatched (or pre-failed) scatter leg awaiting collection.
struct Leg {
    partition: usize,
    replica: usize,
    rx: Option<Receiver<Result<Response, String>>>,
    /// Failure decided at dispatch time (breaker open, injected fault,
    /// dead worker) — no reply to wait for.
    early: Option<NodeFailureKind>,
    /// Injected `partial:<n>` cap on this leg's neighbor list.
    partial: Option<usize>,
}

/// Router-side state of one user session: the per-node session ids
/// backing it plus its read-your-writes marks.
#[derive(Debug, Clone, Default)]
struct SessionState {
    /// Per-node session ids, keyed by `(partition, replica)`.
    bindings: HashMap<(usize, usize), u64>,
    /// Feedback rounds accepted for this session so far.
    feed_round: u64,
    /// Latest feed round each replica acknowledged. A replica behind
    /// the session's `feed_round` must not serve its queries — it
    /// would answer from a pre-feed retrieval state.
    feed_acked: HashMap<(usize, usize), u64>,
    /// Per-partition committed totals this session observed through
    /// acked ingests: its read floor for corpus visibility.
    ingest_marks: HashMap<usize, u64>,
}

impl SessionState {
    /// Whether `replica` of `partition` (whose router-observed
    /// committed total is `known_total`) satisfies this session's
    /// read-your-writes marks.
    fn ryw_ok(&self, partition: usize, replica: usize, known_total: u64) -> bool {
        let feed_ok = self.feed_round == 0
            || self.feed_acked.get(&(partition, replica)) == Some(&self.feed_round);
        let ingest_ok = self
            .ingest_marks
            .get(&partition)
            .is_none_or(|&mark| known_total >= mark);
        feed_ok && ingest_ok
    }
}

/// Per-replica outcome of a [`Router::sync_partition`] pass: each
/// follower's index paired with its post-sync committed total, or the
/// failure that kept it behind.
pub type SyncOutcome = Vec<(usize, Result<u64, NodeFailure>)>;

/// A multi-node scatter–gather front for a cluster of `qcluster-net`
/// node processes: shard-mapped queries, per-node degradation, and
/// majority-acked WAL-shipping replication with leader promotion.
pub struct Router {
    map: ShardMap,
    config: RouterConfig,
    partitions: Vec<PartitionState>,
    sessions: Mutex<HashMap<u64, SessionState>>,
    next_session: AtomicU64,
    counters: Counters,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Stops and joins the [`Router::start_anti_entropy`] thread on drop.
pub struct AntiEntropyHandle {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl Drop for AntiEntropyHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// The body of one node worker: owns the (lazily dialed) client for a
/// single node and serializes all router traffic to it.
fn node_worker(addr: SocketAddr, config: ClientConfig, rx: Receiver<NodeJob>) {
    let mut client: Option<Client> = None;
    while let Ok(job) = rx.recv() {
        match job {
            NodeJob::Call { request, reply } => {
                let result = with_client(&mut client, addr, &config, |c| {
                    c.call(&request).map_err(|e| e.to_string())
                });
                let _ = reply.send(result);
            }
            NodeJob::Repl { payload, reply } => {
                let result = with_client(&mut client, addr, &config, |c| {
                    c.repl_call(&payload).map_err(|e| e.to_string())
                });
                let _ = reply.send(result);
            }
        }
    }
}

fn with_client<T>(
    slot: &mut Option<Client>,
    addr: SocketAddr,
    config: &ClientConfig,
    op: impl FnOnce(&mut Client) -> Result<T, String>,
) -> Result<T, String> {
    if slot.is_none() {
        match Client::connect(addr, config.clone()) {
            Ok(c) => *slot = Some(c),
            Err(e) => return Err(format!("connect {addr}: {e}")),
        }
    }
    let result = op(slot.as_mut().expect("just connected"));
    if result.is_err() {
        // Drop the connection: the next job redials with backoff.
        *slot = None;
    }
    result
}

impl Router {
    /// Builds a router over `map`, spawning one connection worker per
    /// replica (connections are dialed lazily on first use, so nodes
    /// may come up after the router).
    ///
    /// # Errors
    ///
    /// [`RouterError::InvalidRequest`] when the OS refuses a worker
    /// thread.
    pub fn new(map: ShardMap, config: RouterConfig) -> Result<Router, RouterError> {
        let mut partitions = Vec::with_capacity(map.num_partitions());
        let mut workers = Vec::with_capacity(map.num_nodes());
        for (p, partition) in map.partitions().iter().enumerate() {
            let mut replicas = Vec::with_capacity(partition.replicas.len());
            for (r, &addr) in partition.replicas.iter().enumerate() {
                let (tx, rx) = channel::unbounded::<NodeJob>();
                let client = config.client.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("qrouter-node-{p}-{r}"))
                    .spawn(move || node_worker(addr, client, rx))
                    .map_err(|e| {
                        RouterError::InvalidRequest(format!("node worker {p}.{r}: {e}"))
                    })?;
                workers.push(handle);
                replicas.push(NodeHandle {
                    addr,
                    tx,
                    breaker: NodeBreaker::default(),
                    known_total: AtomicU64::new(0),
                });
            }
            partitions.push(PartitionState {
                id_base: partition.id_base,
                replicas,
                leader: AtomicUsize::new(0),
                term: AtomicU64::new(0),
            });
        }
        Ok(Router {
            map,
            config,
            partitions,
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            counters: Counters::default(),
            workers: Mutex::new(workers),
        })
    }

    /// The topology this router serves.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The current leader replica index of `partition`.
    pub fn leader_of(&self, partition: usize) -> usize {
        self.partitions[partition].leader.load(Ordering::Acquire)
    }

    /// The replication term this router leads `partition` at (0 =
    /// never elected, unfenced legacy mode).
    pub fn term_of(&self, partition: usize) -> u64 {
        self.partitions[partition].term.load(Ordering::Acquire)
    }

    /// The `(term, lease_ms)` pair stamped on this router's fenced
    /// ships for `partition`.
    fn fence_params(&self, partition: usize) -> (u64, u64) {
        let term = self.partitions[partition].term.load(Ordering::Acquire);
        let lease_ms = self.config.lease_duration.as_millis() as u64;
        (term, lease_ms)
    }

    // ------------------------------------------------------------------
    // Leg dispatch / collection
    // ------------------------------------------------------------------

    fn note_failure(&self, partition: usize, replica: usize, kind: &NodeFailureKind) {
        let node = &self.partitions[partition].replicas[replica];
        match kind {
            NodeFailureKind::BreakerOpen => {
                self.counters
                    .node_breaker_skips
                    .fetch_add(1, Ordering::Relaxed);
                return; // skipping is not a health observation
            }
            NodeFailureKind::StaleTerm(_) => {
                // The node is healthy — the *router* is deposed.
                // Counted at the fence site, never held against the
                // node's breaker.
                return;
            }
            NodeFailureKind::Timeout => {
                self.counters.node_timeouts.fetch_add(1, Ordering::Relaxed);
            }
            NodeFailureKind::Transport(_) | NodeFailureKind::Remote(_) => {
                self.counters.node_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        if node.breaker.record_failure(
            Instant::now(),
            self.config.breaker_threshold,
            self.config.breaker_cooldown,
        ) {
            self.counters
                .node_breaker_trips
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Starts one leg: breaker admission, failpoint evaluation, then a
    /// job on the node's worker. Never blocks on the network.
    fn dispatch_leg(&self, partition: usize, replica: usize, request: Request) -> Leg {
        let node = &self.partitions[partition].replicas[replica];
        let mut leg = Leg {
            partition,
            replica,
            rx: None,
            early: None,
            partial: None,
        };
        if !node.breaker.admit(Instant::now()) {
            self.note_failure(partition, replica, &NodeFailureKind::BreakerOpen);
            leg.early = Some(NodeFailureKind::BreakerOpen);
            return leg;
        }
        // Failpoints: the partition-specific name wins over the generic
        // one; formatting only happens while any failpoint is armed.
        if failpoint::active() {
            let action = failpoint::evaluate_sleepy(&format!("router.node.{partition}"))
                .or_else(|| failpoint::evaluate_sleepy("router.node"));
            match action {
                Some(failpoint::Action::Error(msg)) | Some(failpoint::Action::Panic(msg)) => {
                    let kind = NodeFailureKind::Remote(format!(
                        "injected failure on partition {partition}: {msg}"
                    ));
                    self.note_failure(partition, replica, &kind);
                    leg.early = Some(kind);
                    return leg;
                }
                Some(failpoint::Action::Partial(n)) => leg.partial = Some(n),
                Some(failpoint::Action::Sleep(_)) | None => {}
            }
        }
        let (reply_tx, reply_rx) = channel::unbounded();
        if node
            .tx
            .send(NodeJob::Call {
                request,
                reply: reply_tx,
            })
            .is_err()
        {
            let kind = NodeFailureKind::Transport("node worker exited".into());
            self.note_failure(partition, replica, &kind);
            leg.early = Some(kind);
            return leg;
        }
        leg.rx = Some(reply_rx);
        leg
    }

    /// Waits for one leg's reply until `deadline`, recording breaker
    /// and counter outcomes.
    fn collect_leg(&self, leg: &mut Leg, deadline: Instant) -> Result<Response, NodeFailureKind> {
        if let Some(kind) = leg.early.take() {
            return Err(kind);
        }
        let rx = leg.rx.take().expect("dispatched leg has a receiver");
        let node = &self.partitions[leg.partition].replicas[leg.replica];
        let wait = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(wait) {
            Ok(Ok(Response::Error(e))) => {
                let kind = NodeFailureKind::Remote(e.to_string());
                self.note_failure(leg.partition, leg.replica, &kind);
                Err(kind)
            }
            Ok(Ok(response)) => {
                node.breaker.record_success();
                Ok(response)
            }
            Ok(Err(msg)) => {
                let kind = NodeFailureKind::Transport(msg);
                self.note_failure(leg.partition, leg.replica, &kind);
                Err(kind)
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                self.note_failure(leg.partition, leg.replica, &NodeFailureKind::Timeout);
                Err(NodeFailureKind::Timeout)
            }
        }
    }

    /// One synchronous call to a specific replica (dispatch + collect
    /// under a fresh per-node deadline).
    fn call_replica(
        &self,
        partition: usize,
        replica: usize,
        request: Request,
    ) -> Result<Response, NodeFailureKind> {
        let mut leg = self.dispatch_leg(partition, replica, request);
        self.collect_leg(&mut leg, Instant::now() + self.config.node_deadline)
    }

    fn failure(&self, partition: usize, replica: usize, kind: NodeFailureKind) -> NodeFailure {
        NodeFailure {
            partition,
            addr: self.partitions[partition].replicas[replica].addr,
            kind,
        }
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
        let deadline = Instant::now() + self.config.node_deadline;
        let mut legs = Vec::new();
        for (p, part) in self.partitions.iter().enumerate() {
            for r in 0..part.replicas.len() {
                legs.push(self.dispatch_leg(
                    p,
                    r,
                    Request::CreateSession {
                        engine: engine.map(str::to_string),
                    },
                ));
            }
        }
        let mut sids: HashMap<(usize, usize), u64> = HashMap::new();
        let mut failures = Vec::new();
        for mut leg in legs {
            let (p, r) = (leg.partition, leg.replica);
            match self.collect_leg(&mut leg, deadline) {
                Ok(Response::SessionCreated { session }) => {
                    sids.insert((p, r), session);
                }
                Ok(other) => failures.push(self.failure(
                    p,
                    r,
                    NodeFailureKind::Remote(format!("unexpected response: {other:?}")),
                )),
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
        let deadline = Instant::now() + self.config.node_deadline;
        let mut legs = Vec::new();
        for (&(p, r), &sid) in &state.bindings {
            legs.push(self.dispatch_leg(p, r, Request::CloseSession { session: sid }));
        }
        for mut leg in legs {
            let _ = self.collect_leg(&mut leg, deadline);
        }
        Ok(())
    }

    fn session_state(&self, session: u64) -> Result<SessionState, RouterError> {
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
        let deadline = Instant::now() + self.config.node_deadline;
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
            legs.push(self.dispatch_leg(
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
        let mut stats = SearchStatsDto {
            nodes_accessed: 0,
            cache_hits: 0,
            disk_reads: 0,
            distance_evaluations: 0,
        };
        let (mut shards_ok, mut shards_total, mut nodes_ok) = (0usize, 0usize, 0usize);
        for mut leg in legs {
            let (p, r) = (leg.partition, leg.replica);
            let partial = leg.partial;
            match self.collect_leg(&mut leg, deadline) {
                Ok(Response::Neighbors {
                    neighbors,
                    stats: leg_stats,
                    shards_ok: leg_shards_ok,
                    shards_total: leg_shards_total,
                    ..
                }) => {
                    let id_base = self.partitions[p].id_base;
                    let mut list: Vec<Neighbor> = neighbors
                        .into_iter()
                        .map(|n| Neighbor {
                            id: id_base + n.id,
                            distance: n.distance,
                        })
                        .collect();
                    if let Some(cap) = partial {
                        list.truncate(cap);
                    }
                    lists.push(list);
                    stats.nodes_accessed += leg_stats.nodes_accessed;
                    stats.cache_hits += leg_stats.cache_hits;
                    stats.disk_reads += leg_stats.disk_reads;
                    stats.distance_evaluations += leg_stats.distance_evaluations;
                    shards_ok += leg_shards_ok;
                    shards_total += leg_shards_total;
                    nodes_ok += 1;
                }
                Ok(other) => {
                    let kind = NodeFailureKind::Remote(format!("unexpected response: {other:?}"));
                    self.note_failure(p, r, &kind);
                    failures.push(self.failure(p, r, kind));
                }
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
                stats,
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
        let deadline = Instant::now() + self.config.node_deadline;
        let legs: Vec<(Leg, Vec<usize>)> = owners
            .into_iter()
            .map(|(p, indices)| {
                let id_base = self.partitions[p].id_base;
                let leader = self.partitions[p].leader.load(Ordering::Acquire);
                let ids = indices.iter().map(|&i| relevant_ids[i] - id_base).collect();
                let leg = self.dispatch_leg(p, leader, Request::FetchVectors { ids });
                (leg, indices)
            })
            .collect();
        // Every leg is collected, also after one has failed — a leg
        // left behind would leave a half-open breaker's probe without
        // its outcome. The lowest failing partition names the error.
        let mut failed: Option<RouterError> = None;
        for (mut leg, indices) in legs {
            let (p, leader) = (leg.partition, leg.replica);
            let outcome = self.collect_leg(&mut leg, deadline);
            if failed.is_some() {
                continue;
            }
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
                    failed = Some(RouterError::Protocol(format!(
                        "partition {p} resolved {} of {} vectors",
                        vectors.len(),
                        indices.len()
                    )));
                }
                Ok(_) => {
                    failed = Some(RouterError::Protocol(format!(
                        "partition {p} answered FetchVectors with something else"
                    )));
                }
                Err(kind) => {
                    failed = Some(RouterError::Unavailable(
                        vec![self.failure(p, leader, kind)],
                    ));
                }
            }
        }
        if let Some(error) = failed {
            return Err(error);
        }
        let points: Vec<FeedPointDto> = points
            .into_iter()
            .map(|p| p.expect("every id resolved by its owner"))
            .collect();

        // Broadcast to every replica holding the session.
        let deadline = Instant::now() + self.config.node_deadline;
        let mut legs = Vec::new();
        for (&(p, r), &sid) in &sess.bindings {
            legs.push(self.dispatch_leg(
                p,
                r,
                Request::FeedPoints {
                    session: sid,
                    points: points.clone(),
                },
            ));
        }
        let mut accepted: Option<Response> = None;
        let mut ok_partitions: Vec<bool> = vec![false; self.partitions.len()];
        let mut acked_replicas: Vec<(usize, usize)> = Vec::new();
        let mut failures = Vec::new();
        for mut leg in legs {
            let (p, r) = (leg.partition, leg.replica);
            match self.collect_leg(&mut leg, deadline) {
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
                Ok(other) => failures.push(self.failure(
                    p,
                    r,
                    NodeFailureKind::Remote(format!("unexpected response: {other:?}")),
                )),
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
    // Ingest + replication
    // ------------------------------------------------------------------

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
    /// - [`RouterError::Unavailable`] when no replica can take the write.
    /// - [`RouterError::NoQuorum`] when the write landed but could not
    ///   reach a majority (the record may survive; the caller must not
    ///   treat it as acked).
    pub fn ingest(&self, vector: Vec<f64>) -> Result<(usize, usize), RouterError> {
        self.ingest_inner(None, vector)
    }

    /// [`Router::ingest`] attributed to a session: on ack, the
    /// session's per-partition ingest mark advances to the new
    /// committed total, so its subsequent queries are only served by
    /// replicas that already hold the write (read-your-writes).
    ///
    /// # Errors
    ///
    /// As [`Router::ingest`], plus [`RouterError::UnknownSession`].
    pub fn ingest_for_session(
        &self,
        session: u64,
        vector: Vec<f64>,
    ) -> Result<(usize, usize), RouterError> {
        self.session_state(session)?;
        self.ingest_inner(Some(session), vector)
    }

    fn ingest_inner(
        &self,
        session: Option<u64>,
        vector: Vec<f64>,
    ) -> Result<(usize, usize), RouterError> {
        let p = self.map.ingest_partition();
        let part = &self.partitions[p];
        let mut leader = part.leader.load(Ordering::Acquire);
        if failpoint::active()
            && part.term.load(Ordering::Acquire) > 0
            && failpoint::evaluate_sleepy("router.lease.expire").is_some()
        {
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
                    .promote(p)
                    .map_err(|_| RouterError::Unavailable(vec![first.clone()]))?;
                attempt(leader).map_err(|kind| {
                    RouterError::Unavailable(vec![first, self.failure(p, leader, kind)])
                })?
            }
        };
        let Response::Ingested { id, total } = response else {
            return Err(RouterError::Protocol(
                "ingest answered with something else".into(),
            ));
        };
        part.replicas[leader]
            .known_total
            .store(total as u64, Ordering::Release);

        let mut copies = 1usize;
        for r in 0..part.replicas.len() {
            if r == leader {
                continue;
            }
            if self.catch_up(p, leader, r, total as u64).is_ok() {
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
        if let Some(session) = session {
            let mut sessions = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(state) = sessions.get_mut(&session) {
                let mark = state.ingest_marks.entry(p).or_insert(0);
                *mark = (*mark).max(total as u64);
            }
        }
        Ok((part.id_base + id, copies))
    }

    /// Confirms this router still leads `partition` on `replica` by
    /// sending an empty fenced `Apply` — a pure fence probe that also
    /// renews the replica's leader lease.
    fn fence_replica(&self, partition: usize, replica: usize) -> Result<(), NodeFailureKind> {
        let (term, lease_ms) = self.fence_params(partition);
        match self.repl_exchange(
            partition,
            replica,
            &ReplRequest::Apply {
                term,
                lease_ms,
                frames: Vec::new(),
            },
        )? {
            ReplReply::Applied { total, .. } => {
                self.partitions[partition].replicas[replica]
                    .known_total
                    .store(total, Ordering::Release);
                Ok(())
            }
            ReplReply::StaleTerm { current } => {
                self.counters
                    .fenced_stale_ships
                    .fetch_add(1, Ordering::Relaxed);
                Err(NodeFailureKind::StaleTerm(current))
            }
            _ => Err(NodeFailureKind::Remote(
                "fence probe answered with something else".into(),
            )),
        }
    }

    /// One replication exchange with a specific replica. Replication
    /// traffic bypasses the circuit breakers on purpose: status probes
    /// must work while a node's query breaker is open, or promotion
    /// could never examine a recovering follower.
    fn repl_exchange(
        &self,
        partition: usize,
        replica: usize,
        request: &ReplRequest,
    ) -> Result<ReplReply, NodeFailureKind> {
        let node = &self.partitions[partition].replicas[replica];
        let (reply_tx, reply_rx) = channel::unbounded();
        if node
            .tx
            .send(NodeJob::Repl {
                payload: request.encode(),
                reply: reply_tx,
            })
            .is_err()
        {
            return Err(NodeFailureKind::Transport("node worker exited".into()));
        }
        match reply_rx.recv_timeout(self.config.node_deadline) {
            Ok(Ok(bytes)) => match ReplReply::decode(&bytes) {
                Ok(ReplReply::Err { msg }) => Err(NodeFailureKind::Remote(msg)),
                Ok(reply) => Ok(reply),
                Err(e) => Err(NodeFailureKind::Transport(format!(
                    "replication reply did not parse: {e}"
                ))),
            },
            Ok(Err(msg)) => Err(NodeFailureKind::Transport(msg)),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                Err(NodeFailureKind::Timeout)
            }
        }
    }

    /// Ships the leader's committed records to one follower until the
    /// follower's total reaches `target`, bounded by
    /// [`RouterConfig::max_inline_lag`] (a follower further behind is
    /// left to anti-entropy so it cannot stall the ingest ack path).
    fn catch_up(
        &self,
        partition: usize,
        leader: usize,
        follower: usize,
        target: u64,
    ) -> Result<u64, NodeFailureKind> {
        self.catch_up_inner(
            partition,
            leader,
            follower,
            target,
            Some(self.config.max_inline_lag),
            false,
        )
    }

    /// The catch-up loop proper. Apply is idempotent on the follower,
    /// so a torn exchange is safely re-driven from the follower's
    /// authoritative status. Every `Apply` carries this router's
    /// `(term, lease_ms)`; a `StaleTerm` rejection stops the stream —
    /// this router has been fenced out by a newer leader.
    fn catch_up_inner(
        &self,
        partition: usize,
        leader: usize,
        follower: usize,
        target: u64,
        max_lag: Option<u64>,
        anti_entropy: bool,
    ) -> Result<u64, NodeFailureKind> {
        let (term, lease_ms) = self.fence_params(partition);
        let ReplReply::Status { total, .. } =
            self.repl_exchange(partition, follower, &ReplRequest::Status)?
        else {
            return Err(NodeFailureKind::Remote(
                "status probe answered with something else".into(),
            ));
        };
        let mut follower_total = total;
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
            let ReplReply::Chunk {
                total: leader_total,
                frames,
            } = self.repl_exchange(
                partition,
                leader,
                &ReplRequest::Fetch {
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
            self.counters
                .replication_records_shipped
                .fetch_add(shipped, Ordering::Relaxed);
            let (total, applied) = match self.repl_exchange(
                partition,
                follower,
                &ReplRequest::Apply {
                    term,
                    lease_ms,
                    frames,
                },
            )? {
                ReplReply::Applied { total, applied } => (total, applied),
                ReplReply::StaleTerm { current } => {
                    self.counters
                        .fenced_stale_ships
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(NodeFailureKind::StaleTerm(current));
                }
                _ => {
                    return Err(NodeFailureKind::Remote(
                        "apply answered with something else".into(),
                    ));
                }
            };
            self.counters
                .replication_records_applied
                .fetch_add(applied, Ordering::Relaxed);
            if anti_entropy {
                self.counters
                    .anti_entropy_chunks_shipped
                    .fetch_add(1, Ordering::Relaxed);
            }
            if total <= follower_total {
                return Err(NodeFailureKind::Remote(format!(
                    "follower stuck at {total} records"
                )));
            }
            follower_total = total;
        }
        self.partitions[partition].replicas[follower]
            .known_total
            .store(follower_total, Ordering::Release);
        Ok(follower_total)
    }

    /// Brings every follower of `partition` up to the current leader's
    /// committed total, returning the per-replica totals observed.
    /// Useful after a cold start and as a periodic anti-entropy pass.
    ///
    /// # Errors
    ///
    /// [`RouterError::Unavailable`] when the leader's status cannot be
    /// read; per-follower failures are reported in the result vector.
    pub fn sync_partition(&self, partition: usize) -> Result<SyncOutcome, RouterError> {
        let part = &self.partitions[partition];
        let leader = part.leader.load(Ordering::Acquire);
        let ReplReply::Status { total, .. } = self
            .repl_exchange(partition, leader, &ReplRequest::Status)
            .map_err(|kind| {
                RouterError::Unavailable(vec![self.failure(partition, leader, kind)])
            })?
        else {
            return Err(RouterError::Protocol(
                "leader status answered with something else".into(),
            ));
        };
        part.replicas[leader]
            .known_total
            .store(total, Ordering::Release);
        let mut results = Vec::new();
        for r in 0..part.replicas.len() {
            if r == leader {
                continue;
            }
            let outcome = self
                .catch_up_inner(partition, leader, r, total, None, false)
                .map_err(|kind| self.failure(partition, r, kind));
            results.push((r, outcome));
        }
        Ok(results)
    }

    /// Spawns the background anti-entropy thread: every `interval` it
    /// renews this router's leader leases (while it holds a term) and
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
    /// reachable replica (while this router holds a term), then
    /// unbounded catch-up streaming to every follower behind the
    /// leader. Failures are tolerated — the next round retries.
    fn anti_entropy_pass(&self, partition: usize) {
        let part = &self.partitions[partition];
        if part.term.load(Ordering::Acquire) > 0 {
            for r in 0..part.replicas.len() {
                let _ = self.fence_replica(partition, r);
            }
        }
        let leader = part.leader.load(Ordering::Acquire);
        let Ok(ReplReply::Status { total, .. }) =
            self.repl_exchange(partition, leader, &ReplRequest::Status)
        else {
            return;
        };
        part.replicas[leader]
            .known_total
            .store(total, Ordering::Release);
        for r in 0..part.replicas.len() {
            if r != leader {
                let _ = self.catch_up_inner(partition, leader, r, total, None, true);
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
        match self.repl_exchange(partition, replica, &ReplRequest::Status) {
            Ok(ReplReply::Status { total, durable, .. }) => {
                self.partitions[partition].replicas[replica]
                    .known_total
                    .store(total, Ordering::Release);
                Ok((total, durable))
            }
            Ok(_) => Err(RouterError::Protocol(
                "status probe answered with something else".into(),
            )),
            Err(kind) => Err(RouterError::Unavailable(vec![
                self.failure(partition, replica, kind)
            ])),
        }
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
        match self.repl_exchange(partition, replica, &ReplRequest::Status) {
            Ok(ReplReply::Status { term, leased, .. }) => Ok((term, leased)),
            Ok(_) => Err(RouterError::Protocol(
                "status probe answered with something else".into(),
            )),
            Err(kind) => Err(RouterError::Unavailable(vec![
                self.failure(partition, replica, kind)
            ])),
        }
    }

    /// Runs one term/vote election for `partition`: probes every
    /// replica's acknowledged term, bids `max + 1`, and wins only when
    /// a **majority** of the partition's replicas grant the vote. Vote
    /// rounds are retried (with [`RouterConfig::election_backoff`]
    /// pauses) until [`RouterConfig::election_timeout`] elapses, so a
    /// dead leader's lease can be outwaited. Returns the won term.
    ///
    /// # Errors
    ///
    /// [`RouterError::ElectionLost`] when no round reached a majority
    /// within the timeout.
    fn elect(&self, partition: usize) -> Result<u64, RouterError> {
        let part = &self.partitions[partition];
        let lease_ms = self.config.lease_duration.as_millis() as u64;
        let majority = part.replicas.len() / 2 + 1;
        let deadline = Instant::now() + self.config.election_timeout;
        let mut observed = part.term.load(Ordering::Acquire);
        loop {
            // The bid must exceed every term already granted anywhere
            // in the partition, or no node can vote for it.
            for r in 0..part.replicas.len() {
                if let Ok(ReplReply::Status { total, term, .. }) =
                    self.repl_exchange(partition, r, &ReplRequest::Status)
                {
                    part.replicas[r].known_total.store(total, Ordering::Release);
                    observed = observed.max(term);
                }
            }
            let candidate = observed + 1;
            let mut grants = 0usize;
            for r in 0..part.replicas.len() {
                match self.repl_exchange(
                    partition,
                    r,
                    &ReplRequest::Vote {
                        term: candidate,
                        lease_ms,
                    },
                ) {
                    Ok(ReplReply::Vote { granted: true, .. }) => grants += 1,
                    Ok(ReplReply::Vote {
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
            std::thread::sleep(self.config.election_backoff);
        }
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
    /// # Errors
    ///
    /// - [`RouterError::ElectionLost`] when another router holds the
    ///   term (or an unexpired lease) — the partition keeps its
    ///   current leader.
    /// - [`RouterError::Unavailable`] when the term was won but no
    ///   other replica answers a status probe.
    pub fn promote(&self, partition: usize) -> Result<usize, RouterError> {
        self.elect(partition)?;
        let part = &self.partitions[partition];
        let current = part.leader.load(Ordering::Acquire);
        let mut best: Option<(usize, u64)> = None;
        let mut failures = Vec::new();
        for r in 0..part.replicas.len() {
            if r == current {
                continue;
            }
            match self.repl_exchange(partition, r, &ReplRequest::Status) {
                Ok(ReplReply::Status { total, .. }) => {
                    part.replicas[r].known_total.store(total, Ordering::Release);
                    if best.is_none_or(|(_, t)| total > t) {
                        best = Some((r, total));
                    }
                }
                Ok(_) => failures.push(self.failure(
                    partition,
                    r,
                    NodeFailureKind::Remote("status probe answered with something else".into()),
                )),
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

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /// The router's own cluster counters, as the gauge struct the
    /// metrics snapshot embeds.
    pub fn cluster_gauges(&self) -> ClusterGauges {
        ClusterGauges {
            nodes_total: self.map.num_nodes() as u64,
            node_failures: self.counters.node_failures.load(Ordering::Relaxed),
            node_timeouts: self.counters.node_timeouts.load(Ordering::Relaxed),
            node_breaker_skips: self.counters.node_breaker_skips.load(Ordering::Relaxed),
            node_breaker_trips: self.counters.node_breaker_trips.load(Ordering::Relaxed),
            degraded_responses: self.counters.degraded_responses.load(Ordering::Relaxed),
            promotions: self.counters.promotions.load(Ordering::Relaxed),
            replication_records_shipped: self
                .counters
                .replication_records_shipped
                .load(Ordering::Relaxed),
            replication_records_applied: self
                .counters
                .replication_records_applied
                .load(Ordering::Relaxed),
            stale_reads: self.counters.stale_reads.load(Ordering::Relaxed),
            terms: self
                .partitions
                .iter()
                .map(|p| p.term.load(Ordering::Relaxed))
                .collect(),
            elections_won: self.counters.elections_won.load(Ordering::Relaxed),
            elections_lost: self.counters.elections_lost.load(Ordering::Relaxed),
            fenced_stale_ships: self.counters.fenced_stale_ships.load(Ordering::Relaxed),
            anti_entropy_chunks_shipped: self
                .counters
                .anti_entropy_chunks_shipped
                .load(Ordering::Relaxed),
            ryw_leader_fallbacks: self.counters.ryw_leader_fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Cluster-wide metrics: every reachable partition leader's
    /// snapshot absorbed into one (counters summed, quantiles bounded
    /// by the per-node maxima), with [`MetricsSnapshot::cluster`]
    /// replaced by this router's own counters.
    ///
    /// # Errors
    ///
    /// [`RouterError::Unavailable`] when no node answered.
    pub fn stats(&self) -> Result<MetricsSnapshot, RouterError> {
        let deadline = Instant::now() + self.config.node_deadline;
        let mut legs = Vec::new();
        for (p, part) in self.partitions.iter().enumerate() {
            let leader = part.leader.load(Ordering::Acquire);
            legs.push(self.dispatch_leg(p, leader, Request::Stats));
        }
        let mut merged: Option<MetricsSnapshot> = None;
        let mut failures = Vec::new();
        for mut leg in legs {
            let (p, r) = (leg.partition, leg.replica);
            match self.collect_leg(&mut leg, deadline) {
                Ok(Response::Stats(snapshot)) => match merged.as_mut() {
                    None => merged = Some(*snapshot),
                    Some(agg) => agg.absorb(&snapshot),
                },
                Ok(other) => failures.push(self.failure(
                    p,
                    r,
                    NodeFailureKind::Remote(format!("unexpected response: {other:?}")),
                )),
                Err(kind) => failures.push(self.failure(p, r, kind)),
            }
        }
        let mut snapshot = merged.ok_or(RouterError::Unavailable(failures))?;
        snapshot.cluster = self.cluster_gauges();
        Ok(snapshot)
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        // Dropping the partitions drops every job sender; workers see
        // the closed channel and exit (bounded by the client timeouts
        // if one is mid-call).
        self.partitions.clear();
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}
