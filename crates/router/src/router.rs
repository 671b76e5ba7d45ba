//! The scatter–gather router: one process fronting N `qcluster-net`
//! node processes.
//!
//! Every query fans out to each partition's leader over framed TCP,
//! the partial top-k lists come back with node-local ids, and the
//! router remaps them onto the global id space (`global = id_base +
//! local`) before k-way-merging with the same `(distance, id)`
//! tie-break the in-process executor uses — so a healthy cluster is
//! bit-for-bit equal to a single node holding the whole corpus.
//!
//! ## Sessions
//!
//! A session lives on the router, in the same [`SessionRegistry`] a
//! node hosts its own in (method, compiled-plan cache, LRU eviction),
//! sized by [`RouterConfig::max_sessions`]; nodes hold none. Creating
//! and closing one sends no leg. A feed resolves the marked ids from
//! the session's last answer and last feed, sends one `FetchVectors`
//! scatter to the partitions owning any other id, then runs the
//! method's feed on the caller's thread. A query compiles the session's
//! refined query (or takes the example vector) and scatters it as a
//! stateless `QueryCompiled` carrying the query's numbers, never the
//! fed points. A refined round without a deadline also carries τ₀, the
//! `k`-th distance of the last answer under that query: each node
//! answers its points under τ₀ with their vectors, and the router
//! remembers the merged answer's.
//!
//! ## Degradation
//!
//! A leg runs on the caller's thread over a pooled connection. One
//! deadline bounds each leg from its start, its dial included (a late
//! reply is dropped with its connection). A per-node circuit breaker
//! trips after consecutive failures and skips the node (degraded
//! coverage) until a cooldown elapses, then half-opens with a single
//! probe; every leg it admits is charged to it exactly once, so a probe
//! always resolves. A node is a remote target that can stay down, so
//! it has a breaker; a shard inside a node is in-process work and has
//! none. Every missing leg is attributed with a typed [`NodeFailureKind`],
//! and responses carry `nodes_ok / nodes_total` cluster coverage next
//! to the per-node `shards_ok / shards_total`. A node's typed rejection
//! of the request itself (`ServiceError::is_caller_fault`: an invalid
//! request, an id outside its corpus, a wrong dimensionality) is a
//! delivered reply: the breaker records a success and the caller gets
//! [`RouterError::InvalidRequest`] with the node's message. The node's
//! answer to a frame it could not decode is the exception: the router
//! sends only well-formed frames, so that leg failed in transport.
//!
//! ## Replication
//!
//! Partitions may be replicated. The router ships the leader's WAL to
//! followers with the replication requests of the one protocol
//! (`ReplFetch` from the follower's committed record offset on the
//! leader, `ReplApply` on the follower — idempotent, so a torn exchange
//! is simply re-driven). An
//! acked ingest is one that reached a **majority** of the partition's
//! replicas, so killing the leader loses nothing: promotion probes the
//! surviving replicas' replication status and elects the one with the
//! highest committed total. Followers serve no queries: they are there
//! for failover, so while a leader's breaker is open its partition's
//! leg degrades as [`NodeFailureKind::BreakerOpen`].
//!
//! ## Consensus: terms, leases, fencing
//!
//! Each partition carries a monotonic **term**, persisted node-side
//! next to the WAL. Promotion is a term/vote handshake: the router
//! probes replica terms, bids `max + 1`, and leads only after a
//! **majority** of the partition's replicas grant the vote — so two
//! routers contending over the same nodes cannot both win a term.
//! A router wins a term before its first ship (there is no term-0
//! mode); every replication ship (and the empty fence probe preceding
//! each ingest) carries `(term, lease_ms)`, and a follower that has
//! acknowledged a higher term rejects the ship with a typed
//! `StaleTerm`, fencing zombie leaders. A refused vote round is retried
//! after a randomized pause, so contending routers fall out of step.
//! Leadership is
//! **lease-based**: each accepted fenced ship renews the follower's
//! leader lease, and while any lease is unexpired the follower refuses
//! competing votes — an actively-shipping leader cannot be deposed,
//! a dead one is deposable one lease window after its last renewal.
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

mod election;
mod replication;
mod routing;

use crate::breaker::Breaker;
use crate::map::ShardMap;
use qcluster_net::{Client, ClientConfig, NetError};
use qcluster_service::{ClusterGauges, Response, ServiceError, ServiceMetrics, SessionRegistry};
use std::collections::hash_map::RandomState;
use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Consecutive leg failures that trip one node's circuit breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before half-opening.
    pub breaker_cooldown: Duration,
    /// Transport tunables for the pooled per-node connections. Its
    /// `read_timeout` is each leg's one deadline, from the leg's start
    /// (a dial included): a node that has not answered by then is a
    /// [`NodeFailureKind::Timeout`]. An empty pool dials once, within
    /// that deadline, without `max_connect_attempts`'s retries.
    pub client: ClientConfig,
    /// Records per replication `Fetch` round.
    pub replication_batch: u32,
    /// How long a follower honors a leader lease (and a vote lease)
    /// after granting it. An actively-shipping leader renews within
    /// this window; failover after a leader death waits at most one
    /// window.
    pub lease_duration: Duration,
    /// Shortest pause between retried vote rounds while an election is
    /// refused (typically because a prior leader's lease has not lapsed
    /// yet). Each pause is drawn from `[election_backoff,
    /// 2·election_backoff)`, so two routers contending for one
    /// partition stop retrying in lockstep.
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
    /// Maximum live sessions; creating one more evicts the least
    /// recently used. The router hosts every session; nodes hold none.
    pub max_sessions: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
            client: ClientConfig {
                read_timeout: Duration::from_secs(5),
                ..ClientConfig::default()
            },
            replication_batch: 256,
            lease_duration: Duration::from_millis(1_500),
            election_backoff: Duration::from_millis(100),
            election_timeout: Duration::from_secs(4),
            max_inline_lag: 4_096,
            max_sessions: 64,
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
    /// The node had not answered when the leg's deadline elapsed.
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

/// A session or method error in the router's vocabulary.
impl From<ServiceError> for RouterError {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::UnknownSession(id) => RouterError::UnknownSession(id),
            other => RouterError::InvalidRequest(other.to_string()),
        }
    }
}

/// The outcome of one scattered query.
#[derive(Debug, Clone)]
pub struct ScatterReport {
    /// The merged [`Response::Neighbors`] with cluster coverage filled
    /// in (`nodes_ok` / `nodes_total`).
    pub response: Response,
    /// Typed attribution for every missing leg.
    pub failures: Vec<NodeFailure>,
}

/// One replica: its idle connections and its circuit breaker.
struct NodeHandle {
    addr: SocketAddr,
    /// Connections whose last exchange completed.
    idle: Mutex<Vec<Client>>,
    breaker: Breaker,
}

impl NodeHandle {
    fn idle(&self) -> MutexGuard<'_, Vec<Client>> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// An idle connection to this replica, or one dialed once within
    /// what is left of the exchange's `deadline` (a dial failure is
    /// [`NodeFailureKind::Transport`]).
    fn checkout(
        &self,
        config: &ClientConfig,
        deadline: Instant,
    ) -> Result<Client, NodeFailureKind> {
        if let Some(client) = self.idle().pop() {
            return Ok(client);
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(NodeFailureKind::Timeout);
        }
        let config = ClientConfig {
            connect_timeout: config.connect_timeout.min(left),
            max_connect_attempts: 1,
            ..config.clone()
        };
        Client::connect(self.addr, config)
            .map_err(|e| NodeFailureKind::Transport(format!("connect {}: {e}", self.addr)))
    }

    /// Settles an exchange on `client` that ended in `error`, if any: a
    /// completed one pools the client again. A transport failure (the
    /// connection closed, broke, or carried a damaged frame) also drops
    /// every idle sibling, since a node that died or restarted closed
    /// them all; any other error drops only `client`.
    fn checkin(&self, client: Client, error: Option<&NetError>) {
        match error {
            None if client.is_connected() => self.idle().push(client),
            Some(NetError::Closed(_) | NetError::Io(_) | NetError::Frame(_)) => self.idle().clear(),
            _ => {}
        }
    }
}

/// A leg's transport failure: a read that ran out of time is a
/// [`NodeFailureKind::Timeout`].
impl From<NetError> for NodeFailureKind {
    fn from(e: NetError) -> Self {
        match e {
            NetError::Timeout(_) => NodeFailureKind::Timeout,
            other => NodeFailureKind::Transport(other.to_string()),
        }
    }
}

struct PartitionState {
    id_base: usize,
    replicas: Vec<NodeHandle>,
    /// Index of the current leader within `replicas` (promotion moves it).
    leader: AtomicUsize,
    /// The replication term this router leads the partition at (0 =
    /// never elected; it wins one before its first ship).
    term: AtomicU64,
    /// Held while this router runs an election for the partition.
    election: Mutex<()>,
}

/// Router-side cluster counters, mirrored into
/// [`MetricsSnapshot::cluster`] by [`Router::stats`].
#[derive(Debug, Default)]
struct Counters {
    node_failures: AtomicU64,
    node_timeouts: AtomicU64,
    node_breaker_skips: AtomicU64,
    degraded_responses: AtomicU64,
    promotions: AtomicU64,
    replication_records_shipped: AtomicU64,
    replication_records_applied: AtomicU64,
    elections_won: AtomicU64,
    elections_lost: AtomicU64,
    fenced_stale_ships: AtomicU64,
    anti_entropy_chunks_shipped: AtomicU64,
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
    /// Every session: its method and compiled-plan cache.
    sessions: SessionRegistry,
    /// Session, plan-cache and feed counters, which [`Router::stats`]
    /// reports in place of the nodes'.
    metrics: ServiceMetrics,
    counters: Counters,
    /// Keys the election-retry jitter: each router draws its own
    /// stream, the hash of a counter under this key.
    jitter: RandomState,
    /// Draws taken from `jitter`.
    jitter_draws: AtomicU64,
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

impl Router {
    /// Builds a router over `map`. It spawns no thread and dials no
    /// node, so nodes may come up after the router.
    ///
    /// # Errors
    ///
    /// [`RouterError::InvalidRequest`] when `config.max_sessions` is
    /// zero.
    pub fn new(map: ShardMap, config: RouterConfig) -> Result<Router, RouterError> {
        if config.max_sessions == 0 {
            return Err(RouterError::InvalidRequest(
                "max_sessions must be positive".into(),
            ));
        }
        let partitions = map
            .partitions()
            .iter()
            .map(|partition| PartitionState {
                id_base: partition.id_base,
                replicas: partition
                    .replicas
                    .iter()
                    .map(|&addr| NodeHandle {
                        addr,
                        idle: Mutex::new(Vec::new()),
                        breaker: Breaker::default(),
                    })
                    .collect(),
                leader: AtomicUsize::new(0),
                term: AtomicU64::new(0),
                election: Mutex::new(()),
            })
            .collect();
        Ok(Router {
            map,
            partitions,
            sessions: SessionRegistry::new(config.max_sessions),
            metrics: ServiceMetrics::new(),
            config,
            counters: Counters::default(),
            jitter: RandomState::new(),
            jitter_draws: AtomicU64::new(0),
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
    /// never elected: its first ingest, sync or `acquire` wins one).
    pub fn term_of(&self, partition: usize) -> u64 {
        self.partitions[partition].term.load(Ordering::Acquire)
    }

    /// The router's own cluster counters, as the gauge struct the
    /// metrics snapshot embeds.
    pub fn cluster_gauges(&self) -> ClusterGauges {
        ClusterGauges {
            nodes_total: self.map.num_nodes() as u64,
            node_failures: self.counters.node_failures.load(Ordering::Relaxed),
            node_timeouts: self.counters.node_timeouts.load(Ordering::Relaxed),
            node_breaker_skips: self.counters.node_breaker_skips.load(Ordering::Relaxed),
            node_breaker_trips: self
                .partitions
                .iter()
                .flat_map(|p| &p.replicas)
                .map(|node| node.breaker.trips())
                .sum(),
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
        }
    }
}
