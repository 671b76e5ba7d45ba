//! The retrieval service: corpus shards + executor + session registry +
//! metrics behind one concurrency-safe façade.
//!
//! Every public method takes `&self` — a single [`Service`] value wrapped
//! in an [`Arc`](std::sync::Arc) is the intended deployment shape, with
//! any number of client threads calling into it concurrently.

use crate::error::ServiceError;
use crate::executor::{
    default_num_workers, panic_message, Executor, ExecutorConfig, ShardFailureKind,
};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::protocol::{feedback_points, DEFAULT_SCORE};
use crate::session::{FeedOutcome, Seen, SessionRegistry};
use crate::shard::{ShardKind, ShardedCorpus};
use crate::writer::Writer;
use qcluster_core::FeedbackPoint;
use qcluster_index::{merge_top_k, FanoutQuery, LinearScan, Neighbor, SearchStats};
use qcluster_store::{
    decode_record_frames, encode_record_frame, CompactionStats, StoreConfig, VectorStore, WalRecord,
};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

/// Everything tunable about a service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of corpus shards (clamped so shards are never empty).
    pub num_shards: usize,
    /// Worker threads in the k-NN pool (default: one per core).
    pub num_workers: usize,
    /// Has one value; stays only because `benchmark/` sets it (ROADMAP 1(b)).
    pub shard_kind: ShardKind,
    /// Maximum live sessions; creating one more evicts the least
    /// recently used.
    pub max_sessions: usize,
    /// Always [`DEFAULT_SCORE`], which is what a feed uses; stays only
    /// because `benchmark/` reads it (ROADMAP 1(b)).
    pub default_score: f64,
    /// Read by nothing; stays only because `benchmark/` names it
    /// (ROADMAP 1(b)).
    pub breaker_threshold: u32,
    /// Read by nothing; stays only because `benchmark/` names it
    /// (ROADMAP 1(b)).
    pub breaker_cooldown: Duration,
    /// Admission cap on shard jobs queued or running at once; fan-outs
    /// beyond it are rejected with [`ServiceError::Overloaded`].
    pub max_queued_jobs: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            num_shards: 4,
            num_workers: default_num_workers(),
            shard_kind: ShardKind::default(),
            max_sessions: 64,
            default_score: DEFAULT_SCORE,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
            max_queued_jobs: 4096,
        }
    }
}

/// Result of one query round.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The global top-k, ascending by `(distance, id)`.
    pub neighbors: Vec<Neighbor>,
    /// Search work summed across shards.
    pub stats: SearchStats,
    /// Shards whose results made it into the merge.
    pub shards_ok: usize,
    /// Shards the query addressed.
    pub shards_total: usize,
}

impl QueryOutcome {
    /// `true` when shard timeouts, panics or failures kept some
    /// shards out of the merge — the ranking covers only
    /// `shards_ok / shards_total` of the corpus.
    pub fn degraded(&self) -> bool {
        self.shards_ok < self.shards_total
    }
}

/// Result of one live ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// The new vector's corpus id (stable across restarts).
    pub id: usize,
    /// Total corpus size after the ingest (base + overlay).
    pub total: usize,
}

/// The concurrent multi-session retrieval service.
///
/// Reads and writes are split by who touches what. Queries read the
/// immutable sharded base corpus and the `overlay`; everything that can
/// fsync or move the replication term goes through the `writer` mutex.
/// Lock order is writer → overlay and nothing else nests: the overlay
/// lock is a leaf (held for one scan, a batch of row copies, or one
/// `extend_from_slice`), and the writer is never taken with a session
/// guard held.
#[derive(Debug)]
pub struct Service {
    corpus: ShardedCorpus,
    executor: Executor,
    registry: SessionRegistry,
    metrics: ServiceMetrics,
    config: ServiceConfig,
    /// Vectors in the sharded base corpus; overlay ids start here.
    base_len: usize,
    /// Whether a store backs the writer (fixed at open).
    durable: bool,
    writer: Mutex<Writer>,
    /// Every vector ingested since this process opened the store, row
    /// `i` holding corpus id `base_len + i`. Appended to only by the
    /// writer's holder, after the WAL append has returned — so a
    /// visible row is a durable one, and the overlay's length is stable
    /// for whoever holds the writer.
    overlay: RwLock<LinearScan>,
}

impl Service {
    /// Builds the service over `points`: shards the corpus, spawns the
    /// worker pool, and readies an empty session registry.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] for an empty or ragged corpus or
    /// a non-finite component, [`ServiceError::Spawn`] when a worker
    /// thread cannot be created.
    ///
    /// # Panics
    ///
    /// Panics on zero shards or sessions.
    pub fn new(points: &[Vec<f64>], config: ServiceConfig) -> Result<Self, ServiceError> {
        let corpus = ShardedCorpus::build(points, config.num_shards)?;
        Self::build(corpus, config, Writer::default())
    }

    fn build(
        corpus: ShardedCorpus,
        config: ServiceConfig,
        writer: Writer,
    ) -> Result<Self, ServiceError> {
        let executor = Executor::with_config(ExecutorConfig {
            num_workers: config.num_workers,
            max_queued_jobs: config.max_queued_jobs,
            ..ExecutorConfig::default()
        })?;
        let registry = SessionRegistry::new(config.max_sessions);
        let overlay = RwLock::new(LinearScan::empty(corpus.dim()));
        Ok(Service {
            base_len: corpus.len(),
            corpus,
            executor,
            registry,
            metrics: ServiceMetrics::new(),
            config,
            durable: writer.is_durable(),
            writer: Mutex::new(writer),
            overlay,
        })
    }

    /// Opens a durable service over a store directory.
    ///
    /// On a fresh directory the store is bootstrapped from `seed` (which
    /// becomes ids `0..seed.len()`): the seal runs on a scoped thread
    /// while this thread shards the same rows, each checking them on its
    /// own, and the call returns once both are done — the segment is
    /// fsynced and renamed into place before the service exists. On a
    /// directory with prior state the full durable corpus — sealed
    /// segments plus the WAL tail, torn final record discarded — is
    /// recovered as the base shards, and `seed` is ignored. Sessions are
    /// not persisted: the registry starts empty, an id issued before the
    /// restart is unknown, and no new id repeats one (see
    /// [`SessionRegistry::new`]), so clients re-create after a crash.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Storage`] for I/O or corruption, or when the seal
    /// fails or panics (the shards built beside it are dropped), and
    /// [`ServiceError::InvalidRequest`] when the directory is empty and
    /// the seed is empty, ragged or holds a non-finite component.
    pub fn open_durable(
        dir: &Path,
        seed: &[Vec<f64>],
        config: ServiceConfig,
        store_config: StoreConfig,
    ) -> Result<Self, ServiceError> {
        let (mut store, recovered) = VectorStore::open(dir, store_config)?;
        let had_prior = !recovered.vectors.is_empty();
        let corpus = if !had_prior {
            if seed.is_empty() {
                return Err(ServiceError::InvalidRequest(
                    "durable open needs prior state or a non-empty seed".into(),
                ));
            }
            // Shards stay on this thread: built on others, they raise
            // the peak through per-thread malloc arenas (DESIGN.md §10).
            // A bad seed fails both sides before the seal creates a
            // file; the shard build's error is the one reported.
            std::thread::scope(|scope| {
                let seal = scope.spawn(|| store.bootstrap(seed));
                let corpus = ShardedCorpus::build(seed, config.num_shards);
                let sealed = seal.join();
                let corpus = corpus?;
                match sealed {
                    Ok(sealed) => sealed.map(|()| corpus).map_err(ServiceError::from),
                    Err(panic) => Err(ServiceError::Storage(format!(
                        "segment seal panicked: {}",
                        panic_message(&*panic)
                    ))),
                }
            })?
        } else {
            ShardedCorpus::build(&recovered.vectors, config.num_shards)?
        };
        let service = Service::build(corpus, config, Writer::durable(store, recovered.term))?;
        if had_prior {
            service.metrics.count(|m| m.recoveries += 1);
        }
        Ok(service)
    }

    fn lock_writer(&self) -> MutexGuard<'_, Writer> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn read_overlay(&self) -> RwLockReadGuard<'_, LinearScan> {
        self.overlay.read().unwrap_or_else(|e| e.into_inner())
    }

    /// `true` when the service is backed by a durable store.
    pub fn is_durable(&self) -> bool {
        self.durable
    }

    /// Total corpus size: base shards plus the live-ingest overlay.
    pub fn total_vectors(&self) -> usize {
        self.base_len + self.read_overlay().len()
    }

    /// The vector stored under corpus id `id`: base shards first, the
    /// live-ingest overlay past them.
    fn vector_of(&self, overlay: &LinearScan, id: usize) -> Result<Vec<f64>, ServiceError> {
        if id < self.base_len {
            Ok(self.corpus.point(id))
        } else if id - self.base_len < overlay.len() {
            Ok(overlay.point(id - self.base_len).to_vec())
        } else {
            Err(ServiceError::InvalidImageId {
                id,
                corpus_len: self.base_len + overlay.len(),
            })
        }
    }

    /// The sharded corpus.
    pub fn corpus(&self) -> &ShardedCorpus {
        &self.corpus
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Live metrics (for direct embedding; wire clients use `stats`).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Number of live sessions.
    pub fn active_sessions(&self) -> usize {
        self.registry.len()
    }

    /// Opens a session hosting the default Qcluster engine. Like every
    /// session operation it takes no writer lock and writes nothing.
    ///
    /// # Errors
    ///
    /// None: the default name always resolves. The `Result` matches
    /// [`Service::create_session_named`].
    pub fn create_session(&self) -> Result<u64, ServiceError> {
        self.create_session_named("qcluster")
    }

    /// Opens a session hosting the method `engine` names in
    /// [`qcluster_baselines::METHODS`]. At capacity the least recently
    /// used session is evicted.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] for unknown names.
    pub fn create_session_named(&self, engine: &str) -> Result<u64, ServiceError> {
        self.registry.create(engine, &self.metrics)
    }

    /// Closes a session explicitly.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when the id is not live.
    pub fn close_session(&self, session: u64) -> Result<(), ServiceError> {
        self.registry.close(session, &self.metrics)
    }

    /// Feeds one round of relevant points into a session's engine. It
    /// takes no writer lock and writes nothing: sessions are not
    /// durable.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`], [`ServiceError::EmptyFeedback`],
    /// [`ServiceError::DimensionMismatch`], or engine failures.
    pub fn feed(
        &self,
        session: u64,
        relevant: &[FeedbackPoint],
    ) -> Result<FeedOutcome, ServiceError> {
        if relevant.is_empty() {
            return Err(ServiceError::EmptyFeedback);
        }
        for p in relevant {
            self.check_dim(p.dim())?;
        }
        self.registry.feed(session, relevant, &self.metrics)
    }

    /// Feeds relevant points identified by corpus image id, checked by
    /// [`feedback_points`]: `scores` optionally grades each id, and
    /// omitted scores are [`DEFAULT_SCORE`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidImageId`] for out-of-range ids,
    /// [`ServiceError::InvalidRequest`] on a score-count mismatch, plus
    /// everything [`Service::feed`] returns.
    pub fn feed_ids(
        &self,
        session: u64,
        relevant_ids: &[usize],
        scores: Option<&[f64]>,
    ) -> Result<FeedOutcome, ServiceError> {
        let points = feedback_points(relevant_ids, scores, || self.vectors_by_id(relevant_ids))?;
        self.feed(session, &points)
    }

    /// Runs the session's refined query: compiles the engine's current
    /// query (e.g. the disjunctive multipoint query) and fans it out
    /// across the shards.
    ///
    /// The compiled plan is cached in the session: repeat queries
    /// between feedback rounds skip recompilation (covariance inversion
    /// and expanded-form precomputation) and only re-run the k-NN. Every
    /// feed drops it, so the next query recompiles. Hits and misses show
    /// up in the service metrics as `plan_cache_hits` /
    /// `plan_cache_misses`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`], [`ServiceError::InvalidRequest`]
    /// for `k == 0`, or [`ServiceError::Engine`] before any feedback.
    pub fn query(&self, session: u64, k: usize) -> Result<QueryOutcome, ServiceError> {
        self.query_with_deadline(session, k, None, None)
    }

    /// Runs an ad-hoc query from an explicit vector — the session's
    /// initial example-image round, before any feedback exists.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`],
    /// [`ServiceError::DimensionMismatch`], or
    /// [`ServiceError::InvalidRequest`] for `k == 0`.
    pub fn query_vector(
        &self,
        session: u64,
        vector: Vec<f64>,
        k: usize,
    ) -> Result<QueryOutcome, ServiceError> {
        self.query_with_deadline(session, k, Some(vector), None)
    }

    /// One query round of `session`: the example `vector`'s round as
    /// [`Service::query_vector`], or with `None` the refined round as
    /// [`Service::query`], under an optional `deadline` (`None` = wait
    /// for every shard). On expiry, whatever shards responded are
    /// merged into a degraded partial result — see
    /// [`QueryOutcome::degraded`]; only when *zero* shards made the
    /// deadline does this return [`ServiceError::DeadlineExceeded`].
    ///
    /// # Errors
    ///
    /// Everything [`Service::query`] and [`Service::query_vector`]
    /// return, plus [`ServiceError::DeadlineExceeded`] and
    /// [`ServiceError::Overloaded`].
    pub fn query_with_deadline(
        &self,
        session: u64,
        k: usize,
        vector: Option<Vec<f64>>,
        deadline: Option<Duration>,
    ) -> Result<QueryOutcome, ServiceError> {
        if let Some(vector) = &vector {
            self.check_dim(vector.len())?;
        }
        let start = Instant::now();
        let (query, previous) = self.registry.query(session, vector, &self.metrics)?;
        let bound = previous.bound(&*query, k);
        let outcome = self.run_query(&*query, k, start, deadline, bound)?;
        let ids: Vec<usize> = outcome.neighbors.iter().map(|n| n.id).collect();
        let rows = self.vectors_by_id(&ids)?.concat();
        self.registry.remember(session, Seen::new(ids, rows));
        Ok(outcome)
    }

    /// Runs a query compiled elsewhere, outside any session: what a
    /// cluster router scatters ([`crate::Request::QueryCompiled`]) —
    /// the router hosts the session and compiles, the node only scans.
    /// `deadline` as in [`Service::query_with_deadline`]. With a
    /// `bound` τ₀ (the `k`-th distance of `k` points of the cluster's
    /// corpus) and no deadline, the answer is the exact top-k of this
    /// node's points with `d ≤ τ₀`, which may be fewer than `k`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::DimensionMismatch`],
    /// [`ServiceError::InvalidRequest`] for `k == 0`,
    /// [`ServiceError::DeadlineExceeded`] and
    /// [`ServiceError::Overloaded`].
    pub fn query_compiled(
        &self,
        query: &dyn FanoutQuery,
        k: usize,
        deadline: Option<Duration>,
        bound: Option<f64>,
    ) -> Result<QueryOutcome, ServiceError> {
        self.check_dim(query.dim())?;
        self.run_query(query, k, Instant::now(), deadline, bound)
    }

    fn check_dim(&self, found: usize) -> Result<(), ServiceError> {
        let expected = self.corpus.dim();
        if found != expected {
            return Err(ServiceError::DimensionMismatch { expected, found });
        }
        Ok(())
    }

    /// One fan-out of `query` plus the overlay scan. `bound` is τ₀, the
    /// `k`-th distance of `k` corpus points under `query` (a session's
    /// last answer, base or overlay ids): a fan-out that waits for every
    /// shard is bounded by it and brings the base points under τ₀, the
    /// overlay scan its exact top-k, and the answer is the merge's
    /// points under τ₀ — an overlay point past τ₀ would stand in for
    /// the base points past τ₀ that the fan-out left out. One that lost
    /// a shard is exact over the others and answers unfiltered. One
    /// under a deadline runs unbounded: it may lose the shards that hold
    /// those points, and then the others may bring too few candidates
    /// and pay an exact scan.
    fn run_query(
        &self,
        query: &dyn FanoutQuery,
        k: usize,
        start: Instant,
        deadline: Option<Duration>,
        bound: Option<f64>,
    ) -> Result<QueryOutcome, ServiceError> {
        if k == 0 {
            return Err(ServiceError::InvalidRequest("k must be positive".into()));
        }
        let fanout_start = Instant::now();
        // The deadline covers the whole request, so it anchors at
        // `start` (session lookup and plan compilation count against it).
        let fanout_deadline = deadline.map(|d| start + d);
        let bound = bound.filter(|_| deadline.is_none());
        let report = match self
            .executor
            .fanout(&self.corpus, query, k, fanout_deadline, bound)
        {
            Ok(report) => report,
            Err(e) => {
                self.metrics.count(|m| match &e {
                    ServiceError::DeadlineExceeded { .. } => m.faults.deadline_exceeded += 1,
                    ServiceError::Overloaded { .. } => m.faults.overload_rejections += 1,
                    _ => {}
                });
                return Err(e);
            }
        };
        self.metrics.shard_fanout.record(fanout_start.elapsed());
        let degraded = report.degraded();
        if degraded {
            self.metrics.count(|m| {
                let faults = &mut m.faults;
                faults.degraded_responses += 1;
                for failure in &report.failures {
                    match failure.kind {
                        ShardFailureKind::Panic(_) => faults.shard_panics += 1,
                        ShardFailureKind::Failed(_) => faults.shard_failures += 1,
                        ShardFailureKind::Timeout => faults.shard_timeouts += 1,
                    }
                }
            });
        }
        let (mut neighbors, mut stats) = (report.neighbors, report.stats);
        // Merge in live-ingested vectors (ids offset past the base
        // corpus): one exact flat scan under the overlay's read lock.
        let extra = {
            let overlay = self.read_overlay();
            (!overlay.is_empty()).then(|| {
                stats.distance_evaluations += overlay.len() as u64;
                overlay.knn(query, k)
            })
        };
        if let Some(mut extra) = extra {
            for n in &mut extra {
                n.id += self.base_len;
            }
            neighbors = merge_top_k(vec![neighbors, extra], k);
        }
        if let Some(tau0) = bound.filter(|_| !degraded) {
            neighbors.retain(|n| n.distance <= tau0);
        }
        self.metrics.count_scan(&stats.quant);
        self.metrics.query_hist.record(start.elapsed());
        Ok(QueryOutcome {
            neighbors,
            stats,
            shards_ok: report.shards_ok,
            shards_total: report.shards_total,
        })
    }

    /// Durably ingests one vector into the live corpus: WAL-append and
    /// fsync, then publish to the in-memory overlay. The returned id is
    /// immediately queryable and feedable, and survives restarts —
    /// recovery folds overlay vectors into the base shards under the
    /// same ids.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Storage`] when the service is memory-only or the
    /// WAL append fails, [`ServiceError::DimensionMismatch`], or
    /// [`ServiceError::InvalidRequest`] for non-finite components.
    pub fn ingest(&self, vector: Vec<f64>) -> Result<IngestOutcome, ServiceError> {
        self.check_ingestable(&vector)?;
        self.append(&mut self.lock_writer(), vector)
    }

    fn check_ingestable(&self, vector: &[f64]) -> Result<(), ServiceError> {
        self.check_dim(vector.len())?;
        if vector.iter().any(|v| !v.is_finite()) {
            return Err(ServiceError::InvalidRequest(
                "vector components must be finite".into(),
            ));
        }
        Ok(())
    }

    /// WAL-appends `vector` and then — the fsync has returned — copies
    /// it onto the overlay, all inside the caller's hold of the writer,
    /// so overlay position ≡ store id.
    fn append(&self, writer: &mut Writer, vector: Vec<f64>) -> Result<IngestOutcome, ServiceError> {
        let id = writer.append(vector.clone())? as usize;
        let total = {
            let mut overlay = self.overlay.write().unwrap_or_else(|e| e.into_inner());
            overlay.push(&vector);
            self.base_len + overlay.len()
        };
        debug_assert_eq!(id + 1, total, "store and overlay ids agree");
        self.metrics.count(|m| m.ingests += 1);
        Ok(IngestOutcome { id, total })
    }

    /// Folds the WAL into a sealed segment (compaction) and fsyncs
    /// everything durable.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Storage`] when the service is memory-only or the
    /// fold fails.
    pub fn flush(&self) -> Result<CompactionStats, ServiceError> {
        let stats = self.lock_writer().compact()?;
        self.metrics.count(|m| m.flushes += 1);
        Ok(stats)
    }

    /// Resolves corpus vectors by global id (base corpus or live
    /// overlay). Used by a cluster router to materialize feedback
    /// vectors owned by this node before broadcasting them.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidImageId`] for any out-of-range id.
    pub fn vectors_by_id(&self, ids: &[usize]) -> Result<Vec<Vec<f64>>, ServiceError> {
        let overlay = self.read_overlay();
        ids.iter().map(|&id| self.vector_of(&overlay, id)).collect()
    }

    /// Serves a replication chunk for a follower catching up from
    /// vector id `from`: up to `max` ingest records, re-encoded as
    /// CRC-framed WAL frames byte-identical to what a local
    /// [`WalWriter`](qcluster_store::WalWriter) would have produced.
    /// Returns `(committed_total, frames)`; an empty `frames` with
    /// `from == committed_total` means the follower is caught up.
    ///
    /// The chunk covers the *whole* corpus (base + overlay), so a
    /// follower can bootstrap from zero over the wire.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] when `from` lies beyond this
    /// node's committed total (the requester is ahead — it should not
    /// be fetching from us).
    pub fn replication_chunk(&self, from: u64, max: u32) -> Result<(u64, Vec<u8>), ServiceError> {
        let overlay = self.read_overlay();
        let total = (self.base_len + overlay.len()) as u64;
        if from > total {
            return Err(ServiceError::InvalidRequest(format!(
                "replication fetch from {from} but committed total is {total}"
            )));
        }
        let end = total.min(from.saturating_add(max as u64));
        let mut frames = Vec::new();
        for id in from..end {
            let vector = self.vector_of(&overlay, id as usize)?;
            frames.extend_from_slice(&encode_record_frame(&WalRecord::Ingest { id, vector }));
        }
        Ok((total, frames))
    }

    /// Applies a replication chunk shipped by a leader at `term`,
    /// fenced first: a ship from a term below the node's is **stale**
    /// and fails with [`ServiceError::StaleTerm`], nothing applied. An
    /// accepted ship adopts its term (durably, when advancing) and
    /// refreshes the leader lease by `lease_ms`; empty `frames` is a
    /// pure fence probe / lease renewal. The frames then go through the
    /// idempotent loop store recovery uses: records with ids below the
    /// local committed total are skipped (duplicate delivery is safe),
    /// the record at exactly the total is ingested durably, and a
    /// record beyond it is a gap that fails the chunk without applying
    /// anything past it. Fence and chunk are one hold of the writer, so
    /// no vote is granted between them and two deliveries of the same
    /// record cannot both pass the check.
    ///
    /// Returns `(committed_total_after, newly_applied)` when accepted.
    /// Failpoint `repl.apply.stale_term` (any armed action) forces the
    /// stale verdict, for fencing-path tests.
    ///
    /// # Errors
    ///
    /// [`ServiceError::StaleTerm`] for a ship below the node's term;
    /// [`ServiceError::InvalidRequest`] for `term == 0` (a shipper wins
    /// a term before its first ship; nothing is changed), for gaps or
    /// non-ingest records; [`ServiceError::Storage`] for torn or corrupt
    /// chunks, WAL-append failures, or a failed term write.
    pub fn apply_fenced(
        &self,
        term: u64,
        lease_ms: u64,
        frames: &[u8],
    ) -> Result<(u64, u64), ServiceError> {
        let mut writer = self.lock_writer();
        // Fence before touching the WAL: a ship from a deposed leader
        // must not append a single record.
        writer.fence(term, lease_ms)?;
        let mut applied = 0u64;
        for record in decode_record_frames(frames)? {
            let WalRecord::Ingest { id, vector } = record else {
                return Err(ServiceError::InvalidRequest(
                    "replication chunk carried a non-ingest record".into(),
                ));
            };
            // Stable until we append: only the writer's holder does.
            let total = self.total_vectors() as u64;
            if id < total {
                continue; // Idempotent re-delivery.
            }
            if id > total {
                return Err(ServiceError::InvalidRequest(format!(
                    "replication gap: record id {id} but local total is {total}"
                )));
            }
            self.check_ingestable(&vector)?;
            self.append(&mut writer, vector)?;
            applied += 1;
        }
        Ok((self.total_vectors() as u64, applied))
    }

    /// This node's replication position: `(committed_total, durable)`.
    /// `durable` equals the total when a store backs the service and 0
    /// when it runs memory-only (such a node can serve reads but will
    /// lose everything on restart).
    pub fn replication_status(&self) -> (u64, u64) {
        let total = self.total_vectors() as u64;
        let durable = if self.durable { total } else { 0 };
        (total, durable)
    }

    /// This node's consensus position: `(term, leased)`. `term` is the
    /// highest term it has acknowledged via a vote or a fenced apply
    /// (persisted when durable); `leased` is whether a leader at that
    /// term currently holds an unexpired lease here.
    pub fn consensus_status(&self) -> (u64, bool) {
        self.lock_writer().consensus_status()
    }

    /// Considers a vote request from a candidate leader at `term`.
    /// Granted iff `term` is strictly above every term this node has
    /// acknowledged AND neither lease is outstanding: an unexpired
    /// **vote-lease** means another candidate just collected this
    /// node's vote (stops two routers contending over the same node
    /// from both collecting it), and an unexpired **leader lease**
    /// means a live leader renewed its hold recently (a healthy,
    /// actively-shipping leader cannot be deposed; a dead one is
    /// deposable one lease window after its last renewal). A granted
    /// vote durably advances the node's term, so the fence survives a
    /// crash.
    ///
    /// Returns `(granted, current_term)` where `current_term` is the
    /// node's term after considering the request.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Storage`] when persisting the advanced term
    /// fails (the vote is not granted in that case).
    pub fn handle_vote(&self, term: u64, lease_ms: u64) -> Result<(bool, u64), ServiceError> {
        self.lock_writer().vote(term, lease_ms)
    }

    /// A point-in-time snapshot of every service metric, with storage
    /// gauges sampled live.
    pub fn stats(&self) -> MetricsSnapshot {
        let storage = self.lock_writer().storage_gauges();
        self.metrics.snapshot(
            self.registry.len() as u64,
            storage,
            self.executor.shard_latency(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::QuantGauges;
    use qcluster_core::{QclusterConfig, QclusterEngine};
    use qcluster_index::{EuclideanQuery, QuantizedScan};

    fn two_blob_corpus(n_per: usize) -> Vec<Vec<f64>> {
        // Two well-separated blobs; ids < n_per are blob A.
        (0..n_per)
            .map(|i| {
                let a = i as f64 * 0.7;
                vec![a.cos() * 0.5, a.sin() * 0.5]
            })
            .chain((0..n_per).map(|i| {
                let a = i as f64 * 0.9;
                vec![10.0 + a.cos() * 0.5, 10.0 + a.sin() * 0.5]
            }))
            .collect()
    }

    fn small_service() -> Service {
        Service::new(
            &two_blob_corpus(24),
            ServiceConfig {
                num_shards: 3,
                num_workers: 2,
                ..ServiceConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn the_default_shard_kind_is_defined_once_and_is_quantized() {
        assert_eq!(ServiceConfig::default().shard_kind, ShardKind::default());
        assert_eq!(ServiceConfig::default().shard_kind, ShardKind::Quantized);
    }

    #[test]
    fn full_session_lifecycle_end_to_end() {
        let svc = small_service();
        let id = svc.create_session().unwrap();

        // Round 0: example-image query near blob A.
        let initial = svc.query_vector(id, vec![0.4, 0.1], 8).unwrap();
        assert_eq!(initial.neighbors.len(), 8);
        assert!(initial.neighbors.iter().all(|n| n.id < 24), "blob A only");

        // Mark some blob-A images relevant, then re-query refined.
        let marked: Vec<usize> = initial.neighbors.iter().take(5).map(|n| n.id).collect();
        let fed = svc.feed_ids(id, &marked, None).unwrap();
        assert_eq!(fed.iteration, 1);
        assert!(fed.clusters.unwrap() >= 1);

        let refined = svc.query(id, 8).unwrap();
        assert_eq!(refined.neighbors.len(), 8);
        assert!(refined.neighbors.iter().all(|n| n.id < 24));
        assert_eq!(refined.stats.quant.plan_misses, 0, "the u8 path served it");

        svc.close_session(id).unwrap();
        assert!(svc.query(id, 3).is_err());

        let stats = svc.stats();
        assert_eq!(stats.sessions_created, 1);
        assert_eq!(stats.sessions_closed, 1);
        assert_eq!(stats.active_sessions, 0);
        assert_eq!(stats.query_percentiles.count, 2);
        assert_eq!(stats.feed.count, 1);
    }

    #[test]
    fn quantized_service_matches_exact_and_reports_gauges() {
        let points = two_blob_corpus(40);
        let config = ServiceConfig {
            num_shards: 3,
            num_workers: 2,
            ..ServiceConfig::default()
        };
        let quant = Service::new(&points, config.clone()).unwrap();
        let exact = LinearScan::new(&points);
        let q = quant.create_session().unwrap();

        // Initial vector query and a refined disjunctive round must both be
        // bit-for-bit identical to an exact scan.
        let example = EuclideanQuery::new(vec![0.4, 0.1]);
        let vq = quant.query_vector(q, example.center().to_vec(), 9).unwrap();
        assert_eq!(vq.neighbors, exact.knn(&example, 9));

        let marked: Vec<usize> = vq.neighbors.iter().take(5).map(|n| n.id).collect();
        quant.feed_ids(q, &marked, None).unwrap();
        let mut engine = QclusterEngine::new(QclusterConfig::default());
        let fed: Vec<FeedbackPoint> = marked
            .iter()
            .map(|&id| FeedbackPoint::new(id, points[id].clone(), DEFAULT_SCORE))
            .collect();
        engine.feed(&fed).unwrap();
        let rq = quant.query(q, 9).unwrap();
        assert_eq!(rq.neighbors, exact.knn(&engine.query().unwrap(), 9));

        let stats = quant.stats();
        assert!(stats.quant.phase1_points > 0, "phase 1 should have run");
        assert!(stats.quant.reranked > 0, "phase 2 should have reranked");
        assert_eq!(stats.quant.plan_misses, 0, "diagonal queries plan cleanly");
    }

    /// A one-shard node's quant gauges after one query are the counters
    /// of one `two_phase_knn` over the same points, on a corpus whose
    /// window certifies and on a ring around the query, where every
    /// point ties and phase 1 must stream again.
    #[test]
    fn quant_gauges_equal_the_scans_own_counters() {
        let ring: Vec<Vec<f64>> = (0..300)
            .map(|i| {
                let a = i as f64 * std::f64::consts::TAU / 300.0;
                vec![0.4 + a.cos(), 0.1 + a.sin()]
            })
            .collect();
        for (points, second_round) in [(two_blob_corpus(40), false), (ring, true)] {
            let config = ServiceConfig {
                num_shards: 1,
                num_workers: 1,
                ..ServiceConfig::default()
            };
            let svc = Service::new(&points, config).unwrap();
            let id = svc.create_session().unwrap();
            let example = EuclideanQuery::new(vec![0.4, 0.1]);
            svc.query_vector(id, example.center().to_vec(), 9).unwrap();
            let (_, want) = QuantizedScan::from_rows(&points).two_phase_knn(&example, 9, None);
            let want = QuantGauges {
                phase1_points: want.phase1_points,
                reranked: want.reranked,
                tail_tiles: want.tail_tiles,
                second_rounds: want.second_rounds,
                fallback_rescans: want.fallback_rescans,
                plan_misses: want.plan_misses,
            };
            assert_eq!(svc.stats().quant, want);
            assert_eq!(want.second_rounds > 0, second_round, "{want:?}");
        }
    }

    #[test]
    fn error_paths_are_structured() {
        let svc = small_service();
        assert!(matches!(
            svc.query(999, 5),
            Err(ServiceError::UnknownSession(999))
        ));
        let id = svc.create_session().unwrap();
        assert!(matches!(svc.query(id, 5), Err(ServiceError::Engine(_)),));
        assert!(matches!(
            svc.feed(id, &[]),
            Err(ServiceError::EmptyFeedback)
        ));
        assert!(matches!(
            svc.query_vector(id, vec![1.0, 2.0, 3.0], 5),
            Err(ServiceError::DimensionMismatch {
                expected: 2,
                found: 3
            })
        ));
        assert!(matches!(
            svc.feed_ids(id, &[99999], None),
            Err(ServiceError::InvalidImageId { id: 99999, .. })
        ));
        assert!(matches!(
            svc.feed_ids(id, &[0, 1], Some(&[1.0])),
            Err(ServiceError::InvalidRequest(_))
        ));
        assert!(matches!(
            svc.query_vector(id, vec![0.0, 0.0], 0),
            Err(ServiceError::InvalidRequest(_))
        ));
    }

    #[test]
    fn named_engines_and_unknown_names() {
        let svc = small_service();
        let q = svc.create_session_named("qcluster").unwrap();
        let m = svc.create_session_named("qpm").unwrap();
        assert!(svc.create_session_named("falcon9").is_err());
        svc.feed_ids(q, &[0, 1, 2], None).unwrap();
        svc.feed_ids(m, &[0, 1, 2], None).unwrap();
        assert!(svc.query(q, 4).is_ok());
        assert!(svc.query(m, 4).is_ok());
    }

    #[test]
    fn graded_scores_flow_through() {
        let svc = small_service();
        let id = svc.create_session().unwrap();
        let out = svc
            .feed_ids(id, &[0, 1, 2], Some(&[3.0, 2.0, 1.0]))
            .unwrap();
        assert_eq!(out.iteration, 1);
        assert!(
            svc.feed_ids(id, &[3], Some(&[0.0])).is_err(),
            "non-positive score rejected"
        );
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("qsvc_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn durable_config() -> ServiceConfig {
        ServiceConfig {
            num_shards: 2,
            num_workers: 2,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn memory_only_service_rejects_ingest_and_flush() {
        let svc = small_service();
        assert!(!svc.is_durable());
        assert!(matches!(
            svc.ingest(vec![0.0, 0.0]),
            Err(ServiceError::Storage(_))
        ));
        assert!(matches!(svc.flush(), Err(ServiceError::Storage(_))));
    }

    #[test]
    fn ingested_vectors_are_queryable_and_feedable() {
        let dir = tmp_dir("live_ingest");
        let seed = two_blob_corpus(16);
        let svc =
            Service::open_durable(&dir, &seed, durable_config(), StoreConfig::default()).unwrap();
        assert!(svc.is_durable());
        assert_eq!(svc.total_vectors(), 32);

        // A third blob, ingested live.
        let mut ids = Vec::new();
        for i in 0..6 {
            let a = i as f64 * 0.8;
            let out = svc
                .ingest(vec![-10.0 + a.cos() * 0.3, -10.0 + a.sin() * 0.3])
                .unwrap();
            ids.push(out.id);
        }
        assert_eq!(ids, vec![32, 33, 34, 35, 36, 37]);
        assert_eq!(svc.total_vectors(), 38);

        let session = svc.create_session().unwrap();
        let near = svc.query_vector(session, vec![-10.0, -10.0], 6).unwrap();
        let got: Vec<usize> = near.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(got.len(), 6);
        assert!(got.iter().all(|&id| id >= 32), "live blob wins: {got:?}");

        // Overlay ids are feedable (their vectors come from the overlay).
        svc.feed_ids(session, &got, None).unwrap();
        let refined = svc.query(session, 6).unwrap();
        assert!(refined.neighbors.iter().all(|n| n.id >= 32));

        // Out-of-range uses the *total* corpus length.
        assert!(matches!(
            svc.feed_ids(session, &[38], None),
            Err(ServiceError::InvalidImageId {
                id: 38,
                corpus_len: 38
            })
        ));

        let stats = svc.stats();
        assert_eq!(stats.ingests, 6);
        assert_eq!(stats.storage.wal_vectors, 6);
        assert!(stats.storage.wal_appends >= 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A quantized shard holds no row-major copy of its points:
    /// `vectors_by_id` un-transposes them out of the tile column, and
    /// `feed_ids` feeds exactly those bits — base and overlay alike.
    #[test]
    fn quantized_service_resolves_ids_to_the_ingested_bits() {
        let dir = tmp_dir("quantized_ids");
        // 21 base points over 2 shards: 11 + 10, both ending mid-tile.
        let base: Vec<Vec<f64>> = two_blob_corpus(11)[..21].to_vec();
        let ingested = vec![vec![0.1 + 0.2, -1.0 / 3.0], vec![10.25, 9.75]];
        let union: Vec<Vec<f64>> = base.iter().chain(&ingested).cloned().collect();
        let svc =
            Service::open_durable(&dir, &base, durable_config(), StoreConfig::default()).unwrap();
        for v in &ingested {
            svc.ingest(v.clone()).unwrap();
        }

        let ids: Vec<usize> = (0..union.len()).rev().collect();
        let got = svc.vectors_by_id(&ids).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (&id, v) in ids.iter().zip(&got) {
            assert_eq!(bits(v), bits(&union[id]), "id {id}");
        }

        // Feeding by id is feeding those vectors: same refined answer.
        let marked = [0, 10, 11, 20, 21, 22];
        let by_id = svc.create_session().unwrap();
        svc.feed_ids(by_id, &marked, None).unwrap();
        let by_vector = svc.create_session().unwrap();
        let points: Vec<FeedbackPoint> = marked
            .iter()
            .map(|&id| FeedbackPoint::new(id, union[id].clone(), DEFAULT_SCORE))
            .collect();
        svc.feed(by_vector, &points).unwrap();
        let a = svc.query(by_id, 8).unwrap().neighbors;
        let b = svc.query(by_vector, 8).unwrap().neighbors;
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.id, x.distance.to_bits()), (y.id, y.distance.to_bits()));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A durable service over base B plus ingested I answers exactly
    /// like an in-memory service over B ∪ I — whichever side of
    /// `base_len` a vector sits on, before and after a reopen folds I
    /// into the base shards.
    #[test]
    fn overlay_answers_bit_for_bit_like_one_corpus() {
        let base = two_blob_corpus(20);
        // 12 ingested vectors: copies of base points (ties straddle
        // `base_len`, and the copy must lose to the lower base id), a
        // pair of duplicates inside the overlay, and fresh points.
        let mut ingested: Vec<Vec<f64>> = vec![
            base[3].clone(),
            base[27].clone(),
            vec![0.2, 0.1],
            vec![0.2, 0.1],
        ];
        ingested.extend((0..8).map(|i| {
            let a = i as f64 * 0.8;
            vec![10.0 + a.cos() * 0.4, 10.0 + a.sin() * 0.4]
        }));
        let union: Vec<Vec<f64>> = base.iter().chain(&ingested).cloned().collect();
        let k = 20; // more than the whole overlay
        let marked = [1, 3, 5, 40, 42, 43, 22, 27, 41, 44, 45];

        let bits = |out: &QueryOutcome| -> Vec<(usize, u64)> {
            out.neighbors
                .iter()
                .map(|n| (n.id, n.distance.to_bits()))
                .collect()
        };
        let rounds = |svc: &Service| {
            let session = svc.create_session().unwrap();
            let example = svc.query_vector(session, base[3].clone(), k).unwrap();
            let fed = svc.feed_ids(session, &marked, None).unwrap();
            assert!(fed.clusters.unwrap() >= 2, "a disjunctive query");
            let refined = svc.query(session, k).unwrap();
            (bits(&example), bits(&refined))
        };

        let config = durable_config();
        let want = rounds(&Service::new(&union, config.clone()).unwrap());
        assert_eq!(want.0[0].0, 3, "the base id wins its tie");
        assert_eq!(want.0[1].0, 40, "its overlay copy is next");

        let dir = tmp_dir("differential");
        let svc =
            Service::open_durable(&dir, &base, config.clone(), StoreConfig::default()).unwrap();
        for v in &ingested {
            svc.ingest(v.clone()).unwrap();
        }
        assert_eq!(rounds(&svc), want, "base + overlay");
        drop(svc);

        let svc = Service::open_durable(&dir, &[], config, StoreConfig::default()).unwrap();
        assert_eq!(svc.total_vectors(), union.len());
        assert_eq!(rounds(&svc), want, "after reopen");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A restart brings back the corpus and no session: every id issued
    /// before it — live, closed or LRU-evicted — is unknown, and the
    /// first new id is larger than all of them.
    #[test]
    fn restart_recovers_identical_topk_and_issues_no_old_id() {
        let dir = tmp_dir("restart");
        let config = ServiceConfig {
            max_sessions: 2,
            ..durable_config()
        };
        let open = |seed: &[Vec<f64>]| {
            Service::open_durable(&dir, seed, config.clone(), StoreConfig::default()).unwrap()
        };
        let unknown = |svc: &Service, id: u64| {
            matches!(
                svc.query_vector(id, vec![0.0, 0.0], 1),
                Err(ServiceError::UnknownSession(got)) if got == id
            )
        };
        let probe = vec![-5.0, -5.0];
        let (pre_crash, issued) = {
            let svc = open(&two_blob_corpus(12));
            for i in 0..9 {
                let a = i as f64 * 1.1;
                svc.ingest(vec![-5.0 + a.cos(), -5.0 + a.sin()]).unwrap();
            }
            svc.flush().unwrap(); // seal some, then ingest more into the WAL
            for i in 0..5 {
                let a = i as f64 * 0.6;
                svc.ingest(vec![-5.0 + a.sin() * 2.0, -5.0 + a.cos() * 2.0])
                    .unwrap();
            }
            let evicted = svc.create_session().unwrap();
            let live = svc.create_session().unwrap();
            svc.feed_ids(live, &[24, 25, 26], None).unwrap();
            let closed = svc.create_session_named("qpm").unwrap();
            assert!(unknown(&svc, evicted), "evicted at the cap");
            svc.close_session(closed).unwrap();
            let out = svc.query_vector(live, probe.clone(), 10).unwrap();
            (out.neighbors, [evicted, live, closed])
            // Drop = crash: nothing beyond the WAL survives the process.
        };

        let svc = open(&[]);
        assert_eq!(svc.total_vectors(), 38);
        assert_eq!(svc.active_sessions(), 0, "no session comes back");
        for id in issued {
            assert!(unknown(&svc, id), "{id} was issued before the restart");
        }
        let session = svc.create_session().unwrap();
        assert!(
            issued.iter().all(|&id| id < session),
            "{issued:?} vs {session}"
        );
        let out = svc.query_vector(session, probe, 10).unwrap();
        assert_eq!(out.neighbors.len(), pre_crash.len());
        for (a, b) in out.neighbors.iter().zip(pre_crash.iter()) {
            assert_eq!(a.id, b.id, "recovered top-k must match pre-crash");
            assert!((a.distance - b.distance).abs() < 1e-12);
        }
        assert_eq!(svc.stats().recoveries, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_with_torn_wal_tail_drops_only_the_torn_record() {
        let dir = tmp_dir("torn_tail");
        let seed = two_blob_corpus(10);
        let committed = {
            let svc = Service::open_durable(&dir, &seed, durable_config(), StoreConfig::default())
                .unwrap();
            for i in 0..4 {
                svc.ingest(vec![50.0 + i as f64, 50.0]).unwrap();
            }
            svc.total_vectors()
        };
        // Tear the last WAL record mid-frame.
        let wal = dir.join("wal.log");
        let len = std::fs::metadata(&wal).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        file.set_len(len - 7).unwrap();
        drop(file);

        let svc =
            Service::open_durable(&dir, &[], durable_config(), StoreConfig::default()).unwrap();
        assert_eq!(
            svc.total_vectors(),
            committed - 1,
            "only the torn record is lost"
        );
        let session = svc.create_session().unwrap();
        let out = svc.query_vector(session, vec![50.0, 50.0], 3).unwrap();
        assert!(out.neighbors.iter().all(|n| n.id >= 20 && n.id < 23));
        // The store stays writable after healing the tail.
        assert_eq!(svc.ingest(vec![50.0, 51.0]).unwrap().id, committed - 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_open_with_no_seed_and_no_state_is_invalid() {
        let dir = tmp_dir("empty_open");
        assert!(matches!(
            Service::open_durable(&dir, &[], durable_config(), StoreConfig::default()),
            Err(ServiceError::InvalidRequest(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_cache_hits_between_feeds_and_invalidates_on_feed() {
        let svc = small_service();
        let id = svc.create_session().unwrap();
        svc.feed_ids(id, &[0, 1, 2], None).unwrap();

        // First refined query compiles; repeats reuse the cached plan.
        let first = svc.query(id, 5).unwrap();
        let second = svc.query(id, 5).unwrap();
        let third = svc.query(id, 5).unwrap();
        assert_eq!(first.neighbors, second.neighbors);
        assert_eq!(first.neighbors, third.neighbors);
        let s = svc.stats();
        assert_eq!(s.plan_cache_misses, 1);
        assert_eq!(s.plan_cache_hits, 2);

        // Feedback drops the session's plan: next query recompiles.
        svc.feed_ids(id, &[3, 4], None).unwrap();
        svc.query(id, 5).unwrap();
        svc.query(id, 5).unwrap();
        let s = svc.stats();
        assert_eq!(s.plan_cache_misses, 2);
        assert_eq!(s.plan_cache_hits, 3);
    }

    #[test]
    fn qpm_sessions_hit_the_plan_cache_too() {
        let svc = small_service();
        let id = svc.create_session_named("qpm").unwrap();
        svc.feed_ids(id, &[0, 1, 2], None).unwrap();
        let first = svc.query(id, 4).unwrap();
        let second = svc.query(id, 4).unwrap();
        assert_eq!(first.neighbors, second.neighbors);
        svc.feed_ids(id, &[3], None).unwrap();
        svc.query(id, 4).unwrap();
        let s = svc.stats();
        assert_eq!(s.plan_cache_hits, 1);
        assert_eq!(s.plan_cache_misses, 2);
    }

    #[test]
    fn capacity_eviction_shows_in_metrics() {
        let svc = Service::new(
            &two_blob_corpus(8),
            ServiceConfig {
                num_shards: 2,
                num_workers: 1,
                max_sessions: 2,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let a = svc.create_session().unwrap();
        let _b = svc.create_session().unwrap();
        let _c = svc.create_session().unwrap(); // evicts `a`
        assert_eq!(svc.active_sessions(), 2);
        assert!(svc.query_vector(a, vec![0.0, 0.0], 1).is_err());
        let stats = svc.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.sessions_created, 3);
    }
}
