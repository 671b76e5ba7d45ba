//! The parallel k-NN executor: one query fanned out across all shards,
//! the per-shard results merged into the global top-k.
//!
//! A fan-out without a deadline (the default) runs its shard jobs on
//! the calling thread, helped by pool workers while a core is free,
//! if the caller finds a core free and no other fan-out waiting on the
//! pool ([`Executor::try_knn`]). Any other fan-out — one with a
//! deadline, or one arriving at a saturated node — queues its jobs on
//! the pool, first come first served, and no caller overtakes it.
//!
//! The shards answer one query as one [`CooperativeScan`]: each shard
//! job runs phase 1 against the fan-out's shared threshold and replies
//! with its candidates, and the caller reranks the merged candidates
//! once they are collected. A shard job whose query compiles no plan
//! replies with its own exact top-k. A refined round is bounded by τ₀,
//! the `k`-th distance of the session's previous answer under the new
//! query ([`CooperativeScan::bound`]): the shards start their threshold
//! there, and a fan-out that every shard answered returns the top-k
//! under τ₀. [`Executor::try_knn`] is never bounded.
//!
//! Refined queries (e.g. [`DisjunctiveQuery`](qcluster_core::DisjunctiveQuery))
//! carry interior scratch buffers, so they are `Send` but not `Sync`: the
//! executor never shares one query between workers — each shard job gets
//! its own clone via [`FanoutQuery::clone_fanout`].
//!
//! ## Fault tolerance
//!
//! [`Executor::try_knn`] is the fault-tolerant fan-out. Each shard job
//! runs under `catch_unwind`, so a panicking shard becomes a per-shard
//! failure instead of a poisoned pool. Every shard of every fan-out is
//! run: a shard is in-process work, not a remote target, so no shard is
//! skipped for having failed before. Replies are collected until every
//! shard answered or the deadline passed; whatever arrived in time is
//! merged into a *degraded* result annotated with `shards_ok /
//! shards_total` coverage, each missing shard attributed
//! ([`FanoutReport`]). Admission control bounds the total jobs in
//! flight, rejecting new fan-outs with [`ServiceError::Overloaded`]
//! instead of queueing without bound.
//!
//! ## Failpoints
//!
//! Chaos tests inject faults through `qcluster-failpoint`:
//! `executor.shard` (any shard job) and `executor.shard.<i>` (one
//! shard) support `panic:<msg>`, `error:<msg>`, and `sleep:<ms>`, and
//! fire after the shard's work — the shard has published its threshold
//! by then — and before its reply.

use crate::error::ServiceError;
use crate::metrics::{HistogramSummary, LatencyHistogram};
use crate::shard::{Shard, ShardPart, ShardedCorpus};
use crossbeam::channel::{self, Receiver, Sender};
use qcluster_failpoint as failpoint;
use qcluster_index::{merge_top_k, CooperativeScan, FanoutQuery, Neighbor, NodeCache, SearchStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A unit of work for the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Fault-tolerance tunables for the executor pool.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Worker threads (at least one).
    pub num_workers: usize,
    /// Admission cap: shard jobs queued or running at once. A fan-out
    /// that would exceed it is rejected with
    /// [`ServiceError::Overloaded`] before submitting anything.
    pub max_queued_jobs: usize,
    /// Read by nothing; stays only because `benchmark/` names it
    /// (ROADMAP 1(b)).
    pub breaker_threshold: u32,
    /// Read by nothing; stays only because `benchmark/` names it
    /// (ROADMAP 1(b)).
    pub breaker_cooldown: Duration,
}

/// The default worker count of [`ExecutorConfig`] and
/// [`ServiceConfig`](crate::ServiceConfig): one per core the machine
/// offers, 1 when it cannot tell.
pub(crate) fn default_num_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            num_workers: default_num_workers(),
            max_queued_jobs: 4096,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
        }
    }
}

/// Why one shard contributed nothing to a fan-out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardFailureKind {
    /// The shard job panicked; the payload message is preserved.
    Panic(String),
    /// The shard job failed without unwinding (injected fault).
    Failed(String),
    /// The shard had not responded when the deadline elapsed.
    Timeout,
}

/// One shard's failure in a fan-out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// Shard index within the corpus.
    pub shard: usize,
    /// What went wrong.
    pub kind: ShardFailureKind,
}

/// The outcome of one fault-tolerant fan-out: the merged top-k over
/// every shard that responded, plus coverage and per-shard failures.
#[derive(Debug, Clone)]
pub struct FanoutReport {
    /// Merged global top-k over the shards in `shards_ok`.
    pub neighbors: Vec<Neighbor>,
    /// Search statistics summed over the responding shards and the
    /// finish of their quantized scan.
    pub stats: SearchStats,
    /// Shards whose results made it into `neighbors`.
    pub shards_ok: usize,
    /// Shards the query addressed (`shards_ok < shards_total` ⇒ the
    /// response is degraded).
    pub shards_total: usize,
    /// Failures for the `shards_total - shards_ok` missing shards.
    pub failures: Vec<ShardFailure>,
}

impl FanoutReport {
    /// `true` when at least one shard is missing from the merge.
    pub fn degraded(&self) -> bool {
        self.shards_ok < self.shards_total
    }
}

/// One unit of a shared count (a queued job, a claiming caller, a
/// pooled fan-out), given back on drop — on the success path, the
/// failure path, and the unwind path alike.
struct Held(Arc<AtomicUsize>);

impl Held {
    /// Adds one to `count`; returns the hold and the new count.
    fn enter(count: &Arc<AtomicUsize>) -> (Self, usize) {
        let now = count.fetch_add(1, Ordering::AcqRel) + 1;
        (Held(Arc::clone(count)), now)
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A persistent pool of worker threads consuming shard jobs from a
/// shared channel, with panic isolation, bounded admission, and
/// deadline-aware collection. A worker never dies with a job in hand:
/// each shard job runs under `catch_unwind`. Dropping the executor
/// closes the channel; workers drain outstanding jobs and exit.
#[derive(Debug)]
pub struct Executor {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    config: ExecutorConfig,
    /// Shard jobs queued or running (admission control).
    queued: Arc<AtomicUsize>,
    /// Callers running their own fan-out's shard jobs right now; each
    /// holds a core.
    callers: Arc<AtomicUsize>,
    /// Fan-outs whose jobs are queued on the pool, until collected.
    pooled: Arc<AtomicUsize>,
    /// Per-shard k-NN execution latency, recorded at the job site
    /// (excludes queueing); sampled into metrics snapshots.
    shard_latency: Arc<LatencyHistogram>,
}

fn spawn_worker(id: usize, rx: Receiver<Job>) -> Result<JoinHandle<()>, ServiceError> {
    std::thread::Builder::new()
        .name(format!("qcluster-knn-{id}"))
        .spawn(move || {
            while let Ok(job) = rx.recv() {
                job();
            }
        })
        .map_err(|e| ServiceError::Spawn(format!("k-NN worker {id}: {e}")))
}

impl Executor {
    /// Spawns a pool of `config.num_workers` threads (at least one).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Spawn`] when the OS refuses a thread; any workers
    /// already spawned are shut down cleanly.
    pub fn with_config(config: ExecutorConfig) -> Result<Self, ServiceError> {
        let (tx, rx) = channel::unbounded::<Job>();
        let num_workers = config.num_workers.max(1);
        let mut workers = Vec::with_capacity(num_workers);
        for i in 0..num_workers {
            match spawn_worker(i, rx.clone()) {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Shut down the partial pool before reporting.
                    drop(tx);
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(Executor {
            tx: Some(tx),
            workers,
            callers: Arc::default(),
            pooled: Arc::default(),
            config,
            queued: Arc::new(AtomicUsize::new(0)),
            shard_latency: Arc::new(LatencyHistogram::new()),
        })
    }

    /// Quantile summary of per-shard k-NN execution latency across all
    /// fan-outs this executor has run.
    pub fn shard_latency(&self) -> HistogramSummary {
        self.shard_latency.summary()
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    fn submit(&self, job: Job) -> Result<(), ServiceError> {
        let tx = self
            .tx
            .as_ref()
            .ok_or_else(|| ServiceError::Internal("executor already shut down".into()))?;
        tx.send(job)
            .map_err(|_| ServiceError::Internal("executor job channel disconnected".into()))
    }

    /// Whether a fan-out without a deadline runs its own jobs: only
    /// while a core is free and no fan-out waits on the pool, which it
    /// would overtake. The returned hold counts the caller in
    /// `callers` until dropped.
    fn claim(&self) -> Option<Held> {
        if self.pooled.load(Ordering::Acquire) > 0 {
            return None;
        }
        let (held, callers) = Held::enter(&self.callers);
        (callers <= self.config.num_workers.max(1)).then_some(held)
    }

    /// Runs a fan-out's jobs on the calling thread, in order, offering
    /// them to at most `min(jobs − 1, num_workers − callers)` pool
    /// workers, each of which claims jobs until none is left. A busy
    /// node so answers each query on the thread that asked, with no
    /// hand-off; an idle one still uses every core.
    fn run_claimed(&self, jobs: Vec<Job>) {
        let callers = self.callers.load(Ordering::Acquire);
        let free = self.config.num_workers.max(1).saturating_sub(callers);
        let helpers = free.min(jobs.len().saturating_sub(1));
        let jobs = Arc::new(Mutex::new(jobs.into_iter()));
        for _ in 0..helpers {
            let jobs = Arc::clone(&jobs);
            if self.submit(Box::new(move || drain(&jobs))).is_err() {
                break;
            }
        }
        drain(&jobs);
    }

    /// The fault-tolerant fan-out: runs `query` against every shard of
    /// `corpus` (on this thread and free workers when `deadline` is
    /// `None` and the node has a core to spare, on the pool otherwise),
    /// collecting per-shard results until `deadline` (forever when
    /// `None`), and merges whatever arrived — the quantized shards'
    /// phase-1 candidates through one finish of their shared
    /// [`CooperativeScan`], exact over exactly those that replied. See
    /// [`FanoutReport`] for coverage semantics; shards lost to panics,
    /// failures or the deadline appear in [`FanoutReport::failures`].
    ///
    /// `caches` is only length-checked; it stays because `benchmark/` passes it (ROADMAP 1(b)).
    ///
    /// # Errors
    ///
    /// - [`ServiceError::InvalidRequest`] for `k == 0` or a bad cache
    ///   slice length.
    /// - [`ServiceError::DimensionMismatch`] when the query and corpus
    ///   disagree.
    /// - [`ServiceError::Overloaded`] when admission control rejects
    ///   the fan-out (nothing was submitted).
    /// - [`ServiceError::DeadlineExceeded`] when the deadline elapsed
    ///   with *zero* shards responding (no partial result to return).
    /// - [`ServiceError::Internal`] when every shard failed for
    ///   non-deadline reasons.
    pub fn try_knn(
        &self,
        corpus: &ShardedCorpus,
        query: &dyn FanoutQuery,
        k: usize,
        caches: Option<&[Arc<Mutex<NodeCache>>]>,
        deadline: Option<Instant>,
    ) -> Result<FanoutReport, ServiceError> {
        if let Some(caches) = caches {
            if caches.len() != corpus.num_shards() {
                return Err(ServiceError::InvalidRequest(format!(
                    "{} session caches for {} shards",
                    caches.len(),
                    corpus.num_shards()
                )));
            }
        }
        self.fanout(corpus, query, k, deadline, None)
    }

    /// The fan-out body of [`Self::try_knn`], bounded by τ₀ = `bound`
    /// when given ([`CooperativeScan::bound`]: the `k`-th exact distance
    /// of `k` points of `corpus`, or of a corpus it is a partition of).
    /// Bounded, a fan-out that every shard answered returns the top-k
    /// under τ₀, which may be fewer than `k`; one that lost a shard
    /// returns the exact top-k over the others.
    pub(crate) fn fanout(
        &self,
        corpus: &ShardedCorpus,
        query: &dyn FanoutQuery,
        k: usize,
        deadline: Option<Instant>,
        bound: Option<f64>,
    ) -> Result<FanoutReport, ServiceError> {
        if k == 0 {
            return Err(ServiceError::InvalidRequest("k must be positive".into()));
        }
        if query.dim() != corpus.dim() {
            return Err(ServiceError::DimensionMismatch {
                expected: corpus.dim(),
                found: query.dim(),
            });
        }
        let num_shards = corpus.num_shards();
        let started = Instant::now();
        let mut scan = CooperativeScan::new(k, None, corpus.len());
        if let Some(tau0) = bound {
            scan.bound(tau0);
        }
        let scan = Arc::new(scan);

        // Admission control: reserve a queue slot for every shard or
        // reject the fan-out outright.
        let prev = self.queued.fetch_add(num_shards, Ordering::AcqRel);
        if prev + num_shards > self.config.max_queued_jobs {
            self.queued.fetch_sub(num_shards, Ordering::AcqRel);
            return Err(ServiceError::Overloaded {
                queued: prev,
                capacity: self.config.max_queued_jobs,
            });
        }

        // Run here (see `claim`), or queued on the pool and counted in
        // `pooled` until collected.
        let claimer = deadline.is_none().then(|| self.claim()).flatten();
        let pooled = claimer.is_none().then(|| Held::enter(&self.pooled).0);
        // One slot per shard: its reply, or why it has none.
        let mut slots: Vec<Option<ShardOutcome>> = (0..num_shards).map(|_| None).collect();
        let (tx, rx) = channel::unbounded::<(usize, ShardOutcome)>();
        let mut claimed = Vec::new();
        for (i, shard) in corpus.shards().iter().enumerate() {
            let shard = Arc::clone(shard);
            let shard_query = query.clone_fanout();
            let scan = Arc::clone(&scan);
            // The job owns its reservation from here, also when the
            // submit below fails and drops it unrun.
            let slot = Held(Arc::clone(&self.queued));
            let shard_latency = Arc::clone(&self.shard_latency);
            let tx = tx.clone();
            let job: Job = Box::new(move || {
                let job_start = Instant::now();
                let outcome = run_shard_job(i, &shard, &scan, &*shard_query, k);
                if outcome.is_ok() {
                    shard_latency.record(job_start.elapsed());
                }
                // Released before the reply: a fan-out that returned
                // holds no slot.
                drop(slot);
                // A collector past its deadline is gone; the reply is dropped.
                let _ = tx.send((i, outcome));
            });
            if claimer.is_some() {
                claimed.push(job);
            } else if let Err(e) = self.submit(job) {
                slots[i] = Some(Err(ShardFailureKind::Failed(e.to_string())));
            }
        }
        drop(tx);
        self.run_claimed(claimed);
        // A job holds its sender until it has replied, so the channel
        // disconnects once every job replied.
        let next = || match deadline {
            None => rx.recv().ok(),
            Some(d) => rx
                .recv_timeout(d.saturating_duration_since(Instant::now()))
                .ok(),
        };
        while let Some((i, outcome)) = next() {
            slots[i] = Some(outcome);
        }
        drop((claimer, pooled));
        let timed_out = deadline.is_some_and(|d| Instant::now() >= d);

        let mut lists: Vec<Vec<Neighbor>> = Vec::with_capacity(num_shards);
        let mut parts = Vec::new();
        let mut stats = SearchStats::default();
        let mut failures: Vec<ShardFailure> = Vec::new();
        for (shard, slot) in slots.into_iter().enumerate() {
            let kind = match slot {
                Some(Ok((part, shard_stats))) => {
                    stats.absorb(&shard_stats);
                    match part {
                        ShardPart::TopK(neighbors) => lists.push(neighbors),
                        ShardPart::Phase1(part) => parts.push((shard, part)),
                    }
                    continue;
                }
                Some(Err(kind)) => kind,
                None if timed_out => ShardFailureKind::Timeout,
                // A job replies also when its shard panics, so no reply
                // is lost; were one lost, the shard failed.
                None => ShardFailureKind::Failed("reply lost".into()),
            };
            failures.push(ShardFailure { shard, kind });
        }
        let shards_ok = num_shards - failures.len();

        if shards_ok == 0 {
            let waited_ms = started.elapsed().as_millis() as u64;
            return if timed_out {
                Err(ServiceError::DeadlineExceeded {
                    waited_ms,
                    shards_total: num_shards,
                })
            } else {
                Err(ServiceError::Internal(format!(
                    "all {num_shards} shards failed: {failures:?}"
                )))
            };
        }

        if !parts.is_empty() {
            let (neighbors, finish_stats) = corpus.finish(&scan, query, parts);
            stats.absorb(&finish_stats);
            lists.push(neighbors);
        }
        Ok(FanoutReport {
            neighbors: merge_top_k(lists, k),
            stats,
            shards_ok,
            shards_total: num_shards,
            failures,
        })
    }
}

/// What one shard job replies: its part of the fan-out, or why it has none.
type ShardOutcome = Result<(ShardPart, SearchStats), ShardFailureKind>;

/// Runs a fan-out's jobs, one claim at a time, until none is left.
fn drain(jobs: &Mutex<std::vec::IntoIter<Job>>) {
    let next = || jobs.lock().unwrap_or_else(|e| e.into_inner()).next();
    while let Some(job) = next() {
        job();
    }
}

/// The body of one shard job: the shard's part of the fan-out, then
/// failpoint evaluation, under `catch_unwind` so a panic becomes a
/// per-shard failure.
fn run_shard_job(
    shard_index: usize,
    shard: &Shard,
    scan: &CooperativeScan,
    query: &dyn FanoutQuery,
    k: usize,
) -> ShardOutcome {
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> ShardOutcome {
        let done = shard.fanout_part(scan, query, k);
        // Failpoints: the shard-specific name wins over the generic
        // one; formatting only happens while any failpoint is armed.
        if failpoint::active() {
            let action = failpoint::evaluate_sleepy(&format!("executor.shard.{shard_index}"))
                .or_else(|| failpoint::evaluate_sleepy("executor.shard"));
            match action {
                Some(failpoint::Action::Panic(msg)) => {
                    panic!("injected panic in shard {shard_index}: {msg}")
                }
                Some(failpoint::Action::Error(msg)) => {
                    return Err(ShardFailureKind::Failed(format!(
                        "injected failure in shard {shard_index}: {msg}"
                    )))
                }
                Some(failpoint::Action::Partial(n)) => {
                    return Err(ShardFailureKind::Failed(format!(
                        "injected partial({n}) in shard {shard_index}"
                    )))
                }
                Some(failpoint::Action::Sleep(_)) | None => {}
            }
        }
        Ok(done)
    }));
    match unwound {
        Ok(result) => result,
        Err(payload) => Err(ShardFailureKind::Panic(panic_message(payload.as_ref()))),
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Close the job channel so workers exit, then join them.
        self.tx = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcluster_index::{EuclideanQuery, LinearScan};

    fn pool(num_workers: usize) -> Executor {
        Executor::with_config(ExecutorConfig {
            num_workers,
            ..ExecutorConfig::default()
        })
        .unwrap()
    }

    fn spiral(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let t = i as f64 * 0.1;
                vec![t * t.cos(), t * t.sin(), (i % 7) as f64]
            })
            .collect()
    }

    #[test]
    fn parallel_knn_is_exact() {
        let pts = spiral(500);
        let expect = LinearScan::new(&pts).knn(&EuclideanQuery::new(vec![1.0, -2.0, 3.0]), 25);
        let executor = pool(3);
        for shards in [1, 2, 4, 7] {
            let corpus = ShardedCorpus::build(&pts, shards).unwrap();
            let q = EuclideanQuery::new(vec![1.0, -2.0, 3.0]);
            let report = executor.try_knn(&corpus, &q, 25, None, None).unwrap();
            assert_eq!(report.neighbors, expect, "{shards} shards");
            assert_eq!(report.stats.quant.phase1_points, pts.len() as u64);
        }
    }

    #[test]
    fn executor_outlives_many_rounds_and_drops_cleanly() {
        let pts = spiral(120);
        let corpus = ShardedCorpus::build(&pts, 3).unwrap();
        let executor = pool(4);
        assert_eq!(executor.num_workers(), 4);
        for round in 0..50 {
            let q = EuclideanQuery::new(vec![round as f64 * 0.05, 0.0, 1.0]);
            let report = executor.try_knn(&corpus, &q, 5, None, None).unwrap();
            assert_eq!(report.neighbors.len(), 5);
        }
        drop(executor); // must join workers without hanging
    }

    #[test]
    fn try_knn_reports_full_coverage_on_healthy_pool() {
        let pts = spiral(200);
        let corpus = ShardedCorpus::build(&pts, 4).unwrap();
        let executor = pool(2);
        let q = EuclideanQuery::new(vec![0.5, 0.5, 1.0]);
        let report = executor.try_knn(&corpus, &q, 10, None, None).unwrap();
        assert_eq!(report.shards_ok, 4);
        assert_eq!(report.shards_total, 4);
        assert!(!report.degraded());
        assert!(report.failures.is_empty());
        assert_eq!(report.neighbors.len(), 10);
    }

    #[test]
    fn try_knn_rejects_invalid_requests_with_typed_errors() {
        let corpus = ShardedCorpus::build(&spiral(20), 2).unwrap();
        let executor = pool(1);
        let q = EuclideanQuery::new(vec![0.0, 0.0, 0.0]);
        assert!(matches!(
            executor.try_knn(&corpus, &q, 0, None, None),
            Err(ServiceError::InvalidRequest(_))
        ));
        let bad = EuclideanQuery::new(vec![0.0]);
        assert!(matches!(
            executor.try_knn(&corpus, &bad, 3, None, None),
            Err(ServiceError::DimensionMismatch {
                expected: 3,
                found: 1
            })
        ));
        let short_caches = vec![Arc::new(Mutex::new(NodeCache::new(4)))];
        assert!(matches!(
            executor.try_knn(&corpus, &q, 3, Some(&short_caches), None),
            Err(ServiceError::InvalidRequest(_))
        ));
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let pts = spiral(300);
        let corpus = ShardedCorpus::build(&pts, 3).unwrap();
        let executor = pool(2);
        let q = EuclideanQuery::new(vec![1.0, 0.0, 2.0]);
        let plain = executor
            .try_knn(&corpus, &q, 15, None, None)
            .unwrap()
            .neighbors;
        let deadline = Instant::now() + Duration::from_secs(60);
        let report = executor
            .try_knn(&corpus, &q, 15, None, Some(deadline))
            .unwrap();
        assert!(!report.degraded());
        assert_eq!(report.neighbors.len(), plain.len());
        for (a, b) in report.neighbors.iter().zip(plain.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
    }

    /// Occupies every worker until the returned sender is dropped.
    fn block_workers(executor: &Executor) -> Sender<()> {
        let started = Arc::new(std::sync::Barrier::new(executor.num_workers() + 1));
        let (release, wait) = channel::unbounded::<()>();
        for _ in 0..executor.num_workers() {
            let (started, wait) = (Arc::clone(&started), wait.clone());
            let job = move || {
                started.wait();
                let _ = wait.recv();
            };
            executor.submit(Box::new(job)).unwrap();
        }
        started.wait();
        release
    }

    /// Runs one fan-out over a 400-point spiral on a thread of its own,
    /// checks it against `LinearScan`, and sends its `shards_ok`.
    fn spawn_fanout(executor: &Arc<Executor>, deadline: Option<Duration>, tx: &Sender<usize>) {
        let (executor, tx) = (Arc::clone(executor), tx.clone());
        std::thread::spawn(move || {
            let pts = spiral(400);
            let q = EuclideanQuery::new(vec![1.0, -2.0, 3.0]);
            let corpus = ShardedCorpus::build(&pts, 4).unwrap();
            let deadline = deadline.map(|d| Instant::now() + d);
            let report = executor.try_knn(&corpus, &q, 12, None, deadline).unwrap();
            assert_eq!(report.neighbors, LinearScan::new(&pts).knn(&q, 12));
            let _ = tx.send(report.shards_ok);
        });
    }

    #[test]
    fn a_fanout_without_deadline_completes_while_every_worker_is_blocked() {
        let executor = Arc::new(pool(2));
        let _release = block_workers(&executor);
        let (tx, rx) = channel::unbounded();
        spawn_fanout(&executor, None, &tx);
        let shards_ok = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(
            shards_ok,
            Ok(4),
            "the caller runs the jobs when no worker can"
        );
    }

    #[test]
    fn a_fanout_with_a_deadline_leaves_its_jobs_to_the_workers() {
        let executor = pool(2);
        let _release = block_workers(&executor);
        let corpus = ShardedCorpus::build(&spiral(400), 4).unwrap();
        let q = EuclideanQuery::new(vec![1.0, -2.0, 3.0]);
        let deadline = Instant::now() + Duration::from_millis(100);
        let err = executor.try_knn(&corpus, &q, 12, None, Some(deadline));
        let late = Instant::now().duration_since(deadline);
        let timed_out = matches!(err, Err(ServiceError::DeadlineExceeded { .. }));
        assert!(timed_out, "the caller ran nothing: {err:?}");
        assert!(late < Duration::from_secs(5), "{late:?} late");
    }

    #[test]
    fn a_fanout_does_not_overtake_one_queued_on_the_pool() {
        let executor = Arc::new(pool(2));
        let release = block_workers(&executor);
        let (tx, rx) = channel::unbounded();
        spawn_fanout(&executor, Some(Duration::from_secs(30)), &tx);
        while executor.pooled.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        spawn_fanout(&executor, None, &tx);
        let early = rx.recv_timeout(Duration::from_millis(200));
        assert!(early.is_err(), "a fan-out overtook one queued on the pool");
        drop(release);
        for _ in 0..2 {
            assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(4));
        }
    }

    /// A fan-out that admission control rejects is refused whole, as
    /// `Overloaded`, and gives back every slot it reserved.
    #[test]
    fn an_overloaded_fanout_is_refused_whole_and_gives_back_its_slots() {
        let corpus = ShardedCorpus::build(&spiral(60), 2).unwrap();
        let executor = Executor::with_config(ExecutorConfig {
            num_workers: 2,
            max_queued_jobs: 8,
            ..ExecutorConfig::default()
        })
        .unwrap();
        let q = EuclideanQuery::new(vec![0.5, 0.5, 1.0]);

        // One fan-out arrives while the queue is full.
        executor.queued.fetch_add(8, Ordering::AcqRel);
        assert!(matches!(
            executor.try_knn(&corpus, &q, 5, None, None),
            Err(ServiceError::Overloaded { .. })
        ));
        assert_eq!(executor.queued.load(Ordering::Acquire), 8);
        executor.queued.fetch_sub(8, Ordering::AcqRel);

        let report = executor.try_knn(&corpus, &q, 5, None, None).unwrap();
        assert_eq!(report.shards_ok, 2, "{:?}", report.failures);
        assert_eq!(executor.queued.load(Ordering::Acquire), 0);
    }
}
