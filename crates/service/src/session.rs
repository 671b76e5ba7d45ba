//! Session lifecycle, hosted one way for both doors: a node's
//! [`Service`](crate::Service) and a cluster router each keep one
//! [`SessionRegistry`] and drive every session through its `create`,
//! `close`, `feed` and `query`. A session is one user's feedback loop
//! (the paper's Algorithm 1): a method of
//! [`METHODS`](qcluster_baselines::METHODS), its compiled-plan cache,
//! its feed count, and the points it last saw with their vectors
//! ([`Seen`]): the last answer its host recorded and, on a router,
//! the last feed.
//! Algorithm 1 refines one query over one corpus, so the previous
//! answer's `k` points bound the next answer by τ₀, their `k`-th
//! distance under the new query, and both hosts bound each refined
//! round's scan by it (DESIGN.md §9). At most `max_sessions` live at
//! once; creating one more evicts the least recently used.
//!
//! A session is process state: no host persists it, so after a restart
//! every earlier id is unknown. Ids are never reissued: each registry's
//! allocator starts at the wall clock in nanoseconds since the Unix
//! epoch, and a create takes far longer than a nanosecond, so a later
//! process starts above every id an earlier one issued — unless the
//! clock steps back.
//!
//! Locking protocol: the registry's map lock is only ever held to look
//! up, insert or remove entries — never across an engine operation.
//! Each session's own mutex serializes its feeds and compiles, so two
//! clients hammering different sessions never contend, and recency is
//! an atomic tick per entry, so eviction takes no session lock.

use crate::error::ServiceError;
use crate::metrics::ServiceMetrics;
use qcluster_baselines::{method_by_name, RetrievalMethod};
use qcluster_core::{FeedbackPoint, QclusterConfig};
use qcluster_index::{EuclideanQuery, FanoutQuery, QueryDistance};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Instant, SystemTime};

/// Result of one feed round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedOutcome {
    /// Feed rounds this session has completed.
    pub iteration: u64,
    /// Cluster count, for engines that expose one.
    pub clusters: Option<usize>,
}

/// Points a session's host saw, each id with its vector: the last
/// answer or the last feed.
#[derive(Debug, Default)]
pub struct Seen {
    ids: Vec<usize>,
    /// The vectors, row-major in `ids` order.
    rows: Vec<f64>,
}

impl Seen {
    /// `ids` with their vectors, one equal-length row each, row-major
    /// in the same order.
    pub fn new(ids: Vec<usize>, rows: Vec<f64>) -> Self {
        Seen { ids, rows }
    }

    fn dim(&self) -> usize {
        self.rows.len() / self.ids.len().max(1)
    }

    /// τ₀ for a round of `query` asking for `k`: the `k`-th smallest of
    /// the query's own [`QueryDistance::distance_batch`] (the kernel a
    /// finish reranks with) over these distinct corpus points, which
    /// bounds the round's scan
    /// ([`CooperativeScan::bound`](qcluster_index::CooperativeScan::bound)).
    /// `None` for fewer than `k` points, another dimensionality, or a
    /// τ₀ that is not finite and positive.
    pub fn bound(&self, query: &dyn QueryDistance, k: usize) -> Option<f64> {
        let dim = self.dim();
        if k == 0 || self.ids.len() < k || query.dim() != dim {
            return None;
        }
        let mut dist = vec![0.0; self.ids.len()];
        query.distance_batch(&self.rows, dim, &mut dist);
        dist.select_nth_unstable_by(k - 1, f64::total_cmp);
        let tau0 = dist[k - 1];
        (tau0.is_finite() && tau0 > 0.0).then_some(tau0)
    }

    fn vector(&self, id: usize) -> Option<&[f64]> {
        let i = self.ids.iter().position(|&seen| seen == id)?;
        let dim = self.dim();
        Some(&self.rows[i * dim..(i + 1) * dim])
    }
}

/// One client's retrieval state.
struct Session {
    method: Box<dyn RetrievalMethod>,
    /// The method's last compiled query; every feed drops it.
    plan: Option<Box<dyn FanoutQuery>>,
    feeds: u64,
    /// The last answer recorded by [`SessionRegistry::remember`].
    answer: Arc<Seen>,
    /// The last feed recorded by [`SessionRegistry::remember_feed`].
    fed: Seen,
}

struct Entry {
    session: Mutex<Session>,
    /// Logical tick of the last touch: the LRU victim has the smallest.
    touched: AtomicU64,
}

impl Entry {
    fn lock(&self) -> MutexGuard<'_, Session> {
        self.session.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Concurrent session table with least-recently-used eviction.
pub struct SessionRegistry {
    entries: Mutex<HashMap<u64, Arc<Entry>>>,
    next_id: AtomicU64,
    clock: AtomicU64,
    max_sessions: usize,
}

impl SessionRegistry {
    /// An empty registry holding at most `max_sessions` sessions, whose
    /// first id is the wall clock in nanoseconds (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics when `max_sessions` is zero.
    pub fn new(max_sessions: usize) -> Self {
        assert!(max_sessions > 0, "max_sessions must be positive");
        SessionRegistry {
            entries: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(unix_nanos().max(1)),
            clock: AtomicU64::new(0),
            max_sessions,
        }
    }

    fn lock_entries(&self) -> MutexGuard<'_, HashMap<u64, Arc<Entry>>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.lock_entries().len()
    }

    /// `true` when no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Opens a session hosting the method `engine` names in `METHODS`,
    /// under the default configuration. At capacity the least recently
    /// used sessions go first. Counts the creation and the evictions.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] for an unknown name.
    pub fn create(&self, engine: &str, metrics: &ServiceMetrics) -> Result<u64, ServiceError> {
        let method = method_by_name(engine, QclusterConfig::default())
            .ok_or_else(|| ServiceError::InvalidRequest(format!("unknown engine '{engine}'")))?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(Entry {
            session: Mutex::new(Session {
                method,
                plan: None,
                feeds: 0,
                answer: Arc::default(),
                fed: Seen::default(),
            }),
            touched: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
        });
        let mut entries = self.lock_entries();
        let mut evicted = 0;
        while entries.len() >= self.max_sessions {
            let victim = entries
                .iter()
                .min_by_key(|(_, e)| e.touched.load(Ordering::Relaxed))
                .map(|(&id, _)| id)
                .expect("non-empty map at capacity");
            entries.remove(&victim);
            evicted += 1;
        }
        entries.insert(id, entry);
        metrics.count(|m| {
            m.evictions += evicted;
            m.sessions_created += 1;
        });
        Ok(id)
    }

    /// Checks out a live session, refreshing its recency. The entry
    /// outlives an eviction that races the caller's operation.
    fn get(&self, id: u64) -> Result<Arc<Entry>, ServiceError> {
        let entries = self.lock_entries();
        let entry = entries.get(&id).ok_or(ServiceError::UnknownSession(id))?;
        entry.touched.store(
            self.clock.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        Ok(Arc::clone(entry))
    }

    /// Closes a session and counts it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when the id is not live.
    pub fn close(&self, id: u64, metrics: &ServiceMetrics) -> Result<(), ServiceError> {
        self.lock_entries()
            .remove(&id)
            .ok_or(ServiceError::UnknownSession(id))?;
        metrics.count(|m| m.sessions_closed += 1);
        Ok(())
    }

    /// Feeds one round of relevant points into the session's method,
    /// timed into `metrics.feed_latency`. The round drops the cached
    /// plan, so the next refined query recompiles.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] or the method's rejection.
    pub fn feed(
        &self,
        id: u64,
        points: &[FeedbackPoint],
        metrics: &ServiceMetrics,
    ) -> Result<FeedOutcome, ServiceError> {
        let entry = self.get(id)?;
        let mut session = entry.lock();
        let start = Instant::now();
        session.feeds += 1;
        session.plan = None;
        session
            .method
            .feed(points)
            .map_err(ServiceError::from_core)?;
        metrics.feed_latency.record(start.elapsed());
        Ok(FeedOutcome {
            iteration: session.feeds,
            clusters: session.method.num_clusters(),
        })
    }

    /// The query of one round: the `example` vector's Euclidean query
    /// (the example-image round), or else the session's refined query —
    /// the cached plan (a hit) or a fresh compile kept until the next
    /// feed (a miss), each counted in `metrics` — with the last
    /// recorded answer, whose [`Seen::bound`] bounds the round (none
    /// for an example round). No lock is held once it returns.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`], or the method's error when it
    /// cannot compile (before any feedback).
    pub fn query(
        &self,
        id: u64,
        example: Option<Vec<f64>>,
        metrics: &ServiceMetrics,
    ) -> Result<(Box<dyn FanoutQuery>, Arc<Seen>), ServiceError> {
        let entry = self.get(id)?;
        if let Some(center) = example {
            return Ok((Box::new(EuclideanQuery::new(center)), Arc::default()));
        }
        let mut session = entry.lock();
        let answer = Arc::clone(&session.answer);
        if let Some(plan) = &session.plan {
            metrics.count(|m| m.plan_cache_hits += 1);
            return Ok((plan.clone_fanout(), answer));
        }
        let compiled = session.method.query().map_err(ServiceError::from_core)?;
        metrics.count(|m| m.plan_cache_misses += 1);
        session.plan = Some(compiled.clone_fanout());
        Ok((compiled, answer))
    }

    /// Records `answer` as the session's last, which the next refined
    /// [`Self::query`] returns. A session closed or evicted meanwhile
    /// is left alone, and recency is not refreshed.
    pub fn remember(&self, id: u64, answer: Seen) {
        let entry = self.lock_entries().get(&id).map(Arc::clone);
        if let Some(entry) = entry {
            entry.lock().answer = Arc::new(answer);
        }
    }

    /// Records `points` as the session's last feed, which
    /// [`Self::recall`] resolves ids from: a router's, whose feeds fetch
    /// vectors over the network (a node resolves ids from its corpus).
    /// A session closed or evicted meanwhile is left alone.
    pub fn remember_feed(&self, id: u64, points: &[FeedbackPoint]) {
        let entry = self.lock_entries().get(&id).map(Arc::clone);
        if let Some(entry) = entry {
            let ids = points.iter().map(|p| p.id).collect();
            let rows = points.iter().flat_map(|p| p.vector.iter().copied());
            entry.lock().fed = Seen::new(ids, rows.collect());
        }
    }

    /// The vectors of `ids` the session last saw — in its last recorded
    /// answer or its last feed — in order, `None` for the others.
    /// Refreshes the session's recency.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when the id is not live.
    pub fn recall(&self, id: u64, ids: &[usize]) -> Result<Vec<Option<Vec<f64>>>, ServiceError> {
        let entry = self.get(id)?;
        let session = entry.lock();
        let seen = |id| session.answer.vector(id).or_else(|| session.fed.vector(id));
        Ok(ids
            .iter()
            .map(|&id| seen(id).map(<[f64]>::to_vec))
            .collect())
    }
}

/// Nanoseconds since the Unix epoch (0 for a clock set before it).
fn unix_nanos() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |since| since.as_nanos() as u64)
}

impl std::fmt::Debug for SessionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionRegistry")
            .field("live", &self.len())
            .field("max_sessions", &self.max_sessions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> Vec<FeedbackPoint> {
        vec![
            FeedbackPoint::new(0, vec![1.0, 0.0], 2.0),
            FeedbackPoint::new(1, vec![0.0, 1.0], 2.0),
        ]
    }

    #[test]
    fn create_get_close_lifecycle() {
        let (r, m) = (SessionRegistry::new(4), ServiceMetrics::new());
        let id = r.create("qcluster", &m).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.feed(id, &points(), &m).unwrap().iteration, 1);
        assert_eq!(r.query(id, None, &m).unwrap().0.dim(), 2);
        r.close(id, &m).unwrap();
        assert!(matches!(
            r.recall(id, &[]),
            Err(ServiceError::UnknownSession(got)) if got == id
        ));
        assert!(r.close(id, &m).is_err());
        assert!(r.create("falcon9", &m).is_err(), "unknown name");
        let s = m.snapshot(r.len() as u64, Default::default(), Default::default());
        assert_eq!((s.sessions_created, s.sessions_closed), (1, 1));
        assert_eq!((s.feed.count, s.active_sessions), (1, 0));
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let (r, m) = (SessionRegistry::new(16), ServiceMetrics::new());
        let a = r.create("qcluster", &m).unwrap();
        let b = r.create("qpm", &m).unwrap();
        let c = r.create("qcluster", &m).unwrap();
        assert!(a < b && b < c);
    }

    /// A registry built later, as after a restart, starts above every
    /// id an earlier one issued.
    #[test]
    fn a_later_registry_issues_no_earlier_id() {
        let m = ServiceMetrics::new();
        let before = SessionRegistry::new(4);
        let issued: Vec<u64> = (0..100)
            .map(|_| before.create("qcluster", &m).unwrap())
            .collect();
        let after = SessionRegistry::new(4);
        let first = after.create("qcluster", &m).unwrap();
        assert!(issued.iter().all(|&id| id < first), "{issued:?} vs {first}");
    }

    #[test]
    fn capacity_with_lru_evicts_stalest() {
        let (r, m) = (SessionRegistry::new(2), ServiceMetrics::new());
        let a = r.create("qcluster", &m).unwrap();
        let b = r.create("qcluster", &m).unwrap();
        // Touch `a` so `b` is now the LRU.
        r.recall(a, &[]).unwrap();
        let c = r.create("qcluster", &m).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.recall(a, &[]).is_ok(), "recently touched survives");
        assert!(r.recall(b, &[]).is_err(), "LRU evicted");
        assert!(r.recall(c, &[]).is_ok());
        let s = m.snapshot(2, Default::default(), Default::default());
        assert_eq!((s.evictions, s.sessions_created), (1, 3));
    }

    #[test]
    fn cached_plan_lives_until_the_engine_is_handed_out_mutably() {
        let (r, m) = (SessionRegistry::new(4), ServiceMetrics::new());
        let id = r.create("qcluster", &m).unwrap();
        let plan_counts = || {
            let s = m.snapshot(1, Default::default(), Default::default());
            (s.plan_cache_hits, s.plan_cache_misses)
        };
        r.feed(id, &points(), &m).unwrap();
        r.query(id, None, &m).unwrap();
        assert_eq!(plan_counts(), (0, 1), "the first query compiles");
        r.query(id, None, &m).unwrap();
        assert_eq!(plan_counts(), (1, 1), "hit between feeds");
        r.query(id, Some(vec![0.0, 0.0]), &m).unwrap();
        assert_eq!(plan_counts(), (1, 1), "an example query compiles nothing");
        r.feed(id, &points(), &m).unwrap();
        r.query(id, None, &m).unwrap();
        assert_eq!(plan_counts(), (1, 2), "miss after feed");
    }

    #[test]
    fn a_refined_round_returns_the_last_remembered_answer() {
        let (r, m) = (SessionRegistry::new(4), ServiceMetrics::new());
        let id = r.create("qcluster", &m).unwrap();
        // Points on the x axis, at squared distance x² from the origin.
        let answer = |ids: &[usize], xs: &[f64]| {
            Seen::new(ids.to_vec(), xs.iter().flat_map(|&x| [x, 0.0]).collect())
        };
        let origin = EuclideanQuery::new(vec![0.0, 0.0]);
        let bound = |k| r.query(id, None, &m).unwrap().1.bound(&origin, k);
        r.remember(id, answer(&[4, 1], &[3.0, 1.0]));
        let (_, example) = r.query(id, Some(vec![0.0, 0.0]), &m).unwrap();
        assert_eq!(
            example.bound(&origin, 1),
            None,
            "an example round is unbounded"
        );
        r.feed(id, &points(), &m).unwrap();
        r.remember_feed(id, &points());
        assert_eq!((bound(1), bound(2), bound(3)), (Some(1.0), Some(9.0), None));
        r.remember(id, answer(&[5], &[0.0]));
        assert_eq!(
            bound(1),
            None,
            "the last answer wins; a zero bound bounds nothing"
        );
        assert_eq!(
            r.recall(id, &[5, 1, 3]).unwrap(),
            [Some(vec![0.0, 0.0]), Some(vec![0.0, 1.0]), None],
            "the last answer and the last feed resolve their ids"
        );
        r.close(id, &m).unwrap();
        r.remember(id, answer(&[9], &[1.0]));
        assert!(r.is_empty(), "a closed session is not revived");
    }

    #[test]
    fn qpm_engine_is_hostable() {
        let (r, m) = (SessionRegistry::new(1), ServiceMetrics::new());
        let id = r.create("qpm", &m).unwrap();
        assert!(r.query(id, None, &m).is_err(), "no feedback yet");
        assert_eq!(r.feed(id, &points(), &m).unwrap().clusters, None);
        assert_eq!(r.query(id, None, &m).unwrap().0.dim(), 2);
    }
}
