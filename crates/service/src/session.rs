//! Session lifecycle, hosted one way for both doors: a node's
//! [`Service`](crate::Service) and a cluster router each keep one
//! [`SessionRegistry`] and drive every session through its `create`,
//! `close`, `feed` and `query`. A session is one user's feedback loop
//! (the paper's Algorithm 1): a method of
//! [`METHODS`](qcluster_baselines::METHODS), its compiled-plan cache and
//! its feed count. At most `max_sessions` live at once; creating one
//! more evicts the least recently used.
//!
//! Locking protocol: the registry's map lock is only ever held to look
//! up, insert or remove entries — never across an engine operation.
//! Each session's own mutex serializes its feeds and compiles, so two
//! clients hammering different sessions never contend, and recency is
//! an atomic tick per entry, so eviction takes no session lock.

use crate::error::ServiceError;
use crate::metrics::ServiceMetrics;
use qcluster_baselines::{method_by_name, RetrievalMethod};
use qcluster_core::{FeedbackPoint, QclusterConfig, QclusterEngine};
use qcluster_index::{EuclideanQuery, FanoutQuery};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Result of one feed round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedOutcome {
    /// Feed rounds this session has completed.
    pub iteration: u64,
    /// Cluster count, for engines that expose one.
    pub clusters: Option<usize>,
}

/// One client's retrieval state.
struct Session {
    method: Box<dyn RetrievalMethod>,
    /// The method's last compiled query; every feed drops it.
    plan: Option<Box<dyn FanoutQuery>>,
    feeds: u64,
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
    /// An empty registry holding at most `max_sessions` sessions.
    ///
    /// # Panics
    ///
    /// Panics when `max_sessions` is zero.
    pub fn new(max_sessions: usize) -> Self {
        assert!(max_sessions > 0, "max_sessions must be positive");
        SessionRegistry {
            entries: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
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

    /// `true` when `id` is live. Does **not** refresh its recency.
    pub fn contains(&self, id: u64) -> bool {
        self.lock_entries().contains_key(&id)
    }

    /// Opens a session hosting the method `engine` names in `METHODS`,
    /// under the default configuration. At capacity the least recently
    /// used sessions go first. Counts the creation and the evictions.
    ///
    /// Returns the new id and the ids evicted to make room.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] for an unknown name.
    pub fn create(
        &self,
        engine: &str,
        metrics: &ServiceMetrics,
    ) -> Result<(u64, Vec<u64>), ServiceError> {
        let method = method_by_name(engine, QclusterConfig::default())
            .ok_or_else(|| ServiceError::InvalidRequest(format!("unknown engine '{engine}'")))?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let evicted = self.insert(id, method, 0);
        metrics.record_session_created();
        metrics.record_evictions(evicted.len() as u64);
        Ok((id, evicted))
    }

    /// Re-inserts a recovered session under its own id (clients still
    /// hold it) with a fresh method and its feed count, and moves the
    /// id allocator past it. A name this build does not know (from a
    /// newer writer) degrades to the default method. The capacity holds
    /// as in [`SessionRegistry::create`]: returns the evicted ids.
    pub fn restore(&self, id: u64, engine: &str, feeds: u64) -> Vec<u64> {
        self.next_id.fetch_max(id + 1, Ordering::Relaxed);
        let config = QclusterConfig::default();
        let method =
            method_by_name(engine, config).unwrap_or_else(|| Box::new(QclusterEngine::new(config)));
        self.insert(id, method, feeds)
    }

    fn insert(&self, id: u64, method: Box<dyn RetrievalMethod>, feeds: u64) -> Vec<u64> {
        let entry = Arc::new(Entry {
            session: Mutex::new(Session {
                method,
                plan: None,
                feeds,
            }),
            touched: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
        });
        let mut entries = self.lock_entries();
        let mut evicted = Vec::new();
        while entries.len() >= self.max_sessions {
            let victim = entries
                .iter()
                .min_by_key(|(_, e)| e.touched.load(Ordering::Relaxed))
                .map(|(&id, _)| id)
                .expect("non-empty map at capacity");
            entries.remove(&victim);
            evicted.push(victim);
        }
        entries.insert(id, entry);
        evicted
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

    /// Refreshes `id`'s recency.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when the id is not live.
    pub fn touch(&self, id: u64) -> Result<(), ServiceError> {
        self.get(id).map(drop)
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
        metrics.record_session_closed();
        Ok(())
    }

    /// Feeds one round of relevant points into the session's method,
    /// timed into `metrics.feed_latency`. The round drops the cached
    /// plan, so the next refined query recompiles.
    ///
    /// Returns the outcome and the method's name.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] or the method's rejection.
    pub fn feed(
        &self,
        id: u64,
        points: &[FeedbackPoint],
        metrics: &ServiceMetrics,
    ) -> Result<(FeedOutcome, &'static str), ServiceError> {
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
        let outcome = FeedOutcome {
            iteration: session.feeds,
            clusters: session.method.num_clusters(),
        };
        Ok((outcome, session.method.name()))
    }

    /// The query of one round: the `example` vector's Euclidean query
    /// (the example-image round), or else the session's refined query —
    /// the cached plan (a hit) or a fresh compile kept until the next
    /// feed (a miss), each counted in `metrics`. No lock is held once
    /// it returns.
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
    ) -> Result<Box<dyn FanoutQuery>, ServiceError> {
        let entry = self.get(id)?;
        if let Some(center) = example {
            return Ok(Box::new(EuclideanQuery::new(center)));
        }
        let mut session = entry.lock();
        if let Some(plan) = &session.plan {
            metrics.record_plan_cache_hit();
            return Ok(plan.clone_fanout());
        }
        let compiled = session.method.query().map_err(ServiceError::from_core)?;
        metrics.record_plan_cache_miss();
        session.plan = Some(compiled.clone_fanout());
        Ok(compiled)
    }
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
        let (id, evicted) = r.create("qcluster", &m).unwrap();
        assert!(evicted.is_empty());
        assert_eq!(r.len(), 1);
        let (fed, engine) = r.feed(id, &points(), &m).unwrap();
        assert_eq!((fed.iteration, engine), (1, "qcluster"));
        assert_eq!(r.query(id, None, &m).unwrap().dim(), 2);
        r.close(id, &m).unwrap();
        assert!(matches!(
            r.touch(id),
            Err(ServiceError::UnknownSession(got)) if got == id
        ));
        assert!(r.close(id, &m).is_err());
        assert!(r.create("falcon9", &m).is_err(), "unknown name");
        let s = m.snapshot(r.len() as u64, Default::default(), 0, 0, Default::default());
        assert_eq!((s.sessions_created, s.sessions_closed), (1, 1));
        assert_eq!((s.feed.count, s.active_sessions), (1, 0));
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let (r, m) = (SessionRegistry::new(16), ServiceMetrics::new());
        let (a, _) = r.create("qcluster", &m).unwrap();
        let (b, _) = r.create("qpm", &m).unwrap();
        let (c, _) = r.create("qcluster", &m).unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn capacity_with_lru_evicts_stalest() {
        let (r, m) = (SessionRegistry::new(2), ServiceMetrics::new());
        let (a, _) = r.create("qcluster", &m).unwrap();
        let (b, _) = r.create("qcluster", &m).unwrap();
        // Touch `a` so `b` is now the LRU.
        r.touch(a).unwrap();
        let (c, evicted) = r.create("qcluster", &m).unwrap();
        assert_eq!(evicted, vec![b]);
        assert_eq!(r.len(), 2);
        assert!(r.touch(a).is_ok(), "recently touched survives");
        assert!(r.touch(b).is_err(), "LRU evicted");
        assert!(r.touch(c).is_ok());
        let s = m.snapshot(2, Default::default(), 0, 0, Default::default());
        assert_eq!((s.evictions, s.sessions_created), (1, 3));
    }

    #[test]
    fn restore_preserves_ids_and_advances_allocator() {
        let (r, m) = (SessionRegistry::new(2), ServiceMetrics::new());
        assert!(r.restore(41, "qpm", 3).is_empty());
        let (fed, engine) = r.feed(41, &points(), &m).unwrap();
        assert_eq!((fed.iteration, engine), (4, "qpm"), "feeds keep counting");
        assert!(r.restore(43, "from-a-newer-writer", 0).is_empty());
        assert_eq!(r.feed(43, &points(), &m).unwrap().1, "qcluster");
        // The cap holds on the way back in, too.
        assert_eq!(r.restore(44, "qcluster", 0), vec![41]);
        let (next, evicted) = r.create("qcluster", &m).unwrap();
        assert!(next > 44, "allocator must clear restored ids");
        assert_eq!(evicted, vec![43]);
    }

    #[test]
    fn cached_plan_lives_until_the_engine_is_handed_out_mutably() {
        let (r, m) = (SessionRegistry::new(4), ServiceMetrics::new());
        let (id, _) = r.create("qcluster", &m).unwrap();
        let plan_counts = || {
            let s = m.snapshot(1, Default::default(), 0, 0, Default::default());
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
    fn qpm_engine_is_hostable() {
        let (r, m) = (SessionRegistry::new(1), ServiceMetrics::new());
        let (id, _) = r.create("qpm", &m).unwrap();
        assert!(r.query(id, None, &m).is_err(), "no feedback yet");
        let (fed, engine) = r.feed(id, &points(), &m).unwrap();
        assert_eq!((engine, fed.clusters), ("qpm", None));
        assert_eq!(r.query(id, None, &m).unwrap().dim(), 2);
    }
}
