//! Session lifecycle, hosted one way for both doors: a node's
//! [`Service`](crate::Service) and a cluster router each keep one
//! [`SessionRegistry`] and drive every session through its `create`,
//! `close`, `feed` and `query`. A session is one user's feedback loop
//! (the paper's Algorithm 1): a method of
//! [`METHODS`](qcluster_baselines::METHODS), its compiled-plan cache,
//! its feed count and the ids of the last answer its host recorded.
//! A node records every answer, so each refined round can seed its scan
//! from the previous one's neighbours; a router records none (DESIGN.md
//! §9). At most `max_sessions` live at once; creating one
//! more evicts the least recently used.
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
use qcluster_index::{EuclideanQuery, FanoutQuery, Neighbor};
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

/// One client's retrieval state.
struct Session {
    method: Box<dyn RetrievalMethod>,
    /// The method's last compiled query; every feed drops it.
    plan: Option<Box<dyn FanoutQuery>>,
    feeds: u64,
    /// The ids of the last answer recorded by [`SessionRegistry::remember`].
    answer: Vec<usize>,
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
                answer: Vec::new(),
            }),
            touched: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
        });
        let mut entries = self.lock_entries();
        while entries.len() >= self.max_sessions {
            let victim = entries
                .iter()
                .min_by_key(|(_, e)| e.touched.load(Ordering::Relaxed))
                .map(|(&id, _)| id)
                .expect("non-empty map at capacity");
            entries.remove(&victim);
            metrics.record_evictions(1);
        }
        entries.insert(id, entry);
        metrics.record_create_session();
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
        metrics.record_close_session();
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
    /// feed (a miss), each counted in `metrics` — with the ids of the
    /// last recorded answer (none for an example round). No lock is
    /// held once it returns.
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
    ) -> Result<(Box<dyn FanoutQuery>, Vec<usize>), ServiceError> {
        let entry = self.get(id)?;
        if let Some(center) = example {
            return Ok((Box::new(EuclideanQuery::new(center)), Vec::new()));
        }
        let mut session = entry.lock();
        let answer = session.answer.clone();
        if let Some(plan) = &session.plan {
            metrics.record_plan_cache_hit();
            return Ok((plan.clone_fanout(), answer));
        }
        let compiled = session.method.query().map_err(ServiceError::from_core)?;
        metrics.record_plan_cache_miss();
        session.plan = Some(compiled.clone_fanout());
        Ok((compiled, answer))
    }

    /// Records `answer` as the session's last, whose ids the next
    /// refined [`Self::query`] returns. A session closed or evicted
    /// meanwhile is left alone, and recency is not refreshed.
    pub fn remember(&self, id: u64, answer: &[Neighbor]) {
        let entry = self.lock_entries().get(&id).map(Arc::clone);
        if let Some(entry) = entry {
            entry.lock().answer = answer.iter().map(|n| n.id).collect();
        }
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
            r.touch(id),
            Err(ServiceError::UnknownSession(got)) if got == id
        ));
        assert!(r.close(id, &m).is_err());
        assert!(r.create("falcon9", &m).is_err(), "unknown name");
        let s = m.snapshot(r.len() as u64, Default::default(), 0, Default::default());
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
        r.touch(a).unwrap();
        let c = r.create("qcluster", &m).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.touch(a).is_ok(), "recently touched survives");
        assert!(r.touch(b).is_err(), "LRU evicted");
        assert!(r.touch(c).is_ok());
        let s = m.snapshot(2, Default::default(), 0, Default::default());
        assert_eq!((s.evictions, s.sessions_created), (1, 3));
    }

    #[test]
    fn cached_plan_lives_until_the_engine_is_handed_out_mutably() {
        let (r, m) = (SessionRegistry::new(4), ServiceMetrics::new());
        let id = r.create("qcluster", &m).unwrap();
        let plan_counts = || {
            let s = m.snapshot(1, Default::default(), 0, Default::default());
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
        let answer = |ids: &[usize]| -> Vec<Neighbor> {
            ids.iter()
                .map(|&id| Neighbor { id, distance: 0.0 })
                .collect()
        };
        r.remember(id, &answer(&[4, 1]));
        assert!(r.query(id, Some(vec![0.0, 0.0]), &m).unwrap().1.is_empty());
        r.feed(id, &points(), &m).unwrap();
        assert_eq!(
            r.query(id, None, &m).unwrap().1,
            [4, 1],
            "kept across a feed"
        );
        r.remember(id, &answer(&[7]));
        assert_eq!(
            r.query(id, None, &m).unwrap().1,
            [7],
            "the last answer wins"
        );
        r.close(id, &m).unwrap();
        r.remember(id, &answer(&[9]));
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
