//! Session lifecycle: per-client engine + plan state, a registry
//! keyed by session id, idle-TTL expiry, and a max-sessions cap with
//! optional least-recently-used eviction.
//!
//! Locking protocol: the registry's map lock is only ever held to look up
//! or remove entries — never across an engine operation. Each session's
//! own mutex serializes its feed/query stream, so two clients hammering
//! different sessions never contend, and recency is tracked in a
//! registry-level atomic so eviction decisions need no session locks.

use crate::error::ServiceError;
use crate::metrics::ServiceMetrics;
use qcluster_baselines::RetrievalMethod;
use qcluster_index::FanoutQuery;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One client's retrieval state.
pub struct Session {
    id: u64,
    engine: Box<dyn RetrievalMethod>,
    /// The engine's last compiled query, valid until the next
    /// [`Session::engine_mut_for_feed`].
    plan: Option<Box<dyn FanoutQuery>>,
    feeds: u64,
    queries: u64,
}

impl Session {
    /// Assembles a session around an engine.
    pub fn new(id: u64, engine: Box<dyn RetrievalMethod>) -> Self {
        Session {
            id,
            engine,
            plan: None,
            feeds: 0,
            queries: 0,
        }
    }

    /// Reassembles a recovered session: like [`Session::new`] but with
    /// the feed counter restored from a durable snapshot, so feed
    /// iteration numbers keep counting from where the crash left them.
    pub fn restored(id: u64, engine: Box<dyn RetrievalMethod>, feeds: u64) -> Self {
        Session {
            id,
            engine,
            plan: None,
            feeds,
            queries: 0,
        }
    }

    /// The session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The hosted engine.
    pub fn engine(&self) -> &dyn RetrievalMethod {
        &*self.engine
    }

    /// Mutable access for feeds; bumps the feed counter. This is the
    /// only `&mut` route to the engine, so whatever the caller does with
    /// it (feed, reset) may change what [`RetrievalMethod::query`]
    /// compiles: the cached plan is dropped here.
    pub fn engine_mut_for_feed(&mut self) -> &mut dyn RetrievalMethod {
        self.feeds += 1;
        self.plan = None;
        &mut *self.engine
    }

    /// Counts one served query.
    pub fn record_query(&mut self) {
        self.queries += 1;
    }

    /// A clone of the cached plan, if the engine has not been handed
    /// out mutably since it was stored.
    fn cached_plan(&self) -> Option<Box<dyn FanoutQuery>> {
        self.plan.as_ref().map(|p| p.clone_fanout())
    }

    /// Retains `query` as the engine's current compiled plan.
    fn store_plan(&mut self, query: Box<dyn FanoutQuery>) {
        self.plan = Some(query);
    }

    /// The engine's compiled query: the cached plan (a hit), or a fresh
    /// compile kept until the next [`Session::engine_mut_for_feed`] (a
    /// miss), each counted in `metrics`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Engine`] (or another mapped engine error) when
    /// the engine cannot compile, e.g. before any feedback.
    pub fn plan(&mut self, metrics: &ServiceMetrics) -> Result<Box<dyn FanoutQuery>, ServiceError> {
        if let Some(cached) = self.cached_plan() {
            metrics.record_plan_cache_hit();
            return Ok(cached);
        }
        let compiled = self.engine.query().map_err(ServiceError::from_core)?;
        metrics.record_plan_cache_miss();
        self.store_plan(compiled.clone_fanout());
        Ok(compiled)
    }

    /// Feed rounds so far.
    pub fn feeds(&self) -> u64 {
        self.feeds
    }

    /// Queries served so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("engine", &self.engine.name())
            .field("feeds", &self.feeds)
            .field("queries", &self.queries)
            .finish()
    }
}

/// Registry eviction policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct RegistryConfig {
    /// Maximum live sessions.
    pub max_sessions: usize,
    /// Idle time after which a session may be reaped (`None` = never).
    pub idle_ttl: Option<Duration>,
    /// At capacity: evict the least-recently-used session (`true`) or
    /// refuse creation with `CapacityExhausted` (`false`).
    pub evict_lru_at_capacity: bool,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            max_sessions: 64,
            idle_ttl: None,
            evict_lru_at_capacity: true,
        }
    }
}

struct Entry {
    session: Mutex<Session>,
    /// Milliseconds since registry start at last touch (atomic so the
    /// eviction scan needs no session locks). Drives the TTL sweep.
    last_touched_ms: AtomicU64,
    /// Strictly increasing logical touch tick; wall-clock milliseconds
    /// tie when touches land in the same millisecond, so the LRU scan
    /// orders by this instead.
    touch_seq: AtomicU64,
}

/// Concurrent session table with TTL and LRU eviction.
pub struct SessionRegistry {
    entries: Mutex<HashMap<u64, Arc<Entry>>>,
    next_id: AtomicU64,
    touch_clock: AtomicU64,
    epoch: Instant,
    config: RegistryConfig,
}

/// A checked-out session: keeps the entry alive even if it is evicted
/// from the registry mid-operation.
pub struct SessionHandle {
    entry: Arc<Entry>,
}

impl SessionHandle {
    /// Locks the session for one operation.
    pub fn lock(&self) -> MutexGuard<'_, Session> {
        self.entry.session.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl SessionRegistry {
    /// An empty registry.
    ///
    /// # Panics
    ///
    /// Panics when `config.max_sessions` is zero.
    pub fn new(config: RegistryConfig) -> Self {
        assert!(config.max_sessions > 0, "max_sessions must be positive");
        SessionRegistry {
            entries: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            touch_clock: AtomicU64::new(0),
            epoch: Instant::now(),
            config,
        }
    }

    /// The registry's configuration.
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn next_tick(&self) -> u64 {
        self.touch_clock.fetch_add(1, Ordering::Relaxed)
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

    /// `true` when `id` is currently live. Does **not** refresh the
    /// session's recency, so eviction tests and monitoring probes can
    /// observe liveness without perturbing the LRU order.
    pub fn contains(&self, id: u64) -> bool {
        self.lock_entries().contains_key(&id)
    }

    /// Removes every session idle longer than the TTL; returns how many
    /// were reaped.
    pub fn sweep_expired(&self) -> u64 {
        let Some(ttl) = self.config.idle_ttl else {
            return 0;
        };
        let cutoff = self
            .now_ms()
            .saturating_sub(u64::try_from(ttl.as_millis()).unwrap_or(u64::MAX));
        let mut entries = self.lock_entries();
        let before = entries.len();
        entries.retain(|_, e| e.last_touched_ms.load(Ordering::Relaxed) >= cutoff);
        (before - entries.len()) as u64
    }

    /// Creates a session via `make` (which receives the fresh id).
    ///
    /// Expired sessions are reaped first; at capacity the LRU session is
    /// evicted when the policy allows. Returns the new id and the number
    /// of sessions evicted to make room.
    ///
    /// # Errors
    ///
    /// [`ServiceError::CapacityExhausted`] at capacity with LRU eviction
    /// disabled.
    pub fn create(&self, make: impl FnOnce(u64) -> Session) -> Result<(u64, u64), ServiceError> {
        let mut evicted = self.sweep_expired();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let now = self.now_ms();
        let mut entries = self.lock_entries();
        if entries.len() >= self.config.max_sessions {
            if !self.config.evict_lru_at_capacity {
                return Err(ServiceError::CapacityExhausted {
                    max_sessions: self.config.max_sessions,
                });
            }
            // Evict the stalest entries until one slot is free.
            while entries.len() >= self.config.max_sessions {
                let victim = entries
                    .iter()
                    .min_by_key(|(_, e)| e.touch_seq.load(Ordering::Relaxed))
                    .map(|(&id, _)| id)
                    .expect("non-empty map at capacity");
                entries.remove(&victim);
                evicted += 1;
            }
        }
        entries.insert(
            id,
            Arc::new(Entry {
                session: Mutex::new(make(id)),
                last_touched_ms: AtomicU64::new(now),
                touch_seq: AtomicU64::new(self.next_tick()),
            }),
        );
        Ok((id, evicted))
    }

    /// Re-inserts a session under a **specific** id — the recovery path,
    /// where ids must survive a restart because clients still hold them.
    /// Advances the id allocator past `id` so future creations never
    /// collide. Replaces any live session with the same id.
    pub fn restore(&self, id: u64, make: impl FnOnce(u64) -> Session) {
        self.next_id.fetch_max(id + 1, Ordering::Relaxed);
        let now = self.now_ms();
        let entry = Arc::new(Entry {
            session: Mutex::new(make(id)),
            last_touched_ms: AtomicU64::new(now),
            touch_seq: AtomicU64::new(self.next_tick()),
        });
        self.lock_entries().insert(id, entry);
    }

    /// Checks out a session, refreshing its recency.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when the id is not live (expired
    /// ids are reaped on the way in).
    pub fn get(&self, id: u64) -> Result<SessionHandle, ServiceError> {
        self.sweep_expired();
        let entries = self.lock_entries();
        let entry = entries.get(&id).ok_or(ServiceError::UnknownSession(id))?;
        entry
            .last_touched_ms
            .store(self.now_ms(), Ordering::Relaxed);
        entry.touch_seq.store(self.next_tick(), Ordering::Relaxed);
        Ok(SessionHandle {
            entry: Arc::clone(entry),
        })
    }

    /// Removes a session.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when the id is not live.
    pub fn close(&self, id: u64) -> Result<(), ServiceError> {
        self.lock_entries()
            .remove(&id)
            .map(|_| ())
            .ok_or(ServiceError::UnknownSession(id))
    }
}

impl std::fmt::Debug for SessionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionRegistry")
            .field("live", &self.len())
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcluster_baselines::QueryPointMovement;
    use qcluster_core::{FeedbackPoint, QclusterConfig, QclusterEngine};

    fn mk_session(id: u64) -> Session {
        Session::new(id, Box::new(QclusterEngine::new(QclusterConfig::default())))
    }

    fn registry(max: usize, evict: bool) -> SessionRegistry {
        SessionRegistry::new(RegistryConfig {
            max_sessions: max,
            idle_ttl: None,
            evict_lru_at_capacity: evict,
        })
    }

    #[test]
    fn create_get_close_lifecycle() {
        let r = registry(4, true);
        let (id, evicted) = r.create(mk_session).unwrap();
        assert_eq!(evicted, 0);
        assert_eq!(r.len(), 1);
        let handle = r.get(id).unwrap();
        assert_eq!(handle.lock().id(), id);
        assert_eq!(handle.lock().engine().name(), "qcluster");
        r.close(id).unwrap();
        assert!(matches!(
            r.get(id),
            Err(ServiceError::UnknownSession(got)) if got == id
        ));
        assert!(r.close(id).is_err());
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let r = registry(16, true);
        let (a, _) = r.create(mk_session).unwrap();
        let (b, _) = r.create(mk_session).unwrap();
        let (c, _) = r.create(mk_session).unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn capacity_with_lru_evicts_stalest() {
        let r = registry(2, true);
        let (a, _) = r.create(mk_session).unwrap();
        let (b, _) = r.create(mk_session).unwrap();
        // Touch `a` so `b` is now the LRU.
        let _ = r.get(a).unwrap();
        let (c, evicted) = r.create(mk_session).unwrap();
        assert_eq!(evicted, 1);
        assert_eq!(r.len(), 2);
        assert!(r.get(a).is_ok(), "recently touched survives");
        assert!(r.get(b).is_err(), "LRU evicted");
        assert!(r.get(c).is_ok());
    }

    #[test]
    fn capacity_without_lru_errors() {
        let r = registry(1, false);
        let _ = r.create(mk_session).unwrap();
        assert!(matches!(
            r.create(mk_session),
            Err(ServiceError::CapacityExhausted { max_sessions: 1 })
        ));
    }

    #[test]
    fn ttl_reaps_idle_sessions() {
        let r = SessionRegistry::new(RegistryConfig {
            max_sessions: 8,
            idle_ttl: Some(Duration::from_millis(30)),
            evict_lru_at_capacity: true,
        });
        let (a, _) = r.create(mk_session).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        let (b, _) = r.create(mk_session).unwrap();
        // `a` idled past the TTL and was reaped during the create sweep;
        // `b` is fresh.
        assert!(r.get(a).is_err());
        assert!(r.get(b).is_ok());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn restore_preserves_ids_and_advances_allocator() {
        let r = registry(8, true);
        r.restore(41, mk_session);
        assert_eq!(r.get(41).unwrap().lock().id(), 41);
        let (next, _) = r.create(mk_session).unwrap();
        assert!(next > 41, "allocator must clear restored ids");
    }

    #[test]
    fn cached_plan_lives_until_the_engine_is_handed_out_mutably() {
        let mut session = mk_session(1);
        let pts = [FeedbackPoint::new(0, vec![1.0, 0.0], 2.0)];
        session.engine_mut_for_feed().feed(&pts).unwrap();
        assert!(session.cached_plan().is_none());
        let plan = session.engine().query().unwrap();
        session.store_plan(plan);
        assert!(session.cached_plan().is_some(), "hit between feeds");
        session.engine_mut_for_feed().feed(&pts).unwrap();
        assert!(session.cached_plan().is_none(), "miss after feed");
        let plan = session.engine().query().unwrap();
        session.store_plan(plan);
        session.engine_mut_for_feed().reset();
        assert!(session.cached_plan().is_none(), "miss after reset");
    }

    #[test]
    fn qpm_engine_is_hostable() {
        let mut session = Session::new(1, Box::new(QueryPointMovement::new()));
        let engine = session.engine_mut_for_feed();
        assert_eq!(engine.name(), "qpm");
        assert!(engine.query().is_err(), "no feedback yet");
        let pts = vec![
            FeedbackPoint::new(0, vec![1.0, 0.0], 2.0),
            FeedbackPoint::new(1, vec![0.0, 1.0], 2.0),
        ];
        engine.feed(&pts).unwrap();
        let q = engine.query().unwrap();
        assert_eq!(q.dim(), 2);
        assert_eq!(engine.num_clusters(), None);
    }
}
