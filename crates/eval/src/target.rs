//! What a simulated user drives: one session-capable door, behind one
//! trait.
//!
//! The closed loop in [`crate::session`] only speaks [`UserTarget`]. The
//! in-process door lives here ([`InProcessTarget`]: a
//! [`RetrievalMethod`] over the dataset's hybrid tree); the doors that
//! cross a socket (TCP client, router) live in `qcluster-cli`'s
//! `target` module, so this crate carries no transport dependency.

use qcluster_baselines::RetrievalMethod;
use qcluster_core::{CoreError, FeedbackPoint};
use qcluster_index::{EuclideanQuery, HybridTree, NodeCache, SearchStats};

/// One query round's answer, reduced to what the loop's callers score.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Ranked global corpus ids, best first (length ≤ k when degraded).
    pub retrieved: Vec<usize>,
    /// Search work the target reported for this round (a wire target
    /// carries the four node/distance counters; the rest read zero).
    pub stats: SearchStats,
    /// Whether shard or node coverage was partial.
    pub degraded: bool,
}

/// One user's handle on the target: a session-scoped client. Every
/// call can fail with the target's own error — transport, service or
/// method.
pub trait UserTarget: Send {
    /// What a failed call reports.
    type Error;

    /// Opens a feedback session.
    fn create_session(&mut self) -> Result<u64, Self::Error>;

    /// Runs one query round (`vector` set = initial example query,
    /// `None` = the session's refined query).
    fn query(
        &mut self,
        session: u64,
        k: usize,
        vector: Option<Vec<f64>>,
        deadline_ms: Option<u64>,
    ) -> Result<QueryReply, Self::Error>;

    /// Feeds one round of graded relevance marks.
    fn feed(&mut self, session: u64, marked: &[FeedbackPoint]) -> Result<(), Self::Error>;

    /// Closes the session.
    fn close_session(&mut self, session: u64) -> Result<(), Self::Error>;
}

/// The in-process door: a method refined directly and its queries
/// answered by the dataset's hybrid tree, optionally through the
/// multipoint approach's cross-iteration [`NodeCache`] (Fig. 7). It
/// hosts one session at a time; opening one resets the method and
/// empties the cache.
pub struct InProcessTarget<'a> {
    method: &'a mut dyn RetrievalMethod,
    tree: &'a HybridTree,
    cache: Option<NodeCache>,
}

impl<'a> InProcessTarget<'a> {
    /// A door onto `method` over `tree`, with a node cache sized for
    /// that tree or — `use_node_cache: false` — fresh I/O every round.
    pub fn new(
        method: &'a mut dyn RetrievalMethod,
        tree: &'a HybridTree,
        use_node_cache: bool,
    ) -> Self {
        let cache = use_node_cache.then(|| NodeCache::new(tree.num_nodes()));
        InProcessTarget {
            method,
            tree,
            cache,
        }
    }
}

impl UserTarget for InProcessTarget<'_> {
    type Error = CoreError;

    fn create_session(&mut self) -> Result<u64, CoreError> {
        self.method.reset();
        if let Some(cache) = &mut self.cache {
            cache.clear();
        }
        Ok(0)
    }

    fn query(
        &mut self,
        _session: u64,
        k: usize,
        vector: Option<Vec<f64>>,
        _deadline_ms: Option<u64>,
    ) -> Result<QueryReply, CoreError> {
        let (neighbors, stats) = match vector {
            Some(v) => self
                .tree
                .knn(&EuclideanQuery::new(v), k, self.cache.as_mut()),
            None => self.tree.knn(&self.method.query()?, k, self.cache.as_mut()),
        };
        Ok(QueryReply {
            retrieved: neighbors.iter().map(|n| n.id).collect(),
            stats,
            degraded: false,
        })
    }

    fn feed(&mut self, _session: u64, marked: &[FeedbackPoint]) -> Result<(), CoreError> {
        self.method.feed(marked)
    }

    fn close_session(&mut self, _session: u64) -> Result<(), CoreError> {
        Ok(())
    }
}
