//! Structured, wire-serializable service errors.

use qcluster_core::CoreError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Everything that can go wrong handling a service request.
///
/// Serializable so it travels inside
/// [`Response::Error`](crate::protocol::Response::Error) unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceError {
    /// The session id is unknown (never created, closed, or evicted).
    UnknownSession(u64),
    /// A vector's dimensionality disagrees with the corpus.
    DimensionMismatch {
        /// Corpus dimensionality.
        expected: usize,
        /// Offending dimensionality.
        found: usize,
    },
    /// A feed carried no relevant points.
    EmptyFeedback,
    /// A feed referenced an image id outside the corpus.
    InvalidImageId {
        /// The offending id.
        id: usize,
        /// Corpus size (valid ids are `0..corpus_len`).
        corpus_len: usize,
    },
    /// A structurally invalid request (zero `k`, unknown engine name,
    /// mismatched score count, …).
    InvalidRequest(String),
    /// The session's engine rejected the operation (no clusters yet,
    /// numerical failure, invalid score, …).
    Engine(String),
    /// The durable store failed (I/O, corruption) or the request needs
    /// one and the service runs memory-only.
    Storage(String),
    /// Spawning an executor worker thread failed (resource exhaustion at
    /// construction time — the pool was not created).
    Spawn(String),
    /// Admission control rejected the request: the executor's job queue
    /// is at capacity. Retry after backoff; nothing was executed.
    Overloaded {
        /// Jobs already queued or running.
        queued: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The deadline elapsed before *any* shard produced a result, so
    /// there is not even a partial ranking to return. (When at least one
    /// shard arrives in time the service returns a degraded response
    /// instead of this error.)
    DeadlineExceeded {
        /// Milliseconds waited before giving up.
        waited_ms: u64,
        /// Shards the query fanned out to.
        shards_total: usize,
    },
    /// An internal invariant broke (disconnected channel, poisoned
    /// state). The request failed cleanly; the service keeps running.
    Internal(String),
    /// A fenced replication ship was rejected: the shipper's term is
    /// stale. The zombie leader (or losing router) must stop shipping
    /// and re-discover the cluster's real leadership.
    StaleTerm {
        /// The term the rejecting node has acknowledged.
        current: u64,
    },
}

impl ServiceError {
    /// `true` when the request itself was at fault (malformed, wrong
    /// dimensionality, an id outside the corpus): the node is healthy,
    /// and a cluster router counts the reply as delivered rather than
    /// as a failure against the node's circuit breaker.
    pub fn is_caller_fault(&self) -> bool {
        matches!(
            self,
            ServiceError::InvalidRequest(_)
                | ServiceError::InvalidImageId { .. }
                | ServiceError::DimensionMismatch { .. }
        )
    }

    /// Maps an engine error onto the service vocabulary, keeping the
    /// variants the protocol distinguishes structurally.
    pub fn from_core(e: CoreError) -> Self {
        match e {
            CoreError::EmptyFeedback => ServiceError::EmptyFeedback,
            CoreError::DimensionMismatch { expected, found } => {
                ServiceError::DimensionMismatch { expected, found }
            }
            other => ServiceError::Engine(other.to_string()),
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServiceError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            ServiceError::EmptyFeedback => write!(f, "empty relevant set"),
            ServiceError::InvalidImageId { id, corpus_len } => {
                write!(f, "image id {id} outside corpus of {corpus_len}")
            }
            ServiceError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServiceError::Engine(msg) => write!(f, "engine error: {msg}"),
            ServiceError::Storage(msg) => write!(f, "storage error: {msg}"),
            ServiceError::Spawn(msg) => write!(f, "worker spawn failed: {msg}"),
            ServiceError::Overloaded { queued, capacity } => {
                write!(f, "overloaded: {queued} jobs queued (capacity {capacity})")
            }
            ServiceError::DeadlineExceeded {
                waited_ms,
                shards_total,
            } => write!(
                f,
                "deadline exceeded after {waited_ms}ms: none of {shards_total} shards answered"
            ),
            ServiceError::Internal(msg) => write!(f, "internal error: {msg}"),
            ServiceError::StaleTerm { current } => {
                write!(f, "stale term: this node is at term {current}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::from_core(e)
    }
}

impl From<qcluster_store::StoreError> for ServiceError {
    fn from(e: qcluster_store::StoreError) -> Self {
        ServiceError::Storage(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_errors_map_structurally() {
        assert_eq!(
            ServiceError::from_core(CoreError::EmptyFeedback),
            ServiceError::EmptyFeedback
        );
        assert_eq!(
            ServiceError::from_core(CoreError::DimensionMismatch {
                expected: 3,
                found: 2
            }),
            ServiceError::DimensionMismatch {
                expected: 3,
                found: 2
            }
        );
        assert!(matches!(
            ServiceError::from_core(CoreError::NoClusters),
            ServiceError::Engine(_)
        ));
    }

    #[test]
    fn display_is_informative() {
        let e = ServiceError::InvalidImageId {
            id: 9,
            corpus_len: 4,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));
    }
}
