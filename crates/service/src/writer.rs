//! The write side of a [`Service`](crate::Service): the durable store
//! and this node's replication-consensus state, behind the one mutex
//! whose contract is **"may block on disk"**.
//!
//! Every operation that can fsync or move the term — ingest append,
//! compaction, vote, fence — is a method here, so a
//! caller holding the guard can compose several of them (fence, check
//! the committed total, append) into one atomic step. Nothing on the
//! query path takes this mutex: reads go to the sharded base corpus and
//! the service's overlay, which the writer's holder publishes to only
//! after its fsync has returned.

use crate::error::ServiceError;
use crate::metrics::StorageGauges;
use qcluster_store::{CompactionStats, VectorStore};
use std::time::{Duration, Instant};

/// Replication-consensus state for this node: the highest term it has
/// acknowledged (persisted through the store when durable, so a
/// SIGKILLed node cannot forget a fence across restarts) plus the two
/// leases that make leadership safe. The leader lease marks applies at
/// the current term as live leadership; the vote lease stops this node
/// from granting two contending candidates in the same window.
#[derive(Debug, Default)]
struct ConsensusState {
    /// Highest term acknowledged (0 = no leader has won this node yet).
    term: u64,
    /// While unexpired, a leader at `term` holds this node.
    lease_until: Option<Instant>,
    /// While unexpired, competing vote requests are refused.
    vote_until: Option<Instant>,
}

/// See the module docs. `store` is `None` for a memory-only service,
/// whose consensus state then lives (and dies) with the process.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    store: Option<VectorStore>,
    consensus: ConsensusState,
}

impl Writer {
    /// A writer over an opened store, resuming at its recovered `term`.
    pub(crate) fn durable(store: VectorStore, term: u64) -> Self {
        Writer {
            store: Some(store),
            consensus: ConsensusState {
                term,
                ..ConsensusState::default()
            },
        }
    }

    pub(crate) fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    fn store_for(&mut self, op: &str) -> Result<&mut VectorStore, ServiceError> {
        self.store.as_mut().ok_or_else(|| {
            ServiceError::Storage(format!("service is memory-only; {op} needs open_durable"))
        })
    }

    /// WAL-appends and fsyncs one vector and returns its corpus id.
    pub(crate) fn append(&mut self, vector: Vec<f64>) -> Result<u64, ServiceError> {
        Ok(self.store_for("ingest")?.ingest(vector)?)
    }

    /// Folds the WAL into a sealed segment.
    pub(crate) fn compact(&mut self) -> Result<CompactionStats, ServiceError> {
        Ok(self.store_for("flush")?.compact()?)
    }

    /// `(term, leased)`; see [`Service::consensus_status`](crate::Service::consensus_status).
    pub(crate) fn consensus_status(&self) -> (u64, bool) {
        let leased = self
            .consensus
            .lease_until
            .is_some_and(|until| until > Instant::now());
        (self.consensus.term, leased)
    }

    /// See [`Service::handle_vote`](crate::Service::handle_vote).
    pub(crate) fn vote(&mut self, term: u64, lease_ms: u64) -> Result<(bool, u64), ServiceError> {
        positive_term(term)?;
        let now = Instant::now();
        let leased = self.consensus.vote_until.is_some_and(|t| t > now)
            || self.consensus.lease_until.is_some_and(|t| t > now);
        if term <= self.consensus.term || leased {
            return Ok((false, self.consensus.term));
        }
        if let Some(store) = self.store.as_mut() {
            store.set_term(term)?;
        }
        self.consensus.term = term;
        self.consensus.vote_until = (lease_ms > 0).then(|| now + Duration::from_millis(lease_ms));
        Ok((true, term))
    }

    /// The fence of [`Service::apply_fenced`](crate::Service::apply_fenced).
    pub(crate) fn fence(&mut self, term: u64, lease_ms: u64) -> Result<Option<u64>, ServiceError> {
        positive_term(term)?;
        if qcluster_failpoint::active()
            && qcluster_failpoint::evaluate_sleepy("repl.apply.stale_term").is_some()
        {
            return Ok(Some(self.consensus.term));
        }
        if term < self.consensus.term {
            return Ok(Some(self.consensus.term));
        }
        if term > self.consensus.term {
            if let Some(store) = self.store.as_mut() {
                store.set_term(term)?;
            }
            self.consensus.term = term;
            // A live leader at a newer term supersedes any vote-lease.
            self.consensus.vote_until = None;
        }
        if lease_ms > 0 {
            self.consensus.lease_until = Some(Instant::now() + Duration::from_millis(lease_ms));
        }
        Ok(None)
    }

    /// Store gauges sampled live (all zero for a memory-only service).
    pub(crate) fn storage_gauges(&self) -> StorageGauges {
        self.store
            .as_ref()
            .map_or_else(StorageGauges::default, |store| {
                let s = store.stats();
                StorageGauges {
                    wal_appends: s.wal_appends,
                    wal_fsyncs: s.wal_fsyncs,
                    segments: s.segments,
                    segment_vectors: s.segment_vectors,
                    wal_vectors: s.wal_vectors,
                }
            })
    }
}

/// Terms start at 1: 0 is a node's state before any leader won it,
/// never a term a candidate may bid or a leader may ship at.
fn positive_term(term: u64) -> Result<(), ServiceError> {
    if term == 0 {
        return Err(ServiceError::InvalidRequest(
            "replication term must be positive (0 = never elected)".into(),
        ));
    }
    Ok(())
}
