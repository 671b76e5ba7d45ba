//! # qcluster-service
//!
//! A concurrent multi-session retrieval service over the Qcluster
//! relevance-feedback engine: the paper's single-session loop
//! (example query → mark relevant → adaptive clustering → disjunctive
//! re-query) packaged as a shared, thread-safe server component.
//!
//! Subsystems:
//!
//! - [`shard`] — the corpus split into contiguous partitions, each a
//!   two-phase quantized scan, answering k-NN with global ids.
//! - [`executor`] — a persistent worker pool fed through crossbeam
//!   channels; one query fans out across all shards (each job gets its
//!   own query clone, because refined queries are `Send` but not `Sync`)
//!   and the per-shard top-k lists merge into the global top-k.
//! - [`session`] — the session lifecycle both a node and a cluster
//!   router host: per-client method + compiled plan behind a registry
//!   with a max-sessions cap and LRU eviction.
//! - [`metrics`] — lock-free latency summaries and plan-cache, eviction
//!   and session counters, snapshotable at any time.
//! - [`protocol`] — serializable `Request`/`Response` enums plus the
//!   [`dispatch`] function, so any byte transport can front the service.
//! - [`spec`] — [`QuerySpec`], the wire form of a compiled query, which
//!   a node answers without a session.
//!
//! A service can also be **durable**: [`Service::open_durable`] backs it
//! with a `qcluster-store` segment + WAL directory, enabling live
//! `Request::Ingest` (WAL-append + in-memory flat overlay, ids stable
//! across restarts), `Request::Flush` (WAL → segment compaction), and
//! crash recovery that restores the corpus. Sessions are process state
//! on every host: a restart forgets them and never reissues their ids.
//!
//! ```
//! use qcluster_service::{dispatch, Request, Response, Service, ServiceConfig};
//!
//! let points: Vec<Vec<f64>> = (0..64)
//!     .map(|i| vec![(i % 8) as f64, (i / 8) as f64])
//!     .collect();
//! let service = Service::new(&points, ServiceConfig::default()).unwrap();
//!
//! let Response::SessionCreated { session } =
//!     dispatch(&service, Request::CreateSession { engine: None })
//! else { unreachable!() };
//! let Response::Neighbors { neighbors, .. } = dispatch(&service, Request::Query {
//!     session,
//!     k: 5,
//!     vector: Some(vec![3.0, 3.0]),
//!     deadline_ms: None,
//! }) else { unreachable!() };
//! assert_eq!(neighbors.len(), 5);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod executor;
pub mod metrics;
pub mod protocol;
pub mod service;
pub mod session;
pub mod shard;
pub mod spec;
mod writer;

pub use error::ServiceError;
pub use executor::{Executor, ExecutorConfig, FanoutReport, ShardFailure, ShardFailureKind};
pub use metrics::{
    ClusterGauges, FaultGauges, HistogramSummary, LatencyHistogram, MetricsSnapshot, QuantGauges,
    ServiceMetrics, StorageGauges, TransportGauges,
};
pub use protocol::{
    dispatch, feedback_points, FeedPointDto, NeighborDto, Request, Response, SearchStatsDto,
    DEFAULT_SCORE,
};
pub use qcluster_baselines::{method_by_name, METHODS};
pub use qcluster_core::{FeedbackPoint, QclusterConfig};
pub use qcluster_index::FanoutQuery;
pub use qcluster_store::{CompactionStats, StoreConfig};
pub use service::{IngestOutcome, QueryOutcome, Service, ServiceConfig};
pub use session::{FeedOutcome, Seen, SessionRegistry};
pub use shard::{Shard, ShardKind, ShardedCorpus};
pub use spec::{AggregateSpec, InverseSpec, PointSpec, QuerySpec, RepresentativeSpec};
