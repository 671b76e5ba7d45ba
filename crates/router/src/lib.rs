//! # qcluster-router
//!
//! A multi-node scatter–gather cluster front for qcluster: the
//! single-process service (`qcluster-service` behind `qcluster-net`)
//! scaled out to N node processes, each owning a contiguous slice of
//! the global id space.
//!
//! - [`ShardMap`] — the topology: partitions (`id_base` + replica
//!   addresses), global↔local id arithmetic, ingest ownership.
//! - [`Router`] — the sessions (method and compiled plan, hosted on
//!   the router) and scatter–gather of their compiled queries on the
//!   caller's thread, with one deadline per leg, circuit breakers, and
//!   typed failure attribution ([`NodeFailureKind`]); majority-acked
//!   ingest with WAL-shipping replication, follower catch-up and leader
//!   promotion. Every query leg goes to its partition's leader;
//!   followers are for failover.
//!
//! A healthy cluster answers bit-for-bit identically to a single node
//! holding the whole corpus, and a partial cluster answers exactly over
//! the surviving partitions with `nodes_ok / nodes_total` coverage on
//! the wire, as a node answers over its surviving shards.

#![warn(missing_docs)]

mod breaker;
pub mod corpus;
pub mod map;
pub mod router;

pub use corpus::{synthetic_point, synthetic_slice};
pub use map::{MapError, Partition, ShardMap};
pub use router::{
    AntiEntropyHandle, NodeFailure, NodeFailureKind, Router, RouterConfig, RouterError,
    ScatterReport, SyncOutcome,
};
