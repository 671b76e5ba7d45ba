//! High-dimensional feature indexing for the Qcluster reproduction.
//!
//! The paper indexes feature vectors with the **hybrid tree**
//! (Chakrabarti & Mehrotra, ICDE 1999) and answers refined multipoint
//! queries with the **multipoint approach** of Chakrabarti, Porkaew &
//! Mehrotra (ICDE 2000), which "saves the execution cost of an iteration by
//! caching the information of index nodes generated during the previous
//! iterations of the query" (paper Sec. 5, Fig. 7).
//!
//! This crate provides:
//!
//! - [`HybridTree`] — a bulk-loaded, space-partitioned tree over feature
//!   vectors with per-node bounding boxes. It preserves the two properties
//!   the experiments rely on: exact k-NN under arbitrary lower-boundable
//!   distance functions, and a node-granular access count (the I/O proxy).
//! - [`QueryDistance`] — the pluggable distance abstraction. Qcluster's
//!   disjunctive aggregate distance, MARS's weighted Euclidean, and
//!   MindReader's generalized Euclidean all implement it.
//! - [`NodeCache`] — the cross-iteration node buffer of the multipoint
//!   approach: nodes read by earlier iterations of the same feedback
//!   session are buffer hits, so only newly-touched nodes count as I/O.
//! - [`LinearScan`] — the exact brute-force baseline.

#![warn(missing_docs)]
// Indexed loops over multiple parallel buffers are the clearest (and often
// fastest) form for the dense numeric kernels in this workspace.
#![allow(clippy::needless_range_loop)]

pub mod bbox;
pub mod cache;
pub mod distance;
pub mod knn;
pub mod quant;
pub mod scan;
pub mod tree;

pub use bbox::BoundingBox;
pub use cache::NodeCache;
pub use distance::{EuclideanQuery, FanoutQuery, QueryDistance, WeightedEuclideanQuery};
pub use knn::{merge_top_k, Neighbor, SearchStats, TopK};
pub use quant::{
    default_rerank_window, CooperativeScan, Phase1, QuantParams, QuantPlan, QuantScanStats,
    QuantSpec, QuantizedScan, TileCorpus, QUANT_BLOCK_TILES,
};
pub use scan::{LinearScan, SCAN_BLOCK_POINTS};
pub use tree::HybridTree;
