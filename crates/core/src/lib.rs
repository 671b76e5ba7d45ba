//! Qcluster — relevance feedback using adaptive clustering for CBIR.
//!
//! This crate is the reproduction of the primary contribution of
//! Kim & Chung, *Qcluster: Relevance Feedback Using Adaptive Clustering for
//! Content-Based Image Retrieval* (SIGMOD 2003).
//!
//! A complex image query is represented as **multiple disjoint clusters**
//! in feature space, each cluster a weighted Gaussian summary (centroid,
//! covariance, relevance-score mass) of the user's relevant images. Every
//! feedback iteration runs two adaptive stages instead of re-clustering
//! from scratch:
//!
//! 1. **Classification** ([`classify`]) — each newly-marked relevant image
//!    is dropped into the nearest existing cluster by a Bayesian
//!    classification function (paper Eq. 10) if it falls inside that
//!    cluster's χ² effective radius (Lemma 1), otherwise it seeds a new
//!    cluster.
//! 2. **Cluster merging** ([`merge`]) — pairs of clusters whose means are
//!    statistically indistinguishable under Hotelling's T² (Eqs. 14–16)
//!    are merged in closed form (Eqs. 11–13) until at most
//!    `target_clusters` remain.
//!
//! The refined query is the **disjunctive aggregate distance** over the
//! cluster representatives (Eq. 5), a weighted harmonic combination of
//! per-cluster quadratic forms that behaves like a fuzzy OR: an image close
//! to *any* cluster scores well. It plugs straight into the
//! [`qcluster_index`] tree search.
//!
//! # Quick start
//!
//! ```
//! use qcluster_core::{FeedbackPoint, QclusterConfig, QclusterEngine};
//!
//! // Two disjoint groups of relevant images in 2-D feature space.
//! let relevant: Vec<FeedbackPoint> = vec![
//!     FeedbackPoint::new(0, vec![0.0, 0.1], 3.0),
//!     FeedbackPoint::new(1, vec![0.1, 0.0], 3.0),
//!     FeedbackPoint::new(2, vec![5.0, 5.1], 3.0),
//!     FeedbackPoint::new(3, vec![5.1, 5.0], 3.0),
//! ];
//! let mut engine = QclusterEngine::new(QclusterConfig::default());
//! engine.feed(&relevant).unwrap();
//! assert_eq!(engine.num_clusters(), 2);
//!
//! // The disjunctive query ranks points near either cluster ahead of the
//! // midpoint between them.
//! let q = engine.query().unwrap();
//! use qcluster_index::QueryDistance;
//! assert!(q.distance(&[0.05, 0.05]) < q.distance(&[2.5, 2.5]));
//! assert!(q.distance(&[5.05, 5.05]) < q.distance(&[2.5, 2.5]));
//! ```

#![warn(missing_docs)]
// Indexed loops over multiple parallel buffers are the clearest (and often
// fastest) form for the dense numeric kernels in this workspace.
#![allow(clippy::needless_range_loop)]

pub mod classify;
pub mod cluster;
pub mod distance;
pub mod engine;
pub mod error;
pub mod hierarchical;
pub mod merge;
pub mod pooled;
pub mod quality;
pub mod reduce;
pub mod scheme;
pub mod types;

pub use classify::{BayesianClassifier, Classification};
pub use cluster::Cluster;
pub use distance::{ClusterDistance, DisjunctiveQuery, RepresentativeParts};
pub use engine::{QclusterConfig, QclusterEngine, ThresholdPolicy};
pub use error::{CoreError, Result};
pub use merge::{merge_clusters, MergeOutcome};
pub use quality::leave_one_out_error_rate;
pub use reduce::ReducedSpace;
pub use scheme::{CovarianceScheme, InverseCovariance};
pub use types::FeedbackPoint;
