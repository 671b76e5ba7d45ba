//! Baseline relevance-feedback methods the paper compares Qcluster against.
//!
//! - [`QueryPointMovement`] — MARS's re-weighted Rocchio refinement
//!   (paper reference \[15\]): one moving query point with per-dimension
//!   weights inversely proportional to the relevant points' variance.
//! - [`MindReader`] — Ishikawa et al.'s generalized Euclidean refinement
//!   (reference \[11\]): the same single moving point but with a full
//!   inverse-covariance quadratic form, handling arbitrarily *oriented*
//!   ellipsoids.
//! - [`QueryExpansion`] — MARS's multipoint query expansion (reference
//!   \[13\]): cluster the relevant points, keep the cluster centroids as
//!   representatives, and rank by the **convex** (weighted arithmetic
//!   mean) combination of per-representative distances — "a single large
//!   contour … to cover all query points", which is exactly what fails on
//!   disjunctive queries (Fig. 1(b) vs 1(c)).
//! - [`Falcon`] — Wu et al.'s aggregate dissimilarity (reference \[20\]):
//!   every relevant point is a query point and distances combine through
//!   the α-norm fuzzy-OR with α < 0.
//!
//! All methods implement [`RetrievalMethod`], so the evaluation harness
//! can iterate `feed → query → k-NN` uniformly across approaches.

#![warn(missing_docs)]

pub mod aggregate;
pub mod falcon;
pub mod method;
pub mod mindreader;
pub mod qex;
pub mod qpm;

pub use aggregate::{AggregateKind, MultiPointQuery};
pub use falcon::Falcon;
pub use method::{method_by_name, MethodConstructor, RetrievalMethod, METHODS};
pub use mindreader::MindReader;
pub use qex::QueryExpansion;
pub use qpm::QueryPointMovement;
