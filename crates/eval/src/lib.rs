//! Evaluation harness for the Qcluster reproduction.
//!
//! This crate turns the substrates (imaging, index, core, baselines) into
//! the paper's experiments:
//!
//! - [`dataset`] — an indexed image database with ground truth.
//! - [`oracle`] — the category-based relevance oracle (Sec. 5: "images
//!   from the same category are considered most relevant and images from
//!   related categories … are considered relevant").
//! - [`user`] — the simulated user that scores retrieved images.
//! - [`pr`] — precision/recall machinery and averaging over query sets.
//! - [`target`] — what a simulated user drives ([`UserTarget`]), and
//!   the in-process door onto a method and the hybrid tree.
//! - [`session`] — Algorithm 1, written once: the [`ClosedLoop`] stepper
//!   (example query, then mark → feed → re-query per round) over any
//!   target, and the drivers built on it.
//! - [`synthetic`] — the synthetic data generators of Sec. 5 (uniform
//!   cube for Fig. 5, spherical/elliptical Gaussian clusters in ℝ¹⁶ for
//!   Figs. 14–19 and Tables 2–3).
//! - [`experiments`] — one driver per paper figure/table, each returning
//!   printable structured rows (consumed by `qcluster repro`).

#![warn(missing_docs)]
// Indexed loops over multiple parallel buffers are the clearest (and often
// fastest) form for the dense numeric kernels in this workspace.
#![allow(clippy::needless_range_loop)]

pub mod dataset;
pub mod experiments;
pub mod oracle;
pub mod persist;
pub mod pr;
pub mod session;
pub mod synthetic;
pub mod target;
pub mod user;

pub use dataset::Dataset;
pub use oracle::RelevanceOracle;
pub use persist::{load_dataset, save_dataset, PersistError};
pub use pr::{average_pr_curve, pr_at, precision_at_k, IterationRow, PrCurve, PrPoint, ScoreTable};
pub use session::{
    run_session, ClosedLoop, FeedbackSession, IterationRecord, SessionOutcome, Step, Timed,
};
pub use target::{InProcessTarget, QueryReply, UserTarget};
pub use user::SimulatedUser;
