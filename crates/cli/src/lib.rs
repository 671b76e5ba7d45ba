//! `qcluster-cli` — the one-binary pipeline front-end.
//!
//! Everything the workspace can do, reachable from a single `qcluster`
//! binary: render a synthetic corpus (`synth`), stream raw images into
//! a reduced feature dataset (`ingest`), seal it into a durable store
//! (`build`), bind the TCP retrieval stack on it (`serve`), grade
//! relevance-feedback quality over the wire (`eval`), re-encode
//! datasets (`convert`), chain all of it from one TOML recipe
//! (`run`), regenerate the paper's tables and figures (`repro`), and
//! drive a closed-loop user fleet against a served stack (`soak`). Each
//! pipeline stage reports per-stage throughput through a shared
//! [`stats::PipelineStats`] reporter and verifies the conservation
//! invariant `items_in == items_out + skipped`.
//!
//! The library half exists so the whole pipeline is testable
//! in-process (see `tests/pipeline_e2e.rs`); `main.rs` is a thin
//! argument-parsing shell over these modules, plus `repro` and the
//! soak's node boot. The soak harness is [`rng`], [`config`], [`fleet`],
//! [`target`] (whose TCP and router backends `eval` and `run` use too),
//! [`chaos`] and [`report`]; DESIGN.md §15 maps them.

#![warn(missing_docs)]

pub mod build;
pub mod chaos;
pub mod config;
pub mod convert;
pub mod error;
pub mod eval;
pub mod fleet;
pub mod ingest;
pub mod recipe;
pub mod report;
pub mod rng;
pub mod run;
pub mod serve;
pub mod stats;
pub mod synth;
pub mod target;

pub use build::{build, BuildReport};
pub use chaos::{seeded_timeline, ChaosEvent, ChaosKind};
pub use config::SoakConfig;
pub use convert::{convert, ConvertReport, ConvertedKind};
pub use error::{CliError, SkipReason, SkippedFile};
pub use eval::{
    compare_reports, offline_eval, sample_queries, served_eval, EvalOptions, EvalReport,
};
pub use fleet::{offline_baseline, run_soak};
pub use ingest::{ingest, parse_feature_kind, IngestConfig, IngestReport, IngestSource};
pub use recipe::Recipe;
pub use report::{
    soak_artifact_json, write_metrics_artifact, write_soak_artifact, LeaderKillReport, SoakReport,
};
pub use run::{run, RunReport};
pub use serve::{serve, ServeHandle, ServeOptions};
pub use stats::{PipelineStats, StageStats};
pub use synth::{synth_images, synth_segment, SynthImagesConfig};
pub use target::{RouterBackend, SoakBackend, TcpBackend};
