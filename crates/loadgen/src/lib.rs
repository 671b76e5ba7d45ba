//! `qcluster-loadgen` — closed-loop user-fleet soak harness.
//!
//! This crate turns the reproduction's *correctness* substrates into a
//! *production workload*: fleets of simulated users (the oracle-backed
//! protocol from `qcluster-eval`) drive real `qcluster-net` TCP
//! connections — or the multi-node scatter-gather router — through the
//! paper's full feedback loop, with per-user think time, seeded session
//! abandonment, background ingest, and failpoint chaos armed on a
//! scheduled timeline mid-run. The run emits one SLO artifact
//! (`BENCH_soak.json`): throughput, client-observed latency quantiles,
//! shed/degraded/breaker rates, and precision-at-k per feedback
//! iteration, comparable against the offline in-process baseline built
//! from the *same* seed-derived plan.
//!
//! Module map (DESIGN.md §15):
//!
//! - [`rng`] — derived-stream splitmix64 seeding (one `--seed`, many
//!   independent consumers).
//! - [`config`] — the soak shape ([`SoakConfig`]).
//! - [`fleet`] — the pure [`FleetPlan`], the fleet executor
//!   ([`run_soak`]: think time, abandonment and counters around
//!   `qcluster-eval`'s one closed loop) and the offline quality baseline.
//! - [`target`] — `qcluster-eval`'s `UserTarget` over TCP or router,
//!   and the [`SoakBackend`] control plane that mints them.
//! - [`chaos`] — the seeded fault timeline and its scheduler.
//! - [`report`] — the [`SoakReport`] artifact.

#![warn(missing_docs)]

pub mod chaos;
pub mod config;
pub mod fleet;
pub mod report;
pub mod rng;
pub mod target;

pub use chaos::{seeded_timeline, ChaosEvent, ChaosHit, ChaosKind, ChaosScheduler};
pub use config::SoakConfig;
pub use fleet::{
    offline_baseline, run_soak, FleetPlan, IngestStream, SessionPlan, SoakCounters, SoakOutcome,
    UserPlan,
};
pub use report::{
    host_fingerprint_json, metrics_artifact_json, soak_artifact_json, write_metrics_artifact,
    write_soak_artifact, LeaderKillReport, SoakReport,
};
pub use rng::SeedRng;
pub use target::{RouterBackend, SoakBackend, SoakTarget, TcpBackend};
