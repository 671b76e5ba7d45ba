//! The SLO report: one JSON artifact per soak run.
//!
//! The artifact (`crates/cli/BENCH_soak.json` by default) follows
//! the workspace's bench-artifact convention — a `bench` tag and the
//! host fingerprint up front — and embeds the server-side
//! `MetricsSnapshot` under the *same schema* the wire `Stats` request
//! returns, so the soak report, one-shot scrapes, and external
//! monitoring all parse one shape.

use crate::chaos::ChaosHit;
use crate::config::SoakConfig;
use crate::fleet::{SoakCounters, SoakOutcome};
use qcluster_eval::IterationRow;
use qcluster_service::{HistogramSummary, MetricsSnapshot};
use serde::{Deserialize, Serialize};

/// Everything a soak run measured, in one serializable record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoakReport {
    /// Master seed the run derived every random decision from.
    pub seed: u64,
    /// Target description (`tcp://…` or `router://…`).
    pub target: String,
    /// Concurrent users driven.
    pub users: usize,
    /// Sessions per user.
    pub sessions_per_user: usize,
    /// Planned feedback iterations per session.
    pub iterations: usize,
    /// Result-set size per query round.
    pub k: usize,
    /// Wall-clock duration of the run, seconds.
    pub wall_secs: f64,
    /// Answered queries per second of wall clock.
    pub throughput_qps: f64,
    /// Fleet-wide request/session/ingest counters.
    pub counters: SoakCounters,
    /// Client-observed query latency quantiles (p50/p95/p99/max) from
    /// the merged per-user histograms.
    pub client_latency: HistogramSummary,
    /// Degraded answers per answered query.
    pub degraded_rate: f64,
    /// Requests shed by admission control per attempted query.
    pub shed_rate: f64,
    /// Circuit-breaker open transitions of the router's node breakers
    /// (0 against a single node, which has no breaker).
    pub breaker_trips: u64,
    /// Mean precision-at-k per feedback iteration.
    pub precision_at_k: Vec<IterationRow>,
    /// Scheduled-chaos fire counts per failpoint.
    pub chaos: Vec<ChaosHit>,
    /// The server-side metrics snapshot at soak end (wire schema).
    pub metrics: MetricsSnapshot,
    /// Outcome of the `--kill-leader-ms` leader-kill chaos scenario
    /// (`None` when no kill was scheduled).
    pub leader_kill: Option<LeaderKillReport>,
}

/// What the leader-kill chaos scenario (`soak --cluster
/// --kill-leader-ms N`) observed: the ingest partition's leader is
/// shut down mid-soak, the router promotes a follower under load, and
/// the run asserts two bars — no majority-acked ingest is lost across
/// the promotion, and a read-after-ack probe after the kill finds each
/// freshly acked ingest in the very next query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeaderKillReport {
    /// Soak offset at which the leader was killed, milliseconds.
    pub at_ms: u64,
    /// Partition whose leader was killed (the ingest partition).
    pub partition: usize,
    /// Replica index that was leader at the kill.
    pub killed_replica: usize,
    /// Replica index serving as leader at soak end.
    pub final_leader: usize,
    /// Router promotions observed over the whole run.
    pub promotions: u64,
    /// Elections the router won over the whole run.
    pub elections_won: u64,
    /// Majority-acked record floor at the kill: the median replica
    /// total across the partition — every acked ingest is ≤ this on a
    /// majority, so the new leader must end at or above it.
    pub acked_floor_at_kill: u64,
    /// The final leader's committed total at soak end.
    pub final_leader_total: u64,
    /// `final_leader_total >= acked_floor_at_kill`: no acked ingest
    /// was lost across the promotion.
    pub acked_ingest_survived: bool,
    /// Read-after-ack probe rounds run after the soak (each ingests a
    /// marker and immediately queries it back through a session).
    pub ryw_probe_rounds: u64,
    /// Probe rounds whose query did NOT return the freshly acked
    /// marker — the bar requires zero.
    pub ryw_violations: u64,
}

impl SoakReport {
    /// Assembles the report from a finished run and the target's final
    /// metrics snapshot.
    pub fn new(
        config: &SoakConfig,
        target: String,
        outcome: &SoakOutcome,
        metrics: MetricsSnapshot,
    ) -> SoakReport {
        let wall_secs = outcome.wall.as_secs_f64();
        let attempts = outcome.counters.queries_ok + outcome.counters.query_errors;
        SoakReport {
            seed: config.seed,
            target,
            users: config.users,
            sessions_per_user: config.sessions_per_user,
            iterations: config.iterations,
            k: config.k,
            wall_secs,
            throughput_qps: if wall_secs > 0.0 {
                outcome.counters.queries_ok as f64 / wall_secs
            } else {
                0.0
            },
            counters: outcome.counters.clone(),
            client_latency: outcome.latency.summary(),
            degraded_rate: outcome.counters.degraded_responses as f64
                / outcome.counters.queries_ok.max(1) as f64,
            shed_rate: metrics.faults.overload_rejections as f64 / attempts.max(1) as f64,
            breaker_trips: metrics.cluster.node_breaker_trips,
            precision_at_k: outcome.precision.clone(),
            chaos: outcome.chaos.clone(),
            metrics,
            leader_kill: None,
        }
    }
}

/// Host + build fingerprint embedded in every artifact, one
/// `"key": value,` line per field at the given indent.
///
/// Core-count-dependent numbers must stay auditable from the artifact
/// alone: the JSON records how many cores the host had, what the build
/// targeted (`target_cpu` mirrors the workspace `.cargo/config.toml`
/// pin, `target_features` proves it took effect), and when the run
/// happened.
pub fn host_fingerprint_json(indent: &str) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut features: Vec<&str> = Vec::new();
    #[cfg(target_feature = "avx2")]
    features.push("avx2");
    #[cfg(target_feature = "fma")]
    features.push("fma");
    #[cfg(target_feature = "sse4.2")]
    features.push("sse4.2");
    #[cfg(target_feature = "neon")]
    features.push("neon");
    format!(
        "{indent}\"cores\": {cores},\n\
         {indent}\"arch\": \"{arch}\",\n\
         {indent}\"target_cpu\": \"native\",\n\
         {indent}\"target_features\": [{features}],\n\
         {indent}\"unix_timestamp\": {timestamp},\n",
        arch = std::env::consts::ARCH,
        features = features
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", "),
    )
}

/// `{ "bench": "<bench>", <host fingerprint…>, "<key>": <body> }`.
fn artifact_json<T: Serialize>(
    bench: &str,
    key: &str,
    body: &T,
) -> Result<String, serde_json::Error> {
    let body = serde_json::to_string_pretty(body)?;
    Ok(format!(
        "{{\n  \"bench\": \"{bench}\",\n{fingerprint}  \"{key}\": {body}\n}}\n",
        fingerprint = host_fingerprint_json("  "),
    ))
}

fn write_artifact(
    path: impl AsRef<std::path::Path>,
    json: Result<String, serde_json::Error>,
) -> std::io::Result<()> {
    let json =
        json.map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json)
}

/// Serializes one report into the shared bench-artifact schema:
///
/// ```json
/// { "bench": "soak", <host fingerprint…>, "report": { … } }
/// ```
///
/// # Errors
///
/// Serialization failure.
pub fn soak_artifact_json(report: &SoakReport) -> Result<String, serde_json::Error> {
    artifact_json("soak", "report", report)
}

/// Writes [`soak_artifact_json`] to `path`.
///
/// # Errors
///
/// Serialization or filesystem failures, as `std::io::Error`.
pub fn write_soak_artifact(
    path: impl AsRef<std::path::Path>,
    report: &SoakReport,
) -> std::io::Result<()> {
    write_artifact(path, soak_artifact_json(report))
}

/// Serializes one service [`MetricsSnapshot`] into the shared metrics
/// artifact schema:
///
/// ```json
/// { "bench": "<name>", <host fingerprint…>, "metrics": { …snapshot… } }
/// ```
///
/// The `metrics` value is the serde serialization of `MetricsSnapshot`
/// itself — the exact bytes a wire `Request::Stats` round-trip carries —
/// so the soak report, one-shot scrapes of a live server, and any
/// external monitoring that polls `Stats` all parse **one** schema and
/// can be diffed against each other field-for-field.
///
/// # Errors
///
/// Serialization failure.
pub fn metrics_artifact_json(
    bench: &str,
    snapshot: &MetricsSnapshot,
) -> Result<String, serde_json::Error> {
    artifact_json(bench, "metrics", snapshot)
}

/// Writes [`metrics_artifact_json`] to `path` (one-shot `Stats` dump).
///
/// # Errors
///
/// Serialization or filesystem failures, as `std::io::Error`.
pub fn write_metrics_artifact(
    path: impl AsRef<std::path::Path>,
    bench: &str,
    snapshot: &MetricsSnapshot,
) -> std::io::Result<()> {
    write_artifact(path, metrics_artifact_json(bench, snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::SoakOutcome;
    use qcluster_service::LatencyHistogram;
    use std::time::Duration;

    fn outcome() -> SoakOutcome {
        let latency = LatencyHistogram::default();
        latency.record(Duration::from_micros(300));
        latency.record(Duration::from_micros(900));
        SoakOutcome {
            wall: Duration::from_secs(2),
            counters: SoakCounters {
                queries_ok: 8,
                query_errors: 2,
                degraded_responses: 4,
                ..SoakCounters::default()
            },
            latency,
            precision: vec![IterationRow {
                iteration: 0,
                mean_precision: 0.75,
                std_precision: 0.1,
                mean_recall: 0.5,
                sessions: 8,
            }],
            chaos: vec![ChaosHit {
                failpoint: "executor.shard".into(),
                hits: 3,
            }],
        }
    }

    fn metrics() -> MetricsSnapshot {
        let service = qcluster_service::Service::new(
            &[
                vec![0.0, 0.0],
                vec![1.0, 1.0],
                vec![2.0, 2.0],
                vec![3.0, 3.0],
            ],
            qcluster_service::ServiceConfig {
                num_shards: 2,
                num_workers: 1,
                ..qcluster_service::ServiceConfig::default()
            },
        )
        .unwrap();
        service.stats()
    }

    #[test]
    fn report_derives_rates_from_counters() {
        let report = SoakReport::new(
            &SoakConfig::default(),
            "tcp://t".into(),
            &outcome(),
            metrics(),
        );
        assert!((report.wall_secs - 2.0).abs() < 1e-9);
        assert!((report.throughput_qps - 4.0).abs() < 1e-9);
        assert!((report.degraded_rate - 0.5).abs() < 1e-9);
        assert_eq!(report.client_latency.count, 2);
        assert!(report.client_latency.p50_ns > 0);
    }

    #[test]
    fn breaker_trips_count_the_routers_node_breakers() {
        let mut snapshot = metrics();
        snapshot.cluster.node_breaker_trips = 8;
        // Always 0 on a node; not counted even where a snapshot sets it.
        snapshot.faults.breaker_trips = 5;
        let report = SoakReport::new(
            &SoakConfig::default(),
            "router://t".into(),
            &outcome(),
            snapshot,
        );
        assert_eq!(report.breaker_trips, 8);
    }

    #[test]
    fn artifact_round_trips_through_the_wire_schema() {
        let report = SoakReport::new(
            &SoakConfig::default(),
            "tcp://t".into(),
            &outcome(),
            metrics(),
        );
        let json = soak_artifact_json(&report).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value.get("bench").and_then(|v| v.as_str()), Some("soak"));
        assert!(value.get("cores").is_some());
        assert!(value.get("unix_timestamp").is_some());
        let body = serde_json::to_string(value.get("report").unwrap()).unwrap();
        let decoded: SoakReport = serde_json::from_str(&body).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn metrics_artifact_is_valid_json_with_fingerprint_and_snapshot() {
        let snapshot = metrics();
        let json = metrics_artifact_json("stats", &snapshot).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value.get("bench").and_then(|v| v.as_str()), Some("stats"));
        assert!(value.get("cores").is_some());
        assert!(value.get("unix_timestamp").is_some());
        // The embedded metrics round-trip back into the snapshot type:
        // one schema for the artifact and the wire.
        let metrics = serde_json::to_string(value.get("metrics").unwrap()).unwrap();
        let decoded: MetricsSnapshot = serde_json::from_str(&metrics).unwrap();
        assert_eq!(decoded, snapshot);
    }

    #[test]
    fn host_fingerprint_records_auditable_host_facts() {
        let json = host_fingerprint_json("  ");
        assert!(json.contains("\"cores\": "));
        assert!(json.contains("\"target_cpu\": \"native\""));
        assert!(json.contains("\"unix_timestamp\": "));
        assert!(json.contains(std::env::consts::ARCH));
        // Every line must be a complete `"key": value,` fragment so it
        // can be spliced into hand-built JSON objects.
        for line in json.lines() {
            assert!(line.trim_end().ends_with(','), "fragment line: {line:?}");
        }
    }

    #[test]
    fn leader_kill_section_round_trips_and_defaults_to_none() {
        let mut report = SoakReport::new(
            &SoakConfig::default(),
            "router://t".into(),
            &outcome(),
            metrics(),
        );
        report.leader_kill = Some(LeaderKillReport {
            at_ms: 500,
            partition: 2,
            killed_replica: 0,
            final_leader: 1,
            promotions: 1,
            elections_won: 1,
            acked_floor_at_kill: 40,
            final_leader_total: 57,
            acked_ingest_survived: true,
            ryw_probe_rounds: 16,
            ryw_violations: 0,
        });
        let json = soak_artifact_json(&report).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let body = serde_json::to_string(value.get("report").unwrap()).unwrap();
        let decoded: SoakReport = serde_json::from_str(&body).unwrap();
        assert_eq!(decoded, report);
        // Artifacts written before the scenario existed still parse.
        let stripped = {
            let v: serde_json::Value = serde_json::from_str(&body).unwrap();
            let serde::Value::Map(mut entries) = v else {
                panic!("report body is not an object");
            };
            entries.retain(|(k, _)| k != "leader_kill");
            serde_json::to_string(&serde::Value::Map(entries)).unwrap()
        };
        let legacy: SoakReport = serde_json::from_str(&stripped).unwrap();
        assert_eq!(legacy.leader_kill, None);
    }
}
