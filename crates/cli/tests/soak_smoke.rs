//! The CI smoke soak: a small fleet over a **real TCP server** with one
//! scheduled fault, asserting completion, quality bounds, and a valid
//! `BENCH_soak.json`-schema artifact.

use qcluster_cli::{
    run_soak, soak_artifact_json, ChaosEvent, ChaosKind, SoakBackend, SoakConfig, SoakReport,
    TcpBackend,
};
use qcluster_net::{ClientConfig, Server, ServerConfig};
use qcluster_service::{Service, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

fn dataset() -> qcluster_eval::Dataset {
    // 12 categories × 12 images, dim 3 — small enough that 16 users ×
    // 4 query rounds finish in seconds on one core.
    qcluster_eval::Dataset::small_default(qcluster_imaging::FeatureKind::ColorMoments, 9).unwrap()
}

fn serve_with(dataset: &qcluster_eval::Dataset, kind: qcluster_service::ShardKind) -> Server {
    let points: Vec<Vec<f64>> = (0..dataset.len())
        .map(|i| dataset.vector(i).to_vec())
        .collect();
    let service = Service::new(
        &points,
        ServiceConfig {
            num_shards: 2,
            num_workers: 2,
            shard_kind: kind,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    Server::bind("127.0.0.1:0", Arc::new(service), ServerConfig::default()).unwrap()
}

fn serve(dataset: &qcluster_eval::Dataset) -> Server {
    serve_with(dataset, qcluster_service::ShardKind::default())
}

#[test]
fn smoke_soak_over_tcp_with_scheduled_chaos() {
    let _serial = qcluster_failpoint::test_lock();
    qcluster_failpoint::clear_all();

    let dataset = dataset();
    let server = serve(&dataset);
    let backend = TcpBackend::connect(
        server.local_addr(),
        ClientConfig {
            read_timeout: Duration::from_secs(30),
            ..ClientConfig::default()
        },
    )
    .unwrap();

    let config = SoakConfig {
        seed: 21,
        users: 16,
        sessions_per_user: 1,
        iterations: 3,
        k: 12,
        think_ms: 20,
        // One scheduled fault early in the run: every shard job stalls
        // briefly, twice. The server is in-process, so the
        // process-global failpoint is reachable.
        chaos: vec![ChaosEvent {
            at_ms: 10,
            kind: ChaosKind::NodeStall { ms: 30 },
            fires: 2,
        }],
        ..SoakConfig::default()
    };
    let outcome = run_soak(&dataset, &backend, &config).unwrap();

    // Completion: every session ran to plan, every planned query round
    // was answered (the stall slows rounds, it doesn't fail them).
    assert_eq!(outcome.counters.sessions_completed, 16);
    assert_eq!(outcome.counters.session_errors, 0);
    assert_eq!(outcome.counters.queries_ok, 16 * 4);
    assert_eq!(outcome.counters.query_errors, 0);
    assert_eq!(outcome.counters.feed_errors, 0);
    assert_eq!(outcome.latency.summary().count, 16 * 4);

    // The scheduled fault actually landed.
    assert_eq!(outcome.chaos.len(), 1);
    assert_eq!(outcome.chaos[0].failpoint, "executor.shard");
    assert!(
        outcome.chaos[0].hits >= 1,
        "scheduled chaos never fired: {:?}",
        outcome.chaos
    );
    // And the scheduler disarmed it afterwards.
    assert!(qcluster_failpoint::evaluate("executor.shard").is_none());

    // Quality bounds: every iteration saw every session, feedback must
    // not collapse retrieval quality below the initial example query.
    assert_eq!(outcome.precision.len(), 4);
    for q in &outcome.precision {
        assert_eq!(q.sessions, 16, "iteration {}", q.iteration);
        assert!(q.mean_precision > 0.0, "iteration {}", q.iteration);
    }
    let initial = outcome.precision[0].mean_precision;
    let fin = outcome.precision.last().unwrap().mean_precision;
    assert!(
        fin >= initial - 0.05,
        "feedback degraded precision: {initial:.4} -> {fin:.4}"
    );

    // The artifact validates: bench tag + fingerprint + report that
    // round-trips, with the embedded metrics decoding under the wire
    // schema.
    let metrics = backend.stats().unwrap();
    assert!(metrics.query.count >= 16 * 4);
    assert!(metrics.transport.frames_in > 0, "soak must cross real TCP");
    let report = SoakReport::new(&config, backend.label(), &outcome, metrics);
    let json = soak_artifact_json(&report).unwrap();
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(value.get("bench").and_then(|v| v.as_str()), Some("soak"));
    assert!(value.get("cores").is_some());
    assert!(value.get("unix_timestamp").is_some());
    let body = serde_json::to_string(value.get("report").unwrap()).unwrap();
    let decoded: SoakReport = serde_json::from_str(&body).unwrap();
    assert_eq!(decoded.precision_at_k.len(), 4);
    assert_eq!(decoded, report);

    let shutdown = server.shutdown();
    assert_eq!(shutdown.aborted_inflight, 0);
}

#[test]
fn quantized_soak_matches_exact_service_trajectory() {
    let _serial = qcluster_failpoint::test_lock();
    qcluster_failpoint::clear_all();

    let dataset = dataset();
    let config = SoakConfig {
        seed: 77,
        users: 8,
        sessions_per_user: 1,
        iterations: 3,
        k: 12,
        ..SoakConfig::default()
    };

    // Same seeded fleet against an exact-scan server and a quantized
    // two-phase server. The workload is byte-identical per user, and the
    // feedback loop is driven entirely by retrieved ids — so if the
    // served two-phase scan is bit-for-bit exact, every session follows
    // the identical trajectory and the precision curves match exactly.
    let run = |kind| {
        let server = serve_with(&dataset, kind);
        let backend = TcpBackend::connect(server.local_addr(), ClientConfig::default()).unwrap();
        let outcome = run_soak(&dataset, &backend, &config).unwrap();
        let metrics = backend.stats().unwrap();
        server.shutdown();
        (outcome, metrics)
    };
    let (exact, _) = run(qcluster_service::ShardKind::Scan);
    let (quant, metrics) = run(qcluster_service::ShardKind::Quantized);

    assert_eq!(quant.counters.sessions_completed, 8);
    assert_eq!(quant.counters.query_errors, 0);
    assert_eq!(exact.precision, quant.precision, "served path diverged");

    // The quantized path actually ran: phase 1 touched every point at
    // least once and phase 2 reranked a strict subset.
    assert!(metrics.quant.phase1_points > 0);
    assert!(metrics.quant.reranked > 0);
    assert_eq!(metrics.quant.plan_misses, 0);
}

#[test]
fn soak_abandonment_and_errors_are_accounted() {
    let _serial = qcluster_failpoint::test_lock();
    qcluster_failpoint::clear_all();

    let dataset = dataset();
    let server = serve(&dataset);
    let backend = TcpBackend::connect(server.local_addr(), ClientConfig::default()).unwrap();

    let config = SoakConfig {
        seed: 33,
        users: 10,
        sessions_per_user: 2,
        iterations: 3,
        k: 8,
        abandon_per_mille: 500,
        ..SoakConfig::default()
    };
    let outcome = run_soak(&dataset, &backend, &config).unwrap();
    let c = &outcome.counters;
    assert_eq!(
        c.sessions_completed + c.sessions_abandoned + c.session_errors,
        20
    );
    assert_eq!(c.session_errors, 0);
    assert!(c.sessions_abandoned > 0, "500‰ should abandon something");
    assert!(c.sessions_completed > 0, "500‰ should complete something");
    // Abandoned sessions thin out later iterations, never earlier ones.
    for w in outcome.precision.windows(2) {
        assert!(w[1].sessions <= w[0].sessions);
    }
    assert_eq!(outcome.precision[0].sessions, 20);

    // Ingest against a memory-only service is an error path the soak
    // must absorb, not abort on.
    let config = SoakConfig {
        seed: 34,
        users: 2,
        iterations: 1,
        k: 8,
        ingest_per_sec: 50,
        ..SoakConfig::default()
    };
    let outcome = run_soak(&dataset, &backend, &config).unwrap();
    assert_eq!(outcome.counters.ingests_ok, 0);
    assert!(outcome.counters.ingest_errors > 0);
    assert_eq!(outcome.counters.session_errors, 0);

    server.shutdown();
}
