//! Soak-vs-offline quality equivalence (the acceptance bar): with
//! chaos disarmed, a seeded soak's per-iteration precision-at-k must
//! match the offline `qcluster-eval` baseline built from the *same*
//! fleet plan to within tie-break noise.
//!
//! Both sides run identical query images, iteration counts, marking
//! protocol (including the feed-the-example fallback), and engine
//! configuration; the only differences are sharded execution and the
//! TCP hop, neither of which may change *what* is retrieved beyond
//! equal-distance tie ordering.

use qcluster_cli::{offline_baseline, run_soak, SoakBackend, SoakConfig, TcpBackend};
use qcluster_core::{QclusterConfig, QclusterEngine};
use qcluster_eval::{run_session, FeedbackSession};
use qcluster_net::{ClientConfig, Server, ServerConfig};
use qcluster_service::{Service, ServiceConfig};
use std::sync::Arc;

const EPSILON: f64 = 0.05;

#[test]
fn chaos_free_soak_matches_offline_baseline_within_epsilon() {
    let _serial = qcluster_failpoint::test_lock();
    qcluster_failpoint::clear_all();

    let dataset =
        qcluster_eval::Dataset::small_default(qcluster_imaging::FeatureKind::ColorMoments, 9)
            .unwrap();
    let points: Vec<Vec<f64>> = (0..dataset.len())
        .map(|i| dataset.vector(i).to_vec())
        .collect();
    let service = Service::new(
        &points,
        ServiceConfig {
            num_shards: 4,
            num_workers: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", Arc::new(service), ServerConfig::default()).unwrap();
    let backend = TcpBackend::connect(server.local_addr(), ClientConfig::default()).unwrap();

    let config = SoakConfig {
        seed: 77,
        users: 12,
        sessions_per_user: 1,
        iterations: 3,
        k: 12,
        think_ms: 0,
        abandon_per_mille: 0,
        ingest_per_sec: 0,
        deadline_ms: None,
        chaos: Vec::new(),
    };

    let soak = run_soak(&dataset, &backend, &config).unwrap();
    assert_eq!(soak.counters.query_errors, 0, "healthy target, no chaos");
    assert_eq!(soak.counters.degraded_responses, 0);

    let offline = offline_baseline(&dataset, &config).unwrap();
    assert_eq!(soak.precision.len(), offline.len());
    for (served, reference) in soak.precision.iter().zip(offline.iter()) {
        assert_eq!(served.iteration, reference.iteration);
        assert_eq!(
            served.sessions, reference.sessions,
            "iteration {}: both sides replay the same plan",
            served.iteration
        );
        let delta = (served.mean_precision - reference.mean_precision).abs();
        assert!(
            delta <= EPSILON,
            "iteration {}: served {:.4} vs offline {:.4} (|Δ| = {:.4} > ε = {EPSILON})",
            served.iteration,
            served.mean_precision,
            reference.mean_precision,
            delta
        );
    }
    // The baseline itself must be deterministic — same seed, same curve.
    assert_eq!(offline, offline_baseline(&dataset, &config).unwrap());

    server.shutdown();
}

/// With one loop on both sides the ε gate on means is backed by an
/// exact check: the in-process target and the shipped default service
/// over TCP, driven by the same stepper, return the same ranked ids at
/// every round of every session.
#[test]
fn served_and_offline_sessions_agree_id_for_id() {
    let _serial = qcluster_failpoint::test_lock();
    qcluster_failpoint::clear_all();

    let dataset =
        qcluster_eval::Dataset::small_default(qcluster_imaging::FeatureKind::ColorMoments, 9)
            .unwrap();
    let service = Service::new(dataset.vectors(), ServiceConfig::default()).unwrap();
    let server = Server::bind("127.0.0.1:0", Arc::new(service), ServerConfig::default()).unwrap();
    let backend = TcpBackend::connect(server.local_addr(), ClientConfig::default()).unwrap();
    let mut served = backend.user_target().unwrap();

    let (k, rounds) = (12, 3);
    let offline = FeedbackSession::new(&dataset, k);
    let mut engine = QclusterEngine::new(QclusterConfig::default());
    let ranked = |outcome: qcluster_eval::SessionOutcome| -> Vec<Vec<usize>> {
        outcome
            .iterations
            .into_iter()
            .map(|r| r.retrieved)
            .collect()
    };
    let mut compared = 0;
    for query_image in (0..dataset.len()).step_by(3) {
        let over_wire = run_session(served.as_mut(), &dataset, query_image, k, rounds).unwrap();
        let in_process = offline.run(&mut engine, query_image, rounds).unwrap();
        compared += over_wire.iterations.len();
        assert_eq!(
            ranked(over_wire),
            ranked(in_process),
            "example {query_image}"
        );
    }
    assert_eq!(compared, 48 * 4, "every third of 144 images, 4 rounds each");

    server.shutdown();
}
