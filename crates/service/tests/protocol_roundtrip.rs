//! Wire-protocol serde coverage: every `Request` and `Response` variant
//! must survive a JSON round-trip bit-for-bit, because any byte
//! transport fronting the service depends on it.

use qcluster_service::{
    AggregateSpec, MetricsSnapshot, NeighborDto, PointSpec, QuerySpec, Request, Response,
    SearchStatsDto, Service, ServiceConfig, ServiceError,
};

fn roundtrip_request(req: &Request) {
    let json = serde_json::to_string(req).expect("serialize request");
    let back: Request = serde_json::from_str(&json).expect("deserialize request");
    assert_eq!(*req, back, "request mangled by round-trip: {json}");
}

fn roundtrip_response(resp: &Response) {
    let json = serde_json::to_string(resp).expect("serialize response");
    let back: Response = serde_json::from_str(&json).expect("deserialize response");
    assert_eq!(*resp, back, "response mangled by round-trip: {json}");
}

#[test]
fn every_request_variant_roundtrips() {
    for req in [
        Request::CreateSession { engine: None },
        Request::CreateSession {
            engine: Some("qpm".into()),
        },
        Request::Query {
            session: 42,
            k: 10,
            vector: Some(vec![0.25, -1.5, 3.0]),
            deadline_ms: None,
        },
        Request::Query {
            session: 42,
            k: 10,
            vector: None,
            deadline_ms: Some(150),
        },
        Request::Feed {
            session: 7,
            relevant_ids: vec![1, 5, 9],
            scores: Some(vec![3.0, 2.0, 1.0]),
        },
        Request::Feed {
            session: 7,
            relevant_ids: vec![],
            scores: None,
        },
        Request::CloseSession { session: 3 },
        Request::Stats,
        Request::QueryCompiled {
            query: QuerySpec::MultiPoint {
                points: vec![PointSpec {
                    center: vec![0.1, -2.5],
                    weights: vec![1.0, 0.3],
                    mass: 2.0,
                }],
                aggregate: AggregateSpec::FuzzyOr { alpha: -5.0 },
            },
            k: 10,
            deadline_ms: Some(150),
        },
    ] {
        roundtrip_request(&req);
    }
}

#[test]
fn every_response_variant_roundtrips() {
    let stats = SearchStatsDto {
        nodes_accessed: 12,
        cache_hits: 4,
        disk_reads: 8,
        distance_evaluations: 250,
    };
    for resp in [
        Response::SessionCreated { session: 11 },
        Response::Neighbors {
            session: 11,
            neighbors: vec![
                NeighborDto {
                    id: 3,
                    distance: 0.125,
                },
                NeighborDto {
                    id: 8,
                    distance: 2.5,
                },
            ],
            stats: stats.clone(),
            shards_ok: 2,
            shards_total: 4,
            nodes_ok: 1,
            nodes_total: 1,
            degraded: true,
        },
        Response::FeedAccepted {
            session: 11,
            iteration: 2,
            clusters: Some(3),
        },
        Response::FeedAccepted {
            session: 11,
            iteration: 1,
            clusters: None,
        },
        Response::SessionClosed { session: 11 },
    ] {
        roundtrip_response(&resp);
    }
}

#[test]
fn every_error_variant_roundtrips() {
    for err in [
        ServiceError::UnknownSession(99),
        ServiceError::DimensionMismatch {
            expected: 3,
            found: 2,
        },
        ServiceError::EmptyFeedback,
        ServiceError::InvalidImageId {
            id: 1000,
            corpus_len: 512,
        },
        ServiceError::InvalidRequest("k must be positive".into()),
        ServiceError::Engine("no clusters yet".into()),
        ServiceError::Spawn("thread limit".into()),
        ServiceError::Overloaded {
            queued: 4096,
            capacity: 4096,
        },
        ServiceError::DeadlineExceeded {
            waited_ms: 150,
            shards_ok: 0,
            shards_total: 4,
        },
        ServiceError::Internal("channel disconnected".into()),
    ] {
        roundtrip_response(&Response::Error(err));
    }
}

#[test]
fn live_stats_snapshot_roundtrips() {
    // A snapshot off a real service, so float fields (mean latencies,
    // hit ratio) go through JSON with real values rather than zeros.
    let points: Vec<Vec<f64>> = (0..32)
        .map(|i| vec![i as f64, (i * i % 7) as f64])
        .collect();
    let service = Service::new(&points, ServiceConfig::default()).unwrap();
    let session = service.create_session().unwrap();
    service.query_vector(session, vec![4.0, 2.0], 5).unwrap();
    service.feed_ids(session, &[0, 1, 2], None).unwrap();
    service.query(session, 5).unwrap();

    let snapshot = service.stats();
    let json = serde_json::to_string(&snapshot).expect("serialize snapshot");
    let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserialize snapshot");
    assert_eq!(back.query.count, 2);
    assert_eq!(back.feed.count, 1);
    assert_eq!(back.active_sessions, 1);
    assert_eq!(back.query.mean_ns, snapshot.query.mean_ns);
    assert_eq!(back.plan_cache_misses, snapshot.plan_cache_misses);

    roundtrip_response(&Response::Stats(Box::new(snapshot)));
}
