//! Wire-protocol coverage: every `Request` and `Response` variant must
//! survive the binary codec bit for bit, because every frame a client
//! or server writes carries one, and a JSON round-trip, because
//! artifacts and the benchmark still use the serde derives. A frame
//! carrying NaN or ±∞ is answered with a typed `InvalidRequest` and
//! changes nothing.

use qcluster_net::{
    decode_request, decode_response, encode_request, encode_response, Client, ClientConfig, Server,
    ServerConfig,
};
use qcluster_service::{
    FeedPointDto, InverseSpec, MetricsSnapshot, QuerySpec, RepresentativeSpec, Request, Response,
    Service, ServiceConfig, ServiceError, StoreConfig,
};
use std::sync::Arc;

mod samples;

/// Through the codec and back bit for bit (an `f64`'s `Debug` form is
/// its shortest round-trip text, so equal text is equal bits, −0.0 and
/// 5e-324 included), and through JSON and back.
fn roundtrip_request(req: &Request) {
    let bytes = encode_request(req);
    let back = decode_request(&bytes).expect("decode request");
    assert_eq!(format!("{back:?}"), format!("{req:?}"), "bits moved");
    let json = serde_json::to_string(req).expect("serialize request");
    let back: Request = serde_json::from_str(&json).expect("deserialize request");
    assert_eq!(*req, back, "request mangled by JSON: {json}");
}

fn roundtrip_response(resp: &Response) {
    let bytes = encode_response(resp);
    let back = decode_response(&bytes).expect("decode response");
    assert_eq!(format!("{back:?}"), format!("{resp:?}"), "bits moved");
    let json = serde_json::to_string(resp).expect("serialize response");
    let back: Response = serde_json::from_str(&json).expect("deserialize response");
    assert_eq!(*resp, back, "response mangled by JSON: {json}");
}

#[test]
fn every_request_variant_roundtrips() {
    for req in samples::requests() {
        roundtrip_request(&req);
    }
}

#[test]
fn every_response_variant_roundtrips() {
    for resp in samples::responses() {
        roundtrip_response(&resp);
    }
}

#[test]
fn every_error_variant_roundtrips() {
    for err in samples::errors() {
        roundtrip_response(&Response::Error(err));
    }
}

#[test]
fn live_stats_snapshot_roundtrips() {
    // A snapshot off a real service, so float fields (mean latencies,
    // hit ratio) go through its JSON string with real values rather
    // than zeros.
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
    assert_eq!(back.query_percentiles.count, 2);
    assert_eq!(back.feed.count, 1);
    assert_eq!(back.active_sessions, 1);
    assert_eq!(
        back.query_percentiles.mean_ns,
        snapshot.query_percentiles.mean_ns
    );
    assert_eq!(back.plan_cache_misses, snapshot.plan_cache_misses);

    roundtrip_response(&Response::Stats(Box::new(snapshot)));
}

/// Asserts `request` is answered with a typed `InvalidRequest`.
fn assert_refused(client: &mut Client, request: Request) {
    match client.call(&request).unwrap() {
        Response::Error(ServiceError::InvalidRequest(_)) => {}
        other => panic!("{request:?} must be refused, got {other:?}"),
    }
}

#[test]
fn non_finite_frames_are_refused_and_change_nothing() {
    let dir = std::env::temp_dir().join(format!("qcluster-net-non-finite-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let points: Vec<Vec<f64>> = (0..40)
        .map(|i| vec![(i % 8) as f64, (i / 8) as f64])
        .collect();
    let service = Arc::new(
        Service::open_durable(
            &dir,
            &points,
            ServiceConfig::default(),
            StoreConfig::default(),
        )
        .unwrap(),
    );
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), ClientConfig::default()).unwrap();
    let Response::SessionCreated { session } = client
        .call(&Request::CreateSession { engine: None })
        .unwrap()
    else {
        panic!("expected SessionCreated")
    };
    let total = service.total_vectors();

    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_refused(
            &mut client,
            Request::Query {
                session,
                k: 3,
                vector: Some(vec![1.0, bad]),
                deadline_ms: None,
            },
        );
        assert_refused(
            &mut client,
            Request::Ingest {
                vector: vec![bad, 0.0],
            },
        );
        assert_eq!(
            service.total_vectors(),
            total,
            "a refused ingest adds nothing"
        );
        assert_refused(
            &mut client,
            Request::Feed {
                session,
                relevant_ids: vec![0, 1],
                scores: Some(vec![1.0, bad]),
            },
        );
        for point in [
            FeedPointDto {
                id: 0,
                vector: vec![0.0, bad],
                score: 1.0,
            },
            FeedPointDto {
                id: 0,
                vector: vec![0.0, 0.0],
                score: bad,
            },
        ] {
            assert_refused(
                &mut client,
                Request::FeedPoints {
                    session,
                    points: vec![point],
                },
            );
        }
        assert_refused(
            &mut client,
            Request::QueryCompiled {
                query: QuerySpec::Cluster(RepresentativeSpec {
                    mean: vec![0.0, 0.0],
                    inverse: InverseSpec::Full(vec![1.0, 0.0, bad, 1.0]),
                    mass: 1.0,
                    min_eigenvalue: 0.5,
                }),
                k: 3,
                deadline_ms: None,
                bound: None,
            },
        );
        // A finite query with a bound that is not a distance.
        for bound in [bad, -bad.abs(), 0.0, -1.0] {
            assert_refused(
                &mut client,
                Request::QueryCompiled {
                    query: QuerySpec::Euclidean {
                        center: vec![0.0, 0.0],
                    },
                    k: 3,
                    deadline_ms: None,
                    bound: Some(bound),
                },
            );
        }
    }

    // Nothing moved: the session was never fed, so its first accepted
    // feed is iteration 1, and the store took no vector.
    match client
        .call(&Request::Feed {
            session,
            relevant_ids: vec![0, 1],
            scores: None,
        })
        .unwrap()
    {
        Response::FeedAccepted { iteration, .. } => assert_eq!(iteration, 1),
        other => panic!("expected FeedAccepted, got {other:?}"),
    }
    assert_eq!(service.total_vectors(), total);
    assert_eq!(service.stats().transport.decode_errors, 0);
    drop(client);
    assert!(server.shutdown().clean());
    drop(service);
    std::fs::remove_dir_all(&dir).ok();
}
