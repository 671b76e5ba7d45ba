//! Transport integration suite against a real localhost server: wire
//! answers must match in-process `dispatch` bit-for-bit, malformed
//! frames must get typed replies on the same connection, and capacity
//! limits must reject with typed frames instead of silent closes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use qcluster_net::{
    decode_response, encode_frame, encode_request, Client, ClientConfig, FrameKind, NetError,
    Server, ServerConfig, HEADER_LEN,
};
use qcluster_service::{dispatch, Request, Response, Service, ServiceConfig, ServiceError};

/// Four well-spread blobs, 64 points each.
fn corpus() -> Vec<Vec<f64>> {
    (0..256)
        .map(|i| {
            let a = i as f64 * 0.37;
            let blob = (i / 64) as f64 * 10.0;
            vec![blob + a.cos(), blob + a.sin()]
        })
        .collect()
}

fn service() -> Arc<Service> {
    Arc::new(Service::new(&corpus(), ServiceConfig::default()).expect("spawn service"))
}

fn fast_client_config() -> ClientConfig {
    ClientConfig {
        read_timeout: Duration::from_secs(10),
        ..ClientConfig::default()
    }
}

fn query(session: u64, x: f64, y: f64) -> Request {
    Request::Query {
        session,
        k: 7,
        vector: Some(vec![x, y]),
        deadline_ms: None,
    }
}

/// The headline acceptance scenario: 8 concurrent clients, each with
/// its own session, pipelining queries over the wire — every response
/// is identical to running the same request through in-process
/// `dispatch` on a twin service built from the same corpus.
#[test]
fn eight_concurrent_clients_match_in_process_dispatch() {
    let wire_service = service();
    let local_service = service();
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&wire_service),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    let mut joins = Vec::new();
    for c in 0..8u64 {
        let local_service = Arc::clone(&local_service);
        joins.push(thread::spawn(move || {
            let mut client = Client::connect(addr, fast_client_config()).unwrap();
            let Response::SessionCreated {
                session: wire_session,
            } = client
                .call(&Request::CreateSession { engine: None })
                .unwrap()
            else {
                panic!("expected SessionCreated")
            };
            let Response::SessionCreated {
                session: local_session,
            } = dispatch(&local_service, Request::CreateSession { engine: None })
            else {
                panic!("expected SessionCreated")
            };

            let queries: Vec<(f64, f64)> = (0..12)
                .map(|i| {
                    let t = (c * 12 + i) as f64;
                    (30.0 * (t * 0.11).sin().abs(), (t * 0.07).cos() + 1.0)
                })
                .collect();
            let wire_requests: Vec<Request> = queries
                .iter()
                .map(|&(x, y)| query(wire_session, x, y))
                .collect();
            let wire_responses: Vec<Response> = wire_requests
                .iter()
                .map(|r| client.call(r).unwrap())
                .collect();
            for (&(x, y), wire) in queries.iter().zip(&wire_responses) {
                let local = dispatch(&local_service, query(local_session, x, y));
                let (
                    Response::Neighbors {
                        neighbors: wn,
                        shards_ok: wok,
                        degraded: wd,
                        ..
                    },
                    Response::Neighbors {
                        neighbors: ln,
                        shards_ok: lok,
                        degraded: ld,
                        ..
                    },
                ) = (wire, &local)
                else {
                    panic!("expected Neighbors from both paths")
                };
                assert_eq!(wn, ln, "wire top-k diverged from in-process top-k");
                assert_eq!((wok, wd), (lok, ld), "coverage diverged");
            }

            // Feedback + refined re-query must agree too.
            let relevant: Vec<usize> = match &wire_responses[0] {
                Response::Neighbors { neighbors, .. } => {
                    neighbors.iter().take(3).map(|n| n.id).collect()
                }
                other => panic!("expected Neighbors, got {other:?}"),
            };
            let feed = |session: u64| Request::Feed {
                session,
                relevant_ids: relevant.clone(),
                scores: None,
            };
            let refined = |session: u64| Request::Query {
                session,
                k: 7,
                vector: None,
                deadline_ms: None,
            };
            let wire_feed = client.call(&feed(wire_session)).unwrap();
            let local_feed = dispatch(&local_service, feed(local_session));
            match (&wire_feed, &local_feed) {
                (
                    Response::FeedAccepted {
                        iteration: wi,
                        clusters: wc,
                        ..
                    },
                    Response::FeedAccepted {
                        iteration: li,
                        clusters: lc,
                        ..
                    },
                ) => assert_eq!((wi, wc), (li, lc)),
                other => panic!("expected FeedAccepted from both paths, got {other:?}"),
            }
            let wire_refined = client.call(&refined(wire_session)).unwrap();
            let local_refined = dispatch(&local_service, refined(local_session));
            match (&wire_refined, &local_refined) {
                (
                    Response::Neighbors { neighbors: wn, .. },
                    Response::Neighbors { neighbors: ln, .. },
                ) => assert_eq!(wn, ln, "refined wire top-k diverged"),
                other => panic!("expected Neighbors from both paths, got {other:?}"),
            }
        }));
    }
    for j in joins {
        j.join().expect("client thread");
    }

    let report = server.shutdown();
    assert!(report.clean(), "shutdown should be clean: {report:?}");

    // Transport counters surfaced through the service metrics.
    let snapshot = wire_service.stats();
    assert_eq!(snapshot.transport.connections_accepted, 8);
    assert_eq!(snapshot.transport.connections_active, 0);
    assert!(snapshot.transport.frames_in >= 8 * 15);
    assert!(snapshot.transport.frames_out >= snapshot.transport.frames_in);
    assert_eq!(snapshot.transport.decode_errors, 0);
    assert!(snapshot.query_percentiles.count >= 8 * 13);
}

/// A corrupt-CRC frame gets a typed error reply on the SAME connection,
/// and the connection remains usable for a subsequent valid frame.
#[test]
fn corrupt_frame_gets_typed_reply_and_connection_survives() {
    let svc = service();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&svc), ServerConfig::default()).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    // Hand-corrupt a valid frame's payload (CRC now wrong), and another
    // one's kind byte: 3 was a replication request before protocol 3.
    let payload = encode_request(&Request::Stats);
    let mut bad_crc = encode_frame(FrameKind::Request, 77, &payload);
    *bad_crc.last_mut().unwrap() ^= 0xFF;
    let mut bad_kind = encode_frame(FrameKind::Request, 79, &payload);
    bad_kind[5] = 3;
    for (bytes, id, expected) in [(bad_crc, 77, "crc"), (bad_kind, 79, "bad frame kind 3")] {
        stream.write_all(&bytes).unwrap();
        let reply = read_one_frame(&mut stream);
        assert_eq!(reply.0, id, "typed reply must echo the salvaged request id");
        match decode_response(&reply.1).unwrap() {
            Response::Error(e) => assert!(
                e.to_string().contains(expected),
                "expected a {expected:?} decode error, got: {e}"
            ),
            other => panic!("expected typed Error, got {other:?}"),
        }

        // Same connection, valid frame: must work.
        let bytes = encode_frame(FrameKind::Request, id + 1, &payload);
        stream.write_all(&bytes).unwrap();
        let reply = read_one_frame(&mut stream);
        assert_eq!(reply.0, id + 1);
        let response = decode_response(&reply.1).unwrap();
        assert!(
            matches!(response, Response::Stats(_)),
            "expected Stats after recovery"
        );
    }

    let snapshot = svc.stats();
    assert_eq!(snapshot.transport.decode_errors, 2);
    server.shutdown();
}

/// Unknown protocol versions and oversize declarations get a typed
/// reply, then the connection closes (the stream cannot be trusted).
#[test]
fn unknown_version_and_oversize_reply_then_close() {
    let svc = service();
    let config = ServerConfig {
        max_frame_len: 4096,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&svc), config).unwrap();

    // Unknown version byte.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let payload = encode_request(&Request::Stats);
    let mut bytes = encode_frame(FrameKind::Request, 5, &payload);
    bytes[4] = 9; // future version
    stream.write_all(&bytes).unwrap();
    let (id, body) = read_one_frame(&mut stream);
    assert_eq!(id, 5, "version errors salvage the request id");
    let response = decode_response(&body).unwrap();
    match response {
        Response::Error(e) => {
            assert!(e.to_string().contains("version"), "got: {e}")
        }
        other => panic!("expected typed Error, got {other:?}"),
    }
    expect_close(&mut stream);

    // Oversize declaration (1 MiB > the 4 KiB cap).
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut bytes = encode_frame(FrameKind::Request, 6, &payload);
    bytes[16..20].copy_from_slice(&(1u32 << 20).to_le_bytes());
    stream.write_all(&bytes).unwrap();
    let (id, body) = read_one_frame(&mut stream);
    assert_eq!(id, 6);
    let response = decode_response(&body).unwrap();
    match response {
        Response::Error(e) => assert!(e.to_string().contains("exceeds"), "got: {e}"),
        other => panic!("expected typed Error, got {other:?}"),
    }
    expect_close(&mut stream);

    assert_eq!(svc.stats().transport.decode_errors, 2);
    server.shutdown();
}

/// Garbage bytes (bad magic) get a best-effort typed reply with request
/// id 0, then the connection closes.
#[test]
fn garbage_bytes_get_typed_reply_with_id_zero() {
    let svc = service();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&svc), ServerConfig::default()).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let (id, body) = read_one_frame(&mut stream);
    assert_eq!(
        id, 0,
        "unsalvageable frames reply on the connection-level id"
    );
    let response = decode_response(&body).unwrap();
    assert!(matches!(response, Response::Error(_)));
    expect_close(&mut stream);
    server.shutdown();
}

/// Connections over `max_connections` get a typed `Overloaded` frame
/// (request id 0) and a close; the client surfaces it as `Rejected`.
#[test]
fn connection_over_capacity_is_rejected_with_typed_frame() {
    let svc = service();
    let config = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&svc), config).unwrap();

    let mut first = Client::connect(server.local_addr(), fast_client_config()).unwrap();
    assert!(matches!(
        first.call(&Request::Stats).unwrap(),
        Response::Stats(_)
    ));

    // Second connection, raw socket: accepted at TCP level, rejected at
    // the protocol level with a typed `Overloaded` frame on request id
    // 0, then closed. Reading without writing sees the frame
    // deterministically.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let (id, body) = read_one_frame(&mut raw);
    assert_eq!(id, 0, "rejects use the connection-level request id");
    let response = decode_response(&body).unwrap();
    match response {
        Response::Error(e) => assert!(e.to_string().contains("capacity"), "got: {e}"),
        other => panic!("expected typed Overloaded, got {other:?}"),
    }
    expect_close(&mut raw);

    // Through the Client the same reject surfaces as an error — as
    // `Rejected` when the frame outruns the reset, otherwise as a
    // closed/reset connection (the write races the server's close).
    let mut second = Client::connect(server.local_addr(), fast_client_config()).unwrap();
    match second.call(&Request::Stats) {
        Err(NetError::Rejected(why)) => {
            assert!(
                why.contains("capacity") || why.contains("queue"),
                "got: {why}"
            )
        }
        Err(NetError::Closed(_)) | Err(NetError::Io(_)) => {}
        other => panic!("expected a rejection error, got {other:?}"),
    }

    let snapshot = svc.stats();
    assert_eq!(snapshot.transport.connections_rejected, 2);
    assert_eq!(snapshot.transport.connections_accepted, 1);
    server.shutdown();
}

/// Responses far larger than the sockets' default buffers arrive whole,
/// each matched to its own request: 64 of the 128 queries answer with
/// all 4,096 points (≈ 10 MB of JSON in all). Then 64 `FetchVectors`
/// of every id (≈ 20 KB a request, ≈ 2 MB in all) come back whole too.
#[test]
fn large_responses_arrive_whole_on_sequential_calls() {
    let points: Vec<Vec<f64>> = (0..4096)
        .map(|i| vec![(i % 64) as f64, (i / 64) as f64])
        .collect();
    let svc = Arc::new(Service::new(&points, ServiceConfig::default()).unwrap());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&svc), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), fast_client_config()).unwrap();
    let Response::SessionCreated { session } = client
        .call(&Request::CreateSession { engine: None })
        .unwrap()
    else {
        panic!("expected SessionCreated")
    };
    let k = |i: usize| if i.is_multiple_of(2) { 4096 } else { 1 };
    let requests: Vec<Request> = (0..128)
        .map(|i| Request::Query {
            session,
            k: k(i),
            vector: Some(vec![(i % 64) as f64, 0.0]),
            deadline_ms: None,
        })
        .collect();
    for (i, request) in requests.iter().enumerate() {
        let r = client.call(request).unwrap();
        let Response::Neighbors { neighbors, .. } = r else {
            panic!("expected Neighbors at slot {i}, got {r:?}")
        };
        assert_eq!(neighbors.len(), k(i), "slot {i} k mismatch");
    }
    let ids: Vec<usize> = (0..points.len()).collect();
    let fetch = Request::FetchVectors { ids };
    for i in 0..64 {
        let r = client.call(&fetch).unwrap();
        let Response::Vectors { vectors } = r else {
            panic!("expected Vectors at slot {i}, got {r:?}")
        };
        assert_eq!(vectors, points, "slot {i}");
    }
    assert!(server.shutdown().clean());
}

/// An idle server shuts down at once: the acceptor blocked in `accept`
/// is woken, not polled.
#[test]
fn idle_server_shuts_down_cleanly_within_a_second() {
    let server = Server::bind("127.0.0.1:0", service(), ServerConfig::default()).unwrap();
    let started = std::time::Instant::now();
    let report = server.shutdown();
    assert!(report.clean(), "{report:?}");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "{:?}",
        started.elapsed()
    );
}

/// Reads exactly one frame (header + payload) off a raw socket.
fn read_one_frame(stream: &mut TcpStream) -> (u64, Vec<u8>) {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header).expect("read reply header");
    assert_eq!(&header[0..4], b"QNET");
    assert_eq!(header[5], 2, "reply must be a response frame");
    let id = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let len = u32::from_le_bytes(header[16..20].try_into().unwrap()) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("read reply payload");
    (id, payload)
}

/// Asserts the server closes the connection (EOF within the timeout).
fn expect_close(stream: &mut TcpStream) {
    let mut buf = [0u8; 1];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => continue, // tolerate straggler bytes before EOF
            Err(e) => panic!("expected clean close, got error: {e}"),
        }
    }
}

/// Terms start at 1: a node answers `ReplApply{term: 0}` with a typed error
/// and changes neither its term nor its lease — before any leader won
/// it, and after.
#[test]
fn apply_at_term_zero_is_a_typed_error_and_changes_nothing() {
    let node = service();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&node), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), fast_client_config()).unwrap();
    let mut exchange = |request: Request| client.call(&request).unwrap();
    let apply_zero = || Request::ReplApply {
        term: 0,
        lease_ms: 60_000,
        frames: Vec::new(),
    };

    match exchange(apply_zero()) {
        Response::Error(ServiceError::InvalidRequest(msg)) => {
            assert!(msg.contains("term must be positive"), "{msg}")
        }
        other => panic!("ReplApply{{term: 0}} must be refused, got {other:?}"),
    }
    assert_eq!(node.consensus_status(), (0, false));

    let vote = Request::Vote {
        term: 2,
        lease_ms: 0,
    };
    assert!(matches!(
        exchange(vote),
        Response::Voted {
            granted: true,
            term: 2
        }
    ));
    assert!(matches!(exchange(apply_zero()), Response::Error(_)));
    assert_eq!(node.consensus_status(), (2, false));
    server.shutdown();
}
