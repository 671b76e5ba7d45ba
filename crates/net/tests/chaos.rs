//! Failpoint-driven chaos suite for the transport: mid-stream
//! connection drops, corrupt frames, accept-time drops, write failures,
//! slow pipelined queries answered in order, and graceful shutdown
//! draining a slow in-flight query.
//!
//! Failpoints are process-global, so every test serializes through
//! `failpoint::test_lock()` and clears the registry on entry. Every
//! scenario re-runs its operation with the failpoints disarmed and
//! checks the answer is bit-for-bit identical to in-process `dispatch`.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use qcluster_failpoint::{self as failpoint, Action};
use qcluster_net::frame::{read_frame, ReadFrame};
use qcluster_net::{
    decode_response, encode_frame, encode_request, Client, ClientConfig, FrameKind, NetError,
    Server, ServerConfig, DEFAULT_MAX_PAYLOAD,
};
use qcluster_service::{dispatch, Request, Response, Service, ServiceConfig, ServiceError};

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

fn client_config() -> ClientConfig {
    ClientConfig {
        read_timeout: Duration::from_secs(10),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        ..ClientConfig::default()
    }
}

fn query(session: u64, x: f64, y: f64) -> Request {
    Request::Query {
        session,
        k: 5,
        vector: Some(vec![x, y]),
        deadline_ms: None,
    }
}

/// Asserts a wire query answers bit-for-bit like in-process dispatch on
/// a twin service (same corpus, fresh session each side).
fn assert_clean_query(client: &mut Client, wire_session: u64, local: &Service) {
    let local_session = local.create_session().unwrap();
    let wire = client.call(&query(wire_session, 25.0, 0.5)).unwrap();
    let reference = dispatch(local, query(local_session, 25.0, 0.5));
    match (&wire, &reference) {
        (
            Response::Neighbors {
                neighbors: wn,
                shards_ok: wok,
                ..
            },
            Response::Neighbors {
                neighbors: ln,
                shards_ok: lok,
                ..
            },
        ) => {
            assert_eq!(
                wn, ln,
                "disarmed wire answer diverged from in-process dispatch"
            );
            assert_eq!(wok, lok);
        }
        other => panic!("expected Neighbors from both paths, got {other:?}"),
    }
}

/// `net.read` severs the connection mid-exchange: the in-flight call
/// fails, and the next call transparently reconnects (backoff) and
/// succeeds with a clean answer.
#[test]
fn mid_stream_drop_then_automatic_reconnect() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let svc = service();
    let local = service();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&svc), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), client_config()).unwrap();
    let Response::SessionCreated { session } = client
        .call(&Request::CreateSession { engine: None })
        .unwrap()
    else {
        panic!("expected SessionCreated")
    };

    // Fires once: the reader severs the connection on its next pass.
    failpoint::configure_counted("net.read", Action::Error("sever".into()), 0, Some(1));
    let err = client.call(&query(session, 1.0, 1.0)).unwrap_err();
    assert!(
        matches!(
            err,
            NetError::Closed(_) | NetError::Io(_) | NetError::Timeout(_)
        ),
        "expected a connection failure, got {err:?}"
    );
    assert!(
        !client.is_connected(),
        "failed call must drop the connection"
    );

    // Disarmed: the next call reconnects and matches in-process results.
    failpoint::clear_all();
    let Response::SessionCreated { session } = client
        .call(&Request::CreateSession { engine: None })
        .unwrap()
    else {
        panic!("expected SessionCreated after reconnect")
    };
    assert_clean_query(&mut client, session, &local);
    server.shutdown();
}

/// `net.frame.corrupt` flips a payload byte in the client's request
/// after the CRC is computed: the server answers with a typed decode
/// error on the same connection, which stays usable.
#[test]
fn corrupt_frame_yields_typed_error_and_connection_survives() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let svc = service();
    let local = service();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&svc), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), client_config()).unwrap();
    let Response::SessionCreated { session } = client
        .call(&Request::CreateSession { engine: None })
        .unwrap()
    else {
        panic!("expected SessionCreated")
    };

    // Fires once, corrupting exactly the next encoded frame (the
    // client's request); the server's reply encodes clean.
    failpoint::configure_counted(
        "net.frame.corrupt",
        Action::Error("bitflip".into()),
        0,
        Some(1),
    );
    match client.call(&query(session, 1.0, 1.0)).unwrap() {
        Response::Error(ServiceError::InvalidRequest(msg)) => {
            assert!(
                msg.contains("crc"),
                "expected a CRC mismatch report, got: {msg}"
            )
        }
        other => panic!("expected typed decode error, got {other:?}"),
    }
    assert!(
        client.is_connected(),
        "a recoverable decode error must not close"
    );
    assert_eq!(svc.stats().transport.decode_errors, 1);

    failpoint::clear_all();
    assert_clean_query(&mut client, session, &local);
    server.shutdown();
}

/// `net.accept` drops incoming connections at the acceptor: dials get
/// a dead socket, calls fail, and once the failpoint window is
/// exhausted a retry loop lands a healthy connection.
#[test]
fn accept_drops_then_recovery() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let svc = service();
    let local = service();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&svc), ServerConfig::default()).unwrap();

    failpoint::configure_counted("net.accept", Action::Error("drop".into()), 0, Some(2));
    let mut client = Client::connect(server.local_addr(), client_config()).unwrap();
    let mut failures = 0;
    let session = loop {
        match client.call(&Request::CreateSession { engine: None }) {
            Ok(Response::SessionCreated { session }) => break session,
            Ok(other) => panic!("unexpected response {other:?}"),
            Err(_) => {
                failures += 1;
                assert!(failures <= 4, "recovery should need at most a few redials");
            }
        }
    };
    assert!(
        failures >= 1,
        "the armed failpoint should fail at least one call"
    );
    assert_eq!(svc.stats().transport.connections_rejected, 2);

    failpoint::clear_all();
    assert_clean_query(&mut client, session, &local);
    server.shutdown();
}

/// `net.write` fails a response write: the server tears the connection
/// down exactly as on a real socket error, the client sees the close,
/// and the next call reconnects cleanly.
#[test]
fn write_failure_tears_down_and_reconnects() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let svc = service();
    let local = service();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&svc), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), client_config()).unwrap();

    failpoint::configure_counted("net.write", Action::Error("wfail".into()), 0, Some(1));
    let err = client.call(&Request::Stats).unwrap_err();
    assert!(
        matches!(err, NetError::Closed(_) | NetError::Io(_)),
        "expected a connection failure, got {err:?}"
    );

    failpoint::clear_all();
    let Response::SessionCreated { session } = client
        .call(&Request::CreateSession { engine: None })
        .unwrap()
    else {
        panic!("expected SessionCreated after reconnect")
    };
    assert_clean_query(&mut client, session, &local);
    server.shutdown();
}

/// A connection's requests are answered one at a time, in arrival
/// order: eight queries pipelined on one raw socket, each slowed by
/// `executor.shard` sleeps, come back in request-id order, none is
/// shed as `Overloaded`, and the shed counter stays at zero.
#[test]
fn pipelined_queries_are_answered_in_order_without_shedding() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let svc = service();
    let local = service();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&svc), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), client_config()).unwrap();
    let Response::SessionCreated { session } = client
        .call(&Request::CreateSession { engine: None })
        .unwrap()
    else {
        panic!("expected SessionCreated")
    };

    let slow = failpoint::scoped("executor.shard", Action::Sleep(20));
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let ids: Vec<u64> = (1..=8).collect();
    for &id in &ids {
        let payload = encode_request(&query(session, id as f64, 0.0));
        raw.write_all(&encode_frame(FrameKind::Request, id, &payload))
            .unwrap();
    }
    let mut answered = Vec::new();
    for _ in &ids {
        let ReadFrame::Frame(f) = read_frame(&mut raw, DEFAULT_MAX_PAYLOAD).unwrap() else {
            panic!("expected a response frame")
        };
        let response = decode_response(&f.payload).unwrap();
        assert!(
            matches!(response, Response::Neighbors { .. }),
            "request {} got {response:?}",
            f.request_id
        );
        answered.push(f.request_id);
    }
    assert_eq!(answered, ids, "answers leave in arrival order");
    assert_eq!(svc.stats().transport.write_queue_sheds, 0);
    drop(slow);

    assert_clean_query(&mut client, session, &local);
    server.shutdown();
}

/// Graceful shutdown drains a slow in-flight query: the client gets its
/// answer even though shutdown started while the query was running, and
/// the report counts the drain.
#[test]
fn graceful_shutdown_drains_slow_inflight_query() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let svc = service();
    let local = service();
    let config = ServerConfig {
        drain_deadline: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&svc), config).unwrap();
    let addr = server.local_addr();

    let mut client = Client::connect(addr, client_config()).unwrap();
    let Response::SessionCreated { session } = client
        .call(&Request::CreateSession { engine: None })
        .unwrap()
    else {
        panic!("expected SessionCreated")
    };

    // The in-flight query sleeps ~300ms per shard job.
    failpoint::configure_counted("executor.shard", Action::Sleep(300), 0, Some(4));
    let slow = thread::spawn(move || {
        let started = Instant::now();
        let response = client.call(&query(session, 25.0, 0.5));
        (response, started.elapsed())
    });
    // Let the query reach the executor before initiating shutdown.
    thread::sleep(Duration::from_millis(100));
    let shutdown_started = Instant::now();
    let report = server.shutdown();
    let shutdown_took = shutdown_started.elapsed();

    let (response, call_took) = slow.join().expect("client thread");
    let response = response.expect("the draining server must still deliver the response");
    assert!(
        matches!(response, Response::Neighbors { .. }),
        "expected the slow query's answer, got {response:?}"
    );
    assert!(
        call_took >= Duration::from_millis(250),
        "the query really was slow"
    );
    assert_eq!(
        report.drained, 1,
        "the drain must count the slow query: {report:?}"
    );
    assert_eq!(
        report.aborted_inflight, 0,
        "nothing should be cut short: {report:?}"
    );
    assert_eq!(
        report.detached_threads, 0,
        "all threads should join: {report:?}"
    );
    assert!(report.clean());
    assert!(
        shutdown_took < Duration::from_secs(4),
        "drain should finish well before the deadline, took {shutdown_took:?}"
    );
    assert_eq!(svc.stats().transport.shutdown_drains, 1);

    // Disarmed: a fresh server over the same corpus answers bit-for-bit
    // like in-process dispatch.
    failpoint::clear_all();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&svc), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), client_config()).unwrap();
    let Response::SessionCreated { session } = client
        .call(&Request::CreateSession { engine: None })
        .unwrap()
    else {
        panic!("expected SessionCreated")
    };
    assert_clean_query(&mut client, session, &local);
    let report = server.shutdown();
    assert_eq!(report.aborted_inflight, 0);
}
