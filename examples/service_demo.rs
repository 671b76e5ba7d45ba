//! Service demo: a real TCP server fronting one shared `Service`, with
//! many concurrent clients each running its own relevance-feedback
//! session **over localhost** through `qcluster-net`'s framed protocol.
//!
//! ```text
//! cargo run --release --example service_demo
//! ```
//!
//! The server binds `127.0.0.1:0` (an OS-assigned port) and every
//! client thread opens its own [`Client`] connection: create a session,
//! run the initial example-image query, mark the best hits relevant,
//! re-query with the refined disjunctive query, and close — all as
//! length-prefixed CRC-checked frames on the wire, pipelined where the
//! protocol allows. The service fans each k-NN out across its shards,
//! run by the request's own thread and any free pool worker, and the
//! final stats show cache behaviour, end-to-end latency percentiles,
//! and the transport's own counters (connections, frames, decode
//! errors).
//!
//! The service is **durable**: it opens a `qcluster-store` directory,
//! each client live-ingests one extra image (`Request::Ingest` —
//! WAL-append, immediately queryable), and the run ends with a
//! `Request::Flush` folding the WAL into a sealed segment, a graceful
//! server shutdown (drain, then close), and a restart proving every
//! ingest survived.

use std::sync::Arc;
use std::thread;

use qcluster::net::{Client, ClientConfig, Server, ServerConfig};
use qcluster::service::{Request, Response, Service, ServiceConfig, StoreConfig};
use std::net::SocketAddr;

const CLIENTS: usize = 8;
const ROUNDS: usize = 3;
const K: usize = 10;

/// A small clustered corpus: `CLIENTS` well-separated Gaussian-ish blobs,
/// so each client has a "category" whose images its feedback should
/// concentrate on.
fn make_corpus(per_blob: usize) -> Vec<Vec<f64>> {
    let mut points = Vec::with_capacity(CLIENTS * per_blob);
    for blob in 0..CLIENTS {
        let cx = (blob % 4) as f64 * 10.0;
        let cy = (blob / 4) as f64 * 10.0;
        for i in 0..per_blob {
            let a = i as f64 * 0.61;
            let r = 0.2 + 0.8 * ((i * 7919 % per_blob) as f64 / per_blob as f64);
            points.push(vec![cx + r * a.cos(), cy + r * a.sin()]);
        }
    }
    points
}

/// One feedback-driven retrieval session over a live TCP connection.
fn client(addr: SocketAddr, blob: usize, per_blob: usize) -> (u64, usize) {
    let mut client = Client::connect(addr, ClientConfig::default()).expect("connect");
    let call = |client: &mut Client, request: &Request| -> Response {
        client.call(request).expect("wire call")
    };

    let Response::SessionCreated { session } =
        call(&mut client, &Request::CreateSession { engine: None })
    else {
        panic!("session create failed");
    };

    // Live-ingest one new image into this client's blob: WAL-append on
    // the shared store, immediately queryable under the returned id.
    let cx = (blob % 4) as f64 * 10.0;
    let cy = (blob / 4) as f64 * 10.0;
    let Response::Ingested { id: ingested, .. } = call(
        &mut client,
        &Request::Ingest {
            vector: vec![cx + 0.05, cy + 0.05],
        },
    ) else {
        panic!("ingest failed");
    };

    // Initial round: query by an example vector near the blob's centre.
    let mut response = call(
        &mut client,
        &Request::Query {
            session,
            k: K,
            vector: Some(vec![cx + 0.3, cy - 0.2]),
            deadline_ms: None,
        },
    );

    let blob_range = blob * per_blob..(blob + 1) * per_blob;
    let in_this_blob = |id: usize| blob_range.contains(&id) || id == ingested;
    let mut in_blob = 0usize;
    for _ in 0..ROUNDS {
        let Response::Neighbors { neighbors, .. } = response else {
            panic!("query failed");
        };
        in_blob = neighbors.iter().filter(|n| in_this_blob(n.id)).count();
        // Mark the in-blob results relevant and ask for the refined round.
        let relevant_ids: Vec<usize> = neighbors
            .iter()
            .map(|n| n.id)
            .filter(|&id| in_this_blob(id))
            .collect();
        let Response::FeedAccepted { .. } = call(
            &mut client,
            &Request::Feed {
                session,
                relevant_ids,
                scores: None,
            },
        ) else {
            panic!("feed failed");
        };
        response = call(
            &mut client,
            &Request::Query {
                session,
                k: K,
                vector: None,
                deadline_ms: None,
            },
        );
    }

    let Response::SessionClosed { .. } = call(&mut client, &Request::CloseSession { session })
    else {
        panic!("close failed");
    };
    (session, in_blob)
}

fn main() {
    let per_blob = 64;
    let points = make_corpus(per_blob);
    let store_dir = std::env::temp_dir().join(format!("qcluster_demo_{}", std::process::id()));
    std::fs::remove_dir_all(&store_dir).ok();
    let config = ServiceConfig {
        num_shards: 4,
        ..ServiceConfig::default()
    };
    let service = Arc::new(
        Service::open_durable(&store_dir, &points, config.clone(), StoreConfig::default())
            .expect("open durable service"),
    );
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .expect("bind server");
    let addr = server.local_addr();
    println!(
        "server: {} on {} images, {} shards, {} workers, store at {}",
        addr,
        points.len(),
        service.config().num_shards,
        service.config().num_workers,
        store_dir.display()
    );

    let handles: Vec<_> = (0..CLIENTS)
        .map(|blob| thread::spawn(move || client(addr, blob, per_blob)))
        .collect();
    for (blob, handle) in handles.into_iter().enumerate() {
        let (session, in_blob) = handle.join().expect("client thread");
        println!(
            "client {blob}: session {session} finished, final top-{K} has {in_blob}/{K} \
             images from its category"
        );
    }

    // Stats and the WAL flush ride the same wire protocol.
    let mut admin = Client::connect(addr, ClientConfig::default()).expect("connect admin");
    let Response::Stats(stats) = admin.call(&Request::Stats).expect("stats call") else {
        panic!("stats failed");
    };
    println!("\nservice stats after {} concurrent clients:", CLIENTS);
    println!(
        "  queries: {} (mean {:.1} µs)   feeds: {} (mean {:.1} µs)",
        stats.query.count,
        stats.query.mean_ns / 1_000.0,
        stats.feed.count,
        stats.feed.mean_ns / 1_000.0
    );
    println!(
        "  query latency: p50 {:.1} µs  p95 {:.1} µs  p99 {:.1} µs  max {:.1} µs",
        stats.query_percentiles.p50_ns as f64 / 1_000.0,
        stats.query_percentiles.p95_ns as f64 / 1_000.0,
        stats.query_percentiles.p99_ns as f64 / 1_000.0,
        stats.query_percentiles.max_ns as f64 / 1_000.0
    );
    println!(
        "  shard latency: p50 {:.1} µs  p99 {:.1} µs over {} shards",
        stats.shard_latency.p50_ns as f64 / 1_000.0,
        stats.shard_latency.p99_ns as f64 / 1_000.0,
        service.config().num_shards
    );
    println!(
        "  cache: {} hits / {} misses (hit ratio {:.2})",
        stats.cache_hits, stats.cache_misses, stats.cache_hit_ratio
    );
    println!(
        "  sessions: {} created, {} closed, {} active, {} evicted",
        stats.sessions_created, stats.sessions_closed, stats.active_sessions, stats.evictions
    );
    println!(
        "  transport: {} conns accepted ({} active, {} rejected), {} frames in / {} out, \
         {} decode errors",
        stats.transport.connections_accepted,
        stats.transport.connections_active,
        stats.transport.connections_rejected,
        stats.transport.frames_in,
        stats.transport.frames_out,
        stats.transport.decode_errors
    );
    println!(
        "  storage: {} ingests, {} WAL appends, {} fsyncs, {} WAL-only vectors",
        stats.ingests,
        stats.storage.wal_appends,
        stats.storage.wal_fsyncs,
        stats.storage.wal_vectors
    );

    // Seal the WAL into a segment, then shut the server down gracefully
    // and restart the service to prove durability.
    let Response::Flushed {
        folded_vectors,
        segments,
        ..
    } = admin.call(&Request::Flush).expect("flush call")
    else {
        panic!("flush failed");
    };
    println!("\nflush: folded {folded_vectors} vectors, {segments} sealed segments");
    drop(admin);

    let report = server.shutdown();
    println!(
        "shutdown: drained {} in-flight, aborted {}, detached {} (clean: {})",
        report.drained,
        report.aborted_inflight,
        report.detached_threads,
        report.clean()
    );

    let expected = service.total_vectors();
    drop(service);
    let reopened = Service::open_durable(&store_dir, &[], config, StoreConfig::default())
        .expect("recover service");
    assert_eq!(reopened.total_vectors(), expected);
    println!(
        "restart: recovered {} vectors ({} ingested live) and {} session(s)",
        reopened.total_vectors(),
        CLIENTS,
        reopened.active_sessions()
    );
    std::fs::remove_dir_all(&store_dir).ok();
}
