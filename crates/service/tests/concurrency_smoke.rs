//! Concurrency smoke test: many client threads hammer one shared
//! service through the dispatcher, and afterwards no session is lost and
//! every metric is consistent with the work submitted.

use std::sync::Arc;
use std::thread;

use qcluster_service::{dispatch, Request, Response, Service, ServiceConfig};

const THREADS: usize = 8;
const SESSIONS_PER_THREAD: usize = 4;
const K: usize = 8;

fn make_service() -> Service {
    let points: Vec<Vec<f64>> = (0..256)
        .map(|i| {
            let a = i as f64 * 0.37;
            let blob = (i / 32) as f64 * 8.0;
            vec![blob + a.cos(), blob + a.sin()]
        })
        .collect();
    Service::new(
        &points,
        ServiceConfig {
            num_shards: 4,
            num_workers: 4,
            // Every session from every thread must fit: losing one to
            // LRU eviction would make "no lost sessions" unprovable.
            max_sessions: THREADS * SESSIONS_PER_THREAD + 1,
            ..ServiceConfig::default()
        },
    )
    .expect("spawn service worker pool")
}

/// One full create → query → feed → refined query → close lifecycle;
/// returns the session id it used.
fn lifecycle(service: &Service, seed: usize) -> u64 {
    let Response::SessionCreated { session } =
        dispatch(service, Request::CreateSession { engine: None })
    else {
        panic!("create failed");
    };

    let origin = (seed % 8) as f64 * 8.0;
    let Response::Neighbors { neighbors, .. } = dispatch(
        service,
        Request::Query {
            session,
            k: K,
            vector: Some(vec![origin + 0.5, origin]),
            deadline_ms: None,
        },
    ) else {
        panic!("initial query failed");
    };
    assert_eq!(neighbors.len(), K);

    let relevant_ids: Vec<usize> = neighbors.iter().take(4).map(|n| n.id).collect();
    let Response::FeedAccepted { iteration, .. } = dispatch(
        service,
        Request::Feed {
            session,
            relevant_ids,
            scores: None,
        },
    ) else {
        panic!("feed failed");
    };
    assert_eq!(iteration, 1);

    let Response::Neighbors {
        neighbors, stats, ..
    } = dispatch(
        service,
        Request::Query {
            session,
            k: K,
            vector: None,
            deadline_ms: None,
        },
    )
    else {
        panic!("refined query failed");
    };
    assert_eq!(neighbors.len(), K);
    assert!(stats.distance_evaluations > 0);

    session
}

#[test]
fn eight_threads_share_one_service_without_losing_sessions() {
    let service = Arc::new(make_service());

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            thread::spawn(move || {
                let mut sessions = Vec::new();
                for s in 0..SESSIONS_PER_THREAD {
                    let session = lifecycle(&service, t * SESSIONS_PER_THREAD + s);
                    // Interleave with other threads: the session must
                    // still be addressable after all the cross-talk.
                    let Response::Stats(_) = dispatch(&service, Request::Stats) else {
                        panic!("stats failed");
                    };
                    sessions.push(session);
                }
                sessions
            })
        })
        .collect();

    let mut all_sessions: Vec<u64> = Vec::new();
    for handle in handles {
        all_sessions.extend(handle.join().expect("client thread panicked"));
    }

    // No lost sessions: every id issued is unique and still live.
    let total = THREADS * SESSIONS_PER_THREAD;
    assert_eq!(all_sessions.len(), total);
    let mut unique = all_sessions.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), total, "duplicate session ids issued");
    assert_eq!(service.active_sessions(), total);
    for &session in &all_sessions {
        assert!(
            matches!(
                dispatch(&service, Request::CloseSession { session }),
                Response::SessionClosed { .. }
            ),
            "session {session} was lost"
        );
    }

    // Monotone, consistent metrics: exactly the submitted work, no more,
    // no less — concurrent recording dropped nothing.
    let Response::Stats(stats) = dispatch(&service, Request::Stats) else {
        panic!("stats failed");
    };
    let total = total as u64;
    assert_eq!(stats.sessions_created, total);
    assert_eq!(stats.sessions_closed, total);
    assert_eq!(stats.active_sessions, 0);
    assert_eq!(stats.evictions, 0);
    let queries = stats.query_percentiles;
    assert_eq!(queries.count, 2 * total, "2 queries per session");
    assert_eq!(stats.feed.count, total, "1 feed per session");
    assert_eq!(stats.fanout.count, queries.count);
    assert!(queries.p50_ns <= queries.p99_ns && queries.p99_ns <= queries.max_ns);
}

#[test]
fn stats_are_monotone_while_clients_run() {
    let service = Arc::new(make_service());
    let worker = {
        let service = Arc::clone(&service);
        thread::spawn(move || {
            for s in 0..SESSIONS_PER_THREAD {
                let session = lifecycle(&service, s);
                let Response::SessionClosed { .. } =
                    dispatch(&service, Request::CloseSession { session })
                else {
                    panic!("close failed");
                };
            }
        })
    };

    // Poll concurrently: counters may only grow.
    let mut last = (0u64, 0u64, 0u64);
    for _ in 0..200 {
        let Response::Stats(stats) = dispatch(&service, Request::Stats) else {
            panic!("stats failed");
        };
        let now = (
            stats.query_percentiles.count,
            stats.feed.count,
            stats.sessions_created,
        );
        assert!(now.0 >= last.0, "query count went backwards");
        assert!(now.1 >= last.1, "feed count went backwards");
        assert!(now.2 >= last.2, "session count went backwards");
        last = now;
    }
    worker.join().expect("worker panicked");
}
