//! Fault-injection suite for the query path: panicking shards, slow
//! shards racing deadlines (a missed deadline costs no later query),
//! admission control, and session eviction racing in-flight queries;
//! then queries, feeds and creates beside a stalled or failing WAL, the
//! durable boot's seal failing, panicking or stalling beside the shard
//! build, and seeds no shard may hold.
//!
//! Failpoints are process-global, so every test serializes through
//! `failpoint::test_lock()` and clears the registry on entry; the whole
//! suite also passes bit-for-bit against the plain kernels when no
//! failpoint is armed (see `degraded_query_meets_deadline_with_partial_coverage`,
//! which re-runs its query after disarming).

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use qcluster_core::{FeedbackPoint, QclusterConfig, QclusterEngine};
use qcluster_failpoint::{self as failpoint, Action};
use qcluster_index::{EuclideanQuery, LinearScan};
use qcluster_service::{
    dispatch, IngestOutcome, Request, Response, Service, ServiceConfig, ServiceError, StoreConfig,
    DEFAULT_SCORE,
};
use qcluster_store::{encode_record_frame, WalRecord};

/// Four well-spread blobs, 64 points each — shard `i` of 4 holds ids
/// `[64 i, 64 (i + 1))`.
fn corpus() -> Vec<Vec<f64>> {
    (0..256)
        .map(|i| {
            let a = i as f64 * 0.37;
            let blob = (i / 64) as f64 * 10.0;
            vec![blob + a.cos(), blob + a.sin()]
        })
        .collect()
}

fn service(config: ServiceConfig) -> Service {
    Service::new(&corpus(), config).expect("spawn service worker pool")
}

/// The headline robustness scenario: with one shard panicking and one
/// shard sleeping past the deadline, a k-NN request returns *within*
/// the deadline (plus scheduling epsilon) as a degraded response whose
/// top-k is exact over the live shards — and the metrics counters
/// attribute every missing shard. Disarming the failpoints restores
/// full coverage with bit-for-bit kernel-identical results.
#[test]
fn degraded_query_meets_deadline_with_partial_coverage() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let svc = service(ServiceConfig {
        num_shards: 4,
        num_workers: 4,
        ..ServiceConfig::default()
    });
    let session = svc.create_session().unwrap();
    let query = vec![25.0, 0.5]; // nearest mass lives in shards 2 and 3

    failpoint::configure("executor.shard.0", Action::Panic("chaos".into()));
    failpoint::configure("executor.shard.1", Action::Sleep(600));

    let deadline = Duration::from_millis(150);
    let started = Instant::now();
    let out = svc
        .query_with_deadline(session, 10, Some(query.clone()), Some(deadline))
        .expect("two live shards must still answer");
    let elapsed = started.elapsed();
    failpoint::clear_all();

    // Returned within deadline + epsilon, and long before the sleeping
    // shard's 600 ms would have allowed.
    assert!(
        elapsed < Duration::from_millis(450),
        "degraded response took {elapsed:?}, deadline was {deadline:?}"
    );
    assert_eq!(out.shards_ok, 2);
    assert_eq!(out.shards_total, 4);
    assert!(out.degraded());

    // The merged top-k is exact over the shards that responded
    // (ids 128..256): identical ids, kernel-identical distances.
    let points = corpus();
    let mut expect = LinearScan::new(&points[128..]).knn(&EuclideanQuery::new(query.clone()), 10);
    for n in &mut expect {
        n.id += 128;
    }
    assert_eq!(out.neighbors.len(), expect.len());
    for (got, want) in out.neighbors.iter().zip(expect.iter()) {
        assert_eq!(got.id, want.id);
        assert!((got.distance - want.distance).abs() < 1e-12);
    }

    // Every missing shard is attributed in the metrics.
    let stats = svc.stats();
    assert_eq!(stats.faults.shard_panics, 1);
    assert_eq!(stats.faults.shard_timeouts, 1);
    assert_eq!(stats.faults.shard_failures, 0);
    assert_eq!(stats.faults.degraded_responses, 1);
    assert_eq!(stats.faults.deadline_exceeded, 0);

    // Failpoints disarmed: the same request under the same deadline is
    // whole again, and bit-for-bit equal to an undeadlined run.
    let healthy = svc
        .query_with_deadline(
            session,
            10,
            Some(query.clone()),
            Some(Duration::from_secs(30)),
        )
        .unwrap();
    assert!(!healthy.degraded());
    assert_eq!(healthy.shards_ok, 4);
    let plain = svc.query_vector(session, query, 10).unwrap();
    assert_eq!(healthy.neighbors.len(), plain.neighbors.len());
    for (a, b) in healthy.neighbors.iter().zip(plain.neighbors.iter()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.distance.to_bits(), b.distance.to_bits());
    }
    // And no new fault was recorded by the healthy rounds.
    assert_eq!(svc.stats().faults.degraded_responses, 1);
}

/// A shard that publishes its phase-1 threshold and then fails must not
/// cost the survivors a neighbour. The points lie along a line in id
/// order, so the query — in the middle of shard 0's range — gives shard
/// 0 by far the tightest heap; one worker runs the shard jobs in order,
/// so shards 1–3 screen against that threshold and keep no candidate at
/// all. The answer must still be the exact top-k over shards 1–3: the
/// finish certifies against each survivor's own threshold, not only
/// against the candidates that arrived.
#[test]
fn a_shard_failing_after_it_published_its_threshold_costs_the_others_nothing() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let points: Vec<Vec<f64>> = (0..2000)
        .map(|i| {
            let x = i as f64 * 0.01;
            vec![x, (x * 7.0).sin() * 0.05]
        })
        .collect();
    let svc = Service::new(
        &points,
        ServiceConfig {
            num_shards: 4,
            num_workers: 1,
            ..ServiceConfig::default()
        },
    )
    .expect("spawn service");
    let session = svc.create_session().unwrap();
    let query = vec![2.5, 0.0];

    let _panic = failpoint::scoped("executor.shard.0", Action::Panic("published".into()));
    let out = svc.query_vector(session, query.clone(), 10).unwrap();
    assert_eq!((out.shards_ok, out.shards_total), (3, 4));

    let mut want = LinearScan::new(&points[500..]).knn(&EuclideanQuery::new(query), 10);
    for n in &mut want {
        n.id += 500;
    }
    let bits = |list: &[qcluster_index::Neighbor]| -> Vec<(usize, u64)> {
        list.iter().map(|n| (n.id, n.distance.to_bits())).collect()
    };
    assert_eq!(bits(&out.neighbors), bits(&want));
    assert_eq!(svc.stats().faults.shard_panics, 1);
}

/// A refined round is bounded by the previous answer's `k`-th distance.
/// Here every point of that answer lies on shard 0, which panics:
/// shards 1–3 hold nothing under the bound, screen every tile away and
/// bring no candidate, and a finish that lost a shard answers the
/// exact top-k over the others, so it scans them exactly. Disarmed,
/// the next round answers over all four shards with no rescan.
#[test]
fn a_seeded_query_that_loses_a_shard_answers_exactly_over_the_others() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let points: Vec<Vec<f64>> = (0..2000)
        .map(|i| {
            let x = i as f64 * 0.01;
            vec![x, (x * 7.0).sin() * 0.05]
        })
        .collect();
    let svc = Service::new(
        &points,
        ServiceConfig {
            num_shards: 4,
            num_workers: 1,
            ..ServiceConfig::default()
        },
    )
    .expect("spawn service");
    let session = svc.create_session().unwrap();
    let example = svc.query_vector(session, vec![2.5, 0.0], 10).unwrap();
    assert!(example.neighbors.iter().all(|n| n.id < 500));
    let marked = [248, 249, 250, 251, 252];
    svc.feed_ids(session, &marked, None).unwrap();
    let mut engine = QclusterEngine::new(QclusterConfig::default());
    let fed: Vec<FeedbackPoint> = marked
        .iter()
        .map(|&id| FeedbackPoint::new(id, points[id].clone(), DEFAULT_SCORE))
        .collect();
    engine.feed(&fed).unwrap();
    let refined = engine.query().unwrap();
    let bits = |list: &[qcluster_index::Neighbor]| -> Vec<(usize, u64)> {
        list.iter().map(|n| (n.id, n.distance.to_bits())).collect()
    };

    let panic = failpoint::scoped("executor.shard.0", Action::Panic("seeded".into()));
    let out = svc.query(session, 10).unwrap();
    drop(panic);
    assert_eq!((out.shards_ok, out.shards_total), (3, 4));
    let mut want = LinearScan::new(&points[500..]).knn(&refined, 10);
    for n in &mut want {
        n.id += 500;
    }
    assert_eq!(bits(&out.neighbors), bits(&want));
    assert_eq!(
        out.stats.quant_fallbacks, 1,
        "the survivors were scanned exactly"
    );

    // The next round seeds from the degraded answer: points far from
    // the query, a loose bound but a sound one.
    let whole = svc.query(session, 10).unwrap();
    assert_eq!((whole.shards_ok, whole.shards_total), (4, 4));
    let want = LinearScan::new(&points).knn(&refined, 10);
    assert_eq!(bits(&whole.neighbors), bits(&want));
    assert_eq!(whole.stats.quant_fallbacks, 0);
}

/// Same scenario through the wire protocol: the response carries the
/// coverage annotation, and the deadline rides in `deadline_ms`.
#[test]
fn dispatch_surfaces_degraded_coverage_on_the_wire() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let svc = service(ServiceConfig {
        num_shards: 4,
        num_workers: 4,
        ..ServiceConfig::default()
    });
    let Response::SessionCreated { session } =
        dispatch(&svc, Request::CreateSession { engine: None })
    else {
        panic!("create failed");
    };

    let _panic = failpoint::scoped("executor.shard.0", Action::Panic("wire chaos".into()));
    let Response::Neighbors {
        neighbors,
        shards_ok,
        shards_total,
        degraded,
        ..
    } = dispatch(
        &svc,
        Request::Query {
            session,
            k: 5,
            vector: Some(vec![25.0, 0.5]),
            deadline_ms: Some(5_000),
        },
    )
    else {
        panic!("expected a (degraded) Neighbors response");
    };
    assert_eq!(neighbors.len(), 5);
    assert_eq!(shards_ok, 3);
    assert_eq!(shards_total, 4);
    assert!(degraded);
}

/// When *zero* shards make the deadline there is no partial ranking to
/// return: the request fails with the typed `DeadlineExceeded`, and the
/// wait stays bounded by the deadline, not by the slowest shard.
#[test]
fn all_shards_late_is_a_typed_deadline_error() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let svc = service(ServiceConfig {
        num_shards: 2,
        num_workers: 2,
        ..ServiceConfig::default()
    });
    let session = svc.create_session().unwrap();

    let _slow = failpoint::scoped("executor.shard", Action::Sleep(600));
    let started = Instant::now();
    let err = svc
        .query_with_deadline(
            session,
            5,
            Some(vec![0.5, 0.5]),
            Some(Duration::from_millis(100)),
        )
        .unwrap_err();
    assert!(started.elapsed() < Duration::from_millis(450));
    assert!(
        matches!(
            err,
            ServiceError::DeadlineExceeded {
                shards_total: 2,
                ..
            }
        ),
        "got {err:?}"
    );
    assert_eq!(svc.stats().faults.deadline_exceeded, 1);
    assert_eq!(svc.stats().faults.degraded_responses, 0);
}

/// A shard that misses deadlines costs only the queries that set them:
/// a shard is not skipped for having failed before. Three deadline
/// queries time shard 3 out; the next query, with no deadline, still
/// answers over all four shards, bit for bit `LinearScan`.
#[test]
fn deadline_timeouts_do_not_cost_a_later_query_its_shard() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let svc = service(ServiceConfig {
        num_shards: 4,
        num_workers: 2,
        ..ServiceConfig::default()
    });
    let session = svc.create_session().unwrap();
    let query = vec![30.0, 0.5]; // nearest mass lives in shard 3

    let slow = failpoint::scoped("executor.shard.3", Action::Sleep(120));
    for _ in 0..3 {
        let deadline = Some(Duration::from_millis(40));
        match svc.query_with_deadline(session, 5, Some(query.clone()), deadline) {
            Ok(out) => assert!(out.degraded()),
            Err(e) => assert!(matches!(e, ServiceError::DeadlineExceeded { .. }), "{e:?}"),
        }
        // Let the sleeping job finish, so the next query finds the
        // pool idle.
        thread::sleep(Duration::from_millis(150));
    }
    drop(slow);
    assert_eq!(svc.stats().faults.shard_timeouts, 3);

    let out = svc.query_vector(session, query.clone(), 5).unwrap();
    assert_eq!((out.shards_ok, out.shards_total), (4, 4));
    let want = LinearScan::new(&corpus()).knn(&EuclideanQuery::new(query), 5);
    let bits = |list: &[qcluster_index::Neighbor]| -> Vec<(usize, u64)> {
        list.iter().map(|n| (n.id, n.distance.to_bits())).collect()
    };
    assert_eq!(bits(&out.neighbors), bits(&want));
}

/// Admission control: a fan-out that cannot reserve queue slots for all
/// its shards is rejected with the typed `Overloaded` error before
/// anything is submitted, and the rejection is counted.
#[test]
fn overload_is_rejected_with_a_typed_error() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let svc = service(ServiceConfig {
        num_shards: 2,
        num_workers: 2,
        max_queued_jobs: 1, // a 2-shard fan-out can never fit
        ..ServiceConfig::default()
    });
    let session = svc.create_session().unwrap();
    let err = svc.query_vector(session, vec![0.5, 0.5], 5).unwrap_err();
    assert!(
        matches!(err, ServiceError::Overloaded { capacity: 1, .. }),
        "got {err:?}"
    );
    assert_eq!(svc.stats().faults.overload_rejections, 1);
    assert_eq!(
        svc.stats().query_percentiles.count,
        0,
        "rejected before execution"
    );
}

/// LRU eviction racing an in-flight query: the query holds its session
/// handle, so eviction must neither deadlock nor corrupt the running
/// round — the evicted session's query completes exactly, and only
/// *subsequent* use of the evicted id fails.
#[test]
fn lru_eviction_racing_inflight_query_completes_cleanly() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let svc = Arc::new(service(ServiceConfig {
        num_shards: 2,
        num_workers: 2,
        max_sessions: 1, // creating any second session evicts the first
        ..ServiceConfig::default()
    }));
    let victim = svc.create_session().unwrap();

    // Hold the victim's query in flight across the eviction.
    let _slow = failpoint::scoped("executor.shard", Action::Sleep(300));
    let inflight = {
        let svc = Arc::clone(&svc);
        thread::spawn(move || svc.query_vector(victim, vec![0.5, 0.5], 8))
    };
    thread::sleep(Duration::from_millis(100)); // let the fan-out start
    let usurper = svc.create_session().unwrap();
    assert_ne!(usurper, victim);
    assert_eq!(svc.active_sessions(), 1, "victim evicted while queried");

    let out = inflight
        .join()
        .expect("in-flight query must not panic")
        .expect("in-flight query must not fail");
    assert_eq!(out.neighbors.len(), 8);
    assert!(!out.degraded(), "eviction must not cost shard coverage");
    let expect = LinearScan::new(&corpus()).knn(&EuclideanQuery::new(vec![0.5, 0.5]), 8);
    for (got, want) in out.neighbors.iter().zip(expect.iter()) {
        assert_eq!(got.id, want.id);
    }

    // The evicted id is dead for *new* requests.
    assert!(matches!(
        svc.query_vector(victim, vec![0.5, 0.5], 1),
        Err(ServiceError::UnknownSession(id)) if id == victim
    ));
    assert_eq!(svc.stats().evictions, 1);
}

/// A fresh scratch directory for a store.
fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qsvc_chaos_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn durable_config() -> ServiceConfig {
    ServiceConfig {
        num_shards: 2,
        num_workers: 2,
        ..ServiceConfig::default()
    }
}

/// A durable service over [`corpus`] in a fresh scratch directory.
fn durable_service(tag: &str) -> (Service, std::path::PathBuf) {
    let dir = fresh_dir(tag);
    let svc = Service::open_durable(&dir, &corpus(), durable_config(), StoreConfig::default())
        .expect("open durable service");
    (svc, dir)
}

/// Starts an ingest of `vector` on its own thread and returns once it
/// is asleep inside a 600 ms WAL fsync, holding the writer.
fn stall_an_ingest(
    svc: &Arc<Service>,
    vector: Vec<f64>,
) -> (
    failpoint::Guard,
    thread::JoinHandle<Result<IngestOutcome, ServiceError>>,
) {
    let stall = failpoint::scoped("wal.fsync", Action::Sleep(600));
    let ingest = {
        let svc = Arc::clone(svc);
        thread::spawn(move || svc.ingest(vector))
    };
    let patience = Instant::now() + Duration::from_secs(10);
    while stall.hits() == 0 && Instant::now() < patience {
        thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(stall.hits(), 1, "the ingest reached its fsync");
    (stall, ingest)
}

/// Writes leave the read path: while an ingest sits in a stalled WAL
/// fsync — holding the writer — a query over a non-empty overlay
/// answers at once, from everything acked so far and nothing else.
#[test]
fn query_does_not_wait_behind_a_stalled_wal_fsync() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let (svc, dir) = durable_service("fsync_stall");
    let svc = Arc::new(svc);
    assert_eq!(svc.ingest(vec![100.0, 100.0]).unwrap().id, 256);
    let session = svc.create_session().unwrap();

    let (stall, ingest) = stall_an_ingest(&svc, vec![100.5, 100.5]);
    let started = Instant::now();
    let out = svc.query_vector(session, vec![100.4, 100.4], 2).unwrap();
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_millis(250),
        "query waited {waited:?} behind a 600 ms fsync stall"
    );
    // The stalled vector is not acked, so not yet visible.
    let ids: Vec<usize> = out.neighbors.iter().map(|n| n.id).collect();
    assert_eq!(ids[0], 256, "the acked overlay vector: {ids:?}");
    assert!(ids[1] < 256, "then the base corpus: {ids:?}");
    assert_eq!(svc.total_vectors(), 257);

    let acked = ingest.join().unwrap().expect("stalled ingest completes");
    drop(stall);
    assert_eq!((acked.id, acked.total), (257, 258));
    let out = svc.query_vector(session, vec![100.4, 100.4], 2).unwrap();
    assert_eq!(out.neighbors[0].id, 257, "queryable once acked");
    std::fs::remove_dir_all(&dir).ok();
}

/// A feed writes nothing, so it does not wait behind an ingest asleep
/// in its WAL fsync either.
#[test]
fn feed_does_not_wait_behind_a_stalled_wal_fsync() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let (svc, dir) = durable_service("feed_fsync_stall");
    let svc = Arc::new(svc);
    let session = svc.create_session().unwrap();

    let (stall, ingest) = stall_an_ingest(&svc, vec![100.5, 100.5]);
    let started = Instant::now();
    let fed = svc.feed_ids(session, &[0, 1, 2], None).unwrap();
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_millis(250),
        "feed waited {waited:?} behind a 600 ms fsync stall"
    );
    assert_eq!(fed.iteration, 1);
    ingest.join().unwrap().expect("stalled ingest completes");
    drop(stall);
    std::fs::remove_dir_all(&dir).ok();
}

/// Sessions are process state: while every WAL append fails, a
/// create, an LRU eviction, a close and a feed all succeed, and none of
/// them appends a frame or fsyncs.
#[test]
fn a_failing_wal_append_fails_neither_a_create_nor_a_feed() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let dir = fresh_dir("append_fails");
    let config = ServiceConfig {
        max_sessions: 2,
        ..durable_config()
    };
    let svc = Service::open_durable(&dir, &corpus(), config, StoreConfig::default()).unwrap();
    let storage = svc.stats().storage;
    let broken = failpoint::scoped("wal.append", Action::Error("disk gone".into()));
    let evicted = svc.create_session().unwrap();
    let closed = svc.create_session().unwrap();
    let fed = svc.create_session().unwrap();
    assert!(matches!(
        svc.feed_ids(evicted, &[0], None),
        Err(ServiceError::UnknownSession(id)) if id == evicted
    ));
    svc.close_session(closed).unwrap();
    assert_eq!(svc.feed_ids(fed, &[0, 1], None).unwrap().iteration, 1);
    assert_eq!(broken.hits(), 0, "nothing tried to append");
    drop(broken);
    let stats = svc.stats();
    assert_eq!(stats.storage, storage, "no WAL append, no fsync");
    assert_eq!((stats.evictions, stats.sessions_closed), (1, 1));
    assert_eq!(svc.active_sessions(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Two deliveries of the same shipped record race at `id == total`
/// while the WAL fsync stalls: the check and the append are one hold of
/// the writer, so exactly one applies it — in memory and on disk.
#[test]
fn racing_deliveries_of_one_record_apply_it_once() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let (svc, dir) = durable_service("repl_race");
    let svc = Arc::new(svc);
    let frames = encode_record_frame(&WalRecord::Ingest {
        id: 256,
        vector: vec![100.0, 100.0],
    });

    let stall = failpoint::scoped("wal.fsync", Action::Sleep(600));
    let start = Arc::new(Barrier::new(2));
    let deliveries: Vec<_> = (0..2)
        .map(|_| {
            let (svc, start, frames) = (Arc::clone(&svc), Arc::clone(&start), frames.clone());
            thread::spawn(move || {
                start.wait();
                svc.apply_fenced(1, 0, &frames)
            })
        })
        .collect();
    let mut outcomes: Vec<(u64, u64)> = deliveries
        .into_iter()
        .map(|d| d.join().unwrap().expect("both deliveries succeed"))
        .collect();
    drop(stall);
    outcomes.sort_unstable();
    assert_eq!(outcomes, vec![(257, 0), (257, 1)], "(total, applied)");
    assert_eq!(svc.total_vectors(), 257);

    drop(svc);
    let reopened =
        Service::open_durable(&dir, &[], ServiceConfig::default(), StoreConfig::default()).unwrap();
    assert_eq!(reopened.total_vectors(), 257, "one copy on disk");
    std::fs::remove_dir_all(&dir).ok();
}

/// The sealed segment files in `dir`.
fn segments_in(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("seg-") && n.ends_with(".qseg"))
        .collect()
}

/// A seed with a NaN, an ∞ or a ragged vector is refused at boot by both
/// constructors, and a durable boot seals nothing —
/// no k-NN worker ever sees such a value.
#[test]
fn a_bad_seed_is_a_typed_error_at_boot() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let mut seeds = Vec::new();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut seed = corpus();
        seed[7][1] = bad;
        seeds.push(seed);
    }
    let mut ragged = corpus();
    ragged[100].push(1.0);
    seeds.push(ragged);

    for seed in &seeds {
        let refused = Service::new(seed, durable_config());
        assert!(
            matches!(refused, Err(ServiceError::InvalidRequest(_))),
            "{refused:?}"
        );
        let dir = fresh_dir("bad_seed");
        let refused = Service::open_durable(&dir, seed, durable_config(), StoreConfig::default());
        assert!(
            matches!(refused, Err(ServiceError::InvalidRequest(_))),
            "{refused:?}"
        );
        assert!(segments_in(&dir).is_empty(), "nothing sealed");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A finite vector whose range `f64` cannot code (its quantized shard
/// then scans exactly) is durable data like any other: it flushes into a
/// segment and the node reopens over it.
#[test]
fn a_finite_vector_too_wide_to_code_flushes_and_reopens() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();

    let (svc, dir) = durable_service("wide_range");
    let wide = vec![-1e308, 0.0];
    assert_eq!(svc.ingest(wide.clone()).unwrap().id, 256);
    // With it, the folded WAL tail spans a range too wide to code.
    svc.ingest(vec![5.0, 5.0]).unwrap();
    svc.flush().expect("a finite range seals");
    drop(svc);

    let reopened = Service::open_durable(&dir, &[], durable_config(), StoreConfig::default())
        .expect("reopens over what it acked");
    assert_eq!(reopened.total_vectors(), 258);
    let session = reopened.create_session().unwrap();
    let out = reopened.query_vector(session, wide, 1).unwrap();
    assert!(!out.degraded());
    assert_eq!(out.neighbors[0].id, 256);
    assert_eq!(out.neighbors[0].distance, 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The answers of `svc` to a few example queries, distance bits included.
fn answers(svc: &Service) -> Vec<Vec<(usize, u64)>> {
    let session = svc.create_session().unwrap();
    [[0.5, 0.5], [25.0, 0.5], [10.3, 9.7], [31.0, 30.0]]
        .into_iter()
        .map(|q| {
            let out = svc.query_vector(session, q.to_vec(), 9).unwrap();
            assert!(!out.degraded());
            let hits = out.neighbors.iter();
            hits.map(|n| (n.id, n.distance.to_bits())).collect()
        })
        .collect()
}

/// The seal that runs beside the shard build keeps failing cleanly: an
/// I/O error is a typed error that leaves no segment, and the next boot
/// from the same seed answers bit for bit like a memory-only service.
#[test]
fn a_failed_seal_at_boot_leaves_no_segment_and_a_retry_boots() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();
    let dir = fresh_dir("seal_error");

    let fp =
        failpoint::scoped_counted("segment.finish", Action::Error("ENOSPC".into()), 0, Some(1));
    let refused = Service::open_durable(&dir, &corpus(), durable_config(), StoreConfig::default());
    assert!(
        matches!(refused, Err(ServiceError::Storage(_))),
        "{refused:?}"
    );
    assert_eq!(fp.hits(), 1);
    drop(fp);
    assert!(segments_in(&dir).is_empty(), "{:?}", segments_in(&dir));

    let durable =
        Service::open_durable(&dir, &corpus(), durable_config(), StoreConfig::default()).unwrap();
    assert_eq!(segments_in(&dir).len(), 1);
    let memory = Service::new(&corpus(), durable_config()).unwrap();
    assert_eq!(answers(&durable), answers(&memory));
    std::fs::remove_dir_all(&dir).ok();
}

/// A seal thread that panics is a typed error on the calling thread,
/// not a process panic.
#[test]
fn a_panicking_seal_at_boot_is_a_typed_error() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();
    let dir = fresh_dir("seal_panic");

    let fp = failpoint::scoped_counted("segment.finish", Action::Panic("torn".into()), 0, Some(1));
    let refused = Service::open_durable(&dir, &corpus(), durable_config(), StoreConfig::default());
    assert!(
        matches!(&refused, Err(ServiceError::Storage(msg)) if msg.contains("panicked")),
        "{refused:?}"
    );
    assert_eq!(fp.hits(), 1);
    drop(fp);
    assert!(segments_in(&dir).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// The durability point does not move: however long the seal takes, the
/// boot returns only after its segment is fsynced and renamed into place.
#[test]
fn a_durable_boot_returns_after_its_segment_is_in_place() {
    let _serial = failpoint::test_lock();
    failpoint::clear_all();
    let dir = fresh_dir("seal_sleep");

    let fp = failpoint::scoped("segment.finish", Action::Sleep(300));
    let started = Instant::now();
    let svc = Service::open_durable(&dir, &corpus(), durable_config(), StoreConfig::default())
        .expect("slow seal still boots");
    let waited = started.elapsed();
    assert_eq!(fp.hits(), 1);
    drop(fp);
    assert!(
        waited >= Duration::from_millis(300),
        "returned after {waited:?}"
    );
    assert_eq!(segments_in(&dir).len(), 1, "renamed into place");
    let staged = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "tmp")
        })
        .count();
    assert_eq!(staged, 0, "no staging file left");
    assert_eq!(svc.total_vectors(), corpus().len());
    std::fs::remove_dir_all(&dir).ok();
}
