//! The shipped service answers exactly like an offline oracle:
//! `ServiceConfig::default()` against `LinearScan::knn` (the example
//! round, an `EuclideanQuery`) and against `LinearScan::knn` over the
//! query an offline `QclusterEngine` compiles from the same feedback
//! points (the refined round), compared on ids and `distance.to_bits()`,
//! over generated corpus sizes, dimensions and `k`, at 1, 2 and 4
//! workers (the shards share one phase-1 threshold), with and without a
//! deadline (the caller claims shard jobs, or the workers run them all).
//! A session hosts the default (diagonal) scheme, the u8 fast path; the
//! full-inverse scheme's refined query, compiled offline, goes through
//! `Service::query_compiled`, every refined shard scan a plan miss.
//!
//! Every generated corpus has a length that is a multiple of neither 8
//! (a padded last tile) nor the shard count (a ragged last shard), and a
//! pair of identical vectors either side of the first shard boundary,
//! which the example query asks for: the tie must go to the lower id.
//!
//! A node bounds each refined round's scan by the `k`-th distance of
//! the session's previous answer, so a session of several refined
//! rounds is pinned too: three feeds, the last query repeated (a plan
//! cache hit whose bound is exactly its `d_k`, every tie at it
//! included), then a larger `k` than the recorded answer holds (no
//! bound) and a smaller one again — and, on a durable node, a previous
//! answer holding overlay ids, which count towards the bound although
//! the overlay is outside the bounded scan.

use proptest::prelude::*;
use qcluster_core::{
    CovarianceScheme, DisjunctiveQuery, FeedbackPoint, QclusterConfig, QclusterEngine,
};
use qcluster_index::{EuclideanQuery, LinearScan, Neighbor};
use qcluster_service::{Service, ServiceConfig, StoreConfig, DEFAULT_SCORE};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Duration;

const SHARDS: usize = 3;

/// A deadline no round comes near, so the deadline path answers whole.
const GENEROUS: Duration = Duration::from_secs(60);

/// Two blobs, ids below `n / 2` around the origin and the rest around
/// `(10, …, 10)`, with the point after the first shard boundary
/// overwritten by a copy of the one before it.
fn corpus(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let centre = if i < n / 2 { 0.0 } else { 10.0 };
            (0..dim)
                .map(|_| centre + rng.gen_range(-1.0..1.0))
                .collect()
        })
        .collect();
    let chunk = n.div_ceil(SHARDS);
    points[chunk] = points[chunk - 1].clone();
    points
}

type Bits = Vec<(usize, u64)>;

fn bits(neighbors: &[Neighbor]) -> Bits {
    neighbors
        .iter()
        .map(|n| (n.id, n.distance.to_bits()))
        .collect()
}

/// The refined query an offline engine under `scheme` compiles from the
/// points the service feeds for `marked`.
fn refined(points: &[Vec<f64>], scheme: CovarianceScheme, marked: &[usize]) -> DisjunctiveQuery {
    let mut engine = QclusterEngine::new(QclusterConfig {
        scheme,
        ..QclusterConfig::default()
    });
    let fed: Vec<FeedbackPoint> = marked
        .iter()
        .map(|&id| FeedbackPoint::new(id, points[id].clone(), DEFAULT_SCORE))
        .collect();
    engine.feed(&fed).unwrap();
    engine.query().unwrap()
}

/// One session: the example query, a feed that leaves ≥ 2 clusters, the
/// refined query, each under `deadline`.
fn rounds(
    svc: &Service,
    example: &[f64],
    marked: &[usize],
    k: usize,
    deadline: Option<Duration>,
) -> (Bits, Bits) {
    let session = svc.create_session().unwrap();
    let first = svc
        .query_with_deadline(session, k, Some(example.to_vec()), deadline)
        .unwrap();
    let fed = svc.feed_ids(session, marked, None).unwrap();
    assert!(fed.clusters.unwrap() >= 2, "a disjunctive query");
    let refined = svc.query_with_deadline(session, k, None, deadline).unwrap();
    (bits(&first.neighbors), bits(&refined.neighbors))
}

proptest! {
    #[test]
    fn default_service_answers_like_the_offline_oracle(
        n in 9usize..160,
        dim in 1usize..20,
        k_permille in 0usize..1000,
        seed in any::<u64>(),
    ) {
        let mut n = n;
        while n % 8 == 0 || n % SHARDS == 0 {
            n += 1;
        }
        // 1 ..= n + 2: from one neighbour to more than the corpus holds,
        // past a shard's length (n / 3) two times in three.
        let k = 1 + k_permille * (n + 2) / 1000;
        let points = corpus(n, dim, seed);
        let chunk = n.div_ceil(SHARDS);
        let example = &points[chunk];
        // Four ids from each blob.
        let marked = [0, 1, 2, 3, n - 4, n - 3, n - 2, n - 1];

        let scan = LinearScan::new(&points);
        let diagonal = refined(&points, QclusterConfig::default().scheme, &marked);
        let full = refined(&points, CovarianceScheme::default_full(), &marked);
        let want = (
            bits(&scan.knn(&EuclideanQuery::new(example.to_vec()), k)),
            bits(&scan.knn(&diagonal, k)),
        );
        let want_full = bits(&scan.knn(&full, k));
        prop_assert_eq!(want.0.len(), k.min(n));
        prop_assert_eq!(want.1.len(), k.min(n));
        prop_assert_eq!(want_full.len(), k.min(n));
        prop_assert_eq!(want.0[0], (chunk - 1, 0), "the lower id wins the tie");
        if k > 1 {
            prop_assert_eq!(want.0[1], (chunk, 0), "its copy across the boundary is next");
        }
        // One worker hands the shared threshold from shard job to shard
        // job; more race for it. Without a deadline the caller claims
        // shard jobs beside the free workers; with one, the workers run
        // them all.
        for (workers, deadline) in [1, 2, 4].into_iter().flat_map(|w| [(w, None), (w, Some(GENEROUS))]) {
            let config = ServiceConfig { num_shards: SHARDS, num_workers: workers, ..ServiceConfig::default() };
            let shipped = Service::new(&points, config).expect("spawn service");
            let got = rounds(&shipped, example, &marked, k, deadline);
            prop_assert_eq!(&got, &want, "workers={} deadline={:?} n={} dim={} k={}", workers, deadline, n, dim, k);
            let quant = shipped.stats().quant;
            prop_assert!(quant.phase1_points > 0, "the default runs the u8 scan");
            prop_assert_eq!(quant.plan_misses, 0, "diagonal queries plan cleanly");

            // No diagonal weights, no plan: each full-inverse shard scan
            // is served exactly and counted.
            let got_full = shipped.query_compiled(&full, k, deadline, None).unwrap();
            prop_assert_eq!(bits(&got_full.neighbors), want_full.clone(), "full-inverse, workers={} deadline={:?}", workers, deadline);
            let quant = shipped.stats().quant;
            prop_assert_eq!(quant.fallback_rescans, 0);
            prop_assert!(quant.plan_misses > 0);
        }
    }
}

/// The ids a refined round `round` of [`session_rounds`] marks, disjoint
/// across rounds: four from each blob, then two from each (`n ≥ 24`).
fn marks(n: usize, round: usize) -> Vec<usize> {
    if round == 0 {
        return vec![0, 1, 2, 3, n - 4, n - 3, n - 2, n - 1];
    }
    let lo = 2 + 2 * round;
    vec![lo, lo + 1, n - lo - 2, n - lo - 1]
}

/// The `k` of each refined query of [`session_rounds`] after its feeds:
/// the last feed's `k` again (a plan-cache hit), `wide` (more than the
/// recorded answer holds) and `k` once more (bounded by the wide answer).
fn tail_ks(k: usize, wide: usize) -> [usize; 3] {
    [k, wide, k]
}

/// One session on `svc`: the example round, three feeds of [`marks`]
/// each followed by a refined query, then the refined queries of
/// [`tail_ks`], each under `deadline`. Returns every answer after the
/// example's.
fn session_rounds(
    svc: &Service,
    example: &[f64],
    k: usize,
    wide: usize,
    deadline: Option<Duration>,
) -> Vec<Bits> {
    let n = svc.total_vectors();
    let session = svc.create_session().unwrap();
    svc.query_with_deadline(session, k, Some(example.to_vec()), deadline)
        .unwrap();
    let mut answers = Vec::new();
    let mut query = |k| {
        let out = svc.query_with_deadline(session, k, None, deadline).unwrap();
        answers.push(bits(&out.neighbors));
    };
    for round in 0..3 {
        svc.feed_ids(session, &marks(n, round), None).unwrap();
        query(k);
    }
    for k in tail_ks(k, wide) {
        query(k);
    }
    answers
}

/// What [`session_rounds`] must return over `points`: an offline engine
/// fed the same rounds, each compiled query scanned exactly.
fn session_oracle(points: &[Vec<f64>], k: usize, wide: usize) -> Vec<Bits> {
    let n = points.len();
    let scan = LinearScan::new(points);
    let mut engine = QclusterEngine::new(QclusterConfig::default());
    let mut answers = Vec::new();
    for round in 0..3 {
        let fed: Vec<FeedbackPoint> = marks(n, round)
            .into_iter()
            .map(|id| FeedbackPoint::new(id, points[id].clone(), DEFAULT_SCORE))
            .collect();
        engine.feed(&fed).unwrap();
        answers.push(bits(&scan.knn(&engine.query().unwrap(), k)));
    }
    let last = engine.query().unwrap();
    for k in tail_ks(k, wide) {
        answers.push(bits(&scan.knn(&last, k)));
    }
    answers
}

proptest! {
    #[test]
    fn a_session_of_refined_rounds_answers_like_the_offline_oracle(
        n in 24usize..200,
        dim in 1usize..12,
        k_permille in 0usize..1000,
        seed in any::<u64>(),
    ) {
        let mut n = n;
        while n % 8 == 0 || n % SHARDS == 0 {
            n += 1;
        }
        let k = 1 + k_permille * n / 1000;
        let wide = k + 1 + k_permille % 7;
        let points = corpus(n, dim, seed);
        let example = &points[n.div_ceil(SHARDS)];
        let want = session_oracle(&points, k, wide);
        for (workers, deadline) in [1, 2, 4].into_iter().flat_map(|w| [(w, None), (w, Some(GENEROUS))]) {
            let config = ServiceConfig { num_shards: SHARDS, num_workers: workers, ..ServiceConfig::default() };
            let shipped = Service::new(&points, config).expect("spawn service");
            let got = session_rounds(&shipped, example, k, wide, deadline);
            prop_assert_eq!(&got, &want, "workers={} deadline={:?} n={} dim={} k={}", workers, deadline, n, dim, k);
            let stats = shipped.stats();
            prop_assert_eq!(stats.quant.fallback_rescans, 0);
            prop_assert_eq!(stats.quant.plan_misses, 0);
            prop_assert_eq!((stats.plan_cache_misses, stats.plan_cache_hits), (3, 3));
        }
    }
}

/// A durable node whose overlay holds copies of the points the session
/// looks at: the example and refined answers hold overlay ids, whose
/// remembered vectors count towards the next round's bound, so the
/// base fan-out may bring fewer than `k` points under it and the
/// overlay scan the rest. Every answer equals the exact scan over base
/// and overlay, and no round falls back to an exact rescan.
#[test]
fn a_previous_answer_holding_overlay_ids_seeds_an_exact_round() {
    let (n, dim, k) = (95, 4, 12);
    let base = corpus(n, dim, 0x5eed);
    let dir = std::env::temp_dir().join(format!("qsvc_seed_overlay_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = ServiceConfig {
        num_shards: SHARDS,
        num_workers: 2,
        ..ServiceConfig::default()
    };
    let svc = Service::open_durable(&dir, &base, config, StoreConfig::default()).unwrap();
    let copies: Vec<Vec<f64>> = [0, 2, 5, 6, 7, n - 1, n - 5, n - 6]
        .iter()
        .map(|&id| base[id].iter().map(|v| v + 1e-3).collect())
        .collect();
    for v in &copies {
        svc.ingest(v.clone()).unwrap();
    }
    let union: Vec<Vec<f64>> = base.iter().chain(&copies).cloned().collect();
    let wide = 3 * k;
    let want = session_oracle(&union, k, wide);
    let got = session_rounds(&svc, &base[1], k, wide, None);
    assert_eq!(got, want);
    // Every answer holds overlay ids, so every bound after the example
    // round counts overlay points; the wide answer holds `k` base ids.
    let base_ids = |answer: &Bits| answer.iter().filter(|(id, _)| *id < n).count();
    assert!(got.iter().all(|a| base_ids(a) < a.len()), "{got:?}");
    assert!(base_ids(&got[4]) >= k, "{got:?}");
    assert_eq!(svc.stats().quant.fallback_rescans, 0);
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}
