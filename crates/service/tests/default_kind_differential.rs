//! The shipped service answers exactly like an offline oracle:
//! `ServiceConfig::default()` against `LinearScan::knn` (the example
//! round, an `EuclideanQuery`) and against `LinearScan::knn` over the
//! query an offline `QclusterEngine` compiles from the same feedback
//! points (the refined round), compared on ids and `distance.to_bits()`,
//! over generated corpus sizes, dimensions and `k`, at 1, 2 and 4
//! workers (the shards share one phase-1 threshold), with and without a
//! deadline (the caller claims shard jobs, or the workers run them all)
//! — under the diagonal scheme (the u8 fast path) and under the
//! full-inverse scheme (every refined shard scan a plan miss).
//!
//! Every generated corpus has a length that is a multiple of neither 8
//! (a padded last tile) nor the shard count (a ragged last shard), and a
//! pair of identical vectors either side of the first shard boundary,
//! which the example query asks for: the tie must go to the lower id.

use proptest::prelude::*;
use qcluster_core::{CovarianceScheme, FeedbackPoint, QclusterConfig, QclusterEngine};
use qcluster_index::{EuclideanQuery, LinearScan, Neighbor};
use qcluster_service::{Service, ServiceConfig};
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

/// What a session of [`rounds`] must return: an exact scan for the
/// example, and for the refined round an exact scan over the query an
/// offline engine compiles from the points the service feeds.
fn oracle(
    points: &[Vec<f64>],
    config: &ServiceConfig,
    example: &[f64],
    marked: &[usize],
    k: usize,
) -> (Bits, Bits) {
    let scan = LinearScan::new(points);
    let first = scan.knn(&EuclideanQuery::new(example.to_vec()), k);
    let mut engine = QclusterEngine::new(config.engine);
    let fed: Vec<FeedbackPoint> = marked
        .iter()
        .map(|&id| FeedbackPoint::new(id, points[id].clone(), config.default_score))
        .collect();
    engine.feed(&fed).unwrap();
    let refined = scan.knn(&engine.query().unwrap(), k);
    (bits(&first), bits(&refined))
}

/// One session: the example query, a feed that leaves ≥ 2 clusters, the
/// refined query.
fn rounds(svc: &Service, example: &[f64], marked: &[usize], k: usize) -> (Bits, Bits) {
    let session = svc.create_session().unwrap();
    let first = svc.query_vector(session, example.to_vec(), k).unwrap();
    let fed = svc.feed_ids(session, marked, None).unwrap();
    assert!(fed.clusters.unwrap() >= 2, "a disjunctive query");
    let refined = svc.query(session, k).unwrap();
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

        let diagonal = ServiceConfig {
            num_shards: SHARDS,
            num_workers: 2,
            ..ServiceConfig::default()
        };
        let full = ServiceConfig {
            engine: QclusterConfig {
                scheme: CovarianceScheme::default_full(),
                ..QclusterConfig::default()
            },
            ..diagonal.clone()
        };
        for base in [&diagonal, &full] {
            let want = oracle(&points, base, example, &marked, k);
            prop_assert_eq!(want.0.len(), k.min(n));
            prop_assert_eq!(want.1.len(), k.min(n));
            prop_assert_eq!(want.0[0], (chunk - 1, 0), "the lower id wins the tie");
            if k > 1 {
                prop_assert_eq!(want.0[1], (chunk, 0), "its copy across the boundary is next");
            }
            // One worker hands the shared threshold from shard job to
            // shard job; more race for it. Without a deadline the caller
            // claims shard jobs beside the free workers; with one, the
            // workers run them all.
            for (workers, deadline) in [1, 2, 4].into_iter().flat_map(|w| [(w, None), (w, Some(GENEROUS))]) {
                let config = ServiceConfig { num_workers: workers, default_deadline: deadline, ..base.clone() };
                let shipped = Service::new(&points, config).expect("spawn service");
                let got = rounds(&shipped, example, &marked, k);
                prop_assert_eq!(&got, &want, "workers={} deadline={:?} n={} dim={} k={}", workers, deadline, n, dim, k);

                let quant = shipped.stats().quant;
                prop_assert!(quant.phase1_points > 0, "the default runs the u8 scan");
                prop_assert_eq!(quant.fallback_rescans, 0);
                if base.engine.scheme == CovarianceScheme::default_full() {
                    // No diagonal weights, no plan: each refined shard scan
                    // is served exactly and counted.
                    prop_assert!(quant.plan_misses > 0);
                }
            }
        }
    }
}
