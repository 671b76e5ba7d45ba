//! Property tests for the compiled query kernels: the disjunctive
//! multipoint query and the single-cluster quadratic must evaluate
//! blocks through `distance_batch` **bit-for-bit** identically to the
//! scalar path, under both covariance schemes and at every block size —
//! and the blocked k-NN selection over them must match a full sort, as
//! must the quantized two-phase scan when the query spans two plan
//! chunks.

use proptest::prelude::*;
use qcluster_core::{Cluster, ClusterDistance, CovarianceScheme, DisjunctiveQuery, FeedbackPoint};
use qcluster_index::{LinearScan, Neighbor, QuantizedScan, QueryDistance};

/// A cluster's points with spread in both dimensions, so covariances
/// are non-degenerate under both schemes.
fn cluster_points(offset: f64) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        (offset - 2.0..offset + 2.0, offset - 2.0..offset + 2.0).prop_map(|(x, y)| vec![x, y]),
        4..10,
    )
    .prop_filter("needs spread in both dims", |pts| {
        let spread = |d: usize| {
            let lo = pts.iter().map(|p| p[d]).fold(f64::INFINITY, f64::min);
            let hi = pts.iter().map(|p| p[d]).fold(f64::NEG_INFINITY, f64::max);
            hi - lo
        };
        spread(0) > 0.5 && spread(1) > 0.5
    })
}

fn make_cluster(pts: &[Vec<f64>], base_id: usize, score: f64) -> Cluster {
    Cluster::from_points(
        pts.iter()
            .enumerate()
            .map(|(i, p)| FeedbackPoint::new(base_id + i, p.clone(), score))
            .collect(),
    )
    .unwrap()
}

fn schemes() -> [CovarianceScheme; 2] {
    [
        CovarianceScheme::default_diagonal(),
        CovarianceScheme::default_full(),
    ]
}

fn flatten(pts: &[Vec<f64>]) -> Vec<f64> {
    pts.iter().flatten().copied().collect()
}

fn batch_in_blocks<Q: QueryDistance>(
    query: &Q,
    flat: &[f64],
    dim: usize,
    n: usize,
    block_size: usize,
) -> Vec<f64> {
    let mut out = vec![0.0; n];
    let mut start = 0;
    while start < n {
        let count = block_size.min(n - start);
        query.distance_batch(
            &flat[start * dim..(start + count) * dim],
            dim,
            &mut out[start..start + count],
        );
        start += count;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn disjunctive_batch_matches_scalar_bitwise(
        p1 in cluster_points(0.0),
        p2 in cluster_points(4.0),
        s1 in 0.5..4.0f64,
        s2 in 0.5..4.0f64,
        corpus in prop::collection::vec(
            (-6.0..10.0f64, -6.0..10.0f64).prop_map(|(x, y)| vec![x, y]),
            1..300,
        ),
    ) {
        let clusters = [make_cluster(&p1, 0, s1), make_cluster(&p2, 1000, s2)];
        let flat = flatten(&corpus);
        for scheme in schemes() {
            let q = DisjunctiveQuery::new(&clusters, scheme).unwrap();
            for bs in [1usize, 7, 256, corpus.len()] {
                let got = batch_in_blocks(&q, &flat, 2, corpus.len(), bs);
                for (p, &d) in got.iter().enumerate() {
                    prop_assert_eq!(
                        d,
                        q.distance(&corpus[p]),
                        "{:?} block_size={} p={}",
                        scheme,
                        bs,
                        p
                    );
                }
            }
        }
    }

    #[test]
    fn cluster_distance_batch_matches_scalar_bitwise(
        p1 in cluster_points(0.0),
        corpus in prop::collection::vec(
            (-6.0..6.0f64, -6.0..6.0f64).prop_map(|(x, y)| vec![x, y]),
            1..300,
        ),
    ) {
        let c = make_cluster(&p1, 0, 1.0);
        let flat = flatten(&corpus);
        for scheme in schemes() {
            let q = ClusterDistance::new(&c, scheme).unwrap();
            for bs in [1usize, 7, 256, corpus.len()] {
                let got = batch_in_blocks(&q, &flat, 2, corpus.len(), bs);
                for (p, &d) in got.iter().enumerate() {
                    prop_assert_eq!(d, q.distance(&corpus[p]));
                }
            }
        }
    }

    #[test]
    fn blocked_knn_with_disjunctive_query_equals_full_sort(
        p1 in cluster_points(0.0),
        p2 in cluster_points(4.0),
        corpus in prop::collection::vec(
            (-6.0..10.0f64, -6.0..10.0f64).prop_map(|(x, y)| vec![x, y]),
            1..300,
        ),
        k in 1usize..25,
    ) {
        let clusters = [make_cluster(&p1, 0, 1.0), make_cluster(&p2, 1000, 1.0)];
        let scan = LinearScan::new(&corpus);
        for scheme in schemes() {
            let q = DisjunctiveQuery::new(&clusters, scheme).unwrap();
            let got = scan.knn(&q, k);
            let mut want: Vec<Neighbor> = corpus
                .iter()
                .enumerate()
                .map(|(id, p)| Neighbor { id, distance: q.distance(p) })
                .collect();
            want.sort_by(|a, b| {
                a.distance
                    .partial_cmp(&b.distance)
                    .expect("non-NaN distances")
                    .then_with(|| a.id.cmp(&b.id))
            });
            want.truncate(k);
            prop_assert_eq!(got, want);
        }
    }
    /// Six representatives compile into two phase-1 plan chunks (four
    /// components + two) whose harmonic terms accumulate per point; the
    /// streamed two-phase scan must still equal the exact scan bit for
    /// bit, at the default window and at one tight enough to force the
    /// re-streamed second round.
    #[test]
    fn two_phase_scan_with_two_plan_chunks_equals_linear_scan(
        groups in prop::collection::vec(cluster_points(0.0), 6),
        corpus in prop::collection::vec(
            (-6.0..30.0f64, -6.0..30.0f64).prop_map(|(x, y)| vec![x, y]),
            260..700,
        ),
        k in 1usize..25,
    ) {
        let clusters: Vec<Cluster> = groups
            .iter()
            .enumerate()
            .map(|(g, pts)| {
                let shifted: Vec<Vec<f64>> = pts
                    .iter()
                    .map(|p| p.iter().map(|v| v + 4.0 * g as f64).collect())
                    .collect();
                make_cluster(&shifted, g * 1000, 1.0 + g as f64)
            })
            .collect();
        let q = DisjunctiveQuery::new(&clusters, CovarianceScheme::default_diagonal()).unwrap();
        prop_assert_eq!(q.num_representatives(), 6);
        let want = LinearScan::new(&corpus).knn(&q, k);
        let quant = QuantizedScan::from_rows(&corpus);
        for window in [None, Some(k)] {
            let (got, stats) = quant.two_phase_knn(&q, k, window);
            prop_assert_eq!(&got, &want, "window={:?}", window);
            prop_assert_eq!(stats.plan_misses, 0);
            prop_assert_eq!(stats.fallback_rescans, 0);
            prop_assert_eq!(stats.second_rounds, u64::from(window.is_some()));
            // Two chunks accumulate through `out`, so the screen must
            // stay off: every tile runs the tail, in either round.
            let ntiles = corpus.len().div_ceil(8) as u64;
            prop_assert_eq!(stats.tail_tiles, ntiles * (1 + stats.second_rounds));
        }
    }
}
