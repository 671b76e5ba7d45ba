//! `QuerySpec`, the wire form of a compiled query. Every compiled kind
//! (both covariance schemes, every aggregate rule) survives
//! `QuerySpec::of` → JSON → decode → `compile` with `distance`,
//! `distance_tiles` and `quantized_plan` bit-identical to the original,
//! and a hostile spec sent to `dispatch` is a typed error, never a
//! panic.

use proptest::prelude::*;
use qcluster_baselines::{AggregateKind, MultiPointQuery};
use qcluster_core::{
    Cluster, ClusterDistance, CovarianceScheme, DisjunctiveQuery, FeedbackPoint, QclusterConfig,
};
use qcluster_index::{
    EuclideanQuery, FanoutQuery, QuantParams, TileCorpus, WeightedEuclideanQuery,
};
use qcluster_service::{
    dispatch, spec::MAX_SPEC_MAGNITUDE, AggregateSpec, InverseSpec, PointSpec, QuerySpec,
    RepresentativeSpec, Request, Response, Service, ServiceConfig, ServiceError, DEFAULT_SCORE,
};

fn cluster(points: &[Vec<f64>], first_id: usize) -> Cluster {
    Cluster::from_points(
        points
            .iter()
            .enumerate()
            .map(|(i, v)| FeedbackPoint::new(first_id + i, v.clone(), 1.0 + (i % 3) as f64))
            .collect(),
    )
    .unwrap()
}

/// One query of every compiled kind over the clusters `clouds` form.
fn every_kind(clouds: &[Vec<Vec<f64>>]) -> Vec<Box<dyn FanoutQuery>> {
    let first = &clouds[0];
    let weights = first[1].iter().map(|x| x.abs()).collect();
    let mut queries: Vec<Box<dyn FanoutQuery>> = vec![
        Box::new(EuclideanQuery::new(first[0].clone())),
        Box::new(WeightedEuclideanQuery::new(first[0].clone(), weights)),
    ];
    let clusters: Vec<Cluster> = clouds
        .iter()
        .enumerate()
        .map(|(i, c)| cluster(c, 100 * i))
        .collect();
    for scheme in [
        CovarianceScheme::default_diagonal(),
        CovarianceScheme::FullInverse { lambda: 0.5 },
    ] {
        queries.push(Box::new(
            ClusterDistance::new(&clusters[0], scheme).unwrap(),
        ));
        queries.push(Box::new(DisjunctiveQuery::new(&clusters, scheme).unwrap()));
    }
    for kind in [
        AggregateKind::Convex,
        AggregateKind::MultiFocal,
        AggregateKind::FuzzyOr { alpha: -5.0 },
    ] {
        queries.push(Box::new(MultiPointQuery::from_clusters(
            &clusters, 0.05, kind,
        )));
    }
    queries
}

fn coords(dim: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-5.0f64..5.0, dim), n)
}

/// Clusters of 3–9 points, a probe corpus of 1–40 points, one `dim`.
fn scene() -> impl Strategy<Value = (Vec<Vec<Vec<f64>>>, Vec<Vec<f64>>)> {
    (2usize..6).prop_flat_map(|dim| {
        (
            prop::collection::vec(coords(dim, 3..10), 1..4),
            coords(dim, 1..41),
        )
    })
}

/// Values that break every rule a spec has, beside ordinary ones.
fn hostile_value() -> impl Strategy<Value = f64> {
    (0usize..9, -3.0f64..3.0).prop_map(|(pick, x)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -1.0,
        4 => 0.0,
        5 => 1e308,
        6 => -MAX_SPEC_MAGNITUDE,
        7 => MAX_SPEC_MAGNITUDE,
        _ => x,
    })
}

/// 0–3 hostile values: a spec over the 2-d corpus needs exactly 2.
fn hostile_values() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(hostile_value(), 0..4)
}

fn hostile_scalar() -> impl Strategy<Value = f64> {
    (0usize..6, 0.5f64..3.0).prop_map(|(pick, x)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => -1.0,
        3 => 0.0,
        4 => MAX_SPEC_MAGNITUDE,
        _ => x,
    })
}

fn hostile_representative() -> impl Strategy<Value = RepresentativeSpec> {
    (
        hostile_values(),
        any::<bool>(),
        hostile_values(),
        hostile_scalar(),
        hostile_scalar(),
    )
        .prop_map(
            |(mean, diagonal, inverse, mass, min_eigenvalue)| RepresentativeSpec {
                mean,
                inverse: if diagonal {
                    InverseSpec::Diagonal(inverse)
                } else {
                    InverseSpec::Full(inverse)
                },
                mass,
                min_eigenvalue,
            },
        )
}

fn hostile_point() -> impl Strategy<Value = PointSpec> {
    (hostile_values(), hostile_values(), hostile_scalar()).prop_map(|(center, weights, mass)| {
        PointSpec {
            center,
            weights,
            mass,
        }
    })
}

fn hostile_aggregate() -> impl Strategy<Value = AggregateSpec> {
    (0usize..4, hostile_scalar(), -8.0f64..-0.5).prop_map(|(pick, wild, alpha)| match pick {
        0 => AggregateSpec::Convex,
        1 => AggregateSpec::MultiFocal,
        2 => AggregateSpec::FuzzyOr { alpha: wild },
        _ => AggregateSpec::FuzzyOr { alpha },
    })
}

fn hostile_spec() -> impl Strategy<Value = QuerySpec> {
    (
        0usize..5,
        hostile_values(),
        hostile_values(),
        prop::collection::vec(hostile_representative(), 0..3),
        prop::collection::vec(hostile_point(), 0..3),
        hostile_aggregate(),
    )
        .prop_map(
            |(kind, a, b, mut representatives, points, aggregate)| match kind {
                0 => QuerySpec::Euclidean { center: a },
                1 => QuerySpec::WeightedEuclidean {
                    center: a,
                    weights: b,
                },
                2 => QuerySpec::Cluster(representatives.pop().unwrap_or(RepresentativeSpec {
                    mean: a,
                    inverse: InverseSpec::Diagonal(b),
                    mass: 1.0,
                    min_eigenvalue: 0.0,
                })),
                3 => QuerySpec::Disjunctive { representatives },
                _ => QuerySpec::MultiPoint { points, aggregate },
            },
        )
}

fn two_d_service() -> Service {
    let points: Vec<Vec<f64>> = (0..40)
        .map(|i| vec![(i % 7) as f64, (i / 7) as f64])
        .collect();
    Service::new(
        &points,
        ServiceConfig {
            num_shards: 2,
            num_workers: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap()
}

proptest! {
    #[test]
    fn every_kind_survives_the_wire_bit_for_bit(scene in scene()) {
        let (clouds, probes) = scene;
        let dim = probes[0].len();
        let tiles = TileCorpus::from_rows(&probes);
        let params = QuantParams::fit_rows(&probes, dim);
        for query in every_kind(&clouds) {
            let spec = QuerySpec::of(&*query).unwrap();
            let text = serde_json::to_string(&spec).unwrap();
            let decoded: QuerySpec = serde_json::from_str(&text).unwrap();
            prop_assert_eq!(&decoded, &spec);
            let rebuilt = decoded.compile().unwrap();
            prop_assert_eq!(rebuilt.dim(), query.dim());
            for x in &probes {
                prop_assert_eq!(rebuilt.distance(x).to_bits(), query.distance(x).to_bits());
            }
            let mut want = vec![0.0; probes.len()];
            let mut got = vec![0.0; probes.len()];
            // The batch kernel a router's bound τ₀ is computed with.
            let rows = probes.concat();
            query.distance_batch(&rows, dim, &mut want);
            rebuilt.distance_batch(&rows, dim, &mut got);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
            query.distance_tiles(tiles.tiles(), dim, &mut want);
            rebuilt.distance_tiles(tiles.tiles(), dim, &mut got);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
            // `QuantPlan`'s Debug prints every coefficient in shortest
            // round-trip form: equal text is equal bits.
            prop_assert_eq!(
                format!("{:?}", rebuilt.quantized_plan(&params)),
                format!("{:?}", query.quantized_plan(&params))
            );
            // A rebuilt query rebuilds to the same spec.
            prop_assert_eq!(QuerySpec::of(&*rebuilt).unwrap(), spec);
        }
    }

    #[test]
    fn hostile_specs_are_typed_errors(spec in hostile_spec(), k in 0usize..4) {
        let service = two_d_service();
        let well_formed = spec.check().is_ok();
        let response = dispatch(&service, Request::QueryCompiled { query: spec, k, deadline_ms: None, bound: None });
        match response {
            Response::Scanned { neighbors, vectors, .. } => {
                prop_assert!(well_formed && k > 0);
                prop_assert_eq!(neighbors.len(), k);
                prop_assert_eq!(vectors.len(), k);
                prop_assert!(neighbors.iter().all(|n| !n.distance.is_nan()));
            }
            Response::Error(ServiceError::InvalidRequest(_)) => {}
            Response::Error(ServiceError::DimensionMismatch { expected: 2, .. }) => {
                prop_assert!(well_formed);
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }
}

#[test]
fn a_spec_answers_like_the_session_it_was_compiled_from() {
    let service = two_d_service();
    let session = service.create_session().unwrap();
    service.feed_ids(session, &[3, 4, 30, 31], None).unwrap();
    let mut engine = qcluster_core::QclusterEngine::new(QclusterConfig::default());
    let fed: Vec<FeedbackPoint> = [3usize, 4, 30, 31]
        .iter()
        .map(|&id| {
            let v = vec![(id % 7) as f64, (id / 7) as f64];
            FeedbackPoint::new(id, v, DEFAULT_SCORE)
        })
        .collect();
    engine.feed(&fed).unwrap();
    let spec = QuerySpec::of(&engine.query().unwrap()).unwrap();
    let Response::Scanned {
        neighbors: got,
        vectors,
        ..
    } = dispatch(
        &service,
        Request::QueryCompiled {
            query: spec,
            k: 12,
            deadline_ms: None,
            bound: None,
        },
    )
    else {
        panic!("expected neighbors")
    };
    let ids: Vec<usize> = got.iter().map(|n| n.id).collect();
    assert_eq!(vectors, service.vectors_by_id(&ids).unwrap());
    let want = service.query(session, 12).unwrap().neighbors;
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.id, w.id);
        assert_eq!(g.distance.to_bits(), w.distance.to_bits());
    }
    // The stateless round touched no session.
    assert_eq!(service.stats().sessions_created, 1);
}

#[test]
fn an_absurd_k_is_rejected_before_any_work() {
    let service = two_d_service();
    let response = dispatch(
        &service,
        Request::QueryCompiled {
            query: QuerySpec::Euclidean {
                center: vec![0.0, 0.0],
            },
            k: usize::MAX,
            deadline_ms: None,
            bound: None,
        },
    );
    assert!(matches!(
        response,
        Response::Error(ServiceError::InvalidRequest(_))
    ));
}
