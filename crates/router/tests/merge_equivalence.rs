//! Satellite property: the router's partitioned merge is **bit-for-bit**
//! equal to the single-node answer — ids, order, and distance bits —
//! including duplicate-distance id tie-breaks across partition
//! boundaries.
//!
//! The property runs over the router's merge path in-process (partition
//! the corpus at random cuts, search each slice under node-local ids,
//! remap `global = id_base + local`, k-way-merge); the end-to-end test
//! below drives the same property through real `qcluster-net` node
//! processes behind a [`Router`].

use proptest::prelude::*;
use qcluster_index::{merge_top_k, EuclideanQuery, LinearScan, Neighbor};

fn knn(points: &[Vec<f64>], query: &[f64], k: usize) -> Vec<Neighbor> {
    LinearScan::new(points).knn(&EuclideanQuery::new(query.to_vec()), k)
}

/// Integer-grid corpora force duplicate points and duplicate distances,
/// so the `(distance, id)` tie-break is exercised constantly.
fn grid_points(dim: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec((0i8..4).prop_map(f64::from), dim), n)
}

proptest! {
    #[test]
    fn partitioned_merge_is_bit_for_bit_single_node(
        pts in grid_points(2, 4..80),
        raw_cuts in prop::collection::vec(0usize..1000, 0..4),
        raw_query in prop::collection::vec(0i8..4, 2),
        k in 1usize..25,
    ) {
        let query: Vec<f64> = raw_query.into_iter().map(f64::from).collect();
        let single = knn(&pts, &query, k);

        // Random partition cuts: dedup and clamp into (0, len).
        let mut cuts: Vec<usize> = raw_cuts
            .into_iter()
            .map(|c| 1 + c % (pts.len().max(2) - 1))
            .collect();
        cuts.push(0);
        cuts.push(pts.len());
        cuts.sort_unstable();
        cuts.dedup();

        let mut lists: Vec<Vec<Neighbor>> = Vec::new();
        for window in cuts.windows(2) {
            let (id_base, end) = (window[0], window[1]);
            let local = knn(&pts[id_base..end], &query, k);
            lists.push(
                local
                    .into_iter()
                    .map(|n| Neighbor { id: id_base + n.id, distance: n.distance })
                    .collect(),
            );
        }
        let merged = merge_top_k(lists, k);

        prop_assert_eq!(merged.len(), single.len());
        for (a, b) in merged.iter().zip(single.iter()) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
    }
}

mod end_to_end {
    use qcluster_net::{ClientConfig, Server, ServerConfig};
    use qcluster_router::{Partition, ReadPreference, Router, RouterConfig, RouterError, ShardMap};
    use qcluster_service::{dispatch, Request, Response, Service, ServiceConfig};
    use std::net::SocketAddr;
    use std::sync::Arc;
    use std::time::Duration;

    fn grid_corpus(total: usize, dim: usize) -> Vec<Vec<f64>> {
        // Deliberately collision-heavy: every coordinate is one of four
        // values, so duplicate distances cross partition boundaries.
        (0..total)
            .map(|i| (0..dim).map(|j| ((i / (j + 1)) % 4) as f64).collect())
            .collect()
    }

    fn node_service(points: &[Vec<f64>]) -> Arc<Service> {
        Arc::new(
            Service::new(
                points,
                ServiceConfig {
                    num_shards: 2,
                    ..ServiceConfig::default()
                },
            )
            .unwrap(),
        )
    }

    fn router_config() -> RouterConfig {
        RouterConfig {
            node_deadline: Duration::from_secs(30),
            client: ClientConfig {
                read_timeout: Duration::from_secs(30),
                ..ClientConfig::default()
            },
            read_preference: ReadPreference::LeaderOnly,
            ..RouterConfig::default()
        }
    }

    /// Three in-process node servers, each over its slice of
    /// `points`, behind one router.
    fn boot(points: &[Vec<f64>], bases: [usize; 3]) -> (Vec<Server>, Router) {
        let mut servers = Vec::new();
        let mut partitions = Vec::new();
        for (i, &id_base) in bases.iter().enumerate() {
            let end = bases.get(i + 1).copied().unwrap_or(points.len());
            let service = node_service(&points[id_base..end]);
            let server = Server::bind("127.0.0.1:0", service, ServerConfig::default()).unwrap();
            let addr: SocketAddr = server.local_addr();
            partitions.push(Partition {
                id_base,
                replicas: vec![addr],
            });
            servers.push(server);
        }
        let router = Router::new(ShardMap::new(partitions).unwrap(), router_config()).unwrap();
        (servers, router)
    }

    #[test]
    fn healthy_cluster_matches_single_node_bit_for_bit() {
        let total = 240;
        let dim = 4;
        let points = grid_corpus(total, dim);
        let (servers, router) = boot(&points, [0, 100, 170]);

        // Single-node reference over the whole corpus.
        let reference = node_service(&points);
        let Response::SessionCreated {
            session: ref_session,
        } = dispatch(&reference, Request::CreateSession { engine: None })
        else {
            panic!("reference session")
        };

        let session = router.create_session(None).unwrap();
        for (round, query) in [
            vec![1.0, 2.0, 0.0, 3.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![3.0, 3.0, 3.0, 3.0],
        ]
        .into_iter()
        .enumerate()
        {
            let k = 20;
            let report = router.query(session, k, Some(query.clone()), None).unwrap();
            let Response::Neighbors {
                neighbors: got,
                nodes_ok,
                nodes_total,
                degraded,
                ..
            } = report.response
            else {
                panic!("round {round}: expected neighbors")
            };
            assert_eq!((nodes_ok, nodes_total), (3, 3), "round {round}");
            assert!(!degraded, "round {round}");
            assert!(report.failures.is_empty(), "round {round}");

            let Response::Neighbors {
                neighbors: want, ..
            } = dispatch(
                &reference,
                Request::Query {
                    session: ref_session,
                    k,
                    vector: Some(query),
                    deadline_ms: None,
                },
            )
            else {
                panic!("round {round}: reference query")
            };
            assert_eq!(got.len(), want.len(), "round {round}");
            for (a, b) in got.iter().zip(want.iter()) {
                assert_eq!(a.id, b.id, "round {round}");
                assert_eq!(
                    a.distance.to_bits(),
                    b.distance.to_bits(),
                    "round {round}: id {}",
                    a.id
                );
            }
        }

        // Feedback parity: mark the same global ids on both sides
        // (every partition owns some, out of partition order, so the
        // router's scatter has to put the resolved vectors back in the
        // caller's order), then compare the refined round.
        let marked = vec![200usize, 5, 120, 7, 171];
        let scores = vec![3.0f64, 2.0, 4.0, 1.0, 2.5];
        let fed = router.feed(session, &marked, Some(&scores)).unwrap();
        assert!(matches!(fed, Response::FeedAccepted { .. }));
        let Response::FeedAccepted { .. } = dispatch(
            &reference,
            Request::Feed {
                session: ref_session,
                relevant_ids: marked,
                scores: Some(scores),
            },
        ) else {
            panic!("reference feed")
        };
        let report = router.query(session, 15, None, None).unwrap();
        let Response::Neighbors {
            neighbors: got,
            degraded,
            ..
        } = report.response
        else {
            panic!("refined round")
        };
        assert!(!degraded);
        let Response::Neighbors {
            neighbors: want, ..
        } = dispatch(
            &reference,
            Request::Query {
                session: ref_session,
                k: 15,
                vector: None,
                deadline_ms: None,
            },
        )
        else {
            panic!("reference refined round")
        };
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(want.iter()) {
            assert_eq!(a.id, b.id, "refined round");
            assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "refined round");
        }

        router.close_session(session).unwrap();
        drop(router);
        for server in servers {
            server.shutdown();
        }
    }

    /// The `FetchVectors` legs of a feed are one scatter: with two of
    /// three owners down, both dead legs are still collected (each
    /// records its failure — a breaker probe is never left without an
    /// outcome) and the error names the lowest failing partition, as
    /// the one-partition-at-a-time loop did.
    #[test]
    fn feed_collects_every_fetch_leg_and_names_the_lowest_failing_partition() {
        let points = grid_corpus(240, 4);
        let (mut servers, router) = boot(&points, [0, 100, 170]);
        let session = router.create_session(None).unwrap();
        for server in servers.drain(1..) {
            server.shutdown();
        }
        let before = router.cluster_gauges();
        let err = router.feed(session, &[200, 5, 120], None).unwrap_err();
        let RouterError::Unavailable(failures) = err else {
            panic!("expected Unavailable, got {err:?}")
        };
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].partition, 1);
        let after = router.cluster_gauges();
        assert_eq!(
            (after.node_failures + after.node_timeouts)
                - (before.node_failures + before.node_timeouts),
            2,
            "both dead legs must have been collected"
        );
        drop(router);
        for server in servers {
            server.shutdown();
        }
    }
}
