//! Satellite property: the router's partitioned merge is **bit-for-bit**
//! equal to the single-node answer — ids, order, and distance bits —
//! including duplicate-distance id tie-breaks across partition
//! boundaries.
//!
//! The property runs over the router's merge path in-process (partition
//! the corpus at random cuts, search each slice under node-local ids,
//! remap `global = id_base + local`, k-way-merge); the end-to-end tests
//! below drive the same property through real `qcluster-net` node
//! servers behind a [`Router`] — for all five feedback methods, whose
//! sessions live on the router and whose compiled queries the nodes
//! answer — and pin what a router-hosted session costs the nodes:
//! nothing to create or close, and no breaker trip for a caller's
//! mistake.

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
    use qcluster_index::{LinearScan, Neighbor};
    use qcluster_net::{ClientConfig, Server, ServerConfig};
    use qcluster_router::{Partition, ReadPreference, Router, RouterConfig, RouterError, ShardMap};
    use qcluster_service::{
        dispatch, method_by_name, FeedbackPoint, NeighborDto, QclusterConfig, Request, Response,
        Service, ServiceConfig, METHODS,
    };
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
        let (servers, _, router) = boot_with(points, bases, router_config());
        (servers, router)
    }

    /// [`boot`] under `config`, also handing out each node's service.
    fn boot_with(
        points: &[Vec<f64>],
        bases: [usize; 3],
        config: RouterConfig,
    ) -> (Vec<Server>, Vec<Arc<Service>>, Router) {
        let mut servers = Vec::new();
        let mut services = Vec::new();
        let mut partitions = Vec::new();
        for (i, &id_base) in bases.iter().enumerate() {
            let end = bases.get(i + 1).copied().unwrap_or(points.len());
            let service = node_service(&points[id_base..end]);
            services.push(Arc::clone(&service));
            let server = Server::bind("127.0.0.1:0", service, ServerConfig::default()).unwrap();
            let addr: SocketAddr = server.local_addr();
            partitions.push(Partition {
                id_base,
                replicas: vec![addr],
            });
            servers.push(server);
        }
        let router = Router::new(ShardMap::new(partitions).unwrap(), config).unwrap();
        (servers, services, router)
    }

    fn neighbors_of(response: Response) -> Vec<NeighborDto> {
        match response {
            Response::Neighbors {
                neighbors,
                nodes_ok: 3,
                nodes_total: 3,
                degraded: false,
                ..
            } => neighbors,
            other => panic!("expected a full-coverage answer, got {other:?}"),
        }
    }

    fn assert_same(got: &[NeighborDto], want: &[Neighbor], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.id, w.id, "{what}");
            assert_eq!(
                g.distance.to_bits(),
                w.distance.to_bits(),
                "{what}: id {}",
                g.id
            );
        }
    }

    /// Each of the five methods, hosted on the router, runs an example
    /// round and three feed rounds; every refined answer equals the same
    /// method fed the same points offline over one flat exact scan —
    /// ids and distance bits, ties included (the grid corpus is full of
    /// them, across partition boundaries).
    #[test]
    fn every_method_through_the_router_equals_offline() {
        let points = grid_corpus(240, 4);
        let oracle = LinearScan::new(&points);
        let (servers, _, router) = boot_with(&points, [0, 100, 170], router_config());
        let k = 20;
        for (name, _) in METHODS {
            let session = router.create_session(Some(name)).unwrap();
            let mut offline = method_by_name(name, QclusterConfig::default()).unwrap();
            let example = vec![1.0, 2.0, 0.0, 3.0];
            let mut answer = neighbors_of(
                router
                    .query(session, k, Some(example), None)
                    .unwrap()
                    .response,
            );
            for round in 0..3 {
                // The top of the last answer plus two ids from the other
                // end of the corpus, so the multipoint methods see more
                // than one group.
                let mut marked: Vec<usize> = answer.iter().take(5).map(|n| n.id).collect();
                marked.extend([(round * 37 + 11) % 240, 239 - round * 50]);
                let scores: Vec<f64> = (0..marked.len()).map(|i| 1.0 + (i % 3) as f64).collect();
                let fed = router.feed(session, &marked, Some(&scores)).unwrap();
                let Response::FeedAccepted {
                    iteration,
                    clusters,
                    ..
                } = fed
                else {
                    panic!("{name}: expected FeedAccepted, got {fed:?}")
                };
                let batch: Vec<FeedbackPoint> = marked
                    .iter()
                    .zip(&scores)
                    .map(|(&id, &score)| FeedbackPoint::new(id, points[id].clone(), score))
                    .collect();
                offline.feed(&batch).unwrap();
                assert_eq!(iteration, round as u64 + 1, "{name}");
                assert_eq!(clusters, offline.num_clusters(), "{name}");

                answer = neighbors_of(router.query(session, k, None, None).unwrap().response);
                let want = oracle.knn(&offline.query().unwrap(), k);
                assert_same(&answer, &want, &format!("{name}, round {round}"));
            }
            router.close_session(session).unwrap();
        }
        drop(router);
        for server in servers {
            server.shutdown();
        }
    }

    /// A whole session lifecycle leaves no session on any node, creating
    /// and closing send no leg, and `stats` counts the router's own
    /// sessions once, not once per partition.
    #[test]
    fn sessions_live_on_the_router_and_nodes_hold_none() {
        let points = grid_corpus(240, 4);
        let config = RouterConfig {
            max_sessions: 2,
            ..router_config()
        };
        let (servers, services, router) = boot_with(&points, [0, 100, 170], config);
        let session = router.create_session(None).unwrap();
        let answer = neighbors_of(
            router
                .query(session, 10, Some(vec![0.0, 1.0, 2.0, 3.0]), None)
                .unwrap()
                .response,
        );
        let mut marked: Vec<usize> = answer.iter().take(4).map(|n| n.id).collect();
        for round in 0..3 {
            marked.push(50 * round + 7);
            router.feed(session, &marked, None).unwrap();
            neighbors_of(router.query(session, 10, None, None).unwrap().response);
        }
        router.close_session(session).unwrap();
        for (i, service) in services.iter().enumerate() {
            let stats = service.stats();
            assert_eq!(stats.sessions_created, 0, "node {i}");
            assert_eq!(stats.active_sessions, 0, "node {i}");
        }

        let frames = |services: &[Arc<Service>]| -> Vec<u64> {
            services
                .iter()
                .map(|s| s.stats().transport.frames_in)
                .collect()
        };
        let before = frames(&services);
        assert!(matches!(
            router.create_session(Some("nope")),
            Err(RouterError::InvalidRequest(_))
        ));
        // Two more sessions, one closed, then two more: the registry
        // holds two, so the last creation evicts the stalest.
        let a = router.create_session(Some("qpm")).unwrap();
        router.create_session(None).unwrap();
        router.close_session(a).unwrap();
        router.create_session(None).unwrap();
        router.create_session(None).unwrap();
        assert_eq!(frames(&services), before, "no leg for create or close");

        let stats = router.stats().unwrap();
        assert_eq!(stats.sessions_created, 5);
        assert_eq!(stats.sessions_closed, 2);
        assert_eq!(stats.active_sessions, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.plan_cache_misses, 3, "one compile per feed round");
        assert_eq!(stats.feed.count, 3);
        drop(router);
        for server in servers {
            server.shutdown();
        }
    }

    /// A node's typed rejection of the request itself is a delivered
    /// reply: three `k = 0` queries and three feeds of an id past the
    /// corpus come back `InvalidRequest` with the node's message, and
    /// trip no breaker, so the next query covers every node.
    #[test]
    fn a_callers_mistake_does_not_open_a_breaker() {
        let points = grid_corpus(240, 4);
        let (servers, _, router) = boot_with(&points, [0, 100, 170], router_config());
        let session = router.create_session(None).unwrap();
        let example = vec![1.0, 1.0, 1.0, 1.0];
        for _ in 0..3 {
            let err = router
                .query(session, 0, Some(example.clone()), None)
                .unwrap_err();
            assert!(
                matches!(&err, RouterError::InvalidRequest(msg) if msg.contains("k must be positive")),
                "{err:?}"
            );
        }
        for _ in 0..3 {
            let err = router.feed(session, &[3, 1_000], None).unwrap_err();
            assert!(
                matches!(&err, RouterError::InvalidRequest(msg) if msg.contains("outside corpus")),
                "{err:?}"
            );
        }
        let gauges = router.cluster_gauges();
        assert_eq!(gauges.node_breaker_trips, 0);
        assert_eq!(gauges.node_failures, 0);
        let report = router.query(session, 5, Some(example), None).unwrap();
        assert!(report.failures.is_empty());
        neighbors_of(report.response);
        drop(router);
        for server in servers {
            server.shutdown();
        }
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
