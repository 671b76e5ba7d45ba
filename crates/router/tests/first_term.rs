//! There is no term-0 replication mode: a router wins a term before its
//! first ship. (A node's side of it — `Apply{term: 0}` is a typed error —
//! is pinned in `crates/net/tests/integration.rs`.)

use qcluster_index::LinearScan;
use qcluster_net::{Server, ServerConfig};
use qcluster_router::{synthetic_point, Partition, Router, RouterConfig, ShardMap};
use qcluster_service::{
    method_by_name, FeedbackPoint, QclusterConfig, Response, Service, ServiceConfig, StoreConfig,
    DEFAULT_SCORE,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 4;
const SEED_LEN: usize = 12;

/// One partition of three durable in-process replicas over the same
/// seed corpus. The directories are removed on drop.
struct Cluster {
    services: Vec<Arc<Service>>,
    servers: Vec<Server>,
    dirs: Vec<PathBuf>,
}

impl Cluster {
    fn boot(tag: &str) -> Cluster {
        let seed: Vec<Vec<f64>> = (0..SEED_LEN).map(|i| synthetic_point(i, DIM)).collect();
        let (mut services, mut servers, mut dirs) = (Vec::new(), Vec::new(), Vec::new());
        for r in 0..3 {
            let dir = std::env::temp_dir().join(format!(
                "qcluster-first-term-{tag}-{r}-{}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let config = ServiceConfig {
                num_shards: 1,
                num_workers: 1,
                ..ServiceConfig::default()
            };
            let service = Arc::new(
                Service::open_durable(&dir, &seed, config, StoreConfig::default()).unwrap(),
            );
            let server =
                Server::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default()).unwrap();
            services.push(service);
            servers.push(server);
            dirs.push(dir);
        }
        Cluster {
            services,
            servers,
            dirs,
        }
    }

    fn router(&self) -> Router {
        self.router_with(RouterConfig::default())
    }

    fn router_with(&self, config: RouterConfig) -> Router {
        let map = ShardMap::new(vec![Partition {
            id_base: 0,
            replicas: self.servers.iter().map(Server::local_addr).collect(),
        }])
        .unwrap();
        Router::new(map, config).unwrap()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for dir in &self.dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

#[test]
fn first_ingest_wins_term_one_before_shipping() {
    let cluster = Cluster::boot("ingest");
    let router = cluster.router();
    assert_eq!(router.term_of(0), 0, "nothing elected yet");

    let (id, copies) = router.ingest(synthetic_point(900, DIM)).unwrap();
    assert_eq!((id, copies), (SEED_LEN, 3));
    assert_eq!(router.term_of(0), 1);
    for r in 0..3 {
        assert_eq!(
            router.replica_consensus(0, r).unwrap(),
            (1, true),
            "replica {r} holds term 1 and the leader's lease"
        );
    }

    // The term is won once, not per ingest.
    router.ingest(synthetic_point(901, DIM)).unwrap();
    assert_eq!(router.term_of(0), 1);
    assert_eq!(router.cluster_gauges().elections_won, 1);
}

#[test]
fn first_sync_wins_term_one_before_shipping() {
    let cluster = Cluster::boot("sync");
    // The leader got ahead of its followers without any router.
    for i in 0..5 {
        cluster.services[0]
            .ingest(synthetic_point(700 + i, DIM))
            .unwrap();
    }
    let router = cluster.router();
    let synced = router.sync_partition(0).unwrap();
    assert_eq!(router.term_of(0), 1);
    let want = (SEED_LEN + 5) as u64;
    for (r, outcome) in synced {
        assert_eq!(outcome.unwrap(), want, "follower {r} caught up");
        assert_eq!(cluster.services[r].total_vectors() as u64, want);
        assert_eq!(
            router.replica_consensus(0, r).unwrap(),
            (1, true),
            "follower {r} was shipped to at term 1 and holds the lease"
        );
    }
}

/// With every ship leased, a promotion has to outwait the router's own
/// leases — which its own anti-entropy thread must not keep renewing.
#[test]
fn promotion_is_not_starved_by_the_routers_own_lease_renewals() {
    let mut cluster = Cluster::boot("renewals");
    let router = Arc::new(cluster.router_with(RouterConfig {
        lease_duration: Duration::from_millis(300),
        election_backoff: Duration::from_millis(20),
        election_timeout: Duration::from_secs(5),
        ..RouterConfig::default()
    }));
    let _anti_entropy = router.start_anti_entropy(Duration::from_millis(20));
    router.ingest(synthetic_point(900, DIM)).unwrap();
    assert_eq!(router.term_of(0), 1);

    cluster.servers.remove(0).shutdown();
    let (id, copies) = router
        .ingest(synthetic_point(901, DIM))
        .expect("failover ingest");
    assert_eq!((id, copies), (SEED_LEN + 1, 2));
    assert_ne!(router.leader_of(0), 0);
    let gauges = router.cluster_gauges();
    assert_eq!((gauges.promotions, gauges.elections_won), (1, 2));
}

/// Between a leader's death and any promotion, a feed that marks ids of
/// its partition is served by a follower, with the ingested vectors bit
/// for bit.
#[test]
fn a_feed_is_served_by_a_follower_while_the_leader_is_down() {
    let mut cluster = Cluster::boot("feed-failover");
    let router = cluster.router_with(RouterConfig {
        lease_duration: Duration::from_millis(300),
        ..RouterConfig::default()
    });
    let ingested: Vec<Vec<f64>> = (0..3).map(|i| synthetic_point(900 + i, DIM)).collect();
    for vector in &ingested {
        assert_eq!(router.ingest(vector.clone()).unwrap().1, 3);
    }
    cluster.servers.remove(0).shutdown();

    let marked = [SEED_LEN, SEED_LEN + 1, SEED_LEN + 2, 2];
    let session = router.create_session(None).unwrap();
    router
        .feed(session, &marked, None)
        .expect("a follower resolves the marked ids");
    assert_eq!(router.leader_of(0), 0, "nothing was promoted");
    assert_eq!(router.cluster_gauges().promotions, 0);

    // Once a follower leads, the refined query equals the method fed
    // the ingested vectors offline: ids and distance bits.
    router.promote(0).unwrap();
    let mut corpus: Vec<Vec<f64>> = (0..SEED_LEN).map(|i| synthetic_point(i, DIM)).collect();
    corpus.extend(ingested);
    let mut offline = method_by_name("qcluster", QclusterConfig::default()).unwrap();
    let fed: Vec<FeedbackPoint> = marked
        .iter()
        .map(|&id| FeedbackPoint::new(id, corpus[id].clone(), DEFAULT_SCORE))
        .collect();
    offline.feed(&fed).unwrap();
    let want = LinearScan::new(&corpus).knn(&offline.query().unwrap(), 5);
    let Response::Neighbors { neighbors, .. } =
        router.query(session, 5, None, None).unwrap().response
    else {
        panic!("expected Neighbors")
    };
    assert_eq!(neighbors.len(), want.len());
    for (got, want) in neighbors.iter().zip(&want) {
        assert_eq!(got.id, want.id);
        assert_eq!(got.distance.to_bits(), want.distance.to_bits());
    }
}
