//! Cluster chaos: real node *processes* killed with SIGKILL.
//!
//! - `kill_one_node_mid_query_storm_degrades_exactly`: 3 partitions ×
//!   1 replica; one node is SIGKILLed mid-storm; every later answer is
//!   degraded (`nodes_ok = 2/3`) but **exact** over the surviving
//!   partitions, and the failure is attributed.
//! - `leader_kill_loses_no_acked_ingest`: 1 partition × 3 durable
//!   replicas; an ingest storm is majority-acked via WAL shipping; the
//!   leader is SIGKILLed; the router promotes the most caught-up
//!   follower, every acked ingest is still readable, and a router
//!   query finds the last one.

use qcluster_index::{merge_top_k, EuclideanQuery, LinearScan, Neighbor};
use qcluster_net::{Client, ClientConfig};
use qcluster_router::{
    synthetic_point, synthetic_slice, Partition, Router, RouterConfig, ShardMap,
};
use qcluster_service::{Request, Response};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

struct NodeProc {
    child: Child,
    addr: SocketAddr,
    /// Durable directory to clean up, when the node had one.
    dir: Option<PathBuf>,
}

impl NodeProc {
    fn spawn(base: usize, count: usize, dim: usize, dir: Option<&Path>) -> NodeProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_qcluster-node"));
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--count",
            &count.to_string(),
            "--dim",
            &dim.to_string(),
            "--base",
            &base.to_string(),
        ]);
        if let Some(dir) = dir {
            cmd.arg("--dir").arg(dir);
        }
        cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
        let mut child = cmd.spawn().expect("spawn qcluster-node");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("node READY line");
        let addr = line
            .trim()
            .strip_prefix("READY ")
            .unwrap_or_else(|| panic!("unexpected node banner: {line:?}"))
            .parse()
            .expect("node address");
        NodeProc {
            child,
            addr,
            dir: dir.map(Path::to_path_buf),
        }
    }

    /// SIGKILL: the node gets no chance to flush or say goodbye.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        self.kill();
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qcluster-chaos-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0)
    ));
    std::fs::create_dir_all(&dir).expect("chaos temp dir");
    dir
}

/// Generous on a 1-core CI box; dead-node legs still fail fast because
/// a SIGKILLed peer resets the connection.
fn chaos_router_config() -> RouterConfig {
    RouterConfig {
        breaker_threshold: 3,
        breaker_cooldown: Duration::from_millis(200),
        client: ClientConfig {
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(30),
            ..ClientConfig::default()
        },
        replication_batch: 16,
        ..RouterConfig::default()
    }
}

fn reference_knn(slices: &[(usize, Vec<Vec<f64>>)], query: &[f64], k: usize) -> Vec<Neighbor> {
    let lists: Vec<Vec<Neighbor>> = slices
        .iter()
        .map(|(id_base, points)| {
            LinearScan::new(points)
                .knn(&EuclideanQuery::new(query.to_vec()), k)
                .into_iter()
                .map(|n| Neighbor {
                    id: id_base + n.id,
                    distance: n.distance,
                })
                .collect()
        })
        .collect();
    merge_top_k(lists, k)
}

fn assert_bit_for_bit(got: &[qcluster_service::NeighborDto], want: &[Neighbor], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: result length");
    for (a, b) in got.iter().zip(want.iter()) {
        assert_eq!(a.id, b.id, "{label}");
        assert_eq!(
            a.distance.to_bits(),
            b.distance.to_bits(),
            "{label}: id {}",
            a.id
        );
    }
}

#[test]
fn kill_one_node_mid_query_storm_degrades_exactly() {
    let (dim, count) = (6usize, 100usize);
    let bases = [0usize, count, 2 * count];
    let mut nodes: Vec<NodeProc> = bases
        .iter()
        .map(|&base| NodeProc::spawn(base, count, dim, None))
        .collect();
    let map = ShardMap::new(
        nodes
            .iter()
            .zip(bases)
            .map(|(node, id_base)| Partition {
                id_base,
                replicas: vec![node.addr],
            })
            .collect(),
    )
    .unwrap();
    let router = Router::new(map, chaos_router_config()).unwrap();
    let session = router.create_session(None).unwrap();

    let slices: Vec<(usize, Vec<Vec<f64>>)> = bases
        .iter()
        .map(|&base| (base, synthetic_slice(base, count, dim)))
        .collect();
    let survivors: Vec<(usize, Vec<Vec<f64>>)> = vec![slices[0].clone(), slices[2].clone()];
    let query_vec = |round: usize| synthetic_point(90_000 + round, dim);
    let k = 12;

    // Healthy storm: full coverage, bit-for-bit vs the whole corpus.
    for round in 0..8 {
        let q = query_vec(round);
        let report = router.query(session, k, Some(q.clone()), None).unwrap();
        let Response::Neighbors {
            neighbors,
            nodes_ok,
            nodes_total,
            degraded,
            ..
        } = report.response
        else {
            panic!("round {round}: expected neighbors")
        };
        assert_eq!((nodes_ok, nodes_total), (3, 3), "healthy round {round}");
        assert!(!degraded, "healthy round {round}");
        assert_bit_for_bit(
            &neighbors,
            &reference_knn(&slices, &q, k),
            &format!("healthy round {round}"),
        );
    }

    // SIGKILL the middle partition's only node mid-storm.
    nodes[1].kill();

    let mut degraded_rounds = 0usize;
    for round in 8..28 {
        let q = query_vec(round);
        let report = router
            .query(session, k, Some(q.clone()), None)
            .expect("degraded, not failed");
        let Response::Neighbors {
            neighbors,
            nodes_ok,
            nodes_total,
            degraded,
            ..
        } = report.response
        else {
            panic!("round {round}: expected neighbors")
        };
        assert_eq!(nodes_total, 3, "round {round}");
        assert_eq!(nodes_ok, 2, "round {round}: exactly the survivors answer");
        assert!(degraded, "round {round}");
        degraded_rounds += 1;
        // Every failure is attributed to partition 1 with a typed kind.
        assert!(
            !report.failures.is_empty() && report.failures.iter().all(|f| f.partition == 1),
            "round {round}: {:?}",
            report.failures
        );
        // Degraded but *correct*: exact over the surviving partitions.
        assert_bit_for_bit(
            &neighbors,
            &reference_knn(&survivors, &q, k),
            &format!("degraded round {round}"),
        );
    }
    assert_eq!(degraded_rounds, 20);

    let gauges = router.cluster_gauges();
    assert_eq!(gauges.nodes_total, 3);
    assert_eq!(gauges.degraded_responses, 20);
    assert!(
        gauges.node_failures + gauges.node_timeouts > 0,
        "the dead node must be attributed: {gauges:?}"
    );
    assert!(
        gauges.node_breaker_trips >= 1,
        "sustained failures must trip the breaker: {gauges:?}"
    );
}

#[test]
fn leader_kill_loses_no_acked_ingest() {
    let (dim, count) = (5usize, 60usize);
    let dirs: Vec<PathBuf> = (0..3).map(|i| fresh_dir(&format!("repl{i}"))).collect();
    let mut nodes: Vec<NodeProc> = dirs
        .iter()
        .map(|dir| NodeProc::spawn(0, count, dim, Some(dir)))
        .collect();
    let map = ShardMap::new(vec![Partition {
        id_base: 0,
        replicas: nodes.iter().map(|n| n.addr).collect(),
    }])
    .unwrap();
    let router = Router::new(map, chaos_router_config()).unwrap();

    // Ingest storm: every ack requires a majority of replicas.
    let ingest_vec = |i: usize| synthetic_point(500_000 + i, dim);
    let mut acked: Vec<(usize, Vec<f64>)> = Vec::new();
    for i in 0..20 {
        let v = ingest_vec(i);
        let (global_id, copies) = router.ingest(v.clone()).unwrap();
        assert_eq!(copies, 3, "ingest {i}: all replicas up, all must hold it");
        assert_eq!(global_id, count + i, "ingest ids stay contiguous");
        acked.push((global_id, v));
    }

    // SIGKILL the leader. Every ingest above was acked.
    let old_leader = router.leader_of(0);
    assert_eq!(old_leader, 0);
    nodes[old_leader].kill();

    // The next ingest fails over: promotion elects the most caught-up
    // follower, the write lands there, and the surviving follower still
    // gives it a majority (2 of 3).
    for i in 20..26 {
        let v = ingest_vec(i);
        let (global_id, copies) = router.ingest(v.clone()).unwrap();
        assert_eq!(copies, 2, "ingest {i}: majority without the dead leader");
        assert_eq!(global_id, count + i);
        acked.push((global_id, v));
    }
    let new_leader = router.leader_of(0);
    assert_ne!(new_leader, old_leader, "promotion must have happened");
    assert_eq!(router.cluster_gauges().promotions, 1);

    // Zero acked-ingest loss: every acked record is on the new leader,
    // byte-for-byte.
    let (total, durable) = router.replica_status(0, new_leader).unwrap();
    assert_eq!(total, (count + acked.len()) as u64);
    assert_eq!(durable, total, "durable node: everything committed");
    let mut client = Client::connect(nodes[new_leader].addr, ClientConfig::default()).unwrap();
    let ids: Vec<usize> = acked.iter().map(|(id, _)| *id).collect();
    let Response::Vectors { vectors } = client
        .call(&Request::FetchVectors { ids })
        .expect("new leader serves acked records")
    else {
        panic!("expected vectors")
    };
    assert_eq!(vectors.len(), acked.len());
    for ((id, want), got) in acked.iter().zip(&vectors) {
        assert_eq!(got, want, "acked ingest {id} must survive the leader kill");
    }

    // Read-after-ack through the router: the next query, answered by
    // the promoted leader, finds the last acked ingest at distance 0.
    let (last_id, last) = acked.last().unwrap().clone();
    let session = router.create_session(None).unwrap();
    let report = router.query(session, 1, Some(last), None).unwrap();
    let Response::Neighbors {
        neighbors,
        nodes_ok,
        nodes_total,
        ..
    } = report.response
    else {
        panic!("expected neighbors, got {:?}", report.response)
    };
    assert_eq!(nodes_ok, nodes_total, "{:?}", report.failures);
    assert_eq!(neighbors.len(), 1);
    assert_eq!(neighbors[0].id, last_id);
    assert_eq!(neighbors[0].distance, 0.0);

    // Replication bookkeeping: records were shipped and applied.
    let gauges = router.cluster_gauges();
    assert!(
        gauges.replication_records_shipped >= acked.len() as u64,
        "{gauges:?}"
    );
    assert!(
        gauges.replication_records_applied >= acked.len() as u64,
        "{gauges:?}"
    );
}
