//! Cluster chaos: real node *processes* killed with SIGKILL.
//!
//! - `kill_one_node_mid_query_storm_degrades_exactly`: 3 partitions ×
//!   1 replica; one node is SIGKILLed mid-storm; every later answer is
//!   degraded (`nodes_ok = 2/3`) but **exact** over the surviving
//!   partitions, and the failure is attributed.
//! - `leader_kill_loses_no_acked_ingest`: 1 partition × 3 durable
//!   replicas; an ingest and a query thread run while the leader is
//!   SIGKILLed; the router promotes the most caught-up follower, both
//!   threads complete calls on each side of the kill, an ack before the
//!   kill is on all three replicas at a contiguous id, every acked
//!   ingest is on the new leader byte for byte, and every ingest acked
//!   after the promotion is the next query's `k = 1` answer at 0.

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
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

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

/// Calls a storm thread completed on each side of the leader kill:
/// `[0]` returned before the kill began, `[1]` started after it
/// finished; a call across the kill counts in neither.
type Tally = [AtomicUsize; 2];

fn tally(calls: &Tally, started_after_kill: bool, kill: &AtomicU8) {
    if started_after_kill || kill.load(Ordering::SeqCst) == 0 {
        calls[usize::from(started_after_kill)].fetch_add(1, Ordering::SeqCst);
    }
}

fn read(calls: &Tally) -> [usize; 2] {
    calls.each_ref().map(|n| n.load(Ordering::SeqCst))
}

/// Polls `done` every 5 ms for up to 60 s; `false` when it never held.
fn wait_for(done: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

/// One acked ingest, whether it returned before the kill began or
/// started after it finished, and what the ingest thread's next query
/// answered (`k = 1`) when it started after the kill.
struct Acked {
    id: usize,
    vector: Vec<f64>,
    copies: usize,
    before_kill: bool,
    after_kill: bool,
    probe: Option<Result<(usize, f64), String>>,
}

#[test]
fn leader_kill_loses_no_acked_ingest() {
    let (dim, count, k) = (5usize, 60usize, 8usize);
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
    let old_leader = router.leader_of(0);
    assert_eq!(old_leader, 0);

    // An ingest thread and a query thread run until `stop`; the leader
    // is SIGKILLed once each has completed calls, and `stop` is set
    // once each has completed calls after the kill. `kill` is the
    // kill's phase: 0 before the SIGKILL is sent, 1 while it is, 2 once
    // the process is reaped.
    let (kill, stop) = (AtomicU8::new(0), AtomicBool::new(false));
    let (ingests, queries): (Tally, Tally) = Default::default();
    let (storm_ran, (acked, failed), query_errors) = std::thread::scope(|s| {
        let ingest = s.spawn(|| {
            // Read-after-ack: after an ingest acked through the promoted
            // leader, the next query must answer it at distance 0.
            let probe = router.create_session(None).unwrap();
            let (mut acked, mut failed): (Vec<Acked>, usize) = (Vec::new(), 0);
            for i in 0.. {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let vector = synthetic_point(500_000 + i, dim);
                let after_kill = kill.load(Ordering::SeqCst) == 2;
                let result = router.ingest(vector.clone());
                let before_kill = kill.load(Ordering::SeqCst) == 0;
                // With every replica up an ingest must ack; one across
                // the kill may fail, and is then not acked.
                let (id, copies) = match result {
                    Ok(ack) => ack,
                    Err(e) if before_kill => panic!("ingest {i}, all replicas up: {e}"),
                    Err(_) => {
                        failed += 1;
                        continue;
                    }
                };
                let probe = after_kill.then(|| {
                    let report = router.query(probe, 1, Some(vector.clone()), None);
                    match report.map(|r| r.response) {
                        Ok(Response::Neighbors { neighbors, .. }) if neighbors.len() == 1 => {
                            Ok((neighbors[0].id, neighbors[0].distance))
                        }
                        other => Err(format!("{other:?}")),
                    }
                });
                tally(&ingests, after_kill, &kill);
                acked.push(Acked {
                    id,
                    vector,
                    copies,
                    before_kill,
                    after_kill,
                    probe,
                });
            }
            (acked, failed)
        });
        let query = s.spawn(|| {
            let session = router.create_session(None).unwrap();
            let mut errors = 0usize;
            for round in 0.. {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let after_kill = kill.load(Ordering::SeqCst) == 2;
                let q = synthetic_point(90_000 + round, dim);
                match router.query(session, k, Some(q), None) {
                    Ok(report) => {
                        let Response::Neighbors {
                            neighbors,
                            nodes_ok,
                            nodes_total,
                            ..
                        } = report.response
                        else {
                            panic!("round {round}: expected neighbors")
                        };
                        assert_eq!((nodes_ok, nodes_total), (1, 1), "round {round}");
                        assert_eq!(neighbors.len(), k, "round {round}");
                        tally(&queries, after_kill, &kill);
                    }
                    // Between the kill and the promotion the only leader
                    // is dead: those rounds fail, and the thread goes on.
                    Err(_) => {
                        errors += 1;
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
            }
            errors
        });
        let both = |min: [usize; 2]| {
            [read(&ingests), read(&queries)]
                .iter()
                .all(|n| n[0] >= min[0] && n[1] >= min[1])
        };
        let before = wait_for(|| both([5, 0]));
        if before {
            kill.store(1, Ordering::SeqCst);
            nodes[old_leader].kill();
            kill.store(2, Ordering::SeqCst);
        }
        let after = before && wait_for(|| both([5, 5]));
        stop.store(true, Ordering::SeqCst);
        let acked = ingest.join().expect("ingest thread");
        let query_errors = query.join().expect("query thread");
        (before && after, acked, query_errors)
    });

    // Both threads completed calls on both sides of the kill.
    assert!(
        storm_ran,
        "ingests (before, after) {:?}, queries {:?}, query errors {query_errors}",
        read(&ingests),
        read(&queries)
    );
    let new_leader = router.leader_of(0);
    assert_ne!(new_leader, old_leader, "promotion must have happened");
    assert_eq!(router.cluster_gauges().promotions, 1);

    // An ack with every replica up is on all three, at the next
    // contiguous id; one through the promoted leader is on exactly the
    // two survivors; one across the kill still had a majority. Ids
    // grow with the acks.
    for (n, a) in acked.iter().filter(|a| a.before_kill).enumerate() {
        assert_eq!((a.id, a.copies), (count + n, 3), "all replicas up");
    }
    for a in &acked {
        let want = if a.after_kill { 2..=2 } else { 2..=3 };
        assert!(
            want.contains(&a.copies),
            "ingest {}: {} copies",
            a.id,
            a.copies
        );
    }
    assert!(acked.windows(2).all(|w| w[0].id < w[1].id), "ids increase");

    // Zero acked-ingest loss: the new leader holds the corpus, every
    // acked record byte-for-byte, and at most one record per failed
    // ingest besides.
    let (total, durable) = router.replica_status(0, new_leader).unwrap();
    let least = (count + acked.len()) as u64;
    assert!(
        (least..=least + failed as u64).contains(&total),
        "total {total}: {} acked, {failed} failed",
        acked.len()
    );
    assert_eq!(durable, total, "durable node: everything committed");
    let mut client = Client::connect(nodes[new_leader].addr, ClientConfig::default()).unwrap();
    let ids: Vec<usize> = acked.iter().map(|a| a.id).collect();
    let Response::Vectors { vectors } = client
        .call(&Request::FetchVectors { ids })
        .expect("new leader serves acked records")
    else {
        panic!("expected vectors")
    };
    assert_eq!(vectors.len(), acked.len());
    for (a, got) in acked.iter().zip(&vectors) {
        assert_eq!(
            got, &a.vector,
            "acked ingest {} must survive the leader kill",
            a.id
        );
    }

    // Read-after-ack through the router: every ingest acked after the
    // promotion was the next query's answer at distance 0.
    for a in acked.iter().filter(|a| a.after_kill) {
        assert_eq!(
            a.probe,
            Some(Ok((a.id, 0.0))),
            "read-after-ack of ingest {}",
            a.id
        );
    }

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
