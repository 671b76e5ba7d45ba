//! Consensus chaos: term fencing, lease-based leadership, and
//! anti-entropy catch-up exercised against real node *processes*.
//!
//! - `split_brain_promotion_converges_and_fences_the_loser`: one
//!   3-replica durable partition; router B takes the term over from
//!   router A (A's next ship is fenced with `StaleTerm`); the leader
//!   node is SIGKILLed and both routers race `promote` — exactly one
//!   wins while the other reports `ElectionLost`; every acked ingest
//!   survives byte-for-byte; the killed node is respawned on its old
//!   address and catches up via the background anti-entropy thread
//!   without blocking a concurrent ingest stream.
//! - `lease_expiry_failpoint_forces_reelection`: the
//!   `router.lease.expire` failpoint makes the router re-win its term
//!   before shipping; disarmed, the term is untouched.
//!
//! Both tests hold the failpoint `test_lock` so an armed failpoint in
//! one cannot leak into the other (the registry is process-global).

use qcluster_failpoint as failpoint;
use qcluster_net::{Client, ClientConfig};
use qcluster_router::{
    synthetic_point, NodeFailureKind, Partition, Router, RouterConfig, RouterError, ShardMap,
};
use qcluster_service::{Request, Response};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

struct NodeProc {
    child: Child,
    addr: SocketAddr,
    /// Durable directory to clean up, when the node had one.
    dir: Option<PathBuf>,
}

impl NodeProc {
    fn spawn(base: usize, count: usize, dim: usize, dir: Option<&Path>) -> NodeProc {
        NodeProc::spawn_at("127.0.0.1:0", base, count, dim, dir)
    }

    /// Spawns on an explicit address — a rejoining node must come back
    /// on the same port the shard map knows it by.
    fn spawn_at(addr: &str, base: usize, count: usize, dim: usize, dir: Option<&Path>) -> NodeProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_qcluster-node"));
        cmd.args([
            "--addr",
            addr,
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
        "qcluster-consensus-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0)
    ));
    std::fs::create_dir_all(&dir).expect("consensus temp dir");
    dir
}

/// Short leases so deposition and failover fit in a test run; generous
/// transport deadlines so a 1-core CI box never times a live node out.
fn consensus_config(backoff: Duration, timeout: Duration) -> RouterConfig {
    RouterConfig {
        breaker_threshold: 3,
        breaker_cooldown: Duration::from_millis(200),
        client: ClientConfig {
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(30),
            ..ClientConfig::default()
        },
        replication_batch: 4,
        lease_duration: Duration::from_millis(400),
        election_backoff: backoff,
        election_timeout: timeout,
        max_inline_lag: 8,
        ..RouterConfig::default()
    }
}

fn fetch_all(addr: SocketAddr, acked: &[(usize, Vec<f64>)], label: &str) {
    let mut client = Client::connect(addr, ClientConfig::default()).unwrap();
    let ids: Vec<usize> = acked.iter().map(|(id, _)| *id).collect();
    let Response::Vectors { vectors } = client
        .call(&Request::FetchVectors { ids })
        .unwrap_or_else(|e| panic!("{label}: fetch acked records: {e}"))
    else {
        panic!("{label}: expected vectors")
    };
    assert_eq!(vectors.len(), acked.len(), "{label}");
    for ((id, want), got) in acked.iter().zip(&vectors) {
        assert_eq!(got, want, "{label}: acked ingest {id} must survive");
    }
}

#[test]
fn split_brain_promotion_converges_and_fences_the_loser() {
    // Serialize against the failpoint test below: every consensus path
    // here must run bit-for-bit clean with failpoints disarmed.
    let _serial = failpoint::test_lock();
    let (dim, count) = (5usize, 60usize);
    let dirs: Vec<PathBuf> = (0..3).map(|i| fresh_dir(&format!("sb{i}"))).collect();
    let mut nodes: Vec<NodeProc> = dirs
        .iter()
        .map(|dir| NodeProc::spawn(0, count, dim, Some(dir)))
        .collect();
    let map = ShardMap::new(vec![Partition {
        id_base: 0,
        replicas: nodes.iter().map(|n| n.addr).collect(),
    }])
    .unwrap();
    // Two routers over the *same* partition: A polls elections fast, B
    // slowly, so the post-kill race converges quickly either way.
    let router_a = Arc::new(
        Router::new(
            map.clone(),
            consensus_config(Duration::from_millis(40), Duration::from_millis(2_000)),
        )
        .unwrap(),
    );
    let router_b = Arc::new(
        Router::new(
            map,
            consensus_config(Duration::from_millis(150), Duration::from_millis(2_000)),
        )
        .unwrap(),
    );

    // Router A takes the partition: term 1, every replica leased.
    assert_eq!(router_a.acquire(0).unwrap(), 1);
    assert_eq!(router_a.term_of(0), 1);
    for r in 0..3 {
        let (term, leased) = router_a.replica_consensus(0, r).unwrap();
        assert_eq!(term, 1, "replica {r} fenced at A's term");
        assert!(leased, "replica {r} holds A's lease");
    }

    let ingest_vec = |i: usize| synthetic_point(500_000 + i, dim);
    let mut acked: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut seq = 0usize;
    for _ in 0..12 {
        let v = ingest_vec(seq);
        let (global_id, copies) = router_a.ingest(v.clone()).unwrap();
        assert_eq!(copies, 3, "all replicas up, all must hold it");
        assert_eq!(global_id, count + seq, "ingest ids stay contiguous");
        acked.push((global_id, v));
        seq += 1;
    }

    // A goes quiet past its lease; router B takes over at term 2. A is
    // now a zombie leader: its very next ship (the fence probe in
    // front of the ingest) is rejected with a typed StaleTerm — no
    // promotion retry writes around the fence.
    std::thread::sleep(Duration::from_millis(650));
    assert_eq!(router_b.acquire(0).unwrap(), 2);
    match router_a.ingest(ingest_vec(9_999)).unwrap_err() {
        RouterError::Unavailable(failures) => assert!(
            failures
                .iter()
                .any(|f| matches!(f.kind, NodeFailureKind::StaleTerm(t) if t >= 2)),
            "zombie ship must be fenced with StaleTerm: {failures:?}"
        ),
        other => panic!("zombie ship must be fenced, got: {other}"),
    }
    assert!(router_a.cluster_gauges().fenced_stale_ships >= 1);
    assert_eq!(
        router_a.cluster_gauges().terms,
        vec![1],
        "the deposed router still believes its old term"
    );

    // B (the rightful leader) keeps ingesting.
    for _ in 0..6 {
        let v = ingest_vec(seq);
        let (global_id, copies) = router_b.ingest(v.clone()).unwrap();
        assert_eq!(copies, 3);
        assert_eq!(global_id, count + seq);
        acked.push((global_id, v));
        seq += 1;
    }

    // SIGKILL the data leader, then race both routers' promotions over
    // the survivors. Exactly one may win; the winner immediately
    // ingests under load (each fenced ship renews its leases) for
    // longer than the loser's election timeout, so the loser can never
    // sneak a term in behind it.
    assert_eq!(router_a.leader_of(0), 0);
    assert_eq!(router_b.leader_of(0), 0);
    nodes[0].kill();
    let barrier = Arc::new(Barrier::new(2));
    let race = |router: Arc<Router>, barrier: Arc<Barrier>, seed: usize| {
        std::thread::spawn(move || {
            barrier.wait();
            let won = router.promote(0);
            let mut acked: Vec<(usize, Vec<f64>)> = Vec::new();
            if won.is_ok() {
                let start = Instant::now();
                let mut i = 0usize;
                while start.elapsed() < Duration::from_millis(2_600) {
                    let v = synthetic_point(seed + i, dim);
                    let (global_id, copies) =
                        router.ingest(v.clone()).expect("winner ingests under load");
                    assert!(copies >= 2, "majority without the dead leader");
                    acked.push((global_id, v));
                    i += 1;
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
            (won, acked)
        })
    };
    let handle_a = race(Arc::clone(&router_a), Arc::clone(&barrier), 700_000);
    let handle_b = race(Arc::clone(&router_b), Arc::clone(&barrier), 800_000);
    let (outcome_a, race_acked_a) = handle_a.join().unwrap();
    let (outcome_b, race_acked_b) = handle_b.join().unwrap();

    let wins = usize::from(outcome_a.is_ok()) + usize::from(outcome_b.is_ok());
    assert_eq!(
        wins, 1,
        "exactly one router may win the race: A={outcome_a:?} B={outcome_b:?}"
    );
    let (winner, loser, loser_outcome) = if outcome_a.is_ok() {
        (&router_a, &router_b, outcome_b)
    } else {
        (&router_b, &router_a, outcome_a)
    };
    assert!(
        matches!(
            loser_outcome,
            Err(RouterError::ElectionLost { partition: 0, .. })
        ),
        "the loser must report a lost election: {loser_outcome:?}"
    );
    assert!(loser.cluster_gauges().elections_lost >= 1);
    assert_eq!(winner.cluster_gauges().promotions, 1);
    assert!(
        winner.term_of(0) >= 3,
        "the race was won past both prior terms: {}",
        winner.term_of(0)
    );
    for (global_id, v) in race_acked_a.into_iter().chain(race_acked_b) {
        assert_eq!(global_id, count + seq, "ids stay contiguous under load");
        acked.push((global_id, v));
        seq += 1;
    }

    // Zero acked-ingest loss: everything — including the writes acked
    // *during* the contested promotion — reads back byte-for-byte from
    // the winner's new leader.
    let leader = winner.leader_of(0);
    assert_ne!(leader, 0, "the dead node cannot lead");
    let (total, durable) = winner.replica_status(0, leader).unwrap();
    assert_eq!(total, (count + acked.len()) as u64);
    assert_eq!(durable, total, "durable node: everything committed");
    fetch_all(nodes[leader].addr, &acked, "winner's leader");

    // Respawn the killed node on its old address over its old
    // directory: it rejoins far behind `max_inline_lag`, so the ingest
    // path skips it and the background anti-entropy thread streams the
    // backlog while a concurrent ingest stream keeps acking.
    let old_addr = nodes[0].addr;
    nodes[0].dir = None; // the respawned process owns the directory now
    nodes[0] = NodeProc::spawn_at(&old_addr.to_string(), 0, count, dim, Some(&dirs[0]));
    assert_eq!(nodes[0].addr, old_addr, "rejoin must keep the old address");
    let anti_entropy = winner.start_anti_entropy(Duration::from_millis(40));
    for i in 0..12 {
        let v = synthetic_point(900_000 + i, dim);
        let (global_id, copies) = winner
            .ingest(v.clone())
            .expect("ingest concurrent with anti-entropy catch-up");
        assert!(copies >= 2, "catch-up must not block the ingest stream");
        assert_eq!(global_id, count + seq);
        acked.push((global_id, v));
        seq += 1;
        std::thread::sleep(Duration::from_millis(20));
    }
    let target = (count + acked.len()) as u64;
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok((total, durable)) = winner.replica_status(0, 0) {
            if total == target {
                assert_eq!(durable, target, "rejoined node commits durably");
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "anti-entropy never caught the rejoined node up to {target}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(anti_entropy);
    let gauges = winner.cluster_gauges();
    assert!(
        gauges.anti_entropy_chunks_shipped >= 1,
        "the backlog must have been shipped off the ingest path: {gauges:?}"
    );
    let (term, _) = winner.replica_consensus(0, 0).unwrap();
    assert_eq!(
        term,
        winner.term_of(0),
        "anti-entropy lease renewal brings the rejoined node onto the winner's term"
    );

    // With the node caught up, the next ingest takes it inline again —
    // and the recovered replica serves every acked record
    // byte-for-byte, proving the anti-entropy stream shipped exactly
    // the WAL.
    let v = ingest_vec(seq);
    let (global_id, copies) = winner.ingest(v.clone()).unwrap();
    assert_eq!(copies, 3, "rejoined node is back in the write path");
    assert_eq!(global_id, count + seq);
    acked.push((global_id, v));
    fetch_all(nodes[0].addr, &acked, "rejoined node");
}

#[test]
fn lease_expiry_failpoint_forces_reelection() {
    let _serial = failpoint::test_lock();
    let (dim, count) = (4usize, 24usize);
    let dir = fresh_dir("lease");
    let node = NodeProc::spawn(0, count, dim, Some(&dir));
    let map = ShardMap::new(vec![Partition {
        id_base: 0,
        replicas: vec![node.addr],
    }])
    .unwrap();
    let router = Router::new(
        map,
        consensus_config(Duration::from_millis(40), Duration::from_millis(2_000)),
    )
    .unwrap();
    assert_eq!(router.acquire(0).unwrap(), 1);
    // Disarmed: shipping never re-elects.
    router.ingest(synthetic_point(1, dim)).unwrap();
    assert_eq!(router.term_of(0), 1);
    {
        let _armed = failpoint::scoped_counted(
            "router.lease.expire",
            failpoint::Action::Error("lease expired".into()),
            0,
            Some(1),
        );
        // The injected expiry forces a re-election before the ship:
        // the router must outwait its own old lease (each refused
        // round bumps the candidate term), then wins and the ingest
        // proceeds fenced at the new term.
        router.ingest(synthetic_point(2, dim)).unwrap();
        assert!(
            router.term_of(0) >= 2,
            "re-election must have bumped the term: {}",
            router.term_of(0)
        );
        assert!(failpoint::hits("router.lease.expire") >= 1);
    }
    // Spent and disarmed: the term is stable again.
    let new_term = router.term_of(0);
    router.ingest(synthetic_point(3, dim)).unwrap();
    assert_eq!(router.term_of(0), new_term);
    let gauges = router.cluster_gauges();
    assert_eq!(gauges.elections_won, 2, "acquire + forced re-election");
    assert_eq!(gauges.terms, vec![new_term]);
}
