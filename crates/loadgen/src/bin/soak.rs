//! `soak` — run a closed-loop user-fleet soak against a live target.
//!
//! With no flags this boots a single in-process node over the quick
//! semantic-gap corpus (7,500 points), serves it on a real TCP socket,
//! and drives the full default soak (200 users × 3 feedback
//! iterations, background ingest, two scheduled chaos events), writing
//! the SLO artifact to `crates/loadgen/BENCH_soak.json`.
//!
//! Common invocations:
//!
//! ```text
//! soak --smoke                 # ~60-second sanity soak (16 users)
//! soak --cluster               # router cluster target (ingest
//!                              # partition replicated 3× when durable)
//! soak --cluster --kill-leader-ms 5000
//!                              # kill the ingest leader 5s in and
//!                              # assert zero acked-ingest loss + RYW
//! soak --seed 7 --users 300    # reshape the fleet
//! soak --scrape 127.0.0.1:4100 # one-shot Stats scrape of a live node
//! ```

use qcluster_eval::synthetic::SemanticGapConfig;
use qcluster_loadgen::{
    run_soak, seeded_timeline, LeaderKillReport, RouterBackend, SoakBackend, SoakConfig,
    SoakReport, TcpBackend,
};
use qcluster_net::{Client, ClientConfig, Server, ServerConfig};
use qcluster_router::{Partition, ReadPreference, Router, RouterConfig, ShardMap};
use qcluster_service::{Request, Response, Service, ServiceConfig};
use qcluster_store::StoreConfig;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct Args {
    seed: Option<u64>,
    users: Option<usize>,
    sessions: Option<usize>,
    iterations: Option<usize>,
    k: Option<usize>,
    think_ms: Option<u64>,
    abandon_per_mille: Option<u32>,
    ingest_rate: Option<u32>,
    deadline_ms: Option<u64>,
    chaos: Option<usize>,
    chaos_window_ms: Option<u64>,
    out: PathBuf,
    cluster: bool,
    kill_leader_ms: Option<u64>,
    smoke: bool,
    scrape: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: None,
        users: None,
        sessions: None,
        iterations: None,
        k: None,
        think_ms: None,
        abandon_per_mille: None,
        ingest_rate: None,
        deadline_ms: None,
        chaos: None,
        chaos_window_ms: None,
        out: PathBuf::from("crates/loadgen/BENCH_soak.json"),
        cluster: false,
        kill_leader_ms: None,
        smoke: false,
        scrape: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--seed" => args.seed = Some(parse(&value("--seed")?)?),
            "--users" => args.users = Some(parse(&value("--users")?)?),
            "--sessions" => args.sessions = Some(parse(&value("--sessions")?)?),
            "--iterations" => args.iterations = Some(parse(&value("--iterations")?)?),
            "--k" => args.k = Some(parse(&value("--k")?)?),
            "--think-ms" => args.think_ms = Some(parse(&value("--think-ms")?)?),
            "--abandon-per-mille" => {
                args.abandon_per_mille = Some(parse(&value("--abandon-per-mille")?)?)
            }
            "--ingest-rate" => args.ingest_rate = Some(parse(&value("--ingest-rate")?)?),
            "--deadline-ms" => args.deadline_ms = Some(parse(&value("--deadline-ms")?)?),
            "--chaos" => args.chaos = Some(parse(&value("--chaos")?)?),
            "--chaos-window-ms" => {
                args.chaos_window_ms = Some(parse(&value("--chaos-window-ms")?)?)
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--cluster" => args.cluster = true,
            "--kill-leader-ms" => args.kill_leader_ms = Some(parse(&value("--kill-leader-ms")?)?),
            "--smoke" => args.smoke = true,
            "--scrape" => args.scrape = Some(value("--scrape")?),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("could not parse value: {s:?}"))
}

fn soak_config(args: &Args) -> SoakConfig {
    // --smoke shrinks the fleet to 16 users and stretches pacing into a
    // ~60-second run; explicit flags override either profile.
    let (d_users, d_sessions, d_think, d_ingest, d_chaos, d_window, d_abandon) = if args.smoke {
        (16, 8, 2_000, 10, 2, 30_000, 0)
    } else {
        (200, 5, 500, 20, 2, 5_000, 50)
    };
    let seed = args.seed.unwrap_or(42);
    let chaos_events = args.chaos.unwrap_or(d_chaos);
    let window = args.chaos_window_ms.unwrap_or(d_window);
    SoakConfig {
        seed,
        users: args.users.unwrap_or(d_users),
        sessions_per_user: args.sessions.unwrap_or(d_sessions),
        iterations: args.iterations.unwrap_or(3),
        k: args.k.unwrap_or(20),
        think_ms: args.think_ms.unwrap_or(d_think),
        abandon_per_mille: args.abandon_per_mille.unwrap_or(d_abandon),
        ingest_per_sec: args.ingest_rate.unwrap_or(d_ingest),
        deadline_ms: args.deadline_ms,
        chaos: seeded_timeline(seed, chaos_events, window),
    }
}

/// Temp dirs backing durable nodes, removed on drop (best effort).
struct ScratchDirs(Vec<PathBuf>);

impl ScratchDirs {
    fn next(&mut self) -> Result<PathBuf, String> {
        let dir = std::env::temp_dir().join(format!(
            "qcluster-soak-{}-{}",
            std::process::id(),
            self.0.len()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir: {e}"))?;
        self.0.push(dir.clone());
        Ok(dir)
    }
}

impl Drop for ScratchDirs {
    fn drop(&mut self) {
        for dir in &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn node_service(
    points: &[Vec<f64>],
    durable: bool,
    users: usize,
    scratch: &mut ScratchDirs,
) -> Result<Arc<Service>, String> {
    // Every user holds one live session; the default 64-session LRU
    // registry would evict concurrent sessions mid-feedback-loop.
    let config = ServiceConfig {
        max_sessions: users * 2 + 16,
        ..ServiceConfig::default()
    };
    let service = if durable {
        let dir = scratch.next()?;
        Service::open_durable(&dir, points, config, StoreConfig::default())
            .map_err(|e| format!("open_durable: {e}"))?
    } else {
        Service::new(points, config).map_err(|e| format!("service: {e}"))?
    };
    Ok(Arc::new(service))
}

fn scrape(addr: &str, out: &std::path::Path) -> Result<(), String> {
    let mut client =
        Client::connect(addr, ClientConfig::default()).map_err(|e| format!("connect: {e}"))?;
    match client
        .call(&Request::Stats)
        .map_err(|e| format!("stats: {e}"))?
    {
        Response::Stats(snapshot) => {
            qcluster_loadgen::write_metrics_artifact(out, "stats", &snapshot)
                .map_err(|e| format!("write artifact: {e}"))?;
            println!("wrote stats scrape of {addr} to {}", out.display());
            Ok(())
        }
        other => Err(format!("unexpected response to Stats: {other:?}")),
    }
}

/// How many read-your-writes probe rounds the leader-kill scenario
/// runs after the soak drains.
const RYW_PROBE_ROUNDS: u64 = 16;

/// Settles the two leader-kill bars after the soak drained.
///
/// **Zero acked-ingest loss**: the ingest partition's final leader
/// must hold at least as many committed records as the majority
/// (median-replica) floor sampled right before the kill — promotion
/// picks the best-total survivor, so a lower total means an acked
/// write vanished.
///
/// **Read-your-writes**: each probe round ingests a unique marker
/// vector through a session and immediately queries `k = 1` with the
/// marker as the query; the session's own write (distance 0) must
/// come back even though `StaleOk` lets lag-bounded followers serve
/// reads — the session ingest mark has to keep replicas that missed
/// the write out of the read path. Probe rounds also run the full
/// fence-before-ship path, so a promotion that never converged shows
/// up here as an error, not a hang.
fn leader_kill_report(
    router: &Router,
    dataset: &qcluster_eval::Dataset,
    at_ms: u64,
    partition: usize,
    killed_replica: usize,
    acked_floor: u64,
) -> Result<LeaderKillReport, String> {
    let session = router
        .create_session(None)
        .map_err(|e| format!("ryw probe session: {e}"))?;
    let mut ryw_violations = 0u64;
    for round in 0..RYW_PROBE_ROUNDS {
        // A unique marker: a corpus vector nudged off-lattice so the
        // probe's nearest neighbor at distance 0 can only be itself.
        let mut marker = dataset.vector(round as usize % dataset.len()).to_vec();
        for (j, x) in marker.iter_mut().enumerate() {
            *x += 1e-4 * (round + 1) as f64 * (j % 7 + 1) as f64;
        }
        let (id, _) = router
            .ingest_for_session(session, marker.clone())
            .map_err(|e| format!("ryw probe ingest (round {round}): {e}"))?;
        let reply = router
            .query(session, 1, Some(marker), None)
            .map_err(|e| format!("ryw probe query (round {round}): {e}"))?;
        let hit = match &reply.response {
            Response::Neighbors { neighbors, .. } => neighbors.first().map(|n| n.id) == Some(id),
            _ => false,
        };
        if !hit {
            ryw_violations += 1;
        }
    }
    let _ = router.close_session(session);

    let final_leader = router.leader_of(partition);
    let (final_leader_total, _) = router
        .replica_status(partition, final_leader)
        .map_err(|e| format!("final leader status: {e}"))?;
    let gauges = router.cluster_gauges();
    Ok(LeaderKillReport {
        at_ms,
        partition,
        killed_replica,
        final_leader,
        promotions: gauges.promotions,
        elections_won: gauges.elections_won,
        acked_floor_at_kill: acked_floor,
        final_leader_total,
        acked_ingest_survived: final_leader_total >= acked_floor,
        ryw_probe_rounds: RYW_PROBE_ROUNDS,
        ryw_violations,
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if let Some(addr) = &args.scrape {
        return scrape(addr, &args.out);
    }
    let config = soak_config(&args);
    config.validate()?;

    eprintln!("building quick-scale semantic-gap corpus…");
    let dataset = qcluster_eval::Dataset::semantic_gap(&SemanticGapConfig {
        categories: 150,
        ..Default::default()
    });
    let points: Vec<Vec<f64>> = (0..dataset.len())
        .map(|i| dataset.vector(i).to_vec())
        .collect();
    let durable = config.ingest_per_sec > 0;
    let mut scratch = ScratchDirs(Vec::new());
    // Admit the whole fleet: every user holds one connection (the
    // router multiplexes, but a single node faces all of them), plus
    // the control channel and reconnect churn.
    let server_config = ServerConfig {
        max_connections: config.users + 16,
        ..ServerConfig::default()
    };

    // Slots instead of plain servers: the leader-kill thread takes one
    // mid-soak (`Server::shutdown` consumes the server).
    let mut servers: Vec<Option<Server>> = Vec::new();
    // Router + which server slot backs each ingest-partition replica,
    // kept for leader-kill orchestration and the post-soak RYW probe.
    let mut cluster: Option<(Arc<Router>, Vec<usize>)> = None;
    let backend: Box<dyn SoakBackend> = if args.cluster {
        let third = points.len() / 3;
        let bases = [0, third, 2 * third];
        let mut partitions = Vec::new();
        let mut ingest_servers = Vec::new();
        for (i, &id_base) in bases.iter().enumerate() {
            let end = bases.get(i + 1).copied().unwrap_or(points.len());
            // The ingest partition (the last slice — unbounded above,
            // so it owns live writes) is replicated 3× when durable:
            // WAL shipping gives its leader real followers to promote,
            // which the `--kill-leader-ms` scenario depends on.
            let ingest = i + 1 == bases.len();
            let copies = if ingest && durable { 3 } else { 1 };
            let mut replicas = Vec::new();
            for r in 0..copies {
                let service =
                    node_service(&points[id_base..end], durable, config.users, &mut scratch)?;
                let server = Server::bind("127.0.0.1:0", service, server_config.clone())
                    .map_err(|e| format!("bind node {i}/{r}: {e}"))?;
                replicas.push(server.local_addr());
                if ingest {
                    ingest_servers.push(servers.len());
                }
                servers.push(Some(server));
            }
            partitions.push(Partition { id_base, replicas });
        }
        let map = ShardMap::new(partitions).map_err(|e| format!("shard map: {e}"))?;
        let router_config = RouterConfig {
            // Exercise replica reads under the RYW gate: followers
            // within 64 records of the leader may serve queries.
            read_preference: ReadPreference::StaleOk { max_lag: 64 },
            ..RouterConfig::default()
        };
        let router = Arc::new(Router::new(map, router_config).map_err(|e| format!("router: {e}"))?);
        cluster = Some((Arc::clone(&router), ingest_servers));
        Box::new(RouterBackend::new(router))
    } else {
        let service = node_service(&points, durable, config.users, &mut scratch)?;
        let server = Server::bind("127.0.0.1:0", service, server_config.clone())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        servers.push(Some(server));
        Box::new(TcpBackend::connect(addr, ClientConfig::default())?)
    };
    let target = backend.label();
    eprintln!(
        "soaking {target}: {} users × {} sessions × {} iterations, k={}, \
         ingest {}/s, {} chaos events, seed {}",
        config.users,
        config.sessions_per_user,
        config.iterations,
        config.k,
        config.ingest_per_sec,
        config.chaos.len(),
        config.seed,
    );

    // Background anti-entropy keeps ingest-partition followers caught
    // up off the ingest path for the whole run.
    let anti_entropy = cluster
        .as_ref()
        .filter(|_| durable)
        .map(|(router, _)| router.start_anti_entropy(Duration::from_millis(500)));

    let servers = Arc::new(Mutex::new(servers));
    let kill_thread = match (args.kill_leader_ms, &cluster) {
        (Some(kill_ms), Some((router, ingest_servers))) => {
            if ingest_servers.len() < 3 {
                return Err("--kill-leader-ms needs a replicated ingest partition \
                     (--cluster with --ingest-rate > 0)"
                    .into());
            }
            eprintln!("  leader kill armed: ingest-partition leader dies at +{kill_ms}ms");
            let router = Arc::clone(router);
            let ingest_servers = ingest_servers.clone();
            let servers = Arc::clone(&servers);
            Some(std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(kill_ms));
                let p = router.map().ingest_partition();
                let replicas = router.map().partitions()[p].replicas.len();
                // Median replica total right before the kill: every
                // majority-acked record sits below it on at least
                // ⌈n/2⌉ replicas, and the promoted follower (best
                // total among survivors) is always at or above the
                // median — so it is the zero-loss floor.
                let mut totals: Vec<u64> = (0..replicas)
                    .filter_map(|r| router.replica_status(p, r).ok().map(|(t, _)| t))
                    .collect();
                totals.sort_unstable();
                let acked_floor = totals.get(replicas / 2).copied().unwrap_or(0);
                let victim = router.leader_of(p);
                let taken = servers.lock().map(|mut s| s[ingest_servers[victim]].take());
                if let Ok(Some(server)) = taken {
                    server.shutdown();
                }
                (kill_ms, p, victim, acked_floor)
            }))
        }
        (Some(_), None) => {
            return Err("--kill-leader-ms requires --cluster".into());
        }
        _ => None,
    };

    let outcome = run_soak(&dataset, backend.as_ref(), &config)?;
    let metrics = backend.stats()?;
    let mut report = SoakReport::new(&config, target, &outcome, metrics);

    if let Some(handle) = kill_thread {
        let (at_ms, partition, killed_replica, acked_floor) =
            handle.join().map_err(|_| "leader-kill thread panicked")?;
        let (router, _) = cluster.as_ref().expect("kill scenario implies cluster");
        report.leader_kill = Some(leader_kill_report(
            router,
            &dataset,
            at_ms,
            partition,
            killed_replica,
            acked_floor,
        )?);
    }
    drop(anti_entropy);
    qcluster_loadgen::write_soak_artifact(&args.out, &report)
        .map_err(|e| format!("write artifact: {e}"))?;

    println!(
        "soak done in {:.1}s: {:.1} q/s, p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms max {:.2}ms",
        report.wall_secs,
        report.throughput_qps,
        report.client_latency.p50_ns as f64 / 1e6,
        report.client_latency.p95_ns as f64 / 1e6,
        report.client_latency.p99_ns as f64 / 1e6,
        report.client_latency.max_ns as f64 / 1e6,
    );
    println!(
        "  queries ok {} err {} | feeds err {} | degraded rate {:.4} | shed rate {:.4} | \
         breaker trips {} | ingests {} | sessions {}+{} abandoned, {} errored",
        report.counters.queries_ok,
        report.counters.query_errors,
        report.counters.feed_errors,
        report.degraded_rate,
        report.shed_rate,
        report.breaker_trips,
        report.counters.ingests_ok,
        report.counters.sessions_completed,
        report.counters.sessions_abandoned,
        report.counters.session_errors,
    );
    for q in &report.precision_at_k {
        println!(
            "  precision@{} iter {}: {:.4} over {} sessions",
            report.k, q.iteration, q.mean_precision, q.sessions
        );
    }
    for hit in &report.chaos {
        println!("  chaos {}: {} fires", hit.failpoint, hit.hits);
    }
    if let Some(kill) = &report.leader_kill {
        println!(
            "  leader kill at +{}ms: partition {} replica {} died, leader now {} | \
             promotions {} elections won {} | acked floor {} -> final total {} ({}) | \
             ryw probe {}/{} clean",
            kill.at_ms,
            kill.partition,
            kill.killed_replica,
            kill.final_leader,
            kill.promotions,
            kill.elections_won,
            kill.acked_floor_at_kill,
            kill.final_leader_total,
            if kill.acked_ingest_survived {
                "no acked loss"
            } else {
                "ACKED LOSS"
            },
            kill.ryw_probe_rounds - kill.ryw_violations,
            kill.ryw_probe_rounds,
        );
    }
    println!("wrote {}", args.out.display());

    drop(backend);
    let mut servers = servers.lock().unwrap_or_else(|e| e.into_inner());
    for server in servers.drain(..).flatten() {
        server.shutdown();
    }
    drop(servers);

    if let Some(kill) = &report.leader_kill {
        if !kill.acked_ingest_survived {
            return Err(format!(
                "leader kill lost acked ingests: floor {} but final leader total {}",
                kill.acked_floor_at_kill, kill.final_leader_total
            ));
        }
        if kill.ryw_violations > 0 {
            return Err(format!(
                "read-your-writes violated {} of {} probe rounds after the leader kill",
                kill.ryw_violations, kill.ryw_probe_rounds
            ));
        }
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("soak: {e}");
        std::process::exit(1);
    }
}
