//! `qcluster soak` — run a closed-loop user-fleet soak against a live
//! target.
//!
//! With no flags this boots a single in-process node over the quick
//! semantic-gap corpus (7,500 points), serves it on a real TCP socket,
//! and drives the full default soak (200 users × 3 feedback
//! iterations, background ingest, two scheduled chaos events), writing
//! the SLO artifact to `crates/cli/BENCH_soak.json`.
//!
//! Common invocations:
//!
//! ```text
//! qcluster soak --smoke                 # ~60-second sanity soak (16 users)
//! qcluster soak --cluster               # router cluster target (ingest
//!                                       # partition replicated 3× when durable)
//! qcluster soak --cluster --kill-leader-ms 5000
//!                                       # kill the ingest leader 5s in and
//!                                       # assert zero acked-ingest loss and
//!                                       # read-after-ack through the new leader
//! qcluster soak --seed 7 --users 300    # reshape the fleet
//! qcluster soak --scrape 127.0.0.1:4100 # one-shot Stats scrape of a live node
//! ```
//!
//! The node boot is this command's own, not `serve`'s: in-memory or
//! scratch-dir durable nodes, a 3× ingest partition, killable slots.

use crate::{parse_args, Parsed};
use qcluster_cli::{
    run_soak, seeded_timeline, write_metrics_artifact, write_soak_artifact, CliError,
    LeaderKillReport, RouterBackend, SoakBackend, SoakConfig, SoakReport, TcpBackend,
};
use qcluster_eval::synthetic::SemanticGapConfig;
use qcluster_net::{Client, ClientConfig, Server, ServerConfig};
use qcluster_router::{Partition, Router, RouterConfig, ShardMap};
use qcluster_service::{Request, Response, Service, ServiceConfig};
use qcluster_store::StoreConfig;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A parsed `qcluster soak` command line, checked before anything binds.
struct SoakArgs {
    config: SoakConfig,
    out: PathBuf,
    cluster: bool,
    kill_leader_ms: Option<u64>,
    scrape: Option<String>,
}

fn parse_soak(args: &[String]) -> Result<SoakArgs, CliError> {
    let parsed = parse_args(
        args,
        &[
            "seed",
            "users",
            "sessions",
            "iterations",
            "k",
            "think-ms",
            "abandon-per-mille",
            "ingest-rate",
            "deadline-ms",
            "chaos",
            "chaos-window-ms",
            "out",
            "kill-leader-ms",
            "scrape",
        ],
        &["cluster", "smoke"],
    )?;
    if let Some(extra) = parsed.positionals.first() {
        return Err(CliError::Usage(format!("unexpected argument: {extra}")));
    }
    let config = soak_config(&parsed)?;
    let cluster = parsed.switch("cluster");
    let kill_leader_ms = parsed.parse_opt("kill-leader-ms")?;
    if kill_leader_ms.is_some() && !(cluster && config.ingest_per_sec > 0) {
        return Err(CliError::Usage(
            "--kill-leader-ms needs a replicated ingest partition: \
             --cluster with --ingest-rate > 0"
                .into(),
        ));
    }
    Ok(SoakArgs {
        config,
        out: PathBuf::from(parsed.value("out").unwrap_or("crates/cli/BENCH_soak.json")),
        cluster,
        kill_leader_ms,
        scrape: parsed.value("scrape").map(String::from),
    })
}

fn soak_config(parsed: &Parsed) -> Result<SoakConfig, CliError> {
    // --smoke shrinks the fleet to 16 users and stretches pacing into a
    // ~60-second run; explicit flags override either profile.
    let (d_users, d_sessions, d_think, d_ingest, d_chaos, d_window, d_abandon) =
        if parsed.switch("smoke") {
            (16, 8, 2_000, 10, 2, 30_000, 0)
        } else {
            (200, 5, 500, 20, 2, 5_000, 50)
        };
    let seed = parsed.parse_value("seed", 42)?;
    let chaos_events = parsed.parse_value("chaos", d_chaos)?;
    let window = parsed.parse_value("chaos-window-ms", d_window)?;
    let config = SoakConfig {
        seed,
        users: parsed.parse_value("users", d_users)?,
        sessions_per_user: parsed.parse_value("sessions", d_sessions)?,
        iterations: parsed.parse_value("iterations", 3)?,
        k: parsed.parse_value("k", 20)?,
        think_ms: parsed.parse_value("think-ms", d_think)?,
        abandon_per_mille: parsed.parse_value("abandon-per-mille", d_abandon)?,
        ingest_per_sec: parsed.parse_value("ingest-rate", d_ingest)?,
        deadline_ms: parsed.parse_opt("deadline-ms")?,
        chaos: seeded_timeline(seed, chaos_events, window),
    };
    config.validate().map_err(CliError::Usage)?;
    Ok(config)
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

/// Every user holds one live session; the default 64-session LRU
/// registry would evict concurrent sessions mid-feedback-loop.
fn session_capacity(users: usize) -> usize {
    users * 2 + 16
}

fn node_service(
    points: &[Vec<f64>],
    durable: bool,
    config: ServiceConfig,
    scratch: &mut ScratchDirs,
) -> Result<Arc<Service>, String> {
    let service = if durable {
        let dir = scratch.next()?;
        Service::open_durable(&dir, points, config, StoreConfig::default())
            .map_err(|e| format!("open_durable: {e}"))?
    } else {
        Service::new(points, config).map_err(|e| format!("service: {e}"))?
    };
    Ok(Arc::new(service))
}

fn scrape(addr: &str, out: &Path) -> Result<(), String> {
    let mut client =
        Client::connect(addr, ClientConfig::default()).map_err(|e| format!("connect: {e}"))?;
    match client
        .call(&Request::Stats)
        .map_err(|e| format!("stats: {e}"))?
    {
        Response::Stats(snapshot) => {
            write_metrics_artifact(out, "stats", &snapshot)
                .map_err(|e| format!("write artifact: {e}"))?;
            println!("wrote stats scrape of {addr} to {}", out.display());
            Ok(())
        }
        other => Err(format!("unexpected response to Stats: {other:?}")),
    }
}

/// How many read-after-ack probe rounds the leader-kill scenario runs
/// after the soak drains.
const PROBE_ROUNDS: u64 = 16;

/// Settles the two leader-kill bars of [`LeaderKillReport`] after the
/// soak drained, given what the kill thread saw (`kill`). The final
/// leader's total is checked against the acked floor; then each probe
/// round ingests a unique marker and queries it back at `k = 1`
/// through a session: an acked ingest must be visible to the next
/// query, which the promoted leader answers. A promotion that never
/// converged fails a probe with an error here, not a hang.
fn leader_kill_report(
    router: &Router,
    dataset: &qcluster_eval::Dataset,
    (at_ms, partition, killed_replica, acked_floor): (u64, usize, usize, u64),
) -> Result<LeaderKillReport, String> {
    let session = router
        .create_session(None)
        .map_err(|e| format!("probe session: {e}"))?;
    let mut misses = 0u64;
    for round in 0..PROBE_ROUNDS {
        // A unique marker: a corpus vector nudged off-lattice so the
        // probe's nearest neighbor at distance 0 can only be itself.
        let mut marker = dataset.vector(round as usize % dataset.len()).to_vec();
        for (j, x) in marker.iter_mut().enumerate() {
            *x += 1e-4 * (round + 1) as f64 * (j % 7 + 1) as f64;
        }
        let (id, _) = router
            .ingest(marker.clone())
            .map_err(|e| format!("probe ingest (round {round}): {e}"))?;
        let reply = router
            .query(session, 1, Some(marker), None)
            .map_err(|e| format!("probe query (round {round}): {e}"))?;
        let hit = match &reply.response {
            Response::Neighbors { neighbors, .. } => neighbors.first().map(|n| n.id) == Some(id),
            _ => false,
        };
        if !hit {
            misses += 1;
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
        ryw_probe_rounds: PROBE_ROUNDS,
        ryw_violations: misses,
    })
}

/// `qcluster soak [flags]`: a one-shot scrape with `--scrape`, else a
/// whole soak. A leader kill that lost an acked ingest, hid one from
/// the next query, or fired after the fleet finished is an error, so
/// the process exits non-zero.
pub fn cmd_soak(args: &[String]) -> Result<(), CliError> {
    let args = parse_soak(args)?;
    match &args.scrape {
        Some(addr) => scrape(addr, &args.out),
        None => run(&args),
    }
    .map_err(|e| CliError::stage("soak", e))
}

fn run(args: &SoakArgs) -> Result<(), String> {
    let config = &args.config;
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
    // Admit the whole fleet: every user's thread holds one connection
    // to each node (its own, or from the router's pool), plus the
    // control channel and reconnect churn.
    let server_config = ServerConfig {
        max_connections: config.users + 16,
        ..ServerConfig::default()
    };

    // Slots instead of plain servers: the leader-kill thread takes one
    // mid-soak (`Server::shutdown` consumes the server).
    let mut servers: Vec<Option<Server>> = Vec::new();
    // Router + which server slot backs each ingest-partition replica,
    // kept for leader-kill orchestration and the post-soak probe.
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
                // The router hosts the sessions; nodes hold none.
                let service = node_service(
                    &points[id_base..end],
                    durable,
                    ServiceConfig::default(),
                    &mut scratch,
                )?;
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
            max_sessions: session_capacity(config.users),
            ..RouterConfig::default()
        };
        let router = Arc::new(Router::new(map, router_config).map_err(|e| format!("router: {e}"))?);
        cluster = Some((Arc::clone(&router), ingest_servers));
        Box::new(RouterBackend::new(router))
    } else {
        let node_config = ServiceConfig {
            max_sessions: session_capacity(config.users),
            ..ServiceConfig::default()
        };
        let service = node_service(&points, durable, node_config, &mut scratch)?;
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
                (Instant::now(), (kill_ms, p, victim, acked_floor))
            }))
        }
        _ => None,
    };

    let outcome = run_soak(&dataset, backend.as_ref(), config)?;
    let fleet_done = Instant::now();
    let metrics = backend.stats()?;
    let mut report = SoakReport::new(config, target, &outcome, metrics);

    // `true` when the kill landed after the fleet drained, so only the
    // post-soak probe met the promoted leader.
    let mut kill_after_fleet = false;
    if let Some(handle) = kill_thread {
        let (killed_at, kill) = handle.join().map_err(|_| "leader-kill thread panicked")?;
        kill_after_fleet = killed_at > fleet_done;
        let (router, _) = cluster.as_ref().expect("kill scenario implies cluster");
        report.leader_kill = Some(leader_kill_report(router, &dataset, kill)?);
    }
    drop(anti_entropy);
    write_soak_artifact(&args.out, &report).map_err(|e| format!("write artifact: {e}"))?;

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
             read-after-ack probe {}/{} clean",
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
                "an acked ingest was missing from the next query in {} of {} probe rounds \
                 after the leader kill",
                kill.ryw_violations, kill.ryw_probe_rounds
            ));
        }
        if kill_after_fleet {
            return Err(format!(
                "the leader kill at +{}ms fired after the fleet finished ({:.1}s): \
                 only the post-soak probe met the promoted leader; kill earlier",
                kill.at_ms, report.wall_secs
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<SoakArgs, CliError> {
        parse_soak(
            &args
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    fn usage_error(args: &str) -> String {
        match parse(args) {
            Err(CliError::Usage(msg)) => msg,
            _ => panic!("`{args}` should be a usage error"),
        }
    }

    #[test]
    fn defaults_are_the_full_soak_and_smoke_shrinks_it() {
        let args = parse("").unwrap();
        let c = &args.config;
        assert_eq!(
            (c.users, c.sessions_per_user, c.think_ms, c.ingest_per_sec),
            (200, 5, 500, 20)
        );
        assert_eq!(
            (c.seed, c.iterations, c.k, c.abandon_per_mille),
            (42, 3, 20, 50)
        );
        assert_eq!(args.out, PathBuf::from("crates/cli/BENCH_soak.json"));
        let c = parse("--smoke --users 8 --deadline-ms 250").unwrap().config;
        assert_eq!(
            (c.users, c.sessions_per_user, c.think_ms, c.ingest_per_sec),
            (8, 8, 2_000, 10)
        );
        assert_eq!((c.chaos.len(), c.deadline_ms), (2, Some(250)));
    }

    #[test]
    fn flag_misuse_is_a_usage_error_before_anything_binds() {
        assert!(usage_error("--smoke --kill-leader-ms 3000").contains("--cluster"));
        let no_ingest = "--cluster --ingest-rate 0 --kill-leader-ms 3000";
        assert!(usage_error(no_ingest).contains("--ingest-rate"));
        assert!(usage_error("--smoke --userz 8").contains("--userz"));
        assert!(usage_error("--smoke extra").contains("extra"));
        let kill = parse("--cluster --ingest-rate 40 --kill-leader-ms 3000").unwrap();
        assert_eq!(kill.kill_leader_ms, Some(3000));
    }
}
