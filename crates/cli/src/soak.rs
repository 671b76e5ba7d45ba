//! `qcluster soak` — run a closed-loop user-fleet soak against a live
//! target.
//!
//! With no flags this boots a single in-process node over the quick
//! semantic-gap corpus (7,500 points), serves it on a real TCP socket,
//! and drives the full default soak (200 users × 5 sessions × 3
//! feedback iterations, background ingest), writing the SLO artifact to
//! `crates/cli/BENCH_soak.json`. The soak applies load and measures it;
//! it injects no faults (the crates' chaos suites do).
//!
//! Common invocations:
//!
//! ```text
//! qcluster soak --smoke                 # ~60-second sanity soak (16 users)
//! qcluster soak --cluster               # router cluster target (ingest
//!                                       # partition replicated 3× when durable)
//! qcluster soak --seed 7 --users 300    # reshape the fleet
//! qcluster soak --scrape 127.0.0.1:4100 # one-shot Stats scrape of a live node
//! ```
//!
//! The node boot is this command's own, not `serve`'s: in-memory or
//! scratch-dir durable nodes and a 3× ingest partition.

use crate::{parse_args, Parsed};
use qcluster_cli::{
    run_soak, write_metrics_artifact, write_soak_artifact, CliError, RouterBackend, SoakBackend,
    SoakConfig, SoakReport, TcpBackend,
};
use qcluster_eval::synthetic::SemanticGapConfig;
use qcluster_net::{Client, ClientConfig, Server, ServerConfig};
use qcluster_router::{even_bases, Partition, Router, RouterConfig, ShardMap};
use qcluster_service::{Request, Response, Service, ServiceConfig};
use qcluster_store::StoreConfig;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// A parsed `qcluster soak` command line, checked before anything binds.
struct SoakArgs {
    config: SoakConfig,
    out: PathBuf,
    cluster: bool,
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
            "out",
            "scrape",
        ],
        &["cluster", "smoke"],
    )?;
    if let Some(extra) = parsed.positionals.first() {
        return Err(CliError::Usage(format!("unexpected argument: {extra}")));
    }
    Ok(SoakArgs {
        config: soak_config(&parsed)?,
        out: PathBuf::from(parsed.value("out").unwrap_or("crates/cli/BENCH_soak.json")),
        cluster: parsed.switch("cluster"),
        scrape: parsed.value("scrape").map(String::from),
    })
}

fn soak_config(parsed: &Parsed) -> Result<SoakConfig, CliError> {
    // --smoke shrinks the fleet to 16 users and stretches pacing into a
    // ~60-second run; explicit flags override either profile.
    let (d_users, d_sessions, d_think, d_ingest, d_abandon) = if parsed.switch("smoke") {
        (16, 8, 2_000, 10, 0)
    } else {
        (200, 5, 500, 20, 50)
    };
    let config = SoakConfig {
        seed: parsed.parse_value("seed", 42)?,
        users: parsed.parse_value("users", d_users)?,
        sessions_per_user: parsed.parse_value("sessions", d_sessions)?,
        iterations: parsed.parse_value("iterations", 3)?,
        k: parsed.parse_value("k", 20)?,
        think_ms: parsed.parse_value("think-ms", d_think)?,
        abandon_per_mille: parsed.parse_value("abandon-per-mille", d_abandon)?,
        ingest_per_sec: parsed.parse_value("ingest-rate", d_ingest)?,
        deadline_ms: parsed.parse_opt("deadline-ms")?,
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

/// `qcluster soak [flags]`: a one-shot scrape with `--scrape`, else a
/// whole soak.
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

    let mut servers: Vec<Server> = Vec::new();
    // Background anti-entropy keeps ingest-partition followers caught
    // up off the ingest path for the whole run.
    let mut anti_entropy = None;
    let backend: Box<dyn SoakBackend> = if args.cluster {
        let bases = even_bases(points.len(), 3);
        let mut partitions = Vec::new();
        for (i, &id_base) in bases.iter().enumerate() {
            let end = bases.get(i + 1).copied().unwrap_or(points.len());
            // The ingest partition (the last slice — unbounded above,
            // so it owns live writes) is replicated 3× when durable:
            // every ingest is majority-acked through WAL shipping, so
            // the fleet's writes carry the replication path's cost.
            let copies = if i + 1 == bases.len() && durable {
                3
            } else {
                1
            };
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
                servers.push(server);
            }
            partitions.push(Partition { id_base, replicas });
        }
        let map = ShardMap::new(partitions).map_err(|e| format!("shard map: {e}"))?;
        let router_config = RouterConfig {
            max_sessions: session_capacity(config.users),
            ..RouterConfig::default()
        };
        let cluster =
            Arc::new(Router::new(map, router_config).map_err(|e| format!("router: {e}"))?);
        anti_entropy = durable.then(|| cluster.start_anti_entropy(Duration::from_millis(500)));
        Box::new(RouterBackend::new(cluster))
    } else {
        let node_config = ServiceConfig {
            max_sessions: session_capacity(config.users),
            ..ServiceConfig::default()
        };
        let service = node_service(&points, durable, node_config, &mut scratch)?;
        let server = Server::bind("127.0.0.1:0", service, server_config.clone())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        servers.push(server);
        Box::new(TcpBackend::connect(addr, ClientConfig::default())?)
    };
    let target = backend.label();
    eprintln!(
        "soaking {target}: {} users × {} sessions × {} iterations, k={}, ingest {}/s, seed {}",
        config.users,
        config.sessions_per_user,
        config.iterations,
        config.k,
        config.ingest_per_sec,
        config.seed,
    );

    let outcome = run_soak(&dataset, backend.as_ref(), config)?;
    let metrics = backend.stats()?;
    let report = SoakReport::new(config, target, &outcome, metrics);
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
    println!("wrote {}", args.out.display());

    drop(backend);
    for server in servers {
        server.shutdown();
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
        assert_eq!(c.deadline_ms, Some(250));
    }

    #[test]
    fn flag_misuse_is_a_usage_error_before_anything_binds() {
        assert!(usage_error("--smoke --userz 8").contains("--userz"));
        assert!(usage_error("--smoke extra").contains("extra"));
        // The soak injects no faults: there is no chaos flag.
        assert!(usage_error("--chaos 2").contains("--chaos"));
    }
}
