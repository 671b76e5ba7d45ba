//! `qcluster serve` — bind the TCP retrieval service on a built store.
//!
//! ```text
//! recover ──▶ bind [──▶ scrape …]
//! ```
//!
//! `recover` opens the durable store directory `qcluster build` sealed
//! and restores the corpus (segments + WAL tail) through the same
//! crash-recovery path the fault-tolerance tests exercise. `bind`
//! starts the `qcluster-net` server — one node by default, or
//! `nodes > 1` for a scatter-gather cluster: the corpus is split into
//! contiguous partitions, each served by its own in-process node, and
//! clients front them with the `qcluster-router` library (which is how
//! `qcluster eval --cluster` connects).
//!
//! With a scrape path set, a background thread periodically snapshots
//! the primary node's [`MetricsSnapshot`](qcluster_service::MetricsSnapshot)
//! into the standard bench
//! metrics artifact ([`write_metrics_artifact`](crate::report::write_metrics_artifact)), so a
//! long-lived `serve` can be monitored by tailing one JSON file.

use crate::error::CliError;
use crate::stats::PipelineStats;
use qcluster_net::{Server, ServerConfig};
use qcluster_router::Partition;
use qcluster_service::{Service, ServiceConfig};
use qcluster_store::{StoreConfig, VectorStore};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Serving tunables.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Nodes to split the corpus over (`1` = single node).
    pub nodes: usize,
    /// Max concurrent client connections per node.
    pub max_connections: usize,
    /// Max live sessions per node.
    pub max_sessions: usize,
    /// Write periodic metrics-snapshot scrapes to this JSON artifact.
    pub scrape_json: Option<PathBuf>,
    /// Scrape period.
    pub scrape_interval: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            nodes: 1,
            max_connections: 64,
            max_sessions: 256,
            scrape_json: None,
            scrape_interval: Duration::from_secs(5),
        }
    }
}

/// A running serving stack: nodes, their listeners, and the optional
/// scrape thread. Call [`ServeHandle::shutdown`] to stop everything.
pub struct ServeHandle {
    services: Vec<Arc<Service>>,
    servers: Vec<Server>,
    partitions: Vec<Partition>,
    scrape_stop: Arc<AtomicBool>,
    scrape_thread: Option<std::thread::JoinHandle<()>>,
    scrape_json: Option<PathBuf>,
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHandle")
            .field("nodes", &self.servers.len())
            .field("addrs", &self.addrs())
            .finish()
    }
}

impl ServeHandle {
    /// Listener addresses, one per node (partition order).
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(Server::local_addr).collect()
    }

    /// The partition layout (id bases + replica addresses) a
    /// `qcluster-router` client needs to front this stack.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// The primary node's service (metrics, direct in-process calls).
    pub fn primary(&self) -> &Arc<Service> {
        &self.services[0]
    }

    /// Stops the scrape thread and shuts every node down. A final
    /// scrape is written on the way out so even short runs leave a
    /// complete artifact.
    pub fn shutdown(mut self) {
        self.scrape_stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.scrape_thread.take() {
            let _ = t.join();
        }
        if let Some(path) = &self.scrape_json {
            let _ = crate::report::write_metrics_artifact(path, "serve", &self.primary().stats());
        }
        for server in self.servers.drain(..) {
            server.shutdown();
        }
    }
}

/// Opens the store at `dir` and binds the serving stack on
/// OS-assigned ports (`127.0.0.1`).
///
/// # Errors
///
/// Store recovery failures, an empty store, or bind failures.
pub fn serve(
    dir: &Path,
    opts: &ServeOptions,
    stats: &PipelineStats,
) -> Result<ServeHandle, CliError> {
    let recover = stats.stage("recover");
    let bind = stats.stage("bind");
    let service_config = ServiceConfig {
        max_sessions: opts.max_sessions,
        ..ServiceConfig::default()
    };
    let server_config = ServerConfig {
        max_connections: opts.max_connections,
        ..ServerConfig::default()
    };

    let nodes = opts.nodes.max(1);
    let (services, partitions): (Vec<Arc<Service>>, Vec<Partition>) = if nodes == 1 {
        // Single node serves the durable store directly: live ingests
        // keep WAL-appending into the same directory.
        recover.item_in();
        let service = Service::open_durable(dir, &[], service_config, StoreConfig::default())
            .map_err(|e| CliError::stage("recover", format!("{}: {e}", dir.display())))?;
        recover.item_out();
        (
            vec![Arc::new(service)],
            vec![Partition {
                id_base: 0,
                replicas: Vec::new(),
            }],
        )
    } else {
        // Cluster mode: recover the corpus once, then split it into
        // contiguous read-only partitions (global id = id_base + local).
        recover.item_in();
        let (_store, recovered) = VectorStore::open(dir, StoreConfig::default())
            .map_err(|e| CliError::stage("recover", format!("{}: {e}", dir.display())))?;
        recover.item_out();
        let n = recovered.vectors.len();
        if n < nodes {
            return Err(CliError::stage(
                "recover",
                format!("{n} vectors cannot split over {nodes} nodes"),
            ));
        }
        let per = n / nodes;
        let mut services = Vec::with_capacity(nodes);
        let mut partitions = Vec::with_capacity(nodes);
        for i in 0..nodes {
            let id_base = i * per;
            let end = if i + 1 == nodes { n } else { id_base + per };
            let service = Service::new(&recovered.vectors[id_base..end], service_config.clone())
                .map_err(|e| CliError::stage("recover", format!("node {i}: {e}")))?;
            services.push(Arc::new(service));
            partitions.push(Partition {
                id_base,
                replicas: Vec::new(),
            });
        }
        (services, partitions)
    };
    recover.finish();

    let mut servers = Vec::with_capacity(services.len());
    let mut partitions = partitions;
    for (i, service) in services.iter().enumerate() {
        bind.item_in();
        let server = Server::bind("127.0.0.1:0", Arc::clone(service), server_config.clone())
            .map_err(|e| CliError::stage("bind", format!("node {i}: {e}")))?;
        partitions[i].replicas = vec![server.local_addr()];
        servers.push(server);
        bind.item_out();
    }
    bind.finish();
    stats.verify_conservation()?;

    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scrape_thread = opts.scrape_json.as_ref().map(|path| {
        let path = path.clone();
        let interval = opts.scrape_interval;
        let stop = Arc::clone(&scrape_stop);
        let service = Arc::clone(&services[0]);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                // Sleep in short slices so shutdown is prompt even
                // with long scrape intervals.
                let mut left = interval;
                while !stop.load(Ordering::Relaxed) && left > Duration::ZERO {
                    let slice = left.min(Duration::from_millis(50));
                    std::thread::sleep(slice);
                    left = left.saturating_sub(slice);
                }
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                if let Err(e) =
                    crate::report::write_metrics_artifact(&path, "serve", &service.stats())
                {
                    eprintln!("  [serve] scrape failed: {e}");
                }
            }
        })
    });

    Ok(ServeHandle {
        services,
        servers,
        partitions,
        scrape_stop,
        scrape_thread,
        scrape_json: opts.scrape_json.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use crate::ingest::{ingest, IngestConfig, IngestSource};
    use crate::synth::SynthImagesConfig;
    use qcluster_net::{Client, ClientConfig};
    use qcluster_service::{Request, Response};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qcluster-cli-serve-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn built_store(dir: &Path) -> PathBuf {
        let features = dir.join("features.qdsb");
        ingest(
            &IngestSource::Synth(SynthImagesConfig {
                categories: 4,
                images_per_category: 6,
                image_size: 12,
                categories_per_super: 2,
                seed: 3,
            }),
            &features,
            &IngestConfig::default(),
            &PipelineStats::new("ingest"),
        )
        .unwrap();
        let store = dir.join("store");
        build(&features, &store, &PipelineStats::new("build")).unwrap();
        store
    }

    /// One node serves the built store, and what it ingests over the
    /// wire survives a wire `Flush` and a restart.
    #[test]
    fn single_node_serves_the_built_store() {
        let dir = tmp_dir("single");
        let store = built_store(&dir);
        let boot = || serve(&store, &ServeOptions::default(), &PipelineStats::new("s")).unwrap();
        let handle = boot();
        let addrs = handle.addrs();
        assert_eq!(addrs.len(), 1);
        let mut client = Client::connect(addrs[0].to_string(), ClientConfig::default()).unwrap();
        match client.call(&Request::Stats).unwrap() {
            Response::Stats(snap) => assert_eq!(snap.storage.segment_vectors, 24),
            other => panic!("unexpected: {other:?}"),
        }
        let dim = qcluster_eval::load_dataset_auto(&dir.join("features.qdsb"))
            .unwrap()
            .dim();
        for c in 0..4 {
            let vector = vec![c as f64; dim];
            let reply = client.call(&Request::Ingest { vector }).unwrap();
            assert!(matches!(reply, Response::Ingested { id, .. } if id == 24 + c));
        }
        match client.call(&Request::Flush).unwrap() {
            Response::Flushed { folded_vectors, .. } => assert_eq!(folded_vectors, 4),
            other => panic!("unexpected: {other:?}"),
        }
        drop(client);
        handle.shutdown();
        let handle = boot();
        assert_eq!(handle.primary().total_vectors(), 28);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cluster_mode_partitions_the_corpus() {
        let dir = tmp_dir("cluster");
        let store = built_store(&dir);
        let opts = ServeOptions {
            nodes: 3,
            ..ServeOptions::default()
        };
        let handle = serve(&store, &opts, &PipelineStats::new("serve")).unwrap();
        assert_eq!(handle.addrs().len(), 3);
        let parts = handle.partitions().to_vec();
        assert_eq!(parts[0].id_base, 0);
        assert_eq!(parts[1].id_base, 8);
        assert_eq!(parts[2].id_base, 16);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrape_writes_a_metrics_artifact() {
        let dir = tmp_dir("scrape");
        let store = built_store(&dir);
        let scrape = dir.join("metrics.json");
        let opts = ServeOptions {
            scrape_json: Some(scrape.clone()),
            scrape_interval: Duration::from_millis(20),
            ..ServeOptions::default()
        };
        let handle = serve(&store, &opts, &PipelineStats::new("serve")).unwrap();
        std::thread::sleep(Duration::from_millis(120));
        handle.shutdown();
        let text = std::fs::read_to_string(&scrape).unwrap();
        let json: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert!(json.get("metrics").is_some(), "artifact shape: {text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
