//! Boots the product through its public front doors — `Service::new` /
//! `Service::open_durable`, `Server::bind`, `Router::new`, `Client` —
//! and hands out the door a benchmark client talks through.

use crate::catalog::Workload;
use qcluster_net::{Client, ClientConfig, Server, ServerConfig};
use qcluster_router::{Router, RouterConfig, ShardMap};
use qcluster_service::{
    NeighborDto, Request, Response, SearchStatsDto, Service, ServiceConfig, StoreConfig,
};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

/// One in-process node: a service behind a bound TCP server.
pub struct Node {
    pub service: Arc<Service>,
    server: Server,
    pub addr: SocketAddr,
    /// Global id of this node's first point.
    pub id_base: usize,
}

/// The booted product for one workload.
pub struct System {
    pub nodes: Vec<Node>,
    pub router: Option<Arc<Router>>,
}

/// Shipped defaults; a workload overrides the shard kind at most.
pub fn service_config(w: &Workload) -> ServiceConfig {
    match w.shard_kind {
        None => ServiceConfig::default(),
        Some(kind) => ServiceConfig {
            shard_kind: kind,
            ..ServiceConfig::default()
        },
    }
}

fn bind(service: Service, id_base: usize) -> Result<Node, String> {
    let service = Arc::new(service);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    Ok(Node {
        service,
        server,
        addr,
        id_base,
    })
}

/// A router over `addrs` splitting `total` ids evenly, shipped defaults.
pub fn router_over(addrs: &[SocketAddr], total: usize) -> Result<Router, String> {
    let map = ShardMap::even(addrs, total).map_err(|e| format!("shard map: {e}"))?;
    Router::new(map, RouterConfig::default()).map_err(|e| format!("router: {e}"))
}

impl System {
    /// Raw vectors → a system ready to answer. `dir` is the store
    /// directory of a durable workload (fresh: bootstraps from `points`;
    /// with prior state: recovers it and ignores `points`).
    pub fn boot(w: &Workload, points: &[Vec<f64>], dir: Option<&Path>) -> Result<System, String> {
        let config = service_config(w);
        if w.nodes == 1 {
            let service = match dir {
                Some(dir) => Service::open_durable(dir, points, config, StoreConfig::default()),
                None => Service::new(points, config),
            }
            .map_err(|e| format!("service: {e}"))?;
            return Ok(System {
                nodes: vec![bind(service, 0)?],
                router: None,
            });
        }
        // The same contiguous split `ShardMap::even` hands the router.
        let base = points.len() / w.nodes;
        let extra = points.len() % w.nodes;
        let mut nodes = Vec::with_capacity(w.nodes);
        let mut id_base = 0;
        for i in 0..w.nodes {
            let len = base + usize::from(i < extra);
            let service = Service::new(&points[id_base..id_base + len], config.clone())
                .map_err(|e| format!("node {i}: {e}"))?;
            nodes.push(bind(service, id_base)?);
            id_base += len;
        }
        let addrs: Vec<SocketAddr> = nodes.iter().map(|n| n.addr).collect();
        let router = router_over(&addrs, points.len())?;
        for (node, part) in nodes.iter().zip(router.map().partitions()) {
            assert_eq!(node.id_base, part.id_base, "node slices follow the map");
        }
        Ok(System {
            nodes,
            router: Some(Arc::new(router)),
        })
    }

    /// A fresh front door: the shared router, or one new TCP connection.
    pub fn door(&self) -> Result<Door, String> {
        match &self.router {
            Some(router) => Ok(Door::Router(Arc::clone(router))),
            None => Ok(Door::Tcp(connect(self.nodes[0].addr)?)),
        }
    }

    /// Stops the router's workers and drains every server; an unclean
    /// drain is an error.
    pub fn shutdown(self) -> Result<(), String> {
        drop(self.router);
        for (i, node) in self.nodes.into_iter().enumerate() {
            let report = node.server.shutdown();
            if !report.clean() {
                return Err(format!("node {i} shutdown was not clean: {report:?}"));
            }
        }
        Ok(())
    }
}

pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr, ClientConfig::default()).map_err(|e| format!("connect {addr}: {e}"))
}

/// What the harness keeps of a `Response::Neighbors`.
#[derive(Debug, Clone)]
pub struct Answer {
    pub neighbors: Vec<NeighborDto>,
    pub stats: SearchStatsDto,
    pub shards_ok: usize,
    pub shards_total: usize,
    pub nodes_ok: usize,
    pub nodes_total: usize,
    pub degraded: bool,
}

pub fn answer_of(response: Response) -> Result<Answer, String> {
    match response {
        Response::Neighbors {
            neighbors,
            stats,
            shards_ok,
            shards_total,
            nodes_ok,
            nodes_total,
            degraded,
            ..
        } => Ok(Answer {
            neighbors,
            stats,
            shards_ok,
            shards_total,
            nodes_ok,
            nodes_total,
            degraded,
        }),
        other => Err(unexpected("Query", &other)),
    }
}

pub fn unexpected(what: &str, response: &Response) -> String {
    match response {
        Response::Error(e) => format!("{what}: service error: {e}"),
        other => format!("{what}: unexpected response {other:?}"),
    }
}

/// A client's way into the product: its own TCP connection to the one
/// node, or the router shared by every client of a cluster.
pub enum Door {
    Tcp(Client),
    Router(Arc<Router>),
}

impl Door {
    fn call(client: &mut Client, request: &Request) -> Result<Response, String> {
        client.call(request).map_err(|e| format!("net: {e}"))
    }

    pub fn create_session(&mut self) -> Result<u64, String> {
        match self {
            Door::Tcp(c) => match Self::call(c, &Request::CreateSession { engine: None })? {
                Response::SessionCreated { session } => Ok(session),
                other => Err(unexpected("CreateSession", &other)),
            },
            Door::Router(r) => r.create_session(None).map_err(|e| format!("router: {e}")),
        }
    }

    /// `vector` set: the example query; `None`: the session's refined
    /// query.
    pub fn query(
        &mut self,
        session: u64,
        k: usize,
        vector: Option<Vec<f64>>,
    ) -> Result<Answer, String> {
        let response = match self {
            Door::Tcp(c) => Self::call(
                c,
                &Request::Query {
                    session,
                    k,
                    vector,
                    deadline_ms: None,
                },
            )?,
            Door::Router(r) => {
                let report = r
                    .query(session, k, vector, None)
                    .map_err(|e| format!("router: {e}"))?;
                if !report.failures.is_empty() {
                    return Err(format!("router: node failures {:?}", report.failures));
                }
                report.response
            }
        };
        answer_of(response)
    }

    pub fn feed(&mut self, session: u64, relevant_ids: &[usize]) -> Result<(), String> {
        let response = match self {
            Door::Tcp(c) => Self::call(
                c,
                &Request::Feed {
                    session,
                    relevant_ids: relevant_ids.to_vec(),
                    scores: None,
                },
            )?,
            Door::Router(r) => r
                .feed(session, relevant_ids, None)
                .map_err(|e| format!("router: {e}"))?,
        };
        match response {
            Response::FeedAccepted { .. } => Ok(()),
            other => Err(unexpected("Feed", &other)),
        }
    }

    pub fn close_session(&mut self, session: u64) -> Result<(), String> {
        match self {
            Door::Tcp(c) => match Self::call(c, &Request::CloseSession { session })? {
                Response::SessionClosed { .. } => Ok(()),
                other => Err(unexpected("CloseSession", &other)),
            },
            Door::Router(r) => r.close_session(session).map_err(|e| format!("router: {e}")),
        }
    }

    /// Durable single node only: returns the acked `(id, total)`.
    pub fn ingest(&mut self, vector: Vec<f64>) -> Result<(usize, usize), String> {
        let Door::Tcp(c) = self else {
            return Err("ingest goes to the durable node's own connection".into());
        };
        match Self::call(c, &Request::Ingest { vector })? {
            Response::Ingested { id, total } => Ok((id, total)),
            other => Err(unexpected("Ingest", &other)),
        }
    }

    pub fn flush(&mut self) -> Result<(), String> {
        let Door::Tcp(c) = self else {
            return Err("flush goes to the durable node's own connection".into());
        };
        match Self::call(c, &Request::Flush)? {
            Response::Flushed { .. } => Ok(()),
            other => Err(unexpected("Flush", &other)),
        }
    }
}
