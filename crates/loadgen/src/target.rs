//! Soak targets: the doors of `qcluster-eval`'s closed loop that cross
//! a socket.
//!
//! The fleet only speaks [`UserTarget`] (one session-capable client;
//! the trait and its in-process door live in `qcluster-eval`) and
//! [`SoakBackend`] (the shared control plane: minting user targets,
//! background ingest, stats). Two implementations exist:
//!
//! - [`TcpBackend`] — every user opens its **own real TCP connection**
//!   (`qcluster-net` client) to a served store, so the soak exercises
//!   framing, pipelining backpressure, and the server's connection
//!   limits exactly like production traffic would.
//! - [`RouterBackend`] — every user drives the scatter-gather
//!   [`Router`] fronting a multi-node cluster over its per-node TCP
//!   connections (the router is a client-side library; sharing it
//!   across user threads is its intended concurrency model).

use qcluster_core::FeedbackPoint;
use qcluster_eval::{QueryReply, UserTarget};
use qcluster_net::{Client, ClientConfig, NetError};
use qcluster_router::Router;
use qcluster_service::{MetricsSnapshot, Request, Response};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

/// A [`UserTarget`] as the soak drives it. Errors are strings — the
/// fleet only counts and reports them.
pub type SoakTarget = dyn UserTarget<Error = String>;

/// The shared side of a soak target, used by the harness itself.
pub trait SoakBackend: Sync {
    /// Mints one fresh [`UserTarget`] (called once per user thread).
    ///
    /// # Errors
    ///
    /// Connection establishment failure.
    fn user_target(&self) -> Result<Box<SoakTarget>, String>;

    /// Durably ingests one vector, returning its assigned global id.
    ///
    /// # Errors
    ///
    /// Transport failure, or a memory-only target.
    fn ingest(&self, vector: Vec<f64>) -> Result<usize, String>;

    /// Fetches the target's metrics snapshot (cluster-wide when the
    /// target is a router).
    ///
    /// # Errors
    ///
    /// Transport failure.
    fn stats(&self) -> Result<MetricsSnapshot, String>;

    /// Human-readable target description for the report.
    fn label(&self) -> String;
}

fn net_err(e: NetError) -> String {
    format!("net: {e}")
}

fn unexpected(what: &str, response: &Response) -> String {
    format!("unexpected response to {what}: {response:?}")
}

/// The wire shape of a round's marks: the service resolves the vectors
/// from the ids itself.
fn ids_and_scores(marked: &[FeedbackPoint]) -> (Vec<usize>, Vec<f64>) {
    marked.iter().map(|p| (p.id, p.score)).unzip()
}

fn reply_from_response(what: &str, response: Response) -> Result<QueryReply, String> {
    match response {
        Response::Neighbors {
            neighbors,
            stats,
            degraded,
            ..
        } => Ok(QueryReply {
            retrieved: neighbors.into_iter().map(|n| n.id).collect(),
            stats: stats.into(),
            degraded,
        }),
        Response::Error(e) => Err(format!("service: {e}")),
        other => Err(unexpected(what, &other)),
    }
}

// ---------------------------------------------------------------------
// TCP (single served store)
// ---------------------------------------------------------------------

/// A soak target reached over real TCP: one `qcluster-net` connection
/// per user plus one mutex-guarded control connection for ingest and
/// stats.
pub struct TcpBackend {
    addr: SocketAddr,
    config: ClientConfig,
    control: Mutex<Client>,
}

impl TcpBackend {
    /// Connects the control channel to `addr`.
    ///
    /// # Errors
    ///
    /// Connection establishment failure.
    pub fn connect(addr: SocketAddr, config: ClientConfig) -> Result<TcpBackend, String> {
        let control = Client::connect(addr, config.clone()).map_err(net_err)?;
        Ok(TcpBackend {
            addr,
            config,
            control: Mutex::new(control),
        })
    }

    fn control_call(&self, request: &Request) -> Result<Response, String> {
        let mut control = self
            .control
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        control.call(request).map_err(net_err)
    }
}

struct TcpTarget {
    client: Client,
}

impl UserTarget for TcpTarget {
    type Error = String;

    fn create_session(&mut self) -> Result<u64, String> {
        match self
            .client
            .call(&Request::CreateSession { engine: None })
            .map_err(net_err)?
        {
            Response::SessionCreated { session } => Ok(session),
            Response::Error(e) => Err(format!("service: {e}")),
            other => Err(unexpected("CreateSession", &other)),
        }
    }

    fn query(
        &mut self,
        session: u64,
        k: usize,
        vector: Option<Vec<f64>>,
        deadline_ms: Option<u64>,
    ) -> Result<QueryReply, String> {
        let response = self
            .client
            .call(&Request::Query {
                session,
                k,
                vector,
                deadline_ms,
            })
            .map_err(net_err)?;
        reply_from_response("Query", response)
    }

    fn feed(&mut self, session: u64, marked: &[FeedbackPoint]) -> Result<(), String> {
        let (relevant_ids, scores) = ids_and_scores(marked);
        match self
            .client
            .call(&Request::Feed {
                session,
                relevant_ids,
                scores: Some(scores),
            })
            .map_err(net_err)?
        {
            Response::FeedAccepted { .. } => Ok(()),
            Response::Error(e) => Err(format!("service: {e}")),
            other => Err(unexpected("Feed", &other)),
        }
    }

    fn close_session(&mut self, session: u64) -> Result<(), String> {
        match self
            .client
            .call(&Request::CloseSession { session })
            .map_err(net_err)?
        {
            Response::SessionClosed { .. } => Ok(()),
            Response::Error(e) => Err(format!("service: {e}")),
            other => Err(unexpected("CloseSession", &other)),
        }
    }
}

impl SoakBackend for TcpBackend {
    fn user_target(&self) -> Result<Box<SoakTarget>, String> {
        let client = Client::connect(self.addr, self.config.clone()).map_err(net_err)?;
        Ok(Box::new(TcpTarget { client }))
    }

    fn ingest(&self, vector: Vec<f64>) -> Result<usize, String> {
        match self.control_call(&Request::Ingest { vector })? {
            Response::Ingested { id, .. } => Ok(id),
            Response::Error(e) => Err(format!("service: {e}")),
            other => Err(unexpected("Ingest", &other)),
        }
    }

    fn stats(&self) -> Result<MetricsSnapshot, String> {
        match self.control_call(&Request::Stats)? {
            Response::Stats(snapshot) => Ok(*snapshot),
            Response::Error(e) => Err(format!("service: {e}")),
            other => Err(unexpected("Stats", &other)),
        }
    }

    fn label(&self) -> String {
        format!("tcp://{}", self.addr)
    }
}

// ---------------------------------------------------------------------
// Router (multi-node cluster)
// ---------------------------------------------------------------------

/// A soak target fronted by the scatter-gather [`Router`]: every user
/// shares the router (its per-node connections and breakers), which in
/// turn fans out over TCP to the cluster's node servers.
#[derive(Clone)]
pub struct RouterBackend {
    router: Arc<Router>,
}

impl RouterBackend {
    /// Wraps an existing router.
    pub fn new(router: Arc<Router>) -> RouterBackend {
        RouterBackend { router }
    }
}

struct RouterTarget {
    router: Arc<Router>,
}

impl UserTarget for RouterTarget {
    type Error = String;

    fn create_session(&mut self) -> Result<u64, String> {
        self.router
            .create_session(None)
            .map_err(|e| format!("router: {e}"))
    }

    fn query(
        &mut self,
        session: u64,
        k: usize,
        vector: Option<Vec<f64>>,
        deadline_ms: Option<u64>,
    ) -> Result<QueryReply, String> {
        let report = self
            .router
            .query(session, k, vector, deadline_ms)
            .map_err(|e| format!("router: {e}"))?;
        reply_from_response("Query", report.response)
    }

    fn feed(&mut self, session: u64, marked: &[FeedbackPoint]) -> Result<(), String> {
        let (ids, scores) = ids_and_scores(marked);
        match self
            .router
            .feed(session, &ids, Some(&scores))
            .map_err(|e| format!("router: {e}"))?
        {
            Response::FeedAccepted { .. } => Ok(()),
            Response::Error(e) => Err(format!("service: {e}")),
            other => Err(unexpected("Feed", &other)),
        }
    }

    fn close_session(&mut self, session: u64) -> Result<(), String> {
        self.router
            .close_session(session)
            .map_err(|e| format!("router: {e}"))
    }
}

impl SoakBackend for RouterBackend {
    fn user_target(&self) -> Result<Box<SoakTarget>, String> {
        Ok(Box::new(RouterTarget {
            router: Arc::clone(&self.router),
        }))
    }

    fn ingest(&self, vector: Vec<f64>) -> Result<usize, String> {
        self.router
            .ingest(vector)
            .map(|(id, _total)| id)
            .map_err(|e| format!("router: {e}"))
    }

    fn stats(&self) -> Result<MetricsSnapshot, String> {
        self.router.stats().map_err(|e| format!("router: {e}"))
    }

    fn label(&self) -> String {
        format!(
            "router://{}-partitions/{}-nodes",
            self.router.map().num_partitions(),
            self.router.map().num_nodes()
        )
    }
}
