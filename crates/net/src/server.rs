//! The TCP server: an acceptor thread, per-connection reader/writer
//! threads, and a shared bounded handler pool executing
//! [`dispatch`].
//!
//! ## Threading model
//!
//! ```text
//!   acceptor ──accept──▶ per-conn reader ──Job──▶ handler pool (N)
//!                              │                        │
//!                              │ decode-error replies   │ responses
//!                              ▼                        ▼
//!                        bounded writer queue ──▶ per-conn writer ──▶ socket
//! ```
//!
//! The reader decodes frames and *admits* requests; the handler pool
//! executes them (panic-isolated); the writer serializes responses in
//! completion order — responses for a pipelined connection can return
//! **out of order**, matched by request id.
//!
//! ## Backpressure and shedding
//!
//! Two bounds protect the server:
//!
//! - **Per-connection in-flight cap** (`writer_queue_depth`): a
//!   connection with that many requests decoded-but-unanswered gets a
//!   typed `Overloaded` reply instead of execution. The reply itself
//!   uses a *blocking* enqueue, so a peer that keeps flooding stops
//!   being read — its TCP window fills and the backpressure reaches the
//!   sender.
//! - **Handler pool admission** (`max_queued_jobs`): when the shared
//!   job queue is full, the request is shed with a typed `Overloaded`
//!   reply rather than queued unboundedly.
//!
//! ## Graceful shutdown
//!
//! [`Server::shutdown`] walks a three-stage state machine: **stop
//! accepting** (shutdown flag; acceptor exits), **drain** (half-close
//! every connection's read side so no new requests arrive, wait up to
//! `drain_deadline` for in-flight requests to finish and their
//! responses to be written), **close** (force-close sockets, join
//! threads up to a grace period, detach stragglers). The returned
//! [`ShutdownReport`] says how clean it was.

use crate::error::NetError;
use crate::frame::{self, FrameKind, ReadFrame, DEFAULT_MAX_PAYLOAD};
use crate::repl::{ReplReply, ReplRequest};
use crossbeam::channel::{bounded, BoundedSender, Receiver, RecvTimeoutError, TrySendError};
use qcluster_service::{dispatch, Request, Response, Service, ServiceError};
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections beyond this are rejected with a best-effort typed
    /// `Overloaded` frame (request id 0) and closed.
    pub max_connections: usize,
    /// Threads in the shared request-handler pool.
    pub num_handlers: usize,
    /// Per-connection pipelining cap: requests decoded but not yet
    /// answered. Beyond it the reader sheds with a typed `Overloaded`
    /// reply. Also sizes the writer queue.
    pub writer_queue_depth: usize,
    /// Bound on the shared handler-pool job queue; admission beyond it
    /// sheds with a typed `Overloaded` reply.
    pub max_queued_jobs: usize,
    /// Socket read timeout. Elapsing while *idle* (between frames) is
    /// benign; elapsing *mid-frame* closes the connection (slowloris
    /// defense). Also bounds shutdown-latency for idle readers.
    pub read_timeout: Duration,
    /// Socket write timeout; a peer that stops draining responses gets
    /// its connection closed after this long.
    pub write_timeout: Duration,
    /// Cap on accepted frame payload size.
    pub max_frame_len: u32,
    /// How long [`Server::shutdown`] waits for in-flight requests to
    /// finish before force-closing.
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            num_handlers: 4,
            writer_queue_depth: 32,
            max_queued_jobs: 256,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(5),
            max_frame_len: DEFAULT_MAX_PAYLOAD,
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// What [`Server::shutdown`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// In-flight requests whose responses were written during the
    /// drain window.
    pub drained: u64,
    /// Requests still in flight when the drain deadline expired (their
    /// connections were force-closed).
    pub aborted_inflight: usize,
    /// Threads that did not exit within the join grace period and were
    /// detached.
    pub detached_threads: usize,
}

impl ShutdownReport {
    /// `true` when nothing was cut short: every in-flight request
    /// drained and every thread joined.
    pub fn clean(&self) -> bool {
        self.aborted_inflight == 0 && self.detached_threads == 0
    }
}

/// State shared by the acceptor, readers, writers, and handlers.
struct Shared {
    service: Arc<Service>,
    config: ServerConfig,
    shutdown: AtomicBool,
    force_close: AtomicBool,
    active_conns: AtomicUsize,
    /// Requests decoded but whose responses are not yet written.
    inflight: AtomicUsize,
    /// In-flight requests completed during the shutdown drain window.
    drained: AtomicU64,
    /// Stream clones for shutdown signaling, keyed by connection id.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

/// RAII in-flight accounting: created at admission, dropped once the
/// response is written (or abandoned on any failure path), so the
/// drain wait in shutdown always makes progress.
struct InflightGuard {
    shared: Arc<Shared>,
    conn_inflight: Arc<AtomicUsize>,
}

impl InflightGuard {
    fn new(shared: &Arc<Shared>, conn_inflight: &Arc<AtomicUsize>) -> InflightGuard {
        shared.inflight.fetch_add(1, Ordering::SeqCst);
        conn_inflight.fetch_add(1, Ordering::SeqCst);
        InflightGuard {
            shared: Arc::clone(shared),
            conn_inflight: Arc::clone(conn_inflight),
        }
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.shared.inflight.fetch_sub(1, Ordering::SeqCst);
        self.conn_inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One admitted request traveling to the handler pool.
struct Job {
    request_id: u64,
    request: Request,
    reply: BoundedSender<WriteItem>,
    guard: InflightGuard,
}

/// What a [`WriteItem`] carries: a protocol response (JSON, kind 2) or
/// a pre-encoded replication reply (binary, kind 4). The writer thread
/// picks the frame kind from the body, so both protocols share one
/// ordered writer queue per connection.
enum WriteBody {
    Response(Response),
    Repl(Vec<u8>),
}

/// One response (or transport-level error reply) traveling to a
/// connection's writer.
struct WriteItem {
    request_id: u64,
    body: WriteBody,
    /// Present for admitted requests; `None` for decode-error, shed,
    /// and replication replies, which never counted as in-flight.
    guard: Option<InflightGuard>,
}

/// A framed TCP server fronting one shared [`Service`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    /// Per-connection reader/writer handles (pruned opportunistically).
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    handler_threads: Vec<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
    /// Keeps the handler pool alive; dropped during shutdown so the
    /// handlers exit once the queue drains.
    job_tx: Option<BoundedSender<Job>>,
    finished: bool,
}

impl Server {
    /// Binds a listener, starts the acceptor and handler pool, and
    /// begins serving `service`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<Service>,
        config: ServerConfig,
    ) -> Result<Server, NetError> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            config: config.clone(),
            shutdown: AtomicBool::new(false),
            force_close: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            drained: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
        });
        let (job_tx, job_rx) = bounded::<Job>(config.max_queued_jobs.max(1));
        let mut handler_threads = Vec::with_capacity(config.num_handlers);
        for i in 0..config.num_handlers.max(1) {
            let shared = Arc::clone(&shared);
            let job_rx = job_rx.clone();
            handler_threads.push(
                std::thread::Builder::new()
                    .name(format!("qnet-handler-{i}"))
                    .spawn(move || handler_loop(shared, job_rx))
                    .map_err(NetError::Io)?,
            );
        }
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let job_tx = job_tx.clone();
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::Builder::new()
                .name("qnet-acceptor".into())
                .spawn(move || acceptor_loop(shared, listener, job_tx, conn_threads))
                .map_err(NetError::Io)?
        };
        Ok(Server {
            shared,
            local_addr,
            conn_threads,
            handler_threads,
            acceptor: Some(acceptor),
            job_tx: Some(job_tx),
            finished: false,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests currently decoded but unanswered.
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::SeqCst)
    }

    /// Connections currently open.
    pub fn active_connections(&self) -> usize {
        self.shared.active_conns.load(Ordering::SeqCst)
    }

    /// Gracefully shuts down: stop accepting, drain in-flight requests
    /// up to the configured deadline, then close everything.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> ShutdownReport {
        if self.finished {
            return ShutdownReport {
                drained: 0,
                aborted_inflight: 0,
                detached_threads: 0,
            };
        }
        self.finished = true;
        let shared = &self.shared;
        // Stage 1: stop accepting. The acceptor polls the flag.
        shared.shutdown.store(true, Ordering::SeqCst);
        // Stage 2: drain. Half-close every connection's read side so
        // readers see EOF and stop admitting, while writers keep
        // flushing responses for requests already in flight.
        {
            let conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        let deadline = Instant::now() + shared.config.drain_deadline;
        while shared.inflight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let aborted_inflight = shared.inflight.load(Ordering::SeqCst);
        // Stage 3: close. Writers notice `force_close` on their next
        // queue-poll tick; sockets are torn down under them.
        shared.force_close.store(true, Ordering::SeqCst);
        {
            let conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        drop(self.job_tx.take());
        let mut detached_threads = 0;
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let grace = Instant::now() + Duration::from_secs(2);
        let mut pending: Vec<JoinHandle<()>> = {
            let mut guard = self.conn_threads.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *guard)
        };
        pending.append(&mut self.handler_threads);
        while !pending.is_empty() && Instant::now() < grace {
            let mut i = 0;
            while i < pending.len() {
                if pending[i].is_finished() {
                    let _ = pending.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
            if !pending.is_empty() {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        // Stragglers (e.g. a handler wedged in a pathological query)
        // are detached rather than blocking shutdown forever.
        detached_threads += pending.len();
        drop(pending);
        ShutdownReport {
            drained: shared.drained.load(Ordering::SeqCst),
            aborted_inflight,
            detached_threads,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.shutdown_inner();
        }
    }
}

fn acceptor_loop(
    shared: Arc<Shared>,
    listener: TcpListener,
    job_tx: BoundedSender<Job>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut next_conn_id: u64 = 1;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if qcluster_failpoint::active()
                    && qcluster_failpoint::evaluate_sleepy("net.accept").is_some()
                {
                    shared.service.metrics().record_connection_rejected();
                    drop(stream);
                    continue;
                }
                let active = shared.active_conns.load(Ordering::SeqCst);
                if active >= shared.config.max_connections {
                    reject_connection(&shared, stream, active);
                    continue;
                }
                let conn_id = next_conn_id;
                next_conn_id += 1;
                if let Err(_e) = spawn_connection(&shared, &job_tx, &conn_threads, conn_id, stream)
                {
                    shared.service.metrics().record_connection_rejected();
                }
                prune_finished(&conn_threads);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Best-effort typed reject for a connection over the cap: one
/// `Overloaded` frame with request id 0, then close.
fn reject_connection(shared: &Arc<Shared>, mut stream: TcpStream, active: usize) {
    shared.service.metrics().record_connection_rejected();
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let response = Response::Error(ServiceError::Overloaded {
        queued: active,
        capacity: shared.config.max_connections,
    });
    if let Ok(payload) = serde_json::to_string(&response) {
        let _ = frame::write_frame(&mut stream, FrameKind::Response, 0, payload.as_bytes());
    }
    let _ = stream.shutdown(Shutdown::Both);
}

fn spawn_connection(
    shared: &Arc<Shared>,
    job_tx: &BoundedSender<Job>,
    conn_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    conn_id: u64,
    stream: TcpStream,
) -> std::io::Result<()> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(shared.config.read_timeout))?;
    stream.set_write_timeout(Some(shared.config.write_timeout))?;
    let write_half = stream.try_clone()?;
    let registry_clone = stream.try_clone()?;
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(conn_id, registry_clone);
    shared.active_conns.fetch_add(1, Ordering::SeqCst);
    shared.service.metrics().record_connection_opened();
    // The writer queue is twice the in-flight cap so decode-error and
    // shed replies (which bypass in-flight accounting) rarely block
    // the reader; when they do, that block IS the backpressure.
    let (reply_tx, reply_rx) = bounded::<WriteItem>(shared.config.writer_queue_depth.max(1) * 2);
    let conn_inflight = Arc::new(AtomicUsize::new(0));
    let reader = {
        let shared = Arc::clone(shared);
        let job_tx = job_tx.clone();
        let reply_tx = reply_tx.clone();
        let conn_inflight = Arc::clone(&conn_inflight);
        std::thread::Builder::new()
            .name(format!("qnet-read-{conn_id}"))
            .spawn(move || reader_loop(shared, stream, job_tx, reply_tx, conn_inflight))?
    };
    let writer = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("qnet-write-{conn_id}"))
            .spawn(move || writer_loop(shared, conn_id, write_half, reply_rx))
    };
    let writer = match writer {
        Ok(w) => w,
        Err(e) => {
            // Roll back: without a writer the connection is useless.
            shared
                .conns
                .lock()
                .unwrap_or_else(|er| er.into_inner())
                .remove(&conn_id);
            shared.active_conns.fetch_sub(1, Ordering::SeqCst);
            shared.service.metrics().record_connection_closed();
            let _ = reader.join();
            return Err(e);
        }
    };
    let mut guard = conn_threads.lock().unwrap_or_else(|e| e.into_inner());
    guard.push(reader);
    guard.push(writer);
    Ok(())
}

/// Joins connection threads that have already exited, so long-lived
/// servers do not accumulate dead handles.
fn prune_finished(conn_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>) {
    let mut guard = conn_threads.lock().unwrap_or_else(|e| e.into_inner());
    let mut i = 0;
    while i < guard.len() {
        if guard[i].is_finished() {
            let _ = guard.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

fn reader_loop(
    shared: Arc<Shared>,
    mut stream: TcpStream,
    job_tx: BoundedSender<Job>,
    reply_tx: BoundedSender<WriteItem>,
    conn_inflight: Arc<AtomicUsize>,
) {
    let max_payload = shared.config.max_frame_len;
    let depth = shared.config.writer_queue_depth.max(1);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match frame::read_frame(&mut stream, max_payload) {
            Ok(ReadFrame::Idle) => continue,
            Ok(ReadFrame::Eof) => break,
            Ok(ReadFrame::Corrupt { request_id, error }) => {
                shared.service.metrics().record_decode_error();
                let fatal = error.is_fatal();
                let response = Response::Error(ServiceError::InvalidRequest(format!(
                    "frame decode failed: {error}"
                )));
                let delivered = reply_tx
                    .send(WriteItem {
                        request_id,
                        body: WriteBody::Response(response),
                        guard: None,
                    })
                    .is_ok();
                if fatal || !delivered {
                    break;
                }
            }
            Ok(ReadFrame::Frame(f)) => {
                // Failpoint `net.read`: sever the connection exactly on
                // the next received frame (a deterministic mid-exchange
                // connection loss — the frame is never answered).
                if qcluster_failpoint::active()
                    && qcluster_failpoint::evaluate_sleepy("net.read").is_some()
                {
                    let _ = stream.shutdown(Shutdown::Both);
                    break;
                }
                shared.service.metrics().record_frame_in();
                if f.kind == FrameKind::ReplRequest {
                    // Replication runs inline on the reader thread: the
                    // follower's Apply stream must be processed in
                    // arrival order, and skipping the handler pool keeps
                    // WAL shipping from competing with query admission.
                    let reply = match ReplRequest::decode(&f.payload) {
                        Ok(req) => {
                            let service = Arc::clone(&shared.service);
                            catch_unwind(AssertUnwindSafe(move || handle_repl(&service, req)))
                                .unwrap_or_else(|_| ReplReply::Err {
                                    msg: "replication handler panicked".into(),
                                })
                        }
                        Err(e) => {
                            shared.service.metrics().record_decode_error();
                            ReplReply::Err {
                                msg: format!("replication payload did not parse: {e}"),
                            }
                        }
                    };
                    if reply_tx
                        .send(WriteItem {
                            request_id: f.request_id,
                            body: WriteBody::Repl(reply.encode()),
                            guard: None,
                        })
                        .is_err()
                    {
                        break;
                    }
                    continue;
                }
                if f.kind != FrameKind::Request {
                    shared.service.metrics().record_decode_error();
                    let response = Response::Error(ServiceError::InvalidRequest(
                        "expected a request frame, got a response frame".into(),
                    ));
                    if reply_tx
                        .send(WriteItem {
                            request_id: f.request_id,
                            body: WriteBody::Response(response),
                            guard: None,
                        })
                        .is_err()
                    {
                        break;
                    }
                    continue;
                }
                let parsed: Result<Request, String> = std::str::from_utf8(&f.payload)
                    .map_err(|e| format!("payload is not utf-8: {e}"))
                    .and_then(|s| serde_json::from_str::<Request>(s).map_err(|e| format!("{e}")));
                let request = match parsed {
                    Ok(request) => request,
                    Err(e) => {
                        shared.service.metrics().record_decode_error();
                        let response = Response::Error(ServiceError::InvalidRequest(format!(
                            "request payload did not parse: {e}"
                        )));
                        if reply_tx
                            .send(WriteItem {
                                request_id: f.request_id,
                                body: WriteBody::Response(response),
                                guard: None,
                            })
                            .is_err()
                        {
                            break;
                        }
                        continue;
                    }
                };
                // Pipelining cap: shed instead of queueing unboundedly.
                if conn_inflight.load(Ordering::SeqCst) >= depth {
                    shared.service.metrics().record_write_queue_shed();
                    let response = Response::Error(ServiceError::Overloaded {
                        queued: depth,
                        capacity: depth,
                    });
                    if reply_tx
                        .send(WriteItem {
                            request_id: f.request_id,
                            body: WriteBody::Response(response),
                            guard: None,
                        })
                        .is_err()
                    {
                        break;
                    }
                    continue;
                }
                let guard = InflightGuard::new(&shared, &conn_inflight);
                let job = Job {
                    request_id: f.request_id,
                    request,
                    reply: reply_tx.clone(),
                    guard,
                };
                match job_tx.try_send(job) {
                    Ok(()) => {}
                    Err(TrySendError::Full(job)) => {
                        shared.service.metrics().record_write_queue_shed();
                        let response = Response::Error(ServiceError::Overloaded {
                            queued: shared.config.max_queued_jobs,
                            capacity: shared.config.max_queued_jobs,
                        });
                        // Keep the guard until the shed reply is
                        // enqueued so in-flight accounting stays exact.
                        if reply_tx
                            .send(WriteItem {
                                request_id: job.request_id,
                                body: WriteBody::Response(response),
                                guard: Some(job.guard),
                            })
                            .is_err()
                        {
                            break;
                        }
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            Err(_) => break,
        }
    }
    // Dropping reply_tx lets the writer exit once outstanding jobs for
    // this connection have flushed their responses.
}

/// Serves one replication request against the fronted service. Every
/// failure becomes a typed [`ReplReply::Err`]; the connection stays up.
fn handle_repl(service: &Service, req: ReplRequest) -> ReplReply {
    match req {
        ReplRequest::Fetch { from, max } => match service.replication_chunk(from, max) {
            Ok((total, frames)) => ReplReply::Chunk { total, frames },
            Err(e) => ReplReply::Err { msg: e.to_string() },
        },
        ReplRequest::Apply {
            term,
            lease_ms,
            frames,
        } => match service.apply_fenced(term, lease_ms, &frames) {
            Ok(Ok((total, applied))) => ReplReply::Applied { total, applied },
            Ok(Err(current)) => ReplReply::StaleTerm { current },
            Err(e) => ReplReply::Err { msg: e.to_string() },
        },
        ReplRequest::Status => {
            let (total, durable) = service.replication_status();
            let (term, leased) = service.consensus_status();
            ReplReply::Status {
                total,
                durable,
                term,
                leased,
            }
        }
        ReplRequest::Vote { term, lease_ms } => match service.handle_vote(term, lease_ms) {
            Ok((granted, term)) => ReplReply::Vote { granted, term },
            Err(e) => ReplReply::Err { msg: e.to_string() },
        },
    }
}

fn handler_loop(shared: Arc<Shared>, job_rx: Receiver<Job>) {
    while let Ok(job) = job_rx.recv() {
        let Job {
            request_id,
            request,
            reply,
            guard,
        } = job;
        let service = Arc::clone(&shared.service);
        let response = catch_unwind(AssertUnwindSafe(move || dispatch(&service, request)))
            .unwrap_or_else(|_| {
                Response::Error(ServiceError::Internal(
                    "request handler panicked; request failed cleanly".into(),
                ))
            });
        let _ = reply.send(WriteItem {
            request_id,
            body: WriteBody::Response(response),
            guard: Some(guard),
        });
    }
}

fn writer_loop(
    shared: Arc<Shared>,
    conn_id: u64,
    mut stream: TcpStream,
    reply_rx: Receiver<WriteItem>,
) {
    loop {
        match reply_rx.recv_timeout(Duration::from_millis(25)) {
            Ok(item) => {
                if qcluster_failpoint::active()
                    && qcluster_failpoint::evaluate_sleepy("net.write").is_some()
                {
                    // Simulated write failure: the connection is torn
                    // down exactly as on a real socket error.
                    break;
                }
                let WriteItem {
                    request_id,
                    body,
                    guard,
                } = item;
                let (kind, payload) = match body {
                    WriteBody::Response(response) => {
                        let payload = match serde_json::to_string(&response) {
                            Ok(p) => p.into_bytes(),
                            Err(_) => {
                                // Unserializable response: report rather
                                // than silently dropping the reply.
                                serde_json::to_string(&Response::Error(ServiceError::Internal(
                                    "response failed to serialize".into(),
                                )))
                                .unwrap_or_else(|_| String::from("{}"))
                                .into_bytes()
                            }
                        };
                        (FrameKind::Response, payload)
                    }
                    WriteBody::Repl(bytes) => (FrameKind::ReplResponse, bytes),
                };
                match frame::write_frame(&mut stream, kind, request_id, &payload) {
                    Ok(()) => {
                        shared.service.metrics().record_frame_out();
                        if guard.is_some() && shared.shutdown.load(Ordering::SeqCst) {
                            shared.drained.fetch_add(1, Ordering::SeqCst);
                            shared.service.metrics().record_shutdown_drains(1);
                        }
                    }
                    Err(_) => break,
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.force_close.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Tear down both halves so the reader unblocks, then drain leftover
    // items so their in-flight guards release.
    let _ = stream.shutdown(Shutdown::Both);
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&conn_id);
    shared.active_conns.fetch_sub(1, Ordering::SeqCst);
    shared.service.metrics().record_connection_closed();
    while let Ok(_leftover) = reply_rx.try_recv() {}
}
