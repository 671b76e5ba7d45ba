//! The TCP server: an acceptor thread and one thread per connection,
//! which reads a request, runs [`dispatch`], writes the response and
//! reads the next.
//!
//! ## Threading model
//!
//! ```text
//!   acceptor ──accept──▶ per-conn thread: read frame ─▶ dispatch ─▶ write response ─┐
//!                                              ▲                                    │
//!                                              └────────────────────────────────────┘
//! ```
//!
//! A request runs on the thread that read it: no hand-off to a handler
//! pool, none to a writer. A connection's requests are therefore
//! answered one at a time, **in arrival order**; concurrency comes from
//! connections (up to `max_connections`) and from the executor's
//! fan-out inside each request.
//!
//! ## Backpressure
//!
//! Nothing is queued in the server. A connection's next request is not
//! read until its previous response is written, so a peer that
//! pipelines faster than it is answered fills its own TCP window and
//! stalls in its own `write`. A peer that stops reading its responses
//! stalls the connection thread in `write` for at most
//! `write_timeout`, after which the connection is closed. Beyond that,
//! `max_connections` bounds the threads and the executor's admission
//! control bounds the shard jobs, each with a typed `Overloaded` reply.
//!
//! ## Graceful shutdown
//!
//! [`Server::shutdown`] walks a three-stage state machine: **stop
//! accepting** (shutdown flag, one loopback connect wakes the blocked
//! acceptor, which exits), **drain** (half-close every connection's
//! read side so no new requests arrive, wait up to `drain_deadline` for
//! in-flight requests to finish and their responses to be written),
//! **close** (force-close sockets, join threads up to a grace period,
//! detach stragglers). The returned [`ShutdownReport`] says how clean
//! it was.

use crate::codec::{decode_request, encode_response};
use crate::error::NetError;
use crate::frame::{self, FrameKind, ReadFrame, DEFAULT_MAX_PAYLOAD};
use crate::repl::{ReplReply, ReplRequest};
use qcluster_service::{dispatch, Response, Service, ServiceError};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections beyond this are rejected with a best-effort typed
    /// `Overloaded` frame (request id 0) and closed. Each open
    /// connection holds one thread.
    pub max_connections: usize,
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
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(5),
            max_frame_len: DEFAULT_MAX_PAYLOAD,
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// What [`Server::shutdown`] accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// State shared by the acceptor and the connection threads.
struct Shared {
    service: Arc<Service>,
    config: ServerConfig,
    shutdown: AtomicBool,
    active_conns: AtomicUsize,
    /// Requests decoded but whose responses are not yet written.
    inflight: AtomicUsize,
    /// In-flight requests completed during the shutdown drain window.
    drained: AtomicU64,
    /// Stream clones for shutdown signaling, keyed by connection id.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

/// RAII in-flight accounting: made when a request is decoded and
/// counted, dropped once its response is written (or abandoned on any
/// failure path), so the drain wait in shutdown always makes progress.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A framed TCP server fronting one shared [`Service`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    /// Per-connection thread handles (pruned opportunistically).
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// `None` once shut down.
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds a listener, starts the acceptor, and begins serving
    /// `service`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<Service>,
        config: ServerConfig,
    ) -> Result<Server, NetError> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            config,
            shutdown: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            drained: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
        });
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::Builder::new()
                .name("qnet-acceptor".into())
                .spawn(move || acceptor_loop(shared, listener, conn_threads))
                .map_err(NetError::Io)?
        };
        Ok(Server {
            shared,
            local_addr,
            conn_threads,
            acceptor: Some(acceptor),
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

    /// Gracefully shuts down: stop accepting, drain in-flight requests
    /// up to the configured deadline, then close everything.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shutdown_inner()
    }

    /// Runs once; a second call (the `Drop` after `shutdown`) finds
    /// the acceptor gone and reports nothing.
    fn shutdown_inner(&mut self) -> ShutdownReport {
        let Some(acceptor) = self.acceptor.take() else {
            return ShutdownReport::default();
        };
        let shared = &self.shared;
        let mut detached_threads = 0;
        // Stage 1: stop accepting. The acceptor is blocked in `accept`;
        // one connect wakes it to see the flag. If that connect fails
        // the acceptor is left blocked and detached.
        shared.shutdown.store(true, Ordering::SeqCst);
        if wake(self.local_addr) {
            let _ = acceptor.join();
        } else {
            detached_threads += 1;
        }
        // Stage 2: drain. Half-close every connection's read side so no
        // new request arrives, while a request already running still
        // writes its response.
        shutdown_all(shared, Shutdown::Read);
        let deadline = Instant::now() + shared.config.drain_deadline;
        while shared.inflight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let aborted_inflight = shared.inflight.load(Ordering::SeqCst);
        // Stage 3: close. Sockets are torn down under any connection
        // thread still running a request; its write fails and it exits.
        shutdown_all(shared, Shutdown::Both);
        // No connection thread starts after the acceptor exited. Any still
        // running after the grace period (e.g. one wedged in a
        // pathological query) is detached with the server, rather than
        // blocking shutdown forever.
        let grace = Instant::now() + Duration::from_secs(2);
        while prune_finished(&self.conn_threads) > 0 && Instant::now() < grace {
            std::thread::sleep(Duration::from_millis(5));
        }
        detached_threads += prune_finished(&self.conn_threads);
        ShutdownReport {
            drained: shared.drained.load(Ordering::SeqCst),
            aborted_inflight,
            detached_threads,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

/// Shuts every open connection's socket down `how`.
fn shutdown_all(shared: &Shared, how: Shutdown) {
    let conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
    for stream in conns.values() {
        let _ = stream.shutdown(how);
    }
}

/// Connects to the listener once so a blocked `accept` returns; an
/// unspecified bind address is reached through loopback.
fn wake(addr: SocketAddr) -> bool {
    let mut addr = addr;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_ok()
}

fn acceptor_loop(
    shared: Arc<Shared>,
    listener: TcpListener,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_conn_id: u64 = 1;
    loop {
        let accepted = listener.accept();
        // Once the flag is up, whatever was accepted — the shutdown's
        // wake-up or a late client — is dropped uncounted.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match accepted {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                // E.g. out of descriptors: back off instead of spinning.
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
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
        if spawn_connection(&shared, &conn_threads, conn_id, stream).is_err() {
            shared.service.metrics().record_connection_rejected();
        }
        prune_finished(&conn_threads);
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
    let payload = encode_response(&response);
    let _ = frame::write_frame(&mut stream, FrameKind::Response, 0, &payload);
    let _ = stream.shutdown(Shutdown::Both);
}

fn spawn_connection(
    shared: &Arc<Shared>,
    conn_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    conn_id: u64,
    stream: TcpStream,
) -> std::io::Result<()> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(shared.config.read_timeout))?;
    stream.set_write_timeout(Some(shared.config.write_timeout))?;
    let registry_clone = stream.try_clone()?;
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(conn_id, registry_clone);
    shared.active_conns.fetch_add(1, Ordering::SeqCst);
    shared.service.metrics().record_connection_opened();
    let spawned = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("qnet-conn-{conn_id}"))
            .spawn(move || {
                connection_loop(&shared, stream);
                close_connection(&shared, conn_id);
            })
    };
    match spawned {
        Ok(thread) => {
            conn_threads
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(thread);
            Ok(())
        }
        Err(e) => {
            close_connection(shared, conn_id);
            Err(e)
        }
    }
}

/// Unregisters a connection whose thread is done (or never started)
/// and closes its socket.
fn close_connection(shared: &Shared, conn_id: u64) {
    if let Some(stream) = shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&conn_id)
    {
        let _ = stream.shutdown(Shutdown::Both);
    }
    shared.active_conns.fetch_sub(1, Ordering::SeqCst);
    shared.service.metrics().record_connection_closed();
}

/// Joins connection threads that have already exited, so long-lived
/// servers do not accumulate dead handles; returns how many still run.
fn prune_finished(conn_threads: &Mutex<Vec<JoinHandle<()>>>) -> usize {
    let mut guard = conn_threads.lock().unwrap_or_else(|e| e.into_inner());
    let mut i = 0;
    while i < guard.len() {
        if guard[i].is_finished() {
            let _ = guard.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
    guard.len()
}

/// One connection's life: read a frame, answer it, write the answer,
/// read the next. Returns when the peer closes, the socket fails, a
/// fatal decode error was answered, or shutdown began.
fn connection_loop(shared: &Shared, stream: TcpStream) {
    let max_payload = shared.config.max_frame_len;
    // Buffered reads: a small frame costs one `read` instead of three.
    let mut reader = BufReader::new(stream);
    while !shared.shutdown.load(Ordering::SeqCst) {
        let (request_id, (kind, body, guard), fatal) =
            match frame::read_frame(&mut reader, max_payload) {
                Ok(ReadFrame::Frame(f)) => {
                    // Failpoint `net.read`: sever the connection exactly
                    // on the next received frame (a deterministic
                    // mid-exchange connection loss — it is never answered).
                    if qcluster_failpoint::active()
                        && qcluster_failpoint::evaluate_sleepy("net.read").is_some()
                    {
                        break;
                    }
                    shared.service.metrics().record_frame_in();
                    (f.request_id, answer(shared, f.kind, &f.payload), false)
                }
                Ok(ReadFrame::Idle) => continue,
                Ok(ReadFrame::Corrupt { request_id, error }) => {
                    shared.service.metrics().record_decode_error();
                    let reply = undecodable(format!("frame decode failed: {error}"));
                    (request_id, reply, error.is_fatal())
                }
                Ok(ReadFrame::Eof) | Err(_) => break,
            };
        if !write_reply(shared, reader.get_mut(), kind, request_id, &body) || fatal {
            break;
        }
        if guard.is_some() && shared.shutdown.load(Ordering::SeqCst) {
            shared.drained.fetch_add(1, Ordering::SeqCst);
            shared.service.metrics().record_shutdown_drains(1);
        }
    }
}

/// Runs one received frame to its reply: a protocol request through
/// [`dispatch`] (panic-isolated, counted in flight by the returned
/// guard until its reply is written), a replication request through
/// [`handle_repl`], anything else to a typed error.
fn answer<'a>(
    shared: &'a Shared,
    kind: FrameKind,
    payload: &[u8],
) -> (FrameKind, Vec<u8>, Option<InflightGuard<'a>>) {
    match kind {
        FrameKind::ReplRequest => {
            // Replication answers in arrival order on this thread like
            // everything else: the follower's Apply stream must.
            let reply = match ReplRequest::decode(payload) {
                Ok(req) => catch_unwind(AssertUnwindSafe(|| handle_repl(&shared.service, req)))
                    .unwrap_or_else(|_| ReplReply::Err {
                        msg: "replication handler panicked".into(),
                    }),
                Err(e) => {
                    shared.service.metrics().record_decode_error();
                    ReplReply::Err {
                        msg: format!("replication payload did not parse: {e}"),
                    }
                }
            };
            (FrameKind::ReplResponse, reply.encode(), None)
        }
        FrameKind::Request => match decode_request(payload) {
            Ok(request) => {
                shared.inflight.fetch_add(1, Ordering::SeqCst);
                let guard = InflightGuard(&shared.inflight);
                let response =
                    catch_unwind(AssertUnwindSafe(|| dispatch(&shared.service, request)))
                        .unwrap_or_else(|_| {
                            Response::Error(ServiceError::Internal(
                                "request handler panicked; request failed cleanly".into(),
                            ))
                        });
                (FrameKind::Response, encode_response(&response), Some(guard))
            }
            Err(e) => {
                shared.service.metrics().record_decode_error();
                undecodable(format!("request payload did not parse: {e}"))
            }
        },
        FrameKind::Response | FrameKind::ReplResponse => {
            shared.service.metrics().record_decode_error();
            undecodable("expected a request frame, got a response frame".into())
        }
    }
}

/// How every reply to a frame the server could not read as a request
/// begins: a corrupted, truncated or misdirected frame.
const UNDECODABLE: &str = "undecodable request";

/// A typed `InvalidRequest` reply to a frame that did not decode,
/// counted in flight by no one.
fn undecodable<'a>(detail: String) -> (FrameKind, Vec<u8>, Option<InflightGuard<'a>>) {
    let response = Response::Error(ServiceError::InvalidRequest(format!(
        "{UNDECODABLE}: {detail}"
    )));
    (FrameKind::Response, encode_response(&response), None)
}

/// Whether `error` is a server's reply to a frame it could not decode.
/// The sender's bytes were at fault, not the request it meant to send:
/// a sender that encodes only well-formed frames (a cluster router)
/// treats it as a transport failure, not as a rejection of its request.
pub fn is_undecodable(error: &ServiceError) -> bool {
    matches!(error, ServiceError::InvalidRequest(msg) if msg.starts_with(UNDECODABLE))
}

/// Writes one reply frame; `false` means the connection is done.
fn write_reply(
    shared: &Shared,
    stream: &mut TcpStream,
    kind: FrameKind,
    request_id: u64,
    payload: &[u8],
) -> bool {
    // Failpoint `net.write`: the connection is torn down exactly as on
    // a real socket error.
    if qcluster_failpoint::active() && qcluster_failpoint::evaluate_sleepy("net.write").is_some() {
        return false;
    }
    let written = frame::write_frame(stream, kind, request_id, payload).is_ok();
    if written {
        shared.service.metrics().record_frame_out();
    }
    written
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
