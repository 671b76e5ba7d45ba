//! A blocking client for the framed protocol, with automatic reconnect
//! (capped exponential backoff plus full jitter) and pipelined batch
//! queries.
//!
//! A [`Client`] is single-threaded by design: one stream, request ids
//! issued monotonically, responses checked against them in order. Pipelining comes
//! from [`Client::pipeline`] keeping a window of requests in flight on
//! the one connection. The server answers them one at a time, in
//! arrival order, so pipelining saves round trips, not execution time;
//! concurrent execution takes concurrent connections. Beyond its first
//! request a window leaves at most 32 KiB of requests unanswered, so a
//! write never waits on a server that is itself waiting for the client
//! to read its responses.
//!
//! On any transport failure the client drops its connection and the
//! *next* call redials (with backoff). Failed calls are **not**
//! silently retried: the server may or may not have executed the
//! request, and only the caller knows whether its request is idempotent.

use crate::error::NetError;
use crate::frame::{self, FrameKind, ReadFrame, DEFAULT_MAX_PAYLOAD};
use qcluster_service::{Request, Response};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, SystemTime};

/// Request bytes a pipelined window may leave unanswered beyond its
/// first request: well inside the sockets' default buffers, so every
/// such write lands in the kernel without the server reading.
const PIPELINE_BYTES: usize = 32 * 1024;

/// Tunables for [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// How long to wait for a response frame.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Cap on accepted frame payload size.
    pub max_frame_len: u32,
    /// Dial attempts per (re)connect before giving up.
    pub max_connect_attempts: u32,
    /// First backoff step; doubles per attempt.
    pub backoff_base: Duration,
    /// Ceiling on the backoff step.
    pub backoff_cap: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_PAYLOAD,
            max_connect_attempts: 5,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_secs(1),
        }
    }
}

/// A blocking connection to a [`Server`](crate::Server).
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    stream: Option<TcpStream>,
    next_id: u64,
    /// xorshift64* state for backoff jitter (no external RNG crate on
    /// this path; statistical quality is irrelevant for jitter).
    rng: u64,
}

impl Client {
    /// Resolves `addr` and dials it (with backoff across attempts).
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Client, NetError> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            NetError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ))
        })?;
        let seed = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0x9E37_79B9)
            | 1;
        let mut client = Client {
            addr,
            config,
            stream: None,
            next_id: 1,
            rng: seed ^ ((addr.port() as u64) << 32),
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// `true` while a live connection is held. A failed call clears
    /// this; the next call reconnects automatically.
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Sends one request and waits for its response.
    pub fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        let mut responses = self.pipeline(std::slice::from_ref(request), 1)?;
        Ok(responses.remove(0))
    }

    /// Maximum pipelining: [`Client::pipeline`] with the window the
    /// size of the batch.
    pub fn query_many(&mut self, requests: &[Request]) -> Result<Vec<Response>, NetError> {
        self.pipeline(requests, requests.len())
    }

    /// Runs `requests` keeping up to `window` in flight (and, beyond
    /// the first, at most 32 KiB of them), returning responses in
    /// request order — the order the server answers in; a response
    /// with any other id is a protocol error.
    pub fn pipeline(
        &mut self,
        requests: &[Request],
        window: usize,
    ) -> Result<Vec<Response>, NetError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let window = window.max(1);
        self.ensure_connected()?;
        let payloads: Vec<String> = requests
            .iter()
            .map(|r| {
                serde_json::to_string(r)
                    .map_err(|e| NetError::Protocol(format!("request failed to serialize: {e}")))
            })
            .collect::<Result<_, _>>()?;
        let first_id = self.next_id;
        self.next_id += requests.len() as u64;
        let result = self.pipeline_inner(&payloads, first_id, window);
        if result.is_err() {
            self.disconnect();
        }
        result
    }

    fn pipeline_inner(
        &mut self,
        payloads: &[String],
        first_id: u64,
        window: usize,
    ) -> Result<Vec<Response>, NetError> {
        let stream = self.stream.as_mut().expect("connected");
        let n = payloads.len();
        let mut responses = Vec::with_capacity(n);
        let mut sent = 0usize;
        let mut unanswered_bytes = 0usize;
        while responses.len() < n {
            while sent < n
                && sent - responses.len() < window
                && (sent == responses.len()
                    || unanswered_bytes + payloads[sent].len() <= PIPELINE_BYTES)
            {
                let id = first_id + sent as u64;
                frame::write_frame(stream, FrameKind::Request, id, payloads[sent].as_bytes())?;
                unanswered_bytes += payloads[sent].len();
                sent += 1;
            }
            match frame::read_frame(stream, self.config.max_frame_len)? {
                ReadFrame::Frame(f) => {
                    if f.kind != FrameKind::Response {
                        return Err(NetError::Protocol("server sent a request frame".into()));
                    }
                    let response: Response = std::str::from_utf8(&f.payload)
                        .map_err(|e| NetError::Frame(frame::FrameError::Payload(e.to_string())))
                        .and_then(|s| {
                            serde_json::from_str(s).map_err(|e| {
                                NetError::Frame(frame::FrameError::Payload(e.to_string()))
                            })
                        })?;
                    if f.request_id == 0 {
                        // Connection-level message the server originated
                        // (e.g. a capacity reject before reading anything).
                        let why = match response {
                            Response::Error(e) => e.to_string(),
                            other => format!("unexpected connection-level frame: {other:?}"),
                        };
                        return Err(NetError::Rejected(why));
                    }
                    let expected = first_id + responses.len() as u64;
                    if f.request_id != expected {
                        return Err(NetError::Protocol(format!(
                            "response for request id {}, expected {expected}",
                            f.request_id
                        )));
                    }
                    unanswered_bytes -= payloads[responses.len()].len();
                    responses.push(response);
                }
                ReadFrame::Idle => {
                    // The socket read timeout IS the response deadline
                    // for a client (unlike the server, where idle is
                    // benign).
                    return Err(NetError::Timeout(format!(
                        "no response within {:?} ({} of {} received)",
                        self.config.read_timeout,
                        responses.len(),
                        n
                    )));
                }
                ReadFrame::Eof => {
                    return Err(NetError::Closed(format!(
                        "server closed with {} of {} responses outstanding",
                        n - responses.len(),
                        n
                    )));
                }
                ReadFrame::Corrupt { error, .. } => return Err(NetError::Frame(error)),
            }
        }
        Ok(responses)
    }

    /// Sends one replication request ([`crate::repl::ReplRequest`]
    /// bytes) and waits for the peer's [`crate::repl::ReplReply`]
    /// bytes. Replication frames interleave freely with protocol
    /// frames on the same connection; the response is matched by id.
    ///
    /// Like [`Client::call`], a transport failure drops the connection
    /// without retry — WAL apply is idempotent on the receiver, so the
    /// caller can simply re-drive the catch-up loop.
    pub fn repl_call(&mut self, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        self.ensure_connected()?;
        let id = self.next_id;
        self.next_id += 1;
        let result = self.repl_call_inner(payload, id);
        if result.is_err() {
            self.disconnect();
        }
        result
    }

    fn repl_call_inner(&mut self, payload: &[u8], id: u64) -> Result<Vec<u8>, NetError> {
        let stream = self.stream.as_mut().expect("connected");
        frame::write_frame(stream, FrameKind::ReplRequest, id, payload)?;
        match frame::read_frame(stream, self.config.max_frame_len)? {
            ReadFrame::Frame(f) => {
                if f.kind != FrameKind::ReplResponse {
                    return Err(NetError::Protocol(format!(
                        "expected a replication response, got {:?}",
                        f.kind
                    )));
                }
                if f.request_id != id {
                    return Err(NetError::Protocol(format!(
                        "replication response for unknown request id {}",
                        f.request_id
                    )));
                }
                Ok(f.payload)
            }
            ReadFrame::Idle => Err(NetError::Timeout(format!(
                "no replication response within {:?}",
                self.config.read_timeout
            ))),
            ReadFrame::Eof => Err(NetError::Closed(
                "server closed before the replication response".into(),
            )),
            ReadFrame::Corrupt { error, .. } => Err(NetError::Frame(error)),
        }
    }

    /// Drops the current connection; the next call redials.
    pub fn disconnect(&mut self) {
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    fn ensure_connected(&mut self) -> Result<(), NetError> {
        if self.stream.is_some() {
            return Ok(());
        }
        let attempts = self.config.max_connect_attempts.max(1);
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.jittered_backoff(attempt - 1));
            }
            match TcpStream::connect_timeout(&self.addr, self.config.connect_timeout) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    stream.set_read_timeout(Some(self.config.read_timeout))?;
                    stream.set_write_timeout(Some(self.config.write_timeout))?;
                    self.stream = Some(stream);
                    return Ok(());
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(NetError::Io(last_err.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotConnected, "connect never attempted")
        })))
    }

    /// Full-jitter backoff: uniform in `[0, min(cap, base * 2^attempt))`.
    fn jittered_backoff(&mut self, attempt: u32) -> Duration {
        let step = self
            .config
            .backoff_base
            .saturating_mul(1u32 << attempt.min(20))
            .min(self.config.backoff_cap);
        let nanos = step.as_nanos().max(1) as u64;
        Duration::from_nanos(self.next_rand() % nanos)
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.disconnect();
    }
}
