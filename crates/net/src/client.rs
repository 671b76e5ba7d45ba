//! A blocking client for the framed protocol, with automatic reconnect
//! (capped exponential backoff plus full jitter).
//!
//! A [`Client`] is single-threaded by design: one stream, one request
//! in flight, request ids issued monotonically and each response
//! checked against its request's id. Concurrent requests take
//! concurrent connections.
//!
//! On any transport failure the client drops its connection and the
//! *next* call redials (with backoff). Failed calls are **not**
//! silently retried: the server may or may not have executed the
//! request, and only the caller knows whether its request is idempotent.

use crate::codec::{decode_response, encode_request};
use crate::error::NetError;
use crate::frame::{self, FrameKind, ReadFrame, DEFAULT_MAX_PAYLOAD};
use qcluster_service::{Request, Response};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, SystemTime};

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
    /// The read timeout set on `stream`.
    timeout: Duration,
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
            timeout: config.read_timeout,
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
        let id = self.send(request)?;
        self.receive(id, self.config.read_timeout)
    }

    /// Writes one request frame and returns its id for [`Client::receive`];
    /// one request is in flight per connection.
    pub fn send(&mut self, request: &Request) -> Result<u64, NetError> {
        self.write(FrameKind::Request, &encode_request(request))
    }

    /// Reads the response to request `id`, waiting at most `timeout`.
    pub fn receive(&mut self, id: u64, timeout: Duration) -> Result<Response, NetError> {
        let response = self.read(id, FrameKind::Response, timeout);
        let response = response.and_then(|payload| Ok(decode_response(&payload)?));
        self.settle(response)
    }

    /// Sends one replication request ([`crate::repl::ReplRequest`]
    /// bytes) and waits at most `timeout` for the peer's
    /// [`crate::repl::ReplReply`] bytes. Replication frames interleave
    /// freely with protocol frames on the same connection; the response
    /// is matched by id.
    ///
    /// Like [`Client::call`], a transport failure drops the connection
    /// without retry — WAL apply is idempotent on the receiver, so the
    /// caller can simply re-drive the catch-up loop.
    pub fn repl_call(&mut self, payload: &[u8], timeout: Duration) -> Result<Vec<u8>, NetError> {
        let id = self.write(FrameKind::ReplRequest, payload)?;
        let reply = self.read(id, FrameKind::ReplResponse, timeout);
        self.settle(reply)
    }

    /// Any error drops (closes) the connection: the next call redials.
    fn settle<T>(&mut self, result: Result<T, NetError>) -> Result<T, NetError> {
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    /// Writes one `kind` frame under a fresh id, dialing if needed.
    fn write(&mut self, kind: FrameKind, payload: &[u8]) -> Result<u64, NetError> {
        self.ensure_connected()?;
        let id = self.next_id;
        self.next_id += 1;
        let stream = self.stream.as_mut().expect("connected");
        let written = frame::write_frame(stream, kind, id, payload);
        self.settle(written.map(|()| id).map_err(NetError::from))
    }

    /// The payload of the `kind` frame answering request `id`, read
    /// within `timeout`; the caller settles the result.
    fn read(&mut self, id: u64, kind: FrameKind, timeout: Duration) -> Result<Vec<u8>, NetError> {
        let Some(stream) = self.stream.as_mut() else {
            return Err(NetError::Closed("no connection".into()));
        };
        // A zero socket timeout would block forever.
        let timeout = timeout.max(Duration::from_micros(1));
        if timeout != self.timeout {
            stream.set_read_timeout(Some(timeout))?;
            self.timeout = timeout;
        }
        let f = match frame::read_frame(stream, self.config.max_frame_len)? {
            ReadFrame::Frame(f) => f,
            // The socket read timeout IS the response deadline for a
            // client (unlike the server, where idle is benign).
            ReadFrame::Idle => {
                return Err(NetError::Timeout(format!("no response within {timeout:?}")))
            }
            ReadFrame::Eof => {
                return Err(NetError::Closed("server closed before the response".into()))
            }
            ReadFrame::Corrupt { error, .. } => return Err(NetError::Frame(error)),
        };
        if f.request_id == 0 && f.kind == FrameKind::Response {
            // Connection-level message the server originated (e.g. a
            // capacity reject before reading anything).
            return Err(NetError::Rejected(match decode_response(&f.payload)? {
                Response::Error(e) => e.to_string(),
                other => format!("unexpected connection-level frame: {other:?}"),
            }));
        }
        if f.kind != kind || f.request_id != id {
            return Err(NetError::Protocol(format!(
                "expected a {kind:?} frame for request id {id}, got a {:?} frame for {}",
                f.kind, f.request_id
            )));
        }
        Ok(f.payload)
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
                    self.timeout = self.config.read_timeout;
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
