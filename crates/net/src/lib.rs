//! # qcluster-net
//!
//! A std-only TCP transport for the qcluster retrieval service: the
//! [`Request`](qcluster_service::Request) /
//! [`Response`](qcluster_service::Response) protocol from
//! `qcluster-service`, carried over length-prefixed frames with magic
//! bytes, a protocol version, per-frame request ids, and a payload CRC.
//!
//! Subsystems:
//!
//! - [`frame`] — the wire format: a 24-byte header (`"QNET"` magic,
//!   version, kind, request id, payload length, CRC-32) plus a binary
//!   payload, with a recoverable/fatal split on decode errors.
//! - [`codec`] — the binary encoding of a `Request` or `Response` in
//!   that payload: tagged variants, little-endian fields, bulk `f64`s.
//! - [`server`] — an acceptor thread and one thread per connection
//!   that reads a request, runs it, and writes its response before
//!   reading the next (in-order answers, no hand-off); typed
//!   `Overloaded` rejects past `max_connections`, slowloris read
//!   deadlines, and graceful drain-then-close shutdown.
//! - [`client`] — a blocking client, one request in flight, with
//!   connect/read/write timeouts and automatic reconnect (capped
//!   exponential backoff, full jitter).
//!
//! Transport activity (connections, frames, decode errors, shutdown
//! drains) is recorded into the fronted service's
//! [`ServiceMetrics`](qcluster_service::ServiceMetrics), so a wire
//! `Request::Stats` round-trip reports the transport's own counters.
//!
//! ```no_run
//! use qcluster_net::{Client, ClientConfig, Server, ServerConfig};
//! use qcluster_service::{Request, Response, Service, ServiceConfig};
//! use std::sync::Arc;
//!
//! let points: Vec<Vec<f64>> = (0..64)
//!     .map(|i| vec![(i % 8) as f64, (i / 8) as f64])
//!     .collect();
//! let service = Arc::new(Service::new(&points, ServiceConfig::default()).unwrap());
//! let server = Server::bind("127.0.0.1:0", service, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.local_addr(), ClientConfig::default()).unwrap();
//! let Response::SessionCreated { session } =
//!     client.call(&Request::CreateSession { engine: None }).unwrap()
//! else { unreachable!() };
//! let _ = client.call(&Request::Query {
//!     session,
//!     k: 5,
//!     vector: Some(vec![3.0, 3.0]),
//!     deadline_ms: None,
//! }).unwrap();
//! let report = server.shutdown();
//! assert!(report.clean());
//! ```
//!
//! Failpoints (`qcluster-failpoint`): `net.accept` drops incoming
//! connections, `net.read` severs a connection at the reader,
//! `net.write` fails a response write, and `net.frame.corrupt` flips a
//! payload byte after the CRC is computed.

#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod error;
pub mod frame;
pub mod repl;
pub mod server;

pub use client::{Client, ClientConfig};
pub use codec::{decode_request, decode_response, encode_request, encode_response};
pub use error::NetError;
pub use frame::{
    decode_frame, encode_frame, Frame, FrameError, FrameHeader, FrameKind, DEFAULT_MAX_PAYLOAD,
    HEADER_LEN, MAGIC, PROTOCOL_VERSION,
};
pub use repl::{ReplReply, ReplRequest};
pub use server::{is_undecodable, Server, ServerConfig, ShutdownReport};
