//! Transport-level error vocabulary.
//!
//! [`NetError`] is what the *caller* of the transport sees (a client
//! call failing, a server failing to bind). Frame-level decode problems
//! live in [`FrameError`] and are wrapped
//! here; request-level failures never become a `NetError` — they travel
//! back over the wire as typed
//! [`Response::Error`](qcluster_service::Response::Error) frames.

use crate::frame::FrameError;
use std::fmt;

/// Why a transport operation failed.
#[derive(Debug)]
pub enum NetError {
    /// A socket operation failed (connect, read, write, bind).
    Io(std::io::Error),
    /// The peer sent bytes that do not decode as a frame.
    Frame(FrameError),
    /// The operation did not complete within its configured timeout.
    Timeout(String),
    /// The connection closed before the operation completed.
    Closed(String),
    /// The server refused the connection at the transport level (the
    /// `max_connections` reject) with a typed reason.
    Rejected(String),
    /// The peer violated the framing protocol (e.g. a response carrying
    /// a request id this client never issued).
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport i/o error: {e}"),
            NetError::Frame(e) => write!(f, "frame error: {e}"),
            NetError::Timeout(what) => write!(f, "timed out: {what}"),
            NetError::Closed(what) => write!(f, "connection closed: {what}"),
            NetError::Rejected(why) => write!(f, "rejected by server: {why}"),
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                NetError::Timeout(format!("socket operation: {e}"))
            }
            std::io::ErrorKind::UnexpectedEof => NetError::Closed(format!("{e}")),
            _ => NetError::Io(e),
        }
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}
