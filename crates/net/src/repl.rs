//! Binary replication protocol carried in
//! [`FrameKind::ReplRequest`](crate::frame::FrameKind::ReplRequest) /
//! [`FrameKind::ReplResponse`](crate::frame::FrameKind::ReplResponse)
//! frames.
//!
//! Replication ships the store's CRC-framed WAL records
//! (`qcluster_store::encode_record_frame` byte format) from a leader to
//! followers. WAL frames are opaque binary and the follower applies
//! them through the same strict decoder it uses at recovery, so the
//! envelope is a thin tagged one around them, written with the reader
//! and writer of the request/response codec ([`crate::codec`]).
//!
//! | tag | request                         | reply                               |
//! |-----|---------------------------------|-------------------------------------|
//! | 1   | `Fetch { from, max }`           | `Chunk { total, frames }`           |
//! | 2   | `Apply { term, lease_ms, frames }` | `Applied { total, applied }`     |
//! | 3   | `Status`                        | `Status { total, durable, term, leased }` |
//! | 4   | `Vote { term, lease_ms }`       | `Err { msg }`                       |
//! | 5   | —                               | `StaleTerm { current }`             |
//! | 6   | —                               | `Vote { granted, term }`            |
//!
//! All integers are little-endian. Variable-length fields carry a
//! `u32` length prefix. The envelope is versioned implicitly by the
//! frame header's protocol version; decode failures map onto
//! [`FrameError::Payload`] so the server's existing recoverable-error
//! reply path covers them.

use crate::codec::{self, wire_enum, Reader, Wire};
use crate::frame::FrameError;

/// A replication request, leader/follower → peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplRequest {
    /// Ask the peer (a leader) for ingest records starting at global
    /// vector id `from`, at most `max` records.
    Fetch {
        /// First global vector id wanted (the follower's current
        /// committed total).
        from: u64,
        /// Maximum number of records to return in one chunk.
        max: u32,
    },
    /// Ship WAL frames for the peer (a follower) to apply. `frames` is
    /// a concatenation of store WAL frames
    /// (`[len u32][crc u32][payload]` each), byte-identical to what a
    /// local `WalWriter` would have produced. The ship is **fenced**:
    /// it carries the leader's term and lease duration, and a follower
    /// whose current term is higher rejects it with
    /// [`ReplReply::StaleTerm`] instead of applying. An empty `frames`
    /// is a pure fence probe / lease renewal. Terms start at 1:
    /// `term == 0` is answered with [`ReplReply::Err`].
    Apply {
        /// The shipper's leadership term (positive).
        term: u64,
        /// Lease duration granted from the follower's receipt time, in
        /// milliseconds (0 = no lease refresh).
        lease_ms: u64,
        /// Concatenated WAL frame bytes.
        frames: Vec<u8>,
    },
    /// Ask the peer for its replication position.
    Status,
    /// Ask the peer to vote for a candidate leader at `term`. Granted
    /// iff `term` is higher than every term the peer has acknowledged
    /// AND the peer holds no unexpired vote-lease for another term —
    /// the lease is what stops two contending routers from both
    /// winning the same nodes.
    Vote {
        /// The candidate's proposed term.
        term: u64,
        /// Vote-lease duration in milliseconds: how long the peer
        /// refuses competing candidates after granting.
        lease_ms: u64,
    },
}

/// A replication reply, peer → requester.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplReply {
    /// Records from `Fetch`. `total` is the leader's committed vector
    /// count; an empty `frames` with `from == total` means caught up.
    Chunk {
        /// Leader's committed total (vectors durably ingested).
        total: u64,
        /// Concatenated WAL frame bytes, in id order starting at the
        /// requested `from`.
        frames: Vec<u8>,
    },
    /// Outcome of `Apply`. `applied` counts records actually ingested
    /// (duplicates below `total` are skipped idempotently and not
    /// counted).
    Applied {
        /// Follower's committed total after the apply.
        total: u64,
        /// Records newly applied by this request.
        applied: u64,
    },
    /// Replication position from `Status`.
    Status {
        /// Committed vector count.
        total: u64,
        /// Vectors durable on disk (equals `total` when the node runs
        /// a store; 0 when memory-only).
        durable: u64,
        /// Highest term this node has acknowledged (0 = none yet).
        term: u64,
        /// Whether the node currently holds an unexpired leader lease.
        leased: bool,
    },
    /// The peer could not serve the request (gap, storage failure, …).
    Err {
        /// Human-readable reason.
        msg: String,
    },
    /// A fenced `Apply` was rejected: the shipper's term is stale. The
    /// zombie leader (or losing router) must stop shipping and
    /// re-discover the cluster's real leadership.
    StaleTerm {
        /// The term the rejecting node has acknowledged.
        current: u64,
    },
    /// Outcome of a `Vote` request.
    Vote {
        /// Whether the vote was granted.
        granted: bool,
        /// The peer's current term after considering the request (the
        /// candidate's term when granted; the higher conflicting term
        /// when refused).
        term: u64,
    },
}

impl ReplRequest {
    /// Serializes into the tagged binary envelope.
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Parses the tagged binary envelope, rejecting trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, FrameError> {
        codec::decode(bytes)
    }
}

wire_enum!(ReplRequest {
    1 => Fetch { from, max },
    2 => Apply { term, lease_ms, frames },
    3 => Status,
    4 => Vote { term, lease_ms },
});

impl ReplReply {
    /// Serializes into the tagged binary envelope.
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Parses the tagged binary envelope, rejecting trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, FrameError> {
        codec::decode(bytes)
    }
}

wire_enum!(ReplReply {
    1 => Chunk { total, frames },
    2 => Applied { total, applied },
    3 => Status { total, durable, term, leased },
    4 => Err { msg },
    5 => StaleTerm { current },
    6 => Vote { granted, term },
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            ReplRequest::Fetch { from: 0, max: 128 },
            ReplRequest::Fetch {
                from: u64::MAX,
                max: u32::MAX,
            },
            ReplRequest::Apply {
                term: 0,
                lease_ms: 0,
                frames: vec![],
            },
            ReplRequest::Apply {
                term: 7,
                lease_ms: 1_500,
                frames: vec![1, 2, 3, 0xFF],
            },
            ReplRequest::Status,
            ReplRequest::Vote {
                term: u64::MAX,
                lease_ms: 2_000,
            },
        ] {
            let bytes = req.encode();
            assert_eq!(ReplRequest::decode(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn replies_round_trip() {
        for reply in [
            ReplReply::Chunk {
                total: 7,
                frames: vec![9, 9, 9],
            },
            ReplReply::Chunk {
                total: 0,
                frames: vec![],
            },
            ReplReply::Applied {
                total: 12,
                applied: 5,
            },
            ReplReply::Status {
                total: 3,
                durable: 3,
                term: 9,
                leased: true,
            },
            ReplReply::Status {
                total: 0,
                durable: 0,
                term: 0,
                leased: false,
            },
            ReplReply::Err {
                msg: "ingest id 9 but expected 4".into(),
            },
            ReplReply::StaleTerm { current: 11 },
            ReplReply::Vote {
                granted: true,
                term: 4,
            },
            ReplReply::Vote {
                granted: false,
                term: u64::MAX,
            },
        ] {
            let bytes = reply.encode();
            assert_eq!(ReplReply::decode(&bytes).unwrap(), reply);
        }
    }

    #[test]
    fn malformed_payloads_are_recoverable_payload_errors() {
        let mut apply_overrun = vec![2u8];
        apply_overrun.extend_from_slice(&[0; 16]); // term + lease_ms
        apply_overrun.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF]); // frames len
        for bytes in [
            &[][..],
            &[9],               // unknown tag
            &[1, 0, 0],         // fetch truncated
            &apply_overrun[..], // apply frames length overruns cap/input
            &[4, 1, 0],         // vote truncated
            &ReplRequest::Status
                .encode()
                .iter()
                .chain(&[0])
                .copied()
                .collect::<Vec<_>>()[..],
        ] {
            let err = ReplRequest::decode(bytes).unwrap_err();
            assert!(matches!(err, FrameError::Payload(_)), "{bytes:?} -> {err}");
            assert!(!err.is_fatal(), "repl decode errors must stay recoverable");
        }
        assert!(matches!(
            ReplReply::decode(&[4, 2, 0, 0, 0, 0xC3]).map(|r| format!("{r:?}")),
            Err(FrameError::Payload(_)) | Ok(_)
        ));
        // Non-0/1 bool bytes and truncated new replies are recoverable.
        let mut bad_leased = ReplReply::Status {
            total: 1,
            durable: 1,
            term: 1,
            leased: false,
        }
        .encode();
        *bad_leased.last_mut().unwrap() = 7;
        for bytes in [&bad_leased[..], &[5, 0, 0][..], &[6, 2][..]] {
            let err = ReplReply::decode(bytes).unwrap_err();
            assert!(matches!(err, FrameError::Payload(_)), "{bytes:?} -> {err}");
            assert!(!err.is_fatal());
        }
    }
}
