//! The wire format: length-prefixed frames with magic, version, and a
//! payload CRC.
//!
//! Every message is one frame:
//!
//! ```text
//!  offset  size  field
//!  ------  ----  -----------------------------------------------
//!       0     4  magic  "QNET"
//!       4     1  protocol version (currently 3)
//!       5     1  kind   (1 = request, 2 = response)
//!       6     2  reserved (must be 0 on send, ignored on receive)
//!       8     8  request id, u64 little-endian
//!      16     4  payload length, u32 little-endian
//!      20     4  CRC-32 (ISO-HDLC) over the payload bytes
//!      24     n  payload: one binary `Request` or `Response`
//!                (see the `codec` module)
//! ```
//!
//! The request id is chosen by the client and echoed by the server, so
//! a pipelining client matches each response to its request (the
//! server answers one connection's requests in arrival order). Id `0` is
//! reserved for connection-level messages the server originates itself
//! (e.g. a capacity reject before any request was read).
//!
//! Decode errors are split into *recoverable* (the frame boundary is
//! known, so the stream stays in sync — CRC mismatch, bad kind, bad
//! payload) and *fatal* (the boundary is unknowable or the encoding is
//! not ours — bad magic, truncation, oversize, unknown version). Either
//! way the server replies with a typed error frame; only fatal errors
//! additionally close the connection.

use qcluster_store::Crc32;
use std::fmt;
use std::io::{ErrorKind, Read, Write};

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"QNET";
/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 3;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 24;
/// Default cap on payload size (16 MiB): a Stats snapshot is ~2 KiB and
/// even a 1k-dimensional ingest vector is ~8 KiB, so this is generous.
pub const DEFAULT_MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Whether a frame carries a request or a response (see the `codec`
/// module for their payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server.
    Request,
    /// Server → client.
    Response,
}

impl FrameKind {
    fn as_byte(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
        }
    }

    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Request),
            2 => Some(FrameKind::Response),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Request or response.
    pub kind: FrameKind,
    /// Client-chosen correlation id (0 = connection-level).
    pub request_id: u64,
    /// The payload bytes (CRC already verified).
    pub payload: Vec<u8>,
}

/// Why a byte sequence failed to decode as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes are not `"QNET"`. The stream is desynced;
    /// the connection must close after replying.
    BadMagic([u8; 4]),
    /// The version byte names a protocol this build does not speak.
    UnsupportedVersion(u8),
    /// The kind byte names no known frame kind.
    BadKind(u8),
    /// The declared payload length exceeds the configured cap.
    Oversize {
        /// Declared payload length.
        len: u32,
        /// The receiver's cap.
        max: u32,
    },
    /// The payload bytes do not match the header's CRC.
    CrcMismatch {
        /// CRC declared in the header.
        expected: u32,
        /// CRC computed over the received payload.
        found: u32,
    },
    /// The input ended mid-frame.
    Truncated {
        /// Bytes the frame declares.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The payload failed to decode as the expected message.
    Payload(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?} (expected \"QNET\")"),
            FrameError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            FrameError::BadKind(k) => write!(f, "bad frame kind {k} (expected 1 or 2)"),
            FrameError::Oversize { len, max } => {
                write!(
                    f,
                    "declared payload of {len} bytes exceeds the cap of {max}"
                )
            }
            FrameError::CrcMismatch { expected, found } => {
                write!(
                    f,
                    "payload crc {found:#010x} does not match header crc {expected:#010x}"
                )
            }
            FrameError::Truncated { needed, have } => {
                write!(f, "frame truncated: {have} of {needed} bytes")
            }
            FrameError::Payload(e) => write!(f, "payload did not parse: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// `true` when the error leaves the stream position unknowable (or
    /// the peer's encoding untrusted), so the connection must close
    /// after a best-effort typed reply.
    pub fn is_fatal(&self) -> bool {
        !matches!(
            self,
            FrameError::CrcMismatch { .. } | FrameError::BadKind(_) | FrameError::Payload(_)
        )
    }
}

/// A parsed header, before the payload has been read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Request or response.
    pub kind: FrameKind,
    /// Correlation id.
    pub request_id: u64,
    /// Declared payload length.
    pub payload_len: u32,
    /// Declared payload CRC.
    pub payload_crc: u32,
}

/// Parses and validates a 24-byte header. `max_payload` bounds the
/// declared length.
pub fn decode_header(
    bytes: &[u8; HEADER_LEN],
    max_payload: u32,
) -> Result<FrameHeader, FrameError> {
    if bytes[0..4] != MAGIC {
        return Err(FrameError::BadMagic([
            bytes[0], bytes[1], bytes[2], bytes[3],
        ]));
    }
    if bytes[4] != PROTOCOL_VERSION {
        return Err(FrameError::UnsupportedVersion(bytes[4]));
    }
    let payload_len = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    if payload_len > max_payload {
        return Err(FrameError::Oversize {
            len: payload_len,
            max: max_payload,
        });
    }
    // After the length check: a bad kind is recoverable only because
    // its (capped) payload can be skipped.
    let kind = FrameKind::from_byte(bytes[5]).ok_or(FrameError::BadKind(bytes[5]))?;
    let request_id = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let payload_crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    Ok(FrameHeader {
        kind,
        request_id,
        payload_len,
        payload_crc,
    })
}

/// Extracts the request id from raw header bytes *without* validating,
/// for best-effort typed error replies about frames that failed header
/// validation. Returns 0 when the magic is wrong (the id bytes would be
/// garbage).
///
/// Salvage requires a **complete** 24-byte header — the sized parameter
/// enforces that at the type level. A header truncated *inside* the
/// request-id field (bytes 8..16) never reaches this function:
/// [`read_frame`] reports such tears as
/// [`ReadFrame::Corrupt`]`{ request_id: 0, .. }` without salvaging,
/// because any id reconstructed from partial bytes would be garbage
/// padded with zeros, and addressing an error reply at a fabricated id
/// could cancel an unrelated in-flight request on a pipelined
/// connection. Id 0 is the reserved connection-level id, so the typed
/// reply stays unambiguous.
pub fn salvage_request_id(bytes: &[u8; HEADER_LEN]) -> u64 {
    if bytes[0..4] != MAGIC {
        return 0;
    }
    u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"))
}

/// Encodes one frame into a fresh buffer.
///
/// Failpoint `net.frame.corrupt`: when armed, flips one payload byte
/// *after* the CRC is computed, producing a frame the receiver will
/// reject with [`FrameError::CrcMismatch`].
pub fn encode_frame(kind: FrameKind, request_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.push(PROTOCOL_VERSION);
    buf.push(kind.as_byte());
    buf.extend_from_slice(&[0u8, 0u8]);
    buf.extend_from_slice(&request_id.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&Crc32::checksum(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    if qcluster_failpoint::active() && qcluster_failpoint::evaluate("net.frame.corrupt").is_some() {
        // Flip the last payload byte (or, for empty payloads, a CRC
        // byte) so the receiver sees a checksum mismatch.
        let idx = buf.len() - 1;
        buf[idx] ^= 0xFF;
    }
    buf
}

/// Decodes one frame from the front of `bytes`, returning the frame and
/// the number of bytes consumed. Used by tests and fuzzing; the stream
/// paths use [`read_frame`].
pub fn decode_frame(bytes: &[u8], max_payload: u32) -> Result<(Frame, usize), FrameError> {
    if bytes.len() < HEADER_LEN {
        return Err(FrameError::Truncated {
            needed: HEADER_LEN,
            have: bytes.len(),
        });
    }
    let header_bytes: &[u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().expect("sized");
    let header = decode_header(header_bytes, max_payload)?;
    let total = HEADER_LEN + header.payload_len as usize;
    if bytes.len() < total {
        return Err(FrameError::Truncated {
            needed: total,
            have: bytes.len(),
        });
    }
    let payload = &bytes[HEADER_LEN..total];
    let found = Crc32::checksum(payload);
    if found != header.payload_crc {
        return Err(FrameError::CrcMismatch {
            expected: header.payload_crc,
            found,
        });
    }
    Ok((
        Frame {
            kind: header.kind,
            request_id: header.request_id,
            payload: payload.to_vec(),
        },
        total,
    ))
}

/// Writes one frame to `w` and flushes.
pub fn write_frame<W: Write>(
    w: &mut W,
    kind: FrameKind,
    request_id: u64,
    payload: &[u8],
) -> std::io::Result<()> {
    let buf = encode_frame(kind, request_id, payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Outcome of one [`read_frame`] attempt on a stream with a read
/// timeout configured.
#[derive(Debug)]
pub enum ReadFrame {
    /// A complete, CRC-verified frame.
    Frame(Frame),
    /// Clean EOF at a frame boundary: the peer closed.
    Eof,
    /// The read timeout elapsed before *any* byte of a new frame
    /// arrived. Benign: the caller checks shutdown flags and retries.
    Idle,
    /// Bytes arrived but do not form a valid frame. `request_id` is the
    /// best salvageable correlation id (0 when unknowable) so the
    /// server can address its typed error reply.
    Corrupt {
        /// Salvaged correlation id for the reply.
        request_id: u64,
        /// What was wrong.
        error: FrameError,
    },
}

/// Reads until `buf` is full. Distinguishes EOF (`Ok(bytes_read)` short
/// of `buf.len()`) from socket errors. Timeouts mid-buffer surface as
/// `Err` — a peer that started a frame and stalled is a slow-loris, not
/// an idle connection.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Reads one frame from a stream that has a read timeout set.
///
/// The timeout is interpreted positionally: elapsing before the first
/// byte of a frame is [`ReadFrame::Idle`] (the connection is just
/// quiet); elapsing mid-frame is an `Err` (the peer is feeding bytes
/// too slowly to ever finish — the slowloris defense).
pub fn read_frame<R: Read>(r: &mut R, max_payload: u32) -> std::io::Result<ReadFrame> {
    let mut header = [0u8; HEADER_LEN];
    // First byte separately: a timeout here means "idle", not "stuck".
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return Ok(ReadFrame::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Ok(ReadFrame::Idle)
            }
            Err(e) => return Err(e),
        }
    }
    let filled = 1 + read_full(r, &mut header[1..])?;
    if filled < HEADER_LEN {
        // Never salvage from a partial header: even if the tear lands
        // past byte 16, trusting id bytes from an incomplete read risks
        // addressing the error reply at a garbage id. Id 0 keeps the
        // reply connection-level (see `salvage_request_id`).
        return Ok(ReadFrame::Corrupt {
            request_id: 0,
            error: FrameError::Truncated {
                needed: HEADER_LEN,
                have: filled,
            },
        });
    }
    let parsed = match decode_header(&header, max_payload) {
        Ok(h) => h,
        Err(error) => {
            if let FrameError::BadKind(_) = error {
                // Skip the payload so the next frame is read in step.
                let len = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes"));
                std::io::copy(&mut r.take(u64::from(len)), &mut std::io::sink())?;
            }
            return Ok(ReadFrame::Corrupt {
                request_id: salvage_request_id(&header),
                error,
            });
        }
    };
    let mut payload = vec![0u8; parsed.payload_len as usize];
    let got = read_full(r, &mut payload)?;
    if got < payload.len() {
        return Ok(ReadFrame::Corrupt {
            request_id: parsed.request_id,
            error: FrameError::Truncated {
                needed: HEADER_LEN + payload.len(),
                have: HEADER_LEN + got,
            },
        });
    }
    let found = Crc32::checksum(&payload);
    if found != parsed.payload_crc {
        return Ok(ReadFrame::Corrupt {
            request_id: parsed.request_id,
            error: FrameError::CrcMismatch {
                expected: parsed.payload_crc,
                found,
            },
        });
    }
    Ok(ReadFrame::Frame(Frame {
        kind: parsed.kind,
        request_id: parsed.request_id,
        payload,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    // `encode_frame` consults the process-wide `net.frame.corrupt`
    // failpoint, which `corrupt_failpoint_breaks_the_crc` arms: every
    // test that encodes a frame holds the failpoint lock, so the
    // harness's parallel threads never see that arming.
    use qcluster_failpoint::test_lock;

    #[test]
    fn roundtrip_preserves_everything() {
        let _serial = test_lock();
        let payload = br#"{"Stats":null}"#;
        let buf = encode_frame(FrameKind::Request, 42, payload);
        assert_eq!(buf.len(), HEADER_LEN + payload.len());
        let (frame, used) = decode_frame(&buf, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(frame.kind, FrameKind::Request);
        assert_eq!(frame.request_id, 42);
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn corrupt_payload_byte_is_a_crc_mismatch() {
        let _serial = test_lock();
        let mut buf = encode_frame(FrameKind::Response, 7, b"hello");
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        match decode_frame(&buf, DEFAULT_MAX_PAYLOAD) {
            Err(FrameError::CrcMismatch { .. }) => {}
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_version_kind_and_oversize_are_detected() {
        let _serial = test_lock();
        let good = encode_frame(FrameKind::Request, 1, b"x");

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_frame(&bad, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::BadMagic(_))
        ));

        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            decode_frame(&bad, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::UnsupportedVersion(99))
        ));

        // 3 and 4 were the replication kinds of protocol version 2.
        for kind in [3u8, 4, 7] {
            let mut bad = good.clone();
            bad[5] = kind;
            assert_eq!(
                decode_frame(&bad, DEFAULT_MAX_PAYLOAD),
                Err(FrameError::BadKind(kind))
            );
        }

        // A tiny cap turns the 1-byte payload into an oversize claim.
        assert!(matches!(
            decode_frame(&good, 0),
            Err(FrameError::Oversize { len: 1, max: 0 })
        ));
    }

    #[test]
    fn truncation_reports_needed_and_have() {
        let _serial = test_lock();
        let buf = encode_frame(FrameKind::Request, 3, b"abcdef");
        match decode_frame(&buf[..buf.len() - 2], DEFAULT_MAX_PAYLOAD) {
            Err(FrameError::Truncated { needed, have }) => {
                assert_eq!(needed, buf.len());
                assert_eq!(have, buf.len() - 2);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn fatality_split_matches_the_documented_policy() {
        assert!(FrameError::BadMagic(*b"XXXX").is_fatal());
        assert!(FrameError::UnsupportedVersion(9).is_fatal());
        assert!(FrameError::Oversize { len: 1, max: 0 }.is_fatal());
        assert!(FrameError::Truncated {
            needed: 24,
            have: 3
        }
        .is_fatal());
        assert!(!FrameError::CrcMismatch {
            expected: 1,
            found: 2
        }
        .is_fatal());
        assert!(!FrameError::BadKind(9).is_fatal());
        assert!(!FrameError::Payload("nope".into()).is_fatal());
    }

    #[test]
    fn header_truncated_inside_the_request_id_field_salvages_nothing() {
        let _serial = test_lock();
        // Regression pin: a connection that dies mid-header must never
        // "salvage" a request id from the partial bytes — even when the
        // tear lands inside (or after) the id field at bytes 8..16, the
        // id could be half-written garbage that addresses the error
        // reply at an unrelated pipelined request. The contract is a
        // connection-level reply: `request_id: 0`.
        let full = encode_frame(FrameKind::Request, 0x1122_3344_5566_7788, b"x");
        for cut in [9, 12, 15, 16, 20, HEADER_LEN - 1] {
            let mut r = &full[..cut];
            match read_frame(&mut r, DEFAULT_MAX_PAYLOAD).unwrap() {
                ReadFrame::Corrupt { request_id, error } => {
                    assert_eq!(request_id, 0, "cut at {cut} must stay connection-level");
                    assert_eq!(
                        error,
                        FrameError::Truncated {
                            needed: HEADER_LEN,
                            have: cut
                        }
                    );
                }
                other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
            }
        }
        // A complete header *may* salvage: the same frame truncated in
        // the payload reports the real id.
        let mut r = &full[..HEADER_LEN];
        match read_frame(&mut r, DEFAULT_MAX_PAYLOAD).unwrap() {
            ReadFrame::Corrupt { request_id, .. } => {
                assert_eq!(request_id, 0x1122_3344_5566_7788);
            }
            other => panic!("expected Corrupt with salvaged id, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_failpoint_breaks_the_crc() {
        let _lock = test_lock();
        qcluster_failpoint::clear_all();
        let _g = qcluster_failpoint::scoped(
            "net.frame.corrupt",
            qcluster_failpoint::Action::Error("bitflip".into()),
        );
        let buf = encode_frame(FrameKind::Request, 9, b"payload");
        assert!(matches!(
            decode_frame(&buf, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::CrcMismatch { .. })
        ));
        drop(_g);
        let buf = encode_frame(FrameKind::Request, 9, b"payload");
        assert!(decode_frame(&buf, DEFAULT_MAX_PAYLOAD).is_ok());
    }
}
