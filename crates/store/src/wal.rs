//! The write-ahead log: length-prefixed, CRC-framed mutation records,
//! each fsynced on commit, with truncated-tail-tolerant replay.
//!
//! Every mutation becomes one frame:
//!
//! ```text
//! │ payload_len u32 │ CRC-32(payload) u32 │ payload … │
//! ```
//!
//! Payloads are a tagged binary encoding (see [`WalRecord`]) — vectors
//! are raw little-endian `f64`s, so replay reproduces ingested vectors
//! bit-exactly. A crash can tear the final frame (short header, short
//! payload, or a payload that fails its CRC); [`replay`] stops at the
//! first damaged frame and reports the byte length of the valid prefix,
//! which the writer truncates to before appending again. Everything
//! before the tear — the *committed prefix* — is recovered exactly;
//! nothing after a damaged frame is trusted.
//!
//! Tag 2 is retired: builds that persisted sessions wrote a session
//! snapshot under it. Nothing writes it now; a frame that parses in its
//! layout is read and skipped, so such a WAL still opens.
//!
//! ## Append self-healing
//!
//! [`WalWriter`] tracks the byte length of its committed prefix. When
//! an append fails partway (short write, injected torn write, fsync
//! error) the writer rolls the file back to the committed prefix with
//! `set_len`, so a failed append leaves no torn bytes behind and the
//! next append starts clean. If the rollback itself fails the tail is
//! in an unknown state: the writer *wedges* ([`StoreError::Wedged`])
//! and refuses further appends until the store is reopened — replay's
//! torn-tail truncation then restores the committed prefix.
//!
//! ## Failpoints
//!
//! Chaos tests inject faults through `qcluster-failpoint`:
//! `wal.append` (`error` = failed write, `partial:<n>` = torn write of
//! `n` bytes), `wal.fsync` (`error` = failed fsync), and
//! `wal.rollback` (`error` = failed rollback, wedging the writer).

use crate::codec::{put_f64, put_u32, put_u64, read_exact_or_eof, ByteReader, Crc32};
use crate::error::{Result, StoreError};
use qcluster_failpoint as failpoint;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Converts a fired failpoint into the I/O error a real fault would
/// produce. `Sleep` never reaches here (absorbed by `evaluate_sleepy`);
/// `Panic` unwinds like a real bug; `Partial` is handled at write call
/// sites and treated as a plain error elsewhere.
pub(crate) fn injected_io(site: &str, action: failpoint::Action) -> std::io::Error {
    match action {
        failpoint::Action::Error(msg) => {
            std::io::Error::other(format!("injected fault at {site}: {msg}"))
        }
        failpoint::Action::Panic(msg) => panic!("injected panic at {site}: {msg}"),
        failpoint::Action::Partial(n) => {
            std::io::Error::other(format!("injected torn write at {site} after {n} bytes"))
        }
        failpoint::Action::Sleep(_) => {
            unreachable!("Sleep is absorbed by evaluate_sleepy before reaching {site}")
        }
    }
}

/// Hard sanity cap on one frame's payload (a length prefix beyond this
/// is treated as tail corruption, not an allocation request).
const MAX_PAYLOAD: u32 = 1 << 28;

const TAG_INGEST: u8 = 1;
/// Retired: a session snapshot (see the module docs).
const TAG_RETIRED_SESSION: u8 = 2;
const TAG_CHECKPOINT: u8 = 3;

/// One durable mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A vector ingested into the corpus. `id` is the global corpus id
    /// the store assigned, making replay idempotent across compaction
    /// crash windows (ids already covered by segments are skipped).
    Ingest {
        /// Assigned global corpus id.
        id: u64,
        /// The ingested feature vector.
        vector: Vec<f64>,
    },
    /// Compaction marker: every vector with id below `durable_vectors`
    /// is sealed in segments.
    Checkpoint {
        /// Count of vectors durable in segment files.
        durable_vectors: u64,
    },
}

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            WalRecord::Ingest { id, vector } => {
                buf.push(TAG_INGEST);
                put_u64(&mut buf, *id);
                put_u32(&mut buf, u32::try_from(vector.len()).expect("dim fits u32"));
                for &v in vector {
                    put_f64(&mut buf, v);
                }
            }
            WalRecord::Checkpoint { durable_vectors } => {
                buf.push(TAG_CHECKPOINT);
                put_u64(&mut buf, *durable_vectors);
            }
        }
        buf
    }

    fn decode(payload: &[u8]) -> Option<WalRecord> {
        let mut r = ByteReader::new(payload);
        let tag = r.bytes(1)?[0];
        let record = match tag {
            TAG_INGEST => {
                let id = r.u64()?;
                let dim = r.u32()? as usize;
                let mut vector = Vec::with_capacity(dim);
                for _ in 0..dim {
                    vector.push(r.f64()?);
                }
                WalRecord::Ingest { id, vector }
            }
            TAG_CHECKPOINT => WalRecord::Checkpoint {
                durable_vectors: r.u64()?,
            },
            _ => return None,
        };
        (r.remaining() == 0).then_some(record)
    }
}

/// `true` for a payload in the retired session layout: tag, session
/// id, feed-count slot, live flag, then a length-prefixed UTF-8 name.
fn is_retired_session(payload: &[u8]) -> bool {
    let mut r = ByteReader::new(payload);
    let parsed = (|| {
        (r.bytes(1)?[0] == TAG_RETIRED_SESSION).then_some(())?;
        r.u64()?; // session id
        r.u64()?; // feed count, 0 since feeds stopped writing
        r.bytes(1)?; // live flag
        let name_len = r.u32()? as usize;
        std::str::from_utf8(r.bytes(name_len)?).ok()
    })();
    parsed.is_some() && r.remaining() == 0
}

/// The outcome of replaying one WAL file.
#[derive(Debug)]
pub struct WalReplay {
    /// Every record of the committed prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the committed prefix (the writer truncates the
    /// file to this before appending again).
    pub valid_len: u64,
    /// `true` when a torn or corrupt tail was discarded.
    pub truncated: bool,
}

/// An incremental, torn-tail-tolerant reader over a CRC-framed WAL byte
/// stream — the streaming core of [`replay`], usable over any
/// [`Read`](std::io::Read) source: a WAL file, a byte slice received
/// over the wire, or a socket shipping frames to a replica.
///
/// The cursor yields committed records one at a time and stops cleanly
/// at the first damaged frame (short header, oversize claim, short
/// payload, CRC mismatch) — exactly the torn-tail policy crash recovery
/// uses, which is also the idempotent apply loop a replication follower
/// needs: everything before the tear is trusted, nothing after it is.
#[derive(Debug)]
pub struct WalCursor<R> {
    reader: R,
    /// Byte offset just past the last successfully yielded frame.
    offset: u64,
    torn: bool,
    done: bool,
}

impl<R: std::io::Read> WalCursor<R> {
    /// Wraps a byte source positioned at a frame boundary (offset 0 of
    /// a WAL file, or the start of a shipped chunk).
    pub fn new(reader: R) -> Self {
        WalCursor {
            reader,
            offset: 0,
            torn: false,
            done: false,
        }
    }

    /// Byte length of the committed prefix read so far (every frame up
    /// to here decoded and passed its CRC).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// `true` once the stream ended mid-frame or with a corrupt frame
    /// (the torn tail was *not* consumed; [`Self::offset`] still names
    /// the committed prefix).
    pub fn torn(&self) -> bool {
        self.torn
    }

    /// The next committed record, or `None` at the end of the stream —
    /// check [`Self::torn`] to distinguish a clean frame-boundary end
    /// from a discarded damaged tail. Frames of the retired session tag
    /// are skipped.
    ///
    /// # Errors
    ///
    /// I/O failures, or `Corrupt` when a frame passes its CRC but does
    /// not decode (format-version skew — *not* a torn write, which CRC
    /// framing catches and tolerates).
    pub fn next_record(&mut self) -> Result<Option<WalRecord>> {
        while let Some(payload) = self.next_payload()? {
            let frame_len = 8 + payload.len() as u64;
            match WalRecord::decode(&payload) {
                Some(record) => {
                    self.offset += frame_len;
                    return Ok(Some(record));
                }
                None if is_retired_session(&payload) => self.offset += frame_len,
                None => {
                    return Err(StoreError::corrupt(
                        "<wal-stream>",
                        "CRC-valid frame failed to decode (version skew?)",
                    ))
                }
            }
        }
        Ok(None)
    }

    /// The next CRC-valid payload, or `None` at a clean end or a tear.
    fn next_payload(&mut self) -> Result<Option<Vec<u8>>> {
        if self.done {
            return Ok(None);
        }
        let mut frame_header = [0u8; 8];
        match read_exact_or_eof(&mut self.reader, &mut frame_header) {
            Ok(false) => {
                self.done = true;
                return Ok(None); // clean end
            }
            Ok(true) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                self.torn = true;
                self.done = true;
                return Ok(None);
            }
            Err(e) => return Err(e.into()),
        }
        let len = u32::from_le_bytes(frame_header[0..4].try_into().expect("4 bytes"));
        let stored_crc = u32::from_le_bytes(frame_header[4..8].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            self.torn = true;
            self.done = true;
            return Ok(None);
        }
        let mut payload = vec![0u8; len as usize];
        match read_exact_or_eof(&mut self.reader, &mut payload) {
            Ok(true) => {}
            Ok(false) | Err(_) => {
                self.torn = true;
                self.done = true;
                return Ok(None);
            }
        }
        if Crc32::checksum(&payload) != stored_crc {
            self.torn = true;
            self.done = true;
            return Ok(None);
        }
        Ok(Some(payload))
    }
}

/// Replays a WAL file, tolerating a torn tail. A missing file replays
/// as empty (a fresh store has no WAL yet).
///
/// # Errors
///
/// I/O failures, or `Corrupt` when a frame passes its CRC but does not
/// decode (format-version skew — *not* a torn write, which CRC framing
/// catches and tolerates).
pub fn replay(path: &Path) -> Result<WalReplay> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalReplay {
                records: Vec::new(),
                valid_len: 0,
                truncated: false,
            })
        }
        Err(e) => return Err(e.into()),
    };
    let mut cursor = WalCursor::new(BufReader::new(file));
    let mut records = Vec::new();
    loop {
        match cursor.next_record() {
            Ok(Some(record)) => records.push(record),
            Ok(None) => break,
            // Re-anchor stream-level corruption on the actual file.
            Err(StoreError::Corrupt { detail, .. }) => {
                return Err(StoreError::corrupt(path, detail))
            }
            Err(e) => return Err(e),
        }
    }
    Ok(WalReplay {
        records,
        valid_len: cursor.offset(),
        truncated: cursor.torn(),
    })
}

/// Encodes one record as a standalone CRC-framed WAL frame — the exact
/// bytes [`WalWriter::append`] would write, reusable as a replication
/// chunk unit (the encoding is deterministic, so a re-encoded `Ingest`
/// is byte-identical to the leader's on-disk frame).
pub fn encode_record_frame(record: &WalRecord) -> Vec<u8> {
    encode_frame(record)
}

/// Strictly decodes a buffer of concatenated CRC-framed records, as
/// produced by [`encode_record_frame`]. Unlike [`replay`], a torn or
/// corrupt tail here is an **error**: the transport already delivered
/// the buffer intact, so damage means a bug or a hostile peer, not a
/// crash mid-write.
///
/// # Errors
///
/// `Corrupt` when the buffer ends mid-frame, fails a CRC, or holds a
/// frame that does not decode.
pub fn decode_record_frames(bytes: &[u8]) -> Result<Vec<WalRecord>> {
    let mut cursor = WalCursor::new(bytes);
    let mut records = Vec::new();
    while let Some(record) = cursor.next_record()? {
        records.push(record);
    }
    if cursor.torn() {
        return Err(StoreError::corrupt(
            "<replication-chunk>",
            format!(
                "chunk damaged past byte {} ({} of {} bytes committed)",
                cursor.offset(),
                cursor.offset(),
                bytes.len()
            ),
        ));
    }
    Ok(records)
}

/// Appender over one WAL file.
///
/// Tracks the committed prefix length so a failed append can be rolled
/// back (see the module docs on self-healing and wedging).
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// Byte length of the committed prefix: every frame up to here was
    /// fully appended and synced.
    committed_len: u64,
    /// `Some(reason)` once a rollback failed; all further appends are
    /// refused with [`StoreError::Wedged`].
    wedged: Option<String>,
    appends: u64,
    fsyncs: u64,
}

impl WalWriter {
    /// Opens the WAL for appending at `valid_len` (as reported by
    /// [`replay`]), truncating any torn tail beyond it. Creates the file
    /// when missing.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn open(path: &Path, valid_len: u64) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if file.metadata()?.len() > valid_len {
            file.set_len(valid_len)?;
            file.sync_all()?;
        }
        let mut file = file;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            committed_len: valid_len,
            wedged: None,
            appends: 0,
            fsyncs: 0,
        })
    }

    /// Rewrites the WAL from scratch with `records` (atomically, via a
    /// staged sibling + rename), then reopens it for appending. This is
    /// the compaction path: the folded WAL restarts with only its
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn rewrite(path: &Path, records: &[WalRecord]) -> Result<Self> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut staged = BufWriter::new(File::create(&tmp)?);
        let mut len = 0u64;
        for record in records {
            let frame = encode_frame(record);
            staged.write_all(&frame)?;
            len += frame.len() as u64;
        }
        staged.flush()?;
        staged.get_ref().sync_all()?;
        std::fs::rename(&tmp, path)?;
        crate::segment::sync_parent_dir(path);
        WalWriter::open(path, len)
    }

    /// The WAL file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Frames appended through this writer.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Fsyncs issued by this writer.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Byte length of the committed prefix.
    pub fn committed_len(&self) -> u64 {
        self.committed_len
    }

    /// `true` once a failed rollback left the tail in an unknown state;
    /// every further append returns [`StoreError::Wedged`] until the
    /// store is reopened.
    pub fn is_wedged(&self) -> bool {
        self.wedged.is_some()
    }

    fn check_wedged(&self) -> Result<()> {
        match &self.wedged {
            Some(detail) => Err(StoreError::Wedged {
                detail: detail.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Appends and fsyncs one record: the record is durable when this
    /// returns. On failure the file is rolled back to the
    /// committed prefix, so the failed frame leaves no torn bytes and
    /// the writer stays usable — unless the rollback itself fails, in
    /// which case the writer wedges.
    ///
    /// # Errors
    ///
    /// I/O failures (the append was rolled back), or `Wedged` (the
    /// rollback failed; reopen the store).
    pub fn append(&mut self, record: &WalRecord) -> Result<()> {
        self.check_wedged()?;
        let frame = encode_frame(record);
        match self.try_append(&frame) {
            Ok(()) => {
                self.committed_len += frame.len() as u64;
                self.appends += 1;
                Ok(())
            }
            Err(e) => {
                self.rollback()?;
                Err(e)
            }
        }
    }

    /// Writes and syncs one encoded frame without advancing the
    /// committed prefix.
    fn try_append(&mut self, frame: &[u8]) -> Result<()> {
        if let Some(action) = failpoint::evaluate_sleepy("wal.append") {
            if let failpoint::Action::Partial(n) = action {
                // Torn write: some of the frame reaches the file, then
                // the device gives up.
                let n = n.min(frame.len());
                self.file.write_all(&frame[..n])?;
            }
            return Err(injected_io("wal.append", action).into());
        }
        self.file.write_all(frame)?;
        self.sync_counted()
    }

    /// Truncates the file back to the committed prefix after a failed
    /// append. On failure, wedges the writer.
    fn rollback(&mut self) -> Result<()> {
        let result = (|| -> std::io::Result<()> {
            if let Some(action) = failpoint::evaluate_sleepy("wal.rollback") {
                return Err(injected_io("wal.rollback", action));
            }
            self.file.set_len(self.committed_len)?;
            self.file.seek(SeekFrom::Start(self.committed_len))?;
            Ok(())
        })();
        if let Err(e) = result {
            let detail = format!(
                "rollback to committed prefix ({} bytes) failed: {e}",
                self.committed_len
            );
            self.wedged = Some(detail.clone());
            return Err(StoreError::Wedged { detail });
        }
        Ok(())
    }

    fn sync_counted(&mut self) -> Result<()> {
        if let Some(action) = failpoint::evaluate_sleepy("wal.fsync") {
            return Err(injected_io("wal.fsync", action).into());
        }
        self.file.sync_data()?;
        self.fsyncs += 1;
        Ok(())
    }
}

fn encode_frame(record: &WalRecord) -> Vec<u8> {
    let payload = record.encode();
    let len = u32::try_from(payload.len()).expect("payload below MAX_PAYLOAD");
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&Crc32::checksum(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_wal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qstore_wal_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Ingest {
                id: 0,
                vector: vec![1.5, -2.25, f64::MIN_POSITIVE],
            },
            WalRecord::Checkpoint { durable_vectors: 1 },
            WalRecord::Ingest {
                id: 1,
                vector: vec![f64::MAX],
            },
            WalRecord::Checkpoint { durable_vectors: 2 },
            WalRecord::Ingest {
                id: 2,
                vector: vec![0.0, -0.0, 1e300],
            },
        ]
    }

    #[test]
    fn append_replay_round_trips() {
        let path = tmp_wal("roundtrip");
        let records = sample_records();
        let mut w = WalWriter::open(&path, 0).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        assert_eq!(w.appends(), 5);
        assert!(w.fsyncs() >= 5);
        drop(w);
        let replayed = replay(&path).unwrap();
        assert!(!replayed.truncated);
        assert_eq!(replayed.records, records);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn torn_tail_recovers_committed_prefix() {
        let path = tmp_wal("torn");
        let records = sample_records();
        let mut w = WalWriter::open(&path, 0).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        drop(w);
        let full = std::fs::read(&path).unwrap();
        // Cut mid-way through the final frame.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let replayed = replay(&path).unwrap();
        assert!(replayed.truncated);
        assert_eq!(replayed.records, records[..4].to_vec());
        // Reopening at the valid prefix truncates the tear and appends cleanly.
        let mut w = WalWriter::open(&path, replayed.valid_len).unwrap();
        w.append(&records[4]).unwrap();
        drop(w);
        let again = replay(&path).unwrap();
        assert!(!again.truncated);
        assert_eq!(again.records, records);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn corrupt_byte_in_tail_frame_is_discarded() {
        let path = tmp_wal("flip");
        let mut w = WalWriter::open(&path, 0).unwrap();
        let records = sample_records();
        for r in &records {
            w.append(r).unwrap();
        }
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let replayed = replay(&path).unwrap();
        assert!(replayed.truncated);
        assert_eq!(replayed.records, records[..4].to_vec());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn missing_wal_replays_empty() {
        let path = tmp_wal("missing").with_file_name("never-written.log");
        let replayed = replay(&path).unwrap();
        assert!(replayed.records.is_empty());
        assert_eq!(replayed.valid_len, 0);
        assert!(!replayed.truncated);
    }

    #[test]
    fn rewrite_folds_to_exactly_the_given_records() {
        let path = tmp_wal("rewrite");
        let mut w = WalWriter::open(&path, 0).unwrap();
        for r in &sample_records() {
            w.append(r).unwrap();
        }
        drop(w);
        let keep = vec![WalRecord::Checkpoint { durable_vectors: 2 }];
        let mut w = WalWriter::rewrite(&path, &keep).unwrap();
        w.append(&WalRecord::Ingest {
            id: 2,
            vector: vec![9.0],
        })
        .unwrap();
        drop(w);
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(replayed.records[0], keep[0]);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn cursor_streams_records_and_stops_at_a_torn_tail() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&encode_record_frame(r));
        }
        // Clean stream: every record, no tear, offset = full length.
        let mut cursor = WalCursor::new(bytes.as_slice());
        let mut seen = Vec::new();
        while let Some(r) = cursor.next_record().unwrap() {
            seen.push(r);
        }
        assert_eq!(seen, records);
        assert!(!cursor.torn());
        assert_eq!(cursor.offset(), bytes.len() as u64);

        // Torn stream: the damaged final frame is discarded, the
        // committed prefix survives, and the offset excludes the tear.
        let torn = &bytes[..bytes.len() - 3];
        let mut cursor = WalCursor::new(torn);
        let mut seen = Vec::new();
        while let Some(r) = cursor.next_record().unwrap() {
            seen.push(r);
        }
        assert_eq!(seen, records[..4].to_vec());
        assert!(cursor.torn());
        assert!(cursor.offset() < torn.len() as u64);
        // The cursor is sticky after the tear.
        assert!(cursor.next_record().unwrap().is_none());
    }

    #[test]
    fn record_frames_round_trip_and_match_writer_bytes() {
        let path = tmp_wal("frames");
        let records = sample_records();
        let mut w = WalWriter::open(&path, 0).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        drop(w);
        // Standalone frame encoding is byte-identical to the on-disk
        // WAL — the property WAL-shipping replication relies on.
        let mut expected = Vec::new();
        for r in &records {
            expected.extend_from_slice(&encode_record_frame(r));
        }
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        assert_eq!(decode_record_frames(&expected).unwrap(), records);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn strict_decode_rejects_torn_and_corrupt_chunks() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&encode_record_frame(r));
        }
        // A chunk cut mid-frame is an error (transports deliver whole
        // buffers; a tear here is damage, not a crash).
        assert!(matches!(
            decode_record_frames(&bytes[..bytes.len() - 2]),
            Err(StoreError::Corrupt { .. })
        ));
        // A flipped payload byte fails its CRC.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            decode_record_frames(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
        // Empty chunks are fine (an up-to-date follower fetched nothing).
        assert_eq!(decode_record_frames(&[]).unwrap(), Vec::new());
    }

    #[test]
    fn ingested_vectors_replay_bit_exactly() {
        let path = tmp_wal("bits");
        let vector = vec![0.1 + 0.2, -0.0, f64::MAX, 1.0 / 3.0];
        let mut w = WalWriter::open(&path, 0).unwrap();
        w.append(&WalRecord::Ingest {
            id: 0,
            vector: vector.clone(),
        })
        .unwrap();
        drop(w);
        let replayed = replay(&path).unwrap();
        let WalRecord::Ingest { vector: back, .. } = &replayed.records[0] else {
            panic!("expected ingest");
        };
        for (a, b) in back.iter().zip(vector.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
