//! The durable vector store: a directory of sealed segments plus one
//! write-ahead log, with crash recovery and WAL → segment compaction.
//!
//! Directory layout:
//!
//! ```text
//! <dir>/seg-000000.qseg   sealed, immutable, CRC-validated segments
//! <dir>/seg-000001.qseg   (id ranges are contiguous in file order)
//! <dir>/wal.log           mutations since the last compaction
//! ```
//!
//! **Recovery** reads every segment in order (ids are positional), then
//! replays the WAL's committed prefix: `Ingest` records extend the
//! corpus and a torn WAL tail is truncated. `Ingest` records carry
//! their assigned global id, so a
//! compaction that crashed after sealing a segment but before folding
//! the WAL replays idempotently — ids already covered by segments are
//! skipped.
//!
//! **Compaction** folds the WAL tail into a freshly sealed segment
//! (staged + atomic rename), then rewrites the WAL to one checkpoint.

use crate::error::{Result, StoreError};
use crate::segment::{write_segment, SegmentReader};
use crate::wal::{replay, WalRecord, WalWriter};
use std::path::{Path, PathBuf};

/// Tunables for one store instance. It has none: every committed WAL
/// append is fsynced, so a returned ingest survives power loss. The
/// type stays because `benchmark/` passes `StoreConfig::default()`
/// (ROADMAP 1(b)).
#[derive(Debug, Clone, Default)]
pub struct StoreConfig {}

/// Everything recovery reconstructs from `segments + WAL`.
#[derive(Debug)]
pub struct RecoveredState {
    /// The full corpus in id order: segment vectors, then the WAL tail.
    pub vectors: Vec<Vec<f64>>,
    /// How many of [`Self::vectors`] came from sealed segments (the
    /// rest were replayed from the WAL).
    pub segment_vectors: usize,
    /// `true` when a torn WAL tail was discarded during replay.
    pub wal_truncated: bool,
    /// The replication term this node last acknowledged (0 when the
    /// node has never seen a fenced leader).
    pub term: u64,
}

/// Counters and gauges describing one store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// WAL frames appended since open.
    pub wal_appends: u64,
    /// WAL fsyncs since open.
    pub wal_fsyncs: u64,
    /// Sealed segment files.
    pub segments: u64,
    /// Vectors sealed in segments.
    pub segment_vectors: u64,
    /// Vectors still only in the WAL.
    pub wal_vectors: u64,
}

/// Result of one compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Vectors folded from the WAL into the new segment (0 = no new
    /// segment was written).
    pub folded_vectors: u64,
    /// Sealed segments after the fold.
    pub segments: u64,
}

/// The durable segment + WAL vector store.
#[derive(Debug)]
pub struct VectorStore {
    dir: PathBuf,
    dim: Option<usize>,
    /// Sealed segment paths in id order.
    segments: Vec<PathBuf>,
    /// Total vectors across sealed segments.
    segment_vectors: u64,
    /// Vectors living only in the WAL (id order), kept resident so
    /// compaction can seal them without re-reading the log.
    wal_tail: Vec<Vec<f64>>,
    wal: WalWriter,
    /// Counter bases carried across WAL rewrites.
    appends_base: u64,
    fsyncs_base: u64,
    /// The highest replication term durably acknowledged by this node.
    term: u64,
}

fn segment_index(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_prefix("seg-")?.strip_suffix(".qseg")?;
    rest.parse().ok()
}

/// The term file: 8 bytes of little-endian term + a CRC-32 of those
/// bytes. A partial staging write is swept as a `.tmp` on open; the
/// published file is only ever replaced by an atomic rename, so the
/// term can never tear — it is either the old value or the new one.
const TERM_FILE: &str = "term";

fn read_term_file(dir: &Path) -> Result<u64> {
    let path = dir.join(TERM_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    if bytes.len() != 12 {
        return Err(StoreError::corrupt(
            &path,
            format!("term file holds {} bytes, expected 12", bytes.len()),
        ));
    }
    let term = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
    let stored_crc = u32::from_le_bytes(bytes[8..].try_into().expect("4 bytes"));
    if crate::codec::Crc32::checksum(&bytes[..8]) != stored_crc {
        return Err(StoreError::corrupt(&path, "term file CRC mismatch"));
    }
    Ok(term)
}

fn write_term_file(dir: &Path, term: u64) -> Result<()> {
    let mut bytes = Vec::with_capacity(12);
    bytes.extend_from_slice(&term.to_le_bytes());
    let crc = crate::codec::Crc32::checksum(&term.to_le_bytes());
    bytes.extend_from_slice(&crc.to_le_bytes());
    let staged = dir.join(format!("{TERM_FILE}.tmp"));
    {
        use std::io::Write as _;
        let mut file = std::fs::File::create(&staged)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&staged, dir.join(TERM_FILE))?;
    Ok(())
}

impl VectorStore {
    /// Opens (or initializes) a store directory and recovers its state.
    ///
    /// # Errors
    ///
    /// I/O failures, or `Corrupt` for damaged segments / an undecodable
    /// WAL frame. A torn WAL *tail* is not an error — it is truncated
    /// and reported via [`RecoveredState::wal_truncated`].
    pub fn open(dir: &Path, _config: StoreConfig) -> Result<(Self, RecoveredState)> {
        std::fs::create_dir_all(dir)?;

        // Collect sealed segments; sweep stale staging files.
        let mut segments: Vec<PathBuf> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                let _ = std::fs::remove_file(&path);
            } else if segment_index(&path).is_some() {
                segments.push(path);
            }
        }
        segments.sort();

        let mut vectors: Vec<Vec<f64>> = Vec::new();
        let mut dim: Option<usize> = None;
        for path in &segments {
            let mut reader = SegmentReader::open(path)?;
            match dim {
                None => dim = Some(reader.dim()),
                Some(d) if d != reader.dim() => {
                    return Err(StoreError::corrupt(
                        path,
                        format!("segment dim {} disagrees with store dim {d}", reader.dim()),
                    ));
                }
                Some(_) => {}
            }
            let flat = reader.read_all_flat()?;
            vectors.extend(flat.chunks_exact(reader.dim()).map(<[f64]>::to_vec));
        }
        let segment_vectors = vectors.len() as u64;

        // Replay the WAL's committed prefix.
        let wal_path = dir.join("wal.log");
        let replayed = replay(&wal_path)?;
        let mut wal_tail: Vec<Vec<f64>> = Vec::new();
        for record in replayed.records {
            match record {
                WalRecord::Ingest { id, vector } => {
                    if id < segment_vectors {
                        continue; // sealed by a compaction that crashed pre-fold
                    }
                    let expected = segment_vectors + wal_tail.len() as u64;
                    if id != expected {
                        return Err(StoreError::corrupt(
                            &wal_path,
                            format!("ingest id {id} but expected {expected}"),
                        ));
                    }
                    match dim {
                        None => dim = Some(vector.len()),
                        Some(d) if d != vector.len() => {
                            return Err(StoreError::corrupt(
                                &wal_path,
                                format!("ingest dim {} disagrees with store dim {d}", vector.len()),
                            ));
                        }
                        Some(_) => {}
                    }
                    wal_tail.push(vector);
                }
                WalRecord::Checkpoint { durable_vectors } => {
                    if durable_vectors > segment_vectors {
                        return Err(StoreError::corrupt(
                            &wal_path,
                            format!(
                                "checkpoint claims {durable_vectors} sealed vectors but \
                                 segments hold {segment_vectors}"
                            ),
                        ));
                    }
                }
            }
        }
        vectors.extend(wal_tail.iter().cloned());

        let term = read_term_file(dir)?;
        let wal = WalWriter::open(&wal_path, replayed.valid_len)?;
        let store = VectorStore {
            dir: dir.to_path_buf(),
            dim,
            segments,
            segment_vectors,
            wal_tail,
            wal,
            appends_base: 0,
            fsyncs_base: 0,
            term,
        };
        let recovered = RecoveredState {
            vectors,
            segment_vectors: segment_vectors as usize,
            wal_truncated: replayed.truncated,
            term,
        };
        Ok((store, recovered))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Vector dimensionality, once known (first segment or ingest).
    pub fn dim(&self) -> Option<usize> {
        self.dim
    }

    /// Total vectors (sealed + WAL tail).
    pub fn total_vectors(&self) -> u64 {
        self.segment_vectors + self.wal_tail.len() as u64
    }

    /// The highest replication term this node durably acknowledged.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Durably advances the replication term. Terms are monotonic: a
    /// `term` at or below the current one is a no-op (idempotent
    /// re-acknowledgement), never a regression.
    ///
    /// # Errors
    ///
    /// I/O failures staging or renaming the term file.
    pub fn set_term(&mut self, term: u64) -> Result<()> {
        if term <= self.term {
            return Ok(());
        }
        write_term_file(&self.dir, term)?;
        self.term = term;
        Ok(())
    }

    /// `true` when the store holds no vectors yet.
    pub fn is_empty(&self) -> bool {
        self.total_vectors() == 0
    }

    /// Seeds an empty store with an initial corpus, sealed directly into
    /// a segment (no WAL traffic).
    ///
    /// # Errors
    ///
    /// `InvalidArg` when the store already holds vectors or on ragged,
    /// empty or non-finite input (nothing is written then), otherwise I/O
    /// failures.
    pub fn bootstrap(&mut self, points: &[Vec<f64>]) -> Result<()> {
        if !self.is_empty() {
            return Err(StoreError::InvalidArg(
                "bootstrap requires an empty store".into(),
            ));
        }
        let Some(first) = points.first() else {
            return Err(StoreError::InvalidArg(
                "bootstrap needs at least one vector".into(),
            ));
        };
        let dim = first.len();
        let path = self.next_segment_path();
        write_segment(&path, dim, points)?;
        self.segments.push(path);
        self.segment_vectors = points.len() as u64;
        self.dim = Some(dim);
        Ok(())
    }

    /// Durably ingests one vector, returning its global corpus id.
    ///
    /// # Errors
    ///
    /// `InvalidArg` on dimensionality mismatch or non-finite values,
    /// otherwise I/O failures.
    pub fn ingest(&mut self, vector: Vec<f64>) -> Result<u64> {
        if let Some(d) = self.dim {
            if vector.len() != d {
                return Err(StoreError::InvalidArg(format!(
                    "vector dim {} but store dim {d}",
                    vector.len()
                )));
            }
        } else if vector.is_empty() {
            return Err(StoreError::InvalidArg(
                "cannot ingest an empty vector".into(),
            ));
        }
        if vector.iter().any(|v| !v.is_finite()) {
            return Err(StoreError::InvalidArg(
                "cannot ingest non-finite components".into(),
            ));
        }
        let id = self.total_vectors();
        self.wal.append(&WalRecord::Ingest {
            id,
            vector: vector.clone(),
        })?;
        self.dim.get_or_insert(vector.len());
        self.wal_tail.push(vector);
        Ok(id)
    }

    /// Folds the WAL into a freshly sealed segment and rewrites the log
    /// to one [`WalRecord::Checkpoint`].
    ///
    /// # Errors
    ///
    /// I/O failures. The segment seal is atomic; a crash between the
    /// seal and the WAL rewrite is healed on the next open (ingest ids
    /// below the segment total are skipped during replay).
    pub fn compact(&mut self) -> Result<CompactionStats> {
        let folded = self.wal_tail.len() as u64;
        if folded > 0 {
            let dim = self.dim.expect("dim known when vectors exist");
            let path = self.next_segment_path();
            write_segment(&path, dim, &self.wal_tail)?;
            self.segments.push(path);
            self.segment_vectors += folded;
            self.wal_tail.clear();
        }

        // Failpoint `store.compact.crash`: abort in the crash window
        // between the atomic segment seal and the WAL rewrite — the
        // WAL still holds ingest records for ids the new segment now
        // covers, which the next open must skip idempotently.
        if let Some(action) = qcluster_failpoint::evaluate_sleepy("store.compact.crash") {
            return Err(crate::wal::injected_io("store.compact.crash", action).into());
        }

        self.appends_base += self.wal.appends();
        self.fsyncs_base += self.wal.fsyncs();
        self.wal = WalWriter::rewrite(
            &self.dir.join("wal.log"),
            &[WalRecord::Checkpoint {
                durable_vectors: self.segment_vectors,
            }],
        )?;

        Ok(CompactionStats {
            folded_vectors: folded,
            segments: self.segments.len() as u64,
        })
    }

    /// Current counters and gauges.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            wal_appends: self.appends_base + self.wal.appends(),
            wal_fsyncs: self.fsyncs_base + self.wal.fsyncs(),
            segments: self.segments.len() as u64,
            segment_vectors: self.segment_vectors,
            wal_vectors: self.wal_tail.len() as u64,
        }
    }

    fn next_segment_path(&self) -> PathBuf {
        let next = self
            .segments
            .iter()
            .filter_map(|p| segment_index(p))
            .max()
            .map_or(0, |i| i + 1);
        self.dir.join(format!("seg-{next:06}.qseg"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qstore_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn vecs(n: usize, dim: usize, offset: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| (0..dim).map(|d| offset + (i * dim + d) as f64).collect())
            .collect()
    }

    #[test]
    fn bootstrap_ingest_reopen_recovers_everything() {
        let dir = tmp_store("lifecycle");
        let base = vecs(20, 3, 0.0);
        {
            let (mut store, recovered) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
            assert!(recovered.vectors.is_empty());
            store.bootstrap(&base).unwrap();
            for (i, v) in vecs(5, 3, 100.0).into_iter().enumerate() {
                assert_eq!(store.ingest(v).unwrap(), 20 + i as u64);
            }
            assert_eq!(store.total_vectors(), 25);
        }
        let (store, recovered) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(recovered.vectors.len(), 25);
        assert_eq!(recovered.segment_vectors, 20);
        assert_eq!(recovered.vectors[..20].to_vec(), base);
        assert_eq!(recovered.vectors[20], vec![100.0, 101.0, 102.0]);
        assert!(!recovered.wal_truncated);
        assert_eq!(store.dim(), Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_seals_wal_and_survives_reopen() {
        let dir = tmp_store("compact");
        {
            let (mut store, _) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
            store.bootstrap(&vecs(10, 2, 0.0)).unwrap();
            for v in vecs(7, 2, 50.0) {
                store.ingest(v).unwrap();
            }
            let stats = store.compact().unwrap();
            assert_eq!(stats.folded_vectors, 7);
            assert_eq!(stats.segments, 2);
            assert_eq!(
                replay(&dir.join("wal.log")).unwrap().records,
                [WalRecord::Checkpoint {
                    durable_vectors: 17
                }]
            );
            assert_eq!(store.stats().wal_vectors, 0);
            assert_eq!(store.stats().segment_vectors, 17);
        }
        let (_, recovered) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(recovered.vectors.len(), 17);
        assert_eq!(recovered.segment_vectors, 17);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A payload of the retired session tag, as builds that persisted
    /// sessions wrote it: id, feed-count slot, live flag, name.
    fn retired_session_payload(session: u64, feeds: u64, live: bool, engine: &str) -> Vec<u8> {
        let mut payload = vec![2];
        payload.extend_from_slice(&session.to_le_bytes());
        payload.extend_from_slice(&feeds.to_le_bytes());
        payload.push(u8::from(live));
        payload.extend_from_slice(&(engine.len() as u32).to_le_bytes());
        payload.extend_from_slice(engine.as_bytes());
        payload
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&crate::codec::Crc32::checksum(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    /// A WAL from a build that persisted sessions opens with its
    /// vectors bit-equal, and its first compaction leaves one
    /// checkpoint. A CRC-valid session frame that does not parse is
    /// still corruption.
    #[test]
    fn an_old_wal_with_session_frames_opens_and_compacts_to_one_checkpoint() {
        let dir = tmp_store("old_wal");
        std::fs::create_dir_all(&dir).unwrap();
        let ingested = vec![
            vec![0.1 + 0.2, -0.0],
            vec![f64::MIN_POSITIVE, 1e300],
            vec![-1.0 / 3.0, 7.0],
        ];
        let ingest = |id: usize| {
            crate::wal::encode_record_frame(&WalRecord::Ingest {
                id: id as u64,
                vector: ingested[id].clone(),
            })
        };
        let mut wal = ingest(0);
        wal.extend(frame(&retired_session_payload(7, 0, true, "qpm")));
        wal.extend(ingest(1));
        wal.extend(frame(&retired_session_payload(8, 0, false, "")));
        wal.extend(frame(&retired_session_payload(9, 5, true, "qcluster")));
        wal.extend(ingest(2));
        std::fs::write(dir.join("wal.log"), &wal).unwrap();

        let bits = |vs: &[Vec<f64>]| -> Vec<Vec<u64>> {
            vs.iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        {
            let (mut store, recovered) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
            assert!(!recovered.wal_truncated);
            assert_eq!(bits(&recovered.vectors), bits(&ingested));
            store.compact().unwrap();
        }
        assert_eq!(
            replay(&dir.join("wal.log")).unwrap().records,
            [WalRecord::Checkpoint { durable_vectors: 3 }]
        );
        let (_, recovered) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(bits(&recovered.vectors), bits(&ingested));

        let mut malformed = retired_session_payload(7, 0, true, "qpm");
        malformed.push(0);
        std::fs::write(dir.join("wal.log"), frame(&malformed)).unwrap();
        assert!(matches!(
            VectorStore::open(&dir, StoreConfig::default()),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_loses_only_the_uncommitted_record() {
        let dir = tmp_store("torn");
        {
            let (mut store, _) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
            for v in vecs(4, 2, 0.0) {
                store.ingest(v).unwrap();
            }
        }
        // Tear the final frame mid-payload.
        let wal = dir.join("wal.log");
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();
        let (mut store, recovered) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
        assert!(recovered.wal_truncated);
        assert_eq!(recovered.vectors.len(), 3);
        // The store keeps working: the torn id is reassigned.
        assert_eq!(store.ingest(vec![9.0, 9.0]).unwrap(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_compaction_replays_idempotently() {
        let dir = tmp_store("crashfold");
        {
            let (mut store, _) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
            store.bootstrap(&vecs(3, 2, 0.0)).unwrap();
            for v in vecs(4, 2, 30.0) {
                store.ingest(v).unwrap();
            }
            // Simulate the crash window: seal the WAL tail into a segment
            // as compaction would, but "crash" before the WAL rewrite.
            write_segment(&dir.join("seg-000001.qseg"), 2, &vecs(4, 2, 30.0)).unwrap();
        }
        let (store, recovered) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(recovered.vectors.len(), 7, "WAL ingests not double-counted");
        assert_eq!(recovered.segment_vectors, 7);
        assert_eq!(store.stats().wal_vectors, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A row-major version-1 segment file, byte for byte as builds
    /// before the tile-native format left them on disk.
    fn v1_segment_bytes(dim: usize, vectors: &[Vec<f64>]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"QSEG");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(dim as u32).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let body = bytes.len();
        for x in vectors.iter().flatten() {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        let crc = crate::codec::Crc32::checksum(&bytes[body..]);
        bytes.extend_from_slice(&(vectors.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&(dim as u32).to_le_bytes());
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes.extend_from_slice(b"SEGF");
        bytes
    }

    #[test]
    fn version_1_segment_is_rejected_at_open_and_left_untouched() {
        let dir = tmp_store("v1_rejected");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-000000.qseg");
        let legacy = v1_segment_bytes(3, &vecs(10, 3, 0.0));
        std::fs::write(&path, &legacy).unwrap();
        match VectorStore::open(&dir, StoreConfig::default()) {
            Err(StoreError::Corrupt { path: at, detail }) => {
                assert_eq!(at, path);
                assert_eq!(detail, "unsupported segment version 1");
            }
            other => panic!("a version-1 segment must not open: {other:?}"),
        }
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["seg-000000.qseg"], "nothing created beside it");
        assert_eq!(std::fs::read(&path).unwrap(), legacy, "not rewritten");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn term_survives_reopen_and_never_regresses() {
        let dir = tmp_store("term");
        {
            let (mut store, recovered) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
            assert_eq!(recovered.term, 0, "fresh store: no leader yet");
            assert_eq!(store.term(), 0);
            store.set_term(3).unwrap();
            store.set_term(7).unwrap();
            // Regressions and re-acks are no-ops, not errors.
            store.set_term(5).unwrap();
            store.set_term(7).unwrap();
            assert_eq!(store.term(), 7);
        }
        let (store, recovered) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(recovered.term, 7, "term survives a restart");
        assert_eq!(store.term(), 7);
        // A corrupted term file is a typed error, not a silent zero.
        std::fs::write(dir.join("term"), [0u8; 12]).unwrap();
        let corrupted = VectorStore::open(&dir, StoreConfig::default());
        assert!(matches!(corrupted, Err(StoreError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_ragged_and_non_finite_ingests() {
        let dir = tmp_store("validate");
        let (mut store, _) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
        store.ingest(vec![1.0, 2.0]).unwrap();
        assert!(matches!(
            store.ingest(vec![1.0]),
            Err(StoreError::InvalidArg(_))
        ));
        assert!(matches!(
            store.ingest(vec![f64::NAN, 0.0]),
            Err(StoreError::InvalidArg(_))
        ));
        assert!(matches!(
            store.bootstrap(&vecs(2, 2, 0.0)),
            Err(StoreError::InvalidArg(_)),
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A seed holding a NaN, an ∞ or a ragged vector seals nothing: the
    /// store stays empty, no segment or staging file appears, and a good
    /// seed bootstraps afterwards.
    #[test]
    fn rejects_ragged_and_non_finite_seeds() {
        let dir = tmp_store("bad_seed");
        let (mut store, _) = VectorStore::open(&dir, StoreConfig::default()).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut seed = vecs(100, 2, 0.0);
            seed[7][1] = bad;
            assert!(
                matches!(store.bootstrap(&seed), Err(StoreError::InvalidArg(_))),
                "{bad}"
            );
        }
        let mut ragged = vecs(100, 2, 0.0);
        ragged[9].push(1.0);
        assert!(matches!(
            store.bootstrap(&ragged),
            Err(StoreError::InvalidArg(_))
        ));
        assert!(store.is_empty());
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["wal.log"], "nothing staged or sealed");
        store.bootstrap(&vecs(100, 2, 0.0)).unwrap();
        assert_eq!(store.total_vectors(), 100);
        std::fs::remove_dir_all(&dir).ok();
    }
}
