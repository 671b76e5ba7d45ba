//! # qcluster-store
//!
//! Durable storage for the Qcluster stack: the paper's corpus is static
//! and in-memory, but a production retrieval service must survive
//! restarts with every ingested image intact. This crate provides the
//! robustness foundation:
//!
//! - [`segment`] — the append-only binary segment format (v2):
//!   tile-native columnar `f64` values plus a u8 scalar-quantized
//!   sibling column and persisted quantization parameters, behind a
//!   versioned header and a CRC-32 footer, written via staging + atomic
//!   rename and read through a paged, validate-on-open
//!   [`SegmentReader`].
//! - [`wal`] — the write-ahead log: length-prefixed CRC-framed
//!   mutation records ([`WalRecord::Ingest`], [`WalRecord::Checkpoint`])
//!   each fsynced on commit, and replay that tolerates a torn tail.
//! - [`store`] — [`VectorStore`]: open a directory, recover
//!   `segments + WAL` into an id-ordered corpus, ingest durably, and
//!   compact the WAL into freshly sealed segments.
//!
//! ```
//! use qcluster_store::{StoreConfig, VectorStore};
//!
//! let dir = std::env::temp_dir().join(format!("qstore_doc_{}", std::process::id()));
//! # std::fs::remove_dir_all(&dir).ok();
//! let (mut store, _) = VectorStore::open(&dir, StoreConfig::default())?;
//! store.bootstrap(&[vec![0.0, 0.0], vec![1.0, 1.0]])?;
//! let id = store.ingest(vec![2.0, 2.0])?;
//! assert_eq!(id, 2);
//! drop(store);
//!
//! // Crash-restart: everything committed comes back, in id order.
//! let (_store, recovered) = VectorStore::open(&dir, StoreConfig::default())?;
//! assert_eq!(recovered.vectors.len(), 3);
//! assert_eq!(recovered.vectors[2], vec![2.0, 2.0]);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), qcluster_store::StoreError>(())
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod segment;
pub mod store;
pub mod wal;

pub use codec::Crc32;
pub use error::{Result, StoreError};
pub use segment::{write_segment, SegmentReader, SegmentWriter, VERSION_V2};
pub use store::{CompactionStats, RecoveredState, StoreConfig, StoreStats, VectorStore};
pub use wal::{
    decode_record_frames, encode_record_frame, replay, WalCursor, WalRecord, WalReplay, WalWriter,
};

use qcluster_index::{QuantizedScan, TileCorpus};
use std::path::Path;

/// Loads one segment into a [`QuantizedScan`]. The segment's columns
/// are adopted verbatim — the on-disk layout *is* the scan's working
/// layout, so no transpose, re-fit, or re-encode happens.
///
/// # Errors
///
/// `InvalidArg` for an empty segment, otherwise see
/// [`SegmentReader::open`].
pub fn load_segment_quantized(path: &Path) -> Result<QuantizedScan> {
    let mut reader = SegmentReader::open(path)?;
    if reader.count() == 0 {
        return Err(StoreError::InvalidArg(
            "cannot scan an empty segment".into(),
        ));
    }
    let dim = reader.dim();
    let (tiles, codes, params) = reader.load_quantized()?;
    let corpus = TileCorpus::from_tile_parts(tiles, dim, reader.count() as usize);
    Ok(QuantizedScan::from_parts(corpus, codes, params))
}
