//! Dataset persistence.
//!
//! Building a dataset is the expensive step of every experiment: rendering
//! tens of thousands of images and extracting color-moment/GLCM features
//! takes orders of magnitude longer than the retrieval runs themselves.
//! This module serializes a prepared [`Dataset`] (vectors + ground truth;
//! the index is rebuilt on load, which is fast) so a corpus can be
//! prepared once and reused across experiment invocations and by external
//! tooling. Two formats are supported:
//!
//! - **JSON** ([`save_dataset`]/[`load_dataset`]) — human-readable and
//!   diff-able, streamed through buffered readers/writers.
//! - **Binary** ([`save_dataset_binary`]/[`load_dataset_binary`]) — a
//!   CRC-checked fixed-width format reusing the `qcluster-store` codec;
//!   bit-exact `f64` round-trips and much faster loads.
//!
//! [`load_dataset_auto`] sniffs the leading magic and accepts either.

use crate::dataset::Dataset;
use qcluster_store::codec::{put_f64, put_u32, put_u64, ByteReader, Crc32};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// The serialized form of a dataset (index excluded — rebuilt on load).
#[derive(Debug, Serialize, Deserialize)]
struct DatasetFile {
    /// Format version for forward compatibility.
    version: u32,
    vectors: Vec<Vec<f64>>,
    categories: Vec<usize>,
    super_categories: Vec<usize>,
    images_per_category: usize,
}

const FORMAT_VERSION: u32 = 1;

/// Leading magic of the binary dataset format.
const BINARY_MAGIC: [u8; 4] = *b"QDSB";
/// Version of the binary dataset format.
const BINARY_VERSION: u32 = 1;

/// Errors from dataset persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed or incompatible file contents.
    Format {
        /// The offending file, when the failure is tied to one (`None`
        /// for the stream-level APIs).
        path: Option<PathBuf>,
        /// What was wrong.
        detail: String,
    },
}

impl PersistError {
    fn format(detail: impl Into<String>) -> Self {
        PersistError::Format {
            path: None,
            detail: detail.into(),
        }
    }

    /// Attaches the offending path to a format error (I/O errors keep
    /// their own context).
    fn with_path(self, path: &Path) -> Self {
        match self {
            PersistError::Format { path: None, detail } => PersistError::Format {
                path: Some(path.to_path_buf()),
                detail,
            },
            other => other,
        }
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O failure: {e}"),
            PersistError::Format { path: None, detail } => write!(f, "format error: {detail}"),
            PersistError::Format {
                path: Some(p),
                detail,
            } => write!(f, "format error in {}: {detail}", p.display()),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Format { .. } => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn to_file(dataset: &Dataset) -> DatasetFile {
    DatasetFile {
        version: FORMAT_VERSION,
        vectors: dataset.vectors().to_vec(),
        categories: (0..dataset.len()).map(|i| dataset.category(i)).collect(),
        super_categories: (0..dataset.len())
            .map(|i| dataset.super_category(i))
            .collect(),
        images_per_category: dataset.images_per_category(),
    }
}

fn from_file(file: DatasetFile) -> Result<Dataset, PersistError> {
    if file.version != FORMAT_VERSION {
        return Err(PersistError::format(format!(
            "unsupported format version {} (expected {FORMAT_VERSION})",
            file.version
        )));
    }
    if file.vectors.is_empty() {
        return Err(PersistError::format("empty dataset"));
    }
    if file.vectors.len() != file.categories.len()
        || file.vectors.len() != file.super_categories.len()
    {
        return Err(PersistError::format("label length mismatch"));
    }
    Ok(Dataset::from_parts(
        file.vectors,
        file.categories,
        file.super_categories,
        file.images_per_category,
    ))
}

/// Serializes a dataset to a JSON writer, streaming (no whole-file
/// string is built).
///
/// # Errors
///
/// I/O failures; serialization itself cannot fail for this data model.
pub fn write_dataset<W: Write>(dataset: &Dataset, writer: W) -> Result<(), PersistError> {
    serde_json::to_writer(writer, &to_file(dataset))
        .map_err(|e| PersistError::format(e.to_string()))
}

/// Deserializes a dataset from a JSON reader, rebuilding the index.
///
/// # Errors
///
/// I/O failures, malformed JSON, wrong format version, or inconsistent
/// label lengths.
pub fn read_dataset<R: Read>(reader: R) -> Result<Dataset, PersistError> {
    let file: DatasetFile =
        serde_json::from_reader(reader).map_err(|e| PersistError::format(e.to_string()))?;
    from_file(file)
}

/// Saves a dataset to a JSON file through a buffered writer.
///
/// # Errors
///
/// See [`write_dataset`]; format errors carry `path`.
pub fn save_dataset(dataset: &Dataset, path: &Path) -> Result<(), PersistError> {
    let file = std::fs::File::create(path)?;
    write_dataset(dataset, std::io::BufWriter::new(file)).map_err(|e| e.with_path(path))
}

/// Loads a dataset from a JSON file through a buffered reader.
///
/// # Errors
///
/// See [`read_dataset`]; format errors carry `path`.
pub fn load_dataset(path: &Path) -> Result<Dataset, PersistError> {
    let file = std::fs::File::open(path)?;
    read_dataset(std::io::BufReader::new(file)).map_err(|e| e.with_path(path))
}

/// Saves a dataset in the binary fast-path format: a `QDSB` header,
/// fixed-width `f64` vectors and `u64` labels, and a trailing CRC-32
/// over the body. Round-trips are bit-exact (unlike JSON's decimal
/// detour) and loads are a large multiple faster.
///
/// # Errors
///
/// I/O failures.
pub fn save_dataset_binary(dataset: &Dataset, path: &Path) -> Result<(), PersistError> {
    let mut body = Vec::with_capacity(16 + dataset.len() * (dataset.dim() * 8 + 16));
    put_u32(&mut body, BINARY_VERSION);
    put_u32(
        &mut body,
        u32::try_from(dataset.dim()).expect("dimensionality fits in u32"),
    );
    put_u64(&mut body, dataset.len() as u64);
    put_u64(&mut body, dataset.images_per_category() as u64);
    for v in dataset.vectors() {
        for &x in v {
            put_f64(&mut body, x);
        }
    }
    for i in 0..dataset.len() {
        put_u64(&mut body, dataset.category(i) as u64);
    }
    for i in 0..dataset.len() {
        put_u64(&mut body, dataset.super_category(i) as u64);
    }
    let crc = Crc32::checksum(&body);
    let file = std::fs::File::create(path)?;
    let mut writer = std::io::BufWriter::new(file);
    writer.write_all(&BINARY_MAGIC)?;
    writer.write_all(&body)?;
    let mut tail = Vec::with_capacity(4);
    put_u32(&mut tail, crc);
    writer.write_all(&tail)?;
    writer.flush()?;
    Ok(())
}

/// Loads a dataset from the binary fast-path format, validating the
/// magic, version, CRC, and length arithmetic before rebuilding the
/// index.
///
/// # Errors
///
/// I/O failures, or `Format` (carrying `path`) for any corruption.
pub fn load_dataset_binary(path: &Path) -> Result<Dataset, PersistError> {
    let bytes = std::fs::read(path)?;
    parse_binary(&bytes).map_err(|e| e.with_path(path))
}

fn parse_binary(bytes: &[u8]) -> Result<Dataset, PersistError> {
    if bytes.len() < BINARY_MAGIC.len() + 4 || bytes[..4] != BINARY_MAGIC {
        return Err(PersistError::format("missing QDSB magic"));
    }
    let body = &bytes[4..bytes.len() - 4];
    let mut crc_reader = ByteReader::new(&bytes[bytes.len() - 4..]);
    let stored_crc = crc_reader.u32().expect("4 bytes sliced");
    let actual = Crc32::checksum(body);
    if stored_crc != actual {
        return Err(PersistError::format(format!(
            "checksum mismatch: stored {stored_crc:#010x}, computed {actual:#010x}"
        )));
    }
    let mut r = ByteReader::new(body);
    let truncated = || PersistError::format("truncated body");
    let version = r.u32().ok_or_else(truncated)?;
    if version != BINARY_VERSION {
        return Err(PersistError::format(format!(
            "unsupported binary version {version} (expected {BINARY_VERSION})"
        )));
    }
    let dim = r.u32().ok_or_else(truncated)? as usize;
    let count = usize::try_from(r.u64().ok_or_else(truncated)?)
        .map_err(|_| PersistError::format("count overflows usize"))?;
    let images_per_category = usize::try_from(r.u64().ok_or_else(truncated)?)
        .map_err(|_| PersistError::format("images_per_category overflows usize"))?;
    if count == 0 || dim == 0 {
        return Err(PersistError::format("empty dataset"));
    }
    let expected = count
        .checked_mul(dim)
        .and_then(|n| n.checked_mul(8))
        .and_then(|n| n.checked_add(count * 16))
        .ok_or_else(|| PersistError::format("size arithmetic overflow"))?;
    if r.remaining() != expected {
        return Err(PersistError::format(format!(
            "body holds {} bytes of records, expected {expected}",
            r.remaining()
        )));
    }
    let mut vectors = Vec::with_capacity(count);
    for _ in 0..count {
        let mut v = Vec::with_capacity(dim);
        for _ in 0..dim {
            v.push(r.f64().ok_or_else(truncated)?);
        }
        vectors.push(v);
    }
    let read_labels = |r: &mut ByteReader<'_>| -> Result<Vec<usize>, PersistError> {
        (0..count)
            .map(|_| {
                usize::try_from(r.u64().ok_or_else(truncated)?)
                    .map_err(|_| PersistError::format("label overflows usize"))
            })
            .collect()
    };
    let categories = read_labels(&mut r)?;
    let super_categories = read_labels(&mut r)?;
    Ok(Dataset::from_parts(
        vectors,
        categories,
        super_categories,
        images_per_category,
    ))
}

/// Loads a dataset from either format, sniffing the leading magic:
/// `QDSB` selects the binary parser, anything else falls through to
/// JSON.
///
/// # Errors
///
/// Whatever the selected parser returns.
pub fn load_dataset_auto(path: &Path) -> Result<Dataset, PersistError> {
    let file = std::fs::File::open(path)?;
    let mut magic = [0u8; 4];
    let n = {
        let mut file = &file;
        let mut read = 0;
        while read < 4 {
            match file.read(&mut magic[read..])? {
                0 => break,
                k => read += k,
            }
        }
        read
    };
    drop(file);
    if n == 4 && magic == BINARY_MAGIC {
        load_dataset_binary(path)
    } else {
        load_dataset(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcluster_imaging::FeatureKind;

    #[test]
    fn roundtrip_preserves_everything() {
        let ds = Dataset::small_default(FeatureKind::ColorMoments, 3).unwrap();
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        let loaded = read_dataset(buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), ds.len());
        assert_eq!(loaded.dim(), ds.dim());
        assert_eq!(loaded.images_per_category(), ds.images_per_category());
        for i in 0..ds.len() {
            assert_eq!(loaded.vector(i), ds.vector(i));
            assert_eq!(loaded.category(i), ds.category(i));
            assert_eq!(loaded.super_category(i), ds.super_category(i));
        }
        // Rebuilt index answers identically.
        let q = qcluster_index::EuclideanQuery::new(ds.vector(0).to_vec());
        let (a, _) = ds.tree().knn(&q, 10, None);
        let (b, _) = loaded.tree().knn(&q, 10, None);
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(matches!(
            read_dataset("not json".as_bytes()),
            Err(PersistError::Format { .. })
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let json = r#"{"version":99,"vectors":[[0.0]],"categories":[0],"super_categories":[0],"images_per_category":1}"#;
        assert!(matches!(
            read_dataset(json.as_bytes()),
            Err(PersistError::Format { .. })
        ));
    }

    #[test]
    fn rejects_inconsistent_labels() {
        let json = r#"{"version":1,"vectors":[[0.0],[1.0]],"categories":[0],"super_categories":[0,0],"images_per_category":1}"#;
        assert!(matches!(
            read_dataset(json.as_bytes()),
            Err(PersistError::Format { .. })
        ));
    }

    fn tmp_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("qcluster_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_roundtrip() {
        let ds = Dataset::small_default(FeatureKind::ColorMoments, 4).unwrap();
        let path = tmp_dir().join("ds.json");
        save_dataset(&ds, &path).unwrap();
        let loaded = load_dataset(&path).unwrap();
        assert_eq!(loaded.len(), ds.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn format_errors_name_the_file() {
        let path = tmp_dir().join("garbage.json");
        std::fs::write(&path, "definitely not json").unwrap();
        let err = load_dataset(&path).unwrap_err();
        assert!(
            err.to_string().contains("garbage.json"),
            "error should name the file: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_roundtrip_is_bitwise_exact() {
        let ds = Dataset::small_default(FeatureKind::ColorMoments, 5).unwrap();
        let path = tmp_dir().join("ds.qdsb");
        save_dataset_binary(&ds, &path).unwrap();
        let loaded = load_dataset_binary(&path).unwrap();
        assert_eq!(loaded.len(), ds.len());
        assert_eq!(loaded.images_per_category(), ds.images_per_category());
        for i in 0..ds.len() {
            let (a, b) = (ds.vector(i), loaded.vector(i));
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "vector {i} must be bit-exact");
            }
            assert_eq!(loaded.category(i), ds.category(i));
            assert_eq!(loaded.super_category(i), ds.super_category(i));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_detects_corruption() {
        let ds = Dataset::small_default(FeatureKind::ColorMoments, 3).unwrap();
        let path = tmp_dir().join("ds_corrupt.qdsb");
        save_dataset_binary(&ds, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_dataset_binary(&path).unwrap_err();
        assert!(matches!(err, PersistError::Format { path: Some(_), .. }));
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn auto_load_sniffs_both_formats() {
        let ds = Dataset::small_default(FeatureKind::ColorMoments, 3).unwrap();
        let dir = tmp_dir();
        let json = dir.join("auto.json");
        let bin = dir.join("auto.qdsb");
        save_dataset(&ds, &json).unwrap();
        save_dataset_binary(&ds, &bin).unwrap();
        assert_eq!(load_dataset_auto(&json).unwrap().len(), ds.len());
        assert_eq!(load_dataset_auto(&bin).unwrap().len(), ds.len());
        std::fs::remove_file(&json).ok();
        std::fs::remove_file(&bin).ok();
    }
}
