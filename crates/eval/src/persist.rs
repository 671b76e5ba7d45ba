//! Dataset persistence.
//!
//! Building a dataset is the expensive step of every experiment: rendering
//! tens of thousands of images and extracting color-moment/GLCM features
//! takes orders of magnitude longer than the retrieval runs themselves.
//! This module serializes a prepared [`Dataset`] (vectors + ground truth;
//! the index is rebuilt on load, which is fast) so a corpus can be
//! prepared once and reused across experiment invocations and by external
//! tooling. The one on-disk encoding is **QDSB** ([`save_dataset`]/
//! [`load_dataset`]): a CRC-checked fixed-width format reusing the
//! `qcluster-store` codec, with bit-exact `f64` round-trips.

use crate::dataset::Dataset;
use qcluster_store::codec::{put_f64, put_u32, put_u64, ByteReader, Crc32};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Leading magic of the dataset format.
const MAGIC: [u8; 4] = *b"QDSB";
/// Version of the dataset format.
const VERSION: u32 = 1;

/// Errors from dataset persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io {
        /// The file read or written.
        path: PathBuf,
        /// What the filesystem said.
        source: std::io::Error,
    },
    /// Malformed or incompatible file contents.
    Format {
        /// The offending file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io { path, source } => {
                write!(f, "I/O failure on {}: {source}", path.display())
            }
            PersistError::Format { path, detail } => {
                write!(f, "format error in {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            PersistError::Format { .. } => None,
        }
    }
}

impl PersistError {
    fn io(path: &Path) -> impl FnOnce(std::io::Error) -> PersistError + '_ {
        move |source| PersistError::Io {
            path: path.to_path_buf(),
            source,
        }
    }
}

/// Saves a dataset: a `QDSB` header, fixed-width `f64` vectors and
/// `u64` labels, and a trailing CRC-32 over the body. Round-trips are
/// bit-exact.
///
/// # Errors
///
/// I/O failures, naming `path`.
pub fn save_dataset(dataset: &Dataset, path: &Path) -> Result<(), PersistError> {
    let mut body = Vec::with_capacity(16 + dataset.len() * (dataset.dim() * 8 + 16));
    put_u32(&mut body, VERSION);
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
    let mut tail = Vec::with_capacity(4);
    put_u32(&mut tail, Crc32::checksum(&body));
    let write = || {
        let mut writer = std::io::BufWriter::new(std::fs::File::create(path)?);
        writer.write_all(&MAGIC)?;
        writer.write_all(&body)?;
        writer.write_all(&tail)?;
        writer.flush()
    };
    write().map_err(PersistError::io(path))
}

/// Loads a dataset, validating the magic, version, CRC, length
/// arithmetic and finiteness of every component before rebuilding the
/// index.
///
/// # Errors
///
/// `Io` or, for any corruption, `Format`, each naming `path`.
pub fn load_dataset(path: &Path) -> Result<Dataset, PersistError> {
    let bytes = std::fs::read(path).map_err(PersistError::io(path))?;
    parse(&bytes).map_err(|detail| PersistError::Format {
        path: path.to_path_buf(),
        detail,
    })
}

fn parse(bytes: &[u8]) -> Result<Dataset, String> {
    if bytes.len() < MAGIC.len() + 4 || bytes[..4] != MAGIC {
        return Err("missing QDSB magic".to_string());
    }
    let body = &bytes[4..bytes.len() - 4];
    let mut crc_reader = ByteReader::new(&bytes[bytes.len() - 4..]);
    let stored_crc = crc_reader.u32().expect("4 bytes sliced");
    let actual = Crc32::checksum(body);
    if stored_crc != actual {
        return Err(format!(
            "checksum mismatch: stored {stored_crc:#010x}, computed {actual:#010x}"
        ));
    }
    let mut r = ByteReader::new(body);
    let truncated = || "truncated body".to_string();
    let version = r.u32().ok_or_else(truncated)?;
    if version != VERSION {
        return Err(format!(
            "unsupported version {version} (expected {VERSION})"
        ));
    }
    let dim = r.u32().ok_or_else(truncated)? as usize;
    let count = usize::try_from(r.u64().ok_or_else(truncated)?)
        .map_err(|_| "count overflows usize".to_string())?;
    let images_per_category = usize::try_from(r.u64().ok_or_else(truncated)?)
        .map_err(|_| "images_per_category overflows usize".to_string())?;
    if count == 0 || dim == 0 {
        return Err("empty dataset".to_string());
    }
    let expected = count
        .checked_mul(dim)
        .and_then(|n| n.checked_mul(8))
        .and_then(|n| n.checked_add(count.checked_mul(16)?))
        .ok_or_else(|| "size arithmetic overflow".to_string())?;
    if r.remaining() != expected {
        return Err(format!(
            "body holds {} bytes of records, expected {expected}",
            r.remaining()
        ));
    }
    let mut vectors = Vec::with_capacity(count);
    for i in 0..count {
        let mut v = Vec::with_capacity(dim);
        for j in 0..dim {
            let x = r.f64().ok_or_else(truncated)?;
            if !x.is_finite() {
                return Err(format!("vector {i} component {j} is not finite"));
            }
            v.push(x);
        }
        vectors.push(v);
    }
    let read_labels = |r: &mut ByteReader<'_>| -> Result<Vec<usize>, String> {
        (0..count)
            .map(|_| {
                usize::try_from(r.u64().ok_or_else(truncated)?)
                    .map_err(|_| "label overflows usize".to_string())
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

#[cfg(test)]
mod tests {
    use super::*;
    use qcluster_imaging::FeatureKind;

    fn tmp_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("qcluster_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Asserts that loading `path` is a format error naming `path`
    /// whose detail contains `needle`, then removes the file.
    fn assert_rejected(path: &Path, needle: &str) {
        match load_dataset(path) {
            Err(PersistError::Format { path: p, detail }) => {
                assert_eq!(p, path);
                assert!(detail.contains(needle), "{detail}");
            }
            other => panic!("expected a format error, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    /// Frames `body` as a CRC-valid QDSB file and asserts it is rejected.
    fn assert_body_rejected(name: &str, body: &[u8], needle: &str) {
        let path = tmp_dir().join(name);
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(body);
        put_u32(&mut bytes, Crc32::checksum(body));
        std::fs::write(&path, &bytes).unwrap();
        assert_rejected(&path, needle);
    }

    /// A QDSB body header: version, dim, count, images per category.
    fn header(version: u32, dim: u32, count: u64) -> Vec<u8> {
        let mut body = Vec::new();
        put_u32(&mut body, version);
        put_u32(&mut body, dim);
        put_u64(&mut body, count);
        put_u64(&mut body, 1);
        body
    }

    #[test]
    fn binary_roundtrip_is_bitwise_exact() {
        let ds = Dataset::small_default(FeatureKind::ColorMoments, 5).unwrap();
        let path = tmp_dir().join("ds.qdsb");
        save_dataset(&ds, &path).unwrap();
        let loaded = load_dataset(&path).unwrap();
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
    fn roundtrip_preserves_everything() {
        let ds = Dataset::small_default(FeatureKind::ColorMoments, 3).unwrap();
        let path = tmp_dir().join("ds_everything.qdsb");
        save_dataset(&ds, &path).unwrap();
        let loaded = load_dataset(&path).unwrap();
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
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_detects_corruption() {
        let ds = Dataset::small_default(FeatureKind::ColorMoments, 3).unwrap();
        let path = tmp_dir().join("ds_corrupt.qdsb");
        save_dataset(&ds, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_dataset(&path).unwrap_err();
        assert!(matches!(err, PersistError::Format { .. }));
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn format_errors_name_the_file() {
        let path = tmp_dir().join("garbage.qdsb");
        std::fs::write(&path, "definitely not a dataset").unwrap();
        let err = load_dataset(&path).unwrap_err();
        assert!(
            err.to_string().contains("garbage.qdsb"),
            "error should name the file: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_malformed_json() {
        // A JSON dataset is refused by its first bytes.
        let json = r#"{"version":1,"vectors":[[0.0]],"categories":[0],"super_categories":[0],"images_per_category":1}"#;
        let path = tmp_dir().join("features.json");
        std::fs::write(&path, json).unwrap();
        assert_rejected(&path, "missing QDSB magic");
    }

    #[test]
    fn rejects_wrong_version() {
        let mut body = header(99, 1, 1);
        put_f64(&mut body, 0.0);
        put_u64(&mut body, 0);
        put_u64(&mut body, 0);
        assert_body_rejected("v99.qdsb", &body, "unsupported version 99");
    }

    #[test]
    fn rejects_inconsistent_labels() {
        // Two vectors but one super-category label: the record block is
        // short of what the shared count promises.
        let mut body = header(VERSION, 1, 2);
        put_f64(&mut body, 0.0);
        put_f64(&mut body, 1.0);
        put_u64(&mut body, 0);
        put_u64(&mut body, 0);
        put_u64(&mut body, 0);
        assert_body_rejected("labels.qdsb", &body, "expected 48");
    }

    #[test]
    fn huge_count_is_a_format_error_not_an_overflow() {
        let body = header(VERSION, 1, 1 << 60);
        assert_body_rejected("huge.qdsb", &body, "size arithmetic overflow");
    }

    #[test]
    fn non_finite_component_is_a_format_error() {
        let mut body = header(VERSION, 2, 2);
        for x in [0.0, 1.0, 2.0, f64::NAN] {
            put_f64(&mut body, x);
        }
        for _ in 0..4 {
            put_u64(&mut body, 0);
        }
        assert_body_rejected("nan.qdsb", &body, "vector 1 component 1 is not finite");
    }
}
