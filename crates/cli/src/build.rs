//! `qcluster build` — feature file → durable, quantized segment store.
//!
//! ```text
//! load ──▶ seal ──▶ verify
//! ```
//!
//! `load` reads the reduced feature dataset `qcluster ingest` wrote.
//! `seal` bootstraps an empty [`qcluster_store::VectorStore`] with the
//! vectors, which writes them straight into a sealed **format-v2
//! segment** (columnar + u8 scalar quantization, no WAL traffic).
//! `verify` re-opens the directory and checks the recovered corpus
//! matches what was sealed — the same recovery path `qcluster serve`
//! will take.
//!
//! Ground-truth labels stay in the feature file: the store holds only
//! vectors, ids equal dataset order, and `qcluster eval` joins them
//! back for oracle grading.

use crate::error::CliError;
use crate::stats::PipelineStats;
use qcluster_store::{StoreConfig, VectorStore};
use std::path::Path;

/// What one build produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildReport {
    /// Vectors sealed into segments.
    pub vectors: u64,
    /// Feature dimensionality.
    pub dim: usize,
    /// Sealed segment files.
    pub segments: u64,
}

/// Builds the durable store at `dir` from the feature dataset at
/// `features`.
///
/// # Errors
///
/// Unreadable/malformed feature files, a non-empty store directory
/// (builds are from-scratch — point at a fresh directory), store I/O,
/// or a verify mismatch.
pub fn build(features: &Path, dir: &Path, stats: &PipelineStats) -> Result<BuildReport, CliError> {
    let load = stats.stage("load");
    let seal = stats.stage("seal");
    let verify = stats.stage("verify");

    load.item_in();
    load.add_bytes(std::fs::metadata(features).map(|m| m.len()).unwrap_or(0));
    let dataset = qcluster_eval::load_dataset(features).map_err(|e| CliError::stage("load", e))?;
    load.item_out();
    load.finish();

    let points: Vec<Vec<f64>> = (0..dataset.len())
        .map(|i| dataset.vector(i).to_vec())
        .collect();
    seal.items_in(points.len() as u64);
    let (mut store, recovered) = VectorStore::open(dir, StoreConfig::default())
        .map_err(|e| CliError::stage("seal", format!("{}: {e}", dir.display())))?;
    if !recovered.vectors.is_empty() {
        return Err(CliError::stage(
            "seal",
            format!(
                "{} already holds {} vectors — build into a fresh directory",
                dir.display(),
                recovered.vectors.len()
            ),
        ));
    }
    store
        .bootstrap(&points)
        .map_err(|e| CliError::stage("seal", e))?;
    let store_stats = store.stats();
    seal.items_out(store_stats.segment_vectors);
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "qseg") {
                seal.add_bytes(std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0));
            }
        }
    }
    seal.finish();
    drop(store);

    // Verify through the same recovery path `serve` uses.
    verify.items_in(points.len() as u64);
    let (_reopened, recovered) = VectorStore::open(dir, StoreConfig::default())
        .map_err(|e| CliError::stage("verify", format!("{}: {e}", dir.display())))?;
    if recovered.vectors.len() != points.len() {
        return Err(CliError::stage(
            "verify",
            format!(
                "recovered {} vectors but sealed {}",
                recovered.vectors.len(),
                points.len()
            ),
        ));
    }
    // Spot-check roundtrip fidelity on the corners (v2 segments store
    // exact f64 rows alongside the quantized scan columns).
    for &i in &[0, points.len() / 2, points.len() - 1] {
        if recovered.vectors[i] != points[i] {
            return Err(CliError::stage(
                "verify",
                format!("vector {i} changed across seal/recover"),
            ));
        }
    }
    verify.items_out(recovered.vectors.len() as u64);
    verify.finish();

    stats.verify_conservation()?;
    Ok(BuildReport {
        vectors: store_stats.segment_vectors,
        dim: dataset.dim(),
        segments: store_stats.segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{ingest, IngestConfig, IngestSource};
    use crate::synth::SynthImagesConfig;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qcluster-cli-build-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_features(dir: &std::path::Path) -> std::path::PathBuf {
        let out = dir.join("features.qdsb");
        let cfg = SynthImagesConfig {
            categories: 4,
            images_per_category: 6,
            image_size: 12,
            categories_per_super: 2,
            seed: 3,
        };
        ingest(
            &IngestSource::Synth(cfg),
            &out,
            &IngestConfig::default(),
            &PipelineStats::new("ingest"),
        )
        .unwrap();
        out
    }

    #[test]
    fn build_seals_and_recovers() {
        let dir = tmp_dir("seal");
        let features = small_features(&dir);
        let store_dir = dir.join("store");
        let stats = PipelineStats::new("build");
        let report = build(&features, &store_dir, &stats).unwrap();
        assert_eq!(report.vectors, 24);
        assert_eq!(report.dim, 3);
        assert_eq!(report.segments, 1);
        assert!(stats.verify_conservation().is_ok());
        // The sealed store recovers byte-identical vectors.
        let (_s, recovered) = VectorStore::open(&store_dir, StoreConfig::default()).unwrap();
        assert_eq!(recovered.vectors.len(), 24);
        let ds = qcluster_eval::load_dataset(&features).unwrap();
        assert_eq!(recovered.vectors[7], ds.vector(7));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebuilding_into_a_populated_dir_is_refused() {
        let dir = tmp_dir("refuse");
        let features = small_features(&dir);
        let store_dir = dir.join("store");
        build(&features, &store_dir, &PipelineStats::new("build")).unwrap();
        let err = build(&features, &store_dir, &PipelineStats::new("build")).unwrap_err();
        assert!(err.to_string().contains("already holds"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A features file that is missing, or is not a dataset (JSON, say),
    /// is a load error naming its path exactly once.
    #[test]
    fn an_unloadable_features_file_is_named_once() {
        let dir = tmp_dir("unloadable");
        let json = dir.join("f.json");
        std::fs::write(&json, "{\"vectors\": []}").unwrap();
        for features in [dir.join("missing.qdsb"), json] {
            let err = build(&features, &dir.join("store"), &PipelineStats::new("build"))
                .unwrap_err()
                .to_string();
            let name = features.display().to_string();
            assert_eq!(err.matches(&name).count(), 1, "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
