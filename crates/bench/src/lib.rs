//! Shared workload constructors for the benchmark harness and the
//! `repro` binary.
//!
//! Every experiment runs at one of two scales:
//!
//! - [`Scale::Quick`] — minutes-scale parameters for CI and iteration;
//! - [`Scale::Paper`] — the paper's parameters (30,000-image corpus, 100
//!   queries × 5 iterations, 100 pairs per table cell), for the full
//!   reproduction run recorded in EXPERIMENTS.md.

#![warn(missing_docs)]

use qcluster_eval::synthetic::SemanticGapConfig;
use qcluster_eval::Dataset;
use qcluster_imaging::{Corpus, CorpusBuilder, FeatureKind};

/// Workload scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down parameters (fast; same shapes).
    Quick,
    /// The paper's parameters.
    Paper,
}

impl Scale {
    /// Parses `--paper-scale`-style flags.
    pub fn from_args(args: &[String]) -> Scale {
        if args.iter().any(|a| a == "--paper-scale" || a == "--paper") {
            Scale::Paper
        } else {
            Scale::Quick
        }
    }
}

/// The synthetic image corpus (the Corel-collection substitute).
///
/// Paper scale: 200 categories × 100 images = 20,000 images. The paper's
/// collection had 300 categories, but its real photos discriminate
/// categories through far richer structure than 3 PCA'd color dims can
/// carry for procedural palettes; past ~200 synthetic categories the
/// color feature saturates and every method floors together (see
/// EXPERIMENTS.md). Quick scale: 60 × 20 = 1,200.
pub fn image_corpus(scale: Scale) -> Corpus {
    match scale {
        Scale::Quick => CorpusBuilder::new()
            .categories(60)
            .images_per_category(20)
            .image_size(24)
            .categories_per_super(5)
            .multimodal_fraction(0.4)
            .jitter(0.5)
            .seed(7)
            .build(),
        Scale::Paper => CorpusBuilder::new()
            .categories(200)
            .images_per_category(100)
            .image_size(32)
            .categories_per_super(5)
            .multimodal_fraction(0.4)
            .jitter(0.35)
            .seed(7)
            .build(),
    }
}

/// The image-feature dataset for a given feature kind.
pub fn image_dataset(scale: Scale, kind: FeatureKind) -> Dataset {
    Dataset::from_corpus(&image_corpus(scale), kind).expect("feature pipeline builds")
}

/// The semantic-gap retrieval workload (headline comparison dataset).
///
/// The disjunctive-query phenomenon depends on data DENSITY (DESIGN.md §4
/// and `SemanticGapConfig` docs), so even the quick scale keeps the point
/// count high enough (7,500) that the in-between region of a category's
/// modes contains competing images.
pub fn semantic_gap_dataset(scale: Scale) -> Dataset {
    let config = match scale {
        Scale::Quick => SemanticGapConfig {
            categories: 150,
            ..SemanticGapConfig::default()
        },
        Scale::Paper => SemanticGapConfig::default(),
    };
    Dataset::semantic_gap(&config)
}

/// The retrieval workload for the headline (semantic-gap) comparison —
/// k is fixed to the category size (the paper sets k = 100 with ~100
/// images per category).
pub fn headline_workload(scale: Scale) -> qcluster_eval::experiments::fig6::Fig6Config {
    match scale {
        Scale::Quick => qcluster_eval::experiments::fig6::Fig6Config {
            num_queries: 25,
            iterations: 5,
            k: 50,
            seed: 17,
        },
        Scale::Paper => qcluster_eval::experiments::fig6::Fig6Config {
            num_queries: 100,
            iterations: 5,
            k: 50,
            seed: 17,
        },
    }
}

/// The retrieval workload shape (queries × iterations × k) per scale.
pub fn workload(scale: Scale) -> qcluster_eval::experiments::fig6::Fig6Config {
    match scale {
        Scale::Quick => qcluster_eval::experiments::fig6::Fig6Config {
            num_queries: 15,
            iterations: 3,
            k: 30,
            seed: 17,
        },
        Scale::Paper => qcluster_eval::experiments::fig6::Fig6Config::paper_scale(),
    }
}

/// Host + build fingerprint embedded in every `BENCH_*.json` artifact,
/// one `"key": value,` line per field at the given indent.
///
/// Core-count-gated acceptance bars (e.g. the transport bench's
/// deferred ≥2-core 3× pipelining gate) must stay auditable from the
/// artifact alone: the JSON records how many cores the host had, what
/// the build targeted (`target_cpu` mirrors the workspace
/// `.cargo/config.toml` pin, `target_features` proves it took effect),
/// and when the run happened.
pub fn host_fingerprint_json(indent: &str) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut features: Vec<&str> = Vec::new();
    #[cfg(target_feature = "avx2")]
    features.push("avx2");
    #[cfg(target_feature = "fma")]
    features.push("fma");
    #[cfg(target_feature = "sse4.2")]
    features.push("sse4.2");
    #[cfg(target_feature = "neon")]
    features.push("neon");
    format!(
        "{indent}\"cores\": {cores},\n\
         {indent}\"arch\": \"{arch}\",\n\
         {indent}\"target_cpu\": \"native\",\n\
         {indent}\"target_features\": [{features}],\n\
         {indent}\"unix_timestamp\": {timestamp},\n",
        arch = std::env::consts::ARCH,
        features = features
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", "),
    )
}

/// Streams a synthetic clustered corpus point-by-point into a sealed
/// format-v2 segment (tile-native columns + u8 code column); only the
/// writer's own column staging buffer is held in memory.
///
/// Points are drawn around `centers` well-separated cluster centers
/// with per-dimension jitter, deterministic in `seed` — the same shape
/// the quantize bench queries, at any `n`. This is how the 10M-point
/// corpus for `BENCH_quantize.json` is produced (`dataset-tool synth`
/// wraps it on the command line).
///
/// # Errors
///
/// `InvalidArg` for `n == 0` / `dim == 0`, otherwise I/O failures from
/// the segment writer.
pub fn synth_segment(
    path: &std::path::Path,
    n: u64,
    dim: usize,
    centers: usize,
    seed: u64,
) -> Result<u64, qcluster_store::StoreError> {
    if n == 0 {
        return Err(qcluster_store::StoreError::InvalidArg(
            "synth corpus needs at least one point".into(),
        ));
    }
    // SplitMix64: cheap enough that generation never dominates the
    // 10M-point run, unlike a cryptographic stream.
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;

    let centers = centers.max(1);
    let grid: Vec<Vec<f64>> = (0..centers)
        .map(|_| (0..dim).map(|_| unit() * 20.0 - 10.0).collect())
        .collect();
    let mut writer = qcluster_store::SegmentWriter::create(path, dim)?;
    let mut point = vec![0.0f64; dim];
    for i in 0..n {
        let c = &grid[(i % centers as u64) as usize];
        for (x, &base) in point.iter_mut().zip(c.iter()) {
            *x = base + unit() * 2.0 - 1.0;
        }
        writer.append(&point)?;
    }
    writer.finish()
}

/// Serializes one service [`MetricsSnapshot`](qcluster_service::MetricsSnapshot)
/// into the shared metrics
/// artifact schema:
///
/// ```json
/// { "bench": "<name>", <host fingerprint…>, "metrics": { …snapshot… } }
/// ```
///
/// The `metrics` value is the serde serialization of `MetricsSnapshot`
/// itself — the exact bytes a wire `Request::Stats` round-trip carries —
/// so the soak report, one-shot scrapes of a live server, and any
/// external monitoring that polls `Stats` all parse **one** schema and
/// can be diffed against each other field-for-field.
pub fn metrics_artifact_json(
    bench: &str,
    snapshot: &qcluster_service::MetricsSnapshot,
) -> Result<String, serde_json::Error> {
    let metrics = serde_json::to_string_pretty(snapshot)?;
    Ok(format!(
        "{{\n  \"bench\": \"{bench}\",\n{fingerprint}  \"metrics\": {metrics}\n}}\n",
        fingerprint = host_fingerprint_json("  "),
    ))
}

/// Writes [`metrics_artifact_json`] to `path` (one-shot `Stats` dump).
///
/// # Errors
///
/// Serialization or filesystem failures, as `std::io::Error`.
pub fn write_metrics_artifact(
    path: impl AsRef<std::path::Path>,
    bench: &str,
    snapshot: &qcluster_service::MetricsSnapshot,
) -> std::io::Result<()> {
    let json = metrics_artifact_json(bench, snapshot)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_artifact_is_valid_json_with_fingerprint_and_snapshot() {
        let service = qcluster_service::Service::new(
            &[
                vec![0.0, 0.0],
                vec![1.0, 1.0],
                vec![2.0, 2.0],
                vec![3.0, 3.0],
            ],
            qcluster_service::ServiceConfig {
                num_shards: 2,
                num_workers: 1,
                ..qcluster_service::ServiceConfig::default()
            },
        )
        .unwrap();
        let json = metrics_artifact_json("stats", &service.stats()).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value.get("bench").and_then(|v| v.as_str()), Some("stats"));
        assert!(value.get("cores").is_some());
        assert!(value.get("unix_timestamp").is_some());
        // The embedded metrics round-trip back into the snapshot type:
        // one schema for the artifact and the wire.
        let metrics = serde_json::to_string(value.get("metrics").unwrap()).unwrap();
        let decoded: qcluster_service::MetricsSnapshot = serde_json::from_str(&metrics).unwrap();
        assert_eq!(decoded, service.stats());
    }

    #[test]
    fn host_fingerprint_records_auditable_host_facts() {
        let json = host_fingerprint_json("  ");
        assert!(json.contains("\"cores\": "));
        assert!(json.contains("\"target_cpu\": \"native\""));
        assert!(json.contains("\"unix_timestamp\": "));
        assert!(json.contains(std::env::consts::ARCH));
        // Every line must be a complete `"key": value,` fragment so the
        // benches can splice it into hand-built JSON objects.
        for line in json.lines() {
            assert!(line.trim_end().ends_with(','), "fragment line: {line:?}");
        }
    }

    #[test]
    fn quick_scale_datasets_build() {
        let ds = semantic_gap_dataset(Scale::Quick);
        assert_eq!(ds.len(), 150 * 50);
        let img = image_dataset(Scale::Quick, FeatureKind::ColorMoments);
        assert_eq!(img.len(), 1200);
        assert_eq!(img.dim(), 3);
    }

    #[test]
    fn scale_flag_parses() {
        assert_eq!(Scale::from_args(&["--paper-scale".into()]), Scale::Paper);
        assert_eq!(Scale::from_args(&[]), Scale::Quick);
    }
}
