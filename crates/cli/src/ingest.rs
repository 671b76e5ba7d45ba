//! `qcluster ingest` — raw images → reduced feature dataset, as a
//! bounded multi-threaded stage pipeline.
//!
//! ```text
//! scan ──▶ decode (×W) ──▶ extract (×W) ──▶ reduce (PCA) ──▶ write
//! ```
//!
//! `scan` walks the source (an image directory's `manifest.json`, or
//! the in-memory synthetic generator) and streams work items through a
//! bounded channel, so memory stays flat no matter the corpus size up
//! to the PCA barrier. `decode` workers read and parse each PPM —
//! corrupt, truncated, or zero-byte files are **skipped and counted**
//! with a typed per-file error ([`SkippedFile`]), never aborting the
//! run. `extract` computes the raw feature vector (HSV color moments,
//! GLCM texture, …). `reduce` is the pipeline's one barrier: the
//! paper's PCA is fitted on the whole corpus, so every raw row must
//! exist before projection. `write` persists the reduced vectors plus
//! ground truth as a `qcluster-eval` dataset (binary or JSON by
//! extension).
//!
//! Every stage accounts items in/out/skipped, bytes, and wall time
//! through the shared [`PipelineStats`] reporter.

use crate::error::{CliError, SkipReason, SkippedFile};
use crate::stats::{PipelineStats, StageHandle};
use crate::synth::{read_manifest, SynthImagesConfig};
use qcluster_eval::{save_dataset, save_dataset_binary, Dataset};
use qcluster_imaging::{raw_features, Corpus, FeatureKind, FeaturePipeline, ImageRgb};
use qcluster_linalg::Matrix;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How the ingest pipeline obtains raw images.
#[derive(Debug, Clone)]
pub enum IngestSource {
    /// A directory of PPM files with a `manifest.json` beside them.
    Images(PathBuf),
    /// The in-memory synthetic generator (no files touched).
    Synth(SynthImagesConfig),
}

/// Ingest tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Which visual feature to extract.
    pub features: FeatureKind,
    /// Worker threads per fanned-out stage (`0` = available cores).
    pub workers: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            features: FeatureKind::ColorMoments,
            workers: 0,
        }
    }
}

/// What one ingest run produced.
#[derive(Debug)]
pub struct IngestReport {
    /// Images that made it into the dataset.
    pub images: usize,
    /// Files skipped with their typed reasons (also counted in the
    /// `decode` stage's `skipped`).
    pub skipped: Vec<SkippedFile>,
    /// Reduced feature dimensionality.
    pub dim: usize,
    /// Fraction of raw-feature variance the kept components retain.
    pub retained_variance: f64,
}

/// One unit of work flowing scan → decode.
struct ScanItem {
    seq: usize,
    /// `None` for synthetic sources (decode renders by id instead).
    path: Option<PathBuf>,
    category: usize,
    super_category: usize,
}

/// One decoded image flowing decode → extract.
struct DecodedItem {
    seq: usize,
    img: ImageRgb,
    category: usize,
    super_category: usize,
}

/// One raw feature row flowing extract → reduce.
struct RawRow {
    seq: usize,
    raw: Vec<f64>,
    category: usize,
    super_category: usize,
}

/// Loads one source image: reads + decodes a PPM file, or renders the
/// synthetic corpus image. File problems come back as typed
/// [`SkipReason`]s; only the decode *stage* sees them.
fn load_image(
    item: &ScanItem,
    corpus: Option<&Corpus>,
    decode: &StageHandle,
) -> Result<ImageRgb, SkipReason> {
    let Some(path) = &item.path else {
        // Synthetic render: procedural, cannot fail.
        let corpus = corpus.expect("synthetic scan items carry a corpus");
        return Ok(corpus.render_by_id(item.seq));
    };
    let bytes = std::fs::read(path).map_err(SkipReason::Io)?;
    if bytes.is_empty() {
        return Err(SkipReason::Empty);
    }
    decode.add_bytes(bytes.len() as u64);
    ImageRgb::read_ppm(bytes.as_slice()).map_err(|e| SkipReason::Decode(e.to_string()))
}

/// Runs the staged ingest pipeline, writing the reduced dataset to
/// `out` (`.json` → JSON, anything else → the binary `QDSB` format).
///
/// # Errors
///
/// Source/manifest problems, PCA failure (fewer than two decodable
/// images), write failures, or a conservation violation in the
/// pipeline's own accounting. Per-file image problems are *not*
/// errors: they are skipped, counted, and reported.
pub fn ingest(
    source: &IngestSource,
    out: &Path,
    config: &IngestConfig,
    stats: &PipelineStats,
) -> Result<IngestReport, CliError> {
    // Resolve the source into scan items up front (cheap: labels only).
    let (items, corpus, images_per_category) = match source {
        IngestSource::Images(dir) => {
            let manifest = read_manifest(dir)?;
            let items: Vec<ScanItem> = manifest
                .entries
                .iter()
                .enumerate()
                .map(|(seq, e)| ScanItem {
                    seq,
                    path: Some(dir.join(&e.file)),
                    category: e.category,
                    super_category: e.super_category,
                })
                .collect();
            (items, None, manifest.images_per_category)
        }
        IngestSource::Synth(cfg) => {
            let corpus = cfg.corpus();
            let per_category = corpus.images_per_category();
            let items: Vec<ScanItem> = (0..corpus.len())
                .map(|seq| ScanItem {
                    seq,
                    path: None,
                    category: corpus.category_of(seq),
                    super_category: corpus.super_category_of(seq),
                })
                .collect();
            (items, Some(corpus), per_category)
        }
    };
    if items.is_empty() {
        return Err(CliError::stage("scan", "source holds no images"));
    }

    let workers = if config.workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        config.workers
    }
    .clamp(1, 64);

    let scan = stats.stage("scan");
    let decode = stats.stage("decode");
    let extract = stats.stage("extract");
    let reduce = stats.stage("reduce");
    let write = stats.stage("write");

    let kind = config.features;
    let skipped: Mutex<Vec<SkippedFile>> = Mutex::new(Vec::new());
    let rows: Mutex<Vec<RawRow>> = Mutex::new(Vec::with_capacity(items.len()));

    stats.run_with_progress(Duration::from_secs(1), || {
        // Bounded hand-offs keep the resident set flat: at most
        // `2 * workers` decoded images exist at once regardless of
        // corpus size. A stage's workers share its receiver; the last
        // one to drop its handle disconnects the stage upstream.
        let (scan_tx, scan_rx) = sync_channel::<ScanItem>(workers * 4);
        let scan_rx = Arc::new(Mutex::new(scan_rx));
        let (decode_tx, decode_rx) = sync_channel::<DecodedItem>(workers * 2);
        let decode_rx = Arc::new(Mutex::new(decode_rx));
        std::thread::scope(|scope| {
            // scan: stream the work list.
            scope.spawn(|| {
                for item in items {
                    scan.item_in();
                    if scan_tx.send(item).is_err() {
                        // Downstream died; its own error surfaces below.
                        return;
                    }
                    scan.item_out();
                }
                drop(scan_tx);
            });
            // decode ×W: read + parse (or render), skip-and-count bad files.
            for _ in 0..workers {
                let rx = Arc::clone(&scan_rx);
                let tx = decode_tx.clone();
                let decode = decode.clone();
                let corpus = corpus.as_ref();
                let skipped = &skipped;
                scope.spawn(move || {
                    while let Some(item) = recv(&rx) {
                        decode.item_in();
                        match load_image(&item, corpus, &decode) {
                            Ok(img) => {
                                decode.item_out();
                                if tx
                                    .send(DecodedItem {
                                        seq: item.seq,
                                        img,
                                        category: item.category,
                                        super_category: item.super_category,
                                    })
                                    .is_err()
                                {
                                    return;
                                }
                            }
                            Err(reason) => {
                                let skip = SkippedFile {
                                    path: item.path.unwrap_or_default(),
                                    reason,
                                };
                                eprintln!("  [ingest] skipping {skip}");
                                decode.skip();
                                lock(skipped).push(skip);
                            }
                        }
                    }
                });
            }
            drop(scan_rx);
            drop(decode_tx);
            // extract ×W: raw feature rows into the barrier buffer.
            for _ in 0..workers {
                let rx = Arc::clone(&decode_rx);
                let extract = extract.clone();
                let rows = &rows;
                scope.spawn(move || {
                    while let Some(item) = recv(&rx) {
                        extract.item_in();
                        let raw = raw_features(kind, &item.img);
                        lock(rows).push(RawRow {
                            seq: item.seq,
                            raw,
                            category: item.category,
                            super_category: item.super_category,
                        });
                        extract.item_out();
                    }
                });
            }
            drop(decode_rx);
        });
    });
    scan.finish();
    decode.finish();
    extract.finish();

    // reduce: the PCA barrier. Restore deterministic corpus order first
    // so the dataset (and every downstream id) is independent of worker
    // scheduling.
    let mut rows = rows.into_inner().unwrap_or_else(|e| e.into_inner());
    rows.sort_by_key(|r| r.seq);
    reduce.items_in(rows.len() as u64);
    if rows.len() < 2 {
        return Err(CliError::stage(
            "reduce",
            format!(
                "PCA needs at least 2 decodable images, got {} ({} skipped)",
                rows.len(),
                lock(&skipped).len()
            ),
        ));
    }
    let mut raw = Matrix::zeros(rows.len(), kind.raw_dim());
    for (i, row) in rows.iter().enumerate() {
        raw.row_mut(i).copy_from_slice(&row.raw);
    }
    let pipeline = FeaturePipeline::fit(kind, &raw)
        .map_err(|e| CliError::stage("reduce", format!("PCA fit failed: {e}")))?;
    let vectors: Vec<Vec<f64>> = (0..rows.len())
        .map(|i| pipeline.transform(raw.row(i)))
        .collect();
    reduce.items_out(vectors.len() as u64);
    reduce.finish();

    // write: persist vectors + ground truth as an eval dataset.
    write.items_in(vectors.len() as u64);
    let dataset = Dataset::from_parts(
        vectors,
        rows.iter().map(|r| r.category).collect(),
        rows.iter().map(|r| r.super_category).collect(),
        images_per_category,
    );
    let json = out.extension().and_then(|e| e.to_str()) == Some("json");
    let result = if json {
        save_dataset(&dataset, out)
    } else {
        save_dataset_binary(&dataset, out)
    };
    result.map_err(|e| CliError::stage("write", e))?;
    write.items_out(dataset.len() as u64);
    write.add_bytes(std::fs::metadata(out).map(|m| m.len()).unwrap_or(0));
    write.finish();

    stats.verify_conservation()?;
    Ok(IngestReport {
        images: dataset.len(),
        skipped: skipped.into_inner().unwrap_or_else(|e| e.into_inner()),
        dim: dataset.dim(),
        retained_variance: pipeline.retained_variance(),
    })
}

/// The next item of a stage's shared receiver (`None` once senders are gone).
fn recv<T>(rx: &Mutex<Receiver<T>>) -> Option<T> {
    lock(rx).recv().ok()
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Parses a feature-kind name (`color`, `texture`, `histogram`,
/// `layout`).
///
/// # Errors
///
/// [`CliError::Usage`] naming the valid values.
pub fn parse_feature_kind(name: &str) -> Result<FeatureKind, CliError> {
    match name {
        "color" | "moments" => Ok(FeatureKind::ColorMoments),
        "texture" | "glcm" => Ok(FeatureKind::CooccurrenceTexture),
        "histogram" => Ok(FeatureKind::ColorHistogram),
        "layout" => Ok(FeatureKind::ColorLayout),
        other => Err(CliError::Usage(format!(
            "unknown feature kind {other:?} (expected color, texture, histogram, or layout)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synth_images;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qcluster-cli-ingest-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_synth() -> SynthImagesConfig {
        SynthImagesConfig {
            categories: 4,
            images_per_category: 6,
            image_size: 12,
            categories_per_super: 2,
            seed: 3,
        }
    }

    #[test]
    fn synth_source_ingests_without_files() {
        let dir = tmp_dir("synth-src");
        let out = dir.join("features.qdsb");
        let stats = PipelineStats::new("ingest");
        let report = ingest(
            &IngestSource::Synth(small_synth()),
            &out,
            &IngestConfig::default(),
            &stats,
        )
        .unwrap();
        assert_eq!(report.images, 24);
        assert!(report.skipped.is_empty());
        assert_eq!(report.dim, 3);
        let ds = qcluster_eval::load_dataset_auto(&out).unwrap();
        assert_eq!(ds.len(), 24);
        assert_eq!(ds.category(23), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn images_source_matches_in_memory_features() {
        // Rendering to disk and ingesting back must produce the same
        // dataset as the in-memory FeatureSet path (PPM is lossless).
        let dir = tmp_dir("roundtrip");
        let images = dir.join("images");
        let cfg = small_synth();
        synth_images(&images, &cfg, &PipelineStats::new("synth")).unwrap();
        let out = dir.join("features.qdsb");
        let stats = PipelineStats::new("ingest");
        let report = ingest(
            &IngestSource::Images(images),
            &out,
            &IngestConfig::default(),
            &stats,
        )
        .unwrap();
        assert_eq!(report.images, 24);
        let from_files = qcluster_eval::load_dataset_auto(&out).unwrap();
        let direct = Dataset::from_corpus(&cfg.corpus(), FeatureKind::ColorMoments).unwrap();
        assert_eq!(from_files.len(), direct.len());
        for i in 0..direct.len() {
            assert_eq!(from_files.category(i), direct.category(i));
            for (a, b) in from_files.vector(i).iter().zip(direct.vector(i)) {
                assert!((a - b).abs() < 1e-9, "image {i}: {a} vs {b}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_skipped_and_counted_not_fatal() {
        let dir = tmp_dir("corrupt");
        let images = dir.join("images");
        synth_images(&images, &small_synth(), &PipelineStats::new("synth")).unwrap();
        // Sabotage three files three different ways.
        let truncated = images.join("img000001.ppm");
        let bytes = std::fs::read(&truncated).unwrap();
        std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
        std::fs::write(images.join("img000005.ppm"), b"").unwrap();
        std::fs::write(images.join("img000010.ppm"), b"GIF89a not a ppm").unwrap();

        let out = dir.join("features.qdsb");
        let stats = PipelineStats::new("ingest");
        let report = ingest(
            &IngestSource::Images(images),
            &out,
            &IngestConfig::default(),
            &stats,
        )
        .unwrap();
        assert_eq!(report.images, 21);
        assert_eq!(report.skipped.len(), 3);
        // Typed reasons with the path in context.
        let rendered: Vec<String> = report.skipped.iter().map(|s| s.to_string()).collect();
        assert!(rendered.iter().any(|s| s.contains("img000001.ppm")));
        assert!(
            rendered
                .iter()
                .any(|s| s.contains("img000005.ppm") && s.contains("zero-byte")),
            "{rendered:?}"
        );
        assert!(rendered
            .iter()
            .any(|s| s.contains("img000010.ppm") && s.contains("undecodable")));
        // Conservation holds with skips: decode in = out + skipped.
        let decode = &stats.snapshot()[1];
        assert_eq!(decode.stage, "decode");
        assert_eq!(decode.items_in, 24);
        assert_eq!(decode.items_out, 21);
        assert_eq!(decode.skipped, 3);
        assert!(stats.verify_conservation().is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn too_few_decodable_images_is_a_typed_stage_error() {
        let dir = tmp_dir("empty");
        let images = dir.join("images");
        std::fs::create_dir_all(&images).unwrap();
        crate::synth::write_manifest(
            &images,
            &crate::synth::Manifest {
                version: crate::synth::MANIFEST_VERSION,
                images_per_category: 1,
                entries: vec![crate::synth::ManifestEntry {
                    file: "missing.ppm".into(),
                    category: 0,
                    super_category: 0,
                }],
            },
        )
        .unwrap();
        let stats = PipelineStats::new("ingest");
        let err = ingest(
            &IngestSource::Images(images),
            &dir.join("out.qdsb"),
            &IngestConfig::default(),
            &stats,
        )
        .unwrap_err();
        assert!(err.to_string().contains("at least 2"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn feature_kind_names_parse() {
        assert_eq!(
            parse_feature_kind("color").unwrap(),
            FeatureKind::ColorMoments
        );
        assert_eq!(
            parse_feature_kind("texture").unwrap(),
            FeatureKind::CooccurrenceTexture
        );
        assert!(parse_feature_kind("nope").is_err());
    }
}
