//! `qcluster synth` — the synthetic generators.
//!
//! Two modes:
//!
//! - `qcluster synth images <dir> …` renders the procedural corpus (the
//!   paper's Corel-collection substitute) to a **directory of raw PPM
//!   image files** plus a `manifest.json` carrying the ground-truth
//!   labels — exactly the "raw images" shape `qcluster ingest` starts
//!   from, so the full pipeline runs from files on disk like it would
//!   against a real collection.
//! - `qcluster synth <out.qseg> <n> <dim> …` streams a synthetic
//!   clustered vector corpus straight into a sealed format-v2 segment,
//!   at any `n`, without holding the corpus in memory.

use crate::error::CliError;
use crate::stats::PipelineStats;
use qcluster_imaging::{Corpus, CorpusBuilder};
use qcluster_store::{SegmentWriter, StoreError};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// File name of the label manifest a synthesized image directory
/// carries beside its PPM files.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Ground-truth labels for one image file in a corpus directory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// File name relative to the manifest's directory.
    pub file: String,
    /// Category label.
    pub category: usize,
    /// Super-category label.
    pub super_category: usize,
}

/// The label manifest of an image directory: what the oracle needs to
/// grade retrieval over features extracted from these files.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Manifest format version.
    pub version: u32,
    /// Images per category (constant by corpus construction).
    pub images_per_category: usize,
    /// One entry per image, in corpus id order.
    pub entries: Vec<ManifestEntry>,
}

/// Manifest format version written by this binary.
pub const MANIFEST_VERSION: u32 = 1;

/// Shape of a synthesized image corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthImagesConfig {
    /// Number of categories.
    pub categories: usize,
    /// Images per category.
    pub images_per_category: usize,
    /// Square image edge, pixels.
    pub image_size: usize,
    /// Categories per super-category.
    pub categories_per_super: usize,
    /// Corpus seed.
    pub seed: u64,
}

impl Default for SynthImagesConfig {
    fn default() -> Self {
        // The quick-scale corpus of `qcluster repro`: big enough that
        // feedback has room to improve precision, small enough to render
        // in seconds.
        SynthImagesConfig {
            categories: 60,
            images_per_category: 20,
            image_size: 24,
            categories_per_super: 5,
            seed: 7,
        }
    }
}

impl SynthImagesConfig {
    /// Builds the corpus this config describes.
    pub fn corpus(&self) -> Corpus {
        CorpusBuilder::new()
            .categories(self.categories)
            .images_per_category(self.images_per_category)
            .image_size(self.image_size)
            .categories_per_super(self.categories_per_super)
            .multimodal_fraction(0.4)
            .jitter(0.5)
            .seed(self.seed)
            .build()
    }
}

/// Renders `config`'s corpus into `dir` as PPM files plus
/// `manifest.json`, reporting progress through `stats` (one `render`
/// stage). Returns the number of images written.
///
/// # Errors
///
/// Filesystem failures with path context.
pub fn synth_images(
    dir: &Path,
    config: &SynthImagesConfig,
    stats: &PipelineStats,
) -> Result<usize, CliError> {
    std::fs::create_dir_all(dir).map_err(|e| CliError::io(dir, e))?;
    let corpus = config.corpus();
    let stage = stats.stage("render");
    let n = corpus.len();
    let entries = stats.run_with_progress(Duration::from_secs(1), || -> Result<_, CliError> {
        let mut entries = Vec::with_capacity(n);
        for id in 0..n {
            stage.item_in();
            let file = format!("img{id:06}.ppm");
            let path = dir.join(&file);
            let img = corpus.render_by_id(id);
            let f = std::fs::File::create(&path).map_err(|e| CliError::io(&path, e))?;
            let mut w = std::io::BufWriter::new(f);
            img.write_ppm(&mut w).map_err(|e| CliError::io(&path, e))?;
            w.flush().map_err(|e| CliError::io(&path, e))?;
            stage.add_bytes(std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0));
            entries.push(ManifestEntry {
                file,
                category: corpus.category_of(id),
                super_category: corpus.super_category_of(id),
            });
            stage.item_out();
        }
        Ok(entries)
    })?;
    stage.finish();

    let manifest = Manifest {
        version: MANIFEST_VERSION,
        images_per_category: corpus.images_per_category(),
        entries,
    };
    write_manifest(dir, &manifest)?;
    Ok(n)
}

/// Writes `manifest` into `dir/manifest.json`.
///
/// # Errors
///
/// Filesystem failures with path context.
pub fn write_manifest(dir: &Path, manifest: &Manifest) -> Result<(), CliError> {
    let path = dir.join(MANIFEST_FILE);
    let json = serde_json::to_string_pretty(manifest)
        .map_err(|e| CliError::stage("render", format!("manifest serialization: {e}")))?;
    std::fs::write(&path, json).map_err(|e| CliError::io(&path, e))
}

/// Loads `dir/manifest.json`.
///
/// # Errors
///
/// Missing or malformed manifests, with the path in context.
pub fn read_manifest(dir: &Path) -> Result<Manifest, CliError> {
    let path = dir.join(MANIFEST_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| CliError::io(&path, e))?;
    let manifest: Manifest = serde_json::from_str(&text)
        .map_err(|e| CliError::stage("scan", format!("malformed {}: {e}", path.display())))?;
    if manifest.version != MANIFEST_VERSION {
        return Err(CliError::stage(
            "scan",
            format!(
                "unsupported manifest version {} in {} (expected {MANIFEST_VERSION})",
                manifest.version,
                path.display()
            ),
        ));
    }
    Ok(manifest)
}

/// Streams an `n`-point synthetic clustered corpus point by point into
/// a sealed format-v2 segment at `path` (tile-native columns + u8 code
/// column); only the writer's own column staging buffer is held in
/// memory.
///
/// Points are drawn around `centers` well-separated cluster centers
/// with per-dimension jitter, deterministic in `seed`. Returns the
/// number of points sealed.
///
/// # Errors
///
/// `n == 0` and store failures, rendered with the output path.
pub fn synth_segment(
    path: &Path,
    n: u64,
    dim: usize,
    centers: usize,
    seed: u64,
) -> Result<u64, CliError> {
    let failed = |e: StoreError| CliError::stage("synth", format!("{}: {e}", path.display()));
    if n == 0 {
        return Err(failed(StoreError::InvalidArg(
            "synth corpus needs at least one point".into(),
        )));
    }
    // SplitMix64: cheap enough that generation never dominates a
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
    let mut writer = SegmentWriter::create(path, dim).map_err(failed)?;
    let mut point = vec![0.0f64; dim];
    for i in 0..n {
        let c = &grid[(i % centers as u64) as usize];
        for (x, &base) in point.iter_mut().zip(c.iter()) {
            *x = base + unit() * 2.0 - 1.0;
        }
        writer.append(&point).map_err(failed)?;
    }
    writer.finish().map_err(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qcluster-cli-synth-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn synth_images_writes_ppms_and_manifest() {
        let dir = tmp_dir("images");
        let config = SynthImagesConfig {
            categories: 3,
            images_per_category: 4,
            image_size: 8,
            categories_per_super: 2,
            seed: 5,
        };
        let stats = PipelineStats::new("synth");
        let n = synth_images(&dir, &config, &stats).unwrap();
        assert_eq!(n, 12);
        let manifest = read_manifest(&dir).unwrap();
        assert_eq!(manifest.entries.len(), 12);
        assert_eq!(manifest.images_per_category, 4);
        assert_eq!(manifest.entries[0].category, 0);
        assert_eq!(manifest.entries[11].category, 2);
        // Every listed file decodes back to the rendered image size.
        for entry in &manifest.entries {
            let bytes = std::fs::read(dir.join(&entry.file)).unwrap();
            let img = qcluster_imaging::ImageRgb::read_ppm(bytes.as_slice()).unwrap();
            assert_eq!(img.width(), 8);
        }
        let snap = stats.snapshot();
        assert_eq!(snap[0].items_in, 12);
        assert_eq!(snap[0].items_out, 12);
        assert!(snap[0].bytes > 0);
        assert!(stats.verify_conservation().is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_version_is_checked() {
        let dir = tmp_dir("version");
        let manifest = Manifest {
            version: 99,
            images_per_category: 1,
            entries: vec![],
        };
        write_manifest(&dir, &manifest).unwrap();
        let err = read_manifest(&dir).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
