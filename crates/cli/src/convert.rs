//! `qcluster convert` — re-encode a feature dataset between formats.
//!
//! The output format is chosen by extension: `.json` (JSON dataset),
//! `.qseg` (a raw `qcluster-store` vector segment — ground-truth
//! labels dropped), anything else the binary `QDSB` dataset. The input
//! format is sniffed automatically.

use crate::error::CliError;
use crate::stats::PipelineStats;
use std::path::Path;

/// What the output was encoded as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvertedKind {
    /// JSON dataset with labels.
    Json,
    /// Raw vector segment; labels dropped.
    Segment,
    /// Binary `QDSB` dataset with labels.
    Binary,
}

impl ConvertedKind {
    /// Human-readable description for the CLI summary line.
    pub fn describe(self) -> &'static str {
        match self {
            ConvertedKind::Json => "JSON dataset",
            ConvertedKind::Segment => "vector segment (labels dropped)",
            ConvertedKind::Binary => "binary dataset",
        }
    }
}

/// Result of one conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvertReport {
    /// Vectors converted.
    pub vectors: usize,
    /// Feature dimensionality.
    pub dim: usize,
    /// Output encoding.
    pub kind: ConvertedKind,
}

/// Converts the dataset at `input` to `output`, format by extension.
///
/// # Errors
///
/// Unreadable/malformed inputs or write failures, with paths in
/// context.
pub fn convert(
    input: &Path,
    output: &Path,
    stats: &PipelineStats,
) -> Result<ConvertReport, CliError> {
    let stage = stats.stage("convert");
    stage.item_in();
    stage.add_bytes(std::fs::metadata(input).map(|m| m.len()).unwrap_or(0));
    let dataset = qcluster_eval::load_dataset_auto(input)
        .map_err(|e| CliError::stage("convert", format!("{}: {e}", input.display())))?;
    let kind = match output.extension().and_then(|e| e.to_str()) {
        Some("json") => {
            qcluster_eval::save_dataset(&dataset, output)
                .map_err(|e| CliError::stage("convert", e))?;
            ConvertedKind::Json
        }
        Some("qseg") => {
            qcluster_store::write_segment(output, dataset.dim(), dataset.vectors())
                .map_err(|e| CliError::stage("convert", e))?;
            ConvertedKind::Segment
        }
        _ => {
            qcluster_eval::save_dataset_binary(&dataset, output)
                .map_err(|e| CliError::stage("convert", e))?;
            ConvertedKind::Binary
        }
    };
    stage.add_bytes(std::fs::metadata(output).map(|m| m.len()).unwrap_or(0));
    stage.item_out();
    stage.finish();
    Ok(ConvertReport {
        vectors: dataset.len(),
        dim: dataset.dim(),
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{ingest, IngestConfig, IngestSource};
    use crate::synth::SynthImagesConfig;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qcluster-cli-convert-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn binary_json_segment_round_trip() {
        let dir = tmp_dir("roundtrip");
        let binary = dir.join("features.qdsb");
        ingest(
            &IngestSource::Synth(SynthImagesConfig {
                categories: 3,
                images_per_category: 4,
                image_size: 10,
                categories_per_super: 3,
                seed: 2,
            }),
            &binary,
            &IngestConfig::default(),
            &PipelineStats::new("ingest"),
        )
        .unwrap();

        let json = dir.join("features.json");
        let report = convert(&binary, &json, &PipelineStats::new("convert")).unwrap();
        assert_eq!(report.kind, ConvertedKind::Json);
        assert_eq!(report.vectors, 12);

        let seg = dir.join("features.qseg");
        let report = convert(&json, &seg, &PipelineStats::new("convert")).unwrap();
        assert_eq!(report.kind, ConvertedKind::Segment);

        // Labels survive the dataset formats; the segment keeps vectors.
        let a = qcluster_eval::load_dataset_auto(&binary).unwrap();
        let b = qcluster_eval::load_dataset_auto(&json).unwrap();
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.category(i), b.category(i));
        }
        let mut reader = qcluster_store::SegmentReader::open(&seg).unwrap();
        assert_eq!(reader.dim(), a.dim());
        let flat = reader.read_all_flat().unwrap();
        assert_eq!(flat.len(), a.len() * a.dim());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
