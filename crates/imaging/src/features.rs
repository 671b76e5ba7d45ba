//! End-to-end feature pipeline: render → extract → PCA-reduce → normalize.
//!
//! Mirrors the paper's setup (Sec. 5): color moments are extracted in HSV
//! and "reduce\[d\] … to three using the principal component analysis"; the
//! 16-element co-occurrence texture vector is reduced to four. The PCA is
//! fitted on the whole corpus (the database side knows its own data), and
//! each reduced dimension is standardized to unit variance so that no
//! single principal axis dominates the initial (identity-weighted) query.

use crate::corpus::Corpus;
use crate::glcm::texture_features;
use crate::moments::color_moments;
use qcluster_linalg::{Matrix, Pca};

/// Which visual feature to extract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureKind {
    /// HSV color moments: 9 raw dims → 3 after PCA (paper Sec. 5).
    ColorMoments,
    /// GLCM texture statistics: 16 raw dims → 4 after PCA (paper Sec. 5).
    CooccurrenceTexture,
    /// Quantized HSV color histogram: 32 raw dims → 6 after PCA — the
    /// classic QBIC/MARS color feature (see [`crate::histogram`]).
    ColorHistogram,
    /// Spatial color layout: 2×2 grid of per-cell HSV mean/σ, 24 raw dims
    /// → 6 after PCA (see [`crate::layout`]).
    ColorLayout,
}

impl FeatureKind {
    /// Raw (pre-PCA) dimensionality.
    pub fn raw_dim(self) -> usize {
        match self {
            FeatureKind::ColorMoments => crate::moments::COLOR_MOMENT_DIM,
            FeatureKind::CooccurrenceTexture => crate::glcm::TEXTURE_DIM,
            FeatureKind::ColorHistogram => crate::histogram::HISTOGRAM_DIM,
            FeatureKind::ColorLayout => crate::layout::LAYOUT_DIM,
        }
    }

    /// Reduced dimensionality used by the retrieval experiments.
    pub fn reduced_dim(self) -> usize {
        match self {
            FeatureKind::ColorMoments => 3,
            FeatureKind::CooccurrenceTexture => 4,
            FeatureKind::ColorHistogram => 6,
            FeatureKind::ColorLayout => 6,
        }
    }
}

/// Extracts the raw (pre-PCA) feature vector of `kind` from one image —
/// the per-image step of [`FeatureSet::build`], exposed for pipelines
/// that stream images from disk instead of rendering a whole [`Corpus`]
/// in memory.
pub fn raw_features(kind: FeatureKind, img: &crate::image::ImageRgb) -> Vec<f64> {
    match kind {
        FeatureKind::ColorMoments => color_moments(img),
        FeatureKind::CooccurrenceTexture => texture_features(img),
        FeatureKind::ColorHistogram => crate::histogram::color_histogram(img),
        FeatureKind::ColorLayout => crate::layout::color_layout(img),
    }
}

/// A fitted pipeline: the PCA model plus per-component scale factors.
#[derive(Debug, Clone)]
pub struct FeaturePipeline {
    kind: FeatureKind,
    pca: Pca,
    /// 1/σ of each retained principal component over the training corpus.
    inv_scale: Vec<f64>,
}

impl FeaturePipeline {
    /// Fits the pipeline on raw feature rows (one image per row).
    ///
    /// # Errors
    ///
    /// Propagates PCA fitting errors (fewer than two images).
    pub fn fit(kind: FeatureKind, raw: &Matrix) -> qcluster_linalg::Result<Self> {
        let pca = Pca::fit(raw)?;
        let k = kind.reduced_dim().min(raw.cols());
        let inv_scale = pca.eigenvalues()[..k]
            .iter()
            .map(|&l| if l > 1e-12 { 1.0 / l.sqrt() } else { 1.0 })
            .collect();
        Ok(FeaturePipeline {
            kind,
            pca,
            inv_scale,
        })
    }

    /// The feature kind this pipeline was fitted for.
    pub fn kind(&self) -> FeatureKind {
        self.kind
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.inv_scale.len()
    }

    /// Fraction of raw-feature variance retained by the kept components.
    pub fn retained_variance(&self) -> f64 {
        self.pca.retained_variance(self.dim())
    }

    /// Projects one raw feature vector to the reduced, standardized space.
    pub fn transform(&self, raw: &[f64]) -> Vec<f64> {
        let mut z = self.pca.transform(raw, self.dim());
        for (zi, &s) in z.iter_mut().zip(self.inv_scale.iter()) {
            *zi *= s;
        }
        z
    }
}

/// The reduced feature vectors of an entire corpus, plus ground truth.
#[derive(Debug, Clone)]
pub struct FeatureSet {
    kind: FeatureKind,
    /// One reduced feature vector per image, indexed by global image id.
    vectors: Vec<Vec<f64>>,
    /// Category of each image.
    categories: Vec<usize>,
    /// Super-category of each image.
    super_categories: Vec<usize>,
    pipeline: FeaturePipeline,
}

impl FeatureSet {
    /// Renders every image of `corpus`, extracts `kind` features, fits the
    /// PCA pipeline, and returns the reduced vectors with ground truth.
    ///
    /// This is the expensive corpus-preparation step; the result should be
    /// built once and shared across experiments.
    ///
    /// # Errors
    ///
    /// Propagates PCA fitting errors.
    pub fn build(corpus: &Corpus, kind: FeatureKind) -> qcluster_linalg::Result<Self> {
        let n = corpus.len();
        let p = kind.raw_dim();

        // Rendering + extraction dominates corpus preparation and is
        // embarrassingly parallel (each image is independent); fan out
        // over the available cores with scoped threads.
        let threads = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
            .min(n.max(1));
        let chunk = n.div_ceil(threads);
        let extract = |id: usize| -> Vec<f64> { raw_features(kind, &corpus.render_by_id(id)) };
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
        if threads <= 1 || n < 64 {
            rows.extend((0..n).map(extract));
        } else {
            let mut parts: Vec<Vec<Vec<f64>>> = Vec::with_capacity(threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .step_by(chunk)
                    .map(|start| {
                        let end = (start + chunk).min(n);
                        scope.spawn(move || (start..end).map(extract).collect::<Vec<_>>())
                    })
                    .collect();
                for h in handles {
                    parts.push(h.join().expect("extraction thread panicked"));
                }
            });
            rows.extend(parts.into_iter().flatten());
        }

        let mut raw = Matrix::zeros(n, p);
        let mut categories = Vec::with_capacity(n);
        let mut super_categories = Vec::with_capacity(n);
        for (id, f) in rows.iter().enumerate() {
            raw.row_mut(id).copy_from_slice(f);
            categories.push(corpus.category_of(id));
            super_categories.push(corpus.super_category_of(id));
        }
        let pipeline = FeaturePipeline::fit(kind, &raw)?;
        let vectors = (0..n).map(|id| pipeline.transform(raw.row(id))).collect();
        Ok(FeatureSet {
            kind,
            vectors,
            categories,
            super_categories,
            pipeline,
        })
    }

    /// The feature kind.
    pub fn kind(&self) -> FeatureKind {
        self.kind
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Reduced dimensionality.
    pub fn dim(&self) -> usize {
        self.pipeline.dim()
    }

    /// The reduced feature vector of image `id`.
    pub fn vector(&self, id: usize) -> &[f64] {
        &self.vectors[id]
    }

    /// All reduced feature vectors, indexed by image id.
    pub fn vectors(&self) -> &[Vec<f64>] {
        &self.vectors
    }

    /// Category label of image `id`.
    pub fn category(&self, id: usize) -> usize {
        self.categories[id]
    }

    /// Super-category label of image `id`.
    pub fn super_category(&self, id: usize) -> usize {
        self.super_categories[id]
    }

    /// The fitted pipeline (e.g. to transform query images not in the
    /// corpus).
    pub fn pipeline(&self) -> &FeaturePipeline {
        &self.pipeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;

    fn tiny_corpus() -> Corpus {
        CorpusBuilder::new()
            .categories(4)
            .images_per_category(5)
            .image_size(16)
            .seed(11)
            .build()
    }

    #[test]
    fn color_feature_set_shape() {
        let fs = FeatureSet::build(&tiny_corpus(), FeatureKind::ColorMoments).unwrap();
        assert_eq!(fs.len(), 20);
        assert_eq!(fs.dim(), 3);
        assert!(fs.vectors().iter().all(|v| v.len() == 3));
        assert_eq!(fs.category(0), 0);
        assert_eq!(fs.category(19), 3);
    }

    #[test]
    fn texture_feature_set_shape() {
        let fs = FeatureSet::build(&tiny_corpus(), FeatureKind::CooccurrenceTexture).unwrap();
        assert_eq!(fs.dim(), 4);
        assert!(fs.vectors().iter().all(|v| v.iter().all(|x| x.is_finite())));
    }

    #[test]
    fn histogram_feature_set_shape() {
        let fs = FeatureSet::build(&tiny_corpus(), FeatureKind::ColorHistogram).unwrap();
        assert_eq!(fs.dim(), 6);
        assert!(fs.vectors().iter().all(|v| v.iter().all(|x| x.is_finite())));
    }

    #[test]
    fn layout_feature_set_shape() {
        let fs = FeatureSet::build(&tiny_corpus(), FeatureKind::ColorLayout).unwrap();
        assert_eq!(fs.dim(), 6);
        assert!(fs.vectors().iter().all(|v| v.iter().all(|x| x.is_finite())));
    }

    #[test]
    fn pipeline_retains_most_variance() {
        let fs = FeatureSet::build(&tiny_corpus(), FeatureKind::ColorMoments).unwrap();
        // The paper targets 1−ε ≥ 0.85; our synthetic corpus should be
        // comfortably above one-half with 3 of 9 components.
        assert!(
            fs.pipeline().retained_variance() > 0.5,
            "retained {}",
            fs.pipeline().retained_variance()
        );
    }

    #[test]
    fn reduced_components_are_standardized() {
        let fs = FeatureSet::build(&tiny_corpus(), FeatureKind::ColorMoments).unwrap();
        let n = fs.len() as f64;
        for d in 0..fs.dim() {
            let mean: f64 = fs.vectors().iter().map(|v| v[d]).sum::<f64>() / n;
            let var: f64 = fs
                .vectors()
                .iter()
                .map(|v| (v[d] - mean) * (v[d] - mean))
                .sum::<f64>()
                / (n - 1.0);
            assert!(mean.abs() < 1e-9, "dim {d} mean {mean}");
            assert!((var - 1.0).abs() < 1e-6, "dim {d} variance {var}");
        }
    }

    #[test]
    fn transform_matches_precomputed_vectors() {
        let corpus = tiny_corpus();
        let fs = FeatureSet::build(&corpus, FeatureKind::ColorMoments).unwrap();
        let raw = crate::moments::color_moments(&corpus.render_by_id(7));
        let z = fs.pipeline().transform(&raw);
        for (a, b) in z.iter().zip(fs.vector(7).iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
