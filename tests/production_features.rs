//! Integration tests for the production-oriented capabilities that extend
//! the paper's scope: dataset persistence (the QDSB file format) and every
//! feature kind — exercised together, across crates.

use qcluster::core::{QclusterConfig, QclusterEngine};
use qcluster::eval::{persist, Dataset, FeedbackSession};
use qcluster::imaging::{CorpusBuilder, FeatureKind};
use qcluster::index::EuclideanQuery;

#[test]
fn persisted_dataset_reproduces_feedback_sessions() {
    let original = Dataset::small_default(FeatureKind::ColorMoments, 55).unwrap();
    let path = std::env::temp_dir().join(format!("qcluster_features_{}.qdsb", std::process::id()));
    persist::save_dataset(&original, &path).unwrap();
    let restored = persist::load_dataset(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // An identical feedback session over original and restored datasets
    // must retrieve identical results at every iteration.
    let mut engine = QclusterEngine::new(QclusterConfig::default());
    let a = FeedbackSession::new(&original, 15)
        .run(&mut engine, 3, 3)
        .unwrap();
    let b = FeedbackSession::new(&restored, 15)
        .run(&mut engine, 3, 3)
        .unwrap();
    for (x, y) in a.iterations.iter().zip(b.iterations.iter()) {
        assert_eq!(x.retrieved, y.retrieved);
    }
}

#[test]
fn all_four_feature_kinds_build_consistent_datasets() {
    let corpus = CorpusBuilder::new()
        .categories(6)
        .images_per_category(6)
        .image_size(16)
        .seed(17)
        .build();
    for kind in [
        FeatureKind::ColorMoments,
        FeatureKind::CooccurrenceTexture,
        FeatureKind::ColorHistogram,
        FeatureKind::ColorLayout,
    ] {
        let ds = Dataset::from_corpus(&corpus, kind).unwrap();
        assert_eq!(ds.len(), 36, "{kind:?}");
        assert_eq!(ds.dim(), kind.reduced_dim(), "{kind:?}");
        let q = EuclideanQuery::new(ds.vector(0).to_vec());
        let (nn, _) = ds.tree().knn(&q, 5, None);
        assert_eq!(nn[0].id, 0, "{kind:?}: self is nearest");
    }
}
