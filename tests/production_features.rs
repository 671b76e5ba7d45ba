//! Integration tests for the production-oriented capabilities that extend
//! the paper's scope: dataset persistence and multi-feature fusion —
//! exercised together, across crates.

use qcluster::core::{QclusterConfig, QclusterEngine};
use qcluster::eval::{persist, Dataset, FeedbackSession, MultiFeatureDataset};
use qcluster::imaging::{CorpusBuilder, FeatureKind};
use qcluster::index::EuclideanQuery;

#[test]
fn persisted_dataset_reproduces_feedback_sessions() {
    let original = Dataset::small_default(FeatureKind::ColorMoments, 55).unwrap();
    let mut buf = Vec::new();
    persist::write_dataset(&original, &mut buf).unwrap();
    let restored = persist::read_dataset(buf.as_slice()).unwrap();

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
fn fusion_over_real_image_features() {
    let corpus = CorpusBuilder::new()
        .categories(10)
        .images_per_category(10)
        .image_size(16)
        .seed(91)
        .build();
    let color = Dataset::from_corpus(&corpus, FeatureKind::ColorMoments).unwrap();
    let texture = Dataset::from_corpus(&corpus, FeatureKind::CooccurrenceTexture).unwrap();
    let stack = MultiFeatureDataset::new(vec![color, texture]);

    let qc = EuclideanQuery::new(stack.feature(0).vector(0).to_vec());
    let qt = EuclideanQuery::new(stack.feature(1).vector(0).to_vec());
    let fused = stack.knn_fused(&[&qc, &qt], &[1.0, 1.0], 10);
    assert_eq!(fused.len(), 10);
    assert_eq!(fused[0].id, 0, "the query image itself ranks first");
    // Fused distances are finite and sorted.
    for w in fused.windows(2) {
        assert!(w[0].distance <= w[1].distance);
        assert!(w[1].distance.is_finite());
    }
}

#[test]
fn fused_ranking_beats_either_feature_alone() {
    // Color and texture fail on different categories, so the 1:1
    // fusion is more precise than either feature on its own.
    let corpus = CorpusBuilder::new()
        .categories(40)
        .images_per_category(20)
        .image_size(24)
        .jitter(0.8)
        .seed(19)
        .build();
    let color = Dataset::from_corpus(&corpus, FeatureKind::ColorMoments).unwrap();
    let texture = Dataset::from_corpus(&corpus, FeatureKind::CooccurrenceTexture).unwrap();
    let stack = MultiFeatureDataset::new(vec![color, texture]);

    let k = 20;
    let mut hits = [0usize; 3]; // color only, texture only, fused
    for q in (0..stack.len()).step_by(53) {
        let qc = EuclideanQuery::new(stack.feature(0).vector(q).to_vec());
        let qt = EuclideanQuery::new(stack.feature(1).vector(q).to_vec());
        for (slot, weights) in [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]].iter().enumerate() {
            hits[slot] += stack
                .knn_fused(&[&qc, &qt], weights, k)
                .iter()
                .filter(|n| stack.category(n.id) == stack.category(q))
                .count();
        }
    }
    assert!(
        hits[2] > hits[0] && hits[2] > hits[1],
        "color {} texture {} fused {}",
        hits[0],
        hits[1],
        hits[2]
    );
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
