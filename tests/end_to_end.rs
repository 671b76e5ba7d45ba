//! End-to-end integration: procedural corpus → feature extraction →
//! hybrid-tree index → Qcluster feedback loop → retrieval quality.

use qcluster::core::{QclusterConfig, QclusterEngine};
use qcluster::eval::pr::pr_at;
use qcluster::eval::{Dataset, FeedbackSession};
use qcluster::imaging::{CorpusBuilder, FeatureKind};

fn dataset(kind: FeatureKind) -> Dataset {
    let corpus = CorpusBuilder::new()
        .categories(15)
        .images_per_category(12)
        .image_size(20)
        .seed(33)
        .build();
    Dataset::from_corpus(&corpus, kind).expect("pipeline builds")
}

#[test]
fn full_pipeline_color_feature() {
    let ds = dataset(FeatureKind::ColorMoments);
    assert_eq!(ds.len(), 180);
    assert_eq!(ds.dim(), 3);

    let session = FeedbackSession::new(&ds, 12);
    let mut engine = QclusterEngine::new(QclusterConfig::default());
    let outcome = session.run(&mut engine, 5, 3).expect("session runs");
    assert_eq!(outcome.iterations.len(), 4);

    // Quality after feedback must be at least as good as the initial
    // query's, averaged over several starting images.
    let mut init = 0.0;
    let mut fin = 0.0;
    for q in (0..ds.len()).step_by(23) {
        let outcome = session.run(&mut engine, q, 3).expect("session runs");
        let cat = ds.category(q);
        let depth = outcome.iterations[0].retrieved.len();
        init += pr_at(&ds, cat, &outcome.iterations[0].retrieved, depth).precision;
        let last = outcome.iterations.last().expect("non-empty");
        fin += pr_at(&ds, cat, &last.retrieved, last.retrieved.len()).precision;
    }
    assert!(
        fin >= init * 0.95,
        "feedback degraded quality: {init} -> {fin}"
    );
}

#[test]
fn full_pipeline_texture_feature() {
    let ds = dataset(FeatureKind::CooccurrenceTexture);
    assert_eq!(ds.dim(), 4);
    let session = FeedbackSession::new(&ds, 12);
    let mut engine = QclusterEngine::new(QclusterConfig::default());
    let outcome = session.run(&mut engine, 0, 2).expect("session runs");
    assert!(outcome
        .iterations
        .iter()
        .all(|r| r.retrieved.len() == 12 && r.num_marked > 0));
}

#[test]
fn engine_state_survives_many_sessions() {
    // One engine reused across queries (reset each time) must not leak
    // state between sessions.
    let ds = dataset(FeatureKind::ColorMoments);
    let session = FeedbackSession::new(&ds, 10);
    let mut engine = QclusterEngine::new(QclusterConfig::default());
    let first = session.run(&mut engine, 0, 2).expect("runs");
    let _other = session.run(&mut engine, 50, 2).expect("runs");
    let again = session.run(&mut engine, 0, 2).expect("runs");
    for (a, b) in first.iterations.iter().zip(again.iterations.iter()) {
        assert_eq!(a.retrieved, b.retrieved, "sessions must be independent");
    }
}

#[test]
fn retrieved_ids_are_valid_and_unique() {
    let ds = dataset(FeatureKind::ColorMoments);
    let session = FeedbackSession::new(&ds, 15);
    let mut engine = QclusterEngine::new(QclusterConfig::default());
    let outcome = session.run(&mut engine, 7, 3).expect("runs");
    for rec in &outcome.iterations {
        let mut seen = std::collections::HashSet::new();
        for &id in &rec.retrieved {
            assert!(id < ds.len(), "id {id} out of range");
            assert!(seen.insert(id), "duplicate id {id} in one result set");
        }
    }
}

#[test]
fn multimodal_category_is_kept_as_separate_clusters() {
    // The paper's Example 1: "bird" images come in two visual modes
    // (light-green and dark-blue backgrounds). Every category here is
    // such a two-mode category; feedback must keep the modes apart as
    // separate clusters and keep retrieving both.
    let corpus = CorpusBuilder::new()
        .categories(60)
        .images_per_category(20)
        .image_size(24)
        .multimodal_fraction(1.0)
        .jitter(0.5)
        .seed(7)
        .build();
    let ds = Dataset::from_corpus(&corpus, FeatureKind::ColorMoments).expect("features build");
    let per = corpus.images_per_category();
    let category = ds.category(0);
    let mode = |id: usize| corpus.mode_of(category, id % per);

    let mut engine = QclusterEngine::new(QclusterConfig::default());
    let outcome = FeedbackSession::new(&ds, 30)
        .run(&mut engine, 0, 4)
        .expect("session runs");
    let last = outcome.iterations.last().expect("non-empty");
    let relevant: Vec<usize> = last
        .retrieved
        .iter()
        .copied()
        .filter(|&id| ds.category(id) == category)
        .collect();
    for m in 0..2 {
        assert!(
            relevant.iter().any(|&id| mode(id) == m),
            "mode {m} lost: {relevant:?}"
        );
    }
    // Each mode has a cluster whose same-category members are mostly
    // from that mode: the two modes stay separate representatives.
    let majority_modes: Vec<usize> = engine
        .clusters()
        .iter()
        .filter_map(|c| {
            let ids = c.members().iter().map(|p| p.id);
            let (a, b) =
                ids.filter(|&id| ds.category(id) == category)
                    .fold((0, 0), |(a, b), id| {
                        if mode(id) == 0 {
                            (a + 1, b)
                        } else {
                            (a, b + 1)
                        }
                    });
            (a != b).then_some(if a > b { 0 } else { 1 })
        })
        .collect();
    for m in 0..2 {
        assert!(
            majority_modes.contains(&m),
            "no cluster stands for mode {m}: {majority_modes:?}"
        );
    }
}
