//! Quality ablations of the design choices DESIGN.md §7 calls out.
//!
//! Three sweeps, all on the semantic-gap workload (the dataset where the
//! disjunctive structure matters):
//!
//! 1. **Aggregate rule** — the paper fixes the fuzzy-OR harmonic form
//!    (Eq. 5, α = −2 over distances); we swap the combination rule over
//!    the *same* engine clusters: convex (α = 1), multi-focal, fuzzy OR
//!    with α ∈ {−1, −2, −5}. Expectation: the ORs win, the convex cover
//!    loses, steeper α ≈ nearest-cluster behavior.
//! 2. **Covariance scheme** — diagonal vs full inverse retrieval quality
//!    (the quality half of Fig. 6's claim "its performance is similar").
//! 3. **Merge forcing** — `max_relaxations` 0 vs forced merging to the
//!    target count (the cost/quality trade of Algorithm 3's step 8).

use crate::dataset::Dataset;
use crate::experiments::fig10_13::run_method;
use crate::experiments::fig6::{query_ids, Fig6Config};
use crate::pr::ScoreTable;
use crate::session::FeedbackSession;
use crate::user::SimulatedUser;
use qcluster_baselines::{AggregateKind, MultiPointQuery, RetrievalMethod};
use qcluster_core::{CoreError, CovarianceScheme, FeedbackPoint, QclusterConfig, QclusterEngine};
use qcluster_index::{EuclideanQuery, FanoutQuery};

/// Workload parameters (shared shape with Fig. 6).
pub type AblationConfig = Fig6Config;

/// One ablation row: a variant label and its final-iteration mean recall.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Mean recall per iteration (index 0 = initial).
    pub recall: Vec<f64>,
}

impl AblationRow {
    /// Final-iteration recall.
    pub fn final_recall(&self) -> f64 {
        *self.recall.last().expect("non-empty")
    }
}

/// Sweep 1: the aggregate combination rule over identical engine clusters.
///
/// The engine's feedback loop runs normally (classification + merging with
/// Eq. 5), but each iteration's *retrieval* query is re-compiled under the
/// ablated aggregate, so the sweep isolates the combination rule.
pub fn aggregate_rule_sweep(dataset: &Dataset, config: &AblationConfig) -> Vec<AblationRow> {
    [
        ("convex (α=+1)", AggregateKind::Convex),
        ("multi-focal", AggregateKind::MultiFocal),
        ("fuzzy OR α=-1", AggregateKind::FuzzyOr { alpha: -1.0 }),
        ("fuzzy OR α=-2", AggregateKind::FuzzyOr { alpha: -2.0 }),
        ("fuzzy OR α=-5", AggregateKind::FuzzyOr { alpha: -5.0 }),
    ]
    .into_iter()
    .map(|(label, kind)| {
        let mut method = AblatedAggregate {
            engine: QclusterEngine::new(QclusterConfig::default()),
            kind,
        };
        AblationRow {
            variant: label.into(),
            recall: run_method(dataset, config, &mut method).recall,
        }
    })
    .collect()
}

/// Qcluster with its retrieval query swapped: the engine clusters as
/// usual, and `query` combines those clusters under the ablated
/// aggregate.
struct AblatedAggregate {
    engine: QclusterEngine,
    kind: AggregateKind,
}

impl RetrievalMethod for AblatedAggregate {
    fn name(&self) -> &'static str {
        "qcluster-ablated-aggregate"
    }

    fn feed(&mut self, relevant: &[FeedbackPoint]) -> qcluster_core::Result<()> {
        self.engine.feed(relevant)
    }

    fn query(&self) -> qcluster_core::Result<Box<dyn FanoutQuery>> {
        if self.engine.clusters().is_empty() {
            return Err(CoreError::NoClusters);
        }
        Ok(Box::new(MultiPointQuery::from_clusters(
            self.engine.clusters(),
            self.engine.config().scheme.lambda(),
            self.kind,
        )))
    }

    fn reset(&mut self) {
        self.engine.reset()
    }
}

/// Sweep 2: retrieval quality of the diagonal vs full-inverse scheme.
pub fn scheme_quality_sweep(dataset: &Dataset, config: &AblationConfig) -> Vec<AblationRow> {
    [
        ("diagonal", CovarianceScheme::default_diagonal()),
        ("full inverse", CovarianceScheme::default_full()),
    ]
    .into_iter()
    .map(|(label, scheme)| {
        let mut engine = QclusterEngine::new(QclusterConfig {
            scheme,
            ..QclusterConfig::default()
        });
        AblationRow {
            variant: label.into(),
            recall: run_method(dataset, config, &mut engine).recall,
        }
    })
    .collect()
}

/// Sweep 3: merge forcing (Algorithm 3's α-relaxation) on vs off.
pub fn merge_forcing_sweep(dataset: &Dataset, config: &AblationConfig) -> Vec<AblationRow> {
    [
        ("no forcing (relax=0)", 0usize, 5usize),
        ("forced to 3 clusters", 50, 3),
        ("forced to 1 cluster", 200, 1),
    ]
    .into_iter()
    .map(|(label, max_relaxations, target_clusters)| {
        let mut engine = QclusterEngine::new(QclusterConfig {
            max_relaxations,
            target_clusters,
            ..QclusterConfig::default()
        });
        AblationRow {
            variant: label.into(),
            recall: run_method(dataset, config, &mut engine).recall,
        }
    })
    .collect()
}

/// Sweep 4: QPM's Rocchio negative-feedback weight γ. The simulated user
/// additionally marks every *non-relevant* retrieved image as a negative
/// example (score 1); γ = 0 reduces to the standard positive-only QPM.
/// Negatives have no place in the closed loop's `feed`, so this sweep
/// keeps a loop of its own around the shared marking rule.
pub fn negative_feedback_sweep(dataset: &Dataset, config: &AblationConfig) -> Vec<AblationRow> {
    let k = config.k.min(dataset.len());
    [0.0, 0.25, 0.5, 1.0]
        .into_iter()
        .map(|gamma| {
            let mut table = ScoreTable::new(config.iterations + 1);
            for q in query_ids(dataset, config) {
                run_qpm_with_negatives(dataset, q, config.iterations, k, gamma, &mut table);
            }
            AblationRow {
                variant: format!("qpm gamma={gamma}"),
                recall: table.rows().iter().map(|r| r.mean_recall).collect(),
            }
        })
        .collect()
}

fn run_qpm_with_negatives(
    dataset: &Dataset,
    query_image: usize,
    iterations: usize,
    k: usize,
    gamma: f64,
    table: &mut ScoreTable,
) {
    use qcluster_baselines::QueryPointMovement;
    let cat = dataset.category(query_image);
    let user = SimulatedUser::new(dataset, cat);
    let oracle = crate::oracle::RelevanceOracle::new(dataset);
    let mut method = QueryPointMovement::new().with_gamma(gamma);

    let initial = EuclideanQuery::new(dataset.vector(query_image).to_vec());
    let (nn, _) = dataset.tree().knn(&initial, k, None);
    let mut retrieved: Vec<usize> = nn.iter().map(|n| n.id).collect();
    table.observe(dataset, cat, 0, &retrieved, k);

    for it in 1..=iterations {
        let marked = user.mark_or_example(&retrieved, query_image);
        let negatives: Vec<FeedbackPoint> = retrieved
            .iter()
            .filter(|&&id| oracle.score(cat, id) == 0.0)
            .map(|&id| FeedbackPoint::new(id, dataset.vector(id).to_vec(), 1.0))
            .collect();
        method.feed(&marked).expect("feeds");
        if !negatives.is_empty() {
            method.feed_negative(&negatives).expect("feeds negatives");
        }
        let query = method.query().expect("compiles");
        let (nn, _) = dataset.tree().knn(&query, k, None);
        retrieved = nn.iter().map(|n| n.id).collect();
        table.observe(dataset, cat, it, &retrieved, k);
    }
}

/// Sec. 4.5 clustering-quality report: run Qcluster sessions and measure
/// the leave-one-out misclassification rate of each final clustering.
pub fn clustering_quality(dataset: &Dataset, config: &AblationConfig) -> (f64, f64) {
    let k = config.k.min(dataset.len());
    let session = FeedbackSession::new(dataset, k);
    let queries = query_ids(dataset, config);
    let mut total_error = 0.0;
    let mut total_clusters = 0.0;
    for &q in &queries {
        let mut engine = QclusterEngine::new(QclusterConfig::default());
        session
            .run(&mut engine, q, config.iterations)
            .expect("runs");
        let err = qcluster_core::leave_one_out_error_rate(
            engine.clusters(),
            engine.config().scheme,
            engine.config().alpha,
        )
        .expect("quality computes");
        total_error += err;
        total_clusters += engine.num_clusters() as f64;
    }
    let n = queries.len() as f64;
    (total_error / n, total_clusters / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SemanticGapConfig;

    fn dataset() -> Dataset {
        Dataset::semantic_gap(&SemanticGapConfig {
            categories: 60,
            per_mode: 12,
            ..SemanticGapConfig::default()
        })
    }

    fn cfg() -> AblationConfig {
        AblationConfig {
            num_queries: 10,
            iterations: 3,
            k: 24,
            seed: 5,
        }
    }

    #[test]
    fn fuzzy_or_beats_convex_on_disjunctive_data() {
        let ds = dataset();
        let rows = aggregate_rule_sweep(&ds, &cfg());
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.variant.starts_with(label))
                .map(AblationRow::final_recall)
                .unwrap()
        };
        assert!(
            get("fuzzy OR α=-2") > get("convex"),
            "OR {:.3} must beat convex {:.3}",
            get("fuzzy OR α=-2"),
            get("convex")
        );
    }

    #[test]
    fn diagonal_quality_close_to_full_inverse() {
        // The quality half of the paper's diagonal-scheme justification.
        let ds = dataset();
        let rows = scheme_quality_sweep(&ds, &cfg());
        let diag = rows[0].final_recall();
        let full = rows[1].final_recall();
        assert!(
            (diag - full).abs() < 0.1,
            "schemes should perform similarly: {diag} vs {full}"
        );
    }

    #[test]
    fn negative_feedback_does_not_collapse() {
        let ds = dataset();
        let rows = negative_feedback_sweep(&ds, &cfg());
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.final_recall() > 0.1,
                "{}: {}",
                r.variant,
                r.final_recall()
            );
        }
    }

    #[test]
    fn clustering_quality_is_bounded() {
        let ds = dataset();
        let (err, clusters) = clustering_quality(&ds, &cfg());
        assert!((0.0..=1.0).contains(&err), "error {err}");
        assert!(clusters >= 1.0);
    }

    #[test]
    fn forcing_to_one_cluster_hurts() {
        let ds = dataset();
        let rows = merge_forcing_sweep(&ds, &cfg());
        let free = rows[0].final_recall();
        let one = rows[2].final_recall();
        assert!(
            free >= one,
            "free clustering {free} must not lose to single-cluster forcing {one}"
        );
    }
}
