//! The relevance-feedback engine (paper Sec. 3.3, Algorithm 1).
//!
//! One engine instance owns one feedback session. Per iteration:
//!
//! 1. the caller runs the k-NN query (initially from the example image,
//!    afterwards from [`QclusterEngine::query`]) and collects the user's
//!    relevant set;
//! 2. [`QclusterEngine::feed`] ingests the relevant points — the first
//!    round seeds clusters by hierarchical agglomeration (Sec. 4.1), later
//!    rounds run the adaptive Bayesian classification (Algorithm 2) — and
//!    then reduces the cluster count with T² merging (Algorithm 3);
//! 3. [`QclusterEngine::query`] compiles the disjunctive multipoint query
//!    (Eq. 5) for the next round.

use crate::classify::{BayesianClassifier, Classification};
use crate::cluster::Cluster;
use crate::distance::DisjunctiveQuery;
use crate::error::{CoreError, Result};
use crate::hierarchical::hierarchical_clustering;
use crate::merge::{merge_clusters, MergeOutcome};
use crate::scheme::CovarianceScheme;
use crate::types::FeedbackPoint;

/// How the geometric merge threshold (used by the initial hierarchical
/// pass and by degenerate singleton pairs) is chosen.
///
/// The threshold is a *squared* centroid distance, so its right value is
/// inherently data-scale-dependent. [`ThresholdPolicy::Auto`] adapts it to
/// each round's relevant set: the threshold is
/// `(multiplier × median nearest-neighbor distance)²` over the marked
/// points, which merges points that are mutual neighbors while keeping
/// genuinely disjoint modes (many NN-distances apart) separate — at any
/// feature scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdPolicy {
    /// A fixed squared distance (caller knows the feature scale).
    Fixed(f64),
    /// `(multiplier × median NN distance of the relevant set)²`.
    Auto {
        /// Multiplier on the median nearest-neighbor distance.
        multiplier: f64,
    },
}

impl ThresholdPolicy {
    /// Resolves the policy against a concrete relevant set.
    pub fn resolve(&self, points: &[FeedbackPoint]) -> f64 {
        match *self {
            ThresholdPolicy::Fixed(t) => t,
            ThresholdPolicy::Auto { multiplier } => {
                let med = median_nn_distance(points);
                (multiplier * med).powi(2)
            }
        }
    }
}

/// Median nearest-neighbor (Euclidean) distance among the points;
/// `0.0` for fewer than two points.
fn median_nn_distance(points: &[FeedbackPoint]) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    let mut nn: Vec<f64> = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut best = f64::INFINITY;
            for (j, q) in points.iter().enumerate() {
                if j == i {
                    continue;
                }
                let d = qcluster_linalg::vecops::sq_euclidean(&p.vector, &q.vector);
                if d == 0.0 {
                    // A duplicate point: nothing can be nearer.
                    best = 0.0;
                    break;
                }
                best = best.min(d);
            }
            best
        })
        .collect();
    nn.sort_by(f64::total_cmp);
    nn[nn.len() / 2].sqrt()
}

/// Tunable parameters of the engine.
#[derive(Debug, Clone, Copy)]
pub struct QclusterConfig {
    /// Significance level α for both the effective radius (Lemma 1) and
    /// the merge test (Eq. 16). Paper: typically 0.01–0.05.
    pub alpha: f64,
    /// Cluster-count threshold the merge stage drives toward ("repeat …
    /// until the number of clusters is reduced to a given size").
    pub target_clusters: usize,
    /// Maximum α-relaxations per merge pass (Algorithm 3 step 8). Zero
    /// disables forcing and keeps only statistically justified merges —
    /// forcing disjoint modes together destroys exactly the structure the
    /// disjunctive query exploits, so the default leaves it off.
    pub max_relaxations: usize,
    /// Geometric merge threshold policy (see [`ThresholdPolicy`]).
    pub threshold: ThresholdPolicy,
    /// Covariance handling (diagonal vs full inverse; Fig. 6's ablation).
    pub scheme: CovarianceScheme,
}

impl Default for QclusterConfig {
    fn default() -> Self {
        QclusterConfig {
            alpha: 0.05,
            target_clusters: 5,
            max_relaxations: 0,
            threshold: ThresholdPolicy::Auto { multiplier: 2.0 },
            scheme: CovarianceScheme::default_diagonal(),
        }
    }
}

/// The adaptive-clustering relevance-feedback engine.
#[derive(Debug, Clone)]
pub struct QclusterEngine {
    config: QclusterConfig,
    clusters: Vec<Cluster>,
    iteration: usize,
    last_merge: MergeOutcome,
}

impl QclusterEngine {
    /// Creates an engine with no clusters yet.
    pub fn new(config: QclusterConfig) -> Self {
        QclusterEngine {
            config,
            clusters: Vec::new(),
            iteration: 0,
            last_merge: MergeOutcome::default(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &QclusterConfig {
        &self.config
    }

    /// Number of completed feedback iterations.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// The current clusters.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Current cluster count `g`.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Statistics of the most recent merge pass.
    pub fn last_merge_outcome(&self) -> MergeOutcome {
        self.last_merge
    }

    /// Drops all state, starting a fresh session.
    pub fn reset(&mut self) {
        self.clusters.clear();
        self.iteration = 0;
        self.last_merge = MergeOutcome::default();
    }

    /// Ingests one round of user-marked relevant points (Algorithm 1
    /// steps 4–15).
    ///
    /// Points whose image id is already in some cluster are skipped — the
    /// same relevant image re-marked in a later round carries no new
    /// information. Dimensions and scores are validated.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyFeedback`] when `relevant` is empty,
    /// [`CoreError::DimensionMismatch`] / [`CoreError::InvalidScore`] on
    /// malformed points; propagates numerical failures.
    pub fn feed(&mut self, relevant: &[FeedbackPoint]) -> Result<()> {
        if relevant.is_empty() {
            return Err(CoreError::EmptyFeedback);
        }
        let dim = self
            .clusters
            .first()
            .map(|c| c.dim())
            .unwrap_or_else(|| relevant[0].dim());
        for p in relevant {
            if p.dim() != dim {
                return Err(CoreError::DimensionMismatch {
                    expected: dim,
                    found: p.dim(),
                });
            }
            if p.score <= 0.0 || p.score.is_nan() {
                return Err(CoreError::InvalidScore(p.score));
            }
        }

        let threshold = self.config.threshold.resolve(relevant);
        if self.clusters.is_empty() {
            // Initial iteration: hierarchical clustering (Alg. 1 step 1).
            self.clusters =
                hierarchical_clustering(relevant.to_vec(), self.config.target_clusters, threshold)?;
        } else {
            // Adaptive classification (Alg. 2) against the clusters from
            // the previous iteration; the classifier is fitted once and the
            // winning cluster is updated incrementally per point.
            for p in relevant {
                if self.clusters.iter().any(|c| c.contains_id(p.id)) {
                    continue;
                }
                let classifier =
                    BayesianClassifier::fit(&self.clusters, self.config.scheme, self.config.alpha)?;
                match classifier.classify(&self.clusters, &p.vector) {
                    Classification::Assign(k) => self.clusters[k].push(p.clone()),
                    Classification::NewCluster => {
                        self.clusters.push(Cluster::from_point(p.clone()))
                    }
                }
            }
        }

        // Cluster-merging stage (Alg. 3).
        self.last_merge = merge_clusters(
            &mut self.clusters,
            self.config.scheme,
            self.config.alpha,
            self.config.target_clusters,
            self.config.max_relaxations,
            threshold,
        )?;
        self.iteration += 1;
        Ok(())
    }

    /// Compiles the disjunctive multipoint query (Eq. 5) over the current
    /// cluster representatives.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoClusters`] before the first `feed`.
    pub fn query(&self) -> Result<DisjunctiveQuery> {
        if self.clusters.is_empty() {
            return Err(CoreError::NoClusters);
        }
        DisjunctiveQuery::new(&self.clusters, self.config.scheme)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcluster_index::QueryDistance;

    fn pt(id: usize, v: &[f64]) -> FeedbackPoint {
        FeedbackPoint::new(id, v.to_vec(), 3.0)
    }

    fn group(cx: f64, cy: f64, base_id: usize, n: usize) -> Vec<FeedbackPoint> {
        (0..n)
            .map(|k| {
                let a = k as f64 * std::f64::consts::TAU / n as f64;
                pt(base_id + k, &[cx + 0.3 * a.cos(), cy + 0.3 * a.sin()])
            })
            .collect()
    }

    #[test]
    fn first_feed_builds_clusters() {
        let mut e = QclusterEngine::new(QclusterConfig::default());
        let mut pts = group(0.0, 0.0, 0, 5);
        pts.extend(group(8.0, 8.0, 5, 5));
        e.feed(&pts).unwrap();
        assert_eq!(e.num_clusters(), 2);
        assert_eq!(e.iteration(), 1);
    }

    #[test]
    fn second_feed_classifies_into_existing_clusters() {
        let mut e = QclusterEngine::new(QclusterConfig::default());
        let mut pts = group(0.0, 0.0, 0, 5);
        pts.extend(group(8.0, 8.0, 5, 5));
        e.feed(&pts).unwrap();
        // New points near cluster 0 join it.
        e.feed(&group(0.1, 0.1, 100, 3)).unwrap();
        assert_eq!(e.num_clusters(), 2);
        let sizes: Vec<usize> = e.clusters().iter().map(|c| c.len()).collect();
        assert!(sizes.contains(&8), "sizes {sizes:?}");
    }

    #[test]
    fn distant_feedback_opens_then_keeps_new_cluster() {
        let mut e = QclusterEngine::new(QclusterConfig {
            target_clusters: 2,
            max_relaxations: 50,
            ..QclusterConfig::default()
        });
        e.feed(&group(0.0, 0.0, 0, 5)).unwrap();
        assert_eq!(e.num_clusters(), 1);
        e.feed(&group(50.0, 50.0, 100, 5)).unwrap();
        assert_eq!(e.num_clusters(), 2);
        // The merge stage must not have mixed the two distant groups.
        for c in e.clusters() {
            let ids: Vec<usize> = c.members().iter().map(|p| p.id).collect();
            assert!(
                ids.iter().all(|&i| i < 100) || ids.iter().all(|&i| i >= 100),
                "mixed cluster: {ids:?}"
            );
        }
    }

    #[test]
    fn duplicate_ids_are_skipped() {
        let mut e = QclusterEngine::new(QclusterConfig::default());
        let pts = group(0.0, 0.0, 0, 5);
        e.feed(&pts).unwrap();
        let total: usize = e.clusters().iter().map(|c| c.len()).sum();
        e.feed(&pts).unwrap();
        let total2: usize = e.clusters().iter().map(|c| c.len()).sum();
        assert_eq!(total, total2);
    }

    #[test]
    fn query_reflects_disjunctive_structure() {
        let mut e = QclusterEngine::new(QclusterConfig::default());
        let mut pts = group(0.0, 0.0, 0, 6);
        pts.extend(group(10.0, 0.0, 6, 6));
        e.feed(&pts).unwrap();
        let q = e.query().unwrap();
        assert_eq!(q.num_representatives(), 2);
        assert!(q.distance(&[0.0, 0.0]) < q.distance(&[5.0, 0.0]));
        assert!(q.distance(&[10.0, 0.0]) < q.distance(&[5.0, 0.0]));
    }

    #[test]
    fn errors_on_empty_and_malformed_feedback() {
        let mut e = QclusterEngine::new(QclusterConfig::default());
        assert!(matches!(e.feed(&[]), Err(CoreError::EmptyFeedback)));
        assert!(matches!(e.query(), Err(CoreError::NoClusters)));
        e.feed(&group(0.0, 0.0, 0, 3)).unwrap();
        let bad = FeedbackPoint::new(99, vec![1.0, 2.0, 3.0], 1.0);
        assert!(matches!(
            e.feed(&[bad]),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn reset_clears_session() {
        let mut e = QclusterEngine::new(QclusterConfig::default());
        e.feed(&group(0.0, 0.0, 0, 3)).unwrap();
        e.reset();
        assert_eq!(e.num_clusters(), 0);
        assert_eq!(e.iteration(), 0);
        assert!(e.query().is_err());
    }

    #[test]
    fn fixed_threshold_policy_is_honored() {
        // A fixed threshold so large that everything merges initially.
        let mut e = QclusterEngine::new(QclusterConfig {
            threshold: ThresholdPolicy::Fixed(1e6),
            ..QclusterConfig::default()
        });
        let mut pts = group(0.0, 0.0, 0, 4);
        pts.extend(group(50.0, 50.0, 10, 4));
        e.feed(&pts).unwrap();
        assert_eq!(e.num_clusters(), 1, "huge threshold must merge all");

        let mut e = QclusterEngine::new(QclusterConfig {
            threshold: ThresholdPolicy::Fixed(1e-12),
            target_clusters: 100,
            ..QclusterConfig::default()
        });
        let mut pts = group(0.0, 0.0, 0, 4);
        pts.extend(group(50.0, 50.0, 10, 4));
        e.feed(&pts).unwrap();
        // Tiny threshold with a huge target: singleton pairs never merge
        // geometrically, and with so few points per neighborhood the T²
        // test has no power either — clusters stay fine-grained.
        assert!(e.num_clusters() > 2, "got {}", e.num_clusters());
    }

    #[test]
    fn threshold_policy_resolves_scale() {
        // Auto threshold tracks the marked set's scale.
        let tight: Vec<FeedbackPoint> = (0..5).map(|i| pt(i, &[i as f64 * 0.01, 0.0])).collect();
        let wide: Vec<FeedbackPoint> = (0..5).map(|i| pt(i, &[i as f64 * 10.0, 0.0])).collect();
        let policy = ThresholdPolicy::Auto { multiplier: 2.0 };
        assert!(policy.resolve(&tight) < policy.resolve(&wide));
        // Fixed ignores the data.
        assert_eq!(ThresholdPolicy::Fixed(0.7).resolve(&tight), 0.7);
        // Degenerate inputs resolve to zero.
        assert_eq!(policy.resolve(&tight[..1]), 0.0);
    }

    #[test]
    fn median_nn_distance_handles_identical_points() {
        // All-duplicate marks: every nearest-neighbor distance is exactly
        // zero, so the auto threshold must resolve to zero instead of
        // panicking or producing NaN.
        let dupes: Vec<FeedbackPoint> = (0..4).map(|i| pt(i, &[1.5, -2.5])).collect();
        let policy = ThresholdPolicy::Auto { multiplier: 2.0 };
        assert_eq!(policy.resolve(&dupes), 0.0);
        assert_eq!(median_nn_distance(&dupes), 0.0);

        // A mixed set — one duplicate pair among spread points — keeps a
        // finite, non-NaN median.
        let mixed = vec![
            pt(0, &[0.0, 0.0]),
            pt(1, &[0.0, 0.0]),
            pt(2, &[3.0, 0.0]),
            pt(3, &[0.0, 4.0]),
        ];
        let med = median_nn_distance(&mixed);
        assert!(med.is_finite() && med >= 0.0);
    }

    #[test]
    fn graded_scores_weight_cluster_masses() {
        let mut e = QclusterEngine::new(QclusterConfig::default());
        let pts = vec![
            FeedbackPoint::new(0, vec![0.0, 0.0], 3.0),
            FeedbackPoint::new(1, vec![0.1, 0.0], 3.0),
            FeedbackPoint::new(2, vec![0.0, 0.1], 1.0),
        ];
        e.feed(&pts).unwrap();
        let total_mass: f64 = e.clusters().iter().map(|c| c.mass()).sum();
        assert!((total_mass - 7.0).abs() < 1e-12);
    }

    #[test]
    fn iteration_counter_tracks_feeds() {
        let mut e = QclusterEngine::new(QclusterConfig::default());
        assert_eq!(e.iteration(), 0);
        e.feed(&group(0.0, 0.0, 0, 3)).unwrap();
        assert_eq!(e.iteration(), 1);
        e.feed(&group(0.2, 0.2, 10, 3)).unwrap();
        assert_eq!(e.iteration(), 2);
    }

    #[test]
    fn full_inverse_scheme_end_to_end() {
        let mut e = QclusterEngine::new(QclusterConfig {
            scheme: CovarianceScheme::default_full(),
            ..QclusterConfig::default()
        });
        let mut pts = group(0.0, 0.0, 0, 6);
        pts.extend(group(6.0, 0.0, 10, 6));
        e.feed(&pts).unwrap();
        let q = e.query().unwrap();
        assert!(q.distance(&[0.0, 0.0]) < q.distance(&[3.0, 0.0]));
        // Second round still works under the full scheme.
        e.feed(&group(0.1, -0.1, 50, 3)).unwrap();
        assert!(e.query().is_ok());
    }

    #[test]
    fn merge_pass_respects_target() {
        let mut e = QclusterEngine::new(QclusterConfig {
            target_clusters: 2,
            max_relaxations: 100,
            ..QclusterConfig::default()
        });
        let mut pts = Vec::new();
        for (i, (x, y)) in [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0), (20.0, 20.0)]
            .iter()
            .enumerate()
        {
            pts.extend(group(*x, *y, i * 10, 5));
        }
        e.feed(&pts).unwrap();
        assert!(e.num_clusters() <= 2);
    }
}
