//! Multipoint aggregate distances (paper Eq. 4 and FALCON's α-norm).
//!
//! The general aggregate over query points `Q = {q_1, …, q_g}` with
//! weights `w_i` is
//!
//! ```text
//! d_aggregate(Q, x) = ( Σ w_i d(q_i, x)^α / Σ w_i )^(1/α)
//! ```
//!
//! - `α = 1` (arithmetic mean) is the **convex** combination used by MARS
//!   query expansion: one large contour covering all representatives.
//! - `α < 0` is the **fuzzy OR** used by FALCON (and, in its harmonic
//!   α = −2 form with quadratic component distances, by Qcluster's Eq. 5):
//!   the nearest query point dominates, producing disjoint contours.
//!
//! Component distances here are squared weighted Euclidean forms per query
//! point, each with its own per-dimension weights — sufficient for every
//! baseline (the full-covariance case lives in `qcluster-core`).

use qcluster_core::Cluster;
use qcluster_index::{BoundingBox, QueryDistance};

/// Which aggregate combination rule to apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggregateKind {
    /// Weighted arithmetic mean of component distances (`α = 1`).
    Convex,
    /// Weighted arithmetic mean of the **square roots** of the component
    /// quadratic forms — the multi-focal ellipse of MARS query expansion
    /// (one large convex contour whose foci are the representatives;
    /// paper Fig. 1(b)). Summing non-squared distances is what makes the
    /// contour a single region covering all representatives *and* the
    /// space between them.
    MultiFocal,
    /// The α-norm fuzzy OR with `alpha < 0` — FALCON's aggregate
    /// dissimilarity (their experiments favor α ≈ −5; Qcluster's Eq. 5 is
    /// the mass-weighted α = −2 special case).
    FuzzyOr {
        /// Strictly negative exponent.
        alpha: f64,
    },
}

/// One query point of a multipoint query.
#[derive(Debug, Clone)]
struct Component {
    center: Vec<f64>,
    /// Per-dimension weights of the squared distance (all ≥ 0).
    weights: Vec<f64>,
    /// Aggregate weight `w_i` (e.g. cluster mass).
    mass: f64,
}

/// A multipoint query under a configurable aggregate rule.
#[derive(Debug, Clone)]
pub struct MultiPointQuery {
    components: Vec<Component>,
    kind: AggregateKind,
    total_mass: f64,
}

impl MultiPointQuery {
    /// Builds a multipoint query.
    ///
    /// `points` supplies `(center, per-dim weights, mass)` per component.
    ///
    /// # Panics
    ///
    /// Panics on an empty component list, ragged dimensions, negative
    /// weights/masses, or a non-negative fuzzy-OR exponent.
    pub fn new(points: Vec<(Vec<f64>, Vec<f64>, f64)>, kind: AggregateKind) -> Self {
        assert!(!points.is_empty(), "need at least one query point");
        if let AggregateKind::FuzzyOr { alpha } = kind {
            assert!(alpha < 0.0, "fuzzy-OR exponent must be negative");
        }
        let dim = points[0].0.len();
        let mut components = Vec::with_capacity(points.len());
        let mut total_mass = 0.0;
        for (center, weights, mass) in points {
            assert_eq!(center.len(), dim, "ragged centers");
            assert_eq!(weights.len(), dim, "ragged weights");
            assert!(weights.iter().all(|&w| w >= 0.0), "negative weight");
            assert!(mass > 0.0, "masses must be positive");
            total_mass += mass;
            components.push(Component {
                center,
                weights,
                mass,
            });
        }
        MultiPointQuery {
            components,
            kind,
            total_mass,
        }
    }

    /// One component per cluster: its centroid, its diagonal inverse
    /// variances `1 / (σ_d² + lambda)` as per-dimension weights, and its
    /// mass — the ingredients Eq. 5 consumes, under any aggregate rule.
    pub fn from_clusters(clusters: &[Cluster], lambda: f64, kind: AggregateKind) -> Self {
        let points = clusters
            .iter()
            .map(|c| {
                let weights = c
                    .covariance()
                    .diagonal()
                    .iter()
                    .map(|&v| 1.0 / (v.max(0.0) + lambda))
                    .collect();
                (c.mean().to_vec(), weights, c.mass())
            })
            .collect();
        Self::new(points, kind)
    }

    /// Uniform-weight constructor: every point gets unit per-dim weights
    /// and unit mass (FALCON's "all relevant points are query points").
    pub fn uniform(centers: Vec<Vec<f64>>, kind: AggregateKind) -> Self {
        let pts = centers
            .into_iter()
            .map(|c| {
                let d = c.len();
                (c, vec![1.0; d], 1.0)
            })
            .collect();
        Self::new(pts, kind)
    }

    /// Number of component query points.
    pub fn num_points(&self) -> usize {
        self.components.len()
    }

    /// `(center, per-dim weights, mass)` per component, in order: what
    /// [`MultiPointQuery::new`] takes to rebuild this query.
    pub fn points(&self) -> impl Iterator<Item = (&[f64], &[f64], f64)> {
        self.components
            .iter()
            .map(|c| (c.center.as_slice(), c.weights.as_slice(), c.mass))
    }

    /// The aggregate rule.
    pub fn kind(&self) -> AggregateKind {
        self.kind
    }

    /// Combines per-component distances per the aggregate rule.
    fn combine(&self, dists: impl Iterator<Item = (f64, f64)>) -> f64 {
        match self.kind {
            AggregateKind::Convex => {
                let mut acc = 0.0;
                for (m, d) in dists {
                    acc += m * d;
                }
                acc / self.total_mass
            }
            AggregateKind::MultiFocal => {
                let mut acc = 0.0;
                for (m, d) in dists {
                    acc += m * d.max(0.0).sqrt();
                }
                acc / self.total_mass
            }
            AggregateKind::FuzzyOr { alpha } => {
                let mut acc = 0.0;
                for (m, d) in dists {
                    if d <= 0.0 {
                        return 0.0;
                    }
                    acc += m * d.powf(alpha);
                }
                (acc / self.total_mass).powf(1.0 / alpha)
            }
        }
    }
}

impl QueryDistance for MultiPointQuery {
    fn dim(&self) -> usize {
        self.components[0].center.len()
    }

    fn distance(&self, x: &[f64]) -> f64 {
        self.combine(self.components.iter().map(|c| {
            (
                c.mass,
                qcluster_linalg::vecops::weighted_sq_euclidean(x, &c.center, &c.weights),
            )
        }))
    }

    fn min_distance(&self, b: &BoundingBox) -> f64 {
        // Both rules are non-decreasing in each component distance, so
        // aggregating per-component lower bounds lower-bounds the whole.
        self.combine(self.components.iter().map(|c| {
            let mut acc = 0.0;
            for i in 0..c.center.len() {
                let cl = c.center[i].clamp(b.lo()[i], b.hi()[i]);
                let d = c.center[i] - cl;
                acc += c.weights[i] * d * d;
            }
            (c.mass, acc)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_points(kind: AggregateKind) -> MultiPointQuery {
        MultiPointQuery::uniform(vec![vec![0.0, 0.0], vec![10.0, 0.0]], kind)
    }

    #[test]
    fn convex_is_arithmetic_mean() {
        let q = two_points(AggregateKind::Convex);
        // x = (5,0): both component distances are 25 → mean 25.
        assert!((q.distance(&[5.0, 0.0]) - 25.0).abs() < 1e-12);
        // x = (0,0): distances 0 and 100 → mean 50.
        assert!((q.distance(&[0.0, 0.0]) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn fuzzy_or_rewards_proximity_to_one_point() {
        let or = two_points(AggregateKind::FuzzyOr { alpha: -2.0 });
        let cx = two_points(AggregateKind::Convex);
        // Near one query point the OR distance collapses; convex does not.
        let near = [0.5, 0.0];
        assert!(or.distance(&near) < cx.distance(&near));
        // Exactly at a query point: OR gives zero.
        assert_eq!(or.distance(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn fuzzy_or_midpoint_is_far() {
        let or = two_points(AggregateKind::FuzzyOr { alpha: -2.0 });
        let mid = or.distance(&[5.0, 0.0]);
        let near = or.distance(&[1.0, 0.0]);
        assert!(near < mid);
    }

    #[test]
    fn steeper_alpha_tracks_minimum_closer() {
        let soft = two_points(AggregateKind::FuzzyOr { alpha: -1.0 });
        let hard = two_points(AggregateKind::FuzzyOr { alpha: -8.0 });
        let x = [2.0, 0.0]; // d = (4, 64)
                            // The harder OR should be closer to the min component (4).
        assert!((hard.distance(&x) - 4.0).abs() < (soft.distance(&x) - 4.0).abs());
    }

    #[test]
    fn lower_bound_contract_both_kinds() {
        for kind in [
            AggregateKind::Convex,
            AggregateKind::FuzzyOr { alpha: -2.0 },
        ] {
            let q = two_points(kind);
            let b = BoundingBox::new(vec![3.0, 1.0], vec![6.0, 2.0]);
            let lb = q.min_distance(&b);
            for i in 0..=6 {
                for j in 0..=4 {
                    let x = [3.0 + 0.5 * i as f64, 1.0 + 0.25 * j as f64];
                    assert!(q.distance(&x) >= lb - 1e-9, "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn mass_weights_shift_convex_combination() {
        let q = MultiPointQuery::new(
            vec![(vec![0.0], vec![1.0], 3.0), (vec![10.0], vec![1.0], 1.0)],
            AggregateKind::Convex,
        );
        // d = (25, 25) at x=5 regardless of mass.
        assert!((q.distance(&[5.0]) - 25.0).abs() < 1e-12);
        // x = 0: (0·3 + 100·1)/4 = 25.
        assert!((q.distance(&[0.0]) - 25.0).abs() < 1e-12);
        // x = 10: (100·3 + 0)/4 = 75 — the heavy point dominates.
        assert!((q.distance(&[10.0]) - 75.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be negative")]
    fn positive_alpha_rejected() {
        let _ = two_points(AggregateKind::FuzzyOr { alpha: 2.0 });
    }
}
