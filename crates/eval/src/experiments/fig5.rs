//! Fig. 5 / Example 3 — the disjunctive query on synthetic uniform data.
//!
//! "The synthetic data consists of 10,000 points in ℝ³, randomly
//! distributed uniformly within the axis-aligned cube (−2,−2,−2) ~
//! (2,2,2). We used the aggregate distance function (Equation (5)) …
//! S_i⁻¹ is computed using a diagonal matrix scheme and m_i is set to 1
//! for all i. Points were retrieved if and only if they were within 1.0
//! units of either (−1,−1,−1) or (1,1,1). 820 points were retrieved."
//!
//! The experiment verifies that ranking by the aggregate distance (Eq. 5)
//! reproduces the two-ball OR-region: the top-N aggregate results (N =
//! size of the OR-region) should overlap the region almost perfectly, and
//! the scatter data returned lets the harness print both ball memberships.

use crate::synthetic::uniform_cube;
use qcluster_baselines::{AggregateKind, MultiPointQuery};
use qcluster_index::LinearScan;

/// Parameters of the Fig. 5 experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Config {
    /// Number of uniform points (paper: 10,000).
    pub num_points: usize,
    /// Ball radius (paper: 1.0).
    pub radius: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Fig5Config {
            num_points: 2_000,
            radius: 1.0,
            seed: 42,
        }
    }
}

impl Fig5Config {
    /// The paper's exact scale.
    pub fn paper_scale() -> Self {
        Fig5Config {
            num_points: 10_000,
            radius: 1.0,
            seed: 42,
        }
    }
}

/// Results of the Fig. 5 experiment.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// Number of points inside either unit ball (paper: 820 of 10,000).
    pub in_or_region: usize,
    /// Fraction of the OR-region recovered in the top-N aggregate ranking.
    pub overlap_fraction: f64,
    /// The retrieved points (for scatter-plot output), tagged with which
    /// ball they fall in (0, 1, or 2 = neither — aggregate-only pulls).
    pub retrieved: Vec<(Vec<f64>, u8)>,
}

/// The two query centers of Example 3.
pub const CENTERS: [[f64; 3]; 2] = [[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]];

/// Runs the experiment.
pub fn run(config: &Fig5Config) -> Fig5Result {
    let points = uniform_cube(config.num_points, 3, -2.0, 2.0, config.seed);
    let r2 = config.radius * config.radius;

    let ball = |p: &[f64]| -> u8 {
        let d0 = qcluster_linalg::vecops::sq_euclidean(p, &CENTERS[0]);
        let d1 = qcluster_linalg::vecops::sq_euclidean(p, &CENTERS[1]);
        if d0 <= r2 {
            0
        } else if d1 <= r2 {
            1
        } else {
            2
        }
    };
    let in_region: Vec<usize> = (0..points.len())
        .filter(|&i| ball(&points[i]) != 2)
        .collect();

    // Eq. 5 with identity per-cluster S⁻¹ and m_i = 1.
    let query = MultiPointQuery::uniform(
        CENTERS.iter().map(|c| c.to_vec()).collect(),
        AggregateKind::FuzzyOr { alpha: -1.0 },
    );
    // NOTE: Eq. 5 is the harmonic (α = −1 over squared distances ≡ α = −2
    // over distances) form; MultiPointQuery components are already squared
    // quadratic forms, so α = −1 here reproduces Eq. 5 exactly.
    let scan = LinearScan::new(&points);
    let top = scan.knn(&query, in_region.len().max(1));

    let hits = top.iter().filter(|n| ball(&points[n.id]) != 2).count();
    let retrieved = top
        .iter()
        .map(|n| (points[n.id].clone(), ball(&points[n.id])))
        .collect();

    Fig5Result {
        in_or_region: in_region.len(),
        overlap_fraction: if in_region.is_empty() {
            1.0
        } else {
            hits as f64 / in_region.len() as f64
        },
        retrieved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_ranking_recovers_or_region() {
        let r = run(&Fig5Config::default());
        assert!(r.in_or_region > 0);
        assert!(
            r.overlap_fraction > 0.85,
            "overlap only {}",
            r.overlap_fraction
        );
    }

    #[test]
    fn region_size_matches_geometry() {
        // Ball volume fraction: 2 · (4π/3 r³) / 4³ ≈ 0.131 ⇒ ~1,310 of
        // 10,000 (the paper's 820 count corresponds to its specific seed;
        // balls near the cube corner are partially clipped — centers at
        // (±1,±1,±1) keep the full ball inside, so expect the analytic
        // fraction here).
        let r = run(&Fig5Config::paper_scale());
        let expected = 2.0 * (4.0 / 3.0) * std::f64::consts::PI / 64.0 * 10_000.0;
        assert!(
            (r.in_or_region as f64 - expected).abs() < 0.15 * expected,
            "got {} expected ≈{expected}",
            r.in_or_region
        );
    }

    #[test]
    fn convex_aggregate_misses_the_or_region() {
        // The same ranking under the convex (arithmetic-mean) aggregate
        // favours the region between the two centers, so it recovers
        // only a small part of the OR-region Eq. 5 finds.
        let cfg = Fig5Config::default();
        let points = uniform_cube(cfg.num_points, 3, -2.0, 2.0, cfg.seed);
        let in_region = |p: &[f64]| {
            CENTERS
                .iter()
                .any(|c| qcluster_linalg::vecops::sq_euclidean(p, c) <= 1.0)
        };
        let region = points.iter().filter(|p| in_region(p)).count();
        let convex = MultiPointQuery::uniform(
            CENTERS.iter().map(|c| c.to_vec()).collect(),
            AggregateKind::Convex,
        );
        let top = LinearScan::new(&points).knn(&convex, region);
        let convex_overlap =
            top.iter().filter(|n| in_region(&points[n.id])).count() as f64 / region as f64;
        let disjunctive_overlap = run(&cfg).overlap_fraction;
        assert!(
            convex_overlap < 0.5 && convex_overlap < disjunctive_overlap / 2.0,
            "convex {convex_overlap} vs disjunctive {disjunctive_overlap}"
        );
    }

    #[test]
    fn retrieved_points_are_tagged() {
        let r = run(&Fig5Config::default());
        assert_eq!(r.retrieved.len(), r.in_or_region.max(1));
        assert!(r.retrieved.iter().any(|(_, b)| *b == 0));
        assert!(r.retrieved.iter().any(|(_, b)| *b == 1));
    }
}
