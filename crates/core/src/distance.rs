//! Query distance functions: the per-cluster quadratic form (Eq. 1) and
//! the disjunctive aggregate (Eq. 5).
//!
//! The disjunctive aggregate over cluster representatives
//! `Q = {x̄_1, …, x̄_g}` is
//!
//! ```text
//! d²_disjunctive(Q, x) = Σ m_i  /  Σ ( m_i / d²(x, x̄_i) )
//! ```
//!
//! — the α = −2 instance of the fuzzy-OR aggregate (Eq. 4) weighted by
//! cluster masses. It is a **weighted harmonic mean** of the per-cluster
//! quadratic distances, so the closest cluster dominates: an image near
//! *any* representative scores well, which is exactly the disjunctive-query
//! semantics of Fig. 1(c) / Example 3.
//!
//! Both distances implement [`QueryDistance`], so the hybrid-tree k-NN can
//! run them directly. The bounding-box lower bounds:
//!
//! - diagonal `S⁻¹`: the weighted distance to the box-clamped point —
//!   exact and tight (coordinate-wise monotone form);
//! - full `S⁻¹`: `λ_min · ‖x − clamp(x)‖²`, valid because
//!   `dᵀ M d ≥ λ_min ‖d‖²` and `‖x − c‖` is minimized by the clamp;
//! - the aggregate: the harmonic form is non-decreasing in each `d_i`, so
//!   aggregating the per-cluster lower bounds lower-bounds the aggregate.

use crate::cluster::Cluster;
use crate::error::Result;
use crate::scheme::{CovarianceScheme, InverseCovariance};
use qcluster_index::{BoundingBox, QuantParams, QuantPlan, QuantSpec, QueryDistance};
use std::cell::RefCell;

/// One cluster representative compiled for fast distance evaluation.
///
/// The diagonal scheme is precompiled into **expanded form**:
/// `d²(x) = Σ_j (w_j·x_j)·x_j − 2·Σ_j wc_j·x_j + c0` with
/// `wc_j = w_j·c_j` and `c0 = Σ_j wc_j·c_j`, so evaluation never touches
/// the center and blocks of points stream through two fused accumulator
/// passes. The full scheme keeps the difference form (it needs the
/// `M·(x−c)` product) and amortizes its scratch over whole blocks.
#[derive(Debug, Clone)]
struct Representative {
    mean: Vec<f64>,
    inv: InverseCovariance,
    mass: f64,
    /// Lower-bound scale for the dense case (`λ_min(S⁻¹)`).
    min_eig: f64,
    /// Expanded-form linear coefficients `w ∘ mean` (diagonal scheme
    /// only; empty for the full scheme).
    wc: Vec<f64>,
    /// Expanded-form constant `Σ wc_j·mean_j` (diagonal scheme only).
    c0: f64,
}

/// The numbers one compiled representative evaluates with: its
/// centroid, its `S⁻¹`, its mass and the box lower-bound scale
/// `λ_min(S⁻¹)`. `parts` reads them out of a compiled query and
/// `from_parts` rebuilds the same query from them without inverting
/// anything: distances, tile kernels and quantized plans come out
/// bit-identical.
#[derive(Debug, Clone)]
pub struct RepresentativeParts {
    /// The cluster centroid.
    pub mean: Vec<f64>,
    /// The materialized inverse covariance.
    pub inverse: InverseCovariance,
    /// The cluster mass (its weight in the disjunctive aggregate).
    pub mass: f64,
    /// [`InverseCovariance::min_eigenvalue`] of `inverse`.
    pub min_eigenvalue: f64,
}

impl Representative {
    fn compile(cluster: &Cluster, scheme: CovarianceScheme) -> Result<Self> {
        let inverse = cluster.inverse_covariance(scheme)?;
        Ok(Self::assemble(RepresentativeParts {
            min_eigenvalue: inverse.min_eigenvalue(),
            mean: cluster.mean().to_vec(),
            inverse,
            mass: cluster.mass(),
        }))
    }

    fn assemble(parts: RepresentativeParts) -> Self {
        let RepresentativeParts {
            mean,
            inverse: inv,
            mass,
            min_eigenvalue: min_eig,
        } = parts;
        let (wc, c0) = match inv.diagonal_weights() {
            Some(w) => {
                let wc: Vec<f64> = w.iter().zip(&mean).map(|(&w, &c)| w * c).collect();
                let c0 = wc.iter().zip(&mean).map(|(&wc, &c)| wc * c).sum();
                (wc, c0)
            }
            None => (Vec::new(), 0.0),
        };
        Representative {
            mean,
            inv,
            mass,
            min_eig,
            wc,
            c0,
        }
    }

    fn parts(&self) -> RepresentativeParts {
        RepresentativeParts {
            mean: self.mean.clone(),
            inverse: self.inv.clone(),
            mass: self.mass,
            min_eigenvalue: self.min_eig,
        }
    }

    #[inline]
    fn quadratic(&self, x: &[f64], scratch: &mut [f64]) -> f64 {
        match self.inv.diagonal_weights() {
            Some(w) => qcluster_linalg::vecops::expanded_weighted_sq(x, w, &self.wc, self.c0),
            None => self.inv.quadratic_form(x, &self.mean, scratch),
        }
    }

    /// [`Representative::quadratic`] over a contiguous row-major block,
    /// bit-for-bit identical to the scalar path per point.
    fn quadratic_batch(&self, block: &[f64], dim: usize, scratch: &mut [f64], out: &mut [f64]) {
        match self.inv.diagonal_weights() {
            Some(w) => qcluster_linalg::vecops::expanded_weighted_sq_batch(
                block, dim, w, &self.wc, self.c0, out,
            ),
            None => self
                .inv
                .quadratic_form_batch(block, dim, &self.mean, scratch, out),
        }
    }

    /// Lower bound of the quadratic form over a box.
    fn lower_bound(&self, b: &BoundingBox, scratch: &mut [f64]) -> f64 {
        match self.inv.diagonal_weights() {
            Some(w) => {
                let mut acc = 0.0;
                for i in 0..self.mean.len() {
                    let c = self.mean[i].clamp(b.lo()[i], b.hi()[i]);
                    let d = self.mean[i] - c;
                    acc += w[i] * d * d;
                }
                acc
            }
            None => {
                b.clamp_point(&self.mean, scratch);
                let sq = qcluster_linalg::vecops::sq_euclidean(&self.mean, scratch);
                self.min_eig * sq
            }
        }
    }
}

/// The quadratic distance `d²(x, x̄) = (x − x̄)ᵀ S⁻¹ (x − x̄)` to a single
/// cluster (paper Eq. 1) — MindReader's generalized Euclidean when the
/// scheme is [`CovarianceScheme::FullInverse`], MARS's weighted Euclidean
/// when diagonal.
#[derive(Debug, Clone)]
pub struct ClusterDistance {
    rep: Representative,
    scratch: RefCell<Vec<f64>>,
}

impl ClusterDistance {
    /// Compiles the distance for a cluster under `scheme`.
    ///
    /// # Errors
    ///
    /// Propagates covariance inversion failures.
    pub fn new(cluster: &Cluster, scheme: CovarianceScheme) -> Result<Self> {
        Ok(Self::with_representative(Representative::compile(
            cluster, scheme,
        )?))
    }

    /// Rebuilds the distance from [`ClusterDistance::parts`].
    pub fn from_parts(parts: RepresentativeParts) -> Self {
        Self::with_representative(Representative::assemble(parts))
    }

    fn with_representative(rep: Representative) -> Self {
        let dim = rep.mean.len();
        ClusterDistance {
            rep,
            scratch: RefCell::new(vec![0.0; dim]),
        }
    }

    /// The numbers this distance evaluates with.
    pub fn parts(&self) -> RepresentativeParts {
        self.rep.parts()
    }

    /// The cluster centroid this query is centered on.
    pub fn center(&self) -> &[f64] {
        &self.rep.mean
    }
}

impl QueryDistance for ClusterDistance {
    fn dim(&self) -> usize {
        self.rep.mean.len()
    }

    fn distance(&self, x: &[f64]) -> f64 {
        self.rep.quadratic(x, &mut self.scratch.borrow_mut())
    }

    fn distance_batch(&self, block: &[f64], dim: usize, out: &mut [f64]) {
        assert_eq!(dim, self.dim(), "query dimensionality mismatch");
        assert_eq!(block.len(), out.len() * dim, "block/out length mismatch");
        self.rep
            .quadratic_batch(block, dim, &mut self.scratch.borrow_mut(), out);
    }

    fn distance_tiles(&self, tiles: &[f64], dim: usize, out: &mut [f64]) {
        use qcluster_linalg::vecops::{expanded_weighted_sq_tile, untranspose_tile, TILE_LANES};
        assert_eq!(dim, self.dim(), "query dimensionality mismatch");
        let ntiles = out.len().div_ceil(TILE_LANES);
        assert_eq!(
            tiles.len(),
            ntiles * dim * TILE_LANES,
            "tiles/out length mismatch"
        );
        match self.rep.inv.diagonal_weights() {
            Some(w) => {
                // Tile-native expanded form: no transpose, no row
                // materialization — bit-for-bit equal to `distance_batch`.
                for (t, chunk) in out.chunks_mut(TILE_LANES).enumerate() {
                    let tile = &tiles[t * dim * TILE_LANES..(t + 1) * dim * TILE_LANES];
                    let d8 = expanded_weighted_sq_tile(tile, w, &self.rep.wc, self.rep.c0);
                    chunk.copy_from_slice(&d8[..chunk.len()]);
                }
            }
            None => {
                // Full scheme has no tile kernel: un-transpose and reuse
                // the blocked dense path.
                let mut rows = vec![0.0f64; TILE_LANES * dim];
                for (t, chunk) in out.chunks_mut(TILE_LANES).enumerate() {
                    let tile = &tiles[t * dim * TILE_LANES..(t + 1) * dim * TILE_LANES];
                    let pn = chunk.len();
                    untranspose_tile(tile, dim, &mut rows[..pn * dim]);
                    self.distance_batch(&rows[..pn * dim], dim, chunk);
                }
            }
        }
    }

    fn quantized_plan(&self, params: &QuantParams) -> Option<QuantPlan> {
        let w = self.rep.inv.diagonal_weights()?;
        if params.dim() != self.dim() {
            return None;
        }
        QuantPlan::build(
            params,
            &[QuantSpec {
                weights: Some(w),
                center: &self.rep.mean,
                mass: 1.0,
            }],
            1.0,
        )
    }

    fn min_distance(&self, b: &BoundingBox) -> f64 {
        self.rep.lower_bound(b, &mut self.scratch.borrow_mut())
    }
}

/// Reusable evaluation buffers for [`DisjunctiveQuery`]: the
/// column-major transpose tile for the diagonal scheme and the
/// full-scheme difference vector. Held in a `RefCell` so a compiled
/// query stays `&self`-evaluable without reallocating per call (or per
/// block).
#[derive(Debug, Clone)]
struct Scratch {
    tile: Vec<f64>,
    diff: Vec<f64>,
}

/// The disjunctive multipoint query (paper Eq. 5).
#[derive(Debug, Clone)]
pub struct DisjunctiveQuery {
    reps: Vec<Representative>,
    total_mass: f64,
    scratch: RefCell<Scratch>,
}

impl DisjunctiveQuery {
    /// Compiles the query from the engine's current clusters.
    ///
    /// # Errors
    ///
    /// Propagates covariance inversion failures.
    ///
    /// # Panics
    ///
    /// Panics on an empty cluster set.
    pub fn new(clusters: &[Cluster], scheme: CovarianceScheme) -> Result<Self> {
        assert!(!clusters.is_empty(), "need at least one cluster");
        let reps = clusters
            .iter()
            .map(|c| Representative::compile(c, scheme))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self::with_representatives(reps))
    }

    /// Rebuilds the query from [`DisjunctiveQuery::parts`].
    ///
    /// # Panics
    ///
    /// Panics on an empty set, or when diagonal and dense inverses mix
    /// (a compiled query has one scheme).
    pub fn from_parts(parts: Vec<RepresentativeParts>) -> Self {
        assert!(!parts.is_empty(), "need at least one representative");
        let diagonal = parts[0].inverse.diagonal_weights().is_some();
        assert!(
            parts
                .iter()
                .all(|p| p.inverse.diagonal_weights().is_some() == diagonal),
            "representatives must share one covariance scheme"
        );
        Self::with_representatives(parts.into_iter().map(Representative::assemble).collect())
    }

    fn with_representatives(reps: Vec<Representative>) -> Self {
        let total_mass = reps.iter().map(|r| r.mass).sum();
        let dim = reps[0].mean.len();
        DisjunctiveQuery {
            reps,
            total_mass,
            scratch: RefCell::new(Scratch {
                tile: Vec::new(),
                diff: vec![0.0; dim],
            }),
        }
    }

    /// The numbers each representative evaluates with, in order.
    pub fn parts(&self) -> Vec<RepresentativeParts> {
        self.reps.iter().map(Representative::parts).collect()
    }

    /// Number of cluster representatives (the paper's `g`).
    pub fn num_representatives(&self) -> usize {
        self.reps.len()
    }

    /// The representatives' centroids.
    pub fn centers(&self) -> Vec<&[f64]> {
        self.reps.iter().map(|r| r.mean.as_slice()).collect()
    }

    /// Evaluates Eq. 5 given the per-cluster quadratic distances.
    ///
    /// Per-cluster distances are clamped at 0 before aggregating: a tiny
    /// negative artifact from a near-singular covariance behaves exactly
    /// like coinciding with the representative. The clamp rides on IEEE
    /// semantics — `d = 0` makes `m / d = +∞`, the sum stays `+∞`, and
    /// `total_mass / ∞ = 0.0` exactly — so no branch or early return is
    /// needed and the accumulation order is fixed regardless of which
    /// cluster (if any) hits zero.
    #[inline]
    fn aggregate(&self, dists: impl Iterator<Item = (f64, f64)>) -> f64 {
        // dists yields (m_i, d_i).
        let mut inv_sum = 0.0;
        for (m, d) in dists {
            inv_sum += m / d.max(0.0);
        }
        self.total_mass / inv_sum
    }
}

impl QueryDistance for DisjunctiveQuery {
    fn dim(&self) -> usize {
        self.reps[0].mean.len()
    }

    fn distance(&self, x: &[f64]) -> f64 {
        let mut scratch = self.scratch.borrow_mut();
        let diff = &mut scratch.diff;
        self.aggregate(self.reps.iter().map(|r| (r.mass, r.quadratic(x, diff))))
    }

    fn distance_batch(&self, block: &[f64], dim: usize, out: &mut [f64]) {
        use qcluster_linalg::vecops::{expanded_weighted_sq_tile, transpose_tile, TILE_LANES};
        assert_eq!(dim, self.dim(), "query dimensionality mismatch");
        assert_eq!(block.len(), out.len() * dim, "block/out length mismatch");
        let mut scratch = self.scratch.borrow_mut();
        let Scratch { tile, diff } = &mut *scratch;
        if self.reps[0].inv.diagonal_weights().is_some() {
            // Diagonal scheme: transpose eight points at a time into an
            // L1-resident column-major tile and evaluate every
            // representative against it while it is hot. The Σ mᵢ/dᵢ
            // accumulators live in registers; per lane, the adds happen
            // in the same representative order as the scalar path, so the
            // result is bit-for-bit identical to calling `distance`.
            tile.resize(dim * TILE_LANES, 0.0);
            let count = out.len();
            let mut p0 = 0;
            while p0 < count {
                let pn = TILE_LANES.min(count - p0);
                transpose_tile(&block[p0 * dim..(p0 + pn) * dim], dim, tile);
                let mut acc = [0.0f64; TILE_LANES];
                for r in &self.reps {
                    let w = r.inv.diagonal_weights().expect("uniform scheme");
                    let d8 = expanded_weighted_sq_tile(tile, w, &r.wc, r.c0);
                    for l in 0..TILE_LANES {
                        acc[l] += r.mass / d8[l].max(0.0);
                    }
                }
                for l in 0..pn {
                    out[p0 + l] = self.total_mass / acc[l];
                }
                p0 += TILE_LANES;
            }
        } else {
            // Full scheme: the dense row pass dominates, so evaluate the
            // aggregate point by point exactly as `distance` does — the
            // block only amortizes the dispatch and the arena borrow.
            for (p, o) in out.iter_mut().enumerate() {
                let x = &block[p * dim..(p + 1) * dim];
                *o = self.aggregate(self.reps.iter().map(|r| (r.mass, r.quadratic(x, diff))));
            }
        }
    }

    fn distance_tiles(&self, tiles: &[f64], dim: usize, out: &mut [f64]) {
        use qcluster_linalg::vecops::{expanded_weighted_sq_tile, untranspose_tile, TILE_LANES};
        assert_eq!(dim, self.dim(), "query dimensionality mismatch");
        let ntiles = out.len().div_ceil(TILE_LANES);
        assert_eq!(
            tiles.len(),
            ntiles * dim * TILE_LANES,
            "tiles/out length mismatch"
        );
        if self.reps[0].inv.diagonal_weights().is_some() {
            // Same per-lane arithmetic as `distance_batch`'s diagonal
            // path, consuming pre-transposed tiles directly.
            for (t, chunk) in out.chunks_mut(TILE_LANES).enumerate() {
                let tile = &tiles[t * dim * TILE_LANES..(t + 1) * dim * TILE_LANES];
                let mut acc = [0.0f64; TILE_LANES];
                for r in &self.reps {
                    let w = r.inv.diagonal_weights().expect("uniform scheme");
                    let d8 = expanded_weighted_sq_tile(tile, w, &r.wc, r.c0);
                    for l in 0..TILE_LANES {
                        acc[l] += r.mass / d8[l].max(0.0);
                    }
                }
                for (l, o) in chunk.iter_mut().enumerate() {
                    *o = self.total_mass / acc[l];
                }
            }
        } else {
            let mut rows = vec![0.0f64; TILE_LANES * dim];
            for (t, chunk) in out.chunks_mut(TILE_LANES).enumerate() {
                let tile = &tiles[t * dim * TILE_LANES..(t + 1) * dim * TILE_LANES];
                let pn = chunk.len();
                untranspose_tile(tile, dim, &mut rows[..pn * dim]);
                self.distance_batch(&rows[..pn * dim], dim, chunk);
            }
        }
    }

    fn quantized_plan(&self, params: &QuantParams) -> Option<QuantPlan> {
        if params.dim() != self.dim() {
            return None;
        }
        let specs = self
            .reps
            .iter()
            .map(|r| {
                Some(QuantSpec {
                    weights: Some(r.inv.diagonal_weights()?),
                    center: r.mean.as_slice(),
                    mass: r.mass,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        QuantPlan::build(params, &specs, self.total_mass)
    }

    fn min_distance(&self, b: &BoundingBox) -> f64 {
        let mut scratch = self.scratch.borrow_mut();
        let diff = &mut scratch.diff;
        self.aggregate(self.reps.iter().map(|r| (r.mass, r.lower_bound(b, diff))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FeedbackPoint;

    fn pt(id: usize, v: &[f64], s: f64) -> FeedbackPoint {
        FeedbackPoint::new(id, v.to_vec(), s)
    }

    fn blob(cx: f64, cy: f64, ids: usize) -> Cluster {
        Cluster::from_points(vec![
            pt(ids, &[cx - 1.0, cy], 1.0),
            pt(ids + 1, &[cx + 1.0, cy], 1.0),
            pt(ids + 2, &[cx, cy - 1.0], 1.0),
            pt(ids + 3, &[cx, cy + 1.0], 1.0),
        ])
        .unwrap()
    }

    fn two_cluster_query(scheme: CovarianceScheme) -> DisjunctiveQuery {
        DisjunctiveQuery::new(&[blob(0.0, 0.0, 0), blob(10.0, 10.0, 4)], scheme).unwrap()
    }

    #[test]
    fn distance_is_zero_at_representatives() {
        let q = two_cluster_query(CovarianceScheme::default_diagonal());
        assert_eq!(q.distance(&[0.0, 0.0]), 0.0);
        assert_eq!(q.distance(&[10.0, 10.0]), 0.0);
    }

    #[test]
    fn disjunctive_shape_midpoint_is_far() {
        // The fuzzy-OR semantics: near either cluster beats the midpoint.
        let q = two_cluster_query(CovarianceScheme::default_diagonal());
        let near_a = q.distance(&[0.5, 0.5]);
        let near_b = q.distance(&[9.5, 9.5]);
        let mid = q.distance(&[5.0, 5.0]);
        assert!(near_a < mid);
        assert!(near_b < mid);
    }

    #[test]
    fn aggregate_below_smallest_component_times_count() {
        // Harmonic-mean property: d_agg ≤ min_i d_i · (Σm)/(m_min).
        let q = two_cluster_query(CovarianceScheme::default_diagonal());
        let x = [1.0, 1.0];
        let d_agg = q.distance(&x);
        let c0 =
            ClusterDistance::new(&blob(0.0, 0.0, 0), CovarianceScheme::default_diagonal()).unwrap();
        assert!(d_agg <= 2.0 * c0.distance(&x) + 1e-9);
    }

    #[test]
    fn mass_weighting_biases_toward_heavy_cluster() {
        let mut heavy_pts: Vec<FeedbackPoint> = Vec::new();
        for k in 0..4 {
            let p = blob(0.0, 0.0, 0).members()[k].clone();
            heavy_pts.push(FeedbackPoint::new(p.id, p.vector, 10.0));
        }
        let heavy = Cluster::from_points(heavy_pts).unwrap();
        let light = blob(10.0, 10.0, 4);
        let q =
            DisjunctiveQuery::new(&[heavy, light], CovarianceScheme::default_diagonal()).unwrap();
        let balanced = two_cluster_query(CovarianceScheme::default_diagonal());
        // At the midpoint the heavy query should pull the distance down
        // relative to cluster 1's side compared to the balanced query.
        let x = [5.0, 5.0];
        assert!(q.distance(&x).is_finite());
        assert!(balanced.distance(&x).is_finite());
    }

    #[test]
    fn lower_bound_contract_diagonal() {
        let q = two_cluster_query(CovarianceScheme::default_diagonal());
        let b = BoundingBox::new(vec![2.0, 2.0], vec![4.0, 4.0]);
        let lb = q.min_distance(&b);
        for i in 0..=10 {
            for j in 0..=10 {
                let x = [2.0 + 0.2 * i as f64, 2.0 + 0.2 * j as f64];
                assert!(
                    q.distance(&x) >= lb - 1e-9,
                    "x={x:?} d={} lb={lb}",
                    q.distance(&x)
                );
            }
        }
    }

    #[test]
    fn lower_bound_contract_full() {
        // Build clusters with correlated covariance to exercise λ_min.
        let a = Cluster::from_points(vec![
            pt(0, &[0.0, 0.0], 1.0),
            pt(1, &[1.0, 1.0], 1.0),
            pt(2, &[2.0, 2.2], 1.0),
            pt(3, &[-1.0, -0.9], 1.0),
        ])
        .unwrap();
        let b = Cluster::from_points(vec![
            pt(4, &[8.0, 0.0], 1.0),
            pt(5, &[9.0, 1.0], 1.0),
            pt(6, &[10.0, -1.0], 1.0),
        ])
        .unwrap();
        let q = DisjunctiveQuery::new(&[a, b], CovarianceScheme::default_full()).unwrap();
        let bx = BoundingBox::new(vec![3.0, -2.0], vec![6.0, 2.0]);
        let lb = q.min_distance(&bx);
        for i in 0..=10 {
            for j in 0..=10 {
                let x = [3.0 + 0.3 * i as f64, -2.0 + 0.4 * j as f64];
                assert!(q.distance(&x) >= lb - 1e-9);
            }
        }
    }

    #[test]
    fn single_cluster_query_reduces_to_quadratic() {
        let c = blob(0.0, 0.0, 0);
        let scheme = CovarianceScheme::default_diagonal();
        let dq = DisjunctiveQuery::new(std::slice::from_ref(&c), scheme).unwrap();
        let cd = ClusterDistance::new(&c, scheme).unwrap();
        for &x in &[[0.5, 0.5], [3.0, -1.0], [0.0, 2.0]] {
            assert!((dq.distance(&x) - cd.distance(&x)).abs() < 1e-12);
        }
    }

    #[test]
    fn box_containing_representative_has_zero_bound() {
        let q = two_cluster_query(CovarianceScheme::default_diagonal());
        let b = BoundingBox::new(vec![-1.0, -1.0], vec![1.0, 1.0]);
        assert_eq!(q.min_distance(&b), 0.0);
    }

    #[test]
    fn aggregate_clamps_negative_artifacts_to_zero() {
        // A tiny negative per-cluster distance (numerical artifact of a
        // near-singular covariance) must aggregate exactly like a zero
        // distance, not poison the harmonic mean with a negative term.
        let q = two_cluster_query(CovarianceScheme::default_diagonal());
        assert_eq!(q.aggregate([(1.0, -1e-14), (1.0, 3.0)].into_iter()), 0.0);
        assert_eq!(q.aggregate([(1.0, 0.0), (1.0, 3.0)].into_iter()), 0.0);
        // All-positive distances are unaffected by the clamp.
        let clean = q.aggregate([(1.0, 2.0), (1.0, 4.0)].into_iter());
        assert!((clean - q.total_mass / (1.0 / 2.0 + 1.0 / 4.0)).abs() < 1e-12);
    }

    #[test]
    fn near_singular_cluster_yields_finite_nonnegative_distances() {
        // Points nearly on a line: the sample covariance is close to
        // singular, so the full scheme leans on regularization and the
        // quadratic form can wobble near zero. Distances must stay finite
        // and non-negative everywhere.
        let a = Cluster::from_points(vec![
            pt(0, &[0.0, 0.0], 1.0),
            pt(1, &[1.0, 1.0 + 1e-9], 1.0),
            pt(2, &[2.0, 2.0 - 1e-9], 1.0),
            pt(3, &[3.0, 3.0], 1.0),
        ])
        .unwrap();
        let b = blob(10.0, 10.0, 4);
        for scheme in [
            CovarianceScheme::default_diagonal(),
            CovarianceScheme::default_full(),
        ] {
            let q = DisjunctiveQuery::new(&[a.clone(), b.clone()], scheme).unwrap();
            for &x in &[
                [0.0, 0.0],
                [1.5, 1.5],
                [1.5, 1.5 + 1e-10],
                [10.0, 10.0],
                [5.0, 4.0],
            ] {
                let d = q.distance(&x);
                assert!(d.is_finite(), "x={x:?} d={d}");
                assert!(d >= 0.0, "x={x:?} d={d}");
            }
        }
    }

    fn grid_block(dim: usize, n: usize) -> Vec<f64> {
        // Deterministic pseudo-random block via an LCG.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut block = Vec::with_capacity(n * dim);
        for _ in 0..n * dim {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            block.push(((state >> 11) as f64 / (1u64 << 53) as f64) * 12.0 - 1.0);
        }
        block
    }

    #[test]
    fn batch_matches_scalar_bit_for_bit() {
        for scheme in [
            CovarianceScheme::default_diagonal(),
            CovarianceScheme::default_full(),
        ] {
            let q = two_cluster_query(scheme);
            let cd = ClusterDistance::new(&blob(0.0, 0.0, 0), scheme).unwrap();
            for n in [1usize, 3, 7, 13] {
                let block = grid_block(2, n);
                let mut got = vec![0.0; n];
                q.distance_batch(&block, 2, &mut got);
                for p in 0..n {
                    let want = q.distance(&block[p * 2..(p + 1) * 2]);
                    assert_eq!(got[p], want, "disjunctive {scheme:?} n={n} p={p}");
                }
                cd.distance_batch(&block, 2, &mut got);
                for p in 0..n {
                    let want = cd.distance(&block[p * 2..(p + 1) * 2]);
                    assert_eq!(got[p], want, "cluster {scheme:?} n={n} p={p}");
                }
            }
        }
    }

    #[test]
    fn batch_distance_zero_at_representatives() {
        let q = two_cluster_query(CovarianceScheme::default_diagonal());
        let block = [0.0, 0.0, 5.0, 5.0, 10.0, 10.0];
        let mut out = [0.0; 3];
        q.distance_batch(&block, 2, &mut out);
        assert_eq!(out[0], 0.0);
        assert!(out[1] > 0.0);
        assert_eq!(out[2], 0.0);
    }

    fn tiles_of(block: &[f64], dim: usize, n: usize) -> Vec<f64> {
        use qcluster_linalg::vecops::{transpose_tile, TILE_LANES};
        let ntiles = n.div_ceil(TILE_LANES);
        let mut tiles = vec![0.0; ntiles * dim * TILE_LANES];
        for t in 0..ntiles {
            let lo = t * TILE_LANES;
            let hi = n.min(lo + TILE_LANES);
            transpose_tile(
                &block[lo * dim..hi * dim],
                dim,
                &mut tiles[t * dim * TILE_LANES..(t + 1) * dim * TILE_LANES],
            );
        }
        tiles
    }

    #[test]
    fn tiles_match_batch_bit_for_bit() {
        for scheme in [
            CovarianceScheme::default_diagonal(),
            CovarianceScheme::default_full(),
        ] {
            let q = two_cluster_query(scheme);
            let cd = ClusterDistance::new(&blob(0.0, 0.0, 0), scheme).unwrap();
            for n in [1usize, 7, 8, 13, 24] {
                let block = grid_block(2, n);
                let tiles = tiles_of(&block, 2, n);
                let mut want = vec![0.0; n];
                let mut got = vec![0.0; n];
                q.distance_batch(&block, 2, &mut want);
                q.distance_tiles(&tiles, 2, &mut got);
                assert_eq!(got, want, "disjunctive {scheme:?} n={n}");
                cd.distance_batch(&block, 2, &mut want);
                cd.distance_tiles(&tiles, 2, &mut got);
                assert_eq!(got, want, "cluster {scheme:?} n={n}");
            }
        }
    }

    #[test]
    fn two_phase_matches_exact_for_disjunctive_query() {
        use qcluster_index::{LinearScan, QuantizedScan};
        let n = 257;
        let data = grid_block(2, n);
        let exact = LinearScan::from_flat(data.clone(), 2);
        let quant = QuantizedScan::from_flat(&data, 2);
        let q = two_cluster_query(CovarianceScheme::default_diagonal());
        for k in [1usize, 5, 16] {
            let want = exact.knn(&q, k);
            let (got, stats) = quant.two_phase_knn(&q, k, None);
            assert_eq!(got, want, "k={k}");
            assert_eq!(stats.plan_misses, 0, "diagonal scheme must quantize");
        }
    }

    #[test]
    fn full_scheme_misses_plan_but_stays_exact() {
        use qcluster_index::{LinearScan, QuantizedScan};
        let n = 64;
        let data = grid_block(2, n);
        let exact = LinearScan::from_flat(data.clone(), 2);
        let quant = QuantizedScan::from_flat(&data, 2);
        let q = two_cluster_query(CovarianceScheme::default_full());
        assert!(q.quantized_plan(quant.params()).is_none());
        let (got, stats) = quant.two_phase_knn(&q, 4, None);
        assert_eq!(got, exact.knn(&q, 4));
        assert_eq!(stats.plan_misses, 1);
        assert_eq!(stats.phase1_points, 0);
    }
}
