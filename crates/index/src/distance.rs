//! The pluggable distance abstraction for k-NN search.
//!
//! Every retrieval approach in the paper boils down to a distance function
//! over feature space that a best-first tree search must be able to
//! lower-bound over a bounding box:
//!
//! - MARS QPM: weighted Euclidean (diagonal quadratic form),
//! - MindReader: generalized Euclidean (full quadratic form),
//! - MARS QEX: weighted sum of per-representative quadratic forms,
//! - Qcluster: the disjunctive harmonic aggregate of per-cluster quadratic
//!   forms (Eq. 5),
//! - FALCON: the `α`-norm aggregate over all relevant points.
//!
//! All implement [`QueryDistance`]; the tree search is generic over it.

use crate::bbox::BoundingBox;
use crate::quant::{QuantParams, QuantPlan, QuantSpec};
use qcluster_linalg::vecops::TILE_LANES;

/// A distance function a best-first search can prune with.
///
/// Implementations must satisfy the **lower-bound contract**: for every box
/// `b` and every point `x ∈ b`, `min_distance(b) <= distance(x)`. When the
/// contract holds the tree search is exact.
pub trait QueryDistance {
    /// Dimensionality of the feature space this query lives in.
    fn dim(&self) -> usize;

    /// The distance from the query to `x` (smaller = more similar).
    fn distance(&self, x: &[f64]) -> f64;

    /// Evaluates the distance for every point of a contiguous row-major
    /// block: `out[p] = distance(block[p*dim..(p+1)*dim])`.
    ///
    /// The default implementation loops over [`QueryDistance::distance`];
    /// implementations with a cheaper blocked form (fused passes, shared
    /// scratch, unrolled accumulators) override it. Overrides must return
    /// results identical to the scalar path so blocked and per-point scans
    /// rank candidates the same way.
    ///
    /// # Panics
    ///
    /// Panics when `dim != self.dim()` or `block.len() != out.len() * dim`.
    fn distance_batch(&self, block: &[f64], dim: usize, out: &mut [f64]) {
        assert_eq!(dim, self.dim(), "query dimensionality mismatch");
        assert_eq!(block.len(), out.len() * dim, "block/out length mismatch");
        for (p, o) in out.iter_mut().enumerate() {
            *o = self.distance(&block[p * dim..(p + 1) * dim]);
        }
    }

    /// Evaluates the distance for `out.len()` points stored in the
    /// transposed-tile layout (`ceil(out.len()/8)` tiles of
    /// `dim × 8` column-major values, see
    /// [`qcluster_linalg::vecops::transpose_tile`]): the native layout
    /// of [`crate::TileCorpus`] and segment format v2, consumed with no
    /// transpose at scan time.
    ///
    /// The default un-transposes each tile and delegates to
    /// [`QueryDistance::distance_batch`]; tile-kernel overrides must be
    /// bit-for-bit identical to it.
    ///
    /// # Panics
    ///
    /// Panics when `dim != self.dim()` or
    /// `tiles.len() != ceil(out.len()/8) * dim * 8`.
    fn distance_tiles(&self, tiles: &[f64], dim: usize, out: &mut [f64]) {
        assert_eq!(dim, self.dim(), "query dimensionality mismatch");
        let ntiles = out.len().div_ceil(TILE_LANES);
        assert_eq!(
            tiles.len(),
            ntiles * dim * TILE_LANES,
            "tiles/out length mismatch"
        );
        let mut rows = vec![0.0f64; TILE_LANES * dim];
        for (t, chunk) in out.chunks_mut(TILE_LANES).enumerate() {
            let tile = &tiles[t * dim * TILE_LANES..(t + 1) * dim * TILE_LANES];
            let pn = chunk.len();
            qcluster_linalg::vecops::untranspose_tile(tile, dim, &mut rows[..pn * dim]);
            self.distance_batch(&rows[..pn * dim], dim, chunk);
        }
    }

    /// Compiles this query against a corpus' quantization parameters
    /// into a phase-1 lower-bound evaluator for the two-phase scan.
    ///
    /// The default returns `None` (no sound bound available — e.g. full
    /// covariance forms), which makes [`crate::QuantizedScan`] run the
    /// exact path. Implementations returning `Some` must produce
    /// **sound** plans: phase-1 bounds never exceed the exact computed
    /// distance of any point coded under `params`.
    fn quantized_plan(&self, params: &QuantParams) -> Option<QuantPlan> {
        let _ = params;
        None
    }

    /// A lower bound on `distance(x)` over all `x` in `b`.
    fn min_distance(&self, b: &BoundingBox) -> f64;
}

impl<T: QueryDistance + ?Sized> QueryDistance for &T {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn distance(&self, x: &[f64]) -> f64 {
        (**self).distance(x)
    }
    fn distance_batch(&self, block: &[f64], dim: usize, out: &mut [f64]) {
        (**self).distance_batch(block, dim, out)
    }
    fn distance_tiles(&self, tiles: &[f64], dim: usize, out: &mut [f64]) {
        (**self).distance_tiles(tiles, dim, out)
    }
    fn quantized_plan(&self, params: &QuantParams) -> Option<QuantPlan> {
        (**self).quantized_plan(params)
    }
    fn min_distance(&self, b: &BoundingBox) -> f64 {
        (**self).min_distance(b)
    }
}

impl<T: QueryDistance + ?Sized> QueryDistance for Box<T> {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn distance(&self, x: &[f64]) -> f64 {
        (**self).distance(x)
    }
    fn distance_batch(&self, block: &[f64], dim: usize, out: &mut [f64]) {
        (**self).distance_batch(block, dim, out)
    }
    fn distance_tiles(&self, tiles: &[f64], dim: usize, out: &mut [f64]) {
        (**self).distance_tiles(tiles, dim, out)
    }
    fn quantized_plan(&self, params: &QuantParams) -> Option<QuantPlan> {
        (**self).quantized_plan(params)
    }
    fn min_distance(&self, b: &BoundingBox) -> f64 {
        (**self).min_distance(b)
    }
}

/// A query that can be fanned out to worker threads: evaluable, sendable,
/// and cloneable per worker.
///
/// Refined queries carry interior scratch buffers, so they are `Send` but
/// not `Sync`: a parallel scan never shares one between workers, each
/// gets its own [`FanoutQuery::clone_fanout`]. Blanket-implemented for
/// every `Clone + Send` [`QueryDistance`], which covers all query types
/// in this workspace (Euclidean, weighted Euclidean, cluster,
/// disjunctive and multipoint queries).
///
/// `Any` is a supertrait so a type-erased query can be downcast to its
/// concrete kind (the service's wire form of a compiled query reads the
/// numbers out that way).
pub trait FanoutQuery: QueryDistance + Send + std::any::Any {
    /// A boxed clone for one worker.
    fn clone_fanout(&self) -> Box<dyn FanoutQuery>;
}

impl<T: QueryDistance + Clone + Send + 'static> FanoutQuery for T {
    fn clone_fanout(&self) -> Box<dyn FanoutQuery> {
        Box::new(self.clone())
    }
}

/// Copies whole tiles through a tile kernel producing `[f64; 8]` per
/// tile into a truncated `out` (the final tile may be padded).
pub(crate) fn tiles_via_kernel<F: FnMut(&[f64]) -> [f64; TILE_LANES]>(
    tiles: &[f64],
    dim: usize,
    out: &mut [f64],
    mut kernel: F,
) {
    let ntiles = out.len().div_ceil(TILE_LANES);
    assert_eq!(
        tiles.len(),
        ntiles * dim * TILE_LANES,
        "tiles/out length mismatch"
    );
    for (t, chunk) in out.chunks_mut(TILE_LANES).enumerate() {
        let d8 = kernel(&tiles[t * dim * TILE_LANES..(t + 1) * dim * TILE_LANES]);
        chunk.copy_from_slice(&d8[..chunk.len()]);
    }
}

/// Plain squared Euclidean distance to a single query point.
#[derive(Debug, Clone)]
pub struct EuclideanQuery {
    center: Vec<f64>,
}

impl EuclideanQuery {
    /// Creates a query centered at `center`.
    pub fn new(center: Vec<f64>) -> Self {
        assert!(!center.is_empty(), "query center must be non-empty");
        EuclideanQuery { center }
    }

    /// The query point.
    pub fn center(&self) -> &[f64] {
        &self.center
    }
}

impl QueryDistance for EuclideanQuery {
    fn dim(&self) -> usize {
        self.center.len()
    }

    fn distance(&self, x: &[f64]) -> f64 {
        qcluster_linalg::vecops::sq_euclidean(x, &self.center)
    }

    fn distance_batch(&self, block: &[f64], dim: usize, out: &mut [f64]) {
        assert_eq!(dim, self.dim(), "query dimensionality mismatch");
        qcluster_linalg::vecops::sq_euclidean_batch(block, dim, &self.center, out);
    }

    fn distance_tiles(&self, tiles: &[f64], dim: usize, out: &mut [f64]) {
        assert_eq!(dim, self.dim(), "query dimensionality mismatch");
        tiles_via_kernel(tiles, dim, out, |tile| {
            qcluster_linalg::vecops::sq_euclidean_tile(tile, &self.center)
        });
    }

    fn quantized_plan(&self, params: &QuantParams) -> Option<QuantPlan> {
        if params.dim() != self.dim() {
            return None;
        }
        QuantPlan::build(
            params,
            &[QuantSpec {
                weights: None,
                center: &self.center,
                mass: 1.0,
            }],
            1.0,
        )
    }

    fn min_distance(&self, b: &BoundingBox) -> f64 {
        // Distance to the clamped point: exact for monotone coordinate-wise
        // distances.
        let mut acc = 0.0;
        for i in 0..self.center.len() {
            let c = self.center[i].clamp(b.lo()[i], b.hi()[i]);
            let d = self.center[i] - c;
            acc += d * d;
        }
        acc
    }
}

/// Weighted squared Euclidean distance — MARS's re-weighted query
/// (a diagonal quadratic form `Σ w_i (x_i − c_i)²` with `w_i ≥ 0`).
#[derive(Debug, Clone)]
pub struct WeightedEuclideanQuery {
    center: Vec<f64>,
    weights: Vec<f64>,
}

impl WeightedEuclideanQuery {
    /// Creates a weighted query.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ, the center is empty, or any weight is
    /// negative (negative weights break the lower-bound contract).
    pub fn new(center: Vec<f64>, weights: Vec<f64>) -> Self {
        assert!(!center.is_empty(), "query center must be non-empty");
        assert_eq!(center.len(), weights.len(), "weight length mismatch");
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "weights must be non-negative"
        );
        WeightedEuclideanQuery { center, weights }
    }

    /// The query point.
    pub fn center(&self) -> &[f64] {
        &self.center
    }

    /// Per-dimension weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl QueryDistance for WeightedEuclideanQuery {
    fn dim(&self) -> usize {
        self.center.len()
    }

    fn distance(&self, x: &[f64]) -> f64 {
        qcluster_linalg::vecops::weighted_sq_euclidean(x, &self.center, &self.weights)
    }

    fn distance_batch(&self, block: &[f64], dim: usize, out: &mut [f64]) {
        assert_eq!(dim, self.dim(), "query dimensionality mismatch");
        qcluster_linalg::vecops::weighted_sq_euclidean_batch(
            block,
            dim,
            &self.center,
            &self.weights,
            out,
        );
    }

    fn distance_tiles(&self, tiles: &[f64], dim: usize, out: &mut [f64]) {
        assert_eq!(dim, self.dim(), "query dimensionality mismatch");
        tiles_via_kernel(tiles, dim, out, |tile| {
            qcluster_linalg::vecops::weighted_sq_euclidean_tile(tile, &self.center, &self.weights)
        });
    }

    fn quantized_plan(&self, params: &QuantParams) -> Option<QuantPlan> {
        if params.dim() != self.dim() {
            return None;
        }
        QuantPlan::build(
            params,
            &[QuantSpec {
                weights: Some(&self.weights),
                center: &self.center,
                mass: 1.0,
            }],
            1.0,
        )
    }

    fn min_distance(&self, b: &BoundingBox) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.center.len() {
            let c = self.center[i].clamp(b.lo()[i], b.hi()[i]);
            let d = self.center[i] - c;
            acc += self.weights[i] * d * d;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_distance_and_bound() {
        let q = EuclideanQuery::new(vec![0.0, 0.0]);
        assert_eq!(q.distance(&[3.0, 4.0]), 25.0);
        let b = BoundingBox::new(vec![1.0, 1.0], vec![2.0, 2.0]);
        assert_eq!(q.min_distance(&b), 2.0);
        // Query inside the box: lower bound is zero.
        let b2 = BoundingBox::new(vec![-1.0, -1.0], vec![1.0, 1.0]);
        assert_eq!(q.min_distance(&b2), 0.0);
    }

    #[test]
    fn weighted_distance_and_bound() {
        let q = WeightedEuclideanQuery::new(vec![0.0, 0.0], vec![1.0, 100.0]);
        assert_eq!(q.distance(&[1.0, 1.0]), 101.0);
        let b = BoundingBox::new(vec![0.0, 1.0], vec![1.0, 2.0]);
        assert_eq!(q.min_distance(&b), 100.0);
    }

    #[test]
    fn lower_bound_contract_on_grid() {
        let q = WeightedEuclideanQuery::new(vec![0.3, -0.2], vec![2.0, 0.7]);
        let b = BoundingBox::new(vec![-1.0, 0.0], vec![1.0, 1.0]);
        let lb = q.min_distance(&b);
        for i in 0..=10 {
            for j in 0..=10 {
                let x = [-1.0 + 0.2 * i as f64, 0.1 * j as f64];
                assert!(q.distance(&x) >= lb - 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_rejected() {
        let _ = WeightedEuclideanQuery::new(vec![0.0], vec![-1.0]);
    }
}
