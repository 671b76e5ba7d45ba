//! Brute-force linear scan — the exactness oracle and small-data path.

use crate::distance::QueryDistance;
use crate::knn::{Neighbor, TopK};

/// Points per block when scanning through `distance_batch`: 256 points of
/// 24-d `f64` data is ~48 KiB — enough to amortize per-block dispatch and
/// scratch setup while the block and the query's compiled coefficients
/// stay L1/L2-resident.
pub const SCAN_BLOCK_POINTS: usize = 256;

/// A flat copy of the data set answering k-NN by full scan.
///
/// Used to validate the tree search (they must agree exactly) and for the
/// small in-memory candidate sets inside the relevance-feedback loop where
/// building a tree wouldn't pay off.
#[derive(Debug, Clone)]
pub struct LinearScan {
    data: Vec<f64>,
    dim: usize,
    len: usize,
}

impl LinearScan {
    /// Copies `points` into a contiguous buffer.
    ///
    /// # Panics
    ///
    /// Panics on an empty set or ragged dimensionalities.
    pub fn new(points: &[Vec<f64>]) -> Self {
        assert!(!points.is_empty(), "cannot scan an empty point set");
        let dim = points[0].len();
        assert!(
            points.iter().all(|p| p.len() == dim),
            "all points must share one dimensionality"
        );
        let mut data = Vec::with_capacity(points.len() * dim);
        for p in points {
            data.extend_from_slice(p);
        }
        LinearScan {
            data,
            dim,
            len: points.len(),
        }
    }

    /// Adopts an already-flat row-major buffer without copying — the
    /// segment-load path: a v1 segment's record region *is* this layout,
    /// so a scan is one buffer handoff away from the file bytes.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0`, `data` is empty, or `data.len()` is not a
    /// multiple of `dim`.
    pub fn from_flat(data: Vec<f64>, dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(!data.is_empty(), "cannot scan an empty point set");
        assert_eq!(data.len() % dim, 0, "data length not a multiple of dim");
        let len = data.len() / dim;
        LinearScan { data, dim, len }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The point with index `id`.
    pub fn point(&self, id: usize) -> &[f64] {
        &self.data[id * self.dim..(id + 1) * self.dim]
    }

    /// The contiguous row-major block of points `[start, start + count)`.
    ///
    /// # Panics
    ///
    /// Panics when the range exceeds the scan's length.
    pub fn block(&self, start: usize, count: usize) -> &[f64] {
        assert!(start + count <= self.len, "block out of range");
        &self.data[start * self.dim..(start + count) * self.dim]
    }

    /// Exact k-NN, ties broken by id, ascending distance.
    ///
    /// Scans the corpus in [`SCAN_BLOCK_POINTS`]-sized blocks through
    /// [`QueryDistance::distance_batch`], feeding a bounded top-k heap —
    /// `O(n log k)` selection instead of a full `O(n log n)` sort, with
    /// results (including tie-breaks) identical to sorting every
    /// candidate by `(distance, id)` and truncating.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0` or the query dimensionality disagrees.
    pub fn knn<Q: QueryDistance + ?Sized>(&self, query: &Q, k: usize) -> Vec<Neighbor> {
        assert!(k > 0, "k must be positive");
        assert_eq!(query.dim(), self.dim, "query dimensionality mismatch");
        let mut top = TopK::new(k);
        let mut dists = [0.0f64; SCAN_BLOCK_POINTS];
        let mut start = 0;
        while start < self.len {
            let count = SCAN_BLOCK_POINTS.min(self.len - start);
            query.distance_batch(self.block(start, count), self.dim, &mut dists[..count]);
            top.offer_block(&dists[..count], |i| start + i);
            start += count;
        }
        top.into_sorted()
    }

    /// All points within `radius` of the query (distance ≤ radius).
    pub fn range<Q: QueryDistance + ?Sized>(&self, query: &Q, radius: f64) -> Vec<Neighbor> {
        let mut out = Vec::new();
        let mut dists = [0.0f64; SCAN_BLOCK_POINTS];
        let mut start = 0;
        while start < self.len {
            let count = SCAN_BLOCK_POINTS.min(self.len - start);
            query.distance_batch(self.block(start, count), self.dim, &mut dists[..count]);
            for (i, &d) in dists[..count].iter().enumerate() {
                if d <= radius {
                    out.push(Neighbor {
                        id: start + i,
                        distance: d,
                    });
                }
            }
            start += count;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::EuclideanQuery;

    #[test]
    fn knn_orders_by_distance() {
        let pts = vec![vec![0.0], vec![10.0], vec![3.0], vec![-2.0]];
        let scan = LinearScan::new(&pts);
        let q = EuclideanQuery::new(vec![1.0]);
        let nn = scan.knn(&q, 3);
        assert_eq!(nn[0].id, 0);
        assert_eq!(nn[1].id, 2);
        assert_eq!(nn[2].id, 3);
    }

    #[test]
    fn range_query_filters_by_radius() {
        let pts = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![5.0, 5.0]];
        let scan = LinearScan::new(&pts);
        let q = EuclideanQuery::new(vec![0.0, 0.0]);
        let within = scan.range(&q, 1.0);
        assert_eq!(within.len(), 2);
    }

    #[test]
    fn ties_break_by_id() {
        let pts = vec![vec![1.0], vec![-1.0], vec![1.0]];
        let scan = LinearScan::new(&pts);
        let q = EuclideanQuery::new(vec![0.0]);
        let nn = scan.knn(&q, 3);
        assert_eq!(nn.iter().map(|n| n.id).collect::<Vec<_>>(), vec![0, 1, 2]);
    }
}
