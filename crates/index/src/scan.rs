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

    /// A scan over no points yet, to be grown with [`LinearScan::push`]
    /// — the service's live-ingest overlay. Its `knn` returns no
    /// neighbours until the first push.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0`.
    pub fn empty(dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        LinearScan {
            data: Vec::new(),
            dim,
            len: 0,
        }
    }

    /// Appends one point; its id is the length before the call.
    ///
    /// # Panics
    ///
    /// Panics on a dimensionality mismatch.
    pub fn push(&mut self, point: &[f64]) {
        assert_eq!(point.len(), self.dim, "point dimensionality mismatch");
        self.data.extend_from_slice(point);
        self.len += 1;
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for a scan built by [`LinearScan::empty`] and not yet
    /// pushed to.
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
    fn empty_plus_push_equals_new() {
        // 600 points: more than two scan blocks, with exact duplicates
        // so ties are broken by id.
        let pts: Vec<Vec<f64>> = (0..600)
            .map(|i| {
                let a = (i % 150) as f64 * 0.37;
                vec![a.cos() * 3.0, a.sin() * 2.0, a * 0.01]
            })
            .collect();
        let built = LinearScan::new(&pts);
        let mut grown = LinearScan::empty(3);
        let q = EuclideanQuery::new(vec![0.5, -0.25, 0.1]);
        assert!(grown.is_empty());
        assert!(grown.knn(&q, 5).is_empty(), "no points, no neighbours");
        for p in &pts {
            grown.push(p);
        }
        assert_eq!(grown.len(), built.len());
        for id in 0..pts.len() {
            assert_eq!(grown.point(id), built.point(id));
        }
        for k in [1, 7, 600, 1000] {
            assert_eq!(grown.knn(&q, k), built.knn(&q, k), "k = {k}");
        }
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
