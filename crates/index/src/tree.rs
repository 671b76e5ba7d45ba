//! A bulk-loaded, kd-partitioned feature-vector tree ("hybrid tree").
//!
//! The paper indexes the 30,000-image feature database with the hybrid tree
//! of Chakrabarti & Mehrotra \[6\] using 4 KB nodes. The hybrid tree is a
//! kd-tree-style single-dimension-split index whose nodes are treated like
//! disk pages; what the experiments need from it is (a) exact k-NN under
//! pluggable distance functions and (b) a node-granular access count as the
//! I/O proxy. This implementation provides both:
//!
//! - nodes are built by recursive median split on the widest dimension of
//!   the node's bounding box (the hybrid tree also splits on one dimension,
//!   unlike R-trees);
//! - leaf capacity is derived from a configurable **page size in bytes**
//!   (default 4 KB, the paper's setting) and the feature dimensionality;
//! - each node stores its tight bounding box for lower-bound pruning.
//!
//! Nodes live in a flat arena; child links are indices. The tree is
//! immutable after bulk load — the retrieval experiments never insert.

use crate::bbox::BoundingBox;

/// Default page size in bytes (the paper fixes "the node size to 4KB").
pub const DEFAULT_PAGE_BYTES: usize = 4096;

/// One tree node: either an internal node with two children or a leaf
/// holding a contiguous range of the (reordered) point array.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    Internal {
        bbox: BoundingBox,
        left: usize,
        right: usize,
    },
    Leaf {
        bbox: BoundingBox,
        /// Range into `HybridTree::order`.
        start: usize,
        end: usize,
    },
}

impl Node {
    pub(crate) fn bbox(&self) -> &BoundingBox {
        match self {
            Node::Internal { bbox, .. } | Node::Leaf { bbox, .. } => bbox,
        }
    }
}

/// An immutable bulk-loaded index over a set of feature vectors.
///
/// Points are identified by their index in the `points` array handed to
/// [`HybridTree::bulk_load`]; k-NN results report these ids.
///
/// ```
/// use qcluster_index::{EuclideanQuery, HybridTree};
///
/// let points = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![5.0, 5.0]];
/// let tree = HybridTree::bulk_load(&points);
/// let (nearest, stats) = tree.knn(&EuclideanQuery::new(vec![0.9, 0.9]), 2, None);
/// assert_eq!(nearest[0].id, 1);
/// assert_eq!(nearest[1].id, 0);
/// assert!(stats.nodes_accessed >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct HybridTree {
    pub(crate) nodes: Vec<Node>,
    /// Permutation of point ids; leaves reference contiguous ranges.
    pub(crate) order: Vec<usize>,
    /// Flat copy of the points in `order`-permuted layout for locality.
    pub(crate) data: Vec<f64>,
    pub(crate) dim: usize,
    pub(crate) root: usize,
    leaf_capacity: usize,
}

impl HybridTree {
    /// Bulk loads a tree over `points` with the default 4 KB page size.
    ///
    /// # Panics
    ///
    /// Panics on an empty point set or inconsistent dimensionalities.
    pub fn bulk_load(points: &[Vec<f64>]) -> Self {
        Self::bulk_load_with_page_size(points, DEFAULT_PAGE_BYTES)
    }

    /// Bulk loads with an explicit page size in bytes.
    ///
    /// The leaf capacity is `page_bytes / (8 * dim)` feature vectors
    /// (8 bytes per `f64`), at least 2.
    ///
    /// # Panics
    ///
    /// Panics on an empty point set or inconsistent dimensionalities.
    pub fn bulk_load_with_page_size(points: &[Vec<f64>], page_bytes: usize) -> Self {
        assert!(!points.is_empty(), "cannot index an empty point set");
        let dim = points[0].len();
        assert!(dim > 0, "points must have at least one dimension");
        assert!(
            points.iter().all(|p| p.len() == dim),
            "all points must share one dimensionality"
        );
        assert!(
            points.iter().all(|p| p.iter().all(|v| v.is_finite())),
            "points must be finite (NaN/inf break distance ordering)"
        );
        let leaf_capacity = (page_bytes / (8 * dim)).max(2);

        let mut order: Vec<usize> = (0..points.len()).collect();
        let mut nodes = Vec::new();
        let root = build(
            points,
            &mut order,
            0,
            points.len(),
            leaf_capacity,
            &mut nodes,
        );

        // Pack the reordered points contiguously.
        let mut data = Vec::with_capacity(points.len() * dim);
        for &id in &order {
            data.extend_from_slice(&points[id]);
        }

        HybridTree {
            nodes,
            order,
            data,
            dim,
            root,
            leaf_capacity,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when the tree indexes no points (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total number of nodes (internal + leaf).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum points per leaf (derived from the page size).
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_capacity
    }

    /// The bounding box of the whole data set.
    pub fn root_bbox(&self) -> &BoundingBox {
        self.nodes[self.root].bbox()
    }
}

/// Recursively builds the subtree over `order[start..end]`; returns the
/// arena index of the subtree root.
fn build(
    points: &[Vec<f64>],
    order: &mut [usize],
    start: usize,
    end: usize,
    leaf_capacity: usize,
    nodes: &mut Vec<Node>,
) -> usize {
    let bbox = BoundingBox::from_points(order[start..end].iter().map(|&id| points[id].as_slice()));
    if end - start <= leaf_capacity {
        nodes.push(Node::Leaf { bbox, start, end });
        return nodes.len() - 1;
    }
    let (split_dim, extent) = bbox.widest_dim();
    if extent <= 0.0 {
        // All points identical: force a leaf regardless of capacity.
        nodes.push(Node::Leaf { bbox, start, end });
        return nodes.len() - 1;
    }
    let mid = start + (end - start) / 2;
    // Median split on the widest dimension (hybrid-tree style 1-D split).
    order[start..end].select_nth_unstable_by((end - start) / 2, |&a, &b| {
        points[a][split_dim]
            .partial_cmp(&points[b][split_dim])
            .expect("non-NaN coordinates")
    });
    let left = build(points, order, start, mid, leaf_capacity, nodes);
    let right = build(points, order, mid, end, leaf_capacity, nodes);
    nodes.push(Node::Internal { bbox, left, right });
    nodes.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .flat_map(|i| (0..n).map(move |j| vec![i as f64, j as f64]))
            .collect()
    }

    #[test]
    fn bulk_load_indexes_all_points() {
        let pts = grid_points(10);
        let t = HybridTree::bulk_load(&pts);
        assert_eq!(t.len(), 100);
        assert_eq!(t.dim(), 2);
        let mut seen = t.order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn root_bbox_covers_data() {
        let pts = grid_points(5);
        let t = HybridTree::bulk_load(&pts);
        assert_eq!(t.root_bbox().lo(), &[0.0, 0.0]);
        assert_eq!(t.root_bbox().hi(), &[4.0, 4.0]);
    }

    #[test]
    fn page_size_controls_leaf_capacity() {
        let pts = grid_points(8);
        let t4k = HybridTree::bulk_load_with_page_size(&pts, 4096);
        assert_eq!(t4k.leaf_capacity(), 4096 / 16);
        let small = HybridTree::bulk_load_with_page_size(&pts, 64);
        assert_eq!(small.leaf_capacity(), 4);
        assert!(small.num_nodes() > t4k.num_nodes());
    }

    #[test]
    fn duplicate_points_build_a_leaf() {
        let pts = vec![vec![1.0, 1.0]; 50];
        let t = HybridTree::bulk_load_with_page_size(&pts, 64);
        assert_eq!(t.len(), 50);
        // Zero-extent data collapses into a single leaf.
        assert_eq!(t.num_nodes(), 1);
    }

    #[test]
    fn single_point_tree() {
        let t = HybridTree::bulk_load(&[vec![3.0, 4.0, 5.0]]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.num_nodes(), 1);
    }

    #[test]
    #[should_panic(expected = "empty point set")]
    fn empty_input_rejected() {
        let _ = HybridTree::bulk_load(&[]);
    }

    #[test]
    #[should_panic(expected = "share one dimensionality")]
    fn ragged_input_rejected() {
        let _ = HybridTree::bulk_load(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_input_rejected() {
        let _ = HybridTree::bulk_load(&[vec![1.0, f64::NAN]]);
    }
}
