//! Exact best-first k-NN search over the hybrid tree.
//!
//! The classic Hjaltason–Samet incremental algorithm: a min-priority queue
//! over nodes ordered by the distance lower bound, pruned against the
//! current k-th best candidate. Exactness follows from the
//! [`QueryDistance`] lower-bound contract.
//!
//! Every node dequeued counts as one **node access** — the experiments'
//! I/O proxy. When a [`NodeCache`] is supplied (the multipoint approach of
//! paper reference \[7\]), accesses to nodes already touched earlier in the
//! same feedback session are cache hits and do not count as disk reads.

use crate::cache::NodeCache;
use crate::distance::QueryDistance;
use crate::tree::{HybridTree, Node};
use qcluster_linalg::vecops::TILE_LANES;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One k-NN result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the point in the array the tree was bulk-loaded from.
    pub id: usize,
    /// Distance under the query's distance function.
    pub distance: f64,
}

/// Counters describing the work one search performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes dequeued and expanded.
    pub nodes_accessed: u64,
    /// Of those, how many were already resident in the session cache.
    pub cache_hits: u64,
    /// Node accesses charged as disk reads (`nodes_accessed − cache_hits`).
    pub disk_reads: u64,
    /// Point-level distance evaluations.
    pub distance_evaluations: u64,
    /// Points filtered by a quantized phase-1 kernel (two-phase scans).
    pub quant_phase1_points: u64,
    /// Candidates exactly reranked by a two-phase scan's phase 2.
    pub quant_reranked: u64,
    /// Tiles a two-phase scan's phase 1 ran its square-root tail on
    /// ([`QuantScanStats::tail_tiles`](crate::QuantScanStats::tail_tiles)).
    pub quant_tail_tiles: u64,
    /// Bound-driven second rounds of a two-phase scan
    /// ([`QuantScanStats::second_rounds`](crate::QuantScanStats::second_rounds)).
    pub quant_second_rounds: u64,
    /// Full exact rescans a two-phase scan fell back to.
    pub quant_fallbacks: u64,
    /// Queries that could not compile a quantized plan and ran exact.
    pub quant_plan_misses: u64,
}

impl SearchStats {
    /// Accumulates another search's counters (one shard's, one node's).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.nodes_accessed += other.nodes_accessed;
        self.cache_hits += other.cache_hits;
        self.disk_reads += other.disk_reads;
        self.distance_evaluations += other.distance_evaluations;
        self.quant_phase1_points += other.quant_phase1_points;
        self.quant_reranked += other.quant_reranked;
        self.quant_tail_tiles += other.quant_tail_tiles;
        self.quant_second_rounds += other.quant_second_rounds;
        self.quant_fallbacks += other.quant_fallbacks;
        self.quant_plan_misses += other.quant_plan_misses;
    }
}

/// Max-heap entry for the result set (largest distance on top).
#[derive(Debug, PartialEq)]
struct Candidate {
    distance: f64,
    id: usize,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.distance
            .partial_cmp(&other.distance)
            .expect("non-NaN distances")
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded top-k accumulator: keeps the `k` smallest `(distance, id)`
/// pairs seen so far in a max-heap, so selecting the top-k out of `n`
/// offers costs `O(n log k)` instead of a full `O(n log n)` sort.
///
/// Tie-breaking is identical to sorting all candidates ascending by
/// `(distance, id)` and truncating to `k` — the order every k-NN entry
/// point in this crate guarantees.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Candidate>,
}

impl TopK {
    /// An empty accumulator for the `k` best candidates.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offers one candidate, keeping it only if it beats the current
    /// k-th best under `(distance, id)` ordering.
    ///
    /// # Panics
    ///
    /// Panics on a NaN distance.
    // One shared out-of-line copy: the heap surgery is ~400 bytes of
    // code, and inlined into the tree's leaf loop it cost 2.8 % of
    // `serve_default_100k` rounds/s; callers that reject most points
    // filter first (`offer_block`).
    #[inline(never)]
    pub fn offer(&mut self, id: usize, distance: f64) {
        let candidate = Candidate { distance, id };
        if self.heap.len() < self.k {
            self.heap.push(candidate);
        } else if candidate < *self.heap.peek().expect("non-empty full heap") {
            self.heap.pop();
            self.heap.push(candidate);
        }
    }

    /// Offers a block of candidates — `distances[i]` belongs to id
    /// `id_of(i)` — and ends with exactly the contents a per-point
    /// [`Self::offer`] loop over the same block would leave.
    ///
    /// Ids must ascend with `i` and exceed every id offered before (the
    /// order every scan in this crate visits points in). Under that
    /// order a candidate tying the current k-th best distance always
    /// loses the `(distance, id)` comparison, so once the accumulator
    /// is full a strict `distance < threshold` test decides a lane and a
    /// whole 8-lane tile is rejected by one compare — only survivors
    /// pay for the heap.
    ///
    /// # Panics
    ///
    /// Panics on a NaN distance.
    pub fn offer_block<T: Copy + Into<f64>>(
        &mut self,
        distances: &[T],
        id_of: impl Fn(usize) -> usize,
    ) {
        debug_assert!(
            distances.is_empty() || self.heap.iter().all(|c| c.id < id_of(0)),
            "block ids must exceed every id offered before"
        );
        // Underfull: every candidate is kept, there is nothing to
        // filter against yet.
        let fill = (self.k - self.heap.len()).min(distances.len());
        for (i, &d) in distances[..fill].iter().enumerate() {
            self.offer(id_of(i), d.into());
        }
        if self.heap.len() < self.k {
            return;
        }
        let mut worst = self.worst();
        for (t, tile) in distances[fill..].chunks(TILE_LANES).enumerate() {
            // `d >= worst` is false for NaN too: such a lane must reach
            // `offer` and panic there, not be dropped silently. No
            // short-circuit, so the eight compares are one vector op.
            if tile.iter().fold(true, |all, &d| all & (d.into() >= worst)) {
                continue;
            }
            for (l, &d) in tile.iter().enumerate() {
                let d: f64 = d.into();
                if d >= worst {
                    continue;
                }
                self.offer(id_of(fill + t * TILE_LANES + l), d);
                worst = self.worst();
            }
        }
    }

    /// The k-th best distance of a full accumulator.
    fn worst(&self) -> f64 {
        self.heap.peek().expect("full heap").distance
    }

    /// Candidates currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no candidate has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The current k-th best distance once `k` candidates are held —
    /// the prune threshold for best-first search. `None` while underfull
    /// (nothing can be pruned yet).
    pub fn threshold(&self) -> Option<f64> {
        (self.heap.len() == self.k).then(|| self.heap.peek().expect("full heap").distance)
    }

    /// Consumes the accumulator into neighbors sorted ascending by
    /// `(distance, id)`.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|c| Neighbor {
                id: c.id,
                distance: c.distance,
            })
            .collect()
    }
}

/// Min-heap entry (via reversed ordering) for the node frontier.
#[derive(Debug, PartialEq)]
struct Frontier {
    min_dist: f64,
    node: usize,
}

impl Eq for Frontier {}

impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want smallest first.
        other
            .min_dist
            .partial_cmp(&self.min_dist)
            .expect("non-NaN bounds")
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Merges per-shard top-`k` lists into the global top-`k`.
///
/// Each input list must be sorted ascending by `(distance, id)` — the
/// order produced by [`LinearScan::knn`](crate::LinearScan::knn) and
/// [`HybridTree::knn`]. The merge is the classic k-way heap merge: it
/// pops at most `k` elements overall, so the cost is `O(k log s)` for
/// `s` shards rather than re-sorting all `s·k` candidates.
///
/// # Panics
///
/// Panics when `k == 0` or any distance is NaN.
pub fn merge_top_k(lists: Vec<Vec<Neighbor>>, k: usize) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");

    /// Min-heap head entry (reversed ordering on `(distance, id)`).
    struct Head {
        neighbor: Neighbor,
        shard: usize,
    }

    impl PartialEq for Head {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }

    impl Eq for Head {}

    impl Ord for Head {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .neighbor
                .distance
                .partial_cmp(&self.neighbor.distance)
                .expect("non-NaN distances")
                .then_with(|| other.neighbor.id.cmp(&self.neighbor.id))
        }
    }

    impl PartialOrd for Head {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut iters: Vec<std::vec::IntoIter<Neighbor>> =
        lists.into_iter().map(|l| l.into_iter()).collect();
    let mut heads = BinaryHeap::with_capacity(iters.len());
    for (shard, it) in iters.iter_mut().enumerate() {
        if let Some(neighbor) = it.next() {
            heads.push(Head { neighbor, shard });
        }
    }

    let mut out = Vec::with_capacity(k.min(heads.len()));
    while out.len() < k {
        let Some(Head { neighbor, shard }) = heads.pop() else {
            break;
        };
        out.push(neighbor);
        if let Some(next) = iters[shard].next() {
            heads.push(Head {
                neighbor: next,
                shard,
            });
        }
    }
    out
}

impl HybridTree {
    /// Finds the `k` nearest points to `query`, ties broken by id.
    ///
    /// Returns the neighbors sorted by ascending distance together with the
    /// search statistics. Pass a [`NodeCache`] to model the multipoint
    /// approach's cross-iteration buffer; pass `None` to charge every node
    /// access as a disk read (a fresh query).
    ///
    /// # Panics
    ///
    /// Panics when `k == 0` or the query dimensionality disagrees with the
    /// tree's.
    pub fn knn<Q: QueryDistance>(
        &self,
        query: &Q,
        k: usize,
        mut cache: Option<&mut NodeCache>,
    ) -> (Vec<Neighbor>, SearchStats) {
        assert!(k > 0, "k must be positive");
        assert_eq!(query.dim(), self.dim(), "query dimensionality mismatch");
        let mut stats = SearchStats::default();
        let mut results = TopK::new(k);
        // Per-leaf batch output, grown to the largest leaf encountered.
        let mut dists: Vec<f64> = Vec::new();
        let mut frontier = BinaryHeap::new();
        frontier.push(Frontier {
            min_dist: query.min_distance(self.nodes[self.root].bbox()),
            node: self.root,
        });

        while let Some(Frontier { min_dist, node }) = frontier.pop() {
            // Prune: nothing in this subtree can beat the current k-th best.
            if let Some(worst) = results.threshold() {
                if min_dist > worst {
                    break;
                }
            }
            stats.nodes_accessed += 1;
            let hit = cache.as_deref_mut().is_some_and(|c| c.access(node));
            if hit {
                stats.cache_hits += 1;
            }

            match &self.nodes[node] {
                Node::Leaf { start, end, .. } => {
                    // Leaf points are contiguous in the tree's permuted
                    // buffer: evaluate the whole page in one batch call.
                    let count = end - start;
                    dists.resize(count, 0.0);
                    let block = &self.data[start * self.dim..end * self.dim];
                    query.distance_batch(block, self.dim, &mut dists);
                    stats.distance_evaluations += count as u64;
                    for (i, &d) in dists.iter().enumerate() {
                        results.offer(self.order[start + i], d);
                    }
                }
                Node::Internal { left, right, .. } => {
                    for &child in &[*left, *right] {
                        let lb = query.min_distance(self.nodes[child].bbox());
                        if results.threshold().is_none_or(|worst| lb <= worst) {
                            frontier.push(Frontier {
                                min_dist: lb,
                                node: child,
                            });
                        }
                    }
                }
            }
        }
        stats.disk_reads = stats.nodes_accessed - stats.cache_hits;
        (results.into_sorted(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{EuclideanQuery, QueryDistance};
    use crate::scan::LinearScan;

    fn grid_points(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .flat_map(|i| (0..n).map(move |j| vec![i as f64, j as f64]))
            .collect()
    }

    #[test]
    fn nearest_neighbor_is_exact_on_grid() {
        let pts = grid_points(10);
        let tree = HybridTree::bulk_load_with_page_size(&pts, 128);
        let q = EuclideanQuery::new(vec![3.2, 6.9]);
        let (nn, _) = tree.knn(&q, 1, None);
        assert_eq!(nn.len(), 1);
        assert_eq!(pts[nn[0].id], vec![3.0, 7.0]);
    }

    #[test]
    fn knn_matches_linear_scan() {
        let pts = grid_points(12);
        let tree = HybridTree::bulk_load_with_page_size(&pts, 96);
        let scan = LinearScan::new(&pts);
        let q = EuclideanQuery::new(vec![5.3, 2.8]);
        let (a, _) = tree.knn(&q, 10, None);
        let b = scan.knn(&q, 10);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.id, y.id);
            assert!((x.distance - y.distance).abs() < 1e-12);
        }
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let pts = grid_points(3);
        let tree = HybridTree::bulk_load(&pts);
        let q = EuclideanQuery::new(vec![0.0, 0.0]);
        let (nn, _) = tree.knn(&q, 100, None);
        assert_eq!(nn.len(), 9);
    }

    #[test]
    fn results_sorted_ascending() {
        let pts = grid_points(8);
        let tree = HybridTree::bulk_load_with_page_size(&pts, 64);
        let q = EuclideanQuery::new(vec![4.0, 4.0]);
        let (nn, _) = tree.knn(&q, 20, None);
        for w in nn.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn pruning_beats_full_traversal() {
        let pts = grid_points(40); // 1600 points
        let tree = HybridTree::bulk_load_with_page_size(&pts, 256);
        let q = EuclideanQuery::new(vec![1.0, 1.0]);
        let (_, stats) = tree.knn(&q, 5, None);
        assert!(
            stats.nodes_accessed < tree.num_nodes() as u64 / 2,
            "accessed {} of {} nodes",
            stats.nodes_accessed,
            tree.num_nodes()
        );
    }

    #[test]
    fn cache_converts_repeat_accesses_to_hits() {
        let pts = grid_points(20);
        let tree = HybridTree::bulk_load_with_page_size(&pts, 128);
        let mut cache = NodeCache::new(tree.num_nodes());
        let q = EuclideanQuery::new(vec![10.0, 10.0]);
        let (_, s1) = tree.knn(&q, 10, Some(&mut cache));
        assert_eq!(s1.cache_hits, 0);
        assert!(s1.disk_reads > 0);
        // A nearby refined query revisits mostly the same nodes.
        let q2 = EuclideanQuery::new(vec![10.5, 9.5]);
        let (_, s2) = tree.knn(&q2, 10, Some(&mut cache));
        assert!(s2.cache_hits > 0);
        assert!(s2.disk_reads < s1.disk_reads);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let pts = grid_points(2);
        let tree = HybridTree::bulk_load(&pts);
        let q = EuclideanQuery::new(vec![0.0, 0.0]);
        let _ = tree.knn(&q, 0, None);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn dim_mismatch_panics() {
        let pts = grid_points(2);
        let tree = HybridTree::bulk_load(&pts);
        let q = EuclideanQuery::new(vec![0.0, 0.0, 0.0]);
        let _ = tree.knn(&q, 1, None);
    }

    /// Distances from a small palette (+∞ included), so every block
    /// boundary has ties on both sides of it (and ties with the heap's
    /// worst entry).
    fn tie_heavy(n: usize) -> Vec<f32> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                [0.0f32, 0.5, 0.5, 2.0, f32::INFINITY][(state % 5) as usize]
            })
            .collect()
    }

    #[test]
    fn offer_block_equals_per_point_offer_with_ties_across_blocks() {
        let lanes = tie_heavy(600);
        for k in [1usize, 7, 64, 600, 1000] {
            let mut want = TopK::new(k);
            for (id, &d) in lanes.iter().enumerate() {
                want.offer(id, f64::from(d));
            }
            let want = want.into_sorted();
            for block in [1usize, 5, 8, 13, 256, 600] {
                let mut narrow = TopK::new(k);
                let mut wide = TopK::new(k);
                for (b, chunk) in lanes.chunks(block).enumerate() {
                    narrow.offer_block(chunk, |i| b * block + i);
                    let chunk: Vec<f64> = chunk.iter().map(|&d| f64::from(d)).collect();
                    wide.offer_block(&chunk, |i| b * block + i);
                }
                assert_eq!(narrow.into_sorted(), want, "f32 k={k} block={block}");
                assert_eq!(wide.into_sorted(), want, "f64 k={k} block={block}");
            }
        }
    }

    #[test]
    fn offer_block_maps_sparse_ascending_ids() {
        let lanes = tie_heavy(300);
        let mut want = TopK::new(9);
        let mut got = TopK::new(9);
        for (i, &d) in lanes.iter().enumerate() {
            want.offer(3 * i + 1, f64::from(d));
        }
        for (b, chunk) in lanes.chunks(100).enumerate() {
            got.offer_block(chunk, |i| 3 * (b * 100 + i) + 1);
        }
        assert_eq!(got.into_sorted(), want.into_sorted());
    }

    #[test]
    #[should_panic(expected = "non-NaN distances")]
    fn offer_block_panics_on_nan_like_offer() {
        let mut top = TopK::new(2);
        top.offer_block(&[1.0f64, 2.0, 3.0, f64::NAN], |i| i);
    }

    #[test]
    fn merge_top_k_matches_global_scan() {
        let pts = grid_points(9); // 81 points
        let q = EuclideanQuery::new(vec![3.7, 4.1]);
        // Split into 4 contiguous shards, scan each, merge with global ids.
        let per_shard: Vec<Vec<Neighbor>> = pts
            .chunks(21)
            .enumerate()
            .map(|(s, chunk)| {
                let scan = LinearScan::new(chunk);
                scan.knn(&q, 10)
                    .into_iter()
                    .map(|n| Neighbor {
                        id: s * 21 + n.id,
                        distance: n.distance,
                    })
                    .collect()
            })
            .collect();
        let merged = merge_top_k(per_shard, 10);
        let global = LinearScan::new(&pts).knn(&q, 10);
        assert_eq!(merged.len(), global.len());
        for (a, b) in merged.iter().zip(global.iter()) {
            assert_eq!(a.id, b.id);
            assert!((a.distance - b.distance).abs() < 1e-12);
        }
    }

    #[test]
    fn merge_top_k_breaks_ties_by_id() {
        let mk = |ids: &[usize]| -> Vec<Neighbor> {
            ids.iter()
                .map(|&id| Neighbor { id, distance: 1.0 })
                .collect()
        };
        let merged = merge_top_k(vec![mk(&[1, 5]), mk(&[0, 3]), mk(&[2])], 4);
        assert_eq!(
            merged.iter().map(|n| n.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn merge_top_k_short_inputs_return_everything() {
        let lists = vec![
            vec![Neighbor {
                id: 0,
                distance: 2.0,
            }],
            Vec::new(),
            vec![Neighbor {
                id: 1,
                distance: 1.0,
            }],
        ];
        let merged = merge_top_k(lists, 10);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].id, 1);
        assert_eq!(merged[1].id, 0);
    }

    #[test]
    fn query_distance_object_safe_through_reference() {
        // The service fans out `&dyn QueryDistance`; the reference blanket
        // impl must keep tree search usable through it.
        let pts = grid_points(6);
        let tree = HybridTree::bulk_load(&pts);
        let q = EuclideanQuery::new(vec![2.2, 2.8]);
        let dyn_q: &dyn QueryDistance = &q;
        let (a, _) = tree.knn(&dyn_q, 4, None);
        let (b, _) = tree.knn(&q, 4, None);
        assert_eq!(
            a.iter().map(|n| n.id).collect::<Vec<_>>(),
            b.iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }
}
