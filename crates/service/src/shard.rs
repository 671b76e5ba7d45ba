//! Corpus sharding: contiguous partitions of the point set, each backed by
//! its own index, answering k-NN with **global** point ids.
//!
//! Shard `i` holds the contiguous id range `[i·chunk, min((i+1)·chunk, n))`,
//! so translating a shard-local hit back to the corpus id is a single
//! addition and [`ShardedCorpus::point`] locates any vector's owning
//! shard with one division. Contiguity also means the shards together are
//! exactly the corpus — the merged per-shard top-k equals the global top-k.

use crate::error::ServiceError;
use qcluster_index::{
    CooperativeScan, HybridTree, LinearScan, Neighbor, NodeCache, Phase1, QuantScanStats,
    QuantizedScan, QueryDistance, SearchStats,
};
use std::sync::Arc;

/// Which index structure backs each shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardKind {
    /// Brute-force scan with a bounded top-k heap (`O(n log k)` per
    /// query). No interior nodes, so the node cache degenerates to one
    /// sequential-read slot.
    Scan,
    /// Bulk-loaded hybrid tree: pruned best-first search plus real
    /// node-granular cache accounting (the multipoint approach). Wins on
    /// low-dimensional, well-separated corpora, where boxes do prune, and
    /// under the full-inverse covariance scheme; degrades to a slow scan
    /// where they do not.
    Tree,
    /// Two-phase quantized scan: phase 1 bounds every point from its u8
    /// codes, phase 2 exactly reranks the surviving window — results
    /// bit-for-bit equal to [`ShardKind::Scan`], at a fraction of the
    /// memory bandwidth. Falls back to the exact scan whenever the
    /// query cannot be soundly bounded. The default: its worst case is
    /// linear in the corpus and nothing worse.
    #[default]
    Quantized,
}

#[derive(Debug)]
enum ShardIndex {
    Scan(LinearScan),
    /// Bulk-loading permutes the tree's own buffer, so a tree shard also
    /// keeps its points row-major in id order for [`Shard::point`]. The
    /// scan kinds read their own column and hold each vector once.
    Tree {
        tree: HybridTree,
        rows: Vec<f64>,
    },
    Quantized(QuantizedScan),
}

/// One corpus partition: an index over a contiguous slice of the points.
#[derive(Debug)]
pub struct Shard {
    index: ShardIndex,
    /// Global id of this shard's first point.
    base: usize,
}

impl Shard {
    fn build(points: &[Vec<f64>], base: usize, kind: ShardKind) -> Self {
        let index = match kind {
            ShardKind::Scan => ShardIndex::Scan(LinearScan::new(points)),
            ShardKind::Tree => ShardIndex::Tree {
                tree: HybridTree::bulk_load(points),
                rows: points.concat(),
            },
            ShardKind::Quantized => ShardIndex::Quantized(QuantizedScan::from_rows(points)),
        };
        Shard { index, base }
    }

    /// Number of points in this shard.
    pub fn len(&self) -> usize {
        match &self.index {
            ShardIndex::Scan(s) => s.len(),
            ShardIndex::Tree { tree, .. } => tree.len(),
            ShardIndex::Quantized(q) => q.len(),
        }
    }

    /// `true` when the shard holds no points (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Global id of the shard's first point.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Node count for sizing a per-session [`NodeCache`]: the tree's node
    /// count, or a single slot for a scan shard (one sequential read).
    pub fn num_nodes(&self) -> usize {
        match &self.index {
            ShardIndex::Scan(_) | ShardIndex::Quantized(_) => 1,
            ShardIndex::Tree { tree, .. } => tree.num_nodes(),
        }
    }

    /// Exact k-NN within this shard, returned with **global** ids, sorted
    /// ascending by `(distance, id)`.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0` or the query dimensionality disagrees.
    pub fn knn<Q: QueryDistance + ?Sized>(
        &self,
        query: &Q,
        k: usize,
        cache: Option<&mut NodeCache>,
    ) -> (Vec<Neighbor>, SearchStats) {
        let (mut neighbors, stats) = match &self.index {
            ShardIndex::Scan(s) => scan_top_k(s, query, k, cache),
            ShardIndex::Tree { tree, .. } => tree.knn(&query, k, cache),
            ShardIndex::Quantized(q) => quantized_top_k(q, query, k, cache),
        };
        for n in &mut neighbors {
            n.id += self.base;
        }
        (neighbors, stats)
    }

    /// This shard's job in a fan-out: phase 1 of `scan` when the shard
    /// is quantized and the query compiles a plan against its params —
    /// the caller finishes ([`ShardedCorpus::finish`]) — and
    /// [`Self::knn`] otherwise.
    pub(crate) fn fanout_part<Q: QueryDistance + ?Sized>(
        &self,
        scan: &CooperativeScan,
        query: &Q,
        k: usize,
        cache: Option<&mut NodeCache>,
    ) -> (ShardPart, SearchStats) {
        if let ShardIndex::Quantized(q) = &self.index {
            if let Some(part) = scan.phase1(q, self.base, query) {
                return (ShardPart::Phase1(part), sequential_read(cache));
            }
        }
        let (neighbors, stats) = self.knn(query, k, cache);
        (ShardPart::TopK(neighbors), stats)
    }

    /// The vector of the shard-local point `local`.
    fn point(&self, local: usize) -> Vec<f64> {
        match &self.index {
            ShardIndex::Scan(s) => s.point(local).to_vec(),
            ShardIndex::Tree { tree, rows } => {
                rows[local * tree.dim()..(local + 1) * tree.dim()].to_vec()
            }
            ShardIndex::Quantized(q) => {
                let mut out = vec![0.0; q.corpus().dim()];
                q.corpus().copy_point(local, &mut out);
                out
            }
        }
    }
}

/// What one shard contributes to a fan-out.
#[derive(Debug)]
pub(crate) enum ShardPart {
    /// The shard's own top-k, global ids.
    TopK(Vec<Neighbor>),
    /// A quantized shard's phase 1, for the caller's finish.
    Phase1(Phase1),
}

/// A scan shard's cache accounting: the whole scan is one "node", so a
/// session's repeat scan is a buffer hit.
fn sequential_read(cache: Option<&mut NodeCache>) -> SearchStats {
    let hit = cache.is_some_and(|c| c.access(0));
    SearchStats {
        nodes_accessed: 1,
        cache_hits: u64::from(hit),
        disk_reads: u64::from(!hit),
        ..SearchStats::default()
    }
}

/// A two-phase scan's counters over `len` points as search stats. Exact
/// f64 distance evaluations actually performed: the reranked window,
/// plus full scans when the plan was unusable (miss) or its candidate
/// set could not be certified (fallback rescan).
fn quant_search_stats(q: &QuantScanStats, len: usize) -> SearchStats {
    SearchStats {
        distance_evaluations: q.reranked + (q.fallback_rescans + q.plan_misses) * len as u64,
        quant_phase1_points: q.phase1_points,
        quant_reranked: q.reranked,
        quant_fallbacks: q.fallback_rescans,
        quant_plan_misses: q.plan_misses,
        ..SearchStats::default()
    }
}

/// Bounded-heap top-k over a linear scan, delegating to the blocked
/// [`LinearScan::knn`]: corpus points stream through
/// [`QueryDistance::distance_batch`] in cache-sized blocks into a bounded
/// top-k heap — `O(n log k)` selection, one virtual dispatch per block.
fn scan_top_k<Q: QueryDistance + ?Sized>(
    scan: &LinearScan,
    query: &Q,
    k: usize,
    cache: Option<&mut NodeCache>,
) -> (Vec<Neighbor>, SearchStats) {
    let mut stats = sequential_read(cache);
    let neighbors = scan.knn(query, k);
    stats.distance_evaluations = scan.len() as u64;
    (neighbors, stats)
}

/// Two-phase top-k over a quantized shard. Cache accounting matches
/// [`scan_top_k`] (one sequential "node"); the quantization counters
/// record how much exact-distance work phase 1 saved.
fn quantized_top_k<Q: QueryDistance + ?Sized>(
    scan: &QuantizedScan,
    query: &Q,
    k: usize,
    cache: Option<&mut NodeCache>,
) -> (Vec<Neighbor>, SearchStats) {
    let mut stats = sequential_read(cache);
    let (neighbors, q) = scan.two_phase_knn(query, k, None);
    stats.absorb(&quant_search_stats(&q, scan.len()));
    (neighbors, stats)
}

/// The corpus split into contiguous shards behind [`Arc`]s, ready to be
/// fanned out across the executor's workers.
#[derive(Debug, Clone)]
pub struct ShardedCorpus {
    shards: Vec<Arc<Shard>>,
    /// Points per shard (the last one may hold fewer): id → shard is
    /// `id / chunk`.
    chunk: usize,
    dim: usize,
    len: usize,
}

impl ShardedCorpus {
    /// Partitions `points` into at most `num_shards` contiguous shards.
    ///
    /// The effective shard count is `ceil(n / ceil(n / num_shards))`,
    /// which may be smaller than requested for tiny corpora — shards are
    /// never empty.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] for an empty corpus, ragged or
    /// zero dimensionalities, or a NaN or ±∞ component — so no k-NN
    /// worker ever orders a NaN distance. The quantized kind's fit
    /// already reads every value and records a non-finite one; the other
    /// kinds pay a pass of their own, made first because a tree's median
    /// split cannot order a NaN.
    ///
    /// # Panics
    ///
    /// Panics when `num_shards == 0`.
    pub fn build(
        points: &[Vec<f64>],
        num_shards: usize,
        kind: ShardKind,
    ) -> Result<Self, ServiceError> {
        assert!(num_shards > 0, "need at least one shard");
        let dim = points.first().map_or(0, Vec::len);
        if dim == 0 {
            return Err(ServiceError::InvalidRequest(
                "the corpus needs at least one vector of positive dimensionality".into(),
            ));
        }
        if let Some(i) = points.iter().position(|p| p.len() != dim) {
            return Err(ServiceError::InvalidRequest(format!(
                "corpus vector {i} has {} components, vector 0 has {dim}",
                points[i].len()
            )));
        }
        let non_finite =
            || ServiceError::InvalidRequest("corpus vector components must be finite".into());
        if kind != ShardKind::Quantized && !points.iter().flatten().all(|v| v.is_finite()) {
            return Err(non_finite());
        }
        let chunk = points.len().div_ceil(num_shards);
        let shards: Vec<Arc<Shard>> = points
            .chunks(chunk)
            .enumerate()
            .map(|(i, slice)| Arc::new(Shard::build(slice, i * chunk, kind)))
            .collect();
        let finite = shards.iter().all(|s| match &s.index {
            ShardIndex::Quantized(q) => q.params().is_finite(),
            _ => true,
        });
        if !finite {
            return Err(non_finite());
        }
        Ok(ShardedCorpus {
            shards,
            chunk,
            dim,
            len: points.len(),
        })
    }

    /// Number of shards actually built.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Corpus dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the corpus is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The shards, in id order.
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// The vector of the point with global id `id`, read from the owning
    /// shard.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn point(&self, id: usize) -> Vec<f64> {
        assert!(id < self.len, "point id out of range");
        self.shards[id / self.chunk].point(id % self.chunk)
    }

    /// Finishes `scan` over the shards that replied with a phase 1 —
    /// `(shard index, part)` pairs: one rerank for all of them, exact
    /// over exactly those shards.
    pub(crate) fn finish<Q: QueryDistance + ?Sized>(
        &self,
        scan: &CooperativeScan,
        query: &Q,
        parts: Vec<(usize, Phase1)>,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut len = 0;
        let parts = parts
            .into_iter()
            .map(|(i, part)| match &self.shards[i].index {
                ShardIndex::Quantized(q) => {
                    len += q.len();
                    (q, part)
                }
                _ => unreachable!("only a quantized shard runs phase 1"),
            });
        let (neighbors, q) = scan.finish(query, parts);
        (neighbors, quant_search_stats(&q, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcluster_index::EuclideanQuery;

    fn ring(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let a = i as f64 * std::f64::consts::TAU / n as f64;
                vec![a.cos() * (1.0 + i as f64 * 0.01), a.sin()]
            })
            .collect()
    }

    #[test]
    fn sharded_knn_matches_global_scan_for_all_kinds() {
        let pts = ring(97);
        let q = EuclideanQuery::new(vec![0.4, -0.3]);
        let expect = LinearScan::new(&pts).knn(&q, 12);
        for kind in [ShardKind::Scan, ShardKind::Tree, ShardKind::Quantized] {
            let corpus = ShardedCorpus::build(&pts, 5, kind).unwrap();
            let per_shard: Vec<Vec<Neighbor>> = corpus
                .shards()
                .iter()
                .map(|s| s.knn(&q, 12, None).0)
                .collect();
            let merged = qcluster_index::merge_top_k(per_shard, 12);
            assert_eq!(merged.len(), expect.len());
            for (a, b) in merged.iter().zip(expect.iter()) {
                assert_eq!(a.id, b.id, "{kind:?}");
                assert!((a.distance - b.distance).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn global_ids_and_point_lookup_round_trip() {
        // 23 points over 4 shards: 6 + 6 + 6 + 5, so the last shard is
        // ragged and every quantized shard ends in a padded tile.
        let pts = ring(23);
        for kind in [ShardKind::Scan, ShardKind::Tree, ShardKind::Quantized] {
            let corpus = ShardedCorpus::build(&pts, 4, kind).unwrap();
            assert_eq!(corpus.len(), 23);
            assert_eq!(corpus.num_shards(), 4);
            for (id, p) in pts.iter().enumerate() {
                assert_eq!(&corpus.point(id), p, "{kind:?}: id {id}");
            }
            let lens: Vec<usize> = corpus.shards().iter().map(|s| s.len()).collect();
            assert_eq!(lens, [6, 6, 6, 5], "{kind:?}");
        }
    }

    /// Local id 5 of the ragged last shard is padding inside its last
    /// tile: readable memory, not a point.
    #[test]
    #[should_panic(expected = "point id out of range")]
    fn point_lookup_past_the_end_panics() {
        let _ = ShardedCorpus::build(&ring(23), 4, ShardKind::default())
            .unwrap()
            .point(23);
    }

    #[test]
    fn tiny_corpus_clamps_shard_count() {
        let corpus = ShardedCorpus::build(&ring(3), 8, ShardKind::Scan).unwrap();
        assert!(corpus.num_shards() <= 3);
        assert!(corpus.shards().iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn scan_shard_cache_models_sequential_reads() {
        let pts = ring(10);
        let corpus = ShardedCorpus::build(&pts, 1, ShardKind::Scan).unwrap();
        let shard = &corpus.shards()[0];
        let mut cache = NodeCache::new(shard.num_nodes());
        let q = EuclideanQuery::new(vec![1.0, 0.0]);
        let (_, s1) = shard.knn(&q, 3, Some(&mut cache));
        assert_eq!(s1.disk_reads, 1);
        let (_, s2) = shard.knn(&q, 3, Some(&mut cache));
        assert_eq!(s2.cache_hits, 1);
        assert_eq!(s2.disk_reads, 0);
    }

    #[test]
    fn quantized_shard_is_bit_for_bit_exact_and_counts_phases() {
        let pts = ring(200);
        let q = EuclideanQuery::new(vec![0.4, -0.3]);
        let exact = ShardedCorpus::build(&pts, 1, ShardKind::Scan).unwrap();
        let quant = ShardedCorpus::build(&pts, 1, ShardKind::Quantized).unwrap();
        let (want, _) = exact.shards()[0].knn(&q, 9, None);
        let (got, stats) = quant.shards()[0].knn(&q, 9, None);
        assert_eq!(got, want, "two-phase results must be bit-for-bit exact");
        assert_eq!(stats.quant_plan_misses, 0);
        assert_eq!(stats.quant_phase1_points, 200);
        assert!(stats.quant_reranked >= 9);
        assert!(
            stats.distance_evaluations < 200,
            "phase 1 must prune exact work"
        );
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let corpus = ShardedCorpus::build(&ring(5), 1, ShardKind::Scan).unwrap();
        let q = EuclideanQuery::new(vec![0.0, 0.0]);
        let _ = corpus.shards()[0].knn(&q, 0, None);
    }
}
