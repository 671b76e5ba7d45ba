//! Corpus sharding: contiguous partitions of the point set, each a
//! two-phase quantized scan, answering k-NN with **global** point ids.
//!
//! Shard `i` holds the contiguous id range `[i·chunk, min((i+1)·chunk, n))`,
//! so translating a shard-local hit back to the corpus id is a single
//! addition and [`ShardedCorpus::point`] locates any vector's owning
//! shard with one division. Contiguity also means the shards together are
//! exactly the corpus — the merged per-shard top-k equals the global top-k.

use crate::error::ServiceError;
use qcluster_index::{
    CooperativeScan, Neighbor, NodeCache, Phase1, QuantScanStats, QuantizedScan, QueryDistance,
    SearchStats,
};
use std::sync::Arc;

/// The index behind each shard: one kind, kept only because `benchmark/` links it (ROADMAP 1(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardKind {
    /// Two-phase quantized scan: phase 1 bounds every point from its u8
    /// codes, phase 2 exactly reranks the surviving window — results
    /// bit-for-bit equal to an exact scan, at a fraction of the memory
    /// bandwidth. Falls back to the exact scan whenever the query
    /// cannot be soundly bounded.
    #[default]
    Quantized,
}

/// One corpus partition: a two-phase quantized scan over a contiguous
/// slice of the points.
#[derive(Debug)]
pub struct Shard {
    scan: QuantizedScan,
    /// Global id of this shard's first point.
    base: usize,
}

impl Shard {
    /// Number of points in this shard.
    pub fn len(&self) -> usize {
        self.scan.len()
    }

    /// `true` when the shard holds no points (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Global id of the shard's first point.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Always 1; stays only because `benchmark/` sizes a [`NodeCache`] with it (ROADMAP 1(b)).
    pub fn num_nodes(&self) -> usize {
        1
    }

    /// Exact k-NN within this shard by the two-phase scan, returned with
    /// **global** ids, sorted ascending by `(distance, id)`.
    ///
    /// `_cache` is unused; it stays only because `benchmark/` passes it (ROADMAP 1(b)).
    ///
    /// # Panics
    ///
    /// Panics when `k == 0` or the query dimensionality disagrees.
    pub fn knn<Q: QueryDistance + ?Sized>(
        &self,
        query: &Q,
        k: usize,
        _cache: Option<&mut NodeCache>,
    ) -> (Vec<Neighbor>, SearchStats) {
        let (mut neighbors, q) = self.scan.two_phase_knn(query, k, None);
        for n in &mut neighbors {
            n.id += self.base;
        }
        (neighbors, quant_search_stats(q, self.len()))
    }

    /// This shard's job in a fan-out: phase 1 of `scan` when the query
    /// compiles a plan against the shard's params — the caller finishes
    /// ([`ShardedCorpus::finish`]) — and [`Self::knn`] otherwise.
    pub(crate) fn fanout_part<Q: QueryDistance + ?Sized>(
        &self,
        scan: &CooperativeScan,
        query: &Q,
        k: usize,
    ) -> (ShardPart, SearchStats) {
        match scan.phase1(&self.scan, self.base, query) {
            Some(part) => (ShardPart::Phase1(part), SearchStats::default()),
            None => {
                let (neighbors, stats) = self.knn(query, k, None);
                (ShardPart::TopK(neighbors), stats)
            }
        }
    }

    /// The vector of the shard-local point `local`.
    fn point(&self, local: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.scan.corpus().dim()];
        self.scan.corpus().copy_point(local, &mut out);
        out
    }
}

/// What one shard contributes to a fan-out.
#[derive(Debug)]
pub(crate) enum ShardPart {
    /// The shard's own top-k, global ids: the query compiled no plan.
    TopK(Vec<Neighbor>),
    /// The shard's phase 1, for the caller's finish.
    Phase1(Phase1),
}

/// A two-phase scan's counters over `len` points as search stats. Exact
/// f64 distance evaluations actually performed: the reranked window,
/// plus full scans when the plan was unusable (miss) or its candidate
/// set could not be certified (fallback rescan).
fn quant_search_stats(quant: QuantScanStats, len: usize) -> SearchStats {
    SearchStats {
        distance_evaluations: quant.reranked
            + (quant.fallback_rescans + quant.plan_misses) * len as u64,
        quant,
        ..SearchStats::default()
    }
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
    /// worker ever orders a NaN distance. The quantizer's fit already
    /// reads every value and records a non-finite one.
    ///
    /// # Panics
    ///
    /// Panics when `num_shards == 0`.
    pub fn build(points: &[Vec<f64>], num_shards: usize) -> Result<Self, ServiceError> {
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
        let chunk = points.len().div_ceil(num_shards);
        let shards: Vec<Arc<Shard>> = points
            .chunks(chunk)
            .enumerate()
            .map(|(i, slice)| {
                Arc::new(Shard {
                    scan: QuantizedScan::from_rows(slice),
                    base: i * chunk,
                })
            })
            .collect();
        if !shards.iter().all(|s| s.scan.params().is_finite()) {
            return Err(ServiceError::InvalidRequest(
                "corpus vector components must be finite".into(),
            ));
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
        let len = parts.iter().map(|&(i, _)| self.shards[i].len()).sum();
        let parts = parts
            .into_iter()
            .map(|(i, part)| (&self.shards[i].scan, part));
        let (neighbors, q) = scan.finish(query, parts);
        (neighbors, quant_search_stats(q, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcluster_index::{EuclideanQuery, LinearScan};

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
        let corpus = ShardedCorpus::build(&pts, 5).unwrap();
        let per_shard: Vec<Vec<Neighbor>> = corpus
            .shards()
            .iter()
            .map(|s| s.knn(&q, 12, None).0)
            .collect();
        assert_eq!(qcluster_index::merge_top_k(per_shard, 12), expect);
    }

    #[test]
    fn global_ids_and_point_lookup_round_trip() {
        // 23 points over 4 shards: 6 + 6 + 6 + 5, so the last shard is
        // ragged and every shard ends in a padded tile.
        let pts = ring(23);
        let corpus = ShardedCorpus::build(&pts, 4).unwrap();
        assert_eq!(corpus.len(), 23);
        assert_eq!(corpus.num_shards(), 4);
        for (id, p) in pts.iter().enumerate() {
            assert_eq!(&corpus.point(id), p, "id {id}");
        }
        let lens: Vec<usize> = corpus.shards().iter().map(|s| s.len()).collect();
        assert_eq!(lens, [6, 6, 6, 5]);
    }

    /// Local id 5 of the ragged last shard is padding inside its last
    /// tile: readable memory, not a point.
    #[test]
    #[should_panic(expected = "point id out of range")]
    fn point_lookup_past_the_end_panics() {
        let _ = ShardedCorpus::build(&ring(23), 4).unwrap().point(23);
    }

    #[test]
    fn tiny_corpus_clamps_shard_count() {
        let corpus = ShardedCorpus::build(&ring(3), 8).unwrap();
        assert!(corpus.num_shards() <= 3);
        assert!(corpus.shards().iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn quantized_shard_is_bit_for_bit_exact_and_counts_phases() {
        let pts = ring(200);
        let q = EuclideanQuery::new(vec![0.4, -0.3]);
        let corpus = ShardedCorpus::build(&pts, 1).unwrap();
        let want = LinearScan::new(&pts).knn(&q, 9);
        let (got, stats) = corpus.shards()[0].knn(&q, 9, None);
        assert_eq!(got, want, "two-phase results must be bit-for-bit exact");
        assert_eq!(stats.quant.plan_misses, 0);
        assert_eq!(stats.quant.phase1_points, 200);
        assert!(stats.quant.reranked >= 9);
        assert!(
            stats.distance_evaluations < 200,
            "phase 1 must prune exact work"
        );
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let corpus = ShardedCorpus::build(&ring(5), 1).unwrap();
        let q = EuclideanQuery::new(vec![0.0, 0.0]);
        let _ = corpus.shards()[0].knn(&q, 0, None);
    }
}
