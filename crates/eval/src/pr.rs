//! Precision/recall machinery (paper Figs. 8–13).
//!
//! The paper's precision–recall graphs plot, per feedback iteration, 100
//! points "each of which shows precision and recall as the number of
//! retrieved images increases from 1 to 100", averaged over 100 random
//! queries.

use crate::dataset::Dataset;
use crate::oracle::RelevanceOracle;
use qcluster_stats::descriptive::{mean, sample_variance};
use serde::{Deserialize, Serialize};

/// One (recall, precision) point at a retrieval depth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrPoint {
    /// Retrieval depth `n` (1-based).
    pub n: usize,
    /// Recall at `n`.
    pub recall: f64,
    /// Precision at `n`.
    pub precision: f64,
}

/// A full precision–recall curve: one point per retrieval depth.
pub type PrCurve = Vec<PrPoint>;

/// Precision and recall at a single depth `n` of one ranked list.
///
/// # Panics
///
/// Panics when `n == 0` or exceeds the ranking length.
pub fn pr_at(dataset: &Dataset, query_category: usize, ranking: &[usize], n: usize) -> PrPoint {
    assert!(n > 0 && n <= ranking.len(), "depth out of range");
    let oracle = RelevanceOracle::new(dataset);
    let hits = ranking[..n]
        .iter()
        .filter(|&&id| oracle.is_relevant(query_category, id))
        .count();
    let total = oracle.total_relevant(query_category);
    PrPoint {
        n,
        recall: hits as f64 / total as f64,
        precision: hits as f64 / n as f64,
    }
}

/// Precision at depth `k` of one ranked list, robust to **degraded**
/// answers (a service reporting partial `shards_ok`/`nodes_ok` coverage
/// may return fewer than `k` results, or none at all).
///
/// Unlike [`pr_at`], this never panics on a short list: the denominator
/// stays `k`, so every result a degraded answer failed to surface counts
/// as a miss. Partial coverage can therefore only *clamp* the metric
/// toward zero, never inflate it — a soak harness comparing quality
/// under faults against a healthy baseline needs exactly this bias.
/// Results past depth `k` are ignored; `k == 0` reports `0.0`.
///
/// Ids beyond the labelled corpus (live-ingested overlay vectors have no
/// ground-truth category) count as misses rather than panicking.
pub fn precision_at_k(
    dataset: &Dataset,
    query_category: usize,
    retrieved: &[usize],
    k: usize,
) -> f64 {
    if k == 0 {
        return 0.0;
    }
    hits_at_k(dataset, query_category, retrieved, k) as f64 / k as f64
}

/// Same-category results among the first `k` of `retrieved`; ids beyond
/// the labelled corpus are misses.
fn hits_at_k(dataset: &Dataset, query_category: usize, retrieved: &[usize], k: usize) -> usize {
    let oracle = RelevanceOracle::new(dataset);
    retrieved[..retrieved.len().min(k)]
        .iter()
        .filter(|&&id| id < dataset.len() && oracle.is_relevant(query_category, id))
        .count()
}

/// Aggregated retrieval quality at one feedback iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationRow {
    /// Iteration index (0 = the initial example-image query).
    pub iteration: usize,
    /// Mean precision@k over the scored sessions.
    pub mean_precision: f64,
    /// Sample standard deviation of precision@k.
    pub std_precision: f64,
    /// Mean recall@k (same-category hits / category size).
    pub mean_recall: f64,
    /// Sessions that contributed a score at this iteration.
    pub sessions: usize,
}

/// Per-iteration precision@k / recall@k samples of many sessions — the
/// one accumulator behind `qcluster eval`'s tables, the soak fleet's
/// quality rows and Figs. 10–13.
#[derive(Debug, Clone)]
pub struct ScoreTable {
    /// `precision[i]` = precision@k samples at iteration `i`.
    precision: Vec<Vec<f64>>,
    recall: Vec<Vec<f64>>,
}

impl ScoreTable {
    /// An empty table with room for `iterations` iteration indices.
    pub fn new(iterations: usize) -> ScoreTable {
        ScoreTable {
            precision: vec![Vec::new(); iterations],
            recall: vec![Vec::new(); iterations],
        }
    }

    /// Scores one session's answer at `iteration` against the binary
    /// same-category ground truth of `query_category`, with
    /// [`precision_at_k`]'s treatment of short and unlabelled answers.
    ///
    /// # Panics
    ///
    /// Panics when `iteration` is past the table.
    pub fn observe(
        &mut self,
        dataset: &Dataset,
        query_category: usize,
        iteration: usize,
        retrieved: &[usize],
        k: usize,
    ) {
        let hits = hits_at_k(dataset, query_category, retrieved, k);
        let total = RelevanceOracle::new(dataset).total_relevant(query_category);
        self.precision[iteration].push(precision_at_k(dataset, query_category, retrieved, k));
        self.recall[iteration].push(hits as f64 / total as f64);
    }

    /// Appends `other`'s samples (same iteration count) after this
    /// table's own, iteration by iteration.
    pub fn merge(&mut self, other: &ScoreTable) {
        for (mine, theirs) in self.precision.iter_mut().zip(&other.precision) {
            mine.extend_from_slice(theirs);
        }
        for (mine, theirs) in self.recall.iter_mut().zip(&other.recall) {
            mine.extend_from_slice(theirs);
        }
    }

    /// One row per iteration, index order; an iteration nobody reached
    /// reads zero.
    pub fn rows(&self) -> Vec<IterationRow> {
        self.precision
            .iter()
            .zip(self.recall.iter())
            .enumerate()
            .map(|(iteration, (p, r))| IterationRow {
                iteration,
                mean_precision: mean(p).unwrap_or(0.0),
                std_precision: sample_variance(p).map_or(0.0, f64::sqrt),
                mean_recall: mean(r).unwrap_or(0.0),
                sessions: p.len(),
            })
            .collect()
    }
}

/// The whole curve for one ranked list (depths `1..=ranking.len()`).
pub fn pr_curve(dataset: &Dataset, query_category: usize, ranking: &[usize]) -> PrCurve {
    let oracle = RelevanceOracle::new(dataset);
    let total = oracle.total_relevant(query_category) as f64;
    let mut hits = 0usize;
    ranking
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            if oracle.is_relevant(query_category, id) {
                hits += 1;
            }
            PrPoint {
                n: i + 1,
                recall: hits as f64 / total,
                precision: hits as f64 / (i + 1) as f64,
            }
        })
        .collect()
}

/// Averages several equal-length curves point-wise (the "averaged over 100
/// queries" step).
///
/// # Panics
///
/// Panics on an empty set or ragged curve lengths.
pub fn average_pr_curve(curves: &[PrCurve]) -> PrCurve {
    assert!(!curves.is_empty(), "need at least one curve");
    let len = curves[0].len();
    assert!(
        curves.iter().all(|c| c.len() == len),
        "curves must have equal length"
    );
    (0..len)
        .map(|i| {
            let inv = 1.0 / curves.len() as f64;
            PrPoint {
                n: curves[0][i].n,
                recall: curves.iter().map(|c| c[i].recall).sum::<f64>() * inv,
                precision: curves.iter().map(|c| c[i].precision).sum::<f64>() * inv,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        // Category 0 has 3 images (ids 0–2), category 1 has 3 (ids 3–5).
        Dataset::from_parts(
            (0..6).map(|i| vec![i as f64]).collect(),
            vec![0, 0, 0, 1, 1, 1],
            vec![0, 0, 0, 0, 0, 0],
            3,
        )
    }

    #[test]
    fn score_table_averages_per_iteration() {
        let ds = dataset();
        // Two users, merged in order: iteration 0 sees precision 1.0 and
        // 0.0 at k = 2, iteration 1 one sample, iteration 2 nobody.
        let mut a = ScoreTable::new(3);
        a.observe(&ds, 0, 0, &[0, 1, 3], 2);
        a.observe(&ds, 0, 1, &[0, 3], 2);
        let mut b = ScoreTable::new(3);
        b.observe(&ds, 0, 0, &[3, 9], 2);
        a.merge(&b);
        let rows = a.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].iteration, rows[0].sessions), (0, 2));
        assert!((rows[0].mean_precision - 0.5).abs() < 1e-12);
        assert!((rows[0].std_precision - 0.5f64.sqrt()).abs() < 1e-12);
        assert!((rows[0].mean_recall - 1.0 / 3.0).abs() < 1e-12);
        assert!((rows[1].mean_precision - 0.5).abs() < 1e-12);
        assert_eq!(rows[1].std_precision, 0.0, "one sample has no spread");
        assert_eq!(rows[2].sessions, 0);
        assert_eq!(rows[2].mean_precision, 0.0);
    }

    #[test]
    fn perfect_ranking_has_unit_precision() {
        let ds = dataset();
        let curve = pr_curve(&ds, 0, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(curve[0].precision, 1.0);
        assert_eq!(curve[2].precision, 1.0);
        assert_eq!(curve[2].recall, 1.0);
        // After all relevant found, precision decays.
        assert!((curve[5].precision - 0.5).abs() < 1e-12);
        assert_eq!(curve[5].recall, 1.0);
    }

    #[test]
    fn worst_ranking_has_zero_prefix() {
        let ds = dataset();
        let curve = pr_curve(&ds, 0, &[3, 4, 5, 0, 1, 2]);
        assert_eq!(curve[2].precision, 0.0);
        assert_eq!(curve[2].recall, 0.0);
        assert_eq!(curve[5].recall, 1.0);
    }

    #[test]
    fn pr_at_matches_curve() {
        let ds = dataset();
        let ranking = [0, 3, 1, 4, 2, 5];
        let curve = pr_curve(&ds, 0, &ranking);
        for n in 1..=6 {
            let p = pr_at(&ds, 0, &ranking, n);
            assert_eq!(p, curve[n - 1]);
        }
    }

    #[test]
    fn averaging_is_pointwise() {
        let ds = dataset();
        let c1 = pr_curve(&ds, 0, &[0, 1, 2, 3, 4, 5]);
        let c2 = pr_curve(&ds, 0, &[3, 4, 5, 0, 1, 2]);
        let avg = average_pr_curve(&[c1.clone(), c2.clone()]);
        for i in 0..6 {
            assert!((avg[i].precision - 0.5 * (c1[i].precision + c2[i].precision)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "depth out of range")]
    fn zero_depth_panics() {
        let ds = dataset();
        let _ = pr_at(&ds, 0, &[0, 1], 0);
    }

    #[test]
    fn precision_at_k_matches_pr_at_on_full_answers() {
        let ds = dataset();
        let ranking = [0, 3, 1, 4, 2, 5];
        for k in 1..=6 {
            let p = precision_at_k(&ds, 0, &ranking, k);
            assert!((p - pr_at(&ds, 0, &ranking, k).precision).abs() < 1e-12);
        }
    }

    #[test]
    fn precision_at_k_clamps_degraded_answers() {
        let ds = dataset();
        // A degraded answer surfaced only 2 of the k = 4 requested
        // results (partial shard/node coverage). Both happen to be
        // relevant, but the metric must charge the missing slots as
        // misses: 2/4, not 2/2.
        let degraded = [0, 1];
        assert!((precision_at_k(&ds, 0, &degraded, 4) - 0.5).abs() < 1e-12);
        // An empty degraded answer is 0.0, never a panic.
        assert_eq!(precision_at_k(&ds, 0, &[], 4), 0.0);
        // Results past k are ignored, so over-delivery cannot inflate.
        let over = [0, 3, 1, 2, 4, 5];
        assert!((precision_at_k(&ds, 0, &over, 2) - 0.5).abs() < 1e-12);
        // Live-ingested ids beyond the labelled corpus are misses, not
        // panics: [0, 99] at k = 2 scores 1/2.
        assert!((precision_at_k(&ds, 0, &[0, 99], 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn precision_at_k_cannot_exceed_healthy_baseline() {
        let ds = dataset();
        let healthy = [0, 1, 2, 3];
        // Every degraded prefix of a healthy answer scores <= it.
        for depth in 0..healthy.len() {
            assert!(
                precision_at_k(&ds, 0, &healthy[..depth], 4) <= precision_at_k(&ds, 0, &healthy, 4)
            );
        }
        assert_eq!(precision_at_k(&ds, 0, &healthy, 0), 0.0);
    }
}
