//! MARS query point movement (paper reference \[15\]).
//!
//! The classic single-point refinement descended from Rocchio's formula:
//! the refined query point is the relevance-weighted centroid of all
//! relevant images seen so far, and each dimension is re-weighted
//! **inversely proportional to the variance** of the relevant points along
//! it — a dimension on which the relevant images agree is discriminative
//! and gets a high weight. The refined query is a weighted Euclidean
//! distance, i.e. an axis-aligned ellipsoid (Fig. 1(a)).

use crate::method::{absorb, RetrievalMethod};
use qcluster_core::{CoreError, FeedbackPoint, Result};
use qcluster_index::{FanoutQuery, WeightedEuclideanQuery};

/// Ridge `λ` added to each per-dimension variance before inversion.
const VARIANCE_RIDGE: f64 = 1e-3;

/// The MARS-style query-point-movement method.
///
/// Supports the full Rocchio formula: the paper describes MARS as trying
/// "to move this point toward 'good' matches, as well as to move it away
/// from 'bad' result points". Negative examples are optional
/// ([`QueryPointMovement::feed_negative`]) and repel the query point with
/// weight `gamma` relative to the positives' pull.
#[derive(Debug, Clone)]
pub struct QueryPointMovement {
    /// All relevant points accumulated over the session.
    relevant: Vec<FeedbackPoint>,
    /// Non-relevant points accumulated over the session.
    negative: Vec<FeedbackPoint>,
    dim: Option<usize>,
    /// Rocchio repulsion weight for negative examples.
    gamma: f64,
}

impl Default for QueryPointMovement {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryPointMovement {
    /// Creates the method; its variance ridge is `VARIANCE_RIDGE` (1e-3).
    pub fn new() -> Self {
        QueryPointMovement {
            relevant: Vec::new(),
            negative: Vec::new(),
            dim: None,
            gamma: 0.25,
        }
    }

    /// Overrides the Rocchio repulsion weight for negative examples.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        assert!(gamma >= 0.0, "gamma must be non-negative");
        self.gamma = gamma;
        self
    }

    fn positive_centroid(&self) -> Option<Vec<f64>> {
        let dim = self.dim?;
        let mass: f64 = self.relevant.iter().map(|p| p.score).sum();
        if mass <= 0.0 {
            return None;
        }
        let mut c = vec![0.0; dim];
        for p in &self.relevant {
            qcluster_linalg::vecops::axpy(&mut c, &p.vector, p.score);
        }
        for v in &mut c {
            *v /= mass;
        }
        Some(c)
    }

    /// Ingests non-relevant ("bad") result points. The refined query point
    /// moves away from their centroid by `gamma` times the repulsion
    /// vector (Rocchio's third term); weights are unaffected (MARS derives
    /// them from the relevant set only).
    ///
    /// # Errors
    ///
    /// Same validation as [`RetrievalMethod::feed`].
    pub fn feed_negative(&mut self, non_relevant: &[FeedbackPoint]) -> Result<()> {
        absorb(&mut self.negative, &mut self.dim, non_relevant)
    }

    /// The current moved query point: the score-weighted centroid of the
    /// relevant set, pushed away from the negative centroid by `gamma`
    /// (Rocchio's formula with α = 0, β = 1).
    pub fn current_point(&self) -> Option<Vec<f64>> {
        let dim = self.dim?;
        let mass: f64 = self.relevant.iter().map(|p| p.score).sum();
        if mass <= 0.0 {
            return None;
        }
        let mut c = vec![0.0; dim];
        for p in &self.relevant {
            qcluster_linalg::vecops::axpy(&mut c, &p.vector, p.score);
        }
        for v in &mut c {
            *v /= mass;
        }
        if !self.negative.is_empty() && self.gamma > 0.0 {
            let neg_mass: f64 = self.negative.iter().map(|p| p.score).sum();
            let mut n = vec![0.0; dim];
            for p in &self.negative {
                qcluster_linalg::vecops::axpy(&mut n, &p.vector, p.score);
            }
            for v in &mut n {
                *v /= neg_mass;
            }
            // c ← c + γ (c − n̄): move away from the bad centroid.
            for (ci, &ni) in c.iter_mut().zip(n.iter()) {
                *ci += self.gamma * (*ci - ni);
            }
        }
        Some(c)
    }

    /// Per-dimension weights `1 / (σ_d² + λ)` of the current relevant set
    /// (variance measured around the positive centroid — negatives shape
    /// the point, not the weights, matching MARS).
    pub fn current_weights(&self) -> Option<Vec<f64>> {
        let center = self.positive_centroid()?;
        let mass: f64 = self.relevant.iter().map(|p| p.score).sum();
        let mut var = vec![0.0; center.len()];
        for p in &self.relevant {
            for (d, v) in var.iter_mut().enumerate() {
                let diff = p.vector[d] - center[d];
                *v += p.score * diff * diff;
            }
        }
        Some(
            var.into_iter()
                .map(|v| 1.0 / (v / mass + VARIANCE_RIDGE))
                .collect(),
        )
    }
}

impl RetrievalMethod for QueryPointMovement {
    fn name(&self) -> &'static str {
        "qpm"
    }

    fn feed(&mut self, relevant: &[FeedbackPoint]) -> Result<()> {
        absorb(&mut self.relevant, &mut self.dim, relevant)
    }

    fn query(&self) -> Result<Box<dyn FanoutQuery>> {
        let center = self.current_point().ok_or(CoreError::NoClusters)?;
        let weights = self.current_weights().expect("weights follow point");
        Ok(Box::new(WeightedEuclideanQuery::new(center, weights)))
    }

    fn reset(&mut self) {
        self.relevant.clear();
        self.negative.clear();
        self.dim = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(id: usize, v: &[f64], s: f64) -> FeedbackPoint {
        FeedbackPoint::new(id, v.to_vec(), s)
    }

    #[test]
    fn point_moves_to_weighted_centroid() {
        let mut m = QueryPointMovement::new();
        m.feed(&[pt(0, &[0.0, 0.0], 3.0), pt(1, &[4.0, 4.0], 1.0)])
            .unwrap();
        assert_eq!(m.current_point().unwrap(), vec![1.0, 1.0]);
    }

    #[test]
    fn weights_inverse_to_variance() {
        let mut m = QueryPointMovement::new();
        // Spread along dim 0, agreement along dim 1.
        m.feed(&[
            pt(0, &[-2.0, 1.0], 1.0),
            pt(1, &[2.0, 1.0], 1.0),
            pt(2, &[0.0, 1.0], 1.0),
        ])
        .unwrap();
        let w = m.current_weights().unwrap();
        assert!(w[1] > w[0], "agreeing dimension should weigh more: {w:?}");
    }

    #[test]
    fn feedback_accumulates_across_rounds() {
        let mut m = QueryPointMovement::new();
        m.feed(&[pt(0, &[0.0], 1.0)]).unwrap();
        m.feed(&[pt(1, &[2.0], 1.0)]).unwrap();
        assert_eq!(m.current_point().unwrap(), vec![1.0]);
        // Duplicate id ignored.
        m.feed(&[pt(1, &[100.0], 1.0)]).unwrap();
        assert_eq!(m.current_point().unwrap(), vec![1.0]);
    }

    #[test]
    fn query_ranks_by_moved_point() {
        let mut m = QueryPointMovement::new();
        m.feed(&[pt(0, &[1.0, 1.0], 1.0), pt(1, &[3.0, 3.0], 1.0)])
            .unwrap();
        let q = m.query().unwrap();
        assert!(q.distance(&[2.0, 2.0]) < q.distance(&[10.0, 10.0]));
    }

    #[test]
    fn negative_feedback_repels_the_point() {
        let mut m = QueryPointMovement::new().with_gamma(0.5);
        m.feed(&[pt(0, &[0.0, 0.0], 1.0), pt(1, &[2.0, 0.0], 1.0)])
            .unwrap();
        let before = m.current_point().unwrap();
        assert_eq!(before, vec![1.0, 0.0]);
        // Bad points to the right: the query moves left.
        m.feed_negative(&[pt(100, &[5.0, 0.0], 1.0)]).unwrap();
        let after = m.current_point().unwrap();
        assert!(after[0] < before[0], "{after:?} should move away from bad");
        // c + γ(c − n) = 1 + 0.5·(1 − 5) = −1.
        assert!((after[0] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn gamma_zero_ignores_negatives() {
        let mut m = QueryPointMovement::new().with_gamma(0.0);
        m.feed(&[pt(0, &[1.0], 1.0)]).unwrap();
        m.feed_negative(&[pt(9, &[100.0], 1.0)]).unwrap();
        assert_eq!(m.current_point().unwrap(), vec![1.0]);
    }

    #[test]
    fn negatives_do_not_change_weights() {
        let mut m = QueryPointMovement::new();
        m.feed(&[pt(0, &[-1.0, 0.0], 1.0), pt(1, &[1.0, 0.0], 1.0)])
            .unwrap();
        let w_before = m.current_weights().unwrap();
        m.feed_negative(&[pt(9, &[0.0, 50.0], 1.0)]).unwrap();
        let w_after = m.current_weights().unwrap();
        assert_eq!(w_before, w_after);
    }

    #[test]
    fn errors_before_feedback_and_resets() {
        let mut m = QueryPointMovement::new();
        assert!(m.query().is_err());
        m.feed(&[pt(0, &[0.0], 1.0)]).unwrap();
        assert!(m.query().is_ok());
        m.reset();
        assert!(m.query().is_err());
    }
}
