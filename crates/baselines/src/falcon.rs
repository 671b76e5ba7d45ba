//! FALCON (paper reference \[20\]).
//!
//! Wu, Faloutsos, Sycara & Payne's "feedback adaptive loop": **every**
//! relevant point is kept as a query point (no clustering, no summaries),
//! and dissimilarity aggregates through the α-norm fuzzy OR
//! `d_G(x) = ( (1/|G|) Σ d(g_i, x)^α )^{1/α}` with `α < 0` — their
//! experiments favor α ≈ −5. The Qcluster paper criticizes the model as
//! "ad hoc heuristics" whose cost grows with the relevant set because
//! "all relevant points are query points"; this implementation preserves
//! both properties faithfully.

use crate::aggregate::{AggregateKind, MultiPointQuery};
use crate::method::{absorb, RetrievalMethod};
use qcluster_core::{CoreError, FeedbackPoint, Result};
use qcluster_index::FanoutQuery;

/// FALCON's default exponent.
pub const FALCON_DEFAULT_ALPHA: f64 = -5.0;

/// The FALCON aggregate-dissimilarity method.
#[derive(Debug, Clone)]
pub struct Falcon {
    relevant: Vec<FeedbackPoint>,
    dim: Option<usize>,
}

impl Default for Falcon {
    fn default() -> Self {
        Self::new()
    }
}

impl Falcon {
    /// Creates FALCON with its default α = −5.
    pub fn new() -> Self {
        Falcon {
            relevant: Vec::new(),
            dim: None,
        }
    }

    /// Number of accumulated "good" points.
    pub fn num_good_points(&self) -> usize {
        self.relevant.len()
    }
}

impl RetrievalMethod for Falcon {
    fn name(&self) -> &'static str {
        "falcon"
    }

    fn feed(&mut self, relevant: &[FeedbackPoint]) -> Result<()> {
        absorb(&mut self.relevant, &mut self.dim, relevant)
    }

    fn query(&self) -> Result<Box<dyn FanoutQuery>> {
        if self.relevant.is_empty() {
            return Err(CoreError::NoClusters);
        }
        let centers = self.relevant.iter().map(|p| p.vector.clone()).collect();
        Ok(Box::new(MultiPointQuery::uniform(
            centers,
            AggregateKind::FuzzyOr {
                alpha: FALCON_DEFAULT_ALPHA,
            },
        )))
    }

    fn reset(&mut self) {
        self.relevant.clear();
        self.dim = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(id: usize, v: &[f64]) -> FeedbackPoint {
        FeedbackPoint::new(id, v.to_vec(), 1.0)
    }

    #[test]
    fn handles_disjunctive_shape() {
        let mut f = Falcon::new();
        f.feed(&[pt(0, &[0.0, 0.0]), pt(1, &[10.0, 10.0])]).unwrap();
        let q = f.query().unwrap();
        assert!(q.distance(&[0.5, 0.5]) < q.distance(&[5.0, 5.0]));
        assert!(q.distance(&[9.5, 9.5]) < q.distance(&[5.0, 5.0]));
    }

    #[test]
    fn every_relevant_point_is_a_query_point() {
        let mut f = Falcon::new();
        f.feed(&[pt(0, &[0.0]), pt(1, &[1.0]), pt(2, &[2.0])])
            .unwrap();
        assert_eq!(f.num_good_points(), 3);
        f.feed(&[pt(3, &[3.0]), pt(0, &[99.0])]).unwrap();
        // New point added, duplicate id skipped.
        assert_eq!(f.num_good_points(), 4);
    }

    #[test]
    fn query_cost_grows_with_feedback() {
        // The structural weakness the paper points at: the query carries
        // one component per relevant point.
        let mut f = Falcon::new();
        let pts: Vec<FeedbackPoint> = (0..25).map(|i| pt(i, &[i as f64])).collect();
        f.feed(&pts).unwrap();
        let q = f.query().unwrap();
        // Downcast-free check: distance at any point must still be finite.
        assert!(q.distance(&[12.0]).is_finite());
        assert_eq!(f.num_good_points(), 25);
    }

    #[test]
    fn reset_clears_state() {
        let mut f = Falcon::new();
        f.feed(&[pt(0, &[0.0])]).unwrap();
        f.reset();
        assert!(f.query().is_err());
        assert_eq!(f.num_good_points(), 0);
    }
}
