//! MARS query expansion (paper reference \[13\]).
//!
//! Porkaew & Chakrabarti's multipoint refinement: cluster the relevant
//! points, keep each cluster's centroid as a query representative, and
//! rank by the **convex** (weighted arithmetic-mean) combination of the
//! per-representative distances. The contours are one large convex region
//! covering all representatives (Fig. 1(b)) — which is precisely why it
//! underperforms on disjunctive queries whose true regions are disjoint
//! (Fig. 1(c)): the convex cover drags in everything between the clusters.

use crate::aggregate::{AggregateKind, MultiPointQuery};
use crate::method::{absorb, RetrievalMethod};
use qcluster_core::engine::ThresholdPolicy;
use qcluster_core::{hierarchical::hierarchical_clustering, Cluster};
use qcluster_core::{CoreError, FeedbackPoint, Result};
use qcluster_index::FanoutQuery;

/// Representatives kept after clustering.
const MAX_REPRESENTATIVES: usize = 3;

/// Threshold policy of the internal hierarchical pass.
const THRESHOLD: ThresholdPolicy = ThresholdPolicy::Auto { multiplier: 2.0 };

/// Ridge `λ` added to each per-dimension variance before inversion.
const VARIANCE_RIDGE: f64 = 1e-3;

/// The MARS query-expansion method.
#[derive(Debug, Clone)]
pub struct QueryExpansion {
    relevant: Vec<FeedbackPoint>,
    dim: Option<usize>,
}

impl Default for QueryExpansion {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryExpansion {
    /// Creates the method with 3 representatives (MARS's typical setting).
    pub fn new() -> Self {
        QueryExpansion {
            relevant: Vec::new(),
            dim: None,
        }
    }

    /// The current clusters over all relevant points.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoClusters`] before feedback; propagates clustering
    /// failures.
    pub fn clusters(&self) -> Result<Vec<Cluster>> {
        if self.relevant.is_empty() {
            return Err(CoreError::NoClusters);
        }
        hierarchical_clustering(
            self.relevant.clone(),
            MAX_REPRESENTATIVES,
            THRESHOLD.resolve(&self.relevant),
        )
    }
}

impl RetrievalMethod for QueryExpansion {
    fn name(&self) -> &'static str {
        "qex"
    }

    fn feed(&mut self, relevant: &[FeedbackPoint]) -> Result<()> {
        absorb(&mut self.relevant, &mut self.dim, relevant)
    }

    fn query(&self) -> Result<Box<dyn FanoutQuery>> {
        let clusters = self.clusters()?;
        // Per-representative weighted distances combined as a weighted sum
        // of NON-squared distances: the iso-distance contour is then one
        // large multi-focal ellipse covering every representative and the
        // region between them (paper Fig. 1(b)). A convex sum of *squared*
        // forms with shared weights would collapse to a single moved point
        // (parallel-axis theorem), i.e. be indistinguishable from QPM.
        Ok(Box::new(MultiPointQuery::from_clusters(
            &clusters,
            VARIANCE_RIDGE,
            AggregateKind::MultiFocal,
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

    fn two_group_feedback(m: &mut QueryExpansion) {
        m.feed(&[
            pt(0, &[0.0, 0.0]),
            pt(1, &[0.1, 0.05]),
            pt(2, &[0.05, 0.1]),
            pt(3, &[10.0, 10.0]),
            pt(4, &[10.1, 9.95]),
            pt(5, &[9.95, 10.1]),
        ])
        .unwrap();
    }

    #[test]
    fn clusters_relevant_points() {
        let mut m = QueryExpansion::new();
        two_group_feedback(&mut m);
        let clusters = m.clusters().unwrap();
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn convex_contour_favors_the_middle() {
        // The defining (mis)behavior on disjunctive queries: the convex
        // combination ranks the midpoint *between* clusters ahead of points
        // just past either cluster — unlike Qcluster's fuzzy OR.
        let mut m = QueryExpansion::new();
        two_group_feedback(&mut m);
        let q = m.query().unwrap();
        let mid = q.distance(&[5.0, 5.0]);
        let beyond = q.distance(&[15.0, 15.0]);
        assert!(mid < beyond, "convex cover should include the middle");
    }

    #[test]
    fn representative_budget_is_respected() {
        // Five well-separated groups: the budget binds, and clustering
        // merges down to it, not below.
        let mut m = QueryExpansion::new();
        let groups: Vec<_> = (0..15)
            .map(|i| pt(i, &[(i / 3) as f64 * 100.0, (i % 3) as f64 * 0.1]))
            .collect();
        m.feed(&groups).unwrap();
        assert_eq!(m.clusters().unwrap().len(), MAX_REPRESENTATIVES);
    }

    #[test]
    fn query_before_feedback_errors() {
        let m = QueryExpansion::new();
        assert!(m.query().is_err());
    }
}
