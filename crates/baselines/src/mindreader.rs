//! MindReader (paper reference \[11\]).
//!
//! Like query-point movement, MindReader refines a **single** query point,
//! but learns a **full** inverse covariance so the iso-distance contours
//! are arbitrarily *oriented* ellipsoids (generalized Euclidean distance).
//! It is exactly Qcluster's `d²` (Eq. 1) restricted to one cluster — the
//! paper notes "When all relevant images are included in a single cluster,
//! it is the same as MindReader's" — so the implementation maintains a
//! single [`Cluster`] over the accumulated relevant set and queries it
//! with the full-inverse scheme.

use crate::method::{absorb, RetrievalMethod};
use qcluster_core::{Cluster, ClusterDistance, CoreError, CovarianceScheme, FeedbackPoint, Result};
use qcluster_index::FanoutQuery;

/// The MindReader single-ellipsoid method.
#[derive(Debug, Clone)]
pub struct MindReader {
    relevant: Vec<FeedbackPoint>,
    dim: Option<usize>,
    scheme: CovarianceScheme,
}

impl Default for MindReader {
    fn default() -> Self {
        Self::new()
    }
}

impl MindReader {
    /// Creates the method with the default full-inverse scheme.
    pub fn new() -> Self {
        MindReader {
            relevant: Vec::new(),
            dim: None,
            scheme: CovarianceScheme::default_full(),
        }
    }

    /// The single cluster over all relevant points seen so far.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoClusters`] before any feedback.
    pub fn cluster(&self) -> Result<Cluster> {
        if self.relevant.is_empty() {
            return Err(CoreError::NoClusters);
        }
        Cluster::from_points(self.relevant.clone())
    }
}

impl RetrievalMethod for MindReader {
    fn name(&self) -> &'static str {
        "mindreader"
    }

    fn feed(&mut self, relevant: &[FeedbackPoint]) -> Result<()> {
        absorb(&mut self.relevant, &mut self.dim, relevant)
    }

    fn query(&self) -> Result<Box<dyn FanoutQuery>> {
        let cluster = self.cluster()?;
        Ok(Box::new(ClusterDistance::new(&cluster, self.scheme)?))
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
    fn learns_oriented_ellipsoid() {
        // Relevant points along the diagonal y = x: MindReader should rank
        // on-diagonal points ahead of off-diagonal ones at equal Euclidean
        // distance from the centroid.
        let mut m = MindReader::new();
        m.feed(&[
            pt(0, &[-2.0, -2.1]),
            pt(1, &[-1.0, -0.9]),
            pt(2, &[0.0, 0.1]),
            pt(3, &[1.0, 0.9]),
            pt(4, &[2.0, 2.1]),
        ])
        .unwrap();
        let q = m.query().unwrap();
        let on_diag = q.distance(&[1.5, 1.5]);
        let off_diag = q.distance(&[1.5, -1.5]);
        assert!(
            on_diag < off_diag,
            "diagonal structure not learned: {on_diag} vs {off_diag}"
        );
    }

    #[test]
    fn centroid_is_query_center() {
        let mut m = MindReader::new();
        m.feed(&[pt(0, &[0.0, 0.0]), pt(1, &[2.0, 2.0])]).unwrap();
        let c = m.cluster().unwrap();
        assert_eq!(c.mean(), &[1.0, 1.0]);
        let q = m.query().unwrap();
        assert!(q.distance(&[1.0, 1.0]) < 1e-9);
    }

    #[test]
    fn reset_clears_state() {
        let mut m = MindReader::new();
        m.feed(&[pt(0, &[0.0])]).unwrap();
        m.reset();
        assert!(m.query().is_err());
    }
}
