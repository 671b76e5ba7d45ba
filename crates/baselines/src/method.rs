//! The uniform interface every relevance-feedback method exposes.

use crate::{Falcon, MindReader, QueryExpansion, QueryPointMovement};
use qcluster_core::{FeedbackPoint, QclusterConfig, QclusterEngine, Result};
use qcluster_index::FanoutQuery;

/// A relevance-feedback retrieval method: it ingests rounds of relevant
/// points and produces the refined query for the next round.
///
/// The evaluation harness drives every approach (Qcluster, QPM,
/// MindReader, QEX, FALCON) through this trait, so the comparison figures
/// (paper Figs. 7, 10–13) share one code path, and the service hosts one
/// per session: methods are `Send` and compile queries a parallel scan
/// can clone per worker.
pub trait RetrievalMethod: Send {
    /// Short display name ("qcluster", "qpm", …).
    fn name(&self) -> &'static str;

    /// Ingests one round of user-marked relevant points.
    ///
    /// # Errors
    ///
    /// Method-specific validation failures (empty set, ragged dimensions).
    fn feed(&mut self, relevant: &[FeedbackPoint]) -> Result<()>;

    /// Compiles the current refined query.
    ///
    /// # Errors
    ///
    /// [`qcluster_core::CoreError::NoClusters`]-like errors before any
    /// feedback has been given.
    fn query(&self) -> Result<Box<dyn FanoutQuery>>;

    /// Clears all session state.
    fn reset(&mut self);

    /// Current cluster count, for methods that expose one.
    fn num_clusters(&self) -> Option<usize> {
        None
    }
}

/// Builds one fresh method; only Qcluster takes the configuration.
pub type MethodConstructor = fn(QclusterConfig) -> Box<dyn RetrievalMethod>;

/// Every hostable method by its [`RetrievalMethod::name`], with its
/// constructor.
pub const METHODS: [(&str, MethodConstructor); 5] = [
    ("qcluster", |config| Box::new(QclusterEngine::new(config))),
    ("qpm", |_| Box::new(QueryPointMovement::new())),
    ("mindreader", |_| Box::new(MindReader::new())),
    ("qex", |_| Box::new(QueryExpansion::new())),
    ("falcon", |_| Box::new(Falcon::new())),
];

/// A fresh method by name, or `None` for a name not in [`METHODS`].
pub fn method_by_name(name: &str, config: QclusterConfig) -> Option<Box<dyn RetrievalMethod>> {
    METHODS
        .iter()
        .find(|(known, _)| *known == name)
        .map(|(_, make)| make(config))
}

impl RetrievalMethod for QclusterEngine {
    fn name(&self) -> &'static str {
        "qcluster"
    }

    fn feed(&mut self, relevant: &[FeedbackPoint]) -> Result<()> {
        QclusterEngine::feed(self, relevant)
    }

    fn query(&self) -> Result<Box<dyn FanoutQuery>> {
        Ok(Box::new(QclusterEngine::query(self)?))
    }

    fn reset(&mut self) {
        QclusterEngine::reset(self)
    }

    fn num_clusters(&self) -> Option<usize> {
        Some(QclusterEngine::num_clusters(self))
    }
}

/// What every baseline's `feed` does with a batch: validate it
/// (non-empty, dimensionality consistent with `dim`, positive scores),
/// fix `dim`, and keep each image id not yet in `kept`.
pub(crate) fn absorb(
    kept: &mut Vec<FeedbackPoint>,
    dim: &mut Option<usize>,
    batch: &[FeedbackPoint],
) -> Result<()> {
    use qcluster_core::CoreError;
    let first = batch.first().ok_or(CoreError::EmptyFeedback)?;
    let expected = dim.unwrap_or_else(|| first.dim());
    for p in batch {
        if p.dim() != expected {
            return Err(CoreError::DimensionMismatch {
                expected,
                found: p.dim(),
            });
        }
        if p.score <= 0.0 || p.score.is_nan() {
            return Err(CoreError::InvalidScore(p.score));
        }
    }
    *dim = Some(expected);
    for p in batch {
        if !kept.iter().any(|q| q.id == p.id) {
            kept.push(p.clone());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_entry_builds_the_method_it_names() {
        for (name, make) in METHODS {
            assert_eq!(make(QclusterConfig::default()).name(), name);
        }
        assert!(method_by_name("falcon9", QclusterConfig::default()).is_none());
    }
}
