//! The simulated user (paper Sec. 5 protocol).
//!
//! The paper obtains feedback from the category ground truth: the "user"
//! marks each retrieved image with its oracle grade. This module wraps
//! that protocol: given the retrieved ids of one round, it returns the
//! relevant set as scored [`FeedbackPoint`]s (same-category images at
//! score 3, related at score 1, the rest unmarked).

use crate::dataset::Dataset;
use crate::oracle::{RelevanceOracle, SCORE_SAME_CATEGORY};
use qcluster_core::FeedbackPoint;

/// A deterministic oracle-backed user for one query category.
#[derive(Debug, Clone, Copy)]
pub struct SimulatedUser<'a> {
    dataset: &'a Dataset,
    query_category: usize,
}

impl<'a> SimulatedUser<'a> {
    /// Creates a user judging for `query_category` under the paper's
    /// protocol: same-category and related images are both marked.
    pub fn new(dataset: &'a Dataset, query_category: usize) -> Self {
        SimulatedUser {
            dataset,
            query_category,
        }
    }

    /// Marks one round of retrieved images, returning the scored relevant
    /// set (possibly empty — the caller decides how to proceed when the
    /// round surfaced nothing relevant).
    pub fn mark(&self, retrieved: &[usize]) -> Vec<FeedbackPoint> {
        let oracle = RelevanceOracle::new(self.dataset);
        retrieved
            .iter()
            .filter_map(|&id| {
                let score = oracle.score(self.query_category, id);
                (score > 0.0)
                    .then(|| FeedbackPoint::new(id, self.dataset.vector(id).to_vec(), score))
            })
            .collect()
    }

    /// Marks one round the way the closed loop feeds it. Ids past the
    /// labelled corpus (live ingests) are invisible to the oracle and
    /// dropped; a round that surfaced nothing relevant falls back to the
    /// query example `query_image` at the same-category score — the
    /// user's example is trivially relevant, so every method always has
    /// at least one point to refine on.
    pub fn mark_or_example(&self, retrieved: &[usize], query_image: usize) -> Vec<FeedbackPoint> {
        let labelled: Vec<usize> = retrieved
            .iter()
            .copied()
            .filter(|&id| id < self.dataset.len())
            .collect();
        let mut marked = self.mark(&labelled);
        if marked.is_empty() {
            marked.push(FeedbackPoint::new(
                query_image,
                self.dataset.vector(query_image).to_vec(),
                SCORE_SAME_CATEGORY,
            ));
        }
        marked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SCORE_RELATED;

    fn dataset() -> Dataset {
        Dataset::from_parts(
            vec![
                vec![0.0],
                vec![0.1],
                vec![1.0],
                vec![1.1],
                vec![5.0],
                vec![5.1],
            ],
            vec![0, 0, 1, 1, 2, 2],
            vec![0, 0, 0, 0, 1, 1],
            2,
        )
    }

    #[test]
    fn marks_same_and_related() {
        let ds = dataset();
        let user = SimulatedUser::new(&ds, 0);
        let marked = user.mark(&[0, 2, 4]);
        assert_eq!(marked.len(), 2);
        assert_eq!(marked[0].id, 0);
        assert_eq!(marked[0].score, SCORE_SAME_CATEGORY);
        assert_eq!(marked[1].id, 2);
        assert_eq!(marked[1].score, SCORE_RELATED);
    }

    #[test]
    fn empty_when_nothing_relevant() {
        let ds = dataset();
        let user = SimulatedUser::new(&ds, 0);
        assert!(user.mark(&[4, 5]).is_empty());
    }

    #[test]
    fn nothing_marked_falls_back_to_the_example_and_unlabelled_ids_are_dropped() {
        let ds = dataset();
        let user = SimulatedUser::new(&ds, 0);
        // 6 and 99 are past the labelled corpus; 4 is irrelevant.
        let marked = user.mark_or_example(&[6, 4, 99], 1);
        assert_eq!(marked.len(), 1);
        assert_eq!(marked[0].id, 1);
        assert_eq!(marked[0].vector, vec![0.1]);
        assert_eq!(marked[0].score, SCORE_SAME_CATEGORY);
        // With something relevant in view the example is not added.
        let ids: Vec<usize> = user
            .mark_or_example(&[99, 0, 2], 1)
            .iter()
            .map(|p| p.id)
            .collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn feedback_points_carry_vectors() {
        let ds = dataset();
        let user = SimulatedUser::new(&ds, 2);
        let marked = user.mark(&[4]);
        assert_eq!(marked[0].vector, vec![5.0]);
    }
}
