//! The feedback-session driver (paper Sec. 5 protocol, Algorithm 1).
//!
//! One session is the paper's measurement loop: an initial k-NN from the
//! query example, then rounds of *mark-relevant → refine → re-query*.
//! That sequence is written once, as [`ClosedLoop`]: a stepper over any
//! [`UserTarget`] with the oracle-backed [`SimulatedUser`] doing the
//! marking. Whoever drives it owns pacing and error policy — the soak
//! fleet sleeps between steps and counts failures; [`run_session`] is
//! the strict policy (first failure aborts) every evaluation uses.
//!
//! [`FeedbackSession`] is `run_session` through the in-process door:
//! every approach (Qcluster and all baselines) runs through it via
//! [`RetrievalMethod`], so the comparisons of Figs. 7 and 10–13 differ
//! only in the refinement strategy, and a served stack driven through
//! the same stepper differs from it only in the system under test.

use crate::dataset::Dataset;
use crate::target::{InProcessTarget, QueryReply, UserTarget};
use crate::user::SimulatedUser;
use qcluster_baselines::RetrievalMethod;
use qcluster_core::FeedbackPoint;
use qcluster_index::SearchStats;
use std::time::{Duration, Instant};

/// What one retrieval round produced.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// Ranked retrieved image ids (best first), length ≤ k.
    pub retrieved: Vec<usize>,
    /// Tree-search statistics of this round.
    pub stats: SearchStats,
    /// Wall-clock time the target took: the query, plus the feed that
    /// preceded it on a feedback round.
    pub elapsed: Duration,
    /// How many retrieved images the user marked relevant.
    pub num_marked: usize,
}

/// A completed session: the initial round plus each feedback round.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// `iterations[0]` is the initial query; `iterations[i]` the result
    /// after `i` rounds of feedback.
    pub iterations: Vec<IterationRecord>,
}

impl SessionOutcome {
    /// Total simulated disk reads across the session.
    pub fn total_disk_reads(&self) -> u64 {
        self.iterations.iter().map(|r| r.stats.disk_reads).sum()
    }
}

/// One call's outcome and how long the target took over it.
#[derive(Debug)]
pub struct Timed<T> {
    /// What the call returned.
    pub value: T,
    /// Wall-clock time of the call.
    pub elapsed: Duration,
}

fn timed<T>(call: impl FnOnce() -> T) -> Timed<T> {
    let start = Instant::now();
    let value = call();
    Timed {
        value,
        elapsed: start.elapsed(),
    }
}

/// What one [`ClosedLoop::step`] did: the feed of the previous answer's
/// marks, then the refined query.
#[derive(Debug)]
pub struct Step<E> {
    /// The `feed` call.
    pub feed: Timed<Result<(), E>>,
    /// The refined `query` call. It is sent even when the feed failed:
    /// the target then answers from the last state it accepted.
    pub query: Timed<Result<QueryReply, E>>,
}

/// Algorithm 1 for one session, one call per round.
///
/// [`ClosedLoop::open`] creates the session and sends the example
/// query; each [`ClosedLoop::step`] feeds the marks of the last answer
/// and re-queries. Every answer is marked as it arrives
/// ([`SimulatedUser::mark_or_example`]); a failed query marks as an
/// empty answer, so the loop always holds something to feed.
pub struct ClosedLoop<'a, E> {
    target: &'a mut dyn UserTarget<Error = E>,
    user: SimulatedUser<'a>,
    query_image: usize,
    session: u64,
    k: usize,
    deadline_ms: Option<u64>,
    marked: Vec<FeedbackPoint>,
}

impl<'a, E> ClosedLoop<'a, E> {
    /// Opens a session on `target` and sends the example query for
    /// `query_image`, returning the loop and that first answer.
    ///
    /// # Errors
    ///
    /// The target's session-creation failure. A failed example query is
    /// not an `Err`: it is the returned answer, and the caller decides.
    pub fn open(
        target: &'a mut dyn UserTarget<Error = E>,
        dataset: &'a Dataset,
        query_image: usize,
        k: usize,
        deadline_ms: Option<u64>,
    ) -> Result<(Self, Timed<Result<QueryReply, E>>), E> {
        let session = target.create_session()?;
        let mut this = ClosedLoop {
            target,
            user: SimulatedUser::new(dataset, dataset.category(query_image)),
            query_image,
            session,
            k,
            deadline_ms,
            marked: Vec::new(),
        };
        let example = dataset.vector(query_image).to_vec();
        let first = this.query(Some(example));
        Ok((this, first))
    }

    fn query(&mut self, vector: Option<Vec<f64>>) -> Timed<Result<QueryReply, E>> {
        let answer = timed(|| {
            self.target
                .query(self.session, self.k, vector, self.deadline_ms)
        });
        let retrieved = answer.value.as_ref().map_or(&[][..], |r| &r.retrieved);
        self.marked = self.user.mark_or_example(retrieved, self.query_image);
        answer
    }

    /// One feedback round: feeds [`ClosedLoop::marked`], then sends the
    /// refined query.
    pub fn step(&mut self) -> Step<E> {
        let feed = timed(|| self.target.feed(self.session, &self.marked));
        let query = self.query(None);
        Step { feed, query }
    }

    /// The marks of the latest answer — what the next step will feed.
    pub fn marked(&self) -> &[FeedbackPoint] {
        &self.marked
    }

    /// Closes the session.
    ///
    /// # Errors
    ///
    /// The target's failure to close.
    pub fn close(self) -> Result<(), E> {
        self.target.close_session(self.session)
    }
}

/// Runs one whole session on `target` under the strict policy: the
/// example query plus `feedback_rounds` steps, the first failure aborts.
/// `elapsed` of a feedback round is its feed plus its query.
///
/// # Errors
///
/// The first failure of any call on the target.
pub fn run_session<E>(
    target: &mut dyn UserTarget<Error = E>,
    dataset: &Dataset,
    query_image: usize,
    k: usize,
    feedback_rounds: usize,
) -> Result<SessionOutcome, E> {
    let record = |reply: QueryReply, elapsed, marked: &[FeedbackPoint]| IterationRecord {
        retrieved: reply.retrieved,
        stats: reply.stats,
        elapsed,
        num_marked: marked.len(),
    };
    let (mut session, first) = ClosedLoop::open(target, dataset, query_image, k, None)?;
    let mut iterations = Vec::with_capacity(feedback_rounds + 1);
    iterations.push(record(first.value?, first.elapsed, session.marked()));
    for _ in 0..feedback_rounds {
        let step = session.step();
        step.feed.value?;
        let elapsed = step.feed.elapsed + step.query.elapsed;
        iterations.push(record(step.query.value?, elapsed, session.marked()));
    }
    session.close()?;
    Ok(SessionOutcome { iterations })
}

/// Drives feedback sessions over one dataset.
#[derive(Debug, Clone, Copy)]
pub struct FeedbackSession<'a> {
    dataset: &'a Dataset,
    /// Result-set size `k` (the paper fixes k = 100).
    pub k: usize,
    /// Whether to thread the multipoint node cache across iterations.
    pub use_node_cache: bool,
}

impl<'a> FeedbackSession<'a> {
    /// Creates a session driver with the paper's defaults for this
    /// dataset scale.
    pub fn new(dataset: &'a Dataset, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        FeedbackSession {
            dataset,
            k,
            use_node_cache: true,
        }
    }

    /// Disables the cross-iteration node cache (fresh I/O every round —
    /// the centroid-approach accounting of Fig. 7).
    pub fn without_node_cache(mut self) -> Self {
        self.use_node_cache = false;
        self
    }

    /// Runs `feedback_rounds` rounds of relevance feedback with `method`
    /// for a query whose example image is `query_image`:
    /// [`run_session`] through an [`InProcessTarget`].
    ///
    /// The method is `reset` first, so one method instance can serve many
    /// queries.
    ///
    /// # Errors
    ///
    /// Propagates method failures.
    pub fn run(
        &self,
        method: &mut dyn RetrievalMethod,
        query_image: usize,
        feedback_rounds: usize,
    ) -> qcluster_core::Result<SessionOutcome> {
        let mut target = InProcessTarget::new(method, self.dataset.tree(), self.use_node_cache);
        run_session(
            &mut target,
            self.dataset,
            query_image,
            self.k,
            feedback_rounds,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcluster_core::{QclusterConfig, QclusterEngine};
    use qcluster_imaging::FeatureKind;

    fn dataset() -> Dataset {
        Dataset::small_default(FeatureKind::ColorMoments, 9).unwrap()
    }

    #[test]
    fn session_produces_expected_round_count() {
        let ds = dataset();
        let session = FeedbackSession::new(&ds, 20);
        let mut engine = QclusterEngine::new(QclusterConfig::default());
        let out = session.run(&mut engine, 0, 3).unwrap();
        assert_eq!(out.iterations.len(), 4);
        assert!(out.iterations.iter().all(|r| r.retrieved.len() == 20));
    }

    #[test]
    fn feedback_improves_precision_on_average() {
        let ds = dataset();
        let session = FeedbackSession::new(&ds, 20);
        let mut engine = QclusterEngine::new(QclusterConfig::default());
        let mut init_hits = 0usize;
        let mut final_hits = 0usize;
        for q in [0usize, 24, 50, 75, 100, 130] {
            let out = session.run(&mut engine, q, 3).unwrap();
            let cat = ds.category(q);
            let count = |r: &IterationRecord| {
                r.retrieved
                    .iter()
                    .filter(|&&id| ds.category(id) == cat)
                    .count()
            };
            init_hits += count(&out.iterations[0]);
            final_hits += count(out.iterations.last().unwrap());
        }
        assert!(
            final_hits >= init_hits,
            "feedback should not hurt: {init_hits} -> {final_hits}"
        );
    }

    #[test]
    fn node_cache_reduces_disk_reads() {
        let ds = dataset();
        let mut engine = QclusterEngine::new(QclusterConfig::default());
        let cached = FeedbackSession::new(&ds, 20)
            .run(&mut engine, 0, 3)
            .unwrap();
        let fresh = FeedbackSession::new(&ds, 20)
            .without_node_cache()
            .run(&mut engine, 0, 3)
            .unwrap();
        assert!(
            cached.total_disk_reads() <= fresh.total_disk_reads(),
            "cache must not increase reads: {} vs {}",
            cached.total_disk_reads(),
            fresh.total_disk_reads()
        );
    }

    #[test]
    fn baselines_run_through_the_same_driver() {
        let ds = dataset();
        let session = FeedbackSession::new(&ds, 15);
        let mut qpm = qcluster_baselines::QueryPointMovement::new();
        let mut qex = qcluster_baselines::QueryExpansion::new();
        let mut falcon = qcluster_baselines::Falcon::new();
        for m in [&mut qpm as &mut dyn RetrievalMethod, &mut qex, &mut falcon] {
            let out = session.run(m, 10, 2).unwrap();
            assert_eq!(out.iterations.len(), 3, "{}", m.name());
        }
    }
}
