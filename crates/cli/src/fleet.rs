//! The closed-loop user fleet: plan, execution, and offline baseline.
//!
//! A *user* is a thread driving the paper's feedback protocol end to
//! end against a live target: open a session, query with an example
//! image, let the oracle-backed simulated user mark the answer, feed
//! the marks, think, re-query with the refined (disjunctive) query —
//! for a planned number of iterations, over a planned number of
//! back-to-back sessions. The protocol itself is `qcluster-eval`'s
//! [`ClosedLoop`]; what this module adds around each step is the soak's
//! own: think time, abandonment, error counting, the latency histogram.
//!
//! Everything a user will do is decided **up front** by
//! [`FleetPlan::build`], a pure function of `(config, corpus size)`:
//! query images, per-session iteration counts (including seeded early
//! abandonment), and per-round think-time jitter. Execution then only
//! *consumes* the plan, so one seed reproduces the same workload
//! byte-for-byte regardless of scheduling, and
//! [`offline_baseline`] can replay the identical plan through the same
//! loop on `qcluster-eval`'s in-process target to bound how much
//! retrieval quality the served path may lose.

use crate::config::SoakConfig;
use crate::rng::SeedRng;
use crate::target::{SoakBackend, SoakTarget};
use qcluster_core::{QclusterConfig, QclusterEngine};
use qcluster_eval::{
    ClosedLoop, Dataset, FeedbackSession, IterationRow, QueryReply, ScoreTable, Timed,
};
use qcluster_service::LatencyHistogram;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Stream tag for per-user plan randomness (offset by the user index).
const USER_STREAM_BASE: u64 = 1 << 32;
/// Stream tag for the background ingest content stream.
const INGEST_STREAM: u64 = 0x1F6E;

/// One planned feedback session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPlan {
    /// The example image the session queries for.
    pub query_image: usize,
    /// Feedback rounds this session actually runs (< the configured
    /// iterations when the user abandons early).
    pub rounds: usize,
    /// Pre-drawn think pause before each round, nanoseconds.
    pub think_ns: Vec<u64>,
    /// Whether this session was planned as abandoned.
    pub abandoned: bool,
}

/// One user's planned session sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserPlan {
    /// Sessions run back to back.
    pub sessions: Vec<SessionPlan>,
}

/// The whole fleet's plan: `users[i]` is user `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetPlan {
    /// One plan per user.
    pub users: Vec<UserPlan>,
}

impl FleetPlan {
    /// Builds the fleet plan as a pure function of the config and the
    /// corpus size. Each user draws from its own derived seed stream,
    /// so plans are independent of construction and execution order.
    pub fn build(config: &SoakConfig, corpus_len: usize) -> FleetPlan {
        let users = (0..config.users)
            .map(|u| {
                let mut rng = SeedRng::derived(config.seed, USER_STREAM_BASE + u as u64);
                let sessions = (0..config.sessions_per_user)
                    .map(|_| {
                        let query_image = rng.next_range(corpus_len as u64) as usize;
                        let abandoned = rng.next_range(1000) < u64::from(config.abandon_per_mille);
                        let rounds = if abandoned {
                            rng.next_range(config.iterations as u64) as usize
                        } else {
                            config.iterations
                        };
                        let think_ns = (0..rounds)
                            .map(|_| {
                                if config.think_ms == 0 {
                                    0
                                } else {
                                    // Uniform in [think/2, 3·think/2).
                                    let base = config.think_ms * 1_000_000;
                                    base / 2 + rng.next_range(base)
                                }
                            })
                            .collect();
                        SessionPlan {
                            query_image,
                            rounds,
                            think_ns,
                            abandoned,
                        }
                    })
                    .collect();
                UserPlan { sessions }
            })
            .collect();
        FleetPlan { users }
    }
}

/// The deterministic background-ingest content stream: perturbed
/// copies of seed-chosen corpus vectors (small uniform noise keeps
/// them near real data so they land inside the index's populated
/// space). Content is a pure function of `(seed, draw index)`; only
/// *how many* vectors get sent depends on wall-clock pacing.
#[derive(Debug, Clone)]
pub struct IngestStream<'a> {
    dataset: &'a Dataset,
    rng: SeedRng,
}

impl<'a> IngestStream<'a> {
    /// A stream over `dataset` derived from the soak seed.
    pub fn new(seed: u64, dataset: &'a Dataset) -> IngestStream<'a> {
        IngestStream {
            dataset,
            rng: SeedRng::derived(seed, INGEST_STREAM),
        }
    }

    /// The next vector to ingest.
    pub fn next_vector(&mut self) -> Vec<f64> {
        let base = self.rng.next_range(self.dataset.len() as u64) as usize;
        self.dataset
            .vector(base)
            .iter()
            .map(|v| v + (self.rng.next_f64() - 0.5) * 0.02)
            .collect()
    }
}

/// Counters accumulated across the fleet.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoakCounters {
    /// Query rounds answered with neighbors.
    pub queries_ok: u64,
    /// Query rounds that failed (transport or service error).
    pub query_errors: u64,
    /// Feed rounds that failed.
    pub feed_errors: u64,
    /// Answered queries reporting partial shard/node coverage.
    pub degraded_responses: u64,
    /// Sessions that ran their full planned iterations.
    pub sessions_completed: u64,
    /// Sessions planned (and executed) as early-abandoned.
    pub sessions_abandoned: u64,
    /// Sessions cut short by errors (not by plan).
    pub session_errors: u64,
    /// Background vectors durably ingested.
    pub ingests_ok: u64,
    /// Background ingest attempts that failed.
    pub ingest_errors: u64,
}

impl SoakCounters {
    fn add(&mut self, other: &SoakCounters) {
        self.queries_ok += other.queries_ok;
        self.query_errors += other.query_errors;
        self.feed_errors += other.feed_errors;
        self.degraded_responses += other.degraded_responses;
        self.sessions_completed += other.sessions_completed;
        self.sessions_abandoned += other.sessions_abandoned;
        self.session_errors += other.session_errors;
        self.ingests_ok += other.ingests_ok;
        self.ingest_errors += other.ingest_errors;
    }
}

/// Everything one soak run produced.
#[derive(Debug)]
pub struct SoakOutcome {
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Fleet-wide counters.
    pub counters: SoakCounters,
    /// Fleet-wide client-observed query latency (per-user histograms
    /// merged lock-free at the end of the run).
    pub latency: LatencyHistogram,
    /// Retrieval quality per feedback iteration.
    pub precision: Vec<IterationRow>,
}

/// What one user thread hands back.
struct UserResult {
    counters: SoakCounters,
    precision: ScoreTable,
    latency: LatencyHistogram,
}

impl UserResult {
    fn new(iterations: usize) -> UserResult {
        UserResult {
            counters: SoakCounters::default(),
            precision: ScoreTable::new(iterations + 1),
            latency: LatencyHistogram::default(),
        }
    }

    /// Books one query round; `false` when it went unanswered.
    fn record_query(
        &mut self,
        dataset: &Dataset,
        category: usize,
        k: usize,
        iteration: usize,
        answer: Timed<Result<QueryReply, String>>,
    ) -> bool {
        match answer.value {
            Ok(reply) => {
                self.latency.record(answer.elapsed);
                self.counters.queries_ok += 1;
                if reply.degraded {
                    self.counters.degraded_responses += 1;
                }
                self.precision
                    .observe(dataset, category, iteration, &reply.retrieved, k);
                true
            }
            Err(_) => {
                self.counters.query_errors += 1;
                false
            }
        }
    }
}

fn run_user(
    dataset: &Dataset,
    backend: &dyn SoakBackend,
    config: &SoakConfig,
    plan: &UserPlan,
) -> UserResult {
    let mut res = UserResult::new(config.iterations);
    let mut target = match backend.user_target() {
        Ok(t) => t,
        Err(_) => {
            res.counters.session_errors += plan.sessions.len() as u64;
            return res;
        }
    };
    for session_plan in &plan.sessions {
        run_session(dataset, target.as_mut(), config, session_plan, &mut res);
    }
    res
}

fn run_session(
    dataset: &Dataset,
    target: &mut SoakTarget,
    config: &SoakConfig,
    plan: &SessionPlan,
    res: &mut UserResult,
) {
    let category = dataset.category(plan.query_image);
    let opened = ClosedLoop::open(
        target,
        dataset,
        plan.query_image,
        config.k,
        config.deadline_ms,
    );
    let Ok((mut session, first)) = opened else {
        res.counters.session_errors += 1;
        return;
    };
    let mut answered = res.record_query(dataset, category, config.k, 0, first);
    for (round, &think) in plan.think_ns.iter().enumerate() {
        if !answered {
            break;
        }
        if think > 0 {
            std::thread::sleep(Duration::from_nanos(think));
        }
        let step = session.step();
        if step.feed.value.is_err() {
            // Count it but keep driving: the refined query falls back
            // to the last state the server accepted.
            res.counters.feed_errors += 1;
        }
        answered = res.record_query(dataset, category, config.k, round + 1, step.query);
    }
    let _ = session.close();
    if !answered {
        res.counters.session_errors += 1;
    } else if plan.abandoned {
        res.counters.sessions_abandoned += 1;
    } else {
        res.counters.sessions_completed += 1;
    }
}

/// Calls `send` `per_sec` times a second until `stop` is set, and at
/// least once: a stop set before the pacer first runs still lets one
/// send through. Sends are due at `t0 + n·interval`, so the time a send
/// takes is not added to the interval after it. A pacer more than one
/// interval behind (a send stalled) re-anchors its schedule to now
/// instead of bursting to catch up.
fn pace(per_sec: u32, stop: &AtomicBool, mut send: impl FnMut()) {
    let interval = Duration::from_nanos(1_000_000_000 / u64::from(per_sec));
    let mut due = Instant::now();
    loop {
        send();
        due += interval;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        } else if now - due > interval {
            due = now;
        }
        if stop.load(Ordering::Relaxed) {
            return;
        }
    }
}

/// Runs one soak: starts the background ingest pacer, drives every
/// planned user on its own thread against `backend`, and folds the
/// per-user results into one [`SoakOutcome`] (latency histograms merged
/// lock-free).
///
/// # Errors
///
/// Invalid configs and empty datasets; individual request failures are
/// *counted*, never propagated — a soak's job is to keep applying load
/// while the target misbehaves.
pub fn run_soak(
    dataset: &Dataset,
    backend: &dyn SoakBackend,
    config: &SoakConfig,
) -> Result<SoakOutcome, String> {
    config.validate()?;
    if dataset.is_empty() {
        return Err("dataset is empty".into());
    }
    let plan = FleetPlan::build(config, dataset.len());
    let t0 = Instant::now();
    let stop_ingest = AtomicBool::new(false);

    let (user_results, (ingests_ok, ingest_errors)) = std::thread::scope(|scope| {
        let ingest_handle = (config.ingest_per_sec > 0).then(|| {
            let stop = &stop_ingest;
            scope.spawn(move || {
                let mut stream = IngestStream::new(config.seed, dataset);
                let (mut ok, mut errors) = (0u64, 0u64);
                pace(config.ingest_per_sec, stop, || {
                    match backend.ingest(stream.next_vector()) {
                        Ok(_) => ok += 1,
                        Err(_) => errors += 1,
                    }
                });
                (ok, errors)
            })
        });
        let handles: Vec<_> = plan
            .users
            .iter()
            .map(|user_plan| scope.spawn(move || run_user(dataset, backend, config, user_plan)))
            .collect();
        let results: Vec<UserResult> = handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    // A panicked user charges its whole plan as errors.
                    let mut res = UserResult::new(config.iterations);
                    res.counters.session_errors += config.sessions_per_user as u64;
                    res
                })
            })
            .collect();
        stop_ingest.store(true, Ordering::Relaxed);
        let ingest = ingest_handle
            .map(|h| h.join().unwrap_or((0, 0)))
            .unwrap_or((0, 0));
        (results, ingest)
    });

    let wall = t0.elapsed();

    let latency = LatencyHistogram::default();
    let mut counters = SoakCounters::default();
    let mut precision = ScoreTable::new(config.iterations + 1);
    for res in &user_results {
        latency.merge(&res.latency);
        counters.add(&res.counters);
        precision.merge(&res.precision);
    }
    counters.ingests_ok = ingests_ok;
    counters.ingest_errors = ingest_errors;

    Ok(SoakOutcome {
        wall,
        counters,
        latency,
        precision: precision.rows(),
    })
}

/// Replays the *same* fleet plan through the same closed loop on
/// `qcluster-eval`'s in-process target (no sharding, no network, no
/// faults, no think time), reporting per-iteration mean precision-at-k.
/// This is the quality reference a soak must match to within tie-break
/// noise: both sides run the identical query images,
/// iteration counts, marking protocol, and engine configuration.
///
/// # Errors
///
/// Engine failures from the in-process session driver.
pub fn offline_baseline(
    dataset: &Dataset,
    config: &SoakConfig,
) -> Result<Vec<IterationRow>, String> {
    config.validate()?;
    let plan = FleetPlan::build(config, dataset.len());
    let driver = FeedbackSession::new(dataset, config.k);
    let mut engine = QclusterEngine::new(QclusterConfig::default());
    let mut precision = ScoreTable::new(config.iterations + 1);
    for session_plan in plan.users.iter().flat_map(|user| &user.sessions) {
        let outcome = driver
            .run(&mut engine, session_plan.query_image, session_plan.rounds)
            .map_err(|e| format!("offline session failed: {e}"))?;
        let category = dataset.category(session_plan.query_image);
        for (i, record) in outcome.iterations.iter().enumerate() {
            precision.observe(dataset, category, i, &record.retrieved, config.k);
        }
    }
    Ok(precision.rows())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SoakConfig {
        SoakConfig {
            seed: 7,
            users: 6,
            sessions_per_user: 3,
            iterations: 4,
            k: 10,
            think_ms: 20,
            abandon_per_mille: 400,
            ..SoakConfig::default()
        }
    }

    #[test]
    fn fleet_plan_is_deterministic_in_the_seed() {
        let a = FleetPlan::build(&config(), 500);
        let b = FleetPlan::build(&config(), 500);
        assert_eq!(a, b);
        let other = FleetPlan::build(
            &SoakConfig {
                seed: 8,
                ..config()
            },
            500,
        );
        assert_ne!(a, other);
    }

    #[test]
    fn fleet_plan_respects_the_configured_shape() {
        let cfg = config();
        let plan = FleetPlan::build(&cfg, 500);
        assert_eq!(plan.users.len(), cfg.users);
        let base = cfg.think_ms * 1_000_000;
        let mut abandoned = 0usize;
        let mut full = 0usize;
        for user in &plan.users {
            assert_eq!(user.sessions.len(), cfg.sessions_per_user);
            for s in &user.sessions {
                assert!(s.query_image < 500);
                assert_eq!(s.think_ns.len(), s.rounds);
                if s.abandoned {
                    abandoned += 1;
                    assert!(s.rounds < cfg.iterations);
                } else {
                    full += 1;
                    assert_eq!(s.rounds, cfg.iterations);
                }
                for &t in &s.think_ns {
                    assert!((base / 2..base / 2 + base).contains(&t), "think {t}");
                }
            }
        }
        // 400‰ abandonment over 18 sessions: both kinds must occur.
        assert!(abandoned > 0, "no session abandoned");
        assert!(full > 0, "every session abandoned");
    }

    #[test]
    fn zero_think_time_plans_zero_pauses() {
        let plan = FleetPlan::build(
            &SoakConfig {
                think_ms: 0,
                ..config()
            },
            100,
        );
        assert!(plan
            .users
            .iter()
            .flat_map(|u| &u.sessions)
            .all(|s| s.think_ns.iter().all(|&t| t == 0)));
    }

    #[test]
    fn ingest_pacer_holds_its_rate_when_each_send_takes_time() {
        // 50/s with a 10 ms send: sleeping a full interval after each
        // send would make it 1 / 30 ms, about 33 in the second.
        let stop = AtomicBool::new(false);
        let mut sends = 0u32;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_secs(1));
                stop.store(true, Ordering::Relaxed);
            });
            pace(50, &stop, || {
                sends += 1;
                std::thread::sleep(Duration::from_millis(10));
            });
        });
        assert!((42..=51).contains(&sends), "{sends} sends in 1 s at 50/s");
    }

    #[test]
    fn a_pacer_stopped_before_it_starts_still_sends_once() {
        let stop = AtomicBool::new(true);
        let mut sends = 0u32;
        pace(50, &stop, || sends += 1);
        assert_eq!(sends, 1);
    }

    #[test]
    fn ingest_stream_is_deterministic_and_matches_dataset_dim() {
        let dataset = Dataset::from_parts(
            (0..20).map(|i| vec![i as f64, 2.0 * i as f64]).collect(),
            (0..20).map(|i| i % 4).collect(),
            vec![0; 20],
            4,
        );
        let a: Vec<Vec<f64>> = {
            let mut s = IngestStream::new(11, &dataset);
            (0..16).map(|_| s.next_vector()).collect()
        };
        let b: Vec<Vec<f64>> = {
            let mut s = IngestStream::new(11, &dataset);
            (0..16).map(|_| s.next_vector()).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|v| v.len() == dataset.dim()));
        let c: Vec<Vec<f64>> = {
            let mut s = IngestStream::new(12, &dataset);
            (0..16).map(|_| s.next_vector()).collect()
        };
        assert_ne!(a, c);
    }
}
