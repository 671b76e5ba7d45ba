//! `qcluster eval` — oracle-graded relevance-feedback evaluation.
//!
//! Replays the paper's retrieval experiment: sample query images, run
//! the initial example-image query plus `rounds` feedback iterations
//! (the oracle-backed simulated user marks each answer), and report
//! mean precision@k / recall@k per iteration — the precision
//! trajectory of the paper's Fig. 8/9.
//!
//! Two doors answer the **same sampled queries** through the same
//! closed loop (`qcluster-eval`'s [`run_session`]):
//!
//! - **offline** — the [`InProcessTarget`] over the labeled feature
//!   file; the ground-truth trajectory.
//! - **served** — real wire sessions against a `qcluster serve` stack
//!   (single node over TCP, or a router-fronted cluster).
//!
//! The quality gate compares the two tables: at every iteration the
//! served mean precision must stay within ε of the offline baseline,
//! which is what the golden end-to-end test (and `qcluster run`)
//! enforce.

use crate::error::CliError;
use crate::rng::SeedRng;
use crate::stats::PipelineStats;
use crate::target::SoakBackend;
use qcluster_core::{QclusterConfig, QclusterEngine};
use qcluster_eval::{run_session, Dataset, InProcessTarget, IterationRow, ScoreTable, UserTarget};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Stream tag deriving the query-sampling RNG from the eval seed.
const QUERY_STREAM: u64 = 0xE7A1;

/// Eval shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOptions {
    /// Results per query round.
    pub k: usize,
    /// Feedback iterations after the initial query.
    pub rounds: usize,
    /// Query images to sample.
    pub queries: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            k: 20,
            rounds: 2,
            queries: 30,
            seed: 17,
        }
    }
}

/// One eval run's full result table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// Which path produced it (`offline` or the served target label).
    pub target: String,
    /// Results per round.
    pub k: usize,
    /// Feedback iterations after the initial query.
    pub rounds: usize,
    /// Query images sampled.
    pub queries: usize,
    /// Sampling seed.
    pub seed: u64,
    /// One row per iteration, index order.
    pub rows: Vec<IterationRow>,
}

impl EvalReport {
    /// Renders the table as markdown.
    pub fn render_markdown(&self) -> String {
        let mut out = format!(
            "| iteration | precision@{k} | σ | recall@{k} | sessions |\n\
             |---:|---:|---:|---:|---:|\n",
            k = self.k
        );
        for row in &self.rows {
            out.push_str(&format!(
                "| {} | {:.4} | {:.4} | {:.4} | {} |\n",
                row.iteration, row.mean_precision, row.std_precision, row.mean_recall, row.sessions
            ));
        }
        out
    }
}

/// Samples `queries` distinct query images (falls back to allowing
/// repeats only when the corpus is smaller than the request).
pub fn sample_queries(corpus_len: usize, queries: usize, seed: u64) -> Vec<usize> {
    let mut rng = SeedRng::derived(seed, QUERY_STREAM);
    if queries >= corpus_len {
        return (0..corpus_len).collect();
    }
    let mut seen = BTreeSet::new();
    while seen.len() < queries {
        seen.insert(rng.next_range(corpus_len as u64) as usize);
    }
    seen.into_iter().collect()
}

/// Runs one strict session per sampled query on `target` and folds
/// every round's answer into one report labelled `label`.
fn score_sessions<E: std::fmt::Display>(
    label: String,
    stage_name: &str,
    target: &mut dyn UserTarget<Error = E>,
    dataset: &Dataset,
    opts: &EvalOptions,
    stats: &PipelineStats,
) -> Result<EvalReport, CliError> {
    let stage = stats.stage(stage_name);
    let mut table = ScoreTable::new(opts.rounds + 1);
    let queries = sample_queries(dataset.len(), opts.queries, opts.seed);
    for &q in &queries {
        stage.item_in();
        let outcome = run_session(target, dataset, q, opts.k, opts.rounds)
            .map_err(|e| CliError::stage(stage_name, e))?;
        for (i, record) in outcome.iterations.iter().enumerate() {
            table.observe(dataset, dataset.category(q), i, &record.retrieved, opts.k);
        }
        stage.item_out();
    }
    stage.finish();
    Ok(EvalReport {
        target: label,
        k: opts.k,
        rounds: opts.rounds,
        queries: queries.len(),
        seed: opts.seed,
        rows: table.rows(),
    })
}

/// Runs the offline baseline over the labeled dataset: the loop's
/// in-process door onto a default Qcluster engine.
///
/// # Errors
///
/// Engine failures.
pub fn offline_eval(
    dataset: &Dataset,
    opts: &EvalOptions,
    stats: &PipelineStats,
) -> Result<EvalReport, CliError> {
    let mut engine = QclusterEngine::new(QclusterConfig::default());
    let mut target = InProcessTarget::new(&mut engine, dataset.tree(), true);
    score_sessions(
        "offline".into(),
        "offline",
        &mut target,
        dataset,
        opts,
        stats,
    )
}

/// Drives the same eval over a live serving stack: the same loop, with
/// one of the backend's wire targets as its door.
///
/// # Errors
///
/// Transport or service failures (a degraded-but-answered query is
/// scored, not an error).
pub fn served_eval(
    dataset: &Dataset,
    backend: &dyn SoakBackend,
    opts: &EvalOptions,
    stats: &PipelineStats,
) -> Result<EvalReport, CliError> {
    let mut target = backend
        .user_target()
        .map_err(|e| CliError::stage("served", e))?;
    let label = backend.label();
    score_sessions(label, "served", target.as_mut(), dataset, opts, stats)
}

/// The quality gate: every iteration's served mean precision must sit
/// within `epsilon` of the offline baseline.
///
/// # Errors
///
/// [`CliError::QualityGate`] naming the first diverging iteration.
pub fn compare_reports(
    served: &EvalReport,
    offline: &EvalReport,
    epsilon: f64,
) -> Result<(), CliError> {
    for (s, o) in served.rows.iter().zip(offline.rows.iter()) {
        if (s.mean_precision - o.mean_precision).abs() > epsilon {
            return Err(CliError::QualityGate {
                iteration: s.iteration,
                served: s.mean_precision,
                offline: o.mean_precision,
                epsilon,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcluster_imaging::FeatureKind;

    fn dataset() -> Dataset {
        Dataset::small_default(FeatureKind::ColorMoments, 9).unwrap()
    }

    #[test]
    fn query_sampling_is_deterministic_and_distinct() {
        let a = sample_queries(144, 10, 17);
        let b = sample_queries(144, 10, 17);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        let distinct: BTreeSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), 10);
        assert!(a.iter().all(|&q| q < 144));
        assert_ne!(a, sample_queries(144, 10, 18));
    }

    #[test]
    fn offline_eval_produces_a_full_table() {
        let ds = dataset();
        let opts = EvalOptions {
            queries: 6,
            ..EvalOptions::default()
        };
        let stats = PipelineStats::new("eval");
        let report = offline_eval(&ds, &opts, &stats).unwrap();
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.rows[0].sessions, 6);
        assert!(report.rows.iter().all(|r| r.mean_precision > 0.0));
        assert!(report
            .rows
            .iter()
            .all(|r| r.mean_precision <= 1.0 && r.mean_recall <= 1.0));
        // Feedback must not collapse precision relative to round 0.
        let first = report.rows[0].mean_precision;
        let last = report.rows.last().unwrap().mean_precision;
        assert!(
            last >= first - 0.1,
            "feedback collapsed precision: {first:.3} -> {last:.3}"
        );
        let md = report.render_markdown();
        assert!(md.contains("precision@20"), "{md}");
        assert!(stats.verify_conservation().is_ok());
    }

    #[test]
    fn quality_gate_triggers_on_divergence() {
        let row = |p: f64| IterationRow {
            iteration: 0,
            mean_precision: p,
            std_precision: 0.0,
            mean_recall: 0.0,
            sessions: 1,
        };
        let mk = |p: f64| EvalReport {
            target: "t".into(),
            k: 20,
            rounds: 0,
            queries: 1,
            seed: 0,
            rows: vec![row(p)],
        };
        assert!(compare_reports(&mk(0.80), &mk(0.83), 0.05).is_ok());
        let err = compare_reports(&mk(0.70), &mk(0.83), 0.05).unwrap_err();
        assert!(err.to_string().contains("iteration 0"), "{err}");
    }

    #[test]
    fn reports_serialize_to_json() {
        let ds = dataset();
        let opts = EvalOptions {
            queries: 3,
            rounds: 1,
            ..EvalOptions::default()
        };
        let report = offline_eval(&ds, &opts, &PipelineStats::new("eval")).unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: EvalReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
