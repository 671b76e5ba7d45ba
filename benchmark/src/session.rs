//! Feedback sessions: the seeded plan, the oracle that marks relevant
//! images, the offline mirror (`LinearScan` + `QclusterEngine`) that
//! says what every answer must be, and the checks applied to answers.
//!
//! A session is `CreateSession` → `Query{vector}` (the example image) →
//! `ROUNDS` × (`Feed{relevant_ids}` → `Query{vector: None}`) →
//! `CloseSession`. The relevant ids of a round are the example plus the
//! oracle-marked members of the previous top-k, in rank order.

use crate::catalog::ROUNDS;
use crate::gen::{stream, Generator};
use crate::system::{Answer, Door};
use qcluster_core::{DisjunctiveQuery, FeedbackPoint, QclusterConfig, QclusterEngine};
use qcluster_index::{EuclideanQuery, LinearScan, Neighbor};
use qcluster_service::ServiceConfig;

/// First client id of the sample sessions (real clients are `0..CLIENTS`).
const SAMPLE_CLIENT: u64 = 1_000;

/// What one session asks for: an example image and its category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    pub example_id: usize,
    pub category: usize,
}

/// The plan of session `index` of `client`: a pure function of the seed.
/// Categories are dealt round-robin — client `c` of `clients` takes
/// categories `c, c + clients, …` (rotated by the seed) — so the first
/// `categories / clients` sessions of every client together visit every
/// category exactly once, which keeps mean precision steady from seed
/// to seed; the example is a random member of the category among the
/// first `n` points.
pub fn plan(seed: u64, gen: &Generator, n: usize, clients: u64, client: u64, index: u64) -> Plan {
    let categories = gen.categories();
    let mut rng = stream(seed, 0x5E55 + (client << 32) + index);
    let rotation = stream(seed, 0x0707).below(categories);
    let category = (rotation + (client % clients + clients * index) as usize) % categories;
    let members = (n - category).div_ceil(categories);
    Plan {
        example_id: category + categories * rng.below(members),
        category,
    }
}

/// The oracle's marks: the example, then every member of the plan's
/// category among `ids`, in the order given.
pub fn mark(gen: &Generator, plan: Plan, ids: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut out = vec![plan.example_id];
    out.extend(ids.filter(|&id| id != plan.example_id && gen.category(id) == plan.category));
    out
}

/// How many of an answer's ids the oracle calls relevant (a count, so
/// that precision@k summed over sessions does not depend on their order).
pub fn relevant_hits(gen: &Generator, plan: Plan, ids: impl Iterator<Item = usize>) -> u64 {
    ids.filter(|&id| gen.category(id) == plan.category).count() as u64
}

/// The query a step runs, compiled exactly as the service compiles it.
#[derive(Debug, Clone)]
pub enum ScriptQuery {
    Example(EuclideanQuery),
    Refined(DisjunctiveQuery),
}

/// One query of a scripted session with the feed that precedes it.
#[derive(Debug, Clone)]
pub struct Step {
    /// Points fed before this query (empty for the example query).
    pub fed: Vec<FeedbackPoint>,
    pub query: ScriptQuery,
    /// What every entry point must answer, bit for bit.
    pub expected: Vec<Neighbor>,
}

impl Step {
    pub fn fed_ids(&self) -> Vec<usize> {
        self.fed.iter().map(|p| p.id).collect()
    }
}

/// A whole session worked out offline.
#[derive(Debug, Clone)]
pub struct Script {
    pub example: Vec<f64>,
    /// `steps[0]` is the example query, `steps[1..]` the refined rounds.
    pub steps: Vec<Step>,
}

/// The offline reference: an exact scan over the same vectors driven by
/// an engine configured as the service configures its own.
pub struct Mirror {
    scan: LinearScan,
}

impl Mirror {
    pub fn new<'a>(rows: impl Iterator<Item = &'a [f64]>, dim: usize) -> Mirror {
        let mut flat = Vec::new();
        for row in rows {
            flat.extend_from_slice(row);
        }
        Mirror {
            scan: LinearScan::from_flat(flat, dim),
        }
    }

    pub fn len(&self) -> usize {
        self.scan.len()
    }

    pub fn engine() -> QclusterEngine {
        QclusterEngine::new(QclusterConfig::default())
    }

    /// Feedback points as `Service::feed_ids` builds them.
    pub fn feedback(&self, ids: &[usize]) -> Vec<FeedbackPoint> {
        let score = ServiceConfig::default().default_score;
        ids.iter()
            .map(|&id| FeedbackPoint::new(id, self.scan.point(id).to_vec(), score))
            .collect()
    }

    pub fn script(&self, gen: &Generator, plan: Plan, k: usize) -> Result<Script, String> {
        let example = self.scan.point(plan.example_id).to_vec();
        let mut engine = Mirror::engine();
        let query = EuclideanQuery::new(example.clone());
        let mut expected = self.scan.knn(&query, k);
        let mut steps = vec![Step {
            fed: Vec::new(),
            query: ScriptQuery::Example(query),
            expected: expected.clone(),
        }];
        for round in 0..ROUNDS {
            let ids = mark(gen, plan, expected.iter().map(|n| n.id));
            let fed = self.feedback(&ids);
            engine
                .feed(&fed)
                .map_err(|e| format!("mirror feed, round {round}: {e}"))?;
            let query = engine
                .query()
                .map_err(|e| format!("mirror compile, round {round}: {e}"))?;
            expected = self.scan.knn(&query, k);
            steps.push(Step {
                fed,
                query: ScriptQuery::Refined(query),
                expected: expected.clone(),
            });
        }
        Ok(Script { example, steps })
    }
}

/// Scripts for sessions `0..count` of sample client `sample`, worked out
/// on all cores.
pub fn sample_scripts(
    mirror: &Mirror,
    gen: &Generator,
    seed: u64,
    k: usize,
    sample: u64,
    count: usize,
) -> Result<Vec<Script>, String> {
    let n = mirror.len();
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut scripts: Vec<Option<Result<Script, String>>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (w, chunk) in scripts.chunks_mut(count.div_ceil(workers)).enumerate() {
            let base = w * count.div_ceil(workers);
            scope.spawn(move || {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    let p = plan(seed, gen, n, 1, SAMPLE_CLIENT + sample, (base + i) as u64);
                    *slot = Some(mirror.script(gen, p, k));
                }
            });
        }
    });
    scripts
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// Shape of a healthy answer: `k` results ascending by `(distance, id)`,
/// ids in range, every shard and node covered, not degraded.
pub fn check_shape(a: &Answer, k: usize, total: usize, nodes: usize) -> Result<(), String> {
    if a.neighbors.len() != k {
        return Err(format!("{} neighbors for k = {k}", a.neighbors.len()));
    }
    for pair in a.neighbors.windows(2) {
        let ordered = pair[0].distance < pair[1].distance
            || (pair[0].distance == pair[1].distance && pair[0].id < pair[1].id);
        if !ordered {
            return Err(format!("not ascending by (distance, id): {pair:?}"));
        }
    }
    if let Some(n) = a.neighbors.iter().find(|n| n.id >= total) {
        return Err(format!("id {} outside the corpus of {total}", n.id));
    }
    if a.degraded
        || a.shards_total == 0
        || a.shards_ok != a.shards_total
        || a.nodes_ok != nodes
        || a.nodes_total != nodes
    {
        return Err(format!(
            "partial coverage: shards {}/{}, nodes {}/{} of {nodes}, degraded {}",
            a.shards_ok, a.shards_total, a.nodes_ok, a.nodes_total, a.degraded
        ));
    }
    Ok(())
}

/// Ids, distances and tie order, bit for bit.
pub fn same_answer(
    got: impl ExactSizeIterator<Item = (usize, f64)>,
    expected: &[Neighbor],
) -> Result<(), String> {
    if got.len() != expected.len() {
        return Err(format!(
            "{} results, expected {}",
            got.len(),
            expected.len()
        ));
    }
    for (rank, ((id, distance), want)) in got.zip(expected).enumerate() {
        if id != want.id || distance.to_bits() != want.distance.to_bits() {
            return Err(format!(
                "rank {rank}: got ({id}, {distance:e}), the mirror says ({}, {:e})",
                want.id, want.distance
            ));
        }
    }
    Ok(())
}

/// FNV-1a over every `(id, distance bits)` of every answer, in order.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn answer(&mut self, a: &Answer) {
        for n in &a.neighbors {
            self.word(n.id as u64);
            self.word(n.distance.to_bits());
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Drives one scripted session through a front door and checks every
/// answer bit for bit; returns the number of requests issued.
pub fn run_script(
    door: &mut Door,
    script: &Script,
    k: usize,
    nodes: usize,
    total: usize,
    digest: &mut Digest,
) -> Result<u64, String> {
    let session = door.create_session()?;
    let mut requests = 1;
    for (i, step) in script.steps.iter().enumerate() {
        let vector = if i == 0 {
            Some(script.example.clone())
        } else {
            door.feed(session, &step.fed_ids())?;
            requests += 1;
            None
        };
        let answer = door.query(session, k, vector)?;
        requests += 1;
        check_shape(&answer, k, total, nodes).map_err(|e| format!("step {i}: {e}"))?;
        same_answer(
            answer.neighbors.iter().map(|n| (n.id, n.distance)),
            &step.expected,
        )
        .map_err(|e| format!("step {i}: {e}"))?;
        digest.answer(&answer);
    }
    door.close_session(session)?;
    Ok(requests + 1)
}
