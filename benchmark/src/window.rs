//! The measured window: closed-loop session clients with zero think
//! time, the open-loop ingest stream of the durable workload, and the
//! host-speed canary each client runs between sessions.

use crate::catalog::{Workload, FLUSH_EVERY, INGEST_RATE, ROUNDS};
use crate::gen::Generator;
use crate::session::{check_shape, mark, plan, relevant_hits};
use crate::system::{Answer, Door};
use crate::trace::{Span, SpanSink};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One stretch of the window; a traced phase records client-side spans.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub secs: f64,
    pub traced: bool,
}

/// What every client thread shares.
pub struct Ctx<'a> {
    pub w: &'a Workload,
    pub gen: &'a Generator,
    pub points: &'a [Vec<f64>],
    pub seed: u64,
    pub phases: &'a [Phase],
    /// Session clients sharing the categories between them.
    pub session_clients: u64,
    /// Span clock origin.
    pub epoch: Instant,
    /// Ingests sent so far: ids below `n + sent` may appear in answers.
    pub ingest_sent: &'a AtomicUsize,
    /// Every client starts its window here, after its warm-up.
    pub barrier: &'a Barrier,
}

impl Ctx<'_> {
    fn window(&self) -> Duration {
        Duration::from_secs_f64(self.phases.iter().map(|p| p.secs).sum())
    }

    /// The phase an operation that completed `at` after the window start
    /// belongs to; `None` once the window is over.
    fn phase_at(&self, at: Duration) -> Option<usize> {
        let mut end = 0.0;
        for (i, phase) in self.phases.iter().enumerate() {
            end += phase.secs;
            if at.as_secs_f64() <= end {
                return Some(i);
            }
        }
        None
    }
}

/// A client gives up after this many failed operations.
const MAX_FAILURES: u64 = 50;

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Latency samples of one phase, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct PhaseSamples {
    pub round_us: Vec<f64>,
    pub feed_us: Vec<f64>,
    pub query_us: Vec<f64>,
    pub first_result_us: Vec<f64>,
}

#[derive(Debug, Default)]
pub struct ClientReport {
    pub phases: Vec<PhaseSamples>,
    /// Relevant results among the last answers of this client's first
    /// pass over its share of the categories (its timed sessions
    /// `0 .. categories / clients`), and how many such sessions completed.
    pub frozen_hits: u64,
    pub frozen_sessions: u64,
    /// The first timed session this window did not complete.
    pub next_session: u64,
    pub canary_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Search-work counters summed over every windowed answer.
    pub answers: u64,
    pub distance_evals: u64,
    pub nodes_accessed: u64,
    pub cache_hits: u64,
    pub disk_reads: u64,
    pub nodes_ok: u64,
    pub nodes_total: u64,
    pub spans: Vec<Span>,
}

impl ClientReport {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    fn tally(&mut self, a: &Answer) {
        self.answers += 1;
        self.distance_evals += a.stats.distance_evaluations;
        self.nodes_accessed += a.stats.nodes_accessed;
        self.cache_hits += a.stats.cache_hits;
        self.disk_reads += a.stats.disk_reads;
        self.nodes_ok += a.nodes_ok as u64;
        self.nodes_total += a.nodes_total as u64;
    }
}

/// Doubles the canary streams over: 256 KiB, resident in L2.
const CANARY_LEN: usize = 32 * 1024;

/// The canary's buffer, the same for every client and run.
pub fn canary_buffer() -> Vec<f64> {
    (0..CANARY_LEN)
        .map(|i| 1.0 + (i % 97) as f64 * 1e-3)
        .collect()
}

/// The host-speed canary: a fixed kernel of 32 independent multiply-add
/// chains streaming over an L2-resident buffer. It is throughput-bound,
/// like the scans, so it slows when a neighbour takes a share of the
/// core or the cache (a single dependent chain does not); its median
/// moves with the box, not with the code under test.
pub fn canary(buffer: &[f64]) -> Duration {
    let start = Instant::now();
    let mut acc = [0.0_f64; 32];
    for _ in 0..4 {
        for chunk in black_box(buffer).chunks_exact(32) {
            for (a, x) in acc.iter_mut().zip(chunk) {
                *a = *a * 0.999_999 + x;
            }
        }
    }
    black_box(acc);
    start.elapsed()
}

/// Warm-up sessions take their plans from indices no timed session
/// reaches, so the timed sessions of a client are `0, 1, 2, …` whatever
/// the warm-ups were.
const WARMUP_INDEX_BASE: u64 = 1 << 40;

/// One untimed session: warms caches, pools and the allocator.
fn warm_session(door: &mut Door, ctx: &Ctx<'_>, client: u64, index: u64) -> Result<(), String> {
    let w = ctx.w;
    let index = WARMUP_INDEX_BASE + index;
    let p = plan(ctx.seed, ctx.gen, w.n, ctx.session_clients, client, index);
    let session = door.create_session()?;
    let mut answer = door.query(session, w.k, Some(ctx.points[p.example_id].clone()))?;
    for _ in 0..ROUNDS {
        let ids = mark(ctx.gen, p, answer.neighbors.iter().map(|n| n.id));
        door.feed(session, &ids)?;
        answer = door.query(session, w.k, None)?;
    }
    door.close_session(session)
}

/// A closed-loop session client: `warmup` untimed sessions, the barrier,
/// then timed sessions `first, first + 1, …` back to back until the
/// window ends. Session `i` of a client is the same for every run of a
/// seed; a session the window cut off is left for the next window
/// (`ClientReport::next_session`).
pub fn session_client(
    door: &mut Door,
    ctx: &Ctx<'_>,
    client: u64,
    warmup: u64,
    first: u64,
) -> ClientReport {
    let w = ctx.w;
    let mut report = ClientReport {
        phases: vec![PhaseSamples::default(); ctx.phases.len()],
        ..ClientReport::default()
    };
    for index in first..first + warmup {
        if let Err(e) = warm_session(door, ctx, client, index) {
            report.fail(format!("warm-up session {index}: {e}"));
        }
    }
    ctx.barrier.wait();
    let start = Instant::now();
    let mut sink = SpanSink::new(ctx.epoch, (client + 1) << 40);
    let frozen = ctx.gen.categories() as u64 / ctx.session_clients;
    let canary_buffer = canary_buffer();
    let mut index = first;
    report.next_session = first;
    'window: while start.elapsed() < ctx.window() && report.failed < MAX_FAILURES {
        let p = plan(ctx.seed, ctx.gen, w.n, ctx.session_clients, client, index);
        let trace_id = (client << 32) | index;
        let this = index;
        index += 1;
        report.canary_us.push(us(canary(&canary_buffer)));
        let example = ctx.points[p.example_id].clone();

        let t0 = Instant::now();
        report.attempted += 2;
        let first = door
            .create_session()
            .and_then(|s| door.query(s, w.k, Some(example)).map(|a| (s, a)));
        let t1 = Instant::now();
        let (session, mut answer) = match first {
            Ok(pair) => pair,
            Err(e) => {
                report.fail(format!("session {index}: {e}"));
                continue;
            }
        };
        let Some(phase) = ctx.phase_at(t1 - start) else {
            let _ = door.close_session(session);
            break;
        };
        report.phases[phase].first_result_us.push(us(t1 - t0));
        let traced = ctx.phases[phase].traced;
        let session_span = traced.then(|| sink.open(trace_id, 0, "client.session", t0));
        if let Some(parent) = session_span {
            sink.closed(trace_id, parent, "client.first_result", t0, t1);
        }
        // Read after the answer: every id in it was sent before it.
        let total = w.n + ctx.ingest_sent.load(Ordering::SeqCst);
        if let Err(e) = check_shape(&answer, w.k, total, w.nodes) {
            report.fail(format!("session {index}, example query: {e}"));
        }
        report.tally(&answer);

        for round in 0..ROUNDS {
            let ids = mark(ctx.gen, p, answer.neighbors.iter().map(|n| n.id));
            report.attempted += 2;
            let t0 = Instant::now();
            let fed = door.feed(session, &ids);
            let tf = Instant::now();
            let refined = fed.and_then(|()| door.query(session, w.k, None));
            let t1 = Instant::now();
            answer = match refined {
                Ok(a) => a,
                Err(e) => {
                    report.fail(format!("session {index}, round {round}: {e}"));
                    let _ = door.close_session(session);
                    continue 'window;
                }
            };
            let Some(phase) = ctx.phase_at(t1 - start) else {
                let _ = door.close_session(session);
                break 'window;
            };
            let samples = &mut report.phases[phase];
            samples.round_us.push(us(t1 - t0));
            samples.feed_us.push(us(tf - t0));
            samples.query_us.push(us(t1 - tf));
            if let Some(parent) = session_span {
                let r = sink.closed(trace_id, parent, "client.round", t0, t1);
                sink.closed(trace_id, r, "client.feed", t0, tf);
                sink.closed(trace_id, r, "client.query", tf, t1);
            }
            let total = w.n + ctx.ingest_sent.load(Ordering::SeqCst);
            if let Err(e) = check_shape(&answer, w.k, total, w.nodes) {
                report.fail(format!("session {index}, round {round}: {e}"));
            }
            report.tally(&answer);
        }
        report.attempted += 1;
        if let Err(e) = door.close_session(session) {
            report.fail(format!("session {index}, close: {e}"));
        }
        if let Some(id) = session_span {
            sink.close(id, Instant::now());
        }
        if this < frozen {
            let ids = answer.neighbors.iter().map(|n| n.id);
            report.frozen_hits += relevant_hits(ctx.gen, p, ids);
            report.frozen_sessions += 1;
        }
        report.next_session = index;
    }
    report.spans = sink.into_spans();
    report
}

#[derive(Debug, Default)]
pub struct IngestReport {
    /// Due time → ack, microseconds (open loop: a stall shows in every
    /// request it delays).
    pub latency_us: Vec<f64>,
    /// How late the generator sent, microseconds.
    pub late_us: Vec<f64>,
    pub flush_us: Vec<f64>,
    /// Acked vectors: ids `n .. n + acked`, in stream order.
    pub acked: usize,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// The open-loop ingest stream: vector `n + j` of the generator is due
/// at `j / INGEST_RATE` seconds and timed from then, `Flush` after every
/// `FLUSH_EVERY` acks. Stops at the first failure — a gap would shift
/// every later id.
pub fn ingest_client(door: &mut Door, ctx: &Ctx<'_>, first: usize) -> IngestReport {
    let mut report = IngestReport::default();
    ctx.barrier.wait();
    let start = Instant::now();
    let gap = Duration::from_nanos(1_000_000_000 / INGEST_RATE);
    let mut j = first;
    loop {
        let due = start + gap * (j - first) as u32;
        if due - start >= ctx.window() {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let vector = ctx.gen.point(ctx.w.n + j);
        ctx.ingest_sent.fetch_add(1, Ordering::SeqCst);
        let sent = Instant::now();
        report.attempted += 1;
        match door.ingest(vector) {
            Ok((id, total)) if id == ctx.w.n + j && total == id + 1 => {
                report.latency_us.push(us(due.elapsed()));
                report.late_us.push(us(sent - due));
                report.acked += 1;
            }
            Ok((id, total)) => {
                report.failed += 1;
                report
                    .errors
                    .push(format!("ingest {j}: acked id {id} of {total}"));
                break;
            }
            Err(e) => {
                report.failed += 1;
                report.errors.push(format!("ingest {j}: {e}"));
                break;
            }
        }
        j += 1;
        if ((j - first) as u64).is_multiple_of(FLUSH_EVERY) {
            report.attempted += 1;
            let t = Instant::now();
            match door.flush() {
                Ok(()) => report.flush_us.push(us(t.elapsed())),
                Err(e) => {
                    report.failed += 1;
                    report.errors.push(format!("flush after {j}: {e}"));
                }
            }
        }
    }
    report
}
