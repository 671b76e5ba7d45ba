//! One run of one workload: generate, set up, gate, warm up, measure,
//! verify — and, traced, replay and probe the layers.
//!
//! An untraced run boots the product `SETUP_REPS` times (that is
//! `setup_s`) and measures one fifth of the window on each boot: on this
//! box throughput differs by several percent from one boot of the same
//! code to the next (memory placement), and not within a boot, so five
//! short windows on five boots repeat far better than one long window on
//! one. A traced run boots once and spends its window half untraced,
//! half with client-side spans.

use crate::catalog::{
    MetricDef, Workload, CLIENTS, END_TO_END, FLUSH_EVERY, GATE_SESSIONS, INGEST_RATE, PER_LAYER,
    ROUNDS, SETUP_REPS, WARMUP_SESSIONS,
};
use crate::gen::{CorpusSpec, Generator};
use crate::probes::{self, Metrics};
use crate::report;
use crate::session::{run_script, same_answer, sample_scripts, Digest, Mirror, Script};
use crate::stats::{median, percentile};
use crate::system::{router_over, System};
use crate::trace::{self, budget, replay_all, Budget, Replay, Span};
use crate::window::{
    ingest_client, session_client, ClientReport, Ctx, IngestReport, Phase, PhaseSamples,
};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicUsize;
use std::sync::Barrier;
use std::time::Instant;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the result file and the spans go.
    pub out_dir: PathBuf,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the driver's contract for this trace mode.
    pub metrics: Vec<(MetricDef, f64)>,
    pub digest: String,
}

/// Sample-client ids: the gate, and the re-check over base + ingested.
const GATE: u64 = 0;
const RECHECK: u64 = 1;

/// The hop-dominated side corpus every traced run also replays.
const SIDE: Workload = Workload {
    name: "side30k",
    why: "",
    n: 30_000,
    dim: 8,
    k: 10,
    per_category: 300,
    noise: 0.26,
    nodes: 1,
    shard_kind: None,
    durable: false,
};

/// Requests, failures and the first few failure messages of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64, errors: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        self.errors.extend(errors.iter().cloned());
    }
}

/// The run's inputs, a pure function of the seed, and what the mirror
/// says the sample sessions must answer. Untimed.
struct Inputs {
    gen: Generator,
    points: Vec<Vec<f64>>,
    scripts: Vec<Script>,
}

impl Inputs {
    /// Bytes of the harness's own copy of the corpus: the rows, each a
    /// heap allocation. (The mirror's copy is freed before the product
    /// boots and is smaller than what the product then holds, so it never
    /// sets the peak.)
    fn harness_bytes(&self) -> usize {
        let row = self.points[0].len() * 8 + std::mem::size_of::<Vec<f64>>() + 16;
        self.points.len() * row
    }
}

fn inputs(w: &Workload, seed: u64, sessions: usize) -> Result<Inputs, String> {
    let spec = CorpusSpec {
        n: w.n,
        dim: w.dim,
        per_category: w.per_category,
        noise: w.noise,
    };
    let gen = Generator::new(seed, spec);
    let points = gen.corpus(w.n);
    let mirror = Mirror::new(points.iter().map(Vec::as_slice), w.dim);
    let scripts = sample_scripts(&mirror, &gen, seed, w.k, GATE, sessions)?;
    Ok(Inputs {
        gen,
        points,
        scripts,
    })
}

fn scratch_dir(out_dir: &Path, tag: &str) -> PathBuf {
    out_dir
        .join("tmp")
        .join(format!("{tag}-{}", std::process::id()))
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        remove_dir(dir)?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Raw vectors → first correct answer over the wire, product calls only.
fn set_up(
    w: &Workload,
    points: &[Vec<f64>],
    dir: Option<&Path>,
    first: &Script,
) -> Result<(System, f64), String> {
    if let Some(dir) = dir {
        fresh_dir(dir)?;
    }
    let start = Instant::now();
    let system = System::boot(w, points, dir)?;
    let mut door = system.door()?;
    let session = door.create_session()?;
    let answer = door.query(session, w.k, Some(first.example.clone()))?;
    let seconds = start.elapsed().as_secs_f64();
    same_answer(
        answer.neighbors.iter().map(|n| (n.id, n.distance)),
        &first.steps[0].expected,
    )
    .map_err(|e| format!("first answer after set-up: {e}"))?;
    door.close_session(session)?;
    Ok((system, seconds))
}

/// Drives the scripts through a fresh front door, bit for bit.
fn gate(
    system: &System,
    w: &Workload,
    scripts: &[Script],
    total: usize,
    what: &str,
) -> Result<(u64, Digest), String> {
    let mut door = system.door()?;
    let mut digest = Digest::new();
    let mut requests = 0;
    for (i, script) in scripts.iter().enumerate() {
        requests += run_script(&mut door, script, w.k, w.nodes, total, &mut digest)
            .map_err(|e| format!("{what}, sample session {i}: {e}"))?;
    }
    Ok((requests, digest))
}

/// What one window on one boot measured.
struct Window {
    clients: Vec<ClientReport>,
    ingest: Option<IngestReport>,
}

fn session_clients(w: &Workload) -> usize {
    // The durable workload gives its second client to the ingest stream.
    if w.durable {
        CLIENTS - 1
    } else {
        CLIENTS
    }
}

/// Runs the clients of one window; client `c` starts at timed session
/// `first[c]`.
fn window(
    system: &System,
    o: &Options,
    inputs: &Inputs,
    phases: &[Phase],
    first: &[u64],
    epoch: Instant,
) -> Result<Window, String> {
    let w = &o.workload;
    let mut doors = (0..CLIENTS)
        .map(|_| system.door())
        .collect::<Result<Vec<_>, _>>()?;
    let sent = AtomicUsize::new(0);
    let barrier = Barrier::new(CLIENTS);
    let ctx = Ctx {
        w,
        gen: &inputs.gen,
        points: &inputs.points,
        seed: o.seed,
        session_clients: session_clients(w) as u64,
        phases,
        epoch,
        ingest_sent: &sent,
        barrier: &barrier,
    };
    let ctx = &ctx;
    let mut ingest_door = w.durable.then(|| doors.pop().expect("two doors"));
    std::thread::scope(|scope| {
        let sessions: Vec<_> = doors
            .iter_mut()
            .zip(first)
            .enumerate()
            .map(|(c, (door, &first))| {
                scope.spawn(move || session_client(door, ctx, c as u64, WARMUP_SESSIONS, first))
            })
            .collect();
        let ingest = ingest_door
            .as_mut()
            .map(|door| scope.spawn(move || ingest_client(door, ctx, 0)));
        let clients = sessions
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a session client panicked".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let ingest = ingest
            .map(|h| {
                h.join()
                    .map_err(|_| "the ingest client panicked".to_string())
            })
            .transpose()?;
        Ok(Window { clients, ingest })
    })
}

fn count(tally: &mut Tally, measured: &Window) {
    for c in &measured.clients {
        tally.add(c.attempted, c.failed, &c.errors);
    }
    if let Some(ingest) = &measured.ingest {
        tally.add(ingest.attempted, ingest.failed, &ingest.errors);
    }
}

/// Every sample of one kind, over all windows, clients and phases.
fn pooled(windows: &[Window], pick: fn(&PhaseSamples) -> &Vec<f64>) -> Vec<f64> {
    windows
        .iter()
        .flat_map(|w| &w.clients)
        .flat_map(|c| &c.phases)
        .flat_map(|p| pick(p).iter().copied())
        .collect()
}

fn all_clients(windows: &[Window]) -> impl Iterator<Item = &ClientReport> {
    windows.iter().flat_map(|w| &w.clients)
}

fn insert_all(out: &mut Metrics, pairs: &[(&'static str, f64)]) {
    for &(name, value) in pairs {
        out.insert(name, value);
    }
}

/// After the window of a durable node: quiesced, every acked vector
/// must answer (a second mirror over base + ingested). Returns the
/// re-check scripts and the corpus size.
fn recheck_durable(
    system: &System,
    o: &Options,
    inputs: &Inputs,
    ingest: &IngestReport,
    storage: qcluster_service::StorageGauges,
    tally: &mut Tally,
) -> Result<(Vec<Script>, usize), String> {
    let w = &o.workload;
    let total = w.n + ingest.acked;
    println!(
        "ingest: open loop at {INGEST_RATE}/s timed from each due time, Flush every {FLUSH_EVERY}: {} acked, {} flushes (median {:.0} us), late by {:.0} us at the median",
        ingest.acked,
        ingest.flush_us.len(),
        median(&ingest.flush_us),
        median(&ingest.late_us)
    );
    println!(
        "store counters: {} WAL appends, {} fsyncs (exact), {} segments, {} vectors still in the WAL",
        storage.wal_appends, storage.wal_fsyncs, storage.segments, storage.wal_vectors
    );
    let ingested: Vec<Vec<f64>> = (w.n..total).map(|id| inputs.gen.point(id)).collect();
    let everything = inputs.points.iter().chain(&ingested).map(Vec::as_slice);
    let mirror = Mirror::new(everything, w.dim);
    let recheck = sample_scripts(&mirror, &inputs.gen, o.seed, w.k, RECHECK, GATE_SESSIONS)?;
    let (requests, _) = gate(system, w, &recheck, total, "re-check over base + ingested")?;
    tally.attempted += requests;
    Ok((recheck, total))
}

/// Shuts the durable node down, reopens its directory and verifies it:
/// the corpus is whole, every acked vector is there bit for bit, and the
/// re-check sessions still equal the mirror. Returns the reopened system
/// and the seconds the reopen took.
fn reopen_durable(
    system: System,
    w: &Workload,
    gen: &Generator,
    dir: &Path,
    total: usize,
    recheck: &[Script],
    tally: &mut Tally,
) -> Result<(System, f64), String> {
    system.shutdown()?;
    let start = Instant::now();
    let reopened = System::boot(w, &[], Some(dir))?;
    let seconds = start.elapsed().as_secs_f64();
    let service = &reopened.nodes[0].service;
    if service.total_vectors() != total {
        return Err(format!(
            "reopened with {} vectors, {total} were acked",
            service.total_vectors()
        ));
    }
    let ids: Vec<usize> = (w.n..total).collect();
    let stored = service
        .vectors_by_id(&ids)
        .map_err(|e| format!("reading acked vectors back: {e}"))?;
    for (id, vector) in ids.iter().zip(&stored) {
        let want = gen.point(*id);
        let same = vector.len() == want.len()
            && vector
                .iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(format!(
                "acked vector {id} came back different after the reopen"
            ));
        }
    }
    let (requests, _) = gate(&reopened, w, recheck, total, "re-check after the reopen")?;
    tally.attempted += requests + 1;
    println!(
        "reopen: {total} vectors recovered in {seconds:.3} s; every acked id and vector verified, re-check sessions equal the mirror again"
    );
    Ok((reopened, seconds))
}

/// The untraced run: `SETUP_REPS` boots, a fifth of the window on each.
fn measure_untraced(
    o: &Options,
    inputs: &Inputs,
    store_dir: Option<&Path>,
    tally: &mut Tally,
    all: &mut Metrics,
    epoch: Instant,
) -> Result<Digest, String> {
    let w = &o.workload;
    let phases = [Phase {
        secs: o.seconds / SETUP_REPS as f64,
        traced: false,
    }];
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut windows: Vec<Window> = Vec::with_capacity(SETUP_REPS);
    let mut next = vec![0u64; session_clients(w)];
    let mut digest = None;
    for rep in 0..SETUP_REPS {
        let (mut system, seconds) = set_up(w, &inputs.points, store_dir, &inputs.scripts[0])?;
        setups.push(seconds);
        tally.attempted += 2;
        if digest.is_none() {
            // The gate, before any timing.
            let (requests, served) = gate(&system, w, &inputs.scripts, w.n, "gate")?;
            tally.attempted += requests;
            print_gate(&inputs.scripts, served);
            digest = Some(served);
        }
        let measured = window(&system, o, inputs, &phases, &next, epoch)?;
        count(tally, &measured);
        for (slot, client) in next.iter_mut().zip(&measured.clients) {
            *slot = client.next_session;
        }
        if rep + 1 == SETUP_REPS {
            all.insert("rss_peak_mb", rss_peak_mb(inputs)?);
            if let (Some(ingest), Some(dir)) = (&measured.ingest, store_dir) {
                let storage = system.nodes[0].service.stats().storage;
                let (recheck, total) = recheck_durable(&system, o, inputs, ingest, storage, tally)?;
                let (reopened, seconds) =
                    reopen_durable(system, w, &inputs.gen, dir, total, &recheck, tally)?;
                all.insert("client.recovery_s", seconds);
                system = reopened;
            }
        }
        system.shutdown()?;
        windows.push(measured);
    }
    println!(
        "set-up: {SETUP_REPS} full set-ups, seconds {:?}; a window of {:.1} s on each",
        setups
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        phases[0].secs
    );
    let rates: Vec<f64> = windows
        .iter()
        .map(|w| {
            w.clients
                .iter()
                .map(|c| c.phases[0].round_us.len())
                .sum::<usize>() as f64
        })
        .map(|rounds| rounds / phases[0].secs)
        .collect();
    println!(
        "rounds per second of each window: {:?}",
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    );
    all.insert("setup_s", median(&setups));
    all.insert("rounds_per_s", median(&rates));
    client_metrics(o, &windows, all)?;
    Ok(digest.expect("at least one set-up"))
}

fn print_gate(scripts: &[Script], digest: Digest) {
    println!(
        "gate: {} sessions x {} answers equal the offline LinearScan + QclusterEngine mirror bit for bit; answer_digest={}",
        scripts.len(),
        ROUNDS + 1,
        digest.hex()
    );
}

fn rss_peak_mb(inputs: &Inputs) -> Result<f64, String> {
    let (peak, own) = (report::vm_hwm_bytes()?, inputs.harness_bytes() as u64);
    println!(
        "rss: VmHWM {:.1} MB minus the harness's own copy of the corpus {:.1} MB (the rows, from sizes)",
        peak as f64 / 1048576.0,
        own as f64 / 1048576.0
    );
    Ok(peak.saturating_sub(own) as f64 / 1048576.0)
}

/// What the client side saw, pooled over every window of the run.
fn client_metrics(o: &Options, windows: &[Window], all: &mut Metrics) -> Result<(), String> {
    let rounds = pooled(windows, |p| &p.round_us);
    let firsts = pooled(windows, |p| &p.first_result_us);
    let feeds = pooled(windows, |p| &p.feed_us);
    let queries = pooled(windows, |p| &p.query_us);
    let frozen_hits: u64 = all_clients(windows).map(|c| c.frozen_hits).sum();
    let frozen_sessions: u64 = all_clients(windows).map(|c| c.frozen_sessions).sum();
    let canary: Vec<f64> = all_clients(windows)
        .flat_map(|c| c.canary_us.iter().copied())
        .collect();
    println!(
        "window: {} closed-loop session client(s), {} warm-up sessions each per window, {} s in all; {} rounds, {} first results, {} canary samples; precision frozen over every client's first pass over its share of the categories ({} sessions counted)",
        session_clients(&o.workload),
        WARMUP_SESSIONS,
        o.seconds,
        rounds.len(),
        firsts.len(),
        canary.len(),
        frozen_sessions
    );
    if rounds.is_empty() || firsts.is_empty() || frozen_sessions == 0 {
        return Err("the window completed no session".into());
    }
    insert_all(
        all,
        &[
            ("round_p50_us", median(&rounds)),
            ("first_result_p50_us", median(&firsts)),
            (
                "precision_at_k",
                frozen_hits as f64 / (frozen_sessions * o.workload.k as u64) as f64,
            ),
            ("harness.calib_us", median(&canary)),
            ("client.query_p50_us", median(&queries)),
            ("client.query_p95_us", percentile(&queries, 95.0)),
            ("client.feed_p50_us", median(&feeds)),
            ("client.round_p95_us", percentile(&rounds, 95.0)),
            ("client.round_p99_us", percentile(&rounds, 99.0)),
        ],
    );
    Ok(())
}

/// Search-work and coverage counters of every served answer.
fn answer_metrics(windows: &[Window], all: &mut Metrics) {
    let sum = |pick: fn(&ClientReport) -> u64| all_clients(windows).map(pick).sum::<u64>() as f64;
    let answers = sum(|c| c.answers).max(1.0);
    let (hits, reads) = (sum(|c| c.cache_hits), sum(|c| c.disk_reads));
    insert_all(
        all,
        &[
            (
                "index.distance_evals_per_query",
                sum(|c| c.distance_evals) / answers,
            ),
            (
                "index.tree_nodes_per_query",
                sum(|c| c.nodes_accessed) / answers,
            ),
            ("index.tree_cache_hit_ratio", hits / (hits + reads).max(1.0)),
            (
                "router.nodes_ok_ratio",
                sum(|c| c.nodes_ok) / sum(|c| c.nodes_total).max(1.0),
            ),
        ],
    );
}

/// The servers' own counters, summed over the nodes.
fn server_metrics(system: &System, all: &mut Metrics) {
    let snapshots: Vec<_> = system.nodes.iter().map(|n| n.service.stats()).collect();
    let sum = |pick: fn(&qcluster_service::MetricsSnapshot) -> u64| {
        snapshots.iter().map(pick).sum::<u64>() as f64
    };
    let (hits, misses) = (sum(|s| s.plan_cache_hits), sum(|s| s.plan_cache_misses));
    let slowest_p50 = snapshots
        .iter()
        .map(|s| s.query_percentiles.p50_ns)
        .max()
        .unwrap_or(0);
    insert_all(
        all,
        &[
            (
                "service.plan_cache_hit_ratio",
                hits / (hits + misses).max(1.0),
            ),
            ("service.server_query_p50_us", slowest_p50 as f64 / 1e3),
            ("service.degraded", sum(|s| s.faults.degraded_responses)),
            ("service.breaker_trips", sum(|s| s.faults.breaker_trips)),
            (
                "service.overload_rejections",
                sum(|s| s.faults.overload_rejections),
            ),
            ("net.sheds", sum(|s| s.transport.write_queue_sheds)),
            ("net.decode_errors", sum(|s| s.transport.decode_errors)),
        ],
    );
}

/// The replay-derived overheads of one replayed system.
struct Derived {
    net_rtt_overhead_us: f64,
    fanout_overhead_us: f64,
    router_hop_overhead_us: f64,
}

fn derive(replay: &Replay) -> Derived {
    let med_us = |a: &str, children: &[&str]| median(&replay.minus(a, children)) / 1e3;
    Derived {
        net_rtt_overhead_us: med_us("client.query", &["service.dispatch_query"]),
        fanout_overhead_us: med_us(
            "service.executor_fanout",
            &["service.shard_knn", "service.merge_top_k"],
        ),
        router_hop_overhead_us: med_us("router.query", &["client.query"]),
    }
}

/// Replays `scripts` on `system` through its own router, or through a
/// one-partition probe router in front of its single node.
fn replay_system(
    replay: &mut Replay,
    system: &System,
    scripts: &[Script],
    w: &Workload,
) -> Result<(), String> {
    let probe;
    let router = match &system.router {
        Some(router) => &**router,
        None => {
            probe = router_over(&[system.nodes[0].addr], w.n)?;
            &probe
        }
    };
    replay_all(replay, &system.nodes, router, scripts, w.k, w.n)
}

/// Boots `w` over its own side corpus and replays a few sessions.
fn side_replay(w: &Workload, seed: u64, epoch: Instant, span_base: u64) -> Result<Derived, String> {
    let side = inputs(w, seed, 4)?;
    let system = System::boot(w, &side.points, None)?;
    let mut replay = Replay::new(epoch, span_base);
    replay_system(&mut replay, &system, &side.scripts, w)?;
    system.shutdown()?;
    Ok(derive(&replay))
}

fn print_budget(b: &Budget, through_router: bool) {
    println!(
        "per-layer budget of one round ({}), idle single-client replay: median self time per span name",
        if through_router {
            "Router::feed + Router::query"
        } else {
            "Client::call(Feed) + Client::call(Query)"
        }
    );
    println!("  {:<28} {:>12} {:>12}", "span", "self us", "total us");
    for row in &b.rows {
        println!(
            "  {:<28} {:>12.1} {:>12.1}",
            row.name, row.self_us, row.total_us
        );
    }
    println!(
        "  {:<28} {:>12.1}   traced round {:.1} us, trace.residual_pct {:.2}",
        "sum of rows",
        b.rows.iter().map(|r| r.self_us).sum::<f64>(),
        b.round_us,
        b.residual_pct
    );
    if !through_router {
        println!("  (router.* metrics: a one-partition probe Router in front of this node; not on the served path)");
    }
}

/// The replay on the idle system, the probes, the budget.
fn layer_metrics(
    o: &Options,
    inputs: &Inputs,
    system: &System,
    replay_scripts: &[Script],
    epoch: Instant,
    all: &mut Metrics,
) -> Result<(Replay, probes::DurableProbe), String> {
    let w = &o.workload;
    println!(
        "replay and probes: allocator told to keep freed memory: {}",
        trace::keep_freed_memory()
    );
    let mut replay = Replay::new(epoch, 1 << 56);
    replay_system(&mut replay, system, replay_scripts, w)?;
    probes::core(&mut replay, replay_scripts, all)?;
    let codec_round_ns = probes::codec(replay_scripts, w.k, all)?;
    probes::index(&inputs.points, &inputs.scripts, w.k, all)?;
    let probe_dir = scratch_dir(&o.out_dir, "probe");
    fresh_dir(&probe_dir)?;
    let durable = probes::durable(
        &probe_dir,
        w,
        &inputs.gen,
        &inputs.points,
        &inputs.scripts,
        all,
    )?;

    let through_router = system.router.is_some();
    let b = budget(&replay, through_router);
    let d = derive(&replay);
    let window_round_us = all.get("round_p50_us").copied().unwrap_or(0.0);
    insert_all(
        all,
        &[
            (
                "service.dispatch_query_us",
                replay.median_us("service.dispatch_query"),
            ),
            (
                "service.dispatch_feed_us",
                replay.median_us("service.dispatch_feed"),
            ),
            (
                "service.session_create_us",
                replay.median_us("service.session_create"),
            ),
            (
                "service.executor_fanout_us",
                replay.median_us("service.executor_fanout"),
            ),
            (
                "service.shard_knn_us",
                replay.median_us("service.shard_knn_sum"),
            ),
            (
                "service.shard_knn_max_us",
                replay.median_us("service.shard_knn_max"),
            ),
            ("service.fanout_overhead_us", d.fanout_overhead_us),
            (
                "service.merge_top_k_ns",
                median(replay.ns("service.merge_top_k")),
            ),
            ("router.query_us", replay.median_us("router.query")),
            ("router.hop_overhead_us", d.router_hop_overhead_us),
            ("router.feed_us", replay.median_us("router.feed")),
            (
                "router.feed_fetch_us",
                replay.median_us("router.feed_fetch"),
            ),
            (
                "router.create_session_us",
                replay.median_us("router.create_session"),
            ),
            ("net.rtt_overhead_us", d.net_rtt_overhead_us),
            (
                "net.codec_share",
                codec_round_ns / (b.round_us * 1e3).max(1.0),
            ),
            ("trace.residual_pct", b.residual_pct),
            ("harness.queueing_us", window_round_us - b.round_us),
        ],
    );
    print_budget(&b, through_router);
    Ok((replay, durable))
}

/// The hop-dominated regime, on a 30,000 x 8-d side corpus.
fn side_metrics(o: &Options, epoch: Instant, all: &mut Metrics) -> Result<(), String> {
    let side = Workload {
        shard_kind: o.workload.shard_kind,
        ..SIDE
    };
    let single = side_replay(&side, o.seed, epoch, 2 << 56)?;
    let cluster = side_replay(&Workload { nodes: 3, ..side }, o.seed, epoch, 3 << 56)?;
    insert_all(
        all,
        &[
            ("side30k.net_rtt_overhead_us", single.net_rtt_overhead_us),
            ("side30k.fanout_overhead_us", single.fanout_overhead_us),
            (
                "side30k.router_hop_overhead_us",
                cluster.router_hop_overhead_us,
            ),
        ],
    );
    println!(
        "side corpus 30,000 x 8-d, k = 10 (hop-dominated, never gated): net rtt overhead {:.1} us, fan-out overhead {:.1} us, router hop overhead over 3 nodes {:.1} us",
        single.net_rtt_overhead_us, single.fanout_overhead_us, cluster.router_hop_overhead_us
    );
    Ok(())
}

/// The traced run: one boot, a window half untraced and half with
/// client-side spans, then the replay and the probes. Returns the
/// digest and every span.
fn measure_traced(
    o: &Options,
    inputs: &Inputs,
    store_dir: Option<&Path>,
    tally: &mut Tally,
    all: &mut Metrics,
    epoch: Instant,
) -> Result<(Digest, Vec<Span>), String> {
    let w = &o.workload;
    let (mut system, seconds) = set_up(w, &inputs.points, store_dir, &inputs.scripts[0])?;
    println!("set-up: one full set-up, {seconds:.3} s");
    all.insert("setup_s", seconds);
    let (requests, digest) = gate(&system, w, &inputs.scripts, w.n, "gate")?;
    tally.attempted += requests + 2;
    print_gate(&inputs.scripts, digest);

    let half = o.seconds / 2.0;
    let phases = [false, true].map(|traced| Phase { secs: half, traced });
    let first = vec![0u64; session_clients(w)];
    let measured = window(&system, o, inputs, &phases, &first, epoch)?;
    count(tally, &measured);
    let rate = |phase: usize| {
        measured
            .clients
            .iter()
            .map(|c| c.phases[phase].round_us.len())
            .sum::<usize>() as f64
            / half
    };
    let (plain, traced) = (rate(0), rate(1));
    println!("traced window: {plain:.1} rounds/s untraced, {traced:.1} with client-side spans");
    all.insert(
        "harness.trace_overhead_pct",
        (plain - traced) / plain.max(1e-9) * 100.0,
    );
    all.insert("rounds_per_s", (plain + traced) / 2.0);
    all.insert("rss_peak_mb", rss_peak_mb(inputs)?);
    server_metrics(&system, all);
    let windows = [measured];
    client_metrics(o, &windows, all)?;
    answer_metrics(&windows, all);
    let [measured] = windows;

    // A durable node is replayed with what it holds now: base + ingested.
    let mut replay_scripts = inputs.scripts.clone();
    let mut acked_total = None;
    if let Some(ingest) = &measured.ingest {
        let storage = system.nodes[0].service.stats().storage;
        let (recheck, total) = recheck_durable(&system, o, inputs, ingest, storage, tally)?;
        replay_scripts = recheck;
        acked_total = Some(total);
    }
    let (replay, durable) = layer_metrics(o, inputs, &system, &replay_scripts, epoch, all)?;
    tally.attempted += replay.checked;

    // Durable workloads report their own stream and their own reopen;
    // the others the durable probe's.
    match (&measured.ingest, store_dir, acked_total) {
        (Some(ingest), Some(dir), Some(total)) => {
            probes::ingest_metrics(&ingest.latency_us, &ingest.late_us, all);
            let (reopened, seconds) =
                reopen_durable(system, w, &inputs.gen, dir, total, &replay_scripts, tally)?;
            all.insert("client.recovery_s", seconds);
            system = reopened;
        }
        _ => {
            probes::ingest_metrics(&durable.ingest_latency_us, &durable.ingest_late_us, all);
            all.insert("client.recovery_s", durable.recovery_s);
        }
    }
    system.shutdown()?;
    side_metrics(o, epoch, all)?;

    let mut spans: Vec<Span> = measured.clients.into_iter().flat_map(|c| c.spans).collect();
    spans.extend(replay.into_spans());
    Ok((digest, spans))
}

pub fn run(o: &Options) -> Result<Outcome, String> {
    let w = &o.workload;
    let epoch = Instant::now();
    std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("{}: {e}", o.out_dir.display()))?;
    println!(
        "== {} seed {} seconds {} trace {} ==",
        w.name, o.seed, o.seconds, o.trace as u8
    );
    println!("why: {}", w.why);
    println!(
        "host: {} cores, target features {}, commit {}",
        report::host_cores(),
        report::target_features(),
        report::git_commit()
    );
    let inputs = inputs(w, o.seed, GATE_SESSIONS)?;
    println!(
        "corpus: {} x {}-d, {} categories of 2 modes, k = {}, generated in {:.2} s with {} mirror scripts",
        w.n,
        w.dim,
        inputs.gen.categories(),
        w.k,
        epoch.elapsed().as_secs_f64(),
        inputs.scripts.len()
    );
    let store_dir = w.durable.then(|| scratch_dir(&o.out_dir, w.name));
    if let Some(dir) = &store_dir {
        println!(
            "store: {} (inside the checkout, on this box's disk; fsync on every commit as shipped)",
            dir.display()
        );
    }

    let mut tally = Tally::default();
    let mut all = Metrics::new();
    let (digest, spans) = if o.trace {
        measure_traced(
            o,
            &inputs,
            store_dir.as_deref(),
            &mut tally,
            &mut all,
            epoch,
        )?
    } else {
        let digest = measure_untraced(
            o,
            &inputs,
            store_dir.as_deref(),
            &mut tally,
            &mut all,
            epoch,
        )?;
        (digest, Vec::new())
    };
    if let Some(dir) = &store_dir {
        remove_dir(dir)?;
    }

    // The contract's metrics for this trace mode, in catalog order.
    let wanted: &[MetricDef] = if o.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for def in wanted {
        let value = *all
            .get(def.name)
            .ok_or_else(|| format!("metric {} was never measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite", def.name));
        }
        metrics.push((*def, value));
    }
    report::print_metrics(
        if o.trace {
            "per-layer metrics (traced run):"
        } else {
            "end-to-end metrics (untraced run, client side):"
        },
        &metrics,
    );
    for e in tally.errors.iter().take(10) {
        println!("FAILED: {e}");
    }
    let correct = tally.failed == 0;
    write_result(o, correct, &tally, digest, &all, &spans)?;
    Ok(Outcome {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        digest: digest.hex(),
    })
}

/// Everything measured goes to the result file; spans beside it.
fn write_result(
    o: &Options,
    correct: bool,
    tally: &Tally,
    digest: Digest,
    all: &Metrics,
    spans: &[Span],
) -> Result<(), String> {
    let w = &o.workload;
    let stem = (0..)
        .map(|r| format!("{}.s{}.t{}.r{r}", w.name, o.seed, o.trace as u8))
        .find(|stem| !o.out_dir.join(format!("{stem}.json")).exists())
        .expect("some repeat index is free");
    let doc = Value::Map(vec![
        ("workload".into(), Value::Str(w.name.into())),
        ("seed".into(), Value::U64(o.seed)),
        ("seconds".into(), Value::F64(o.seconds)),
        ("trace".into(), Value::Bool(o.trace)),
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(tally.attempted)),
        ("failed".into(), Value::U64(tally.failed)),
        ("answer_digest".into(), Value::Str(digest.hex())),
        ("host_cores".into(), Value::U64(report::host_cores() as u64)),
        (
            "target_features".into(),
            Value::Str(report::target_features()),
        ),
        ("commit".into(), Value::Str(report::git_commit())),
        (
            "metrics".into(),
            Value::Map(
                all.iter()
                    .map(|(name, value)| (name.to_string(), Value::F64(*value)))
                    .collect(),
            ),
        ),
    ]);
    let path = o.out_dir.join(format!("{stem}.json"));
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    if o.trace {
        let path = o.out_dir.join(format!("trace_{}.json", w.name));
        trace::write_spans(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {} written to {}", spans.len(), path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcluster_service::ShardKind;

    fn tiny(name: &'static str, nodes: usize, kind: Option<ShardKind>, durable: bool) -> Options {
        Options {
            workload: Workload {
                name,
                why: "test",
                n: 3_000,
                dim: 8,
                k: 10,
                per_category: 100,
                noise: 0.2,
                nodes,
                shard_kind: kind,
                durable,
            },
            seed: 7,
            seconds: 1.0,
            trace: false,
            out_dir: std::env::temp_dir().join(format!("qbench_{name}_{}", std::process::id())),
        }
    }

    fn names(outcome: &Outcome) -> Vec<&'static str> {
        outcome.metrics.iter().map(|(def, _)| def.name).collect()
    }

    /// The whole untraced path on a tiny cluster: every end-to-end metric
    /// comes out, non-zero, and the same seed gives the same digest and
    /// the same precision.
    #[test]
    fn untraced_cluster_run_reports_every_end_to_end_metric() {
        let options = tiny("t_cluster", 3, Some(ShardKind::Quantized), false);
        let first = run(&options).expect("run");
        let again = run(&options).expect("second run");
        std::fs::remove_dir_all(&options.out_dir).ok();
        assert!(first.correct && first.failed == 0 && first.attempted > 0);
        assert_eq!(names(&first), END_TO_END.map(|m| m.name));
        assert!(first.metrics.iter().all(|(_, v)| *v > 0.0));
        assert_eq!(first.digest, again.digest);
        let precision = |o: &Outcome| o.metrics[4].1;
        assert_eq!(precision(&first), precision(&again));
    }

    /// The whole traced path on a tiny durable node: ingest beside
    /// sessions, the re-check, the replay at every entry point, every
    /// probe, the reopen — and every per-layer metric by name.
    #[test]
    fn traced_durable_run_reports_every_per_layer_metric() {
        let mut options = tiny("t_durable", 1, Some(ShardKind::Quantized), true);
        options.trace = true;
        let outcome = run(&options).expect("run");
        let spans = options.out_dir.join("trace_t_durable.json");
        let written = std::fs::read_to_string(&spans).expect("spans written");
        std::fs::remove_dir_all(&options.out_dir).ok();
        assert!(outcome.correct && outcome.failed == 0);
        assert_eq!(names(&outcome), PER_LAYER.map(|m| m.name));
        for name in [
            "client.round",
            "router.query",
            "service.shard_knn",
            "core.feed",
        ] {
            assert!(written.contains(name), "no {name} span");
        }
    }

    /// The durable node and the shipped default configuration (tree
    /// shards), untraced: five boots each, the reopen verified.
    #[test]
    fn durable_and_default_serve_runs_are_correct() {
        for options in [
            tiny("t_durable_plain", 1, Some(ShardKind::Quantized), true),
            tiny("t_default", 1, None, false),
        ] {
            assert!(run(&options).expect("untraced").correct);
            std::fs::remove_dir_all(&options.out_dir).ok();
        }
    }
}
