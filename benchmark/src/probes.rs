//! Direct probes of single layers on the run's own payloads: the codec
//! on the sample's frames, `QclusterEngine` on its feeds, `QuantizedScan`
//! / `QuantPlan` / `LinearScan` on its compiled queries, and a durable
//! store and service over at most 200k of its vectors.

use crate::gen::Generator;
use crate::session::{same_answer, Mirror, Script, ScriptQuery};
use crate::stats::{mean, median, percentile};
use crate::system::{connect, Door};
use crate::trace::Replay;
use crate::window::{ingest_client, Ctx, Phase};
use qcluster_core::hierarchical::hierarchical_clustering;
use qcluster_core::{merge_clusters, BayesianClassifier, Classification, Cluster};
use qcluster_index::{LinearScan, QuantizedScan, QueryDistance};
use qcluster_net::{
    decode_frame, encode_frame, FrameKind, Server, ServerConfig, DEFAULT_MAX_PAYLOAD,
};
use qcluster_service::{
    NeighborDto, Request, Response, SearchStatsDto, Service, ServiceConfig, StoreConfig,
};
use qcluster_store::VectorStore;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Barrier};
use std::time::Instant;

pub type Metrics = BTreeMap<&'static str, f64>;

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

// ---------------------------------------------------------------------
// net: the codec
// ---------------------------------------------------------------------

/// One value through the codec and back, the way `Client` and `Server`
/// do it (JSON payload inside a CRC frame): `(encode ns, decode ns, frame
/// bytes)`. The value must come back equal, floats bit for bit.
fn round_trip<T: PartialEq>(
    kind: FrameKind,
    value: &T,
    to_json: impl Fn(&T) -> Result<String, serde_json::Error>,
    from_json: impl Fn(&str) -> Result<T, serde_json::Error>,
) -> Result<(f64, f64, f64), String> {
    let t = Instant::now();
    let json = to_json(value).map_err(|e| e.to_string())?;
    let frame = encode_frame(kind, 7, json.as_bytes());
    let encode = ns_since(t);

    let t = Instant::now();
    let (decoded, _) = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).map_err(|e| e.to_string())?;
    let text = std::str::from_utf8(&decoded.payload).map_err(|e| e.to_string())?;
    let back = from_json(text).map_err(|e| e.to_string())?;
    let decode = ns_since(t);
    if &back != value {
        return Err("a frame did not survive the codec bit for bit".into());
    }
    Ok((encode, decode, frame.len() as f64))
}

/// Encodes and decodes the frames one round puts on the wire, the way
/// `Client` and `Server` do (JSON payload inside a CRC frame). Returns
/// the median codec time of a whole round, nanoseconds, for
/// `net.codec_share`.
pub fn codec(scripts: &[Script], k: usize, out: &mut Metrics) -> Result<f64, String> {
    let (mut req_enc, mut req_dec, mut resp_enc, mut resp_dec) = (vec![], vec![], vec![], vec![]);
    let (mut req_bytes, mut resp_bytes, mut per_round) = (vec![], vec![], vec![]);
    for script in scripts {
        for step in &script.steps[1..] {
            let pairs = [
                (
                    Request::Feed {
                        session: 1,
                        relevant_ids: step.fed_ids(),
                        scores: None,
                    },
                    Response::FeedAccepted {
                        session: 1,
                        iteration: 1,
                        clusters: Some(2),
                    },
                ),
                (
                    Request::Query {
                        session: 1,
                        k,
                        vector: None,
                        deadline_ms: None,
                    },
                    Response::Neighbors {
                        session: 1,
                        neighbors: step
                            .expected
                            .iter()
                            .copied()
                            .map(NeighborDto::from)
                            .collect(),
                        stats: SearchStatsDto {
                            nodes_accessed: 4,
                            cache_hits: 0,
                            disk_reads: 4,
                            distance_evaluations: 800,
                        },
                        shards_ok: 4,
                        shards_total: 4,
                        nodes_ok: 1,
                        nodes_total: 1,
                        degraded: false,
                    },
                ),
            ];
            let mut round = 0.0;
            for (request, response) in &pairs {
                let (encode, decode, bytes) = round_trip(
                    FrameKind::Request,
                    request,
                    serde_json::to_string,
                    serde_json::from_str,
                )?;
                req_enc.push(encode);
                req_dec.push(decode);
                req_bytes.push(bytes);
                round += encode + decode;
                let (encode, decode, bytes) = round_trip(
                    FrameKind::Response,
                    response,
                    serde_json::to_string,
                    serde_json::from_str,
                )?;
                resp_enc.push(encode);
                resp_dec.push(decode);
                resp_bytes.push(bytes);
                round += encode + decode;
            }
            per_round.push(round);
        }
    }
    out.insert("net.req_encode_ns", median(&req_enc));
    out.insert("net.req_decode_ns", median(&req_dec));
    out.insert("net.resp_encode_ns", median(&resp_enc));
    out.insert("net.resp_decode_ns", median(&resp_dec));
    out.insert("net.req_bytes", mean(&req_bytes));
    out.insert("net.resp_bytes", mean(&resp_bytes));
    Ok(median(&per_round))
}

// ---------------------------------------------------------------------
// core: the engine
// ---------------------------------------------------------------------

/// Replays the sample's feeds through a mirror engine: `feed` and
/// `query` (compile) as lanes under the service's spans, and the two
/// stages of a feed — Bayesian classification and T² merging — timed on
/// a copy of the clusters the feed starts from.
pub fn core(replay: &mut Replay, scripts: &[Script], out: &mut Metrics) -> Result<(), String> {
    let (mut classify, mut merge, mut clusters_after, mut merges) =
        (vec![], vec![], vec![], vec![]);
    for (s, script) in scripts.iter().enumerate() {
        let trace_id = (8u64 << 32) | s as u64;
        let mut engine = Mirror::engine();
        for step in &script.steps[1..] {
            let config = *engine.config();
            let threshold = config.threshold.resolve(&step.fed);
            let mut clusters: Vec<Cluster> = engine.clusters().to_vec();
            if clusters.is_empty() {
                clusters =
                    hierarchical_clustering(step.fed.clone(), config.target_clusters, threshold)
                        .map_err(|e| format!("hierarchical clustering: {e}"))?;
            } else {
                let t = Instant::now();
                for p in &step.fed {
                    if clusters.iter().any(|c| c.contains_id(p.id)) {
                        continue;
                    }
                    let classifier =
                        BayesianClassifier::fit(&clusters, config.scheme, config.alpha)
                            .map_err(|e| format!("classifier fit: {e}"))?;
                    match classifier.classify(&clusters, &p.vector) {
                        Classification::Assign(c) => clusters[c].push(p.clone()),
                        Classification::NewCluster => clusters.push(Cluster::from_point(p.clone())),
                    }
                }
                classify.push(ns_since(t));
            }
            let t = Instant::now();
            merge_clusters(
                &mut clusters,
                config.scheme,
                config.alpha,
                config.target_clusters,
                config.max_relaxations,
                threshold,
            )
            .map_err(|e| format!("merge: {e}"))?;
            merge.push(ns_since(t));

            let start = Instant::now();
            engine.feed(&step.fed).map_err(|e| format!("feed: {e}"))?;
            let end = Instant::now();
            replay.record("core.feed", Some("service.feed"), trace_id, start, end);
            if engine.num_clusters() != clusters.len() {
                return Err("the staged feed and QclusterEngine::feed disagree".into());
            }
            clusters_after.push(engine.num_clusters() as f64);
            merges.push(engine.last_merge_outcome().merges as f64);

            let start = Instant::now();
            let query = engine.query().map_err(|e| format!("compile: {e}"))?;
            let end = Instant::now();
            black_box(query.dim());
            replay.record("core.compile", Some("service.query"), trace_id, start, end);
        }
    }
    out.insert("core.feed_us", replay.median_us("core.feed"));
    out.insert("core.compile_us", replay.median_us("core.compile"));
    out.insert("core.classify_us", median(&classify) / 1e3);
    out.insert("core.merge_us", median(&merge) / 1e3);
    out.insert("core.clusters_per_round", mean(&clusters_after));
    out.insert("core.merges_per_round", mean(&merges));
    Ok(())
}

// ---------------------------------------------------------------------
// index: the scans
// ---------------------------------------------------------------------

/// Most points an index or store probe is built over.
const INDEX_PROBE_MAX: usize = 250_000;
const STORE_PROBE_MAX: usize = 200_000;

/// `QuantizedScan::two_phase_knn`, `QuantPlan::lower_bounds` and
/// `LinearScan::knn` over the first shard's id range, driven by the
/// sample's refined queries; the three must agree bit for bit.
pub fn index(
    points: &[Vec<f64>],
    scripts: &[Script],
    k: usize,
    out: &mut Metrics,
) -> Result<(), String> {
    let shards = ServiceConfig::default().num_shards;
    let slice = &points[..points.len().div_ceil(shards).min(INDEX_PROBE_MAX)];
    let quant = QuantizedScan::from_rows(slice);
    let exact = LinearScan::new(slice);
    let ntiles = quant.corpus().ntiles();
    let mut bounds = vec![0.0f32; ntiles * 8];
    let mut acc = Vec::new();
    let (mut two_phase, mut phase1, mut scan) = (vec![], vec![], vec![]);
    let (mut reranked, mut rescans, mut plan_misses) = (vec![], 0u64, 0u64);
    for script in scripts {
        for step in &script.steps[1..] {
            let ScriptQuery::Refined(query) = &step.query else {
                continue;
            };
            let t = Instant::now();
            let (got, stats) = quant.two_phase_knn(query, k, None);
            two_phase.push(ns_since(t));
            reranked.push(stats.reranked as f64);
            rescans += stats.fallback_rescans;
            plan_misses += stats.plan_misses;

            if let Some(plan) = query.quantized_plan(quant.params()) {
                let t = Instant::now();
                plan.lower_bounds(quant.codes(), ntiles, &mut acc, &mut bounds);
                phase1.push(ns_since(t));
                black_box(bounds[0]);
            }

            let t = Instant::now();
            let want = exact.knn(query, k);
            scan.push(ns_since(t));
            same_answer(got.iter().map(|n| (n.id, n.distance)), &want)
                .map_err(|e| format!("two-phase scan against exact scan: {e}"))?;
        }
    }
    out.insert("index.quant_two_phase_ms", median(&two_phase) / 1e6);
    out.insert("index.quant_phase1_ms", median(&phase1) / 1e6);
    out.insert(
        "index.quant_ns_per_point",
        median(&phase1) / slice.len() as f64,
    );
    out.insert("index.quant_reranked_per_query", mean(&reranked));
    out.insert("index.quant_rescans", rescans as f64);
    out.insert("index.quant_plan_misses", plan_misses as f64);
    out.insert("index.scan_exact_ms", median(&scan) / 1e6);
    Ok(())
}

// ---------------------------------------------------------------------
// store, and the service's durable path
// ---------------------------------------------------------------------

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Median of 4 KiB write + `sync_data` on the disk the store lives on.
fn disk_fsync_us(dir: &Path) -> Result<f64, String> {
    use std::io::Write;
    let path = dir.join("fsync.probe");
    let mut file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
    let block = [0u8; 4096];
    let mut samples = Vec::new();
    for _ in 0..40 {
        let t = Instant::now();
        file.write_all(&block).map_err(|e| e.to_string())?;
        file.sync_data().map_err(|e| e.to_string())?;
        samples.push(ns_since(t));
    }
    drop(file);
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    Ok(median(&samples) / 1e3)
}

/// What the durable probe reports beyond its metrics.
pub struct DurableProbe {
    /// Reopen of the probe directory through `Service::open_durable`.
    pub recovery_s: f64,
    /// Open-loop ingest over TCP against the probe service.
    pub ingest_latency_us: Vec<f64>,
    pub ingest_late_us: Vec<f64>,
}

/// A durable store and service over the first `STORE_PROBE_MAX` vectors
/// in a scratch directory: `VectorStore` bootstrap / WAL append /
/// compact / open called directly, then `Service::open_durable` over
/// the same directory for the ingest path, the overlay's cost on a
/// refined query, the stall a flush imposes, and a short open-loop
/// ingest stream over TCP.
pub fn durable(
    dir: &Path,
    w: &crate::catalog::Workload,
    gen: &Generator,
    points: &[Vec<f64>],
    scripts: &[Script],
    out: &mut Metrics,
) -> Result<DurableProbe, String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("durable probe, {what}: {e}");
    let slice = &points[..points.len().min(STORE_PROBE_MAX)];
    let user_bytes = |vectors: usize| (vectors * w.dim * std::mem::size_of::<f64>()) as f64;
    std::fs::create_dir_all(dir).map_err(|e| fail("mkdir", &e))?;
    out.insert("store.disk_fsync_us", disk_fsync_us(dir)?);

    let t = Instant::now();
    let (mut store, _) =
        VectorStore::open(dir, StoreConfig::default()).map_err(|e| fail("open", &e))?;
    store.bootstrap(slice).map_err(|e| fail("bootstrap", &e))?;
    out.insert("store.bootstrap_s", t.elapsed().as_secs_f64());

    // WAL appends, one fsync each under the shipped StoreConfig.
    let appends = 300;
    let wal = dir.join("wal.log");
    let wal_len = || std::fs::metadata(&wal).map_or(0, |m| m.len());
    let (before_len, before) = (wal_len(), store.stats());
    let mut append_ns = Vec::with_capacity(appends);
    for j in 0..appends {
        let vector = gen.point(w.n + j);
        let t = Instant::now();
        store.ingest(vector).map_err(|e| fail("ingest", &e))?;
        append_ns.push(ns_since(t));
    }
    let after = store.stats();
    out.insert("store.wal_append_us", median(&append_ns) / 1e3);
    out.insert(
        "store.wal_bytes_per_vector",
        (wal_len() - before_len) as f64 / appends as f64,
    );
    out.insert(
        "store.fsyncs_per_ingest",
        (after.wal_fsyncs - before.wal_fsyncs) as f64 / appends as f64,
    );

    let t = Instant::now();
    store.compact().map_err(|e| fail("compact", &e))?;
    out.insert("store.compact_ms", ns_since(t) / 1e6);
    out.insert(
        "store.bytes_per_user_byte",
        dir_bytes(dir) as f64 / user_bytes(slice.len() + appends),
    );
    drop(store);

    let t = Instant::now();
    let (store, recovered) =
        VectorStore::open(dir, StoreConfig::default()).map_err(|e| fail("reopen", &e))?;
    out.insert("store.open_ms", ns_since(t) / 1e6);
    if recovered.vectors.len() != slice.len() + appends {
        return Err(format!(
            "durable probe: reopened {} of {} vectors",
            recovered.vectors.len(),
            slice.len() + appends
        ));
    }
    drop((store, recovered));

    // The service's durable path over the same directory.
    let t = Instant::now();
    let service = Service::open_durable(
        dir,
        &[],
        crate::system::service_config(w),
        StoreConfig::default(),
    )
    .map_err(|e| fail("open_durable", &e))?;
    let recovery_s = t.elapsed().as_secs_f64();
    let service = Arc::new(service);

    // Sessions parked on a refined query: fed the sample's vectors, which
    // works on any corpus because `Service::feed` takes the vectors.
    let mut sessions = Vec::new();
    for script in scripts {
        let session = service.create_session().map_err(|e| fail("session", &e))?;
        service
            .feed(session, &script.steps[1].fed)
            .map_err(|e| fail("feed", &e))?;
        service.query(session, w.k).map_err(|e| fail("query", &e))?;
        sessions.push(session);
    }
    let time_queries = |service: &Service| -> Result<f64, String> {
        let mut ns = Vec::new();
        for _ in 0..3 {
            for &session in &sessions {
                let t = Instant::now();
                service.query(session, w.k).map_err(|e| fail("query", &e))?;
                ns.push(ns_since(t));
            }
        }
        Ok(median(&ns))
    };
    let without_overlay = time_queries(&service)?;
    let first = slice.len() + appends;
    let mut ingest_ns = Vec::new();
    for j in 0..300 {
        let vector = gen.point(w.n + appends + j);
        let t = Instant::now();
        let acked = service
            .ingest(vector)
            .map_err(|e| fail("Service::ingest", &e))?;
        ingest_ns.push(ns_since(t));
        if acked.id != first + j {
            return Err(format!("durable probe: ingest {j} acked id {}", acked.id));
        }
    }
    out.insert("service.ingest_us", median(&ingest_ns) / 1e3);
    let with_overlay = time_queries(&service)?;
    out.insert(
        "service.overlay_query_penalty_us",
        (with_overlay - without_overlay) / 1e3,
    );
    let t = Instant::now();
    service.flush().map_err(|e| fail("flush", &e))?;
    out.insert("store.flush_stall_us", ns_since(t) / 1e3);
    for session in sessions {
        service
            .close_session(session)
            .map_err(|e| fail("close", &e))?;
    }

    // Half a second of the workload's open-loop ingest stream over TCP.
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .map_err(|e| fail("bind", &e))?;
    let mut door = Door::Tcp(connect(server.local_addr())?);
    let sent = AtomicUsize::new(0);
    let barrier = Barrier::new(1);
    // The probe corpus ends at `first + 300`; continue the id sequence.
    let probe_w = crate::catalog::Workload {
        n: first + 300,
        ..*w
    };
    let ctx = Ctx {
        w: &probe_w,
        gen,
        points,
        seed: 0,
        session_clients: 1,
        phases: &[Phase {
            secs: 0.5,
            traced: false,
        }],
        epoch: Instant::now(),
        ingest_sent: &sent,
        barrier: &barrier,
    };
    let stream = ingest_client(&mut door, &ctx, 0);
    drop(door);
    if !server.shutdown().clean() {
        return Err("durable probe: server shutdown was not clean".into());
    }
    if stream.failed > 0 {
        return Err(format!("durable probe: ingest stream: {:?}", stream.errors));
    }
    drop(service);
    std::fs::remove_dir_all(dir).map_err(|e| fail("cleanup", &e))?;
    Ok(DurableProbe {
        recovery_s,
        ingest_latency_us: stream.latency_us,
        ingest_late_us: stream.late_us,
    })
}

/// `client.ingest_*` and `harness.ingest_late_us` from an ingest stream.
pub fn ingest_metrics(latency_us: &[f64], late_us: &[f64], out: &mut Metrics) {
    out.insert("client.ingest_p50_us", median(latency_us));
    out.insert("client.ingest_p95_us", percentile(latency_us, 95.0));
    out.insert("harness.ingest_late_us", median(late_us));
}
