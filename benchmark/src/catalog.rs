//! The benchmark's fixed vocabulary: the four workloads and every
//! metric name with its unit, direction and bound. `BENCHMARK.json` at
//! the repository root is this catalog written out; a unit test keeps
//! the two equal.

use qcluster_service::ShardKind;

/// One workload: corpus shape, `k`, and how the product is booted.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub n: usize,
    pub dim: usize,
    pub k: usize,
    /// Base-corpus members per category (`n / per_category` categories).
    pub per_category: usize,
    /// Generator noise scale, sized so last-iteration precision ≈ 0.8.
    pub noise: f64,
    /// In-process nodes behind a `Router` (1 = a single node over TCP).
    pub nodes: usize,
    /// `None` = `ServiceConfig::default()` exactly as `qcluster serve`
    /// ships it; `Some(kind)` overrides only the shard kind.
    pub shard_kind: Option<ShardKind>,
    /// Durable node with the open-loop ingest stream beside the sessions.
    pub durable: bool,
}

impl Workload {
    /// The `--smoke` variant: the corpus divided by 50, everything else
    /// unchanged.
    pub fn smoke(mut self) -> Workload {
        self.n /= 50;
        self.per_category = (self.per_category / 50).max(self.k);
        self
    }
}

/// Feedback rounds per session (`Feed` + refined `Query`).
pub const ROUNDS: usize = 4;
/// Closed-loop client threads (`nproc` on the reference box).
pub const CLIENTS: usize = 2;
/// Open-loop ingest rate on the durable workload, per second.
pub const INGEST_RATE: u64 = 100;
/// `Flush` after every this many ingests.
pub const FLUSH_EVERY: u64 = 250;
/// Full set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Sessions checked bit for bit against the offline mirror before timing.
pub const GATE_SESSIONS: usize = 6;
/// Untimed warm-up sessions per client before every window.
pub const WARMUP_SESSIONS: u64 = 3;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "scan_1m",
        why: "1M x 24-d, k=50, one in-memory node with 4 Quantized shards over TCP: ~7 ms of u8 phase 1 + rerank per query dwarfs the wire, so index kernels, pruning and shard fan-out show and codec work does not",
        n: 1_000_000,
        dim: 24,
        k: 50,
        per_category: 2_500,
        noise: 0.39,
        nodes: 1,
        shard_kind: Some(ShardKind::Quantized),
        durable: false,
    },
    Workload {
        name: "cluster_1m_3n",
        why: "the scan_1m corpus, seed and sessions split over 3 in-process nodes behind Router: identical scan work plus scatter, FetchVectors and FeedPoints legs, so its difference to scan_1m is the router layer",
        n: 1_000_000,
        dim: 24,
        k: 50,
        per_category: 2_500,
        noise: 0.39,
        nodes: 3,
        shard_kind: Some(ShardKind::Quantized),
        durable: false,
    },
    Workload {
        name: "serve_default_100k",
        why: "100k x 16-d, k=20, one node with ServiceConfig::default() as qcluster serve ships it (Tree shards + per-session node cache): pruned descent instead of scan, sized so a refined query is 2-5 ms",
        n: 100_000,
        dim: 16,
        k: 20,
        per_category: 250,
        noise: 0.28,
        nodes: 1,
        shard_kind: None,
        durable: false,
    },
    Workload {
        name: "ingest_mix_200k",
        why: "200k x 24-d, k=50, one durable Quantized node: a session client beside an open-loop 100/s Ingest stream, Flush every 250: writes beside reads through overlay and WAL; ends by reopening and verifying",
        n: 200_000,
        dim: 24,
        k: 50,
        per_category: 500,
        noise: 0.38,
        nodes: 1,
        shard_kind: Some(ShardKind::Quantized),
        durable: true,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction, and (end to end only) the share of
/// the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn low(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn high(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees: measured client side, untraced.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("rounds_per_s", "1/s", Better::Higher, 0.25),
    e2e("round_p50_us", "us", Better::Lower, 0.25),
    e2e("first_result_p50_us", "us", Better::Lower, 0.25),
    e2e("precision_at_k", "ratio", Better::Higher, 0.10),
    e2e("rss_peak_mb", "MB", Better::Lower, 0.10),
];

/// Single layers, from the traced run. Layer = crate; the stem of a
/// timing name is the span name it is the median of.
pub const PER_LAYER: [MetricDef; 72] = [
    // index: direct probes of the first shard's id range, plus the
    // search-work counters every served answer carries.
    low("index.quant_two_phase_ms", "ms"),
    low("index.quant_phase1_ms", "ms"),
    low("index.quant_ns_per_point", "ns"),
    low("index.quant_reranked_per_query", "count"),
    low("index.quant_rescans", "count"),
    low("index.quant_plan_misses", "count"),
    low("index.scan_exact_ms", "ms"),
    low("index.distance_evals_per_query", "count"),
    low("index.tree_nodes_per_query", "count"),
    high("index.tree_cache_hit_ratio", "ratio"),
    // service: the replay at dispatch, Service, Executor and Shard.
    low("service.dispatch_query_us", "us"),
    low("service.dispatch_feed_us", "us"),
    low("service.session_create_us", "us"),
    high("service.plan_cache_hit_ratio", "ratio"),
    low("service.executor_fanout_us", "us"),
    low("service.shard_knn_us", "us"),
    low("service.shard_knn_max_us", "us"),
    low("service.fanout_overhead_us", "us"),
    low("service.merge_top_k_ns", "ns"),
    low("service.server_query_p50_us", "us"),
    low("service.degraded", "count"),
    low("service.breaker_trips", "count"),
    low("service.overload_rejections", "count"),
    low("service.ingest_us", "us"),
    low("service.overlay_query_penalty_us", "us"),
    // router: the workload's own router, or a one-partition probe
    // router in front of the single node.
    low("router.query_us", "us"),
    low("router.hop_overhead_us", "us"),
    low("router.feed_us", "us"),
    low("router.feed_fetch_us", "us"),
    low("router.create_session_us", "us"),
    high("router.nodes_ok_ratio", "ratio"),
    // store: a durable probe over at most 200k of the run's vectors.
    low("store.bootstrap_s", "s"),
    low("store.open_ms", "ms"),
    low("store.wal_append_us", "us"),
    low("store.wal_bytes_per_vector", "bytes"),
    low("store.fsyncs_per_ingest", "count"),
    low("store.compact_ms", "ms"),
    low("store.flush_stall_us", "us"),
    low("store.bytes_per_user_byte", "ratio"),
    low("store.disk_fsync_us", "us"),
    // core (with linalg/stats): the mirror engine on the run's feeds.
    low("core.feed_us", "us"),
    low("core.classify_us", "us"),
    low("core.merge_us", "us"),
    low("core.compile_us", "us"),
    low("core.clusters_per_round", "count"),
    low("core.merges_per_round", "count"),
    // net: codec probes on the run's own frames, and the wire replay.
    low("net.req_encode_ns", "ns"),
    low("net.req_decode_ns", "ns"),
    low("net.resp_encode_ns", "ns"),
    low("net.resp_decode_ns", "ns"),
    low("net.req_bytes", "bytes"),
    low("net.resp_bytes", "bytes"),
    low("net.rtt_overhead_us", "us"),
    low("net.codec_share", "ratio"),
    low("net.sheds", "count"),
    low("net.decode_errors", "count"),
    // client / harness: what is deliberately not end to end.
    low("client.query_p50_us", "us"),
    low("client.feed_p50_us", "us"),
    low("client.query_p95_us", "us"),
    low("client.round_p95_us", "us"),
    low("client.round_p99_us", "us"),
    low("client.ingest_p50_us", "us"),
    low("client.ingest_p95_us", "us"),
    low("client.recovery_s", "s"),
    low("harness.ingest_late_us", "us"),
    low("harness.queueing_us", "us"),
    low("harness.calib_us", "us"),
    low("harness.trace_overhead_pct", "%"),
    low("trace.residual_pct", "%"),
    // The hop-dominated regime on a 30,000 x 8-d side corpus: measured
    // on every workload, never gated.
    low("side30k.net_rtt_overhead_us", "us"),
    low("side30k.fanout_overhead_us", "us"),
    low("side30k.router_hop_overhead_us", "us"),
];

/// `BENCHMARK.json`: the driver's contract, written out from this
/// catalog.
pub fn benchmark_json(run_seconds: u64) -> String {
    use serde_json::Value;
    let text = |s: &str| Value::Str(s.to_string());
    let metric = |m: &MetricDef| {
        let mut fields = vec![
            ("name".to_string(), text(m.name)),
            ("unit".to_string(), text(m.unit)),
            ("better".to_string(), text(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound".to_string(), Value::F64(bound)));
        }
        Value::Map(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let doc = Value::Map(vec![
        (
            "command".to_string(),
            Value::Seq(command.iter().map(|s| text(s)).collect()),
        ),
        ("paths".to_string(), Value::Seq(vec![text("benchmark")])),
        ("run_seconds".to_string(), Value::U64(run_seconds)),
        (
            "workloads".to_string(),
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::Map(vec![
                            ("name".to_string(), text(w.name)),
                            ("why".to_string(), text(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".to_string(),
            Value::Seq(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer".to_string(),
            Value::Seq(PER_LAYER.iter().map(metric).collect()),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("the catalog serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn text(v: &Value, key: &str) -> String {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("missing string {key}"))
            .to_string()
    }

    fn number(v: &Value, key: &str) -> f64 {
        match v.get(key) {
            Some(Value::F64(f)) => *f,
            Some(Value::U64(u)) => *u as f64,
            Some(Value::I64(i)) => *i as f64,
            other => panic!("missing number {key}: {other:?}"),
        }
    }

    /// `BENCHMARK.json` must list exactly this catalog: a metric renamed
    /// or re-bounded in one place and not the other fails here.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&raw).expect("BENCHMARK.json parses");

        let workloads = doc.get("workloads").and_then(Value::as_seq).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, j) in WORKLOADS.iter().zip(workloads) {
            assert_eq!(text(j, "name"), w.name);
            assert_eq!(text(j, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }

        let e2e = doc.get("end_to_end").and_then(Value::as_seq).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, j) in END_TO_END.iter().zip(e2e) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), m.better.as_str());
            assert_eq!(number(j, "bound"), m.bound.unwrap());
        }

        let layers = doc.get("per_layer").and_then(Value::as_seq).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, j) in PER_LAYER.iter().zip(layers) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), m.better.as_str());
            assert!(m.bound.is_none());
        }

        let paths = doc.get("paths").and_then(Value::as_seq).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
