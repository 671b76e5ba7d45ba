//! Lock-free service metrics: per-operation latency histograms plus
//! plan-cache, eviction and session gauges — all plain atomics so the hot
//! query path never takes a lock to record.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Exact sub-8ns buckets before the logarithmic region starts.
const LINEAR_BUCKETS: usize = 8;
/// Sub-buckets per octave: 4 gives ≤ 25% relative quantile error.
const SUBS_PER_OCTAVE: usize = 4;
/// Octaves 3..=63 cover the full `u64` nanosecond range.
const NUM_BUCKETS: usize = LINEAR_BUCKETS + (64 - 3) * SUBS_PER_OCTAVE;

/// A lock-free log-bucketed latency histogram: every bucket is one
/// relaxed atomic, so concurrent recorders never contend on a lock and
/// never lose a sample. Buckets are logarithmic (4 sub-buckets per
/// power of two), bounding the relative error of a reported quantile at
/// 25% while keeping the whole histogram at a few KiB of atomics.
///
/// [`LatencyHistogram::summary`] reports p50/p95/p99 from the bucket
/// upper bounds and the maximum exactly (tracked via `fetch_max`).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// The bucket index holding `ns`: exact below [`LINEAR_BUCKETS`], then
/// `SUBS_PER_OCTAVE` geometric sub-buckets per octave.
fn bucket_of(ns: u64) -> usize {
    if ns < LINEAR_BUCKETS as u64 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros() as usize; // ≥ 3 here
    let sub = ((ns >> (octave - 2)) & 0b11) as usize;
    LINEAR_BUCKETS + (octave - 3) * SUBS_PER_OCTAVE + sub
}

/// The largest value stored in bucket `idx` (inverse of [`bucket_of`]).
fn bucket_upper_bound(idx: usize) -> u64 {
    if idx < LINEAR_BUCKETS {
        return idx as u64;
    }
    if idx >= NUM_BUCKETS - 1 {
        // The top sub-bucket of octave 63 would overflow the closed-form
        // bound; it holds everything up to u64::MAX by construction.
        return u64::MAX;
    }
    let octave = 3 + (idx - LINEAR_BUCKETS) / SUBS_PER_OCTAVE;
    let sub = ((idx - LINEAR_BUCKETS) % SUBS_PER_OCTAVE) as u64;
    let width = 1u64 << (octave - 2);
    (1u64 << octave) + (sub + 1) * width - 1
}

/// Lock-free saturating add: a CAS loop that pegs at `u64::MAX` instead
/// of wrapping. Only the (cold) merge path pays for the loop; recorders
/// keep their single `fetch_add`.
fn saturating_fetch_add(cell: &AtomicU64, add: u64) {
    if add == 0 {
        return;
    }
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = current.saturating_add(add);
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(now) => current = now,
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// A fresh, all-zero histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one duration. Lock-free: three relaxed adds and a
    /// `fetch_max`.
    pub fn record(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.record_ns(ns);
    }

    /// Records one duration given directly in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Folds every sample of `other` into `self` without locking either
    /// histogram: per-bucket relaxed loads on `other`, saturating
    /// atomic adds on `self`. Concurrent recorders on either side are
    /// never blocked and never lose a sample — a merge is just another
    /// writer. This is how a fleet of per-client histograms aggregates
    /// into one fleet-wide quantile summary: each client records into
    /// its own histogram on the hot path (no sharing, no contention)
    /// and the reporter merges them once at the end.
    ///
    /// Counts saturate at `u64::MAX` instead of wrapping, so a merge
    /// can never make a bucket count travel backwards.
    pub fn merge(&self, other: &LatencyHistogram) {
        for (bucket, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            saturating_fetch_add(bucket, theirs.load(Ordering::Relaxed));
        }
        saturating_fetch_add(&self.count, other.count.load(Ordering::Relaxed));
        saturating_fetch_add(&self.sum_ns, other.sum_ns.load(Ordering::Relaxed));
        self.max_ns
            .fetch_max(other.max_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time quantile summary. Quantiles are bucket upper
    /// bounds (≤ 25% relative error); the max is exact.
    pub fn summary(&self) -> HistogramSummary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let max_ns = self.max_ns.load(Ordering::Relaxed);
        if count == 0 {
            return HistogramSummary::default();
        }
        let quantile = |q: f64| -> u64 {
            // Rank of the q-quantile, 1-based, clamped into range.
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (idx, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    // Never report past the exactly-tracked maximum.
                    return bucket_upper_bound(idx).min(max_ns);
                }
            }
            max_ns
        };
        HistogramSummary {
            count,
            mean_ns: self.sum_ns.load(Ordering::Relaxed) as f64 / count as f64,
            p50_ns: quantile(0.50),
            p95_ns: quantile(0.95),
            p99_ns: quantile(0.99),
            max_ns,
        }
    }
}

/// Serializable quantile summary of one [`LatencyHistogram`].
///
/// Each quantile is the upper edge of the bucket it falls in (clamped
/// to the exact `max_ns`), and the buckets are 4 per octave: a quantile
/// moves only in steps of ≈ 19 % (`2^(1/4)`), so a change smaller than
/// one step may not show in it, or may show as a whole step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency, nanoseconds.
    pub mean_ns: f64,
    /// Median latency, nanoseconds (bucket upper bound, ≤ 25% error).
    pub p50_ns: u64,
    /// 95th-percentile latency, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_ns: u64,
    /// Slowest sample, nanoseconds (exact).
    pub max_ns: u64,
}

/// All counters the service maintains.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// End-to-end `query` latency (engine compile + fan-out + merge).
    pub query_hist: LatencyHistogram,
    /// End-to-end `feed` latency (clustering + merging).
    pub feed_latency: LatencyHistogram,
    /// Shard fan-out time alone (submit → all shard results merged).
    pub shard_fanout: LatencyHistogram,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    quant_phase1_points: AtomicU64,
    quant_reranked: AtomicU64,
    quant_fallbacks: AtomicU64,
    quant_plan_misses: AtomicU64,
    evictions: AtomicU64,
    sessions_created: AtomicU64,
    sessions_closed: AtomicU64,
    ingests: AtomicU64,
    flushes: AtomicU64,
    recoveries: AtomicU64,
    shard_panics: AtomicU64,
    shard_failures: AtomicU64,
    shard_timeouts: AtomicU64,
    degraded_responses: AtomicU64,
    deadline_exceeded: AtomicU64,
    overload_rejections: AtomicU64,
    connections_accepted: AtomicU64,
    connections_active: AtomicU64,
    connections_rejected: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    decode_errors: AtomicU64,
    shutdown_drains: AtomicU64,
}

impl ServiceMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        ServiceMetrics::default()
    }

    /// Counts one query served from a session's compiled-plan cache
    /// (engine version unchanged since the plan was compiled).
    pub fn record_plan_cache_hit(&self) {
        self.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one query that had to (re)compile its plan — first query,
    /// post-feed version bump, or an engine without plan versioning.
    pub fn record_plan_cache_miss(&self) {
        self.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one query's two-phase quantized-scan accounting into the
    /// totals (all zero when no shard ran a quantized scan).
    pub fn record_quant(&self, phase1_points: u64, reranked: u64, fallbacks: u64, misses: u64) {
        self.quant_phase1_points
            .fetch_add(phase1_points, Ordering::Relaxed);
        self.quant_reranked.fetch_add(reranked, Ordering::Relaxed);
        self.quant_fallbacks.fetch_add(fallbacks, Ordering::Relaxed);
        self.quant_plan_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Counts `n` sessions evicted at capacity (least recently used).
    pub fn record_evictions(&self, n: u64) {
        self.evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one created session.
    pub fn record_create_session(&self) {
        self.sessions_created.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one explicitly closed session.
    pub fn record_close_session(&self) {
        self.sessions_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one ingested vector.
    pub fn record_ingest(&self) {
        self.ingests.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one WAL → segment flush (compaction).
    pub fn record_flush(&self) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one crash recovery (a durable open that found prior state).
    pub fn record_recovery(&self) {
        self.recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one shard job that panicked during a fan-out.
    pub fn record_shard_panic(&self) {
        self.shard_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one shard job that failed without unwinding (injected
    /// fault).
    pub fn record_shard_failure(&self) {
        self.shard_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one shard that missed a query's deadline.
    pub fn record_shard_timeout(&self) {
        self.shard_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one query answered with partial shard coverage.
    pub fn record_degraded_response(&self) {
        self.degraded_responses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one query that returned nothing before its deadline.
    pub fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one query rejected by admission control.
    pub fn record_overload_rejection(&self) {
        self.overload_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one accepted transport connection (and raises the active
    /// gauge).
    pub fn record_connection_opened(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
        self.connections_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Lowers the active-connection gauge when a connection closes.
    pub fn record_connection_closed(&self) {
        self.connections_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Counts one connection turned away at the transport's capacity
    /// limit (never admitted, the active gauge never moved).
    pub fn record_connection_rejected(&self) {
        self.connections_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request frame decoded off a transport connection.
    pub fn record_frame_in(&self) {
        self.frames_in.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one response frame written to a transport connection.
    pub fn record_frame_out(&self) {
        self.frames_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one frame that failed to decode (bad magic, bad CRC,
    /// oversize, unknown version, or malformed payload).
    pub fn record_decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` in-flight requests that completed during a graceful
    /// shutdown's drain window.
    pub fn record_shutdown_drains(&self, n: u64) {
        self.shutdown_drains.fetch_add(n, Ordering::Relaxed);
    }

    /// A serializable snapshot; `active_sessions` is supplied by the
    /// session registry (the metrics object does not track liveness
    /// itself, so the gauge can never drift from the registry's truth),
    /// and `storage` by the durable store for the same reason (all zero
    /// for a memory-only service). `shard_latency` is sampled from the
    /// executor, which records per-shard execution time at the job site.
    pub fn snapshot(
        &self,
        active_sessions: u64,
        storage: StorageGauges,
        shard_latency: HistogramSummary,
    ) -> MetricsSnapshot {
        MetricsSnapshot {
            feed: self.feed_latency.summary(),
            fanout: self.shard_fanout.summary(),
            query_percentiles: self.query_hist.summary(),
            shard_latency,
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.plan_cache_misses.load(Ordering::Relaxed),
            quant: QuantGauges {
                phase1_points: self.quant_phase1_points.load(Ordering::Relaxed),
                reranked: self.quant_reranked.load(Ordering::Relaxed),
                fallback_rescans: self.quant_fallbacks.load(Ordering::Relaxed),
                plan_misses: self.quant_plan_misses.load(Ordering::Relaxed),
            },
            evictions: self.evictions.load(Ordering::Relaxed),
            sessions_created: self.sessions_created.load(Ordering::Relaxed),
            sessions_closed: self.sessions_closed.load(Ordering::Relaxed),
            active_sessions,
            ingests: self.ingests.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            storage,
            faults: FaultGauges {
                shard_panics: self.shard_panics.load(Ordering::Relaxed),
                shard_failures: self.shard_failures.load(Ordering::Relaxed),
                shard_timeouts: self.shard_timeouts.load(Ordering::Relaxed),
                breaker_trips: 0,
                degraded_responses: self.degraded_responses.load(Ordering::Relaxed),
                deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
                overload_rejections: self.overload_rejections.load(Ordering::Relaxed),
            },
            transport: TransportGauges {
                connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
                connections_active: self.connections_active.load(Ordering::Relaxed),
                connections_rejected: self.connections_rejected.load(Ordering::Relaxed),
                frames_in: self.frames_in.load(Ordering::Relaxed),
                frames_out: self.frames_out.load(Ordering::Relaxed),
                decode_errors: self.decode_errors.load(Ordering::Relaxed),
                write_queue_sheds: 0,
                shutdown_drains: self.shutdown_drains.load(Ordering::Relaxed),
            },
            cluster: ClusterGauges::default(),
        }
    }
}

/// Cluster (multi-node router) counters. All zero for a single-node
/// service; a router fronting N nodes fills these in when it aggregates
/// node snapshots with [`MetricsSnapshot::absorb`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterGauges {
    /// Nodes in the shard map (gauge; 0 single-node).
    pub nodes_total: u64,
    /// Scatter legs that failed with a transport or service error.
    pub node_failures: u64,
    /// Scatter legs that missed the per-node deadline.
    pub node_timeouts: u64,
    /// Scatter legs skipped because the node's breaker was open.
    pub node_breaker_skips: u64,
    /// Node circuit-breaker open transitions.
    pub node_breaker_trips: u64,
    /// Queries answered with partial node coverage.
    pub degraded_responses: u64,
    /// Follower-to-leader promotions performed.
    pub promotions: u64,
    /// WAL records shipped to followers.
    pub replication_records_shipped: u64,
    /// WAL records applied from a leader.
    pub replication_records_applied: u64,
    /// Current replication term per partition, as this router last won
    /// or observed it (gauge; empty single-node, 0 = none won yet).
    pub terms: Vec<u64>,
    /// Leader elections this router won (term/vote handshakes that
    /// reached a majority).
    pub elections_won: u64,
    /// Leader elections this router lost (vote refused by a majority,
    /// typically because another router holds the term or a lease).
    pub elections_lost: u64,
    /// Replication ships (or fence probes) rejected by a follower with
    /// `StaleTerm` — each one is a fenced zombie-leader write.
    pub fenced_stale_ships: u64,
    /// Catch-up chunks shipped by the background anti-entropy thread
    /// (off the ingest path).
    pub anti_entropy_chunks_shipped: u64,
}

fn absorb_hist(a: &mut HistogramSummary, b: &HistogramSummary) {
    if b.count == 0 {
        return;
    }
    if a.count == 0 {
        *a = *b;
        return;
    }
    let total = a.count + b.count;
    a.mean_ns = (a.mean_ns * a.count as f64 + b.mean_ns * b.count as f64) / total as f64;
    a.count = total;
    // Quantiles of a merge are not derivable from per-node quantiles;
    // the max of the per-node values is a safe upper bound.
    a.p50_ns = a.p50_ns.max(b.p50_ns);
    a.p95_ns = a.p95_ns.max(b.p95_ns);
    a.p99_ns = a.p99_ns.max(b.p99_ns);
    a.max_ns = a.max_ns.max(b.max_ns);
}

impl MetricsSnapshot {
    /// Folds another snapshot into this one: counters sum, means are
    /// recomputed from the summed totals, and latency quantiles take
    /// the per-node maximum (a safe upper bound — exact quantiles of a
    /// union are not derivable from per-node quantiles). A cluster
    /// router uses this to aggregate its nodes' snapshots into one
    /// fleet-wide `Stats` answer.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        absorb_hist(&mut self.feed, &other.feed);
        absorb_hist(&mut self.fanout, &other.fanout);
        absorb_hist(&mut self.query_percentiles, &other.query_percentiles);
        absorb_hist(&mut self.shard_latency, &other.shard_latency);
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
        self.quant.phase1_points += other.quant.phase1_points;
        self.quant.reranked += other.quant.reranked;
        self.quant.fallback_rescans += other.quant.fallback_rescans;
        self.quant.plan_misses += other.quant.plan_misses;
        self.evictions += other.evictions;
        self.sessions_created += other.sessions_created;
        self.sessions_closed += other.sessions_closed;
        self.active_sessions += other.active_sessions;
        self.ingests += other.ingests;
        self.flushes += other.flushes;
        self.recoveries += other.recoveries;
        self.storage.wal_appends += other.storage.wal_appends;
        self.storage.wal_fsyncs += other.storage.wal_fsyncs;
        self.storage.segments += other.storage.segments;
        self.storage.segment_vectors += other.storage.segment_vectors;
        self.storage.wal_vectors += other.storage.wal_vectors;
        self.faults.shard_panics += other.faults.shard_panics;
        self.faults.shard_failures += other.faults.shard_failures;
        self.faults.shard_timeouts += other.faults.shard_timeouts;
        self.faults.degraded_responses += other.faults.degraded_responses;
        self.faults.deadline_exceeded += other.faults.deadline_exceeded;
        self.faults.overload_rejections += other.faults.overload_rejections;
        self.transport.connections_accepted += other.transport.connections_accepted;
        self.transport.connections_active += other.transport.connections_active;
        self.transport.connections_rejected += other.transport.connections_rejected;
        self.transport.frames_in += other.transport.frames_in;
        self.transport.frames_out += other.transport.frames_out;
        self.transport.decode_errors += other.transport.decode_errors;
        self.transport.shutdown_drains += other.transport.shutdown_drains;
        self.cluster.nodes_total += other.cluster.nodes_total;
        self.cluster.node_failures += other.cluster.node_failures;
        self.cluster.node_timeouts += other.cluster.node_timeouts;
        self.cluster.node_breaker_skips += other.cluster.node_breaker_skips;
        self.cluster.node_breaker_trips += other.cluster.node_breaker_trips;
        self.cluster.degraded_responses += other.cluster.degraded_responses;
        self.cluster.promotions += other.cluster.promotions;
        self.cluster.replication_records_shipped += other.cluster.replication_records_shipped;
        self.cluster.replication_records_applied += other.cluster.replication_records_applied;
        // Terms merge element-wise by maximum: absorbing two views of
        // the same partition keeps the highest term either side saw.
        if self.cluster.terms.len() < other.cluster.terms.len() {
            self.cluster.terms.resize(other.cluster.terms.len(), 0);
        }
        for (slot, &term) in self.cluster.terms.iter_mut().zip(&other.cluster.terms) {
            *slot = (*slot).max(term);
        }
        self.cluster.elections_won += other.cluster.elections_won;
        self.cluster.elections_lost += other.cluster.elections_lost;
        self.cluster.fenced_stale_ships += other.cluster.fenced_stale_ships;
        self.cluster.anti_entropy_chunks_shipped += other.cluster.anti_entropy_chunks_shipped;
    }
}

/// Two-phase quantized-scan counters, summed over every query the
/// shards served. `phase1_points / reranked` is the pruning ratio; a
/// non-zero `fallback_rescans` means candidate sets failed
/// certification and were rescanned exactly (results stay exact either
/// way).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantGauges {
    /// Points lower-bounded from u8 codes in phase 1.
    pub phase1_points: u64,
    /// Candidates exactly reranked in phase 2.
    pub reranked: u64,
    /// Full exact rescans after a failed window certification.
    pub fallback_rescans: u64,
    /// Queries whose distance could not be soundly bounded (served
    /// exactly instead).
    pub plan_misses: u64,
}

/// Transport (TCP front-end) counters sampled at snapshot time. All
/// zero for a service that is only ever called in-process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportGauges {
    /// Connections accepted and admitted by the server.
    pub connections_accepted: u64,
    /// Connections currently open (gauge).
    pub connections_active: u64,
    /// Connections turned away at the capacity limit.
    pub connections_rejected: u64,
    /// Request frames decoded off connections.
    pub frames_in: u64,
    /// Response frames written to connections.
    pub frames_out: u64,
    /// Frames that failed to decode (bad magic/CRC/version/payload).
    pub decode_errors: u64,
    /// Always 0: the server has no writer queue to shed from. Read by
    /// nothing; stays only because `benchmark/` names it (ROADMAP 1(b)).
    pub write_queue_sheds: u64,
    /// In-flight requests drained to completion during graceful shutdown.
    pub shutdown_drains: u64,
}

/// Fault-path counters sampled at snapshot time, from the service's
/// own recorders.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultGauges {
    /// Shard jobs that panicked and were isolated (query kept running).
    pub shard_panics: u64,
    /// Shard jobs that failed without unwinding (injected fault).
    pub shard_failures: u64,
    /// Shards that missed a query's deadline.
    pub shard_timeouts: u64,
    /// Always 0: a shard has no circuit breaker. Read by nothing; stays
    /// only because `benchmark/` names it (ROADMAP 1(b)).
    pub breaker_trips: u64,
    /// Queries answered with partial shard coverage.
    pub degraded_responses: u64,
    /// Queries that produced nothing before their deadline.
    pub deadline_exceeded: u64,
    /// Queries rejected by admission control.
    pub overload_rejections: u64,
}

/// Storage gauges sampled at snapshot time (the durable subsystem owns
/// these; the metrics object never caches them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageGauges {
    /// WAL frames appended since the store opened.
    pub wal_appends: u64,
    /// WAL fsyncs since the store opened.
    pub wal_fsyncs: u64,
    /// Sealed segment files.
    pub segments: u64,
    /// Vectors sealed in segments.
    pub segment_vectors: u64,
    /// Vectors durable only in the WAL.
    pub wal_vectors: u64,
}

/// Point-in-time view of every service metric, as returned by the
/// `Stats` request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Feed latency quantiles.
    pub feed: HistogramSummary,
    /// Shard fan-out time quantiles.
    pub fanout: HistogramSummary,
    /// End-to-end query latency quantiles (p50/p95/p99/max).
    pub query_percentiles: HistogramSummary,
    /// Per-shard k-NN execution latency quantiles, recorded at the
    /// worker job site (excludes queueing and merge time).
    pub shard_latency: HistogramSummary,
    /// Queries served from a session's compiled-plan cache.
    pub plan_cache_hits: u64,
    /// Queries that compiled (or recompiled) their plan.
    pub plan_cache_misses: u64,
    /// Two-phase quantized-scan counters.
    pub quant: QuantGauges,
    /// Sessions evicted at capacity (least recently used).
    pub evictions: u64,
    /// Sessions ever created.
    pub sessions_created: u64,
    /// Sessions explicitly closed by clients.
    pub sessions_closed: u64,
    /// Sessions currently live.
    pub active_sessions: u64,
    /// Vectors ingested through the live path.
    pub ingests: u64,
    /// WAL → segment flushes (compactions) requested.
    pub flushes: u64,
    /// Crash recoveries performed (durable opens that found state).
    pub recoveries: u64,
    /// Storage gauges (all zero for a memory-only service).
    pub storage: StorageGauges,
    /// Fault-path counters (panics, timeouts, degraded answers, …).
    pub faults: FaultGauges,
    /// TCP transport counters (all zero without a network front-end).
    pub transport: TransportGauges,
    /// Cluster-router counters (all zero for a single-node service).
    pub cluster: ClusterGauges,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let m = ServiceMetrics::new();
        let s = m.snapshot(0, StorageGauges::default(), HistogramSummary::default());
        assert_eq!(s.query_percentiles, HistogramSummary::default());
        assert_eq!(s.feed, HistogramSummary::default());
        assert_eq!(s.fanout, HistogramSummary::default());
    }

    #[test]
    fn cache_ratio_and_counters() {
        let m = ServiceMetrics::new();
        m.record_plan_cache_miss();
        m.record_plan_cache_hit();
        m.record_plan_cache_hit();
        m.record_evictions(2);
        m.record_create_session();
        m.record_create_session();
        m.record_close_session();
        let s = m.snapshot(1, StorageGauges::default(), HistogramSummary::default());
        assert_eq!(s.plan_cache_hits, 2);
        assert_eq!(s.plan_cache_misses, 1);
        assert_eq!(s.evictions, 2);
        assert_eq!(s.sessions_created, 2);
        assert_eq!(s.sessions_closed, 1);
        assert_eq!(s.active_sessions, 1);
    }

    #[test]
    fn fault_counters_surface_in_snapshot() {
        let m = ServiceMetrics::new();
        m.record_shard_panic();
        m.record_shard_failure();
        m.record_shard_failure();
        m.record_shard_timeout();
        m.record_degraded_response();
        m.record_deadline_exceeded();
        m.record_overload_rejection();
        let s = m.snapshot(0, StorageGauges::default(), HistogramSummary::default());
        assert_eq!(
            s.faults,
            FaultGauges {
                shard_panics: 1,
                shard_failures: 2,
                shard_timeouts: 1,
                breaker_trips: 0,
                degraded_responses: 1,
                deadline_exceeded: 1,
                overload_rejections: 1,
            }
        );
    }

    #[test]
    fn latency_histogram_buckets_are_a_partition() {
        // Every value maps into exactly one bucket whose bounds contain it.
        for ns in [0u64, 1, 7, 8, 9, 15, 16, 100, 1_000, 123_456, u64::MAX] {
            let idx = bucket_of(ns);
            assert!(ns <= bucket_upper_bound(idx), "ns={ns} idx={idx}");
            if idx > 0 {
                assert!(bucket_upper_bound(idx - 1) < ns, "ns={ns} idx={idx}");
            }
        }
        // Upper bounds are strictly increasing across the whole table.
        for idx in 1..NUM_BUCKETS {
            assert!(bucket_upper_bound(idx) > bucket_upper_bound(idx - 1));
        }
    }

    #[test]
    fn latency_histogram_quantiles_are_close_and_max_exact() {
        let h = LatencyHistogram::new();
        for ns in 1..=10_000u64 {
            h.record_ns(ns);
        }
        let s = h.summary();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.max_ns, 10_000);
        // Log-bucketing bounds the quantile error at 25%.
        assert!(s.p50_ns >= 5_000 && s.p50_ns <= 6_250, "p50={}", s.p50_ns);
        assert!(s.p95_ns >= 9_500 && s.p95_ns <= 10_000, "p95={}", s.p95_ns);
        assert!(s.p99_ns >= 9_900 && s.p99_ns <= 10_000, "p99={}", s.p99_ns);
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
        assert!((s.mean_ns - 5_000.5).abs() < 1e-6);
    }

    #[test]
    fn latency_histogram_empty_and_single_sample() {
        let h = LatencyHistogram::new();
        assert_eq!(h.summary(), HistogramSummary::default());
        h.record(Duration::from_nanos(777));
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.max_ns, 777);
        // A single sample is every quantile, clamped to the exact max.
        assert_eq!(s.p50_ns, 777);
        assert_eq!(s.p99_ns, 777);
    }

    #[test]
    fn histogram_merge_of_empties_is_empty() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.merge(&b);
        assert_eq!(a.summary(), HistogramSummary::default());
        // Merging an empty histogram into a populated one is a no-op.
        a.record_ns(42);
        let before = a.summary();
        a.merge(&b);
        assert_eq!(a.summary(), before);
    }

    #[test]
    fn histogram_merge_single_bucket_quantiles() {
        // All samples of both sides land in one bucket: every quantile
        // is that bucket, clamped to the exact merged max.
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record_ns(5);
        b.record_ns(5);
        b.record_ns(5);
        a.merge(&b);
        let s = a.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.p50_ns, 5);
        assert_eq!(s.p95_ns, 5);
        assert_eq!(s.p99_ns, 5);
        assert_eq!(s.max_ns, 5);
        assert!((s.mean_ns - 5.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_matches_recording_into_one() {
        let merged = LatencyHistogram::new();
        let parts: Vec<LatencyHistogram> = (0..4).map(|_| LatencyHistogram::new()).collect();
        let reference = LatencyHistogram::new();
        for (t, part) in parts.iter().enumerate() {
            for i in 0..500u64 {
                let ns = (t as u64) * 1_000 + i * 7;
                part.record_ns(ns);
                reference.record_ns(ns);
            }
        }
        for part in &parts {
            merged.merge(part);
        }
        assert_eq!(merged.summary(), reference.summary());
    }

    #[test]
    fn histogram_merge_saturates_instead_of_wrapping() {
        // Doubling a histogram into itself 64+ times would wrap every
        // counter if merge used plain fetch_add; saturation pegs them
        // at u64::MAX so counts never travel backwards.
        let h = LatencyHistogram::new();
        h.record_ns(100);
        for _ in 0..70 {
            let snapshot = {
                // Merge a copy, not &h into itself, so loads and adds
                // cannot interleave on the same cells mid-merge.
                let copy = LatencyHistogram::new();
                copy.merge(&h);
                copy
            };
            h.merge(&snapshot);
        }
        let s = h.summary();
        assert_eq!(s.count, u64::MAX, "count saturates");
        assert_eq!(s.max_ns, 100, "max is unaffected by saturation");
        // The single populated bucket also saturated, so quantiles
        // still resolve to that bucket.
        assert_eq!(s.p50_ns, 100);
        assert_eq!(s.p99_ns, 100);
    }

    #[test]
    fn histogram_merge_is_lock_free_under_concurrent_recording() {
        // Recorders keep recording into `src` while another thread
        // repeatedly merges into `dst`: nothing deadlocks and the final
        // catch-up merge observes every sample recorded before it.
        let src = std::sync::Arc::new(LatencyHistogram::new());
        let dst = std::sync::Arc::new(LatencyHistogram::new());
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let src = std::sync::Arc::clone(&src);
                scope.spawn(move || {
                    for i in 0..1_000u64 {
                        src.record_ns(i);
                    }
                });
            }
            let src = std::sync::Arc::clone(&src);
            let dst = std::sync::Arc::clone(&dst);
            scope.spawn(move || {
                for _ in 0..50 {
                    dst.merge(&src);
                }
            });
        });
        // After recording quiesces, one fresh merge sees all samples.
        let total = LatencyHistogram::new();
        total.merge(&src);
        assert_eq!(total.summary().count, 2_000);
        assert_eq!(total.summary().max_ns, 999);
    }

    #[test]
    fn latency_histogram_concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        h.record_ns(t * 1_000 + i);
                    }
                });
            }
        });
        let s = h.summary();
        assert_eq!(s.count, 2_000);
        assert_eq!(s.max_ns, 3_499);
    }

    #[test]
    fn transport_counters_surface_in_snapshot() {
        let m = ServiceMetrics::new();
        m.record_connection_opened();
        m.record_connection_opened();
        m.record_connection_closed();
        m.record_connection_rejected();
        m.record_frame_in();
        m.record_frame_in();
        m.record_frame_out();
        m.record_decode_error();
        m.record_shutdown_drains(3);
        let s = m.snapshot(0, StorageGauges::default(), HistogramSummary::default());
        assert_eq!(
            s.transport,
            TransportGauges {
                connections_accepted: 2,
                connections_active: 1,
                connections_rejected: 1,
                frames_in: 2,
                frames_out: 1,
                decode_errors: 1,
                write_queue_sheds: 0,
                shutdown_drains: 3,
            }
        );
    }

    #[test]
    fn absorb_sums_counters_and_bounds_quantiles() {
        let a_metrics = ServiceMetrics::new();
        a_metrics.query_hist.record(Duration::from_nanos(100));
        a_metrics.record_plan_cache_hit();
        a_metrics.record_ingest();
        let b_metrics = ServiceMetrics::new();
        b_metrics.query_hist.record(Duration::from_nanos(300));
        b_metrics.record_plan_cache_miss();
        b_metrics.record_shard_timeout();
        let mut a = a_metrics.snapshot(1, StorageGauges::default(), HistogramSummary::default());
        let b = b_metrics.snapshot(2, StorageGauges::default(), HistogramSummary::default());
        a.absorb(&b);
        assert_eq!(a.query_percentiles.count, 2);
        assert_eq!(a.query_percentiles.max_ns, 300);
        assert!((a.query_percentiles.mean_ns - 200.0).abs() < 1e-9);
        assert_eq!((a.plan_cache_hits, a.plan_cache_misses), (1, 1));
        assert_eq!(a.active_sessions, 3);
        assert_eq!(a.ingests, 1);
        assert_eq!(a.faults.shard_timeouts, 1);
        // Absorbing an all-zero snapshot changes nothing.
        let before = a.clone();
        a.absorb(&ServiceMetrics::new().snapshot(
            0,
            StorageGauges::default(),
            HistogramSummary::default(),
        ));
        assert_eq!(a, before);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = std::sync::Arc::new(ServiceMetrics::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = std::sync::Arc::clone(&m);
                scope.spawn(move || {
                    for i in 1..=250u64 {
                        m.query_hist.record(Duration::from_nanos(i));
                        m.record_plan_cache_hit();
                    }
                });
            }
        });
        let s = m.snapshot(0, StorageGauges::default(), HistogramSummary::default());
        assert_eq!(s.query_percentiles.count, 1000);
        assert_eq!(s.plan_cache_hits, 1000);
        assert_eq!(s.query_percentiles.max_ns, 250);
    }
}
