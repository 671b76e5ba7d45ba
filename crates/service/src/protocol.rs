//! The wire protocol: serializable request/response enums and the
//! dispatcher that maps them onto [`Service`] calls. It carries the
//! paper's rounds (sessions, queries, feeds) and, for a router keeping
//! a partition's replicas in step, replication: WAL chunks fetched from
//! a leader and applied, fenced by term, on a follower, status probes
//! and votes.
//!
//! The protocol is transport-agnostic: `qcluster-net` carries it in a
//! binary codec, and the serde derives serve any other format. Errors never
//! escape as `Err`: [`dispatch`] always returns a [`Response`], with
//! failures folded into [`Response::Error`] so a wire client sees every
//! outcome uniformly.

use crate::error::ServiceError;
use crate::metrics::MetricsSnapshot;
use crate::service::{QueryOutcome, Service};
use crate::spec::QuerySpec;
use qcluster_core::FeedbackPoint;
use qcluster_index::{Neighbor, SearchStats};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Open a session. `engine` names one of the five methods of
    /// `qcluster_baselines::METHODS` — `"qcluster"` (the default when
    /// `None`), `"qpm"`, `"mindreader"`, `"qex"`, `"falcon"`; any other
    /// name is an `InvalidRequest`.
    CreateSession {
        /// Method name, or `None` for the default.
        engine: Option<String>,
    },
    /// Run a k-NN round. With `vector` set this is the initial
    /// example-image query; with `vector` omitted the session engine's
    /// refined (disjunctive) query runs.
    Query {
        /// Target session.
        session: u64,
        /// Result count.
        k: usize,
        /// Optional explicit query vector (initial round).
        vector: Option<Vec<f64>>,
        /// Optional per-request deadline in milliseconds (`None` waits
        /// for every shard). On expiry the response is degraded
        /// (partial coverage), not an error, unless zero shards
        /// responded.
        deadline_ms: Option<u64>,
    },
    /// Mark corpus images as relevant, optionally graded.
    Feed {
        /// Target session.
        session: u64,
        /// Corpus ids of the marked images.
        relevant_ids: Vec<usize>,
        /// Optional per-id relevance scores ([`DEFAULT_SCORE`] each when
        /// omitted).
        scores: Option<Vec<f64>>,
    },
    /// Close a session.
    CloseSession {
        /// Target session.
        session: u64,
    },
    /// Durably add one vector to the live corpus (durable services
    /// only): WAL-append, then index into the live overlay. The
    /// assigned id is immediately queryable and survives restarts.
    Ingest {
        /// The feature vector to add.
        vector: Vec<f64>,
    },
    /// Fold the WAL into a sealed segment and fsync (durable services
    /// only).
    Flush,
    /// Fetch the service metrics snapshot.
    Stats,
    /// Resolve corpus vectors by id (base corpus or live overlay). A
    /// cluster router uses this to materialize feedback vectors from
    /// the partition that owns them before it feeds the session it
    /// hosts.
    FetchVectors {
        /// Global corpus ids to resolve.
        ids: Vec<usize>,
    },
    /// Feed explicit `(id, vector, score)` triples into a session. The
    /// ids need not exist in this node's corpus; the engine only cares
    /// about the vectors and scores. No router sends it any more; it
    /// stays only because `benchmark/` replays it (ROADMAP 1(b)).
    FeedPoints {
        /// Target session.
        session: u64,
        /// The marked points, vectors included.
        points: Vec<FeedPointDto>,
    },
    /// Run a k-NN round for a query compiled elsewhere, outside any
    /// session: a cluster router hosts the session, compiles its query
    /// and scatters it to the nodes with this request.
    QueryCompiled {
        /// The compiled query.
        query: QuerySpec,
        /// Result count.
        k: usize,
        /// Optional deadline in milliseconds, as for [`Request::Query`].
        deadline_ms: Option<u64>,
    },
    /// Ask the peer (a leader) for ingest records starting at global
    /// vector id `from`, at most `max` records. Answered with
    /// [`Response::Chunk`].
    ReplFetch {
        /// First global vector id wanted (the follower's current
        /// committed total).
        from: u64,
        /// Maximum number of records to return in one chunk.
        max: u32,
    },
    /// Ship WAL frames for the peer (a follower) to apply. `frames` is
    /// a concatenation of store WAL frames
    /// (`[len u32][crc u32][payload]` each), byte-identical to what a
    /// local `WalWriter` would have produced. The ship is **fenced**:
    /// it carries the leader's term and lease duration, and a follower
    /// whose current term is higher rejects it with
    /// [`ServiceError::StaleTerm`] instead of applying. An empty
    /// `frames` is a pure fence probe / lease renewal. Terms start at 1:
    /// `term == 0` is an `InvalidRequest`. Answered with
    /// [`Response::Applied`].
    ReplApply {
        /// The shipper's leadership term (positive).
        term: u64,
        /// Lease duration granted from the follower's receipt time, in
        /// milliseconds (0 = no lease refresh).
        lease_ms: u64,
        /// Concatenated WAL frame bytes.
        frames: Vec<u8>,
    },
    /// Ask the peer for its replication position. Answered with
    /// [`Response::ReplStatus`].
    ReplStatus,
    /// Ask the peer to vote for a candidate leader at `term`. Granted
    /// iff `term` is higher than every term the peer has acknowledged
    /// AND the peer holds no unexpired vote-lease for another term —
    /// the lease is what stops two contending routers from both
    /// winning the same nodes. Answered with [`Response::Voted`].
    Vote {
        /// The candidate's proposed term.
        term: u64,
        /// Vote-lease duration in milliseconds: how long the peer
        /// refuses competing candidates after granting.
        lease_ms: u64,
    },
}

/// One feedback point on the wire, vector included.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedPointDto {
    /// Global corpus id of the marked image.
    pub id: usize,
    /// Its feature vector.
    pub vector: Vec<f64>,
    /// Relevance score (positive, finite).
    pub score: f64,
}

/// One neighbor on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeighborDto {
    /// Corpus image id.
    pub id: usize,
    /// Distance under the round's query.
    pub distance: f64,
}

impl From<Neighbor> for NeighborDto {
    fn from(n: Neighbor) -> Self {
        NeighborDto {
            id: n.id,
            distance: n.distance,
        }
    }
}

/// Search work counters on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStatsDto {
    /// Index nodes expanded, summed over shards (0 from a service: its
    /// shards scan, and a scan has no nodes).
    pub nodes_accessed: u64,
    /// Node accesses served from a node cache (0 from a service).
    pub cache_hits: u64,
    /// Node accesses charged as disk reads (0 from a service).
    pub disk_reads: u64,
    /// Point-level distance evaluations.
    pub distance_evaluations: u64,
}

impl From<SearchStats> for SearchStatsDto {
    fn from(s: SearchStats) -> Self {
        SearchStatsDto {
            nodes_accessed: s.nodes_accessed,
            cache_hits: s.cache_hits,
            disk_reads: s.disk_reads,
            distance_evaluations: s.distance_evaluations,
        }
    }
}

impl From<SearchStatsDto> for SearchStats {
    /// The wire carries four of the counters; the rest read zero.
    fn from(s: SearchStatsDto) -> Self {
        SearchStats {
            nodes_accessed: s.nodes_accessed,
            cache_hits: s.cache_hits,
            disk_reads: s.disk_reads,
            distance_evaluations: s.distance_evaluations,
            ..SearchStats::default()
        }
    }
}

/// A service response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// A session was opened.
    SessionCreated {
        /// The new session id.
        session: u64,
    },
    /// A query round's results. `shards_ok < shards_total` marks a
    /// degraded response: the top-k is correct over the shards that
    /// responded, but silent misses from the failed shards are possible.
    Neighbors {
        /// The session that ran the query (0 for
        /// [`Request::QueryCompiled`], which has none).
        session: u64,
        /// Global top-k, ascending by `(distance, id)`.
        neighbors: Vec<NeighborDto>,
        /// Search work, summed over the shards that responded.
        stats: SearchStatsDto,
        /// Shards whose results made it into the merge.
        shards_ok: usize,
        /// Shards the query fanned out to.
        shards_total: usize,
        /// Cluster nodes whose partial results made it into the merge.
        /// A single-node service always reports `1`; a router fronting
        /// N nodes reports its per-node coverage here.
        nodes_ok: usize,
        /// Cluster nodes the query was scattered to (`1` single-node).
        nodes_total: usize,
        /// `shards_ok < shards_total || nodes_ok < nodes_total`,
        /// precomputed for wire clients.
        degraded: bool,
    },
    /// A feed round was ingested.
    FeedAccepted {
        /// The session that was fed.
        session: u64,
        /// Feed rounds completed so far.
        iteration: u64,
        /// Cluster count, when the engine exposes one.
        clusters: Option<usize>,
    },
    /// A session was closed.
    SessionClosed {
        /// The closed session id.
        session: u64,
    },
    /// A vector was durably ingested.
    Ingested {
        /// The new vector's corpus id (stable across restarts).
        id: usize,
        /// Corpus size after the ingest.
        total: usize,
    },
    /// The WAL was folded into a sealed segment.
    Flushed {
        /// Vectors moved from the WAL into the new segment.
        folded_vectors: u64,
        /// Sealed segments after the fold.
        segments: u64,
    },
    /// The metrics snapshot (boxed: much larger than every other variant).
    Stats(Box<MetricsSnapshot>),
    /// Resolved vectors, in request order.
    Vectors {
        /// One vector per requested id.
        vectors: Vec<Vec<f64>>,
    },
    /// The request failed.
    Error(ServiceError),
    /// Records from [`Request::ReplFetch`]. `total` is the leader's
    /// committed vector count; an empty `frames` with `from == total`
    /// means caught up.
    Chunk {
        /// Leader's committed total (vectors durably ingested).
        total: u64,
        /// Concatenated WAL frame bytes, in id order starting at the
        /// requested `from`.
        frames: Vec<u8>,
    },
    /// Outcome of [`Request::ReplApply`]. `applied` counts records
    /// actually ingested (duplicates below `total` are skipped
    /// idempotently and not counted).
    Applied {
        /// Follower's committed total after the apply.
        total: u64,
        /// Records newly applied by this request.
        applied: u64,
    },
    /// Replication position from [`Request::ReplStatus`].
    ReplStatus {
        /// Committed vector count.
        total: u64,
        /// Vectors durable on disk (equals `total` when the node runs
        /// a store; 0 when memory-only).
        durable: u64,
        /// Highest term this node has acknowledged (0 = none yet).
        term: u64,
        /// Whether the node currently holds an unexpired leader lease.
        leased: bool,
    },
    /// Outcome of a [`Request::Vote`].
    Voted {
        /// Whether the vote was granted.
        granted: bool,
        /// The peer's current term after considering the request (the
        /// candidate's term when granted; the higher conflicting term
        /// when refused).
        term: u64,
    },
}

/// Upper bound on `k` accepted over the wire. Requests past it are
/// rejected with a typed error *before* any per-result allocation
/// happens — a hostile frame asking for `usize::MAX` neighbors must not
/// be able to abort the process on an allocation failure.
pub const MAX_WIRE_K: usize = 1 << 20;

/// Rejects wire-supplied vectors carrying NaN/±inf components. Distance
/// kernels stay well-defined only over finite inputs; a non-finite
/// query would silently poison every comparison in the scan.
fn check_finite(vector: &[f64]) -> Result<(), ServiceError> {
    match vector.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(i) => Err(ServiceError::InvalidRequest(format!(
            "vector component {i} is not finite"
        ))),
    }
}

/// The checks every fed point passes before an engine sees it, wherever
/// the engine runs: a finite vector and a positive, finite score.
///
/// # Errors
///
/// [`ServiceError::InvalidRequest`] naming the offending component or
/// score.
fn check_feed_point(id: usize, vector: &[f64], score: f64) -> Result<(), ServiceError> {
    check_finite(vector)?;
    if score <= 0.0 || !score.is_finite() {
        return Err(ServiceError::InvalidRequest(format!(
            "score {score} for id {id} must be positive and finite"
        )));
    }
    Ok(())
}

/// The relevance score of a fed id that carries no score, on every
/// door.
pub const DEFAULT_SCORE: f64 = 3.0;

/// The points of one feed marked by corpus id, checked the same way on
/// every door: a non-empty feed, one score per id when scores are given
/// ([`DEFAULT_SCORE`] each when they are not), a finite vector and a
/// positive, finite score. `resolve` maps `ids` to their vectors, in
/// order; it runs only once the ids and scores are known to pair up.
///
/// # Errors
///
/// [`ServiceError::EmptyFeedback`], [`ServiceError::InvalidRequest`]
/// for a score-count mismatch or a bad point, and `resolve`'s error.
pub fn feedback_points<E: From<ServiceError>>(
    ids: &[usize],
    scores: Option<&[f64]>,
    resolve: impl FnOnce() -> Result<Vec<Vec<f64>>, E>,
) -> Result<Vec<FeedbackPoint>, E> {
    if ids.is_empty() {
        return Err(ServiceError::EmptyFeedback.into());
    }
    if let Some(scores) = scores {
        if scores.len() != ids.len() {
            return Err(ServiceError::InvalidRequest(format!(
                "{} ids but {} scores",
                ids.len(),
                scores.len()
            ))
            .into());
        }
    }
    let vectors = resolve()?;
    ids.iter()
        .zip(vectors)
        .enumerate()
        .map(|(i, (&id, vector))| {
            let score = scores.map_or(DEFAULT_SCORE, |s| s[i]);
            check_feed_point(id, &vector, score)?;
            Ok(FeedbackPoint::new(id, vector, score))
        })
        .collect()
}

/// The wire answer of one query round.
fn neighbors(session: u64, out: QueryOutcome) -> Response {
    let degraded = out.degraded();
    Response::Neighbors {
        session,
        neighbors: out.neighbors.into_iter().map(NeighborDto::from).collect(),
        stats: SearchStatsDto::from(out.stats),
        shards_ok: out.shards_ok,
        shards_total: out.shards_total,
        nodes_ok: 1,
        nodes_total: 1,
        degraded,
    }
}

/// Maps one request onto the service. Infallible by construction: every
/// service error becomes [`Response::Error`] — including structurally
/// hostile field values (absurd `k`, non-finite vectors), which are
/// rejected here before they reach allocation or kernel code.
pub fn dispatch(service: &Service, request: Request) -> Response {
    match &request {
        Request::QueryCompiled { k, .. } if *k > MAX_WIRE_K => {
            return Response::Error(ServiceError::InvalidRequest(format!(
                "k {k} exceeds the wire maximum {MAX_WIRE_K}"
            )));
        }
        Request::Query { k, vector, .. } => {
            if *k > MAX_WIRE_K {
                return Response::Error(ServiceError::InvalidRequest(format!(
                    "k {k} exceeds the wire maximum {MAX_WIRE_K}"
                )));
            }
            if let Some(v) = vector {
                if let Err(e) = check_finite(v) {
                    return Response::Error(e);
                }
            }
        }
        Request::Ingest { vector } => {
            if let Err(e) = check_finite(vector) {
                return Response::Error(e);
            }
        }
        Request::FetchVectors { ids } if ids.len() > MAX_WIRE_K => {
            return Response::Error(ServiceError::InvalidRequest(format!(
                "{} ids exceeds the wire maximum {MAX_WIRE_K}",
                ids.len()
            )));
        }
        Request::FeedPoints { points, .. } => {
            for p in points {
                if let Err(e) = check_feed_point(p.id, &p.vector, p.score) {
                    return Response::Error(e);
                }
            }
        }
        _ => {}
    }
    let result = match request {
        Request::CreateSession { engine } => match engine {
            None => service.create_session(),
            Some(name) => service.create_session_named(&name),
        }
        .map(|session| Response::SessionCreated { session }),
        Request::Query {
            session,
            k,
            vector,
            deadline_ms,
        } => service
            .query_with_deadline(session, k, vector, deadline_ms.map(Duration::from_millis))
            .map(|out| neighbors(session, out)),
        Request::QueryCompiled {
            query,
            k,
            deadline_ms,
        } => query
            .compile()
            .and_then(|query| {
                service.query_compiled(&*query, k, deadline_ms.map(Duration::from_millis))
            })
            .map(|out| neighbors(0, out)),
        Request::Feed {
            session,
            relevant_ids,
            scores,
        } => service
            .feed_ids(session, &relevant_ids, scores.as_deref())
            .map(|out| Response::FeedAccepted {
                session,
                iteration: out.iteration,
                clusters: out.clusters,
            }),
        Request::CloseSession { session } => service
            .close_session(session)
            .map(|()| Response::SessionClosed { session }),
        Request::Ingest { vector } => service.ingest(vector).map(|out| Response::Ingested {
            id: out.id,
            total: out.total,
        }),
        Request::Flush => service.flush().map(|stats| Response::Flushed {
            folded_vectors: stats.folded_vectors,
            segments: stats.segments,
        }),
        Request::Stats => Ok(Response::Stats(Box::new(service.stats()))),
        Request::FetchVectors { ids } => service
            .vectors_by_id(&ids)
            .map(|vectors| Response::Vectors { vectors }),
        Request::FeedPoints { session, points } => {
            let points: Vec<FeedbackPoint> = points
                .into_iter()
                .map(|p| FeedbackPoint::new(p.id, p.vector, p.score))
                .collect();
            service
                .feed(session, &points)
                .map(|out| Response::FeedAccepted {
                    session,
                    iteration: out.iteration,
                    clusters: out.clusters,
                })
        }
        Request::ReplFetch { from, max } => service
            .replication_chunk(from, max)
            .map(|(total, frames)| Response::Chunk { total, frames }),
        Request::ReplApply {
            term,
            lease_ms,
            frames,
        } => service
            .apply_fenced(term, lease_ms, &frames)
            .map(|(total, applied)| Response::Applied { total, applied }),
        Request::ReplStatus => {
            let (total, durable) = service.replication_status();
            let (term, leased) = service.consensus_status();
            Ok(Response::ReplStatus {
                total,
                durable,
                term,
                leased,
            })
        }
        Request::Vote { term, lease_ms } => service
            .handle_vote(term, lease_ms)
            .map(|(granted, term)| Response::Voted { granted, term }),
    };
    result.unwrap_or_else(Response::Error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    fn corpus() -> Vec<Vec<f64>> {
        (0..40)
            .map(|i| {
                let a = i as f64 * 0.37;
                let offset = if i < 20 { 0.0 } else { 9.0 };
                vec![offset + a.cos(), offset + a.sin()]
            })
            .collect()
    }

    fn service() -> Service {
        Service::new(
            &corpus(),
            ServiceConfig {
                num_shards: 2,
                num_workers: 2,
                ..ServiceConfig::default()
            },
        )
        .unwrap()
    }

    fn open(svc: &Service, engine: Option<&str>) -> u64 {
        let engine = engine.map(String::from);
        match dispatch(svc, Request::CreateSession { engine }) {
            Response::SessionCreated { session } => session,
            other => panic!("expected SessionCreated, got {other:?}"),
        }
    }

    fn query(
        svc: &Service,
        session: u64,
        k: usize,
        vector: Option<Vec<f64>>,
    ) -> (Vec<NeighborDto>, SearchStatsDto) {
        let request = Request::Query {
            session,
            k,
            vector,
            deadline_ms: None,
        };
        match dispatch(svc, request) {
            Response::Neighbors {
                neighbors, stats, ..
            } => (neighbors, stats),
            other => panic!("expected Neighbors, got {other:?}"),
        }
    }

    /// Feeds `relevant_ids` at the default score; the iteration and the
    /// reported cluster count.
    fn feed(svc: &Service, session: u64, relevant_ids: Vec<usize>) -> (u64, Option<usize>) {
        let request = Request::Feed {
            session,
            relevant_ids,
            scores: None,
        };
        match dispatch(svc, request) {
            Response::FeedAccepted {
                iteration,
                clusters,
                ..
            } => (iteration, clusters),
            other => panic!("expected FeedAccepted, got {other:?}"),
        }
    }

    #[test]
    fn dispatch_drives_a_whole_session() {
        let svc = service();
        let session = open(&svc, None);

        let (neighbors, _) = query(&svc, session, 6, Some(vec![0.5, 0.5]));
        assert_eq!(neighbors.len(), 6);

        let ids: Vec<usize> = neighbors.iter().take(4).map(|n| n.id).collect();
        assert_eq!(feed(&svc, session, ids).0, 1);

        let (_, stats) = query(&svc, session, 6, None);
        assert!(stats.distance_evaluations > 0);

        let Response::Stats(snapshot) = dispatch(&svc, Request::Stats) else {
            panic!("expected Stats");
        };
        assert_eq!(snapshot.query_percentiles.count, 2);
        assert_eq!(snapshot.active_sessions, 1);

        assert_eq!(
            dispatch(&svc, Request::CloseSession { session }),
            Response::SessionClosed { session }
        );
    }

    #[test]
    fn all_five_methods_answer_through_the_front_door() {
        use qcluster_baselines::METHODS;
        use qcluster_core::FeedbackPoint;
        use qcluster_index::LinearScan;

        let svc = service();
        let points = corpus();
        let oracle = LinearScan::new(&points);
        for (name, make) in METHODS {
            let session = open(&svc, Some(name));
            // Mark the answers around the example plus two images of the
            // other blob, so the multipoint methods have two groups to
            // represent.
            let (example_answer, _) = query(&svc, session, 8, Some(vec![9.5, 9.5]));
            let mut marked: Vec<usize> = example_answer.iter().map(|n| n.id).collect();
            marked.extend([3, 4]);
            let (_, clusters) = feed(&svc, session, marked.clone());
            let (refined, _) = query(&svc, session, 10, None);

            // The same method, fed the same points outside the service,
            // over one flat exact scan.
            let mut method = make(qcluster_core::QclusterConfig::default());
            let fed: Vec<FeedbackPoint> = marked
                .iter()
                .map(|&id| FeedbackPoint::new(id, points[id].clone(), DEFAULT_SCORE))
                .collect();
            method.feed(&fed).unwrap();
            let expected = oracle.knn(&method.query().unwrap(), 10);
            assert_eq!(refined.len(), expected.len(), "{name}");
            for (got, want) in refined.iter().zip(&expected) {
                assert_eq!(got.id, want.id, "{name}");
                assert_eq!(got.distance.to_bits(), want.distance.to_bits(), "{name}");
            }
            assert_eq!(clusters, method.num_clusters(), "{name}");
            assert_eq!(clusters.is_some(), name == "qcluster", "{name}");
        }
    }

    #[test]
    fn dispatch_rejects_hostile_field_values_with_typed_errors() {
        let svc = service();
        let session = open(&svc, None);
        // An absurd k must be rejected before any allocation sized by it.
        assert!(matches!(
            dispatch(
                &svc,
                Request::Query {
                    session,
                    k: usize::MAX,
                    vector: Some(vec![0.0, 0.0]),
                    deadline_ms: None
                }
            ),
            Response::Error(ServiceError::InvalidRequest(_))
        ));
        // Non-finite query vectors are rejected, not fed to the kernels.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                dispatch(
                    &svc,
                    Request::Query {
                        session,
                        k: 3,
                        vector: Some(vec![0.0, bad]),
                        deadline_ms: None
                    }
                ),
                Response::Error(ServiceError::InvalidRequest(_))
            ));
        }
        assert!(matches!(
            dispatch(
                &svc,
                Request::Ingest {
                    vector: vec![f64::NAN, 0.0]
                }
            ),
            Response::Error(_)
        ));
        // Infinite feedback scores are as invalid as NaN ones.
        assert!(matches!(
            dispatch(
                &svc,
                Request::Feed {
                    session,
                    relevant_ids: vec![0],
                    scores: Some(vec![f64::INFINITY]),
                }
            ),
            Response::Error(ServiceError::InvalidRequest(_))
        ));
        // The session survives every rejected request.
        assert!(matches!(
            dispatch(
                &svc,
                Request::Query {
                    session,
                    k: 3,
                    vector: Some(vec![0.0, 0.0]),
                    deadline_ms: None
                }
            ),
            Response::Neighbors { .. }
        ));
    }

    #[test]
    fn dispatch_folds_failures_into_error_responses() {
        let svc = service();
        assert_eq!(
            dispatch(
                &svc,
                Request::Query {
                    session: 7,
                    k: 1,
                    vector: None,
                    deadline_ms: None
                }
            ),
            Response::Error(ServiceError::UnknownSession(7))
        );
        assert!(matches!(
            dispatch(
                &svc,
                Request::CreateSession {
                    engine: Some("nope".into())
                }
            ),
            Response::Error(ServiceError::InvalidRequest(_))
        ));
        assert_eq!(
            dispatch(&svc, Request::CloseSession { session: 3 }),
            Response::Error(ServiceError::UnknownSession(3))
        );
    }
}
