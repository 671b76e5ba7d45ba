//! Values of every `Request`, `Response` and `ServiceError` variant,
//! with the numbers a lossy codec would move: shared by the round-trip
//! and fuzz suites.

use qcluster_service::{
    AggregateSpec, FeedPointDto, InverseSpec, NeighborDto, PointSpec, QuerySpec,
    RepresentativeSpec, Request, Response, SearchStatsDto, ServiceError,
};

/// A session id as hosts issue them: the wall clock in nanoseconds,
/// past 2^53, where a float would round it.
const NANO_SESSION: u64 = 1_760_000_000_123_456_789;

/// Values whose bits a lossy codec would move: a negative zero and the
/// smallest subnormal.
const EDGE: [f64; 4] = [-0.0, 5e-324, 0.25, -1.5];

fn full_representative() -> RepresentativeSpec {
    RepresentativeSpec {
        mean: vec![0.5, -0.0],
        inverse: InverseSpec::Full(vec![2.0, 5e-324, 5e-324, 3.0]),
        mass: 1.5,
        min_eigenvalue: 1.25,
    }
}

/// Every request variant, every query-spec variant, `None` and `Some`.
pub fn requests() -> Vec<Request> {
    vec![
        Request::CreateSession { engine: None },
        Request::CreateSession {
            engine: Some("qpm".into()),
        },
        Request::CreateSession {
            engine: Some(String::new()),
        },
        Request::Query {
            session: NANO_SESSION,
            k: 10,
            vector: Some(EDGE.to_vec()),
            deadline_ms: None,
        },
        Request::Query {
            session: 42,
            k: usize::MAX,
            vector: None,
            deadline_ms: Some(150),
        },
        Request::Query {
            session: 42,
            k: 0,
            vector: Some(vec![]),
            deadline_ms: Some(0),
        },
        Request::Feed {
            session: NANO_SESSION,
            relevant_ids: vec![1, 5, usize::MAX],
            scores: Some(vec![3.0, -0.0, 5e-324]),
        },
        Request::Feed {
            session: 7,
            relevant_ids: vec![],
            scores: None,
        },
        Request::CloseSession {
            session: NANO_SESSION,
        },
        Request::Ingest {
            vector: EDGE.to_vec(),
        },
        Request::Ingest { vector: vec![] },
        Request::Flush,
        Request::Stats,
        Request::FetchVectors {
            ids: vec![0, 3, 1 << 40],
        },
        Request::FetchVectors { ids: vec![] },
        Request::FeedPoints {
            session: NANO_SESSION,
            points: vec![
                FeedPointDto {
                    id: 9,
                    vector: EDGE.to_vec(),
                    score: 2.0,
                },
                FeedPointDto {
                    id: 0,
                    vector: vec![],
                    score: 5e-324,
                },
            ],
        },
        Request::FeedPoints {
            session: 1,
            points: vec![],
        },
        Request::QueryCompiled {
            query: QuerySpec::Euclidean {
                center: EDGE.to_vec(),
            },
            k: 5,
            deadline_ms: None,
            bound: Some(0.25),
        },
        Request::QueryCompiled {
            query: QuerySpec::WeightedEuclidean {
                center: vec![1.0, -0.0],
                weights: vec![5e-324, 4.0],
            },
            k: 5,
            deadline_ms: Some(u64::MAX),
            bound: Some(f64::MAX),
        },
        Request::QueryCompiled {
            query: QuerySpec::Cluster(full_representative()),
            k: 3,
            deadline_ms: None,
            bound: None,
        },
        Request::QueryCompiled {
            query: QuerySpec::Disjunctive {
                representatives: vec![
                    full_representative(),
                    RepresentativeSpec {
                        inverse: InverseSpec::Diagonal(vec![1.0, 2.0]),
                        ..full_representative()
                    },
                ],
            },
            k: 3,
            deadline_ms: None,
            bound: Some(5e-324),
        },
        Request::QueryCompiled {
            query: QuerySpec::Disjunctive {
                representatives: vec![],
            },
            k: 3,
            deadline_ms: None,
            bound: None,
        },
        Request::QueryCompiled {
            query: QuerySpec::MultiPoint {
                points: vec![PointSpec {
                    center: vec![0.1, -2.5],
                    weights: vec![1.0, 0.3],
                    mass: 2.0,
                }],
                aggregate: AggregateSpec::FuzzyOr { alpha: -5.0 },
            },
            k: 10,
            deadline_ms: Some(150),
            bound: Some(1.5),
        },
        Request::QueryCompiled {
            query: QuerySpec::MultiPoint {
                points: vec![],
                aggregate: AggregateSpec::Convex,
            },
            k: 10,
            deadline_ms: None,
            bound: None,
        },
        Request::QueryCompiled {
            query: QuerySpec::MultiPoint {
                points: vec![],
                aggregate: AggregateSpec::MultiFocal,
            },
            k: 10,
            deadline_ms: None,
            bound: None,
        },
        Request::ReplFetch { from: 0, max: 128 },
        Request::ReplFetch {
            from: u64::MAX,
            max: u32::MAX,
        },
        Request::ReplApply {
            term: 0,
            lease_ms: 0,
            frames: vec![],
        },
        Request::ReplApply {
            term: 7,
            lease_ms: 1_500,
            frames: vec![1, 2, 3, 0xFF],
        },
        Request::ReplStatus,
        Request::Vote {
            term: u64::MAX,
            lease_ms: 2_000,
        },
    ]
}

/// Every response variant but `Error` and `Stats`.
pub fn responses() -> Vec<Response> {
    let stats = SearchStatsDto {
        nodes_accessed: 12,
        cache_hits: 4,
        disk_reads: 8,
        distance_evaluations: u64::MAX,
    };
    vec![
        Response::SessionCreated {
            session: NANO_SESSION,
        },
        Response::Neighbors {
            session: 11,
            neighbors: vec![
                NeighborDto {
                    id: 3,
                    distance: -0.0,
                },
                NeighborDto {
                    id: 8,
                    distance: 5e-324,
                },
                NeighborDto {
                    id: usize::MAX,
                    distance: 2.5,
                },
            ],
            stats: stats.clone(),
            shards_ok: 2,
            shards_total: 4,
            nodes_ok: 1,
            nodes_total: 1,
            degraded: true,
        },
        Response::Scanned {
            neighbors: vec![NeighborDto {
                id: usize::MAX,
                distance: 5e-324,
            }],
            vectors: vec![EDGE.to_vec()],
            stats: stats.clone(),
            shards_ok: 3,
            shards_total: 4,
        },
        Response::Neighbors {
            session: 0,
            neighbors: vec![],
            stats,
            shards_ok: 0,
            shards_total: 0,
            nodes_ok: 3,
            nodes_total: 3,
            degraded: false,
        },
        Response::FeedAccepted {
            session: NANO_SESSION,
            iteration: 2,
            clusters: Some(3),
        },
        Response::FeedAccepted {
            session: 11,
            iteration: 1,
            clusters: None,
        },
        Response::SessionClosed {
            session: NANO_SESSION,
        },
        Response::Ingested {
            id: 1 << 40,
            total: (1 << 40) + 1,
        },
        Response::Flushed {
            folded_vectors: 7,
            segments: 2,
        },
        Response::Vectors {
            vectors: vec![EDGE.to_vec(), vec![], vec![1.0]],
        },
        Response::Vectors { vectors: vec![] },
        Response::Chunk {
            total: 7,
            frames: vec![9, 9, 9],
        },
        Response::Chunk {
            total: 0,
            frames: vec![],
        },
        Response::Applied {
            total: 12,
            applied: 5,
        },
        Response::ReplStatus {
            total: 3,
            durable: 3,
            term: 9,
            leased: true,
        },
        Response::ReplStatus {
            total: 0,
            durable: 0,
            term: 0,
            leased: false,
        },
        Response::Voted {
            granted: true,
            term: 4,
        },
        Response::Voted {
            granted: false,
            term: u64::MAX,
        },
    ]
}

/// Every service error variant.
pub fn errors() -> Vec<ServiceError> {
    vec![
        ServiceError::UnknownSession(NANO_SESSION),
        ServiceError::DimensionMismatch {
            expected: 3,
            found: 2,
        },
        ServiceError::EmptyFeedback,
        ServiceError::InvalidImageId {
            id: 1000,
            corpus_len: 512,
        },
        ServiceError::InvalidRequest("k must be positive".into()),
        ServiceError::InvalidRequest(String::new()),
        ServiceError::Engine("no clusters yet — ünïcode".into()),
        ServiceError::Storage("wal append failed".into()),
        ServiceError::Spawn("thread limit".into()),
        ServiceError::Overloaded {
            queued: 4096,
            capacity: 4096,
        },
        ServiceError::DeadlineExceeded {
            waited_ms: 150,
            shards_total: 4,
        },
        ServiceError::Internal("channel disconnected".into()),
        ServiceError::StaleTerm { current: 11 },
    ]
}
