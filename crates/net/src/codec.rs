//! The binary payload of [`FrameKind::Request`](crate::frame::FrameKind::Request)
//! and [`FrameKind::Response`](crate::frame::FrameKind::Response) frames:
//! [`encode_request`] / [`decode_request`] and [`encode_response`] /
//! [`decode_response`].
//!
//! - one tag byte per enum variant, numbered from 1 in declaration order;
//! - every integer fixed-width little-endian, `usize` as `u64`;
//! - every `f64` as its 8 little-endian bytes (NaN, ±∞, −0.0 and
//!   subnormals included: the receiver's checks reject what it must);
//! - a `Vec` as a `u32` count and its items, a `Vec<f64>` as the count
//!   and one run of 8-byte values;
//! - an `Option` as a 0/1 byte followed by the value;
//! - a string as a `u32` byte length and its UTF-8.
//!
//! The one field that is not binary is [`Response::Stats`]: it carries
//! the [`MetricsSnapshot`] as one string holding its JSON document.
//!
//! A decoder checks every count against the bytes that remain before it
//! allocates, and an unknown tag, a truncation, a bool that is not 0/1,
//! bad UTF-8 or a trailing byte is a [`FrameError::Payload`]: the
//! server's recoverable "undecodable request" reply. Every `put`
//! destructures its value without `..`, so a new field fails to compile
//! until the codec carries it.

use crate::frame::FrameError;
use qcluster_service::{
    AggregateSpec, FeedPointDto, InverseSpec, MetricsSnapshot, NeighborDto, PointSpec, QuerySpec,
    RepresentativeSpec, Request, Response, SearchStatsDto, ServiceError,
};

fn malformed(msg: String) -> FrameError {
    FrameError::Payload(format!("binary payload: {msg}"))
}

fn unknown_tag(what: &str, tag: u8) -> FrameError {
    malformed(format!("unknown {what} tag {tag}"))
}

/// Reads a payload front to back, every read bounds-checked.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if n > self.remaining() {
            return Err(malformed(format!(
                "truncated: need {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// A `u32` count of items at least `min_size` bytes each, refused
    /// unless that many could still fit: nothing is allocated for a
    /// count the payload cannot back.
    fn count(&mut self, min_size: usize) -> Result<usize, FrameError> {
        let n = self.get::<u32>()? as usize;
        if n.saturating_mul(min_size) > self.remaining() {
            return Err(malformed(format!(
                "count {n} at offset {} overruns the {} bytes that remain",
                self.pos - 4,
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<&'a str, FrameError> {
        let n = self.count(1)?;
        std::str::from_utf8(self.take(n)?).map_err(|e| malformed(format!("string: {e}")))
    }

    fn get<T: Wire>(&mut self) -> Result<T, FrameError> {
        T::get(self)
    }
}

/// A value with a binary wire form.
trait Wire: Sized {
    /// The fewest bytes one encoded value takes.
    const MIN: usize;

    /// Appends the value.
    fn put(&self, w: &mut Vec<u8>);

    /// Reads one value.
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError>;

    /// Appends `items` one after another.
    fn put_all(items: &[Self], w: &mut Vec<u8>) {
        for item in items {
            item.put(w);
        }
    }

    /// Reads `n` values, `n` already checked against the payload.
    fn get_all(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, FrameError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::get(r)?);
        }
        Ok(out)
    }
}

/// `Wire` for an enum: one tag byte per variant, then the variant's
/// fields in order. The variants are matched and their fields bound
/// without `..`, so a new variant or field fails to compile until it is
/// listed here.
macro_rules! wire_enum {
    ($ty:ident { $($tag:literal => $var:ident
        $({ $($f:ident),* })? $(( $($t:ident),* ))?),* $(,)? }) => {
        impl Wire for $ty {
            const MIN: usize = 1;

            fn put(&self, w: &mut Vec<u8>) {
                match self {
                    $($ty::$var $({ $($f),* })? $(( $($t),* ))? => {
                        w.push($tag);
                        $($($f.put(w);)*)?
                        $($($t.put(w);)*)?
                    })*
                }
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
                Ok(match r.get::<u8>()? {
                    $($tag => $ty::$var
                        $({ $($f: r.get()?),* })?
                        $(( $({ let $t = r.get()?; $t }),* ))?,)*
                    tag => return Err(unknown_tag(stringify!($ty), tag)),
                })
            }
        }
    };
}

/// `Wire` for a struct: its fields in order, each read as the type
/// named here (which must be the field's), bound without `..`.
macro_rules! wire_struct {
    ($ty:ident { $($f:ident: $t:ty),* $(,)? }) => {
        impl Wire for $ty {
            const MIN: usize = 0 $(+ <$t as Wire>::MIN)*;

            fn put(&self, w: &mut Vec<u8>) {
                let $ty { $($f),* } = self;
                $($f.put(w);)*
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
                Ok($ty { $($f: <$t as Wire>::get(r)?),* })
            }
        }
    };
}

/// Encodes one value.
fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = Vec::new();
    value.put(&mut w);
    w
}

/// Decodes exactly one value: a trailing byte is an error.
fn decode<T: Wire>(bytes: &[u8]) -> Result<T, FrameError> {
    let mut r = Reader { bytes, pos: 0 };
    let value = r.get()?;
    match r.remaining() {
        0 => Ok(value),
        n => Err(malformed(format!("{n} trailing bytes"))),
    }
}

macro_rules! fixed_width {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN: usize = std::mem::size_of::<$t>();

            fn put(&self, w: &mut Vec<u8>) {
                w.extend_from_slice(&self.to_le_bytes());
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
                r.array().map(<$t>::from_le_bytes)
            }
        }
    )*};
}

fixed_width!(u32, u64);

impl Wire for u8 {
    const MIN: usize = 1;

    fn put(&self, w: &mut Vec<u8>) {
        w.push(*self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(r.take(1)?[0])
    }

    fn put_all(items: &[Self], w: &mut Vec<u8>) {
        w.extend_from_slice(items);
    }

    fn get_all(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, FrameError> {
        r.take(n).map(<[u8]>::to_vec)
    }
}

impl Wire for f64 {
    const MIN: usize = 8;

    fn put(&self, w: &mut Vec<u8>) {
        w.extend_from_slice(&self.to_le_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        r.array().map(f64::from_le_bytes)
    }

    fn put_all(items: &[Self], w: &mut Vec<u8>) {
        let start = w.len();
        w.resize(start + 8 * items.len(), 0);
        for (out, v) in w[start..].chunks_exact_mut(8).zip(items) {
            out.copy_from_slice(&v.to_le_bytes());
        }
    }

    fn get_all(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, FrameError> {
        Ok(r.take(8 * n)?
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
            .collect())
    }
}

impl Wire for usize {
    const MIN: usize = 8;

    fn put(&self, w: &mut Vec<u8>) {
        (*self as u64).put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let v = r.get::<u64>()?;
        usize::try_from(v).map_err(|_| malformed(format!("{v} does not fit a usize")))
    }
}

impl Wire for bool {
    const MIN: usize = 1;

    fn put(&self, w: &mut Vec<u8>) {
        w.push(u8::from(*self));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        match r.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(malformed(format!(
                "byte {v} at offset {} is not a bool",
                r.pos - 1
            ))),
        }
    }
}

impl Wire for String {
    const MIN: usize = 4;

    fn put(&self, w: &mut Vec<u8>) {
        (self.len() as u32).put(w);
        w.extend_from_slice(self.as_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        r.str().map(str::to_owned)
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = 4;

    fn put(&self, w: &mut Vec<u8>) {
        // Truncates only past 2^32 items: far beyond any payload a
        // receiver accepts (`DEFAULT_MAX_PAYLOAD`).
        (self.len() as u32).put(w);
        T::put_all(self, w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let n = r.count(T::MIN)?;
        T::get_all(r, n)
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN: usize = 1;

    fn put(&self, w: &mut Vec<u8>) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(if r.get()? { Some(r.get()?) } else { None })
    }
}

/// Encodes a request as a frame payload.
pub fn encode_request(request: &Request) -> Vec<u8> {
    encode(request)
}

/// Decodes a request payload.
///
/// # Errors
///
/// [`FrameError::Payload`] for anything but exactly one encoded request.
pub fn decode_request(bytes: &[u8]) -> Result<Request, FrameError> {
    decode(bytes)
}

/// Encodes a response as a frame payload. A metrics snapshot that does
/// not serialize is answered as an `Internal` error instead.
pub fn encode_response(response: &Response) -> Vec<u8> {
    encode(response)
}

/// Decodes a response payload.
///
/// # Errors
///
/// [`FrameError::Payload`] for anything but exactly one encoded
/// response.
pub fn decode_response(bytes: &[u8]) -> Result<Response, FrameError> {
    decode(bytes)
}

wire_enum!(Request {
    1 => CreateSession { engine },
    2 => Query { session, k, vector, deadline_ms },
    3 => Feed { session, relevant_ids, scores },
    4 => CloseSession { session },
    5 => Ingest { vector },
    6 => Flush,
    7 => Stats,
    8 => FetchVectors { ids },
    9 => FeedPoints { session, points },
    10 => QueryCompiled { query, k, deadline_ms },
    11 => ReplFetch { from, max },
    12 => ReplApply { term, lease_ms, frames },
    13 => ReplStatus,
    14 => Vote { term, lease_ms },
});

wire_struct!(FeedPointDto {
    id: usize,
    vector: Vec<f64>,
    score: f64,
});

wire_enum!(QuerySpec {
    1 => Euclidean { center },
    2 => WeightedEuclidean { center, weights },
    3 => Cluster(rep),
    4 => Disjunctive { representatives },
    5 => MultiPoint { points, aggregate },
});

wire_struct!(RepresentativeSpec {
    mean: Vec<f64>,
    inverse: InverseSpec,
    mass: f64,
    min_eigenvalue: f64,
});

wire_enum!(InverseSpec {
    1 => Diagonal(weights),
    2 => Full(matrix),
});

wire_struct!(PointSpec {
    center: Vec<f64>,
    weights: Vec<f64>,
    mass: f64,
});

wire_enum!(AggregateSpec {
    1 => Convex,
    2 => MultiFocal,
    3 => FuzzyOr { alpha },
});

wire_struct!(NeighborDto {
    id: usize,
    distance: f64,
});

wire_struct!(SearchStatsDto {
    nodes_accessed: u64,
    cache_hits: u64,
    disk_reads: u64,
    distance_evaluations: u64,
});

wire_enum!(ServiceError {
    1 => UnknownSession(session),
    2 => DimensionMismatch { expected, found },
    3 => EmptyFeedback,
    4 => InvalidImageId { id, corpus_len },
    5 => InvalidRequest(msg),
    6 => Engine(msg),
    7 => Storage(msg),
    8 => Spawn(msg),
    9 => Overloaded { queued, capacity },
    10 => DeadlineExceeded { waited_ms, shards_total },
    11 => Internal(msg),
    12 => StaleTerm { current },
});

/// By hand, for its one exception: `Stats` carries the snapshot's JSON,
/// and a snapshot that does not serialize is sent as an `Internal`
/// error instead.
impl Wire for Response {
    const MIN: usize = 1;

    fn put(&self, w: &mut Vec<u8>) {
        match self {
            Response::SessionCreated { session } => {
                w.push(1);
                session.put(w);
            }
            Response::Neighbors {
                session,
                neighbors,
                stats,
                shards_ok,
                shards_total,
                nodes_ok,
                nodes_total,
                degraded,
            } => {
                w.push(2);
                session.put(w);
                neighbors.put(w);
                stats.put(w);
                for v in [shards_ok, shards_total, nodes_ok, nodes_total] {
                    v.put(w);
                }
                degraded.put(w);
            }
            Response::FeedAccepted {
                session,
                iteration,
                clusters,
            } => {
                w.push(3);
                session.put(w);
                iteration.put(w);
                clusters.put(w);
            }
            Response::SessionClosed { session } => {
                w.push(4);
                session.put(w);
            }
            Response::Ingested { id, total } => {
                w.push(5);
                id.put(w);
                total.put(w);
            }
            Response::Flushed {
                folded_vectors,
                segments,
            } => {
                w.push(6);
                folded_vectors.put(w);
                segments.put(w);
            }
            Response::Stats(snapshot) => match serde_json::to_string(&**snapshot) {
                Ok(json) => {
                    w.push(7);
                    json.put(w);
                }
                Err(e) => Response::Error(ServiceError::Internal(format!(
                    "metrics snapshot failed to serialize: {e}"
                )))
                .put(w),
            },
            Response::Vectors { vectors } => {
                w.push(8);
                vectors.put(w);
            }
            Response::Error(error) => {
                w.push(9);
                error.put(w);
            }
            Response::Chunk { total, frames } => {
                w.push(10);
                total.put(w);
                frames.put(w);
            }
            Response::Applied { total, applied } => {
                w.push(11);
                total.put(w);
                applied.put(w);
            }
            Response::ReplStatus {
                total,
                durable,
                term,
                leased,
            } => {
                w.push(12);
                for v in [total, durable, term] {
                    v.put(w);
                }
                leased.put(w);
            }
            Response::Voted { granted, term } => {
                w.push(13);
                granted.put(w);
                term.put(w);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(match r.get::<u8>()? {
            1 => Response::SessionCreated { session: r.get()? },
            2 => Response::Neighbors {
                session: r.get()?,
                neighbors: r.get()?,
                stats: r.get()?,
                shards_ok: r.get()?,
                shards_total: r.get()?,
                nodes_ok: r.get()?,
                nodes_total: r.get()?,
                degraded: r.get()?,
            },
            3 => Response::FeedAccepted {
                session: r.get()?,
                iteration: r.get()?,
                clusters: r.get()?,
            },
            4 => Response::SessionClosed { session: r.get()? },
            5 => Response::Ingested {
                id: r.get()?,
                total: r.get()?,
            },
            6 => Response::Flushed {
                folded_vectors: r.get()?,
                segments: r.get()?,
            },
            7 => {
                let snapshot: MetricsSnapshot = serde_json::from_str(r.str()?)
                    .map_err(|e| malformed(format!("metrics snapshot: {e}")))?;
                Response::Stats(Box::new(snapshot))
            }
            8 => Response::Vectors { vectors: r.get()? },
            9 => Response::Error(r.get()?),
            10 => Response::Chunk {
                total: r.get()?,
                frames: r.get()?,
            },
            11 => Response::Applied {
                total: r.get()?,
                applied: r.get()?,
            },
            12 => Response::ReplStatus {
                total: r.get()?,
                durable: r.get()?,
                term: r.get()?,
                leased: r.get()?,
            },
            13 => Response::Voted {
                granted: r.get()?,
                term: r.get()?,
            },
            tag => return Err(unknown_tag("response", tag)),
        })
    }
}
