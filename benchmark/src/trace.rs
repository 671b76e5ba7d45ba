//! Spans and the lock-step replay that attributes a round to layers.
//!
//! Every span is recorded from the harness's own files, around a call
//! into a public function of the product. The traced window records
//! client-side spans (session, first result, round, feed, query). The
//! replay then runs a fixed sample of scripted sessions on the idle
//! system once per entry point — `Router` → `Client::call` → `dispatch`
//! → `Service` → `Executor::try_knn` → each `Shard::knn` + `merge_top_k`
//! — comparing every answer with the mirror. A replayed span's parent is
//! the span of the same request one entry point further out; because the
//! child ran in a later pass, "the part children cover" is taken by
//! duration, not by interval.

use crate::session::{same_answer, Script, ScriptQuery, Step};
use crate::system::{answer_of, connect, unexpected, Node};
use qcluster_core::FeedbackPoint;
use qcluster_index::{merge_top_k, Neighbor, NodeCache};
use qcluster_net::Client;
use qcluster_router::Router;
use qcluster_service::{
    dispatch, Executor, ExecutorConfig, FanoutReport, FeedPointDto, NeighborDto, Request, Response,
    Service, ServiceConfig,
};
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::Scope;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub trace_id: u64,
    pub span_id: u64,
    /// 0 for a root.
    pub parent_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span buffer owned by one thread; ids are `base + 1, …`.
#[derive(Debug)]
pub struct SpanSink {
    epoch: Instant,
    base: u64,
    spans: Vec<Span>,
}

impl SpanSink {
    pub fn new(epoch: Instant, base: u64) -> SpanSink {
        SpanSink {
            epoch,
            base,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Starts a span whose end is set later by [`SpanSink::close`].
    pub fn open(&mut self, trace_id: u64, parent_id: u64, name: &'static str, at: Instant) -> u64 {
        let span_id = self.base + self.spans.len() as u64 + 1;
        let start_ns = self.ns(at);
        self.spans.push(Span {
            trace_id,
            span_id,
            parent_id,
            name,
            start_ns,
            end_ns: 0,
        });
        span_id
    }

    pub fn close(&mut self, span_id: u64, at: Instant) {
        let end_ns = self.ns(at);
        let index = (span_id - self.base - 1) as usize;
        self.spans[index].end_ns = end_ns;
    }

    pub fn closed(
        &mut self,
        trace_id: u64,
        parent_id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.open(trace_id, parent_id, name, start);
        self.close(id, end);
        id
    }

    /// The finished spans (a session cut off by the window end is dropped).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_iter().filter(|s| s.end_ns != 0).collect()
    }
}

/// Writes spans as one JSON array.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"trace_id\":{},\"span_id\":{},\"parent_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{comma}",
            s.trace_id, s.span_id, s.parent_id, s.name, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

// ---------------------------------------------------------------------
// Lanes: per-span-name durations, aligned across entry points
// ---------------------------------------------------------------------

/// Durations of one span name in replay order. Entry `i` of the `feed`
/// and `query` lanes of every entry point is the same scripted request,
/// which is what lets a lane be subtracted from its parent's.
#[derive(Debug, Default, Clone)]
struct Lane {
    ids: Vec<u64>,
    ns: Vec<f64>,
}

type Hits = Vec<(usize, f64)>;

/// Everything one replay measured.
#[derive(Debug)]
pub struct Replay {
    lanes: BTreeMap<&'static str, Lane>,
    sink: SpanSink,
    /// Answers compared with the mirror.
    pub checked: u64,
}

impl Replay {
    pub fn new(epoch: Instant, span_base: u64) -> Replay {
        Replay {
            lanes: BTreeMap::new(),
            sink: SpanSink::new(epoch, span_base),
            checked: 0,
        }
    }

    /// Records one span of `lane`; its parent is the span at the same
    /// position of the `parent` lane.
    pub fn record(
        &mut self,
        lane: &'static str,
        parent: Option<&'static str>,
        trace_id: u64,
        start: Instant,
        end: Instant,
    ) {
        let index = self.lanes.get(lane).map_or(0, |l| l.ns.len());
        let parent_id = parent
            .and_then(|p| self.lanes.get(p))
            .and_then(|l| l.ids.get(index))
            .copied()
            .unwrap_or(0);
        let id = self.sink.closed(trace_id, parent_id, lane, start, end);
        let entry = self.lanes.entry(lane).or_default();
        entry.ids.push(id);
        entry.ns.push((end - start).as_nanos() as f64);
    }

    /// One of several spans under the `index`-th span of `parent` (the
    /// shard jobs of one fan-out); not aligned, so never subtracted.
    fn record_under(
        &mut self,
        lane: &'static str,
        parent: (&'static str, usize),
        trace_id: u64,
        start: Instant,
        end: Instant,
    ) {
        let parent_id = self
            .lanes
            .get(parent.0)
            .and_then(|l| l.ids.get(parent.1))
            .copied()
            .unwrap_or(0);
        self.sink.closed(trace_id, parent_id, lane, start, end);
    }

    /// A derived value with no span of its own (a sum, a makespan).
    fn value(&mut self, lane: &'static str, ns: f64) {
        self.lanes.entry(lane).or_default().ns.push(ns);
    }

    pub fn ns(&self, lane: &str) -> &[f64] {
        self.lanes.get(lane).map_or(&[], |l| l.ns.as_slice())
    }

    pub fn median_us(&self, lane: &str) -> f64 {
        crate::stats::median(self.ns(lane)) / 1e3
    }

    /// `a[i] − Σ b[i]` over aligned lanes.
    pub fn minus(&self, a: &str, children: &[&str]) -> Vec<f64> {
        let mut out = self.ns(a).to_vec();
        for child in children {
            for (o, c) in out.iter_mut().zip(self.ns(child)) {
                *o -= c;
            }
        }
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.sink.into_spans()
    }
}

/// Span names of one entry point, by operation.
#[derive(Debug, Clone, Copy)]
pub struct Names {
    pub create: &'static str,
    pub first: &'static str,
    pub feed: &'static str,
    pub query: &'static str,
    pub close: &'static str,
}

pub const ROUTER: Names = Names {
    create: "router.create_session",
    first: "router.first_query",
    feed: "router.feed",
    query: "router.query",
    close: "router.close_session",
};
pub const CLIENT: Names = Names {
    create: "client.create_session",
    first: "client.first_query",
    feed: "client.feed",
    query: "client.query",
    close: "client.close_session",
};
pub const DISPATCH: Names = Names {
    create: "service.dispatch_create_session",
    first: "service.dispatch_first_query",
    feed: "service.dispatch_feed",
    query: "service.dispatch_query",
    close: "service.dispatch_close_session",
};
pub const SERVICE: Names = Names {
    create: "service.session_create",
    first: "service.first_query",
    feed: "service.feed",
    query: "service.query",
    close: "service.session_close",
};

// ---------------------------------------------------------------------
// Running something on every node at once
// ---------------------------------------------------------------------

/// The two ends the caller keeps of one worker: requests in, stamped
/// replies out.
type WorkerLane<Req, Rep> = (Sender<Req>, Receiver<(Instant, Instant, Rep)>);

/// One long-lived worker thread per node, each owning that node's
/// state; a single node has none and its calls run inline, exactly as a
/// client of the product would make them. A worker stamps its own start
/// when it picks a request up and its own end when the call returns, so
/// neither handing the request over nor collecting the reply is counted:
/// `all` returns the earliest start, the latest end and the replies in
/// node order — the time the slowest node took with all nodes busy at
/// once. (Threads spawned per request would pay stack and allocator
/// first-touch inside the timed call; that costs more than a hop.)
struct Crew<S, C, Req, Rep> {
    f: fn(C, usize, &mut S, Req) -> Rep,
    context: C,
    inline: Option<S>,
    lanes: Vec<WorkerLane<Req, Rep>>,
}

impl<S, C, Req, Rep> Crew<S, C, Req, Rep> {
    fn new<'scope>(
        scope: &'scope Scope<'scope, '_>,
        mut states: Vec<S>,
        context: C,
        f: fn(C, usize, &mut S, Req) -> Rep,
    ) -> Self
    where
        S: Send + 'scope,
        C: Copy + Send + 'scope,
        Req: Send + 'scope,
        Rep: Send + 'scope,
    {
        let mut crew = Crew {
            f,
            context,
            inline: None,
            lanes: Vec::new(),
        };
        if states.len() == 1 {
            crew.inline = states.pop();
            return crew;
        }
        for (i, mut state) in states.into_iter().enumerate() {
            let (request_tx, request_rx) = channel::<Req>();
            let (reply_tx, reply_rx) = channel();
            scope.spawn(move || {
                while let Ok(request) = request_rx.recv() {
                    let start = Instant::now();
                    let reply = f(context, i, &mut state, request);
                    if reply_tx.send((start, Instant::now(), reply)).is_err() {
                        break;
                    }
                }
            });
            crew.lanes.push((request_tx, reply_rx));
        }
        crew
    }

    /// One request per node, all at once.
    fn all(&mut self, mut requests: Vec<Req>) -> Result<(Instant, Instant, Vec<Rep>), String>
    where
        C: Copy,
    {
        if let Some(state) = &mut self.inline {
            let request = requests.pop().ok_or("no request for the node")?;
            let start = Instant::now();
            let reply = (self.f)(self.context, 0, state, request);
            return Ok((start, Instant::now(), vec![reply]));
        }
        let gone = |_| "a node worker is gone".to_string();
        for ((tx, _), request) in self.lanes.iter().zip(requests) {
            tx.send(request).map_err(gone)?;
        }
        let mut replies = Vec::with_capacity(self.lanes.len());
        let (mut first, mut last) = (None::<Instant>, None::<Instant>);
        for (_, rx) in &self.lanes {
            let (start, end, reply) = rx.recv().map_err(|_| "a node worker is gone".to_string())?;
            first = Some(first.map_or(start, |f| f.min(start)));
            last = Some(last.map_or(end, |l| l.max(end)));
            replies.push(reply);
        }
        match (first, last) {
            (Some(start), Some(end)) => Ok((start, end, replies)),
            _ => Err("no nodes".into()),
        }
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

struct Timed<T> {
    start: Instant,
    end: Instant,
    value: T,
}

/// One way into the product, driven one scripted session at a time.
trait Front {
    fn create(&mut self) -> Result<Timed<()>, String>;
    fn query(&mut self, vector: Option<&[f64]>) -> Result<Timed<Hits>, String>;
    fn feed(&mut self, fed: &[FeedbackPoint]) -> Result<Timed<()>, String>;
    fn close(&mut self) -> Result<Timed<()>, String>;
}

struct RouterFront<'a> {
    router: &'a Router,
    k: usize,
    session: u64,
}

impl Front for RouterFront<'_> {
    fn create(&mut self) -> Result<Timed<()>, String> {
        let start = Instant::now();
        let session = self.router.create_session(None);
        let end = Instant::now();
        self.session = session.map_err(|e| format!("router: {e}"))?;
        Ok(Timed {
            start,
            end,
            value: (),
        })
    }

    fn query(&mut self, vector: Option<&[f64]>) -> Result<Timed<Hits>, String> {
        let vector = vector.map(<[f64]>::to_vec);
        let start = Instant::now();
        let report = self.router.query(self.session, self.k, vector, None);
        let end = Instant::now();
        let report = report.map_err(|e| format!("router: {e}"))?;
        let answer = answer_of(report.response)?;
        if answer.degraded {
            return Err(format!("router: degraded, failures {:?}", report.failures));
        }
        Ok(Timed {
            start,
            end,
            value: answer
                .neighbors
                .iter()
                .map(|n| (n.id, n.distance))
                .collect(),
        })
    }

    fn feed(&mut self, fed: &[FeedbackPoint]) -> Result<Timed<()>, String> {
        let ids: Vec<usize> = fed.iter().map(|p| p.id).collect();
        let start = Instant::now();
        let response = self.router.feed(self.session, &ids, None);
        let end = Instant::now();
        match response.map_err(|e| format!("router: {e}"))? {
            Response::FeedAccepted { .. } => Ok(Timed {
                start,
                end,
                value: (),
            }),
            other => Err(unexpected("router feed", &other)),
        }
    }

    fn close(&mut self) -> Result<Timed<()>, String> {
        let start = Instant::now();
        let closed = self.router.close_session(self.session);
        let end = Instant::now();
        closed.map_err(|e| format!("router: {e}"))?;
        Ok(Timed {
            start,
            end,
            value: (),
        })
    }
}

/// How a node-level entry point takes one request.
type NodeCall<S> = fn(&Service, &mut S, Request) -> Result<Response, String>;

fn via_client(_: &Service, client: &mut Client, request: Request) -> Result<Response, String> {
    client.call(&request).map_err(|e| format!("net: {e}"))
}

fn via_dispatch(service: &Service, _: &mut (), request: Request) -> Result<Response, String> {
    Ok(dispatch(service, request))
}

/// The `Service` methods `dispatch` maps each request onto, called
/// directly.
fn via_service(service: &Service, _: &mut (), request: Request) -> Result<Response, String> {
    let fail = |e| format!("service: {e}");
    match request {
        Request::CreateSession { .. } => service
            .create_session()
            .map(|session| Response::SessionCreated { session })
            .map_err(fail),
        Request::Query {
            session, k, vector, ..
        } => {
            let out = match vector {
                Some(v) => service.query_vector(session, v, k),
                None => service.query(session, k),
            }
            .map_err(fail)?;
            let degraded = out.degraded();
            Ok(Response::Neighbors {
                session,
                neighbors: out.neighbors.into_iter().map(NeighborDto::from).collect(),
                stats: out.stats.into(),
                shards_ok: out.shards_ok,
                shards_total: out.shards_total,
                nodes_ok: 1,
                nodes_total: 1,
                degraded,
            })
        }
        Request::Feed {
            session,
            relevant_ids,
            ..
        } => service
            .feed_ids(session, &relevant_ids, None)
            .map(|out| Response::FeedAccepted {
                session,
                iteration: out.iteration,
                clusters: out.clusters,
            })
            .map_err(fail),
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
                .map_err(fail)
        }
        Request::CloseSession { session } => service
            .close_session(session)
            .map(|()| Response::SessionClosed { session })
            .map_err(fail),
        other => Err(format!("the replay never sends {other:?}")),
    }
}

/// What a node worker needs besides its own state.
type NodeContext<'a, S> = (&'a [&'a Service], NodeCall<S>);

fn node_call<S>(
    (services, call): NodeContext<'_, S>,
    node: usize,
    state: &mut S,
    request: Request,
) -> Result<Response, String> {
    call(services[node], state, request)
}

/// The same request to every node at once through one kind of entry
/// point; one node for a single-node workload. Behind a router, nodes
/// get what the router sends them: `FeedPoints` with the vectors.
struct NodeFront<'a, S> {
    crew: Crew<S, NodeContext<'a, S>, Request, Result<Response, String>>,
    id_bases: Vec<usize>,
    sessions: Vec<u64>,
    k: usize,
}

impl<'a, S: Send + 'a> NodeFront<'a, S> {
    fn new<'scope>(
        scope: &'scope Scope<'scope, '_>,
        services: &'a [&'a Service],
        id_bases: Vec<usize>,
        states: Vec<S>,
        call: NodeCall<S>,
        k: usize,
    ) -> NodeFront<'a, S>
    where
        'a: 'scope,
    {
        NodeFront {
            sessions: vec![0; states.len()],
            crew: Crew::new(scope, states, (services, call), node_call::<S>),
            id_bases,
            k,
        }
    }

    fn all(&mut self, build: impl Fn(u64) -> Request) -> Result<Timed<Vec<Response>>, String> {
        let requests = self.sessions.iter().map(|&s| build(s)).collect();
        let (start, end, replies) = self.crew.all(requests)?;
        let value = replies.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(Timed { start, end, value })
    }
}

impl<'a, S: Send + 'a> Front for NodeFront<'a, S> {
    fn create(&mut self) -> Result<Timed<()>, String> {
        let done = self.all(|_| Request::CreateSession { engine: None })?;
        for (slot, response) in self.sessions.iter_mut().zip(done.value) {
            match response {
                Response::SessionCreated { session } => *slot = session,
                other => return Err(unexpected("create", &other)),
            }
        }
        Ok(Timed {
            start: done.start,
            end: done.end,
            value: (),
        })
    }

    fn query(&mut self, vector: Option<&[f64]>) -> Result<Timed<Hits>, String> {
        let k = self.k;
        let done = self.all(|session| Request::Query {
            session,
            k,
            vector: vector.map(<[f64]>::to_vec),
            deadline_ms: None,
        })?;
        let mut lists = Vec::with_capacity(done.value.len());
        for (response, base) in done.value.into_iter().zip(&self.id_bases) {
            let answer = answer_of(response)?;
            if answer.degraded {
                return Err("a node answered degraded".into());
            }
            lists.push(
                answer
                    .neighbors
                    .iter()
                    .map(|n| Neighbor {
                        id: n.id + base,
                        distance: n.distance,
                    })
                    .collect::<Vec<_>>(),
            );
        }
        let merged = merge_top_k(lists, k);
        Ok(Timed {
            start: done.start,
            end: done.end,
            value: merged.iter().map(|n| (n.id, n.distance)).collect(),
        })
    }

    fn feed(&mut self, fed: &[FeedbackPoint]) -> Result<Timed<()>, String> {
        let clustered = self.sessions.len() > 1;
        let done = self.all(|session| {
            if clustered {
                Request::FeedPoints {
                    session,
                    points: fed
                        .iter()
                        .map(|p| FeedPointDto {
                            id: p.id,
                            vector: p.vector.clone(),
                            score: p.score,
                        })
                        .collect(),
                }
            } else {
                Request::Feed {
                    session,
                    relevant_ids: fed.iter().map(|p| p.id).collect(),
                    scores: None,
                }
            }
        })?;
        for response in &done.value {
            if !matches!(response, Response::FeedAccepted { .. }) {
                return Err(unexpected("feed", response));
            }
        }
        Ok(Timed {
            start: done.start,
            end: done.end,
            value: (),
        })
    }

    fn close(&mut self) -> Result<Timed<()>, String> {
        let done = self.all(|session| Request::CloseSession { session })?;
        for response in &done.value {
            if !matches!(response, Response::SessionClosed { .. }) {
                return Err(unexpected("close", response));
            }
        }
        Ok(Timed {
            start: done.start,
            end: done.end,
            value: (),
        })
    }
}

/// Drives one script through one entry point, recording one span per
/// request under `names` with the same request's span under `parents`
/// as parent, and comparing every answer with the mirror.
fn replay_front(
    replay: &mut Replay,
    front: &mut dyn Front,
    names: Names,
    parents: Option<Names>,
    script: &Script,
    trace_id: u64,
) -> Result<(), String> {
    let at = |e: String| format!("{}: {e}", names.query);
    let t = front.create().map_err(at)?;
    replay.record(
        names.create,
        parents.map(|p| p.create),
        trace_id,
        t.start,
        t.end,
    );
    for (i, step) in script.steps.iter().enumerate() {
        let t = if i == 0 {
            let t = front.query(Some(&script.example)).map_err(at)?;
            replay.record(
                names.first,
                parents.map(|p| p.first),
                trace_id,
                t.start,
                t.end,
            );
            t
        } else {
            let f = front.feed(&step.fed).map_err(at)?;
            replay.record(
                names.feed,
                parents.map(|p| p.feed),
                trace_id,
                f.start,
                f.end,
            );
            let t = front.query(None).map_err(at)?;
            replay.record(
                names.query,
                parents.map(|p| p.query),
                trace_id,
                t.start,
                t.end,
            );
            t
        };
        same_answer(t.value.iter().copied(), &step.expected)
            .map_err(|e| at(format!("step {i}: {e}")))?;
        replay.checked += 1;
    }
    let t = front.close().map_err(at)?;
    replay.record(
        names.close,
        parents.map(|p| p.close),
        trace_id,
        t.start,
        t.end,
    );
    Ok(())
}

// ---------------------------------------------------------------------
// Executor and shards
// ---------------------------------------------------------------------

fn fresh_caches(service: &Service) -> Vec<Arc<Mutex<NodeCache>>> {
    service
        .corpus()
        .shards()
        .iter()
        .map(|s| Arc::new(Mutex::new(NodeCache::new(s.num_nodes()))))
        .collect()
}

/// The base corpus only: an expected answer minus live-ingested ids
/// must be a prefix of what the shards alone return.
fn same_base_answer(got: &[Neighbor], step: &Step, base_len: usize) -> Result<(), String> {
    let expected: Vec<Neighbor> = step
        .expected
        .iter()
        .filter(|n| n.id < base_len)
        .copied()
        .collect();
    let got = got.iter().take(expected.len()).map(|n| (n.id, n.distance));
    same_answer(got, &expected)
}

fn globalize(mut list: Vec<Neighbor>, id_base: usize) -> Vec<Neighbor> {
    for n in &mut list {
        n.id += id_base;
    }
    list
}

/// Executors configured as `Service::new` configures its own (the
/// service's is private), one per node.
fn stand_in_executors(nodes: &[Node]) -> Result<Vec<Executor>, String> {
    let config = ServiceConfig::default();
    nodes
        .iter()
        .map(|_| {
            Executor::with_config(ExecutorConfig {
                num_workers: config.num_workers,
                max_queued_jobs: config.max_queued_jobs,
                breaker_threshold: config.breaker_threshold,
                breaker_cooldown: config.breaker_cooldown,
            })
            .map_err(|e| format!("executor: {e}"))
        })
        .collect()
}

/// What an executor worker needs: the nodes' services, the executors
/// standing in for theirs, and `k`.
type FanoutContext<'a> = (&'a [&'a Service], &'a [Executor], usize);
type FanoutRequest = (ScriptQuery, Vec<Arc<Mutex<NodeCache>>>);
type FanoutCrew<'a> = Crew<(), FanoutContext<'a>, FanoutRequest, Result<FanoutReport, String>>;

fn fan_out(
    (services, executors, k): FanoutContext<'_>,
    node: usize,
    _: &mut (),
    (query, caches): FanoutRequest,
) -> Result<FanoutReport, String> {
    let corpus = services[node].corpus();
    match &query {
        ScriptQuery::Example(q) => executors[node].try_knn(corpus, q, k, Some(&caches), None),
        ScriptQuery::Refined(q) => executors[node].try_knn(corpus, q, k, Some(&caches), None),
    }
    .map_err(|e| format!("try_knn: {e}"))
}

/// `Executor::try_knn` over each node's corpus with the mirror's
/// compiled queries of one script, all nodes at once. `replay` is
/// `None` for the untimed pass that warms the fresh worker threads.
fn replay_executor(
    mut replay: Option<&mut Replay>,
    crew: &mut FanoutCrew<'_>,
    nodes: &[Node],
    script: &Script,
    k: usize,
    base_len: usize,
    trace_id: u64,
) -> Result<(), String> {
    let caches: Vec<_> = nodes.iter().map(|n| fresh_caches(&n.service)).collect();
    for (i, step) in script.steps.iter().enumerate() {
        let requests = caches
            .iter()
            .map(|c| (step.query.clone(), c.clone()))
            .collect();
        let (start, end, reports) = crew.all(requests)?;
        let (lane, parent) = if i == 0 {
            ("service.executor_fanout_first", SERVICE.first)
        } else {
            ("service.executor_fanout", SERVICE.query)
        };
        let mut lists = Vec::with_capacity(nodes.len());
        for (report, node) in reports.into_iter().zip(nodes) {
            let report = report?;
            if report.degraded() {
                return Err(format!("try_knn degraded: {:?}", report.failures));
            }
            lists.push(globalize(report.neighbors, node.id_base));
        }
        same_base_answer(&merge_top_k(lists, k), step, base_len)
            .map_err(|e| format!("try_knn, step {i}: {e}"))?;
        if let Some(replay) = replay.as_deref_mut() {
            replay.record(lane, Some(parent), trace_id, start, end);
            replay.checked += 1;
        }
    }
    Ok(())
}

/// Each `Shard::knn` of one script one after the other, then
/// `merge_top_k` per node. `service.shard_knn` is the blocking share:
/// the ideal makespan of the shard jobs on the cores the box has (they
/// run on a worker pool in the product); `_sum` is the busy time, `_max`
/// the slowest shard.
fn replay_shards(
    replay: &mut Replay,
    nodes: &[Node],
    script: &Script,
    sample: usize,
    k: usize,
    base_len: usize,
    trace_id: u64,
) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let workers = ServiceConfig::default().num_workers * nodes.len();
    let lanes_wide = cores.min(workers) as f64;
    let rounds = script.steps.len() - 1;
    let caches: Vec<_> = nodes.iter().map(|n| fresh_caches(&n.service)).collect();
    for (i, step) in script.steps.iter().enumerate() {
        let refined = i > 0;
        // The fan-out span of the same refined query, one level out.
        let fanout = ("service.executor_fanout", sample * rounds + i.max(1) - 1);
        let (mut sum, mut max, mut merge_ns) = (0.0_f64, 0.0_f64, 0.0_f64);
        let mut node_lists = Vec::with_capacity(nodes.len());
        for (node, node_caches) in nodes.iter().zip(&caches) {
            let mut lists = Vec::new();
            for (shard, cache) in node.service.corpus().shards().iter().zip(node_caches) {
                let mut cache = cache.lock().expect("cache lock");
                let start = Instant::now();
                let (list, _) = match &step.query {
                    ScriptQuery::Example(q) => shard.knn(q, k, Some(&mut cache)),
                    ScriptQuery::Refined(q) => shard.knn(q, k, Some(&mut cache)),
                };
                let end = Instant::now();
                let ns = (end - start).as_nanos() as f64;
                sum += ns;
                max = max.max(ns);
                if refined {
                    replay.record_under("service.shard_knn", fanout, trace_id, start, end);
                }
                lists.push(list);
            }
            let start = Instant::now();
            let merged = merge_top_k(lists, k);
            let end = Instant::now();
            merge_ns = merge_ns.max((end - start).as_nanos() as f64);
            if refined {
                replay.record_under("service.merge_top_k", fanout, trace_id, start, end);
            }
            node_lists.push(globalize(merged, node.id_base));
        }
        if refined {
            replay.value("service.shard_knn", max.max(sum / lanes_wide));
            replay.value("service.shard_knn_sum", sum);
            replay.value("service.shard_knn_max", max);
            replay.value("service.merge_top_k", merge_ns);
        }
        same_base_answer(&merge_top_k(node_lists, k), step, base_len)
            .map_err(|e| format!("shards, step {i}: {e}"))?;
        replay.checked += 1;
    }
    Ok(())
}

/// The router's fetch leg of one script: `FetchVectors` to each owner in
/// turn, as `Router::feed` resolves the marked ids before broadcasting.
fn replay_fetch(
    replay: &mut Replay,
    nodes: &[Node],
    clients: &mut [Client],
    script: &Script,
    trace_id: u64,
) -> Result<(), String> {
    for step in &script.steps[1..] {
        let requests: Vec<Request> = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let end = nodes.get(i + 1).map_or(usize::MAX, |next| next.id_base);
                Request::FetchVectors {
                    ids: step
                        .fed
                        .iter()
                        .filter(|p| p.id >= node.id_base && p.id < end)
                        .map(|p| p.id - node.id_base)
                        .collect(),
                }
            })
            .collect();
        let start = Instant::now();
        for (client, request) in clients.iter_mut().zip(&requests) {
            if matches!(request, Request::FetchVectors { ids } if ids.is_empty()) {
                continue;
            }
            match client.call(request).map_err(|e| format!("net: {e}"))? {
                Response::Vectors { .. } => {}
                other => return Err(unexpected("FetchVectors", &other)),
            }
        }
        let end = Instant::now();
        replay.record("router.feed_fetch", Some(ROUTER.feed), trace_id, start, end);
    }
    Ok(())
}

/// Tells glibc's allocator to keep freed memory for the rest of the
/// process; returns whether it took. A scan allocates and frees a few MB
/// of scratch per call. On the service's long-lived worker threads those
/// blocks are recycled; on a fresh thread — the replay's stand-in
/// executors, the probes — the allocator trims them back to the kernel
/// after every call and the next call pages them in again, ≈ 25 % on top
/// of a 1M-point scan, which made the deeper entry points slower than the
/// calls that contain them. Called after the window, so nothing end to
/// end runs under it.
pub fn keep_freed_memory() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` is glibc's documented tuning call; it takes
        // two ints by value, changes allocator parameters only under the
        // allocator's own lock, and may be called at any time from any
        // thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// The whole lock-step replay on an idle system: every sample session
/// through every entry point in turn, outermost first, so that a drift
/// of the box during the replay touches all entry points alike.
/// `router` is the workload's own router, or a one-partition probe
/// router in front of the single node (so the router layer is costed on
/// every workload).
pub fn replay_all(
    replay: &mut Replay,
    nodes: &[Node],
    router: &Router,
    scripts: &[Script],
    k: usize,
    base_len: usize,
) -> Result<(), String> {
    let connect_all = || {
        nodes
            .iter()
            .map(|n| connect(n.addr))
            .collect::<Result<Vec<_>, _>>()
    };
    let units = || nodes.iter().map(|_| ()).collect::<Vec<()>>();
    let id_bases = || nodes.iter().map(|n| n.id_base).collect::<Vec<_>>();
    let services: Vec<&Service> = nodes.iter().map(|n| &*n.service).collect();
    let services = services.as_slice();
    let executors = stand_in_executors(nodes)?;
    let mut fetch_clients = connect_all()?;
    let node_clients = connect_all()?;
    // The workers end when their crews drop, at the end of the scope.
    std::thread::scope(|scope| {
        let mut through_router = RouterFront {
            router,
            k,
            session: 0,
        };
        let mut through_clients =
            NodeFront::new(scope, services, id_bases(), node_clients, via_client, k);
        let mut through_dispatch =
            NodeFront::new(scope, services, id_bases(), units(), via_dispatch, k);
        let mut through_service =
            NodeFront::new(scope, services, id_bases(), units(), via_service, k);
        let mut fanout: FanoutCrew<'_> =
            Crew::new(scope, units(), (services, executors.as_slice(), k), fan_out);
        if let Some(first) = scripts.first() {
            replay_executor(None, &mut fanout, nodes, first, k, base_len, 0)?;
        }
        for (s, script) in scripts.iter().enumerate() {
            let id = |level: u64| (level << 32) | s as u64;
            let at = |e: String| format!("replay of sample session {s}: {e}");
            replay_front(replay, &mut through_router, ROUTER, None, script, id(1)).map_err(at)?;
            replay_fetch(replay, nodes, &mut fetch_clients, script, id(2)).map_err(at)?;
            replay_front(
                replay,
                &mut through_clients,
                CLIENT,
                Some(ROUTER),
                script,
                id(3),
            )
            .map_err(at)?;
            replay_front(
                replay,
                &mut through_dispatch,
                DISPATCH,
                Some(CLIENT),
                script,
                id(4),
            )
            .map_err(at)?;
            replay_front(
                replay,
                &mut through_service,
                SERVICE,
                Some(DISPATCH),
                script,
                id(5),
            )
            .map_err(at)?;
            replay_executor(
                Some(&mut *replay),
                &mut fanout,
                nodes,
                script,
                k,
                base_len,
                id(6),
            )
            .map_err(at)?;
            replay_shards(replay, nodes, script, s, k, base_len, id(7)).map_err(at)?;
        }
        Ok(())
    })
}

// ---------------------------------------------------------------------
// The budget
// ---------------------------------------------------------------------

/// One row of the budget: a span name and the lanes its children fill.
struct Row {
    name: &'static str,
    children: &'static [&'static str],
}

/// The blocking path of one round below the router.
const NODE_ROWS: [Row; 11] = [
    Row {
        name: "client.feed",
        children: &["service.dispatch_feed"],
    },
    Row {
        name: "service.dispatch_feed",
        children: &["service.feed"],
    },
    Row {
        name: "service.feed",
        children: &["core.feed"],
    },
    Row {
        name: "core.feed",
        children: &[],
    },
    Row {
        name: "client.query",
        children: &["service.dispatch_query"],
    },
    Row {
        name: "service.dispatch_query",
        children: &["service.query"],
    },
    Row {
        name: "service.query",
        children: &["core.compile", "service.executor_fanout"],
    },
    Row {
        name: "core.compile",
        children: &[],
    },
    Row {
        name: "service.executor_fanout",
        children: &["service.shard_knn", "service.merge_top_k"],
    },
    Row {
        name: "service.shard_knn",
        children: &[],
    },
    Row {
        name: "service.merge_top_k",
        children: &[],
    },
];

/// The router's own rows, on top of the node rows.
const ROUTER_ROWS: [Row; 3] = [
    Row {
        name: "router.feed",
        children: &["router.feed_fetch", "client.feed"],
    },
    Row {
        name: "router.feed_fetch",
        children: &[],
    },
    Row {
        name: "router.query",
        children: &["client.query"],
    },
];

#[derive(Debug, Clone)]
pub struct BudgetRow {
    pub name: &'static str,
    /// Median self time, microseconds.
    pub self_us: f64,
    /// Median duration, microseconds.
    pub total_us: f64,
}

#[derive(Debug, Clone)]
pub struct Budget {
    pub rows: Vec<BudgetRow>,
    /// Median traced round (top entry point's feed + refined query).
    pub round_us: f64,
    /// How far the rows are from summing to `round_us`, percent of it.
    pub residual_pct: f64,
}

/// Median self time per span name along the blocking path of a round.
/// `through_router` says whether the served path has a router in it.
pub fn budget(replay: &Replay, through_router: bool) -> Budget {
    let top = if through_router { ROUTER } else { CLIENT };
    let mut rows = Vec::new();
    let listed = through_router
        .then_some(ROUTER_ROWS.iter())
        .into_iter()
        .flatten()
        .chain(NODE_ROWS.iter());
    for row in listed {
        rows.push(BudgetRow {
            name: row.name,
            self_us: crate::stats::median(&replay.minus(row.name, row.children)) / 1e3,
            total_us: replay.median_us(row.name),
        });
    }
    let rounds: Vec<f64> = replay
        .ns(top.feed)
        .iter()
        .zip(replay.ns(top.query))
        .map(|(f, q)| f + q)
        .collect();
    let round_us = crate::stats::median(&rounds) / 1e3;
    let sum: f64 = rows.iter().map(|r| r.self_us).sum();
    let residual_pct = if round_us > 0.0 {
        (round_us - sum) / round_us * 100.0
    } else {
        0.0
    };
    Budget {
        rows,
        round_us,
        residual_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let epoch = Instant::now();
        let mut replay = Replay::new(epoch, 0);
        let at = |us: u64| epoch + Duration::from_micros(us);
        // Two rounds; the child of each request ran in a later pass.
        for (feed, query) in [(300, 7_000), (320, 7_100)] {
            replay.record("client.feed", None, 1, at(0), at(feed));
            replay.record("client.query", None, 1, at(0), at(query));
        }
        for (feed, query) in [(200, 6_800), (210, 6_950)] {
            replay.record(
                "service.dispatch_feed",
                Some("client.feed"),
                2,
                at(0),
                at(feed),
            );
            replay.record(
                "service.dispatch_query",
                Some("client.query"),
                2,
                at(0),
                at(query),
            );
        }
        assert_eq!(
            replay.minus("client.feed", &["service.dispatch_feed"]),
            [100e3, 110e3]
        );
        let b = budget(&replay, false);
        let net_query = b.rows.iter().find(|r| r.name == "client.query").unwrap();
        assert!((net_query.self_us - 175.0).abs() < 1e-9);
        // Rows telescope: with nothing measured below dispatch, dispatch
        // keeps its whole duration and the rows sum to the round.
        assert!((b.round_us - 7_360.0).abs() < 1e-9);
        assert!(b.residual_pct.abs() < 1.0, "{}", b.residual_pct);

        let spans = replay.into_spans();
        let parent = spans.iter().find(|s| s.name == "client.query").unwrap();
        let child = spans
            .iter()
            .find(|s| s.name == "service.dispatch_query")
            .unwrap();
        assert_eq!(child.parent_id, parent.span_id);
    }

    #[test]
    fn unfinished_spans_are_dropped() {
        let epoch = Instant::now();
        let mut sink = SpanSink::new(epoch, 100);
        let open = sink.open(1, 0, "client.session", epoch);
        let done = sink.closed(
            1,
            open,
            "client.round",
            epoch,
            epoch + Duration::from_micros(5),
        );
        assert_eq!((open, done), (101, 102));
        let spans = sink.into_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].parent_id, 101);
        assert_eq!(spans[0].end_ns, 5_000);
    }
}
