//! `llpd_mixed`: an in-process llpd server driven in a closed loop by
//! two kept-alive clients replaying a seeded request stream.
//!
//! The stream repeats a 20-request cycle of fixed composition, so every
//! seed loads the server the same way and only the order and the exact
//! request bodies change:
//!
//! * two `/metrics` scrapes, at positions 0 and 10 (periodic);
//! * six hits: each body of the hot set once, in seeded order — the hot
//!   set is solved during set-up, and each of its entries is touched
//!   once a cycle, far more often than the 128-entry cache evicts;
//! * twelve misses: each miss shape of [`MISSES`] once, made fresh by a
//!   `workers` value (2..=64) no earlier request of this shape used.
//!   The pool has two workers, so every such value runs the same two-
//!   worker solve; only the cache key differs. A shape reuses a value
//!   after 63 cycles, long after the cache evicted it, so it is still
//!   a miss.
//!
//! The repository holds no recorded llpd traffic, so this mix is an
//! assumption: each share is the smallest that covers the axes the
//! workload exercises and gives each latency set enough samples.
//! README.md ("Basis of the `llpd_mixed` mix") gives the reasoning.

use crate::closure::Closure;
use crate::gate::Gate;
use crate::library::Budget;
use crate::metrics::Sink;
use crate::rng::Rng;
use crate::stats::{median, median_completion_rate, Summary};
use crate::{alloc, probes, WORKERS};
use llp::obs::json::Json;
use serve::{Server, ServerConfig};
use std::collections::HashMap;
use std::hash::Hasher;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Requests per cycle.
pub const CYCLE: usize = 20;
/// Cycle positions of the `/metrics` scrapes.
const SCRAPES: [usize; 2] = [0, 10];
/// Distinct `workers` values a miss shape cycles through (2..=64).
const WORKER_VALUES: usize = 63;
/// Kept-alive client connections.
pub const CLIENTS: usize = 2;
/// Server set-ups timed per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// A chunk-scheduling request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sched {
    /// `"static"`.
    Static,
    /// `"dynamic"` with this chunk.
    Dynamic(usize),
    /// `"guided"` with this minimum chunk.
    Guided(usize),
}

/// The shape of one solve request, all but its `workers` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// An f3d solve; `shards` selects zone scheduling.
    F3d {
        /// J-chained zones.
        zones: usize,
        /// Time steps.
        steps: usize,
        /// Chunk scheduling.
        sched: Sched,
        /// SLP width.
        width: usize,
        /// Zone shards (`None`: sequential zones).
        shards: Option<usize>,
    },
    /// An fdtd solve.
    Fdtd {
        /// Grid edge.
        size: usize,
        /// Time steps.
        steps: usize,
        /// Chunk scheduling.
        sched: Sched,
        /// SLP width.
        width: usize,
    },
}

const fn f3d(
    zones: usize,
    steps: usize,
    sched: Sched,
    width: usize,
    shards: Option<usize>,
) -> Shape {
    Shape::F3d {
        zones,
        steps,
        sched,
        width,
        shards,
    }
}

const fn fdtd(size: usize, steps: usize, sched: Sched, width: usize) -> Shape {
    Shape::Fdtd {
        size,
        steps,
        sched,
        width,
    }
}

/// The hot set: static schedules, which no miss shape uses, so a hot
/// body never collides with a miss.
pub const HOT: [Shape; 6] = [
    f3d(4, 8, Sched::Static, 1, None),
    f3d(2, 4, Sched::Static, 2, None),
    f3d(4, 4, Sched::Static, 4, Some(2)),
    f3d(3, 8, Sched::Static, 8, None),
    fdtd(32, 16, Sched::Static, 1),
    fdtd(64, 8, Sched::Static, 8),
];

/// The miss shapes: dynamic and guided schedules, widths {2, 4, 8},
/// sequential and zone-scheduled f3d, and fdtd.
pub const MISSES: [Shape; 12] = [
    f3d(4, 8, Sched::Dynamic(1), 2, None),
    f3d(4, 8, Sched::Guided(1), 4, None),
    f3d(2, 8, Sched::Dynamic(2), 8, None),
    f3d(3, 4, Sched::Guided(2), 2, None),
    f3d(1, 4, Sched::Dynamic(1), 4, None),
    f3d(4, 8, Sched::Dynamic(2), 8, Some(2)),
    f3d(4, 4, Sched::Guided(1), 2, Some(4)),
    f3d(2, 4, Sched::Dynamic(1), 4, Some(2)),
    fdtd(32, 16, Sched::Dynamic(4), 2),
    fdtd(64, 16, Sched::Guided(2), 4),
    fdtd(32, 32, Sched::Dynamic(8), 8),
    fdtd(48, 16, Sched::Guided(4), 2),
];

fn sched_json(sched: Sched) -> String {
    match sched {
        Sched::Static => r#""schedule": "static""#.to_string(),
        Sched::Dynamic(c) => format!(r#""schedule": "dynamic", "chunk": {c}"#),
        Sched::Guided(c) => format!(r#""schedule": "guided", "chunk": {c}"#),
    }
}

impl Shape {
    /// The `/v1/solve` body for this shape at `workers`.
    #[must_use]
    pub fn body(&self, workers: usize) -> String {
        match *self {
            Shape::F3d {
                zones,
                steps,
                sched,
                width,
                shards,
            } => {
                let zs = shards.map_or(String::new(), |s| format!(r#", "zone_schedule": {s}"#));
                format!(
                    r#"{{"solver": "f3d", "zones": {zones}, "steps": {steps}, "workers": {workers}, {}, "vector_width": {width}{zs}}}"#,
                    sched_json(sched)
                )
            }
            Shape::Fdtd {
                size,
                steps,
                sched,
                width,
            } => format!(
                r#"{{"solver": "fdtd", "size": {size}, "steps": {steps}, "workers": {workers}, {}, "vector_width": {width}}}"#,
                sched_json(sched)
            ),
        }
    }

    /// The solve-layer metric this shape's direct runs feed.
    #[must_use]
    pub fn category(&self) -> &'static str {
        match self {
            Shape::F3d { shards: None, .. } => "solve.f3d_ms_p50",
            Shape::F3d { .. } => "zones.solve_ms_p50",
            Shape::Fdtd { .. } => "solve.fdtd_ms_p50",
        }
    }
}

/// The miss shapes at the pool's own worker count: the miss set the
/// solve layer is measured on. Independent of the seed, so the solve
/// layer and the memory estimate (which scales with `workers`) are
/// measured on the same cases in every run.
#[must_use]
pub fn miss_set() -> Vec<(Shape, String)> {
    MISSES.iter().map(|s| (*s, s.body(WORKERS))).collect()
}

/// One request of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Req {
    /// `GET /metrics`.
    Scrape,
    /// `POST /v1/solve` with this JSON body.
    Solve(String),
}

impl Req {
    /// The request's wire bytes.
    #[must_use]
    pub fn raw(&self) -> String {
        match self {
            Req::Scrape => "GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n".to_string(),
            Req::Solve(body) => format!(
                "POST /v1/solve HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        }
    }
}

/// The seeded request stream: request `i` is a pure function of the
/// seed and `i`.
#[derive(Debug, Clone)]
pub struct Stream {
    seed: u64,
    hot_workers: [usize; HOT.len()],
    miss_offsets: [usize; MISSES.len()],
}

impl Stream {
    /// The stream for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 3);
        let mut hot_workers = [0; HOT.len()];
        for w in &mut hot_workers {
            *w = 2 + rng.below(WORKER_VALUES);
        }
        let mut miss_offsets = [0; MISSES.len()];
        for o in &mut miss_offsets {
            *o = rng.below(WORKER_VALUES);
        }
        Self {
            seed,
            hot_workers,
            miss_offsets,
        }
    }

    /// The hot-set bodies, which set-up solves once.
    #[must_use]
    pub fn hot_bodies(&self) -> Vec<String> {
        HOT.iter()
            .zip(self.hot_workers)
            .map(|(s, w)| s.body(w))
            .collect()
    }

    fn miss_body(&self, shape: usize, cycle: usize) -> String {
        let workers = 2 + (cycle + self.miss_offsets[shape]) % WORKER_VALUES;
        MISSES[shape].body(workers)
    }

    /// Request `i` of the stream.
    #[must_use]
    pub fn request(&self, i: usize) -> Req {
        let (cycle, pos) = (i / CYCLE, i % CYCLE);
        if SCRAPES.contains(&pos) {
            return Req::Scrape;
        }
        // The cycle's 18 solve slots: hot indices, then miss shapes
        // (offset by HOT.len()), shuffled by a per-cycle generator.
        let mut slots: Vec<usize> = (0..HOT.len() + MISSES.len()).collect();
        Rng::new(self.seed, 16 + cycle as u64).shuffle(&mut slots);
        let slot = slots[pos - SCRAPES.iter().filter(|&&s| s < pos).count()];
        Req::Solve(if slot < HOT.len() {
            HOT[slot].body(self.hot_workers[slot])
        } else {
            self.miss_body(slot - HOT.len(), cycle)
        })
    }
}

/// One kept-alive connection; replies are framed by `Content-Length`.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Send one request and read its reply: (status, body).
    fn roundtrip(&mut self, raw: &[u8]) -> std::io::Result<(u16, String)> {
        self.stream.write_all(raw)?;
        loop {
            if let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
                let status = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("no status line"))?;
                let length: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .and_then(|v| v.trim().parse().ok())
                    .ok_or_else(|| bad("no Content-Length"))?;
                let total = head_end + 4 + length;
                if self.buf.len() >= total {
                    let body = String::from_utf8(self.buf[head_end + 4..total].to_vec())
                        .map_err(|_| bad("body is not UTF-8"))?;
                    self.buf.drain(..total);
                    return Ok((status, body));
                }
            }
            let mut chunk = [0u8; 16 * 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("server closed the connection"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Where a solve response came from, per its `cache` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cached {
    Hit,
    Miss,
    /// A scrape, or a solve whose response says neither.
    Other,
}

/// A 128-bit digest of a physics payload's rendered text: two
/// independent 64-bit hashes. Outcomes keep digests rather than text,
/// so the benchmark's memory does not grow with the payloads of the
/// requests it has seen.
pub(crate) type Digest = [u64; 2];

pub(crate) fn digest(text: &str) -> Digest {
    digest_bytes(text.as_bytes())
}

/// [`digest`] of raw bytes.
pub(crate) fn digest_bytes(bytes: &[u8]) -> Digest {
    let mut sip = std::collections::hash_map::DefaultHasher::new();
    sip.write(bytes);
    [f3d::service::fnv1a64(bytes), sip.finish()]
}

/// What the clients saw of one request.
#[derive(Debug, Clone)]
struct Outcome {
    /// The request's index in its list (the stream, or set-up's).
    i: usize,
    status: u16,
    latency_s: f64,
    cached: Cached,
    /// Digest of the response's physics payload (solves).
    physics: Option<Digest>,
    /// Seconds the response's own span report covers (traced runs;
    /// `None` when the report has no spans, as for a zone-scheduled
    /// solve).
    report_s: Option<f64>,
    /// The response's `sync_events` (traced runs).
    sync_events: Option<u64>,
    /// Set when the request failed at the transport level or a scrape
    /// was not Prometheus text.
    error: Option<String>,
    /// Completion offset from the start of the window, seconds.
    done_s: f64,
}

/// The physics payload of a rendered solve response: residuals, forces
/// and checksums (f3d) or energy and checksums (fdtd).
pub(crate) fn physics(body: &str) -> Option<&str> {
    let start = body
        .find("\"residuals\":")
        .or_else(|| body.find("\"energy\":"))?;
    let len = body[start..].find(",\"sync_events\":")?;
    Some(&body[start..start + len])
}

/// The response's top-level `"cache"` field, the last key rendered.
fn cache_field(body: &str) -> Cached {
    let value = body.rfind("\"cache\":\"").map(|i| &body[i + 9..]);
    match value {
        Some(v) if v.starts_with("hit\"") => Cached::Hit,
        Some(v) if v.starts_with("miss\"") => Cached::Miss,
        _ => Cached::Other,
    }
}

/// Issue request `i`, `req`, on `client` and describe the outcome. The
/// latency covers write through last byte read; the rest is untimed.
fn issue(client: &mut Client, i: usize, req: &Req, traced: bool) -> Outcome {
    let raw = req.raw();
    let t = Instant::now();
    let result = client.roundtrip(raw.as_bytes());
    let latency_s = t.elapsed().as_secs_f64();
    let mut out = Outcome {
        i,
        status: 0,
        latency_s,
        cached: Cached::Other,
        physics: None,
        report_s: None,
        sync_events: None,
        error: None,
        done_s: 0.0,
    };
    let (status, body) = match result {
        Err(e) => {
            out.error = Some(e.to_string());
            return out;
        }
        Ok(reply) => reply,
    };
    out.status = status;
    if status != 200 {
        return out;
    }
    match req {
        Req::Scrape if !body.starts_with("# HELP") => {
            out.error = Some("scrape is not Prometheus text".to_string());
        }
        Req::Scrape => {}
        Req::Solve(_) => {
            out.cached = cache_field(&body);
            out.physics = physics(&body).map(digest);
            if traced {
                if let Ok(doc) = Json::parse(&body) {
                    let spans = doc
                        .get("report")
                        .and_then(|r| r.get("spans"))
                        .and_then(Json::as_array)
                        .unwrap_or_default();
                    if !spans.is_empty() {
                        out.report_s = Some(
                            spans
                                .iter()
                                .filter_map(|span| span.get("seconds").and_then(Json::as_f64))
                                .sum(),
                        );
                    }
                    out.sync_events = doc.get("sync_events").and_then(Json::as_u64);
                }
            }
        }
    }
    out
}

/// A started server with its connected clients and the outcomes of
/// the set-up requests.
struct Ready {
    server: Server,
    clients: Vec<Client>,
    /// Set-up's requests and what came of them.
    warm: (Vec<Req>, Vec<Outcome>),
}

/// Start the server, connect the clients, solve the hot set and scrape
/// once.
fn setup(stream: &Stream) -> std::io::Result<Ready> {
    let server = Server::start(ServerConfig {
        workers: WORKERS,
        shards: 1,
        ..ServerConfig::default()
    })?;
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()))
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut reqs: Vec<Req> = stream.hot_bodies().into_iter().map(Req::Solve).collect();
    reqs.push(Req::Scrape);
    let mut ready = Ready {
        server,
        clients,
        warm: (Vec::new(), Vec::new()),
    };
    for (i, req) in reqs.iter().enumerate() {
        let out = issue(&mut ready.clients[i % CLIENTS], i, req, false);
        ready.warm.1.push(out);
    }
    ready.warm.0 = reqs;
    Ok(ready)
}

/// Replay the stream on the clients until `budget` runs out; returns
/// the outcomes in stream order and the window's wall seconds.
fn drive(
    stream: &Stream,
    clients: &mut [Client],
    budget: Budget,
    traced: bool,
) -> (Vec<Outcome>, f64) {
    let next = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::new());
    let started = Instant::now();
    let deadline = budget.seconds.map(|s| started + Duration::from_secs_f64(s));
    let last_done = Mutex::new(started);
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let (next, outcomes, last_done) = (&next, &outcomes, &last_done);
            scope.spawn(move || loop {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if budget.ops.is_some_and(|n| i >= n) {
                    break;
                }
                let mut out = issue(client, i, &stream.request(i), traced);
                let failed_transport = out.error.is_some() && out.status == 0;
                let done = Instant::now();
                out.done_s = done.duration_since(started).as_secs_f64();
                *last_done
                    .lock()
                    .expect("no client panics holding the clock") = done;
                outcomes
                    .lock()
                    .expect("no client panics holding the outcomes")
                    .push(out);
                if failed_transport {
                    break;
                }
            });
        }
    });
    let window_s = last_done
        .into_inner()
        .expect("clients joined")
        .duration_since(started)
        .as_secs_f64();
    let mut outcomes = outcomes.into_inner().expect("clients joined");
    outcomes.sort_by_key(|o| o.i);
    (outcomes, window_s)
}

/// The reference physics digest of `body`: the same case run directly
/// through the solver's `service::run` on a 1-worker pool, rendered by
/// the same response renderer the server uses.
///
/// # Errors
/// A body the API refuses or a solve that fails.
fn reference(body: &str) -> Result<Digest, String> {
    let pool = llp::Workers::new(1);
    let req = serve::api::parse_solve_body(body, WORKERS)?;
    let rendered = match &req.case {
        serve::solvers::AnyCase::F3d(c) => {
            serve::api::solve_response(&f3d::service::run(c, &pool)?, None, Json::Null, "miss")
        }
        serve::solvers::AnyCase::Fdtd(c) => serve::api::fdtd_solve_response(
            &fdtd::service::run(c, &pool)?,
            None,
            Json::Null,
            "miss",
        ),
    }
    .to_string();
    physics(&rendered)
        .map(digest)
        .ok_or_else(|| "reference has no physics payload".to_string())
}

/// Gate every outcome: a solve must be a 200 whose physics payload is
/// bit-identical to its reference (equal digests of the text the same
/// renderer printed, shortest round-trip floats); a scrape must be a
/// 200 in the Prometheus format. `request` maps an outcome's index to
/// its request.
fn verify(outcomes: &[Outcome], request: impl Fn(usize) -> Req, gate: &mut Gate) {
    let mut unique: Vec<String> = outcomes
        .iter()
        .filter_map(|o| match request(o.i) {
            Req::Solve(body) if o.physics.is_some() => Some(body),
            _ => None,
        })
        .collect();
    unique.sort_unstable();
    unique.dedup();
    // References run on two threads, one serial pool each.
    let refs: HashMap<&str, Result<Digest, String>> = std::thread::scope(|scope| {
        let halves: Vec<_> = unique
            .chunks(unique.len().div_ceil(2).max(1))
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|b| (b.as_str(), reference(b)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    });
    for o in outcomes {
        let what = format!("request {}", o.i);
        if let Some(e) = &o.error {
            gate.fail(format!("{what}: {e}"));
            continue;
        }
        if o.status != 200 {
            gate.fail(format!("{what}: status {}", o.status));
            continue;
        }
        match (request(o.i), &o.physics) {
            (Req::Scrape, _) => gate.pass(),
            (Req::Solve(_), None) => gate.fail(format!("{what}: no physics payload")),
            (Req::Solve(body), Some(got)) => match &refs[body.as_str()] {
                Ok(want) => gate.check_bits(&what, got, Some(want)),
                Err(e) => gate.fail(format!("{what}: reference failed: {e}")),
            },
        }
    }
}

fn ms(outcomes: &[&Outcome]) -> Vec<f64> {
    outcomes.iter().map(|o| o.latency_s * 1e3).collect()
}

/// The untraced run: timed set-ups, then the stream for `seconds`.
///
/// # Errors
/// A server that cannot start or a client that cannot connect.
pub fn untraced(seed: u64, seconds: f64, sink: &mut Sink, gate: &mut Gate) -> std::io::Result<()> {
    let stream = Stream::new(seed);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = ready.take() {
            shut(previous);
        }
        let t = Instant::now();
        let r = setup(&stream)?;
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some(r);
    }
    let mut ready = ready.expect("at least one set-up");
    let (outcomes, window_s) = drive(&stream, &mut ready.clients, Budget::seconds(seconds), false);
    let (warm_reqs, warm) = std::mem::take(&mut ready.warm);
    shut(ready);
    gate.untimed(|g| verify(&warm, |i| warm_reqs[i].clone(), g));
    verify(&outcomes, |i| stream.request(i), gate);

    let all: Vec<&Outcome> = outcomes.iter().collect();
    let by_cache =
        |c: Cached| -> Vec<&Outcome> { outcomes.iter().filter(|o| o.cached == c).collect() };
    let (op, miss, hit) = (
        Summary::of(&ms(&all)),
        Summary::of(&ms(&by_cache(Cached::Miss))),
        Summary::of(&ms(&by_cache(Cached::Hit))),
    );
    sink.set("setup_s", median(&setup_s));
    let done: Vec<f64> = outcomes.iter().map(|o| o.done_s).collect();
    sink.set("ops_per_s", median_completion_rate(&done, window_s));
    sink.set("op_ms_p50", op.p50);
    sink.set("op_ms_p90", op.p90);
    sink.set("miss_ms_p50", miss.p50);
    sink.set("miss_ms_p90", miss.p90);
    sink.set("hit_ms_p50", hit.p50);
    crate::report_summary("op_ms", &op);
    crate::report_summary("miss_ms", &miss);
    crate::report_summary("hit_ms", &hit);
    Ok(())
}

fn shut(ready: Ready) {
    drop(ready.clients);
    ready.server.shutdown();
}

/// The traced run (also the short probe other workloads' traced runs
/// take of the serve layers): the stream within `budget` with response
/// reports parsed, a `/metrics?format=json` probe, the miss set solved
/// directly, and the HTTP and cache-key layers replayed on the
/// stream's own bytes.
///
/// # Errors
/// A server that cannot start or a client that cannot connect.
pub fn traced(seed: u64, budget: Budget, sink: &mut Sink, gate: &mut Gate) -> std::io::Result<()> {
    let stream = Stream::new(seed);
    let mut ready = setup(&stream)?;
    alloc::reset_peak();
    let (outcomes, _) = drive(&stream, &mut ready.clients, budget, true);
    let heap_peak = alloc::peak();
    let metrics = metrics_json(ready.server.addr())?;
    let (warm_reqs, warm) = std::mem::take(&mut ready.warm);
    shut(ready);
    gate.untimed(|g| verify(&warm, |i| warm_reqs[i].clone(), g));
    verify(&outcomes, |i| stream.request(i), gate);

    let cache = metrics.get("cache");
    let counter = |k: &str| {
        cache
            .and_then(|c| c.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let (hits, misses, coalesced) = (counter("hits"), counter("misses"), counter("coalesced"));
    #[allow(clippy::cast_precision_loss)]
    {
        sink.set("serve.cache.hits", hits as f64);
        sink.set("serve.cache.misses", misses as f64);
        sink.set("serve.cache.coalesced", coalesced as f64);
        sink.set("serve.cache.evictions", counter("evictions") as f64);
        sink.set(
            "serve.cache.hit_ratio",
            hits as f64 / (hits + misses + coalesced).max(1) as f64,
        );
        sink.set(
            "serve.rejected",
            metrics
                .get("rejected_total")
                .and_then(Json::as_u64)
                .unwrap_or(0) as f64,
        );
        sink.set("mem.peak_heap_bytes", heap_peak as f64);
    }
    let scrapes: Vec<&Outcome> = outcomes
        .iter()
        .filter(|o| stream.request(o.i) == Req::Scrape)
        .collect();
    sink.set("serve.metrics_scrape_ms_p50", median(&ms(&scrapes)));
    let misses: Vec<&Outcome> = outcomes
        .iter()
        .filter(|o| o.cached == Cached::Miss)
        .collect();
    // A miss whose report covers its solve is that report plus the
    // serving overhead around it (queue wait included). A miss whose
    // report has no spans (a zone-scheduled solve) cannot be split, so
    // its latency is reported on its own rather than as overhead.
    let mut closure = Closure::default();
    let mut overhead_ms = Vec::new();
    let mut uncovered_ms = Vec::new();
    let mut syncs = Vec::new();
    for o in &misses {
        match o.report_s {
            Some(report_s) => {
                let c = Closure {
                    parent_s: o.latency_s,
                    children_s: report_s,
                };
                overhead_ms.push(c.unattributed_s() * 1e3);
                closure.add(&c);
            }
            None => uncovered_ms.push(o.latency_s * 1e3),
        }
        #[allow(clippy::cast_precision_loss)]
        syncs.extend(o.sync_events.map(|s| s as f64));
    }
    sink.set("serve.overhead_ms_p50", median(&overhead_ms));
    sink.set("serve.overhead_share", closure.unattributed_share());
    #[allow(clippy::cast_precision_loss)]
    sink.set(
        "llp.regions_per_op",
        syncs.iter().sum::<f64>() / syncs.len().max(1) as f64,
    );
    crate::detail(
        "serve.closure",
        Json::object(vec![
            ("misses", Json::from_usize(overhead_ms.len())),
            ("latency_s", Json::Num(closure.parent_s)),
            ("report_s", Json::Num(closure.children_s)),
            ("overhead_s", Json::Num(closure.unattributed_s())),
        ]),
    );
    crate::detail(
        "serve.misses_without_spans",
        Json::object(vec![
            ("misses", Json::from_usize(uncovered_ms.len())),
            ("latency_s", Json::Num(uncovered_ms.iter().sum::<f64>() / 1e3)),
            (
                "latency_ms_p50",
                if uncovered_ms.is_empty() {
                    Json::Null
                } else {
                    Json::Num(median(&uncovered_ms))
                },
            ),
        ]),
    );

    let bodies = probes::solve_set(sink, gate);
    let requests: Vec<Req> = (0..10 * CYCLE).map(|i| stream.request(i)).collect();
    probes::http_replay(&requests, &bodies, sink, gate);
    Ok(())
}

/// `GET /metrics?format=json` over a fresh connection.
fn metrics_json(addr: SocketAddr) -> std::io::Result<Json> {
    let mut client = Client::connect(addr)?;
    let (status, body) =
        client.roundtrip(b"GET /metrics?format=json HTTP/1.1\r\nHost: bench\r\n\r\n")?;
    if status != 200 {
        return Err(bad("metrics probe failed"));
    }
    Json::parse(&body).map_err(|e| bad(&e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_prefix(seed: u64) -> Vec<Req> {
        let s = Stream::new(seed);
        (0..3 * CYCLE).map(|i| s.request(i)).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(stream_prefix(7), stream_prefix(7));
        assert_ne!(stream_prefix(7), stream_prefix(8));
        assert_ne!(Stream::new(7).hot_bodies(), Stream::new(8).hot_bodies());
    }

    #[test]
    fn every_cycle_has_the_fixed_composition() {
        let s = Stream::new(42);
        let hot = s.hot_bodies();
        for cycle in 0..4 {
            let reqs: Vec<Req> = (cycle * CYCLE..(cycle + 1) * CYCLE)
                .map(|i| s.request(i))
                .collect();
            assert_eq!(reqs[0], Req::Scrape);
            assert_eq!(reqs[10], Req::Scrape);
            let (mut hits, mut misses) = (Vec::new(), 0);
            for r in &reqs {
                match r {
                    Req::Solve(body) if hot.contains(body) => hits.push(body),
                    Req::Solve(_) => misses += 1,
                    Req::Scrape => {}
                }
            }
            hits.sort();
            let mut want: Vec<&String> = hot.iter().collect();
            want.sort();
            assert_eq!(hits, want, "each hot body once per cycle");
            assert_eq!(misses, MISSES.len());
        }
    }

    #[test]
    fn miss_bodies_are_fresh_for_63_cycles_and_parse() {
        let s = Stream::new(3);
        let hot = s.hot_bodies();
        let mut seen = std::collections::HashSet::new();
        for i in 0..WORKER_VALUES * CYCLE {
            if let Req::Solve(body) = s.request(i) {
                serve::api::parse_solve_body(&body, WORKERS).expect("body parses");
                if !hot.contains(&body) {
                    assert!(seen.insert(body.clone()), "miss body repeated: {body}");
                }
            }
        }
        assert_eq!(seen.len(), WORKER_VALUES * MISSES.len());
    }

    #[test]
    fn physics_and_cache_fields_are_found() {
        let body = r#"{"solver":"f3d","residuals":[1,2],"forces":{"drag":0.5},"checksums":[],"sync_events":3,"report":{"sync_events":1},"cache":"hit"}"#;
        assert_eq!(
            physics(body),
            Some(r#""residuals":[1,2],"forces":{"drag":0.5},"checksums":[]"#)
        );
        assert_eq!(cache_field(body), Cached::Hit);
        assert_eq!(cache_field(r#"{"cache":"miss"}"#), Cached::Miss);
        assert_eq!(cache_field(r#"{"cache":"bypass"}"#), Cached::Other);
        assert_eq!(
            physics(r#"{"energy":[1],"sync_events":1}"#),
            Some(r#""energy":[1]"#)
        );
        assert_ne!(digest("[1]"), digest("[1.0000000000000002]"));
    }
}
