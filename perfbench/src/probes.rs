//! Direct layer probes: one empty parallel region, the miss set solved
//! without HTTP, and the stream's own bytes replayed through the HTTP
//! and cache-key code.

use crate::gate::Gate;
use crate::llpd::Req;
use crate::metrics::Sink;
use crate::stats::median;
use crate::{alloc, WORKERS};
use llp::obs::json::Json;
use llp::obs::timeline::DEFAULT_EVENT_CAPACITY;
use llp::{AttributionReport, FlightRecorder, Recorder, Timeline, Workers};
use serve::solvers::{AnyCase, AnyRun};
use std::hint::black_box;
use std::time::Instant;

/// Empty regions timed for `llp.region_us_p50`.
const REGIONS: usize = 2000;
/// Passes over the miss set.
const SOLVE_REPS: usize = 2;
/// Minimum wall time of each replay measurement.
const REPLAY_SECONDS: f64 = 0.1;

/// Where worker time went over some flight timelines: chunk compute,
/// barrier waits and chunk claims, and the worst per-timeline imbalance.
#[derive(Debug, Default)]
pub struct ChunkShares {
    compute: u64,
    barrier: u64,
    claim: u64,
    imbalance_max: f64,
}

impl ChunkShares {
    /// Fold in one drained timeline.
    pub fn add(&mut self, timeline: &Timeline) {
        let attr = AttributionReport::from_timeline(timeline);
        self.compute += attr.compute_ns();
        self.barrier += attr.barrier_ns();
        self.claim += attr.claim_ns();
        self.imbalance_max = self.imbalance_max.max(attr.imbalance());
    }

    /// Set the `llp` share and imbalance metrics.
    pub fn report(&self, sink: &mut Sink) {
        #[allow(clippy::cast_precision_loss)]
        let share = |ns: u64| ns as f64 / (self.compute + self.barrier + self.claim).max(1) as f64;
        sink.set("llp.compute_share", share(self.compute));
        sink.set("llp.barrier_share", share(self.barrier));
        sink.set("llp.claim_share", share(self.claim));
        // A balanced (or empty) timeline has imbalance 1.
        sink.set("llp.imbalance_max", self.imbalance_max.max(1.0));
    }
}

/// Median wall seconds of one empty `doacross` region at the workload
/// worker count — the per-region synchronization cost `S` the paper's
/// model charges.
#[must_use]
pub fn region_s() -> f64 {
    let pool = Workers::new(WORKERS);
    let times: Vec<f64> = (0..REGIONS)
        .map(|_| {
            let t = Instant::now();
            llp::doacross(&pool, WORKERS, |i| {
                black_box(i);
            });
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

fn run_case(case: &AnyCase, pool: &Workers) -> Result<AnyRun, String> {
    let view = pool.sized_view(case.workers());
    match case {
        AnyCase::F3d(c) => f3d::service::run(c, &view).map(AnyRun::F3d),
        AnyCase::Fdtd(c) => fdtd::service::run(c, &view).map(AnyRun::Fdtd),
    }
}

fn render(run: &AnyRun) -> String {
    match run {
        AnyRun::F3d(r) => serve::api::solve_response(r, Some(1), Json::Null, "miss"),
        AnyRun::Fdtd(r) => serve::api::fdtd_solve_response(r, Some(1), Json::Null, "miss"),
    }
    .to_string()
}

/// Solve the miss set directly through each solver's
/// `service::run`, as the server's executor does but without HTTP:
/// on a pool recording spans and flight events like a server shard,
/// on a plain pool, and on one worker. Sets the solve-layer metrics,
/// the region and chunk shares, the recording overhead, the serial
/// speedup and the memory estimate's error against the measured peak
/// heap.
/// Returns the rendered responses for the render replay.
#[allow(clippy::too_many_lines)]
pub fn solve_set(sink: &mut Sink, gate: &mut Gate) -> Vec<String> {
    let mut recorded = Workers::new(WORKERS);
    recorded.set_recorder(Recorder::enabled());
    recorded.set_flight(FlightRecorder::enabled(WORKERS, DEFAULT_EVENT_CAPACITY));
    let plain = Workers::new(WORKERS);
    let serial = Workers::new(1);

    let mut by_category: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let (mut t_rec, mut t_plain, mut t_serial) = (0.0, 0.0, 0.0);
    let mut shares = ChunkShares::default();
    let (mut ratio_min, mut ratio_max) = (f64::INFINITY, 0.0f64);
    let mut bodies = Vec::new();
    for rep in 0..SOLVE_REPS {
        for (shape, body) in crate::llpd::miss_set() {
            let case = match serve::api::parse_solve_body(&body, WORKERS) {
                Ok(req) => req.case,
                Err(e) => {
                    gate.fail(format!("miss set: {body}: {e}"));
                    continue;
                }
            };
            let base = alloc::live();
            alloc::reset_peak();
            let t = Instant::now();
            let rec = run_case(&case, &recorded);
            let dt_rec = t.elapsed().as_secs_f64();
            let peak = alloc::peak().saturating_sub(base);
            let t = Instant::now();
            let plain_run = run_case(&case, &plain);
            let dt_plain = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let serial_run = run_case(&case, &serial);
            let dt_serial = t.elapsed().as_secs_f64();
            let (rec, plain_run, serial_run) = match (rec, plain_run, serial_run) {
                (Ok(a), Ok(b), Ok(c)) => (a, b, c),
                (a, b, c) => {
                    let e = [a.err(), b.err(), c.err()].into_iter().flatten().next();
                    gate.fail(format!("miss set: {body}: {}", e.unwrap_or_default()));
                    continue;
                }
            };
            let rendered = render(&rec);
            let payload = |body: &str| crate::llpd::physics(body).map(crate::llpd::digest);
            let want = payload(&render(&serial_run));
            for (pool, resp) in [("recorded", &rendered), ("plain", &render(&plain_run))] {
                match (payload(resp), &want) {
                    (Some(got), Some(want)) => {
                        gate.check_bits(&format!("miss set, {pool} pool: {body}"), &got, Some(want))
                    }
                    _ => gate.fail(format!("miss set, {pool} pool: {body}: no physics payload")),
                }
            }

            t_rec += dt_rec;
            t_plain += dt_plain;
            t_serial += dt_serial;
            match by_category.iter_mut().find(|(c, _)| *c == shape.category()) {
                Some((_, v)) => v.push(dt_rec),
                None => by_category.push((shape.category(), vec![dt_rec])),
            }
            shares.add(rec.timeline());
            if peak > 0 {
                #[allow(clippy::cast_precision_loss)]
                let ratio = case.memory_usage_estimate() as f64 / peak as f64;
                ratio_min = ratio_min.min(ratio);
                ratio_max = ratio_max.max(ratio);
            }
            if rep == 0 {
                bodies.push(rendered);
            }
        }
    }
    for (category, times) in &by_category {
        sink.set(category, median(times) * 1e3);
    }
    shares.report(sink);
    sink.set("llp.speedup_vs_serial", t_serial / t_plain);
    sink.set("obs.trace_overhead_share", t_rec / t_plain - 1.0);
    if ratio_min.is_finite() {
        // |1 - ratio| is largest at an extreme ratio, so this is the
        // worst case's distance from an exact estimate.
        sink.set(
            "mem.estimate_error",
            (1.0 - ratio_min).abs().max((1.0 - ratio_max).abs()),
        );
        crate::detail(
            "mem.estimate_ratio",
            Json::object(vec![("min", Json::Num(ratio_min)), ("max", Json::Num(ratio_max))]),
        );
    }
    bodies
}

/// Median seconds per item of `f` applied to every item, over passes
/// repeated for at least [`REPLAY_SECONDS`].
fn per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 3 || started.elapsed().as_secs_f64() < REPLAY_SECONDS {
        let t = Instant::now();
        for item in items {
            f(item);
        }
        passes.push(t.elapsed().as_secs_f64());
    }
    #[allow(clippy::cast_precision_loss)]
    let per = median(&passes) / items.len().max(1) as f64;
    per
}

/// Replay the stream's request bytes through the incremental parser,
/// the miss set's responses through the renderer, and the stream's
/// solve cases through the cache-key canonicalization.
pub fn http_replay(requests: &[Req], bodies: &[String], sink: &mut Sink, gate: &mut Gate) {
    let raw: Vec<Vec<u8>> = requests.iter().map(|r| r.raw().into_bytes()).collect();
    for (i, bytes) in raw.iter().enumerate() {
        match serve::http::parse_request_bytes(bytes, 64 * 1024) {
            Ok(serve::http::Parse::Complete(_, used)) if used == bytes.len() => gate.pass(),
            other => gate.fail(format!(
                "replayed request {i} did not parse whole: {other:?}"
            )),
        }
    }
    sink.set(
        "serve.http.parse_us",
        per_item(&raw, |b| {
            black_box(serve::http::parse_request_bytes(black_box(b), 64 * 1024).ok());
        }) * 1e6,
    );
    let responses: Vec<serve::http::Response> = bodies
        .iter()
        .map(|b| serve::http::Response::ok(b.clone()))
        .collect();
    sink.set(
        "serve.http.render_us",
        per_item(&responses, |r| {
            black_box(serve::http::render_response(black_box(r), true));
        }) * 1e6,
    );
    let cases: Vec<AnyCase> = requests
        .iter()
        .filter_map(|r| match r {
            Req::Solve(body) => serve::api::parse_solve_body(body, WORKERS).ok(),
            Req::Scrape => None,
        })
        .map(|req| req.case)
        .collect();
    sink.set(
        "serve.cache.key_us",
        per_item(&cases, |c| {
            black_box(serve::cache::ContentKey::for_case(black_box(c), false, 0));
        }) * 1e6,
    );
}
