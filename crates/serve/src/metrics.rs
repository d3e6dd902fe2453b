//! Service counters behind `GET /metrics`.
//!
//! One static table, `FAMILIES`, names every signal once: JSON key,
//! Prometheus name and type, help text and, for labeled families, the
//! label vocabulary. Each series is one relaxed atomic, so connection
//! threads and the executor record without a lock, and a scrape walks
//! one snapshot into JSON or Prometheus text. The observability totals
//! (`obs_*`) accumulate the per-request span reports, so they must
//! agree with the pool's own sync-event counter — an invariant the
//! integration tests check end to end.

use crate::solvers::{self, KINDS as SOLVERS};
use llp::obs::hist::{add_f64, Histogram};
use llp::obs::json::Json;
use solver::SUPPORTED_WIDTHS;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The status codes the service emits, each with its own counter.
pub const TRACKED_STATUSES: [u16; 9] = [200, 400, 404, 405, 408, 413, 429, 500, 503];

/// Request endpoint families, each with its own counter.
pub const ENDPOINTS: [&str; 9] = [
    "solve", "advise", "model", "metrics", "trace", "tune", "health", "stats", "other",
];

/// Requested-schedule labels for executed solves.
pub const SCHEDULES: [&str; 4] = ["static", "dynamic", "guided", "auto"];

/// The kernel label vocabulary: every registered solver's parallel
/// kernels in [`solvers::KINDS`] order, then `other`, which absorbs
/// the serial phases (`bc`, `source`) and any unknown name.
fn kernels() -> Vec<String> {
    let registered = SOLVERS.iter().flat_map(|&kind| solvers::kernel_names(kind));
    registered
        .copied()
        .chain(["other"])
        .map(String::from)
        .collect()
}

fn strings<T: ToString>(vocabulary: &[T]) -> Vec<String> {
    vocabulary.iter().map(T::to_string).collect()
}

/// A label name and the function listing its values.
type Label = (&'static str, fn() -> Vec<String>);

/// One row of the family table.
#[derive(Clone, Copy)]
struct Family {
    /// JSON key; `group.key` lands in the `group` object.
    json: &'static str,
    /// Prometheus name, after the `llpd_` prefix.
    prom: &'static str,
    /// Prometheus type: `counter` or `gauge`.
    kind: &'static str,
    help: &'static str,
    /// The label of a labeled family.
    label: Option<Label>,
    /// Cells hold `f64` bits rather than integers.
    float: bool,
}

impl Family {
    const fn counter(json: &'static str, help: &'static str) -> Self {
        Self {
            json,
            prom: json,
            kind: "counter",
            help,
            label: None,
            float: false,
        }
    }

    const fn gauge(json: &'static str, help: &'static str) -> Self {
        let mut family = Self::counter(json, help);
        family.kind = "gauge";
        family
    }

    const fn prom(mut self, prom: &'static str) -> Self {
        self.prom = prom;
        self
    }

    const fn by(mut self, label: &'static str, vocabulary: fn() -> Vec<String>) -> Self {
        self.label = Some((label, vocabulary));
        self
    }

    const fn float(mut self) -> Self {
        self.float = true;
        self
    }
}

/// Family ids, in [`FAMILIES`] order.
#[derive(Clone, Copy)]
#[rustfmt::skip]
enum F {
    Requests, Rejected, Timeouts, QueueDepth, ExecutorBusy, ExecutorShards, Panics,
    OpenConnections, Jobs, CacheHits, CacheMisses, CacheCoalesced, CacheBypass, CacheEvictions,
    CacheEntries, ZoneJobs, ZoneTasks, ZoneShards, ZonePeakReady, BySolver, RejectedMemory,
    ByWidth, BySchedule, KernelSeconds, TuneStale, ByEndpoint, ByStatus, PoolWorkers,
    PoolSyncEvents, PoolRegions, ObsReports, ObsSyncEvents, ObsSeconds,
}

/// Every counter and gauge, in JSON key order.
#[rustfmt::skip]
static FAMILIES: [Family; 33] = [
    Family::counter("requests_total", "Requests routed, all endpoints."),
    Family::counter("rejected_total", "Requests rejected with 429 back-pressure."),
    Family::counter("timeouts_total", "Requests abandoned at their deadline."),
    Family::gauge("queue_depth", "Jobs currently queued."),
    Family::gauge("executor_busy", "Executor shards currently mid-job."),
    Family::gauge("executor_shards", "Executor shards configured."),
    Family::counter("executor_panics_total", "Jobs that panicked and were contained."),
    Family::gauge("open_connections", "Connections currently open."),
    Family::counter("jobs_total", "Executor jobs completed."),
    Family::counter("cache.hits", "Solves served from the result cache.")
        .prom("cache_hits_total"),
    Family::counter("cache.misses", "Solves that missed the cache and executed.")
        .prom("cache_misses_total"),
    Family::counter("cache.coalesced", "Solves coalesced onto in-flight executions.")
        .prom("cache_coalesced_total"),
    Family::counter("cache.bypass", "Solves that bypassed the cache on request.")
        .prom("cache_bypass_total"),
    Family::counter("cache.evictions", "Cache entries evicted.").prom("cache_evictions_total"),
    Family::gauge("cache.entries", "Cache entries currently resident.").prom("cache_entries"),
    Family::counter("zones.jobs", "Zone-scheduled solves executed.").prom("zone_jobs_total"),
    Family::counter("zones.tasks", "Zone tasks stepped across zone-scheduled solves.")
        .prom("zone_tasks_total"),
    Family::gauge("zones.shards_last", "Shards the most recent zone job dispatched over.")
        .prom("zone_shards_last"),
    Family::gauge("zones.peak_ready_last", "Peak ready-queue occupancy of the most recent zone job.")
        .prom("zone_peak_ready_last"),
    Family::counter("solves_by_solver", "Executed solves, by solver kind.")
        .prom("solves_by_solver_total").by("solver", || strings(&SOLVERS)),
    Family::counter("solves_rejected_memory_total", "Solves rejected by memory-budget admission control."),
    Family::counter("solves_by_vector_width", "Executed solves, by SLP lane width.")
        .prom("solves_by_vector_width_total").by("vector_width", || strings(&SUPPORTED_WIDTHS)),
    Family::counter("solves_by_schedule", "Executed solves, by requested schedule.")
        .prom("solves_by_schedule_total").by("schedule", || strings(&SCHEDULES)),
    Family::counter("kernel_seconds", "Attributed wall seconds, by kernel.")
        .prom("kernel_seconds_total").by("kernel", kernels).float(),
    Family::gauge("tune_entries_stale", "Tune entries the drift watchdog has flagged stale."),
    Family::counter("endpoints", "Requests routed, by endpoint family.")
        .prom("requests_by_endpoint_total").by("endpoint", || strings(&ENDPOINTS)),
    Family::counter("status", "Responses sent, by status code.")
        .prom("responses_total").by("status", || strings(&TRACKED_STATUSES)),
    Family::gauge("pool_workers", "Worker lanes in the shared pool."),
    Family::counter("pool_sync_events_total", "Synchronization events executed by the pool."),
    Family::counter("pool_regions_total", "Parallel regions executed by the pool."),
    Family::counter("obs_reports_total", "Span reports folded into the totals."),
    Family::counter("obs_sync_events_total", "Sync events attributed by span reports."),
    Family::counter("obs_seconds_total", "Solver wall seconds attributed by span reports.").float(),
];

/// The two histograms, rendered after the table: JSON key, Prometheus
/// name, help.
#[rustfmt::skip]
const HISTOGRAMS: [(&str, &str, &str); 2] = [
    ("latency_ms", "request_latency_ms", "End-to-end request latency in milliseconds."),
    ("queue_depths", "queue_depth_observed", "Queue depth sampled at each admission attempt."),
];

/// One series' reading.
#[derive(Clone, Copy)]
enum Value {
    Int(u64),
    Float(f64),
}

/// The exposition format's number syntax (infinities as `+Inf`/`-Inf`).
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) if v.is_infinite() => {
                f.write_str(if v > 0.0 { "+Inf" } else { "-Inf" })
            }
            Value::Float(v) => write!(f, "{v}"),
        }
    }
}

impl From<Value> for Json {
    fn from(value: Value) -> Json {
        match value {
            Value::Int(v) => Json::from_u64(v),
            Value::Float(v) => Json::Num(v),
        }
    }
}

/// One scrape's reading of every family, in [`FAMILIES`] order:
/// `(label value, value)` per series (an empty label when unlabeled).
type Snapshot<'a> = Vec<Vec<(&'a str, Value)>>;

/// All service counters and gauges.
#[derive(Debug)]
pub struct Metrics {
    /// Per [`FAMILIES`] row, one `(label value, cell)` per series.
    cells: Vec<Vec<(String, AtomicU64)>>,
    /// End-to-end request latency (parse through response build), ms.
    latency: Histogram,
    /// Queue depth sampled at every admission attempt.
    queue_depths: Histogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of `value` in `vocab`, or `fallback` when it is absent.
fn fold<T: PartialEq>(vocab: &[T], value: &T, fallback: usize) -> usize {
    vocab.iter().position(|v| v == value).unwrap_or(fallback)
}

impl Metrics {
    /// Fresh zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        let series = |family: &Family| match family.label {
            Some((_, vocabulary)) => vocabulary(),
            None => vec![String::new()],
        };
        let zeroed = |family| series(family).into_iter().map(|l| (l, AtomicU64::new(0)));
        Self {
            cells: FAMILIES
                .iter()
                .map(|family| zeroed(family).collect())
                .collect(),
            latency: Histogram::latency_ms(),
            queue_depths: Histogram::queue_depth(),
        }
    }

    fn cell(&self, family: F, series: usize) -> &AtomicU64 {
        &self.cells[family as usize][series].1
    }

    fn add(&self, family: F, series: usize, n: u64) {
        self.cell(family, series).fetch_add(n, Relaxed);
    }

    /// Count one request routed to `endpoint` (see [`ENDPOINTS`];
    /// anything else folds into `other`).
    pub fn request(&self, endpoint: &str) {
        self.add(F::Requests, 0, 1);
        let other = ENDPOINTS.len() - 1;
        self.add(F::ByEndpoint, fold(&ENDPOINTS, &endpoint, other), 1);
    }

    /// Count one response with `status`.
    pub fn response(&self, status: u16) {
        if let Some(idx) = TRACKED_STATUSES.iter().position(|&s| s == status) {
            self.add(F::ByStatus, idx, 1);
        }
        if status == 429 {
            self.add(F::Rejected, 0, 1);
        }
    }

    /// Count one request abandoned at its deadline.
    pub fn timeout(&self) {
        self.add(F::Timeouts, 0, 1);
    }

    /// Total 429 responses so far.
    #[must_use]
    pub fn rejected_total(&self) -> u64 {
        self.cell(F::Rejected, 0).load(Relaxed)
    }

    /// Set the queued-job gauge.
    pub fn set_queue_depth(&self, depth: usize) {
        self.cell(F::QueueDepth, 0).store(depth as u64, Relaxed);
    }

    /// Record one end-to-end request latency in milliseconds.
    pub fn observe_latency_ms(&self, ms: f64) {
        self.latency.record(ms);
    }

    /// Sample the queue depth seen by one admission attempt.
    pub fn observe_queue_depth(&self, depth: usize) {
        #[allow(clippy::cast_precision_loss)]
        self.queue_depths.record(depth as f64);
    }

    /// One executor shard started a job (`executor_busy` counts shards
    /// currently mid-job).
    pub fn executor_started(&self) {
        self.add(F::ExecutorBusy, 0, 1);
    }

    /// See [`Metrics::executor_started`].
    pub fn executor_finished(&self) {
        self.cell(F::ExecutorBusy, 0).fetch_sub(1, Relaxed);
    }

    /// Number of executor shards currently computing a job.
    #[must_use]
    pub fn executors_busy(&self) -> u64 {
        self.cell(F::ExecutorBusy, 0).load(Relaxed)
    }

    /// Count one job that panicked and was contained by its shard.
    pub fn executor_panicked(&self) {
        self.add(F::Panics, 0, 1);
    }

    /// Adjust the open-connection gauge by +1 / -1.
    pub fn connection_opened(&self) {
        self.add(F::OpenConnections, 0, 1);
    }

    /// See [`Metrics::connection_opened`].
    pub fn connection_closed(&self) {
        self.cell(F::OpenConnections, 0).fetch_sub(1, Relaxed);
    }

    /// Count one executed job that produced no observability report
    /// (advice is pure computation — no pool work, no spans).
    pub fn job_executed(&self) {
        self.add(F::Jobs, 0, 1);
    }

    /// Fold one completed pool job's observability report totals in.
    pub fn job_done(&self, report_sync_events: u64, report_seconds: f64) {
        self.add(F::Jobs, 0, 1);
        self.add(F::ObsReports, 0, 1);
        self.add(F::ObsSyncEvents, 0, report_sync_events);
        add_f64(self.cell(F::ObsSeconds, 0), report_seconds);
    }

    /// Fold one zone-scheduled solve in: the shards it dispatched over,
    /// the zone tasks it stepped across the run, and its step DAG's
    /// peak ready-queue occupancy (`U_zones`). The shard and peak
    /// gauges keep the most recent zone job's values.
    pub fn zone_job(&self, shards: u64, zone_tasks: u64, peak_ready: u64) {
        self.add(F::ZoneJobs, 0, 1);
        self.add(F::ZoneTasks, 0, zone_tasks);
        self.cell(F::ZoneShards, 0).store(shards, Relaxed);
        self.cell(F::ZonePeakReady, 0).store(peak_ready, Relaxed);
    }

    /// Count one executed solve of `kind` (unknown kinds, which
    /// admission rejects, fold into the first slot).
    pub fn solve_solver(&self, kind: &str) {
        self.add(F::BySolver, fold(&SOLVERS, &kind, 0), 1);
    }

    /// Count one solve rejected with 413 because its estimated memory
    /// footprint exceeded the configured budget.
    pub fn solve_rejected_memory(&self) {
        self.add(F::RejectedMemory, 0, 1);
    }

    /// Count one executed solve at `width` lanes (unsupported widths,
    /// which admission rejects, fold into the scalar bucket).
    pub fn solve_width(&self, width: usize) {
        self.add(F::ByWidth, fold(&SUPPORTED_WIDTHS, &width, 0), 1);
    }

    /// Count one executed solve under the requested schedule label
    /// (see [`SCHEDULES`]; unknown labels fold into `static`).
    pub fn solve_schedule(&self, schedule: &str) {
        self.add(F::BySchedule, fold(&SCHEDULES, &schedule, 0), 1);
    }

    /// Fold attributed wall seconds into `kernel`'s counter (names
    /// outside the registered solvers' kernels fold into `other`).
    pub fn kernel_seconds(&self, kernel: &str, seconds: f64) {
        let series = &self.cells[F::KernelSeconds as usize];
        let idx = series.iter().position(|(k, _)| k == kernel);
        add_f64(&series[idx.unwrap_or(series.len() - 1)].1, seconds);
    }

    /// Set the stale-tune-entries gauge (the drift watchdog's count).
    pub fn set_tune_entries_stale(&self, n: usize) {
        self.cell(F::TuneStale, 0).store(n as u64, Relaxed);
    }

    /// Count one solve served straight from the result cache.
    pub fn cache_hit(&self) {
        self.add(F::CacheHits, 0, 1);
    }

    /// Count one solve that missed the cache and executed.
    pub fn cache_miss(&self) {
        self.add(F::CacheMisses, 0, 1);
    }

    /// Count one solve coalesced onto an identical in-flight execution.
    pub fn cache_coalesced(&self) {
        self.add(F::CacheCoalesced, 0, 1);
    }

    /// Count one `"cache": "bypass"` solve (executed unconditionally).
    pub fn cache_bypass(&self) {
        self.add(F::CacheBypass, 0, 1);
    }

    /// Count `n` evicted cache entries and set the resident-entry gauge.
    pub fn cache_evicted(&self, n: u64, entries: usize) {
        self.add(F::CacheEvictions, 0, n);
        self.cell(F::CacheEntries, 0).store(entries as u64, Relaxed);
    }

    /// Read every series once; the pool-side families take the values
    /// the server passes in (it owns the pool).
    fn snapshot(
        &self,
        workers: usize,
        shards: usize,
        sync_events: u64,
        regions: u64,
    ) -> Snapshot<'_> {
        let read = |family: &Family, cell: &AtomicU64| match cell.load(Relaxed) {
            bits if family.float => Value::Float(f64::from_bits(bits)),
            bits => Value::Int(bits),
        };
        let mut snap: Snapshot<'_> = FAMILIES
            .iter()
            .zip(&self.cells)
            .map(|(family, series)| {
                series
                    .iter()
                    .map(|(l, c)| (&l[..], read(family, c)))
                    .collect()
            })
            .collect();
        let pool = [
            (F::ExecutorShards, shards as u64),
            (F::PoolWorkers, workers as u64),
            (F::PoolSyncEvents, sync_events),
            (F::PoolRegions, regions),
        ];
        for (family, value) in pool {
            snap[family as usize] = vec![("", Value::Int(value))];
        }
        snap
    }

    /// Render the snapshot as JSON, including the shared pool's own
    /// counters and shard count (passed in by the server).
    #[must_use]
    pub fn to_json(
        &self,
        pool_workers: usize,
        executor_shards: usize,
        pool_sync_events: u64,
        pool_regions: u64,
    ) -> Json {
        let snap = self.snapshot(
            pool_workers,
            executor_shards,
            pool_sync_events,
            pool_regions,
        );
        let mut top: Vec<(String, Json)> = Vec::new();
        for (family, series) in FAMILIES.iter().zip(snap) {
            let value = match family.label {
                None => series[0].1.into(),
                Some(_) => {
                    Json::Object(series.iter().map(|&(l, v)| (l.into(), v.into())).collect())
                }
            };
            let Some((group, key)) = family.json.split_once('.') else {
                top.push((family.json.into(), value));
                continue;
            };
            if top.last().is_none_or(|(k, _)| k != group) {
                top.push((group.into(), Json::Object(Vec::new())));
            }
            if let Some((_, Json::Object(members))) = top.last_mut() {
                members.push((key.into(), value));
            }
        }
        for ((key, _, _), hist) in HISTOGRAMS.iter().zip([&self.latency, &self.queue_depths]) {
            top.push((key.to_string(), hist.to_json()));
        }
        Json::Object(top)
    }

    /// Render the same snapshot in the Prometheus text exposition
    /// format (version 0.0.4): `# HELP` and `# TYPE` before each
    /// family's samples, one labeled series per vocabulary entry, and
    /// the histograms as cumulative `_bucket` / `_sum` / `_count`.
    #[must_use]
    pub fn to_prometheus(
        &self,
        pool_workers: usize,
        executor_shards: usize,
        pool_sync_events: u64,
        pool_regions: u64,
    ) -> String {
        let snap = self.snapshot(
            pool_workers,
            executor_shards,
            pool_sync_events,
            pool_regions,
        );
        let mut out = String::with_capacity(8192);
        let head = |out: &mut String, name: &str, kind: &str, help: &str| {
            let _ = writeln!(out, "# HELP llpd_{name} {help}\n# TYPE llpd_{name} {kind}");
        };
        for (family, series) in FAMILIES.iter().zip(snap) {
            let name = family.prom;
            head(&mut out, name, family.kind, family.help);
            for (label, value) in series {
                let _ = match family.label {
                    None => writeln!(out, "llpd_{name} {value}"),
                    Some((key, _)) => writeln!(out, "llpd_{name}{{{key}=\"{label}\"}} {value}"),
                };
            }
        }
        for ((_, name, help), hist) in HISTOGRAMS.iter().zip([&self.latency, &self.queue_depths]) {
            head(&mut out, name, "histogram", help);
            for (le, cumulative) in hist.cumulative_buckets() {
                let le = Value::Float(le);
                let _ = writeln!(out, "llpd_{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let (sum, count) = (Value::Float(hist.sum()), hist.count());
            let _ = writeln!(out, "llpd_{name}_sum {sum}\nllpd_{name}_count {count}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One fixed counter state reached through every recording method:
    /// each endpoint, status, solver, width, schedule and kernel, names
    /// that fold into a fallback slot, gauges moved both ways, and both
    /// histograms.
    fn pinned_state() -> Metrics {
        let m = Metrics::new();
        for endpoint in ENDPOINTS.iter().chain(&["solve", "nonsense"]) {
            m.request(endpoint);
        }
        for status in TRACKED_STATUSES.iter().chain(&[429, 302]) {
            m.response(*status);
        }
        m.timeout();
        m.set_queue_depth(3);
        for ms in [0.7, 3.0, 40.0, 700.0, 20_000.0] {
            m.observe_latency_ms(ms);
        }
        for depth in [0, 5, 100] {
            m.observe_queue_depth(depth);
        }
        m.executor_started();
        m.executor_started();
        m.executor_finished();
        m.executor_panicked();
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        m.job_executed();
        m.job_done(18, 0.25);
        m.job_done(6, 0.125);
        m.zone_job(2, 12, 4);
        m.zone_job(4, 16, 3);
        for kind in SOLVERS.iter().chain(&["fdtd", "nonsense"]) {
            m.solve_solver(kind);
        }
        m.solve_rejected_memory();
        for width in SUPPORTED_WIDTHS.iter().chain(&[4, 999]) {
            m.solve_width(*width);
        }
        for schedule in SCHEDULES.iter().chain(&["dynamic", "weird"]) {
            m.solve_schedule(schedule);
        }
        let kernels = "j_factor k_factor l_factor_scatter l_factor_solve rhs update";
        let kernels = kernels
            .split(' ')
            .chain(["update_e", "update_h", "bc", "no_such_kernel"]);
        for (i, kernel) in kernels.enumerate() {
            m.kernel_seconds(kernel, 0.125 * (i + 1) as f64);
        }
        m.set_tune_entries_stale(3);
        m.cache_miss();
        m.cache_hit();
        m.cache_hit();
        m.cache_coalesced();
        m.cache_bypass();
        m.cache_evicted(1, 7);
        m.cache_evicted(2, 5);
        m
    }

    #[test]
    fn pinned_state_renders_the_pinned_wire_format() {
        let m = pinned_state();
        let json = m.to_json(4, 2, 36, 18).to_string();
        let pinned = include_str!("../tests/data/metrics_pin.json");
        assert_eq!(json, pinned.trim_end());
        let text = m.to_prometheus(4, 2, 36, 18);
        let mut lines: Vec<&str> = text.lines().collect();
        lines.sort_unstable();
        let pinned = include_str!("../tests/data/metrics_pin.prom");
        assert_eq!(lines, pinned.lines().collect::<Vec<_>>());
        assert_eq!(m.rejected_total(), 2);
        assert_eq!(m.executors_busy(), 1);
    }

    fn leaves(json: &Json) -> usize {
        match json {
            Json::Object(members) => members.iter().map(|(_, v)| leaves(v)).sum(),
            Json::Array(items) => items.iter().map(leaves).sum(),
            _ => 1,
        }
    }

    /// Each family's `# HELP`/`# TYPE` sits directly before its
    /// samples, buckets ascend in `le`, and every JSON leaf has a
    /// sample with the same value (bucket `le`s are labels, and the
    /// p50/p99 estimates have no sample).
    #[test]
    fn every_json_leaf_has_a_prometheus_sample_with_the_same_value() {
        let m = pinned_state();
        let text = m.to_prometheus(4, 2, 36, 18);
        let mut lines = text.lines().peekable();
        let mut samples = Vec::new();
        while let Some(help) = lines.next() {
            let (name, _) = help["# HELP ".len()..].split_once(' ').unwrap();
            let typed = lines
                .next()
                .unwrap()
                .strip_prefix(&format!("# TYPE {name} "));
            assert!(matches!(typed, Some("counter" | "gauge" | "histogram")));
            let mut last_le = f64::NEG_INFINITY;
            while let Some(sample) = lines.next_if(|l| !l.starts_with('#')) {
                assert!(sample.starts_with(name), "{sample} outside {name}");
                if let Some(le) = sample.strip_prefix(&format!("{name}_bucket{{le=\"")) {
                    let le: f64 = le.split('"').next().unwrap().parse().unwrap();
                    assert!(le > last_le, "{sample}");
                    last_le = le;
                }
                samples.push(sample);
            }
        }
        let json = m.to_json(4, 2, 36, 18);
        let mut pairs = Vec::new();
        for family in &FAMILIES {
            let node = family.json.split('.').fold(&json, |j, k| j.get(k).unwrap());
            let name = format!("llpd_{}", family.prom);
            match family.label {
                None => pairs.push((name, node)),
                Some((label, _)) => pairs.extend(
                    node.as_object()
                        .unwrap()
                        .iter()
                        .map(|(value, leaf)| (format!("{name}{{{label}=\"{value}\"}}"), leaf)),
                ),
            }
        }
        let mut unsampled = 0;
        for (key, name, _) in HISTOGRAMS {
            let hist = json.get(key).unwrap();
            for bucket in hist.get("buckets").and_then(Json::as_array).unwrap() {
                let le = bucket.get("le").unwrap();
                let le = le.as_str().map_or_else(|| le.to_string(), str::to_string);
                pairs.push((
                    format!("llpd_{name}_bucket{{le=\"{le}\"}}"),
                    bucket.get("count").unwrap(),
                ));
                unsampled += 1;
            }
            pairs.push((format!("llpd_{name}_sum"), hist.get("sum").unwrap()));
            pairs.push((format!("llpd_{name}_count"), hist.get("count").unwrap()));
            unsampled += 2;
        }
        assert_eq!(pairs.len() + unsampled, leaves(&json));
        assert_eq!(pairs.len(), samples.len());
        for (series, leaf) in pairs {
            let sample = format!("{series} {leaf}");
            assert!(samples.contains(&sample.as_str()), "{sample}");
        }
    }

    #[test]
    fn every_registered_solver_kernel_has_its_own_series() {
        let m = Metrics::new();
        let names: Vec<_> = SOLVERS
            .iter()
            .flat_map(|&k| solvers::kernel_names(k))
            .collect();
        assert!(names.contains(&&"rhs") && names.contains(&&"update_e"));
        names.iter().for_each(|k| m.kernel_seconds(k, 0.5));
        m.kernel_seconds("bc", 0.25);
        m.kernel_seconds("no_such_kernel", 0.125);
        let text = m.to_prometheus(1, 1, 0, 0);
        for kernel in &names {
            let series = format!("llpd_kernel_seconds_total{{kernel=\"{kernel}\"}} 0.5\n");
            assert!(text.contains(&series), "{kernel}");
        }
        assert!(text.contains("llpd_kernel_seconds_total{kernel=\"other\"} 0.375\n"));
        let series = text.matches("llpd_kernel_seconds_total{").count();
        assert_eq!(series, names.len() + 1);
    }
}
