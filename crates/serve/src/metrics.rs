//! Service counters behind `GET /metrics`.
//!
//! Everything is a relaxed atomic: connection threads bump request and
//! status counters, the executor bumps job and observability totals,
//! and `/metrics` renders a consistent-enough snapshot without taking
//! any lock. The observability totals (`obs_sync_events_total`,
//! `obs_seconds_total`) accumulate the per-request span reports, so
//! they must agree with the pool's own synchronization-event counter —
//! an invariant the integration tests check end to end.

use crate::solvers::KINDS as SOLVERS;
use llp::obs::json::Json;
use llp::obs::Histogram;
use solver::SUPPORTED_WIDTHS;
use std::sync::atomic::{AtomicU64, Ordering};

/// The status codes the service emits, each with its own counter.
pub const TRACKED_STATUSES: [u16; 9] = [200, 400, 404, 405, 408, 413, 429, 500, 503];

/// Request endpoint families, each with its own counter.
pub const ENDPOINTS: [&str; 9] = [
    "solve", "advise", "model", "metrics", "trace", "tune", "health", "stats", "other",
];

/// The parallel kernels with per-kernel solve-seconds counters — the
/// f3d vocabulary followed by the fdtd one — plus a fold-in slot for
/// anything outside the fixed set.
pub const KERNELS: [&str; 9] = [
    "j_factor",
    "k_factor",
    "l_factor_scatter",
    "l_factor_solve",
    "rhs",
    "update",
    "update_e",
    "update_h",
    "other",
];

/// Requested-schedule labels for executed solves.
pub const SCHEDULES: [&str; 4] = ["static", "dynamic", "guided", "auto"];

/// All service counters and gauges.
#[derive(Debug)]
pub struct Metrics {
    requests_total: AtomicU64,
    rejected_total: AtomicU64,
    timeouts_total: AtomicU64,
    queue_depth: AtomicU64,
    executor_busy: AtomicU64,
    executor_panics_total: AtomicU64,
    open_connections: AtomicU64,
    jobs_total: AtomicU64,
    obs_reports_total: AtomicU64,
    obs_sync_events_total: AtomicU64,
    obs_seconds_total_bits: AtomicU64,
    cache_hits_total: AtomicU64,
    cache_misses_total: AtomicU64,
    cache_coalesced_total: AtomicU64,
    cache_bypass_total: AtomicU64,
    cache_evictions_total: AtomicU64,
    cache_entries: AtomicU64,
    zone_jobs_total: AtomicU64,
    zone_tasks_total: AtomicU64,
    zone_shards_last: AtomicU64,
    zone_peak_ready_last: AtomicU64,
    /// Executed solves by solver kind, indexed in
    /// [`crate::solvers::KINDS`] order.
    solves_by_solver: [AtomicU64; SOLVERS.len()],
    /// Solves rejected by memory-budget admission control (413).
    solves_rejected_memory_total: AtomicU64,
    /// Executed solves by the vector width they ran at, indexed in
    /// [`SUPPORTED_WIDTHS`] order.
    solves_by_width: [AtomicU64; SUPPORTED_WIDTHS.len()],
    /// Executed solves by the schedule the request asked for, indexed
    /// in [`SCHEDULES`] order.
    solves_by_schedule: [AtomicU64; SCHEDULES.len()],
    /// Attributed wall seconds per kernel (f64 bits), indexed in
    /// [`KERNELS`] order.
    kernel_seconds_bits: [AtomicU64; KERNELS.len()],
    /// Tune entries currently flagged stale by the drift watchdog.
    tune_entries_stale: AtomicU64,
    by_endpoint: [AtomicU64; ENDPOINTS.len()],
    by_status: [AtomicU64; TRACKED_STATUSES.len()],
    /// End-to-end request latency (parse through response build), ms.
    latency: Histogram,
    /// Queue depth sampled at every admission — the distribution a
    /// single `queue_depth` gauge cannot show.
    queue_depths: Histogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        Self {
            requests_total: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            timeouts_total: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            executor_busy: AtomicU64::new(0),
            executor_panics_total: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            jobs_total: AtomicU64::new(0),
            obs_reports_total: AtomicU64::new(0),
            obs_sync_events_total: AtomicU64::new(0),
            obs_seconds_total_bits: AtomicU64::new(0),
            cache_hits_total: AtomicU64::new(0),
            cache_misses_total: AtomicU64::new(0),
            cache_coalesced_total: AtomicU64::new(0),
            cache_bypass_total: AtomicU64::new(0),
            cache_evictions_total: AtomicU64::new(0),
            cache_entries: AtomicU64::new(0),
            zone_jobs_total: AtomicU64::new(0),
            zone_tasks_total: AtomicU64::new(0),
            zone_shards_last: AtomicU64::new(0),
            zone_peak_ready_last: AtomicU64::new(0),
            solves_by_solver: std::array::from_fn(|_| AtomicU64::new(0)),
            solves_rejected_memory_total: AtomicU64::new(0),
            solves_by_width: std::array::from_fn(|_| AtomicU64::new(0)),
            solves_by_schedule: std::array::from_fn(|_| AtomicU64::new(0)),
            kernel_seconds_bits: std::array::from_fn(|_| AtomicU64::new(0)),
            tune_entries_stale: AtomicU64::new(0),
            by_endpoint: std::array::from_fn(|_| AtomicU64::new(0)),
            by_status: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: Histogram::latency_ms(),
            queue_depths: Histogram::queue_depth(),
        }
    }

    /// Count one request routed to `endpoint` (see [`ENDPOINTS`]).
    pub fn request(&self, endpoint: &str) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        let idx = ENDPOINTS
            .iter()
            .position(|&e| e == endpoint)
            .unwrap_or(ENDPOINTS.len() - 1);
        self.by_endpoint[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Count one response with `status`.
    pub fn response(&self, status: u16) {
        if let Some(idx) = TRACKED_STATUSES.iter().position(|&s| s == status) {
            self.by_status[idx].fetch_add(1, Ordering::Relaxed);
        }
        if status == 429 {
            self.rejected_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one request abandoned at its deadline.
    pub fn timeout(&self) {
        self.timeouts_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Total 429 responses so far.
    #[must_use]
    pub fn rejected_total(&self) -> u64 {
        self.rejected_total.load(Ordering::Relaxed)
    }

    /// Set the queued-job gauge.
    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth as u64, Ordering::Relaxed);
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

    /// Estimated request-latency quantile in milliseconds (`None`
    /// before any request completed).
    #[must_use]
    pub fn latency_quantile_ms(&self, q: f64) -> Option<f64> {
        self.latency.quantile(q)
    }

    /// One executor shard started computing a job: the `executor_busy`
    /// gauge counts shards currently mid-job.
    pub fn executor_started(&self) {
        self.executor_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// See [`Metrics::executor_started`].
    pub fn executor_finished(&self) {
        self.executor_busy.fetch_sub(1, Ordering::Relaxed);
    }

    /// Number of executor shards currently computing a job.
    #[must_use]
    pub fn executors_busy(&self) -> u64 {
        self.executor_busy.load(Ordering::Relaxed)
    }

    /// Count one job that panicked and was contained by its shard.
    pub fn executor_panicked(&self) {
        self.executor_panics_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Adjust the open-connection gauge by +1 / -1.
    pub fn connection_opened(&self) {
        self.open_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// See [`Metrics::connection_opened`].
    pub fn connection_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Number of connections currently open.
    #[must_use]
    pub fn open_connections(&self) -> u64 {
        self.open_connections.load(Ordering::Relaxed)
    }

    /// Count one executed job that produced no observability report
    /// (advice is pure computation — no pool work, no spans).
    pub fn job_executed(&self) {
        self.jobs_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one completed pool job's observability report totals in.
    pub fn job_done(&self, report_sync_events: u64, report_seconds: f64) {
        self.jobs_total.fetch_add(1, Ordering::Relaxed);
        self.obs_reports_total.fetch_add(1, Ordering::Relaxed);
        self.obs_sync_events_total
            .fetch_add(report_sync_events, Ordering::Relaxed);
        // f64 accumulation via compare-exchange on the bit pattern: the
        // executor is the only writer, so this loop runs once.
        let mut current = self.obs_seconds_total_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + report_seconds).to_bits();
            match self.obs_seconds_total_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// Fold one zone-scheduled solve's step statistics in: how many
    /// zone shards it dispatched over, how many zone tasks it stepped
    /// across the whole run, and the step DAG's peak ready-queue
    /// occupancy (`U_zones`). The shard and peak gauges keep the last
    /// value — the queue picture of the most recent zone job.
    pub fn zone_job(&self, shards: u64, zone_tasks: u64, peak_ready: u64) {
        self.zone_jobs_total.fetch_add(1, Ordering::Relaxed);
        self.zone_tasks_total
            .fetch_add(zone_tasks, Ordering::Relaxed);
        self.zone_shards_last.store(shards, Ordering::Relaxed);
        self.zone_peak_ready_last
            .store(peak_ready, Ordering::Relaxed);
    }

    /// Count one executed solve of `kind` (see [`crate::solvers::KINDS`];
    /// unknown kinds fold into the first slot — they cannot reach the
    /// executor, admission rejects them).
    pub fn solve_solver(&self, kind: &str) {
        let idx = SOLVERS.iter().position(|&k| k == kind).unwrap_or(0);
        self.solves_by_solver[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Count one solve rejected with 413 because its estimated memory
    /// footprint exceeded the configured budget.
    pub fn solve_rejected_memory(&self) {
        self.solves_rejected_memory_total
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Count one executed solve at `width` lanes. Unsupported widths
    /// cannot reach the executor (admission validates them), but an
    /// unknown value folds into the scalar bucket rather than panicking
    /// in the metrics path.
    pub fn solve_width(&self, width: usize) {
        let idx = SUPPORTED_WIDTHS
            .iter()
            .position(|&w| w == width)
            .unwrap_or(0);
        self.solves_by_width[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Count one executed solve under the requested schedule label
    /// (see [`SCHEDULES`]; unknown labels fold into `static`).
    pub fn solve_schedule(&self, schedule: &str) {
        let idx = SCHEDULES.iter().position(|&s| s == schedule).unwrap_or(0);
        self.solves_by_schedule[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Fold attributed wall seconds into `kernel`'s counter (see
    /// [`KERNELS`]; names outside the vocabulary fold into `other`).
    pub fn kernel_seconds(&self, kernel: &str, seconds: f64) {
        let idx = KERNELS
            .iter()
            .position(|&k| k == kernel)
            .unwrap_or(KERNELS.len() - 1);
        let cell = &self.kernel_seconds_bits[idx];
        let mut current = cell.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + seconds).to_bits();
            match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// Set the stale-tune-entries gauge (the drift watchdog's count).
    pub fn set_tune_entries_stale(&self, n: usize) {
        self.tune_entries_stale.store(n as u64, Ordering::Relaxed);
    }

    /// Count one solve served straight from the content-addressed
    /// cache (no execution).
    pub fn cache_hit(&self) {
        self.cache_hits_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one solve that missed the cache and executed (its result
    /// was inserted afterwards).
    pub fn cache_miss(&self) {
        self.cache_misses_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one solve coalesced onto an identical in-flight execution
    /// (it waited for that execution instead of queueing its own job).
    pub fn cache_coalesced(&self) {
        self.cache_coalesced_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one `"cache": "bypass"` solve (executed unconditionally).
    pub fn cache_bypass(&self) {
        self.cache_bypass_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` evicted cache entries and set the resident-entry gauge.
    pub fn cache_evicted(&self, n: u64, entries: usize) {
        self.cache_evictions_total.fetch_add(n, Ordering::Relaxed);
        self.cache_entries.store(entries as u64, Ordering::Relaxed);
    }

    /// Total cache hits so far.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits_total.load(Ordering::Relaxed)
    }

    /// Render the snapshot, including the shared pool's own counters
    /// and shard count (passed in by the server, which owns the pool).
    #[must_use]
    pub fn to_json(
        &self,
        pool_workers: usize,
        executor_shards: usize,
        pool_sync_events: u64,
        pool_regions: u64,
    ) -> Json {
        let load = |a: &AtomicU64| Json::from_u64(a.load(Ordering::Relaxed));
        Json::object(vec![
            ("requests_total", load(&self.requests_total)),
            ("rejected_total", load(&self.rejected_total)),
            ("timeouts_total", load(&self.timeouts_total)),
            ("queue_depth", load(&self.queue_depth)),
            ("executor_busy", load(&self.executor_busy)),
            ("executor_shards", Json::from_usize(executor_shards)),
            ("executor_panics_total", load(&self.executor_panics_total)),
            ("open_connections", load(&self.open_connections)),
            ("jobs_total", load(&self.jobs_total)),
            (
                "cache",
                Json::object(vec![
                    ("hits", load(&self.cache_hits_total)),
                    ("misses", load(&self.cache_misses_total)),
                    ("coalesced", load(&self.cache_coalesced_total)),
                    ("bypass", load(&self.cache_bypass_total)),
                    ("evictions", load(&self.cache_evictions_total)),
                    ("entries", load(&self.cache_entries)),
                ]),
            ),
            (
                "zones",
                Json::object(vec![
                    ("jobs", load(&self.zone_jobs_total)),
                    ("tasks", load(&self.zone_tasks_total)),
                    ("shards_last", load(&self.zone_shards_last)),
                    ("peak_ready_last", load(&self.zone_peak_ready_last)),
                ]),
            ),
            (
                "solves_by_solver",
                Json::Object(
                    SOLVERS
                        .iter()
                        .zip(&self.solves_by_solver)
                        .map(|(&kind, counter)| (kind.to_string(), load(counter)))
                        .collect(),
                ),
            ),
            (
                "solves_rejected_memory_total",
                load(&self.solves_rejected_memory_total),
            ),
            (
                "solves_by_vector_width",
                Json::Object(
                    SUPPORTED_WIDTHS
                        .iter()
                        .zip(&self.solves_by_width)
                        .map(|(&w, counter)| (w.to_string(), load(counter)))
                        .collect(),
                ),
            ),
            (
                "solves_by_schedule",
                Json::Object(
                    SCHEDULES
                        .iter()
                        .zip(&self.solves_by_schedule)
                        .map(|(&name, counter)| (name.to_string(), load(counter)))
                        .collect(),
                ),
            ),
            (
                "kernel_seconds",
                Json::Object(
                    KERNELS
                        .iter()
                        .zip(&self.kernel_seconds_bits)
                        .map(|(&name, bits)| {
                            (
                                name.to_string(),
                                Json::Num(f64::from_bits(bits.load(Ordering::Relaxed))),
                            )
                        })
                        .collect(),
                ),
            ),
            ("tune_entries_stale", load(&self.tune_entries_stale)),
            (
                "endpoints",
                Json::Object(
                    ENDPOINTS
                        .iter()
                        .zip(&self.by_endpoint)
                        .map(|(&name, counter)| (name.to_string(), load(counter)))
                        .collect(),
                ),
            ),
            (
                "status",
                Json::Object(
                    TRACKED_STATUSES
                        .iter()
                        .zip(&self.by_status)
                        .map(|(&status, counter)| (status.to_string(), load(counter)))
                        .collect(),
                ),
            ),
            ("pool_workers", Json::from_usize(pool_workers)),
            ("pool_sync_events_total", Json::from_u64(pool_sync_events)),
            ("pool_regions_total", Json::from_u64(pool_regions)),
            ("obs_reports_total", load(&self.obs_reports_total)),
            ("obs_sync_events_total", load(&self.obs_sync_events_total)),
            (
                "obs_seconds_total",
                Json::Num(f64::from_bits(
                    self.obs_seconds_total_bits.load(Ordering::Relaxed),
                )),
            ),
            ("latency_ms", self.latency.to_json()),
            ("queue_depths", self.queue_depths.to_json()),
        ])
    }

    /// Render the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): one `# TYPE`d family per signal, labels for
    /// endpoint / status / kernel / schedule / `vector_width`, and the
    /// two histograms as cumulative `_bucket` / `_sum` / `_count`
    /// series. Takes the same pool context as [`Metrics::to_json`] —
    /// the two renderings are views of one set of counters.
    #[must_use]
    pub fn to_prometheus(
        &self,
        pool_workers: usize,
        executor_shards: usize,
        pool_sync_events: u64,
        pool_regions: u64,
    ) -> String {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut out = String::with_capacity(4096);
        let mut plain = |name: &str, kind: &str, help: &str, value: String| {
            out.push_str(&format!(
                "# HELP llpd_{name} {help}\n# TYPE llpd_{name} {kind}\nllpd_{name} {value}\n"
            ));
        };
        plain(
            "requests_total",
            "counter",
            "Requests routed, all endpoints.",
            load(&self.requests_total).to_string(),
        );
        plain(
            "rejected_total",
            "counter",
            "Requests rejected with 429 back-pressure.",
            load(&self.rejected_total).to_string(),
        );
        plain(
            "timeouts_total",
            "counter",
            "Requests abandoned at their deadline.",
            load(&self.timeouts_total).to_string(),
        );
        plain(
            "jobs_total",
            "counter",
            "Executor jobs completed.",
            load(&self.jobs_total).to_string(),
        );
        plain(
            "executor_panics_total",
            "counter",
            "Jobs that panicked and were contained.",
            load(&self.executor_panics_total).to_string(),
        );
        plain(
            "queue_depth",
            "gauge",
            "Jobs currently queued.",
            load(&self.queue_depth).to_string(),
        );
        plain(
            "executor_busy",
            "gauge",
            "Executor shards currently mid-job.",
            load(&self.executor_busy).to_string(),
        );
        plain(
            "executor_shards",
            "gauge",
            "Executor shards configured.",
            executor_shards.to_string(),
        );
        plain(
            "open_connections",
            "gauge",
            "Connections currently open.",
            self.open_connections().to_string(),
        );
        plain(
            "pool_workers",
            "gauge",
            "Worker lanes in the shared pool.",
            pool_workers.to_string(),
        );
        plain(
            "pool_sync_events_total",
            "counter",
            "Synchronization events executed by the pool.",
            pool_sync_events.to_string(),
        );
        plain(
            "pool_regions_total",
            "counter",
            "Parallel regions executed by the pool.",
            pool_regions.to_string(),
        );
        plain(
            "obs_reports_total",
            "counter",
            "Span reports folded into the totals.",
            load(&self.obs_reports_total).to_string(),
        );
        plain(
            "obs_sync_events_total",
            "counter",
            "Sync events attributed by span reports.",
            load(&self.obs_sync_events_total).to_string(),
        );
        plain(
            "obs_seconds_total",
            "counter",
            "Solver wall seconds attributed by span reports.",
            prom_f64(f64::from_bits(
                self.obs_seconds_total_bits.load(Ordering::Relaxed),
            )),
        );
        plain(
            "tune_entries_stale",
            "gauge",
            "Tune entries the drift watchdog has flagged stale.",
            load(&self.tune_entries_stale).to_string(),
        );
        plain(
            "solves_rejected_memory_total",
            "counter",
            "Solves rejected by memory-budget admission control.",
            load(&self.solves_rejected_memory_total).to_string(),
        );
        // Cache and zone counter families.
        for (name, help, cell) in [
            (
                "cache_hits_total",
                "Solves served from the result cache.",
                &self.cache_hits_total,
            ),
            (
                "cache_misses_total",
                "Solves that missed the cache and executed.",
                &self.cache_misses_total,
            ),
            (
                "cache_coalesced_total",
                "Solves coalesced onto in-flight executions.",
                &self.cache_coalesced_total,
            ),
            (
                "cache_bypass_total",
                "Solves that bypassed the cache on request.",
                &self.cache_bypass_total,
            ),
            (
                "cache_evictions_total",
                "Cache entries evicted.",
                &self.cache_evictions_total,
            ),
            (
                "zone_jobs_total",
                "Zone-scheduled solves executed.",
                &self.zone_jobs_total,
            ),
            (
                "zone_tasks_total",
                "Zone tasks stepped across zone-scheduled solves.",
                &self.zone_tasks_total,
            ),
        ] {
            plain(name, "counter", help, load(cell).to_string());
        }
        for (name, help, cell) in [
            (
                "cache_entries",
                "Cache entries currently resident.",
                &self.cache_entries,
            ),
            (
                "zone_shards_last",
                "Shards the most recent zone job dispatched over.",
                &self.zone_shards_last,
            ),
            (
                "zone_peak_ready_last",
                "Peak ready-queue occupancy of the most recent zone job.",
                &self.zone_peak_ready_last,
            ),
        ] {
            plain(name, "gauge", help, load(cell).to_string());
        }
        // Labeled families.
        out.push_str(
            "# HELP llpd_requests_by_endpoint_total Requests routed, by endpoint family.\n\
             # TYPE llpd_requests_by_endpoint_total counter\n",
        );
        for (name, counter) in ENDPOINTS.iter().zip(&self.by_endpoint) {
            out.push_str(&format!(
                "llpd_requests_by_endpoint_total{{endpoint=\"{name}\"}} {}\n",
                load(counter)
            ));
        }
        out.push_str(
            "# HELP llpd_responses_total Responses sent, by status code.\n\
             # TYPE llpd_responses_total counter\n",
        );
        for (status, counter) in TRACKED_STATUSES.iter().zip(&self.by_status) {
            out.push_str(&format!(
                "llpd_responses_total{{status=\"{status}\"}} {}\n",
                load(counter)
            ));
        }
        out.push_str(
            "# HELP llpd_solves_by_solver_total Executed solves, by solver kind.\n\
             # TYPE llpd_solves_by_solver_total counter\n",
        );
        for (kind, counter) in SOLVERS.iter().zip(&self.solves_by_solver) {
            out.push_str(&format!(
                "llpd_solves_by_solver_total{{solver=\"{kind}\"}} {}\n",
                load(counter)
            ));
        }
        out.push_str(
            "# HELP llpd_solves_by_vector_width_total Executed solves, by SLP lane width.\n\
             # TYPE llpd_solves_by_vector_width_total counter\n",
        );
        for (width, counter) in SUPPORTED_WIDTHS.iter().zip(&self.solves_by_width) {
            out.push_str(&format!(
                "llpd_solves_by_vector_width_total{{vector_width=\"{width}\"}} {}\n",
                load(counter)
            ));
        }
        out.push_str(
            "# HELP llpd_solves_by_schedule_total Executed solves, by requested schedule.\n\
             # TYPE llpd_solves_by_schedule_total counter\n",
        );
        for (schedule, counter) in SCHEDULES.iter().zip(&self.solves_by_schedule) {
            out.push_str(&format!(
                "llpd_solves_by_schedule_total{{schedule=\"{schedule}\"}} {}\n",
                load(counter)
            ));
        }
        out.push_str(
            "# HELP llpd_kernel_seconds_total Attributed wall seconds, by kernel.\n\
             # TYPE llpd_kernel_seconds_total counter\n",
        );
        for (kernel, bits) in KERNELS.iter().zip(&self.kernel_seconds_bits) {
            out.push_str(&format!(
                "llpd_kernel_seconds_total{{kernel=\"{kernel}\"}} {}\n",
                prom_f64(f64::from_bits(bits.load(Ordering::Relaxed)))
            ));
        }
        // Histograms.
        prom_histogram(
            &mut out,
            "request_latency_ms",
            "End-to-end request latency in milliseconds.",
            &self.latency,
        );
        prom_histogram(
            &mut out,
            "queue_depth_observed",
            "Queue depth sampled at each admission attempt.",
            &self.queue_depths,
        );
        out
    }
}

/// Format an `f64` for the exposition format (finite shortest form;
/// infinities as `+Inf`/`-Inf`).
fn prom_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Append one histogram family: cumulative `_bucket{le=...}` series
/// (ending at `le="+Inf"`), `_sum`, and `_count`.
fn prom_histogram(out: &mut String, name: &str, help: &str, hist: &Histogram) {
    out.push_str(&format!(
        "# HELP llpd_{name} {help}\n# TYPE llpd_{name} histogram\n"
    ));
    for (bound, cumulative) in hist.cumulative_buckets() {
        out.push_str(&format!(
            "llpd_{name}_bucket{{le=\"{}\"}} {cumulative}\n",
            prom_f64(bound)
        ));
    }
    out.push_str(&format!("llpd_{name}_sum {}\n", prom_f64(hist.sum())));
    out.push_str(&format!("llpd_{name}_count {}\n", hist.count()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_land_in_the_snapshot() {
        let m = Metrics::new();
        m.request("solve");
        m.request("solve");
        m.request("model");
        m.request("nonsense"); // folds into "other"
        m.response(200);
        m.response(429);
        m.timeout();
        m.connection_opened();
        m.job_done(18, 0.25);
        m.job_done(18, 0.25);
        let j = m.to_json(4, 2, 36, 36);
        assert_eq!(j.get("requests_total").unwrap().as_u64(), Some(4));
        assert_eq!(j.get("rejected_total").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("timeouts_total").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("open_connections").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("jobs_total").unwrap().as_u64(), Some(2));
        let endpoints = j.get("endpoints").unwrap();
        assert_eq!(endpoints.get("solve").unwrap().as_u64(), Some(2));
        assert_eq!(endpoints.get("model").unwrap().as_u64(), Some(1));
        assert_eq!(endpoints.get("other").unwrap().as_u64(), Some(1));
        let status = j.get("status").unwrap();
        assert_eq!(status.get("200").unwrap().as_u64(), Some(1));
        assert_eq!(status.get("429").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("pool_sync_events_total").unwrap().as_u64(), Some(36));
        assert_eq!(j.get("obs_sync_events_total").unwrap().as_u64(), Some(36));
        assert_eq!(j.get("obs_seconds_total").unwrap().as_f64(), Some(0.5));
        assert_eq!(j.get("executor_shards").unwrap().as_u64(), Some(2));
        assert_eq!(j.get("executor_panics_total").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn solve_width_counters_land_in_the_snapshot() {
        let m = Metrics::new();
        m.solve_width(1);
        m.solve_width(4);
        m.solve_width(4);
        m.solve_width(999); // unknown widths fold into the scalar bucket
        let j = m.to_json(1, 1, 0, 0);
        let by_width = j.get("solves_by_vector_width").unwrap();
        assert_eq!(by_width.get("1").unwrap().as_u64(), Some(2));
        assert_eq!(by_width.get("2").unwrap().as_u64(), Some(0));
        assert_eq!(by_width.get("4").unwrap().as_u64(), Some(2));
        assert_eq!(by_width.get("8").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn solver_counters_land_in_the_snapshot() {
        let m = Metrics::new();
        m.solve_solver("f3d");
        m.solve_solver("fdtd");
        m.solve_solver("fdtd");
        m.solve_solver("nonsense"); // folds into the first slot
        m.solve_rejected_memory();
        let j = m.to_json(1, 1, 0, 0);
        let by_solver = j.get("solves_by_solver").unwrap();
        assert_eq!(by_solver.get("f3d").unwrap().as_u64(), Some(2));
        assert_eq!(by_solver.get("fdtd").unwrap().as_u64(), Some(2));
        assert_eq!(
            j.get("solves_rejected_memory_total").unwrap().as_u64(),
            Some(1)
        );
        let text = m.to_prometheus(1, 1, 0, 0);
        assert!(text.contains("llpd_solves_by_solver_total{solver=\"f3d\"} 2\n"));
        assert!(text.contains("llpd_solves_by_solver_total{solver=\"fdtd\"} 2\n"));
        assert!(text.contains("llpd_solves_rejected_memory_total 1\n"));
    }

    #[test]
    fn fdtd_kernels_have_their_own_seconds_buckets() {
        let m = Metrics::new();
        m.kernel_seconds("update_e", 0.25);
        m.kernel_seconds("update_h", 0.5);
        let kernels = m.to_json(1, 1, 0, 0).get("kernel_seconds").unwrap().clone();
        assert_eq!(kernels.get("update_e").unwrap().as_f64(), Some(0.25));
        assert_eq!(kernels.get("update_h").unwrap().as_f64(), Some(0.5));
        assert_eq!(kernels.get("other").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn cache_counters_land_in_the_snapshot() {
        let m = Metrics::new();
        m.cache_miss();
        m.cache_hit();
        m.cache_hit();
        m.cache_coalesced();
        m.cache_bypass();
        m.cache_evicted(1, 7);
        assert_eq!(m.cache_hits(), 2);
        let cache = m.to_json(1, 1, 0, 0).get("cache").unwrap().clone();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(2));
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(cache.get("coalesced").unwrap().as_u64(), Some(1));
        assert_eq!(cache.get("bypass").unwrap().as_u64(), Some(1));
        assert_eq!(cache.get("evictions").unwrap().as_u64(), Some(1));
        assert_eq!(cache.get("entries").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn zone_counters_land_in_the_snapshot() {
        let m = Metrics::new();
        let zones = m.to_json(1, 1, 0, 0).get("zones").unwrap().clone();
        assert_eq!(zones.get("jobs").unwrap().as_u64(), Some(0));
        m.zone_job(2, 12, 4);
        m.zone_job(4, 16, 4);
        let zones = m.to_json(1, 1, 0, 0).get("zones").unwrap().clone();
        assert_eq!(zones.get("jobs").unwrap().as_u64(), Some(2));
        assert_eq!(zones.get("tasks").unwrap().as_u64(), Some(28));
        assert_eq!(zones.get("shards_last").unwrap().as_u64(), Some(4));
        assert_eq!(zones.get("peak_ready_last").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn gauges_move_both_ways() {
        let m = Metrics::new();
        m.set_queue_depth(3);
        m.executor_started();
        m.executor_started();
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        let j = m.to_json(1, 1, 0, 0);
        assert_eq!(j.get("queue_depth").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("executor_busy").unwrap().as_u64(), Some(2));
        assert_eq!(m.executors_busy(), 2);
        assert_eq!(j.get("open_connections").unwrap().as_u64(), Some(1));
        m.set_queue_depth(0);
        m.executor_finished();
        m.executor_finished();
        m.executor_panicked();
        let j = m.to_json(1, 1, 0, 0);
        assert_eq!(j.get("queue_depth").unwrap().as_u64(), Some(0));
        assert_eq!(j.get("executor_busy").unwrap().as_u64(), Some(0));
        assert_eq!(j.get("executor_panics_total").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn schedule_kernel_and_stale_counters_land_in_the_snapshot() {
        let m = Metrics::new();
        m.solve_schedule("dynamic");
        m.solve_schedule("auto");
        m.solve_schedule("weird"); // folds into static
        m.kernel_seconds("rhs", 0.25);
        m.kernel_seconds("rhs", 0.25);
        m.kernel_seconds("no_such_kernel", 0.125);
        m.set_tune_entries_stale(3);
        let j = m.to_json(1, 1, 0, 0);
        let sched = j.get("solves_by_schedule").unwrap();
        assert_eq!(sched.get("dynamic").unwrap().as_u64(), Some(1));
        assert_eq!(sched.get("auto").unwrap().as_u64(), Some(1));
        assert_eq!(sched.get("static").unwrap().as_u64(), Some(1));
        let kernels = j.get("kernel_seconds").unwrap();
        assert_eq!(kernels.get("rhs").unwrap().as_f64(), Some(0.5));
        assert_eq!(kernels.get("other").unwrap().as_f64(), Some(0.125));
        assert_eq!(j.get("tune_entries_stale").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn prometheus_rendering_is_typed_labeled_and_cumulative() {
        let m = Metrics::new();
        m.request("solve");
        m.request("metrics");
        m.response(200);
        m.response(429);
        m.solve_width(4);
        m.solve_schedule("auto");
        m.kernel_seconds("rhs", 0.5);
        m.set_tune_entries_stale(1);
        m.observe_latency_ms(3.0);
        m.observe_latency_ms(700.0);
        let text = m.to_prometheus(4, 2, 36, 18);
        // Typed families.
        assert!(text.contains("# TYPE llpd_requests_total counter\n"));
        assert!(text.contains("# TYPE llpd_queue_depth gauge\n"));
        assert!(text.contains("# TYPE llpd_request_latency_ms histogram\n"));
        assert!(text.contains("# TYPE llpd_tune_entries_stale gauge\n"));
        // Values and labels.
        assert!(text.contains("\nllpd_requests_total 2\n"), "{text}");
        assert!(text.contains("llpd_requests_by_endpoint_total{endpoint=\"solve\"} 1\n"));
        assert!(text.contains("llpd_responses_total{status=\"429\"} 1\n"));
        assert!(text.contains("llpd_solves_by_vector_width_total{vector_width=\"4\"} 1\n"));
        assert!(text.contains("llpd_solves_by_schedule_total{schedule=\"auto\"} 1\n"));
        assert!(text.contains("llpd_kernel_seconds_total{kernel=\"rhs\"} 0.5\n"));
        assert!(text.contains("llpd_tune_entries_stale 1\n"));
        assert!(text.contains("llpd_pool_workers 4\n"));
        assert!(text.contains("llpd_pool_sync_events_total 36\n"));
        // Histogram: cumulative buckets end at +Inf and match count.
        assert!(text.contains("llpd_request_latency_ms_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("llpd_request_latency_ms_count 2\n"));
        assert!(text.contains("llpd_request_latency_ms_sum 703\n"));
        let mut last = 0u64;
        let mut buckets = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("llpd_request_latency_ms_bucket{le=\"") {
                let count: u64 = rest.split("} ").nth(1).unwrap().parse().unwrap();
                assert!(count >= last, "buckets must be cumulative: {line}");
                last = count;
                buckets += 1;
            }
        }
        assert!(buckets > 2, "expected a bucket ladder");
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').unwrap();
            assert!(name.starts_with("llpd_"), "{line}");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "unparseable value in {line}"
            );
        }
    }

    #[test]
    fn histograms_land_in_the_snapshot() {
        let m = Metrics::new();
        m.observe_latency_ms(0.7);
        m.observe_latency_ms(3.0);
        m.observe_latency_ms(40.0);
        m.observe_queue_depth(0);
        m.observe_queue_depth(5);
        let j = m.to_json(1, 1, 0, 0);
        let lat = j.get("latency_ms").unwrap();
        assert_eq!(lat.get("count").and_then(Json::as_u64), Some(3));
        assert!(lat.get("p50").unwrap().as_f64().unwrap() <= 5.0);
        assert!(lat.get("p99").unwrap().as_f64().unwrap() >= 40.0);
        let q = j.get("queue_depths").unwrap();
        assert_eq!(q.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(m.latency_quantile_ms(0.5), Some(5.0));
        // Cumulative buckets end at +Inf.
        let buckets = lat.get("buckets").and_then(Json::as_array).unwrap();
        assert_eq!(
            buckets.last().unwrap().get("le").and_then(Json::as_str),
            Some("+Inf")
        );
    }
}
