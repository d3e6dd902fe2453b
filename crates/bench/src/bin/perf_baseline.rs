//! Performance baseline: a small multi-zone solver case run *measured*
//! (real threads, span recorder on) at several worker counts, emitted
//! as a versioned, schema-stable JSON report.
//!
//! The report seeds the `BENCH_*.json` trajectory: every future
//! performance PR regresses per-kernel seconds, sync-event counts, and
//! speedup against this file. Run with
//!
//! ```text
//! cargo run --release -p bench --bin perf_baseline [-- <output-path>]
//! ```
//!
//! The JSON is printed to stdout and, unless an explicit output path is
//! given, written to `BENCH_perf_baseline.json` in the current
//! directory. Schema (`schema_version` 3):
//!
//! ```text
//! { schema_version, bench, case, steps, worker_counts: [..],
//!   runs: [ { workers, seconds, sync_events, speedup_vs_1,
//!             kernels: [ { name, invocations, seconds, sync_events,
//!                          parallelized, parallelism, max_imbalance,
//!                          overhead_measured } ] } ],
//!   width_sweep: { workers, vector_widths: [..],
//!                  runs: [ { vector_width, seconds,
//!                            kernels: [ { name, seconds } ] } ] },
//!   llp_slp: [ { name, llp_speedup, best_slp_width, slp_speedup,
//!                llp_slp_product } ] }
//! ```
//!
//! `overhead_measured` is the flight recorder's per-kernel measured
//! sync fraction `(barrier + claim) / total attributed ns` — the
//! empirical counterpart of `perfmodel::overhead`'s Table 1 bound
//! (v2 addition; kernels the timeline cannot attribute report 0).
//!
//! v3 adds the second parallelism axis: `width_sweep` re-runs the case
//! at the top worker count with every SLP lane width applied uniformly,
//! and `llp_slp` reports the per-kernel product of the two axes —
//! `llp_speedup` (workers, at width 1) times `slp_speedup` (best width,
//! at the top worker count) — the measured counterpart of the paper's
//! loop-level × superword-level decomposition.
//!
//! Wall times are machine-dependent; the *schema* and the structural
//! fields (sync events, parallelism, kernel set) are what the
//! regression test pins.

use f3d::multizone::MultiZoneSolver;
use f3d::solver::SolverConfig;
use llp::obs::attr::kernel_overheads;
use llp::obs::json::Json;
use llp::obs::timeline::DEFAULT_EVENT_CAPACITY;
use llp::{AttributionReport, FlightRecorder, Workers};
use mesh::MultiZoneGrid;
use solver::{WidthMap, SUPPORTED_WIDTHS};

/// Worker counts the baseline sweeps (≥ 3, including the serial run
/// the speedups are normalized to).
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 4];

/// Warm-up steps (excluded from the report) and measured steps.
const WARMUP_STEPS: usize = 2;
const MEASURED_STEPS: usize = 5;

fn run_case(workers: usize, width: usize) -> (llp::ObsReport, llp::Timeline) {
    let grid = MultiZoneGrid::small_test_case();
    let mut solver = MultiZoneSolver::from_grid(&grid, SolverConfig::subsonic(), 0.3);
    solver.set_kernel_widths(&WidthMap::uniform(width));
    let w = Workers::new(workers);
    for _ in 0..WARMUP_STEPS {
        solver.step_loop_level(&w, None);
    }
    let mut w = Workers::recorded(workers);
    w.set_flight(FlightRecorder::enabled(workers, DEFAULT_EVENT_CAPACITY));
    for _ in 0..MEASURED_STEPS {
        solver.step_loop_level(&w, None);
    }
    (
        w.recorder().take_report("small_test_case", workers),
        w.flight().take_timeline(),
    )
}

fn run_json(report: &llp::ObsReport, timeline: &llp::Timeline, serial_seconds: f64) -> Json {
    let seconds = report.total_seconds();
    let attr = AttributionReport::from_timeline(timeline);
    let overheads = kernel_overheads(report, &attr);
    let measured = |name: &str| {
        overheads
            .iter()
            .find(|o| o.kernel == name)
            .map_or(0.0, |o| o.overhead_measured)
    };
    let kernels = report
        .kernel_summaries()
        .into_iter()
        .map(|k| {
            let overhead_measured = measured(&k.name);
            Json::object(vec![
                ("name", Json::Str(k.name)),
                ("invocations", Json::Num(k.invocations as f64)),
                ("seconds", Json::Num(k.seconds)),
                ("sync_events", Json::Num(k.sync_events as f64)),
                ("parallelized", Json::Bool(k.parallelized)),
                ("parallelism", Json::Num(k.parallelism as f64)),
                ("max_imbalance", Json::Num(k.max_imbalance)),
                ("overhead_measured", Json::Num(overhead_measured)),
            ])
        })
        .collect();
    Json::object(vec![
        ("workers", Json::Num(report.workers as f64)),
        ("seconds", Json::Num(seconds)),
        ("sync_events", Json::Num(report.sync_events() as f64)),
        ("speedup_vs_1", Json::Num(serial_seconds / seconds)),
        ("kernels", Json::Array(kernels)),
    ])
}

/// Per-kernel seconds, by kernel name.
type KernelSeconds = Vec<(String, f64)>;

/// One width-sweep row: lane width, total seconds, per-kernel seconds.
type WidthRow = (usize, f64, KernelSeconds);

/// Per-kernel seconds from one report, by kernel name.
fn kernel_seconds(report: &llp::ObsReport) -> KernelSeconds {
    report
        .kernel_summaries()
        .into_iter()
        .map(|k| (k.name, k.seconds))
        .collect()
}

fn seconds_of(table: &[(String, f64)], name: &str) -> f64 {
    table
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |&(_, s)| s)
}

/// Build the full baseline report by running the sweep.
#[must_use]
pub fn baseline_json() -> Json {
    let reports: Vec<(llp::ObsReport, llp::Timeline)> =
        WORKER_COUNTS.iter().map(|&p| run_case(p, 1)).collect();
    let serial_seconds = reports[0].0.total_seconds();

    // Second axis: every lane width at the top worker count, width 1
    // re-measured inside the sweep so the SLP comparison shares one
    // set of measurement conditions.
    let top_workers = WORKER_COUNTS[WORKER_COUNTS.len() - 1];
    let width_reports: Vec<(usize, llp::ObsReport)> = SUPPORTED_WIDTHS
        .iter()
        .map(|&w| (w, run_case(top_workers, w).0))
        .collect();
    let width_tables: Vec<WidthRow> = width_reports
        .iter()
        .map(|(w, r)| (*w, r.total_seconds(), kernel_seconds(r)))
        .collect();

    let width_runs = width_tables
        .iter()
        .map(|(w, total, table)| {
            Json::object(vec![
                ("vector_width", Json::Num(*w as f64)),
                ("seconds", Json::Num(*total)),
                (
                    "kernels",
                    Json::Array(
                        table
                            .iter()
                            .map(|(name, s)| {
                                Json::object(vec![
                                    ("name", Json::Str(name.clone())),
                                    ("seconds", Json::Num(*s)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();

    // The two-axis product per kernel: loop-level speedup from the
    // worker sweep (at width 1) times superword-level speedup from the
    // width sweep (at the top worker count).
    let serial_table = kernel_seconds(&reports[0].0);
    let parallel_table = kernel_seconds(&reports[reports.len() - 1].0);
    let scalar_wide_table = &width_tables[0].2;
    let llp_slp = serial_table
        .iter()
        .map(|(name, serial_s)| {
            let llp = if seconds_of(&parallel_table, name) > 0.0 {
                serial_s / seconds_of(&parallel_table, name)
            } else {
                1.0
            };
            let scalar_s = seconds_of(scalar_wide_table, name);
            let (best_w, best_s) = width_tables
                .iter()
                .map(|(w, _, table)| (*w, seconds_of(table, name)))
                .filter(|&(_, s)| s > 0.0)
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap_or((1, scalar_s));
            let slp = if best_s > 0.0 && scalar_s > 0.0 {
                scalar_s / best_s
            } else {
                1.0
            };
            Json::object(vec![
                ("name", Json::Str(name.clone())),
                ("llp_speedup", Json::Num(llp)),
                ("best_slp_width", Json::Num(best_w as f64)),
                ("slp_speedup", Json::Num(slp)),
                ("llp_slp_product", Json::Num(llp * slp)),
            ])
        })
        .collect();

    Json::object(vec![
        ("schema_version", Json::Num(3.0)),
        ("bench", Json::Str("perf_baseline".into())),
        ("case", Json::Str("small_test_case".into())),
        ("steps", Json::Num(MEASURED_STEPS as f64)),
        (
            "worker_counts",
            Json::Array(WORKER_COUNTS.iter().map(|&p| Json::Num(p as f64)).collect()),
        ),
        (
            "runs",
            Json::Array(
                reports
                    .iter()
                    .map(|(r, t)| run_json(r, t, serial_seconds))
                    .collect(),
            ),
        ),
        (
            "width_sweep",
            Json::object(vec![
                ("workers", Json::Num(top_workers as f64)),
                (
                    "vector_widths",
                    Json::Array(
                        SUPPORTED_WIDTHS
                            .iter()
                            .map(|&w| Json::Num(w as f64))
                            .collect(),
                    ),
                ),
                ("runs", Json::Array(width_runs)),
            ]),
        ),
        ("llp_slp", Json::Array(llp_slp)),
    ])
}

fn main() {
    let args = bench::BenchArgs::from_env(&[], "BENCH_perf_baseline.json");
    let out_path = args.output();
    let json = baseline_json();
    let text = json.to_pretty_string();
    print!("{text}");
    std::fs::write(out_path, &text).expect("write baseline report");
    eprintln!("wrote {out_path}");
}
