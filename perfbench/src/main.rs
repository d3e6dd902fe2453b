//! `perfbench`: the repository benchmark. Drives the suite's public API
//! from outside on one workload and prints every metric by name.
//!
//! ```text
//! perfbench --workload <f3d_zonal|fdtd_sync|llpd_mixed> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every recorder off;
//! `--trace 1` is a separate run that turns the span and flight
//! recorders on and reports the per-layer metrics. Standard output ends
//! with a `detail` line (the host and provenance block, sample counts,
//! closure remainders, the modeled column, the first failure) and then
//! the result line. Run it from the repository root with
//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml
//! -- <flags>`. See README.md for the metric map.

mod alloc;
mod closure;
mod gate;
mod host;
mod library;
mod llpd;
mod metrics;
mod model;
mod probes;
mod rng;
mod stats;

use gate::Gate;
use library::{Budget, F3dZonal, FdtdSync};
use llp::obs::json::Json;
use metrics::Sink;
use std::process::ExitCode;
use std::sync::Mutex;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Pool workers every workload runs at.
pub const WORKERS: usize = 2;

/// Ops an f3d probe steps in another workload's traced run.
const F3D_PROBE_OPS: usize = 8;
/// Ops an fdtd probe steps in another workload's traced run.
const FDTD_PROBE_OPS: usize = 2000;
/// Requests an llpd probe issues in another workload's traced run.
const LLPD_PROBE_REQUESTS: usize = 2 * llpd::CYCLE;
/// Wall seconds after which a run that has not finished is taken to
/// hang: it prints no result and exits non-zero.
const RUN_LIMIT_S: u64 = 170;
/// Environment variables that change the pool's or the server's
/// behaviour; the benchmark runs with the library defaults.
const CLEARED_ENV: [&str; 5] = [
    "LLP_WORKERS",
    "LLP_FLIGHT",
    "LLPD_SHARDS",
    "LLPD_MEM_BUDGET",
    "LLPD_LOG",
];

static DETAIL: Mutex<Vec<(String, Json)>> = Mutex::new(Vec::new());

/// Add `value` to the run's detail line under `key`.
pub fn detail(key: &str, value: Json) {
    DETAIL
        .lock()
        .expect("detail is only pushed to")
        .push((key.to_string(), value));
}

/// Add a latency summary (with its sample count and the tail rule's
/// percentile) to the detail line.
pub fn report_summary(name: &str, s: &stats::Summary) {
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    detail(
        name,
        Json::object(vec![
            ("n", Json::from_usize(s.n)),
            ("p50", Json::Num(s.p50)),
            ("p90", Json::Num(s.p90)),
            ("tail_percentile", opt(s.tail_p)),
            ("tail", opt(s.tail)),
        ]),
    );
}

/// Add an interval summary (op count, medians in ms, rate, and each
/// interval's median in ms) to the detail line.
pub fn report_intervals(name: &str, s: &stats::IntervalSummary) {
    detail(
        name,
        Json::object(vec![
            ("ops", Json::from_usize(s.ops)),
            ("p50", Json::Num(s.p50 * 1e3)),
            ("p90", Json::Num(s.p90 * 1e3)),
            ("ops_per_s", Json::Num(s.rate)),
            (
                "interval_p50_ms",
                Json::Array(s.interval_p50.iter().map(|v| Json::Num(v * 1e3)).collect()),
            ),
        ]),
    );
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    F3dZonal,
    FdtdSync,
    LlpdMixed,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::F3dZonal, Workload::FdtdSync, Workload::LlpdMixed];

    fn name(self) -> &'static str {
        match self {
            Workload::F3dZonal => "f3d_zonal",
            Workload::FdtdSync => "fdtd_sync",
            Workload::LlpdMixed => "llpd_mixed",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <f3d_zonal|fdtd_sync|llpd_mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_string());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".to_string()),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Measure one run; returns the rendered `metrics` object.
fn measure(args: &Args, gate: &mut Gate) -> Result<Json, String> {
    let seed = args.seed;
    let io = |e: std::io::Error| format!("llpd: {e}");
    let mut sink = Sink::default();
    if !args.trace {
        match args.workload {
            Workload::F3dZonal => {
                library::untraced(|| F3dZonal::new(seed), args.seconds, &mut sink, gate);
            }
            Workload::FdtdSync => {
                library::untraced(|| FdtdSync::new(seed), args.seconds, &mut sink, gate);
            }
            Workload::LlpdMixed => {
                llpd::untraced(seed, args.seconds, &mut sink, gate).map_err(io)?
            }
        }
        sink.set("ok_share", 1.0 - gate.failed_share());
        sink.set(
            "peak_rss_mib",
            host::peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?,
        );
        return sink.render(&metrics::end_to_end());
    }

    alloc::enable();
    let region_s = probes::region_s();
    sink.set("llp.region_us_p50", region_s * 1e6);
    let (f3d, fdtd) = (|| F3dZonal::new(seed), || FdtdSync::new(seed));
    // The workload's own layers; then short probes of the layers only
    // the other workloads exercise, so every metric is measured on
    // every workload (the workload's own values win).
    let third = Budget::seconds(args.seconds / 3.0);
    let mut probe = Sink::default();
    match args.workload {
        Workload::F3dZonal => {
            library::traced(f3d, &library::F3D, third, region_s, &mut sink, gate);
        }
        Workload::FdtdSync => {
            library::traced(fdtd, &library::FDTD, third, region_s, &mut sink, gate);
        }
        Workload::LlpdMixed => {
            llpd::traced(seed, Budget::seconds(args.seconds / 2.0), &mut sink, gate).map_err(io)?;
        }
    }
    if args.workload != Workload::F3dZonal {
        let ops = Budget::ops(F3D_PROBE_OPS);
        library::traced(f3d, &library::F3D, ops, region_s, &mut probe, gate);
    }
    if args.workload != Workload::FdtdSync {
        let ops = Budget::ops(FDTD_PROBE_OPS);
        library::traced(fdtd, &library::FDTD, ops, region_s, &mut probe, gate);
    }
    if args.workload != Workload::LlpdMixed {
        llpd::traced(seed, Budget::ops(LLPD_PROBE_REQUESTS), &mut probe, gate).map_err(io)?;
    }
    sink.fill_from(&probe);
    sink.set("failed_share", gate.failed_share());
    sink.render(&metrics::per_layer())
}

fn main() -> ExitCode {
    for name in CLEARED_ENV {
        std::env::remove_var(name);
    }
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(RUN_LIMIT_S));
        eprintln!("perfbench: no result after {RUN_LIMIT_S} s");
        std::process::exit(1);
    });
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut gate = Gate::default();
    let metrics = match measure(&args, &mut gate) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut detail_pairs = vec![
        ("workload".to_string(), Json::str(args.workload.name())),
        ("host".to_string(), host::block(args.seed, args.trace)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("workers".to_string(), Json::from_usize(WORKERS)),
        (
            "untimed_checks".to_string(),
            Json::object(vec![
                ("checked", Json::from_u64(gate.untimed_checked)),
                ("failed", Json::from_u64(gate.untimed_failed)),
            ]),
        ),
        (
            "first_failure".to_string(),
            gate.first_failure.as_deref().map_or(Json::Null, Json::str),
        ),
    ];
    detail_pairs.extend(DETAIL.lock().expect("detail is only pushed to").drain(..));
    println!(
        "{}",
        Json::object(vec![("detail", Json::Object(detail_pairs))])
    );
    println!(
        "{}",
        Json::object(vec![
            ("correct", Json::Bool(gate.correct())),
            ("attempted", Json::from_u64(gate.attempted)),
            ("failed", Json::from_u64(gate.failed)),
            ("metrics", metrics),
        ])
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments() {
        let a = parse("--workload fdtd_sync --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::FdtdSync, 9, 2.5, true)
        );
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload f3d_zonal --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload f3d_zonal --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload f3d_zonal --seed 1 --seconds 1").is_err());
    }
}
