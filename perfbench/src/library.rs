//! The library workloads, `f3d_zonal` and `fdtd_sync`: one op is one
//! time step through the suite's public stepping API, driven from
//! outside with the benchmark's own timers around each call.

use crate::closure::{fold_kernels, Closure, KernelTotals};
use crate::gate::{bits, Gate};
use crate::metrics::Sink;
use crate::model::{residual, KernelModel};
use crate::probes::ChunkShares;
use crate::rng::Rng;
use crate::stats::{median, Intervals};
use crate::{alloc, WORKERS};
use f3d::multizone::MultiZoneSolver;
use f3d::validation::FieldChecksum;
use fdtd::service::{FdtdCase, FdtdInstance};
use fdtd::FdtdSolver;
use llp::obs::json::Json;
use llp::obs::timeline::DEFAULT_EVENT_CAPACITY;
use llp::{FlightRecorder, Policy, Workers};
use mesh::{Dims, MultiZoneGrid};
use solver::{Solver, SolverInstance, WidthMap};
use std::time::Instant;

/// Setups timed per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// One steppable library case.
pub trait Stepper {
    /// Timed ops per case. A run makes a fresh case (untimed) every
    /// `EPISODE` ops, so its memory stays bounded however many ops it
    /// makes, and one reference episode checks every op.
    const EPISODE: usize;
    /// Advance one op; the caller times this call.
    fn step(&mut self, pool: &Workers);
    /// Record the op's outputs for the gate (untimed).
    fn record(&mut self);
    /// Output bits of every op so far, in op order, and of the final
    /// state where the per-op outputs do not already cover it.
    fn finish(self) -> (Vec<Vec<u64>>, Vec<u64>);
}

/// `f3d_zonal`: a 4-zone J-chained f3d grid (48×24×20 split along J),
/// stepped with pure loop-level parallelism at scalar width.
pub struct F3dZonal {
    solver: MultiZoneSolver,
    outputs: Vec<Vec<u64>>,
}

impl F3dZonal {
    /// The case for `seed`: the seed sets the phase of a 1 % density
    /// perturbation, so every seed steps a different flow at the same
    /// cost.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let grid = MultiZoneGrid::split_j(Dims::new(48, 24, 20), 4);
        let mut solver = MultiZoneSolver::from_grid(&grid, f3d::SolverConfig::supersonic(), 0.3);
        let phase = Rng::new(seed, 1).unit() * std::f64::consts::TAU;
        for zi in 0..solver.zone_count() {
            let zone = solver.zone_mut(zi);
            for p in zone.dims().iter_jkl() {
                let mut q = zone.q.get(p);
                #[allow(clippy::cast_precision_loss)]
                let x = (p.j + 2 * p.k + 3 * p.l + zi) as f64;
                q[0] *= 1.0 + 0.01 * (x + phase).sin();
                zone.q.set(p, q);
            }
        }
        Self {
            solver,
            outputs: Vec::new(),
        }
    }
}

impl Stepper for F3dZonal {
    const EPISODE: usize = 32;

    fn step(&mut self, pool: &Workers) {
        self.solver.step_loop_level(pool, None);
    }

    fn record(&mut self) {
        let mut out = Vec::new();
        for zi in 0..self.solver.zone_count() {
            let c = FieldChecksum::of(&self.solver.zone(zi).q);
            for part in [&c.sum, &c.sum_sq, &c.min, &c.max] {
                out.extend(bits(part));
            }
        }
        self.outputs.push(out);
    }

    fn finish(self) -> (Vec<Vec<u64>>, Vec<u64>) {
        (self.outputs, Vec::new())
    }
}

/// `fdtd_sync`: a 32² FDTD PEC cavity stepped through the
/// `SolverInstance` API.
pub struct FdtdSync {
    instance: FdtdInstance,
    next_step: usize,
    first_step: usize,
}

impl FdtdSync {
    /// The case for `seed`: the seed sets the step index stepping
    /// starts at, which shifts the source pulse's phase.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let case = FdtdCase {
            size: 32,
            steps: 1,
            workers: WORKERS,
            schedule: Policy::Static,
            vector_width: 1,
        };
        let first_step = Rng::new(seed, 2).below(16);
        Self {
            instance: FdtdSolver::create_instance(&case, &WidthMap::uniform(1)),
            next_step: first_step,
            first_step,
        }
    }
}

impl Stepper for FdtdSync {
    const EPISODE: usize = 512;

    fn step(&mut self, pool: &Workers) {
        self.instance.step(pool, self.next_step, None);
        self.next_step += 1;
    }

    // The instance's energy history records every op; `finish` reads it.
    fn record(&mut self) {}

    fn finish(self) -> (Vec<Vec<u64>>, Vec<u64>) {
        let ops = self.next_step - self.first_step;
        let out = self.instance.finish();
        let energy: Vec<Vec<u64>> = out.energy.iter().map(|e| vec![e.to_bits()]).collect();
        debug_assert_eq!(energy.len(), ops);
        let fields = out
            .checksums
            .iter()
            .flat_map(|c| bits(&[c.sum, c.sum_sq, c.min, c.max]))
            .collect();
        (energy, fields)
    }
}

/// How long a phase runs: until either limit is reached (at least one
/// op always runs).
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Op limit.
    pub ops: Option<usize>,
    /// Wall-clock limit.
    pub seconds: Option<f64>,
}

impl Budget {
    /// Run for `seconds`.
    #[must_use]
    pub fn seconds(seconds: f64) -> Self {
        Self {
            ops: None,
            seconds: Some(seconds),
        }
    }

    /// Run exactly `ops` ops.
    #[must_use]
    pub fn ops(ops: usize) -> Self {
        Self {
            ops: Some(ops),
            seconds: None,
        }
    }

    fn done(&self, ops: usize, started: Instant) -> bool {
        ops > 0
            && (self.ops.is_some_and(|n| ops >= n)
                || self
                    .seconds
                    .is_some_and(|s| started.elapsed().as_secs_f64() >= s))
    }
}

/// Step fresh cases on `pool` within `budget`, one warm-up op and then
/// up to `S::EPISODE` timed ops per case, gating every op's outputs
/// (the warm-up op's and the final state as untimed checks) against
/// `reference`. `after` runs untimed after each op, with the
/// op's seconds (`None` for a warm-up op).
fn run_ops<S: Stepper>(
    make: &impl Fn() -> S,
    pool: &Workers,
    budget: Budget,
    reference: &(Vec<Vec<u64>>, Vec<u64>),
    gate: &mut Gate,
    mut after: impl FnMut(&Workers, Option<f64>),
) -> Intervals {
    let started = Instant::now();
    let mut times = Intervals::default();
    let mut ops = 0;
    while !budget.done(ops, started) {
        let mut stepper = make();
        stepper.step(pool);
        stepper.record();
        after(pool, None);
        for _ in 0..S::EPISODE {
            if budget.done(ops, started) {
                break;
            }
            let t = Instant::now();
            stepper.step(pool);
            let dt = t.elapsed().as_secs_f64();
            stepper.record();
            after(pool, Some(dt));
            times.push(dt);
            ops += 1;
        }
        let (outputs, last) = stepper.finish();
        let (warm, timed) = outputs.split_first().expect("the warm-up op is recorded");
        let warm_want = reference.0.first().map(Vec::as_slice);
        gate.untimed(|g| g.check_bits("warm-up op of an episode", warm, warm_want));
        for (i, out) in timed.iter().enumerate() {
            gate.check_bits(
                &format!("op {} of an episode", i + 1),
                out,
                reference.0.get(i + 1).map(Vec::as_slice),
            );
        }
        // The final state matches the reference's only after a whole
        // episode; the budget may have cut this one short.
        if outputs.len() == reference.0.len() {
            gate.untimed(|g| {
                g.check_bits("final state of an episode", &last, Some(&reference.1));
            });
        }
    }
    times
}

/// One episode (warm-up op included) on a 1-worker pool: the reference
/// every run's ops are gated against.
fn reference<S: Stepper>(make: &impl Fn() -> S) -> (Vec<Vec<u64>>, Vec<u64>) {
    let serial = Workers::new(1);
    let mut stepper = make();
    for _ in 0..=S::EPISODE {
        stepper.step(&serial);
        stepper.record();
    }
    stepper.finish()
}

/// The untraced run: timed set-ups (pool, case and one warm-up op),
/// then ops for `seconds`, each gated against a 1-worker reference.
pub fn untraced<S: Stepper>(make: impl Fn() -> S, seconds: f64, sink: &mut Sink, gate: &mut Gate) {
    let reference = reference(&make);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut pool = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let workers = Workers::new(WORKERS);
        let mut stepper = make();
        stepper.step(&workers);
        setup_s.push(t.elapsed().as_secs_f64());
        pool = Some(workers);
    }
    let pool = pool.expect("at least one set-up");
    let times = run_ops(
        &make,
        &pool,
        Budget::seconds(seconds),
        &reference,
        gate,
        |_, _| {},
    );
    let t = times.summary();
    sink.set("setup_s", median(&setup_s));
    sink.set("ops_per_s", t.rate);
    sink.set("op_ms_p50", t.p50 * 1e3);
    sink.set("op_ms_p90", t.p90 * 1e3);
    // No cache sits in front of a library step: every op executes, so
    // every op is a miss and a repeat costs what a fresh op costs.
    sink.set("miss_ms_p50", t.p50 * 1e3);
    sink.set("miss_ms_p90", t.p90 * 1e3);
    sink.set("hit_ms_p50", t.p50 * 1e3);
    crate::report_intervals("op_ms", &t);
}

/// Which physics a traced library run measures: its metric prefix and
/// kernel vocabulary.
pub struct Layout {
    /// Step-layer metric prefix (`f3d`, `fdtd`).
    pub prefix: &'static str,
    /// Every span kernel of a step.
    pub kernels: &'static [&'static str],
    /// The kernels that run parallel regions (the solver's tuning
    /// vocabulary).
    pub parallel: fn() -> &'static [&'static str],
}

/// `f3d_zonal`'s layout.
pub const F3D: Layout = Layout {
    prefix: "f3d",
    kernels: &crate::metrics::F3D_KERNELS,
    parallel: <f3d::service::F3dSolver as Solver>::kernel_names,
};

/// `fdtd_sync`'s layout.
pub const FDTD: Layout = Layout {
    prefix: "fdtd",
    kernels: &crate::metrics::FDTD_KERNELS,
    parallel: <FdtdSolver as Solver>::kernel_names,
};

/// Kernel totals of a traced phase, looked up by name.
fn kernel<'a>(totals: &'a [(String, KernelTotals)], name: &str) -> Option<&'a KernelTotals> {
    totals.iter().find(|(n, _)| n == name).map(|(_, t)| t)
}

/// The traced run. After the 1-worker reference episode, four phases
/// step the same case:
///
/// 1. traced, 2 workers, span and flight recorders on, within
///    `budget` — kernel, step, region and chunk layers;
/// 2. untraced, 2 workers, as many ops — the tracing overhead;
/// 3. traced, 1 worker, at most as many ops and half phase 1's time —
///    the serial kernel times the model needs;
/// 4. untraced, 1 worker, likewise — the serial op time behind
///    `llp.speedup_vs_serial`.
#[allow(clippy::too_many_lines)]
pub fn traced<S: Stepper>(
    make: impl Fn() -> S,
    layout: &Layout,
    budget: Budget,
    region_s: f64,
    sink: &mut Sink,
    gate: &mut Gate,
) {
    let reference = reference(&make);
    let mut pool = Workers::recorded(WORKERS);
    pool.set_flight(FlightRecorder::enabled(WORKERS, DEFAULT_EVENT_CAPACITY));
    let started = Instant::now();
    alloc::reset_peak();
    let mut totals = Vec::new();
    let mut closure = Closure::default();
    let mut shares = ChunkShares::default();
    let traced = run_ops(&make, &pool, budget, &reference, gate, |pool, dt| {
        let report = pool
            .recorder()
            .take_report(layout.prefix, pool.processors());
        let timeline = pool.flight().take_timeline();
        let Some(dt) = dt else { return };
        let covered = fold_kernels(&report.spans, &mut totals);
        closure.add(&Closure {
            parent_s: dt,
            children_s: covered,
        });
        shares.add(&timeline);
    })
    .summary();
    let heap_peak = alloc::peak();
    let serial_budget = Budget {
        ops: Some(traced.ops),
        seconds: Some(started.elapsed().as_secs_f64() / 2.0),
    };
    let n = traced.ops;

    let plain = Workers::new(WORKERS);
    let untraced = run_ops(&make, &plain, Budget::ops(n), &reference, gate, |_, _| {}).summary();

    let serial = Workers::recorded(1);
    let mut serial_totals = Vec::new();
    let mut serial_ops = 0usize;
    run_ops(
        &make,
        &serial,
        serial_budget,
        &reference,
        gate,
        |pool, dt| {
            let report = pool.recorder().take_report(layout.prefix, 1);
            if dt.is_some() {
                serial_ops += 1;
                fold_kernels(&report.spans, &mut serial_totals);
            }
        },
    );
    let plain_serial = Workers::new(1);
    let serial_untraced = run_ops(
        &make,
        &plain_serial,
        serial_budget,
        &reference,
        gate,
        |_, _| {},
    )
    .summary();

    #[allow(clippy::cast_precision_loss)]
    let per_op = |x: f64| x / n as f64;
    let mut models = Vec::new();
    let mut syncs = 0u64;
    for name in layout.kernels {
        let t = kernel(&totals, name).cloned().unwrap_or_default();
        syncs += t.sync_events;
        sink.set(
            &format!("kernel.{name}.ms_per_step"),
            per_op(t.seconds) * 1e3,
        );
        #[allow(clippy::cast_precision_loss)]
        sink.set(
            &format!("kernel.{name}.sync_events_per_step"),
            per_op(t.sync_events as f64),
        );
        if !(layout.parallel)().contains(name) {
            continue;
        }
        #[allow(clippy::cast_precision_loss)]
        let serial_s =
            kernel(&serial_totals, name).map_or(0.0, |k| k.seconds / serial_ops.max(1) as f64);
        #[allow(clippy::cast_precision_loss)]
        let model = KernelModel::new(
            name,
            serial_s,
            per_op(t.seconds),
            per_op(t.sync_events as f64),
            t.iterations as f64 / (t.sync_events.max(1)) as f64,
            WORKERS,
            region_s,
        );
        sink.set(&format!("kernel.{name}.speedup"), model.speedup());
        sink.set(
            &format!("kernel.{name}.modeled_speedup"),
            model.modeled_speedup(),
        );
        models.push(model);
    }
    let p = layout.prefix;
    sink.set(&format!("{p}.step_ms_p50"), traced.p50 * 1e3);
    sink.set(
        &format!("{p}.step.unattributed_share"),
        closure.unattributed_share(),
    );
    #[allow(clippy::cast_precision_loss)]
    {
        sink.set("llp.regions_per_op", per_op(syncs as f64));
        sink.set("mem.peak_heap_bytes", heap_peak as f64);
    }
    shares.report(sink);
    sink.set("llp.speedup_vs_serial", serial_untraced.p50 / untraced.p50);
    let signed_residual = residual(&models);
    sink.set("llp.model_residual", signed_residual.abs());
    sink.set("obs.trace_overhead_share", traced.p50 / untraced.p50 - 1.0);
    crate::detail(
        &format!("{p}.closure"),
        Json::object(vec![
            ("ops", Json::from_usize(n)),
            ("step_s", Json::Num(closure.parent_s)),
            ("kernel_spans_s", Json::Num(closure.children_s)),
            ("unattributed_s", Json::Num(closure.unattributed_s())),
        ]),
    );
    let kernels = models
        .iter()
        .map(|m| {
            Json::object(vec![
                ("kernel", Json::str(&m.name)),
                ("serial_ms", Json::Num(m.serial_s * 1e3)),
                ("measured_ms", Json::Num(m.parallel_s * 1e3)),
                ("modeled_ms", Json::Num(m.modeled_parallel_s * 1e3)),
                ("speedup", Json::Num(m.speedup())),
                ("modeled_speedup", Json::Num(m.modeled_speedup())),
            ])
        })
        .collect();
    crate::detail(
        &format!("{p}.model"),
        Json::object(vec![
            ("kernels", Json::Array(kernels)),
            ("signed_residual", Json::Num(signed_residual)),
        ]),
    );
}
