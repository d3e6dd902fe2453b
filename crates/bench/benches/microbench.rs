//! Microbenchmarks: real wall-clock measurements of the suite's hot
//! paths on the host CPU, using a small self-contained harness
//! (`harness = false`; the environment has no criterion).
//!
//! These complement the simulated-machine tables: the simulator
//! reproduces the paper's 1999-hardware shapes, while these benches
//! verify the *code* itself behaves as the paper predicts on any
//! cache-based machine — the tuned implementation beats the vector one
//! serially, and the synchronization overhead of a doacross region is
//! measurable.
//!
//! Run with `cargo bench -p bench`; pass a substring argument to run a
//! subset (e.g. `cargo bench -p bench -- obs`).

use f3d::bc::ZoneBcs;
use f3d::blocktri::{solve_block_tridiagonal, BlockTriScratch};
use f3d::risc_impl::RiscStepper;
use f3d::solver::{implicit_central_pencil_w, PencilScratch, SolverConfig};
use f3d::vector_impl::VectorStepper;
use llp::{doacross, Workers};
use mesh::{Dims, Metrics};
use std::hint::black_box;
use std::time::Instant;

/// Time `f` over enough iterations to fill ~200 ms (after one warmup
/// call), printing mean time per iteration.
fn bench(filter: &str, name: &str, mut f: impl FnMut()) {
    if !name.contains(filter) {
        return;
    }
    f(); // warmup
    let probe = Instant::now();
    f();
    let per_iter = probe.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.2 / per_iter) as u64).clamp(1, 1_000_000);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let mean = start.elapsed().as_secs_f64() / iters as f64;
    println!("{name:<40} {:>12} iters  {}", iters, format_time(mean));
}

fn format_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:10.4} s ")
    } else if seconds >= 1e-3 {
        format!("{:10.4} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:10.4} us", seconds * 1e6)
    } else {
        format!("{:10.4} ns", seconds * 1e9)
    }
}

fn bench_f3d_serial(filter: &str) {
    let d = Dims::new(20, 18, 16);
    let metrics = Metrics::cartesian(d, (0.25, 0.25, 0.25));
    let config = SolverConfig::supersonic();
    let bcs = ZoneBcs::projectile();

    {
        let (mut zone, mut stepper) = VectorStepper::new_zone(config, metrics.clone());
        bench(filter, "f3d_step_serial/vector_impl", || {
            stepper.step(black_box(&mut zone), &bcs);
        });
    }
    {
        let (mut zone, mut stepper) = RiscStepper::new_zone(config, metrics.clone());
        let workers = Workers::serial();
        bench(filter, "f3d_step_serial/risc_impl_1worker", || {
            stepper.step(black_box(&mut zone), &bcs, &workers, None);
        });
    }
}

fn bench_blocktri(filter: &str) {
    // Real central-factor systems, not scaled identities: the rows of
    // `implicit_central_pencil_w` over a perturbed supersonic freestream
    // line, so the blocks are dense flux Jacobians, as in the stepper's
    // K and L sweeps, and the timing sees the LU's real arithmetic.
    let config = SolverConfig::supersonic();
    let h = 0.25;
    for n in [16usize, 64, 256] {
        let mut pencil = PencilScratch::new(n);
        for i in 0..n {
            let x = i as f64 / n as f64;
            let mut q = config.flow.conserved();
            for (c, v) in q.iter_mut().enumerate() {
                *v *= 1.0 + 0.05 * (std::f64::consts::TAU * x + c as f64).sin();
            }
            pencil.q_line[i] = q;
            pencil.n_line[i] = [1.0 / h, 0.1 * (3.0 * x).cos() / h, 0.0];
            pencil.dt_line[i] = config.dt;
        }
        implicit_central_pencil_w(&mut pencil, n, config.eps_imp, 0.0, 1);
        let rhs0: Vec<_> = (0..n)
            .map(|i| [1.0, -0.5, 0.25, 0.0, 2.0].map(|v: f64| v + (i as f64).sin()))
            .collect();
        let mut scratch = BlockTriScratch::new(n);
        bench(filter, &format!("block_tridiagonal/{n}"), || {
            let mut rhs = rhs0.clone();
            solve_block_tridiagonal(
                &pencil.lower,
                &pencil.diag,
                &pencil.upper,
                &mut rhs,
                &mut scratch,
            );
            black_box(rhs[n / 2][0]);
        });
    }
}

fn bench_llp_overhead(filter: &str) {
    // The measured cost of one synchronization event (empty doacross):
    // the Table 1 input for the host machine.
    let workers = Workers::new(2);
    bench(filter, "doacross_sync_overhead", || {
        doacross(&workers, black_box(2), |_| {});
    });
}

fn bench_obs_overhead(filter: &str) {
    // The disabled-recorder branch must not change the cost of an
    // instrumented region (the `obs_overhead` integration test asserts
    // zero allocations; this shows the wall-clock side).
    let disabled = Workers::new(2);
    let recorded = Workers::recorded(2);
    bench(filter, "obs/region_recorder_disabled", || {
        doacross(&disabled, black_box(64), |i| {
            black_box(i);
        });
    });
    bench(filter, "obs/region_recorder_enabled", || {
        doacross(&recorded, black_box(64), |i| {
            black_box(i);
        });
        let _ = recorded.recorder().take_report("bench", 2);
    });
}

fn bench_cachesim(filter: &str) {
    use cachesim::patterns::GridTraversal;
    use cachesim::presets::origin2000_r12k;
    let dims = Dims::new(48, 40, 32);
    bench(filter, "cachesim_sweep/example4a", || {
        let mut h = origin2000_r12k().hierarchy();
        h.run_loads(GridTraversal::example4a(dims).addresses());
        black_box(h.counters().l1_misses);
    });
}

fn bench_smpsim_exec(filter: &str) {
    use f3d::trace::risc_step_trace;
    use mesh::MultiZoneGrid;
    let sgi = smpsim::presets::origin2000_r12k_128();
    let trace = risc_step_trace(&MultiZoneGrid::paper_one_million(), &sgi.memory);
    let exec = sgi.executor();
    bench(filter, "smpsim_execute_1m_trace", || {
        black_box(exec.execute(&trace, black_box(64)).seconds);
    });
}

fn main() {
    // `cargo bench -- <substring>` filters; `--bench` is passed by cargo.
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .unwrap_or_default();
    bench_f3d_serial(&filter);
    bench_blocktri(&filter);
    bench_llp_overhead(&filter);
    bench_obs_overhead(&filter);
    bench_cachesim(&filter);
    bench_smpsim_exec(&filter);
}
