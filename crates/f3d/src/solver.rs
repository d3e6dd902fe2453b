//! The shared solver core: configuration, per-zone state, and the
//! per-pencil numerical kernels.
//!
//! Both implementations — the legacy [`crate::vector_impl`] and the
//! tuned [`crate::risc_impl`] — call *exactly these kernels* point for
//! point. That is how the suite honors the paper's hard constraint:
//! parallelization "without introducing any changes to the algorithm or
//! the convergence properties of the codes". The implementations differ
//! only in storage arrangement, scratch sizing, loop order, and
//! parallelization; integration tests assert their results agree to
//! machine precision.
//!
//! ## The scheme
//!
//! Beam–Warming approximate factorization with partial flux splitting
//! (Steger–Ying–Schiff):
//!
//! ```text
//! (I + Δt δ_J^± A^±)(I + Δt δ_K B + D_K)(I + Δt δ_L C + D_L) ΔQ = -Δt R(Q)
//! ```
//!
//! * `R(Q)`: Steger–Warming first-order upwind differences in J,
//!   second-order central differences plus scalar artificial
//!   dissipation in K and L.
//! * The J factor uses the split Jacobians (`A⁺` backward-differenced,
//!   `A⁻` forward-differenced) — a block-tridiagonal recurrence along J.
//! * The K and L factors use central Jacobians stabilized with implicit
//!   spectral-radius dissipation — block-tridiagonal recurrences along
//!   K and L.
//!
//! Every factor therefore has a serial dependency along exactly one
//! direction and is freely parallel in the other two: the structure the
//! paper's whole loop-level-parallelization story is built on.

use crate::blocktri::{self, Block, BlockTriScratch, Vec5};
use crate::flux;
use crate::state::FlowState;
use mesh::{Arrangement, Axis, Dims, Ijk, Layout, Metrics, StateField, NCONS};

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Freestream definition.
    pub flow: FlowState,
    /// Time step (nondimensional).
    pub dt: f64,
    /// Second-difference artificial dissipation coefficient for the
    /// central (K, L) directions.
    pub eps2: f64,
    /// Implicit dissipation coefficient (scales the spectral-radius
    /// stabilization of the central factors).
    pub eps_imp: f64,
    /// Nondimensional viscosity `μ/Re`. Zero gives the Euler equations;
    /// positive enables the thin-layer viscous terms in the wall-normal
    /// (L) direction — the "thin-layer Navier-Stokes" mode of F3D.
    pub viscosity: f64,
    /// Prandtl number (heat conduction in the thin-layer energy term).
    pub prandtl: f64,
    /// Local time stepping: when `Some(cfl)`, each point advances with
    /// `dt(p) = cfl / (σ_J + σ_K + σ_L)(p)` instead of the global `dt`
    /// — the standard steady-state convergence accelerator of implicit
    /// codes (time accuracy is forfeited; the steady state is not).
    pub local_cfl: Option<f64>,
}

impl SolverConfig {
    /// A robust default: supersonic projectile-like freestream,
    /// inviscid.
    #[must_use]
    pub fn supersonic() -> Self {
        Self {
            flow: FlowState::freestream(2.0, 0.0),
            dt: 0.05,
            eps2: 0.08,
            eps_imp: 0.3,
            viscosity: 0.0,
            prandtl: 0.72,
            local_cfl: None,
        }
    }

    /// A subsonic configuration (all characteristic directions mixed),
    /// inviscid.
    #[must_use]
    pub fn subsonic() -> Self {
        Self {
            flow: FlowState::freestream(0.5, 0.0),
            dt: 0.05,
            eps2: 0.08,
            eps_imp: 0.3,
            viscosity: 0.0,
            prandtl: 0.72,
            local_cfl: None,
        }
    }

    /// Thin-layer Navier–Stokes at the given Mach number and Reynolds
    /// number (freestream-based): `viscosity = M∞ / Re` in the usual
    /// nondimensionalization.
    ///
    /// # Panics
    /// Panics for a non-positive Reynolds number.
    #[must_use]
    pub fn viscous(mach: f64, reynolds: f64) -> Self {
        assert!(reynolds > 0.0, "Reynolds number must be positive");
        Self {
            flow: FlowState::freestream(mach, 0.0),
            dt: 0.05,
            eps2: 0.08,
            eps_imp: 0.3,
            viscosity: mach / reynolds,
            prandtl: 0.72,
            local_cfl: None,
        }
    }

    /// Enable local time stepping with the given CFL number
    /// (builder-style).
    ///
    /// # Panics
    /// Panics for a non-positive CFL number.
    #[must_use]
    pub fn with_local_time_stepping(mut self, cfl: f64) -> Self {
        assert!(cfl > 0.0, "CFL number must be positive");
        self.local_cfl = Some(cfl);
        self
    }

    /// Whether the viscous terms are active.
    #[must_use]
    pub fn is_viscous(&self) -> bool {
        self.viscosity > 0.0
    }
}

/// Per-zone solver state.
#[derive(Debug, Clone)]
pub struct ZoneSolver {
    /// Configuration (shared across zones of a case).
    pub config: SolverConfig,
    /// Conserved variables.
    pub q: StateField,
    /// Grid metrics.
    pub metrics: Metrics,
}

impl ZoneSolver {
    /// Initialize a zone to uniform freestream with the storage
    /// `arrangement` the implementation wants (AoS for the RISC code,
    /// SoA for the vector code).
    #[must_use]
    pub fn freestream(
        config: SolverConfig,
        metrics: Metrics,
        layout: Layout,
        arrangement: Arrangement,
    ) -> Self {
        let q = StateField::uniform(metrics.dims(), layout, arrangement, config.flow.conserved());
        Self { config, q, metrics }
    }

    /// Zone dimensions.
    #[must_use]
    pub fn dims(&self) -> Dims {
        self.q.dims()
    }

    /// Max-norm of the difference from freestream (a convergence
    /// monitor for freestream-recovery tests).
    #[must_use]
    pub fn freestream_deviation(&self) -> f64 {
        let fs = self.config.flow.conserved();
        let mut m = 0.0f64;
        for p in self.dims().iter_jkl() {
            let q = self.q.get(p);
            for n in 0..NCONS {
                m = m.max((q[n] - fs[n]).abs());
            }
        }
        m
    }
}

/// Point index along a pencil: `base` with the running index substituted
/// on `axis`.
#[inline]
#[must_use]
pub fn pencil_point(base: Ijk, axis: Axis, i: usize) -> Ijk {
    let mut p = base;
    match axis {
        Axis::J => p.j = i,
        Axis::K => p.k = i,
        Axis::L => p.l = i,
    }
    p
}

/// The time step at one point: the global `dt`, or `cfl / Σσ` under
/// local time stepping.
#[must_use]
pub fn local_dt(zone: &ZoneSolver, p: Ijk) -> f64 {
    match zone.config.local_cfl {
        None => zone.config.dt,
        Some(cfl) => {
            let q = zone.q.get(p);
            let sigma_sum: f64 = Axis::ALL
                .iter()
                .map(|&a| flux::spectral_radius::<1>(&[q], &[zone.metrics.grad(p, a)])[0])
                .sum();
            cfl / sigma_sum.max(1e-300)
        }
    }
}

/// Scratch for one pencil of the solver: state line, metric line,
/// residual line, and the block-tridiagonal workspace. Sized for the
/// longest pencil of a zone; in the RISC implementation one of these
/// lives per worker and stays cache-resident (paper Example 3), in the
/// vector implementation a whole plane of them is materialized.
#[derive(Debug, Clone)]
pub struct PencilScratch {
    /// Conserved state along the pencil.
    pub q_line: Vec<Vec5>,
    /// Metric gradient (direction vector) along the pencil.
    pub n_line: Vec<[f64; 3]>,
    /// Right-hand side / solution along the pencil.
    pub rhs_line: Vec<Vec5>,
    /// Per-point time step along the pencil (filled by `gather`).
    pub dt_line: Vec<f64>,
    /// Block-tridiagonal coefficients.
    pub lower: Vec<Block>,
    /// Diagonal blocks.
    pub diag: Vec<Block>,
    /// Upper blocks.
    pub upper: Vec<Block>,
    /// Thomas-algorithm workspace.
    pub tri: BlockTriScratch,
}

impl PencilScratch {
    /// Scratch for pencils up to `n` points.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            q_line: vec![[0.0; NCONS]; n],
            n_line: vec![[0.0; 3]; n],
            rhs_line: vec![[0.0; NCONS]; n],
            dt_line: vec![0.0; n],
            lower: vec![[[0.0; NCONS]; NCONS]; n],
            diag: vec![[[0.0; NCONS]; NCONS]; n],
            upper: vec![[[0.0; NCONS]; NCONS]; n],
            tri: BlockTriScratch::new(n),
        }
    }

    /// Total scratch bytes — what must fit in cache for the paper's
    /// pencil-resident tuning to work.
    #[must_use]
    pub fn bytes(&self) -> usize {
        let n = self.q_line.len();
        n * (std::mem::size_of::<Vec5>() * 2
            + std::mem::size_of::<[f64; 3]>()
            + std::mem::size_of::<f64>())
            + n * 3 * std::mem::size_of::<Block>()
            + self.tri.bytes()
    }

    /// Gather the state and metrics of one pencil from zone storage.
    pub fn gather(&mut self, zone: &ZoneSolver, axis: Axis, base: Ijk) {
        let n = zone.dims().extent(axis);
        for i in 0..n {
            let p = pencil_point(base, axis, i);
            self.q_line[i] = zone.q.get(p);
            self.n_line[i] = zone.metrics.grad(p, axis);
            self.dt_line[i] = local_dt(zone, p);
        }
    }
}

/// Flops-per-point constants for the kernels, used by the cost model
/// and audited against the kernel source (see `costmodel`).
pub mod flops {
    /// Upwind (Steger–Warming) residual contribution per point.
    pub const RHS_UPWIND: u64 = 290;
    /// Central + dissipation residual contribution per point, per
    /// direction.
    pub const RHS_CENTRAL: u64 = 150;
    /// Implicit upwind (J) factor per point: Jacobians + block-tri.
    pub const IMPLICIT_UPWIND: u64 = 1630;
    /// Implicit central (K or L) factor per point.
    pub const IMPLICIT_CENTRAL: u64 = 1460;
    /// Boundary-condition work per face point.
    pub const BC_POINT: u64 = 40;
    /// Zonal injection per interface point.
    pub const INJECT_POINT: u64 = 10;
    /// Total per interior point per time step (three central directions
    /// share RHS_CENTRAL twice: K and L).
    pub const PER_POINT_STEP: u64 =
        RHS_UPWIND + 2 * RHS_CENTRAL + IMPLICIT_UPWIND + 2 * IMPLICIT_CENTRAL;
}

/// The thin-layer viscous flux at the midpoint between two adjacent
/// points along the wall-normal (L) direction (Pulliam's `Ŝ`):
///
/// ```text
/// S = μ [0,
///        φ u_ζ + (m₂/3) ζ_x,
///        φ v_ζ + (m₂/3) ζ_y,
///        φ w_ζ + (m₂/3) ζ_z,
///        φ (½q² + a²/(Pr(γ−1)))_ζ + (m₂/3)(ζ·u)]
/// ```
///
/// with `φ = |∇ζ|²` and `m₂ = ∇ζ·u_ζ`, all midpoint-averaged;
/// derivatives are one-unit computational differences `(·)_b − (·)_a`.
#[must_use]
pub fn viscous_flux_midpoint(
    q_a: &Vec5,
    q_b: &Vec5,
    n_mid: [f64; 3],
    mu: f64,
    prandtl: f64,
) -> Vec5 {
    use crate::state::{Primitive, GAMMA};
    let pa = Primitive::from_conserved(q_a);
    let pb = Primitive::from_conserved(q_b);
    let phi = n_mid[0] * n_mid[0] + n_mid[1] * n_mid[1] + n_mid[2] * n_mid[2];
    let du = [pb.u - pa.u, pb.v - pa.v, pb.w - pa.w];
    let m2 = n_mid[0] * du[0] + n_mid[1] * du[1] + n_mid[2] * du[2];
    let um = [
        0.5 * (pa.u + pb.u),
        0.5 * (pa.v + pb.v),
        0.5 * (pa.w + pb.w),
    ];
    let q2_zeta = um[0] * du[0] + um[1] * du[1] + um[2] * du[2]; // (½q²)_ζ
    let a2_zeta = GAMMA * (pb.p / pb.rho - pa.p / pa.rho); // (a²)_ζ
    let m4 = n_mid[0] * um[0] + n_mid[1] * um[1] + n_mid[2] * um[2];
    [
        0.0,
        mu * (phi * du[0] + m2 / 3.0 * n_mid[0]),
        mu * (phi * du[1] + m2 / 3.0 * n_mid[1]),
        mu * (phi * du[2] + m2 / 3.0 * n_mid[2]),
        mu * (phi * (q2_zeta + a2_zeta / (prandtl * (GAMMA - 1.0))) + m2 / 3.0 * m4),
    ]
}

/// Gather `W` consecutive pencil points from `i`: their states, the
/// states of their lower and upper neighbours, and their directions.
#[allow(clippy::type_complexity)]
#[inline(always)]
fn gather_lanes<const W: usize>(
    scratch: &PencilScratch,
    i: usize,
) -> ([Vec5; W], [Vec5; W], [Vec5; W], [[f64; 3]; W]) {
    let mut qi = [[0.0; NCONS]; W];
    let mut qm = [[0.0; NCONS]; W];
    let mut qp = [[0.0; NCONS]; W];
    let mut ni = [[0.0; 3]; W];
    for lane in 0..W {
        qi[lane] = scratch.q_line[i + lane];
        qm[lane] = scratch.q_line[i + lane - 1];
        qp[lane] = scratch.q_line[i + lane + 1];
        ni[lane] = scratch.n_line[i + lane];
    }
    (qi, qm, qp, ni)
}

/// Identity rows at both ends of a pencil: the boundary points are
/// owned by the boundary conditions.
fn pin_end_rows(scratch: &mut PencilScratch, n: usize) {
    for i in [0, n - 1] {
        scratch.lower[i] = [[0.0; NCONS]; NCONS];
        scratch.diag[i] = blocktri::identity();
        scratch.upper[i] = [[0.0; NCONS]; NCONS];
    }
}

/// Solve the upwind (J) implicit factor along one pencil:
/// `(I + Δt (δ⁻A⁺ + δ⁺A⁻)) Δ = rhs`, with identity rows pinning the
/// boundary points. `scratch.rhs_line` holds the right-hand side on
/// entry and the solution on return; the per-point time step comes
/// from `scratch.dt_line` (filled by [`PencilScratch::gather`] — the
/// global `dt` or the local-time-stepping value).
///
/// `width` is the SLP lane width: the Jacobians and spectral radii of
/// `width` interior points are evaluated together through the flux lane
/// kernels, and the block products of the Thomas solve run
/// `width`-chunked ([`blocktri::solve_block_tridiagonal_w`]); the
/// recurrence itself stays scalar. Width 1 is the scalar kernel, and
/// widths outside `{2, 4, 8}` run it. Bit-exact at every width, trailing
/// points included.
pub fn implicit_upwind_pencil_w(scratch: &mut PencilScratch, n: usize, width: usize) {
    match width {
        2 => implicit_upwind_lanes::<2>(scratch, n),
        4 => implicit_upwind_lanes::<4>(scratch, n),
        8 => implicit_upwind_lanes::<8>(scratch, n),
        _ => implicit_upwind_lanes::<1>(scratch, n),
    }
}

fn implicit_upwind_lanes<const W: usize>(scratch: &mut PencilScratch, n: usize) {
    assert!(n >= 2, "pencil too short");
    pin_end_rows(scratch, n);
    let mut i = 1;
    while i + W < n {
        implicit_upwind_rows::<W>(scratch, i);
        i += W;
    }
    while i < n - 1 {
        implicit_upwind_rows::<1>(scratch, i);
        i += 1;
    }
    blocktri::solve_block_tridiagonal_w(
        &scratch.lower[..n],
        &scratch.diag[..n],
        &scratch.upper[..n],
        &mut scratch.rhs_line[..n],
        &mut scratch.tri,
        W,
    );
}

/// The upwind-factor rows of the `W` interior points from `i`.
fn implicit_upwind_rows<const W: usize>(scratch: &mut PencilScratch, i: usize) {
    let (qi, qm, qp, ni) = gather_lanes::<W>(scratch, i);
    // Approximate split Jacobians: A± = (A ± ρ I) / 2.
    let a_i = flux::flux_jacobian::<W>(&qi, &ni);
    let r_i = flux::spectral_radius::<W>(&qi, &ni);
    let a_im = flux::flux_jacobian::<W>(&qm, &ni);
    let r_im = flux::spectral_radius::<W>(&qm, &ni);
    let a_ip = flux::flux_jacobian::<W>(&qp, &ni);
    let r_ip = flux::spectral_radius::<W>(&qp, &ni);
    let ident = blocktri::identity();
    for lane in 0..W {
        let ap_i = blocktri::scale(
            &blocktri::add(&a_i[lane], &blocktri::scale(&ident, r_i[lane])),
            0.5,
        );
        let am_i = blocktri::scale(
            &blocktri::sub(&a_i[lane], &blocktri::scale(&ident, r_i[lane])),
            0.5,
        );
        let ap_im = blocktri::scale(
            &blocktri::add(&a_im[lane], &blocktri::scale(&ident, r_im[lane])),
            0.5,
        );
        let am_ip = blocktri::scale(
            &blocktri::sub(&a_ip[lane], &blocktri::scale(&ident, r_ip[lane])),
            0.5,
        );
        // δ⁻A⁺ Δ = A⁺_i Δ_i − A⁺_{i−1} Δ_{i−1};
        // δ⁺A⁻ Δ = A⁻_{i+1} Δ_{i+1} − A⁻_i Δ_i.
        let dt = scratch.dt_line[i + lane];
        scratch.lower[i + lane] = blocktri::scale(&ap_im, -dt);
        scratch.diag[i + lane] =
            blocktri::add(&ident, &blocktri::scale(&blocktri::sub(&ap_i, &am_i), dt));
        scratch.upper[i + lane] = blocktri::scale(&am_ip, dt);
    }
}

/// Solve a central (K or L) implicit factor along one pencil:
/// `(I + Δt δ(A)/2 + Δt (ε σ + σ_v) ∇²) Δ = rhs`, identity rows at the
/// ends. `mu_vis` enables the implicit viscous stabilization
/// (`σ_v = 2 μ |∇ζ|² / ρ`) for the wall-normal factor; pass 0 for the
/// K factor and for inviscid runs. `width` is the SLP lane width, with
/// the same structure and exactness contract as
/// [`implicit_upwind_pencil_w`].
pub fn implicit_central_pencil_w(
    scratch: &mut PencilScratch,
    n: usize,
    eps_imp: f64,
    mu_vis: f64,
    width: usize,
) {
    match width {
        2 => implicit_central_lanes::<2>(scratch, n, eps_imp, mu_vis),
        4 => implicit_central_lanes::<4>(scratch, n, eps_imp, mu_vis),
        8 => implicit_central_lanes::<8>(scratch, n, eps_imp, mu_vis),
        _ => implicit_central_lanes::<1>(scratch, n, eps_imp, mu_vis),
    }
}

fn implicit_central_lanes<const W: usize>(
    scratch: &mut PencilScratch,
    n: usize,
    eps_imp: f64,
    mu_vis: f64,
) {
    assert!(n >= 2, "pencil too short");
    pin_end_rows(scratch, n);
    let mut i = 1;
    while i + W < n {
        implicit_central_rows::<W>(scratch, i, eps_imp, mu_vis);
        i += W;
    }
    while i < n - 1 {
        implicit_central_rows::<1>(scratch, i, eps_imp, mu_vis);
        i += 1;
    }
    blocktri::solve_block_tridiagonal_w(
        &scratch.lower[..n],
        &scratch.diag[..n],
        &scratch.upper[..n],
        &mut scratch.rhs_line[..n],
        &mut scratch.tri,
        W,
    );
}

/// The central-factor rows of the `W` interior points from `i`.
fn implicit_central_rows<const W: usize>(
    scratch: &mut PencilScratch,
    i: usize,
    eps_imp: f64,
    mu_vis: f64,
) {
    let (qi, qm, qp, ni) = gather_lanes::<W>(scratch, i);
    let a_im = flux::flux_jacobian::<W>(&qm, &ni);
    let a_ip = flux::flux_jacobian::<W>(&qp, &ni);
    let sigma = flux::spectral_radius::<W>(&qi, &ni);
    let ident = blocktri::identity();
    for lane in 0..W {
        let nl = ni[lane];
        let sigma_v = if mu_vis > 0.0 {
            let phi = nl[0] * nl[0] + nl[1] * nl[1] + nl[2] * nl[2];
            2.0 * mu_vis * phi / qi[lane][0]
        } else {
            0.0
        };
        let dt = scratch.dt_line[i + lane];
        let d = dt * (eps_imp * sigma[lane] + sigma_v);
        scratch.lower[i + lane] = blocktri::add(
            &blocktri::scale(&a_im[lane], -0.5 * dt),
            &blocktri::scale(&ident, -d),
        );
        scratch.diag[i + lane] = blocktri::add(&ident, &blocktri::scale(&ident, 2.0 * d));
        scratch.upper[i + lane] = blocktri::add(
            &blocktri::scale(&a_ip[lane], 0.5 * dt),
            &blocktri::scale(&ident, -d),
        );
    }
}

/// The full explicit residual at `W` consecutive *interior* points
/// along J (`first.j + lane`), with the flux evaluations routed through
/// the lane kernels. Every lane accumulates its directions in one fixed
/// order (J upwind, K central, L central, then the viscous terms), so
/// every implementation computes bit-identical values regardless of its
/// loop structure, and each lane is bit-identical to `W = 1` at that
/// point.
///
/// # Panics
/// Debug-panics if any lane's point lies on a zone face.
#[must_use]
pub fn residual_points_lanes<const W: usize>(
    zone: &ZoneSolver,
    first: Ijk,
    eps2: f64,
) -> [Vec5; W] {
    let mut r = [[0.0; NCONS]; W];

    let mut q_i = [[0.0; NCONS]; W];
    let mut q_m = [[0.0; NCONS]; W];
    let mut q_p = [[0.0; NCONS]; W];
    let mut nd = [[0.0; 3]; W];

    // J: first-order Steger–Warming upwind differences.
    for lane in 0..W {
        let p = pencil_point(first, Axis::J, first.j + lane);
        debug_assert!(!zone.dims().on_boundary(p), "residual at face point {p}");
        nd[lane] = zone.metrics.grad(p, Axis::J);
        q_i[lane] = zone.q.get(p);
        q_m[lane] = zone.q.get(p.offset(Axis::J, -1));
        q_p[lane] = zone.q.get(p.offset(Axis::J, 1));
    }
    let fp_i = flux::steger_warming::<W>(&q_i, &nd, true);
    let fp_im = flux::steger_warming::<W>(&q_m, &nd, true);
    let fm_ip = flux::steger_warming::<W>(&q_p, &nd, false);
    let fm_i = flux::steger_warming::<W>(&q_i, &nd, false);
    for lane in 0..W {
        for c in 0..NCONS {
            r[lane][c] += (fp_i[lane][c] - fp_im[lane][c]) + (fm_ip[lane][c] - fm_i[lane][c]);
        }
    }

    // K and L: central differences with scalar dissipation.
    for axis in [Axis::K, Axis::L] {
        for lane in 0..W {
            let p = pencil_point(first, Axis::J, first.j + lane);
            nd[lane] = zone.metrics.grad(p, axis);
            q_m[lane] = zone.q.get(p.offset(axis, -1));
            q_p[lane] = zone.q.get(p.offset(axis, 1));
        }
        let f_p = flux::directed_flux::<W>(&q_p, &nd);
        let f_m = flux::directed_flux::<W>(&q_m, &nd);
        let sigma = flux::spectral_radius::<W>(&q_i, &nd);
        for lane in 0..W {
            for c in 0..NCONS {
                let central = 0.5 * (f_p[lane][c] - f_m[lane][c]);
                let diss = eps2 * sigma[lane] * (q_p[lane][c] - 2.0 * q_i[lane][c] + q_m[lane][c]);
                r[lane][c] += central - diss;
            }
        }
    }

    // Thin-layer viscous terms along L: per-lane scalar evaluation —
    // the midpoint flux mixes two points' states, so lanes gain nothing
    // here, and the scalar call keeps the operation sequence identical.
    if zone.config.is_viscous() {
        let mu = zone.config.viscosity;
        let pr = zone.config.prandtl;
        let mid = |a: [f64; 3], b: [f64; 3]| {
            [
                0.5 * (a[0] + b[0]),
                0.5 * (a[1] + b[1]),
                0.5 * (a[2] + b[2]),
            ]
        };
        for lane in 0..W {
            let p = pencil_point(first, Axis::J, first.j + lane);
            let q_c = q_i[lane];
            let q_lo = zone.q.get(p.offset(Axis::L, -1));
            let q_hi = zone.q.get(p.offset(Axis::L, 1));
            let n_i = zone.metrics.grad(p, Axis::L);
            let n_m = zone.metrics.grad(p.offset(Axis::L, -1), Axis::L);
            let n_p = zone.metrics.grad(p.offset(Axis::L, 1), Axis::L);
            let s_hi = viscous_flux_midpoint(&q_c, &q_hi, mid(n_i, n_p), mu, pr);
            let s_lo = viscous_flux_midpoint(&q_lo, &q_c, mid(n_m, n_i), mu, pr);
            for c in 0..NCONS {
                r[lane][c] -= s_hi[c] - s_lo[c];
            }
        }
    }
    r
}

/// Fill `row[j] = −Δt(p)·R(p)` for the interior points `j ∈ 1..jmax−1`
/// of one `(k, l)` row through [`residual_points_lanes`] at the given
/// width — the `rhs`-kernel body both steppers share. Width 1 is the
/// scalar kernel, and widths outside `{2, 4, 8}` run it. Boundary
/// entries of `row` are left untouched; results are bit-identical at
/// every width.
///
/// # Panics
/// Panics if `row` is shorter than the J extent.
pub fn residual_rhs_row_w(
    zone: &ZoneSolver,
    k: usize,
    l: usize,
    eps2: f64,
    width: usize,
    row: &mut [Vec5],
) {
    assert!(row.len() >= zone.dims().j, "row buffer too small");
    match width {
        2 => residual_rhs_row_lanes::<2>(zone, k, l, eps2, row),
        4 => residual_rhs_row_lanes::<4>(zone, k, l, eps2, row),
        8 => residual_rhs_row_lanes::<8>(zone, k, l, eps2, row),
        _ => residual_rhs_row_lanes::<1>(zone, k, l, eps2, row),
    }
}

fn residual_rhs_row_lanes<const W: usize>(
    zone: &ZoneSolver,
    k: usize,
    l: usize,
    eps2: f64,
    row: &mut [Vec5],
) {
    let jmax = zone.dims().j;
    let mut j = 1;
    while j + W < jmax {
        residual_rhs_points::<W>(zone, Ijk::new(j, k, l), eps2, row);
        j += W;
    }
    while j < jmax - 1 {
        residual_rhs_points::<1>(zone, Ijk::new(j, k, l), eps2, row);
        j += 1;
    }
}

/// `row[j] = −Δt(p)·R(p)` for the `W` points from `first` along J.
fn residual_rhs_points<const W: usize>(zone: &ZoneSolver, first: Ijk, eps2: f64, row: &mut [Vec5]) {
    let r = residual_points_lanes::<W>(zone, first, eps2);
    let outs = &mut row[first.j..first.j + W];
    for (lane, (out, r)) in outs.iter_mut().zip(&r).enumerate() {
        let dt_p = local_dt(zone, Ijk::new(first.j + lane, first.k, first.l));
        for (o, v) in out.iter_mut().zip(r) {
            *o = -dt_p * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::Dims;

    fn cartesian_zone(config: SolverConfig, d: Dims) -> ZoneSolver {
        let metrics = Metrics::cartesian(d, (0.2, 0.2, 0.2));
        ZoneSolver::freestream(config, metrics, Layout::jkl(), Arrangement::ComponentInner)
    }

    #[test]
    fn implicit_factor_with_zero_rhs_is_zero() {
        let zone = cartesian_zone(SolverConfig::subsonic(), Dims::new(10, 4, 4));
        let n = 10;
        let mut s = PencilScratch::new(n);
        s.gather(&zone, Axis::J, Ijk::new(0, 1, 1));
        s.rhs_line.iter_mut().for_each(|r| *r = [0.0; NCONS]);
        s.dt_line[..n].fill(0.1);
        implicit_upwind_pencil_w(&mut s, n, 1);
        for r in &s.rhs_line[..n] {
            for &v in r {
                assert_eq!(v, 0.0);
            }
        }
    }

    #[test]
    fn implicit_factor_damps_rhs() {
        // The implicit operator (I + dt L) has spectrum shifted right of
        // 1, so the solve contracts the RHS.
        let zone = cartesian_zone(SolverConfig::supersonic(), Dims::new(12, 4, 4));
        let n = 12;
        let mut s = PencilScratch::new(n);
        s.gather(&zone, Axis::J, Ijk::new(0, 1, 1));
        let mut max_in = 0.0f64;
        for (i, r) in s.rhs_line[..n].iter_mut().enumerate() {
            if i > 0 && i + 1 < n {
                *r = [0.01 * (i as f64).sin(); NCONS];
            } else {
                *r = [0.0; NCONS];
            }
            for &v in r.iter() {
                max_in = max_in.max(v.abs());
            }
        }
        s.dt_line[..n].fill(0.5);
        implicit_upwind_pencil_w(&mut s, n, 1);
        let mut max_out = 0.0f64;
        for r in &s.rhs_line[..n] {
            for &v in r {
                max_out = max_out.max(v.abs());
            }
        }
        assert!(max_out <= max_in * 1.0001, "{max_out} vs {max_in}");
        assert!(max_out > 0.0);
    }

    #[test]
    fn central_factor_identity_at_zero_dt() {
        let zone = cartesian_zone(SolverConfig::subsonic(), Dims::new(4, 9, 4));
        let n = 9;
        let mut s = PencilScratch::new(n);
        s.gather(&zone, Axis::K, Ijk::new(2, 0, 2));
        let rhs_in: Vec<Vec5> = (0..n).map(|i| [i as f64 * 0.01; NCONS]).collect();
        s.rhs_line[..n].copy_from_slice(&rhs_in);
        s.dt_line[..n].fill(0.0);
        implicit_central_pencil_w(&mut s, n, 0.3, 0.0, 1);
        for (i, r) in s.rhs_line[..n].iter().enumerate() {
            for (c, &v) in r.iter().enumerate() {
                assert!(
                    (v - rhs_in[i][c]).abs() < 1e-13,
                    "dt=0 must be identity: point {i} comp {c}"
                );
            }
        }
    }

    #[test]
    fn boundary_rows_pinned() {
        let zone = cartesian_zone(SolverConfig::supersonic(), Dims::new(8, 4, 4));
        let n = 8;
        let mut s = PencilScratch::new(n);
        s.gather(&zone, Axis::J, Ijk::new(0, 1, 1));
        for r in s.rhs_line[..n].iter_mut() {
            *r = [1.0; NCONS];
        }
        // Boundary RHS rows are preserved untouched by the identity rows.
        s.dt_line[..n].fill(0.2);
        implicit_upwind_pencil_w(&mut s, n, 1);
        assert_eq!(s.rhs_line[0], [1.0; NCONS]);
        assert_eq!(s.rhs_line[n - 1], [1.0; NCONS]);
    }

    #[test]
    fn scratch_fits_cache_for_paper_pencils() {
        // The tuned code's claim: pencil scratch for dimensions up to
        // ~1000 fits an 8-MB cache (and 450 fits comfortably in 1 MB
        // per the SPP-1000 discussion scaled to our richer scratch).
        let s = PencilScratch::new(1000);
        assert!(s.bytes() < 8 << 20, "{} bytes", s.bytes());
        let s59 = PencilScratch::new(450);
        assert!(s59.bytes() < (8 << 20) / 2, "{} bytes", s59.bytes());
        // A 450 x 350 plane of the same scratch would NOT fit: the
        // vector code's plane buffers are ~350x larger.
        let plane_bytes = s59.bytes() * 350;
        assert!(plane_bytes > 8 << 20);
    }

    #[test]
    fn gather_reads_zone_storage() {
        let mut zone = cartesian_zone(SolverConfig::subsonic(), Dims::new(5, 4, 3));
        zone.q.set_comp(Ijk::new(2, 1, 1), 0, 9.0);
        let mut s = PencilScratch::new(5);
        s.gather(&zone, Axis::J, Ijk::new(0, 1, 1));
        assert_eq!(s.q_line[2][0], 9.0);
        assert_eq!(s.q_line[0][0], 1.0); // freestream density
                                         // metric gradient for J on this Cartesian grid is (1/0.2, 0, 0)
        assert!((s.n_line[3][0] - 5.0).abs() < 1e-12);
        assert_eq!(s.n_line[3][1], 0.0);
    }

    #[test]
    fn freestream_deviation_zero_then_positive() {
        let mut zone = cartesian_zone(SolverConfig::supersonic(), Dims::new(4, 4, 4));
        assert_eq!(zone.freestream_deviation(), 0.0);
        let mut q = zone.q.get(Ijk::new(1, 1, 1));
        q[0] += 0.25;
        zone.q.set(Ijk::new(1, 1, 1), q);
        assert!((zone.freestream_deviation() - 0.25).abs() < 1e-14);
    }

    #[test]
    fn residual_point_zero_at_freestream() {
        let zone = cartesian_zone(SolverConfig::supersonic(), Dims::new(6, 6, 6));
        for p in zone.dims().iter_jkl() {
            if zone.dims().on_boundary(p) {
                continue;
            }
            let r = residual_points_lanes::<1>(&zone, p, 0.1)[0];
            for &v in &r {
                assert!(v.abs() < 1e-13, "residual {v} at {p}");
            }
        }
    }

    #[test]
    fn viscous_flux_vanishes_for_uniform_flow() {
        let fs = SolverConfig::viscous(2.0, 1.0e5);
        let q = fs.flow.conserved();
        let s = viscous_flux_midpoint(&q, &q, [0.0, 0.0, 5.0], fs.viscosity, fs.prandtl);
        for &v in &s {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn viscous_flux_opposes_shear() {
        // A velocity gradient along L produces a momentum flux of the
        // gradient's sign and a matching work term.
        use crate::state::Primitive;
        let lo = Primitive {
            rho: 1.0,
            u: 0.5,
            v: 0.0,
            w: 0.0,
            p: 1.0,
        }
        .to_conserved();
        let hi = Primitive {
            rho: 1.0,
            u: 1.5,
            v: 0.0,
            w: 0.0,
            p: 1.0,
        }
        .to_conserved();
        let n = [0.0, 0.0, 2.0]; // wall-normal metric
        let s = viscous_flux_midpoint(&lo, &hi, n, 0.01, 0.72);
        // u_zeta = +1, phi = 4: S[1] = mu*phi*du = 0.04.
        assert!((s[1] - 0.04).abs() < 1e-12, "{}", s[1]);
        assert_eq!(s[0], 0.0);
        // energy flux = mu*phi*(u_mid*du) = 0.01*4*1.0 = 0.04
        assert!((s[4] - 0.04).abs() < 1e-12, "{}", s[4]);
        // antisymmetric under swapping the two states
        let s_rev = viscous_flux_midpoint(&hi, &lo, n, 0.01, 0.72);
        assert!((s_rev[1] + s[1]).abs() < 1e-12);
    }

    #[test]
    fn viscous_residual_diffuses_shear() {
        // A sinusoidal u(z) profile must feel a residual that pushes
        // back toward uniformity: R has the sign of u - u_mean locally
        // (diffusion), at the extremum of the profile.
        let d = Dims::new(4, 4, 9);
        let mut config = SolverConfig::viscous(2.0, 1.0e3);
        config.eps2 = 0.0; // isolate the viscous term from dissipation
        let metrics = Metrics::cartesian(d, (0.5, 0.5, 0.5));
        let mut zone =
            ZoneSolver::freestream(config, metrics, Layout::jkl(), Arrangement::ComponentInner);
        // Superimpose a shear du(z) on the freestream, constant in J/K
        // so only the viscous L-term acts on momentum.
        for p in d.iter_jkl() {
            let mut q = zone.q.get(p);
            let du = 0.2 * (std::f64::consts::PI * p.l as f64 / (d.l - 1) as f64).sin();
            q[1] += q[0] * du;
            // keep energy consistent with unchanged pressure
            let prim = crate::state::Primitive::from_conserved(&[q[0], q[1], q[2], q[3], q[4]]);
            let _ = prim; // pressure changed implicitly; acceptable for the sign test
            zone.q.set(p, q);
        }
        // At the profile peak (l = middle), u exceeds its neighbors: the
        // viscous term must produce a positive R[1] (since update is
        // -dt*R, u decreases).
        let peak = Ijk::new(2, 2, (d.l - 1) / 2);
        let r_visc = residual_points_lanes::<1>(&zone, peak, 0.0)[0];
        let mut inviscid_zone = zone.clone();
        inviscid_zone.config.viscosity = 0.0;
        let r_inv = residual_points_lanes::<1>(&inviscid_zone, peak, 0.0)[0];
        let visc_contrib = r_visc[1] - r_inv[1];
        assert!(
            visc_contrib > 0.0,
            "viscous term must damp the peak: {visc_contrib}"
        );
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn per_point_flop_budget_is_f3d_scale() {
        // Sanity: implicit CFD does thousands of flops per point per
        // step ("they do more work per time step").
        assert!(flops::PER_POINT_STEP > 2_000);
        assert!(flops::PER_POINT_STEP < 10_000);
    }
}
