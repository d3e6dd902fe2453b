//! Property tests for the kernels' exactness contract.
//!
//! Every kernel is one const-generic body over the lane width `W`, with
//! `W = 1` as its scalar case, and claims *bit*-exactness with the
//! scalar kernel at every width: lane groups vectorize only across
//! independent outputs (block columns, block rows, pencil points) and
//! never chunk a reduction, so no floating-point operation is
//! reassociated. The reference is [`oracle`]: the scalar kernels
//! written out per point, independent of the lane bodies, so that
//! `W = 1` is checked against a second body too.
//!
//! The tests draw random states, random directions, and — critically —
//! random extents that are not multiples of the lane width, so the
//! points past every last full lane group are exercised. Every width in
//! [`SUPPORTED_WIDTHS`] runs, plus [`FALLBACK_WIDTH`] wherever a kernel
//! takes a run-time width. All comparisons are on `f64::to_bits`: a
//! single ULP of drift, or a zero of the wrong sign, is a failure.

use f3d::blocktri::{
    self, matmul_w, matvec_w, solve_block_tridiagonal_w, Block, BlockTriScratch, Lu, Vec5,
};
use f3d::flux;
use f3d::solver::{
    implicit_central_pencil_w, implicit_upwind_pencil_w, residual_rhs_row_w, PencilScratch,
    SolverConfig, ZoneSolver,
};
use f3d::state::Primitive;
use mesh::{Arrangement, Dims, Layout, Zone, NCONS};
use proptest::prelude::*;
use solver::SUPPORTED_WIDTHS;

/// A width outside [`SUPPORTED_WIDTHS`]: kernels run it as `W = 1`.
const FALLBACK_WIDTH: usize = 3;

/// Every run-time width the tests drive.
const WIDTHS: [usize; 5] = [
    SUPPORTED_WIDTHS[0],
    SUPPORTED_WIDTHS[1],
    SUPPORTED_WIDTHS[2],
    SUPPORTED_WIDTHS[3],
    FALLBACK_WIDTH,
];

/// Longest pencil the tests draw: enough interior points to cover a
/// full lane group plus remainder at every supported width.
const MAX_PENCIL: usize = 13;

/// The scalar kernels, one point at a time: the bit-exact reference.
mod oracle {
    use f3d::blocktri::{self, sub, Block, Vec5};
    use f3d::flux::eigenvalues;
    use f3d::solver::{viscous_flux_midpoint, PencilScratch, ZoneSolver};
    use f3d::state::{Primitive, GAMMA};
    use mesh::{Axis, Ijk, NCONS};

    /// The directed Euler flux `F_n(Q)` for direction `n`.
    pub fn directed_flux(q: &[f64; NCONS], n: [f64; 3]) -> [f64; NCONS] {
        let prim = Primitive::from_conserved(q);
        let theta = n[0] * prim.u + n[1] * prim.v + n[2] * prim.w;
        [
            q[0] * theta,
            q[1] * theta + n[0] * prim.p,
            q[2] * theta + n[1] * prim.p,
            q[3] * theta + n[2] * prim.p,
            (q[4] + prim.p) * theta,
        ]
    }

    /// Spectral radius `|θ| + a|n|`.
    pub fn spectral_radius(q: &[f64; NCONS], n: [f64; 3]) -> f64 {
        let (l1, l4, l5) = eigenvalues(q, n);
        l1.abs().max(l4.abs()).max(l5.abs())
    }

    fn split(lambda: f64, positive: bool) -> f64 {
        if positive {
            0.5 * (lambda + lambda.abs())
        } else {
            0.5 * (lambda - lambda.abs())
        }
    }

    /// Steger–Warming split flux `F_n^±(Q)`.
    pub fn steger_warming(q: &[f64; NCONS], n: [f64; 3], positive: bool) -> [f64; NCONS] {
        let prim = Primitive::from_conserved(q);
        let m = (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt();
        assert!(m > 0.0, "direction vector must be nonzero");
        let nt = [n[0] / m, n[1] / m, n[2] / m];
        let a = prim.sound_speed();
        let theta = n[0] * prim.u + n[1] * prim.v + n[2] * prim.w;
        let l1 = split(theta, positive);
        let l4 = split(theta + a * m, positive);
        let l5 = split(theta - a * m, positive);

        let g = GAMMA;
        let c = prim.rho / (2.0 * g);
        let (u, v, w) = (prim.u, prim.v, prim.w);
        let q2 = u * u + v * v + w * w;
        let up = [u + a * nt[0], v + a * nt[1], w + a * nt[2]];
        let um = [u - a * nt[0], v - a * nt[1], w - a * nt[2]];
        let up2 = up[0] * up[0] + up[1] * up[1] + up[2] * up[2];
        let um2 = um[0] * um[0] + um[1] * um[1] + um[2] * um[2];

        [
            c * (2.0 * (g - 1.0) * l1 + l4 + l5),
            c * (2.0 * (g - 1.0) * l1 * u + l4 * up[0] + l5 * um[0]),
            c * (2.0 * (g - 1.0) * l1 * v + l4 * up[1] + l5 * um[1]),
            c * (2.0 * (g - 1.0) * l1 * w + l4 * up[2] + l5 * um[2]),
            c * ((g - 1.0) * l1 * q2
                + 0.5 * l4 * up2
                + 0.5 * l5 * um2
                + (3.0 - g) * (l4 + l5) * a * a / (2.0 * (g - 1.0))),
        ]
    }

    /// The analytic Jacobian `A_n = ∂F_n/∂Q` (5×5, row-major).
    pub fn flux_jacobian(q: &[f64; NCONS], n: [f64; 3]) -> [[f64; NCONS]; NCONS] {
        let prim = Primitive::from_conserved(q);
        let (u, v, w) = (prim.u, prim.v, prim.w);
        let theta = n[0] * u + n[1] * v + n[2] * w;
        let q2 = u * u + v * v + w * w;
        let g1 = GAMMA - 1.0;
        let h = (q[4] + prim.p) / prim.rho; // total enthalpy

        let vel = [u, v, w];
        let mut a = [[0.0; NCONS]; NCONS];

        // Continuity row.
        a[0] = [0.0, n[0], n[1], n[2], 0.0];

        // Momentum rows.
        for r in 0..3 {
            let nr = n[r];
            let ur = vel[r];
            a[r + 1][0] = nr * g1 * q2 / 2.0 - ur * theta;
            for c in 0..3 {
                let nc = n[c];
                let uc = vel[c];
                a[r + 1][c + 1] = nc * ur - nr * g1 * uc + if r == c { theta } else { 0.0 };
            }
            a[r + 1][4] = nr * g1;
        }

        // Energy row.
        a[4][0] = theta * (g1 * q2 / 2.0 - h);
        for c in 0..3 {
            a[4][c + 1] = -g1 * vel[c] * theta + h * n[c];
        }
        a[4][4] = GAMMA * theta;

        a
    }

    /// `a * b` (matrix product).
    pub fn matmul(a: &Block, b: &Block) -> Block {
        let mut out = [[0.0; NCONS]; NCONS];
        for i in 0..NCONS {
            for k in 0..NCONS {
                let aik = a[i][k];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..NCONS {
                    out[i][j] += aik * b[k][j];
                }
            }
        }
        out
    }

    /// `a * x` (matrix–vector product).
    pub fn matvec(a: &Block, x: &Vec5) -> Vec5 {
        let mut y = [0.0; NCONS];
        for (yi, row) in y.iter_mut().zip(a.iter()) {
            *yi = row.iter().zip(x.iter()).map(|(m, v)| m * v).sum();
        }
        y
    }

    /// A 5×5 LU with partial pivoting, eliminated over run-time column
    /// ranges and solved one right-hand-side column at a time: the
    /// reference the kernel's `Lu` must match bit for bit.
    pub struct Lu {
        pub lu: Block,
        pub perm: [usize; NCONS],
    }

    impl Lu {
        /// Factor `a`; `None` if a pivot falls under `1e-300`.
        #[allow(clippy::needless_range_loop)] // pivot swaps index two rows at once
        pub fn factor(a: &Block) -> Option<Self> {
            let mut lu = *a;
            let mut perm = [0usize; NCONS];
            for (i, p) in perm.iter_mut().enumerate() {
                *p = i;
            }
            for col in 0..NCONS {
                let mut pivot_row = col;
                let mut pivot_val = lu[col][col].abs();
                for r in col + 1..NCONS {
                    if lu[r][col].abs() > pivot_val {
                        pivot_val = lu[r][col].abs();
                        pivot_row = r;
                    }
                }
                if pivot_val < 1e-300 {
                    return None;
                }
                if pivot_row != col {
                    lu.swap(pivot_row, col);
                    perm.swap(pivot_row, col);
                }
                let inv = 1.0 / lu[col][col];
                for r in col + 1..NCONS {
                    let f = lu[r][col] * inv;
                    lu[r][col] = f;
                    for c in col + 1..NCONS {
                        lu[r][c] -= f * lu[col][c];
                    }
                }
            }
            Some(Self { lu, perm })
        }

        /// Solve `A x = b`.
        pub fn solve(&self, b: &Vec5) -> Vec5 {
            let mut y = [0.0; NCONS];
            for (i, yi) in y.iter_mut().enumerate() {
                *yi = b[self.perm[i]];
            }
            for i in 1..NCONS {
                for j in 0..i {
                    y[i] -= self.lu[i][j] * y[j];
                }
            }
            for i in (0..NCONS).rev() {
                for j in i + 1..NCONS {
                    y[i] -= self.lu[i][j] * y[j];
                }
                y[i] /= self.lu[i][i];
            }
            y
        }

        /// Solve `A X = B`, one [`Lu::solve`] per column.
        pub fn solve_block(&self, b: &Block) -> Block {
            let mut out = [[0.0; NCONS]; NCONS];
            for col in 0..NCONS {
                let mut rhs = [0.0; NCONS];
                for (r, v) in rhs.iter_mut().enumerate() {
                    *v = b[r][col];
                }
                let x = self.solve(&rhs);
                for (r, &v) in x.iter().enumerate() {
                    out[r][col] = v;
                }
            }
            out
        }
    }

    /// The Thomas algorithm over the scalar block products.
    pub fn solve_block_tridiagonal(
        lower: &[Block],
        diag: &[Block],
        upper: &[Block],
        rhs: &mut [Vec5],
    ) {
        let n = diag.len();
        let mut cp = vec![[[0.0; NCONS]; NCONS]; n];
        let mut dp = vec![[0.0; NCONS]; n];

        // Forward elimination.
        let lu0 = Lu::factor(&diag[0]).expect("singular pivot block at 0");
        cp[0] = lu0.solve_block(&upper[0]);
        dp[0] = lu0.solve(&rhs[0]);
        for i in 1..n {
            // pivot = diag[i] - lower[i] * cp[i-1]
            let pivot = sub(&diag[i], &matmul(&lower[i], &cp[i - 1]));
            let lu = Lu::factor(&pivot).unwrap_or_else(|| panic!("singular pivot block at {i}"));
            if i + 1 < n {
                cp[i] = lu.solve_block(&upper[i]);
            }
            // d'[i] = inv(pivot) (rhs[i] - lower[i] d'[i-1])
            let ld = matvec(&lower[i], &dp[i - 1]);
            let mut r = rhs[i];
            for (rv, &lv) in r.iter_mut().zip(ld.iter()) {
                *rv -= lv;
            }
            dp[i] = lu.solve(&r);
        }

        // Back substitution.
        rhs[n - 1] = dp[n - 1];
        for i in (0..n - 1).rev() {
            let cx = matvec(&cp[i], &rhs[i + 1]);
            let mut x = dp[i];
            for (xv, &cv) in x.iter_mut().zip(cx.iter()) {
                *xv -= cv;
            }
            rhs[i] = x;
        }
    }

    fn solve_pencil(scratch: &mut PencilScratch, n: usize) {
        solve_block_tridiagonal(
            &scratch.lower[..n],
            &scratch.diag[..n],
            &scratch.upper[..n],
            &mut scratch.rhs_line[..n],
        );
    }

    /// The upwind (J) implicit factor along one pencil.
    pub fn implicit_upwind_pencil(scratch: &mut PencilScratch, n: usize) {
        assert!(n >= 2, "pencil too short");
        let rho = |q: &Vec5, nv: [f64; 3]| spectral_radius(q, nv);
        for i in 0..n {
            if i == 0 || i == n - 1 {
                scratch.lower[i] = [[0.0; NCONS]; NCONS];
                scratch.diag[i] = blocktri::identity();
                scratch.upper[i] = [[0.0; NCONS]; NCONS];
                continue;
            }
            let ni = scratch.n_line[i];
            // Approximate split Jacobians: A± = (A ± ρ I) / 2.
            let a_i = flux_jacobian(&scratch.q_line[i], ni);
            let r_i = rho(&scratch.q_line[i], ni);
            let a_im = flux_jacobian(&scratch.q_line[i - 1], ni);
            let r_im = rho(&scratch.q_line[i - 1], ni);
            let a_ip = flux_jacobian(&scratch.q_line[i + 1], ni);
            let r_ip = rho(&scratch.q_line[i + 1], ni);

            let ident = blocktri::identity();
            let ap_i = blocktri::scale(&blocktri::add(&a_i, &blocktri::scale(&ident, r_i)), 0.5);
            let am_i = blocktri::scale(&blocktri::sub(&a_i, &blocktri::scale(&ident, r_i)), 0.5);
            let ap_im = blocktri::scale(&blocktri::add(&a_im, &blocktri::scale(&ident, r_im)), 0.5);
            let am_ip = blocktri::scale(&blocktri::sub(&a_ip, &blocktri::scale(&ident, r_ip)), 0.5);

            let dt = scratch.dt_line[i];
            scratch.lower[i] = blocktri::scale(&ap_im, -dt);
            scratch.diag[i] =
                blocktri::add(&ident, &blocktri::scale(&blocktri::sub(&ap_i, &am_i), dt));
            scratch.upper[i] = blocktri::scale(&am_ip, dt);
        }
        solve_pencil(scratch, n);
    }

    /// A central (K or L) implicit factor along one pencil.
    pub fn implicit_central_pencil(
        scratch: &mut PencilScratch,
        n: usize,
        eps_imp: f64,
        mu_vis: f64,
    ) {
        assert!(n >= 2, "pencil too short");
        for i in 0..n {
            if i == 0 || i == n - 1 {
                scratch.lower[i] = [[0.0; NCONS]; NCONS];
                scratch.diag[i] = blocktri::identity();
                scratch.upper[i] = [[0.0; NCONS]; NCONS];
                continue;
            }
            let ni = scratch.n_line[i];
            let a_im = flux_jacobian(&scratch.q_line[i - 1], ni);
            let a_ip = flux_jacobian(&scratch.q_line[i + 1], ni);
            let sigma = spectral_radius(&scratch.q_line[i], ni);
            let ident = blocktri::identity();
            let sigma_v = if mu_vis > 0.0 {
                let phi = ni[0] * ni[0] + ni[1] * ni[1] + ni[2] * ni[2];
                2.0 * mu_vis * phi / scratch.q_line[i][0]
            } else {
                0.0
            };
            let dt = scratch.dt_line[i];
            let d = dt * (eps_imp * sigma + sigma_v);

            scratch.lower[i] = blocktri::add(
                &blocktri::scale(&a_im, -0.5 * dt),
                &blocktri::scale(&ident, -d),
            );
            scratch.diag[i] = blocktri::add(&ident, &blocktri::scale(&ident, 2.0 * d));
            scratch.upper[i] = blocktri::add(
                &blocktri::scale(&a_ip, 0.5 * dt),
                &blocktri::scale(&ident, -d),
            );
        }
        solve_pencil(scratch, n);
    }

    /// The time step at one point: the global `dt`, or `cfl / Σσ`.
    pub fn local_dt(zone: &ZoneSolver, p: Ijk) -> f64 {
        match zone.config.local_cfl {
            None => zone.config.dt,
            Some(cfl) => {
                let q = zone.q.get(p);
                let sigma_sum: f64 = Axis::ALL
                    .iter()
                    .map(|&a| spectral_radius(&q, zone.metrics.grad(p, a)))
                    .sum();
                cfl / sigma_sum.max(1e-300)
            }
        }
    }

    /// The full explicit residual at one interior point.
    pub fn residual_point(zone: &ZoneSolver, p: Ijk, eps2: f64) -> Vec5 {
        let mut r = [0.0; NCONS];

        // J: first-order Steger–Warming upwind differences.
        let nj = zone.metrics.grad(p, Axis::J);
        let q_i = zone.q.get(p);
        let q_jm = zone.q.get(p.offset(Axis::J, -1));
        let q_jp = zone.q.get(p.offset(Axis::J, 1));
        let fp_i = steger_warming(&q_i, nj, true);
        let fp_im = steger_warming(&q_jm, nj, true);
        let fm_ip = steger_warming(&q_jp, nj, false);
        let fm_i = steger_warming(&q_i, nj, false);
        for c in 0..NCONS {
            r[c] += (fp_i[c] - fp_im[c]) + (fm_ip[c] - fm_i[c]);
        }

        // K and L: central differences with scalar dissipation.
        for axis in [Axis::K, Axis::L] {
            let n = zone.metrics.grad(p, axis);
            let q_m = zone.q.get(p.offset(axis, -1));
            let q_p = zone.q.get(p.offset(axis, 1));
            let f_p = directed_flux(&q_p, n);
            let f_m = directed_flux(&q_m, n);
            let sigma = spectral_radius(&q_i, n);
            for c in 0..NCONS {
                let central = 0.5 * (f_p[c] - f_m[c]);
                let diss = eps2 * sigma * (q_p[c] - 2.0 * q_i[c] + q_m[c]);
                r[c] += central - diss;
            }
        }

        // Thin-layer viscous terms along L: R -= S_{l+1/2} - S_{l-1/2}.
        if zone.config.is_viscous() {
            let mu = zone.config.viscosity;
            let pr = zone.config.prandtl;
            let q_m = zone.q.get(p.offset(Axis::L, -1));
            let q_p = zone.q.get(p.offset(Axis::L, 1));
            let n_i = zone.metrics.grad(p, Axis::L);
            let n_m = zone.metrics.grad(p.offset(Axis::L, -1), Axis::L);
            let n_p = zone.metrics.grad(p.offset(Axis::L, 1), Axis::L);
            let mid = |a: [f64; 3], b: [f64; 3]| {
                [
                    0.5 * (a[0] + b[0]),
                    0.5 * (a[1] + b[1]),
                    0.5 * (a[2] + b[2]),
                ]
            };
            let s_hi = viscous_flux_midpoint(&q_i, &q_p, mid(n_i, n_p), mu, pr);
            let s_lo = viscous_flux_midpoint(&q_m, &q_i, mid(n_m, n_i), mu, pr);
            for c in 0..NCONS {
                r[c] -= s_hi[c] - s_lo[c];
            }
        }
        r
    }

    /// `row[j] = −Δt(p)·R(p)` over the interior of one `(k, l)` row.
    pub fn residual_rhs_row(zone: &ZoneSolver, k: usize, l: usize, eps2: f64, row: &mut [Vec5]) {
        let jmax = zone.dims().j;
        for (j, out) in row.iter_mut().enumerate().take(jmax - 1).skip(1) {
            let p = Ijk::new(j, k, l);
            let r = residual_point(zone, p, eps2);
            let dt_p = local_dt(zone, p);
            for c in 0..NCONS {
                out[c] = -dt_p * r[c];
            }
        }
    }
}

/// The bit patterns of a run of 5-vectors.
fn bits(v: &[Vec5]) -> Vec<[u64; NCONS]> {
    v.iter().map(|x| x.map(f64::to_bits)).collect()
}

/// The bit patterns of a block.
fn block_bits(b: &Block) -> [[u64; NCONS]; NCONS] {
    b.map(|row| row.map(f64::to_bits))
}

/// A physically valid primitive state (positive density and pressure).
fn primitive() -> impl Strategy<Value = Primitive> {
    (
        0.2f64..5.0,  // rho
        -2.0f64..2.0, // u
        -2.0f64..2.0, // v
        -2.0f64..2.0, // w
        0.1f64..5.0,  // p
    )
        .prop_map(|(rho, u, v, w, p)| Primitive { rho, u, v, w, p })
}

/// A nonzero direction vector.
fn direction() -> impl Strategy<Value = [f64; 3]> {
    ([-2.0f64..2.0, -2.0f64..2.0, -2.0f64..2.0])
        .prop_filter("nonzero", |n| n[0].abs() + n[1].abs() + n[2].abs() > 0.1)
}

/// A random 5×5 block with entries sprinkled with exact zeros, so the
/// zero-skip branch of the block product is exercised.
fn block() -> impl Strategy<Value = Block> {
    prop::array::uniform5(prop::array::uniform5(-3.0f64..3.0)).prop_map(|mut b| {
        for (i, row) in b.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                if (i + 2 * j) % 5 == 3 {
                    *v = 0.0;
                }
            }
        }
        b
    })
}

fn vec5() -> impl Strategy<Value = Vec5> {
    prop::array::uniform5(-3.0f64..3.0)
}

/// A diagonally dominant block (identity-heavy), guaranteeing the
/// Thomas solve never meets a singular pivot.
fn dominant_diag() -> impl Strategy<Value = Block> {
    block().prop_map(|b| {
        let mut d = blocktri::scale(&b, 0.05);
        for (i, row) in d.iter_mut().enumerate() {
            row[i] += 4.0;
        }
        d
    })
}

fn off_diag() -> impl Strategy<Value = Block> {
    block().prop_map(|b| blocktri::scale(&b, 0.05))
}

/// A permutation of the five block rows, never the identity: applied
/// to a diagonally dominant block it moves every dominant entry off
/// the diagonal, so the LU must swap rows to pivot.
fn row_permutation() -> impl Strategy<Value = [usize; NCONS]> {
    (1usize..120).prop_map(|mut code| {
        let mut left: Vec<usize> = (0..NCONS).collect();
        let mut perm = [0; NCONS];
        for p in &mut perm {
            let base = left.len();
            *p = left.remove(code % base);
            code /= base;
        }
        perm
    })
}

/// Signed zeros and subnormals: entries whose sign or gradual underflow
/// a reordered or fused operation would change.
fn special_entry() -> impl Strategy<Value = f64> {
    const SPECIALS: [f64; 6] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 2.0,
        -f64::MIN_POSITIVE / 3.0,
        5e-324,
        -5e-324,
    ];
    (0..SPECIALS.len()).prop_map(|k| SPECIALS[k])
}

/// The crate's `Lu` against [`oracle::Lu`] on one block: the same
/// singular verdict and, when it factors, the same factors and
/// permutation, and the same vector, block and fused six-column solves,
/// all compared by `f64::to_bits`.
fn lu_matches_oracle(a: &Block, b: &Block, v: &Vec5) -> Result<(), TestCaseError> {
    let (got, want) = (Lu::factor(a), oracle::Lu::factor(a));
    prop_assert_eq!(got.is_none(), want.is_none(), "singular verdict");
    let (Some(got), Some(want)) = (got, want) else {
        return Ok(());
    };
    let (lu, perm) = got.parts();
    prop_assert_eq!(block_bits(lu), block_bits(&want.lu), "factors");
    prop_assert_eq!(perm, &want.perm, "permutation");
    let (x_block, x_vec) = (want.solve_block(b), want.solve(v));
    prop_assert_eq!(
        got.solve(v).map(f64::to_bits),
        x_vec.map(f64::to_bits),
        "solve"
    );
    prop_assert_eq!(
        block_bits(&got.solve_block(b)),
        block_bits(&x_block),
        "solve_block"
    );
    let (fused_block, fused_vec) = got.solve_block_vec(b, v);
    prop_assert_eq!(
        block_bits(&fused_block),
        block_bits(&x_block),
        "fused block"
    );
    prop_assert_eq!(
        fused_vec.map(f64::to_bits),
        x_vec.map(f64::to_bits),
        "fused vector"
    );
    Ok(())
}

/// Fill a pencil scratch with the first `n` of the generated states,
/// directions, time steps, and right-hand sides.
fn filled_scratch(
    n: usize,
    prims: &[Primitive],
    dirs: &[[f64; 3]],
    dts: &[f64],
    rhs: &[Vec5],
) -> PencilScratch {
    let mut s = PencilScratch::new(n);
    for i in 0..n {
        s.q_line[i] = prims[i].to_conserved();
        s.n_line[i] = dirs[i];
        s.dt_line[i] = dts[i];
        s.rhs_line[i] = rhs[i];
    }
    s
}

/// Check every flux kernel at lane width `W` against the scalar oracle,
/// lane by lane.
fn flux_kernels_match_oracle<const W: usize>(
    prims: &[Primitive],
    dirs: &[[f64; 3]],
) -> Result<(), TestCaseError> {
    let mut q = [[0.0; NCONS]; W];
    let mut nv = [[0.0; 3]; W];
    for lane in 0..W {
        q[lane] = prims[lane].to_conserved();
        nv[lane] = dirs[lane];
    }
    let df = flux::directed_flux::<W>(&q, &nv);
    let sr = flux::spectral_radius::<W>(&q, &nv);
    let swp = flux::steger_warming::<W>(&q, &nv, true);
    let swm = flux::steger_warming::<W>(&q, &nv, false);
    let ja = flux::flux_jacobian::<W>(&q, &nv);
    for lane in 0..W {
        let (ql, nl) = (&q[lane], nv[lane]);
        prop_assert_eq!(
            df[lane].map(f64::to_bits),
            oracle::directed_flux(ql, nl).map(f64::to_bits),
            "directed_flux, W {}, lane {}",
            W,
            lane
        );
        prop_assert_eq!(
            sr[lane].to_bits(),
            oracle::spectral_radius(ql, nl).to_bits(),
            "spectral_radius, W {}, lane {}",
            W,
            lane
        );
        prop_assert_eq!(
            swp[lane].map(f64::to_bits),
            oracle::steger_warming(ql, nl, true).map(f64::to_bits),
            "steger_warming +, W {}, lane {}",
            W,
            lane
        );
        prop_assert_eq!(
            swm[lane].map(f64::to_bits),
            oracle::steger_warming(ql, nl, false).map(f64::to_bits),
            "steger_warming -, W {}, lane {}",
            W,
            lane
        );
        prop_assert_eq!(
            block_bits(&ja[lane]),
            block_bits(&oracle::flux_jacobian(ql, nl)),
            "flux_jacobian, W {}, lane {}",
            W,
            lane
        );
    }
    Ok(())
}

/// A zone on a curvilinear grid with every conserved variable
/// perturbed point by point, so no two neighbours share a state.
fn perturbed_zone(config: SolverConfig, d: Dims, factors: &[(f64, f64)]) -> ZoneSolver {
    let metrics = Zone::cylinder_segment(d, 2.0, 0.5, 2.0).metrics();
    let mut zone =
        ZoneSolver::freestream(config, metrics, Layout::jkl(), Arrangement::ComponentInner);
    for (i, p) in d.iter_jkl().enumerate() {
        let (a, b) = factors[i % factors.len()];
        let mut q = zone.q.get(p);
        q[0] *= a;
        q[1] *= b;
        q[4] *= a * b;
        zone.q.set(p, q);
    }
    zone
}

/// The scalar products return `-0.0` for a zero row times an
/// all-negative vector (every product is `-0.0`, and the sum keeps the
/// sign). Each lane group must too, whichever rows it covers.
#[test]
fn matvec_keeps_the_sign_of_a_zero_row_at_every_width() {
    let x = [-1.0, -2.5, -0.5, -3.0, -4.0];
    for zero_row in 0..NCONS {
        let mut a = [[1.5; NCONS]; NCONS];
        a[zero_row] = [0.0; NCONS];
        let reference = oracle::matvec(&a, &x);
        assert!(reference[zero_row].is_sign_negative());
        for w in WIDTHS {
            assert_eq!(
                matvec_w(&a, &x, w).map(f64::to_bits),
                reference.map(f64::to_bits),
                "width {w}, zero row {zero_row}"
            );
        }
    }
}

/// The Thomas solve carries the same signed zeros: a zero lower block
/// times a negative forward-sweep vector gives `-0.0`, and subtracting
/// it from a `-0.0` right-hand side gives `+0.0` — not the `-0.0` a
/// `+0.0`-started row sum would leave.
#[test]
fn thomas_solve_keeps_signed_zeros_at_every_width() {
    let n = 3;
    let lower = vec![[[0.0; NCONS]; NCONS]; n];
    let diag = vec![blocktri::identity(); n];
    let upper = vec![[[0.0; NCONS]; NCONS]; n];
    let rhs0 = vec![[-1.0, -2.0, -3.0, -4.0, -5.0], [-0.0; NCONS], [-0.0; NCONS]];
    let mut reference = rhs0.clone();
    oracle::solve_block_tridiagonal(&lower, &diag, &upper, &mut reference);
    assert!(reference[1].iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
    for w in WIDTHS {
        let mut rhs = rhs0.clone();
        let mut scratch = BlockTriScratch::new(n);
        solve_block_tridiagonal_w(&lower, &diag, &upper, &mut rhs, &mut scratch, w);
        assert_eq!(bits(&rhs), bits(&reference), "width {w}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The column-chunked block product is the scalar product, bitwise,
    /// at every width.
    #[test]
    fn matmul_is_bit_exact_at_every_width(a in block(), b in block()) {
        let reference = block_bits(&oracle::matmul(&a, &b));
        for w in WIDTHS {
            prop_assert_eq!(block_bits(&matmul_w(&a, &b, w)), reference, "width {}", w);
        }
    }

    /// The row-chunked matrix–vector product is bit-exact at every
    /// width: rows are independent dot products, never reassociated.
    #[test]
    fn matvec_is_bit_exact_at_every_width(a in block(), x in vec5()) {
        let reference = oracle::matvec(&a, &x).map(f64::to_bits);
        for w in WIDTHS {
            prop_assert_eq!(matvec_w(&a, &x, w).map(f64::to_bits), reference, "width {}", w);
        }
    }

    /// The compile-time elimination and the lockstep multi-column
    /// solves are the runtime-range, column-by-column LU bit for bit:
    /// on diagonally dominant blocks, on row-permuted ones that force
    /// pivot swaps, on general blocks, on blocks whose first column ties
    /// in `|·|` (the first of the tied rows must win), on blocks carrying
    /// signed zeros and subnormals, and on a block with a zero column,
    /// which both must reject.
    #[test]
    fn lu_is_bit_exact_against_the_runtime_range_oracle(
        dominant in dominant_diag(),
        general in block(),
        rows in row_permutation(),
        specials in prop::collection::vec((0usize..NCONS * NCONS, special_entry()), 1..10),
        zero_col in 0usize..NCONS,
        b in block(),
        v in vec5(),
    ) {
        let permuted = rows.map(|r| dominant[r]);
        let mut special = dominant;
        for &(k, x) in &specials {
            special[k / NCONS][k % NCONS] = x;
        }
        let mut special_rhs = b;
        for &(k, x) in &specials {
            special_rhs[k % NCONS][k / NCONS] = x;
        }
        let mut tied = general;
        for (r, row) in tied.iter_mut().enumerate() {
            row[0] = if r % 2 == 0 { 2.0 } else { -2.0 };
        }
        let mut singular = general;
        for row in &mut singular {
            row[zero_col] = 0.0;
        }
        prop_assert!(Lu::factor(&singular).is_none(), "zero column {}", zero_col);
        prop_assert!(Lu::factor(&permuted).is_some_and(|lu| *lu.parts().1 != [0, 1, 2, 3, 4]));
        for a in [dominant, permuted, general, tied, special, singular] {
            lu_matches_oracle(&a, &b, &v)?;
            lu_matches_oracle(&a, &special_rhs, &special_rhs[0])?;
        }
    }

    /// The width-chunked Thomas solve produces bit-identical solutions
    /// for random diagonally dominant systems of every length —
    /// including lengths that leave remainders at every width.
    #[test]
    fn block_tridiagonal_solve_is_bit_exact_at_every_width(
        n in 1usize..12,
        lowers in prop::collection::vec(off_diag(), 12),
        diags in prop::collection::vec(dominant_diag(), 12),
        uppers in prop::collection::vec(off_diag(), 12),
        rhs0 in prop::collection::vec(vec5(), 12),
    ) {
        let lower = &lowers[..n];
        let diag = &diags[..n];
        let upper = &uppers[..n];

        let mut reference = rhs0[..n].to_vec();
        oracle::solve_block_tridiagonal(lower, diag, upper, &mut reference);

        for w in WIDTHS {
            let mut rhs = rhs0[..n].to_vec();
            let mut scratch = BlockTriScratch::new(n);
            solve_block_tridiagonal_w(lower, diag, upper, &mut rhs, &mut scratch, w);
            prop_assert_eq!(bits(&rhs), bits(&reference), "width {}, n {}", w, n);
        }
    }

    /// The implicit upwind factor — lane-evaluated Jacobians feeding a
    /// width-chunked Thomas solve — returns bit-identical solutions.
    #[test]
    fn implicit_upwind_factor_is_bit_exact_at_every_width(
        n in 2usize..=MAX_PENCIL,
        prims in prop::collection::vec(primitive(), MAX_PENCIL),
        dirs in prop::collection::vec(direction(), MAX_PENCIL),
        dts in prop::collection::vec(0.001f64..0.05, MAX_PENCIL),
        rhs in prop::collection::vec(vec5(), MAX_PENCIL),
    ) {
        let mut reference = filled_scratch(n, &prims, &dirs, &dts, &rhs);
        oracle::implicit_upwind_pencil(&mut reference, n);
        for w in WIDTHS {
            let mut s = filled_scratch(n, &prims, &dirs, &dts, &rhs);
            implicit_upwind_pencil_w(&mut s, n, w);
            prop_assert_eq!(bits(&s.rhs_line), bits(&reference.rhs_line), "width {}, n {}", w, n);
        }
    }

    /// Same contract for the central factor, with and without the
    /// implicit viscous stabilization (`mu_vis` 0 and positive both
    /// run; the viscous branch divides by density, so exactness there
    /// is worth pinning separately).
    #[test]
    fn implicit_central_factor_is_bit_exact_at_every_width(
        n in 2usize..=MAX_PENCIL,
        eps_imp in 0.0f64..0.2,
        mu_vis in 0.0f64..0.01,
        prims in prop::collection::vec(primitive(), MAX_PENCIL),
        dirs in prop::collection::vec(direction(), MAX_PENCIL),
        dts in prop::collection::vec(0.001f64..0.05, MAX_PENCIL),
        rhs in prop::collection::vec(vec5(), MAX_PENCIL),
    ) {
        for visc in [0.0, mu_vis] {
            let mut reference = filled_scratch(n, &prims, &dirs, &dts, &rhs);
            oracle::implicit_central_pencil(&mut reference, n, eps_imp, visc);
            for w in WIDTHS {
                let mut s = filled_scratch(n, &prims, &dirs, &dts, &rhs);
                implicit_central_pencil_w(&mut s, n, eps_imp, visc, w);
                prop_assert_eq!(bits(&s.rhs_line), bits(&reference.rhs_line), "width {}, n {}", w, n);
            }
        }
    }

    /// The `rhs` row — lane residuals times the local time step — is
    /// the scalar per-point residual, bitwise, for every J extent and
    /// width. Viscous terms and local time stepping exercise every
    /// branch of the residual.
    #[test]
    fn residual_row_is_bit_exact_at_every_width(
        jmax in 3usize..=MAX_PENCIL,
        eps2 in 0.0f64..0.1,
        factors in prop::collection::vec((0.95f64..1.05, 0.9f64..1.1), 7),
    ) {
        let configs = [
            SolverConfig::subsonic(),
            SolverConfig::viscous(2.0, 1.0e4).with_local_time_stepping(2.0),
        ];
        let d = Dims::new(jmax, 4, 5);
        for config in configs {
            let zone = perturbed_zone(config, d, &factors);
            let mut reference = vec![[f64::NAN; NCONS]; jmax];
            let mut row = vec![[f64::NAN; NCONS]; jmax];
            for k in 1..d.k - 1 {
                for l in 1..d.l - 1 {
                    oracle::residual_rhs_row(&zone, k, l, eps2, &mut reference);
                    for w in WIDTHS {
                        row.iter_mut().for_each(|r| *r = [f64::NAN; NCONS]);
                        residual_rhs_row_w(&zone, k, l, eps2, w, &mut row);
                        prop_assert_eq!(
                            bits(&row[1..jmax - 1]),
                            bits(&reference[1..jmax - 1]),
                            "width {}, jmax {}, k {}, l {}",
                            w,
                            jmax,
                            k,
                            l
                        );
                    }
                }
            }
        }
    }

    /// Every flux kernel at every lane width, `W = 1` included, is the
    /// scalar oracle applied per lane — each lane's arithmetic is fully
    /// independent, so equality is bitwise, not approximate.
    #[test]
    fn flux_kernels_match_the_scalar_oracle_at_every_width(
        prims in prop::collection::vec(primitive(), 8),
        dirs in prop::collection::vec(direction(), 8),
    ) {
        flux_kernels_match_oracle::<1>(&prims, &dirs)?;
        flux_kernels_match_oracle::<2>(&prims, &dirs)?;
        flux_kernels_match_oracle::<4>(&prims, &dirs)?;
        flux_kernels_match_oracle::<8>(&prims, &dirs)?;
    }
}
