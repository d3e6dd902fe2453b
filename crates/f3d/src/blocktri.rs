//! 5×5 block-tridiagonal systems: the implicit-sweep substrate.
//!
//! Each implicit factor of the approximate factorization couples points
//! along exactly one grid direction, producing, per pencil, a
//! block-tridiagonal system with 5×5 blocks. The Thomas algorithm here
//! is the recurrence that makes those sweeps non-parallelizable along
//! the sweep direction — the "dependencies in one direction" the whole
//! paper is about. Includes a small dense 5×5 LU for the block inverses.

use mesh::NCONS;

/// A 5×5 matrix.
pub type Block = [[f64; NCONS]; NCONS];

/// A 5-vector.
pub type Vec5 = [f64; NCONS];

/// The 5×5 identity.
#[must_use]
pub fn identity() -> Block {
    let mut m = [[0.0; NCONS]; NCONS];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    m
}

/// `a + b`.
#[must_use]
pub fn add(a: &Block, b: &Block) -> Block {
    let mut out = *a;
    for (ro, rb) in out.iter_mut().zip(b.iter()) {
        for (o, &v) in ro.iter_mut().zip(rb.iter()) {
            *o += v;
        }
    }
    out
}

/// `a - b`.
#[must_use]
pub fn sub(a: &Block, b: &Block) -> Block {
    let mut out = *a;
    for (ro, rb) in out.iter_mut().zip(b.iter()) {
        for (o, &v) in ro.iter_mut().zip(rb.iter()) {
            *o -= v;
        }
    }
    out
}

/// `s * a`.
#[must_use]
pub fn scale(a: &Block, s: f64) -> Block {
    let mut out = *a;
    for row in &mut out {
        for v in row {
            *v *= s;
        }
    }
    out
}

/// `a * b` (matrix product) with each output row walked in
/// `width`-column groups (fixed-trip lane loops rustc can lower to
/// SIMD). Every output entry accumulates `a[i][k] * b[k][j]` over
/// ascending `k`, skipping zero `a[i][k]`, so the result is bit-exact
/// at every width. Width 1 is the scalar product; widths outside
/// `{2, 4, 8}` run it too.
#[must_use]
pub fn matmul_w(a: &Block, b: &Block, width: usize) -> Block {
    match width {
        2 => matmul_lanes::<2>(a, b),
        4 => matmul_lanes::<4>(a, b),
        8 => matmul_lanes::<8>(a, b),
        _ => matmul_lanes::<1>(a, b),
    }
}

/// The lane body of [`matmul_w`]. Blocks are 5 wide, so the last
/// column group of a wide `W` is partly past the edge: its lanes there
/// are masked off, which the fully unrolled loops resolve at compile
/// time. `out` is only ever indexed, never borrowed, so it is built in
/// place in the caller's return slot.
fn matmul_lanes<const W: usize>(a: &Block, b: &Block) -> Block {
    let mut out = [[0.0; NCONS]; NCONS];
    for i in 0..NCONS {
        for k in 0..NCONS {
            let aik = a[i][k];
            if aik == 0.0 {
                continue;
            }
            for g in 0..NCONS.div_ceil(W) {
                for lane in 0..W {
                    let j = g * W + lane;
                    if j < NCONS {
                        out[i][j] += aik * b[k][j];
                    }
                }
            }
        }
    }
    out
}

/// `a * x` (matrix–vector product) with the output rows walked in
/// `width`-row groups: `W` dot products advance together, each
/// accumulating its own row in ascending-`j` order. Grouping rows, not
/// the dot product itself, is what keeps the result bit-exact (a
/// `j`-chunked reduction would reassociate). Width 1 is the scalar
/// product; widths outside `{2, 4, 8}` run it too.
#[must_use]
pub fn matvec_w(a: &Block, x: &Vec5, width: usize) -> Vec5 {
    match width {
        2 => matvec_lanes::<2>(a, x),
        4 => matvec_lanes::<4>(a, x),
        8 => matvec_lanes::<8>(a, x),
        _ => matvec_lanes::<1>(a, x),
    }
}

/// The lane body of [`matvec_w`], with the last row group's lanes past
/// the block edge masked off as in [`matmul_lanes`]. Each sum starts
/// from `-0.0`, the exact additive identity: a `+0.0` start would turn
/// a row of `-0.0` products into `+0.0`.
fn matvec_lanes<const W: usize>(a: &Block, x: &Vec5) -> Vec5 {
    let mut y = [0.0; NCONS];
    for g in 0..NCONS.div_ceil(W) {
        let mut acc = [-0.0; W];
        for (j, &xj) in x.iter().enumerate() {
            for (lane, sum) in acc.iter_mut().enumerate() {
                let i = g * W + lane;
                if i < NCONS {
                    *sum += a[i][j] * xj;
                }
            }
        }
        for (lane, &sum) in acc.iter().enumerate() {
            let i = g * W + lane;
            if i < NCONS {
                y[i] = sum;
            }
        }
    }
    y
}

/// An LU factorization of a 5×5 block with partial pivoting.
#[derive(Debug, Clone, Copy)]
pub struct Lu {
    lu: Block,
    perm: [usize; NCONS],
}

// `Lu` unrolls a 5×5 block by hand: one `eliminate` step per column and
// one `forward_row` / `back_row` step per row.
const _: () = assert!(NCONS == 5);

impl Lu {
    /// Factor `a`. Returns `None` if the block is numerically singular.
    ///
    /// Each column is one elimination step with a compile-time column
    /// index, so every inner range is a constant the compiler unrolls.
    #[must_use]
    pub fn factor(a: &Block) -> Option<Self> {
        let mut lu = Self {
            lu: *a,
            perm: [0, 1, 2, 3, 4],
        };
        lu.eliminate::<0>()?;
        lu.eliminate::<1>()?;
        lu.eliminate::<2>()?;
        lu.eliminate::<3>()?;
        lu.eliminate::<4>()?;
        Some(lu)
    }

    /// Eliminate below the diagonal in column `COL`: pick the first row
    /// at or below `COL` with the strictly largest `|·|` as the pivot,
    /// reject it under `1e-300`, swap it up, then store each row's
    /// multiplier `f = a[r][COL] * (1 / pivot)` and subtract `f` times
    /// the pivot row.
    #[allow(clippy::needless_range_loop)] // rows `r` and `COL` are read together
    fn eliminate<const COL: usize>(&mut self) -> Option<()> {
        let lu = &mut self.lu;
        let mut pivot_row = COL;
        let mut pivot_val = lu[COL][COL].abs();
        for r in COL + 1..NCONS {
            if lu[r][COL].abs() > pivot_val {
                pivot_val = lu[r][COL].abs();
                pivot_row = r;
            }
        }
        if pivot_val < 1e-300 {
            return None;
        }
        if pivot_row != COL {
            lu.swap(pivot_row, COL);
            self.perm.swap(pivot_row, COL);
        }
        let inv = 1.0 / lu[COL][COL];
        for r in COL + 1..NCONS {
            let f = lu[r][COL] * inv;
            lu[r][COL] = f;
            for c in COL + 1..NCONS {
                lu[r][c] -= f * lu[COL][c];
            }
        }
        Some(())
    }

    /// The factors and the row permutation: `lu` holds the unit-lower
    /// multipliers below the diagonal and `U` on and above it, and row
    /// `i` of `lu` came from row `perm[i]` of the factored block.
    #[must_use]
    pub fn parts(&self) -> (&Block, &[usize; NCONS]) {
        (&self.lu, &self.perm)
    }

    /// Forward and back substitution on `M` right-hand-side columns at
    /// once, rows already permuted. The column `c` is the innermost
    /// fixed-trip loop, so the `M` independent solves advance in
    /// lockstep while each element sees exactly the operations of a
    /// one-column solve, in the same order. Each row is its own
    /// const-generic step, as in [`Lu::factor`], so no inner range
    /// depends on a loop variable.
    fn substitute<const M: usize>(&self, y: &mut [[f64; M]; NCONS]) {
        self.forward_row::<1, M>(y);
        self.forward_row::<2, M>(y);
        self.forward_row::<3, M>(y);
        self.forward_row::<4, M>(y);
        self.back_row::<4, M>(y);
        self.back_row::<3, M>(y);
        self.back_row::<2, M>(y);
        self.back_row::<1, M>(y);
        self.back_row::<0, M>(y);
    }

    /// Row `I` of the unit-lower forward substitution.
    #[allow(clippy::needless_range_loop)] // rows `I` and `j` are read together
    fn forward_row<const I: usize, const M: usize>(&self, y: &mut [[f64; M]; NCONS]) {
        for j in 0..I {
            let l = self.lu[I][j];
            for c in 0..M {
                y[I][c] -= l * y[j][c];
            }
        }
    }

    /// Row `I` of the back substitution.
    #[allow(clippy::needless_range_loop)] // rows `I` and `j` are read together
    fn back_row<const I: usize, const M: usize>(&self, y: &mut [[f64; M]; NCONS]) {
        for j in I + 1..NCONS {
            let u = self.lu[I][j];
            for c in 0..M {
                y[I][c] -= u * y[j][c];
            }
        }
        let d = self.lu[I][I];
        for c in 0..M {
            y[I][c] /= d;
        }
    }

    /// Solve `A x = b`.
    #[must_use]
    pub fn solve(&self, b: &Vec5) -> Vec5 {
        let mut y = self.perm.map(|p| [b[p]]);
        self.substitute(&mut y);
        y.map(|[v]| v)
    }

    /// Solve `A X = B` for a block right-hand side: all five columns in
    /// one substitution pass, each bit-identical to [`Lu::solve`] of
    /// that column.
    #[must_use]
    pub fn solve_block(&self, b: &Block) -> Block {
        let mut y = self.perm.map(|p| b[p]);
        self.substitute(&mut y);
        y
    }

    /// [`Lu::solve_block`] of `b` and [`Lu::solve`] of `v` as one
    /// six-column substitution pass, bit-identical to the two calls.
    #[must_use]
    pub fn solve_block_vec(&self, b: &Block, v: &Vec5) -> (Block, Vec5) {
        let mut y = self.perm.map(|p| {
            let [b0, b1, b2, b3, b4] = b[p];
            [b0, b1, b2, b3, b4, v[p]]
        });
        self.substitute(&mut y);
        (
            y.map(|[x0, x1, x2, x3, x4, _]| [x0, x1, x2, x3, x4]),
            y.map(|row| row[NCONS]),
        )
    }
}

/// Scratch for a block-tridiagonal solve of length `n`: reused across
/// pencils so the tuned solver allocates once per worker (the paper's
/// cache-resident pencil scratch).
#[derive(Debug, Clone)]
pub struct BlockTriScratch {
    /// Modified upper blocks.
    cp: Vec<Block>,
    /// Modified right-hand sides.
    dp: Vec<Vec5>,
}

impl BlockTriScratch {
    /// Scratch for pencils up to `n` points long.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            cp: vec![[[0.0; NCONS]; NCONS]; n],
            dp: vec![[0.0; NCONS]; n],
        }
    }

    /// Capacity in points.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cp.len()
    }

    /// Scratch bytes (for cache-fit assertions).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.cp.len() * std::mem::size_of::<Block>() + self.dp.len() * std::mem::size_of::<Vec5>()
    }
}

/// Solve the block-tridiagonal system
/// `lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i]`
/// in place: on return `rhs` holds the solution. `lower[0]` and
/// `upper[n-1]` are ignored.
///
/// This is the Thomas algorithm — a forward recurrence followed by a
/// backward recurrence, serial along the pencil by construction.
///
/// # Panics
/// Panics on length mismatches, empty systems, scratch that is too
/// small, or a singular pivot block.
pub fn solve_block_tridiagonal(
    lower: &[Block],
    diag: &[Block],
    upper: &[Block],
    rhs: &mut [Vec5],
    scratch: &mut BlockTriScratch,
) {
    solve_block_tridiagonal_w(lower, diag, upper, rhs, scratch, 1);
}

/// [`solve_block_tridiagonal`] with the off-diagonal block products
/// ([`matmul_w`] / [`matvec_w`]) running at the given lane width. The
/// Thomas recurrence is serial along the pencil by construction; within
/// each step the LU solves run their right-hand-side columns in
/// lockstep ([`Lu::solve_block_vec`]), which is exact at every width.
/// So every width produces bit-identical solutions (the block products
/// are exact at every width too; see their docs).
///
/// # Panics
/// As [`solve_block_tridiagonal`].
pub fn solve_block_tridiagonal_w(
    lower: &[Block],
    diag: &[Block],
    upper: &[Block],
    rhs: &mut [Vec5],
    scratch: &mut BlockTriScratch,
    width: usize,
) {
    let n = diag.len();
    assert!(n > 0, "empty system");
    assert_eq!(lower.len(), n, "lower length mismatch");
    assert_eq!(upper.len(), n, "upper length mismatch");
    assert_eq!(rhs.len(), n, "rhs length mismatch");
    assert!(scratch.capacity() >= n, "scratch too small");

    // Forward elimination: c'[i] = inv(pivot) upper[i] and
    // d'[i] = inv(pivot) (rhs[i] - lower[i] d'[i-1]), with
    // pivot = diag[i] - lower[i] c'[i-1] (diag[0] and rhs[0] at i = 0).
    for i in 0..n {
        let (pivot, r) = if i == 0 {
            (diag[0], rhs[0])
        } else {
            let ld = matvec_w(&lower[i], &scratch.dp[i - 1], width);
            let mut r = rhs[i];
            for (rv, &lv) in r.iter_mut().zip(ld.iter()) {
                *rv -= lv;
            }
            let pivot = sub(&diag[i], &matmul_w(&lower[i], &scratch.cp[i - 1], width));
            (pivot, r)
        };
        let lu = Lu::factor(&pivot).unwrap_or_else(|| panic!("singular pivot block at {i}"));
        if i + 1 < n {
            (scratch.cp[i], scratch.dp[i]) = lu.solve_block_vec(&upper[i], &r);
        } else {
            scratch.dp[i] = lu.solve(&r);
        }
    }

    // Back substitution.
    rhs[n - 1] = scratch.dp[n - 1];
    for i in (0..n - 1).rev() {
        let cx = matvec_w(&scratch.cp[i], &rhs[i + 1], width);
        let mut x = scratch.dp[i];
        for (xv, &cv) in x.iter_mut().zip(cx.iter()) {
            *xv -= cv;
        }
        rhs[i] = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag_dominant_block(seed: u64, dominance: f64) -> Block {
        // deterministic pseudo-random block with a dominant diagonal
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        let mut b = [[0.0; NCONS]; NCONS];
        for (i, row) in b.iter_mut().enumerate() {
            for v in row.iter_mut() {
                *v = next();
            }
            row[i] += dominance;
        }
        b
    }

    #[test]
    fn lu_solves_identity() {
        let lu = Lu::factor(&identity()).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(lu.solve(&b), b);
    }

    #[test]
    fn lu_roundtrip_random_blocks() {
        for seed in 1..20u64 {
            let a = diag_dominant_block(seed, 3.0);
            let x = [0.5, -1.0, 2.0, 0.0, 3.5];
            let b = matvec_w(&a, &x, 1);
            let lu = Lu::factor(&a).expect("factorable");
            let got = lu.solve(&b);
            for i in 0..NCONS {
                assert!((got[i] - x[i]).abs() < 1e-10, "seed {seed} comp {i}");
            }
        }
    }

    #[test]
    fn lu_needs_pivoting() {
        // Zero on the diagonal, still nonsingular: permutation matrix.
        let mut a = [[0.0; NCONS]; NCONS];
        for i in 0..NCONS {
            a[i][(i + 1) % NCONS] = 1.0;
        }
        let lu = Lu::factor(&a).expect("permutation is nonsingular");
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        let x = lu.solve(&b);
        let back = matvec_w(&a, &x, 1);
        for i in 0..NCONS {
            assert!((back[i] - b[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_block_rejected() {
        let a = [[0.0; NCONS]; NCONS];
        assert!(Lu::factor(&a).is_none());
    }

    #[test]
    fn solve_block_right_hand_side() {
        let a = diag_dominant_block(7, 4.0);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve_block(&identity());
        // A * A^-1 = I
        let prod = matmul_w(&a, &x, 1);
        for (i, row) in prod.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < 1e-10, "[{i}][{j}]");
            }
        }
    }

    #[test]
    fn tridiagonal_identity_system() {
        let n = 8;
        let lower = vec![[[0.0; NCONS]; NCONS]; n];
        let diag = vec![identity(); n];
        let upper = vec![[[0.0; NCONS]; NCONS]; n];
        let mut rhs: Vec<Vec5> = (0..n).map(|i| [i as f64, 1.0, -2.0, 0.5, 3.0]).collect();
        let expect = rhs.clone();
        let mut scratch = BlockTriScratch::new(n);
        solve_block_tridiagonal(&lower, &diag, &upper, &mut rhs, &mut scratch);
        assert_eq!(rhs, expect);
    }

    #[test]
    fn tridiagonal_manufactured_solution() {
        let n = 12;
        let lower: Vec<Block> = (0..n)
            .map(|i| diag_dominant_block(i as u64 + 1, 0.0))
            .collect();
        let upper: Vec<Block> = (0..n)
            .map(|i| diag_dominant_block(i as u64 + 100, 0.0))
            .collect();
        let diag: Vec<Block> = (0..n)
            .map(|i| diag_dominant_block(i as u64 + 200, 8.0))
            .collect();
        let x: Vec<Vec5> = (0..n)
            .map(|i| [(i as f64).sin(), 1.0, -0.5, i as f64, 0.1])
            .collect();
        // rhs = L x_{i-1} + D x_i + U x_{i+1}
        let mut rhs: Vec<Vec5> = Vec::with_capacity(n);
        for i in 0..n {
            let mut r = matvec_w(&diag[i], &x[i], 1);
            if i > 0 {
                let lx = matvec_w(&lower[i], &x[i - 1], 1);
                for (rv, lv) in r.iter_mut().zip(lx) {
                    *rv += lv;
                }
            }
            if i + 1 < n {
                let ux = matvec_w(&upper[i], &x[i + 1], 1);
                for (rv, uv) in r.iter_mut().zip(ux) {
                    *rv += uv;
                }
            }
            rhs.push(r);
        }
        let mut scratch = BlockTriScratch::new(n);
        solve_block_tridiagonal(&lower, &diag, &upper, &mut rhs, &mut scratch);
        for i in 0..n {
            for c in 0..NCONS {
                assert!(
                    (rhs[i][c] - x[i][c]).abs() < 1e-8,
                    "point {i} comp {c}: {} vs {}",
                    rhs[i][c],
                    x[i][c]
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_across_solves() {
        let mut scratch = BlockTriScratch::new(16);
        for trial in 0..3 {
            let n = 16 - trial * 4;
            let lower = vec![scale(&identity(), -0.3); n];
            let upper = vec![scale(&identity(), -0.3); n];
            let diag = vec![scale(&identity(), 2.0); n];
            let mut rhs = vec![[1.4; NCONS]; n];
            solve_block_tridiagonal(&lower, &diag, &upper, &mut rhs, &mut scratch);
            // Scalar system: 2x_i - 0.3(x_{i-1}+x_{i+1}) = 1.4; the
            // solution is component-uniform and bounded by 1.4/1.4 = 1.
            for r in &rhs {
                for &v in r {
                    assert!(v > 0.0 && v < 1.01, "{v}");
                }
            }
        }
    }

    #[test]
    fn scratch_bytes_reflect_capacity() {
        let s = BlockTriScratch::new(100);
        assert_eq!(s.capacity(), 100);
        assert_eq!(s.bytes(), 100 * (200 + 40));
    }

    #[test]
    #[should_panic(expected = "scratch too small")]
    fn undersized_scratch_panics() {
        let n = 4;
        let lower = vec![identity(); n];
        let diag = vec![identity(); n];
        let upper = vec![identity(); n];
        let mut rhs = vec![[0.0; NCONS]; n];
        let mut scratch = BlockTriScratch::new(2);
        solve_block_tridiagonal(&lower, &diag, &upper, &mut rhs, &mut scratch);
    }

    #[test]
    #[should_panic(expected = "empty system")]
    fn empty_system_panics() {
        let mut scratch = BlockTriScratch::new(1);
        solve_block_tridiagonal(&[], &[], &[], &mut [], &mut scratch);
    }
}
