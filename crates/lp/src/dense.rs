//! Dense matrices and LU factorization with partial pivoting.
//!
//! The simplex solver itself works with the sparse factorization in
//! [`crate::factor`]; the dense routines here are only the reference
//! implementation the sparse path is tested against, and are compiled for
//! tests alone.

use crate::LpError;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates an `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        Self { rows, cols, data: data.to_vec() }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrows of two distinct rows at once.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn two_rows_mut(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(a, b, "rows must be distinct");
        let c = self.cols;
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b * c);
            (&mut lo[a * c..(a + 1) * c], &mut hi[..c])
        } else {
            let (lo, hi) = self.data.split_at_mut(a * c);
            let (rb, ra) = (&mut lo[b * c..(b + 1) * c], &mut hi[..c]);
            (ra, rb)
        }
    }

    /// Matrix-vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mat_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        let mut out = vec![0.0; self.rows];
        for (r, out_r) in out.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *out_r = acc;
        }
        out
    }

    /// Transposed matrix-vector product `selfᵀ · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn mat_vec_transposed(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows);
        let mut out = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            let row = self.row(r);
            // postcard-analyze: allow(PA101) — exact-zero row skip.
            if xr == 0.0 {
                continue;
            }
            for (o, a) in out.iter_mut().zip(row) {
                *o += a * xr;
            }
        }
        out
    }
}

/// LU factorization `P·A = L·U` of a square matrix with partial pivoting.
///
/// The oracle the sparse [`crate::factor`] kernel is tested against.
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// Combined L (strictly lower, unit diagonal implicit) and U (upper).
    lu: DenseMatrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Parity of the permutation, for determinant sign.
    sign: f64,
}

impl LuFactors {
    /// Factorizes `a`. Returns [`LpError::SingularBasis`] when a pivot column
    /// has no entry larger than `tol`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factorize(a: &DenseMatrix, tol: f64) -> Result<Self, LpError> {
        assert_eq!(a.rows(), a.cols(), "LU requires a square matrix");
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;

        for col in 0..n {
            // Partial pivoting: pick the largest |entry| in this column.
            let mut best = col;
            let mut best_val = lu.get(col, col).abs();
            for r in (col + 1)..n {
                let v = lu.get(r, col).abs();
                if v > best_val {
                    best = r;
                    best_val = v;
                }
            }
            if best_val <= tol {
                return Err(LpError::SingularBasis);
            }
            if best != col {
                perm.swap(col, best);
                sign = -sign;
                let (ra, rb) = lu.two_rows_mut(col, best);
                ra.swap_with_slice(rb);
            }
            let pivot = lu.get(col, col);
            for r in (col + 1)..n {
                let factor = lu.get(r, col) / pivot;
                lu.set(r, col, factor);
                // postcard-analyze: allow(PA101) — exact-zero elimination skip.
                if factor != 0.0 {
                    let (pivot_row, row) = lu.two_rows_mut(col, r);
                    for c in (col + 1)..n {
                        row[c] -= factor * pivot_row[c];
                    }
                }
            }
        }
        Ok(Self { lu, perm, sign })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n);
        // Apply permutation, then forward/backward substitution.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for r in 1..n {
            let row = self.lu.row(r);
            let mut acc = x[r];
            for c in 0..r {
                acc -= row[c] * x[c];
            }
            x[r] = acc;
        }
        for r in (0..n).rev() {
            let row = self.lu.row(r);
            let mut acc = x[r];
            for c in (r + 1)..n {
                acc -= row[c] * x[c];
            }
            x[r] = acc / row[r];
        }
        x
    }

    /// Solves `Aᵀ·x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_transposed(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n);
        // Aᵀ = Uᵀ·Lᵀ·P, so solve Uᵀy = b, then Lᵀz = y, then x = Pᵀz.
        let mut y = b.to_vec();
        for r in 0..n {
            let mut acc = y[r];
            for (c, &yc) in y.iter().enumerate().take(r) {
                acc -= self.lu.get(c, r) * yc;
            }
            y[r] = acc / self.lu.get(r, r);
        }
        for r in (0..n).rev() {
            let mut acc = y[r];
            for (c, &yc) in y.iter().enumerate().skip(r + 1) {
                acc -= self.lu.get(c, r) * yc;
            }
            y[r] = acc;
        }
        let mut x = vec![0.0; n];
        for (i, &p) in self.perm.iter().enumerate() {
            x[p] = y[i];
        }
        x
    }

    /// Determinant of the factorized matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.sign;
        for i in 0..self.dim() {
            det *= self.lu.get(i, i);
        }
        det
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn identity_solves_trivially() {
        let id = DenseMatrix::identity(4);
        let lu = LuFactors::factorize(&id, 1e-12).unwrap();
        let x = lu.solve(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
        assert!(approx(lu.determinant(), 1.0));
    }

    #[test]
    fn solve_small_system() {
        // [2 1; 1 3] x = [3; 5] → x = [4/5, 7/5]
        let a = DenseMatrix::from_rows(2, 2, &[2.0, 1.0, 1.0, 3.0]);
        let lu = LuFactors::factorize(&a, 1e-12).unwrap();
        let x = lu.solve(&[3.0, 5.0]);
        assert!(approx(x[0], 0.8));
        assert!(approx(x[1], 1.4));
    }

    #[test]
    fn transposed_solve_matches_explicit_transpose() {
        let a = DenseMatrix::from_rows(3, 3, &[4.0, 1.0, 0.5, 2.0, 5.0, 1.0, 0.0, 1.0, 3.0]);
        let lu = LuFactors::factorize(&a, 1e-12).unwrap();
        let b = [1.0, -2.0, 0.5];
        let x = lu.solve_transposed(&b);
        // Verify Aᵀx = b.
        let mut at = DenseMatrix::zeros(3, 3);
        for r in 0..3 {
            for c in 0..3 {
                at.set(r, c, a.get(c, r));
            }
        }
        let bx = at.mat_vec(&x);
        for i in 0..3 {
            assert!(approx(bx[i], b[i]), "row {i}: {} vs {}", bx[i], b[i]);
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let a = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert_eq!(LuFactors::factorize(&a, 1e-10).unwrap_err(), LpError::SingularBasis);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = DenseMatrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let lu = LuFactors::factorize(&a, 1e-12).unwrap();
        let x = lu.solve(&[7.0, 9.0]);
        assert!(approx(x[0], 9.0) && approx(x[1], 7.0));
        assert!(approx(lu.determinant(), -1.0));
    }

    #[test]
    fn mat_vec_and_transpose() {
        let a = DenseMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.mat_vec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
        assert_eq!(a.mat_vec_transposed(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn two_rows_mut_either_order() {
        let mut a = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        {
            let (r1, r0) = a.two_rows_mut(1, 0);
            r1[0] += r0[0];
        }
        assert_eq!(a.get(1, 0), 4.0);
    }

    #[test]
    fn random_solve_residual_small() {
        // Deterministic pseudo-random matrix via LCG; checks ‖Ax−b‖∞ tiny.
        let n = 30;
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = DenseMatrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                a.set(r, c, next());
            }
            // Diagonal dominance keeps it well-conditioned.
            let d = a.get(r, r);
            a.set(r, r, d + 5.0 * d.signum().max(1.0));
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let lu = LuFactors::factorize(&a, 1e-12).unwrap();
        let x = lu.solve(&b);
        let ax = a.mat_vec(&x);
        for i in 0..n {
            assert!((ax[i] - b[i]).abs() < 1e-8);
        }
    }
}
