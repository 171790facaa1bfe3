//! Sparse LU factorization of simplex basis matrices.
//!
//! The revised simplex solver represents its basis `B` as a product-form
//! factorization computed here, plus a short eta file (see [`crate::eta`])
//! of post-factorization pivots. Bases arising from time-expanded flow
//! models are extremely sparse and near-triangular: each structural column
//! touches two conservation rows and a capacity row. A column-singleton
//! peel therefore orders most of the basis (the *prefix*) without any
//! fill-in, and the few remaining columns (the *bump*) are eliminated
//! left-looking with partial pivoting.
//!
//! Storage is Gaussian product form: step `k` eliminates basis column
//! `col_order[k]` on pivot row `pivot_row[k]`, recording the off-pivot
//! multipliers of the elementary transform `M_k` (unit diagonal implicit)
//! as its L-column, and the transformed column's upper-triangular entries
//! as its U-column plus the pivot `udiag[k]`. Both factors are stored
//! flat, as contiguous row/value arrays with per-step offsets, and every
//! buffer is reused by the next [`BasisFactor::factorize`].
//!
//! Elimination is sparse end to end. A column is scattered into a dense
//! work array, but only the rows it touches are ever visited: the earlier
//! steps it must apply are exactly those whose pivot rows it touches, and
//! a min-heap hands them out in ascending step order (a step's L-column
//! only names rows that are pivots of *later* steps, or no pivot yet). The
//! pivot search and the L-column then run over the touched non-pivot rows
//! alone. A refactorization thus costs O(nnz(B) + fill) plus a logarithmic
//! heap factor, not O(m²). Prefix steps have empty L-columns, so `ftran`
//! and `btran` replay L only for the steps that have one.
//!
//! The arithmetic is exactly that of a dense left-looking elimination that
//! scans all earlier steps and all rows in ascending order: the same
//! operations on the same operands in the same order. Pivot ties go to the
//! lowest row index, U entries are kept in step order and L entries sorted
//! by row, so every solve's pivot path is independent of this storage.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::error::LpError;

/// Marks a row that is not (yet) the pivot row of any step.
const NO_STEP: usize = usize::MAX;

/// Sparse LU factorization of a square basis matrix in product form.
#[derive(Debug, Clone, Default)]
pub(crate) struct BasisFactor {
    /// Dimension of the factorized basis.
    m: usize,
    /// `col_order[k]` is the basis position eliminated at step `k`.
    col_order: Vec<usize>,
    /// `pivot_row[k]` is the pivot row chosen at step `k`.
    pivot_row: Vec<usize>,
    /// Pivot value of step `k`.
    udiag: Vec<f64>,
    /// U-column of step `k` is `u_row/u_val[u_start[k]..u_start[k + 1]]`:
    /// the pivot rows of earlier steps, in step order, with their entries.
    u_start: Vec<usize>,
    u_row: Vec<usize>,
    u_val: Vec<f64>,
    /// L-column of step `k` is `l_row/l_val[l_start[k]..l_start[k + 1]]`:
    /// off-pivot multipliers, sorted by row.
    l_start: Vec<usize>,
    l_row: Vec<usize>,
    l_val: Vec<f64>,
    /// The steps whose L-column is nonempty, ascending.
    l_steps: Vec<usize>,
    /// Cycles of the permutation moving row `pivot_row[k]` to position
    /// `col_order[k]`, flat: cycle `c` is
    /// `cycles[cycle_start[c]..cycle_start[c + 1]]`, each entry receiving
    /// the value at the next. Fixed points are omitted.
    cycle_start: Vec<usize>,
    cycles: Vec<usize>,
    /// Buffers reused by every factorization.
    scratch: Scratch,
}

/// Working storage of [`BasisFactor::factorize`], kept between calls so a
/// refactorization allocates nothing once the buffers have grown.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Peel: column indices of each row's entries, flat by row.
    row_col_start: Vec<usize>,
    row_cols: Vec<usize>,
    /// Peel: entries of each column in still-active rows.
    active_count: Vec<usize>,
    /// Peel: whether a row is still unclaimed.
    row_active: Vec<bool>,
    /// Peel: whether a column has been ordered.
    assigned: Vec<bool>,
    /// Peel: stack of candidate singleton columns.
    queue: Vec<usize>,
    /// Elimination order of the basis positions.
    order: Vec<usize>,
    /// Step at which each row became a pivot, or [`NO_STEP`].
    step_of_row: Vec<usize>,
    /// Dense scatter of the column being eliminated; zero outside `touched`.
    work: Vec<f64>,
    /// Whether a row is in `touched`.
    mark: Vec<bool>,
    /// Rows the current column has touched.
    touched: Vec<usize>,
    /// The touched rows that are not pivots yet.
    free_rows: Vec<usize>,
    /// Earlier steps still to apply to the current column.
    steps: BinaryHeap<Reverse<usize>>,
}

impl Scratch {
    /// Records that the current column touches row `r`: a pivot row queues
    /// its step for application, any other row becomes a pivot candidate.
    #[inline]
    fn touch(&mut self, r: usize) {
        if !self.mark[r] {
            self.mark[r] = true;
            self.touched.push(r);
            match self.step_of_row[r] {
                NO_STEP => self.free_rows.push(r),
                step => self.steps.push(Reverse(step)),
            }
        }
    }

    /// Zeroes the work array over the touched rows and forgets them.
    fn clear_touched(&mut self) {
        for &r in &self.touched {
            self.work[r] = 0.0;
            self.mark[r] = false;
        }
        self.touched.clear();
        self.free_rows.clear();
        self.steps.clear();
    }
}

impl BasisFactor {
    /// Turns this factorization into that of the `m × m` identity (the
    /// all-slack/artificial start basis), keeping the buffers' capacity.
    /// Every ftran/btran through it is a no-op copy.
    pub(crate) fn reset_identity(&mut self, m: usize) {
        self.m = m;
        self.col_order.clear();
        self.col_order.extend(0..m);
        self.pivot_row.clear();
        self.pivot_row.extend(0..m);
        self.udiag.clear();
        self.udiag.resize(m, 1.0);
        self.u_start.clear();
        self.u_start.resize(m + 1, 0);
        self.u_row.clear();
        self.u_val.clear();
        self.l_start.clear();
        self.l_start.resize(m + 1, 0);
        self.l_row.clear();
        self.l_val.clear();
        self.l_steps.clear();
        self.cycle_start.clear();
        self.cycle_start.push(0);
        self.cycles.clear();
    }

    /// Dimension of the factorized basis.
    #[cfg(test)]
    pub(crate) fn dim(&self) -> usize {
        self.m
    }

    /// Total stored nonzeros across the L and U factors (fill metric).
    #[cfg(test)]
    pub(crate) fn fill(&self) -> usize {
        self.l_row.len() + self.u_row.len() + self.m
    }

    /// Factorizes the basis whose `k`-th column has the sparse entries
    /// `cols[k]` (row, value), replacing this factorization and reusing its
    /// buffers. Returns [`LpError::SingularBasis`] when no pivot larger
    /// than `pivot_tol` in magnitude can be found for some column; the
    /// factorization is then unusable until the next successful call or
    /// [`BasisFactor::reset_identity`].
    pub(crate) fn factorize(
        &mut self,
        cols: &[Vec<(usize, f64)>],
        pivot_tol: f64,
    ) -> Result<(), LpError> {
        debug_assert!(pivot_tol >= 0.0, "a negative tolerance would pivot on untouched zeros");
        let m = cols.len();
        self.m = m;
        self.peel(cols, pivot_tol)?;

        // Left-looking elimination over the chosen column order.
        self.col_order.clear();
        self.pivot_row.clear();
        self.udiag.clear();
        self.u_start.clear();
        self.u_start.push(0);
        self.u_row.clear();
        self.u_val.clear();
        self.l_start.clear();
        self.l_start.push(0);
        self.l_row.clear();
        self.l_val.clear();
        self.l_steps.clear();
        let mut sc = std::mem::take(&mut self.scratch);
        sc.step_of_row.clear();
        sc.step_of_row.resize(m, NO_STEP);
        sc.work.clear();
        sc.work.resize(m, 0.0);
        sc.mark.clear();
        sc.mark.resize(m, false);
        sc.clear_touched();
        let order = std::mem::take(&mut sc.order);
        let result =
            order.iter().try_for_each(|&j| self.eliminate(&mut sc, j, &cols[j], pivot_tol));
        sc.order = order;
        self.scratch = sc;
        result?;
        self.build_cycles();
        Ok(())
    }

    /// Column-singleton peel: repeatedly picks a column with exactly one
    /// entry in a still-active row and pivots on it. Time-expanded bases
    /// are near-triangular, so this usually orders most of the basis with
    /// zero fill-in; leftovers follow in their natural order. Leaves the
    /// elimination order in `scratch.order`.
    fn peel(&mut self, cols: &[Vec<(usize, f64)>], pivot_tol: f64) -> Result<(), LpError> {
        let m = cols.len();
        let sc = &mut self.scratch;
        sc.row_col_start.clear();
        sc.row_col_start.resize(m + 1, 0);
        for col in cols {
            for &(r, _) in col {
                if r >= m {
                    return Err(LpError::SingularBasis);
                }
                sc.row_col_start[r + 1] += 1;
            }
        }
        for r in 0..m {
            sc.row_col_start[r + 1] += sc.row_col_start[r];
        }
        // Fill each row's column list in ascending column order, using the
        // queue as per-row insertion cursors.
        sc.queue.clear();
        sc.queue.extend_from_slice(&sc.row_col_start[..m]);
        sc.row_cols.clear();
        sc.row_cols.resize(sc.row_col_start[m], 0);
        for (j, col) in cols.iter().enumerate() {
            for &(r, _) in col {
                sc.row_cols[sc.queue[r]] = j;
                sc.queue[r] += 1;
            }
        }
        sc.row_active.clear();
        sc.row_active.resize(m, true);
        sc.assigned.clear();
        sc.assigned.resize(m, false);
        sc.active_count.clear();
        sc.active_count.extend(cols.iter().map(Vec::len));
        sc.order.clear();
        sc.queue.clear();
        sc.queue.extend((0..m).filter(|&j| sc.active_count[j] == 1));
        while let Some(j) = sc.queue.pop() {
            if sc.assigned[j] || sc.active_count[j] != 1 {
                continue;
            }
            let Some(&(r, v)) = cols[j].iter().find(|&&(r, _)| sc.row_active[r]) else {
                continue;
            };
            if v.abs() <= pivot_tol {
                // Too small to pivot on structurally; leave this column to
                // the general phase (which may still reject it).
                continue;
            }
            sc.assigned[j] = true;
            sc.order.push(j);
            sc.row_active[r] = false;
            for &j2 in &sc.row_cols[sc.row_col_start[r]..sc.row_col_start[r + 1]] {
                if !sc.assigned[j2] && sc.active_count[j2] > 0 {
                    sc.active_count[j2] -= 1;
                    if sc.active_count[j2] == 1 {
                        sc.queue.push(j2);
                    }
                }
            }
        }
        for j in 0..m {
            if !sc.assigned[j] {
                sc.order.push(j);
            }
        }
        Ok(())
    }

    /// Eliminates basis column `j` (entries `col`) as the next step.
    fn eliminate(
        &mut self,
        sc: &mut Scratch,
        j: usize,
        col: &[(usize, f64)],
        pivot_tol: f64,
    ) -> Result<(), LpError> {
        for &(r, v) in col {
            sc.touch(r);
            sc.work[r] += v;
        }
        // Apply the earlier elementary transforms in step order, recording
        // the upper-triangular entries they expose.
        while let Some(Reverse(i)) = sc.steps.pop() {
            let p = self.pivot_row[i];
            let x = sc.work[p];
            // postcard-analyze: allow(PA101) — exact-zero scatter skip.
            if x != 0.0 {
                self.u_row.push(p);
                self.u_val.push(x);
                for e in self.l_start[i]..self.l_start[i + 1] {
                    let r = self.l_row[e];
                    sc.touch(r);
                    sc.work[r] -= self.l_val[e] * x;
                }
            }
        }
        // Partial pivoting among the touched rows that are not yet pivots;
        // scanning them ascending sends ties to the lowest row.
        sc.free_rows.sort_unstable();
        let mut best = NO_STEP;
        let mut best_abs = pivot_tol;
        for &r in &sc.free_rows {
            let w = sc.work[r];
            if w.abs() > best_abs {
                best_abs = w.abs();
                best = r;
            }
        }
        if best == NO_STEP {
            sc.clear_touched();
            return Err(LpError::SingularBasis);
        }
        let d = sc.work[best];
        let k = self.pivot_row.len();
        for &r in &sc.free_rows {
            let w = sc.work[r];
            // postcard-analyze: allow(PA101) — exact-zero multiplier skip.
            if r != best && w != 0.0 {
                self.l_row.push(r);
                self.l_val.push(w / d);
            }
        }
        sc.clear_touched();
        sc.step_of_row[best] = k;
        if self.l_row.len() > self.l_start[k] {
            self.l_steps.push(k);
        }
        self.col_order.push(j);
        self.pivot_row.push(best);
        self.udiag.push(d);
        self.u_start.push(self.u_row.len());
        self.l_start.push(self.l_row.len());
        Ok(())
    }

    /// Decomposes the permutation `pivot_row[k] → col_order[k]` into
    /// cycles, so `ftran`/`btran` can permute in place.
    fn build_cycles(&mut self) {
        // `step_of_row` is spent; reuse it as the source row of each
        // position, and `mark` (all false after elimination) as visited.
        let sc = &mut self.scratch;
        for (k, &pos) in self.col_order.iter().enumerate() {
            sc.step_of_row[pos] = self.pivot_row[k];
        }
        self.cycle_start.clear();
        self.cycle_start.push(0);
        self.cycles.clear();
        for start in 0..self.m {
            if sc.mark[start] || sc.step_of_row[start] == start {
                continue;
            }
            let mut d = start;
            while !sc.mark[d] {
                sc.mark[d] = true;
                self.cycles.push(d);
                d = sc.step_of_row[d];
            }
            self.cycle_start.push(self.cycles.len());
        }
        for &d in &self.cycles {
            sc.mark[d] = false;
        }
    }

    /// Solves `B·z = b` in place: `work` holds `b` on entry and `z` on
    /// exit, where `z[k]` is the multiplier of the basis column at
    /// position `k`.
    pub(crate) fn ftran(&self, work: &mut [f64]) {
        debug_assert_eq!(work.len(), self.m);
        // Forward pass: apply the elementary transforms that have an
        // L-column, in step order (the others are identities).
        for &k in &self.l_steps {
            let x = work[self.pivot_row[k]];
            // postcard-analyze: allow(PA101) — exact-zero skip.
            if x != 0.0 {
                for e in self.l_start[k]..self.l_start[k + 1] {
                    work[self.l_row[e]] -= self.l_val[e] * x;
                }
            }
        }
        // Column-oriented back substitution through U. Step `k`'s solution
        // lands on its own pivot row, which no earlier step reads.
        for k in (0..self.m).rev() {
            let p = self.pivot_row[k];
            let v = work[p] / self.udiag[k];
            work[p] = v;
            // postcard-analyze: allow(PA101) — exact-zero skip.
            if v != 0.0 {
                for e in self.u_start[k]..self.u_start[k + 1] {
                    work[self.u_row[e]] -= self.u_val[e] * v;
                }
            }
        }
        // Move each step's value from its pivot row to its basis position.
        for c in self.cycle_start.windows(2) {
            let cycle = &self.cycles[c[0]..c[1]];
            let first = work[cycle[0]];
            for t in 1..cycle.len() {
                work[cycle[t - 1]] = work[cycle[t]];
            }
            work[cycle[cycle.len() - 1]] = first;
        }
    }

    /// Solves `Bᵀ·y = c` in place: `work` holds `c` on entry (indexed by
    /// basis position) and `y` (indexed by row) on exit.
    pub(crate) fn btran(&self, work: &mut [f64]) {
        debug_assert_eq!(work.len(), self.m);
        // Move each basis position's value to its step's pivot row (the
        // inverse of the permutation that ends `ftran`).
        for c in self.cycle_start.windows(2) {
            let cycle = &self.cycles[c[0]..c[1]];
            let last = work[cycle[cycle.len() - 1]];
            for t in (1..cycle.len()).rev() {
                work[cycle[t]] = work[cycle[t - 1]];
            }
            work[cycle[0]] = last;
        }
        // Forward solve through Uᵀ in step order; earlier steps' solutions
        // already sit on their pivot rows.
        for k in 0..self.m {
            let p = self.pivot_row[k];
            let mut v = work[p];
            for e in self.u_start[k]..self.u_start[k + 1] {
                v -= self.u_val[e] * work[self.u_row[e]];
            }
            work[p] = v / self.udiag[k];
        }
        // Apply the transposed elementary transforms in reverse order.
        for &k in self.l_steps.iter().rev() {
            let p = self.pivot_row[k];
            let mut v = work[p];
            for e in self.l_start[k]..self.l_start[k + 1] {
                v -= self.l_val[e] * work[self.l_row[e]];
            }
            work[p] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{DenseMatrix, LuFactors};
    use proptest::prelude::*;

    /// A fresh factorization of `cols`.
    fn factor(cols: &[Vec<(usize, f64)>], pivot_tol: f64) -> Result<BasisFactor, LpError> {
        let mut f = BasisFactor::default();
        f.factorize(cols, pivot_tol).map(|()| f)
    }

    fn dense_from_cols(cols: &[Vec<(usize, f64)>]) -> DenseMatrix {
        let m = cols.len();
        let mut a = DenseMatrix::zeros(m, m);
        for (j, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                a.set(r, j, a.get(r, j) + v);
            }
        }
        a
    }

    fn lcg(state: &mut u64) -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    }

    /// Asserts `ftran`/`btran` through `f` agree with the dense oracle's
    /// solves of `cols` on the right-hand side `b`.
    fn assert_matches_oracle(f: &BasisFactor, cols: &[Vec<(usize, f64)>], b: &[f64], tol: f64) {
        let lu = LuFactors::factorize(&dense_from_cols(cols), 1e-12).unwrap();
        let mut z = b.to_vec();
        f.ftran(&mut z);
        for (got, want) in z.iter().zip(&lu.solve(b)) {
            assert!((got - want).abs() < tol, "ftran {got} vs {want}");
        }
        let mut y = b.to_vec();
        f.btran(&mut y);
        for (got, want) in y.iter().zip(&lu.solve_transposed(b)) {
            assert!((got - want).abs() < tol, "btran {got} vs {want}");
        }
    }

    #[test]
    fn identity_is_a_no_op() {
        let mut f = BasisFactor::default();
        f.reset_identity(5);
        let mut v = vec![1.0, -2.0, 3.0, 0.0, 0.5];
        let expect = v.clone();
        f.ftran(&mut v);
        assert_eq!(v, expect);
        f.btran(&mut v);
        assert_eq!(v, expect);
        assert_eq!(f.dim(), 5);
    }

    #[test]
    fn triangular_basis_factors_without_fill() {
        // A lower-triangular basis: singleton peel should order it fully.
        let cols =
            vec![vec![(0, 2.0), (1, 1.0), (2, -1.0)], vec![(1, 3.0), (2, 0.5)], vec![(2, 4.0)]];
        let f = factor(&cols, 1e-12).unwrap();
        // No fill: stored nnz equals the input nnz.
        assert_eq!(f.fill(), 6);
        assert!(f.l_steps.is_empty(), "a peeled prefix has no L-columns");
        assert_matches_oracle(&f, &cols, &[4.0, 5.0, 2.0], 1e-10);
    }

    /// Random sparse bases with a dominant diagonal, so they are
    /// nonsingular; `density` is the chance of each off-diagonal entry.
    fn random_basis(state: &mut u64, m: usize, diag: f64, density: f64) -> Vec<Vec<(usize, f64)>> {
        (0..m)
            .map(|j| {
                let mut col = vec![(j, diag + lcg(state))];
                for r in 0..m {
                    if r != j && lcg(state) > 1.0 - 2.0 * density {
                        col.push((r, lcg(state)));
                    }
                }
                col
            })
            .collect()
    }

    #[test]
    fn ftran_matches_dense_solve_on_random_bases() {
        let mut state = 0xDEAD_BEEF_u64;
        for trial in 0..20 {
            let cols = random_basis(&mut state, 4 + trial % 13, 3.0, 0.225);
            let b: Vec<f64> = (0..cols.len()).map(|_| lcg(&mut state)).collect();
            assert_matches_oracle(&factor(&cols, 1e-12).unwrap(), &cols, &b, 1e-8);
        }
    }

    #[test]
    fn btran_matches_dense_transposed_solve() {
        let mut state = 0xC0FF_EE11_u64;
        for trial in 0..20 {
            let cols = random_basis(&mut state, 3 + trial % 11, 2.5, 0.2);
            let c: Vec<f64> = (0..cols.len()).map(|_| lcg(&mut state)).collect();
            assert_matches_oracle(&factor(&cols, 1e-12).unwrap(), &cols, &c, 1e-8);
        }
    }

    #[test]
    fn permuted_identity_needs_pivoting() {
        // Columns of a cyclic permutation matrix: every diagonal is zero.
        let cols = vec![vec![(1, 1.0)], vec![(2, 1.0)], vec![(0, 1.0)]];
        let f = factor(&cols, 1e-12).unwrap();
        let mut b = vec![7.0, 8.0, 9.0];
        f.ftran(&mut b);
        // B z = b with B e0 = e1, B e1 = e2, B e2 = e0 → z = (8, 9, 7).
        assert_eq!(b, vec![8.0, 9.0, 7.0]);
        // Bᵀ y = c: y = (c2, c0, c1).
        let mut c = vec![1.0, 2.0, 3.0];
        f.btran(&mut c);
        assert_eq!(c, vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn pivot_ties_go_to_the_lowest_row() {
        // A 2×2 bump whose first column has equal magnitudes on rows 1 and
        // 0, listed highest row first: the lower row must win.
        let cols = vec![vec![(1, -3.0), (0, 3.0)], vec![(0, 1.0), (1, 1.0)]];
        let f = factor(&cols, 1e-12).unwrap();
        assert_eq!(f.col_order, vec![0, 1]);
        assert_eq!(f.pivot_row, vec![0, 1]);
        assert_matches_oracle(&f, &cols, &[1.0, -2.0], 1e-12);
    }

    #[test]
    fn singular_basis_rejected() {
        let cols = vec![vec![(0, 1.0), (1, 2.0)], vec![(0, 2.0), (1, 4.0)]];
        assert_eq!(factor(&cols, 1e-10).unwrap_err(), LpError::SingularBasis);
    }

    #[test]
    fn out_of_range_row_rejected() {
        let cols = vec![vec![(5, 1.0)]];
        assert_eq!(factor(&cols, 1e-10).unwrap_err(), LpError::SingularBasis);
    }

    #[test]
    fn refactorizing_in_place_matches_a_fresh_factor() {
        // One factor object reused across bases of different sizes, and
        // across a rejected singular basis, must solve exactly like a
        // fresh factorization each time.
        let a = vec![vec![(0, 2.0), (2, 1.0)], vec![(1, 1.0), (0, -1.0)], vec![(2, 3.0), (1, 1.0)]];
        let singular = vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 1.0)]];
        let b = vec![vec![(1, 1.0)], vec![(0, 4.0)]];
        let mut reused = BasisFactor::default();
        for cols in [&a, &b, &a] {
            reused.factorize(cols, 1e-12).unwrap();
            let fresh = factor(cols, 1e-12).unwrap();
            let rhs: Vec<f64> = (0..cols.len()).map(|i| 1.0 + i as f64).collect();
            let (mut x, mut y) = (rhs.clone(), rhs.clone());
            reused.ftran(&mut x);
            fresh.ftran(&mut y);
            assert_eq!(x, y);
            reused.btran(&mut x);
            fresh.btran(&mut y);
            assert_eq!(x, y);
            assert_eq!(reused.factorize(&singular, 1e-12), Err(LpError::SingularBasis));
        }
    }

    #[test]
    fn ftran_btran_round_trip() {
        // B·ftran(b) == b, recomputed column-wise.
        let mut state = 0x1357_9BDF_u64;
        let cols = random_basis(&mut state, 12, 4.0, 0.15);
        let b: Vec<f64> = (0..cols.len()).map(|_| lcg(&mut state)).collect();
        let f = factor(&cols, 1e-12).unwrap();
        let mut z = b.clone();
        f.ftran(&mut z);
        let mut bz = vec![0.0; cols.len()];
        for (j, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                bz[r] += v * z[j];
            }
        }
        for (got, want) in bz.iter().zip(&b) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    /// How a generated flow-shaped basis is made singular, if at all.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Defect {
        None,
        /// One column is an exact multiple (×2) of another.
        DuplicateColumn,
        /// No column has an entry in one row.
        EmptyRow,
    }

    /// A flow-shaped basis: `m` columns of 1–3 entries each. The first
    /// `m - bump` columns form a triangular prefix under a random row and
    /// column permutation; the rest are a random bump. Every column has a
    /// diagonal entry of magnitude at least 2.5 and at most two off-diagonal
    /// entries of magnitude at most 1, so the basis is strictly column
    /// diagonally dominant (hence nonsingular) unless `defect` breaks it.
    fn flow_basis(seed: u64, m: usize, bump: usize, defect: Defect) -> Vec<Vec<(usize, f64)>> {
        let mut state = seed | 1;
        let mut draw = |n: usize| ((lcg(&mut state) + 1.0) * 0.5 * n as f64) as usize % n;
        let mut rows: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            rows.swap(i, draw(i + 1));
        }
        let prefix = m - bump.min(m);
        let mut cols: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|k| {
                let sign = if draw(2) == 0 { 1.0 } else { -1.0 };
                let mut col = vec![(rows[k], sign * (2.5 + draw(3) as f64))];
                // Prefix columns reach back only to earlier prefix rows, so
                // the peel takes them in order; bump columns reach anywhere.
                let reach = if k < prefix { k } else { m };
                for _ in 0..draw(3) {
                    if reach == 0 {
                        break;
                    }
                    let r = rows[draw(reach)];
                    if col.iter().all(|&(q, _)| q != r) {
                        col.push((r, if draw(2) == 0 { 1.0 } else { -0.5 }));
                    }
                }
                col
            })
            .collect();
        let mut colperm: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            colperm.swap(i, draw(i + 1));
        }
        match defect {
            Defect::None => {}
            Defect::DuplicateColumn if m >= 2 => {
                let (a, b) = (draw(m), draw(m));
                let b = if a == b { (b + 1) % m } else { b };
                cols[b] = cols[a].iter().map(|&(r, v)| (r, 2.0 * v)).collect();
            }
            // A single column has no partner to duplicate: empty its row.
            Defect::DuplicateColumn | Defect::EmptyRow => {
                let r = draw(m);
                for col in &mut cols {
                    col.retain(|&(q, _)| q != r);
                }
            }
        }
        colperm.iter().map(|&j| cols[j].clone()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random flow-shaped bases: nonsingular ones solve like the dense
        /// oracle, and deliberately singular ones are rejected.
        #[test]
        fn flow_shaped_bases_match_the_dense_oracle(
            seed in 0u64..u64::MAX,
            m in 1usize..40,
            bump in 0usize..12,
            defect in 0usize..6,
        ) {
            let defect = match defect {
                4 => Defect::DuplicateColumn,
                5 => Defect::EmptyRow,
                _ => Defect::None,
            };
            let cols = flow_basis(seed, m, bump, defect);
            let result = factor(&cols, 1e-12);
            if defect != Defect::None {
                prop_assert_eq!(result.unwrap_err(), LpError::SingularBasis);
                return Ok(());
            }
            let f = result.unwrap();
            if bump == 0 {
                let nnz: usize = cols.iter().map(Vec::len).sum();
                prop_assert_eq!(f.fill(), nnz, "a triangular basis must factor without fill");
                prop_assert!(f.l_steps.is_empty());
            }
            let mut state = seed ^ 0x5DEE_CE66;
            let b: Vec<f64> = (0..m).map(|_| lcg(&mut state)).collect();
            assert_matches_oracle(&f, &cols, &b, 1e-9);
        }
    }
}
