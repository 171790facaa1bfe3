//! Compressed sparse column (CSC) matrices.
//!
//! The simplex solver stores the constraint matrix in CSC form because every
//! iteration needs fast access to individual *columns* (pricing a candidate
//! entering variable, computing the pivot column).

/// A compressed-sparse-column matrix of `f64`.
///
/// Invariants: `col_ptr` has `cols + 1` entries, is non-decreasing, and
/// `row_idx[col_ptr[j]..col_ptr[j+1]]` lists the (not necessarily sorted)
/// row indices of the nonzeros of column `j` with matching `values`.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Transposes a row-major matrix into CSC form: row `r` holds
    /// `entries[row_start[r]..row_start[r + 1]]` as `(column, value)`
    /// pairs, with no column twice in one row, and the matrix has
    /// `row_start.len() - 1` rows. One counting pass sizes the columns and
    /// a second scatters the rows into them in order, so every column's
    /// rows come out ascending. Exact zeros are not stored.
    ///
    /// # Panics
    ///
    /// Panics if a column is out of range or `row_start` is empty.
    pub(crate) fn from_rows(cols: usize, row_start: &[usize], entries: &[(usize, f64)]) -> Self {
        let rows = row_start.len() - 1;
        let mut col_ptr = vec![0usize; cols + 1];
        // postcard-analyze: allow(PA101) — exact-zero entries are not stored.
        for &(c, _) in entries.iter().filter(|e| e.1 != 0.0) {
            col_ptr[c + 1] += 1;
        }
        for c in 0..cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        let mut next = col_ptr[..cols].to_vec();
        let mut row_idx = vec![0usize; col_ptr[cols]];
        let mut values = vec![0.0; col_ptr[cols]];
        for r in 0..rows {
            // postcard-analyze: allow(PA101) — exact-zero entries are not stored.
            for &(c, v) in entries[row_start[r]..row_start[r + 1]].iter().filter(|e| e.1 != 0.0) {
                debug_assert!(next[c] == col_ptr[c] || row_idx[next[c] - 1] < r, "column twice");
                row_idx[next[c]] = r;
                values[next[c]] = v;
                next[c] += 1;
            }
        }
        CscMatrix { rows, cols, col_ptr, row_idx, values }
    }

    /// An empty matrix with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, col_ptr: vec![0; cols + 1], row_idx: Vec::new(), values: Vec::new() }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates the nonzeros of column `j` as `(row, value)`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    #[inline]
    pub fn column(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.row_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// Dot product of column `j` with a dense vector.
    #[inline]
    pub fn column_dot(&self, j: usize, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.rows);
        self.column(j).map(|(r, v)| v * x[r]).sum()
    }

    /// Scatters column `j` into a dense vector (which must be zeroed by the
    /// caller beforehand if that is the desired semantics — values are
    /// *added*).
    #[inline]
    pub fn scatter_column(&self, j: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.rows);
        for (r, v) in self.column(j) {
            out[r] += v;
        }
    }

    /// Dense matrix-vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mat_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        let mut out = vec![0.0; self.rows];
        for (j, &xj) in x.iter().enumerate() {
            // postcard-analyze: allow(PA101) — exact-zero column skip.
            if xj == 0.0 {
                continue;
            }
            for (r, v) in self.column(j) {
                out[r] += v * xj;
            }
        }
        out
    }

    /// Dense element lookup (O(nnz in column)).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.column(c).filter(|&(ri, _)| ri == r).map(|(_, v)| v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `from_rows` over rows given as lists of `(column, value)`.
    fn matrix(cols: usize, rows: &[&[(usize, f64)]]) -> CscMatrix {
        let mut row_start = vec![0];
        let mut entries = Vec::new();
        for row in rows {
            entries.extend_from_slice(row);
            row_start.push(entries.len());
        }
        CscMatrix::from_rows(cols, &row_start, &entries)
    }

    #[test]
    fn build_and_read_back() {
        let m = matrix(2, &[&[(0, 1.0)], &[(1, 3.0)], &[(0, -2.0)]]);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(2, 0), -2.0);
        assert_eq!(m.get(1, 1), 3.0);
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn zeros_are_dropped() {
        let m = matrix(2, &[&[(0, 0.0), (1, 5.0)], &[]]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.column(1).collect::<Vec<_>>(), vec![(0, 5.0)]);
    }

    #[test]
    fn mat_vec_matches_dense() {
        // [1 0 2; 0 3 0]
        let m = matrix(3, &[&[(2, 2.0), (0, 1.0)], &[(1, 3.0)]]);
        assert_eq!(m.mat_vec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
        assert_eq!(m.column_dot(2, &[5.0, 7.0]), 10.0);
    }

    #[test]
    fn scatter_accumulates() {
        let m = matrix(1, &[&[(0, 1.0)], &[(0, 2.0)]]);
        let mut out = vec![1.0, 1.0];
        m.scatter_column(0, &mut out);
        assert_eq!(out, vec![2.0, 3.0]);
    }

    #[test]
    fn empty_matrix_behaves() {
        let m = CscMatrix::zeros(3, 3);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.mat_vec(&[1.0; 3]), vec![0.0; 3]);
    }

    /// A sort-based compression of triplets, kept as an oracle.
    fn build_by_sort(
        rows: usize,
        cols: usize,
        mut triplets: Vec<(usize, usize, f64)>,
    ) -> CscMatrix {
        triplets.retain(|t| t.2 != 0.0);
        triplets.sort_unstable_by_key(|&(r, c, _)| (c, r));
        let mut col_ptr = vec![0usize; cols + 1];
        let mut row_idx = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        for (r, c, v) in triplets {
            row_idx.push(r);
            values.push(v);
            col_ptr[c + 1] += 1;
        }
        for c in 0..cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        CscMatrix { rows, cols, col_ptr, row_idx, values }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn row_transpose_matches_the_sort_build(
            rows in 1usize..8,
            cols in 1usize..8,
            raw in proptest::collection::vec((0usize..64, 0usize..64, -3i32..=3), 0..60),
        ) {
            // Keep the first entry of each coordinate: a row names a
            // column at most once.
            let mut seen = std::collections::BTreeSet::new();
            let mut triplets: Vec<(usize, usize, f64)> = raw
                .iter()
                .map(|&(r, c, v)| (r % rows, c % cols, f64::from(v)))
                .filter(|&(r, c, _)| seen.insert((r, c)))
                .collect();
            triplets.sort_by_key(|&(r, _, _)| r);
            let mut row_start = vec![0];
            let mut entries = Vec::new();
            for r in 0..rows {
                entries.extend(triplets.iter().filter(|t| t.0 == r).map(|&(_, c, v)| (c, v)));
                row_start.push(entries.len());
            }
            let built = CscMatrix::from_rows(cols, &row_start, &entries);
            proptest::prop_assert_eq!(built, build_by_sort(rows, cols, triplets));
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        matrix(1, &[&[(1, 1.0)]]);
    }
}
