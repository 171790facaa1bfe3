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

/// Builder accumulating triplets before compression.
#[derive(Debug, Clone, Default)]
pub struct CscBuilder {
    rows: usize,
    cols: usize,
    triplets: Vec<(usize, usize, f64)>,
}

impl CscBuilder {
    /// Creates a builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self { rows, cols, triplets: Vec::new() }
    }

    /// Records `value` at `(row, col)`; duplicate coordinates are summed on
    /// [`CscBuilder::build`].
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "triplet out of range");
        // postcard-analyze: allow(PA101) — exact-zero entries are not stored.
        if value != 0.0 {
            self.triplets.push((row, col, value));
        }
    }

    /// Compresses the accumulated triplets into a [`CscMatrix`].
    ///
    /// A stable counting pass scatters the triplets by column in push
    /// order, so a caller that pushes rows in ascending order (as
    /// `StandardForm::from_model` does) gets each column's rows ascending
    /// without a sort. A column pushed out of row order is sorted on its
    /// own. Triplets sharing a coordinate are summed in push order; entries
    /// that sum to exactly zero are still stored (they are harmless and
    /// rare in practice).
    pub fn build(self) -> CscMatrix {
        let nnz = self.triplets.len();
        let mut col_ptr = vec![0usize; self.cols + 1];
        for &(_, c, _) in &self.triplets {
            col_ptr[c + 1] += 1;
        }
        for c in 0..self.cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        let mut next = col_ptr[..self.cols].to_vec();
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0.0; nnz];
        for (r, c, v) in self.triplets {
            row_idx[next[c]] = r;
            values[next[c]] = v;
            next[c] += 1;
        }
        drop(next);

        // Order each column by row and merge duplicates, compacting in
        // place; `start` is the column's old offset, `col_ptr[c]` its new.
        let mut out = 0;
        let mut start = 0;
        for c in 0..self.cols {
            let end = col_ptr[c + 1];
            if row_idx[start..end].windows(2).any(|w| w[0] >= w[1]) {
                let mut column: Vec<(usize, f64)> = row_idx[start..end]
                    .iter()
                    .copied()
                    .zip(values[start..end].iter().copied())
                    .collect();
                column.sort_by_key(|&(r, _)| r);
                for (k, (r, v)) in column.into_iter().enumerate() {
                    row_idx[start + k] = r;
                    values[start + k] = v;
                }
            }
            col_ptr[c] = out;
            for k in start..end {
                if out > col_ptr[c] && row_idx[out - 1] == row_idx[k] {
                    values[out - 1] += values[k];
                } else {
                    row_idx[out] = row_idx[k];
                    values[out] = values[k];
                    out += 1;
                }
            }
            start = end;
        }
        col_ptr[self.cols] = out;
        row_idx.truncate(out);
        values.truncate(out);
        CscMatrix { rows: self.rows, cols: self.cols, col_ptr, row_idx, values }
    }
}

impl CscMatrix {
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

    #[test]
    fn build_and_read_back() {
        let mut b = CscBuilder::new(3, 2);
        b.push(0, 0, 1.0);
        b.push(2, 0, -2.0);
        b.push(1, 1, 3.0);
        let m = b.build();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(2, 0), -2.0);
        assert_eq!(m.get(1, 1), 3.0);
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = CscBuilder::new(2, 2);
        b.push(0, 1, 1.5);
        b.push(0, 1, 2.5);
        let m = b.build();
        assert_eq!(m.get(0, 1), 4.0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn zeros_are_dropped() {
        let mut b = CscBuilder::new(2, 2);
        b.push(0, 0, 0.0);
        let m = b.build();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn mat_vec_matches_dense() {
        let mut b = CscBuilder::new(2, 3);
        // [1 0 2; 0 3 0]
        b.push(0, 0, 1.0);
        b.push(0, 2, 2.0);
        b.push(1, 1, 3.0);
        let m = b.build();
        assert_eq!(m.mat_vec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
        assert_eq!(m.column_dot(2, &[5.0, 7.0]), 10.0);
    }

    #[test]
    fn scatter_accumulates() {
        let mut b = CscBuilder::new(2, 1);
        b.push(0, 0, 1.0);
        b.push(1, 0, 2.0);
        let m = b.build();
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

    /// The sort-based compression `build` replaced, kept as an oracle.
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
        let mut last = None;
        for (r, c, v) in triplets {
            match values.last_mut() {
                Some(tail) if last == Some((c, r)) => *tail += v,
                _ => {
                    row_idx.push(r);
                    values.push(v);
                    col_ptr[c + 1] += 1;
                    last = Some((c, r));
                }
            }
        }
        for c in 0..cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        CscMatrix { rows, cols, col_ptr, row_idx, values }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn counting_build_matches_the_sort_build(
            rows in 1usize..8,
            cols in 1usize..8,
            raw in proptest::collection::vec((0usize..64, 0usize..64, -3i32..=3), 0..60),
        ) {
            // Small integer values keep every duplicate sum exact, so the
            // two summation orders agree bit for bit.
            let triplets: Vec<(usize, usize, f64)> =
                raw.iter().map(|&(r, c, v)| (r % rows, c % cols, f64::from(v))).collect();
            let mut b = CscBuilder::new(rows, cols);
            for &(r, c, v) in &triplets {
                b.push(r, c, v);
            }
            let built = b.build();
            proptest::prop_assert_eq!(built, build_by_sort(rows, cols, triplets));
        }
    }

    #[test]
    fn out_of_order_rows_and_duplicates_compress() {
        let mut b = CscBuilder::new(3, 2);
        b.push(2, 1, 1.0);
        b.push(0, 1, 2.0);
        b.push(2, 1, 4.0);
        b.push(1, 0, 8.0);
        let m = b.build();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.column(1).collect::<Vec<_>>(), vec![(0, 2.0), (2, 5.0)]);
        assert_eq!(m.column(0).collect::<Vec<_>>(), vec![(1, 8.0)]);
    }

    #[test]
    #[should_panic(expected = "triplet out of range")]
    fn out_of_range_panics() {
        let mut b = CscBuilder::new(1, 1);
        b.push(1, 0, 1.0);
    }
}
