//! A dense, row-major `f64` matrix.
//!
//! [`Matrix`] is the workhorse type shared by the Transformer (activations,
//! weights) and the statistics layer (embedding samples, covariance
//! matrices). It is deliberately minimal: fixed shape, row-major storage,
//! and the handful of operations Observatory needs.

use crate::vector;

/// A dense row-major matrix of `f64` values with fixed shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zeros matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: buffer/shape mismatch");
        Self { rows, cols, data }
    }

    /// Build a matrix whose rows are the given equal-length vectors.
    ///
    /// # Panics
    /// Panics if `rows` is empty or the rows disagree on length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "from_rows: empty input");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrow row `i` mutably.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterate over all rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// Copy column `j` out as a vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col: index out of bounds");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix product `self * other`.
    ///
    /// Iterates in `i, k, j` order so the inner loop is a contiguous
    /// AXPY over the output row — this vectorizes well and is the layout
    /// recommended for row-major data.
    ///
    /// Rows of `self` with `a == 0.0` entries skip their AXPY **only**
    /// when the corresponding row of `other` is entirely finite: IEEE-754
    /// defines `0 × ±∞` and `0 × NaN` as NaN, so an unconditional skip
    /// would silently swallow non-finite values flowing in from `other`
    /// and report a clean product where the true result is poisoned.
    /// The encoder kernels ([`crate::kernels::linear_bias`]) have no skip
    /// at all.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul: inner dimension mismatch");
        // One O(k·m) pass so the O(n·k·m) loop can keep its branch-
        // predictable sparse fast path without losing NaN/∞ propagation.
        let row_finite: Vec<bool> =
            (0..other.rows).map(|k| other.row(k).iter().all(|b| b.is_finite())).collect();
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 && row_finite[k] {
                    continue;
                }
                let b_row = other.row(k);
                let o_row = out.row_mut(i);
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec: dimension mismatch");
        self.rows_iter().map(|r| vector::dot(r, v)).collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Elementwise sum `self + other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add: shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Elementwise `self += other`, allocation-free. Same result bits as
    /// [`Matrix::add`] (`a + b` per element, in order).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Consume the matrix, returning its flat row-major buffer (so the
    /// workspace pool can recycle the capacity of intermediates).
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Scale every element by `s`, in place.
    pub fn scale_assign(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Mean of the rows (a `cols`-length vector).
    ///
    /// # Panics
    /// Panics if the matrix has no rows.
    pub fn row_mean(&self) -> Vec<f64> {
        assert!(self.rows > 0, "row_mean: empty matrix");
        vector::mean_of_rows(self.rows_iter())
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(0), vec![1.0, 4.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 0.0, 2.0, -1.0, 3.0, 1.0]);
        let v = [2.0, 1.0, 0.0];
        assert_eq!(a.matvec(&v), vec![2.0, 1.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn row_mean() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 3.0, 3.0, 5.0]);
        assert_eq!(a.row_mean(), vec![2.0, 4.0]);
    }

    #[test]
    fn from_rows_matches_from_vec() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a, Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
    }

    #[test]
    fn matmul_zero_times_nonfinite_propagates() {
        // Regression: the `a == 0.0` sparse skip used to suppress NaN/±∞
        // flowing in from `other` (IEEE-754: 0 × ∞ = NaN). A zero in A
        // meeting a non-finite row of B must still poison the output.
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 2.0, 0.0]);
        let b = Matrix::from_vec(2, 2, vec![f64::INFINITY, 5.0, 6.0, f64::NAN]);
        let c = a.matmul(&b);
        assert!(c[(0, 0)].is_nan(), "0×∞ + 1×6 must be NaN, got {}", c[(0, 0)]);
        assert!(c[(0, 1)].is_nan(), "0×5 + 1×NaN must be NaN, got {}", c[(0, 1)]);
        assert!(c[(1, 0)].is_infinite(), "2×∞ + 0×6 must be ∞, got {}", c[(1, 0)]);
        assert!(c[(1, 1)].is_nan(), "2×5 + 0×NaN must be NaN, got {}", c[(1, 1)]);
    }

    #[test]
    fn matmul_zero_skip_still_fast_path_on_finite_rows() {
        // The sparse skip survives for finite B: a fully-zero A row gives
        // an exactly-zero output row, not an accumulation of -0.0 noise.
        let a = Matrix::from_vec(2, 2, vec![0.0, 0.0, 1.0, 1.0]);
        let b = Matrix::from_vec(2, 2, vec![-1.0, 2.0, 3.0, -4.0]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[0.0, 0.0]);
        assert_eq!(c.row(1), &[2.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }
}
