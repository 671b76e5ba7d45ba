//! Dense row-major matrix type.

use crate::error::{LinalgError, Result};
use crate::vecops;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major matrix of `f64` values.
///
/// The storage layout is a single `Vec<f64>` of length `rows * cols`, with
/// element `(i, j)` at offset `i * cols + j`. Row-major layout keeps
/// row slices contiguous, which is what the covariance and quadratic-form
/// kernels in the Qcluster engine iterate over.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a square diagonal matrix with `diag` on the main diagonal.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * n + i] = d;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "at least one row required");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
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

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i * self.cols + j]
    }

    /// Sets element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i * self.cols + j] = v;
    }

    /// Returns row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns row `i` as a mutable contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn column(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index out of bounds");
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Returns the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix and returns the flat row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Matrix–matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order: streams over contiguous rows of `other` and `out`.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let crow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (c, &o) in crow.iter_mut().zip(orow.iter()) {
                    *c += a * o;
                }
            }
        }
        out
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec shape mismatch");
        (0..self.rows)
            .map(|i| vecops::dot(self.row(i), x))
            .collect()
    }

    /// Transposed matrix–vector product `selfᵀ * x`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.rows()`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t shape mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i).iter()) {
                *o += xi * a;
            }
        }
        out
    }

    /// Returns `self * scalar` as a new matrix.
    pub fn scale(&self, scalar: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * scalar).collect(),
        }
    }

    /// In-place `self += other * scalar`; the shapes must match.
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ.
    pub fn add_assign_scaled(&mut self, other: &Matrix, scalar: f64) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch in add_assign_scaled"
        );
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b * scalar;
        }
    }

    /// Sum of the main diagonal.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self.data[i * self.cols + i]).sum()
    }

    /// Copies the main diagonal into a vector.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square.
    pub fn diagonal(&self) -> Vec<f64> {
        assert!(self.is_square(), "diagonal requires a square matrix");
        (0..self.rows)
            .map(|i| self.data[i * self.cols + i])
            .collect()
    }

    /// `true` when `|a_ij - a_ji| <= tol` for all pairs.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Adds `lambda` to every diagonal element (ridge regularization).
    ///
    /// The paper (Sec. 3.2) notes that when the number of relevant images is
    /// smaller than the feature dimension, the sample covariance is singular
    /// and "regularization terms should be added on the diagonal of the
    /// covariance matrix before the inversion".
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square.
    pub fn regularize(&mut self, lambda: f64) {
        assert!(self.is_square(), "regularize requires a square matrix");
        for i in 0..self.rows {
            self.data[i * self.cols + i] += lambda;
        }
    }

    /// The outer product `x * yᵀ` as a `len(x) × len(y)` matrix.
    pub fn outer(x: &[f64], y: &[f64]) -> Matrix {
        let mut m = Matrix::zeros(x.len(), y.len());
        for (i, &xi) in x.iter().enumerate() {
            for (j, &yj) in y.iter().enumerate() {
                m.data[i * y.len() + j] = xi * yj;
            }
        }
        m
    }

    /// Inverse via LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] when the matrix is numerically
    /// singular and [`LinalgError::DimensionMismatch`] when not square.
    pub fn inverse(&self) -> Result<Matrix> {
        if !self.is_square() {
            return Err(LinalgError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", self.rows, self.cols),
            });
        }
        crate::lu::Lu::decompose(self)?.inverse()
    }

    /// Determinant via LU decomposition.
    ///
    /// Returns `0.0` for singular matrices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when not square.
    pub fn determinant(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", self.rows, self.cols),
            });
        }
        match crate::lu::Lu::decompose(self) {
            Ok(lu) => Ok(lu.determinant()),
            Err(LinalgError::Singular) => Ok(0.0),
            Err(e) => Err(e),
        }
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Matrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.trace(), 3.0);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zeros_rejects_empty() {
        let _ = Matrix::zeros(0, 3);
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.column(0), vec![1.0, 3.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, -2.5], &[0.25, 4.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn matvec_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
        assert_eq!(a.matvec_t(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn outer_product() {
        let m = Matrix::outer(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 10.0);
    }

    #[test]
    fn symmetric_detection() {
        let s = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        assert!(s.is_symmetric(0.0));
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 2.0]]);
        assert!(!a.is_symmetric(1e-12));
        let r = Matrix::zeros(2, 3);
        assert!(!r.is_symmetric(1.0));
    }

    #[test]
    fn regularize_adds_to_diagonal() {
        let mut m = Matrix::zeros(2, 2);
        m.regularize(0.5);
        assert_eq!(m.diagonal(), vec![0.5, 0.5]);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn determinant_of_singular_is_zero() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(m.determinant().unwrap(), 0.0);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::identity(2);
        let sum = &a + &b;
        assert_eq!(sum.get(0, 0), 2.0);
        let diff = &sum - &b;
        assert_eq!(diff, a);
        let scaled = &a * 2.0;
        assert_eq!(scaled.get(1, 1), 8.0);
    }

    #[test]
    fn from_diagonal_layout() {
        let m = Matrix::from_diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(m.trace(), 6.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 2), 3.0);
    }
}
