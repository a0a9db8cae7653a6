//! Small dense linear algebra.
//!
//! The Kalman filter in `mic-statespace` works with state dimensions in the
//! 2–16 range, so a simple row-major `Vec<f64>` matrix with straightforward
//! O(n³) kernels is both adequate and cache-friendly at this size. The type
//! is deliberately minimal: only the operations the filter and ARIMA
//! initialisation need. The state smoother (Durbin–Koopman fixed-interval,
//! §4.4) needs no inversion, so there is no factorisation here; `solve`
//! serves ARIMA's Lyapunov equation and the test oracles.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul};

/// Dense row-major matrix of `f64`.
#[derive(Clone, Default, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:>12.6} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl Mat {
    /// Reshape to an all-zero `rows × cols` matrix in place, reusing the
    /// existing allocation whenever its capacity suffices. Shrinking and
    /// re-growing within the previously seen maximum size therefore never
    /// touches the allocator — the basis of the workspace reuse in
    /// `mic-statespace`, where 12- and 13-state models alternate inside one
    /// change-point search.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Diagonal matrix from a slice.
    pub fn diag(values: &[f64]) -> Self {
        let n = values.len();
        let mut m = Mat::zeros(n, n);
        for (i, &v) in values.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Build from nested rows; panics if the rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Mat::from_rows");
            data.extend_from_slice(row);
        }
        Mat {
            rows: r,
            cols: c,
            data,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * out.cols + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// `self * v` for a vector `v` (len = cols), returning a fresh Vec.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "dim mismatch in mul_vec");
        let mut out = vec![0.0; self.rows];
        for (r, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (k, &vk) in v.iter().enumerate() {
                acc += self.data[r * self.cols + k] * vk;
            }
            *o = acc;
        }
        out
    }

    /// Copy another matrix's contents into this one (shapes must match).
    pub fn copy_from(&mut self, other: &Mat) {
        assert_eq!(self.rows, other.rows, "dim mismatch in copy_from");
        assert_eq!(self.cols, other.cols, "dim mismatch in copy_from");
        self.data.copy_from_slice(&other.data);
    }

    /// Symmetrise in place: `A = (A + Aᵀ)/2`. Keeps covariance matrices
    /// numerically symmetric through repeated Kalman updates.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols);
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                let m = 0.5 * (self[(r, c)] + self[(c, r)]);
                self[(r, c)] = m;
                self[(c, r)] = m;
            }
        }
    }

    /// Quadratic form `zᵀ A z` for a vector `z` (A must be square, len = n).
    pub fn quad_form(&self, z: &[f64]) -> f64 {
        assert_eq!(self.rows, self.cols);
        assert_eq!(z.len(), self.rows);
        let mut acc = 0.0;
        for (r, &zr) in z.iter().enumerate() {
            let mut inner = 0.0;
            for (c, &zc) in z.iter().enumerate() {
                inner += self.data[r * self.cols + c] * zc;
            }
            acc += zr * inner;
        }
        acc
    }

    /// Solve the general square system `A x = b` by Gaussian elimination
    /// with partial pivoting. Returns `None` when `A` is (numerically)
    /// singular. Used for the Lyapunov equation behind ARIMA's stationary
    /// initial state covariance.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        let n = self.rows;
        assert_eq!(b.len(), n);
        // Augmented working copy.
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivot.
            let mut pivot = col;
            let mut best = a[col * n + col].abs();
            for row in (col + 1)..n {
                let v = a[row * n + col].abs();
                if v > best {
                    best = v;
                    pivot = row;
                }
            }
            if best < 1e-13 {
                return None;
            }
            if pivot != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot * n + k);
                }
                x.swap(col, pivot);
            }
            let diag = a[col * n + col];
            for row in (col + 1)..n {
                let factor = a[row * n + col] / diag;
                if factor == 0.0 {
                    continue;
                }
                for k in col..n {
                    a[row * n + k] -= factor * a[col * n + k];
                }
                x[row] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = x[col];
            for k in (col + 1)..n {
                sum -= a[col * n + k] * x[k];
            }
            x[col] = sum / a[col * n + col];
        }
        Some(x)
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Mul<&Mat> for &Mat {
    type Output = Mat;
    fn mul(self, rhs: &Mat) -> Mat {
        assert_eq!(self.cols, rhs.rows, "dim mismatch in mul");
        let mut out = Mat::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for c in 0..rhs.cols {
                let mut acc = 0.0;
                for k in 0..self.cols {
                    acc += self.data[r * self.cols + k] * rhs.data[k * rhs.cols + c];
                }
                out.data[r * rhs.cols + c] = acc;
            }
        }
        out
    }
}

impl Add<&Mat> for &Mat {
    type Output = Mat;
    fn add(self, rhs: &Mat) -> Mat {
        assert_eq!(self.rows, rhs.rows);
        assert_eq!(self.cols, rhs.cols);
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Mat::identity(2);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
    }

    #[test]
    fn matmul_known() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Mat::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = &a * &b;
        assert_eq!(c, Mat::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn mul_vec_matches_matmul() {
        let a = Mat::from_rows(&[vec![1.0, -1.0], vec![2.0, 0.5]]);
        let v = [3.0, 4.0];
        let got = a.mul_vec(&v);
        assert_eq!(got, vec![-1.0, 8.0]);
    }

    #[test]
    fn copy_from_replaces_contents() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut b = Mat::zeros(2, 2);
        b.copy_from(&a);
        assert_eq!(b, a);
    }

    #[test]
    fn solve_general_system() {
        let a = Mat::from_rows(&[
            vec![0.0, 2.0, 1.0],
            vec![1.0, -1.0, 0.0],
            vec![3.0, 0.0, -2.0],
        ]);
        let x_true = [1.5, -2.0, 0.5];
        let b = a.mul_vec(&x_true);
        let x = a.solve(&b).expect("non-singular");
        for i in 0..3 {
            assert!((x[i] - x_true[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_rejects_singular() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn solve_needs_pivoting() {
        // Leading zero forces a row swap.
        let a = Mat::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(&[5.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 5.0]);
    }

    #[test]
    fn quad_form_known() {
        let a = Mat::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        // [1,2] A [1,2]^T = 2 + 2 + 2 + 12 = 18.
        assert_eq!(a.quad_form(&[1.0, 2.0]), 18.0);
    }

    #[test]
    fn symmetrize_fixes_asymmetry() {
        let mut a = Mat::from_rows(&[vec![1.0, 2.0], vec![4.0, 1.0]]);
        a.symmetrize();
        assert_eq!(a[(0, 1)], 3.0);
        assert_eq!(a[(1, 0)], 3.0);
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn mismatched_mul_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = &a * &b;
    }
}
