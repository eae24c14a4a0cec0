//! Dense row-major matrices and the small linear-algebra kernel set the
//! analytics methods need.

use serde::{Deserialize, Serialize};

/// A dense row-major `f64` matrix.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// A `rows × cols` zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from nested rows.
    ///
    /// # Panics
    ///
    /// Panics on empty or ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix needs at least one column");
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "ragged rows are not a matrix"
        );
        Mat {
            rows: rows.len(),
            cols,
            data: rows.iter().flatten().copied().collect(),
        }
    }

    /// Fills a matrix from a generator function `(row, col) -> value`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Mat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    ///
    /// # Panics
    ///
    /// Panics out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// A row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Mat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.data[k * other.cols + j];
                }
            }
        }
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Scales every element in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Mat) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self -= s * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub_scaled(&mut self, other: &Mat, s: f64) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= s * b;
        }
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Fills with i.i.d. uniform values in `[-scale, scale]`.
    pub fn randomize<R: rand::Rng + ?Sized>(&mut self, rng: &mut R, scale: f64) {
        for v in &mut self.data {
            *v = rng.gen_range(-scale..scale);
        }
    }
}

/// Solves the linear system `A x = b` for square `A` by Gaussian
/// elimination with partial pivoting.
///
/// # Errors
///
/// Returns `None` when `A` is (numerically) singular.
///
/// # Panics
///
/// Panics if `A` is not square or `b` has the wrong length.
#[allow(clippy::needless_range_loop)] // Gaussian elimination is clearest indexed
pub fn solve(a: &Mat, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "solve requires a square matrix");
    assert_eq!(b.len(), n, "rhs length must match");
    // Augmented matrix.
    let mut aug = vec![vec![0.0f64; n + 1]; n];
    for i in 0..n {
        for j in 0..n {
            aug[i][j] = a.get(i, j);
        }
        aug[i][n] = b[i];
    }
    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n).max_by(|&x, &y| {
            aug[x][col]
                .abs()
                .partial_cmp(&aug[y][col].abs())
                .expect("finite")
        })?;
        if aug[pivot][col].abs() < 1e-12 {
            return None;
        }
        aug.swap(col, pivot);
        let p = aug[col][col];
        for j in col..=n {
            aug[col][j] /= p;
        }
        for i in 0..n {
            if i != col && aug[i][col] != 0.0 {
                let factor = aug[i][col];
                for j in col..=n {
                    aug[i][j] -= factor * aug[col][j];
                }
            }
        }
    }
    Some((0..n).map(|i| aug[i][n]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matmul_known() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Mat::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Mat::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn solve_identity() {
        let a = Mat::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert_eq!(solve(&a, &[3.0, 4.0]).unwrap(), vec![3.0, 4.0]);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x - y = 1  →  x = 2, y = 1
        let a = Mat::from_rows(&[vec![2.0, 1.0], vec![1.0, -1.0]]);
        let x = solve(&a, &[5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn singular_system_returns_none() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(solve(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn frobenius_norm() {
        let a = Mat::from_rows(&[vec![3.0, 4.0]]);
        assert!((a.frobenius() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn add_and_sub_scaled() {
        let mut a = Mat::from_rows(&[vec![1.0, 2.0]]);
        let b = Mat::from_rows(&[vec![10.0, 20.0]]);
        a.add_assign(&b);
        assert_eq!(a.row(0), &[11.0, 22.0]);
        a.sub_scaled(&b, 0.5);
        assert_eq!(a.row(0), &[6.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_matmul_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Mat::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn solve_recovers_solution(
            seed in 0u64..1000,
            n in 2usize..6,
        ) {
            let mut rng = hc_common::rng::seeded(seed);
            let mut a = Mat::zeros(n, n);
            a.randomize(&mut rng, 1.0);
            // Make it diagonally dominant → nonsingular.
            for i in 0..n {
                let v = a.get(i, i);
                a.set(i, i, v + n as f64 + 1.0);
            }
            let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 1.5).collect();
            let b: Vec<f64> = (0..n)
                .map(|i| (0..n).map(|j| a.get(i, j) * x_true[j]).sum())
                .collect();
            let x = solve(&a, &b).unwrap();
            for (xs, xt) in x.iter().zip(&x_true) {
                prop_assert!((xs - xt).abs() < 1e-6);
            }
        }

        #[test]
        fn transpose_preserves_frobenius(seed in 0u64..100) {
            let mut rng = hc_common::rng::seeded(seed);
            let mut a = Mat::zeros(4, 7);
            a.randomize(&mut rng, 2.0);
            prop_assert!((a.frobenius() - a.transpose().frobenius()).abs() < 1e-9);
        }
    }
}
