//! Dense symmetric linear algebra: the reference kernel the sparse
//! Newton solve (`sparse`) is tested against.

// Indexed loops are the house style for the dense kernels below:
// every statement touches several rows/columns at once, where
// iterator chains obscure the math.
#![allow(clippy::needless_range_loop)]

/// A dense square matrix, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    a: Vec<f64>,
}

impl Matrix {
    /// The `n × n` zero matrix.
    pub fn zeros(n: usize) -> Matrix {
        Matrix {
            n,
            a: vec![0.0; n * n],
        }
    }

    /// Dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.a[i * self.n + j] = v;
    }

    /// In-place element update.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        self.a[i * self.n + j] += v;
    }

    /// Add `v` to the whole diagonal (ridge regularization).
    pub fn add_ridge(&mut self, v: f64) {
        for i in 0..self.n {
            self.a[i * self.n + i] += v;
        }
    }

    /// Matrix–vector product `A·x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0; self.n];
        for i in 0..self.n {
            let row = &self.a[i * self.n..(i + 1) * self.n];
            y[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// Cholesky factorization `A = L·Lᵀ` (lower triangular), in place.
    /// Returns `false` when the matrix is not (numerically) positive
    /// definite.
    pub fn cholesky_in_place(&mut self) -> bool {
        let n = self.n;
        for j in 0..n {
            let mut d = self.get(j, j);
            for k in 0..j {
                let l = self.get(j, k);
                d -= l * l;
            }
            if d <= 0.0 || !d.is_finite() {
                return false;
            }
            let d = d.sqrt();
            self.set(j, j, d);
            for i in (j + 1)..n {
                let mut v = self.get(i, j);
                for k in 0..j {
                    v -= self.get(i, k) * self.get(j, k);
                }
                self.set(i, j, v / d);
            }
        }
        // Zero the strict upper triangle so the factor is clean.
        for i in 0..n {
            for j in (i + 1)..n {
                self.set(i, j, 0.0);
            }
        }
        true
    }

    /// Solve `L·Lᵀ·x = b` given the Cholesky factor stored in `self`.
    pub fn cholesky_solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        assert_eq!(b.len(), n);
        // Forward: L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut v = b[i];
            for k in 0..i {
                v -= self.get(i, k) * y[k];
            }
            y[i] = v / self.get(i, i);
        }
        // Backward: Lᵀ x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut v = y[i];
            for k in (i + 1)..n {
                v -= self.get(k, i) * x[k];
            }
            x[i] = v / self.get(i, i);
        }
        x
    }

    /// Solve the SPD system `A·x = b`, adding an escalating ridge when
    /// the factorization fails (near-singular Hessians at the end of
    /// the central path). Returns `None` only if even a heavily
    /// regularized system fails, which indicates NaN/Inf input.
    pub fn solve_spd(mut self, b: &[f64]) -> Option<Vec<f64>> {
        let base: f64 = {
            // Scale the ridge with the largest diagonal entry.
            let mut m = 0.0f64;
            for i in 0..self.n {
                m = m.max(self.get(i, i).abs());
            }
            m.max(1.0)
        };
        let mut ridge = 0.0;
        for attempt in 0..8 {
            let mut trial = self.clone();
            if ridge > 0.0 {
                trial.add_ridge(ridge);
            }
            if trial.cholesky_in_place() {
                return Some(trial.cholesky_solve(b));
            }
            ridge = base * 1e-12 * 10f64.powi(attempt);
        }
        // Last resort: huge ridge.
        self.add_ridge(base);
        if self.cholesky_in_place() {
            Some(self.cholesky_solve(b))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Bᵀ B + I for B = [[1,2,0],[0,1,1],[1,0,1]] is SPD.
        let b = [[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]];
        let mut a = Matrix::zeros(3);
        for i in 0..3 {
            for j in 0..3 {
                let mut v = if i == j { 1.0 } else { 0.0 };
                for k in 0..3 {
                    v += b[k][i] * b[k][j];
                }
                a.set(i, j, v);
            }
        }
        a
    }

    #[test]
    fn cholesky_roundtrip() {
        let a = spd3();
        let x_true = vec![1.0, -2.0, 3.0];
        let b = a.matvec(&x_true);
        let mut f = a.clone();
        assert!(f.cholesky_in_place());
        let x = f.cholesky_solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10, "{x:?}");
        }
    }

    #[test]
    fn non_spd_detected() {
        let mut m = Matrix::zeros(2);
        m.set(0, 0, 1.0);
        m.set(1, 1, -1.0);
        assert!(!m.cholesky_in_place());
    }

    #[test]
    fn solve_spd_with_ridge_fallback() {
        // Singular PSD matrix: ones(2). Ridge makes it solvable.
        let mut m = Matrix::zeros(2);
        for i in 0..2 {
            for j in 0..2 {
                m.set(i, j, 1.0);
            }
        }
        let x = m.solve_spd(&[1.0, 1.0]).expect("regularized solve");
        // Solution of (ones + εI)x = 1 is x ≈ [0.5, 0.5].
        assert!((x[0] - 0.5).abs() < 1e-3 && (x[1] - 0.5).abs() < 1e-3);
    }

    #[test]
    fn matvec_identity() {
        let mut m = Matrix::zeros(3);
        for i in 0..3 {
            m.set(i, i, 1.0);
        }
        assert_eq!(m.matvec(&[4.0, 5.0, 6.0]), vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn add_accumulates() {
        let mut m = Matrix::zeros(2);
        m.add(0, 1, 2.0);
        m.add(0, 1, 3.0);
        assert_eq!(m.get(0, 1), 5.0);
        m.add_ridge(1.0);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 1), 1.0);
    }
}
