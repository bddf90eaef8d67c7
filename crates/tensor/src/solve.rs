//! Symmetric positive-definite solvers used by the ESZSL baseline.
//!
//! ESZSL's closed-form solution requires products of the form
//! `(X Xᵀ + γ I)⁻¹ X S Yᵀ`; we implement the inverse application through a
//! Cholesky factorisation with multiple right-hand sides.

use crate::Matrix;

/// Error returned when a Cholesky factorisation fails because the input is
/// not (numerically) symmetric positive definite.
#[derive(Debug, Clone, PartialEq)]
pub struct CholeskyError {
    /// Index of the pivot at which the factorisation broke down.
    pub pivot: usize,
    /// Value of the failing diagonal entry.
    pub diagonal: f32,
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite: pivot {} has diagonal {}",
            self.pivot, self.diagonal
        )
    }
}

impl std::error::Error for CholeskyError {}

/// Computes the lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// # Errors
///
/// Returns [`CholeskyError`] if `a` is not numerically positive definite.
///
/// # Panics
///
/// Panics if `a` is not square.
fn cholesky(a: &Matrix) -> Result<Matrix, CholeskyError> {
    assert_eq!(a.rows(), a.cols(), "cholesky requires a square matrix");
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j);
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(CholeskyError {
                        pivot: i,
                        diagonal: sum,
                    });
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Ok(l)
}

/// Solves `A X = B` for symmetric positive definite `A` using Cholesky,
/// where `B` may have multiple columns.
///
/// # Errors
///
/// Returns [`CholeskyError`] if `a` is not numerically positive definite.
///
/// # Panics
///
/// Panics if `a` is not square or `a.rows() != b.rows()`.
pub fn cholesky_solve(a: &Matrix, b: &Matrix) -> Result<Matrix, CholeskyError> {
    assert_eq!(
        a.rows(),
        a.cols(),
        "cholesky_solve requires a square matrix"
    );
    assert_eq!(
        a.rows(),
        b.rows(),
        "right-hand side rows ({}) must match matrix size ({})",
        b.rows(),
        a.rows()
    );
    let l = cholesky(a)?;
    let n = a.rows();
    let m = b.cols();
    // Forward substitution: L Y = B.
    let mut y = Matrix::zeros(n, m);
    for i in 0..n {
        for c in 0..m {
            let mut sum = b.get(i, c);
            for k in 0..i {
                sum -= l.get(i, k) * y.get(k, c);
            }
            y.set(i, c, sum / l.get(i, i));
        }
    }
    // Backward substitution: Lᵀ X = Y.
    let mut x = Matrix::zeros(n, m);
    for i in (0..n).rev() {
        for c in 0..m {
            let mut sum = y.get(i, c);
            for k in (i + 1)..n {
                sum -= l.get(k, i) * x.get(k, c);
            }
            x.set(i, c, sum / l.get(i, i));
        }
    }
    Ok(x)
}

/// Solves the ridge system `(A + γ I) X = B`.
///
/// This is the building block of the ESZSL closed-form solution; `γ > 0`
/// guarantees positive definiteness whenever `A` is positive semi-definite
/// (e.g. a Gram matrix `X Xᵀ`).
///
/// # Errors
///
/// Returns [`CholeskyError`] if the regularised matrix is still not
/// numerically positive definite (e.g. `γ` too small or `A` indefinite).
///
/// # Panics
///
/// Panics if `a` is not square or `a.rows() != b.rows()`.
pub fn ridge_solve(a: &Matrix, b: &Matrix, gamma: f32) -> Result<Matrix, CholeskyError> {
    assert_eq!(a.rows(), a.cols(), "ridge_solve requires a square matrix");
    let mut reg = a.clone();
    for i in 0..a.rows() {
        reg.set(i, i, reg.get(i, i) + gamma);
    }
    cholesky_solve(&reg, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spd_matrix(n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Matrix::random_uniform(n, n, 1.0, &mut rng);
        // X Xᵀ + n·I is symmetric positive definite.
        let mut a = x.matmul_nt(&x);
        for i in 0..n {
            a.set(i, i, a.get(i, i) + n as f32);
        }
        a
    }

    #[test]
    fn cholesky_reconstructs_input() {
        let a = spd_matrix(6, 11);
        let l = cholesky(&a).expect("SPD input");
        let reconstructed = l.matmul_nt(&l);
        assert!(a.max_abs_diff(&reconstructed) < 1e-3);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(cholesky(&a).is_err());
    }

    #[test]
    fn cholesky_solve_identity() {
        let i = Matrix::identity(4);
        let b = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
            vec![7.0, 8.0],
        ]);
        let x = cholesky_solve(&i, &b).expect("identity is SPD");
        assert!(x.max_abs_diff(&b) < 1e-6);
    }

    #[test]
    fn cholesky_solve_roundtrip() {
        let a = spd_matrix(8, 12);
        let mut rng = StdRng::seed_from_u64(13);
        let x_true = Matrix::random_uniform(8, 3, 1.0, &mut rng);
        let b = a.matmul(&x_true);
        let x = cholesky_solve(&a, &b).expect("SPD");
        assert!(x.max_abs_diff(&x_true) < 1e-2);
    }

    #[test]
    fn ridge_solve_regularises_singular_gram() {
        // Rank-deficient Gram matrix: single row repeated.
        let x = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let gram = x.matmul_nt(&x); // rank 1, singular up to rounding
        let b = Matrix::identity(2);
        let solved = ridge_solve(&gram, &b, 0.5).expect("ridge fixes singularity");
        assert_eq!(solved.shape(), (2, 2));
        // The regularised system must be well conditioned: (G + γI)·X ≈ I.
        let mut reg = gram.clone();
        for i in 0..2 {
            reg.set(i, i, reg.get(i, i) + 0.5);
        }
        assert!(reg.matmul(&solved).max_abs_diff(&b) < 1e-4);
    }

    #[test]
    fn ridge_solve_gamma_zero_equals_plain_solve() {
        let a = spd_matrix(5, 14);
        let b = Matrix::identity(5);
        let plain = cholesky_solve(&a, &b).expect("SPD");
        let ridge = ridge_solve(&a, &b, 0.0).expect("SPD");
        assert!(plain.max_abs_diff(&ridge) < 1e-6);
    }

    #[test]
    fn cholesky_error_display() {
        let err = CholeskyError {
            pivot: 3,
            diagonal: -0.5,
        };
        assert!(err.to_string().contains("pivot 3"));
    }
}
