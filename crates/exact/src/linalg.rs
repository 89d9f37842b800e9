//! Exact linear algebra over [`Rational`]: products, determinants and
//! Gauss–Jordan elimination.
//!
//! The P1 verifier of the paper (§4, Lemma 1) reconstructs an equilibrium
//! by solving the indifference linear system induced by the claimed
//! supports. This module only *generates* that witness: the checker
//! re-evaluates every payoff against it, so a wrong solution here can make
//! the checker reject, never accept. It is therefore outside the trusted
//! base, and so is `ra-solvers`' support enumeration, which calls the same
//! solver.

use crate::matrix::Matrix;
use crate::rational::Rational;

impl Matrix {
    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[Rational]) -> Vec<Rational> {
        assert_eq!(v.len(), self.cols(), "dimension mismatch in mul_vec");
        (0..self.rows())
            .map(|i| {
                let mut acc = Rational::zero();
                for j in 0..self.cols() {
                    acc += &(&self[(i, j)] * &v[j]);
                }
                acc
            })
            .collect()
    }

    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn mul_mat(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols(), rhs.rows(), "dimension mismatch in mul_mat");
        Matrix::from_fn(self.rows(), rhs.cols(), |i, j| {
            let mut acc = Rational::zero();
            for k in 0..self.cols() {
                acc += &(&self[(i, k)] * &rhs[(k, j)]);
            }
            acc
        })
    }

    /// Determinant by fraction-preserving Gaussian elimination.
    ///
    /// # Examples
    ///
    /// ```
    /// use ra_exact::{Matrix, rat};
    ///
    /// let m = Matrix::from_rows(vec![
    ///     vec![rat(1, 1), rat(2, 1)],
    ///     vec![rat(3, 1), rat(4, 1)],
    /// ]);
    /// assert_eq!(m.determinant(), rat(-2, 1));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn determinant(&self) -> Rational {
        assert_eq!(self.rows(), self.cols(), "determinant of non-square matrix");
        let mut m = self.clone();
        let n = m.rows();
        let mut det = Rational::one();
        for col in 0..n {
            let pivot = match (col..n).find(|&r| !m[(r, col)].is_zero()) {
                Some(p) => p,
                None => return Rational::zero(),
            };
            if pivot != col {
                m.swap_rows(pivot, col);
                det = -det;
            }
            let p = m[(col, col)].clone();
            det = &det * &p;
            for r in col + 1..n {
                let factor = &m[(r, col)] / &p;
                if factor.is_zero() {
                    continue;
                }
                for c in col..n {
                    let sub = &factor * &m[(col, c)];
                    let cur = m[(r, c)].clone();
                    m[(r, c)] = &cur - &sub;
                }
            }
        }
        det
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let cols = self.cols();
        for c in 0..cols {
            self.data.swap(a * cols + c, b * cols + c);
        }
    }
}

/// Outcome of solving a linear system `A x = b` exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinearSolution {
    /// Exactly one solution.
    Unique(Vec<Rational>),
    /// Infinitely many solutions; one particular solution is given together
    /// with the system's rank.
    Underdetermined {
        /// A particular solution (free variables set to zero).
        particular: Vec<Rational>,
        /// Rank of the coefficient matrix.
        rank: usize,
    },
    /// No solution exists.
    Inconsistent,
}

impl LinearSolution {
    /// Returns the unique solution if there is one.
    pub fn unique(self) -> Option<Vec<Rational>> {
        match self {
            LinearSolution::Unique(x) => Some(x),
            _ => None,
        }
    }
}

/// Solves `A x = b` over the rationals via Gauss–Jordan elimination.
///
/// Works for any shape of `A` (over- and under-determined systems included).
///
/// # Panics
///
/// Panics if `b.len() != a.rows()`.
///
/// # Examples
///
/// ```
/// use ra_exact::{solve_linear_system, LinearSolution, Matrix, rat};
///
/// let a = Matrix::from_rows(vec![
///     vec![rat(2, 1), rat(1, 1)],
///     vec![rat(1, 1), rat(-1, 1)],
/// ]);
/// let sol = solve_linear_system(&a, &[rat(3, 1), rat(0, 1)]);
/// assert_eq!(sol, LinearSolution::Unique(vec![rat(1, 1), rat(1, 1)]));
/// ```
pub fn solve_linear_system(a: &Matrix, b: &[Rational]) -> LinearSolution {
    assert_eq!(b.len(), a.rows(), "rhs length must equal row count");
    let rows = a.rows();
    let cols = a.cols();
    // Augmented matrix [A | b].
    let mut m = Matrix::from_fn(rows, cols + 1, |i, j| {
        if j < cols {
            a[(i, j)].clone()
        } else {
            b[i].clone()
        }
    });
    let mut pivot_cols = Vec::new();
    let mut row = 0;
    for col in 0..cols {
        let pivot = match (row..rows).find(|&r| !m[(r, col)].is_zero()) {
            Some(p) => p,
            None => continue,
        };
        m.swap_rows(pivot, row);
        let p = m[(row, col)].clone();
        for c in col..=cols {
            let cur = m[(row, c)].clone();
            m[(row, c)] = &cur / &p;
        }
        for r in 0..rows {
            if r == row || m[(r, col)].is_zero() {
                continue;
            }
            let factor = m[(r, col)].clone();
            for c in col..=cols {
                let sub = &factor * &m[(row, c)];
                let cur = m[(r, c)].clone();
                m[(r, c)] = &cur - &sub;
            }
        }
        pivot_cols.push(col);
        row += 1;
        if row == rows {
            break;
        }
    }
    let rank = pivot_cols.len();
    // Inconsistent if any zero row has non-zero rhs.
    for r in rank..rows {
        if !m[(r, cols)].is_zero() {
            return LinearSolution::Inconsistent;
        }
    }
    let mut x = vec![Rational::zero(); cols];
    for (r, &c) in pivot_cols.iter().enumerate() {
        x[c] = m[(r, cols)].clone();
    }
    if rank == cols {
        LinearSolution::Unique(x)
    } else {
        LinearSolution::Underdetermined {
            particular: x,
            rank,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::rat;

    fn r(v: i64) -> Rational {
        Rational::from(v)
    }

    /// The `n × n` identity matrix.
    fn identity(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| r(i64::from(i == j)))
    }

    #[test]
    fn identity_and_mul() {
        let i3 = identity(3);
        let m = Matrix::from_fn(3, 3, |i, j| Rational::from(i * 3 + j));
        assert_eq!(i3.mul_mat(&m), m);
        assert_eq!(m.mul_mat(&i3), m);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn mul_vec_matches_by_hand() {
        let m = Matrix::from_rows(vec![vec![r(1), r(2)], vec![r(3), r(4)]]);
        assert_eq!(m.mul_vec(&[r(5), r(6)]), vec![r(17), r(39)]);
    }

    #[test]
    fn determinant_cases() {
        assert_eq!(identity(4).determinant(), r(1));
        let m = Matrix::from_rows(vec![vec![r(1), r(2)], vec![r(2), r(4)]]);
        assert_eq!(m.determinant(), r(0));
        let m = Matrix::from_rows(vec![
            vec![r(2), r(0), r(1)],
            vec![r(1), r(1), r(0)],
            vec![r(0), r(3), r(1)],
        ]);
        // det = 2*(1*1-0*3) - 0 + 1*(1*3-1*0) = 2 + 3 = 5
        assert_eq!(m.determinant(), r(5));
    }

    #[test]
    fn unique_solution() {
        let a = Matrix::from_rows(vec![
            vec![r(1), r(1), r(1)],
            vec![r(0), r(2), r(5)],
            vec![r(2), r(5), r(-1)],
        ]);
        let b = [r(6), r(-4), r(27)];
        let x = solve_linear_system(&a, &b).unique().expect("unique");
        assert_eq!(a.mul_vec(&x), b.to_vec());
        assert_eq!(x, vec![r(5), r(3), r(-2)]);
    }

    #[test]
    fn inconsistent_system() {
        let a = Matrix::from_rows(vec![vec![r(1), r(1)], vec![r(2), r(2)]]);
        assert_eq!(
            solve_linear_system(&a, &[r(1), r(3)]),
            LinearSolution::Inconsistent
        );
    }

    #[test]
    fn underdetermined_system() {
        let a = Matrix::from_rows(vec![vec![r(1), r(1)], vec![r(2), r(2)]]);
        match solve_linear_system(&a, &[r(1), r(2)]) {
            LinearSolution::Underdetermined { particular, rank } => {
                assert_eq!(rank, 1);
                assert_eq!(a.mul_vec(&particular), vec![r(1), r(2)]);
            }
            other => panic!("expected underdetermined, got {other:?}"),
        }
    }

    #[test]
    fn overdetermined_consistent() {
        // Three equations, two unknowns, consistent.
        let a = Matrix::from_rows(vec![vec![r(1), r(0)], vec![r(0), r(1)], vec![r(1), r(1)]]);
        let sol = solve_linear_system(&a, &[r(2), r(3), r(5)]);
        assert_eq!(sol, LinearSolution::Unique(vec![r(2), r(3)]));
    }

    #[test]
    fn fractional_pivots() {
        let a = Matrix::from_rows(vec![
            vec![rat(1, 2), rat(1, 3)],
            vec![rat(1, 4), rat(-1, 6)],
        ]);
        let b = [rat(5, 6), rat(1, 12)];
        let x = solve_linear_system(&a, &b).unique().expect("unique");
        assert_eq!(a.mul_vec(&x), b.to_vec());
    }

    #[test]
    #[should_panic(expected = "rhs length")]
    fn mismatched_rhs_panics() {
        let a = identity(2);
        let _ = solve_linear_system(&a, &[r(1)]);
    }
}
