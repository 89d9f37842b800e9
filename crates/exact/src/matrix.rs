//! Dense matrices over [`Rational`].
//!
//! A [`Matrix`] holds a bimatrix game's payoffs, so this file is part of
//! the trusted base. Elimination over matrices lives in `linalg.rs`, which
//! only generates witnesses that the checkers re-verify.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::rational::Rational;

/// A dense matrix of [`Rational`] entries in row-major order.
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
/// assert_eq!(m[(1, 0)], rat(3, 1));
/// assert_eq!(m.transpose()[(0, 1)], rat(3, 1));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    /// Crate-visible so that `linalg.rs` can swap rows in place.
    pub(crate) data: Vec<Rational>,
}

impl Matrix {
    /// Builds a matrix from rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: Vec<Vec<Rational>>) -> Matrix {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged matrix rows");
        Matrix {
            rows: r,
            cols: c,
            data: rows.into_iter().flatten().collect(),
        }
    }

    /// Builds a matrix by evaluating `f(row, col)`.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> Rational,
    ) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].clone())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = Rational;
    fn index(&self, (r, c): (usize, usize)) -> &Rational {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Rational {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}
