//! Exact linear programming (simplex with Bland's rule).
//!
//! A simplex solver over exact rationals, used by [`crate::solve_zero_sum`]
//! for zero-sum game values. No checker runs it, so it is outside the
//! trusted base like the rest of this crate. Bland's pivoting rule
//! guarantees termination despite degeneracy — important because
//! game-derived LPs tie constantly.

use ra_exact::{Matrix, Rational};

/// Result of solving a standard-form LP.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum LpResult {
    /// An optimal solution exists.
    Optimal {
        /// The maximizing assignment.
        x: Vec<Rational>,
        /// The optimal objective value.
        value: Rational,
    },
    /// The objective is unbounded above on the feasible region.
    Unbounded,
}

/// Errors from the exact simplex behind [`crate::solve_zero_sum`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpError {
    /// Dimensions of objective/constraints/rhs disagree.
    DimensionMismatch {
        /// Description of the mismatch.
        detail: String,
    },
    /// Some right-hand side is negative (the slack basis would be
    /// infeasible; this solver is single-phase by design — callers shift
    /// their problems, as the zero-sum reduction does).
    NegativeRhs {
        /// Index of the offending constraint.
        row: usize,
    },
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::DimensionMismatch { detail } => write!(f, "dimension mismatch: {detail}"),
            LpError::NegativeRhs { row } => {
                write!(
                    f,
                    "negative rhs in constraint {row}: shift the problem first"
                )
            }
        }
    }
}

impl std::error::Error for LpError {}

/// Maximizes `objective · x` subject to `constraints · x ≤ rhs`, `x ≥ 0`,
/// with `rhs ≥ 0` (so the all-slack basis is feasible — single-phase).
///
/// Exact arithmetic throughout; Bland's rule prevents cycling, so
/// termination is guaranteed.
///
/// # Errors
///
/// See [`LpError`].
pub(crate) fn maximize(
    objective: &[Rational],
    constraints: &Matrix,
    rhs: &[Rational],
) -> Result<LpResult, LpError> {
    let n = objective.len();
    let m = constraints.rows();
    if constraints.cols() != n {
        return Err(LpError::DimensionMismatch {
            detail: format!(
                "{} objective vars vs {} constraint columns",
                n,
                constraints.cols()
            ),
        });
    }
    if rhs.len() != m {
        return Err(LpError::DimensionMismatch {
            detail: format!("{m} constraints vs {} rhs entries", rhs.len()),
        });
    }
    if let Some(row) = rhs.iter().position(Rational::is_negative) {
        return Err(LpError::NegativeRhs { row });
    }

    // Tableau: m rows × (n structural + m slack + 1 rhs) columns, plus an
    // objective row holding the negated reduced costs.
    let cols = n + m + 1;
    let mut tab: Vec<Vec<Rational>> = (0..m)
        .map(|r| {
            let mut row = Vec::with_capacity(cols);
            for c in 0..n {
                row.push(constraints[(r, c)].clone());
            }
            for s in 0..m {
                row.push(if s == r {
                    Rational::one()
                } else {
                    Rational::zero()
                });
            }
            row.push(rhs[r].clone());
            row
        })
        .collect();
    // Objective row: z − c·x = 0 ⇒ coefficients −c_j for structural vars.
    let mut zrow: Vec<Rational> = (0..cols)
        .map(|c| {
            if c < n {
                -&objective[c]
            } else {
                Rational::zero()
            }
        })
        .collect();
    let mut basis: Vec<usize> = (n..n + m).collect();

    loop {
        // Bland: entering = lowest-index column with negative reduced cost.
        let Some(entering) = (0..n + m).find(|&c| zrow[c].is_negative()) else {
            // Optimal: read off structural variable values.
            let mut x = vec![Rational::zero(); n];
            for (r, &b) in basis.iter().enumerate() {
                if b < n {
                    x[b] = tab[r][cols - 1].clone();
                }
            }
            let value = zrow[cols - 1].clone();
            return Ok(LpResult::Optimal { x, value });
        };
        // Ratio test; Bland: among minimal ratios pick the lowest basis var.
        let mut pivot_row: Option<usize> = None;
        for r in 0..m {
            if !tab[r][entering].is_positive() {
                continue;
            }
            let better = match pivot_row {
                None => true,
                Some(p) => {
                    let lhs = &tab[r][cols - 1] * &tab[p][entering];
                    let rhs_v = &tab[p][cols - 1] * &tab[r][entering];
                    lhs < rhs_v || (lhs == rhs_v && basis[r] < basis[p])
                }
            };
            if better {
                pivot_row = Some(r);
            }
        }
        let Some(pr) = pivot_row else {
            return Ok(LpResult::Unbounded);
        };
        // Pivot.
        let pivot_val = tab[pr][entering].clone();
        for cell in tab[pr].iter_mut() {
            let v = cell.clone();
            *cell = &v / &pivot_val;
        }
        let pivot_row_vals = tab[pr].clone();
        for (r, row) in tab.iter_mut().enumerate() {
            if r == pr || row[entering].is_zero() {
                continue;
            }
            let factor = row[entering].clone();
            for (c, cell) in row.iter_mut().enumerate() {
                let sub = &factor * &pivot_row_vals[c];
                let cur = cell.clone();
                *cell = &cur - &sub;
            }
        }
        if !zrow[entering].is_zero() {
            let factor = zrow[entering].clone();
            for (c, cell) in zrow.iter_mut().enumerate() {
                let sub = &factor * &pivot_row_vals[c];
                let cur = cell.clone();
                *cell = &cur - &sub;
            }
        }
        basis[pr] = entering;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_exact::rat;

    fn r(v: i64) -> Rational {
        Rational::from(v)
    }

    #[test]
    fn textbook_lp() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → x=2, y=6, z=36.
        let a = Matrix::from_rows(vec![vec![r(1), r(0)], vec![r(0), r(2)], vec![r(3), r(2)]]);
        let LpResult::Optimal { x, value } =
            maximize(&[r(3), r(5)], &a, &[r(4), r(12), r(18)]).unwrap()
        else {
            panic!("expected optimal");
        };
        assert_eq!(value, r(36));
        assert_eq!(x, vec![r(2), r(6)]);
    }

    #[test]
    fn fractional_optimum() {
        let a = Matrix::from_rows(vec![vec![r(1), r(2)], vec![r(3), r(1)]]);
        let LpResult::Optimal { x, value } = maximize(&[r(1), r(1)], &a, &[r(4), r(6)]).unwrap()
        else {
            panic!()
        };
        assert_eq!(x, vec![rat(8, 5), rat(6, 5)]);
        assert_eq!(value, rat(14, 5));
    }

    #[test]
    fn unbounded_detected() {
        // max x with only y constrained.
        let a = Matrix::from_rows(vec![vec![r(0), r(1)]]);
        assert_eq!(
            maximize(&[r(1), r(0)], &a, &[r(5)]).unwrap(),
            LpResult::Unbounded
        );
    }

    #[test]
    fn zero_objective() {
        let a = Matrix::from_rows(vec![vec![r(1)]]);
        let LpResult::Optimal { value, .. } = maximize(&[r(0)], &a, &[r(3)]).unwrap() else {
            panic!()
        };
        assert_eq!(value, r(0));
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Multiple redundant/tying constraints — Bland must not cycle.
        let a = Matrix::from_rows(vec![
            vec![r(1), r(1)],
            vec![r(1), r(1)],
            vec![r(2), r(2)],
            vec![r(1), r(0)],
        ]);
        let LpResult::Optimal { value, .. } =
            maximize(&[r(1), r(1)], &a, &[r(2), r(2), r(4), r(2)]).unwrap()
        else {
            panic!()
        };
        assert_eq!(value, r(2));
    }

    #[test]
    fn errors() {
        let a = Matrix::from_rows(vec![vec![r(1)]]);
        assert!(matches!(
            maximize(&[r(1), r(2)], &a, &[r(1)]),
            Err(LpError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            maximize(&[r(1)], &a, &[r(-1)]),
            Err(LpError::NegativeRhs { row: 0 })
        ));
        assert!(matches!(
            maximize(&[r(1)], &a, &[]),
            Err(LpError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn solution_is_feasible_and_optimal_on_random_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let n = rng.random_range(1..4);
            let m = rng.random_range(1..4);
            let a = Matrix::from_fn(m, n, |_, _| r(rng.random_range(0..6)));
            let b: Vec<Rational> = (0..m).map(|_| r(rng.random_range(0..10))).collect();
            let c: Vec<Rational> = (0..n).map(|_| r(rng.random_range(0..5))).collect();
            match maximize(&c, &a, &b) {
                Ok(LpResult::Optimal { x, value }) => {
                    // Feasibility.
                    let ax = a.mul_vec(&x);
                    for (lhs, rhs) in ax.iter().zip(&b) {
                        assert!(lhs <= rhs);
                    }
                    assert!(x.iter().all(|v| !v.is_negative()));
                    // Objective consistency.
                    let dot: Rational = c
                        .iter()
                        .zip(&x)
                        .map(|(ci, xi)| ci * xi)
                        .fold(Rational::zero(), |acc, t| acc + t);
                    assert_eq!(dot, value);
                }
                Ok(LpResult::Unbounded) => {
                    // Only possible if some objective direction is
                    // unconstrained; accept.
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
    }
}
