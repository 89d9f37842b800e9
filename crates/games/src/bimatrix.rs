//! Bimatrix games and mixed strategies (§4 of the paper).
//!
//! A 2-agent game is given by `n × m` payoff matrices `A` (row agent) and
//! `B` (column agent). Computing a mixed Nash equilibrium here is
//! PPAD-complete in general — that asymmetry between *computing* and
//! *verifying* is exactly what the P1/P2 interactive proofs exploit.
//! Everything is exact ([`Rational`]), so `is_nash` is a sound decision
//! procedure, not a tolerance check.

use std::fmt;

use ra_exact::{Matrix, Rational};

use crate::strategic::StrategicGame;

/// Error returned when a probability vector is not a valid mixed strategy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MixedStrategyError {
    /// The vector is empty.
    Empty,
    /// Some entry is negative.
    NegativeProbability {
        /// Index of the offending entry.
        index: usize,
    },
    /// Entries do not sum to one.
    DoesNotSumToOne,
}

impl fmt::Display for MixedStrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MixedStrategyError::Empty => write!(f, "mixed strategy over zero strategies"),
            MixedStrategyError::NegativeProbability { index } => {
                write!(f, "negative probability at index {index}")
            }
            MixedStrategyError::DoesNotSumToOne => write!(f, "probabilities do not sum to 1"),
        }
    }
}

impl std::error::Error for MixedStrategyError {}

/// A mixed strategy: an exact probability distribution over pure strategies.
///
/// # Examples
///
/// ```
/// use ra_games::MixedStrategy;
/// use ra_exact::rat;
///
/// let x = MixedStrategy::try_new(vec![rat(1, 3), rat(2, 3)]).unwrap();
/// assert_eq!(x.support(), vec![0, 1]);
/// assert_eq!(MixedStrategy::pure(3, 1).support(), vec![1]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct MixedStrategy(Vec<Rational>);

impl MixedStrategy {
    /// Validates and wraps a probability vector.
    ///
    /// # Errors
    ///
    /// Returns an error if the vector is empty, has a negative entry, or
    /// does not sum to exactly one.
    pub fn try_new(probs: Vec<Rational>) -> Result<MixedStrategy, MixedStrategyError> {
        if probs.is_empty() {
            return Err(MixedStrategyError::Empty);
        }
        if let Some(index) = probs.iter().position(Rational::is_negative) {
            return Err(MixedStrategyError::NegativeProbability { index });
        }
        let total: Rational = probs.iter().fold(Rational::zero(), |a, b| a + b);
        if total != Rational::one() {
            return Err(MixedStrategyError::DoesNotSumToOne);
        }
        Ok(MixedStrategy(probs))
    }

    /// The uniform distribution over `n` strategies.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform(n: usize) -> MixedStrategy {
        assert!(n > 0, "uniform mixed strategy over zero strategies");
        MixedStrategy(vec![Rational::from(n).recip(); n])
    }

    /// The pure strategy `i` as a degenerate distribution.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn pure(n: usize, i: usize) -> MixedStrategy {
        assert!(i < n, "pure strategy index out of range");
        let mut probs = vec![Rational::zero(); n];
        probs[i] = Rational::one();
        MixedStrategy(probs)
    }

    /// Number of pure strategies.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if there are no strategies (never true for validated
    /// values; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Probability assigned to pure strategy `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn prob(&self, i: usize) -> &Rational {
        &self.0[i]
    }

    /// All probabilities as a slice.
    pub fn probs(&self) -> &[Rational] {
        &self.0
    }

    /// The support: indices played with non-zero probability (sorted).
    pub fn support(&self) -> Vec<usize> {
        (0..self.0.len())
            .filter(|&i| !self.0[i].is_zero())
            .collect()
    }
}

impl fmt::Debug for MixedStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, p) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "]")
    }
}

/// A mixed strategy profile for a bimatrix game.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MixedProfile {
    /// Row agent's mixed strategy.
    pub row: MixedStrategy,
    /// Column agent's mixed strategy.
    pub col: MixedStrategy,
}

/// A 2-agent game in matrix form.
///
/// # Examples
///
/// ```
/// use ra_games::BimatrixGame;
///
/// let g = BimatrixGame::from_i64_tables(
///     &[&[1, 1], &[0, 2]],
///     &[&[1, 1], &[1, 0]],
/// );
/// assert_eq!(g.rows(), 2);
/// assert_eq!(g.cols(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BimatrixGame {
    a: Matrix,
    b: Matrix,
}

impl BimatrixGame {
    /// Creates a game from the two payoff matrices.
    ///
    /// # Panics
    ///
    /// Panics if the matrices have different shapes or are empty.
    pub fn new(a: Matrix, b: Matrix) -> BimatrixGame {
        assert_eq!(a.rows(), b.rows(), "payoff matrices must share shape");
        assert_eq!(a.cols(), b.cols(), "payoff matrices must share shape");
        assert!(a.rows() > 0 && a.cols() > 0, "empty bimatrix game");
        BimatrixGame { a, b }
    }

    /// Convenience constructor from integer tables.
    ///
    /// # Panics
    ///
    /// Panics on ragged or mismatched tables.
    pub fn from_i64_tables(a: &[&[i64]], b: &[&[i64]]) -> BimatrixGame {
        let to_matrix = |t: &[&[i64]]| {
            Matrix::from_rows(
                t.iter()
                    .map(|row| row.iter().map(|&v| Rational::from(v)).collect())
                    .collect(),
            )
        };
        BimatrixGame::new(to_matrix(a), to_matrix(b))
    }

    /// Number of row-agent pure strategies (`n`).
    pub fn rows(&self) -> usize {
        self.a.rows()
    }

    /// Number of column-agent pure strategies (`m`).
    pub fn cols(&self) -> usize {
        self.a.cols()
    }

    /// Row agent's payoff matrix `A`.
    pub fn payoff_a(&self) -> &Matrix {
        &self.a
    }

    /// Column agent's payoff matrix `B`.
    pub fn payoff_b(&self) -> &Matrix {
        &self.b
    }

    /// Row agent's payoff for the pure profile `(i, j)`.
    pub fn a(&self, i: usize, j: usize) -> &Rational {
        &self.a[(i, j)]
    }

    /// Column agent's payoff for the pure profile `(i, j)`.
    pub fn b(&self, i: usize, j: usize) -> &Rational {
        &self.b[(i, j)]
    }

    /// The same game with the agents' roles swapped: the column agent
    /// becomes the row agent of the returned game.
    ///
    /// Useful because the paper states P1/P2 for the row agent and notes
    /// "it is easy to state the Verifier for the column agent".
    pub fn swap_roles(&self) -> BimatrixGame {
        BimatrixGame {
            a: self.b.transpose(),
            b: self.a.transpose(),
        }
    }

    /// Expected payoff `xᵀ A y` of the row agent.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn expected_row_payoff(&self, x: &MixedStrategy, y: &MixedStrategy) -> Rational {
        self.expected(&self.a, x, y)
    }

    /// Expected payoff `xᵀ B y` of the column agent.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn expected_col_payoff(&self, x: &MixedStrategy, y: &MixedStrategy) -> Rational {
        self.expected(&self.b, x, y)
    }

    fn expected(&self, m: &Matrix, x: &MixedStrategy, y: &MixedStrategy) -> Rational {
        assert_eq!(x.len(), self.rows(), "row strategy dimension mismatch");
        assert_eq!(y.len(), self.cols(), "column strategy dimension mismatch");
        let mut acc = Rational::zero();
        for i in 0..self.rows() {
            if x.prob(i).is_zero() {
                continue;
            }
            let mut row_acc = Rational::zero();
            for j in 0..self.cols() {
                if y.prob(j).is_zero() {
                    continue;
                }
                row_acc += &(&m[(i, j)] * y.prob(j));
            }
            acc += &(x.prob(i) * &row_acc);
        }
        acc
    }

    /// Expected payoff `(A y)_i` of the pure row `i` against the column mix.
    ///
    /// This is the quantity the P1 verifier compares against λ₁ for rows
    /// outside the support.
    pub fn row_payoff_against(&self, i: usize, y: &MixedStrategy) -> Rational {
        assert_eq!(y.len(), self.cols(), "column strategy dimension mismatch");
        let mut acc = Rational::zero();
        for j in 0..self.cols() {
            if !y.prob(j).is_zero() {
                acc += &(&self.a[(i, j)] * y.prob(j));
            }
        }
        acc
    }

    /// Expected payoff `(xᵀ B)_j` of the pure column `j` against the row mix.
    pub fn col_payoff_against(&self, x: &MixedStrategy, j: usize) -> Rational {
        assert_eq!(x.len(), self.rows(), "row strategy dimension mismatch");
        let mut acc = Rational::zero();
        for i in 0..self.rows() {
            if !x.prob(i).is_zero() {
                acc += &(x.prob(i) * &self.b[(i, j)]);
            }
        }
        acc
    }

    /// Exact mixed-Nash test: every pure strategy of either agent earns at
    /// most the profile's expected payoff for that agent.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn is_nash(&self, profile: &MixedProfile) -> bool {
        let lambda1 = self.expected_row_payoff(&profile.row, &profile.col);
        let lambda2 = self.expected_col_payoff(&profile.row, &profile.col);
        (0..self.rows()).all(|i| self.row_payoff_against(i, &profile.col) <= lambda1)
            && (0..self.cols()).all(|j| self.col_payoff_against(&profile.row, j) <= lambda2)
    }

    /// The equilibrium payoff pair `(λ₁, λ₂)` of a profile.
    pub fn equilibrium_values(&self, profile: &MixedProfile) -> (Rational, Rational) {
        (
            self.expected_row_payoff(&profile.row, &profile.col),
            self.expected_col_payoff(&profile.row, &profile.col),
        )
    }

    /// Returns `true` if the game is zero-sum (`B = −A`).
    pub fn is_zero_sum(&self) -> bool {
        (0..self.rows()).all(|i| {
            (0..self.cols()).all(|j| &self.a[(i, j)] + &self.b[(i, j)] == Rational::zero())
        })
    }

    /// Expands to a 2-agent [`StrategicGame`] (for the §3 machinery).
    pub fn to_strategic(&self) -> StrategicGame {
        StrategicGame::from_payoff_fn(vec![self.rows(), self.cols()], |p| {
            let (i, j) = (p.strategy_of(0), p.strategy_of(1));
            vec![self.a[(i, j)].clone(), self.b[(i, j)].clone()]
        })
    }
}

impl fmt::Debug for BimatrixGame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BimatrixGame({}x{})", self.rows(), self.cols())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_exact::rat;

    fn matching_pennies() -> BimatrixGame {
        BimatrixGame::from_i64_tables(&[&[1, -1], &[-1, 1]], &[&[-1, 1], &[1, -1]])
    }

    #[test]
    fn mixed_strategy_validation() {
        assert!(MixedStrategy::try_new(vec![]).is_err());
        assert_eq!(
            MixedStrategy::try_new(vec![rat(-1, 2), rat(3, 2)]),
            Err(MixedStrategyError::NegativeProbability { index: 0 })
        );
        assert_eq!(
            MixedStrategy::try_new(vec![rat(1, 2), rat(1, 3)]),
            Err(MixedStrategyError::DoesNotSumToOne)
        );
        let ok = MixedStrategy::try_new(vec![rat(1, 2), rat(1, 2)]).unwrap();
        assert_eq!(ok.support(), vec![0, 1]);
    }

    #[test]
    fn uniform_and_pure() {
        assert_eq!(MixedStrategy::uniform(4).prob(2), &rat(1, 4));
        let p = MixedStrategy::pure(3, 2);
        assert_eq!(p.support(), vec![2]);
        assert_eq!(p.prob(0), &rat(0, 1));
    }

    #[test]
    fn matching_pennies_uniform_is_nash() {
        let g = matching_pennies();
        let profile = MixedProfile {
            row: MixedStrategy::uniform(2),
            col: MixedStrategy::uniform(2),
        };
        assert!(g.is_nash(&profile));
        let (l1, l2) = g.equilibrium_values(&profile);
        assert_eq!(l1, rat(0, 1));
        assert_eq!(l2, rat(0, 1));
        assert!(g.is_zero_sum());
    }

    #[test]
    fn pure_profile_detection() {
        // Prisoner's dilemma: (defect, defect) is the unique equilibrium.
        let g = BimatrixGame::from_i64_tables(&[&[-1, -3], &[0, -2]], &[&[-1, 0], &[-3, -2]]);
        let dd = MixedProfile {
            row: MixedStrategy::pure(2, 1),
            col: MixedStrategy::pure(2, 1),
        };
        let cc = MixedProfile {
            row: MixedStrategy::pure(2, 0),
            col: MixedStrategy::pure(2, 0),
        };
        assert!(g.is_nash(&dd));
        assert!(!g.is_nash(&cc));
        assert!(!g.is_zero_sum());
    }

    #[test]
    fn fig5_game_equilibria() {
        // Fig. 5: A row strategy (pure A) with ANY column mix q_C + q_D = 1,
        // q_D ≤ 1/2 is an equilibrium — the Remark 2 non-identifiability.
        let g = BimatrixGame::from_i64_tables(&[&[1, 1], &[0, 2]], &[&[1, 1], &[1, 0]]);
        for (qc, qd) in [
            (rat(1, 1), rat(0, 1)),
            (rat(1, 2), rat(1, 2)),
            (rat(3, 4), rat(1, 4)),
        ] {
            let profile = MixedProfile {
                row: MixedStrategy::pure(2, 0),
                col: MixedStrategy::try_new(vec![qc, qd]).unwrap(),
            };
            assert!(g.is_nash(&profile), "q_D <= 1/2 must be an equilibrium");
            let (l1, l2) = g.equilibrium_values(&profile);
            assert_eq!(l1, rat(1, 1));
            assert_eq!(l2, rat(1, 1));
        }
        // q_D > 1/2 breaks it: row agent prefers B.
        let bad = MixedProfile {
            row: MixedStrategy::pure(2, 0),
            col: MixedStrategy::try_new(vec![rat(1, 4), rat(3, 4)]).unwrap(),
        };
        assert!(!g.is_nash(&bad));
    }

    #[test]
    fn swap_roles_preserves_equilibria() {
        let g = matching_pennies();
        let swapped = g.swap_roles();
        let profile = MixedProfile {
            row: MixedStrategy::uniform(2),
            col: MixedStrategy::uniform(2),
        };
        assert!(swapped.is_nash(&profile));
        assert_eq!(swapped.a(0, 1), g.b(1, 0));
    }

    #[test]
    fn to_strategic_round_trip() {
        let g = BimatrixGame::from_i64_tables(&[&[3, 0], &[5, 1]], &[&[3, 5], &[0, 1]]);
        let s = g.to_strategic();
        assert_eq!(*s.payoff(0, &vec![1, 0].into()), rat(5, 1));
        assert_eq!(*s.payoff(1, &vec![0, 1].into()), rat(5, 1));
        // Pure equilibria agree.
        for p in s.profiles() {
            let mp = MixedProfile {
                row: MixedStrategy::pure(2, p.strategy_of(0)),
                col: MixedStrategy::pure(2, p.strategy_of(1)),
            };
            assert_eq!(s.is_pure_nash(&p), g.is_nash(&mp), "profile {p}");
        }
    }

    #[test]
    fn payoff_against_matches_expected() {
        let g = matching_pennies();
        let y = MixedStrategy::try_new(vec![rat(1, 3), rat(2, 3)]).unwrap();
        // (Ay)_0 = 1*(1/3) + (-1)*(2/3) = -1/3.
        assert_eq!(g.row_payoff_against(0, &y), rat(-1, 3));
        let x = MixedStrategy::try_new(vec![rat(1, 4), rat(3, 4)]).unwrap();
        // (xB)_1 = 1*(1/4) + (-1)*(3/4) = -1/2.
        assert_eq!(g.col_payoff_against(&x, 1), rat(-1, 2));
    }
}
