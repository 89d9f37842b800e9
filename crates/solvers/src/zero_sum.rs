//! Zero-sum bimatrix games: exact minimax via linear programming.
//!
//! For `B = −A` the equilibrium problem collapses to von Neumann's minimax
//! LP, solvable in polynomial time — a good "easy island" baseline next to
//! the PPAD-hard general case, and another consumer of the exact simplex
//! that makes Lemma 1's "LP(n, m)" literal.
//!
//! Reduction (payoffs shifted so `A > 0`): the column (minimizing) agent
//! solves `max Σ w` s.t. `A w ≤ 1, w ≥ 0`; then `value = 1/Σw` and
//! `y = value · w`. The row agent's strategy comes from the symmetric LP on
//! `−Aᵀ` (shifted), i.e. one more simplex call instead of dual extraction —
//! two small LPs keep the code auditable.

use ra_exact::{Matrix, Rational};

use crate::lp::{maximize, LpError, LpResult};
use ra_games::{BimatrixGame, MixedProfile, MixedStrategy};

/// The exact minimax solution of a zero-sum game.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinimaxSolution {
    /// The game value (row agent's guaranteed expected payoff).
    pub value: Rational,
    /// An optimal mixed profile (a Nash equilibrium of the game).
    pub profile: MixedProfile,
}

/// Errors from [`solve_zero_sum`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ZeroSumError {
    /// The game is not zero-sum (`B ≠ −A`).
    NotZeroSum,
    /// Internal LP failure (cannot happen for well-formed inputs; surfaced
    /// for debuggability).
    Lp(LpError),
}

impl std::fmt::Display for ZeroSumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZeroSumError::NotZeroSum => write!(f, "game is not zero-sum"),
            ZeroSumError::Lp(e) => write!(f, "internal LP error: {e}"),
        }
    }
}

impl std::error::Error for ZeroSumError {}

impl From<LpError> for ZeroSumError {
    fn from(e: LpError) -> ZeroSumError {
        ZeroSumError::Lp(e)
    }
}

/// Solves a zero-sum game exactly by two LP calls.
///
/// # Errors
///
/// [`ZeroSumError::NotZeroSum`] if `B ≠ −A`.
///
/// # Examples
///
/// ```
/// use ra_games::named::rock_paper_scissors;
/// use ra_solvers::solve_zero_sum;
/// use ra_exact::Rational;
///
/// let solution = solve_zero_sum(&rock_paper_scissors()).unwrap();
/// assert_eq!(solution.value, Rational::zero());
/// assert!(rock_paper_scissors().is_nash(&solution.profile));
/// ```
pub fn solve_zero_sum(game: &BimatrixGame) -> Result<MinimaxSolution, ZeroSumError> {
    if !game.is_zero_sum() {
        return Err(ZeroSumError::NotZeroSum);
    }
    let n = game.rows();
    let m = game.cols();
    // Shift so all entries are strictly positive: value_shifted > 0.
    let mut min_entry = game.a(0, 0).clone();
    for i in 0..n {
        for j in 0..m {
            if game.a(i, j) < &min_entry {
                min_entry = game.a(i, j).clone();
            }
        }
    }
    let shift = Rational::one() - &min_entry;

    // Column agent: max Σ w  s.t.  A⁺ w ≤ 1  (A⁺ = A + shift > 0).
    let a_pos = Matrix::from_fn(n, m, |i, j| game.a(i, j) + &shift);
    let y = solve_side(&a_pos)?;
    // Row agent: by symmetry of the zero-sum game, solve the same program
    // on (A⁺)ᵀ read as the *column* agent of the transposed game where the
    // roles flip: max Σ u s.t. (A⁺)ᵀ u ≤ 1 gives the row strategy of the
    // original game... with a sign flip: the row agent *maximizes* A, so in
    // the transposed view it minimizes −Aᵀ; shifting −Aᵀ positive gives the
    // right program.
    let mut min_neg = -game.a(0, 0);
    for i in 0..n {
        for j in 0..m {
            let v = -game.a(i, j);
            if v < min_neg {
                min_neg = v;
            }
        }
    }
    let shift_t = Rational::one() - &min_neg;
    let at_pos = Matrix::from_fn(m, n, |j, i| -game.a(i, j) + &shift_t);
    let x = solve_side(&at_pos)?;

    let profile = MixedProfile { row: x, col: y };
    let value = game.expected_row_payoff(&profile.row, &profile.col);
    debug_assert!(
        game.is_nash(&profile),
        "minimax profile must be an equilibrium"
    );
    Ok(MinimaxSolution { value, profile })
}

/// Solves `max Σw s.t. M w ≤ 1, w ≥ 0` for a strictly positive matrix `M`
/// and normalizes the optimum into a mixed strategy.
fn solve_side(m_pos: &Matrix) -> Result<MixedStrategy, ZeroSumError> {
    let cols = m_pos.cols();
    let ones_obj = vec![Rational::one(); cols];
    let ones_rhs = vec![Rational::one(); m_pos.rows()];
    match maximize(&ones_obj, m_pos, &ones_rhs)? {
        LpResult::Optimal { x, value } => {
            debug_assert!(value.is_positive(), "positive matrix ⇒ positive optimum");
            let probs: Vec<Rational> = x.iter().map(|w| w / &value).collect();
            Ok(MixedStrategy::try_new(probs).expect("normalized LP solution is a distribution"))
        }
        LpResult::Unbounded => unreachable!("M > 0 bounds the feasible region"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_exact::rat;
    use ra_games::named::{matching_pennies, prisoners_dilemma, rock_paper_scissors};
    use ra_games::GameGenerator;

    #[test]
    fn classic_games() {
        let mp = solve_zero_sum(&matching_pennies()).unwrap();
        assert_eq!(mp.value, Rational::zero());
        assert_eq!(mp.profile.row, MixedStrategy::uniform(2));
        let rps = solve_zero_sum(&rock_paper_scissors()).unwrap();
        assert_eq!(rps.value, Rational::zero());
        assert_eq!(rps.profile.col, MixedStrategy::uniform(3));
    }

    #[test]
    fn asymmetric_value() {
        // A = [[2, -1], [-1, 1]]: value = (2·1 − 1·1)/(2+1+1+1) = 1/5.
        let game = BimatrixGame::from_i64_tables(&[&[2, -1], &[-1, 1]], &[&[-2, 1], &[1, -1]]);
        let solution = solve_zero_sum(&game).unwrap();
        assert_eq!(solution.value, rat(1, 5));
        assert!(game.is_nash(&solution.profile));
        // Optimal strategies: x = (2/5, 3/5), y = (2/5, 3/5).
        assert_eq!(solution.profile.row.probs(), &[rat(2, 5), rat(3, 5)]);
    }

    #[test]
    fn saddle_point_game() {
        // A = [[3, 1], [2, 0]]: row 0 dominates, col 1 dominates → value 1.
        let game = BimatrixGame::from_i64_tables(&[&[3, 1], &[2, 0]], &[&[-3, -1], &[-2, 0]]);
        let solution = solve_zero_sum(&game).unwrap();
        assert_eq!(solution.value, rat(1, 1));
        assert!(game.is_nash(&solution.profile));
    }

    #[test]
    fn non_zero_sum_rejected() {
        assert_eq!(
            solve_zero_sum(&prisoners_dilemma()),
            Err(ZeroSumError::NotZeroSum)
        );
    }

    #[test]
    fn random_zero_sum_games_solve_and_verify() {
        for seed in 0..40 {
            let game = GameGenerator::seeded(seed).zero_sum(4, 5, -20..=20);
            let solution = solve_zero_sum(&game).unwrap();
            assert!(game.is_nash(&solution.profile), "seed {seed}");
            // The value is what the profile actually pays.
            assert_eq!(
                solution.value,
                game.expected_row_payoff(&solution.profile.row, &solution.profile.col),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn agrees_with_lemke_howson() {
        for seed in 0..15 {
            let game = GameGenerator::seeded(100 + seed).zero_sum(3, 3, -9..=9);
            let lp = solve_zero_sum(&game).unwrap();
            let lh = crate::lemke_howson(&game, 0).unwrap();
            // Zero-sum games can have many equilibria, but they all share
            // the same value.
            assert_eq!(
                lp.value,
                game.expected_row_payoff(&lh.row, &lh.col),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn rectangular_games() {
        for seed in 0..10 {
            let game = GameGenerator::seeded(seed).zero_sum(2, 6, -9..=9);
            let solution = solve_zero_sum(&game).unwrap();
            assert!(game.is_nash(&solution.profile), "seed {seed}");
        }
    }
}
