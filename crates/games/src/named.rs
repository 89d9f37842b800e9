//! Named example games used across the paper, the tests and the examples.

use ra_exact::Rational;

use crate::bimatrix::BimatrixGame;
use crate::strategic::StrategicGame;

/// The bimatrix game of Fig. 5 of the paper:
///
/// ```text
///        C     D
///  A   1,1   1,1
///  B   0,1   2,0
/// ```
///
/// Its equilibria make Remark 2's point: when the prover tells the row agent
/// only "your support is {A}, your probabilities are (1, 0), λ₁ = λ₂ = 1",
/// the row agent cannot reconstruct the column agent's strategy — any
/// `(q_C, q_D)` with `q_D ≤ 1/2` completes an equilibrium.
pub fn fig5_game() -> BimatrixGame {
    BimatrixGame::from_i64_tables(&[&[1, 1], &[0, 2]], &[&[1, 1], &[1, 0]])
}

/// Prisoner's dilemma (strategy 0 = cooperate, 1 = defect); the unique
/// equilibrium (1, 1) is strictly dominant.
pub fn prisoners_dilemma() -> BimatrixGame {
    BimatrixGame::from_i64_tables(&[&[-1, -3], &[0, -2]], &[&[-1, 0], &[-3, -2]])
}

/// Matching pennies; zero-sum, no pure equilibrium, unique mixed equilibrium
/// at uniform play.
pub fn matching_pennies() -> BimatrixGame {
    BimatrixGame::from_i64_tables(&[&[1, -1], &[-1, 1]], &[&[-1, 1], &[1, -1]])
}

/// Battle of the sexes; two pure equilibria plus a mixed one
/// (x = (2/3, 1/3), y = (1/3, 2/3)).
pub fn battle_of_the_sexes() -> BimatrixGame {
    BimatrixGame::from_i64_tables(&[&[2, 0], &[0, 1]], &[&[1, 0], &[0, 2]])
}

/// Rock-paper-scissors; zero-sum, unique mixed equilibrium at uniform play.
pub fn rock_paper_scissors() -> BimatrixGame {
    BimatrixGame::from_i64_tables(
        &[&[0, -1, 1], &[1, 0, -1], &[-1, 1, 0]],
        &[&[0, 1, -1], &[-1, 0, 1], &[1, -1, 0]],
    )
}

/// A pure coordination game with `k` Pareto-ranked equilibria: both agents
/// receive `i + 1` when they coordinate on strategy `i`, zero otherwise.
///
/// The maximal Nash equilibrium (Fig. 2's `isMaxNash`) is coordination on
/// strategy `k − 1`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn coordination_game(k: usize) -> StrategicGame {
    assert!(k > 0, "coordination game needs at least one strategy");
    StrategicGame::from_payoff_fn(vec![k, k], |p| {
        let (i, j) = (p.strategy_of(0), p.strategy_of(1));
        let v = if i == j {
            Rational::from(i + 1)
        } else {
            Rational::zero()
        };
        vec![v.clone(), v]
    })
}

/// The `n`-player "stag hunt": strategy 1 (stag) pays `3` if *everyone*
/// hunts stag, `0` otherwise; strategy 0 (hare) always pays `1`.
/// Two pure symmetric equilibria: all-stag (payoff-dominant / maximal) and
/// all-hare (risk-dominant).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn stag_hunt(n: usize) -> StrategicGame {
    assert!(n > 0, "stag hunt needs at least one agent");
    StrategicGame::from_payoff_fn(vec![2; n], |p| {
        let all_stag = p.strategies().iter().all(|&s| s == 1);
        (0..n)
            .map(|i| match p.strategy_of(i) {
                0 => Rational::one(),
                _ if all_stag => Rational::from(3),
                _ => Rational::zero(),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bimatrix::{MixedProfile, MixedStrategy};
    use ra_exact::rat;

    #[test]
    fn fig5_equilibrium_values() {
        let g = fig5_game();
        let profile = MixedProfile {
            row: MixedStrategy::pure(2, 0),
            col: MixedStrategy::pure(2, 0),
        };
        assert!(g.is_nash(&profile));
        assert_eq!(g.equilibrium_values(&profile), (rat(1, 1), rat(1, 1)));
    }

    #[test]
    fn battle_of_sexes_mixed_equilibrium() {
        let g = battle_of_the_sexes();
        let profile = MixedProfile {
            row: MixedStrategy::try_new(vec![rat(2, 3), rat(1, 3)]).unwrap(),
            col: MixedStrategy::try_new(vec![rat(1, 3), rat(2, 3)]).unwrap(),
        };
        assert!(g.is_nash(&profile));
        assert_eq!(g.equilibrium_values(&profile), (rat(2, 3), rat(2, 3)));
        // Pure coordinated profiles are also equilibria.
        for i in 0..2 {
            let pure = MixedProfile {
                row: MixedStrategy::pure(2, i),
                col: MixedStrategy::pure(2, i),
            };
            assert!(g.is_nash(&pure));
        }
    }

    #[test]
    fn rps_uniform_is_unique_equilibrium_value() {
        let g = rock_paper_scissors();
        assert!(g.is_zero_sum());
        let profile = MixedProfile {
            row: MixedStrategy::uniform(3),
            col: MixedStrategy::uniform(3),
        };
        assert!(g.is_nash(&profile));
        assert_eq!(g.equilibrium_values(&profile), (rat(0, 1), rat(0, 1)));
        // No pure equilibrium exists.
        assert!(g.to_strategic().pure_nash_equilibria().is_empty());
    }

    #[test]
    fn coordination_maximal_equilibrium() {
        let g = coordination_game(3);
        let eqs = g.pure_nash_equilibria();
        assert_eq!(eqs.len(), 3);
        assert!(g.is_maximal_nash(&vec![2, 2].into()));
        assert!(!g.is_maximal_nash(&vec![0, 0].into()));
        assert!(g.is_minimal_nash(&vec![0, 0].into()));
    }

    #[test]
    fn stag_hunt_equilibria() {
        let g = stag_hunt(3);
        assert!(g.is_pure_nash(&vec![1, 1, 1].into()));
        assert!(g.is_pure_nash(&vec![0, 0, 0].into()));
        assert!(!g.is_pure_nash(&vec![1, 1, 0].into()));
        assert!(g.is_maximal_nash(&vec![1, 1, 1].into()));
        assert!(!g.is_maximal_nash(&vec![0, 0, 0].into()));
    }
}
