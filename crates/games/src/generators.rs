//! Seeded random game generators for tests and benchmarks.
//!
//! The benchmark harness compares inventor-side equilibrium *computation*
//! against agent-side *verification* on the same instances; these generators
//! produce the instances deterministically from a seed so that every
//! experiment in `docs/BENCHMARKS.md` is reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ra_exact::{Matrix, Rational};

use crate::bimatrix::BimatrixGame;
use crate::strategic::StrategicGame;

/// Deterministic generator of random games.
///
/// # Examples
///
/// ```
/// use ra_games::GameGenerator;
///
/// let mut g1 = GameGenerator::seeded(42);
/// let mut g2 = GameGenerator::seeded(42);
/// let a = g1.bimatrix(3, 3, -10..=10);
/// let b = g2.bimatrix(3, 3, -10..=10);
/// assert_eq!(a.payoff_a(), b.payoff_a(), "same seed, same game");
/// ```
#[derive(Debug)]
pub struct GameGenerator {
    rng: StdRng,
}

impl GameGenerator {
    /// Creates a generator from a fixed seed.
    pub fn seeded(seed: u64) -> GameGenerator {
        GameGenerator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Random bimatrix game with integer payoffs drawn uniformly from
    /// `payoff_range`.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0 || cols == 0` or the range is empty.
    pub fn bimatrix(
        &mut self,
        rows: usize,
        cols: usize,
        payoff_range: std::ops::RangeInclusive<i64>,
    ) -> BimatrixGame {
        assert!(rows > 0 && cols > 0, "empty bimatrix game");
        let mut draw =
            |_: usize, _: usize| Rational::from(self.rng.random_range(payoff_range.clone()));
        let a = Matrix::from_fn(rows, cols, &mut draw);
        let b = Matrix::from_fn(rows, cols, &mut draw);
        BimatrixGame::new(a, b)
    }

    /// Random zero-sum bimatrix game (`B = −A`).
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0 || cols == 0` or the range is empty.
    pub fn zero_sum(
        &mut self,
        rows: usize,
        cols: usize,
        payoff_range: std::ops::RangeInclusive<i64>,
    ) -> BimatrixGame {
        assert!(rows > 0 && cols > 0, "empty bimatrix game");
        let a = Matrix::from_fn(rows, cols, |_, _| {
            Rational::from(self.rng.random_range(payoff_range.clone()))
        });
        let b = Matrix::from_fn(rows, cols, |i, j| -&a[(i, j)]);
        BimatrixGame::new(a, b)
    }

    /// Random `n`-agent strategic game with the given per-agent strategy
    /// counts and integer payoffs from `payoff_range`.
    ///
    /// # Panics
    ///
    /// Panics if any strategy count is zero or the profile space is huge.
    pub fn strategic(
        &mut self,
        strategy_counts: Vec<usize>,
        payoff_range: std::ops::RangeInclusive<i64>,
    ) -> StrategicGame {
        assert!(
            strategy_counts.iter().all(|&c| c > 0),
            "zero-strategy agent"
        );
        let n = strategy_counts.len();
        StrategicGame::from_payoff_fn(strategy_counts, |_| {
            (0..n)
                .map(|_| Rational::from(self.rng.random_range(payoff_range.clone())))
                .collect()
        })
    }

    /// A random bimatrix game that is *guaranteed* to contain the planted
    /// pure equilibrium `(row, col)` (payoffs at the planted cell are lifted
    /// above their row/column competitors).
    ///
    /// Useful for soundness fuzzing: the inventor's claimed profile is known
    /// in advance, independent of any solver.
    pub fn bimatrix_with_planted_pure(
        &mut self,
        rows: usize,
        cols: usize,
        planted: (usize, usize),
    ) -> BimatrixGame {
        assert!(
            planted.0 < rows && planted.1 < cols,
            "planted cell out of range"
        );
        let mut game = self.bimatrix(rows, cols, -50..=50);
        let bump = Rational::from(101);
        let mut a_rows: Vec<Vec<Rational>> = (0..rows)
            .map(|i| (0..cols).map(|j| game.a(i, j).clone()).collect())
            .collect();
        let mut b_rows: Vec<Vec<Rational>> = (0..rows)
            .map(|i| (0..cols).map(|j| game.b(i, j).clone()).collect())
            .collect();
        a_rows[planted.0][planted.1] = bump.clone();
        b_rows[planted.0][planted.1] = bump;
        game = BimatrixGame::new(Matrix::from_rows(a_rows), Matrix::from_rows(b_rows));
        game
    }

    /// Uniform random draw from a range (exposed so experiment harnesses can
    /// share the generator's seeded stream).
    pub fn draw_i64(&mut self, range: std::ops::RangeInclusive<i64>) -> i64 {
        self.rng.random_range(range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bimatrix::{MixedProfile, MixedStrategy};

    #[test]
    fn determinism() {
        let g1 = GameGenerator::seeded(7).strategic(vec![2, 3], -5..=5);
        let g2 = GameGenerator::seeded(7).strategic(vec![2, 3], -5..=5);
        for p in g1.profiles() {
            assert_eq!(g1.payoffs(&p), g2.payoffs(&p));
        }
    }

    #[test]
    fn zero_sum_is_zero_sum() {
        let g = GameGenerator::seeded(1).zero_sum(4, 5, -9..=9);
        assert!(g.is_zero_sum());
    }

    #[test]
    fn planted_equilibrium_is_nash() {
        for seed in 0..20 {
            let mut generator = GameGenerator::seeded(seed);
            let g = generator.bimatrix_with_planted_pure(4, 4, (2, 1));
            let profile = MixedProfile {
                row: MixedStrategy::pure(4, 2),
                col: MixedStrategy::pure(4, 1),
            };
            assert!(g.is_nash(&profile), "seed {seed}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = GameGenerator::seeded(1).bimatrix(3, 3, -100..=100);
        let b = GameGenerator::seeded(2).bimatrix(3, 3, -100..=100);
        assert_ne!(a.payoff_a(), b.payoff_a());
    }
}
