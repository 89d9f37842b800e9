//! Symmetric two-action games among `n` agents (§5 substrate).
//!
//! The participation game is symmetric: every agent chooses between action 0
//! ("stay out") and action 1 ("participate"), and an agent's payoff depends
//! only on its own action and on *how many* others chose action 1. By Nash's
//! theorem such games have a symmetric mixed equilibrium in which everyone
//! plays action 1 with the same probability `p`; the equilibrium condition is
//! the indifference equation the paper's verifier checks (Eq. (2)/(5)).

use std::fmt;

use ra_exact::{binomial_pmf, Rational};

use crate::strategic::StrategicGame;

/// A symmetric game where each of `n` agents picks action 0 or 1 and payoffs
/// depend only on the agent's own action and the number of *other* agents
/// playing action 1.
///
/// # Examples
///
/// ```
/// use ra_games::SymmetricBinaryGame;
/// use ra_exact::{rat, Rational};
///
/// // Toy volunteer game: volunteering (action 1) costs 1, but if anyone
/// // volunteers everyone receives 3.
/// let g = SymmetricBinaryGame::from_fn(4, |own, others_in| {
///     let benefit = if own == 1 || others_in > 0 { 3 } else { 0 };
///     Rational::from(benefit - own as i64)
/// });
/// assert_eq!(g.num_agents(), 4);
/// assert_eq!(*g.payoff(1, 0), rat(2, 1));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SymmetricBinaryGame {
    n: usize,
    /// `payoff[own][k]` = utility when playing `own ∈ {0,1}` and `k` of the
    /// `n − 1` other agents play action 1.
    payoff: [Vec<Rational>; 2],
}

impl SymmetricBinaryGame {
    /// Builds the game by tabulating `payoff(own_action, others_playing_1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn from_fn(n: usize, mut payoff: impl FnMut(u8, usize) -> Rational) -> SymmetricBinaryGame {
        assert!(n > 0, "symmetric game needs at least one agent");
        let row = |own: u8, payoff: &mut dyn FnMut(u8, usize) -> Rational| {
            (0..n).map(|k| payoff(own, k)).collect::<Vec<_>>()
        };
        SymmetricBinaryGame {
            n,
            payoff: [row(0, &mut payoff), row(1, &mut payoff)],
        }
    }

    /// Number of agents.
    pub fn num_agents(&self) -> usize {
        self.n
    }

    /// Payoff for playing `own` when `others_in` of the other `n − 1` agents
    /// play action 1.
    ///
    /// # Panics
    ///
    /// Panics if `own > 1` or `others_in >= n`.
    pub fn payoff(&self, own: u8, others_in: usize) -> &Rational {
        assert!(own <= 1, "binary action game");
        assert!(others_in < self.n, "at most n-1 other agents");
        &self.payoff[own as usize][others_in]
    }

    /// Expected payoff of playing `own` when every other agent independently
    /// plays action 1 with probability `p` (exact).
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1]`.
    pub fn expected_payoff(&self, own: u8, p: &Rational) -> Rational {
        let others = (self.n - 1) as u64;
        let mut acc = Rational::zero();
        for k in 0..self.n {
            let weight = binomial_pmf(others, k as u64, p);
            if !weight.is_zero() {
                acc += &(&weight * self.payoff(own, k));
            }
        }
        acc
    }

    /// The indifference gap `E[u | play 1] − E[u | play 0]` at symmetric
    /// probability `p`. A symmetric mixed equilibrium with `0 < p < 1` is
    /// exactly a root of this function — Eq. (2) of the paper.
    pub fn indifference_gap(&self, p: &Rational) -> Rational {
        self.expected_payoff(1, p) - self.expected_payoff(0, p)
    }

    /// Checks whether symmetric play with probability `p` is a (symmetric)
    /// Nash equilibrium: interior `p` requires exact indifference, while
    /// boundary values require the corresponding weak preference.
    pub fn is_symmetric_equilibrium(&self, p: &Rational) -> bool {
        if p.is_negative() || p > &Rational::one() {
            return false;
        }
        let gap = self.indifference_gap(p);
        if p.is_zero() {
            !gap.is_positive()
        } else if p == &Rational::one() {
            !gap.is_negative()
        } else {
            gap.is_zero()
        }
    }

    /// Expands to the full `n`-agent [`StrategicGame`] (2 strategies each).
    ///
    /// Exponential in `n`; intended for small games and for cross-checking
    /// the symmetric analysis against the exhaustive §3 machinery.
    pub fn to_strategic(&self) -> StrategicGame {
        let n = self.n;
        let payoff = self.payoff.clone();
        StrategicGame::from_payoff_fn(vec![2; n], move |profile| {
            let total: usize = profile.strategies().iter().sum();
            (0..n)
                .map(|i| {
                    let own = profile.strategy_of(i);
                    payoff[own][total - own].clone()
                })
                .collect()
        })
    }
}

impl fmt::Debug for SymmetricBinaryGame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SymmetricBinaryGame({} agents)", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_exact::rat;

    /// The paper's participation game with k = 2:
    /// * stay out (0): gain v if ≥ 2 others participate... no — gain v if at
    ///   least k participants exist among the others; here the rule is about
    ///   *total* participants, so for a non-participant it needs ≥ 2 others.
    /// * participate (1): v − c if ≥ 1 other participates (total ≥ 2),
    ///   −c if alone.
    fn participation_game(n: usize, v: i64, c: i64) -> SymmetricBinaryGame {
        SymmetricBinaryGame::from_fn(n, move |own, others| match own {
            1 if others >= 1 => Rational::from(v - c),
            1 => Rational::from(-c),
            0 if others >= 2 => Rational::from(v),
            _ => Rational::zero(),
        })
    }

    #[test]
    fn paper_worked_equilibrium() {
        // §5: c/v = 3/8, n = 3 ⇒ p = 1/4 is the symmetric equilibrium
        // (scale to integers: v = 8, c = 3).
        let g = participation_game(3, 8, 3);
        assert!(g.is_symmetric_equilibrium(&rat(1, 4)));
        assert!(!g.is_symmetric_equilibrium(&rat(1, 3)));
        // Expected equilibrium gain is v/16 = 1/2 for v = 8.
        assert_eq!(g.expected_payoff(0, &rat(1, 4)), rat(1, 2));
        assert_eq!(g.expected_payoff(1, &rat(1, 4)), rat(1, 2));
    }

    #[test]
    fn indifference_gap_sign_structure() {
        let g = participation_game(3, 8, 3);
        // Below the equilibrium p participating is worse...
        assert!(g.indifference_gap(&rat(1, 10)).is_negative());
        // ...at p = 1/4 indifferent...
        assert!(g.indifference_gap(&rat(1, 4)).is_zero());
        // ...and somewhere above (before the second root at p = 3/4 — the
        // equation c = v(n−1)p(1−p)^{n−2} is quadratic for n = 3), better.
        assert!(g.indifference_gap(&rat(1, 2)).is_positive());
        // p = 3/4 is the second symmetric equilibrium.
        assert!(g.is_symmetric_equilibrium(&rat(3, 4)));
    }

    #[test]
    fn boundary_equilibria() {
        // If participating strictly dominates (c = 0, always-on value),
        // p = 1 is an equilibrium.
        let g = SymmetricBinaryGame::from_fn(3, |own, _| Rational::from(own as i64));
        assert!(g.is_symmetric_equilibrium(&Rational::one()));
        assert!(!g.is_symmetric_equilibrium(&Rational::zero()));
        // p = 0 equilibrium when participation never pays.
        let g0 = participation_game(3, 8, 3);
        assert!(g0.is_symmetric_equilibrium(&Rational::zero()));
    }

    #[test]
    fn out_of_range_p_rejected() {
        let g = participation_game(3, 8, 3);
        assert!(!g.is_symmetric_equilibrium(&rat(5, 4)));
        assert!(!g.is_symmetric_equilibrium(&rat(-1, 4)));
    }

    #[test]
    fn expected_payoff_at_boundaries() {
        let g = participation_game(4, 8, 3);
        // p = 0: others never participate — staying out yields 0,
        // participating yields −c.
        assert_eq!(g.expected_payoff(0, &Rational::zero()), rat(0, 1));
        assert_eq!(g.expected_payoff(1, &Rational::zero()), rat(-3, 1));
        // p = 1: all 3 others participate — staying out yields v = 8,
        // participating yields v − c = 5.
        assert_eq!(g.expected_payoff(0, &Rational::one()), rat(8, 1));
        assert_eq!(g.expected_payoff(1, &Rational::one()), rat(5, 1));
    }

    #[test]
    fn strategic_expansion_agrees() {
        let g = participation_game(3, 8, 3);
        let s = g.to_strategic();
        assert_eq!(s.num_agents(), 3);
        // Profile (1,1,0): agents 0,1 participate, 2 stays out.
        let p = vec![1, 1, 0].into();
        assert_eq!(*s.payoff(0, &p), rat(5, 1)); // v - c = 5
        assert_eq!(*s.payoff(2, &p), rat(8, 1)); // v = 8
                                                 // Pure profiles where exactly 2 participate are pure equilibria:
                                                 // participants get v−c=5 > would-be 0 by leaving (then only 1 left);
                                                 // the outsider gets v=8 > v−c=5 by joining.
        assert!(s.is_pure_nash(&p));
        // Nobody participates: also an equilibrium (joining alone costs c).
        assert!(s.is_pure_nash(&vec![0, 0, 0].into()));
        // All participate: not an equilibrium (leave and still get v).
        assert!(!s.is_pure_nash(&vec![1, 1, 1].into()));
    }

    #[test]
    #[should_panic(expected = "at least one agent")]
    fn zero_agents_rejected() {
        let _ = SymmetricBinaryGame::from_fn(0, |_, _| Rational::zero());
    }
}
