//! The P2 private interactive proof (§4, Fig. 4, Remarks 2–3).
//!
//! Unlike P1, the prover sends each agent only *its own* support and
//! probabilities plus the two equilibrium values λ₁, λ₂. The opponent's
//! support is never shipped; instead the agent probes it through a
//! membership oracle, one random index pair at a time:
//!
//! * both indices in the opponent support ⇒ their expected payoffs (against
//!   the agent's own, known, mixed strategy) must both equal λ_opp;
//! * one in, one out ⇒ the in-index must hit λ_opp and the out-index must
//!   not exceed it;
//! * both out ⇒ inconclusive (but a violation `λ(j) > λ_opp` still rejects).
//!
//! Each oracle answer leaks exactly one bit about the opponent — the
//! zero-knowledge-flavoured privacy guarantee of Remark 2. Expected `O(n)`
//! query pairs reach a conclusive test; constant for supports of size
//! `θ(n)` (Remark 3). The caller answers every query, so it counts them
//! (and the answer bits) in its own oracle.

use std::fmt;

use rand::Rng;

use ra_exact::Rational;
use ra_games::{BimatrixGame, MixedStrategy};

/// What the P2 prover sends to one agent: its own equilibrium data and the
/// equilibrium values, nothing about the opponent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct P2Advice {
    /// The agent's own mixed strategy at the claimed equilibrium.
    pub own_strategy: MixedStrategy,
    /// The agent's own equilibrium payoff (λ₁ for the row agent).
    /// Not certified: [`verify_private_advice`] never reads it, since the
    /// agent cannot check its own payoff without the opponent's strategy.
    pub lambda_own: Rational,
    /// The opponent's equilibrium payoff (λ₂ for the row agent).
    pub lambda_opp: Rational,
}

/// Verifier configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct P2Config {
    /// Stop after this many *conclusive* pair tests (Remark 3's constant
    /// `k`).
    pub required_conclusive: u64,
    /// Hard budget on individual oracle queries.
    pub max_queries: u64,
}

impl Default for P2Config {
    fn default() -> P2Config {
        P2Config {
            required_conclusive: 3,
            max_queries: 10_000,
        }
    }
}

/// Reasons the P2 verifier rejects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum P2Rejection {
    /// The shipped own-strategy has the wrong dimension.
    MalformedOwnStrategy {
        /// How many probabilities the strategy has.
        entries: usize,
        /// How many rows the game has.
        rows: usize,
    },
    /// An index claimed to be in the opponent support does not earn
    /// exactly λ_opp against the agent's own strategy.
    InSupportPayoffMismatch {
        /// The queried index.
        index: usize,
        /// Its actual expected payoff.
        actual: Rational,
    },
    /// An index claimed to be outside the support earns *more* than λ_opp —
    /// impossible at an equilibrium.
    OutsideSupportExceeds {
        /// The queried index.
        index: usize,
        /// Its actual expected payoff.
        actual: Rational,
    },
}

impl fmt::Display for P2Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            P2Rejection::MalformedOwnStrategy { entries, rows } => write!(
                f,
                "own strategy malformed: strategy has {entries} entries, game has {rows} rows"
            ),
            P2Rejection::InSupportPayoffMismatch { index, actual } => write!(
                f,
                "claimed-in-support index {index} earns {actual}, not the claimed λ"
            ),
            P2Rejection::OutsideSupportExceeds { index, actual } => write!(
                f,
                "claimed-out-of-support index {index} earns {actual} above the claimed λ"
            ),
        }
    }
}

/// Outcome of a P2 verification run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum P2Outcome {
    /// Enough conclusive tests passed.
    Accepted {
        /// Number of conclusive pair tests performed.
        conclusive_tests: u64,
    },
    /// A test failed; the advice (or the oracle) is dishonest.
    Rejected {
        /// Why.
        reason: P2Rejection,
    },
    /// The query budget ran out before enough conclusive tests (can only
    /// happen with tiny budgets or tiny supports), or an oracle answer
    /// never arrived: unknown is neither in nor out, so the run stops at
    /// that query and no verdict rests on it.
    Undecided {
        /// Conclusive tests completed before the run stopped.
        conclusive_tests: u64,
    },
}

impl P2Outcome {
    /// Returns `true` for [`P2Outcome::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, P2Outcome::Accepted { .. })
    }
}

/// Runs the P2 verifier for the **row agent** of `game`.
///
/// To verify as the column agent, call with
/// [`BimatrixGame::swap_roles`]`()` and the column agent's advice.
///
/// `oracle` is the prover's membership oracle: is the opponent's pure
/// strategy `j` in its support? Honest provers answer from the true
/// equilibrium support; dishonest ones can answer anything, and the
/// verifier's job is to catch them. `None` means the answer never
/// arrived: the run stops [`P2Outcome::Undecided`] at that query. The
/// queries are drawn in pairs, at most `config.max_queries` of them.
///
/// An accepted run certifies two things only, each up to Fig. 4's
/// sampling: the opponent's announced support (the oracle's "in"
/// answers) is a set of best responses to the agent's own strategy
/// `own_strategy`, and its value is `lambda_opp`. Nothing is certified
/// about the agent's own side: [`P2Advice::lambda_own`] is never read.
///
/// # Examples
///
/// ```
/// use ra_games::named::matching_pennies;
/// use ra_games::MixedStrategy;
/// use ra_proofs::{verify_private_advice, P2Advice, P2Config};
/// use ra_exact::rat;
/// use rand::SeedableRng;
///
/// let advice = P2Advice {
///     own_strategy: MixedStrategy::uniform(2),
///     lambda_own: rat(0, 1),
///     lambda_opp: rat(0, 1),
/// };
/// // The opponent's support is {0, 1}; any closure is an oracle.
/// let mut oracle = |j: usize| Some(j < 2);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let outcome = verify_private_advice(
///     &matching_pennies(), &advice, &mut oracle, &mut rng, &P2Config::default(),
/// );
/// assert!(outcome.is_accepted());
/// ```
pub fn verify_private_advice(
    game: &BimatrixGame,
    advice: &P2Advice,
    oracle: &mut dyn FnMut(usize) -> Option<bool>,
    rng: &mut dyn rand::RngCore,
    config: &P2Config,
) -> P2Outcome {
    let n = game.rows();
    let m = game.cols();
    // Local well-formedness of the shipped own data.
    if advice.own_strategy.len() != n {
        return P2Outcome::Rejected {
            reason: P2Rejection::MalformedOwnStrategy {
                entries: advice.own_strategy.len(),
                rows: n,
            },
        };
    }

    // Interactive phase: random index pairs through the membership oracle.
    let lambda_opp = &advice.lambda_opp;
    let mut conclusive = 0u64;
    let mut queries = 0u64;
    'pairs: while conclusive < config.required_conclusive && queries + 2 <= config.max_queries {
        let pair = [rng.random_range(0..m), rng.random_range(0..m)];
        let mut inside = [false; 2];
        for (&j, inside) in pair.iter().zip(&mut inside) {
            let Some(answer) = oracle(j) else {
                break 'pairs;
            };
            *inside = answer;
        }
        queries += 2;
        // Expected payoff of the opponent's pure strategy j against the
        // agent's own (known) mixed strategy — computable locally.
        let payoff = |j: usize| game.col_payoff_against(&advice.own_strategy, j);
        for (&j, &inside) in pair.iter().zip(&inside) {
            let actual = payoff(j);
            if inside && &actual != lambda_opp {
                return P2Outcome::Rejected {
                    reason: P2Rejection::InSupportPayoffMismatch { index: j, actual },
                };
            }
            if !inside && &actual > lambda_opp {
                return P2Outcome::Rejected {
                    reason: P2Rejection::OutsideSupportExceeds { index: j, actual },
                };
            }
        }
        // Fig. 4's case analysis: conclusive iff at least one index was in.
        if inside.contains(&true) {
            conclusive += 1;
        }
    }
    if conclusive < config.required_conclusive {
        return P2Outcome::Undecided {
            conclusive_tests: conclusive,
        };
    }
    P2Outcome::Accepted {
        conclusive_tests: conclusive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use ra_exact::rat;
    use ra_games::named::matching_pennies;

    fn run(
        game: &BimatrixGame,
        advice: &P2Advice,
        oracle: &mut dyn FnMut(usize) -> Option<bool>,
        seed: u64,
    ) -> P2Outcome {
        let mut rng = StdRng::seed_from_u64(seed);
        verify_private_advice(game, advice, oracle, &mut rng, &P2Config::default())
    }

    #[test]
    fn wrong_own_strategy_dimension_rejected() {
        let game = matching_pennies();
        let advice = P2Advice {
            own_strategy: MixedStrategy::uniform(3),
            lambda_own: rat(0, 1),
            lambda_opp: rat(0, 1),
        };
        let mut oracle = |j: usize| Some(j < 2);
        let P2Outcome::Rejected { reason, .. } = run(&game, &advice, &mut oracle, 3) else {
            panic!("a three-entry strategy in a two-row game is malformed");
        };
        assert_eq!(
            reason,
            P2Rejection::MalformedOwnStrategy {
                entries: 3,
                rows: 2
            }
        );
        assert_eq!(
            reason.to_string(),
            "own strategy malformed: strategy has 3 entries, game has 2 rows"
        );
    }

    #[test]
    fn p2_certifies_only_the_opponent_side() {
        // Matching pennies at its uniform equilibrium: both values are 0.
        // No check reads λ_own, so advice that misstates it by one either
        // way is accepted whenever the honest answers are.
        let game = matching_pennies();
        for lambda_own in [rat(-1, 1), rat(1, 1)] {
            let advice = P2Advice {
                own_strategy: MixedStrategy::uniform(2),
                lambda_own,
                lambda_opp: rat(0, 1),
            };
            for seed in 0..32 {
                let mut oracle = |j: usize| Some(j < 2);
                assert!(
                    run(&game, &advice, &mut oracle, seed).is_accepted(),
                    "seed {seed}"
                );
            }
        }
    }
}
