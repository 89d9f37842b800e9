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
//! zero-knowledge-flavoured privacy guarantee of Remark 2, measured by the
//! [`Transcript`]. Expected `O(n)` query pairs reach a conclusive test;
//! constant for supports of size `θ(n)` (Remark 3).

use std::collections::HashSet;
use std::fmt;

use rand::Rng;

use ra_exact::Rational;
use ra_games::{BimatrixGame, MixedStrategy};

use crate::transcript::{Disclosure, Transcript};

/// What the P2 prover sends to one agent: its own equilibrium data and the
/// equilibrium values, nothing about the opponent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct P2Advice {
    /// The agent's own mixed strategy at the claimed equilibrium.
    pub own_strategy: MixedStrategy,
    /// The agent's own equilibrium payoff (λ₁ for the row agent).
    pub lambda_own: Rational,
    /// The opponent's equilibrium payoff (λ₂ for the row agent).
    pub lambda_opp: Rational,
}

/// The membership oracle the prover answers queries through.
///
/// Honest provers answer from the true equilibrium support; dishonest ones
/// can answer anything — the verifier's job is to catch them. Any
/// `FnMut(usize) -> Option<bool>` closure is an oracle.
pub trait SupportOracle {
    /// Is pure strategy `index` in the opponent's support? `None` when
    /// the answer is unknown (it never arrived).
    fn is_in_opponent_support(&mut self, index: usize) -> Option<bool>;
}

impl<F: FnMut(usize) -> Option<bool>> SupportOracle for F {
    fn is_in_opponent_support(&mut self, index: usize) -> Option<bool> {
        self(index)
    }
}

/// Honest oracle backed by the true support set.
#[derive(Clone, Debug)]
pub struct HonestOracle {
    support: HashSet<usize>,
}

impl HonestOracle {
    /// Creates an oracle for the given true support.
    pub fn new(support: impl IntoIterator<Item = usize>) -> HonestOracle {
        HonestOracle {
            support: support.into_iter().collect(),
        }
    }
}

impl SupportOracle for HonestOracle {
    fn is_in_opponent_support(&mut self, index: usize) -> Option<bool> {
        Some(self.support.contains(&index))
    }
}

/// An adversarial oracle that lies about a chosen set of indices — used in
/// soundness tests and fault-injection experiments.
#[derive(Clone, Debug)]
pub struct LyingOracle {
    truth: HashSet<usize>,
    lies_about: HashSet<usize>,
}

impl LyingOracle {
    /// Oracle that inverts the truthful answer for every index in
    /// `lies_about`.
    pub fn new(
        truth: impl IntoIterator<Item = usize>,
        lies_about: impl IntoIterator<Item = usize>,
    ) -> LyingOracle {
        LyingOracle {
            truth: truth.into_iter().collect(),
            lies_about: lies_about.into_iter().collect(),
        }
    }
}

impl SupportOracle for LyingOracle {
    fn is_in_opponent_support(&mut self, index: usize) -> Option<bool> {
        Some(self.truth.contains(&index) ^ self.lies_about.contains(&index))
    }
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
        /// Full communication record.
        transcript: Transcript,
    },
    /// A test failed; the advice (or the oracle) is dishonest.
    Rejected {
        /// Why.
        reason: P2Rejection,
        /// Full communication record.
        transcript: Transcript,
    },
    /// The query budget ran out before enough conclusive tests (can only
    /// happen with tiny budgets or tiny supports), or an oracle answer
    /// never arrived: unknown is neither in nor out, so the transcript
    /// ends with that query and no verdict rests on it.
    Undecided {
        /// Conclusive tests completed before the budget ran out.
        conclusive_tests: u64,
        /// Full communication record.
        transcript: Transcript,
    },
}

impl P2Outcome {
    /// Returns `true` for [`P2Outcome::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, P2Outcome::Accepted { .. })
    }

    /// The transcript, whatever the outcome.
    pub fn transcript(&self) -> &Transcript {
        match self {
            P2Outcome::Accepted { transcript, .. }
            | P2Outcome::Rejected { transcript, .. }
            | P2Outcome::Undecided { transcript, .. } => transcript,
        }
    }
}

/// Runs the P2 verifier for the **row agent** of `game`.
///
/// To verify as the column agent, call with
/// [`BimatrixGame::swap_roles`]`()` and the column agent's advice.
///
/// # Examples
///
/// ```
/// use ra_games::named::matching_pennies;
/// use ra_games::MixedStrategy;
/// use ra_proofs::{verify_private_advice, HonestOracle, P2Advice, P2Config};
/// use ra_exact::rat;
/// use rand::SeedableRng;
///
/// let advice = P2Advice {
///     own_strategy: MixedStrategy::uniform(2),
///     lambda_own: rat(0, 1),
///     lambda_opp: rat(0, 1),
/// };
/// let mut oracle = HonestOracle::new([0, 1]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let outcome = verify_private_advice(
///     &matching_pennies(), &advice, &mut oracle, &mut rng, &P2Config::default(),
/// );
/// assert!(outcome.is_accepted());
/// ```
pub fn verify_private_advice(
    game: &BimatrixGame,
    advice: &P2Advice,
    oracle: &mut dyn SupportOracle,
    rng: &mut dyn rand::RngCore,
    config: &P2Config,
) -> P2Outcome {
    let mut transcript = Transcript::new();
    let n = game.rows();
    let m = game.cols();
    // Prover → agent: own support/probabilities and the two λ values.
    transcript.prover_message(n as u64, Disclosure::OwnData, "own support mask (S1)");
    transcript.prover_message(64, Disclosure::OwnData, "own probabilities");
    transcript.prover_message(64, Disclosure::EquilibriumValue, "λ1, λ2");

    // Local well-formedness of the shipped own data.
    if advice.own_strategy.len() != n {
        return P2Outcome::Rejected {
            reason: P2Rejection::MalformedOwnStrategy {
                entries: advice.own_strategy.len(),
                rows: n,
            },
            transcript,
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
            transcript.query(j, m);
            let answer = oracle.is_in_opponent_support(j);
            transcript.answer(answer);
            let Some(answer) = answer else {
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
                    transcript,
                };
            }
            if !inside && &actual > lambda_opp {
                return P2Outcome::Rejected {
                    reason: P2Rejection::OutsideSupportExceeds { index: j, actual },
                    transcript,
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
            transcript,
        };
    }
    P2Outcome::Accepted {
        conclusive_tests: conclusive,
        transcript,
    }
}

/// The honest prover's advice construction for the row agent, from a full
/// equilibrium (used by `ra-authority`'s honest inventor).
pub fn honest_row_advice(game: &BimatrixGame, profile: &ra_games::MixedProfile) -> P2Advice {
    P2Advice {
        own_strategy: profile.row.clone(),
        lambda_own: game.expected_row_payoff(&profile.row, &profile.col),
        lambda_opp: game.expected_col_payoff(&profile.row, &profile.col),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transcript::TranscriptEvent;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use ra_exact::rat;
    use ra_games::named::{battle_of_the_sexes, matching_pennies};
    use ra_games::{GameGenerator, MixedProfile};
    use ra_solvers::find_one_equilibrium;

    fn run(
        game: &BimatrixGame,
        advice: &P2Advice,
        oracle: &mut dyn SupportOracle,
        seed: u64,
    ) -> P2Outcome {
        let mut rng = StdRng::seed_from_u64(seed);
        verify_private_advice(game, advice, oracle, &mut rng, &P2Config::default())
    }

    #[test]
    fn honest_advice_accepted() {
        let game = matching_pennies();
        let profile = MixedProfile {
            row: MixedStrategy::uniform(2),
            col: MixedStrategy::uniform(2),
        };
        let advice = honest_row_advice(&game, &profile);
        let mut oracle = HonestOracle::new(profile.col.support());
        assert!(run(&game, &advice, &mut oracle, 1).is_accepted());
    }

    #[test]
    fn wrong_lambda_rejected() {
        let game = matching_pennies();
        let profile = MixedProfile {
            row: MixedStrategy::uniform(2),
            col: MixedStrategy::uniform(2),
        };
        let mut advice = honest_row_advice(&game, &profile);
        advice.lambda_opp = rat(1, 2); // lie
        let mut oracle = HonestOracle::new(profile.col.support());
        let outcome = run(&game, &advice, &mut oracle, 2);
        assert!(matches!(
            outcome,
            P2Outcome::Rejected {
                reason: P2Rejection::InSupportPayoffMismatch { .. },
                ..
            }
        ));
    }

    /// A 2×3 game whose unique mixed equilibrium leaves column 2 strictly
    /// outside the support (its payoff to the column agent is −1 < λ₂).
    fn game_with_dominated_column() -> (BimatrixGame, MixedProfile) {
        let game =
            BimatrixGame::from_i64_tables(&[&[2, 0, 0], &[0, 1, 0]], &[&[1, 0, -1], &[0, 2, -1]]);
        let profile = MixedProfile {
            row: MixedStrategy::try_new(vec![rat(2, 3), rat(1, 3)]).unwrap(),
            col: MixedStrategy::try_new(vec![rat(1, 3), rat(2, 3), rat(0, 1)]).unwrap(),
        };
        assert!(game.is_nash(&profile));
        (game, profile)
    }

    #[test]
    fn false_membership_lies_caught_whp() {
        // The oracle falsely claims the dominated column 2 is in the
        // support; whenever the verifier samples it, the payoff −1 ≠ λ₂
        // exposes the lie.
        let (game, profile) = game_with_dominated_column();
        let advice = honest_row_advice(&game, &profile);
        let mut rejections = 0;
        for seed in 0..50 {
            let mut oracle = LyingOracle::new(profile.col.support(), [2usize]);
            if let P2Outcome::Rejected {
                reason: P2Rejection::InSupportPayoffMismatch { index: 2, .. },
                ..
            } = run(&game, &advice, &mut oracle, seed)
            {
                rejections += 1;
            }
        }
        // Each conclusive pair misses column 2 with probability (2/3)²;
        // three pairs miss it with ≈ 9% probability.
        assert!(
            rejections >= 35,
            "false membership caught in {rejections}/50 runs"
        );
    }

    #[test]
    fn denial_lies_only_lose_information() {
        // Denying membership of a support column is *not* detectable by the
        // payoff test: at the equilibrium that column earns exactly λ₂ and
        // the out-of-support condition is `≤ λ₂` (Fig. 4's boundary case).
        // The lie costs the prover conclusive tests but cannot make honest
        // advice rejected.
        let (game, profile) = game_with_dominated_column();
        let advice = honest_row_advice(&game, &profile);
        for seed in 0..20 {
            let mut oracle = LyingOracle::new(profile.col.support(), [0usize]);
            let outcome = run(&game, &advice, &mut oracle, seed);
            assert!(
                !matches!(outcome, P2Outcome::Rejected { .. }),
                "denial lies must not reject honest advice (seed {seed})"
            );
        }
    }

    #[test]
    fn unanswered_query_is_undecided_never_out() {
        // The advice lies about λ, so a pair of answers rejects it. An
        // answer that never arrives is neither in nor out: the run stops
        // undecided at that query, and no opponent bit is counted for it.
        let game = matching_pennies();
        let profile = MixedProfile {
            row: MixedStrategy::uniform(2),
            col: MixedStrategy::uniform(2),
        };
        let mut advice = honest_row_advice(&game, &profile);
        advice.lambda_opp = rat(1, 2);
        for answered in 0..2u64 {
            let mut asked = 0;
            let mut oracle = |_| {
                asked += 1;
                (asked <= answered).then_some(true)
            };
            let outcome = run(&game, &advice, &mut oracle, 4);
            assert!(matches!(outcome, P2Outcome::Undecided { .. }));
            let transcript = outcome.transcript();
            assert_eq!(transcript.num_queries(), answered + 1);
            assert_eq!(transcript.opponent_bits_disclosed(), answered);
            assert_eq!(
                transcript.events().last(),
                Some(&TranscriptEvent::Answer { in_support: None })
            );
        }
        let mut answers = |_| Some(true);
        assert!(matches!(
            run(&game, &advice, &mut answers, 4),
            P2Outcome::Rejected { .. }
        ));
    }

    #[test]
    fn wrong_own_strategy_dimension_rejected() {
        let game = matching_pennies();
        let advice = P2Advice {
            own_strategy: MixedStrategy::uniform(3),
            lambda_own: rat(0, 1),
            lambda_opp: rat(0, 1),
        };
        let mut oracle = HonestOracle::new([0, 1]);
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
    fn tiny_budget_is_undecided() {
        let game = matching_pennies();
        let profile = MixedProfile {
            row: MixedStrategy::uniform(2),
            col: MixedStrategy::uniform(2),
        };
        let advice = honest_row_advice(&game, &profile);
        let mut oracle = HonestOracle::new(profile.col.support());
        let mut rng = StdRng::seed_from_u64(9);
        let outcome = verify_private_advice(
            &game,
            &advice,
            &mut oracle,
            &mut rng,
            &P2Config {
                required_conclusive: 5,
                max_queries: 2,
            },
        );
        assert!(matches!(outcome, P2Outcome::Undecided { .. }));
    }

    #[test]
    fn privacy_ledger_counts_only_answer_bits() {
        let game = matching_pennies();
        let profile = MixedProfile {
            row: MixedStrategy::uniform(2),
            col: MixedStrategy::uniform(2),
        };
        let advice = honest_row_advice(&game, &profile);
        let mut oracle = HonestOracle::new(profile.col.support());
        let outcome = run(&game, &advice, &mut oracle, 11);
        let transcript = outcome.transcript();
        // Opponent information = one bit per oracle answer, nothing else.
        assert_eq!(
            transcript.opponent_bits_disclosed(),
            transcript.num_queries()
        );
        // Compare against P1 on the same game: P1 ships the whole opposing
        // support mask (m bits) — for larger games P2's disclosure stays at
        // the answers only. (Both = 2 queries here; the point is the
        // *composition*, asserted above.)
    }

    #[test]
    fn column_agent_verifies_via_swapped_roles() {
        let game = battle_of_the_sexes();
        let profile = MixedProfile {
            row: MixedStrategy::try_new(vec![rat(2, 3), rat(1, 3)]).unwrap(),
            col: MixedStrategy::try_new(vec![rat(1, 3), rat(2, 3)]).unwrap(),
        };
        let swapped = game.swap_roles();
        let col_view = MixedProfile {
            row: profile.col.clone(),
            col: profile.row.clone(),
        };
        let advice = honest_row_advice(&swapped, &col_view);
        let mut oracle = HonestOracle::new(col_view.col.support());
        assert!(run(&swapped, &advice, &mut oracle, 5).is_accepted());
    }

    #[test]
    fn random_games_honest_end_to_end() {
        let mut accepted = 0;
        for seed in 0..30 {
            let game = GameGenerator::seeded(seed).bimatrix(4, 4, -9..=9);
            let Some(eq) = find_one_equilibrium(&game) else {
                continue;
            };
            let advice = honest_row_advice(&game, &eq.profile);
            let mut oracle = HonestOracle::new(eq.col_support.clone());
            if run(&game, &advice, &mut oracle, seed).is_accepted() {
                accepted += 1;
            }
        }
        assert!(accepted >= 25, "honest P2 accepted on {accepted}/~30 games");
    }
}
