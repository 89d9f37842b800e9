//! §4 P2 advice: the honest prover's message to the row agent, and the
//! round trip through `ra-proofs`' private verifier.

use ra_games::{BimatrixGame, MixedProfile};
use ra_proofs::P2Advice;

/// The honest prover's advice construction for the row agent, from a full
/// equilibrium (used by `ra-authority`'s honest inventor).
pub fn honest_row_advice(game: &BimatrixGame, profile: &MixedProfile) -> P2Advice {
    P2Advice {
        own_strategy: profile.row.clone(),
        lambda_own: game.expected_row_payoff(&profile.row, &profile.col),
        lambda_opp: game.expected_col_payoff(&profile.row, &profile.col),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use ra_exact::rat;
    use ra_games::named::{battle_of_the_sexes, matching_pennies};
    use ra_games::{GameGenerator, MixedStrategy};
    use ra_proofs::{verify_private_advice, P2Config, P2Outcome, P2Rejection};

    use crate::find_one_equilibrium;

    fn run(
        game: &BimatrixGame,
        advice: &P2Advice,
        oracle: &mut dyn FnMut(usize) -> Option<bool>,
        seed: u64,
    ) -> P2Outcome {
        let mut rng = StdRng::seed_from_u64(seed);
        verify_private_advice(game, advice, oracle, &mut rng, &P2Config::default())
    }

    fn uniform_pennies() -> (BimatrixGame, MixedProfile) {
        let profile = MixedProfile {
            row: MixedStrategy::uniform(2),
            col: MixedStrategy::uniform(2),
        };
        (matching_pennies(), profile)
    }

    #[test]
    fn honest_advice_accepted() {
        let (game, profile) = uniform_pennies();
        let advice = honest_row_advice(&game, &profile);
        let support = profile.col.support();
        let mut oracle = |j| Some(support.contains(&j));
        assert!(run(&game, &advice, &mut oracle, 1).is_accepted());
    }

    #[test]
    fn wrong_lambda_rejected() {
        let (game, profile) = uniform_pennies();
        let mut advice = honest_row_advice(&game, &profile);
        advice.lambda_opp = rat(1, 2); // lie
        let support = profile.col.support();
        let mut oracle = |j| Some(support.contains(&j));
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
        let support = profile.col.support();
        let mut rejections = 0;
        for seed in 0..50 {
            let mut oracle = |j| Some(support.contains(&j) ^ (j == 2));
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
        let support = profile.col.support();
        for seed in 0..20 {
            let mut oracle = |j| Some(support.contains(&j) ^ (j == 0));
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
        // undecided at that query and asks nothing more, so the opponent
        // disclosed only the bits answered before it.
        let (game, profile) = uniform_pennies();
        let mut advice = honest_row_advice(&game, &profile);
        advice.lambda_opp = rat(1, 2);
        for answered in 0..2 {
            let mut answers = Vec::new();
            let mut oracle = |_| {
                let answer = (answers.len() < answered).then_some(true);
                answers.push(answer);
                answer
            };
            let outcome = run(&game, &advice, &mut oracle, 4);
            assert!(matches!(outcome, P2Outcome::Undecided { .. }));
            assert_eq!(answers.len(), answered + 1);
            assert_eq!(answers.iter().flatten().count(), answered);
            assert_eq!(answers.last(), Some(&None));
        }
        let mut answers = |_| Some(true);
        assert!(matches!(
            run(&game, &advice, &mut answers, 4),
            P2Outcome::Rejected { .. }
        ));
    }

    #[test]
    fn tiny_budget_is_undecided() {
        let (game, profile) = uniform_pennies();
        let advice = honest_row_advice(&game, &profile);
        let support = profile.col.support();
        let mut oracle = |j| Some(support.contains(&j));
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
        let (game, profile) = uniform_pennies();
        let advice = honest_row_advice(&game, &profile);
        let support = profile.col.support();
        // P2 advice carries only the agent's own strategy and the two
        // values, so the opponent's information is one bit per oracle
        // answer, nothing else: the ledger is the oracle itself.
        let mut answers = 0;
        let mut oracle = |j| {
            answers += 1;
            Some(support.contains(&j))
        };
        let P2Outcome::Accepted { conclusive_tests } = run(&game, &advice, &mut oracle, 11) else {
            panic!("honest advice with an honest oracle is accepted");
        };
        // Full support: every pair is conclusive, two answers each.
        assert_eq!(answers, 2 * conclusive_tests);
        // Compare against P1 on the same game: P1 ships the whole opposing
        // support mask (m bits) — for larger games P2's disclosure stays at
        // the answers only.
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
        let support = col_view.col.support();
        let mut oracle = |j| Some(support.contains(&j));
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
            let mut oracle = |j| Some(eq.col_support.contains(&j));
            if run(&game, &advice, &mut oracle, seed).is_accepted() {
                accepted += 1;
            }
        }
        assert!(accepted >= 25, "honest P2 accepted on {accepted}/~30 games");
    }
}
