//! Property-based tests for the game-theory substrate.

use proptest::prelude::*;
use ra_exact::Rational;
use ra_games::{
    dominant_strategy_equilibrium, Dominance, GameGenerator, MixedProfile, MixedStrategy,
    ProfileIter, StrategicGame, StrategyProfile, SymmetricBinaryGame,
};

fn arb_counts() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..4, 1..4)
}

proptest! {
    /// isNash ⟺ no improving unilateral deviation, by definition — checked
    /// against an independent brute-force search.
    #[test]
    fn nash_iff_no_improving_deviation(seed in 0u64..500, counts in arb_counts()) {
        let game = GameGenerator::seeded(seed).strategic(counts.clone(), -10..=10);
        for profile in ProfileIter::new(counts.clone()) {
            let mut improvable = false;
            for (agent, &count) in counts.iter().enumerate() {
                for s in 0..count {
                    if s == profile.strategy_of(agent) { continue; }
                    let dev = profile.with_strategy(agent, s);
                    if game.payoff(agent, &dev) > game.payoff(agent, &profile) {
                        improvable = true;
                    }
                }
            }
            prop_assert_eq!(game.is_pure_nash(&profile), !improvable);
            prop_assert_eq!(game.improving_deviation(&profile).is_none(), !improvable);
        }
    }

    /// Every profile returned by pure_nash_equilibria satisfies is_pure_nash,
    /// and none are missed.
    #[test]
    fn pure_nash_enumeration_is_exact(seed in 0u64..200, counts in arb_counts()) {
        let game = GameGenerator::seeded(seed).strategic(counts.clone(), -5..=5);
        let eqs = game.pure_nash_equilibria();
        for e in &eqs {
            prop_assert!(game.is_pure_nash(e));
        }
        let expected: Vec<StrategyProfile> = ProfileIter::new(counts)
            .filter(|p| game.is_pure_nash(p))
            .collect();
        prop_assert_eq!(eqs, expected);
    }

    /// A dominant-strategy equilibrium (weak or strict) is a pure Nash
    /// equilibrium — the implication the auction certificates rely on.
    #[test]
    fn dominant_equilibrium_is_nash(seed in 0u64..300, counts in arb_counts()) {
        let game = GameGenerator::seeded(seed).strategic(counts, -5..=5);
        for kind in [Dominance::Strict, Dominance::Weak] {
            if let Some(eq) = dominant_strategy_equilibrium(&game, kind) {
                prop_assert!(game.is_pure_nash(&eq));
            }
        }
    }

    /// Best responses really are the argmax set.
    #[test]
    fn best_responses_are_argmax(seed in 0u64..200, counts in arb_counts()) {
        let game = GameGenerator::seeded(seed).strategic(counts.clone(), -10..=10);
        let base = StrategyProfile::zeros(counts.len());
        for (agent, &count) in counts.iter().enumerate() {
            let brs = game.best_responses(agent, &base);
            prop_assert!(!brs.is_empty());
            let best = game.payoff(agent, &base.with_strategy(agent, brs[0])).clone();
            for s in 0..count {
                let u = game.payoff(agent, &base.with_strategy(agent, s));
                if brs.contains(&s) {
                    prop_assert_eq!(u.clone(), best.clone());
                } else {
                    prop_assert!(u < &best);
                }
            }
        }
    }

    /// profile_le is a partial order: reflexive, transitive; and
    /// incomparability is symmetric and disjoint from comparability.
    #[test]
    fn profile_order_laws(seed in 0u64..100) {
        let counts = vec![2usize, 2, 2];
        let game = GameGenerator::seeded(seed).strategic(counts.clone(), -3..=3);
        let profiles: Vec<StrategyProfile> = ProfileIter::new(counts).collect();
        for a in &profiles {
            prop_assert!(game.profile_le(a, a), "reflexive");
            for b in &profiles {
                prop_assert_eq!(
                    game.profiles_incomparable(a, b),
                    game.profiles_incomparable(b, a),
                    "symmetric incomparability"
                );
                if game.profiles_incomparable(a, b) {
                    prop_assert!(!game.profile_le(a, b) && !game.profile_le(b, a));
                }
                for c in &profiles {
                    if game.profile_le(a, b) && game.profile_le(b, c) {
                        prop_assert!(game.profile_le(a, c), "transitive");
                    }
                }
            }
        }
    }

    /// The exact mixed-Nash check accepts uniform play on zero-sum symmetric
    /// games whose value is 0 only when it is actually an equilibrium; in
    /// particular it always accepts the planted pure equilibrium.
    #[test]
    fn planted_pure_equilibria_verify(seed in 0u64..300, r in 1usize..5, c in 1usize..5) {
        let mut generator = GameGenerator::seeded(seed);
        let planted = ((seed as usize) % r, (seed as usize) % c);
        let game = generator.bimatrix_with_planted_pure(r, c, planted);
        let profile = MixedProfile {
            row: MixedStrategy::pure(r, planted.0),
            col: MixedStrategy::pure(c, planted.1),
        };
        prop_assert!(game.is_nash(&profile));
    }

    /// Expected payoffs are bilinear: E[xᵀAy] interpolates pure payoffs.
    #[test]
    fn expected_payoff_bilinear(seed in 0u64..100) {
        let game = GameGenerator::seeded(seed).bimatrix(2, 2, -10..=10);
        let x = MixedStrategy::try_new(vec![Rational::new(1, 3), Rational::new(2, 3)]).unwrap();
        let y = MixedStrategy::try_new(vec![Rational::new(1, 4), Rational::new(3, 4)]).unwrap();
        let mut expected = Rational::zero();
        for i in 0..2 {
            for j in 0..2 {
                expected += &(&(x.prob(i) * y.prob(j)) * game.a(i, j));
            }
        }
        prop_assert_eq!(game.expected_row_payoff(&x, &y), expected);
    }

    /// Symmetric-game expected payoffs match the strategic expansion when
    /// all agents play the same pure action.
    #[test]
    fn symmetric_matches_expansion(n in 2usize..5, v in 1i64..6, c in 1i64..4) {
        let game = SymmetricBinaryGame::from_fn(n, |own, others| {
            // participation-game shape
            match own {
                1 if others >= 1 => Rational::from(v - c),
                1 => Rational::from(-c),
                0 if others >= 2 => Rational::from(v),
                _ => Rational::zero(),
            }
        });
        let strategic = game.to_strategic();
        // All-participate profile:
        let all_in = StrategyProfile::new(vec![1; n]);
        let expect = game.payoff(1, n - 1).clone();
        for agent in 0..n {
            prop_assert_eq!(strategic.payoff(agent, &all_in).clone(), expect.clone());
        }
        // Expected payoff at p = 1 equals the deterministic payoff.
        prop_assert_eq!(game.expected_payoff(1, &Rational::one()), expect);
    }

    /// swap_roles is an involution preserving the Nash property of swapped
    /// profiles.
    #[test]
    fn swap_roles_involution(seed in 0u64..200, r in 1usize..4, c in 1usize..4) {
        let game = GameGenerator::seeded(seed).bimatrix(r, c, -9..=9);
        let double = game.swap_roles().swap_roles();
        prop_assert_eq!(double.payoff_a().clone(), game.payoff_a().clone());
        prop_assert_eq!(double.payoff_b().clone(), game.payoff_b().clone());
    }
}

#[test]
fn bimatrix_nash_matches_strategic_on_pure_profiles() {
    for seed in 0..50 {
        let game = GameGenerator::seeded(seed).bimatrix(3, 3, -8..=8);
        let strategic = game.to_strategic();
        for p in strategic.profiles() {
            let mp = MixedProfile {
                row: MixedStrategy::pure(3, p.strategy_of(0)),
                col: MixedStrategy::pure(3, p.strategy_of(1)),
            };
            assert_eq!(
                strategic.is_pure_nash(&p),
                game.is_nash(&mp),
                "seed {seed} profile {p}"
            );
        }
    }
}

/// Utility of `agent` under `profile` in the reference game of `seed`: a
/// hash of the whole profile, in -2..=2 so ties are common, and now and
/// then scaled past `i64` so the wide integer form is compared too.
fn reference_payoff(seed: u64, agent: usize, profile: &StrategyProfile) -> Rational {
    let mut h = seed ^ (agent as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for &s in profile.strategies() {
        h = (h ^ s as u64).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 29;
    }
    let small = Rational::from((h % 5) as i64 - 2);
    if h % 13 == 0 {
        small * Rational::from(i64::MAX) * Rational::from(4)
    } else {
        small
    }
}

/// The reference game of `seed` over `counts`.
fn reference_game(seed: u64, counts: &[usize]) -> StrategicGame {
    StrategicGame::from_payoff_fn(counts.to_vec(), |p| {
        (0..counts.len())
            .map(|agent| reference_payoff(seed, agent, p))
            .collect()
    })
}

/// The first improving deviation, found from the reference payoffs alone
/// by cloning each deviating profile.
fn reference_deviation(
    seed: u64,
    counts: &[usize],
    profile: &StrategyProfile,
) -> Option<(usize, usize)> {
    (0..counts.len()).find_map(|agent| {
        let current = reference_payoff(seed, agent, profile);
        (0..counts[agent])
            .filter(|&s| s != profile.strategy_of(agent))
            .find(|&s| reference_payoff(seed, agent, &profile.with_strategy(agent, s)) > current)
            .map(|s| (agent, s))
    })
}

/// Every accessor of `game` agrees with the reference game of `seed`.
fn assert_matches_reference(seed: u64, counts: &[usize], game: &StrategicGame) {
    let profiles = ProfileIter::new(counts.to_vec()).count();
    assert_eq!(game.num_profiles(), profiles, "{counts:?}");
    assert_eq!(game.profiles().count(), profiles, "{counts:?}");
    for profile in ProfileIter::new(counts.to_vec()) {
        let want: Vec<Rational> = (0..counts.len())
            .map(|agent| reference_payoff(seed, agent, &profile))
            .collect();
        assert_eq!(game.payoffs(&profile), &want[..], "{counts:?} {profile}");
        for (agent, utility) in want.iter().enumerate() {
            assert_eq!(
                game.payoff(agent, &profile),
                utility,
                "{counts:?} {profile}"
            );
        }
        let deviation = reference_deviation(seed, counts, &profile);
        assert_eq!(
            game.improving_deviation(&profile),
            deviation,
            "{counts:?} {profile}"
        );
        assert_eq!(game.is_pure_nash(&profile), deviation.is_none());
    }
}

proptest! {
    /// The flat payoff table reads back exactly the utilities it was built
    /// from, and its strided deviation scan finds the same first improving
    /// deviation as a naive scan over cloned profiles.
    #[test]
    fn flat_payoff_table_matches_the_reference(
        seed in any::<u64>(),
        counts in prop::collection::vec(1usize..6, 1..5),
    ) {
        assert_matches_reference(seed, &counts, &reference_game(seed, &counts));
    }
}

#[test]
fn empty_games_have_the_profile_counts_of_their_shapes() {
    // No agents: one empty profile, which is trivially an equilibrium.
    let game = reference_game(7, &[]);
    assert_matches_reference(7, &[], &game);
    assert_eq!(game.num_profiles(), 1);
    assert!(game.is_pure_nash(&StrategyProfile::new(vec![])));
    // An agent with no strategy: no profile at all.
    for counts in [vec![0], vec![2, 0], vec![0, 3, 2]] {
        let game = reference_game(7, &counts);
        assert_matches_reference(7, &counts, &game);
        assert_eq!(game.num_profiles(), 0, "{counts:?}");
    }
}

/// Spec digests key the certificate cache and bind checked theorems, so
/// neither the payoff layout nor the integer representation may move them.
/// A digest may move only with a recorded change of the canonical byte
/// format; these are the digests of the binary rational format (a tag
/// byte and minimal LEB128 magnitudes).
#[test]
fn spec_digests_are_pinned() {
    use ra_games::named::{coordination_game, prisoners_dilemma, stag_hunt};
    let wide = Rational::from(i64::MAX) * Rational::new(i64::MAX, 3);
    let wide_game = StrategicGame::from_payoff_fn(vec![2, 3], |p| {
        let k = (p.strategy_of(0) * 3 + p.strategy_of(1)) as i64;
        vec![&wide * &Rational::from(k - 2), Rational::new(k, 7) - &wide]
    });
    let pinned = [
        (
            prisoners_dilemma().to_strategic(),
            "ff851391a8491bce8726826226238bfe7f6fc2e254ae013acbc5001beadb1d18",
        ),
        (
            stag_hunt(3),
            "5a93c773c686a0b50629c4473f5778c2aa1f23c431f9d5d88c75903a3bbc93fa",
        ),
        (
            coordination_game(16),
            "02e69d00e2cee6f355632637f36e8b3d93337c589b810e2e56f7c6f9275c94a9",
        ),
        (
            wide_game,
            "a83473a988aa2124e67cd9ae0826d351e230875e385d47aa068164722627765a",
        ),
    ];
    for (game, want) in pinned {
        let hex: String = game
            .spec_digest()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, want, "{game:?}");
    }
}
