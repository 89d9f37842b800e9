//! Property-based soundness tests of the kernel and the P1 checker on
//! literal advice: an `IsNash` proof is its root alone, so these need no
//! prover. The round trips from the provers in `ra-solvers` through these
//! checkers are that crate's `tests/proptests.rs`.

use proptest::prelude::*;

use ra_games::{GameGenerator, StrategyProfile};
use ra_proofs::kernel::{check, Proof};
use ra_proofs::{verify_support_certificate, SupportCertificate};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// §3 completeness + soundness for `IsNash` claims on random games.
    #[test]
    fn pure_nash_certificates_exact(seed in 0u64..2000) {
        let game = GameGenerator::seeded(seed).strategic(vec![3, 3], -8..=8);
        for profile in game.profiles() {
            let proof = Proof::NashIntro { profile: profile.clone() };
            prop_assert_eq!(check(&game, &proof).is_ok(), game.is_pure_nash(&profile));
        }
    }

    /// Corrupted refutation witnesses never pass.
    #[test]
    fn corrupted_refutations_rejected(seed in 0u64..1000, agent in 0usize..2, strat in 0usize..4) {
        let game = GameGenerator::seeded(seed).strategic(vec![4, 4], -6..=6);
        for profile in game.pure_nash_equilibria() {
            let forged = Proof::NashRefute { profile: profile.clone(), agent, strategy: strat };
            prop_assert!(check(&game, &forged).is_err(),
                "an equilibrium cannot be refuted (seed {})", seed);
        }
    }
}

/// Kernel fingerprints stop cross-game replay of §3 theorems.
#[test]
fn theorems_bound_to_games() {
    let game_a = GameGenerator::seeded(11).strategic(vec![2, 2], -5..=5);
    let game_b = GameGenerator::seeded(12).strategic(vec![2, 2], -5..=5);
    for profile in game_a.pure_nash_equilibria() {
        let theorem = check(&game_a, &Proof::NashIntro { profile }).unwrap();
        assert!(theorem.applies_to(&game_a));
        assert!(!theorem.applies_to(&game_b));
    }
}

/// Pure profiles: P1 certificates and §3 kernel proofs agree on every
/// 2-agent pure equilibrium.
#[test]
fn p1_and_kernel_agree_on_pure_profiles() {
    for seed in 0..40u64 {
        let game = GameGenerator::seeded(seed).bimatrix(3, 3, -7..=7);
        let strategic = game.to_strategic();
        for i in 0..3 {
            for j in 0..3 {
                let cert = SupportCertificate {
                    row_support: vec![i],
                    col_support: vec![j],
                };
                let p1_ok = verify_support_certificate(&game, &cert).is_ok();
                let profile = StrategyProfile::new(vec![i, j]);
                let kernel_ok = check(
                    &strategic,
                    &Proof::NashIntro {
                        profile: profile.clone(),
                    },
                )
                .is_ok();
                assert_eq!(
                    p1_ok, kernel_ok,
                    "seed {seed}, profile {profile}: P1 and kernel disagree"
                );
            }
        }
    }
}
