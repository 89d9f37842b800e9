//! Property-based tests for the inventor-side solvers and provers.
//!
//! The common theme: whatever a solver outputs must pass the *definitional*
//! equilibrium checks from `ra-games` — the same checks the verification
//! side re-derives from certificates. The second half runs every
//! certificate family from its prover through its `ra-proofs` checker:
//!
//! * **Completeness**: honestly generated certificates always verify.
//! * **Soundness**: randomly corrupted certificates are always rejected
//!   (or, when the corruption happens to produce another true statement,
//!   the verified conclusion is still true — acceptance never lies).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use ra_exact::{rat, Rational};
use ra_games::{GameGenerator, MixedProfile, MixedStrategy, ProfileIter, StrategyProfile};
use ra_proofs::kernel::{check, verdict, NotAboveWitness, ProfileVerdict, Proof, Prop};
use ra_proofs::{
    verify_online_advice, verify_participation_certificate, verify_private_advice,
    verify_support_certificate, OnlineInstance, P2Config, ParticipationCertificate,
    ParticipationVerified, SupportCertificate,
};
use ra_solvers::{
    analyze_pure_nash, best_response_dynamics, enumerate_equilibria, honest_online_advice,
    honest_row_advice, lemke_howson, prove_is_nash, prove_max_nash, prove_not_nash,
    solve_participation_equilibrium, DynamicsOutcome, EnumerationOptions, EquilibriumRoot,
    ParticipationParams,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemke–Howson always returns a genuine Nash equilibrium, any label,
    /// any (small) shape, including degenerate games with payoff ties.
    #[test]
    fn lemke_howson_sound(seed in 0u64..1000, r in 1usize..5, c in 1usize..5, lo in -3i64..0) {
        let game = GameGenerator::seeded(seed).bimatrix(r, c, lo..=3);
        let label = (seed as usize) % (r + c);
        let eq = lemke_howson(&game, label).unwrap();
        prop_assert!(game.is_nash(&eq));
    }

    /// Support enumeration returns only genuine equilibria, with correct
    /// supports and λ values.
    #[test]
    fn support_enumeration_sound(seed in 0u64..500, r in 1usize..4, c in 1usize..4) {
        let game = GameGenerator::seeded(seed).bimatrix(r, c, -10..=10);
        let (eqs, _) = enumerate_equilibria(&game, &EnumerationOptions::default());
        prop_assert!(!eqs.is_empty(), "full enumeration over all support pairs finds at least one equilibrium in games this small");
        for eq in &eqs {
            prop_assert!(game.is_nash(&eq.profile));
            prop_assert_eq!(eq.profile.row.support(), eq.row_support.clone());
            prop_assert_eq!(eq.profile.col.support(), eq.col_support.clone());
            let (l1, l2) = game.equilibrium_values(&eq.profile);
            prop_assert_eq!(&l1, &eq.lambda1);
            prop_assert_eq!(&l2, &eq.lambda2);
        }
    }

    /// Exhaustive PNE analysis: equilibria list matches a from-scratch
    /// filter; maximal/minimal classifications are internally consistent.
    #[test]
    fn pure_analysis_consistent(seed in 0u64..300) {
        let counts = vec![2usize, 3, 2];
        let game = GameGenerator::seeded(seed).strategic(counts.clone(), -6..=6);
        let analysis = analyze_pure_nash(&game);
        let direct: Vec<_> = ProfileIter::new(counts).filter(|p| game.is_pure_nash(p)).collect();
        prop_assert_eq!(&analysis.equilibria, &direct);
        for m in &analysis.maximal {
            prop_assert!(game.is_maximal_nash(m));
        }
        for m in &analysis.minimal {
            prop_assert!(game.is_minimal_nash(m));
        }
        // Every equilibrium is dominated by some maximal one or is maximal.
        for e in &analysis.equilibria {
            prop_assert!(
                analysis.maximal.iter().any(|m| game.profile_le(e, m) || e == m)
                    || analysis.maximal.is_empty()
            );
        }
    }

    /// Best-response dynamics never claims convergence to a non-equilibrium.
    #[test]
    fn dynamics_sound(seed in 0u64..300, budget in 1usize..100) {
        let game = GameGenerator::seeded(seed).strategic(vec![3, 3], -8..=8);
        if let DynamicsOutcome::Converged { equilibrium, .. } =
            best_response_dynamics(&game, vec![0, 0].into(), budget)
        {
            prop_assert!(game.is_pure_nash(&equilibrium));
        }
    }

    /// Participation-game roots: every root returned satisfies (or brackets)
    /// the indifference equation, and roots are correctly ordered around the
    /// peak.
    #[test]
    fn participation_roots_sound(n in 2u64..9, k_off in 0u64..7, v_num in 2i64..50, c_num in 1i64..49) {
        let k = 2 + (k_off % (n.max(2) - 1)).min(n - 2);
        prop_assume!(k >= 2 && k <= n);
        prop_assume!(c_num < v_num);
        let params = ParticipationParams::new(
            n, k, Rational::from(v_num), Rational::from(c_num),
        ).unwrap();
        let tol = rat(1, 1 << 24);
        match solve_participation_equilibrium(&params, &tol) {
            Ok(roots) => {
                prop_assert!(!roots.is_empty());
                prop_assert!(roots.len() <= 2);
                for root in &roots {
                    match root {
                        EquilibriumRoot::Exact(p) => {
                            prop_assert_eq!(params.indifference_fn(p), Rational::zero());
                            prop_assert!(!p.is_negative() && p <= &Rational::one());
                        }
                        EquilibriumRoot::Bracket { lo, hi } => {
                            prop_assert!((hi - lo) <= tol);
                            let s_lo = params.indifference_fn(lo).is_negative();
                            let s_hi = params.indifference_fn(hi).is_negative();
                            prop_assert!(s_lo != s_hi, "bracket must straddle a sign change");
                        }
                    }
                }
            }
            Err(_) => {
                // No interior equilibrium: the peak value must be negative.
                prop_assert!(params.indifference_fn(&params.peak()).is_negative());
            }
        }
    }
}

/// Battle-of-sexes-like games: LH from all labels and support enumeration
/// must agree on the *set* of equilibrium payoffs for nondegenerate games.
#[test]
fn lh_subset_of_enumeration_nondegenerate() {
    let mut checked = 0;
    for seed in 0..120u64 {
        let game = GameGenerator::seeded(seed).bimatrix(3, 3, -50..=50);
        let (eqs, _) = enumerate_equilibria(&game, &EnumerationOptions::default());
        // Heuristic nondegeneracy filter: all equilibria have equal-sized
        // supports and the counts are odd (nondegenerate games have an odd
        // number of equilibria).
        if eqs.len() % 2 == 0
            || eqs
                .iter()
                .any(|e| e.row_support.len() != e.col_support.len())
        {
            continue;
        }
        checked += 1;
        for label in 0..6 {
            let lh = lemke_howson(&game, label).unwrap();
            // The LH endpoint itself can expose a degeneracy (payoff tie)
            // that the enumerated equilibria do not show: unequal support
            // sizes. Soundness still must hold; containment need not.
            if lh.row.support().len() != lh.col.support().len() {
                assert!(game.is_nash(&lh), "seed {seed}, label {label}");
                continue;
            }
            assert!(
                eqs.iter().any(|e| e.profile == lh),
                "seed {seed}, label {label}"
            );
        }
    }
    assert!(
        checked > 20,
        "expected plenty of nondegenerate instances, got {checked}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// §3 maximality proofs: prover succeeds exactly on maximal equilibria,
    /// and a maximality proof replayed for a *different* profile fails.
    #[test]
    fn max_nash_certificates_exact(seed in 0u64..500) {
        let game = GameGenerator::seeded(seed).strategic(vec![2, 2, 2], -5..=5);
        let equilibria = game.pure_nash_equilibria();
        for profile in game.profiles() {
            match prove_max_nash(&game, &profile) {
                Some(proof) => {
                    prop_assert!(game.is_maximal_nash(&profile));
                    let theorem = check(&game, &proof).expect("honest proof checks");
                    prop_assert_eq!(theorem.prop(), &Prop::IsMaxNash(profile.clone()));
                }
                None => prop_assert!(!game.is_maximal_nash(&profile)),
            }
        }
        // Splice a valid proof's root onto a different profile: must be
        // rejected.
        if let (Some(maximal), Some(other)) = (
            equilibria.iter().find(|e| game.is_maximal_nash(e)),
            game.profiles().find(|p| !game.is_maximal_nash(p)),
        ) {
            let Some(Proof::MaxNashIntro { nash, classification, .. }) = prove_max_nash(&game, maximal) else {
                unreachable!("provable")
            };
            let spliced = Proof::MaxNashIntro { profile: other, nash, classification };
            prop_assert!(check(&game, &spliced).is_err());
        }
    }

    /// The kernel's two entries are one rule body. Over random games, for
    /// honest, spliced and forged `IsNash`/`IsMaxNash` proofs, `verdict`
    /// and `check` agree on accept/reject and on the error, and the theorem
    /// `check` mints is the proof's claim.
    #[test]
    fn verdict_and_check_agree(seed in 0u64..2000, forge in any::<u64>()) {
        let shapes = [vec![2, 3], vec![3, 3], vec![2, 2, 2]];
        let counts = shapes[seed as usize % shapes.len()].clone();
        let game = GameGenerator::seeded(seed).strategic(counts.clone(), -4..=4);
        let profiles: Vec<StrategyProfile> = game.profiles().collect();
        let n = profiles.len();
        let mut claims = Vec::new();
        for (i, profile) in profiles.iter().enumerate() {
            // Honest on equilibria, forged everywhere else.
            claims.push(prove_is_nash(profile.clone()));
            // A maximality proof whose classification labels every profile
            // as below the candidate.
            claims.push(Proof::MaxNashIntro {
                profile: profile.clone(),
                nash: Box::new(prove_is_nash(profile.clone())),
                classification: vec![ProfileVerdict::NotStrictlyBetter(NotAboveWitness::LeCandidate); n],
            });
            let Some(max) = prove_max_nash(&game, profile) else { continue };
            // One classification entry overwritten by a forged verdict.
            let Proof::MaxNashIntro { nash, classification, .. } = &max else { unreachable!() };
            let mut forged_classification = classification.clone();
            let agent = (forge as usize) % counts.len();
            forged_classification[(forge >> 8) as usize % n] = if forge >> 16 & 1 == 0 {
                ProfileVerdict::NotNash { agent, strategy: (forge >> 24) as usize % counts[agent] }
            } else {
                ProfileVerdict::NotStrictlyBetter(NotAboveWitness::PrefersCandidate { agent })
            };
            claims.push(Proof::MaxNashIntro {
                profile: profile.clone(),
                nash: Box::new(prove_is_nash(profile.clone())),
                classification: forged_classification,
            });
            // The honest proof, then its root spliced onto every other
            // profile.
            for other in &profiles {
                claims.push(Proof::MaxNashIntro {
                    profile: other.clone(),
                    nash: nash.clone(),
                    classification: classification.clone(),
                });
            }
            // Spliced the other way: another equilibrium's `IsNash` proof
            // as the maximality sub-proof.
            let j = (i + 1 + (forge >> 32) as usize % n) % n;
            let Proof::MaxNashIntro { classification, .. } = max else { unreachable!() };
            claims.push(Proof::MaxNashIntro {
                profile: profile.clone(),
                nash: Box::new(prove_is_nash(profiles[j].clone())),
                classification,
            });
        }
        for proof in claims {
            let theorem = check(&game, &proof);
            prop_assert_eq!(
                verdict(&game, &proof).map(|()| proof.claims()),
                theorem.clone().map(|t| t.prop().clone())
            );
            if let Ok(theorem) = theorem {
                prop_assert!(theorem.applies_to(&game));
            }
        }
    }

    /// §3 refutations: sound and complete on random games.
    #[test]
    fn refutations_exact(seed in 0u64..2000) {
        let game = GameGenerator::seeded(seed).strategic(vec![2, 4], -6..=6);
        for profile in game.profiles() {
            match prove_not_nash(&game, &profile) {
                Some(proof) => {
                    prop_assert!(!game.is_pure_nash(&profile));
                    prop_assert!(check(&game, &proof).is_ok());
                }
                None => prop_assert!(game.is_pure_nash(&profile)),
            }
        }
    }

    /// P1 completeness on solver output + soundness under support
    /// corruption: any accepted certificate reconstructs a genuine Nash
    /// equilibrium, corrupted or not.
    #[test]
    fn p1_sound_under_corruption(seed in 0u64..800, flip in 0usize..6) {
        let game = GameGenerator::seeded(seed).bimatrix(3, 3, -9..=9);
        let (eqs, _) = enumerate_equilibria(&game, &EnumerationOptions::default());
        prop_assume!(!eqs.is_empty());
        let eq = &eqs[0];
        let mut cert = SupportCertificate {
            row_support: eq.row_support.clone(),
            col_support: eq.col_support.clone(),
        };
        // Flip one strategy's membership in one of the supports.
        let (support, idx) = if flip < 3 {
            (&mut cert.row_support, flip)
        } else {
            (&mut cert.col_support, flip - 3)
        };
        match support.iter().position(|&s| s == idx) {
            Some(pos) => {
                support.remove(pos);
            }
            None => {
                support.push(idx);
                support.sort_unstable();
            }
        }
        if support.is_empty() {
            // Emptied support: must be rejected as malformed.
            prop_assert!(verify_support_certificate(&game, &cert).is_err());
        } else if let Ok(verified) = verify_support_certificate(&game, &cert) {
            // The corrupted support accidentally described another
            // equilibrium — acceptance must still be *true*.
            prop_assert!(game.is_nash(&verified.profile));
        }
    }

    /// P2 completeness: honest advice from any solver equilibrium accepted.
    #[test]
    fn p2_completeness(seed in 0u64..300) {
        let game = GameGenerator::seeded(seed).bimatrix(3, 3, -9..=9);
        let (eqs, _) = enumerate_equilibria(&game, &EnumerationOptions::default());
        prop_assume!(!eqs.is_empty());
        let eq = &eqs[0];
        let advice = honest_row_advice(&game, &eq.profile);
        let mut oracle = |j| Some(eq.col_support.contains(&j));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let outcome = verify_private_advice(&game, &advice, &mut oracle, &mut rng, &P2Config::default());
        prop_assert!(outcome.is_accepted());
    }

    /// P2 soundness: advice whose λ_opp is perturbed is rejected whenever
    /// the verifier gets a conclusive sample.
    #[test]
    fn p2_rejects_wrong_lambda(seed in 0u64..300, delta_num in 1i64..5) {
        let game = GameGenerator::seeded(seed).bimatrix(3, 3, -9..=9);
        let (eqs, _) = enumerate_equilibria(&game, &EnumerationOptions::default());
        prop_assume!(!eqs.is_empty());
        let eq = &eqs[0];
        let mut advice = honest_row_advice(&game, &eq.profile);
        advice.lambda_opp = &advice.lambda_opp + &rat(delta_num, 7);
        let mut oracle = |j| Some(eq.col_support.contains(&j));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
        let outcome = verify_private_advice(&game, &advice, &mut oracle, &mut rng, &P2Config::default());
        prop_assert!(!outcome.is_accepted(), "perturbed λ must never be accepted");
    }

    /// §5 certificates: solver output verifies; perturbed exact roots are
    /// rejected.
    #[test]
    fn participation_sound(n in 3u64..8, v_num in 3i64..30, c_num in 1i64..29, noise in 1i64..100) {
        prop_assume!(c_num < v_num);
        let params = ParticipationParams::new(n, 2, Rational::from(v_num), Rational::from(c_num)).unwrap();
        let tol = rat(1, 1 << 22);
        let Ok(roots) = solve_participation_equilibrium(&params, &tol) else {
            return Ok(());
        };
        for root in roots {
            let cert = ParticipationCertificate { root: root.clone() };
            prop_assert!(verify_participation_certificate(&params, &cert, &tol).is_ok());
            if let EquilibriumRoot::Exact(p) = &root {
                let perturbed = ParticipationCertificate {
                    root: EquilibriumRoot::Exact(p + &rat(noise, 100_000)),
                };
                prop_assert!(verify_participation_certificate(&params, &perturbed, &tol).is_err());
            }
        }
    }

    /// §6 advice: honest construction always verifies; rerouting the
    /// suggestion to a different link is rejected (either as a mismatch or,
    /// if the assignment is edited consistently, as a non-equilibrium)
    /// unless the links genuinely tie.
    #[test]
    fn online_advice_sound(
        loads in prop::collection::vec(0i64..50, 2..6),
        own in 1i64..40,
        future in 0i64..20,
        agents in 0usize..5,
    ) {
        let current: Vec<Rational> = loads.iter().map(|&l| Rational::from(l)).collect();
        let (own, future) = (Rational::from(own), Rational::from(future));
        let instance = OnlineInstance {
            current_loads: &current,
            own_load: &own,
            expected_future_load: &future,
            expected_future_agents: agents,
        };
        let cert = honest_online_advice(&instance).expect("instance has links");
        let verified = verify_online_advice(&instance, &cert).expect("honest advice verifies");
        prop_assert_eq!(verified.link, cert.suggested_link);
        // Tamper: point the suggestion elsewhere without editing the
        // assignment — always caught.
        let mut tampered = cert.clone();
        tampered.suggested_link = (cert.suggested_link + 1) % current.len();
        prop_assert!(verify_online_advice(&instance, &tampered).is_err());
    }
}

/// Spliced P2 advice across games: honest advice for game A fed to the
/// verifier of game B must not be accepted (unless coincidentally valid).
#[test]
fn p2_advice_not_transferable() {
    let game_a = GameGenerator::seeded(1).bimatrix(3, 3, -9..=9);
    let game_b = GameGenerator::seeded(2).bimatrix(3, 3, -9..=9);
    let (eqs, _) = enumerate_equilibria(&game_a, &EnumerationOptions::default());
    let eq = &eqs[0];
    let advice = honest_row_advice(&game_a, &eq.profile);
    let mut rejected = 0;
    for seed in 0..20 {
        let mut oracle = |j| Some(eq.col_support.contains(&j));
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = verify_private_advice(
            &game_b,
            &advice,
            &mut oracle,
            &mut rng,
            &P2Config::default(),
        );
        if !outcome.is_accepted() {
            rejected += 1;
        }
    }
    assert!(
        rejected >= 15,
        "cross-game advice rejected in {rejected}/20 runs"
    );
}

/// The paper's worked §5 numbers as a cross-crate integration check.
#[test]
fn paper_section5_numbers() {
    let params = ParticipationParams::paper_example();
    let roots = solve_participation_equilibrium(&params, &rat(1, 1 << 26)).unwrap();
    assert_eq!(roots[0], EquilibriumRoot::Exact(rat(1, 4)));
    let cert = ParticipationCertificate {
        root: roots[0].clone(),
    };
    let p = verify_participation_certificate(&params, &cert, &rat(1, 1024)).unwrap();
    // Expected gain v/16 with v = 8.
    assert_eq!(
        ParticipationVerified::at(&params, p).expected_gain,
        rat(1, 2)
    );
}

/// Fig. 5 / Remark 2: the row agent's P2 view is consistent with a
/// continuum of column strategies — verify several and confirm none is
/// distinguished by the advice.
#[test]
fn fig5_remark2_ambiguity() {
    let game = ra_games::named::fig5_game();
    let advices: Vec<_> = [
        (rat(1, 1), rat(0, 1)),
        (rat(3, 4), rat(1, 4)),
        (rat(1, 2), rat(1, 2)),
    ]
    .into_iter()
    .map(|(qc, qd)| {
        let profile = MixedProfile {
            row: MixedStrategy::pure(2, 0),
            col: MixedStrategy::try_new(vec![qc, qd]).unwrap(),
        };
        assert!(game.is_nash(&profile));
        honest_row_advice(&game, &profile)
    })
    .collect();
    // All equilibria in the continuum induce the *identical* row-agent
    // advice — the row agent cannot tell them apart (Remark 2).
    assert!(advices.windows(2).all(|w| w[0] == w[1]));
}
