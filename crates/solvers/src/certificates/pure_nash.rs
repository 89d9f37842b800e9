//! §3 certificates: inventor-side proof generation for pure equilibria.
//!
//! The inventor runs the expensive exhaustive analysis and packages the
//! result as a kernel-checkable [`Proof`]. Agents re-check with
//! [`ra_proofs::kernel::verdict`] — they never rerun the search.

use ra_games::{StrategicGame, StrategyProfile};
use ra_proofs::kernel::{NotAboveWitness, ProfileVerdict, Proof};

/// Builds an `IsNash` proof for a profile the inventor believes to be an
/// equilibrium. (The kernel will catch it if the belief is wrong.)
pub fn prove_is_nash(profile: StrategyProfile) -> Proof {
    Proof::NashIntro { profile }
}

/// Builds a `NotNash` refutation by searching for an improving deviation.
///
/// Returns `None` if the profile actually is an equilibrium.
pub fn prove_not_nash(game: &StrategicGame, profile: &StrategyProfile) -> Option<Proof> {
    let (agent, strategy) = game.improving_deviation(profile)?;
    Some(Proof::NashRefute {
        profile: profile.clone(),
        agent,
        strategy,
    })
}

/// Builds the complete Fig. 2-style maximality proof for `candidate`:
/// a Nash sub-proof plus a verdict for *every* profile of the game.
///
/// This is the expensive inventor-side step (`Θ(|A|)` classification work on
/// top of the equilibrium search already done); the returned proof checks in
/// `O(|A|)` cheap steps.
///
/// Returns `None` if `candidate` is not an equilibrium or not maximal.
pub fn prove_max_nash(game: &StrategicGame, candidate: &StrategyProfile) -> Option<Proof> {
    prove_extremal(game, candidate, true)
}

/// Dual of [`prove_max_nash`] for minimal equilibria (footnote 1).
pub fn prove_min_nash(game: &StrategicGame, candidate: &StrategyProfile) -> Option<Proof> {
    prove_extremal(game, candidate, false)
}

fn prove_extremal(game: &StrategicGame, candidate: &StrategyProfile, max: bool) -> Option<Proof> {
    if !game.is_pure_nash(candidate) {
        return None;
    }
    let mut classification = Vec::with_capacity(game.num_profiles());
    for other in game.profiles() {
        if let Some((agent, strategy)) = game.improving_deviation(&other) {
            classification.push(ProfileVerdict::NotNash { agent, strategy });
            continue;
        }
        // `other` is an equilibrium; find a non-domination witness.
        let le_holds = if max {
            game.profile_le(&other, candidate)
        } else {
            game.profile_le(candidate, &other)
        };
        if le_holds {
            classification.push(ProfileVerdict::NotStrictlyBetter(
                NotAboveWitness::LeCandidate,
            ));
            continue;
        }
        // Find an agent strictly preferring the required side.
        let witness = (0..game.num_agents()).find(|&agent| {
            if max {
                game.payoff(agent, candidate) > game.payoff(agent, &other)
            } else {
                game.payoff(agent, &other) > game.payoff(agent, candidate)
            }
        });
        match witness {
            Some(agent) => classification.push(ProfileVerdict::NotStrictlyBetter(
                NotAboveWitness::PrefersCandidate { agent },
            )),
            // No witness: `other` strictly dominates (is dominated by) the
            // candidate — the candidate is not maximal (minimal).
            None => return None,
        }
    }
    let nash = Box::new(Proof::NashIntro {
        profile: candidate.clone(),
    });
    Some(if max {
        Proof::MaxNashIntro {
            profile: candidate.clone(),
            nash,
            classification,
        }
    } else {
        Proof::MinNashIntro {
            profile: candidate.clone(),
            nash,
            classification,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_games::named::{coordination_game, prisoners_dilemma, stag_hunt};
    use ra_games::GameGenerator;
    use ra_proofs::kernel::{check, ProofError, Prop};

    #[test]
    fn honest_nash_certificate_verifies() {
        let game = prisoners_dilemma().to_strategic();
        let proof = prove_is_nash(vec![1, 1].into());
        let theorem = check(&game, &proof).unwrap();
        assert_eq!(theorem.prop(), &Prop::IsNash(vec![1, 1].into()));
        assert_eq!(proof.equilibrium_profile(), Some(&vec![1, 1].into()));
    }

    #[test]
    fn dishonest_nash_certificate_rejected() {
        let game = prisoners_dilemma().to_strategic();
        assert!(!check_ok(&game, &prove_is_nash(vec![0, 0].into())));
    }

    #[test]
    fn mismatched_profile_rejected() {
        let game = coordination_game(3);
        // A maximality proof of (2,2) whose root is moved onto (0,0):
        // its Nash sub-proof no longer proves the root's profile.
        let Some(Proof::MaxNashIntro {
            nash,
            classification,
            ..
        }) = prove_max_nash(&game, &vec![2, 2].into())
        else {
            panic!("(2,2) is the maximal equilibrium");
        };
        let spliced = Proof::MaxNashIntro {
            profile: vec![0, 0].into(),
            nash,
            classification,
        };
        assert!(matches!(
            check(&game, &spliced),
            Err(ProofError::SubProofMismatch { .. })
        ));
    }

    #[test]
    fn refutations_generated_and_checked() {
        let game = prisoners_dilemma().to_strategic();
        let proof = prove_not_nash(&game, &vec![0, 0].into()).unwrap();
        assert!(check_ok(&game, &proof));
        assert!(prove_not_nash(&game, &vec![1, 1].into()).is_none());
    }

    fn check_ok(game: &ra_games::StrategicGame, proof: &Proof) -> bool {
        check(game, proof).is_ok()
    }

    #[test]
    fn max_proofs_for_known_games() {
        let game = coordination_game(3);
        let proof = prove_max_nash(&game, &vec![2, 2].into()).unwrap();
        assert!(check_ok(&game, &proof));
        assert!(prove_max_nash(&game, &vec![0, 0].into()).is_none());
        let min_proof = prove_min_nash(&game, &vec![0, 0].into()).unwrap();
        assert!(check_ok(&game, &min_proof));
        assert!(prove_min_nash(&game, &vec![2, 2].into()).is_none());
    }

    #[test]
    fn stag_hunt_maximal() {
        let game = stag_hunt(3);
        let proof = prove_max_nash(&game, &vec![1, 1, 1].into()).unwrap();
        let theorem = check(&game, &proof).unwrap();
        assert_eq!(theorem.prop(), &Prop::IsMaxNash(vec![1, 1, 1].into()));
        // Proof classification covers all 8 profiles.
        let Proof::MaxNashIntro { classification, .. } = &proof else {
            panic!("a maximality proof is a MaxNashIntro");
        };
        assert_eq!(classification.len(), 8);
    }

    #[test]
    fn generated_proofs_always_check_on_random_games() {
        for seed in 0..60 {
            let game = GameGenerator::seeded(seed).strategic(vec![3, 3], -6..=6);
            for profile in game.profiles() {
                if game.is_pure_nash(&profile) {
                    assert!(
                        check_ok(&game, &prove_is_nash(profile.clone())),
                        "seed {seed}"
                    );
                    if game.is_maximal_nash(&profile) {
                        let p = prove_max_nash(&game, &profile).expect("maximal provable");
                        assert!(check_ok(&game, &p), "seed {seed}");
                    } else {
                        assert!(prove_max_nash(&game, &profile).is_none(), "seed {seed}");
                    }
                } else {
                    let p = prove_not_nash(&game, &profile).expect("refutable");
                    assert!(check_ok(&game, &p), "seed {seed}");
                }
            }
        }
    }
}
