//! The trusted proof checker — the kernel of the rationality authority.
//!
//! This is the only code an agent must trust (the paper's "verification
//! procedure v() supplied by a reputable verifier"). It is deliberately
//! small: every rule reduces to exact rational comparisons of utility
//! lookups. Proofs are untrusted input from the (possibly biased) inventor;
//! the checker either establishes a proposition or reports precisely why
//! the proof is invalid.
//!
//! A proof that passes the rules proves exactly what it claims,
//! [`Proof::claims`]. [`verdict`] runs the rules and builds nothing;
//! [`check`] runs the same rules and mints a [`CheckedProp`] of that claim,
//! bound to the game.
//!
//! Soundness argument, rule by rule, is in each match arm below; the
//! [`CheckedProp`] type cannot be constructed outside this module, so a
//! value of that type *is* the theorem (LCF style).

use std::fmt;

use ra_games::{StrategicGame, StrategyProfile};

use super::proof::{NotAboveWitness, ProfileVerdict, Proof};
use super::prop::Prop;
use super::term::TermError;

/// A proposition that has been *verified* against a specific game.
///
/// Values of this type can only be produced by [`check`]; holding one is
/// holding the theorem. (The constructor is private — this is the Rust
/// encoding of an LCF-style kernel.) It is bound to the game's SHA-256
/// [`StrategicGame::spec_digest`], so it cannot be replayed on another.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckedProp {
    prop: Prop,
    digest: [u8; 32],
}

impl CheckedProp {
    /// The proposition that was established.
    pub fn prop(&self) -> &Prop {
        &self.prop
    }

    /// Spec digest of the game the proposition was checked against.
    pub fn game_digest(&self) -> [u8; 32] {
        self.digest
    }

    /// Returns `true` if this theorem talks about the given game.
    pub fn applies_to(&self, game: &StrategicGame) -> bool {
        self.digest == game.spec_digest()
    }
}

/// Reasons a proof can be rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// `EvalAtom` was applied to a non-atomic proposition.
    NotAtomic(Prop),
    /// An atomic proposition evaluated to false.
    AtomFalse(Prop),
    /// A term referred outside the game.
    Term(TermError),
    /// `OrIntro` index out of range.
    OrIndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of disjuncts.
        len: usize,
    },
    /// The witness inside an `OrIntro` proves a different disjunct.
    OrWitnessMismatch {
        /// What the disjunct at the index is.
        expected: Prop,
        /// What the witness actually claims.
        actual: Prop,
    },
    /// A claimed equilibrium profile is malformed for the game.
    InvalidProfile(StrategyProfile),
    /// `NashIntro` failed: the profile admits an improving deviation.
    DeviationFound {
        /// The profile that is not an equilibrium.
        profile: StrategyProfile,
        /// Deviating agent.
        agent: usize,
        /// Improving strategy.
        strategy: usize,
    },
    /// A `NashRefute` witness is out of range or not improving.
    RefutationInvalid {
        /// Why the witness fails.
        reason: String,
    },
    /// A maximality classification has the wrong length.
    ClassificationLength {
        /// Provided entries.
        got: usize,
        /// Required entries (profile-space size).
        expected: usize,
    },
    /// A classification verdict fails to check at some profile.
    VerdictInvalid {
        /// Index of the profile (in enumeration order).
        profile_index: usize,
        /// Why the verdict fails.
        reason: String,
    },
    /// The `nash` sub-proof of a max/min proof proves the wrong statement.
    SubProofMismatch {
        /// What was required.
        expected: Prop,
        /// What the sub-proof established.
        actual: Prop,
    },
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofError::NotAtomic(p) => write!(f, "EvalAtom on non-atomic proposition {p}"),
            ProofError::AtomFalse(p) => write!(f, "atomic proposition is false: {p}"),
            ProofError::Term(e) => write!(f, "{e}"),
            ProofError::OrIndexOutOfRange { index, len } => {
                write!(f, "disjunct index {index} out of range ({len} disjuncts)")
            }
            ProofError::OrWitnessMismatch { expected, actual } => {
                write!(f, "or-witness proves {actual}, expected {expected}")
            }
            ProofError::InvalidProfile(s) => write!(f, "profile {s} invalid for game"),
            ProofError::DeviationFound { profile, agent, strategy } => write!(
                f,
                "profile {profile} is not an equilibrium: agent {agent} improves by strategy {strategy}"
            ),
            ProofError::RefutationInvalid { reason } => write!(f, "refutation invalid: {reason}"),
            ProofError::ClassificationLength { got, expected } => {
                write!(f, "classification covers {got} profiles, game has {expected}")
            }
            ProofError::VerdictInvalid { profile_index, reason } => {
                write!(f, "verdict for profile #{profile_index} invalid: {reason}")
            }
            ProofError::SubProofMismatch { expected, actual } => {
                write!(f, "sub-proof proves {actual}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for ProofError {}

impl From<TermError> for ProofError {
    fn from(e: TermError) -> ProofError {
        ProofError::Term(e)
    }
}

/// Runs [`check`]'s rules, minting no theorem and building no
/// proposition: on `Ok`, `proof` proves [`Proof::claims`]. The game is
/// never hashed, so a verdict costs only its rules.
///
/// # Errors
///
/// Returns a [`ProofError`] describing the first invalid step found.
pub fn verdict(game: &StrategicGame, proof: &Proof) -> Result<(), ProofError> {
    check_inner(game, proof)
}

/// Checks `proof` against `game` and mints the theorem: [`verdict`] plus
/// the binding to [`StrategicGame::spec_digest`], whose first computation
/// on a game encodes and hashes the whole payoff tensor.
///
/// # Errors
///
/// Returns a [`ProofError`] describing the first invalid step found.
///
/// # Examples
///
/// ```
/// use ra_games::named::prisoners_dilemma;
/// use ra_proofs::kernel::{check, Proof, Prop};
///
/// let game = prisoners_dilemma().to_strategic();
/// let proof = Proof::NashIntro { profile: vec![1, 1].into() };
/// let theorem = check(&game, &proof).unwrap();
/// assert_eq!(theorem.prop(), &Prop::IsNash(vec![1, 1].into()));
///
/// // A false claim is rejected, with the improving deviation reported.
/// let bogus = Proof::NashIntro { profile: vec![0, 0].into() };
/// assert!(check(&game, &bogus).is_err());
/// ```
pub fn check(game: &StrategicGame, proof: &Proof) -> Result<CheckedProp, ProofError> {
    check_inner(game, proof)?;
    Ok(CheckedProp {
        prop: proof.claims(),
        digest: game.spec_digest(),
    })
}

fn check_inner(game: &StrategicGame, proof: &Proof) -> Result<(), ProofError> {
    match proof {
        Proof::EvalAtom(prop) => {
            if !prop.is_atomic() {
                return Err(ProofError::NotAtomic(prop.clone()));
            }
            if eval_atom(game, prop)? {
                Ok(())
            } else {
                Err(ProofError::AtomFalse(prop.clone()))
            }
        }
        Proof::AndIntro(parts) => parts.iter().try_for_each(|part| check_inner(game, part)),
        Proof::OrIntro {
            disjuncts,
            index,
            witness,
        } => {
            let expected = disjuncts.get(*index).ok_or(ProofError::OrIndexOutOfRange {
                index: *index,
                len: disjuncts.len(),
            })?;
            check_inner(game, witness)?;
            let actual = witness.claims();
            if &actual != expected {
                return Err(ProofError::OrWitnessMismatch {
                    expected: expected.clone(),
                    actual,
                });
            }
            Ok(())
        }
        Proof::NashIntro { profile } => check_is_nash(game, profile),
        Proof::NashRefute {
            profile,
            agent,
            strategy,
        } => check_refutation(game, profile, *agent, *strategy),
        Proof::MaxNashIntro {
            profile,
            nash,
            classification,
        } => check_extremal(game, profile, nash, classification, Extremum::Max),
        Proof::MinNashIntro {
            profile,
            nash,
            classification,
        } => check_extremal(game, profile, nash, classification, Extremum::Min),
    }
}

fn eval_atom(game: &StrategicGame, prop: &Prop) -> Result<bool, ProofError> {
    Ok(match prop {
        Prop::Le(a, b) => a.eval(game)? <= b.eval(game)?,
        Prop::Lt(a, b) => a.eval(game)? < b.eval(game)?,
        Prop::Eq(a, b) => a.eval(game)? == b.eval(game)?,
        Prop::IsStrat(s) => s.is_valid_for(game.strategy_counts()),
        Prop::EqStrat(a, b) => a == b,
        Prop::LeStrat(a, b) => {
            require_valid(game, a)?;
            require_valid(game, b)?;
            game.profile_le(a, b)
        }
        Prop::NoComp(a, b) => {
            require_valid(game, a)?;
            require_valid(game, b)?;
            game.profiles_incomparable(a, b)
        }
        _ => unreachable!("is_atomic filtered non-atoms"),
    })
}

fn require_valid(game: &StrategicGame, s: &StrategyProfile) -> Result<(), ProofError> {
    if s.is_valid_for(game.strategy_counts()) {
        Ok(())
    } else {
        Err(ProofError::InvalidProfile(s.clone()))
    }
}

/// Soundness of `NashIntro`: we *re-derive* the equilibrium property by
/// checking all `Σ_i (|A_i| − 1)` unilateral deviations; nothing from the
/// untrusted proof is consumed beyond the profile itself.
fn check_is_nash(game: &StrategicGame, profile: &StrategyProfile) -> Result<(), ProofError> {
    require_valid(game, profile)?;
    match game.improving_deviation(profile) {
        Some((agent, strategy)) => Err(ProofError::DeviationFound {
            profile: profile.clone(),
            agent,
            strategy,
        }),
        None => Ok(()),
    }
}

/// Soundness of `NashRefute`: the single claimed deviation is re-evaluated;
/// it must be in range, distinct, and *strictly* improving.
fn check_refutation(
    game: &StrategicGame,
    profile: &StrategyProfile,
    agent: usize,
    strategy: usize,
) -> Result<(), ProofError> {
    require_valid(game, profile)?;
    if agent >= game.num_agents() {
        return Err(ProofError::RefutationInvalid {
            reason: format!("agent {agent} out of range"),
        });
    }
    if strategy >= game.strategy_counts()[agent] {
        return Err(ProofError::RefutationInvalid {
            reason: format!("strategy {strategy} out of range for agent {agent}"),
        });
    }
    if strategy == profile.strategy_of(agent) {
        return Err(ProofError::RefutationInvalid {
            reason: "witness strategy equals the profile's strategy".to_owned(),
        });
    }
    let improved = game.payoff(agent, &profile.with_strategy(agent, strategy));
    if improved > game.payoff(agent, profile) {
        Ok(())
    } else {
        Err(ProofError::RefutationInvalid {
            reason: format!("deviation of agent {agent} to strategy {strategy} does not improve"),
        })
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Extremum {
    Max,
    Min,
}

/// Soundness of `MaxNashIntro`/`MinNashIntro`: the candidate is re-checked
/// as an equilibrium, and the classification is forced to cover the profile
/// space *in the kernel's own enumeration order* — the proof cannot skip or
/// duplicate profiles. Each verdict is verified by constant-many lookups:
///
/// * `NotNash` — the witness deviation must strictly improve, so the
///   profile genuinely is not an equilibrium and is irrelevant to
///   maximality.
/// * `NotStrictlyBetter(PrefersCandidate)` — some agent strictly prefers the
///   candidate, so ¬(candidate ≤u other) (for Min: prefers other, so
///   ¬(other ≤u candidate)).
/// * `NotStrictlyBetter(LeCandidate)` — other ≤u candidate is checked for
///   all agents (for Min: candidate ≤u other), which rules out strict
///   domination in the relevant direction.
///
/// Together these imply Fig. 2's `NashMax` (resp. the footnote-1 minimal
/// variant).
fn check_extremal(
    game: &StrategicGame,
    candidate: &StrategyProfile,
    nash: &Proof,
    classification: &[ProfileVerdict],
    direction: Extremum,
) -> Result<(), ProofError> {
    check_inner(game, nash)?;
    let expected_prop = Prop::IsNash(candidate.clone());
    let actual = nash.claims();
    if actual != expected_prop {
        return Err(ProofError::SubProofMismatch {
            expected: expected_prop,
            actual,
        });
    }
    let total = game.num_profiles();
    if classification.len() != total {
        return Err(ProofError::ClassificationLength {
            got: classification.len(),
            expected: total,
        });
    }
    for (idx, (other, verdict)) in game.profiles().zip(classification).enumerate() {
        match verdict {
            ProfileVerdict::NotNash { agent, strategy } => {
                check_refutation(game, &other, *agent, *strategy).map_err(|e| {
                    ProofError::VerdictInvalid {
                        profile_index: idx,
                        reason: e.to_string(),
                    }
                })?;
            }
            ProfileVerdict::NotStrictlyBetter(witness) => match witness {
                NotAboveWitness::PrefersCandidate { agent } => {
                    if *agent >= game.num_agents() {
                        return Err(ProofError::VerdictInvalid {
                            profile_index: idx,
                            reason: format!("agent {agent} out of range"),
                        });
                    }
                    let (good, bad) = match direction {
                        Extremum::Max => (candidate, &other),
                        Extremum::Min => (&other, candidate),
                    };
                    // Max: candidate strictly preferred ⇒ ¬(candidate ≤u other).
                    // Min: other strictly preferred ⇒ ¬(other ≤u candidate).
                    if game.payoff(*agent, good) <= game.payoff(*agent, bad) {
                        return Err(ProofError::VerdictInvalid {
                            profile_index: idx,
                            reason: format!(
                                "agent {agent} does not strictly prefer the required side"
                            ),
                        });
                    }
                }
                NotAboveWitness::LeCandidate => {
                    let holds = match direction {
                        Extremum::Max => game.profile_le(&other, candidate),
                        Extremum::Min => game.profile_le(candidate, &other),
                    };
                    if !holds {
                        return Err(ProofError::VerdictInvalid {
                            profile_index: idx,
                            reason: "claimed ≤u relation with candidate does not hold".to_owned(),
                        });
                    }
                }
            },
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Term;
    use ra_exact::rat;
    use ra_games::named::{coordination_game, prisoners_dilemma};

    fn pd() -> StrategicGame {
        prisoners_dilemma().to_strategic()
    }

    #[test]
    fn eval_atoms() {
        let game = pd();
        let t1 = Term::utility(0, vec![1, 1].into());
        let t2 = Term::constant(rat(-1, 1));
        let ok = check(&game, &Proof::EvalAtom(Prop::Le(t1.clone(), t2.clone()))).unwrap();
        assert!(ok.applies_to(&game));
        let bad = check(&game, &Proof::EvalAtom(Prop::Lt(t2, t1)));
        assert!(matches!(bad, Err(ProofError::AtomFalse(_))));
    }

    #[test]
    fn non_atomic_rejected() {
        let game = pd();
        let p = Proof::EvalAtom(Prop::IsNash(vec![1, 1].into()));
        assert!(matches!(check(&game, &p), Err(ProofError::NotAtomic(_))));
    }

    #[test]
    fn nash_intro_and_refute() {
        let game = pd();
        assert!(check(
            &game,
            &Proof::NashIntro {
                profile: vec![1, 1].into()
            }
        )
        .is_ok());
        assert!(matches!(
            check(
                &game,
                &Proof::NashIntro {
                    profile: vec![0, 0].into()
                }
            ),
            Err(ProofError::DeviationFound {
                agent: 0,
                strategy: 1,
                ..
            })
        ));
        assert!(check(
            &game,
            &Proof::NashRefute {
                profile: vec![0, 0].into(),
                agent: 1,
                strategy: 1
            }
        )
        .is_ok());
        // Non-improving witness rejected.
        assert!(matches!(
            check(
                &game,
                &Proof::NashRefute {
                    profile: vec![1, 1].into(),
                    agent: 0,
                    strategy: 0
                }
            ),
            Err(ProofError::RefutationInvalid { .. })
        ));
    }

    #[test]
    fn or_intro() {
        let game = pd();
        let disjuncts = vec![
            Prop::IsNash(vec![0, 0].into()),
            Prop::IsNash(vec![1, 1].into()),
        ];
        let ok = Proof::OrIntro {
            disjuncts: disjuncts.clone(),
            index: 1,
            witness: Box::new(Proof::NashIntro {
                profile: vec![1, 1].into(),
            }),
        };
        assert!(check(&game, &ok).is_ok());
        let wrong_index = Proof::OrIntro {
            disjuncts: disjuncts.clone(),
            index: 0,
            witness: Box::new(Proof::NashIntro {
                profile: vec![1, 1].into(),
            }),
        };
        assert!(matches!(
            check(&game, &wrong_index),
            Err(ProofError::OrWitnessMismatch { .. })
        ));
        let oob = Proof::OrIntro {
            disjuncts,
            index: 5,
            witness: Box::new(Proof::NashIntro {
                profile: vec![1, 1].into(),
            }),
        };
        assert!(matches!(
            check(&game, &oob),
            Err(ProofError::OrIndexOutOfRange { .. })
        ));
    }

    #[test]
    fn max_nash_full_proof() {
        // Coordination game with 2 strategies: equilibria (0,0) < (1,1).
        let game = coordination_game(2);
        let candidate: StrategyProfile = vec![1, 1].into();
        // Profiles in order: (0,0), (1,0), (0,1), (1,1).
        let classification = vec![
            // (0,0): equilibrium but ≤u candidate.
            ProfileVerdict::NotStrictlyBetter(NotAboveWitness::LeCandidate),
            // (1,0): not an equilibrium (agent 0 should match agent 1).
            ProfileVerdict::NotNash {
                agent: 0,
                strategy: 0,
            },
            // (0,1): symmetric.
            ProfileVerdict::NotNash {
                agent: 0,
                strategy: 1,
            },
            // (1,1): the candidate itself — ≤u candidate trivially.
            ProfileVerdict::NotStrictlyBetter(NotAboveWitness::LeCandidate),
        ];
        let proof = Proof::MaxNashIntro {
            profile: candidate.clone(),
            nash: Box::new(Proof::NashIntro {
                profile: candidate.clone(),
            }),
            classification,
        };
        let theorem = check(&game, &proof).unwrap();
        assert_eq!(theorem.prop(), &Prop::IsMaxNash(candidate));
    }

    #[test]
    fn max_nash_rejects_false_claim() {
        let game = coordination_game(2);
        let candidate: StrategyProfile = vec![0, 0].into();
        // Try to claim (0,0) is maximal by mislabelling (1,1).
        let classification = vec![
            ProfileVerdict::NotStrictlyBetter(NotAboveWitness::LeCandidate),
            ProfileVerdict::NotNash {
                agent: 0,
                strategy: 0,
            },
            ProfileVerdict::NotNash {
                agent: 0,
                strategy: 1,
            },
            // (1,1) is an equilibrium strictly above (0,0): every honest
            // verdict fails. LeCandidate is false...
            ProfileVerdict::NotStrictlyBetter(NotAboveWitness::LeCandidate),
        ];
        let proof = Proof::MaxNashIntro {
            profile: candidate.clone(),
            nash: Box::new(Proof::NashIntro {
                profile: candidate.clone(),
            }),
            classification,
        };
        assert!(matches!(
            check(&game, &proof),
            Err(ProofError::VerdictInvalid {
                profile_index: 3,
                ..
            })
        ));
        // ...and so is a fake deviation witness.
        let classification = vec![
            ProfileVerdict::NotStrictlyBetter(NotAboveWitness::LeCandidate),
            ProfileVerdict::NotNash {
                agent: 0,
                strategy: 0,
            },
            ProfileVerdict::NotNash {
                agent: 0,
                strategy: 1,
            },
            ProfileVerdict::NotNash {
                agent: 1,
                strategy: 0,
            },
        ];
        let proof = Proof::MaxNashIntro {
            profile: candidate.clone(),
            nash: Box::new(Proof::NashIntro { profile: candidate }),
            classification,
        };
        assert!(matches!(
            check(&game, &proof),
            Err(ProofError::VerdictInvalid {
                profile_index: 3,
                ..
            })
        ));
    }

    #[test]
    fn classification_length_enforced() {
        let game = coordination_game(2);
        let candidate: StrategyProfile = vec![1, 1].into();
        let proof = Proof::MaxNashIntro {
            profile: candidate.clone(),
            nash: Box::new(Proof::NashIntro { profile: candidate }),
            classification: vec![ProfileVerdict::NotStrictlyBetter(
                NotAboveWitness::LeCandidate,
            )],
        };
        assert!(matches!(
            check(&game, &proof),
            Err(ProofError::ClassificationLength {
                got: 1,
                expected: 4
            })
        ));
    }

    #[test]
    fn min_nash_proof() {
        let game = coordination_game(2);
        let candidate: StrategyProfile = vec![0, 0].into();
        let classification = vec![
            ProfileVerdict::NotStrictlyBetter(NotAboveWitness::LeCandidate),
            ProfileVerdict::NotNash {
                agent: 0,
                strategy: 0,
            },
            ProfileVerdict::NotNash {
                agent: 0,
                strategy: 1,
            },
            // (1,1): equilibrium, strictly above candidate: for Min proofs
            // PrefersCandidate means "some agent strictly prefers other",
            // i.e. ¬(other ≤u candidate).
            ProfileVerdict::NotStrictlyBetter(NotAboveWitness::PrefersCandidate { agent: 0 }),
        ];
        let proof = Proof::MinNashIntro {
            profile: candidate.clone(),
            nash: Box::new(Proof::NashIntro {
                profile: candidate.clone(),
            }),
            classification,
        };
        let theorem = check(&game, &proof).unwrap();
        assert_eq!(theorem.prop(), &Prop::IsMinNash(candidate));
    }

    #[test]
    fn digest_distinguishes_games() {
        let g1 = pd();
        let g2 = coordination_game(2);
        assert_ne!(g1.spec_digest(), g2.spec_digest());
        let theorem = check(
            &g1,
            &Proof::NashIntro {
                profile: vec![1, 1].into(),
            },
        )
        .unwrap();
        assert!(theorem.applies_to(&g1));
        assert!(!theorem.applies_to(&g2));
        assert_eq!(theorem.game_digest(), g1.spec_digest());
        // One payoff apart, at a profile the proof never reads: still
        // another game, so the theorem does not carry over.
        let tweaked = StrategicGame::from_payoff_fn(vec![2, 2], |p| {
            let mut u = g1.payoffs(p).to_vec();
            if p.strategy_of(0) == 0 && p.strategy_of(1) == 0 {
                u[0] += rat(1, 1);
            }
            u
        });
        assert_ne!(tweaked, g1);
        assert!(!theorem.applies_to(&tweaked));
    }

    /// The `NashIntro` rule as it was before it delegated to
    /// `StrategicGame::improving_deviation`: one cloned profile per
    /// deviation.
    fn cloning_nash_check(
        game: &StrategicGame,
        profile: &StrategyProfile,
    ) -> Result<(), ProofError> {
        require_valid(game, profile)?;
        for agent in 0..game.num_agents() {
            let current = game.payoff(agent, profile);
            for s in 0..game.strategy_counts()[agent] {
                if s == profile.strategy_of(agent) {
                    continue;
                }
                if game.payoff(agent, &profile.with_strategy(agent, s)) > current {
                    return Err(ProofError::DeviationFound {
                        profile: profile.clone(),
                        agent,
                        strategy: s,
                    });
                }
            }
        }
        Ok(())
    }

    #[test]
    fn nash_intro_matches_cloning_reference() {
        let shapes = [vec![4, 4], vec![2, 5], vec![3, 2, 3], vec![2, 2, 2]];
        for (seed, counts) in (0..60u64).zip(shapes.iter().cycle().cloned()) {
            let game = ra_games::GameGenerator::seeded(seed).strategic(counts.clone(), -3..=3);
            // Every strategy one past its agent's last: rejected as invalid.
            let invalid = StrategyProfile::from(counts);
            for profile in game.profiles().chain([invalid]) {
                let proof = Proof::NashIntro {
                    profile: profile.clone(),
                };
                assert_eq!(
                    verdict(&game, &proof),
                    cloning_nash_check(&game, &profile),
                    "seed {seed}, {profile}"
                );
            }
        }
    }
}
