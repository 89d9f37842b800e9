//! Verification services.
//!
//! Verifiers are "trustable service providers that profit from selling
//! general purpose verification procedures" — their procedures, not their
//! goodwill, are what agents rely on. The honest service dispatches each
//! advice payload to the matching certificate verifier from `ra-proofs`;
//! the faulty behaviours model broken or malicious verifiers for the
//! reputation experiments.
//!
//! A verdict is an accept/reject bit plus a [`VerdictReason`]: which
//! checker ran, or why none could, in one byte on the wire. The reason
//! carries no payload — the proved proposition, the λ values, the
//! expected gain, the predicted delay and a rejection's error are all
//! deterministic in the `(spec, advice)` pair the agent already holds, so
//! it recomputes them with [`kernel_check`]'s checkers when it wants them.
//!
//! Every checker takes the game from the spec: advice carries only what
//! the inventor adds (a profile and its proof, supports, a root, an
//! assignment), so no advice can name another game than the one it is
//! checked against.

use ra_exact::rat;
use ra_proofs::kernel::verdict;
use ra_proofs::{
    verify_online_advice, verify_participation_certificate, verify_support_certificate,
    OnlineInstance,
};

use crate::inventor::GameSpec;
use crate::messages::{Advice, Party};

/// Which certificate checker produced a verdict — one per case-study
/// (game, advice) pairing that [`kernel_check`] accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Check {
    /// §3: the kernel proof that a pure profile is a Nash equilibrium.
    PureNash,
    /// §4 P1: the support certificate of a bimatrix equilibrium.
    Support,
    /// §5: the Eq. (5) participation certificate.
    Participation,
    /// §6: the online link advice and its equilibrium assignment.
    Online,
}

impl std::fmt::Display for Check {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Check::PureNash => "pure Nash proof",
            Check::Support => "P1 support certificate",
            Check::Participation => "Eq. (5) participation certificate",
            Check::Online => "online link assignment",
        })
    }
}

/// Why a verifier answered the way it did. `Copy`, heap-free, and one
/// byte on the wire (its index in [`VerdictReason::ALL`]); [`Display`]
/// prints a sentence for logs.
///
/// [`Display`]: std::fmt::Display
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VerdictReason {
    /// The checker accepted the certificate.
    Verified(Check),
    /// The checker rejected the certificate.
    Rejected(Check),
    /// The advice family does not fit the game.
    AdviceTypeMismatch,
    /// [`VerifierBehavior::AlwaysAccept`]: accepted unchecked.
    RubberStamped,
    /// [`VerifierBehavior::AlwaysReject`]: rejected unchecked.
    Refused,
}

impl VerdictReason {
    /// Every reason, indexed by its wire byte; a byte past the end is
    /// unassigned and decodes to [`WireError::BadTag`](crate::WireError::BadTag).
    pub const ALL: [VerdictReason; 11] = [
        VerdictReason::Verified(Check::PureNash),
        VerdictReason::Verified(Check::Support),
        VerdictReason::Verified(Check::Participation),
        VerdictReason::Verified(Check::Online),
        VerdictReason::Rejected(Check::PureNash),
        VerdictReason::Rejected(Check::Support),
        VerdictReason::Rejected(Check::Participation),
        VerdictReason::Rejected(Check::Online),
        VerdictReason::AdviceTypeMismatch,
        VerdictReason::RubberStamped,
        VerdictReason::Refused,
    ];
}

impl std::fmt::Display for VerdictReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerdictReason::Verified(check) => write!(f, "{check} verified"),
            VerdictReason::Rejected(check) => write!(f, "{check} rejected"),
            VerdictReason::AdviceTypeMismatch => f.write_str("advice type does not match the game"),
            VerdictReason::RubberStamped => f.write_str("rubber-stamped"),
            VerdictReason::Refused => f.write_str("refused on principle"),
        }
    }
}

/// How a verifier behaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifierBehavior {
    /// Runs the genuine verification procedures.
    Honest,
    /// Rubber-stamps everything (a bought verifier).
    AlwaysAccept,
    /// Rejects everything (a saboteur).
    AlwaysReject,
}

/// A verification service instance.
#[derive(Clone, Debug)]
pub struct VerifierService {
    /// Protocol identity.
    pub id: Party,
    /// Behaviour under test.
    pub behavior: VerifierBehavior,
}

impl VerifierService {
    /// Creates a verifier with the given identity number and behaviour.
    pub fn new(id: u64, behavior: VerifierBehavior) -> VerifierService {
        VerifierService {
            id: Party::Verifier(id),
            behavior,
        }
    }

    /// Checks `advice` for `spec`; returns `(accepted, reason)`.
    pub fn verify(&self, spec: &GameSpec, advice: &Advice) -> (bool, VerdictReason) {
        match self.behavior {
            VerifierBehavior::AlwaysAccept => (true, VerdictReason::RubberStamped),
            VerifierBehavior::AlwaysReject => (false, VerdictReason::Refused),
            VerifierBehavior::Honest => kernel_check(spec, advice),
        }
    }
}

/// The genuine verification dispatch: each (game, advice) combination runs
/// the matching certificate checker from `ra-proofs`; mismatched
/// combinations are rejected outright. Returns `(accepted, reason)`.
///
/// This is the trusted-checker boundary of the proof-carrying split: an
/// honest verifier runs exactly this, and the certificate cache replays it
/// on every hit ([`crate::CertCache`]) — the
/// expensive solve/panel path is skipped, the cheap kernel check is not.
/// It is deterministic in `(spec, advice)`, and so is everything a checker
/// derives (the proved proposition, λ values, gain, link): the reason
/// names the checker and leaves those to whoever holds the pair, so the
/// §3 arm mints no theorem and never hashes the game.
///
/// The §3 arm accepts a proof only if its root rule claims an equilibrium
/// (`NashIntro`, `MaxNashIntro` or `MinNashIntro`): that root's profile is
/// what the agent adopts. Any other root, even one the kernel accepts (a
/// `NashRefute`, or an `AndIntro`/`OrIntro` around a true `NashIntro`),
/// advises no profile and is `Rejected(PureNash)`.
pub fn kernel_check(spec: &GameSpec, advice: &Advice) -> (bool, VerdictReason) {
    let (check, accepted) = match (spec, advice) {
        (GameSpec::Strategic(game), Advice::PureNash(proof)) => (
            Check::PureNash,
            proof.equilibrium_profile().is_some() && verdict(game, proof).is_ok(),
        ),
        (GameSpec::Bimatrix(game), Advice::Support(cert)) => (
            Check::Support,
            verify_support_certificate(game, cert).is_ok(),
        ),
        (GameSpec::Participation(params), Advice::Participation(cert)) => (
            Check::Participation,
            verify_participation_certificate(params, cert, &rat(1, 1 << 20)).is_ok(),
        ),
        (
            GameSpec::ParallelLinks {
                current_loads,
                own_load,
                expected_future_load,
                expected_future_agents,
            },
            Advice::Online(cert),
        ) => {
            // The whole instance comes from the spec: the published loads
            // the agent observed (signed — see audit.rs) and the future
            // model it consulted about.
            let instance = OnlineInstance {
                current_loads,
                own_load,
                expected_future_load,
                expected_future_agents: *expected_future_agents,
            };
            (Check::Online, verify_online_advice(&instance, cert).is_ok())
        }
        _ => return (false, VerdictReason::AdviceTypeMismatch),
    };
    if accepted {
        (true, VerdictReason::Verified(check))
    } else {
        (false, VerdictReason::Rejected(check))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inventor::{Inventor, InventorBehavior};
    use ra_games::named::prisoners_dilemma;
    use ra_solvers::{honest_online_advice, ParticipationParams};

    /// The steady-small §6 arrival: three links, own load 7/2, five future
    /// agents of load 2 each.
    fn steady_links() -> GameSpec {
        GameSpec::ParallelLinks {
            current_loads: vec![rat(4, 1), rat(0, 1), rat(9, 2)],
            own_load: rat(7, 2),
            expected_future_load: rat(2, 1),
            expected_future_agents: 5,
        }
    }

    /// The paper-size specs of the consult tests and one more §6 arrival;
    /// `CHECKS` names the checker of each.
    fn specs() -> Vec<GameSpec> {
        vec![
            GameSpec::Strategic(prisoners_dilemma().to_strategic()),
            GameSpec::Strategic(ra_games::named::stag_hunt(3)),
            GameSpec::Bimatrix(ra_games::named::battle_of_the_sexes()),
            GameSpec::Participation(ParticipationParams::paper_example()),
            steady_links(),
            GameSpec::ParallelLinks {
                current_loads: vec![rat(3, 1), rat(1, 1)],
                own_load: rat(2, 1),
                expected_future_load: rat(3, 2),
                expected_future_agents: 3,
            },
        ]
    }

    const CHECKS: [Check; 6] = [
        Check::PureNash,
        Check::PureNash,
        Check::Support,
        Check::Participation,
        Check::Online,
        Check::Online,
    ];

    #[test]
    fn honest_verifier_accepts_honest_advice_everywhere() {
        let inventor = Inventor::new(0, InventorBehavior::Honest);
        let verifier = VerifierService::new(0, VerifierBehavior::Honest);
        for (spec, check) in specs().into_iter().zip(CHECKS) {
            let advice = inventor.advise(&spec).expect("honest advice exists");
            let (accepted, detail) = verifier.verify(&spec, &advice);
            assert!(accepted, "{detail}");
            assert_eq!(detail, VerdictReason::Verified(check));
        }
    }

    #[test]
    fn honest_verifier_rejects_corrupt_advice_everywhere() {
        let inventor = Inventor::new(0, InventorBehavior::Corrupt);
        let verifier = VerifierService::new(0, VerifierBehavior::Honest);
        for (spec, check) in specs().into_iter().zip(CHECKS) {
            let advice = inventor.advise(&spec).expect("corrupt advice exists");
            let (accepted, detail) = verifier.verify(&spec, &advice);
            assert!(!accepted, "corruption must be caught, got: {detail}");
            assert_eq!(detail, VerdictReason::Rejected(check));
        }
    }

    #[test]
    fn pure_nash_advice_is_accepted_only_under_an_equilibrium_root() {
        use ra_proofs::kernel::{Proof, Prop};
        use ra_solvers::{prove_is_nash, prove_max_nash, prove_min_nash, prove_not_nash};
        let game = ra_games::named::stag_hunt(3);
        let spec = GameSpec::Strategic(game.clone());
        let stag = vec![1, 1, 1].into();
        let hare = vec![0, 0, 0].into();
        for root in [
            prove_is_nash(vec![1, 1, 1].into()),
            prove_max_nash(&game, &stag).unwrap(),
            prove_min_nash(&game, &hare).unwrap(),
        ] {
            assert_eq!(
                kernel_check(&spec, &Advice::PureNash(root)),
                (true, VerdictReason::Verified(Check::PureNash))
            );
        }
        // Each of these passes the kernel but claims no profile.
        let nash = prove_is_nash(hare.clone());
        let refute = prove_not_nash(&game, &vec![0, 1, 0].into()).unwrap();
        let or = Proof::OrIntro {
            disjuncts: vec![Prop::NotNash(hare.clone()), Prop::IsNash(hare)],
            index: 1,
            witness: Box::new(nash.clone()),
        };
        for proof in [refute, or, Proof::AndIntro(vec![nash])] {
            assert_eq!(verdict(&game, &proof), Ok(()), "{proof:?}");
            assert_eq!(
                kernel_check(&spec, &Advice::PureNash(proof)),
                (false, VerdictReason::Rejected(Check::PureNash))
            );
        }
    }

    #[test]
    fn online_advice_for_another_future_is_rejected() {
        let spec = steady_links();
        let GameSpec::ParallelLinks {
            current_loads,
            own_load,
            expected_future_load,
            ..
        } = &spec
        else {
            unreachable!()
        };
        // Valid advice for the same loads but one future agent of load 100.
        let other_future = honest_online_advice(&OnlineInstance {
            current_loads,
            own_load,
            expected_future_load: &rat(100, 1),
            expected_future_agents: 1,
        })
        .unwrap();
        assert_eq!(other_future.suggested_link, 0);
        let Some(Advice::Online(honest)) = Inventor::new(0, InventorBehavior::Honest).advise(&spec)
        else {
            unreachable!()
        };
        assert_eq!(honest.suggested_link, 1);
        // Valid advice for one future agent fewer.
        let fewer = honest_online_advice(&OnlineInstance {
            current_loads,
            own_load,
            expected_future_load,
            expected_future_agents: 4,
        })
        .unwrap();
        for advice in [other_future, fewer] {
            assert_eq!(
                kernel_check(&spec, &Advice::Online(advice)),
                (false, VerdictReason::Rejected(Check::Online))
            );
        }
    }

    #[test]
    fn corrupt_participation_and_online_advice_rejected_for_every_spec() {
        let corrupt = Inventor::new(0, InventorBehavior::Corrupt);
        let specs = specs();
        for (advised, check) in specs.iter().zip(CHECKS) {
            if !matches!(check, Check::Participation | Check::Online) {
                continue;
            }
            let advice = corrupt.advise(advised).expect("corrupt advice exists");
            for spec in &specs {
                let expected = if std::mem::discriminant(spec) == std::mem::discriminant(advised) {
                    VerdictReason::Rejected(check)
                } else {
                    VerdictReason::AdviceTypeMismatch
                };
                assert_eq!(kernel_check(spec, &advice), (false, expected), "{spec:?}");
            }
        }
    }

    #[test]
    fn verdict_reasons_are_small_and_listed_once() {
        assert!(std::mem::size_of::<VerdictReason>() <= 2);
        let distinct: std::collections::HashSet<_> = VerdictReason::ALL.into_iter().collect();
        assert_eq!(distinct.len(), VerdictReason::ALL.len());
        assert_eq!(
            VerdictReason::Verified(Check::Support).to_string(),
            "P1 support certificate verified"
        );
    }

    #[test]
    fn mismatched_advice_type_rejected() {
        let verifier = VerifierService::new(0, VerifierBehavior::Honest);
        let inventor = Inventor::new(0, InventorBehavior::Honest);
        let bimatrix_spec = GameSpec::Bimatrix(ra_games::named::battle_of_the_sexes());
        let advice = inventor.advise(&bimatrix_spec).unwrap();
        let wrong_spec = GameSpec::Participation(ParticipationParams::paper_example());
        let verdict = verifier.verify(&wrong_spec, &advice);
        assert_eq!(verdict, (false, VerdictReason::AdviceTypeMismatch));
    }

    #[test]
    fn broken_behaviors() {
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let advice = Inventor::new(0, InventorBehavior::Corrupt)
            .advise(&spec)
            .unwrap();
        let verdict =
            VerifierService::new(1, VerifierBehavior::AlwaysAccept).verify(&spec, &advice);
        assert_eq!(
            verdict,
            (true, VerdictReason::RubberStamped),
            "bought verifier rubber-stamps garbage"
        );
        let honest_advice = Inventor::new(0, InventorBehavior::Honest)
            .advise(&spec)
            .unwrap();
        let verdict =
            VerifierService::new(2, VerifierBehavior::AlwaysReject).verify(&spec, &honest_advice);
        assert_eq!(verdict, (false, VerdictReason::Refused));
    }
}
