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

use ra_exact::rat;
use ra_proofs::{
    verify_online_advice, verify_participation_certificate, verify_support_certificate,
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
    /// A participation certificate for other parameters than the game's.
    ParamsMismatch,
    /// An online certificate whose loads differ from the published
    /// statistics.
    StatisticsMismatch,
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
    pub const ALL: [VerdictReason; 13] = [
        VerdictReason::Verified(Check::PureNash),
        VerdictReason::Verified(Check::Support),
        VerdictReason::Verified(Check::Participation),
        VerdictReason::Verified(Check::Online),
        VerdictReason::Rejected(Check::PureNash),
        VerdictReason::Rejected(Check::Support),
        VerdictReason::Rejected(Check::Participation),
        VerdictReason::Rejected(Check::Online),
        VerdictReason::ParamsMismatch,
        VerdictReason::StatisticsMismatch,
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
            VerdictReason::ParamsMismatch => f.write_str("certificate for different parameters"),
            VerdictReason::StatisticsMismatch => {
                f.write_str("certificate statistics differ from published ones")
            }
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
pub fn kernel_check(spec: &GameSpec, advice: &Advice) -> (bool, VerdictReason) {
    let (check, accepted) = match (spec, advice) {
        (GameSpec::Strategic(game), Advice::PureNash(cert)) => {
            (Check::PureNash, cert.verdict(game).is_ok())
        }
        (GameSpec::Bimatrix(game), Advice::Support(cert)) => (
            Check::Support,
            verify_support_certificate(game, cert).is_ok(),
        ),
        (GameSpec::Participation(params), Advice::Participation(cert)) => {
            if &cert.params != params {
                return (false, VerdictReason::ParamsMismatch);
            }
            (
                Check::Participation,
                verify_participation_certificate(cert, &rat(1, 1 << 20)).is_ok(),
            )
        }
        (
            GameSpec::ParallelLinks {
                current_loads,
                own_load,
                ..
            },
            Advice::Online(cert),
        ) => {
            // The certificate must match the published statistics the agent
            // observed (they are signed — see audit.rs).
            if &cert.current_loads != current_loads || &cert.own_load != own_load {
                return (false, VerdictReason::StatisticsMismatch);
            }
            (Check::Online, verify_online_advice(cert).is_ok())
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
    use ra_solvers::ParticipationParams;

    fn specs() -> Vec<GameSpec> {
        vec![
            GameSpec::Strategic(prisoners_dilemma().to_strategic()),
            GameSpec::Bimatrix(ra_games::named::battle_of_the_sexes()),
            GameSpec::Participation(ParticipationParams::paper_example()),
            GameSpec::ParallelLinks {
                current_loads: vec![rat(3, 1), rat(1, 1)],
                own_load: rat(2, 1),
                expected_future_load: rat(3, 2),
                expected_future_agents: 3,
            },
        ]
    }

    const CHECKS: [Check; 4] = [
        Check::PureNash,
        Check::Support,
        Check::Participation,
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
