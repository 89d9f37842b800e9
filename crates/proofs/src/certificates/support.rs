//! The P1 interactive proof (§4, Fig. 3, Lemma 1).
//!
//! The prover (inventor) sends each agent *both supports* of the claimed
//! mixed equilibrium — `O(n + m)` bits as two index masks. The verifier
//! reconstructs the equilibrium by solving the indifference linear system
//! exactly, then re-checks that witness against the payoffs directly: the
//! opponent's mix must be a distribution positive exactly on its claimed
//! support, every strategy in the agent's own support must earn exactly λ
//! against it, and every other strategy at most λ. The linear solver only
//! proposes the witness, so an elimination bug can cause a reject but
//! never an accept, and a dishonest support claim is never accepted.

use std::fmt;

use ra_exact::{solve_linear_system, LinearSolution, Matrix, Rational};
use ra_games::{BimatrixGame, MixedProfile, MixedStrategy};

/// The P1 certificate: just the two supports (Fig. 3's prover message).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SupportCertificate {
    /// Claimed support of the row agent (sorted, non-empty).
    pub row_support: Vec<usize>,
    /// Claimed support of the column agent (sorted, non-empty).
    pub col_support: Vec<usize>,
}

impl SupportCertificate {
    /// The certificate's wire size in bits: one membership bit per pure
    /// strategy of each agent — Lemma 1's `O(n + m)`.
    pub fn encoded_bits(&self, game: &BimatrixGame) -> u64 {
        (game.rows() + game.cols()) as u64
    }
}

/// Successful P1 verification: the reconstructed equilibrium and its
/// values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct P1Verified {
    /// The reconstructed mixed equilibrium.
    pub profile: MixedProfile,
    /// Row agent's equilibrium payoff λ₁.
    pub lambda1: Rational,
    /// Column agent's equilibrium payoff λ₂.
    pub lambda2: Rational,
}

/// Reasons P1 verification rejects a certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum P1Error {
    /// A claimed support is empty, unsorted or names no strategy.
    MalformedSupport {
        /// Whose support is malformed (0 = row, 1 = column).
        agent: usize,
        /// What is wrong with it.
        defect: SupportDefect,
    },
    /// The indifference system has no solution: the claimed supports cannot
    /// carry an equilibrium.
    IndifferenceInconsistent,
    /// The indifference system is underdetermined (degenerate game); P1
    /// cannot pin down the equilibrium from supports alone.
    Degenerate,
    /// A reconstructed probability is not positive on the claimed support,
    /// not zero off it, or the probabilities do not sum to one.
    InvalidProbability {
        /// Which agent's distribution is broken (0 = row, 1 = column).
        agent: usize,
        /// The offending strategy index.
        index: usize,
    },
    /// A strategy in the claimed support earns a payoff other than λ
    /// against the reconstructed opponent mix: the witness is wrong.
    SupportPayoffMismatch {
        /// Whose strategy it is (0 = row, 1 = column).
        agent: usize,
        /// The in-support strategy that is not indifferent.
        strategy: usize,
    },
    /// A strategy outside the support would earn more than λ — the claimed
    /// profile is not an equilibrium.
    OutsideSupportImproves {
        /// Which agent could deviate (0 = row, 1 = column).
        agent: usize,
        /// The profitable strategy outside the support.
        strategy: usize,
    },
}

/// What makes a claimed support malformed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SupportDefect {
    /// The support names no strategy.
    Empty,
    /// The indices are not strictly increasing.
    Unsorted,
    /// An index is not a strategy of the agent.
    OutOfRange,
}

impl fmt::Display for P1Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            P1Error::MalformedSupport { agent, defect } => {
                let what = match defect {
                    SupportDefect::Empty => "is empty",
                    SupportDefect::Unsorted => "is not strictly sorted",
                    SupportDefect::OutOfRange => "has an index out of range",
                };
                write!(f, "malformed support: agent {agent}'s support {what}")
            }
            P1Error::IndifferenceInconsistent => {
                write!(f, "indifference system inconsistent for the claimed supports")
            }
            P1Error::Degenerate => write!(
                f,
                "indifference system underdetermined: degenerate game, supports do not determine the equilibrium"
            ),
            P1Error::InvalidProbability { agent, index } => {
                write!(f, "reconstructed probability invalid for agent {agent}, strategy {index}")
            }
            P1Error::SupportPayoffMismatch { agent, strategy } => write!(
                f,
                "agent {agent}'s support strategy {strategy} does not earn the equilibrium payoff"
            ),
            P1Error::OutsideSupportImproves { agent, strategy } => write!(
                f,
                "agent {agent} would profit by deviating to out-of-support strategy {strategy}"
            ),
        }
    }
}

impl std::error::Error for P1Error {}

/// Runs the P1 verifier (both agents' sides) on a support certificate.
///
/// Follows Fig. 3: solve the linear system (1) for the opponent's
/// probabilities and λ, then check that witness directly — the mix is a
/// distribution positive exactly on the claimed support, every strategy
/// in the agent's support earns exactly λ against it, and every other
/// strategy earns at most λ. All arithmetic is exact.
///
/// # Errors
///
/// See [`P1Error`]; every rejection pinpoints the failed condition.
///
/// # Examples
///
/// ```
/// use ra_games::named::matching_pennies;
/// use ra_proofs::{verify_support_certificate, SupportCertificate};
///
/// let cert = SupportCertificate { row_support: vec![0, 1], col_support: vec![0, 1] };
/// let verified = verify_support_certificate(&matching_pennies(), &cert).unwrap();
/// assert_eq!(verified.lambda1, ra_exact::rat(0, 1));
///
/// // Lying about the support is caught.
/// let bogus = SupportCertificate { row_support: vec![0], col_support: vec![0, 1] };
/// assert!(verify_support_certificate(&matching_pennies(), &bogus).is_err());
/// ```
pub fn verify_support_certificate(
    game: &BimatrixGame,
    certificate: &SupportCertificate,
) -> Result<P1Verified, P1Error> {
    let (s1, s2) = (&certificate.row_support, &certificate.col_support);
    validate_support(s1, game.rows(), 0)?;
    validate_support(s2, game.cols(), 1)?;

    // Row agent's verifier: reconstruct the column agent's probabilities y
    // and λ1 from the indifference of rows in S1 (Fig. 3, system (1)), then
    // re-check y against the payoffs.
    let (y, lambda1) = solve_side(game, 0, s1, s2)?;
    let y = check_witness(game, 0, s1, s2, y, &lambda1)?;
    // Column agent's verifier (symmetric, "easy to state" per the paper).
    let (x, lambda2) = solve_side(game, 1, s2, s1)?;
    let x = check_witness(game, 1, s2, s1, x, &lambda2)?;

    let profile = MixedProfile { row: x, col: y };
    debug_assert!(game.is_nash(&profile), "P1 acceptance implies Nash");
    Ok(P1Verified {
        profile,
        lambda1,
        lambda2,
    })
}

fn validate_support(support: &[usize], bound: usize, agent: usize) -> Result<(), P1Error> {
    let defect = if support.is_empty() {
        SupportDefect::Empty
    } else if support.windows(2).any(|w| w[0] >= w[1]) {
        SupportDefect::Unsorted
    } else if support.iter().any(|&i| i >= bound) {
        SupportDefect::OutOfRange
    } else {
        return Ok(());
    };
    Err(P1Error::MalformedSupport { agent, defect })
}

/// Proposes one side's witness by solving the indifference system:
/// probabilities over the opponent's strategies, zero off `opp_support`,
/// making every `own_support` strategy of `agent` earn the same λ. Nothing
/// here is trusted; [`check_witness`] decides.
fn solve_side(
    game: &BimatrixGame,
    agent: usize,
    own_support: &[usize],
    opp_support: &[usize],
) -> Result<(Vec<Rational>, Rational), P1Error> {
    let payoff = |own: usize, opp: usize| {
        if agent == 0 {
            game.a(own, opp).clone()
        } else {
            game.b(opp, own).clone()
        }
    };
    let k = opp_support.len();
    let rows = own_support.len() + 1;
    let a = Matrix::from_fn(rows, k + 1, |r, c| {
        if r < own_support.len() {
            if c < k {
                payoff(own_support[r], opp_support[c])
            } else {
                Rational::from(-1)
            }
        } else if c < k {
            Rational::one()
        } else {
            Rational::zero()
        }
    });
    let mut b = vec![Rational::zero(); rows];
    b[own_support.len()] = Rational::one();
    let mut solution = match solve_linear_system(&a, &b) {
        LinearSolution::Unique(x) => x,
        LinearSolution::Underdetermined { .. } => return Err(P1Error::Degenerate),
        LinearSolution::Inconsistent => return Err(P1Error::IndifferenceInconsistent),
    };
    // A solution of the wrong length is left for the check to reject.
    let lambda = solution.pop().unwrap_or_else(Rational::zero);
    let opp_total = if agent == 0 { game.cols() } else { game.rows() };
    let mut probs = vec![Rational::zero(); opp_total];
    for (&j, p) in opp_support.iter().zip(solution) {
        probs[j] = p;
    }
    Ok((probs, lambda))
}

/// Checks one side's witness `(probs, λ)` against the payoffs alone, in
/// one pass per agent over every pure strategy:
/// - `probs` is a distribution, strictly positive on `opp_support` (which
///   pins the support exactly, Fig. 3's `0 ≤ y ≤ 1`) and zero off it;
/// - every strategy in `own_support` earns exactly λ against it;
/// - every other strategy of `agent` earns at most λ.
///
/// Together these make the mix a best-response witness whatever produced
/// it, so a wrong solve can only cause a reject.
fn check_witness(
    game: &BimatrixGame,
    agent: usize,
    own_support: &[usize],
    opp_support: &[usize],
    probs: Vec<Rational>,
    lambda: &Rational,
) -> Result<MixedStrategy, P1Error> {
    let mut in_opp = opp_support.iter().peekable();
    for (j, p) in probs.iter().enumerate() {
        let valid = if in_opp.next_if_eq(&&j).is_some() {
            p.is_positive()
        } else {
            p.is_zero()
        };
        if !valid {
            return Err(P1Error::InvalidProbability { agent, index: j });
        }
    }
    let mix = MixedStrategy::try_new(probs).map_err(|_| P1Error::InvalidProbability {
        agent,
        index: opp_support[0],
    })?;
    let own_total = if agent == 0 { game.rows() } else { game.cols() };
    let mut in_own = own_support.iter().peekable();
    for strategy in 0..own_total {
        let earned = if agent == 0 {
            game.row_payoff_against(strategy, &mix)
        } else {
            game.col_payoff_against(&mix, strategy)
        };
        if in_own.next_if_eq(&&strategy).is_some() {
            if &earned != lambda {
                return Err(P1Error::SupportPayoffMismatch { agent, strategy });
            }
        } else if &earned > lambda {
            return Err(P1Error::OutsideSupportImproves { agent, strategy });
        }
    }
    Ok(mix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_exact::rat;
    use ra_games::named::{battle_of_the_sexes, matching_pennies, prisoners_dilemma};
    use ra_games::GameGenerator;

    #[test]
    fn verifies_matching_pennies() {
        let cert = SupportCertificate {
            row_support: vec![0, 1],
            col_support: vec![0, 1],
        };
        let v = verify_support_certificate(&matching_pennies(), &cert).unwrap();
        assert_eq!(v.profile.row, MixedStrategy::uniform(2));
        assert_eq!(v.lambda1, rat(0, 1));
        assert_eq!(v.lambda2, rat(0, 1));
        assert_eq!(cert.encoded_bits(&matching_pennies()), 4);
    }

    #[test]
    fn verifies_pure_support() {
        let cert = SupportCertificate {
            row_support: vec![1],
            col_support: vec![1],
        };
        let v = verify_support_certificate(&prisoners_dilemma(), &cert).unwrap();
        assert_eq!(v.profile.row, MixedStrategy::pure(2, 1));
        assert_eq!(v.lambda1, rat(-2, 1));
    }

    #[test]
    fn rejects_wrong_supports() {
        // (cooperate, cooperate) is not an equilibrium of the PD.
        let cert = SupportCertificate {
            row_support: vec![0],
            col_support: vec![0],
        };
        let err = verify_support_certificate(&prisoners_dilemma(), &cert).unwrap_err();
        assert!(matches!(err, P1Error::OutsideSupportImproves { .. }));
    }

    #[test]
    fn rejects_malformed_supports() {
        let g = matching_pennies();
        for (r, c) in [
            (vec![], vec![0]),
            (vec![0, 0], vec![0]),
            (vec![1, 0], vec![0]),
            (vec![0, 7], vec![0]),
        ] {
            let cert = SupportCertificate {
                row_support: r,
                col_support: c,
            };
            assert!(matches!(
                verify_support_certificate(&g, &cert),
                Err(P1Error::MalformedSupport { .. })
            ));
        }
    }

    #[test]
    fn rejects_infeasible_mixed_support() {
        // Battle of the sexes: claiming support {0,1}×{0} is inconsistent —
        // the row agent cannot be indifferent between 2 and 0 against pure
        // column 0.
        let cert = SupportCertificate {
            row_support: vec![0, 1],
            col_support: vec![0],
        };
        let err = verify_support_certificate(&battle_of_the_sexes(), &cert).unwrap_err();
        assert!(matches!(
            err,
            P1Error::IndifferenceInconsistent | P1Error::InvalidProbability { .. }
        ));
    }

    #[test]
    fn acceptance_implies_nash_fuzz() {
        // Feed arbitrary support claims; every acceptance must be a genuine
        // equilibrium (soundness).
        let mut accepted = 0;
        for seed in 0..200u64 {
            let game = GameGenerator::seeded(seed).bimatrix(3, 3, -6..=6);
            let r_mask = 1 + (seed % 7) as usize;
            let c_mask = 1 + ((seed / 7) % 7) as usize;
            let cert = SupportCertificate {
                row_support: (0..3).filter(|i| r_mask & (1 << i) != 0).collect(),
                col_support: (0..3).filter(|j| c_mask & (1 << j) != 0).collect(),
            };
            if let Ok(v) = verify_support_certificate(&game, &cert) {
                accepted += 1;
                assert!(game.is_nash(&v.profile), "seed {seed}");
            }
        }
        assert!(accepted > 0, "some random support guesses hit equilibria");
    }
    #[test]
    fn witness_check_rejects_corrupted_witnesses() {
        // Matching pennies, both supports {0, 1}: the honest row-side
        // witness is y = (1/2, 1/2) with λ1 = 0.
        let g = matching_pennies();
        let both = [0, 1];
        let check = |own: &[usize], opp: &[usize], y: Vec<Rational>, lambda: Rational| {
            check_witness(&g, 0, own, opp, y, &lambda)
        };
        assert_eq!(
            check(&both, &both, vec![rat(1, 2), rat(1, 2)], rat(0, 1)),
            Ok(MixedStrategy::uniform(2))
        );
        // A wrong λ: both rows earn 0, not 1.
        assert_eq!(
            check(&both, &both, vec![rat(1, 2), rat(1, 2)], rat(1, 1)),
            Err(P1Error::SupportPayoffMismatch {
                agent: 0,
                strategy: 0
            })
        );
        // A y that leaves the rows unequal: row 0 earns -1/3, row 1 earns 1/3.
        assert_eq!(
            check(&both, &both, vec![rat(1, 3), rat(2, 3)], rat(1, 3)),
            Err(P1Error::SupportPayoffMismatch {
                agent: 0,
                strategy: 0
            })
        );
        // Mass on column 1, outside the claimed column support {0}.
        assert_eq!(
            check(&both, &[0], vec![rat(1, 2), rat(1, 2)], rat(0, 1)),
            Err(P1Error::InvalidProbability { agent: 0, index: 1 })
        );
    }
}
