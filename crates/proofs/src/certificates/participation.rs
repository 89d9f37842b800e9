//! §5 certificates: verifiable advice for the participation game.
//!
//! The inventor ships the equilibrium participation probability `p` (hard to
//! find); the verifier re-checks the indifference condition Eq. (5) — a
//! handful of exact binomial evaluations. Irrational roots are shipped as
//! sign-change *bracket* certificates, which are just as checkable.
//!
//! The certificate is the root alone. The game's parameters are public and
//! every party to a consult already holds them, so the checker takes them
//! from its caller: a certificate cannot name other parameters than the
//! ones it is checked against.
//!
//! The check returns the checked probability and nothing more. What a firm
//! expects at it (the Eq. (5) tails and its gain) is
//! [`ParticipationVerified::at`], computed only by whoever wants it.

use std::fmt;

use ra_exact::{binomial_tail_at_least, binomial_tail_at_most, Rational};
use ra_games::{EquilibriumRoot, ParticipationParams};

/// The §5 certificate sent to each firm: the advised root of the game
/// whose [`ParticipationParams`] the firm already holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParticipationCertificate {
    /// The advised equilibrium probability.
    pub root: EquilibriumRoot,
}

/// The Eq. (5) quantities at a checked probability: what a firm that
/// adopts it can expect. Computing them is not part of the check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParticipationVerified {
    /// The probability (for a bracket, the midpoint the check returns).
    pub p: Rational,
    /// `A_k` = Pr[at least k − 1 others participate] (participant wins).
    pub a_k: Rational,
    /// `B_k` = Pr[at most k − 2 others participate] (participant loses fee).
    pub b_k: Rational,
    /// `C_k` = Pr[at least k others participate] (non-participant wins).
    pub c_k: Rational,
    /// `D_k` = Pr[at most k − 1 others participate] (non-participant gets 0).
    pub d_k: Rational,
    /// The firm's expected equilibrium gain
    /// `(v−c)·A_k − c·B_k` (= `v·C_k` at an exact equilibrium).
    pub expected_gain: Rational,
}

/// Rejection reasons for participation certificates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParticipationError {
    /// `p` (or a bracket endpoint) is outside `[0, 1]`.
    ProbabilityOutOfRange,
    /// An exact certificate fails the indifference equation.
    IndifferenceViolated {
        /// The (non-zero) value of the indifference function at `p`.
        residual: Rational,
    },
    /// A bracket certificate's endpoints do not straddle a sign change.
    BracketWithoutSignChange,
    /// A bracket certificate is wider than the verifier's tolerance.
    BracketTooWide {
        /// The bracket width.
        width: Rational,
        /// The verifier's tolerance.
        tolerance: Rational,
    },
}

impl fmt::Display for ParticipationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParticipationError::ProbabilityOutOfRange => {
                write!(f, "advised probability outside [0, 1]")
            }
            ParticipationError::IndifferenceViolated { residual } => {
                write!(f, "indifference equation violated (residual {residual})")
            }
            ParticipationError::BracketWithoutSignChange => {
                write!(f, "bracket endpoints do not straddle a sign change")
            }
            ParticipationError::BracketTooWide { width, tolerance } => {
                write!(f, "bracket width {width} exceeds tolerance {tolerance}")
            }
        }
    }
}

impl std::error::Error for ParticipationError {}

impl ParticipationVerified {
    /// The four Eq. (5) tails and the expected gain of the game `params`
    /// at `p`, normally the probability [`verify_participation_certificate`]
    /// returned.
    pub fn at(params: &ParticipationParams, p: Rational) -> ParticipationVerified {
        let others = params.n - 1;
        let a_k = binomial_tail_at_least(others, params.k - 1, &p);
        let b_k = binomial_tail_at_most(others, params.k.saturating_sub(2), &p);
        let c_k = binomial_tail_at_least(others, params.k, &p);
        let d_k = binomial_tail_at_most(others, params.k - 1, &p);
        let expected_gain = (&params.v - &params.c) * &a_k - &params.c * &b_k;
        ParticipationVerified {
            p,
            a_k,
            b_k,
            c_k,
            d_k,
            expected_gain,
        }
    }
}

/// Verifies a participation certificate for the game `params`: Eq. (5) for
/// exact roots, the sign-change property (plus a width bound) for brackets.
/// Returns the checked probability: the root itself, or a bracket's
/// midpoint.
///
/// # Errors
///
/// See [`ParticipationError`].
///
/// # Examples
///
/// ```
/// use ra_exact::rat;
/// use ra_proofs::{verify_participation_certificate, ParticipationCertificate, ParticipationVerified};
/// use ra_games::{EquilibriumRoot, ParticipationParams};
///
/// // The paper's worked example: p = 1/4 for c/v = 3/8, n = 3.
/// let params = ParticipationParams::paper_example();
/// let cert = ParticipationCertificate {
///     root: EquilibriumRoot::Exact(rat(1, 4)),
/// };
/// let p = verify_participation_certificate(&params, &cert, &rat(1, 1_000_000)).unwrap();
/// assert_eq!(p, rat(1, 4));
/// // Expected equilibrium gain is v/16 = 8/16 = 1/2.
/// assert_eq!(ParticipationVerified::at(&params, p).expected_gain, rat(1, 2));
/// ```
pub fn verify_participation_certificate(
    params: &ParticipationParams,
    certificate: &ParticipationCertificate,
    tolerance: &Rational,
) -> Result<Rational, ParticipationError> {
    let in_unit = |p: &Rational| !p.is_negative() && p <= &Rational::one();
    match &certificate.root {
        EquilibriumRoot::Exact(p) => {
            if !in_unit(p) {
                return Err(ParticipationError::ProbabilityOutOfRange);
            }
            let residual = params.indifference_fn(p);
            if !residual.is_zero() {
                return Err(ParticipationError::IndifferenceViolated { residual });
            }
            Ok(p.clone())
        }
        EquilibriumRoot::Bracket { lo, hi } => {
            if !in_unit(lo) || !in_unit(hi) || lo >= hi {
                return Err(ParticipationError::ProbabilityOutOfRange);
            }
            let width = hi - lo;
            if &width > tolerance {
                return Err(ParticipationError::BracketTooWide {
                    width,
                    tolerance: tolerance.clone(),
                });
            }
            let g_lo = params.indifference_fn(lo);
            let g_hi = params.indifference_fn(hi);
            if g_lo.is_zero() || g_hi.is_zero() {
                // An endpoint is itself a root: fine.
            } else if g_lo.is_negative() == g_hi.is_negative() {
                return Err(ParticipationError::BracketWithoutSignChange);
            }
            Ok(certificate.root.value())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_exact::rat;

    fn paper_cert() -> ParticipationCertificate {
        ParticipationCertificate {
            root: EquilibriumRoot::Exact(rat(1, 4)),
        }
    }

    fn verify_paper(
        cert: &ParticipationCertificate,
        tolerance: &Rational,
    ) -> Result<Rational, ParticipationError> {
        verify_participation_certificate(&ParticipationParams::paper_example(), cert, tolerance)
    }

    #[test]
    fn paper_numbers_check_out() {
        let p = verify_paper(&paper_cert(), &rat(1, 1024)).unwrap();
        assert_eq!(p, rat(1, 4));
        let v = ParticipationVerified::at(&ParticipationParams::paper_example(), p);
        // With p = 1/4 and two other firms:
        assert_eq!(v.a_k, rat(7, 16)); // ≥1 other participates
        assert_eq!(v.b_k, rat(9, 16)); // no other participates
        assert_eq!(v.c_k, rat(1, 16)); // ≥2 others participate
        assert_eq!(v.d_k, rat(15, 16));
        // Expected gain v/16 = 1/2 for v = 8 — and equals v·C_k exactly.
        assert_eq!(v.expected_gain, rat(1, 2));
        assert_eq!(v.expected_gain, rat(8, 1) * &v.c_k);
        // Tails are complementary.
        assert_eq!(&v.a_k + &v.b_k, Rational::one());
        assert_eq!(&v.c_k + &v.d_k, Rational::one());
    }

    #[test]
    fn wrong_p_rejected() {
        let mut cert = paper_cert();
        cert.root = EquilibriumRoot::Exact(rat(1, 3));
        assert!(matches!(
            verify_paper(&cert, &rat(1, 1024)),
            Err(ParticipationError::IndifferenceViolated { .. })
        ));
        cert.root = EquilibriumRoot::Exact(rat(5, 4));
        assert!(matches!(
            verify_paper(&cert, &rat(1, 1024)),
            Err(ParticipationError::ProbabilityOutOfRange)
        ));
    }

    #[test]
    fn second_equilibrium_also_verifies() {
        let mut cert = paper_cert();
        cert.root = EquilibriumRoot::Exact(rat(3, 4));
        assert_eq!(verify_paper(&cert, &rat(1, 1024)), Ok(rat(3, 4)));
    }

    #[test]
    fn bad_brackets_rejected() {
        let params = ParticipationParams::paper_example();
        // No sign change across [0.3, 0.5] (g > 0 on both: 16·0.3·0.7=3.36>3,
        // 16·0.5·0.5=4>3).
        let cert = ParticipationCertificate {
            root: EquilibriumRoot::Bracket {
                lo: rat(3, 10),
                hi: rat(1, 2),
            },
        };
        assert!(matches!(
            verify_participation_certificate(&params, &cert, &rat(1, 1)),
            Err(ParticipationError::BracketWithoutSignChange)
        ));
        // Too wide for the verifier's tolerance.
        let cert = ParticipationCertificate {
            root: EquilibriumRoot::Bracket {
                lo: rat(1, 10),
                hi: rat(1, 2),
            },
        };
        assert!(matches!(
            verify_participation_certificate(&params, &cert, &rat(1, 100)),
            Err(ParticipationError::BracketTooWide { .. })
        ));
    }
}
