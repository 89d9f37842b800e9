//! The §5 participation game's parameters and the form of its
//! equilibrium probability: the data an inventor's participation
//! certificate carries, shared by the solver that finds the root
//! (`ra-solvers`) and the checker that verifies it (`ra-proofs`).

use std::fmt;

use ra_exact::{binomial, rat, Rational};

/// Parameters of the §5 participation game.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParticipationParams {
    /// Number of firms `n ≥ 2`.
    pub n: u64,
    /// Participation threshold `k` (the paper's running example is `k = 2`).
    pub k: u64,
    /// Prize value `v > 0`.
    pub v: Rational,
    /// Participation fee `0 < c < v`.
    pub c: Rational,
}

impl ParticipationParams {
    /// The most firms a spec may name. An exact check raises rationals to
    /// the powers `k − 1` and `n − k`, so its cost grows with `n`, not
    /// with the O(log n) bytes that encode it. Measured in release on a
    /// 2-vCPU host at `n = 64`, `k = 2`: a cold `kernel_check` rejects the
    /// corrupt inventor's wrong root (a 2⁻³⁰-wide bracket moved by 1/50)
    /// in 1.3–2.5 ms and accepts the honest one in 7–14 ms; at
    /// `n = 1,000` the same checks take 0.14 s and 0.93 s.
    pub const MAX_FIRMS: u64 = 64;

    /// Validated constructor.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint; `n` above [`Self::MAX_FIRMS`] is
    /// [`ParticipationParamsError::TooManyFirms`].
    pub fn new(
        n: u64,
        k: u64,
        v: Rational,
        c: Rational,
    ) -> Result<ParticipationParams, ParticipationParamsError> {
        if n < 2 {
            return Err(ParticipationParamsError::TooFewFirms { n });
        }
        if n > Self::MAX_FIRMS {
            return Err(ParticipationParamsError::TooManyFirms { n });
        }
        if k < 2 || k > n {
            return Err(ParticipationParamsError::ThresholdOutOfRange { k });
        }
        if !v.is_positive() {
            return Err(ParticipationParamsError::PrizeNotPositive { v });
        }
        if !c.is_positive() || c >= v {
            return Err(ParticipationParamsError::FeeOutOfRange { c });
        }
        Ok(ParticipationParams { n, k, v, c })
    }

    /// The paper's worked example: `c/v = 3/8`, `n = 3`, `k = 2`
    /// (scaled to `v = 8`, `c = 3`), with equilibrium `p = 1/4`.
    pub fn paper_example() -> ParticipationParams {
        ParticipationParams::new(3, 2, Rational::from(8), Rational::from(3))
            .expect("paper example parameters are valid")
    }

    /// `g(p) = v·C(n−1,k−1)·p^{k−1}(1−p)^{n−k} − c`, whose roots in `(0,1)`
    /// are the interior symmetric equilibria.
    ///
    /// # Panics
    ///
    /// Panics if `k − 1` or `n − k` exceeds `i32::MAX`, the exponent of
    /// `Rational::pow`; only fields set without [`Self::new`] reach that.
    pub fn indifference_fn(&self, p: &Rational) -> Rational {
        let exponent = |e: u64| i32::try_from(e).expect("an exponent above i32::MAX");
        let coeff = Rational::from(binomial(self.n - 1, self.k - 1));
        let q = Rational::one() - p;
        &self.v * &coeff * p.pow(exponent(self.k - 1)) * q.pow(exponent(self.n - self.k)) - &self.c
    }

    /// The mode of the binomial pmf factor: `p* = (k−1)/(n−1)`, where the
    /// indifference function peaks. Roots, if any, lie on either side.
    pub fn peak(&self) -> Rational {
        Rational::from_bigints(
            ra_exact::BigInt::from(self.k - 1),
            ra_exact::BigInt::from(self.n - 1),
        )
    }
}

/// The constraint [`ParticipationParams::new`] found violated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParticipationParamsError {
    /// Fewer than two firms.
    TooFewFirms {
        /// The offered `n`.
        n: u64,
    },
    /// More than [`ParticipationParams::MAX_FIRMS`] firms.
    TooManyFirms {
        /// The offered `n`.
        n: u64,
    },
    /// The threshold is outside `2 ≤ k ≤ n`.
    ThresholdOutOfRange {
        /// The offered `k`.
        k: u64,
    },
    /// The prize is not positive.
    PrizeNotPositive {
        /// The offered `v`.
        v: Rational,
    },
    /// The fee is outside `0 < c < v`.
    FeeOutOfRange {
        /// The offered `c`.
        c: Rational,
    },
}

impl fmt::Display for ParticipationParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooFewFirms { n } => write!(f, "need at least two firms, got n = {n}"),
            Self::TooManyFirms { n } => write!(
                f,
                "at most {} firms, got n = {n}",
                ParticipationParams::MAX_FIRMS
            ),
            Self::ThresholdOutOfRange { k } => {
                write!(f, "threshold must satisfy 2 <= k <= n, got k = {k}")
            }
            Self::PrizeNotPositive { v } => write!(f, "prize must be positive, got v = {v}"),
            Self::FeeOutOfRange { c } => write!(f, "fee must satisfy 0 < c < v, got c = {c}"),
        }
    }
}

impl std::error::Error for ParticipationParamsError {}

/// An equilibrium probability as produced by the inventor: either exactly
/// rational, or bracketed to a requested tolerance with a sign-change
/// certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EquilibriumRoot {
    /// `p` satisfies the indifference condition exactly.
    Exact(Rational),
    /// The indifference function changes sign over `[lo, hi]`; a true
    /// equilibrium lies inside.
    Bracket {
        /// Lower end of the bracket.
        lo: Rational,
        /// Upper end of the bracket.
        hi: Rational,
    },
}

impl EquilibriumRoot {
    /// A representative value of the root (midpoint for brackets).
    pub fn value(&self) -> Rational {
        match self {
            EquilibriumRoot::Exact(p) => p.clone(),
            EquilibriumRoot::Bracket { lo, hi } => (lo + hi) * rat(1, 2),
        }
    }
}
