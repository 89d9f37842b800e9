//! The §5 participation game's parameters and the form of its
//! equilibrium probability: the data an inventor's participation
//! certificate carries, shared by the solver that finds the root
//! (`ra-solvers`) and the checker that verifies it (`ra-proofs`).

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
    /// Validated constructor.
    ///
    /// # Errors
    ///
    /// Returns a message describing the violated constraint.
    pub fn new(n: u64, k: u64, v: Rational, c: Rational) -> Result<ParticipationParams, String> {
        if n < 2 {
            return Err(format!("need at least two firms, got n = {n}"));
        }
        if k < 2 || k > n {
            return Err(format!("threshold must satisfy 2 <= k <= n, got k = {k}"));
        }
        if !v.is_positive() {
            return Err(format!("prize must be positive, got v = {v}"));
        }
        if !c.is_positive() || c >= v {
            return Err(format!("fee must satisfy 0 < c < v, got c = {c}"));
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
    pub fn indifference_fn(&self, p: &Rational) -> Rational {
        let coeff = Rational::from(binomial(self.n - 1, self.k - 1));
        let q = Rational::one() - p;
        &self.v * &coeff * p.pow((self.k - 1) as i32) * q.pow((self.n - self.k) as i32) - &self.c
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
