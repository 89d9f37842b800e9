//! Inventor-side equilibrium computation for the participation game (§5).
//!
//! The symmetric equilibrium probability `p` satisfies the indifference
//! condition derived from Eq. (2)/(5) of the paper, which reduces to
//!
//! ```text
//! c = v · C(n−1, k−1) · p^{k−1} · (1−p)^{n−k}
//! ```
//!
//! (`k = 2` gives the paper's Eq. (4): `c = v(n−1)p(1−p)^{n−2}`).
//! Finding `p` is the hard/tedious part the paper assigns to the inventor;
//! this module isolates the root(s) by exact bisection and, where the
//! equation happens to have a rational root, refines it to an *exact*
//! certificate.

use std::fmt;

use ra_exact::{rat, Rational};
use ra_games::{EquilibriumRoot, ParticipationParams};

/// Error from [`solve_participation_equilibrium`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParticipationSolveError {
    /// `c` is too large: even at the peak of the indifference function
    /// participating never pays, so no interior equilibrium exists
    /// (`p = 0` remains the unique symmetric equilibrium).
    NoInteriorEquilibrium,
}

impl fmt::Display for ParticipationSolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParticipationSolveError::NoInteriorEquilibrium => {
                write!(
                    f,
                    "no interior symmetric equilibrium: fee exceeds peak incentive"
                )
            }
        }
    }
}

impl std::error::Error for ParticipationSolveError {}

/// Computes the interior symmetric equilibria of the participation game.
///
/// Returns one or two roots (the indifference function is unimodal): the
/// smaller root is the conventional advice (lowest participation intensity
/// consistent with equilibrium). Each root is refined until `tolerance` and
/// upgraded to [`EquilibriumRoot::Exact`] when a bracket endpoint or the
/// midpoint hits the root exactly.
///
/// # Errors
///
/// [`ParticipationSolveError::NoInteriorEquilibrium`] when
/// `g(p*) < 0`, i.e. the fee is too high for any interior equilibrium.
///
/// # Examples
///
/// ```
/// use ra_solvers::{solve_participation_equilibrium, EquilibriumRoot, ParticipationParams};
/// use ra_exact::rat;
///
/// let params = ParticipationParams::paper_example();
/// let roots = solve_participation_equilibrium(&params, &rat(1, 1 << 30)).unwrap();
/// assert_eq!(roots[0], EquilibriumRoot::Exact(rat(1, 4)));
/// assert_eq!(roots[1], EquilibriumRoot::Exact(rat(3, 4)));
/// ```
pub fn solve_participation_equilibrium(
    params: &ParticipationParams,
    tolerance: &Rational,
) -> Result<Vec<EquilibriumRoot>, ParticipationSolveError> {
    let g = |p: &Rational| params.indifference_fn(p);
    let peak = params.peak();
    let at_peak = g(&peak);
    if at_peak.is_negative() {
        return Err(ParticipationSolveError::NoInteriorEquilibrium);
    }
    if at_peak.is_zero() {
        // Tangency: the peak itself is the unique interior equilibrium.
        return Ok(vec![EquilibriumRoot::Exact(peak)]);
    }
    let mut roots = Vec::new();
    // Rising branch [0, peak]: g(0) = −c < 0 < g(peak).
    if let Ok(res) = bisect(g, Rational::zero(), peak.clone(), tolerance) {
        roots.push(finish_root(g, res));
    }
    // Falling branch [peak, 1]: g(1) = −c < 0 (for k < n; for k = n the
    // factor (1−p)^{n−k} = 1 and g(1) = v·C − c may stay positive, in which
    // case every p ≥ root is... no: k = n makes g increasing, no second
    // root).
    let at_one = g(&Rational::one());
    if at_one.is_negative() {
        if let Ok(res) = bisect(g, peak, Rational::one(), tolerance) {
            roots.push(finish_root(g, res));
        }
    }
    Ok(roots)
}

/// Converts a bisection bracket to the public root representation, detecting
/// exact rational roots.
fn finish_root(g: impl Fn(&Rational) -> Rational, res: BisectionResult) -> EquilibriumRoot {
    if res.lo == res.hi {
        return EquilibriumRoot::Exact(res.lo);
    }
    if g(&res.lo).is_zero() {
        return EquilibriumRoot::Exact(res.lo);
    }
    if g(&res.hi).is_zero() {
        return EquilibriumRoot::Exact(res.hi);
    }
    let mid = res.midpoint();
    if g(&mid).is_zero() {
        return EquilibriumRoot::Exact(mid);
    }
    EquilibriumRoot::Bracket {
        lo: res.lo,
        hi: res.hi,
    }
}

/// Result of an exact bisection search.
#[derive(Clone, Debug, PartialEq, Eq)]
struct BisectionResult {
    /// Lower bound of the bracketing interval.
    lo: Rational,
    /// Upper bound of the bracketing interval.
    hi: Rational,
}

impl BisectionResult {
    /// Interval midpoint — the advised root approximation.
    fn midpoint(&self) -> Rational {
        (&self.lo + &self.hi) * rat(1, 2)
    }
}

/// Errors from [`bisect`].
#[derive(Clone, Debug, PartialEq, Eq)]
enum BisectError {
    /// `f(lo)` and `f(hi)` do not have opposite signs.
    NoSignChange,
    /// The requested interval is empty or reversed.
    EmptyInterval,
}

/// Exact bisection: narrows a sign-changing interval of `f` until its width
/// is at most `tolerance`.
///
/// All arithmetic is rational, so the returned bracket is a *certificate*:
/// anyone can re-evaluate `f` at `lo` and `hi` and confirm the sign change.
///
/// # Errors
///
/// Returns [`BisectError::NoSignChange`] if `f(lo)·f(hi) > 0`, and
/// [`BisectError::EmptyInterval`] if `lo >= hi`.
fn bisect(
    f: impl Fn(&Rational) -> Rational,
    mut lo: Rational,
    mut hi: Rational,
    tolerance: &Rational,
) -> Result<BisectionResult, BisectError> {
    if lo >= hi {
        return Err(BisectError::EmptyInterval);
    }
    let mut f_lo = f(&lo);
    let f_hi = f(&hi);
    if f_lo.is_zero() {
        return Ok(BisectionResult { hi: lo.clone(), lo });
    }
    if f_hi.is_zero() {
        return Ok(BisectionResult { lo: hi.clone(), hi });
    }
    if f_lo.is_negative() == f_hi.is_negative() {
        return Err(BisectError::NoSignChange);
    }
    let half = rat(1, 2);
    while &(&hi - &lo) > tolerance {
        let mid = (&lo + &hi) * &half;
        let f_mid = f(&mid);
        if f_mid.is_zero() {
            return Ok(BisectionResult {
                lo: mid.clone(),
                hi: mid,
            });
        }
        if f_mid.is_negative() == f_lo.is_negative() {
            lo = mid;
            f_lo = f_mid;
        } else {
            hi = mid;
        }
    }
    Ok(BisectionResult { lo, hi })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_games::ParticipationParamsError;

    #[test]
    fn paper_example_exact_roots() {
        let params = ParticipationParams::paper_example();
        let roots = solve_participation_equilibrium(&params, &rat(1, 1 << 25)).unwrap();
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0], EquilibriumRoot::Exact(rat(1, 4)));
        assert_eq!(roots[1], EquilibriumRoot::Exact(rat(3, 4)));
    }

    #[test]
    fn indifference_fn_matches_eq4() {
        // For k = 2 the function is v(n−1)p(1−p)^{n−2} − c.
        let params = ParticipationParams::new(5, 2, Rational::from(10), Rational::from(1)).unwrap();
        let p = rat(1, 3);
        let by_hand =
            Rational::from(10) * Rational::from(4) * &p * rat(2, 3).pow(3) - Rational::from(1);
        assert_eq!(params.indifference_fn(&p), by_hand);
    }

    #[test]
    fn bracket_roots_bracket_sign_change() {
        // n = 5, k = 2, v = 10, c = 1: roots are irrational.
        let params = ParticipationParams::new(5, 2, Rational::from(10), Rational::from(1)).unwrap();
        let tol = rat(1, 1 << 20);
        let roots = solve_participation_equilibrium(&params, &tol).unwrap();
        assert_eq!(roots.len(), 2);
        for root in roots {
            match root {
                EquilibriumRoot::Bracket { lo, hi } => {
                    assert!(&hi - &lo <= tol);
                    let g_lo = params.indifference_fn(&lo);
                    let g_hi = params.indifference_fn(&hi);
                    assert!(g_lo.is_negative() != g_hi.is_negative());
                }
                EquilibriumRoot::Exact(p) => {
                    assert!(params.indifference_fn(&p).is_zero());
                }
            }
        }
    }

    #[test]
    fn general_k_roots() {
        // n = 6, k = 4, v = 16, c = 1.
        let params = ParticipationParams::new(6, 4, Rational::from(16), Rational::from(1)).unwrap();
        let roots = solve_participation_equilibrium(&params, &rat(1, 1 << 20)).unwrap();
        assert_eq!(roots.len(), 2);
        // Both roots straddle the peak (k−1)/(n−1) = 3/5.
        assert!(roots[0].value() < rat(3, 5));
        assert!(roots[1].value() > rat(3, 5));
    }

    #[test]
    fn excessive_fee_has_no_interior_equilibrium() {
        // Peak incentive for n=3,k=2,v=8 is 8·2·(1/2)·(1/2) = 4; pick c in
        // (4, 8) — valid parameters but no interior root.
        let params = ParticipationParams::new(3, 2, Rational::from(8), Rational::from(5)).unwrap();
        assert_eq!(
            solve_participation_equilibrium(&params, &rat(1, 1024)),
            Err(ParticipationSolveError::NoInteriorEquilibrium)
        );
    }

    #[test]
    fn tangency_case() {
        // c exactly equal to the peak value: n=3,k=2,v=8 ⇒ peak g = 4 at
        // p = 1/2; choose c = 4.
        let params = ParticipationParams::new(3, 2, Rational::from(8), Rational::from(4)).unwrap();
        let roots = solve_participation_equilibrium(&params, &rat(1, 1024)).unwrap();
        assert_eq!(roots, vec![EquilibriumRoot::Exact(rat(1, 2))]);
    }

    #[test]
    fn k_equals_n_single_root() {
        // k = n: g(p) = v·p^{n−1} − c is increasing; single root.
        let params = ParticipationParams::new(3, 3, Rational::from(8), Rational::from(2)).unwrap();
        let roots = solve_participation_equilibrium(&params, &rat(1, 1 << 25)).unwrap();
        assert_eq!(roots.len(), 1);
        // Root of 8p² = 2 ⇒ p = 1/2 exactly.
        assert_eq!(roots[0], EquilibriumRoot::Exact(rat(1, 2)));
    }

    #[test]
    fn parameter_validation() {
        assert!(ParticipationParams::new(1, 2, Rational::from(8), Rational::from(3)).is_err());
        assert!(ParticipationParams::new(3, 1, Rational::from(8), Rational::from(3)).is_err());
        assert!(ParticipationParams::new(3, 4, Rational::from(8), Rational::from(3)).is_err());
        assert!(ParticipationParams::new(3, 2, Rational::from(0), Rational::from(3)).is_err());
        assert!(ParticipationParams::new(3, 2, Rational::from(8), Rational::from(9)).is_err());
        assert!(ParticipationParams::new(3, 2, Rational::from(8), Rational::from(0)).is_err());
    }

    #[test]
    fn firm_counts_past_the_cap_are_refused() {
        let new = |n| ParticipationParams::new(n, 2, Rational::from(8), Rational::from(3));
        let cap = ParticipationParams::MAX_FIRMS;
        assert!(new(cap).is_ok());
        // 2³² + 2 firms: `n − k` would wrap to 0 as an `i32` exponent.
        for n in [cap + 1, (1 << 32) + 2, u64::MAX] {
            assert_eq!(new(n), Err(ParticipationParamsError::TooManyFirms { n }));
        }
    }
    #[test]
    fn bisect_finds_participation_equilibrium() {
        // §5 worked example: v(n-1)p(1-p)^{n-2} - c with v=1, c=3/8, n=3.
        // Smallest root is exactly 1/4.
        let f = |p: &Rational| Rational::from(2) * p * (Rational::one() - p) - rat(3, 8);
        let res = bisect(f, rat(0, 1), rat(1, 2), &rat(1, 1 << 20)).unwrap();
        let mid = res.midpoint();
        assert!((mid - rat(1, 4)).abs() < rat(1, 1 << 19));
    }

    #[test]
    fn bisect_narrows_to_tolerance() {
        // Root of x^2 - 2 in [1, 2]: narrows toward sqrt(2).
        let f = |x: &Rational| x * x - Rational::from(2);
        let res = bisect(f, rat(1, 1), rat(2, 1), &rat(1, 1024)).unwrap();
        assert!(&res.hi - &res.lo <= rat(1, 1024));
        assert!(res.lo.pow(2) < rat(2, 1) && res.hi.pow(2) > rat(2, 1));
    }

    #[test]
    fn bisect_exact_hit() {
        let f = |x: &Rational| x - &rat(1, 2);
        let res = bisect(f, rat(0, 1), rat(1, 1), &rat(1, 1024)).unwrap();
        assert_eq!(res.lo, rat(1, 2));
        assert_eq!(res.hi, rat(1, 2));
    }

    #[test]
    fn bisect_errors() {
        let f = |x: &Rational| x.clone();
        assert_eq!(
            bisect(f, rat(1, 1), rat(2, 1), &rat(1, 2)),
            Err(BisectError::NoSignChange)
        );
        assert_eq!(
            bisect(f, rat(2, 1), rat(1, 1), &rat(1, 2)),
            Err(BisectError::EmptyInterval)
        );
    }
}
