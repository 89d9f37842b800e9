//! Exact binomial combinatorics.
//!
//! The general-`k` participation game (§5, Eq. (5)) verifies an indifference
//! condition between binomial tail probabilities: with `n − 1` other firms
//! each participating independently with probability `p`, the verifier needs
//! `Pr[at least k participate]` *exactly*. These helpers compute binomial
//! coefficients and tails over [`Rational`] so the check is sound.

use crate::bigint::BigInt;
use crate::rational::Rational;

/// Binomial coefficient `C(n, k)` as a [`BigInt`].
///
/// Returns zero when `k > n`.
///
/// # Examples
///
/// ```
/// use ra_exact::{binomial, BigInt};
///
/// assert_eq!(binomial(5, 2), BigInt::from(10));
/// assert_eq!(binomial(4, 5), BigInt::from(0));
/// assert_eq!(binomial(0, 0), BigInt::from(1));
/// ```
pub fn binomial(n: u64, k: u64) -> BigInt {
    if k > n {
        return BigInt::zero();
    }
    let k = k.min(n - k);
    let mut acc = BigInt::one();
    for i in 0..k {
        acc = &acc * &BigInt::from(n - i);
        acc = &acc / &BigInt::from(i + 1);
    }
    acc
}

/// Probability mass `Pr[X = k]` for `X ~ Binomial(n, p)`, exactly.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`, or if `k ≤ n` and `k` or `n − k`
/// exceeds `i32::MAX` (the exponents of `Rational::pow`).
pub fn binomial_pmf(n: u64, k: u64, p: &Rational) -> Rational {
    assert!(
        !p.is_negative() && p <= &Rational::one(),
        "probability must lie in [0, 1]"
    );
    if k > n {
        return Rational::zero();
    }
    let exponent = |e: u64| i32::try_from(e).expect("an exponent above i32::MAX");
    let q = Rational::one() - p;
    Rational::from(binomial(n, k)) * p.pow(exponent(k)) * q.pow(exponent(n - k))
}

/// Upper tail `Pr[X >= k]` for `X ~ Binomial(n, p)`, exactly.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use ra_exact::{binomial_tail_at_least, rat, Rational};
///
/// // Two fair coins: Pr[at least one head] = 3/4.
/// assert_eq!(binomial_tail_at_least(2, 1, &rat(1, 2)), rat(3, 4));
/// ```
pub fn binomial_tail_at_least(n: u64, k: u64, p: &Rational) -> Rational {
    if k == 0 {
        return Rational::one();
    }
    if k > n {
        return Rational::zero();
    }
    // Sum the smaller side for speed, then complement if needed.
    if k <= n / 2 {
        let mut below = Rational::zero();
        for j in 0..k {
            below += binomial_pmf(n, j, p);
        }
        Rational::one() - below
    } else {
        let mut acc = Rational::zero();
        for j in k..=n {
            acc += binomial_pmf(n, j, p);
        }
        acc
    }
}

/// Lower tail `Pr[X <= k]` for `X ~ Binomial(n, p)`, exactly.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn binomial_tail_at_most(n: u64, k: u64, p: &Rational) -> Rational {
    Rational::one() - binomial_tail_at_least(n, k + 1, p)
}

/// Factorial `n!` as a [`BigInt`].
pub fn factorial(n: u64) -> BigInt {
    let mut acc = BigInt::one();
    for i in 2..=n {
        acc = &acc * &BigInt::from(i);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::rat;

    #[test]
    fn pascal_identity() {
        for n in 1..20u64 {
            for k in 1..n {
                assert_eq!(
                    binomial(n, k),
                    &binomial(n - 1, k - 1) + &binomial(n - 1, k),
                    "C({n},{k})"
                );
            }
        }
    }

    #[test]
    fn binomial_edge_cases() {
        assert_eq!(binomial(10, 0), BigInt::one());
        assert_eq!(binomial(10, 10), BigInt::one());
        assert_eq!(binomial(10, 11), BigInt::zero());
        assert_eq!(binomial(52, 5), BigInt::from(2_598_960u64));
        // A value beyond u64: C(100, 50).
        let c: BigInt = "100891344545564193334812497256".parse().unwrap();
        assert_eq!(binomial(100, 50), c);
    }

    #[test]
    fn pmf_sums_to_one() {
        for n in [0u64, 1, 5, 9] {
            let p = rat(3, 7);
            let total: Rational = (0..=n)
                .map(|k| binomial_pmf(n, k, &p))
                .fold(Rational::zero(), |a, b| a + b);
            assert_eq!(total, Rational::one(), "n = {n}");
        }
    }

    #[test]
    fn tails_are_consistent() {
        let n = 8;
        let p = rat(1, 3);
        for k in 0..=n {
            let ge = binomial_tail_at_least(n, k, &p);
            let le = binomial_tail_at_most(n, k, &p);
            // Pr[X >= k] + Pr[X <= k] = 1 + Pr[X = k]
            assert_eq!(&ge + &le, Rational::one() + binomial_pmf(n, k, &p), "k={k}");
        }
        assert_eq!(binomial_tail_at_least(n, 0, &p), Rational::one());
        assert_eq!(binomial_tail_at_least(n, n + 1, &p), Rational::zero());
    }

    #[test]
    fn participation_game_probabilities() {
        // §5, k = 2, n = 3, p = 1/4: with two other firms,
        // C = Pr[at least 2 others participate] = p^2 = 1/16,
        // and the expected gain v·C matches the paper's v/16 once the
        // indifference condition holds.
        let p = rat(1, 4);
        assert_eq!(binomial_tail_at_least(2, 2, &p), rat(1, 16));
        // A = Pr[at least 1 other participates] = 1 - (3/4)^2 = 7/16.
        assert_eq!(binomial_tail_at_least(2, 1, &p), rat(7, 16));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn pmf_rejects_bad_probability() {
        let _ = binomial_pmf(3, 1, &rat(9, 8));
    }

    #[test]
    fn factorials() {
        assert_eq!(factorial(0), BigInt::one());
        assert_eq!(factorial(5), BigInt::from(120));
        assert_eq!(factorial(20), BigInt::from(2_432_902_008_176_640_000u64));
    }
}
