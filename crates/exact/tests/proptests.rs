//! Property-based tests for the exact arithmetic substrate.
//!
//! These check the algebraic laws that every downstream verifier silently
//! relies on: ring/field axioms, division round-trips, gcd invariants, and
//! that Gaussian elimination really solves what it claims to solve.

use proptest::prelude::*;
use ra_exact::{
    binomial, binomial_pmf, binomial_tail_at_least, solve_linear_system, BigInt, LinearSolution,
    Matrix, Rational,
};

fn arb_bigint() -> impl Strategy<Value = BigInt> {
    any::<i128>().prop_map(BigInt::from)
}

/// BigInts wide enough to exercise multi-limb code paths.
fn arb_wide_bigint() -> impl Strategy<Value = BigInt> {
    (any::<i128>(), any::<u128>(), 0u32..200).prop_map(|(a, b, sh)| {
        let base = BigInt::from(a) * BigInt::from(b) + BigInt::from(a);
        base.shl(sh)
    })
}

fn arb_rational() -> impl Strategy<Value = Rational> {
    (any::<i64>(), 1i64..=i64::MAX).prop_map(|(n, d)| Rational::new(n, d))
}

fn arb_small_rational() -> impl Strategy<Value = Rational> {
    (-1000i64..=1000, 1i64..=50).prop_map(|(n, d)| Rational::new(n, d))
}

proptest! {
    #[test]
    fn bigint_add_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let sum = BigInt::from(a) + BigInt::from(b);
        prop_assert_eq!(sum, BigInt::from(a as i128 + b as i128));
    }

    #[test]
    fn bigint_mul_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let prod = BigInt::from(a) * BigInt::from(b);
        prop_assert_eq!(prod, BigInt::from(a as i128 * b as i128));
    }

    #[test]
    fn bigint_add_commutes(a in arb_wide_bigint(), b in arb_wide_bigint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn bigint_mul_commutes(a in arb_wide_bigint(), b in arb_wide_bigint()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn bigint_distributes(a in arb_bigint(), b in arb_bigint(), c in arb_bigint()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn bigint_div_rem_round_trip(a in arb_wide_bigint(), b in arb_wide_bigint()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert_eq!(&(&q * &b) + &r, a.clone());
        prop_assert!(r.abs() < b.abs());
        // Remainder sign follows the dividend (truncated division).
        if !r.is_zero() {
            prop_assert_eq!(r.is_negative(), a.is_negative());
        }
    }

    #[test]
    fn bigint_display_parse_round_trip(a in arb_wide_bigint()) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<BigInt>().unwrap(), a);
    }

    #[test]
    fn bigint_gcd_divides_both(a in arb_bigint(), b in arb_bigint()) {
        let g = a.gcd(&b);
        if !g.is_zero() {
            prop_assert!((&a % &g).is_zero());
            prop_assert!((&b % &g).is_zero());
        } else {
            prop_assert!(a.is_zero() && b.is_zero());
        }
    }

    #[test]
    fn bigint_ordering_respects_addition(a in arb_bigint(), b in arb_bigint(), c in arb_bigint()) {
        prop_assert_eq!((&a + &c).cmp(&(&b + &c)), a.cmp(&b));
    }

    #[test]
    fn rational_field_laws(a in arb_rational(), b in arb_rational(), c in arb_rational()) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        prop_assert_eq!(&a - &a, Rational::zero());
        if !a.is_zero() {
            prop_assert_eq!(&a * &a.recip(), Rational::one());
        }
    }

    #[test]
    fn rational_is_normalized(n in any::<i64>(), d in 1i64..=i64::MAX) {
        let r = Rational::new(n, d);
        prop_assert!(r.denom().is_positive());
        prop_assert_eq!(r.numer().gcd(r.denom()), BigInt::one().gcd(&BigInt::zero()).max(BigInt::one()));
    }

    #[test]
    fn rational_ordering_matches_f64(a in arb_small_rational(), b in arb_small_rational()) {
        // Small rationals are exactly representable comparisons in f64 terms
        // only approximately; use a tolerance-free check via cross products.
        let lhs = a.to_f64();
        let rhs = b.to_f64();
        if (lhs - rhs).abs() > 1e-9 {
            prop_assert_eq!(a < b, lhs < rhs);
        }
    }

    #[test]
    fn rational_from_f64_exact(v in -1.0e12f64..1.0e12) {
        let r = Rational::from_f64(v).unwrap();
        prop_assert_eq!(r.to_f64(), v);
    }

    #[test]
    fn linear_solver_recovers_planted_solution(
        entries in prop::collection::vec(-9i64..=9, 9),
        sol in prop::collection::vec(-9i64..=9, 3),
    ) {
        let a = Matrix::from_fn(3, 3, |i, j| Rational::from(entries[i * 3 + j]));
        let x: Vec<Rational> = sol.iter().map(|&v| Rational::from(v)).collect();
        let b = a.mul_vec(&x);
        // Whatever the solver returns must satisfy the system; if the matrix
        // is nonsingular it must be exactly the planted solution.
        match solve_linear_system(&a, &b) {
            LinearSolution::Unique(y) => {
                prop_assert_eq!(a.mul_vec(&y).clone(), b.clone());
                prop_assert!(!a.determinant().is_zero());
                prop_assert_eq!(y, x);
            }
            LinearSolution::Underdetermined { particular, .. } => {
                prop_assert_eq!(a.mul_vec(&particular), b);
                prop_assert!(a.determinant().is_zero());
            }
            LinearSolution::Inconsistent => {
                // b was constructed in the column space, so this is impossible.
                prop_assert!(false, "planted system reported inconsistent");
            }
        }
    }

    #[test]
    fn determinant_is_multiplicative(
        ea in prop::collection::vec(-5i64..=5, 4),
        eb in prop::collection::vec(-5i64..=5, 4),
    ) {
        let a = Matrix::from_fn(2, 2, |i, j| Rational::from(ea[i * 2 + j]));
        let b = Matrix::from_fn(2, 2, |i, j| Rational::from(eb[i * 2 + j]));
        prop_assert_eq!(a.mul_mat(&b).determinant(), a.determinant() * b.determinant());
    }

    #[test]
    fn binomial_symmetry(n in 0u64..40, k in 0u64..40) {
        if k <= n {
            prop_assert_eq!(binomial(n, k), binomial(n, n - k));
        } else {
            prop_assert!(binomial(n, k).is_zero());
        }
    }

    #[test]
    fn binomial_tail_is_monotone(n in 1u64..20, num in 0i64..=100) {
        let p = Rational::new(num, 100);
        let mut prev = Rational::one();
        for k in 0..=n {
            let t = binomial_tail_at_least(n, k, &p);
            prop_assert!(t <= prev, "tail must be non-increasing in k");
            prev = t;
        }
    }

    #[test]
    fn binomial_pmf_nonnegative(n in 0u64..15, k in 0u64..20, num in 0i64..=100) {
        let p = Rational::new(num, 100);
        prop_assert!(!binomial_pmf(n, k, &p).is_negative());
    }
}
