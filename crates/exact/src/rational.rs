//! Exact rational numbers.
//!
//! [`Rational`] is the scalar type of every verifier in this workspace:
//! payoffs, mixed-strategy probabilities and equilibrium values are all
//! represented exactly, so a certificate check never accepts a false claim
//! due to rounding. Values are kept normalized (reduced, positive
//! denominator), making equality structural.
//!
//! When both parts of every operand fit in a machine word (the usual case
//! for payoffs and paper-size certificates), arithmetic and comparison run
//! on `i128` cross products reduced by a binary gcd, with no allocation.
//! Wider operands take the arbitrary-precision [`BigInt`] path. Both paths
//! are exact; no floating point is involved.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

use crate::bigint::{gcd_u128, gcd_u64, BigInt, ParseExactError, Sign};

/// An exact rational number `num / den` with `den > 0` and `gcd(num, den) = 1`.
///
/// # Examples
///
/// ```
/// use ra_exact::Rational;
///
/// let third = Rational::new(1, 3);
/// let sum = &third + &third + &third;
/// assert_eq!(sum, Rational::one());
/// assert_eq!("3/8".parse::<Rational>().unwrap(), Rational::new(3, 8));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    num: BigInt,
    den: BigInt,
}

impl Rational {
    /// Creates `num / den` from machine integers.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Rational {
        Rational::from_bigints(BigInt::from(num), BigInt::from(den))
    }

    /// Creates `num / den` from big integers, normalizing sign and factors.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn from_bigints(num: BigInt, den: BigInt) -> Rational {
        assert!(!den.is_zero(), "rational with zero denominator");
        if let (Some(n), Some(d)) = (num.to_i64(), den.to_i64()) {
            return Rational::reduce_wide(n.into(), d.into());
        }
        if num.is_zero() {
            return Rational {
                num: BigInt::zero(),
                den: BigInt::one(),
            };
        }
        let g = num.gcd(&den);
        let mut num = &num / &g;
        let mut den = &den / &g;
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        Rational { num, den }
    }

    /// The value `num / den` of parts already in lowest terms with
    /// `den > 0`, as the canonical decoder has checked them.
    pub(crate) fn from_reduced(num: BigInt, den: BigInt) -> Rational {
        debug_assert!(den.is_positive());
        Rational { num, den }
    }

    /// `n / d` in lowest terms, for `d != 0` and operands widened from
    /// machine words: the gcd runs on `u64` when both magnitudes fit.
    fn reduce_wide(n: i128, d: i128) -> Rational {
        let negative = (n < 0) != (d < 0);
        let (n, d) = (n.unsigned_abs(), d.unsigned_abs());
        let (n, d) = match (u64::try_from(n), u64::try_from(d)) {
            (_, Ok(1)) => (n, 1),
            (Ok(n), Ok(d)) => {
                let g = gcd_u64(n, d);
                (u128::from(n / g), u128::from(d / g))
            }
            _ => {
                let g = gcd_u128(n, d);
                (n / g, d / g)
            }
        };
        Rational {
            num: BigInt::from_sign_u128(negative, n),
            den: BigInt::from_sign_u128(false, d),
        }
    }

    /// Numerator and denominator as machine words, when both are inline.
    #[inline]
    fn words(&self) -> Option<(i128, i128)> {
        Some((self.num.to_i64()?.into(), self.den.to_i64()?.into()))
    }

    /// The rational `0`.
    pub fn zero() -> Rational {
        Rational {
            num: BigInt::zero(),
            den: BigInt::one(),
        }
    }

    /// The rational `1`.
    pub fn one() -> Rational {
        Rational {
            num: BigInt::one(),
            den: BigInt::one(),
        }
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Returns `true` if the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// Returns the sign of the value.
    pub fn sign(&self) -> Sign {
        self.num.sign()
    }

    /// The (reduced) numerator.
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// The (reduced, strictly positive) denominator.
    pub fn denom(&self) -> &BigInt {
        &self.den
    }

    /// Returns `true` if the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == BigInt::one()
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        if self.is_negative() {
            -self
        } else {
            self.clone()
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        if self.num.is_negative() {
            Rational {
                num: -&self.den,
                den: -&self.num,
            }
        } else {
            Rational {
                num: self.den.clone(),
                den: self.num.clone(),
            }
        }
    }

    /// Raises to an integer power (negative exponents invert).
    ///
    /// # Panics
    ///
    /// Panics if the value is zero and `exp < 0`.
    pub fn pow(&self, exp: i32) -> Rational {
        // `unsigned_abs` keeps `i32::MIN` (whose negation overflows) exact.
        let base = if exp < 0 { self.recip() } else { self.clone() };
        let exp = exp.unsigned_abs();
        Rational {
            num: base.num.pow(exp),
            den: base.den.pow(exp),
        }
    }

    /// Approximate `f64` value.
    pub fn to_f64(&self) -> f64 {
        // Scale so that both parts stay in f64 range for huge operands.
        let (nb, db) = (self.num.bits(), self.den.bits());
        if nb < 900 && db < 900 {
            return self.num.to_f64() / self.den.to_f64();
        }
        let shift = u32::try_from(nb.max(db) - 512).expect("an operand of under 2³² bits");
        let n = (self.num.abs().shl(0) / BigInt::from(2u8).pow(shift)).to_f64();
        let d = (self.den.shl(0) / BigInt::from(2u8).pow(shift)).to_f64();
        let v = n / d;
        if self.is_negative() {
            -v
        } else {
            v
        }
    }

    /// Exact conversion from an `f64` (every finite `f64` is rational).
    ///
    /// Returns `None` for NaN or infinities.
    // The exponent field has 11 bits, and `exp2` lies in `[-1074, 971]`.
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss
    )]
    pub fn from_f64(v: f64) -> Option<Rational> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(Rational::zero());
        }
        let bits = v.to_bits();
        let sign = if bits >> 63 == 1 { -1i64 } else { 1 };
        let exponent = ((bits >> 52) & 0x7ff) as i64;
        let mantissa = if exponent == 0 {
            bits & 0xf_ffff_ffff_ffff // subnormal
        } else {
            (bits & 0xf_ffff_ffff_ffff) | (1 << 52)
        };
        let exp2 = exponent.max(1) - 1075;
        let m = BigInt::from(sign) * BigInt::from(mantissa);
        Some(if exp2 >= 0 {
            Rational::from_bigints(m.shl(exp2 as u32), BigInt::one())
        } else {
            Rational::from_bigints(m, BigInt::from(2u8).pow((-exp2) as u32))
        })
    }

    /// Rounds toward negative infinity to an integer.
    pub fn floor(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_negative() {
            q - BigInt::one()
        } else {
            q
        }
    }

    /// Minimum of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rational {
    fn default() -> Rational {
        Rational::zero()
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Rational {
        Rational {
            num: BigInt::from(v),
            den: BigInt::one(),
        }
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Rational {
        Rational::from(v as i64)
    }
}

impl From<u32> for Rational {
    fn from(v: u32) -> Rational {
        Rational::from(v as i64)
    }
}

impl From<usize> for Rational {
    fn from(v: usize) -> Rational {
        Rational {
            num: BigInt::from(v),
            den: BigInt::one(),
        }
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Rational {
        Rational {
            num: v,
            den: BigInt::one(),
        }
    }
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        if let (Some((a, b)), Some((c, d))) = (self.words(), rhs.words()) {
            return Rational::reduce_wide(a * d + c * b, b * d);
        }
        Rational::from_bigints(
            &(&self.num * &rhs.den) + &(&rhs.num * &self.den),
            &self.den * &rhs.den,
        )
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        if let (Some((a, b)), Some((c, d))) = (self.words(), rhs.words()) {
            return Rational::reduce_wide(a * d - c * b, b * d);
        }
        Rational::from_bigints(
            &(&self.num * &rhs.den) - &(&rhs.num * &self.den),
            &self.den * &rhs.den,
        )
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        if let (Some((a, b)), Some((c, d))) = (self.words(), rhs.words()) {
            return Rational::reduce_wide(a * c, b * d);
        }
        Rational::from_bigints(&self.num * &rhs.num, &self.den * &rhs.den)
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, rhs: &Rational) -> Rational {
        assert!(!rhs.is_zero(), "division by zero Rational");
        if let (Some((a, b)), Some((c, d))) = (self.words(), rhs.words()) {
            return Rational::reduce_wide(a * d, b * c);
        }
        Rational::from_bigints(&self.num * &rhs.den, &self.den * &rhs.num)
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -&self.num,
            den: self.den.clone(),
        }
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

macro_rules! forward_rat_ops {
    ($($trait:ident::$method:ident),*) => {$(
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                $trait::$method(&self, &rhs)
            }
        }
        impl $trait<&Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                $trait::$method(&self, rhs)
            }
        }
        impl $trait<Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                $trait::$method(self, &rhs)
            }
        }
    )*};
}

forward_rat_ops!(Add::add, Sub::sub, Mul::mul, Div::div);

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = &*self + &rhs;
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = &*self * rhs;
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Rational) -> Ordering {
        // Equal positive denominators (every pair of integers among them)
        // order like their numerators, with no products to allocate.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // Denominators are positive, so cross-multiplication preserves order.
        if let (Some((a, b)), Some((c, d))) = (self.words(), other.words()) {
            return (a * d).cmp(&(c * b));
        }
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_integer() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({self})")
    }
}

impl FromStr for Rational {
    type Err = ParseExactError;

    /// Parses `"a"`, `"a/b"`, or decimal `"a.b"` forms.
    fn from_str(s: &str) -> Result<Rational, ParseExactError> {
        if let Some((n, d)) = s.split_once('/') {
            let num: BigInt = n.trim().parse()?;
            let den: BigInt = d.trim().parse()?;
            if den.is_zero() {
                return Err(ParseExactError {
                    message: "zero denominator",
                });
            }
            return Ok(Rational::from_bigints(num, den));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            let negative = int_part.trim_start().starts_with('-');
            let int: BigInt = if int_part.is_empty() || int_part == "-" {
                BigInt::zero()
            } else {
                int_part.parse()?
            };
            if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseExactError {
                    message: "invalid decimal fraction",
                });
            }
            let frac: BigInt = frac_part.parse()?;
            let digits = u32::try_from(frac_part.len()).map_err(|_| ParseExactError {
                message: "decimal fraction too long",
            })?;
            let scale = BigInt::from(10u8).pow(digits);
            let signed_frac = if negative { -frac } else { frac };
            let num = &(&int * &scale) + &signed_frac;
            return Ok(Rational::from_bigints(num, scale));
        }
        Ok(Rational::from(s.parse::<BigInt>()?))
    }
}

/// Convenience constructor: `rat(3, 8)` is `3/8`.
///
/// # Panics
///
/// Panics if `den == 0`.
///
/// # Examples
///
/// ```
/// use ra_exact::rat;
/// assert_eq!(rat(6, 16), rat(3, 8));
/// ```
pub fn rat(num: i64, den: i64) -> Rational {
    Rational::new(num, den)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::tests::{is_canonical, operand, LimbRef, EDGES};

    #[test]
    fn normalization() {
        assert_eq!(rat(6, 16), rat(3, 8));
        assert_eq!(rat(-6, -16), rat(3, 8));
        assert_eq!(rat(6, -16), rat(-3, 8));
        assert_eq!(rat(0, -5), Rational::zero());
        assert!(rat(0, 1).denom() == &crate::BigInt::one());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = rat(1, 0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(rat(1, 2) + rat(1, 3), rat(5, 6));
        assert_eq!(rat(1, 2) - rat(1, 3), rat(1, 6));
        assert_eq!(rat(2, 3) * rat(3, 4), rat(1, 2));
        assert_eq!(rat(2, 3) / rat(4, 3), rat(1, 2));
        assert_eq!(-rat(2, 3), rat(-2, 3));
        assert_eq!(rat(1, 3).recip(), rat(3, 1));
        assert_eq!(rat(-1, 3).recip(), rat(-3, 1));
    }

    #[test]
    fn ordering() {
        assert!(rat(1, 3) < rat(1, 2));
        assert!(rat(-1, 2) < rat(-1, 3));
        assert!(rat(7, 7) == Rational::one());
        assert_eq!(rat(1, 3).max(rat(1, 2)), rat(1, 2));
        assert_eq!(rat(1, 3).min(rat(-1, 2)), rat(-1, 2));
    }

    /// The order `Rational::cmp` replaced its equal-denominator shortcut
    /// into: cross-multiplication over the (positive) denominators.
    fn cross_multiplied_cmp(a: &Rational, b: &Rational) -> Ordering {
        (a.numer() * b.denom()).cmp(&(b.numer() * a.denom()))
    }

    /// `2^bits` — a power of two spanning several limbs for `bits >= 64`.
    fn pow2(bits: u32) -> crate::BigInt {
        crate::BigInt::one().shl(bits)
    }

    proptest::proptest! {
        /// Equal multi-limb denominators take the shortcut: odd numerators
        /// over `2^bits` are already reduced, so both sides keep `2^bits`.
        #[test]
        fn cmp_matches_cross_multiplication_on_equal_wide_denominators(
            a in proptest::prelude::any::<i64>(),
            b in proptest::prelude::any::<i64>(),
            bits in 0u32..200,
        ) {
            let odd = |v: i64| crate::BigInt::from(v) * crate::BigInt::from(2) + crate::BigInt::one();
            let x = Rational::from_bigints(odd(a), pow2(bits));
            let y = Rational::from_bigints(odd(b), pow2(bits));
            proptest::prop_assert_eq!(x.denom(), y.denom());
            proptest::prop_assert_eq!(x.cmp(&y), cross_multiplied_cmp(&x, &y));
            proptest::prop_assert_eq!(y.cmp(&x), cross_multiplied_cmp(&y, &x));
            proptest::prop_assert_eq!(x.cmp(&x), Ordering::Equal);
        }

        /// Mixed denominators, negatives and zero: integers (denominator 1)
        /// against each other, against fractions, and against zero.
        #[test]
        fn cmp_matches_cross_multiplication(
            (n1, d1) in (-50i64..=50, 1i64..=6),
            (n2, d2) in (-50i64..=50, 1i64..=6),
        ) {
            let (x, y) = (rat(n1, d1), rat(n2, d2));
            for (p, q) in [(&x, &y), (&y, &x), (&x, &Rational::zero()), (&Rational::zero(), &y)] {
                proptest::prop_assert_eq!(p.cmp(q), cross_multiplied_cmp(p, q));
            }
        }
    }

    #[test]
    fn pow_of_i32_min_inverts_once() {
        assert_eq!(rat(1, 1).pow(i32::MIN), Rational::one());
        assert_eq!(rat(-1, 1).pow(i32::MIN), Rational::one());
        assert_eq!(rat(-1, 1).pow(i32::MAX), rat(-1, 1));
    }

    /// A reference rational `(numerator, denominator)` in lowest terms
    /// with a positive denominator, reduced by the limb path alone.
    type RatRef = (LimbRef, LimbRef);

    fn reduce_ref(n: &LimbRef, d: &LimbRef) -> RatRef {
        let g = n.gcd(d);
        let (n, d) = (n.div_rem(&g).0, d.div_rem(&g).0);
        if d.sign == Sign::Minus {
            (n.neg(), d.neg())
        } else {
            (n, d)
        }
    }

    fn to_rational((n, d): &RatRef) -> Rational {
        Rational {
            num: n.to_bigint(),
            den: d.to_bigint(),
        }
    }

    fn rat_operand() -> impl proptest::strategy::Strategy<Value = RatRef> {
        use proptest::strategy::Strategy;
        (operand(), operand()).prop_map(|(n, d)| {
            let d = if d.is_zero() {
                LimbRef::from_i128(1)
            } else {
                d
            };
            reduce_ref(&n, &d)
        })
    }

    /// Every rational operation on `x` and `y` agrees with the limb path,
    /// and every result is canonical.
    fn assert_rational_ops_agree(x: &RatRef, y: &RatRef) {
        let (p, q) = (to_rational(x), to_rational(y));
        let ((xn, xd), (yn, yd)) = (x, y);
        let agree = |got: Rational, want: RatRef, op: &str| {
            assert!(
                is_canonical(&got.num) && is_canonical(&got.den),
                "{op} {p} {q}"
            );
            assert_eq!(
                (LimbRef::of(&got.num), LimbRef::of(&got.den)),
                want,
                "{op} {p} {q}"
            );
        };
        let sum = (xn.mul(yd).add(&yn.mul(xd)), xd.mul(yd));
        agree(&p + &q, reduce_ref(&sum.0, &sum.1), "add");
        agree(
            &p - &q,
            reduce_ref(&xn.mul(yd).sub(&yn.mul(xd)), &sum.1),
            "sub",
        );
        agree(&p * &q, reduce_ref(&xn.mul(yn), &xd.mul(yd)), "mul");
        agree(-&p, (xn.neg(), xd.clone()), "neg");
        agree(-p.clone(), (xn.neg(), xd.clone()), "neg by value");
        agree(p.abs(), (xn.abs(), xd.clone()), "abs");
        assert_eq!(p.cmp(&q), xn.mul(yd).cmp(&yn.mul(xd)), "cmp {p} {q}");
        if !yn.is_zero() {
            agree(&p / &q, reduce_ref(&xn.mul(yd), &xd.mul(yn)), "div");
        }
        if !xn.is_zero() {
            agree(p.recip(), reduce_ref(xd, xn), "recip");
        }
        let (quot, rem) = xn.div_rem(xd);
        let floor = if rem.sign == Sign::Minus {
            quot.sub(&LimbRef::from_i128(1))
        } else {
            quot
        };
        assert_eq!(LimbRef::of(&p.floor()), floor, "floor {p}");
        // Text: the limb path's digits, and parsing an unreduced quotient.
        let text = if xd == &LimbRef::from_i128(1) {
            xn.to_decimal()
        } else {
            format!("{}/{}", xn.to_decimal(), xd.to_decimal())
        };
        assert_eq!(p.to_string(), text);
        agree(text.parse().unwrap(), x.clone(), "parse");
        let unreduced = format!("{}/{}", sum.0.to_decimal(), sum.1.to_decimal());
        agree(
            unreduced.parse().unwrap(),
            reduce_ref(&sum.0, &sum.1),
            "parse sum",
        );
    }

    #[test]
    fn every_pair_of_word_edges_matches_the_limb_path() {
        let one = LimbRef::from_i128(1);
        let edges: Vec<RatRef> = EDGES
            .iter()
            .flat_map(|&n| {
                [
                    (n, 1),
                    (n, 3),
                    (1, n),
                    (n, i64::MAX as i128),
                    (n, n.saturating_sub(1)),
                ]
            })
            .filter(|&(_, d)| d != 0)
            .map(|(n, d)| reduce_ref(&LimbRef::from_i128(n), &LimbRef::from_i128(d)))
            .chain([(one.clone(), one)])
            .collect();
        for x in &edges {
            for y in &edges {
                assert_rational_ops_agree(x, y);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn arithmetic_matches_the_limb_path(x in rat_operand(), y in rat_operand()) {
            assert_rational_ops_agree(&x, &y);
        }

        #[test]
        fn powers_match_the_limb_path(x in rat_operand(), exp in -3i32..=3) {
            let (n, d) = &x;
            proptest::prop_assume!(exp >= 0 || !n.is_zero());
            let e = exp.unsigned_abs();
            let want = if exp < 0 {
                reduce_ref(&d.pow(e), &n.pow(e))
            } else {
                (n.pow(e), d.pow(e))
            };
            let got = to_rational(&x).pow(exp);
            proptest::prop_assert!(is_canonical(&got.num) && is_canonical(&got.den));
            proptest::prop_assert_eq!((LimbRef::of(&got.num), LimbRef::of(&got.den)), want);
        }
    }

    #[test]
    fn powers() {
        assert_eq!(rat(3, 4).pow(2), rat(9, 16));
        assert_eq!(rat(3, 4).pow(0), Rational::one());
        assert_eq!(rat(3, 4).pow(-1), rat(4, 3));
        assert_eq!(rat(-1, 2).pow(3), rat(-1, 8));
    }

    #[test]
    fn parsing() {
        assert_eq!("3/8".parse::<Rational>().unwrap(), rat(3, 8));
        assert_eq!("-3/8".parse::<Rational>().unwrap(), rat(-3, 8));
        assert_eq!("3/-8".parse::<Rational>().unwrap(), rat(-3, 8));
        assert_eq!("42".parse::<Rational>().unwrap(), rat(42, 1));
        assert_eq!("0.25".parse::<Rational>().unwrap(), rat(1, 4));
        assert_eq!("-0.25".parse::<Rational>().unwrap(), rat(-1, 4));
        assert_eq!("1.5".parse::<Rational>().unwrap(), rat(3, 2));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("a/b".parse::<Rational>().is_err());
        assert!("1.x".parse::<Rational>().is_err());
    }

    #[test]
    fn f64_round_trips() {
        for v in [0.0, 0.5, -0.25, 1.0 / 3.0, 1234.5678, -1e-8] {
            let r = Rational::from_f64(v).unwrap();
            assert_eq!(r.to_f64(), v, "exact back-conversion for {v}");
        }
        assert_eq!(Rational::from_f64(0.5).unwrap(), rat(1, 2));
        assert!(Rational::from_f64(f64::NAN).is_none());
        assert!(Rational::from_f64(f64::INFINITY).is_none());
    }

    #[test]
    fn floor_behaviour() {
        assert_eq!(rat(7, 2).floor(), crate::BigInt::from(3));
        assert_eq!(rat(-7, 2).floor(), crate::BigInt::from(-4));
        assert_eq!(rat(4, 2).floor(), crate::BigInt::from(2));
    }

    #[test]
    fn paper_worked_number() {
        // §5: c/v = 3/8, n = 3 ⇒ p = 1/4 solves c = v(n-1)p(1-p)^{n-2}.
        let p = rat(1, 4);
        let lhs = rat(3, 8);
        let rhs = Rational::from(2) * &p * (Rational::one() - &p);
        assert_eq!(lhs, rhs);
    }
}
