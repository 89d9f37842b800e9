//! Exact rational numbers.
//!
//! [`Rational`] is the scalar type of every verifier in this workspace:
//! payoffs, mixed-strategy probabilities and equilibrium values are all
//! represented exactly, so a certificate check never accepts a false claim
//! due to rounding. Values are kept normalized (reduced, positive
//! denominator), making equality structural.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

use crate::bigint::{BigInt, ParseExactError, Sign};

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
        if exp >= 0 {
            Rational {
                num: self.num.pow(exp as u32),
                den: self.den.pow(exp as u32),
            }
        } else {
            self.recip().pow(-exp)
        }
    }

    /// Approximate `f64` value.
    pub fn to_f64(&self) -> f64 {
        // Scale so that both parts stay in f64 range for huge operands.
        let nb = self.num.bits() as i64;
        let db = self.den.bits() as i64;
        if nb < 900 && db < 900 {
            return self.num.to_f64() / self.den.to_f64();
        }
        let shift = (nb.max(db) - 512).max(0) as u32;
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
        Rational::from_bigints(
            &(&self.num * &rhs.den) + &(&rhs.num * &self.den),
            &self.den * &rhs.den,
        )
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        Rational::from_bigints(
            &(&self.num * &rhs.den) - &(&rhs.num * &self.den),
            &self.den * &rhs.den,
        )
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        Rational::from_bigints(&self.num * &rhs.num, &self.den * &rhs.den)
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, rhs: &Rational) -> Rational {
        assert!(!rhs.is_zero(), "division by zero Rational");
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
            let scale = BigInt::from(10u8).pow(frac_part.len() as u32);
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
