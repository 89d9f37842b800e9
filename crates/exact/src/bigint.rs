//! Arbitrary-precision signed integers.
//!
//! The rationality-authority verifiers must be *sound*: a certificate check
//! may not accept a false claim because of floating-point round-off. All
//! verifier-side linear algebra therefore runs over exact rationals, which in
//! turn need unbounded integers. No big-integer crate is available in the
//! approved dependency set, so this module implements one from scratch.
//!
//! A value has one of two representations, chosen by its size alone:
//!
//! - every value in `i64` range is held inline as one machine word, and
//!   its arithmetic runs on checked `i64`/`i128` operations with no heap
//!   allocation;
//! - every other value is sign-magnitude with little-endian `u64` limbs,
//!   using schoolbook multiplication and Knuth Algorithm D division
//!   (sufficient for the limb counts produced by Gaussian elimination on
//!   game-sized systems). The limb form is rare, so it lives behind one
//!   pointer: a `BigInt` is two words, and a
//!   [`Rational`](crate::Rational) four, which keeps dense payoff tables
//!   of word-sized values compact.
//!
//! The form is canonical: a word operation that overflows promotes its
//! result to limbs, and a limb result that fits in `i64` is demoted to the
//! inline form. Both paths are exact integer arithmetic; no floating point
//! is involved.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

/// Sign of a [`BigInt`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative.
    Minus,
    /// Zero.
    Zero,
    /// Strictly positive.
    Plus,
}

impl Sign {
    fn flip(self) -> Sign {
        match self {
            Sign::Minus => Sign::Plus,
            Sign::Zero => Sign::Zero,
            Sign::Plus => Sign::Minus,
        }
    }
}

/// An arbitrary-precision signed integer.
///
/// Invariants: a value is stored inline exactly when it fits in `i64`
/// (zero included). Otherwise it is stored as limbs with a non-zero sign
/// and no trailing zero limbs. Each value therefore has exactly one
/// representation, so the derived equality and hash are structural.
///
/// # Examples
///
/// ```
/// use ra_exact::BigInt;
///
/// let a = BigInt::from(1_000_000_007_i64);
/// let b = &a * &a;
/// assert_eq!(b.to_string(), "1000000014000000049");
/// assert_eq!(&b % &a, BigInt::from(0));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Every value in `i64` range.
    Inline(i64),
    /// Every value outside `i64` range, boxed so the inline form sets the
    /// size of the whole type.
    Limbs(Box<Wide>),
}

/// The limb form of a value outside `i64` range.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Wide {
    /// `Plus` or `Minus`.
    sign: Sign,
    /// Little-endian base-2^64 limbs with a non-zero top limb.
    mag: Vec<u64>,
}

/// The magnitude `2^63` of `i64::MIN`, which `i64` cannot hold positive.
const I64_MIN_MAG: u64 = 1 << 63;

/// The value `sign · m` as an `i64`, if it fits.
// `m ≤ 2⁶³` here, and `2⁶³ as i64` wraps to `i64::MIN`, whose negation is itself.
#[allow(clippy::cast_possible_wrap)]
fn fit_i64(negative: bool, m: u64) -> Option<i64> {
    if negative {
        (m <= I64_MIN_MAG).then_some((m as i64).wrapping_neg())
    } else {
        i64::try_from(m).ok()
    }
}

impl BigInt {
    /// The integer `0`.
    pub fn zero() -> BigInt {
        BigInt(Repr::Inline(0))
    }

    /// The integer `1`.
    pub fn one() -> BigInt {
        BigInt(Repr::Inline(1))
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Repr::Inline(0))
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign() == Sign::Minus
    }

    /// Returns `true` if the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign() == Sign::Plus
    }

    /// Returns the sign of the value.
    pub fn sign(&self) -> Sign {
        match self.0 {
            Repr::Inline(v) => match v.cmp(&0) {
                Ordering::Less => Sign::Minus,
                Ordering::Equal => Sign::Zero,
                Ordering::Greater => Sign::Plus,
            },
            Repr::Limbs(ref wide) => wide.sign,
        }
    }

    /// Returns the absolute value.
    pub fn abs(&self) -> BigInt {
        match &self.0 {
            Repr::Inline(v) => BigInt::from(v.unsigned_abs()),
            Repr::Limbs(wide) => BigInt::from_mag(Sign::Plus, wide.mag.clone()),
        }
    }

    /// The sign and the little-endian magnitude limbs (empty for zero).
    /// An inline value lends its one limb from `buf`, so the limb helpers
    /// can read either representation without allocating.
    pub(crate) fn parts<'a>(&'a self, buf: &'a mut [u64; 1]) -> (Sign, &'a [u64]) {
        match &self.0 {
            Repr::Inline(0) => (Sign::Zero, &[]),
            Repr::Inline(v) => {
                buf[0] = v.unsigned_abs();
                (self.sign(), &buf[..])
            }
            Repr::Limbs(wide) => (wide.sign, &wide.mag),
        }
    }

    /// The magnitude as a `u64` when it fits in a single limb
    /// (`Some(0)` for zero); `None` for larger values. Lets callers on
    /// hot paths (e.g. wire encoders) take a machine-word shortcut
    /// without giving up arbitrary precision in the general case.
    pub fn magnitude_u64(&self) -> Option<u64> {
        match &self.0 {
            Repr::Inline(v) => Some(v.unsigned_abs()),
            Repr::Limbs(wide) => match *wide.mag {
                [limb] => Some(limb),
                _ => None,
            },
        }
    }

    /// Number of bits in the magnitude (`0` for zero).
    pub fn bits(&self) -> u64 {
        let mut buf = [0];
        match self.parts(&mut buf).1 {
            [] => 0,
            mag @ [.., hi] => (mag.len() as u64 - 1) * 64 + (64 - hi.leading_zeros() as u64),
        }
    }

    /// The canonical value with this sign and magnitude: trailing zero
    /// limbs are dropped, and a magnitude that fits in `i64` is demoted to
    /// the inline form.
    pub(crate) fn from_mag(sign: Sign, mut mag: Vec<u64>) -> BigInt {
        while mag.last() == Some(&0) {
            mag.pop();
        }
        if let [m] = *mag {
            if let Some(v) = fit_i64(sign == Sign::Minus, m) {
                return BigInt(Repr::Inline(v));
            }
        }
        if mag.is_empty() {
            BigInt::zero()
        } else {
            debug_assert_ne!(sign, Sign::Zero);
            BigInt(Repr::Limbs(Box::new(Wide { sign, mag })))
        }
    }

    /// The value `-m` if `negative`, else `m`.
    // Splits `m` into its low and high 64-bit limbs.
    #[allow(clippy::cast_possible_truncation)]
    pub(crate) fn from_sign_u128(negative: bool, m: u128) -> BigInt {
        match u64::try_from(m).ok().and_then(|m| fit_i64(negative, m)) {
            Some(v) => BigInt(Repr::Inline(v)),
            None => BigInt::from_mag(
                if negative { Sign::Minus } else { Sign::Plus },
                vec![m as u64, (m >> 64) as u64],
            ),
        }
    }

    fn from_i128(v: i128) -> BigInt {
        match i64::try_from(v) {
            Ok(v) => BigInt(Repr::Inline(v)),
            Err(_) => BigInt::from_sign_u128(v < 0, v.unsigned_abs()),
        }
    }

    /// Converts to `f64`, losing precision for large magnitudes.
    pub fn to_f64(&self) -> f64 {
        let mut buf = [0];
        let (sign, mag) = self.parts(&mut buf);
        let mut acc = 0.0_f64;
        for &limb in mag.iter().rev() {
            acc = acc * 1.8446744073709552e19 + limb as f64;
        }
        if sign == Sign::Minus {
            -acc
        } else {
            acc
        }
    }

    /// Converts to `i64` if it fits.
    #[inline]
    pub fn to_i64(&self) -> Option<i64> {
        match self.0 {
            Repr::Inline(v) => Some(v),
            Repr::Limbs(_) => None,
        }
    }

    /// Converts to `u64` if it fits and is non-negative.
    pub fn to_u64(&self) -> Option<u64> {
        if self.is_negative() {
            None
        } else {
            self.magnitude_u64()
        }
    }

    /// Greatest common divisor of the absolute values.
    ///
    /// `gcd(0, 0)` is `0`.
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        let mut a = self.abs();
        let mut b = other.abs();
        loop {
            // Euclid's remainders shrink, so a wide pair ends on words too.
            if let (Repr::Inline(x), Repr::Inline(y)) = (&a.0, &b.0) {
                return BigInt::from(gcd_u64(x.unsigned_abs(), y.unsigned_abs()));
            }
            if b.is_zero() {
                return a;
            }
            let r = &a % &b;
            a = b;
            b = r.abs();
        }
    }

    /// Raises the value to a non-negative integer power.
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Shifts the magnitude left by `bits` (multiplies by 2^bits, keeping sign).
    pub fn shl(&self, bits: u32) -> BigInt {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let mut buf = [0];
        let (sign, src) = self.parts(&mut buf);
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut mag = vec![0u64; limb_shift];
        if bit_shift == 0 {
            mag.extend_from_slice(src);
        } else {
            let mut carry = 0u64;
            for &limb in src {
                mag.push((limb << bit_shift) | carry);
                carry = limb >> (64 - bit_shift);
            }
            if carry != 0 {
                mag.push(carry);
            }
        }
        BigInt::from_mag(sign, mag)
    }

    /// Divides by `other`, returning `(quotient, remainder)` with the
    /// remainder taking the sign of `self` (truncated division, like `i64`).
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_rem(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "division by zero BigInt");
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.0, &other.0) {
            // Only `i64::MIN / -1` overflows a word; its quotient is 2^63.
            return match (a.checked_div(*b), a.checked_rem(*b)) {
                (Some(q), Some(r)) => (BigInt(Repr::Inline(q)), BigInt(Repr::Inline(r))),
                _ => (BigInt::from(I64_MIN_MAG), BigInt::zero()),
            };
        }
        if self.is_zero() {
            return (BigInt::zero(), BigInt::zero());
        }
        let (mut ab, mut bb) = ([0], [0]);
        let (a_sign, a_mag) = self.parts(&mut ab);
        let (b_sign, b_mag) = other.parts(&mut bb);
        let (q_mag, r_mag) = mag_div_rem(a_mag, b_mag);
        let q_sign = if a_sign == b_sign {
            Sign::Plus
        } else {
            Sign::Minus
        };
        (
            BigInt::from_mag(q_sign, q_mag),
            BigInt::from_mag(a_sign, r_mag),
        )
    }
}

impl Default for BigInt {
    fn default() -> BigInt {
        BigInt::zero()
    }
}

macro_rules! impl_from_word {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> BigInt {
                BigInt(Repr::Inline(v as i64))
            }
        }
    )*};
}

impl_from_word!(i8, i16, i32, i64, isize, u8, u16, u32);

impl From<u64> for BigInt {
    fn from(v: u64) -> BigInt {
        BigInt::from_sign_u128(false, v.into())
    }
}

impl From<usize> for BigInt {
    fn from(v: usize) -> BigInt {
        BigInt::from(v as u64)
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> BigInt {
        BigInt::from_i128(v)
    }
}

impl From<u128> for BigInt {
    fn from(v: u128) -> BigInt {
        BigInt::from_sign_u128(false, v)
    }
}

// ---- word arithmetic ------------------------------------------------------

macro_rules! binary_gcd {
    ($($name:ident: $t:ty),*) => {$(
        /// Stein's binary gcd; `gcd(0, 0)` is `0`.
        pub(crate) fn $name(mut a: $t, mut b: $t) -> $t {
            if a == 0 || b == 0 {
                return a | b;
            }
            let shift = (a | b).trailing_zeros();
            a >>= a.trailing_zeros();
            loop {
                b >>= b.trailing_zeros();
                if a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                b -= a;
                if b == 0 {
                    return a << shift;
                }
            }
        }
    )*};
}

binary_gcd!(gcd_u64: u64, gcd_u128: u128);

// ---- magnitude arithmetic -------------------------------------------------

fn mag_cmp(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

fn mag_add(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for i in 0..long.len() {
        let rhs = if i < short.len() { short[i] } else { 0 };
        let (s1, c1) = long[i].overflowing_add(rhs);
        let (s2, c2) = s1.overflowing_add(carry);
        out.push(s2);
        carry = (c1 as u64) + (c2 as u64);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// Requires `a >= b`.
fn mag_sub(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(mag_cmp(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let rhs = if i < b.len() { b[i] } else { 0 };
        let (d1, b1) = a[i].overflowing_sub(rhs);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out.push(d2);
        borrow = (b1 as u64) + (b2 as u64);
    }
    debug_assert_eq!(borrow, 0);
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

// Each `as u64` keeps a 128-bit partial product's low limb; `>> 64` carries the rest.
#[allow(clippy::cast_possible_truncation)]
fn mag_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let t = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = out[k] as u128 + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

/// Long division of magnitudes: returns `(quotient, remainder)`.
fn mag_div_rem(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
    debug_assert!(!b.is_empty());
    match mag_cmp(a, b) {
        Ordering::Less => return (Vec::new(), a.to_vec()),
        Ordering::Equal => return (vec![1], Vec::new()),
        Ordering::Greater => {}
    }
    if b.len() == 1 {
        let (q, r) = mag_div_rem_limb(a, b[0]);
        return (q, if r == 0 { Vec::new() } else { vec![r] });
    }
    knuth_d(a, b)
}

// `cur < d·2⁶⁴`, so each quotient digit and the remainder fit one limb.
#[allow(clippy::cast_possible_truncation)]
fn mag_div_rem_limb(a: &[u64], d: u64) -> (Vec<u64>, u64) {
    let mut q = vec![0u64; a.len()];
    let mut rem = 0u128;
    for i in (0..a.len()).rev() {
        let cur = (rem << 64) | a[i] as u128;
        q[i] = (cur / d as u128) as u64;
        rem = cur % d as u128;
    }
    while q.last() == Some(&0) {
        q.pop();
    }
    (q, rem as u64)
}
/// Knuth TAOCP vol. 2, Algorithm 4.3.1 D, base 2^64.
// Knuth's step D4 subtracts limb by limb in `i128`: each `as u64` keeps the
// low limb of a two's-complement difference, and `>> 64` is the borrow.
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]
fn knuth_d(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let n = b.len();
    let m = a.len() - n;
    // D1: normalize so the divisor's top limb has its high bit set.
    let shift = b[n - 1].leading_zeros();
    let bn = shl_limbs(b, shift);
    let mut an = shl_limbs(a, shift);
    an.resize(a.len() + 1, 0); // extra high limb u[m+n]
    let mut q = vec![0u64; m + 1];
    let b_top = bn[n - 1];
    let b_second = bn[n - 2];
    // D2..D7: loop over quotient digits.
    for j in (0..=m).rev() {
        // D3: estimate q̂ from the top two dividend limbs.
        let top = ((an[j + n] as u128) << 64) | an[j + n - 1] as u128;
        let mut q_hat = top / b_top as u128;
        let mut r_hat = top % b_top as u128;
        while q_hat >= 1 << 64 || q_hat * b_second as u128 > ((r_hat << 64) | an[j + n - 2] as u128)
        {
            q_hat -= 1;
            r_hat += b_top as u128;
            if r_hat >= 1 << 64 {
                break;
            }
        }
        // D4: multiply and subtract.
        let mut borrow = 0i128;
        let mut carry = 0u128;
        for i in 0..n {
            let p = q_hat * bn[i] as u128 + carry;
            carry = p >> 64;
            let sub = (an[j + i] as i128) - (p as u64 as i128) + borrow;
            an[j + i] = sub as u64;
            borrow = sub >> 64;
        }
        let sub = (an[j + n] as i128) - (carry as i128) + borrow;
        an[j + n] = sub as u64;
        // D5/D6: if we subtracted too much, add back.
        if sub < 0 {
            q_hat -= 1;
            let mut carry = 0u64;
            for i in 0..n {
                let (s1, c1) = an[j + i].overflowing_add(bn[i]);
                let (s2, c2) = s1.overflowing_add(carry);
                an[j + i] = s2;
                carry = (c1 as u64) + (c2 as u64);
            }
            an[j + n] = an[j + n].wrapping_add(carry);
        }
        q[j] = q_hat as u64;
    }
    // D8: denormalize the remainder.
    let mut r = shr_limbs(&an[..n], shift);
    while q.last() == Some(&0) {
        q.pop();
    }
    while r.last() == Some(&0) {
        r.pop();
    }
    (q, r)
}

fn shl_limbs(a: &[u64], shift: u32) -> Vec<u64> {
    if shift == 0 {
        return a.to_vec();
    }
    let mut out = Vec::with_capacity(a.len() + 1);
    let mut carry = 0u64;
    for &limb in a {
        out.push((limb << shift) | carry);
        carry = limb >> (64 - shift);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

fn shr_limbs(a: &[u64], shift: u32) -> Vec<u64> {
    if shift == 0 {
        return a.to_vec();
    }
    let mut out = vec![0u64; a.len()];
    let mut carry = 0u64;
    for i in (0..a.len()).rev() {
        out[i] = (a[i] >> shift) | carry;
        carry = a[i] << (64 - shift);
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

// ---- operator impls --------------------------------------------------------

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &BigInt) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &BigInt) -> Ordering {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.0, &other.0) {
            return a.cmp(b);
        }
        let rank = |s: Sign| match s {
            Sign::Minus => 0u8,
            Sign::Zero => 1,
            Sign::Plus => 2,
        };
        let (mut ab, mut bb) = ([0], [0]);
        let (a_sign, a_mag) = self.parts(&mut ab);
        let (b_sign, b_mag) = other.parts(&mut bb);
        match rank(a_sign).cmp(&rank(b_sign)) {
            Ordering::Equal => match a_sign {
                Sign::Zero => Ordering::Equal,
                Sign::Plus => mag_cmp(a_mag, b_mag),
                Sign::Minus => mag_cmp(b_mag, a_mag),
            },
            ord => ord,
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match &self.0 {
            Repr::Inline(v) => BigInt::from_i128(-(*v as i128)),
            Repr::Limbs(wide) => BigInt::from_mag(wide.sign.flip(), wide.mag.clone()),
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match self.0 {
            Repr::Inline(v) => BigInt::from_i128(-(v as i128)),
            // `from_mag` demotes `-(2^63)` to the inline `i64::MIN`.
            Repr::Limbs(wide) => BigInt::from_mag(wide.sign.flip(), wide.mag),
        }
    }
}

/// `x + y`, or `x - y` when `negate_y`, on the limb representation.
fn add_limbs(x: &BigInt, y: &BigInt, negate_y: bool) -> BigInt {
    let (mut xb, mut yb) = ([0], [0]);
    let (x_sign, x_mag) = x.parts(&mut xb);
    let (y_sign, y_mag) = y.parts(&mut yb);
    let y_sign = if negate_y { y_sign.flip() } else { y_sign };
    match (x_sign, y_sign) {
        (Sign::Zero, _) => BigInt::from_mag(y_sign, y_mag.to_vec()),
        (_, Sign::Zero) => BigInt::from_mag(x_sign, x_mag.to_vec()),
        (a, b) if a == b => BigInt::from_mag(a, mag_add(x_mag, y_mag)),
        _ => match mag_cmp(x_mag, y_mag) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt::from_mag(x_sign, mag_sub(x_mag, y_mag)),
            Ordering::Less => BigInt::from_mag(y_sign, mag_sub(y_mag, x_mag)),
        },
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        match (&self.0, &rhs.0) {
            (Repr::Inline(a), Repr::Inline(b)) => BigInt::from_i128(*a as i128 + *b as i128),
            _ => add_limbs(self, rhs, false),
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        match (&self.0, &rhs.0) {
            (Repr::Inline(a), Repr::Inline(b)) => BigInt::from_i128(*a as i128 - *b as i128),
            _ => add_limbs(self, rhs, true),
        }
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.0, &rhs.0) {
            // |a·b| <= 2^126, so the wide product cannot overflow.
            return BigInt::from_i128(*a as i128 * *b as i128);
        }
        let (mut ab, mut bb) = ([0], [0]);
        let (a_sign, a_mag) = self.parts(&mut ab);
        let (b_sign, b_mag) = rhs.parts(&mut bb);
        let sign = match (a_sign, b_sign) {
            (Sign::Zero, _) | (_, Sign::Zero) => return BigInt::zero(),
            (a, b) if a == b => Sign::Plus,
            _ => Sign::Minus,
        };
        BigInt::from_mag(sign, mag_mul(a_mag, b_mag))
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).1
    }
}

macro_rules! forward_value_ops {
    ($($trait:ident::$method:ident),*) => {$(
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                $trait::$method(&self, &rhs)
            }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt {
                $trait::$method(&self, rhs)
            }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                $trait::$method(self, &rhs)
            }
        }
    )*};
}

forward_value_ops!(Add::add, Sub::sub, Mul::mul, Div::div, Rem::rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, rhs: &BigInt) {
        *self = &*self * rhs;
    }
}

// ---- formatting and parsing -------------------------------------------------

/// `10^19`, the largest power of ten in a `u64`: decimal text is
/// converted to and from limbs 19 digits at a time.
const TEN_POW_19: u64 = 10_000_000_000_000_000_000;

/// Decimal digits of a magnitude (`"0"` when empty).
fn mag_to_decimal(mag: &[u64]) -> String {
    if mag.is_empty() {
        return "0".to_owned();
    }
    let mut digits = Vec::new();
    let mut mag = mag.to_vec();
    while !mag.is_empty() {
        let (q, r) = mag_div_rem_limb(&mag, TEN_POW_19);
        if q.is_empty() {
            digits.push(format!("{r}"));
        } else {
            digits.push(format!("{r:019}"));
        }
        mag = q;
    }
    digits.into_iter().rev().collect()
}

/// The magnitude spelled by ASCII decimal `digits` (validated by the
/// caller), read in chunks of at most 19 digits, first chunk shortest.
// A chunk holds at most 19 digits, so its length fits `u32`.
#[allow(clippy::cast_possible_truncation)]
fn decimal_to_mag(digits: &[u8]) -> Vec<u64> {
    let head = digits.len() % 19;
    let chunks = std::iter::once(&digits[..head])
        .filter(|c| !c.is_empty())
        .chain(digits[head..].chunks(19));
    let mut mag = Vec::new();
    for chunk in chunks {
        let scale = 10u64.pow(chunk.len() as u32);
        mag = mag_add(&mag_mul(&mag, &[scale]), &[decimal_u64(chunk)]);
    }
    while mag.last() == Some(&0) {
        mag.pop();
    }
    mag
}

/// The value of at most 19 validated ASCII decimal digits.
fn decimal_u64(digits: &[u8]) -> u64 {
    digits
        .iter()
        .fold(0, |acc, &d| acc * 10 + u64::from(d - b'0'))
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Inline(v) => write!(f, "{v}"),
            Repr::Limbs(wide) => {
                let body = mag_to_decimal(&wide.mag);
                if wide.sign == Sign::Minus {
                    write!(f, "-{body}")
                } else {
                    f.write_str(&body)
                }
            }
        }
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

/// Error returned when parsing a [`BigInt`] or
/// [`Rational`](crate::Rational) from a string fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseExactError {
    pub(crate) message: &'static str,
}

impl fmt::Display for ParseExactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseExactError {}

impl FromStr for BigInt {
    type Err = ParseExactError;

    fn from_str(s: &str) -> Result<BigInt, ParseExactError> {
        let (neg, body) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if body.is_empty() {
            return Err(ParseExactError {
                message: "empty integer literal",
            });
        }
        // Every byte is checked before any slicing: untrusted wire text may
        // hold multi-byte characters, and a cut inside one would panic.
        let digits = body.as_bytes();
        if !digits.iter().all(u8::is_ascii_digit) {
            return Err(ParseExactError {
                message: "invalid digit in integer literal",
            });
        }
        Ok(if digits.len() <= 19 {
            BigInt::from_sign_u128(neg, decimal_u64(digits).into())
        } else {
            let sign = if neg { Sign::Minus } else { Sign::Plus };
            BigInt::from_mag(sign, decimal_to_mag(digits))
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn bi(v: i128) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigInt::zero().is_zero());
        assert_eq!(BigInt::zero(), bi(0));
        assert_eq!(BigInt::one(), bi(1));
        assert_eq!(BigInt::default(), BigInt::zero());
    }

    #[test]
    fn small_arithmetic_matches_i128() {
        let cases = [
            (0i128, 0i128),
            (1, -1),
            (-5, 7),
            (123456789, 987654321),
            (i64::MAX as i128, i64::MAX as i128),
            (-(1i128 << 100), 1i128 << 90),
        ];
        for &(a, b) in &cases {
            assert_eq!(bi(a) + bi(b), bi(a + b), "add {a} {b}");
            assert_eq!(bi(a) - bi(b), bi(a - b), "sub {a} {b}");
            if let Some(p) = a.checked_mul(b) {
                assert_eq!(bi(a) * bi(b), bi(p), "mul {a} {b}");
            }
            if b != 0 {
                assert_eq!(bi(a) / bi(b), bi(a / b), "div {a} {b}");
                assert_eq!(bi(a) % bi(b), bi(a % b), "rem {a} {b}");
            }
        }
    }

    #[test]
    fn ordering_is_total() {
        let vals = [-100i128, -1, 0, 1, 99, 1 << 70];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(bi(a).cmp(&bi(b)), a.cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "0",
            "1",
            "-1",
            "18446744073709551616",
            "-340282366920938463463374607431768211456",
            "99999999999999999999999999999999999999999999",
        ] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<BigInt>().is_err());
        assert!("-".parse::<BigInt>().is_err());
        assert!("12a3".parse::<BigInt>().is_err());
        assert!("1 2".parse::<BigInt>().is_err());
    }

    #[test]
    fn large_mul_div_round_trip() {
        let a: BigInt = "123456789012345678901234567890123456789".parse().unwrap();
        let b: BigInt = "987654321098765432109876543210".parse().unwrap();
        let p = &a * &b;
        assert_eq!(&p / &a, b);
        assert_eq!(&p / &b, a);
        assert!((&p % &a).is_zero());
        let (q, r) = p.div_rem(&(&b + &BigInt::one()));
        assert_eq!(&q * &(&b + &BigInt::one()) + &r, p);
    }

    #[test]
    fn knuth_d_add_back_case() {
        // Constructed so the q̂ estimate needs the rare D6 correction path:
        // dividend top limbs equal divisor top limbs.
        let b = BigInt::from_mag(Sign::Plus, vec![0, 0, 1, u64::MAX >> 1]);
        let a = &(&b * &BigInt::from(u64::MAX)) - &BigInt::one();
        let (q, r) = a.div_rem(&b);
        assert_eq!(&(&q * &b) + &r, a);
        assert!(r < b);
        assert!(!r.is_negative());
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(bi(12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(-12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(0).gcd(&bi(5)), bi(5));
        assert_eq!(bi(0).gcd(&bi(0)), bi(0));
        let a = bi(2).pow(120);
        let b = bi(2).pow(90) * bi(3);
        assert_eq!(a.gcd(&b), bi(2).pow(90));
    }

    #[test]
    fn pow_and_bits() {
        assert_eq!(bi(2).pow(0), bi(1));
        assert_eq!(bi(2).pow(64), bi(1i128 << 64));
        assert_eq!(bi(2).pow(64).bits(), 65);
        assert_eq!(BigInt::zero().bits(), 0);
        assert_eq!(bi(3).pow(40), bi(3i128.pow(40)));
    }

    #[test]
    fn shl_matches_mul_by_power_of_two() {
        let v: BigInt = "123456789123456789123456789".parse().unwrap();
        for bits in [0u32, 1, 13, 64, 65, 130] {
            assert_eq!(v.shl(bits), &v * &bi(2).pow(bits));
        }
        assert_eq!((-&v).shl(3), -(v.shl(3)));
    }

    #[test]
    fn truncated_division_signs() {
        assert_eq!(bi(7).div_rem(&bi(2)), (bi(3), bi(1)));
        assert_eq!(bi(-7).div_rem(&bi(2)), (bi(-3), bi(-1)));
        assert_eq!(bi(7).div_rem(&bi(-2)), (bi(-3), bi(1)));
        assert_eq!(bi(-7).div_rem(&bi(-2)), (bi(3), bi(-1)));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = bi(1).div_rem(&bi(0));
    }

    #[test]
    fn conversions() {
        assert_eq!(bi(42).to_i64(), Some(42));
        assert_eq!(bi(-42).to_i64(), Some(-42));
        assert_eq!(bi(i64::MIN as i128).to_i64(), Some(i64::MIN));
        assert_eq!((bi(i64::MAX as i128) + bi(1)).to_i64(), None);
        assert_eq!(bi(7).to_u64(), Some(7));
        assert_eq!(bi(-7).to_u64(), None);
        assert!((bi(1i128 << 80).to_f64() - (1i128 << 80) as f64).abs() < 1e10);
    }

    #[test]
    fn display_round_trip() {
        // No serializer dependency offline; the canonical interchange form
        // is the Display string.
        let v: BigInt = "-123456789012345678901234567890".parse().unwrap();
        assert_eq!(v.to_string().parse::<BigInt>().unwrap(), v);
    }

    #[test]
    fn fits_in_the_old_limb_vector_footprint() {
        // Half of it: the boxed limb form leaves two words, so a
        // `Rational` takes the 32 bytes one `BigInt` used to.
        assert_eq!(std::mem::size_of::<BigInt>(), 16);
        assert_eq!(std::mem::size_of::<crate::Rational>(), 32);
    }

    #[test]
    fn parse_rejects_multibyte_text_without_panicking() {
        // 20 bytes: a 2-byte character then 18 digits. Chunking by byte
        // before validation would cut the character at index 1.
        let text = format!("\u{e9}{}", "1".repeat(18));
        assert_eq!(text.len(), 20);
        assert!(text.parse::<BigInt>().is_err());
        assert!(format!("-{text}").parse::<BigInt>().is_err());
        assert!(format!("{}\u{e9}", "1".repeat(30))
            .parse::<BigInt>()
            .is_err());
    }

    #[test]
    fn word_edges_promote_and_demote() {
        let min = bi(i64::MIN as i128);
        assert!(matches!(min.0, Repr::Inline(i64::MIN)));
        // 2^63 does not fit in `i64`: negating or taking |i64::MIN| promotes.
        for wide in [-&min, -min.clone(), min.abs(), &min / &bi(-1)] {
            assert!(
                matches!(&wide.0, Repr::Limbs(w) if w.sign == Sign::Plus && *w.mag == [1 << 63])
            );
            assert_eq!(wide.to_string(), "9223372036854775808");
            // ...and negating it back demotes to the inline `i64::MIN`.
            assert_eq!(-wide, min);
        }
        assert_eq!(min.div_rem(&bi(-1)).1, BigInt::zero());
        // Single-limb magnitudes above `i64::MAX` stay limbs, and the wire
        // encoder's one-limb shortcut still sees them.
        for v in [i64::MAX as i128 + 1, u64::MAX as i128, -(u64::MAX as i128)] {
            assert!(matches!(bi(v).0, Repr::Limbs(_)), "{v}");
            assert_eq!(bi(v).magnitude_u64(), u64::try_from(v.unsigned_abs()).ok());
        }
        assert_eq!(bi(-(1 << 63) - 1).to_i64(), None);
        // Products across 2^63 promote; dividing back demotes.
        let root = bi(3_037_000_500); // ceil(sqrt(2^63))
        let square = &root * &root;
        assert!(matches!(square.0, Repr::Limbs(_)));
        assert!(matches!((&square / &root).0, Repr::Inline(3_037_000_500)));
        assert!(matches!(
            (&bi(3_037_000_499) * &bi(3_037_000_499)).0,
            Repr::Inline(_)
        ));
        assert!(matches!(
            (&bi(i64::MAX as i128) - &bi(-1)).0,
            Repr::Limbs(_)
        ));
        assert!(matches!(
            (&bi(i64::MAX as i128 + 1) - &BigInt::one()).0,
            Repr::Inline(i64::MAX)
        ));
        assert_eq!("-9223372036854775808".parse::<BigInt>(), Ok(min));
        assert_eq!(bi(u64::MAX as i128).to_u64(), Some(u64::MAX));
    }

    /// A reference integer computed by the limb helpers alone, so it never
    /// touches the inline path it is compared against.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub(crate) struct LimbRef {
        pub(crate) sign: Sign,
        mag: Vec<u64>,
    }

    impl LimbRef {
        pub(crate) fn new(sign: Sign, mut mag: Vec<u64>) -> LimbRef {
            while mag.last() == Some(&0) {
                mag.pop();
            }
            let sign = if mag.is_empty() { Sign::Zero } else { sign };
            LimbRef { sign, mag }
        }

        // Splits `|v|` into its low and high 64-bit limbs.
        #[allow(clippy::cast_possible_truncation)]
        pub(crate) fn from_i128(v: i128) -> LimbRef {
            let m = v.unsigned_abs();
            let sign = if v < 0 { Sign::Minus } else { Sign::Plus };
            LimbRef::new(sign, vec![m as u64, (m >> 64) as u64])
        }

        /// Reads the sign and limbs of `v`, whichever form holds it.
        pub(crate) fn of(v: &BigInt) -> LimbRef {
            let mut buf = [0];
            let (sign, mag) = v.parts(&mut buf);
            LimbRef::new(sign, mag.to_vec())
        }

        pub(crate) fn to_bigint(&self) -> BigInt {
            BigInt::from_mag(self.sign, self.mag.clone())
        }

        pub(crate) fn is_zero(&self) -> bool {
            self.sign == Sign::Zero
        }

        pub(crate) fn neg(&self) -> LimbRef {
            LimbRef::new(self.sign.flip(), self.mag.clone())
        }

        pub(crate) fn abs(&self) -> LimbRef {
            LimbRef::new(Sign::Plus, self.mag.clone())
        }

        pub(crate) fn add(&self, o: &LimbRef) -> LimbRef {
            match (self.sign, o.sign) {
                (Sign::Zero, _) => o.clone(),
                (_, Sign::Zero) => self.clone(),
                (a, b) if a == b => LimbRef::new(a, mag_add(&self.mag, &o.mag)),
                _ => match mag_cmp(&self.mag, &o.mag) {
                    Ordering::Less => LimbRef::new(o.sign, mag_sub(&o.mag, &self.mag)),
                    _ => LimbRef::new(self.sign, mag_sub(&self.mag, &o.mag)),
                },
            }
        }

        pub(crate) fn sub(&self, o: &LimbRef) -> LimbRef {
            self.add(&o.neg())
        }

        pub(crate) fn mul(&self, o: &LimbRef) -> LimbRef {
            let sign = if self.sign == o.sign {
                Sign::Plus
            } else {
                Sign::Minus
            };
            LimbRef::new(sign, mag_mul(&self.mag, &o.mag))
        }

        /// Truncated division, like `i64`.
        pub(crate) fn div_rem(&self, o: &LimbRef) -> (LimbRef, LimbRef) {
            let (q, r) = mag_div_rem(&self.mag, &o.mag);
            let q_sign = if self.sign == o.sign {
                Sign::Plus
            } else {
                Sign::Minus
            };
            (LimbRef::new(q_sign, q), LimbRef::new(self.sign, r))
        }

        pub(crate) fn cmp(&self, o: &LimbRef) -> Ordering {
            match self.sub(o).sign {
                Sign::Minus => Ordering::Less,
                Sign::Zero => Ordering::Equal,
                Sign::Plus => Ordering::Greater,
            }
        }

        pub(crate) fn gcd(&self, o: &LimbRef) -> LimbRef {
            let (mut a, mut b) = (self.abs(), o.abs());
            while !b.is_zero() {
                let r = a.div_rem(&b).1.abs();
                a = b;
                b = r;
            }
            a
        }

        pub(crate) fn pow(&self, exp: u32) -> LimbRef {
            (0..exp).fold(LimbRef::from_i128(1), |acc, _| acc.mul(self))
        }

        pub(crate) fn to_decimal(&self) -> String {
            let minus = if self.sign == Sign::Minus { "-" } else { "" };
            format!("{minus}{}", mag_to_decimal(&self.mag))
        }
    }

    /// `true` when `v` is in canonical form: inline exactly when it fits
    /// in `i64`.
    pub(crate) fn is_canonical(v: &BigInt) -> bool {
        match &v.0 {
            Repr::Inline(_) => true,
            Repr::Limbs(wide) => {
                wide.sign != Sign::Zero
                    && wide.mag.last().is_some_and(|&top| top != 0)
                    && !matches!(*wide.mag, [m] if fit_i64(wide.sign == Sign::Minus, m).is_some())
            }
        }
    }

    /// Values at the edges of the inline form: zero, units, the `i64` and
    /// `u64` bounds and their neighbours, and square roots of 2^63 and
    /// 2^64, whose products and sums cross a word.
    pub(crate) const EDGES: [i128; 24] = [
        0,
        1,
        -1,
        2,
        -2,
        i64::MAX as i128,
        i64::MAX as i128 - 1,
        i64::MIN as i128,
        i64::MIN as i128 + 1,
        i64::MAX as i128 + 1,
        i64::MIN as i128 - 1,
        u64::MAX as i128,
        -(u64::MAX as i128),
        1 << 64,
        -(1 << 64),
        3_037_000_499,
        3_037_000_500,
        -3_037_000_500,
        1 << 32,
        -(1 << 32),
        (1 << 62) + 1,
        -(1 << 62),
        i128::MAX,
        i128::MIN,
    ];

    pub(crate) fn operand() -> impl proptest::strategy::Strategy<Value = LimbRef> {
        use proptest::prelude::*;
        prop_oneof![
            (0..EDGES.len(), -2i128..=2)
                .prop_map(|(i, d)| LimbRef::from_i128(EDGES[i].saturating_add(d))),
            (-64i128..=64).prop_map(LimbRef::from_i128),
            any::<i64>().prop_map(|v| LimbRef::from_i128(v.into())),
            any::<i128>().prop_map(LimbRef::from_i128),
            (any::<bool>(), any::<u64>(), any::<u64>(), 1..=u64::MAX).prop_map(|(neg, a, b, c)| {
                let sign = if neg { Sign::Minus } else { Sign::Plus };
                LimbRef::new(sign, vec![a, b, c])
            }),
        ]
    }

    /// Every integer operation on `x` and `y` agrees with the limb path,
    /// and every result is canonical.
    fn assert_ops_agree(x: &LimbRef, y: &LimbRef) {
        let (a, b) = (x.to_bigint(), y.to_bigint());
        assert!(is_canonical(&a) && is_canonical(&b), "{x:?} {y:?}");
        let agree = |got: BigInt, want: LimbRef, op: &str| {
            assert!(is_canonical(&got), "{op} {x:?} {y:?}: {got:?}");
            assert_eq!(LimbRef::of(&got), want, "{op} {x:?} {y:?}");
        };
        agree(&a + &b, x.add(y), "add");
        agree(&a - &b, x.sub(y), "sub");
        agree(&a * &b, x.mul(y), "mul");
        agree(-&a, x.neg(), "neg");
        agree(-a.clone(), x.neg(), "neg by value");
        agree(a.abs(), x.abs(), "abs");
        agree(a.gcd(&b), x.gcd(y), "gcd");
        assert_eq!(a.cmp(&b), x.cmp(y), "cmp {x:?} {y:?}");
        if !y.is_zero() {
            let (q, r) = a.div_rem(&b);
            let (want_q, want_r) = x.div_rem(y);
            agree(q, want_q, "quotient");
            agree(r, want_r, "remainder");
        }
    }

    #[test]
    fn every_pair_of_word_edges_matches_the_limb_path() {
        for &x in &EDGES {
            for &y in &EDGES {
                assert_ops_agree(&LimbRef::from_i128(x), &LimbRef::from_i128(y));
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn arithmetic_matches_the_limb_path(x in operand(), y in operand()) {
            assert_ops_agree(&x, &y);
        }

        #[test]
        fn text_and_powers_match_the_limb_path(x in operand(), exp in 0u32..4) {
            let a = x.to_bigint();
            let text = x.to_decimal();
            proptest::prop_assert_eq!(a.to_string(), text.clone());
            let minus = if x.sign == Sign::Minus { "-" } else { "" };
            let digits = mag_to_decimal(&x.mag);
            let want = LimbRef::new(x.sign, decimal_to_mag(digits.as_bytes()));
            // Leading zeros push a short literal through the chunked reader.
            for literal in [text, format!("{minus}{digits:0>40}")] {
                let parsed: BigInt = literal.parse().unwrap();
                proptest::prop_assert!(is_canonical(&parsed));
                proptest::prop_assert_eq!(LimbRef::of(&parsed), want.clone());
            }
            let power = a.pow(exp);
            proptest::prop_assert!(is_canonical(&power));
            proptest::prop_assert_eq!(LimbRef::of(&power), x.pow(exp));
        }
    }
}
