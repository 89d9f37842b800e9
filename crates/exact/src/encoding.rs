//! Canonical byte formats: unsigned varints and exact rationals.
//!
//! These are the one writer of each byte format, and the one reader of
//! the rational format. `ra-games` uses the writers to encode a strategic
//! game for its content digest, and `ra-authority`'s wire encoders and
//! its rational decoder delegate to them, so a game's digest preimage and
//! its wire bytes cannot drift apart.
//!
//! A rational is a tag byte followed by one or two magnitudes, each a
//! minimal unsigned LEB128 of any length. Tag bit 0 is the sign, and tag
//! bit 1 says the value is an integer, so no denominator follows. The
//! value is reduced, so the encoding is canonical: equal rationals write
//! equal bytes, and [`Rational::decode_canonical`] accepts exactly the
//! bytes [`Rational::encode_canonical`] writes and nothing else.

use std::fmt;

use crate::{BigInt, Rational, Sign};

/// Tag bit 0: the value is negative.
const NEGATIVE: u8 = 1;
/// Tag bit 1: the denominator is 1 and is not written.
const INTEGER: u8 = 2;

/// Appends `v` as an LEB128-style unsigned varint: seven bits per byte,
/// least significant group first, the high bit set on every byte but the
/// last.
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends the magnitude of `value` as a minimal LEB128 of any length.
fn put_magnitude(buf: &mut Vec<u8>, value: &BigInt) {
    if let Some(m) = value.magnitude_u64() {
        put_varint(buf, m);
        return;
    }
    let mut word = [0];
    let (_, mag) = value.parts(&mut word);
    // A magnitude held in memory has far fewer than `usize::MAX` groups.
    #[allow(clippy::cast_possible_truncation)]
    let groups = value.bits().div_ceil(7) as usize;
    for i in 0..groups {
        let (limb, shift) = ((7 * i) / 64, (7 * i) % 64);
        let mut group = mag[limb] >> shift;
        if shift > 57 {
            group |= mag.get(limb + 1).map_or(0, |next| next << (64 - shift));
        }
        let more = if i + 1 < groups { 0x80 } else { 0 };
        buf.push((group & 0x7f) as u8 | more);
    }
}

/// Why a byte string is not the canonical encoding of a rational.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RationalDecodeError {
    /// The input ended inside the value.
    UnexpectedEnd,
    /// The tag byte sets a bit other than the sign and integer bits.
    UnknownTag(u8),
    /// A magnitude ends in a zero group that a minimal LEB128 leaves off.
    OverlongVarint,
    /// The sign bit is set on zero.
    NegativeZero,
    /// The denominator is zero.
    ZeroDenominator,
    /// A denominator of 1 is written instead of setting the integer bit.
    UnitDenominator,
    /// The numerator and denominator share a factor.
    NotInLowestTerms,
}

impl fmt::Display for RationalDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RationalDecodeError::UnexpectedEnd => write!(f, "rational cut short"),
            RationalDecodeError::UnknownTag(t) => write!(f, "unknown rational tag {t:#x}"),
            RationalDecodeError::OverlongVarint => write!(f, "non-minimal LEB128 magnitude"),
            RationalDecodeError::NegativeZero => write!(f, "negative zero"),
            RationalDecodeError::ZeroDenominator => write!(f, "zero denominator"),
            RationalDecodeError::UnitDenominator => {
                write!(f, "denominator 1 without the integer bit")
            }
            RationalDecodeError::NotInLowestTerms => write!(f, "fraction not in lowest terms"),
        }
    }
}

impl std::error::Error for RationalDecodeError {}

/// Reads one magnitude written by [`put_magnitude`], with sign `negative`,
/// and advances `input` past it.
fn get_magnitude(input: &mut &[u8], negative: bool) -> Result<BigInt, RationalDecodeError> {
    let len = input
        .iter()
        .position(|byte| byte & 0x80 == 0)
        .ok_or(RationalDecodeError::UnexpectedEnd)?
        + 1;
    let (groups, rest) = input.split_at(len);
    if len > 1 && groups[len - 1] == 0 {
        return Err(RationalDecodeError::OverlongVarint);
    }
    *input = rest;
    // Nine groups hold 63 bits; a tenth of 0 or 1 makes 64.
    if len < 10 || (len == 10 && groups[9] <= 1) {
        let m = groups
            .iter()
            .rev()
            .fold(0u64, |acc, &group| acc << 7 | u64::from(group & 0x7f));
        return Ok(BigInt::from_sign_u128(negative, m.into()));
    }
    let mut mag = vec![0u64; (7 * len).div_ceil(64)];
    for (i, &group) in groups.iter().enumerate() {
        let (limb, shift, group) = ((7 * i) / 64, (7 * i) % 64, u64::from(group & 0x7f));
        mag[limb] |= group << shift;
        if shift > 57 {
            mag[limb + 1] |= group >> (64 - shift);
        }
    }
    let sign = if negative { Sign::Minus } else { Sign::Plus };
    Ok(BigInt::from_mag(sign, mag))
}

impl Rational {
    /// Appends the canonical bytes of this value: a tag byte (bit 0 set
    /// if negative, bit 1 set if the value is an integer), the numerator's
    /// magnitude, and then, unless the value is an integer, the
    /// denominator. Each magnitude is a minimal unsigned LEB128 of any
    /// length. The value is reduced, so equal rationals write equal bytes,
    /// and any precision survives.
    ///
    /// # Examples
    ///
    /// ```
    /// use ra_exact::{rat, Rational};
    ///
    /// let mut buf = Vec::new();
    /// rat(-7, 12).encode_canonical(&mut buf);
    /// assert_eq!(buf, [0b01, 7, 12]);
    /// rat(0, 1).encode_canonical(&mut buf);
    /// assert_eq!(buf[3..], [0b10, 0]);
    /// let mut input = &buf[..];
    /// assert_eq!(Rational::decode_canonical(&mut input), Ok(rat(-7, 12)));
    /// assert_eq!(Rational::decode_canonical(&mut input), Ok(rat(0, 1)));
    /// assert!(input.is_empty());
    /// ```
    #[inline]
    pub fn encode_canonical(&self, buf: &mut Vec<u8>) {
        let integer = self.is_integer();
        let sign = if self.is_negative() { NEGATIVE } else { 0 };
        buf.push(if integer { sign | INTEGER } else { sign });
        put_magnitude(buf, self.numer());
        if !integer {
            put_magnitude(buf, self.denom());
        }
    }

    /// Reads one value written by [`Rational::encode_canonical`] from the
    /// front of `input` and advances `input` past it.
    ///
    /// # Errors
    ///
    /// Any byte string that `encode_canonical` would not write is
    /// rejected: a truncated value, an unknown tag bit, a non-minimal
    /// magnitude, a negative zero, a zero denominator, a denominator of 1
    /// without the integer bit, or a fraction not in lowest terms. On an
    /// error `input` is left where it was.
    pub fn decode_canonical(input: &mut &[u8]) -> Result<Rational, RationalDecodeError> {
        let (&tag, mut rest) = input
            .split_first()
            .ok_or(RationalDecodeError::UnexpectedEnd)?;
        if tag & !(NEGATIVE | INTEGER) != 0 {
            return Err(RationalDecodeError::UnknownTag(tag));
        }
        let num = get_magnitude(&mut rest, tag & NEGATIVE != 0)?;
        if tag & NEGATIVE != 0 && num.is_zero() {
            return Err(RationalDecodeError::NegativeZero);
        }
        let den = if tag & INTEGER != 0 {
            BigInt::one()
        } else {
            let den = get_magnitude(&mut rest, false)?;
            if den.is_zero() {
                return Err(RationalDecodeError::ZeroDenominator);
            }
            if den == BigInt::one() {
                return Err(RationalDecodeError::UnitDenominator);
            }
            if num.gcd(&den) != BigInt::one() {
                return Err(RationalDecodeError::NotInLowestTerms);
            }
            den
        };
        *input = rest;
        Ok(Rational::from_reduced(num, den))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::tests::operand;
    use crate::rat;

    #[test]
    fn varints_take_seven_bits_per_byte() {
        for (v, bytes) in [
            (0, &[0x00][..]),
            (127, &[0x7f]),
            (128, &[0x80, 0x01]),
            (300, &[0xac, 0x02]),
            (
                u64::MAX,
                &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
            ),
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf, bytes, "{v}");
        }
    }

    fn encode(r: &Rational) -> Vec<u8> {
        let mut buf = Vec::new();
        r.encode_canonical(&mut buf);
        buf
    }

    fn decode(bytes: &[u8]) -> Result<Rational, RationalDecodeError> {
        let mut input = bytes;
        let r = Rational::decode_canonical(&mut input)?;
        assert!(input.is_empty(), "{bytes:02x?} left {input:02x?}");
        Ok(r)
    }

    /// Bytes of a minimal LEB128 of `value`.
    // A magnitude held in memory has far fewer than `usize::MAX` groups.
    #[allow(clippy::cast_possible_truncation)]
    fn leb_len(value: &BigInt) -> usize {
        value.bits().div_ceil(7).max(1) as usize
    }

    /// The round trip and the exact length of one value's encoding.
    fn assert_canonical(r: &Rational) {
        let bytes = encode(r);
        let den_len = if r.is_integer() {
            0
        } else {
            leb_len(r.denom())
        };
        assert_eq!(bytes.len(), 1 + leb_len(r.numer()) + den_len, "{r}");
        assert_eq!(decode(&bytes).as_ref(), Ok(r), "{bytes:02x?}");
    }

    #[test]
    fn small_values_take_two_or_three_bytes() {
        assert_eq!(encode(&rat(0, 1)), [0b10, 0]);
        assert_eq!(encode(&rat(1, 1)), [0b10, 1]);
        assert_eq!(encode(&rat(-3, 1)), [0b11, 3]);
        assert_eq!(encode(&rat(1, 2)), [0b00, 1, 2]);
        assert_eq!(encode(&rat(-300, 7)), [0b01, 0xac, 0x02, 7]);
    }

    #[test]
    fn multi_limb_magnitudes_cross_limb_boundaries() {
        // 2^k - 1 and 2^k for k around each limb edge and group edge.
        // A group straddles two limbs at bit offsets 58..=63 within a
        // limb; the first at offset 58 starts at bit 378, so 448 bits
        // cross every straddle.
        for k in [
            62u32, 63, 64, 65, 69, 70, 126, 127, 128, 129, 191, 192, 256, 385, 448,
        ] {
            let one = BigInt::one();
            let power = one.shl(k);
            for num in [&power - &one, power.clone(), -&power, &power + &one] {
                assert_canonical(&Rational::from_bigints(num.clone(), BigInt::one()));
                assert_canonical(&Rational::from_bigints(BigInt::one(), num.clone()));
                assert_canonical(&Rational::from_bigints(num, BigInt::from(3)));
            }
        }
    }

    /// Magnitude bytes: `groups` low seven-bit groups with the
    /// continuation bit set on all but the last.
    fn leb_groups(groups: &[u8]) -> impl Iterator<Item = u8> + '_ {
        let last = groups.len().saturating_sub(1);
        groups
            .iter()
            .enumerate()
            .map(move |(i, &g)| if i < last { g | 0x80 } else { g & 0x7f })
    }

    /// A byte string shaped like an encoding (a tag near the valid ones,
    /// then one or two magnitudes, possibly overlong), so a good share of
    /// them decode.
    fn near_encoding() -> impl proptest::strategy::Strategy<Value = Vec<u8>> {
        use proptest::prelude::*;
        let magnitude = || {
            prop_oneof![
                prop::collection::vec(0u8..3, 1..2),
                prop::collection::vec(0u8..4, 1..3),
                prop::collection::vec(any::<u8>(), 1..4),
                prop::collection::vec(any::<u8>(), 9..21),
            ]
        };
        (0u8..5, magnitude(), magnitude(), 0usize..3).prop_map(|(tag, num, den, cut)| {
            let mut bytes = vec![tag];
            bytes.extend(leb_groups(&num));
            bytes.extend(leb_groups(&den));
            bytes.truncate(bytes.len() - cut.min(bytes.len() - 1));
            bytes
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(1024))]

        /// The encoder and decoder are a bijection. Every value
        /// (word-sized, at the `i128` edges, or three limbs wide)
        /// round-trips in exactly `1 + leb_len(|num|) + [den ≠ 1] ·
        /// leb_len(den)` bytes; and whatever a byte string decodes to is
        /// in lowest terms, and the bytes it consumed are exactly that
        /// value's encoding.
        #[test]
        fn encoding_and_decoding_are_a_bijection(
            num in operand(),
            den in operand(),
            bytes in near_encoding(),
        ) {
            let den = den.to_bigint();
            if !den.is_zero() {
                assert_canonical(&Rational::from_bigints(num.to_bigint(), den));
            }
            let mut input = &bytes[..];
            if let Ok(r) = Rational::decode_canonical(&mut input) {
                let normal = Rational::from_bigints(r.numer().clone(), r.denom().clone());
                proptest::prop_assert_eq!(&r, &normal, "decoded values are in lowest terms");
                let used = bytes.len() - input.len();
                proptest::prop_assert_eq!(&bytes[..used], &encode(&r)[..]);
            } else {
                proptest::prop_assert_eq!(input.len(), bytes.len(), "an error consumes nothing");
            }
        }
    }
}
