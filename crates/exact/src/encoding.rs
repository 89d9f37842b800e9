//! Canonical byte writers: unsigned varints and exact rationals.
//!
//! These are the one writer of each byte format. `ra-games` uses them to
//! encode a strategic game for its content digest, and `ra-authority`'s
//! wire encoders delegate to them, so a game's digest preimage and its
//! wire bytes cannot drift apart. Decoding lives with the wire format in
//! `ra-authority`.

use crate::Rational;

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

/// Appends `text` with a varint length prefix.
fn put_str(buf: &mut Vec<u8>, text: &str) {
    put_varint(buf, text.len() as u64);
    buf.extend_from_slice(text.as_bytes());
}

/// Length-prefixed ASCII decimal of `value`: the exact bytes of
/// `put_str(buf, &value.to_string())` with no intermediate `String`.
fn put_decimal_u64(buf: &mut Vec<u8>, value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut v = value;
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    put_varint(buf, (digits.len() - at) as u64);
    buf.extend_from_slice(&digits[at..]);
}

impl Rational {
    /// Appends the canonical bytes of this value: a sign byte (`1` if
    /// negative), then the numerator's magnitude and the denominator, each
    /// as a varint-length-prefixed ASCII decimal. The value is reduced, so
    /// equal rationals write equal bytes, and any precision survives.
    ///
    /// # Examples
    ///
    /// ```
    /// use ra_exact::rat;
    ///
    /// let mut buf = Vec::new();
    /// rat(-7, 12).encode_canonical(&mut buf);
    /// assert_eq!(buf, [1, 1, b'7', 2, b'1', b'2']);
    /// ```
    #[inline]
    pub fn encode_canonical(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(self.is_negative()));
        match (self.numer().magnitude_u64(), self.denom().magnitude_u64()) {
            // Single-limb fast path: write the decimal digits straight
            // into the buffer. Byte-identical to the string path below,
            // without its magnitude clone and per-chunk `format!`
            // allocations — payoff tables are almost always word-sized.
            (Some(num), Some(den)) => {
                put_decimal_u64(buf, num);
                put_decimal_u64(buf, den);
            }
            _ => {
                put_str(buf, &self.numer().abs().to_string());
                put_str(buf, &self.denom().to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
