//! A compact wire format for protocol messages.
//!
//! The paper's Lemma 1 argues about *bits communicated*; to measure that
//! honestly the message bus serializes every message into real bytes. No
//! general-purpose serializer is in the approved dependency set, so this is
//! a small hand-rolled format: tag bytes, minimal varints and
//! varint-length-prefixed sequences, composed structurally.
//!
//! Each format is written once. A tagged enum or a plain struct declares
//! its format as one table in [`wire_codec!`], `tag => Variant { a, b }`
//! per variant, and the macro generates both [`Wire::encode`] and
//! [`Wire::decode`] from that table, so the two directions cannot drift
//! apart. Only the formats that state a rule a table cannot (a size cap,
//! a validated value, a strictly ordered map) are written by hand, each as
//! one `impl Wire`. Every decoder accepts exactly what its encoder writes
//! and reports anything else as a typed [`WireError`].
//!
//! Every rational (payoffs, probabilities, loads) is written by
//! `ra-exact`'s one canonical writer, [`Rational::encode_canonical`]: a
//! tag byte (sign, and whether the value is an integer) and then its
//! magnitudes as minimal LEB128, so a payoff of `0` is 2 bytes. The
//! decoder is its reader, [`Rational::decode_canonical`]. A strategic
//! game's wire bytes are therefore its spec-digest preimage (after the
//! spec tag), byte for byte.
//!
//! Encoding appends to a plain `Vec<u8>`; decoding consumes a [`WireBytes`]
//! cursor — an `Arc`-backed, cheaply cloneable byte window that replaces the
//! `bytes::Bytes` dependency with `std`-only machinery. The cursor also
//! counts how deep the decoder has nested: a recursive type (the §3 proof
//! trees) decodes each level through [`WireBytes::nested`], which refuses
//! to go past [`MAX_NESTING`] levels, so hostile nesting is a decode error
//! and not a stack overflow.
//!
//! # The pooled frame buffer
//!
//! The bus serializes every message *only to measure it* — delivery moves
//! the message value into the recipient's queue — so the per-send wire
//! cost is one [`Wire::encoded_len`] call. [`with_frame_scratch`] backs
//! that call with a per-thread reusable buffer: after the first consult
//! warms a thread's scratch, steady-state consults encode into recycled
//! capacity and allocate zero fresh frame buffers. [`frame_pool_misses`]
//! counts the times the pool could *not* serve a request from recycled
//! capacity (first use, growth, or re-entrant nesting), which is what the
//! zero-allocation tests and the wire microbench assert against.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use ra_exact::{Rational, RationalDecodeError};

thread_local! {
    /// The per-thread reusable encode buffer behind [`with_frame_scratch`].
    static FRAME_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    /// How many times this thread's scratch failed to serve a request from
    /// already-recycled capacity.
    static FRAME_POOL_MISSES: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` with this thread's recycled frame buffer, cleared but keeping
/// its capacity. The buffer is recycled when `f` returns, so steady-state
/// encoding (same thread, messages no larger than the high-water mark)
/// allocates nothing.
///
/// Re-entrant calls (an encoder calling back into the pool while the
/// scratch is borrowed) fall back to a fresh buffer; both that fallback
/// and any capacity growth inside `f` count as a pool miss in
/// [`frame_pool_misses`].
pub fn with_frame_scratch<R>(f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    FRAME_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            buf.clear();
            let capacity_before = buf.capacity();
            let out = f(&mut buf);
            if buf.capacity() > capacity_before {
                FRAME_POOL_MISSES.with(|misses| misses.set(misses.get() + 1));
            }
            out
        }
        Err(_) => {
            FRAME_POOL_MISSES.with(|misses| misses.set(misses.get() + 1));
            f(&mut Vec::new())
        }
    })
}

/// This thread's running count of frame-pool misses: requests
/// [`with_frame_scratch`] could not serve from recycled capacity (first
/// use on the thread, a message larger than every previous one, or a
/// re-entrant borrow). A warmed steady state holds this constant — the
/// property the zero-allocation tests pin down.
pub fn frame_pool_misses() -> u64 {
    FRAME_POOL_MISSES.with(Cell::get)
}

/// How many levels of a recursive type one decode may nest. Honest
/// certificates are a handful of levels deep; without a cap, hostile
/// bytes (millions of repeated `Term::Add` tags, say) would abort the
/// process through a stack overflow instead of returning a [`WireError`].
pub(crate) const MAX_NESTING: u32 = 256;

/// An immutable, cheaply cloneable window of bytes with cursor semantics.
///
/// Reads (`get_u8`, [`WireBytes::advance`]) advance the window's start, so
/// `len()` always reports the bytes *remaining*, exactly like the
/// `bytes::Bytes` type this replaces. The cursor also carries the nesting
/// depth of the decode in progress, which caps how deep a recursive value
/// may nest.
#[derive(Clone)]
pub struct WireBytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
    depth: u32,
}

impl WireBytes {
    /// An empty byte window.
    pub fn new() -> WireBytes {
        WireBytes::from(Vec::new())
    }

    /// Remaining bytes in the window.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether no bytes remain.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether at least one byte remains.
    pub fn has_remaining(&self) -> bool {
        !self.is_empty()
    }

    /// Returns the next byte without consuming it, or `None` if the
    /// window is empty. Decoders of non-recursive envelope types use this
    /// to reject an illegally nested inner tag *before* recursing, so a
    /// hostile chain of envelope tags errors out instead of exhausting
    /// the stack.
    pub fn peek_u8(&self) -> Option<u8> {
        self.as_slice().first().copied()
    }

    /// Consumes and returns the next byte.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`] if the window is empty.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        let byte = self.peek_u8().ok_or(WireError::UnexpectedEnd)?;
        self.start += 1;
        Ok(byte)
    }

    /// Consumes the first `n` remaining bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes remain.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of WireBytes");
        self.start += n;
    }

    /// Runs `decode` one nesting level deeper. Every recursive type's
    /// decoder goes through here, so the depth counts the levels of the
    /// value being read, and a value nested past [`MAX_NESTING`] levels
    /// is [`WireError::Malformed`] before its next level is read.
    ///
    /// # Errors
    ///
    /// Whatever `decode` returns, or [`WireError::Malformed`] past the cap.
    pub(crate) fn nested<T>(
        &mut self,
        decode: impl FnOnce(&mut WireBytes) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        if self.depth >= MAX_NESTING {
            return Err(WireError::Malformed(format!(
                "nesting deeper than {MAX_NESTING}"
            )));
        }
        self.depth += 1;
        let out = decode(self);
        self.depth -= 1;
        out
    }

    /// A sub-window of the remaining bytes (indices relative to the
    /// cursor), at nesting depth 0.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> WireBytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice out of bounds"
        );
        WireBytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
            depth: 0,
        }
    }

    /// The remaining bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Copies the remaining bytes into a fresh vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for WireBytes {
    fn default() -> WireBytes {
        WireBytes::new()
    }
}

impl From<Vec<u8>> for WireBytes {
    fn from(v: Vec<u8>) -> WireBytes {
        let end = v.len();
        WireBytes {
            data: Arc::from(v),
            start: 0,
            end,
            depth: 0,
        }
    }
}

impl From<&[u8]> for WireBytes {
    fn from(v: &[u8]) -> WireBytes {
        WireBytes::from(v.to_vec())
    }
}

impl AsRef<[u8]> for WireBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for WireBytes {
    fn eq(&self, other: &WireBytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for WireBytes {}

impl std::fmt::Debug for WireBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WireBytes({:02x?})", self.as_slice())
    }
}

/// Errors from decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended mid-value.
    UnexpectedEnd,
    /// A tag byte was invalid for the expected type.
    BadTag(u8),
    /// A value broke a rule of its format (a length or size cap, an
    /// overlong varint, keys out of order, nesting past the cap).
    Malformed(String),
    /// Bytes shaped like a rational that its canonical encoder never
    /// writes (a truncated value is [`WireError::UnexpectedEnd`] and an
    /// unknown tag bit [`WireError::BadTag`]).
    NonCanonical(RationalDecodeError),
}

impl From<RationalDecodeError> for WireError {
    fn from(e: RationalDecodeError) -> WireError {
        match e {
            RationalDecodeError::UnexpectedEnd => WireError::UnexpectedEnd,
            RationalDecodeError::UnknownTag(t) => WireError::BadTag(t),
            other => WireError::NonCanonical(other),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnexpectedEnd => write!(f, "unexpected end of input"),
            WireError::BadTag(t) => write!(f, "invalid tag byte {t:#x}"),
            WireError::Malformed(s) => write!(f, "malformed value: {s}"),
            WireError::NonCanonical(e) => write!(f, "non-canonical rational: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Types that can be encoded to and decoded from the wire format.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decodes a value, consuming bytes from `buf`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated or malformed input.
    fn decode(buf: &mut WireBytes) -> Result<Self, WireError>;

    /// Convenience: full encoding as bytes.
    fn to_bytes(&self) -> WireBytes {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        WireBytes::from(buf)
    }

    /// Encoded size in bytes.
    ///
    /// Measured by encoding into the thread's recycled frame scratch
    /// ([`with_frame_scratch`]), so the bus accounting path — which
    /// serializes only to measure — allocates no fresh buffer per message
    /// once the thread is warm.
    fn encoded_len(&self) -> usize {
        with_frame_scratch(|buf| {
            self.encode(buf);
            buf.len()
        })
    }
}

/// Implements [`Wire`] for each type from one table of its format, so
/// `encode` and `decode` are generated from the same list.
///
/// ```text
/// wire_codec! {
///     struct PnCounter { increments, decrements }
///     enum Party { 0 => Inventor(id), 1 => Agent(id), ... }
///     recursive enum Term { 0 => Const(value), 2 => Add(a, b), ... }
/// }
/// ```
///
/// - A `struct` row lists every field in wire order; no tag is written.
/// - An `enum` row per variant, `tag => Variant { a, b }` or
///   `tag => Variant(a, b)`, is the tag byte then the listed fields. A
///   tag is a literal or a parenthesised constant, and a byte no row
///   names decodes to [`WireError::BadTag`]. Two rows with one tag are
///   an unreachable match arm, which the lints reject.
/// - A `recursive enum` also decodes one level deeper on the cursor
///   ([`WireBytes::nested`]), which caps how deep hostile bytes can nest.
///
/// Each field is encoded and decoded by its own type's [`Wire`] impl; the
/// type is inferred from the definition, and every field must be named,
/// since the generated patterns and constructors name them all. A field
/// written `field = path` is decoded by `path(buf)` instead, for a rule
/// the field's type does not state.
macro_rules! wire_codec {
    () => {};
    (struct $ty:ident { $($field:ident),* $(,)? } $($rest:tt)*) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                let $ty { $($field),* } = self;
                $($crate::wire::Wire::encode($field, buf);)*
            }
            fn decode(
                buf: &mut $crate::wire::WireBytes,
            ) -> Result<$ty, $crate::wire::WireError> {
                Ok($ty { $($field: $crate::wire::Wire::decode(buf)?),* })
            }
        }
        $crate::wire::wire_codec!($($rest)*);
    };
    (recursive enum $ty:ident { $($rows:tt)* } $($rest:tt)*) => {
        $crate::wire::wire_codec!(@enum $ty [nested] { $($rows)* });
        $crate::wire::wire_codec!($($rest)*);
    };
    (enum $ty:ident { $($rows:tt)* } $($rest:tt)*) => {
        $crate::wire::wire_codec!(@enum $ty [] { $($rows)* });
        $crate::wire::wire_codec!($($rest)*);
    };
    (@enum $ty:ident [$($nested:ident)?] { $($tag:tt => $variant:ident $fields:tt),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $($crate::wire::wire_codec!(@pattern $ty $variant $fields) => {
                        buf.push($crate::wire::wire_codec!(@tag $tag));
                        $crate::wire::wire_codec!(@encode buf $fields);
                    })*
                }
            }
            fn decode(
                buf: &mut $crate::wire::WireBytes,
            ) -> Result<$ty, $crate::wire::WireError> {
                $crate::wire::wire_codec!(@depth buf [$($nested)?] |buf| {
                    Ok(match buf.get_u8()? {
                        $($crate::wire::wire_codec!(@tag $tag) => {
                            $crate::wire::wire_codec!(@build buf $ty $variant $fields)
                        })*
                        tag => return Err($crate::wire::WireError::BadTag(tag)),
                    })
                })
            }
        }
    };
    (@tag ($tag:path)) => {
        $tag
    };
    (@tag $tag:literal) => {
        $tag
    };
    (@depth $buf:ident [] |$arg:ident| $body:block) => {{
        let $arg = $buf;
        $body
    }};
    (@depth $buf:ident [nested] |$arg:ident| $body:block) => {
        $buf.nested(|$arg| $body)
    };
    (@pattern $ty:ident $variant:ident { $($field:ident $(= $with:path)?),* $(,)? }) => {
        $ty::$variant { $($field),* }
    };
    (@pattern $ty:ident $variant:ident ( $($field:ident $(= $with:path)?),* $(,)? )) => {
        $ty::$variant($($field),*)
    };
    (@encode $buf:ident { $($field:ident $(= $with:path)?),* $(,)? }) => {
        $($crate::wire::Wire::encode($field, $buf);)*
    };
    (@encode $buf:ident ( $($field:ident $(= $with:path)?),* $(,)? )) => {
        $($crate::wire::Wire::encode($field, $buf);)*
    };
    (@build $buf:ident $ty:ident $variant:ident { $($field:ident $(= $with:path)?),* $(,)? }) => {
        $ty::$variant { $($field: $crate::wire::wire_codec!(@field $buf $($with)?)),* }
    };
    (@build $buf:ident $ty:ident $variant:ident ( $($field:ident $(= $with:path)?),* $(,)? )) => {
        $ty::$variant($($crate::wire::wire_codec!(@field $buf $($with)?)),*)
    };
    (@field $buf:ident) => {
        $crate::wire::Wire::decode($buf)?
    };
    (@field $buf:ident $with:path) => {
        $with($buf)?
    };
}
pub(crate) use wire_codec;

/// LEB128-style unsigned varint. The writer lives in `ra-exact` beside
/// the canonical rational writer, so game digests and wire frames share
/// one varint format.
pub use ra_exact::put_varint;

/// Reads a varint in the one form [`put_varint`] writes: its last byte
/// is non-zero unless it is the only one, and it holds at most 64 bits.
///
/// # Errors
///
/// [`WireError::UnexpectedEnd`] on truncation, [`WireError::Malformed`] on
/// overlong encodings and on values past `u64::MAX`.
pub fn get_varint(buf: &mut WireBytes) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = buf.get_u8()?;
        // The tenth byte holds bit 63 alone.
        if shift == 63 && byte > 1 {
            return Err(WireError::Malformed("varint overflow".into()));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return Err(WireError::Malformed("overlong varint".into()));
            }
            return Ok(v);
        }
        shift += 7;
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self);
    }
    fn decode(buf: &mut WireBytes) -> Result<u64, WireError> {
        get_varint(buf)
    }
}

/// A varint; a value past `u32::MAX` is [`WireError::Malformed`].
impl Wire for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, u64::from(*self));
    }
    fn decode(buf: &mut WireBytes) -> Result<u32, WireError> {
        u32::try_from(get_varint(buf)?)
            .map_err(|_| WireError::Malformed("varint exceeds u32".into()))
    }
}

impl Wire for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self as u64);
    }
    fn decode(buf: &mut WireBytes) -> Result<usize, WireError> {
        Ok(get_varint(buf)? as usize)
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(buf: &mut WireBytes) -> Result<bool, WireError> {
        match buf.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Reads a sequence-length prefix, applying the defensive cap against
/// hostile length values (shared by every length-prefixed decoder).
pub(crate) fn get_len_prefix(buf: &mut WireBytes) -> Result<usize, WireError> {
    let len = get_varint(buf)? as usize;
    if len > 1 << 24 {
        return Err(WireError::Malformed(format!(
            "vector length {len} too large"
        )));
    }
    Ok(len)
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut WireBytes) -> Result<Vec<T>, WireError> {
        let len = get_len_prefix(buf)?;
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn decode(buf: &mut WireBytes) -> Result<Box<T>, WireError> {
        Ok(Box::new(T::decode(buf)?))
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn decode(buf: &mut WireBytes) -> Result<Arc<T>, WireError> {
        Ok(Arc::new(T::decode(buf)?))
    }
}

impl Wire for Rational {
    /// A tag byte and minimal LEB128 magnitudes (arbitrary precision
    /// survives); see [`Rational::encode_canonical`].
    fn encode(&self, buf: &mut Vec<u8>) {
        self.encode_canonical(buf);
    }
    /// Accepts exactly the bytes [`Rational::encode_canonical`] writes;
    /// see [`Rational::decode_canonical`].
    fn decode(buf: &mut WireBytes) -> Result<Rational, WireError> {
        let mut rest = buf.as_slice();
        let value = Rational::decode_canonical(&mut rest)?;
        let used = buf.len() - rest.len();
        buf.advance(used);
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_exact::rat;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        let mut buf = bytes.clone();
        let decoded = T::decode(&mut buf).expect("decodes");
        assert_eq!(decoded, v);
        assert!(!buf.has_remaining(), "no trailing bytes");
        assert_eq!(bytes.len(), v.encoded_len());
    }

    #[test]
    fn varints() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            round_trip(v);
        }
        // Compactness: small values take one byte.
        assert_eq!(5u64.encoded_len(), 1);
        assert_eq!(300u64.encoded_len(), 2);
        for (v, len) in [(0u64, 1), (127, 1), (128, 2), (u64::MAX, 10)] {
            assert_eq!(v.to_bytes().len(), len, "{v}");
        }
    }

    #[test]
    fn varints_have_one_encoding() {
        let mut past_u64 = vec![0x80; 9];
        past_u64.push(0x02);
        for bytes in [vec![0x80, 0x00], vec![0x85, 0x80, 0x00], past_u64] {
            let mut buf = WireBytes::from(bytes.clone());
            assert!(
                matches!(u64::decode(&mut buf), Err(WireError::Malformed(_))),
                "{bytes:x?}"
            );
        }
    }

    #[test]
    fn vectors_and_wrappers() {
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(vec![vec![rat(1, 2)], vec![], vec![rat(-3, 1), rat(0, 1)]]);
        round_trip(vec![true, false, true]);
        round_trip(Box::new(7usize));
        round_trip(Arc::new(vec![3u32, u32::MAX]));
    }

    #[test]
    fn u32_past_its_range_is_malformed() {
        let mut bytes = u64::from(u32::MAX).to_bytes();
        assert_eq!(u32::decode(&mut bytes), Ok(u32::MAX));
        let mut bytes = (u64::from(u32::MAX) + 1).to_bytes();
        assert!(matches!(
            u32::decode(&mut bytes),
            Err(WireError::Malformed(_))
        ));
    }

    /// A list of lists, each level decoded through [`WireBytes::nested`].
    struct Nest(Vec<Nest>);

    impl Wire for Nest {
        fn encode(&self, buf: &mut Vec<u8>) {
            self.0.encode(buf);
        }
        fn decode(buf: &mut WireBytes) -> Result<Nest, WireError> {
            buf.nested(|buf| Ok(Nest(Vec::decode(buf)?)))
        }
    }

    /// The bytes of a [`Nest`] `levels` deep: a one-element list at each
    /// level but the last, which is empty.
    fn nest(levels: u32) -> Vec<u8> {
        let mut bytes = vec![1; levels as usize - 1];
        bytes.push(0);
        bytes
    }

    #[test]
    fn nesting_is_capped_on_the_cursor() {
        let mut deepest = WireBytes::from(nest(MAX_NESTING));
        assert!(Nest::decode(&mut deepest).is_ok());
        assert!(deepest.is_empty());
        let mut too_deep = WireBytes::from(nest(MAX_NESTING + 1));
        assert!(matches!(
            Nest::decode(&mut too_deep),
            Err(WireError::Malformed(_))
        ));
        // Each level leaves as it came in, so a failed decode leaves the
        // cursor at depth 0 for whatever it reads next.
        assert_eq!(too_deep.depth, 0);
    }

    #[test]
    fn rationals() {
        round_trip(rat(0, 1));
        round_trip(rat(-3, 8));
        round_trip(rat(1, 4));
        let huge: Rational = "123456789012345678901234567890/977".parse().unwrap();
        round_trip(huge);
        assert_eq!(rat(0, 1).encoded_len(), 2, "a zero payoff is two bytes");
    }

    fn decode_rational(bytes: &[u8]) -> Result<Rational, WireError> {
        Rational::decode(&mut WireBytes::from(bytes))
    }

    #[test]
    fn rational_with_an_unknown_tag_bit_is_rejected() {
        assert_eq!(decode_rational(&[0b110, 1]), Err(WireError::BadTag(0b110)));
        assert_eq!(decode_rational(&[0x80, 1, 2]), Err(WireError::BadTag(0x80)));
    }

    #[test]
    fn rational_with_a_zero_denominator_is_rejected() {
        assert_eq!(
            decode_rational(&[0, 1, 0]),
            Err(WireError::NonCanonical(
                RationalDecodeError::ZeroDenominator
            ))
        );
    }

    #[test]
    fn rational_with_a_written_unit_denominator_is_rejected() {
        assert_eq!(decode_rational(&[0b10, 5]), Ok(rat(5, 1)));
        assert_eq!(
            decode_rational(&[0, 5, 1]),
            Err(WireError::NonCanonical(
                RationalDecodeError::UnitDenominator
            ))
        );
    }

    #[test]
    fn rational_not_in_lowest_terms_is_rejected() {
        assert_eq!(decode_rational(&[0, 3, 4]), Ok(rat(3, 4)));
        for unreduced in [[0, 2, 4], [1, 6, 9], [0, 0, 2]] {
            assert_eq!(
                decode_rational(&unreduced),
                Err(WireError::NonCanonical(
                    RationalDecodeError::NotInLowestTerms
                )),
                "{unreduced:?}"
            );
        }
    }

    #[test]
    fn rational_negative_zero_is_rejected() {
        assert_eq!(decode_rational(&[0b10, 0]), Ok(rat(0, 1)));
        for negative_zero in [&[0b11, 0][..], &[0b01, 0, 3]] {
            assert_eq!(
                decode_rational(negative_zero),
                Err(WireError::NonCanonical(RationalDecodeError::NegativeZero)),
                "{negative_zero:?}"
            );
        }
    }

    #[test]
    fn rational_with_a_non_minimal_group_is_rejected() {
        for overlong in [
            &[0b10, 0x80, 0x00][..],
            &[0b10, 0x85, 0x80, 0x00],
            &[0, 1, 0x83, 0x00],
        ] {
            assert_eq!(
                decode_rational(overlong),
                Err(WireError::NonCanonical(RationalDecodeError::OverlongVarint)),
                "{overlong:02x?}"
            );
        }
    }

    #[test]
    fn truncated_rational_is_rejected_and_consumes_nothing() {
        for cut in [&[][..], &[0b10], &[0b10, 0x80], &[0, 1], &[0, 1, 0x82]] {
            let mut buf = WireBytes::from(cut);
            assert_eq!(Rational::decode(&mut buf), Err(WireError::UnexpectedEnd));
            assert_eq!(buf.len(), cut.len());
        }
    }

    #[test]
    fn truncation_detected() {
        let bytes = vec![1u64, 300, 7].to_bytes();
        let mut short = bytes.slice(0..3);
        assert_eq!(
            Vec::<u64>::decode(&mut short),
            Err(WireError::UnexpectedEnd)
        );
        let mut empty = WireBytes::new();
        assert_eq!(u64::decode(&mut empty), Err(WireError::UnexpectedEnd));
    }

    #[test]
    fn bad_tags_detected() {
        let mut bytes = WireBytes::from(vec![7u8]);
        assert_eq!(bool::decode(&mut bytes), Err(WireError::BadTag(7)));
    }

    #[test]
    fn hostile_length_rejected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        let mut bytes = WireBytes::from(buf);
        assert!(matches!(
            Vec::<u64>::decode(&mut bytes),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn frame_scratch_reuse_is_allocation_free_in_steady_state() {
        let msg = crate::Message::VerdictRequest {
            game_id: 300,
            advice: Arc::new(crate::Advice::Support(ra_proofs::SupportCertificate {
                row_support: vec![0, 2, 5],
                col_support: vec![1],
            })),
        };
        // Warm this thread's scratch past the message's encoded size.
        let warm_len = msg.encoded_len();
        let misses_after_warmup = frame_pool_misses();
        for _ in 0..1_000 {
            assert_eq!(msg.encoded_len(), warm_len);
        }
        assert_eq!(
            frame_pool_misses(),
            misses_after_warmup,
            "steady-state encoded_len must not allocate fresh frame buffers"
        );
    }

    #[test]
    fn frame_scratch_encoding_is_byte_identical_to_fresh() {
        let values = vec![0u64, 1, 127, 128, 300, u64::MAX];
        let mut fresh = Vec::new();
        values.encode(&mut fresh);
        let pooled = with_frame_scratch(|buf| {
            values.encode(buf);
            buf.clone()
        });
        assert_eq!(pooled, fresh);
        assert_eq!(values.encoded_len(), fresh.len());
    }

    #[test]
    fn reentrant_frame_scratch_falls_back_to_a_fresh_buffer() {
        // A hostile/nested encoder that measures while encoding: the inner
        // with_frame_scratch cannot re-borrow the thread scratch, so it
        // must fall back (counted as a miss) and still produce the right
        // bytes.
        struct Nested;
        impl Wire for Nested {
            fn encode(&self, buf: &mut Vec<u8>) {
                let inner_len = with_frame_scratch(|scratch| {
                    7u64.encode(scratch);
                    scratch.len()
                });
                put_varint(buf, inner_len as u64);
            }
            fn decode(buf: &mut WireBytes) -> Result<Nested, WireError> {
                get_varint(buf)?;
                Ok(Nested)
            }
        }
        let misses_before = frame_pool_misses();
        let len = Nested.encoded_len();
        assert_eq!(len, 1, "inner length 1 encodes as one varint byte");
        assert!(
            frame_pool_misses() > misses_before,
            "the re-entrant borrow is a counted miss"
        );
    }

    #[test]
    fn wire_bytes_window_semantics() {
        let mut w = WireBytes::from(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(w.len(), 5);
        assert_eq!(w.get_u8(), Ok(1));
        assert_eq!(w.len(), 4);
        assert_eq!(w.peek_u8(), Some(2));
        w.advance(2);
        assert_eq!(w.as_slice(), &[4, 5]);
        assert_eq!(w.slice(1..2).as_slice(), &[5]);
        // Clones share the backing allocation but cursor independently.
        let mut c = w.clone();
        assert_eq!(c.get_u8(), Ok(4));
        assert_eq!(w.len(), 2);
        assert_eq!(c.len(), 1);
        c.advance(1);
        assert_eq!(c.peek_u8(), None);
        assert_eq!(c.get_u8(), Err(WireError::UnexpectedEnd));
    }
}
