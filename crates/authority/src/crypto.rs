//! Minimal cryptographic substrate: SHA-256 and HMAC.
//!
//! §6 footnote 3 of the paper has the inventor "publish the average loads
//! with its signature at each round", so dishonest statistics can later be
//! blamed on it. No cryptography crate is in the approved dependency set,
//! so SHA-256 (FIPS 180-4) and HMAC (RFC 2104) are implemented from
//! scratch; signatures are simulated as HMACs under a key registered with
//! the audit authority — binding and attributable within the simulation,
//! which is all the audit trail needs.
//!
//! The SHA-256 compression itself lives in `ra-exact`, so that `ra-games`
//! can hash a game's canonical bytes too; this module re-exports it.

/// Output of SHA-256: 32 bytes.
pub type Digest = [u8; 32];

/// Computes SHA-256 of `data` (re-exported from `ra-exact`, the leaf crate
/// that also hashes each strategic game's content digest).
///
/// # Examples
///
/// ```
/// use ra_authority::sha256;
///
/// let digest = sha256(b"abc");
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
///
/// fn hex(d: &[u8]) -> String {
///     d.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
pub use ra_exact::sha256;

/// SHA-256 of a value's canonical wire encoding. The value is encoded into
/// the thread-local frame scratch and hashed where it lies, so once the
/// thread is warm no buffer is allocated or copied (the scratch is
/// recycled across calls; see [`crate::wire::with_frame_scratch`]).
pub fn sha256_wire<T: crate::wire::Wire>(value: &T) -> Digest {
    crate::wire::with_frame_scratch(|buf| {
        value.encode(buf);
        sha256(buf)
    })
}

/// HMAC-SHA256 (RFC 2104).
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    const BLOCK: usize = 64;
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        key_block[..32].copy_from_slice(&sha256(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut inner = Vec::with_capacity(BLOCK + message.len());
    let mut outer = Vec::with_capacity(BLOCK + 32);
    for &b in &key_block {
        inner.push(b ^ 0x36);
    }
    inner.extend_from_slice(message);
    let inner_digest = sha256(&inner);
    for &b in &key_block {
        outer.push(b ^ 0x5c);
    }
    outer.extend_from_slice(&inner_digest);
    sha256(&outer)
}

/// A simulated signing key (HMAC key shared with the audit authority).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SigningKey(pub [u8; 32]);

impl SigningKey {
    /// Derives a key deterministically from a seed label (simulation only).
    pub fn derive(label: &str) -> SigningKey {
        SigningKey(sha256(label.as_bytes()))
    }

    /// Signs a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature(hmac_sha256(&self.0, message))
    }

    /// Verifies a signature.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        self.sign(message) == *signature
    }
}

/// A simulated signature (HMAC tag).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Signature(pub Digest);

/// Hex rendering of a digest (for logs and audit reports).
pub fn to_hex(digest: &Digest) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_known_vectors() {
        // FIPS 180-4 / NIST test vectors.
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // One block of exactly 64 bytes exercises the length-padding path.
        let block = [0x61u8; 64];
        assert_eq!(
            to_hex(&sha256(&block)),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
        );
    }

    #[test]
    fn hmac_known_vectors() {
        // RFC 4231 test case 2.
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // RFC 4231 test case 1.
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn hmac_long_key_path() {
        let key = [0xaau8; 131];
        // RFC 4231 test case 6.
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn signatures_round_trip() {
        let key = SigningKey::derive("inventor-7");
        let sig = key.sign(b"average load = 503.2 at round 17");
        assert!(key.verify(b"average load = 503.2 at round 17", &sig));
        assert!(!key.verify(b"average load = 999.9 at round 17", &sig));
        let other = SigningKey::derive("inventor-8");
        assert!(!other.verify(b"average load = 503.2 at round 17", &sig));
    }
}
