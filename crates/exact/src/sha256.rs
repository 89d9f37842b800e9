//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! It lives in this leaf crate so that every crate above it can hash
//! canonical bytes. `ra-games` memoizes each strategic game's content
//! digest with it, and `ra-authority` builds HMACs, commitments and the
//! certificate-cache key on it.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Computes SHA-256 of `data`.
///
/// Full 64-byte blocks are compressed straight from `data`; only the last
/// one or two blocks, which carry the padding, are assembled in a stack
/// buffer. Nothing is copied to the heap.
///
/// # Examples
///
/// ```
/// use ra_exact::sha256;
///
/// let digest = sha256(b"abc");
/// assert_eq!(digest[..4], [0xba, 0x78, 0x16, 0xbf]);
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = H0;
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        compress(&mut h, block);
    }
    // Padding: 0x80, zeros, 64-bit big-endian bit length. The remainder
    // (< 64 bytes) plus 9 padding bytes fits in one block or spills into
    // a second.
    let rest = blocks.remainder();
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let tail_len = if rest.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    for block in tail[..tail_len].chunks_exact(64) {
        compress(&mut h, block);
    }
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The SHA-256 compression function over one 64-byte block.
fn compress(h: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (i, word) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (word, add) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *word = word.wrapping_add(add);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{put_varint, rat};

    /// The differential reference for the streamed padding: a
    /// copy-and-pad SHA-256 that clones the input, pads the copy and
    /// compresses every block of it, with its own inline round loop.
    fn copy_and_pad_sha256(data: &[u8]) -> [u8; 32] {
        let mut h = H0;
        let bit_len = (data.len() as u64).wrapping_mul(8);
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&bit_len.to_be_bytes());
        for chunk in padded.chunks_exact(64) {
            let mut w = [0u32; 64];
            for (i, word) in chunk.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = hh
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                hh = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }
            h[0] = h[0].wrapping_add(a);
            h[1] = h[1].wrapping_add(b);
            h[2] = h[2].wrapping_add(c);
            h[3] = h[3].wrapping_add(d);
            h[4] = h[4].wrapping_add(e);
            h[5] = h[5].wrapping_add(f);
            h[6] = h[6].wrapping_add(g);
            h[7] = h[7].wrapping_add(hh);
        }
        let mut out = [0u8; 32];
        for (i, word) in h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// The spec-digest preimage of a benchmark-catalog game: the strategic
    /// tag `0`, then a 16×16 coordination game whose diagonal `(a, a)` pays
    /// both players `offset + a` and whose other profiles pay `0`, written
    /// in the canonical layout (agent count, strategy counts, then every
    /// profile's payoffs in odometer order).
    fn catalog_preimage(offset: i64) -> Vec<u8> {
        let mut buf = vec![0];
        put_varint(&mut buf, 2);
        put_varint(&mut buf, 16);
        put_varint(&mut buf, 16);
        for b in 0..16 {
            for a in 0..16 {
                let payoff = if a == b {
                    rat(offset + a, 1)
                } else {
                    rat(0, 1)
                };
                payoff.encode_canonical(&mut buf);
                payoff.encode_canonical(&mut buf);
            }
        }
        buf
    }

    #[test]
    fn streaming_matches_copy_and_pad_on_every_length() {
        // Lengths 0..=200 cross every padding case: an empty input, a
        // remainder that leaves room for the length (< 56), one that
        // spills into a second padding block (56..64), and several full
        // blocks before each.
        let data: Vec<u8> = (0..=200u32)
            .map(|i| (i.wrapping_mul(167) ^ (i >> 3)).to_le_bytes()[0])
            .collect();
        for len in 0..=data.len() {
            assert_eq!(
                sha256(&data[..len]),
                copy_and_pad_sha256(&data[..len]),
                "length {len}"
            );
        }
        let catalog = catalog_preimage(123_457);
        assert_eq!(catalog.len(), 1092, "a 16x16 catalog spec is 1,092 bytes");
        assert_eq!(sha256(&catalog), copy_and_pad_sha256(&catalog));
    }
}
