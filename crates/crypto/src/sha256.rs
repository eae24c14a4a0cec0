//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! Validated in the test suite against the NIST example vectors for
//! `"abc"`, the empty string, the two-block message, and a one-million-`a`
//! message.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as a sentinel (e.g. genesis previous-hash).
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Returns the digest bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Encodes the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        hc_common::hex::encode(&self.0)
    }

    /// Decodes a digest from 64 hex characters.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is not exactly 64 hex digits.
    pub fn from_hex(s: &str) -> Result<Self, hc_common::hex::DecodeHexError> {
        let bytes = hc_common::hex::decode(s)?;
        let arr: [u8; 32] = bytes
            .try_into()
            .map_err(|_| hc_common::hex::DecodeHexError::OddLength)?;
        Ok(Digest(arr))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", &self.to_hex()[..16])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

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

/// The padding's first block: `0x80`, then zeros.
const PADDING: [u8; 64] = {
    let mut block = [0u8; 64];
    block[0] = 0x80;
    block
};

/// An incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use hc_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
/// );
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256::default()
    }

    /// Absorbs `data` into the hash state. Whole blocks are compressed
    /// where they lie in `data`; only a partial block is buffered.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
            data = data.split_at(take).1;
        }
        let (blocks, data) = data.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buffer[..data.len()].copy_from_slice(data);
        self.buffer_len = data.len();
    }

    /// Consumes the hasher, producing the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Pad with 0x80 and zeros up to 56 bytes into a block, then the
        // 64-bit big-endian length ends it.
        let pad_len = if self.buffer_len < 56 {
            56 - self.buffer_len
        } else {
            120 - self.buffer_len
        };
        // `buffer_len` < 64, so 1 <= pad_len <= 64.
        self.update(&PADDING[..pad_len]); // hc-lint: allow(panic-index)
        self.update(&bit_len.to_be_bytes());

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// One round. The caller rotates the names of the working variables
/// instead of moving them: this round's `d` and `h` receive the new `e`
/// and `a`, and the next round takes `h` as its `a`.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $k:expr, $w:expr) => {
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add(($e & $f) ^ (!$e & $g))
            .wrapping_add($k)
            .wrapping_add($w);
        let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(t2);
    };
}

/// Eight rounds from word `$i` of the round constants `$k` and the
/// schedule `$w`; after them every name holds its own variable again.
/// The indices are constants into fixed-size arrays, so the compiler
/// checks their bounds.
macro_rules! rounds8 {
    ($k:ident, $w:ident, $i:literal, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident) => {
        round!($a, $b, $c, $d, $e, $f, $g, $h, $k[$i], $w[$i]);
        round!($h, $a, $b, $c, $d, $e, $f, $g, $k[$i + 1], $w[$i + 1]);
        round!($g, $h, $a, $b, $c, $d, $e, $f, $k[$i + 2], $w[$i + 2]);
        round!($f, $g, $h, $a, $b, $c, $d, $e, $k[$i + 3], $w[$i + 3]);
        round!($e, $f, $g, $h, $a, $b, $c, $d, $k[$i + 4], $w[$i + 4]);
        round!($d, $e, $f, $g, $h, $a, $b, $c, $k[$i + 5], $w[$i + 5]);
        round!($c, $d, $e, $f, $g, $h, $a, $b, $k[$i + 6], $w[$i + 6]);
        round!($b, $c, $d, $e, $f, $g, $h, $a, $k[$i + 7], $w[$i + 7]);
    };
}

/// Advances the rolling schedule: each word `$i`, in order, goes from
/// word t − 16 of the message schedule to word
/// t = σ1(w[t−2]) + w[t−7] + σ0(w[t−15]) + w[t−16], indices mod 16.
macro_rules! next_words {
    ($w:ident, $($i:literal),*) => {$({
        let w15 = $w[($i + 1) % 16];
        let w2 = $w[($i + 14) % 16];
        let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
        let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
        $w[$i] = $w[$i]
            .wrapping_add(s0)
            .wrapping_add($w[($i + 9) % 16])
            .wrapping_add(s1);
    })*};
}

/// Compresses one block into `state`: the 64 rounds run 16 at a time,
/// unrolled, over a rolling 16-word message schedule.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (group, k) in K.as_chunks::<16>().0.iter().enumerate() {
        if group > 0 {
            next_words!(w, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        }
        rounds8!(k, w, 0, a, b, c, d, e, f, g, h);
        rounds8!(k, w, 8, a, b, c, d, e, f, g, h);
    }
    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// Hashes `data` in one shot.
///
/// # Examples
///
/// ```
/// let d = hc_crypto::sha256::hash(b"");
/// assert_eq!(
///     d.to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
/// );
/// ```
pub fn hash(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hashes the concatenation of several byte slices without allocating.
pub fn hash_parts(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The block-copying hasher the unrolled kernel replaced, kept as the
    /// reference the differential test compares against: the message is
    /// padded whole, and each block is copied out and compressed over a
    /// 64-word schedule, one round per loop iteration.
    fn hash_oracle(data: &[u8]) -> Digest {
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % 64 != 56 {
            message.push(0);
        }
        message.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for chunk in message.chunks_exact(64) {
            let mut block = [0u8; 64];
            block.copy_from_slice(chunk);
            compress_oracle(&mut state, &block);
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    fn compress_oracle(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            hash(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            hash(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_two_block() {
        assert_eq!(
            hash(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hash(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn nist_vector_448_bit_plus_one_block_boundary() {
        // Exactly 56 bytes: forces the length into a second padding block.
        let data = vec![b'x'; 56];
        let d1 = hash(&data);
        let mut h = Sha256::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(d1, h.finalize());
    }

    #[test]
    fn digest_hex_round_trip() {
        let d = hash(b"round trip");
        assert_eq!(Digest::from_hex(&d.to_hex()).unwrap(), d);
    }

    #[test]
    fn digest_from_hex_rejects_wrong_length() {
        assert!(Digest::from_hex("abcd").is_err());
    }

    #[test]
    fn hash_parts_equals_concat() {
        let whole = hash(b"hello world");
        let parts = hash_parts(&[b"hello", b" ", b"world"]);
        assert_eq!(whole, parts);
    }

    proptest! {
        #[test]
        fn incremental_kernel_matches_the_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            splits in proptest::collection::vec(0usize..4096, 0..4),
        ) {
            let mut cuts: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut from = 0;
            for cut in cuts {
                h.update(&data[from..cut]);
                from = cut;
            }
            h.update(&data[from..]);
            let expected = hash_oracle(&data);
            prop_assert_eq!(h.finalize(), expected);
            prop_assert_eq!(hash(&data), expected);
        }

        #[test]
        fn distinct_inputs_distinct_digests(
            a in proptest::collection::vec(any::<u8>(), 0..64),
            b in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            prop_assume!(a != b);
            prop_assert_ne!(hash(&a), hash(&b));
        }
    }
}
