//! HMAC-SHA-256 (RFC 2104), the paper's recommended integrity mechanism.
//!
//! §IV-B1: "we recommend using HMACs instead of digital signatures unless
//! the digital signatures are part of the encryption process". Validated
//! against RFC 4231 test vectors.

use crate::sha256::{Digest, Sha256};

const BLOCK_LEN: usize = 64;

/// A 256-bit message authentication tag.
pub type Tag = Digest;

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the 64-byte block are first hashed, per RFC 2104.
///
/// # Examples
///
/// ```
/// let tag = hc_crypto::hmac::hmac(b"key", b"message");
/// assert!(hc_crypto::hmac::verify(b"key", b"message", &tag));
/// ```
pub fn hmac(key: &[u8], message: &[u8]) -> Tag {
    hmac_parts(key, &[message])
}

/// Computes an HMAC over multiple message parts without concatenating.
pub fn hmac_parts(key: &[u8], parts: &[&[u8]]) -> Tag {
    HmacKey::new(key).tag_parts(parts)
}

/// An HMAC key with its inner and outer pad blocks already absorbed, so a
/// holder that tags many messages under one key skips the two pad
/// compressions [`hmac_parts`] spends per tag on rebuilding them.
pub(crate) struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Absorbs `key`'s pads. Keys longer than the 64-byte block are first
    /// hashed, per RFC 2104.
    pub(crate) fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let hashed = crate::sha256::hash(key);
            key_block[..32].copy_from_slice(hashed.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let absorb = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|b| b ^ pad));
            h
        };
        HmacKey {
            inner: absorb(0x36),
            outer: absorb(0x5c),
        }
    }

    /// `HMAC(key, parts[0] ‖ parts[1] ‖ …)`.
    pub(crate) fn tag_parts(&self, parts: &[&[u8]]) -> Tag {
        let mut inner = self.inner.clone();
        for p in parts {
            inner.update(p);
        }
        let mut outer = self.outer.clone();
        outer.update(inner.finalize().as_bytes());
        outer.finalize()
    }

    /// [`derive_key`] under this key.
    pub(crate) fn derive(&self, label: &[u8]) -> [u8; 32] {
        *self.tag_parts(&[label, &[1u8]]).as_bytes()
    }
}

/// Verifies a tag in constant time.
pub fn verify(key: &[u8], message: &[u8], tag: &Tag) -> bool {
    let expected = hmac(key, message);
    hc_common::hex::constant_time_eq(expected.as_bytes(), tag.as_bytes())
}

/// Derives a subkey from a parent key and a context label (HKDF-like
/// expand-only construction: `HMAC(parent, label || counter)`).
pub fn derive_key(parent: &[u8], label: &[u8]) -> [u8; 32] {
    HmacKey::new(parent).derive(label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pad-per-call HMAC [`HmacKey`] replaced, kept as the reference
    /// the differential test compares against.
    fn hmac_parts_oracle(key: &[u8], parts: &[&[u8]]) -> Tag {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let hashed = crate::sha256::hash(key);
            key_block[..32].copy_from_slice(hashed.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        for p in parts {
            inner.update(p);
        }
        let inner_digest = inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&opad);
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        let tag = hmac(&key, b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2: key "Jefe".
    #[test]
    fn rfc4231_case_2() {
        let tag = hmac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data.
    #[test]
    fn rfc4231_case_3() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        let tag = hmac(&key, &data);
        assert_eq!(
            tag.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: 131-byte key (forces key hashing).
    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        let tag = hmac(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            tag.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_rejects_tampering() {
        let tag = hmac(b"k", b"m");
        assert!(verify(b"k", b"m", &tag));
        assert!(!verify(b"k", b"m2", &tag));
        assert!(!verify(b"k2", b"m", &tag));
    }

    #[test]
    fn derive_key_separates_labels() {
        let a = derive_key(b"master", b"storage");
        let b = derive_key(b"master", b"transport");
        assert_ne!(a, b);
    }

    proptest! {
        #[test]
        fn parts_equals_concat(
            key in proptest::collection::vec(any::<u8>(), 0..100),
            a in proptest::collection::vec(any::<u8>(), 0..100),
            b in proptest::collection::vec(any::<u8>(), 0..100),
        ) {
            let concat: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
            prop_assert_eq!(hmac(&key, &concat), hmac_parts(&key, &[&a, &b]));
        }

        #[test]
        fn absorbed_pads_match_the_pad_per_call_oracle(
            key in proptest::collection::vec(any::<u8>(), 0..200),
            a in proptest::collection::vec(any::<u8>(), 0..300),
            b in proptest::collection::vec(any::<u8>(), 0..300),
            label in proptest::collection::vec(any::<u8>(), 0..16),
        ) {
            let absorbed = HmacKey::new(&key);
            prop_assert_eq!(absorbed.tag_parts(&[&a, &b]), hmac_parts_oracle(&key, &[&a, &b]));
            // One absorbed key serves any number of tags.
            prop_assert_eq!(absorbed.tag_parts(&[&b]), hmac_parts_oracle(&key, &[&b]));
            prop_assert_eq!(
                &absorbed.derive(&label),
                hmac_parts_oracle(&key, &[&label, &[1u8]]).as_bytes()
            );
        }

        #[test]
        fn different_keys_give_different_tags(
            k1 in proptest::collection::vec(any::<u8>(), 1..64),
            k2 in proptest::collection::vec(any::<u8>(), 1..64),
            msg in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            prop_assume!(k1 != k2);
            prop_assert_ne!(hmac(&k1, &msg), hmac(&k2, &msg));
        }
    }
}
