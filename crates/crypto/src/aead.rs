//! Authenticated encryption: RFC 8439 ChaCha20-Poly1305 with a
//! synthetic nonce.
//!
//! This is the concrete realization of the paper's §IV-B1 design: data is
//! "encrypted with a well-established shared key" and integrity-protected
//! with a symmetric MAC rather than a signature. The MAC is Poly1305
//! (RFC 8439 §2.8): its one-time key comes from the cipher itself, so a
//! seal or an open under any key derives no subkeys and hashes nothing
//! for the tag. The tag covers the associated data (e.g. the record's
//! routing metadata) and the ciphertext, so any tampering — including
//! replaying a ciphertext under different metadata — is detected.
//!
//! The nonce is synthetic: the first 12 bytes of
//! SHA-256(key ‖ le64(aad length) ‖ aad ‖ plaintext). One message under
//! one key always seals to the same bytes, and two different messages get
//! different nonces, so no Poly1305 one-time key ever covers two of them.
//! Hashing the aad's length keeps ("ab", "c") and ("a", "bc") apart.

use rand::Rng;
use serde::{DeError, Deserialize, Reader, Serialize, Writer};

use crate::base64;
use crate::chacha20::{self, Nonce};
use crate::hmac;
use crate::poly1305::Poly1305;
use crate::sha256;

/// A 256-bit shared secret key.
///
/// The debug representation never prints key material.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecretKey([u8; 32]);

impl SecretKey {
    /// Wraps raw key bytes.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        SecretKey(bytes)
    }

    /// Generates a fresh random key from `rng`.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; 32];
        rng.fill(&mut bytes);
        SecretKey(bytes)
    }

    /// Returns the raw key bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Derives a labelled subkey with HMAC-SHA-256
    /// ([`hmac::derive_key`]).
    pub fn derive(&self, label: &[u8]) -> SecretKey {
        SecretKey(hmac::derive_key(&self.0, label))
    }
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SecretKey(..)")
    }
}

/// Bytes of nonce and tag that precede the ciphertext on the wire.
const FIXED_LEN: usize = 28;

/// An encrypted, integrity-protected payload.
///
/// Serializes as one JSON string: the RFC 4648 base64 (standard
/// alphabet, padded) of [`Sealed::to_wire`], four characters per three
/// wire bytes. Reading accepts only that canonical text and at least the
/// 28 bytes of nonce and tag, and decodes it straight into the fields.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Sealed {
    /// Cipher nonce (public).
    pub nonce: Nonce,
    /// ChaCha20 ciphertext.
    pub ciphertext: Vec<u8>,
    /// Poly1305 tag over the aad and the ciphertext (RFC 8439 §2.8).
    pub tag: [u8; 16],
}

impl Sealed {
    /// Total wire size in bytes.
    pub fn wire_len(&self) -> usize {
        FIXED_LEN + self.ciphertext.len()
    }

    /// Encodes the envelope as nonce ‖ tag ‖ ciphertext, [`wire_len`]
    /// bytes.
    ///
    /// [`wire_len`]: Sealed::wire_len
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.nonce.0);
        out.extend_from_slice(&self.tag);
        out.extend_from_slice(&self.ciphertext);
        out
    }

    /// Decodes the [`to_wire`](Sealed::to_wire) layout. Returns `None`
    /// when `wire` is shorter than the 28-byte nonce and tag; any longer
    /// input decodes, and a damaged one fails [`open`] instead.
    pub fn from_wire(wire: &[u8]) -> Option<Sealed> {
        let (nonce, rest) = wire.split_first_chunk::<12>()?;
        let (tag, ciphertext) = rest.split_first_chunk::<16>()?;
        Some(Sealed {
            nonce: Nonce(*nonce),
            ciphertext: ciphertext.to_vec(),
            tag: *tag,
        })
    }
}

/// Nonce, tag and up to the ciphertext's first two bytes: ten whole
/// base64 groups. The 28 fixed bytes end one byte into the tenth group,
/// so the envelope is coded as these bytes, kept on the stack, and then
/// the rest of the ciphertext, which starts a group.
const HEAD_LEN: usize = 30;

impl Serialize for Sealed {
    fn serialize(&self, out: &mut Writer) {
        // The whole string and its quotes, so the closing quote does not
        // reallocate the envelope.
        out.reserve(base64::encoded_len(self.wire_len()) + 2);
        let (first, ciphertext) = self
            .ciphertext
            .split_at(self.ciphertext.len().min(HEAD_LEN - FIXED_LEN));
        let mut head = [0u8; HEAD_LEN];
        let (nonce, rest) = head.split_at_mut(12);
        let (tag, head_ciphertext) = rest.split_at_mut(16);
        nonce.copy_from_slice(&self.nonce.0);
        tag.copy_from_slice(&self.tag);
        head_ciphertext
            .split_at_mut(first.len())
            .0
            .copy_from_slice(first);
        out.str_unescaped(|buf| {
            base64::encode_into(head.split_at(FIXED_LEN + first.len()).0, buf);
            base64::encode_into(ciphertext, buf);
        });
    }
}

impl Deserialize for Sealed {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, DeError> {
        let text = input.str()?;
        let text = text.as_bytes();
        let wire_len = base64::decoded_len(text).map_err(DeError::msg)?;
        let Some(ciphertext_len) = wire_len.checked_sub(FIXED_LEN) else {
            return Err(DeError::msg("sealed envelope shorter than nonce and tag"));
        };
        let mut ciphertext = vec![0u8; ciphertext_len];
        let (first, rest) = ciphertext.split_at_mut(ciphertext_len.min(HEAD_LEN - FIXED_LEN));
        let head_len = FIXED_LEN + first.len();
        let mut head = [0u8; HEAD_LEN];
        // At least 28 wire bytes take at least 40 characters.
        let (head_text, rest_text) = text.split_at(base64::encoded_len(head_len));
        base64::decode_into(head_text, head.split_at_mut(head_len).0).map_err(DeError::msg)?;
        base64::decode_into(rest_text, rest).map_err(DeError::msg)?;
        let (nonce, rest) = head.split_at(12);
        let (tag, head_ciphertext) = rest.split_at(16);
        first.copy_from_slice(head_ciphertext.split_at(first.len()).0);
        let mut sealed = Sealed {
            nonce: Nonce::default(),
            ciphertext,
            tag: [0; 16],
        };
        sealed.nonce.0.copy_from_slice(nonce);
        sealed.tag.copy_from_slice(tag);
        Ok(sealed)
    }
}

/// Error returned when opening a sealed payload fails authentication.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OpenError;

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("authentication tag mismatch")
    }
}

impl std::error::Error for OpenError {}

/// RFC 8439 §2.8's tag: Poly1305 under the first 32 bytes of ChaCha20
/// block 0 for `nonce`, over aad ‖ pad16 ‖ ciphertext ‖ pad16 ‖
/// le64(aad length) ‖ le64(ciphertext length).
fn tag(key: &SecretKey, nonce: &Nonce, aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
    let mut one_time_key = [0u8; 32];
    for (byte, from) in one_time_key
        .iter_mut()
        .zip(chacha20::block(key.as_bytes(), 0, nonce))
    {
        *byte = from;
    }
    let mut poly = Poly1305::new(&one_time_key);
    poly.update_padded(aad);
    poly.update_padded(ciphertext);
    let lengths = u128::from(aad.len() as u64) | u128::from(ciphertext.len() as u64) << 64;
    poly.update_padded(&lengths.to_le_bytes());
    poly.finalize()
}

/// Seals `plaintext` under `key`, binding `aad`, with the synthetic
/// nonce of the module docs.
///
/// Deriving the nonce from a hash keeps the API misuse-resistant in this
/// deterministic simulation context: the same (key, aad, plaintext)
/// yields the same envelope, and distinct messages get distinct nonces.
pub fn seal(key: &SecretKey, plaintext: &[u8], aad: &[u8]) -> Sealed {
    let aad_len = (aad.len() as u64).to_le_bytes();
    let digest = sha256::hash_parts(&[key.as_bytes(), &aad_len, aad, plaintext]);
    let mut nonce = Nonce::default();
    for (byte, from) in nonce.0.iter_mut().zip(digest.0) {
        *byte = from;
    }
    seal_at_nonce(key, nonce, plaintext, aad)
}

/// RFC 8439 §2.8 under an explicit nonce. Two messages sealed under one
/// (key, nonce) give away that nonce's Poly1305 key and with it
/// forgeries, so only [`seal`], whose nonce is bound to the message, and
/// the RFC vector test call this.
fn seal_at_nonce(key: &SecretKey, nonce: Nonce, plaintext: &[u8], aad: &[u8]) -> Sealed {
    let ciphertext = chacha20::encrypt(key.as_bytes(), &nonce, plaintext);
    let tag = tag(key, &nonce, aad, &ciphertext);
    Sealed {
        nonce,
        ciphertext,
        tag,
    }
}

/// Opens a sealed payload, verifying integrity before decrypting.
///
/// # Errors
///
/// Returns [`OpenError`] if the tag does not verify (wrong key, tampered
/// nonce, tag or ciphertext, or mismatched associated data).
pub fn open(key: &SecretKey, sealed: &Sealed, aad: &[u8]) -> Result<Vec<u8>, OpenError> {
    let expected = tag(key, &sealed.nonce, aad, &sealed.ciphertext);
    if !hc_common::hex::constant_time_eq(&expected, &sealed.tag) {
        return Err(OpenError);
    }
    Ok(chacha20::decrypt(
        key.as_bytes(),
        &sealed.nonce,
        &sealed.ciphertext,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key() -> SecretKey {
        SecretKey::from_bytes([9u8; 32])
    }

    #[test]
    fn round_trip() {
        let sealed = seal(&key(), b"hba1c=6.5", b"patient-42");
        assert_eq!(open(&key(), &sealed, b"patient-42").unwrap(), b"hba1c=6.5");
    }

    #[test]
    fn sealed_bytes_are_pinned() {
        // The nonce derivation and RFC 8439's cipher and tag decide these
        // bytes; every stored envelope depends on them. Python
        // `cryptography`'s ChaCha20Poly1305 gives the same.
        let sealed = seal(&key(), b"hba1c=6.5", b"patient-42");
        assert_eq!(
            hc_common::hex::encode(&sealed.to_wire()),
            "bb79b6efa096f50c0c7919b5c9701466a5108214a06314a65507fb1d4a814cd9\
             12156d9ebf"
        );
    }

    /// RFC 8439 §2.8.2's key, nonce, aad and plaintext.
    fn rfc8439_aead_inputs() -> (SecretKey, Nonce, Vec<u8>, &'static [u8]) {
        let mut key = [0u8; 32];
        for (byte, value) in key.iter_mut().zip(0x80u8..) {
            *byte = value;
        }
        let nonce = Nonce([7, 0, 0, 0, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47]);
        let aad = hc_common::hex::decode("50515253c0c1c2c3c4c5c6c7").unwrap();
        let plaintext: &[u8] = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        (SecretKey::from_bytes(key), nonce, aad, plaintext)
    }

    #[test]
    fn rfc8439_aead_vector() {
        let (key, nonce, aad, plaintext) = rfc8439_aead_inputs();
        let sealed = seal_at_nonce(&key, nonce, plaintext, &aad);
        // The RFC prints the ciphertext's start and the tag; the rest of
        // the ciphertext is Python `cryptography`'s.
        assert_eq!(
            hc_common::hex::encode(&sealed.ciphertext),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116"
        );
        assert_eq!(
            hc_common::hex::encode(&sealed.tag),
            "1ae10b594f09e26a7e902ecbd0600691"
        );
        assert_eq!(open(&key, &sealed, &aad).unwrap(), plaintext);
    }

    #[test]
    fn nonce_binds_where_the_aad_ends() {
        // Key ‖ plaintext ‖ aad alone reads "abc" for both messages.
        let ab_c = seal(&key(), b"ab", b"c");
        let a_bc = seal(&key(), b"a", b"bc");
        assert_ne!(ab_c.nonce, a_bc.nonce);
        assert_eq!(open(&key(), &ab_c, b"c").unwrap(), b"ab");
        assert_eq!(open(&key(), &a_bc, b"bc").unwrap(), b"a");
    }

    #[test]
    fn any_flipped_bit_or_length_change_fails_open() {
        let aad = b"record-17:at-rest".to_vec();
        let sealed = seal(&key(), &[0x5a; 40], &aad);
        let rejected = |tampered: &Sealed, aad: &[u8], what: &str| {
            assert_eq!(open(&key(), tampered, aad), Err(OpenError), "{what}");
        };
        for bit in 0..96 {
            let mut tampered = sealed.clone();
            tampered.nonce.0[bit / 8] ^= 1 << (bit % 8);
            rejected(&tampered, &aad, &format!("nonce bit {bit}"));
        }
        for bit in 0..128 {
            let mut tampered = sealed.clone();
            tampered.tag[bit / 8] ^= 1 << (bit % 8);
            rejected(&tampered, &aad, &format!("tag bit {bit}"));
        }
        for bit in 0..sealed.ciphertext.len() * 8 {
            let mut tampered = sealed.clone();
            tampered.ciphertext[bit / 8] ^= 1 << (bit % 8);
            rejected(&tampered, &aad, &format!("ciphertext bit {bit}"));
        }
        for bit in 0..aad.len() * 8 {
            let mut other = aad.clone();
            other[bit / 8] ^= 1 << (bit % 8);
            rejected(&sealed, &other, &format!("aad bit {bit}"));
        }
        let mut shorter = sealed.clone();
        shorter.ciphertext.pop();
        rejected(&shorter, &aad, "one byte shorter");
        for byte in [0u8, 0x5a, 0xff] {
            let mut longer = sealed.clone();
            longer.ciphertext.push(byte);
            rejected(&longer, &aad, &format!("one byte {byte:#x} longer"));
        }
        assert_eq!(open(&key(), &sealed, &aad).unwrap(), [0x5a; 40]);
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let mut sealed = seal(&key(), b"data", b"");
        sealed.ciphertext[0] ^= 1;
        assert_eq!(open(&key(), &sealed, b""), Err(OpenError));
    }

    #[test]
    fn wrong_aad_rejected() {
        let sealed = seal(&key(), b"data", b"ctx-a");
        assert_eq!(open(&key(), &sealed, b"ctx-b"), Err(OpenError));
    }

    #[test]
    fn wrong_key_rejected() {
        let sealed = seal(&key(), b"data", b"");
        let other = SecretKey::from_bytes([8u8; 32]);
        assert_eq!(open(&other, &sealed, b""), Err(OpenError));
    }

    #[test]
    fn debug_hides_key_material() {
        assert_eq!(format!("{:?}", key()), "SecretKey(..)");
    }

    #[test]
    fn wire_len_accounts_overhead() {
        let sealed = seal(&key(), &[0u8; 100], b"");
        assert_eq!(sealed.wire_len(), 100 + 28);
        assert_eq!(sealed.to_wire().len(), 100 + 28);
    }

    #[test]
    fn from_wire_rejects_input_shorter_than_nonce_and_tag() {
        assert_eq!(Sealed::from_wire(&[0u8; 27]), None);
        let empty = Sealed::from_wire(&[0u8; 28]).unwrap();
        assert!(empty.ciphertext.is_empty());
    }

    /// The JSON form of `wire`: its base64, quoted.
    fn quoted_base64(wire: &[u8]) -> String {
        let mut text = Vec::new();
        base64::encode_into(wire, &mut text);
        format!("\"{}\"", String::from_utf8(text).unwrap())
    }

    #[test]
    fn json_form_is_one_base64_string() {
        let sealed = seal(&key(), b"hba1c=6.5", b"at-rest");
        let json = serde_json::to_string(&sealed).unwrap();
        assert_eq!(json, quoted_base64(&sealed.to_wire()));
        assert_eq!(json.len(), 4 * sealed.wire_len().div_ceil(3) + 2);
        assert!(json[1..json.len() - 1]
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"+/=".contains(&b)));
        assert_eq!(serde_json::from_str::<Sealed>(&json).unwrap(), sealed);
    }

    #[test]
    fn json_form_is_written_into_a_buffer_of_its_exact_length() {
        // The empty, a short, a routine-upload and a lab-history
        // plaintext, and ciphertexts of 0 to 3 bytes, which put every
        // place of the tenth group, where the tag meets the ciphertext.
        for len in [0usize, 1, 2, 3, 4, 9, 2_298, 69_208] {
            let plaintext: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let sealed = seal(&key(), &plaintext, b"at-rest");
            let json = serde_json::to_vec(&sealed).unwrap();
            assert_eq!(json.len(), 4 * sealed.wire_len().div_ceil(3) + 2);
            assert_eq!(json.capacity(), json.len(), "{len}-byte plaintext");
        }
    }

    #[test]
    fn json_form_rejects_malformed_envelopes() {
        assert!(serde_json::from_str::<Sealed>(&quoted_base64(&[7u8; 28])).is_ok());
        let text = quoted_base64(&[7u8; 29]);
        let body = &text[1..text.len() - 1];
        assert!(serde_json::from_str::<Sealed>(&text).is_ok());
        let rejected = |json: &str, why: &str| {
            assert!(
                serde_json::from_str::<Sealed>(json).is_err(),
                "{why}: {json}"
            );
        };
        rejected("[1,2,3]", "non-string");
        rejected(&format!("\"{body}A\""), "length not a multiple of 4");
        rejected(&format!("\"{}\"", &body[1..]), "length not a multiple of 4");
        rejected(
            &format!("\"{}!{}\"", &body[..8], &body[9..]),
            "outside the alphabet",
        );
        rejected(
            &format!("\"{}-{}\"", &body[..8], &body[9..]),
            "URL-safe alphabet",
        );
        rejected(
            &format!("\"{}={}\"", &body[..8], &body[9..]),
            "= before the end",
        );
        let padded = quoted_base64(&[7u8; 31]);
        assert!(padded.ends_with("Bw==\""));
        rejected(&padded.replace("Bw==", "B==="), "three =");
        rejected(&padded.replace("Bw==", "Bx=="), "non-zero unused bits");
        // `[7; 29]` ends in one `=`; 27 bytes end in none and 25 in two.
        assert!(body.ends_with("Bwc="));
        rejected(&quoted_base64(&[7u8; 27]), "27 bytes");
        rejected(&quoted_base64(&[7u8; 25]), "25 bytes");
        rejected("\"\"", "no bytes");
    }

    #[test]
    fn derive_produces_distinct_subkeys() {
        assert_ne!(key().derive(b"a"), key().derive(b"b"));
    }

    proptest! {
        #[test]
        fn any_payload_round_trips(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            aad in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let sealed = seal(&key(), &data, &aad);
            prop_assert_eq!(open(&key(), &sealed, &aad).unwrap(), data);
        }

        #[test]
        fn wire_form_round_trips(
            data in proptest::collection::vec(any::<u8>(), 0..512),
            aad in proptest::collection::vec(any::<u8>(), 0..16),
        ) {
            let sealed = seal(&key(), &data, &aad);
            let wire = sealed.to_wire();
            prop_assert_eq!(wire.len(), sealed.wire_len());
            prop_assert_eq!(Sealed::from_wire(&wire), Some(sealed));
        }

        #[test]
        fn replaced_character_fails_decoding_or_opening(
            data in proptest::collection::vec(any::<u8>(), 0..64),
            at in any::<usize>(),
            by in 0usize..63,
        ) {
            const ALPHABET: &[u8; 64] =
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
            let sealed = seal(&key(), &data, b"at-rest");
            let mut json = serde_json::to_string(&sealed).unwrap().into_bytes();
            // Skip the opening quote; stay clear of the closing one.
            let i = 1 + at % (json.len() - 2);
            // Any other alphabet character, `=` included as an original.
            let others: Vec<u8> = ALPHABET.iter().copied().filter(|&c| c != json[i]).collect();
            json[i] = others[by % others.len()];
            if let Ok(tampered) = serde_json::from_slice::<Sealed>(&json) {
                prop_assert_eq!(open(&key(), &tampered, b"at-rest"), Err(OpenError));
            }
        }

        #[test]
        fn bit_flips_always_detected(
            data in proptest::collection::vec(any::<u8>(), 1..256),
            flip_byte in 0usize..256,
            flip_bit in 0u8..8,
        ) {
            let mut sealed = seal(&key(), &data, b"aad");
            let idx = flip_byte % sealed.ciphertext.len();
            sealed.ciphertext[idx] ^= 1 << flip_bit;
            prop_assert_eq!(open(&key(), &sealed, b"aad"), Err(OpenError));
        }
    }
}
