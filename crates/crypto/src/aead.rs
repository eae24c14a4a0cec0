//! Authenticated encryption: ChaCha20 encrypt-then-MAC with HMAC-SHA-256.
//!
//! This is the concrete realization of the paper's §IV-B1 design: data is
//! "encrypted with a well-established shared key" and integrity-protected
//! with HMACs. The MAC covers the nonce, the associated data (e.g. the
//! record's routing metadata) and the ciphertext, so any tampering —
//! including replaying a ciphertext under different metadata — is detected.

use rand::Rng;
use serde::{DeError, Deserialize, Reader, Serialize, Writer};

use crate::base64;
use crate::chacha20::{self, Nonce};
use crate::hmac::{self, HmacKey};
use crate::sha256::Digest;

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

    /// Derives a labelled subkey (e.g. separate encryption and MAC keys).
    pub fn derive(&self, label: &[u8]) -> SecretKey {
        SecretKey(hmac::derive_key(&self.0, label))
    }
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SecretKey(..)")
    }
}

/// An encrypted, integrity-protected payload.
///
/// Serializes as one JSON string: the RFC 4648 base64 (standard
/// alphabet, padded) of [`Sealed::to_wire`], four characters per three
/// wire bytes. Reading accepts only that canonical text and at least the
/// 44 bytes of nonce and tag, and decodes it straight into the fields.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Sealed {
    /// Cipher nonce (public).
    pub nonce: Nonce,
    /// ChaCha20 ciphertext.
    pub ciphertext: Vec<u8>,
    /// HMAC-SHA-256 over nonce ‖ aad ‖ ciphertext.
    pub tag: Digest,
}

impl Sealed {
    /// Total wire size in bytes.
    pub fn wire_len(&self) -> usize {
        12 + self.ciphertext.len() + 32
    }

    /// Encodes the envelope as nonce ‖ tag ‖ ciphertext, [`wire_len`]
    /// bytes.
    ///
    /// [`wire_len`]: Sealed::wire_len
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.nonce.0);
        out.extend_from_slice(self.tag.as_bytes());
        out.extend_from_slice(&self.ciphertext);
        out
    }

    /// Decodes the [`to_wire`](Sealed::to_wire) layout. Returns `None`
    /// when `wire` is shorter than the 44-byte nonce and tag; any longer
    /// input decodes, and a damaged one fails [`open`] instead.
    pub fn from_wire(wire: &[u8]) -> Option<Sealed> {
        let (nonce, rest) = wire.split_first_chunk::<12>()?;
        let (tag, ciphertext) = rest.split_first_chunk::<32>()?;
        Some(Sealed {
            nonce: Nonce(*nonce),
            ciphertext: ciphertext.to_vec(),
            tag: Digest(*tag),
        })
    }
}

/// Nonce, tag and the ciphertext's first byte: fifteen whole base64
/// groups. The fifteenth straddles the tag and the ciphertext, so the
/// envelope is coded as these bytes, kept on the stack, and then the
/// rest of the ciphertext, which starts a group.
const HEAD_LEN: usize = 45;

impl Serialize for Sealed {
    fn serialize(&self, out: &mut Writer) {
        // The whole string and its quotes, so the closing quote does not
        // reallocate the envelope.
        out.reserve(base64::encoded_len(self.wire_len()) + 2);
        let mut head = [0u8; HEAD_LEN];
        let (nonce, rest) = head.split_at_mut(12);
        let (tag, first) = rest.split_at_mut(32);
        nonce.copy_from_slice(&self.nonce.0);
        tag.copy_from_slice(self.tag.as_bytes());
        let (head_len, ciphertext): (usize, &[u8]) = match self.ciphertext.split_first() {
            Some((&byte, ciphertext)) => {
                first.fill(byte);
                (HEAD_LEN, ciphertext)
            }
            None => (HEAD_LEN - 1, &[]),
        };
        out.str_unescaped(|buf| {
            base64::encode_into(head.split_at(head_len).0, buf);
            base64::encode_into(ciphertext, buf);
        });
    }
}

impl Deserialize for Sealed {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, DeError> {
        let text = input.str()?;
        let text = text.as_bytes();
        let wire_len = base64::decoded_len(text).map_err(DeError::msg)?;
        let Some(ciphertext_len) = wire_len.checked_sub(HEAD_LEN - 1) else {
            return Err(DeError::msg("sealed envelope shorter than nonce and tag"));
        };
        let mut head = [0u8; HEAD_LEN];
        let mut ciphertext = vec![0u8; ciphertext_len];
        let (head_len, rest): (usize, &mut [u8]) = match ciphertext.split_first_mut() {
            Some((_, rest)) => (HEAD_LEN, rest),
            None => (HEAD_LEN - 1, &mut []),
        };
        // At least 44 wire bytes take at least 60 characters.
        let (head_text, rest_text) = text.split_at(base64::encoded_len(head_len));
        base64::decode_into(head_text, head.split_at_mut(head_len).0).map_err(DeError::msg)?;
        base64::decode_into(rest_text, rest).map_err(DeError::msg)?;
        let [.., byte] = head;
        if let Some(first) = ciphertext.first_mut() {
            *first = byte;
        }
        let mut sealed = Sealed {
            nonce: Nonce::default(),
            ciphertext,
            tag: Digest([0; 32]),
        };
        let (nonce, rest) = head.split_at(12);
        sealed.nonce.0.copy_from_slice(nonce);
        sealed.tag.0.copy_from_slice(rest.split_at(32).0);
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

/// The tag over nonce ‖ aad length ‖ aad ‖ ciphertext, hashed in place.
fn mac(mac_key: &HmacKey, nonce: &Nonce, aad: &[u8], ciphertext: &[u8]) -> Digest {
    let aad_len = (aad.len() as u64).to_le_bytes();
    mac_key.tag_parts(&[&nonce.0, &aad_len, aad, ciphertext])
}

/// Seals `plaintext` under `key` with a deterministic per-key nonce counter
/// supplied by the caller via [`seal_with_nonce`], or a nonce derived from
/// the plaintext+aad hash here.
///
/// Deriving the nonce from a hash keeps the API misuse-resistant in this
/// deterministic simulation context (the same (key, plaintext, aad) triple
/// yields the same ciphertext; distinct messages get distinct nonces).
pub fn seal(key: &SecretKey, plaintext: &[u8], aad: &[u8]) -> Sealed {
    DerivedKey::new(key.clone()).seal(plaintext, aad)
}

/// Seals `plaintext` with an explicit nonce.
///
/// The caller is responsible for never reusing a nonce under the same key.
pub fn seal_with_nonce(key: &SecretKey, nonce: Nonce, plaintext: &[u8], aad: &[u8]) -> Sealed {
    DerivedKey::new(key.clone()).seal_with_nonce(nonce, plaintext, aad)
}

/// Opens a sealed payload, verifying integrity before decrypting.
///
/// # Errors
///
/// Returns [`OpenError`] if the tag does not verify (wrong key, tampered
/// ciphertext, or mismatched associated data).
pub fn open(key: &SecretKey, sealed: &Sealed, aad: &[u8]) -> Result<Vec<u8>, OpenError> {
    DerivedKey::new(key.clone()).open(sealed, aad)
}

/// A key with its encryption and MAC subkeys derived, and the MAC key's
/// HMAC pads absorbed (8 SHA-256 compressions in all; both derivations
/// share the parent key's absorbed pads). The free [`seal`] and [`open`]
/// derive them on every call; a holder that seals and opens under one key
/// many times (the KMS master key) keeps a `DerivedKey` and gets the same
/// bytes and verdicts.
pub(crate) struct DerivedKey {
    key: SecretKey,
    enc: SecretKey,
    mac: HmacKey,
}

impl DerivedKey {
    pub(crate) fn new(key: SecretKey) -> Self {
        let parent = HmacKey::new(key.as_bytes());
        DerivedKey {
            enc: SecretKey(parent.derive(b"enc")),
            mac: HmacKey::new(&parent.derive(b"mac")),
            key,
        }
    }

    /// [`seal`] under this key.
    pub(crate) fn seal(&self, plaintext: &[u8], aad: &[u8]) -> Sealed {
        let h = crate::sha256::hash_parts(&[self.key.as_bytes(), plaintext, aad]);
        let mut nonce = Nonce::default();
        nonce.0.copy_from_slice(&h.as_bytes()[..12]);
        self.seal_with_nonce(nonce, plaintext, aad)
    }

    fn seal_with_nonce(&self, nonce: Nonce, plaintext: &[u8], aad: &[u8]) -> Sealed {
        let ciphertext = chacha20::encrypt(self.enc.as_bytes(), &nonce, plaintext);
        let tag = mac(&self.mac, &nonce, aad, &ciphertext);
        Sealed {
            nonce,
            ciphertext,
            tag,
        }
    }

    /// [`open`] under this key.
    pub(crate) fn open(&self, sealed: &Sealed, aad: &[u8]) -> Result<Vec<u8>, OpenError> {
        let expected = mac(&self.mac, &sealed.nonce, aad, &sealed.ciphertext);
        if !hc_common::hex::constant_time_eq(expected.as_bytes(), sealed.tag.as_bytes()) {
            return Err(OpenError);
        }
        Ok(chacha20::decrypt(
            self.enc.as_bytes(),
            &sealed.nonce,
            &sealed.ciphertext,
        ))
    }
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
        // The nonce derivation, the enc/mac key split and the MAC layout
        // decide these bytes; every stored envelope depends on them.
        let sealed = seal(&key(), b"hba1c=6.5", b"patient-42");
        assert_eq!(
            hc_common::hex::encode(&sealed.to_wire()),
            "066d7c5c06d9ca641c4e3c008d29219404117f38eefdff768b366320edc8a9e4\
             ca98b6733878ab29c54320db1f2b229b3ff4ce6c37"
        );
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
        assert_eq!(sealed.wire_len(), 100 + 44);
    }

    #[test]
    fn from_wire_rejects_input_shorter_than_nonce_and_tag() {
        assert_eq!(Sealed::from_wire(&[0u8; 43]), None);
        let empty = Sealed::from_wire(&[0u8; 44]).unwrap();
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
        // plaintext, and one of each length mod 3 around the fifteenth
        // group, where the tag meets the ciphertext.
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
        let text = quoted_base64(&[7u8; 44]);
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
        let padded = quoted_base64(&[7u8; 46]);
        assert!(padded.ends_with("Bw==\""));
        rejected(&padded.replace("Bw==", "B==="), "three =");
        rejected(&padded.replace("Bw==", "Bx=="), "non-zero unused bits");
        // `[7; 44]` ends in one `=`; 43 bytes end in two.
        assert!(body.ends_with("Bwc="));
        rejected(&quoted_base64(&[7u8; 43]), "43 bytes");
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
