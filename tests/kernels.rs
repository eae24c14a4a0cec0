//! Known answers for the per-byte kernels every upload runs through:
//! SHA-256, HMAC-SHA-256, the ChaCha20-Poly1305 sealed envelope, the WAL's
//! CRC-32, and the malware scanner's signature search. Each kernel is also
//! checked against its previous implementation in its own crate; these
//! answers pin it from outside, where a consistent bug on both the writing
//! and the reading side would otherwise pass.

use hc_common::id::PatientId;
use hc_core::platform::{demo_bundle, HealthCloudPlatform, PlatformConfig};
use hc_crypto::aead::{self, SecretKey};
use hc_crypto::{hmac, sha256};
use hc_fhir::resource::Resource;
use hc_fhir::types::HumanName;
use hc_ingest::scanner::TEST_SIGNATURE;
use hc_ingest::status::IngestionStatus;
use hc_storage::wal::{crc32, WalOp, WriteAheadLog};

/// SHA-256 of the `len` bytes `0, 1, 2, …` at the lengths where the
/// padding still fits the block (55), spills into another (56), and where
/// one or two blocks fill (63, 64, 65, 119, 120). The digests come from an
/// independent implementation (Python's `hashlib`).
const BOUNDARY_DIGESTS: [(usize, &str); 7] = [
    (
        55,
        "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
    ),
    (
        56,
        "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
    ),
    (
        63,
        "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
    ),
    (
        64,
        "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
    ),
    (
        65,
        "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781",
    ),
    (
        119,
        "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6",
    ),
    (
        120,
        "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c",
    ),
];

#[test]
fn sha256_known_answers_at_padding_boundaries() {
    for (len, expected) in BOUNDARY_DIGESTS {
        let message: Vec<u8> = (0..len).map(|i| i as u8).collect();
        assert_eq!(sha256::hash(&message).to_hex(), expected, "{len} bytes");
        let mut h = sha256::Sha256::new();
        for byte in &message {
            h.update(std::slice::from_ref(byte));
        }
        assert_eq!(
            h.finalize().to_hex(),
            expected,
            "{len} bytes, one at a time"
        );
    }
    // FIPS 180-2's 56-byte example.
    assert_eq!(
        sha256::hash(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}

#[test]
fn hmac_and_sealed_envelope_known_answers() {
    // RFC 4231 case 2 (a 4-byte key) and case 7 (a 131-byte key, hashed
    // first, over a message longer than a block).
    assert_eq!(
        hmac::hmac(b"Jefe", b"what do ya want for nothing?").to_hex(),
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    );
    assert_eq!(
        hmac::hmac(
            &[0xaa; 131],
            b"This is a test using a larger than block-size key and a larger than \
              block-size data. The key needs to be hashed before being used by the \
              HMAC algorithm."
        )
        .to_hex(),
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
    );
    // The envelope's nonce derivation and RFC 8439 ChaCha20-Poly1305:
    // every stored record's bytes depend on them. Python `cryptography`
    // seals to the same bytes.
    let sealed = aead::seal(&SecretKey::from_bytes([9; 32]), b"hba1c=6.5", b"patient-42");
    assert_eq!(
        hc_common::hex::encode(&sealed.to_wire()),
        "bb79b6efa096f50c0c7919b5c9701466a5108214a06314a65507fb1d4a814cd9\
         12156d9ebf"
    );
}

/// `scripts/aead_vectors.py`'s output: envelopes built by Python's
/// `hashlib` and `cryptography` (RFC 8439 ChaCha20Poly1305).
#[derive(serde::Deserialize)]
struct AeadVectors {
    key: String,
    cases: Vec<AeadVector>,
}

#[derive(serde::Deserialize)]
struct AeadVector {
    plaintext_len: usize,
    aad_len: usize,
    /// The whole wire, for plaintexts of at most 65 bytes.
    wire: Option<String>,
    /// The wire's SHA-256, for longer plaintexts.
    wire_sha256: Option<String>,
}

#[test]
fn sealed_envelopes_match_the_cross_implementation_vectors() {
    let vectors: AeadVectors = serde_json::from_str(include_str!("aead_vectors.json")).unwrap();
    let key = SecretKey::from_bytes(
        hc_common::hex::decode(&vectors.key)
            .unwrap()
            .try_into()
            .unwrap(),
    );
    assert_eq!(vectors.cases.len(), 40);
    for case in vectors.cases {
        let plaintext: Vec<u8> = (0..case.plaintext_len)
            .map(|i| (31 * i + 7) as u8)
            .collect();
        let aad: Vec<u8> = (0..case.aad_len).map(|i| (17 * i + 3) as u8).collect();
        let what = format!(
            "{}-byte plaintext, {}-byte aad",
            case.plaintext_len, case.aad_len
        );
        let sealed = aead::seal(&key, &plaintext, &aad);
        let wire = sealed.to_wire();
        match (case.wire, case.wire_sha256) {
            (Some(expected), None) => assert_eq!(hc_common::hex::encode(&wire), expected, "{what}"),
            (None, Some(expected)) => assert_eq!(sha256::hash(&wire).to_hex(), expected, "{what}"),
            _ => panic!("{what}: a case holds exactly one of wire and wire_sha256"),
        }
        assert_eq!(
            aead::open(&key, &sealed, &aad).unwrap(),
            plaintext,
            "{what}"
        );
    }
}

/// The bitwise CRC-32/ISO-HDLC definition (reflected polynomial
/// 0xEDB88320), one bit per step.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

#[test]
fn wal_crc32_check_value_and_a_record_recomputed_bitwise() {
    assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    let mut wal = WriteAheadLog::new();
    let payload: Vec<u8> = (0..1001u32).map(|i| (i * 31 % 251) as u8).collect();
    wal.append(0x0123_4567_89ab_cdef, WalOp::Put, &payload);
    // A record is `len u32 ‖ crc u32 ‖ body`, and the crc covers the body.
    let bytes = wal.to_bytes();
    let (header, body) = bytes.split_at(8);
    let stored = u32::from_le_bytes(header[4..].try_into().unwrap());
    assert_eq!(stored, crc32_bitwise(body));
}

#[test]
fn facade_upload_carrying_the_test_signature_is_rejected_at_malware_scan() {
    let platform = HealthCloudPlatform::bootstrap(PlatformConfig::default());
    let device = platform.register_patient_device(PatientId::from_raw(7));
    let mut bundle = demo_bundle("p7", true);
    // The family name repeats the signature's first bytes, so the search
    // passes a near miss before the match in the given name.
    let Resource::Patient(patient) = &mut bundle.entries[0] else {
        panic!("the demo bundle starts with its patient");
    };
    patient.name = Some(HumanName::new(
        "X5O!HC-MALWARE",
        String::from_utf8_lossy(TEST_SIGNATURE),
    ));
    let url = platform.upload(&device, &bundle).unwrap();
    platform.process_ingestion();
    assert!(matches!(
        platform.ingestion_status(url),
        Some(IngestionStatus::Rejected { ref stage, .. }) if stage == "malware-scan"
    ));

    // The detection posted to the malware channel names the signature's
    // first offset in the uploaded bytes, after the near miss.
    let uploaded = bundle.to_bytes();
    let near_miss = uploaded.iter().position(|&b| b == b'X').unwrap();
    let offset = uploaded
        .windows(TEST_SIGNATURE.len())
        .position(|w| w == TEST_SIGNATURE)
        .unwrap();
    assert!(near_miss < offset);
    assert_eq!(offset, 208);
    let provenance = platform.provenance.lock();
    let detections = provenance.ledger().channel_transactions("malware");
    assert_eq!(detections.len(), 1);
    let payload = String::from_utf8_lossy(&detections[0].payload);
    assert!(
        payload.starts_with("scanner=hc-test-signature;") && payload.ends_with(";offset=208"),
        "{payload}"
    );
}
