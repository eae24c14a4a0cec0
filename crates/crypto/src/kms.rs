//! Single-tenant key management with envelope encryption and
//! crypto-shredding.
//!
//! §IV-B1: "A key management system is a single-tenant isolated system that
//! is dedicated only to a single customer … the key management service
//! shall be hardware based". And for GDPR right-to-forget: "our system
//! supports encryption-based record deletion".
//!
//! The [`KeyManagementSystem`] models that service: a master key-encryption
//! key (KEK) wraps per-record data-encryption keys (DEKs). Data sealed
//! under a DEK can be *crypto-shredded* by destroying the wrapped DEK —
//! after [`KeyManagementSystem::shred`], the ciphertext is permanently
//! unrecoverable even though the bytes still exist in storage, which is how
//! secure deletion works across backups and replicas.

use std::collections::HashMap;

use parking_lot::RwLock;
use rand::Rng;

use hc_common::id::{KeyId, Principal};

use crate::aead::{self, Sealed, SecretKey};

/// Errors returned by the key management system.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum KmsError {
    /// The requested key does not exist (never created, or shredded).
    UnknownKey(KeyId),
    /// The principal is not authorized for this key.
    Unauthorized {
        /// Who asked.
        principal: Principal,
        /// For which key.
        key: KeyId,
    },
    /// A sealed payload failed authentication during unwrap/open.
    IntegrityFailure,
}

impl std::fmt::Display for KmsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KmsError::UnknownKey(k) => write!(f, "unknown or shredded key {k}"),
            KmsError::Unauthorized { principal, key } => {
                write!(f, "{principal} is not authorized for key {key}")
            }
            KmsError::IntegrityFailure => f.write_str("sealed payload failed authentication"),
        }
    }
}

impl std::error::Error for KmsError {}

struct KeyEntry {
    wrapped: Sealed,
    authorized: Vec<Principal>,
}

/// A single-tenant key management system.
///
/// # Examples
///
/// ```
/// use hc_common::id::Principal;
/// use hc_crypto::kms::KeyManagementSystem;
///
/// let mut rng = hc_common::rng::seeded(5);
/// let kms = KeyManagementSystem::new(&mut rng);
/// let svc = Principal::Service("ingest".into());
/// let key_id = kms.create_key(&mut rng, &[svc.clone()]);
/// let sealed = kms.seal(&svc, key_id, b"record", b"").unwrap();
/// assert_eq!(kms.open(&svc, key_id, &sealed, b"").unwrap(), b"record");
/// kms.shred(key_id);
/// assert!(kms.open(&svc, key_id, &sealed, b"").is_err());
/// ```
pub struct KeyManagementSystem {
    /// The key-encryption key. Each DEK is sealed under it with the
    /// record key's id as the aad.
    master: SecretKey,
    keys: RwLock<HashMap<KeyId, KeyEntry>>,
    audit: RwLock<Vec<KmsAuditEvent>>,
}

/// An audit event emitted by the KMS (feeds the platform audit trail).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum KmsAuditEvent {
    /// A key was created.
    Created(KeyId),
    /// A key was used by a principal (seal or open).
    Used(KeyId, Principal),
    /// A use was denied.
    Denied(KeyId, Principal),
    /// A key was crypto-shredded.
    Shredded(KeyId),
}

impl KeyManagementSystem {
    /// Creates a KMS with a fresh random master key.
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        KeyManagementSystem {
            master: SecretKey::generate(rng),
            keys: RwLock::new(HashMap::new()),
            audit: RwLock::new(Vec::new()),
        }
    }

    /// Creates a new data-encryption key accessible to `authorized`.
    pub fn create_key<R: Rng + ?Sized>(&self, rng: &mut R, authorized: &[Principal]) -> KeyId {
        let key_id = KeyId::random(rng);
        let dek = SecretKey::generate(rng);
        let wrapped = aead::seal(
            &self.master,
            dek.as_bytes(),
            &key_id.as_u128().to_le_bytes(),
        );
        self.keys.write().insert(
            key_id,
            KeyEntry {
                wrapped,
                authorized: authorized.to_vec(),
            },
        );
        self.audit.write().push(KmsAuditEvent::Created(key_id));
        key_id
    }

    /// Runs `use_entry` on `key_id`'s entry once the key exists and
    /// `principal` is authorized for it, and appends the `Used` (on
    /// success) or `Denied` audit entry. An unknown key records nothing.
    fn use_key<T>(
        &self,
        principal: &Principal,
        key_id: KeyId,
        use_entry: impl FnOnce(&KeyEntry) -> Result<T, KmsError>,
    ) -> Result<T, KmsError> {
        let keys = self.keys.read();
        let entry = keys.get(&key_id).ok_or(KmsError::UnknownKey(key_id))?;
        if !entry.authorized.contains(principal) {
            drop(keys);
            self.audit
                .write()
                .push(KmsAuditEvent::Denied(key_id, principal.clone()));
            return Err(KmsError::Unauthorized {
                principal: principal.clone(),
                key: key_id,
            });
        }
        let out = use_entry(entry)?;
        drop(keys);
        self.audit
            .write()
            .push(KmsAuditEvent::Used(key_id, principal.clone()));
        Ok(out)
    }

    fn unwrap_dek(&self, key_id: KeyId, principal: &Principal) -> Result<SecretKey, KmsError> {
        self.use_key(principal, key_id, |entry| {
            let bytes = aead::open(
                &self.master,
                &entry.wrapped,
                &key_id.as_u128().to_le_bytes(),
            )
            .map_err(|_| KmsError::IntegrityFailure)?;
            let arr: [u8; 32] = bytes.try_into().map_err(|_| KmsError::IntegrityFailure)?;
            Ok(SecretKey::from_bytes(arr))
        })
    }

    /// [`open`](Self::open)'s existence and authorization checks and its
    /// `Used`/`Denied` audit entry, without unwrapping the DEK. A key
    /// keeps one DEK for life, so plaintext opened under it before stays
    /// what `open` would return while this succeeds.
    ///
    /// # Errors
    ///
    /// Fails as `open` would before touching the ciphertext: the key is
    /// unknown/shredded or the principal unauthorized.
    pub fn authorize_use(&self, principal: &Principal, key_id: KeyId) -> Result<(), KmsError> {
        self.use_key(principal, key_id, |_| Ok(()))
    }

    /// Seals `plaintext` under the DEK `key_id` on behalf of `principal`.
    ///
    /// # Errors
    ///
    /// Fails if the key is unknown/shredded or the principal unauthorized.
    pub fn seal(
        &self,
        principal: &Principal,
        key_id: KeyId,
        plaintext: &[u8],
        aad: &[u8],
    ) -> Result<Sealed, KmsError> {
        let dek = self.unwrap_dek(key_id, principal)?;
        Ok(aead::seal(&dek, plaintext, aad))
    }

    /// Opens `sealed` under the DEK `key_id` on behalf of `principal`.
    ///
    /// # Errors
    ///
    /// Fails if the key is unknown/shredded, the principal unauthorized, or
    /// the payload fails authentication.
    pub fn open(
        &self,
        principal: &Principal,
        key_id: KeyId,
        sealed: &Sealed,
        aad: &[u8],
    ) -> Result<Vec<u8>, KmsError> {
        let dek = self.unwrap_dek(key_id, principal)?;
        aead::open(&dek, sealed, aad).map_err(|_| KmsError::IntegrityFailure)
    }

    /// Grants `principal` access to `key_id`.
    ///
    /// # Errors
    ///
    /// Fails if the key is unknown.
    pub fn grant(&self, key_id: KeyId, principal: Principal) -> Result<(), KmsError> {
        let mut keys = self.keys.write();
        let entry = keys.get_mut(&key_id).ok_or(KmsError::UnknownKey(key_id))?;
        if !entry.authorized.contains(&principal) {
            entry.authorized.push(principal);
        }
        Ok(())
    }

    /// Crypto-shreds `key_id`: every ciphertext sealed under it becomes
    /// permanently unrecoverable. Idempotent.
    pub fn shred(&self, key_id: KeyId) {
        if self.keys.write().remove(&key_id).is_some() {
            self.audit.write().push(KmsAuditEvent::Shredded(key_id));
        }
    }

    /// Whether a key currently exists.
    pub fn contains(&self, key_id: KeyId) -> bool {
        self.keys.read().contains_key(&key_id)
    }

    /// Snapshot of the audit log.
    pub fn audit_log(&self) -> Vec<KmsAuditEvent> {
        self.audit.read().clone()
    }

    /// Snapshot of the live key table (metadata only — wrapped key material
    /// is never exposed), sorted by key id for deterministic scans. This is
    /// what the posture scanner audits for over-broad grants and liveness.
    pub fn key_table(&self) -> Vec<KeyInfo> {
        let mut table: Vec<KeyInfo> = self
            .keys
            .read()
            .iter()
            .map(|(&id, entry)| KeyInfo {
                id,
                authorized: entry.authorized.clone(),
            })
            .collect();
        table.sort_by_key(|k| k.id);
        table
    }
}

/// Metadata for one live key, as reported by
/// [`KeyManagementSystem::key_table`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KeyInfo {
    /// The key id.
    pub id: KeyId,
    /// Principals authorized to seal/open under the key.
    pub authorized: Vec<Principal>,
}

impl std::fmt::Debug for KeyManagementSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyManagementSystem")
            .field("keys", &self.keys.read().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc(name: &str) -> Principal {
        Principal::Service(name.into())
    }

    #[test]
    fn seal_open_round_trip() {
        let mut rng = hc_common::rng::seeded(1);
        let kms = KeyManagementSystem::new(&mut rng);
        let k = kms.create_key(&mut rng, &[svc("a")]);
        let sealed = kms.seal(&svc("a"), k, b"phi", b"ctx").unwrap();
        assert_eq!(kms.open(&svc("a"), k, &sealed, b"ctx").unwrap(), b"phi");
    }

    #[test]
    fn unauthorized_principal_denied() {
        let mut rng = hc_common::rng::seeded(2);
        let kms = KeyManagementSystem::new(&mut rng);
        let k = kms.create_key(&mut rng, &[svc("a")]);
        let err = kms.seal(&svc("b"), k, b"phi", b"").unwrap_err();
        assert!(matches!(err, KmsError::Unauthorized { .. }));
        assert!(kms
            .audit_log()
            .iter()
            .any(|e| matches!(e, KmsAuditEvent::Denied(..))));
    }

    #[test]
    fn grant_extends_access() {
        let mut rng = hc_common::rng::seeded(3);
        let kms = KeyManagementSystem::new(&mut rng);
        let k = kms.create_key(&mut rng, &[svc("a")]);
        kms.grant(k, svc("b")).unwrap();
        assert!(kms.seal(&svc("b"), k, b"x", b"").is_ok());
    }

    #[test]
    fn shred_makes_data_unrecoverable() {
        let mut rng = hc_common::rng::seeded(4);
        let kms = KeyManagementSystem::new(&mut rng);
        let k = kms.create_key(&mut rng, &[svc("a")]);
        let sealed = kms.seal(&svc("a"), k, b"right-to-forget", b"").unwrap();
        kms.shred(k);
        assert!(!kms.contains(k));
        assert_eq!(
            kms.open(&svc("a"), k, &sealed, b"").unwrap_err(),
            KmsError::UnknownKey(k)
        );
    }

    #[test]
    fn shred_is_idempotent() {
        let mut rng = hc_common::rng::seeded(5);
        let kms = KeyManagementSystem::new(&mut rng);
        let k = kms.create_key(&mut rng, &[svc("a")]);
        kms.shred(k);
        kms.shred(k);
        let shreds = kms
            .audit_log()
            .iter()
            .filter(|e| matches!(e, KmsAuditEvent::Shredded(..)))
            .count();
        assert_eq!(shreds, 1);
    }

    #[test]
    fn authorize_use_checks_and_audits_like_open() {
        let mut rng = hc_common::rng::seeded(9);
        let kms = KeyManagementSystem::new(&mut rng);
        let k = kms.create_key(&mut rng, &[svc("a")]);
        let sealed = kms.seal(&svc("a"), k, b"phi", b"").unwrap();
        let before = kms.audit_log().len();
        assert_eq!(kms.open(&svc("a"), k, &sealed, b"").unwrap(), b"phi");
        assert_eq!(kms.authorize_use(&svc("a"), k), Ok(()));
        assert!(matches!(
            kms.authorize_use(&svc("b"), k),
            Err(KmsError::Unauthorized { .. })
        ));
        assert_eq!(
            kms.audit_log()[before..],
            [
                KmsAuditEvent::Used(k, svc("a")),
                KmsAuditEvent::Used(k, svc("a")),
                KmsAuditEvent::Denied(k, svc("b")),
            ]
        );
        kms.shred(k);
        let after_shred = kms.audit_log().len();
        assert_eq!(
            kms.authorize_use(&svc("a"), k),
            Err(KmsError::UnknownKey(k))
        );
        assert_eq!(
            kms.audit_log().len(),
            after_shred,
            "an unknown key records nothing"
        );
    }

    #[test]
    fn wrapped_keys_and_seals_are_pinned() {
        let mut rng = hc_common::rng::seeded(5);
        let kms = KeyManagementSystem::new(&mut rng);
        let k = kms.create_key(&mut rng, &[svc("ingest")]);
        let wrapped = kms.keys.read()[&k].wrapped.to_wire();
        // Python `cryptography`'s ChaCha20Poly1305, with the same nonce
        // derivation, seals the DEK and the record to these bytes.
        assert_eq!(
            hc_common::hex::encode(&wrapped),
            "17a84f6ef6fa82aa5c7d073ab039bfa20f9f5d67a9af3d77f857c9eb64687737\
             e7a76b235982ec2241d9fb2e37a33a8566246a895862c8f987c31254"
        );
        let sealed = kms.seal(&svc("ingest"), k, b"record", b"at-rest").unwrap();
        assert_eq!(
            hc_common::hex::encode(&sealed.to_wire()),
            "df1e065e9dc7d0f4c2c36991c0e40373805088a735f09062a0b65aca02ad7f0d\
             f208"
        );
    }

    #[test]
    fn unknown_key_errors() {
        let mut rng = hc_common::rng::seeded(7);
        let kms = KeyManagementSystem::new(&mut rng);
        let bogus = KeyId::from_raw(99);
        assert_eq!(
            kms.seal(&svc("a"), bogus, b"", b"").unwrap_err(),
            KmsError::UnknownKey(bogus)
        );
    }

    #[test]
    fn audit_records_usage() {
        let mut rng = hc_common::rng::seeded(8);
        let kms = KeyManagementSystem::new(&mut rng);
        let k = kms.create_key(&mut rng, &[svc("a")]);
        let _ = kms.seal(&svc("a"), k, b"x", b"").unwrap();
        let log = kms.audit_log();
        assert!(log.contains(&KmsAuditEvent::Created(k)));
        assert!(log.contains(&KmsAuditEvent::Used(k, svc("a"))));
    }
}
