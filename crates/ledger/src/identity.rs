//! Blockchain-based self-sovereign identity (§IV-B1).
//!
//! "Identity management of healthcare providers, system administrators
//! and patients are managed with blockchain using self-sovereign identity
//! and privacy-preserving identity-mixer technology."
//!
//! * **Self-sovereign identity:** each [`Holder`] generates its own
//!   keypair; its DID is the hash of its initial public key. Lifecycle
//!   events (register / rotate / revoke) are holder-signed transactions
//!   on a dedicated `identity` channel; [`DidRegistry::resolve`] replays
//!   the chain, so no central database owns identities.
//! * **Identity-mixer (simulated):** holders derive *unlinkable
//!   per-context pseudonyms* from their master secret. The platform's
//!   [`IdentityMixer`] issues a credential binding a pseudonym to a
//!   context after one DID-authenticated issuance; *presentations* carry
//!   only the pseudonym + credential, so two verifiers (or two contexts)
//!   cannot link them to each other or to the DID. This reproduces the
//!   linkability *interface* of Idemix-style anonymous credentials; the
//!   zero-knowledge machinery itself is out of scope and documented as a
//!   substitution in DESIGN.md.

use hc_common::id::TxId;
use hc_crypto::hmac;
use hc_crypto::ots::{self, MerklePublicKey, MerkleSignature, MerkleSigner};
use hc_crypto::sha256::{self, Digest};
use serde::{Deserialize, Serialize};

use crate::block::Transaction;
use crate::chain::{Ledger, LedgerError};
use crate::policy::ChainPolicy;

/// A decentralized identifier: hash of the holder's genesis public key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Did(pub Digest);

impl std::fmt::Display for Did {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "did:hc:{}", &self.0.to_hex()[..24])
    }
}

/// The resolvable state of a DID.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DidDocument {
    /// The identifier.
    pub did: Did,
    /// The currently active key.
    pub key: MerklePublicKey,
    /// Key version (1 = genesis).
    pub version: u32,
    /// Whether the identity has been revoked.
    pub revoked: bool,
}

/// A self-sovereign identity holder (wallet side).
pub struct Holder {
    master_secret: [u8; 32],
    signer: MerkleSigner,
    did: Did,
    version: u32,
}

impl std::fmt::Debug for Holder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Holder").field("did", &self.did).finish()
    }
}

/// An unlinkable per-context pseudonym.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Pseudonym(pub Digest);

fn did_event_payload(did: &Did, key: &MerklePublicKey, version: u32) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(did.0.as_bytes());
    out.extend_from_slice(key.0.as_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    out
}

impl Holder {
    /// Generates a fresh identity.
    pub fn generate<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        let mut master_secret = [0u8; 32];
        rng.fill(&mut master_secret);
        let signer = MerkleSigner::generate(rng, 4);
        let did = Did(sha256::hash(signer.public_key().0.as_bytes()));
        Holder {
            master_secret,
            signer,
            did,
            version: 1,
        }
    }

    /// The holder's DID.
    pub fn did(&self) -> Did {
        self.did
    }

    /// The active public key.
    pub fn public_key(&self) -> MerklePublicKey {
        self.signer.public_key()
    }

    /// Signs an arbitrary message with the active key.
    ///
    /// # Errors
    ///
    /// Fails when the one-time key pool is exhausted (rotate first).
    pub fn sign(&mut self, message: &[u8]) -> Result<MerkleSignature, ots::KeysExhausted> {
        self.signer.sign(message)
    }

    /// Derives the unlinkable pseudonym for `context`.
    ///
    /// Deterministic per (holder, context); infeasible to correlate
    /// across contexts without the master secret.
    pub fn pseudonym(&self, context: &str) -> Pseudonym {
        Pseudonym(hmac::hmac(&self.master_secret, context.as_bytes()))
    }

    /// Rotates to a fresh key, returning the rotation statement signed by
    /// the *old* key (proving continuity).
    ///
    /// # Errors
    ///
    /// Fails if the old key is exhausted (then the DID is unrecoverable —
    /// exactly like losing a real SSI wallet).
    pub fn rotate<R: rand::Rng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> Result<(MerklePublicKey, MerkleSignature), ots::KeysExhausted> {
        let new_signer = MerkleSigner::generate(rng, 4);
        let new_key = new_signer.public_key();
        let statement = did_event_payload(&self.did, &new_key, self.version + 1);
        let signature = self.signer.sign(&statement)?;
        self.signer = new_signer;
        self.version += 1;
        Ok((new_key, signature))
    }
}

/// Channel policy for the identity network.
#[derive(Debug, Default)]
pub struct IdentityPolicy;

impl ChainPolicy for IdentityPolicy {
    fn name(&self) -> &str {
        "identity-policy"
    }

    fn channel(&self) -> &str {
        "identity"
    }

    fn validate(&self, tx: &Transaction) -> Result<(), String> {
        if !["did-registered", "did-rotated", "did-revoked"].contains(&tx.kind.as_str()) {
            return Err(format!("unknown identity kind `{}`", tx.kind));
        }
        if tx.payload.len() < 68 {
            return Err("identity event payload too short".to_owned());
        }
        Ok(())
    }
}

/// Errors from the DID registry.
#[derive(Debug)]
pub enum DidError {
    /// The DID is already registered.
    AlreadyRegistered(Did),
    /// The DID is unknown.
    Unknown(Did),
    /// The DID was revoked.
    Revoked(Did),
    /// A signature failed verification.
    BadSignature,
    /// The underlying ledger rejected the transaction.
    Ledger(LedgerError),
}

impl std::fmt::Display for DidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DidError::AlreadyRegistered(d) => write!(f, "{d} already registered"),
            DidError::Unknown(d) => write!(f, "unknown {d}"),
            DidError::Revoked(d) => write!(f, "{d} is revoked"),
            DidError::BadSignature => f.write_str("signature verification failed"),
            DidError::Ledger(e) => write!(f, "ledger error: {e}"),
        }
    }
}

impl std::error::Error for DidError {}

impl From<LedgerError> for DidError {
    fn from(e: LedgerError) -> Self {
        DidError::Ledger(e)
    }
}

#[derive(Clone, Serialize, Deserialize)]
struct IdentityEvent {
    did: Did,
    key: MerklePublicKey,
    version: u32,
    signature: MerkleSignature,
}

/// The on-chain DID registry (the identity blockchain network).
pub struct DidRegistry {
    ledger: Ledger,
    next_tx: u128,
}

impl std::fmt::Debug for DidRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DidRegistry")
            .field("height", &self.ledger.height())
            .finish()
    }
}

impl DidRegistry {
    /// Wraps a ledger as the identity network (installs the policy).
    /// Lifecycle events are stamped on the ledger's consensus clock.
    pub fn new(mut ledger: Ledger) -> Self {
        ledger.install_policy(Box::new(IdentityPolicy));
        DidRegistry { ledger, next_tx: 0 }
    }

    fn submit(&mut self, kind: &str, event: &IdentityEvent) -> Result<(), DidError> {
        self.next_tx += 1;
        let tx = Transaction {
            id: TxId::from_raw(self.next_tx),
            channel: "identity".into(),
            kind: kind.into(),
            payload: serde_json::to_vec(event)
                .map_err(|e| DidError::Ledger(LedgerError::Encoding(e.to_string())))?,
            submitter: event.did.to_string(),
            timestamp: self.ledger.cluster().clock().now(),
        };
        self.ledger.submit(vec![tx])?;
        Ok(())
    }

    /// Registers a holder's DID (genesis key, self-signed).
    ///
    /// # Errors
    ///
    /// Fails on duplicates, bad signatures or consensus failure.
    pub fn register(&mut self, holder: &mut Holder) -> Result<(), DidError> {
        if self.resolve(holder.did()).is_some() {
            return Err(DidError::AlreadyRegistered(holder.did()));
        }
        let did = holder.did();
        let key = holder.public_key();
        let statement = did_event_payload(&did, &key, 1);
        let signature = holder.sign(&statement).map_err(|_| DidError::BadSignature)?;
        if !ots::verify_merkle(&key, &statement, &signature) {
            return Err(DidError::BadSignature);
        }
        // Genesis binding: the DID must actually hash the genesis key.
        if Did(sha256::hash(key.0.as_bytes())) != did {
            return Err(DidError::BadSignature);
        }
        self.submit(
            "did-registered",
            &IdentityEvent {
                did,
                key,
                version: 1,
                signature,
            },
        )
    }

    /// Anchors a key rotation signed by the previous key.
    ///
    /// # Errors
    ///
    /// Fails if the DID is unknown/revoked or the continuity signature
    /// does not verify against the currently registered key.
    pub fn rotate(
        &mut self,
        did: Did,
        new_key: MerklePublicKey,
        signature: MerkleSignature,
    ) -> Result<(), DidError> {
        let doc = self.resolve(did).ok_or(DidError::Unknown(did))?;
        if doc.revoked {
            return Err(DidError::Revoked(did));
        }
        let statement = did_event_payload(&did, &new_key, doc.version + 1);
        if !ots::verify_merkle(&doc.key, &statement, &signature) {
            return Err(DidError::BadSignature);
        }
        self.submit(
            "did-rotated",
            &IdentityEvent {
                did,
                key: new_key,
                version: doc.version + 1,
                signature,
            },
        )
    }

    /// Revokes a DID (signed by its current key).
    ///
    /// # Errors
    ///
    /// Fails if unknown, already revoked, or the signature is invalid.
    pub fn revoke(&mut self, holder: &mut Holder) -> Result<(), DidError> {
        let did = holder.did();
        let doc = self.resolve(did).ok_or(DidError::Unknown(did))?;
        if doc.revoked {
            return Err(DidError::Revoked(did));
        }
        let statement = did_event_payload(&did, &doc.key, u32::MAX);
        let signature = holder.sign(&statement).map_err(|_| DidError::BadSignature)?;
        if !ots::verify_merkle(&doc.key, &statement, &signature) {
            return Err(DidError::BadSignature);
        }
        self.submit(
            "did-revoked",
            &IdentityEvent {
                did,
                key: doc.key,
                version: doc.version,
                signature,
            },
        )
    }

    /// Resolves a DID by replaying the identity channel.
    pub fn resolve(&self, did: Did) -> Option<DidDocument> {
        let mut doc: Option<DidDocument> = None;
        for tx in self.ledger.channel_transactions("identity") {
            let Ok(event) = serde_json::from_slice::<IdentityEvent>(&tx.payload) else {
                continue;
            };
            if event.did != did {
                continue;
            }
            match tx.kind.as_str() {
                "did-registered" => {
                    doc = Some(DidDocument {
                        did,
                        key: event.key,
                        version: 1,
                        revoked: false,
                    })
                }
                "did-rotated" => {
                    if let Some(d) = &mut doc {
                        d.key = event.key;
                        d.version = event.version;
                    }
                }
                "did-revoked" => {
                    if let Some(d) = &mut doc {
                        d.revoked = true;
                    }
                }
                _ => {}
            }
        }
        doc
    }

    /// The underlying ledger (for audit).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }
}

/// A per-context credential binding a pseudonym to a context.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Credential {
    /// The pseudonym it vouches for.
    pub pseudonym: Pseudonym,
    /// The context it is valid in.
    pub context: String,
    /// Issuer MAC over (pseudonym ‖ context).
    pub tag: Digest,
}

/// The identity-mixer issuer (platform service).
///
/// Issuance authenticates the holder's DID once; presentations to
/// verifiers carry only `(pseudonym, credential)` and are unlinkable
/// across contexts.
pub struct IdentityMixer {
    issuer_secret: [u8; 32],
}

impl std::fmt::Debug for IdentityMixer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("IdentityMixer(..)")
    }
}

impl IdentityMixer {
    /// Creates an issuer with a fresh secret.
    pub fn new<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        let mut issuer_secret = [0u8; 32];
        rng.fill(&mut issuer_secret);
        IdentityMixer { issuer_secret }
    }

    fn tag(&self, pseudonym: &Pseudonym, context: &str) -> Digest {
        hmac::hmac_parts(
            &self.issuer_secret,
            &[pseudonym.0.as_bytes(), b"\0", context.as_bytes()],
        )
    }

    /// Issues a credential for `context` to a DID-authenticated holder.
    ///
    /// The holder proves control of its registered key by signing the
    /// issuance request; the issuer never learns which *other* contexts
    /// the holder participates in.
    ///
    /// # Errors
    ///
    /// Fails for unregistered/revoked DIDs or bad proofs.
    pub fn issue(
        &self,
        registry: &DidRegistry,
        holder: &mut Holder,
        context: &str,
    ) -> Result<Credential, DidError> {
        let doc = registry
            .resolve(holder.did())
            .ok_or(DidError::Unknown(holder.did()))?;
        if doc.revoked {
            return Err(DidError::Revoked(holder.did()));
        }
        let pseudonym = holder.pseudonym(context);
        let mut request = Vec::new();
        request.extend_from_slice(pseudonym.0.as_bytes());
        request.extend_from_slice(context.as_bytes());
        let proof = holder.sign(&request).map_err(|_| DidError::BadSignature)?;
        if !ots::verify_merkle(&doc.key, &request, &proof) {
            return Err(DidError::BadSignature);
        }
        Ok(Credential {
            pseudonym,
            context: context.to_owned(),
            tag: self.tag(&pseudonym, context),
        })
    }

    /// Verifies a presentation: `(pseudonym, credential)` in a context.
    /// No DID is involved — presentations are unlinkable.
    pub fn verify(&self, credential: &Credential, context: &str) -> bool {
        credential.context == context
            && hc_common::hex::constant_time_eq(
                self.tag(&credential.pseudonym, context).as_bytes(),
                credential.tag.as_bytes(),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::PipelinedCluster;
    use hc_common::clock::SimClock;

    fn registry() -> DidRegistry {
        let cluster = PipelinedCluster::new(4, 1, SimClock::new()).unwrap();
        DidRegistry::new(Ledger::new(cluster))
    }

    #[test]
    fn register_and_resolve() {
        let mut rng = hc_common::rng::seeded(50);
        let mut registry = registry();
        let mut holder = Holder::generate(&mut rng);
        registry.register(&mut holder).unwrap();
        let doc = registry.resolve(holder.did()).unwrap();
        assert_eq!(doc.key, holder.public_key());
        assert_eq!(doc.version, 1);
        assert!(!doc.revoked);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut rng = hc_common::rng::seeded(51);
        let mut registry = registry();
        let mut holder = Holder::generate(&mut rng);
        registry.register(&mut holder).unwrap();
        assert!(matches!(
            registry.register(&mut holder),
            Err(DidError::AlreadyRegistered(_))
        ));
    }

    #[test]
    fn rotation_continuity_enforced() {
        let mut rng = hc_common::rng::seeded(52);
        let mut registry = registry();
        let mut holder = Holder::generate(&mut rng);
        registry.register(&mut holder).unwrap();
        let (new_key, signature) = holder.rotate(&mut rng).unwrap();
        registry.rotate(holder.did(), new_key, signature).unwrap();
        let doc = registry.resolve(holder.did()).unwrap();
        assert_eq!(doc.version, 2);
        assert_eq!(doc.key, new_key);

        // A hijacker cannot rotate without the old key.
        let mut attacker = Holder::generate(&mut rng);
        let fake_key = attacker.public_key();
        let statement = did_event_payload(&holder.did(), &fake_key, 3);
        let forged = attacker.sign(&statement).unwrap();
        assert!(matches!(
            registry.rotate(holder.did(), fake_key, forged),
            Err(DidError::BadSignature)
        ));
    }

    #[test]
    fn revocation_sticks() {
        let mut rng = hc_common::rng::seeded(53);
        let mut registry = registry();
        let mut holder = Holder::generate(&mut rng);
        registry.register(&mut holder).unwrap();
        registry.revoke(&mut holder).unwrap();
        assert!(registry.resolve(holder.did()).unwrap().revoked);
        assert!(matches!(
            registry.revoke(&mut holder),
            Err(DidError::Revoked(_))
        ));
    }

    #[test]
    fn pseudonyms_unlinkable_across_contexts() {
        let mut rng = hc_common::rng::seeded(54);
        let holder = Holder::generate(&mut rng);
        let p1 = holder.pseudonym("hospital-a");
        let p2 = holder.pseudonym("insurer-b");
        assert_ne!(p1, p2);
        // And distinct holders never collide in a context.
        let other = Holder::generate(&mut rng);
        assert_ne!(p1, other.pseudonym("hospital-a"));
        // Deterministic per (holder, context).
        assert_eq!(p1, holder.pseudonym("hospital-a"));
    }

    #[test]
    fn mixer_issues_and_verifies_unlinkably() {
        let mut rng = hc_common::rng::seeded(55);
        let mut registry = registry();
        let mut holder = Holder::generate(&mut rng);
        registry.register(&mut holder).unwrap();
        let mixer = IdentityMixer::new(&mut rng);

        let cred_a = mixer.issue(&registry, &mut holder, "hospital-a").unwrap();
        let cred_b = mixer.issue(&registry, &mut holder, "insurer-b").unwrap();
        assert!(mixer.verify(&cred_a, "hospital-a"));
        assert!(mixer.verify(&cred_b, "insurer-b"));
        // Credentials do not transfer across contexts.
        assert!(!mixer.verify(&cred_a, "insurer-b"));
        // Nothing in the two presentations matches.
        assert_ne!(cred_a.pseudonym, cred_b.pseudonym);
        assert_ne!(cred_a.tag, cred_b.tag);
    }

    #[test]
    fn revoked_holder_cannot_obtain_credentials() {
        let mut rng = hc_common::rng::seeded(56);
        let mut registry = registry();
        let mut holder = Holder::generate(&mut rng);
        registry.register(&mut holder).unwrap();
        registry.revoke(&mut holder).unwrap();
        let mixer = IdentityMixer::new(&mut rng);
        assert!(matches!(
            mixer.issue(&registry, &mut holder, "ctx"),
            Err(DidError::Revoked(_))
        ));
    }

    #[test]
    fn forged_credential_rejected() {
        let mut rng = hc_common::rng::seeded(57);
        let mixer = IdentityMixer::new(&mut rng);
        let holder = Holder::generate(&mut rng);
        let forged = Credential {
            pseudonym: holder.pseudonym("ctx"),
            context: "ctx".into(),
            tag: sha256::hash(b"guess"),
        };
        assert!(!mixer.verify(&forged, "ctx"));
    }

    #[test]
    fn identity_events_are_consensus_committed() {
        let mut rng = hc_common::rng::seeded(58);
        let mut registry = registry();
        let mut holder = Holder::generate(&mut rng);
        registry.register(&mut holder).unwrap();
        assert_eq!(registry.ledger().height(), 1);
        assert_eq!(
            registry.ledger().channel_transactions("identity").len(),
            1
        );
        assert_eq!(
            registry.ledger().verify_chain(),
            crate::chain::ChainStatus::Valid
        );
    }
}
