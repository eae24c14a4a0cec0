//! Identity providers and HMAC-signed bearer tokens.
//!
//! "The platform supports a federated identity management system, which
//! means that the platform user's identity could be managed and
//! authenticated by an external (approved) system. Once users are
//! authenticated, their roles and access privileges are managed by the
//! platform's RBAC system." (§II-B)

use std::collections::HashMap;

use hc_common::clock::{SimClock, SimDuration, SimInstant};
use hc_common::id::UserId;
use hc_crypto::hmac::HmacKey;
use hc_crypto::sha256::{self, Digest};

/// A bearer token: claims plus an HMAC over their canonical encoding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AuthToken {
    /// The authenticated user.
    pub user: UserId,
    /// Which provider vouched for the identity.
    pub issuer: String,
    /// Issue time.
    pub issued_at: SimInstant,
    /// Expiry time.
    pub expires_at: SimInstant,
    /// HMAC over the claims, keyed by the token service.
    pub tag: Digest,
}

fn token_message(user: UserId, issuer: &str, issued_at: SimInstant, expires_at: SimInstant) -> Vec<u8> {
    let mut msg = Vec::new();
    msg.extend_from_slice(&user.as_u128().to_le_bytes());
    msg.extend_from_slice(issuer.as_bytes());
    msg.push(0);
    msg.extend_from_slice(&issued_at.as_nanos().to_le_bytes());
    msg.extend_from_slice(&expires_at.as_nanos().to_le_bytes());
    msg
}

/// Why authentication or token verification failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AuthError {
    /// Unknown username or wrong secret.
    BadCredentials,
    /// The federated provider is not on the approved list.
    UnapprovedProvider(String),
    /// The token's HMAC does not verify.
    BadToken,
    /// The token has expired.
    Expired,
}

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthError::BadCredentials => f.write_str("invalid credentials"),
            AuthError::UnapprovedProvider(p) => write!(f, "provider `{p}` is not approved"),
            AuthError::BadToken => f.write_str("token failed verification"),
            AuthError::Expired => f.write_str("token expired"),
        }
    }
}

impl std::error::Error for AuthError {}

/// An identity provider: maps credentials to a platform user.
pub trait IdentityProvider {
    /// The provider's name (recorded in tokens as the issuer).
    fn name(&self) -> &str;

    /// Authenticates a `(username, secret)` pair.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError::BadCredentials`] on failure.
    fn authenticate(&self, username: &str, secret: &[u8]) -> Result<UserId, AuthError>;
}

/// The platform's own credential directory (salted-hash verification).
#[derive(Debug, Default)]
pub struct LocalDirectory {
    entries: HashMap<String, (UserId, Digest)>, // username -> (user, H(username||secret))
}

impl LocalDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        LocalDirectory::default()
    }

    /// Enrolls a user with a secret.
    pub fn enroll(&mut self, username: &str, secret: &[u8], user: UserId) {
        let digest = sha256::hash_parts(&[username.as_bytes(), b"\0", secret]);
        self.entries.insert(username.to_owned(), (user, digest));
    }
}

impl IdentityProvider for LocalDirectory {
    fn name(&self) -> &str {
        "local"
    }

    fn authenticate(&self, username: &str, secret: &[u8]) -> Result<UserId, AuthError> {
        let (user, stored) = self
            .entries
            .get(username)
            .ok_or(AuthError::BadCredentials)?;
        let presented = sha256::hash_parts(&[username.as_bytes(), b"\0", secret]);
        if hc_common::hex::constant_time_eq(stored.as_bytes(), presented.as_bytes()) {
            Ok(*user)
        } else {
            Err(AuthError::BadCredentials)
        }
    }
}

/// A federated provider: an external directory the platform trusts by
/// name. Assertions are HMAC-signed by the provider's federation key.
#[derive(Debug)]
pub struct FederatedProvider {
    name: String,
    /// Absorbed once; its `Debug` prints no key material.
    federation_key: HmacKey,
    directory: HashMap<String, UserId>,
}

impl FederatedProvider {
    /// Creates a provider with its federation key.
    pub fn new(name: &str, federation_key: [u8; 32]) -> Self {
        FederatedProvider {
            name: name.to_owned(),
            federation_key: HmacKey::new(&federation_key),
            directory: HashMap::new(),
        }
    }

    /// Registers an external user.
    pub fn register(&mut self, username: &str, user: UserId) {
        self.directory.insert(username.to_owned(), user);
    }

    /// Produces a signed assertion for a user (what the external IdP
    /// would send the platform after its own authentication ceremony).
    pub fn assert_identity(&self, username: &str) -> Option<(UserId, Digest)> {
        let user = *self.directory.get(username)?;
        let tag = self
            .federation_key
            .tag_parts(&[&user.as_u128().to_le_bytes()]);
        Some((user, tag))
    }
}

impl IdentityProvider for FederatedProvider {
    fn name(&self) -> &str {
        &self.name
    }

    fn authenticate(&self, username: &str, assertion_tag: &[u8]) -> Result<UserId, AuthError> {
        let user = *self
            .directory
            .get(username)
            .ok_or(AuthError::BadCredentials)?;
        let expected = self
            .federation_key
            .tag_parts(&[&user.as_u128().to_le_bytes()]);
        if hc_common::hex::constant_time_eq(expected.as_bytes(), assertion_tag) {
            Ok(user)
        } else {
            Err(AuthError::BadCredentials)
        }
    }
}

/// Issues and verifies bearer tokens.
#[derive(Debug)]
pub struct TokenService {
    /// Absorbed once; its `Debug` prints no key material.
    signing_key: HmacKey,
    clock: SimClock,
    ttl: SimDuration,
    approved_providers: Vec<String>,
}

impl TokenService {
    /// Creates a token service with a 1-simulated-hour default TTL.
    pub fn new(signing_key: [u8; 32], clock: SimClock) -> Self {
        TokenService {
            signing_key: HmacKey::new(&signing_key),
            clock,
            ttl: SimDuration::from_secs(3600),
            approved_providers: vec!["local".to_owned()],
        }
    }

    /// Overrides the token TTL.
    #[must_use]
    pub fn with_ttl(mut self, ttl: SimDuration) -> Self {
        self.ttl = ttl;
        self
    }

    /// Approves a federated provider by name.
    pub fn approve_provider(&mut self, name: &str) {
        if !self.approved_providers.iter().any(|p| p == name) {
            self.approved_providers.push(name.to_owned());
        }
    }

    /// Authenticates against `provider` and issues a token.
    ///
    /// # Errors
    ///
    /// Fails on bad credentials or an unapproved provider.
    pub fn login(
        &self,
        provider: &dyn IdentityProvider,
        username: &str,
        secret: &[u8],
    ) -> Result<AuthToken, AuthError> {
        if !self.approved_providers.iter().any(|p| p == provider.name()) {
            return Err(AuthError::UnapprovedProvider(provider.name().to_owned()));
        }
        let user = provider.authenticate(username, secret)?;
        let issued_at = self.clock.now();
        let expires_at = issued_at.saturating_add(self.ttl);
        let tag = self.signing_key.tag_parts(&[&token_message(
            user,
            provider.name(),
            issued_at,
            expires_at,
        )]);
        Ok(AuthToken {
            user,
            issuer: provider.name().to_owned(),
            issued_at,
            expires_at,
            tag,
        })
    }

    /// Verifies a token's integrity and freshness.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError::BadToken`] for forged/tampered tokens and
    /// [`AuthError::Expired`] for stale ones.
    pub fn verify(&self, token: &AuthToken) -> Result<UserId, AuthError> {
        let expected = self.signing_key.tag_parts(&[&token_message(
            token.user,
            &token.issuer,
            token.issued_at,
            token.expires_at,
        )]);
        if !hc_common::hex::constant_time_eq(expected.as_bytes(), token.tag.as_bytes()) {
            return Err(AuthError::BadToken);
        }
        if self.clock.now() >= token.expires_at {
            return Err(AuthError::Expired);
        }
        Ok(token.user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_crypto::hmac;

    fn setup() -> (TokenService, LocalDirectory, UserId) {
        let clock = SimClock::new();
        let svc = TokenService::new([7u8; 32], clock);
        let mut dir = LocalDirectory::new();
        let user = UserId::from_raw(1);
        dir.enroll("alice", b"s3cret", user);
        (svc, dir, user)
    }

    #[test]
    fn login_and_verify() {
        let (svc, dir, user) = setup();
        let token = svc.login(&dir, "alice", b"s3cret").unwrap();
        assert_eq!(svc.verify(&token).unwrap(), user);
    }

    #[test]
    fn wrong_secret_rejected() {
        let (svc, dir, _) = setup();
        assert_eq!(
            svc.login(&dir, "alice", b"wrong").unwrap_err(),
            AuthError::BadCredentials
        );
        assert_eq!(
            svc.login(&dir, "nobody", b"s3cret").unwrap_err(),
            AuthError::BadCredentials
        );
    }

    #[test]
    fn tampered_token_rejected() {
        let (svc, dir, _) = setup();
        let mut token = svc.login(&dir, "alice", b"s3cret").unwrap();
        token.user = UserId::from_raw(999); // privilege escalation attempt
        assert_eq!(svc.verify(&token).unwrap_err(), AuthError::BadToken);
    }

    #[test]
    fn expired_token_rejected() {
        let clock = SimClock::new();
        let svc = TokenService::new([7u8; 32], clock.clone()).with_ttl(SimDuration::from_secs(10));
        let mut dir = LocalDirectory::new();
        dir.enroll("a", b"s", UserId::from_raw(1));
        let token = svc.login(&dir, "a", b"s").unwrap();
        clock.advance(SimDuration::from_secs(11));
        assert_eq!(svc.verify(&token).unwrap_err(), AuthError::Expired);
    }

    #[test]
    fn federated_provider_requires_approval() {
        let (mut svc, _, user) = setup();
        let mut fed = FederatedProvider::new("hospital-idp", [9u8; 32]);
        fed.register("bob@hospital", user);
        let (_, assertion) = fed.assert_identity("bob@hospital").unwrap();
        // Not approved yet.
        assert!(matches!(
            svc.login(&fed, "bob@hospital", assertion.as_bytes()),
            Err(AuthError::UnapprovedProvider(_))
        ));
        svc.approve_provider("hospital-idp");
        let token = svc
            .login(&fed, "bob@hospital", assertion.as_bytes())
            .unwrap();
        assert_eq!(token.issuer, "hospital-idp");
        assert_eq!(svc.verify(&token).unwrap(), user);
    }

    #[test]
    fn forged_federation_assertion_rejected() {
        let (mut svc, _, user) = setup();
        let mut fed = FederatedProvider::new("idp", [9u8; 32]);
        fed.register("bob", user);
        svc.approve_provider("idp");
        let forged = hmac::hmac(&[1u8; 32], &user.as_u128().to_le_bytes());
        assert_eq!(
            svc.login(&fed, "bob", forged.as_bytes()).unwrap_err(),
            AuthError::BadCredentials
        );
    }

    #[test]
    fn debug_output_never_prints_signing_or_federation_keys() {
        let mut key = [0u8; 32];
        for (byte, value) in key.iter_mut().zip(0xa0u8..) {
            *byte = value;
        }
        let printed = [
            format!("{:?}", TokenService::new(key, SimClock::new())),
            format!("{:?}", FederatedProvider::new("idp", key)),
        ];
        for debug in printed {
            for key_text in [
                format!("{key:?}"),
                format!("{key:x?}"),
                hc_common::hex::encode(&key),
            ] {
                assert!(!debug.contains(&key_text), "{debug}");
            }
            // Not even a run of the key's first bytes.
            assert!(!debug.contains("160, 161, 162"), "{debug}");
        }
    }

    #[test]
    fn tokens_from_other_service_rejected() {
        let (svc_a, dir, _) = setup();
        let svc_b = TokenService::new([8u8; 32], SimClock::new());
        let token = svc_a.login(&dir, "alice", b"s3cret").unwrap();
        assert_eq!(svc_b.verify(&token).unwrap_err(), AuthError::BadToken);
    }
}
