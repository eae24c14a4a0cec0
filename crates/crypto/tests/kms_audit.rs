//! KMS audit-log ordering across a full key lifecycle.
//!
//! The posture scanner (`hc-posture`) reconstructs grant usage purely
//! from this log, so its event ordering and coverage are load-bearing:
//! every lifecycle transition must append exactly one event, in call
//! order, and denied attempts must be recorded without leaking a `Used`
//! entry.

use hc_common::id::Principal;
use hc_crypto::kms::{KeyManagementSystem, KmsAuditEvent, KmsError};

fn svc(name: &str) -> Principal {
    Principal::Service(name.to_owned())
}

#[test]
fn lifecycle_events_append_in_call_order() {
    let mut rng = hc_common::rng::seeded(7);
    let kms = KeyManagementSystem::new(&mut rng);
    let ingest = svc("ingest");
    let export = svc("export");
    let intruder = svc("intruder");

    let key = kms.create_key(&mut rng, std::slice::from_ref(&ingest));

    // Authorized seal, denied seal, grant, then the grantee's open.
    let sealed = kms.seal(&ingest, key, b"phi-bytes", b"aad").expect("authorized");
    let denied = kms.seal(&intruder, key, b"phi-bytes", b"aad");
    assert!(matches!(denied, Err(KmsError::Unauthorized { .. })));
    kms.grant(key, export.clone()).expect("key exists");
    let opened = kms.open(&export, key, &sealed, b"aad").expect("granted");
    assert_eq!(opened, b"phi-bytes");

    kms.shred(key);

    assert_eq!(
        kms.audit_log(),
        vec![
            KmsAuditEvent::Created(key),
            KmsAuditEvent::Used(key, ingest),
            KmsAuditEvent::Denied(key, intruder),
            KmsAuditEvent::Used(key, export),
            KmsAuditEvent::Shredded(key),
        ],
    );
}

#[test]
fn denied_attempts_never_log_a_use() {
    let mut rng = hc_common::rng::seeded(8);
    let kms = KeyManagementSystem::new(&mut rng);
    let owner = svc("owner");
    let outsider = svc("outsider");
    let key = kms.create_key(&mut rng, std::slice::from_ref(&owner));

    for _ in 0..3 {
        assert!(kms.seal(&outsider, key, b"x", b"aad").is_err());
    }
    let log = kms.audit_log();
    let denials = log
        .iter()
        .filter(|e| matches!(e, KmsAuditEvent::Denied(k, p) if *k == key && *p == outsider))
        .count();
    assert_eq!(denials, 3);
    assert!(
        !log.iter().any(|e| matches!(e, KmsAuditEvent::Used(..))),
        "no use may be recorded for a denied principal"
    );
}

#[test]
fn shred_is_terminal_and_idempotent() {
    let mut rng = hc_common::rng::seeded(9);
    let kms = KeyManagementSystem::new(&mut rng);
    let owner = svc("owner");
    let key = kms.create_key(&mut rng, std::slice::from_ref(&owner));
    let sealed = kms.seal(&owner, key, b"phi", b"aad").expect("live key");

    kms.shred(key);
    assert!(!kms.contains(key));

    // Post-shred use fails as unknown-key — with no Denied event, since
    // there is no grant list left to check against…
    assert!(matches!(
        kms.open(&owner, key, &sealed, b"aad"),
        Err(KmsError::UnknownKey(k)) if k == key
    ));
    // …and a second shred appends nothing (idempotent).
    kms.shred(key);

    let shreds = kms
        .audit_log()
        .iter()
        .filter(|e| matches!(e, KmsAuditEvent::Shredded(k) if *k == key))
        .count();
    assert_eq!(shreds, 1);
    let log = kms.audit_log();
    assert!(matches!(log.last(), Some(KmsAuditEvent::Shredded(_))));
}
