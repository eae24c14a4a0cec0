//! The posture rule catalogue: stable ids, severities, and help text.
//!
//! Rule ids are stable API — they appear in baselines, suppression
//! configs, and CI output — and reuse the [`hc_lint::diag::Rule`] shape so
//! the two analysers share one catalogue/report vocabulary.

use hc_lint::diag::{Rule, Severity};

/// Admin-class principal holds plaintext PHI permissions in production.
pub const ADMIN_ON_PHI_PATH: &str = "posture-admin-on-phi-path";
/// A role's granted permissions exceed observed/declared use.
pub const ROLE_UNUSED_GRANT: &str = "posture-role-unused-grant";
/// KMS key authorized to principals that never use it.
pub const KMS_BROAD_GRANT: &str = "posture-kms-broad-grant";
/// PHI-serving workload admitted without attestation.
pub const UNATTESTED_WORKLOAD: &str = "posture-unattested-workload";
/// PHI-serving workload's image diverges from (or is missing) its golden
/// measurement.
pub const GOLDEN_DIVERGENCE: &str = "posture-golden-divergence";
/// PHI-serving workload whose quote chain was never verified.
pub const QUOTE_UNVERIFIED: &str = "posture-quote-unverified";
/// Identified PHI record stored without envelope encryption.
pub const PLAINTEXT_PHI: &str = "posture-plaintext-phi";
/// Live record references a shredded or unknown KMS key.
pub const SHREDDED_KEY_REF: &str = "posture-shredded-key-ref";
/// Identified record whose patient never consented to the study.
pub const CONSENT_GAP: &str = "posture-consent-gap";
/// Revoked consent whose record/key was never crypto-shredded.
pub const REVOKED_UNSHREDDED: &str = "posture-revoked-unshredded";

/// The full posture rule catalogue, in stable order: four families
/// (`privilege`, `attest`, `encrypt`, `consent`) mirroring the paper's
/// trust pillars.
pub const POSTURE_RULES: &[Rule] = &[
    Rule {
        id: ADMIN_ON_PHI_PATH,
        family: "privilege",
        severity: Severity::Error,
        description: "Admin-class principal holds plaintext PHI read/write in a production environment",
        help: "A principal whose roles convey any Admin action *and* PatientData \
               Read/Write in a production environment combines infrastructure control \
               with plaintext PHI access — the exact blast radius the paper's \
               least-privilege split is meant to prevent. Administration of patient-data \
               resources (retention, crypto-shredding) needs PatientData:Admin, never \
               Read/Write. Fix: split the duties into two principals, or drop the PHI \
               grants from the admin-class role.",
    },
    Rule {
        id: ROLE_UNUSED_GRANT,
        family: "privilege",
        severity: Severity::Warning,
        description: "Role grants permissions never observed in gateway use nor declared by a runbook",
        help: "Every permission a production-assigned role grants must be either \
               observed at the API gateway (an allowed decision exercised the \
               permission) or declared in the scan config's declared-use manifest with \
               a justification. Grants that are neither are dormant privilege an \
               attacker inherits for free. Fix: shrink the role, exercise the flow, or \
               declare the use with a justification.",
    },
    Rule {
        id: KMS_BROAD_GRANT,
        family: "privilege",
        severity: Severity::Warning,
        description: "KMS key authorized to principals that never used it",
        help: "An active key (one with at least one recorded use) lists authorized \
               principals that never sealed or opened under it. Key grants are the \
               platform's last line of defence around PHI ciphertext; unused grants \
               widen the compromise surface silently. Fix: revoke the grant, or \
               suppress with a justification naming the break-glass procedure that \
               needs it.",
    },
    Rule {
        id: UNATTESTED_WORKLOAD,
        family: "attest",
        severity: Severity::Error,
        description: "PHI-serving container admitted without a passing attestation verdict",
        help: "A container whose image serves PHI is running with `attested = false` — \
               it was admitted although no attestation verdict vouched for its stack. \
               The paper's trust chain (hardware TPM → vTPM → container) exists \
               precisely so PHI never lands on unverified compute. Fix: redeploy \
               through the attested path, or move the workload off PHI-serving images.",
    },
    Rule {
        id: GOLDEN_DIVERGENCE,
        family: "attest",
        severity: Severity::Error,
        description: "PHI-serving workload's image measurement missing from or diverging from the golden registry",
        help: "The image a PHI-serving container runs either has no golden measurement \
               registered (nothing to attest against) or its signed content digest \
               differs from the registered golden value (the approved build and the \
               attestation expectation disagree). Either way the attestation verdict \
               is meaningless for this workload. Fix: register the approved build's \
               measurement through change management, or roll the image back.",
    },
    Rule {
        id: QUOTE_UNVERIFIED,
        family: "attest",
        severity: Severity::Error,
        description: "PHI-serving workload marked attested but no quote verification was recorded for it",
        help: "The container carries `attested = true` yet the attestation service \
               holds no verdict for its subject (`vm-<id>/<image>`), or the latest \
               verdict is untrusted. An admission flag without a verifiable quote \
               chain behind it is trust by assertion. Fix: verify the workload's \
               chained quote via `verify_chained_quote_for` before deployment.",
    },
    Rule {
        id: PLAINTEXT_PHI,
        family: "encrypt",
        severity: Severity::Error,
        description: "Identified PHI record stored without envelope encryption metadata",
        help: "A live record that maps to a patient identity lacks the \
               `enc=envelope-v2` tag the ingestion pipeline stamps on every sealed \
               version — the bytes at rest are not provably envelope-encrypted. Fix: \
               re-ingest through the pipeline, or re-seal and tag the version; direct \
               `DataLake::put` of identified data is never compliant.",
    },
    Rule {
        id: SHREDDED_KEY_REF,
        family: "encrypt",
        severity: Severity::Error,
        description: "Live record or export-cache entry references a shredded or unknown KMS key",
        help: "The record's `dek` tag names a key absent from the live KMS table: \
               either the key was shredded while the ciphertext lives on (the \
               two-phase forget flow was bypassed) or the tag references a key this \
               KMS never issued. The ciphertext is permanently unreadable yet still \
               retained — a retention-policy violation and an audit red flag. Fix: \
               purge the record, or restore the ingest/forget pairing. On an \
               `export-cache` subject, the export read cache still holds the record \
               opened (plaintext) although its key is gone or the record is \
               tombstoned or purged; the next read drops the entry, and \
               `forget_patient` drops it at once.",
    },
    Rule {
        id: CONSENT_GAP,
        family: "consent",
        severity: Severity::Error,
        description: "Identified record stored with no consent grant or history for its patient",
        help: "RBAC permits analytics/export flows over the study's records, but this \
               record's patient has no active consent grant *and no consent event \
               history at all* for the study group — the data entered the lake \
               without ever passing the consent service. Fix: obtain and record \
               consent, or purge the record; backfilled data must replay consent \
               provenance.",
    },
    Rule {
        id: REVOKED_UNSHREDDED,
        family: "consent",
        severity: Severity::Error,
        description: "Consent revoked but the patient's records/keys were never crypto-shredded",
        help: "The patient's latest consent event for the study is a revocation, yet \
               identified records remain live with live DEKs. GDPR-style \
               right-to-forget on this platform is crypto-shredding \
               (`forget_patient`): tombstone + purge the records and shred their \
               keys. A revocation that changes nothing at rest is a compliance gap. \
               Fix: run the forget flow for the patient.",
    },
];

/// Looks a posture rule up by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    POSTURE_RULES.iter().find(|r| r.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_unique_prefixed_and_resolvable() {
        for (i, r) in POSTURE_RULES.iter().enumerate() {
            assert!(r.id.starts_with("posture-"), "{} lacks posture- prefix", r.id);
            assert!(
                POSTURE_RULES.iter().skip(i + 1).all(|o| o.id != r.id),
                "duplicate id {}",
                r.id
            );
            assert!(rule_by_id(r.id).is_some());
        }
        assert!(rule_by_id("posture-no-such-rule").is_none());
    }

    #[test]
    fn four_families_covered() {
        let mut families: Vec<&str> = POSTURE_RULES.iter().map(|r| r.family).collect();
        families.sort_unstable();
        families.dedup();
        assert_eq!(families, vec!["attest", "consent", "encrypt", "privilege"]);
    }
}
