//! The posture rule engine: evaluates [`crate::rules::POSTURE_RULES`]
//! over a [`PlatformSnapshot`] under a [`ScanConfig`].
//!
//! The scan itself is pure — snapshot in, findings out — so it is
//! trivially testable and can never interleave with platform mutation.
//! Findings reuse [`hc_lint::diag::Finding`]: the `file` slot carries the
//! `deployment://` subject path and `snippet` carries a stable violation
//! key, so the shared fingerprint (`rule|subject|key`) survives re-scans
//! of an evolving deployment exactly like source fingerprints survive
//! line churn.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use hc_lint::diag::{Finding, Severity};
use hc_telemetry::Registry;

use crate::rules;
use crate::snapshot::PlatformSnapshot;

/// A declared (runbook-justified) permission use, exempting one
/// `(role, permission)` pair from `posture-role-unused-grant` when the
/// gateway has not observed it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeclaredUse {
    /// The role name.
    pub role: String,
    /// The permission as a `Kind:Action` string, e.g. `Key:Admin`.
    pub permission: String,
    /// Why the grant is needed despite no observed use. Must be
    /// non-empty.
    pub justification: String,
}

/// A suppression: accepts every finding of `rule` on `subject` with a
/// recorded justification. The posture analogue of `hc-lint`'s inline
/// `allow` comments — deployments have no source line to annotate, so
/// suppressions live in the scan config instead.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Suppression {
    /// The rule id, e.g. `posture-kms-broad-grant`.
    pub rule: String,
    /// The exact `deployment://` subject path to suppress on.
    pub subject: String,
    /// Why the finding is accepted. Must be non-empty.
    pub justification: String,
}

/// Scan configuration: the declared-use manifest and suppression list.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ScanConfig {
    /// Runbook-declared permission uses.
    pub declared_use: Vec<DeclaredUse>,
    /// Justified suppressions.
    pub suppressions: Vec<Suppression>,
}

impl ScanConfig {
    /// Parses a config from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error message for malformed input.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Serialises to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| "{}".to_string())
    }

    /// Validates the config: every declared use and suppression must name
    /// a known rule (suppressions), carry a non-empty justification, and
    /// declared permissions must look like `Kind:Action`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid entry.
    pub fn validate(&self) -> Result<(), String> {
        for d in &self.declared_use {
            if d.justification.trim().is_empty() {
                return Err(format!(
                    "declared use of {} by role `{}` has an empty justification",
                    d.permission, d.role
                ));
            }
            if !d.permission.contains(':') {
                return Err(format!(
                    "declared permission `{}` is not a Kind:Action string",
                    d.permission
                ));
            }
        }
        for s in &self.suppressions {
            if rules::rule_by_id(&s.rule).is_none() {
                return Err(format!("suppression names unknown rule `{}`", s.rule));
            }
            if s.justification.trim().is_empty() {
                return Err(format!(
                    "suppression of {} on {} has an empty justification",
                    s.rule, s.subject
                ));
            }
        }
        Ok(())
    }
}

/// The result of one posture scan.
#[derive(Clone, Debug, Default)]
pub struct ScanOutcome {
    /// Findings that survived suppression, in rule-catalogue order.
    pub findings: Vec<Finding>,
    /// Findings absorbed by config suppressions.
    pub suppressed: usize,
    /// Entities walked (workloads + roles + assignments + keys +
    /// records).
    pub entities_scanned: usize,
}

fn finding(rule_id: &str, subject: &str, key: String, message: String) -> Finding {
    let severity = rules::rule_by_id(rule_id)
        .map(|r| r.severity)
        .unwrap_or(Severity::Error);
    Finding {
        rule: rule_id.to_owned(),
        severity,
        file: subject.to_owned(),
        line: 0,
        col: 0,
        message,
        snippet: key,
    }
}

fn is_admin_perm(perm: &str) -> bool {
    perm.ends_with(":Admin")
}

const PHI_READ: &str = "PatientData:Read";
const PHI_WRITE: &str = "PatientData:Write";

/// Runs every posture rule over `snapshot` under `config`.
///
/// # Errors
///
/// Fails when the config is invalid (see [`ScanConfig::validate`]); an
/// unjustified suppression must never silently eat findings.
pub fn scan(snapshot: &PlatformSnapshot, config: &ScanConfig) -> Result<ScanOutcome, String> {
    config.validate()?;

    let mut findings: Vec<Finding> = Vec::new();

    // --- privilege ---------------------------------------------------

    // posture-admin-on-phi-path: a production principal combining any
    // Admin action with plaintext PHI read/write.
    for a in &snapshot.assignments {
        let has_admin = a.permissions.iter().any(|p| is_admin_perm(p));
        let phi: Vec<&str> = [PHI_READ, PHI_WRITE]
            .into_iter()
            .filter(|p| a.permissions.contains(*p))
            .collect();
        if has_admin && !phi.is_empty() {
            findings.push(finding(
                rules::ADMIN_ON_PHI_PATH,
                &format!("deployment://rbac/user/{}", a.username),
                format!("roles={}", a.roles.join("+")),
                format!(
                    "production user `{}` holds admin-class permissions alongside plaintext PHI access ({}) via roles {}",
                    a.username,
                    phi.join(", "),
                    a.roles.join(", "),
                ),
            ));
        }
    }

    // posture-role-unused-grant: granted but neither observed at the
    // gateway nor declared in the runbook manifest.
    let declared: BTreeSet<(&str, &str)> = config
        .declared_use
        .iter()
        .map(|d| (d.role.as_str(), d.permission.as_str()))
        .collect();
    let empty = BTreeSet::new();
    for role in &snapshot.prod_assigned_roles {
        let Some(perms) = snapshot.roles.get(role) else {
            continue;
        };
        let observed = snapshot.observed_use.get(role).unwrap_or(&empty);
        for perm in perms {
            if observed.contains(perm) || declared.contains(&(role.as_str(), perm.as_str())) {
                continue;
            }
            findings.push(finding(
                rules::ROLE_UNUSED_GRANT,
                &format!("deployment://rbac/role/{role}"),
                perm.clone(),
                format!(
                    "role `{role}` grants {perm} but no gateway decision ever exercised it and no runbook declares the need"
                ),
            ));
        }
    }

    // posture-kms-broad-grant: active keys with never-used grants.
    for key in &snapshot.keys {
        if key.used_by.is_empty() {
            continue; // freshly minted, nothing to compare against yet
        }
        for principal in key.authorized.difference(&key.used_by) {
            findings.push(finding(
                rules::KMS_BROAD_GRANT,
                &key.path,
                principal.clone(),
                format!(
                    "key authorizes `{principal}` which never sealed or opened under it (active principals: {})",
                    key.used_by.iter().cloned().collect::<Vec<_>>().join(", "),
                ),
            ));
        }
    }

    // --- attest -------------------------------------------------------

    for w in &snapshot.workloads {
        if !w.phi_serving {
            continue;
        }
        if !w.attested {
            findings.push(finding(
                rules::UNATTESTED_WORKLOAD,
                &w.path,
                w.image_name.clone(),
                format!(
                    "PHI-serving container runs image `{}` but was admitted without attestation",
                    w.image_name
                ),
            ));
        }
        match (snapshot.golden.get(&w.image_name), w.image_digest) {
            (None, _) => findings.push(finding(
                rules::GOLDEN_DIVERGENCE,
                &w.path,
                format!("missing-golden:{}", w.image_name),
                format!(
                    "image `{}` has no golden measurement registered — nothing to attest against",
                    w.image_name
                ),
            )),
            (Some(&golden), digest) if digest != Some(golden) => findings.push(finding(
                rules::GOLDEN_DIVERGENCE,
                &w.path,
                format!("digest-mismatch:{}", w.image_name),
                format!(
                    "image `{}`'s signed digest diverges from its registered golden measurement",
                    w.image_name
                ),
            )),
            _ => {}
        }
        if w.attested && snapshot.verdicts.get(&w.attest_subject) != Some(&true) {
            findings.push(finding(
                rules::QUOTE_UNVERIFIED,
                &w.path,
                w.attest_subject.clone(),
                format!(
                    "container is marked attested but no trusted quote verification is recorded for subject `{}`",
                    w.attest_subject
                ),
            ));
        }
    }

    // --- encrypt ------------------------------------------------------

    for r in &snapshot.records {
        if r.tombstoned {
            continue;
        }
        if r.patient.is_some() && r.enc_scheme.is_none() {
            findings.push(finding(
                rules::PLAINTEXT_PHI,
                &r.path,
                "missing-enc-tag".to_owned(),
                "identified record's latest version carries no envelope-encryption tag — bytes at rest are not provably sealed".to_owned(),
            ));
        }
        if r.enc_scheme.is_some() {
            let live = r
                .dek
                .as_deref()
                .and_then(|d| d.parse::<u128>().ok())
                .map(|raw| snapshot.live_keys.contains(&raw))
                .unwrap_or(false);
            if !live {
                let key = match r.dek.as_deref() {
                    Some(d) => format!("dek={d}"),
                    None => "missing-dek".to_owned(),
                };
                findings.push(finding(
                    rules::SHREDDED_KEY_REF,
                    &r.path,
                    key,
                    "record is envelope-encrypted but its wrapping key is not in the live KMS table (shredded or never issued)".to_owned(),
                ));
            }
        }
    }

    let live_records: BTreeSet<&str> = snapshot
        .records
        .iter()
        .filter(|r| !r.tombstoned)
        .map(|r| r.path.as_str())
        .collect();
    for c in &snapshot.cached {
        let key_live = snapshot.live_keys.contains(&c.dek);
        let record_live = live_records.contains(c.record.as_str());
        let why = match (key_live, record_live) {
            (true, true) => continue,
            (false, true) => "its key is not in the live KMS table",
            (true, false) => "its record is tombstoned or purged",
            (false, false) => {
                "its key is not in the live KMS table and its record is tombstoned or purged"
            }
        };
        findings.push(finding(
            rules::SHREDDED_KEY_REF,
            &c.path,
            format!("dek={}", c.dek),
            format!("the export read cache holds this record opened, but {why}"),
        ));
    }

    // --- consent ------------------------------------------------------

    if let Some(study) = snapshot.study {
        for r in &snapshot.records {
            if r.tombstoned {
                continue;
            }
            let Some(pid) = r.patient else { continue };
            let pair = (pid, study);
            if !snapshot.active_consent.contains(&pair)
                && !snapshot.consent_history.contains(&pair)
            {
                findings.push(finding(
                    rules::CONSENT_GAP,
                    &r.path,
                    format!("patient={pid}"),
                    format!(
                        "identified record's patient {pid} has no active consent and no consent history for the study"
                    ),
                ));
            }
        }
        for &pid in &snapshot.revoked_latest {
            let live = snapshot
                .records
                .iter()
                .any(|r| !r.tombstoned && r.patient == Some(pid));
            if live {
                findings.push(finding(
                    rules::REVOKED_UNSHREDDED,
                    &format!("deployment://consent/patient/{pid}"),
                    format!("study={study}"),
                    format!(
                        "patient {pid} revoked consent but identified records remain live — the crypto-shredding forget flow never ran"
                    ),
                ));
            }
        }
    }

    // --- suppression --------------------------------------------------

    let mut outcome = ScanOutcome {
        entities_scanned: snapshot.entity_count(),
        ..ScanOutcome::default()
    };
    for f in findings {
        let suppressed = config
            .suppressions
            .iter()
            .any(|s| s.rule == f.rule && s.subject == f.file);
        if suppressed {
            outcome.suppressed += 1;
        } else {
            outcome.findings.push(f);
        }
    }
    Ok(outcome)
}

/// Publishes a scan outcome into a telemetry registry under the
/// `posture.*` metric family (see `OBSERVABILITY.md`).
pub fn record_metrics(registry: &Registry, outcome: &ScanOutcome) {
    registry.counter("posture.scans").add(1);
    registry
        .gauge("posture.entities.scanned")
        .set(outcome.entities_scanned as i64);
    registry
        .gauge("posture.findings.total")
        .set(outcome.findings.len() as i64);
    registry
        .gauge("posture.findings.suppressed")
        .set(outcome.suppressed as i64);
    for family in ["privilege", "attest", "encrypt", "consent"] {
        let n = outcome
            .findings
            .iter()
            .filter(|f| {
                rules::rule_by_id(&f.rule)
                    .map(|r| r.family == family)
                    .unwrap_or(false)
            })
            .count();
        registry
            .gauge(&format!("posture.findings.{family}"))
            .set(n as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{AssignmentSnapshot, CachedRecordSnapshot, KeySnapshot, RecordSnapshot};
    use hc_common::id::{GroupId, PatientId};

    fn set(items: &[&str]) -> BTreeSet<String> {
        items.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn admin_on_phi_path_needs_both_halves() {
        let mut snap = PlatformSnapshot::default();
        snap.assignments.push(AssignmentSnapshot {
            username: "mallory".into(),
            roles: vec!["super".into()],
            permissions: set(&["Service:Admin", "PatientData:Read"]),
        });
        snap.assignments.push(AssignmentSnapshot {
            username: "adam".into(),
            roles: vec!["admin".into()],
            permissions: set(&["Key:Admin", "PatientData:Admin"]),
        });
        let out = scan(&snap, &ScanConfig::default()).unwrap();
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, rules::ADMIN_ON_PHI_PATH);
        assert!(out.findings[0].file.ends_with("/mallory"));
    }

    #[test]
    fn unused_grant_respects_observed_and_declared() {
        let mut snap = PlatformSnapshot::default();
        snap.roles.insert("ops".into(), set(&["Service:Read", "PatientData:Read"]));
        snap.prod_assigned_roles.insert("ops".into());
        snap.observed_use.insert("ops".into(), set(&["Service:Read"]));
        let out = scan(&snap, &ScanConfig::default()).unwrap();
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].snippet, "PatientData:Read");

        let cfg = ScanConfig {
            declared_use: vec![DeclaredUse {
                role: "ops".into(),
                permission: "PatientData:Read".into(),
                justification: "break-glass runbook RB-7".into(),
            }],
            ..ScanConfig::default()
        };
        assert!(scan(&snap, &cfg).unwrap().findings.is_empty());
    }

    #[test]
    fn broad_grant_skips_unused_keys() {
        let mut snap = PlatformSnapshot::default();
        snap.keys.push(KeySnapshot {
            path: "deployment://kms/key/aa".into(),
            authorized: set(&["service:ingest", "service:debug"]),
            used_by: BTreeSet::new(), // never used: no verdict possible yet
        });
        snap.keys.push(KeySnapshot {
            path: "deployment://kms/key/bb".into(),
            authorized: set(&["service:ingest", "service:debug"]),
            used_by: set(&["service:ingest"]),
        });
        let out = scan(&snap, &ScanConfig::default()).unwrap();
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].file, "deployment://kms/key/bb");
        assert_eq!(out.findings[0].snippet, "service:debug");
    }

    #[test]
    fn encrypt_rules_distinguish_plaintext_from_shredded() {
        let mut snap = PlatformSnapshot::default();
        let study = GroupId::from_raw(5);
        let p = PatientId::from_raw(1);
        snap.study = Some(study);
        snap.active_consent.insert((p, study));
        snap.consent_history.insert((p, study));
        snap.live_keys.insert(42);
        for (path, enc, dek) in [
            ("deployment://lake/record/01", None, None),           // plaintext
            ("deployment://lake/record/02", Some("envelope-v2"), Some("42")), // clean
            ("deployment://lake/record/03", Some("envelope-v2"), Some("43")), // shredded
        ] {
            snap.records.push(RecordSnapshot {
                path: path.into(),
                patient: Some(p),
                tombstoned: false,
                enc_scheme: enc.map(str::to_owned),
                dek: dek.map(str::to_owned),
            });
        }
        let out = scan(&snap, &ScanConfig::default()).unwrap();
        let rules_fired: Vec<&str> = out.findings.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(rules_fired, vec![rules::PLAINTEXT_PHI, rules::SHREDDED_KEY_REF]);
    }

    #[test]
    fn cached_entries_need_a_live_key_and_a_live_record() {
        let mut snap = PlatformSnapshot::default();
        snap.live_keys.insert(42);
        for (path, tombstoned) in [
            ("deployment://lake/record/01", false),
            ("deployment://lake/record/02", true),
        ] {
            snap.records.push(RecordSnapshot {
                path: path.into(),
                patient: None,
                tombstoned,
                enc_scheme: Some("envelope-v2".into()),
                dek: Some("42".into()),
            });
        }
        // Record 03 was purged.
        for (record, dek) in [("01", 42), ("01", 43), ("02", 42), ("03", 43)] {
            snap.cached.push(CachedRecordSnapshot {
                path: format!("deployment://export-cache/record/{record}"),
                record: format!("deployment://lake/record/{record}"),
                dek,
            });
        }
        let out = scan(&snap, &ScanConfig::default()).unwrap();
        let found: Vec<(&str, &str, &str)> = out
            .findings
            .iter()
            .map(|f| (f.rule.as_str(), f.file.as_str(), f.snippet.as_str()))
            .collect();
        assert_eq!(
            found,
            [
                (
                    rules::SHREDDED_KEY_REF,
                    "deployment://export-cache/record/01",
                    "dek=43"
                ),
                (
                    rules::SHREDDED_KEY_REF,
                    "deployment://export-cache/record/02",
                    "dek=42"
                ),
                (
                    rules::SHREDDED_KEY_REF,
                    "deployment://export-cache/record/03",
                    "dek=43"
                ),
            ]
        );
    }

    #[test]
    fn consent_rules_use_history_and_latest_event() {
        let mut snap = PlatformSnapshot::default();
        let study = GroupId::from_raw(5);
        let never = PatientId::from_raw(1);
        let revoked = PatientId::from_raw(2);
        snap.study = Some(study);
        snap.consent_history.insert((revoked, study));
        snap.revoked_latest.insert(revoked);
        snap.live_keys.insert(7);
        for (path, patient) in [
            ("deployment://lake/record/01", never),
            ("deployment://lake/record/02", revoked),
        ] {
            snap.records.push(RecordSnapshot {
                path: path.into(),
                patient: Some(patient),
                tombstoned: false,
                enc_scheme: Some("envelope-v2".into()),
                dek: Some("7".into()),
            });
        }
        let out = scan(&snap, &ScanConfig::default()).unwrap();
        let rules_fired: Vec<&str> = out.findings.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(rules_fired, vec![rules::CONSENT_GAP, rules::REVOKED_UNSHREDDED]);
    }

    #[test]
    fn suppression_requires_justification_and_matches_exactly() {
        let mut snap = PlatformSnapshot::default();
        snap.keys.push(KeySnapshot {
            path: "deployment://kms/key/bb".into(),
            authorized: set(&["service:ingest", "service:debug"]),
            used_by: set(&["service:ingest"]),
        });
        let bad = ScanConfig {
            suppressions: vec![Suppression {
                rule: rules::KMS_BROAD_GRANT.into(),
                subject: "deployment://kms/key/bb".into(),
                justification: "  ".into(),
            }],
            ..ScanConfig::default()
        };
        assert!(scan(&snap, &bad).is_err());

        let good = ScanConfig {
            suppressions: vec![Suppression {
                rule: rules::KMS_BROAD_GRANT.into(),
                subject: "deployment://kms/key/bb".into(),
                justification: "debug principal is the documented break-glass path".into(),
            }],
            ..ScanConfig::default()
        };
        let out = scan(&snap, &good).unwrap();
        assert!(out.findings.is_empty());
        assert_eq!(out.suppressed, 1);

        let unknown_rule = ScanConfig {
            suppressions: vec![Suppression {
                rule: "posture-no-such".into(),
                subject: "x".into(),
                justification: "y".into(),
            }],
            ..ScanConfig::default()
        };
        assert!(scan(&snap, &unknown_rule).is_err());
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = ScanConfig {
            declared_use: vec![DeclaredUse {
                role: "admin".into(),
                permission: "Key:Admin".into(),
                justification: "runbook".into(),
            }],
            suppressions: Vec::new(),
        };
        let back = ScanConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back.declared_use.len(), 1);
        assert!(ScanConfig::from_json("not json").is_err());
    }

    #[test]
    fn metrics_published_per_family() {
        let registry = Registry::new();
        let mut snap = PlatformSnapshot::default();
        snap.keys.push(KeySnapshot {
            path: "deployment://kms/key/bb".into(),
            authorized: set(&["service:ingest", "service:debug"]),
            used_by: set(&["service:ingest"]),
        });
        let out = scan(&snap, &ScanConfig::default()).unwrap();
        record_metrics(&registry, &out);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("posture.scans"), Some(1));
        assert_eq!(snapshot.gauge("posture.findings.total"), Some(1));
        assert_eq!(snapshot.gauge("posture.findings.privilege"), Some(1));
        assert_eq!(snapshot.gauge("posture.findings.consent"), Some(0));
    }
}
