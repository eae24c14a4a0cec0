//! A reproducible 3-region demo deployment for posture scanning.
//!
//! [`DemoDeployment::build`] boots the full platform and drives it to a
//! *clean* steady state — attested hosts and workloads, least-privilege
//! users exercising exactly the permissions their roles grant, consented
//! patients ingested through the envelope-encryption pipeline, and one
//! anonymized export. A posture scan of this state under
//! [`demo_config`] yields zero findings; that claim is E21's control arm.
//!
//! [`plant_violations`] then mutates the deployment to seed exactly one
//! deliberate instance of every posture rule (the golden-divergence plant
//! also leaves its workload quote-unverified, covering two rules on one
//! subject). E21 asserts the scanner finds all of them and nothing else —
//! precision and recall 1.0 against the planted ground truth.

use std::collections::BTreeMap;

use hc_access::model::{Action, Permission, ResourceKind, Role};
use hc_attest::image::sign_image;
use hc_attest::measure::{measured_boot, Component, Layer};
use hc_common::id::{ImageId, PatientId, Principal};
use hc_core::platform::{demo_bundle, HealthCloudPlatform, PlatformConfig};
use hc_crypto::ots::MerkleSigner;
use hc_crypto::sha256;

use crate::rules;
use crate::scan::{DeclaredUse, ScanConfig};
use crate::snapshot::{perm_string, workload_path};

/// The images the demo deploys to every region. The first two serve PHI
/// (`ingest`/`export` prefixes); the batch job does not.
const IMAGE_NAMES: [&str; 3] = ["ingest-svc:v1", "export-svc:v1", "analytics-batch:v1"];

/// Number of regions in the demo deployment.
pub const REGIONS: usize = 3;

fn image_content(name: &str) -> Vec<u8> {
    format!("{name}-layers").into_bytes()
}

/// A booted demo deployment plus the handles needed to plant violations
/// into it.
pub struct DemoDeployment {
    /// The live platform the snapshot is captured from.
    pub platform: HealthCloudPlatform,
    /// Registered images by name.
    pub images: BTreeMap<String, ImageId>,
    /// The three consented demo patients, in registration order.
    pub patients: Vec<PatientId>,
    builder: MerkleSigner,
}

/// One seeded defect and the subject path the scanner must report it on.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PlantedViolation {
    /// The posture rule id expected to fire.
    pub rule: &'static str,
    /// The expected finding subject (`deployment://…`).
    pub subject: String,
}

impl DemoDeployment {
    /// Boots the clean 3-region deployment from a seed.
    ///
    /// # Errors
    ///
    /// Fails when any build step the demo depends on is rejected
    /// (attestation, image registration, gateway authorization,
    /// ingestion) — a failure here means the platform itself regressed.
    pub fn build(seed: u64) -> Result<Self, String> {
        let platform = HealthCloudPlatform::bootstrap(PlatformConfig {
            seed,
            ..PlatformConfig::default()
        });

        // --- infrastructure: 2 attested hosts per region ---------------
        let host_stack = [
            Component::new(Layer::Hardware, "bios", b"bios-2.1"),
            Component::new(Layer::Hypervisor, "kvm", b"kvm-6.8"),
            Component::new(Layer::Vm, "guest-linux", b"linux-6.6"),
        ];
        let mut region_tpms = Vec::new();
        for region in 0..REGIONS {
            for h in 0..2 {
                platform.infra.lock().add_host(region, 32, 1_000_000_000);
                let (tpm, verdict) = platform.attested_boot(
                    &format!("host-r{region}-{h}"),
                    &host_stack,
                    true,
                );
                if !verdict.trusted {
                    return Err(format!(
                        "host-r{region}-{h} failed attestation: {:?}",
                        verdict.failures
                    ));
                }
                if h == 0 {
                    region_tpms.push(tpm);
                }
            }
        }

        // --- signed images with golden measurements --------------------
        let mut builder = {
            let mut rng = platform.rng();
            MerkleSigner::generate(&mut *rng, 4)
        };
        platform.images.lock().approve_signer(builder.public_key());
        let mut images = BTreeMap::new();
        for name in IMAGE_NAMES {
            let content = image_content(name);
            let signed = {
                let mut rng = platform.rng();
                sign_image(&mut *rng, &mut builder, name, &content).map_err(|e| e.to_string())?
            };
            let id = platform
                .images
                .lock()
                .register(signed)
                .map_err(|e| e.to_string())?;
            platform
                .attestation
                .lock()
                .register_golden(&Component::new(Layer::Container, name, &content));
            images.insert(name.to_owned(), id);
        }

        // --- one VM per region, every image chain-attested -------------
        let nonce = b"posture-demo-nonce";
        for (region, host_tpm) in region_tpms.iter_mut().enumerate() {
            let vm = platform
                .infra
                .lock()
                .provision_vm(region, 16)
                .map_err(|e| format!("{e:?}"))?;
            let mut vtpm = {
                let mut rng = platform.rng();
                host_tpm
                    .spawn_vtpm(&mut *rng, &format!("vtpm-r{region}"))
                    .map_err(|e| format!("{e:?}"))?
            };
            for name in IMAGE_NAMES {
                let content = image_content(name);
                let mut ctpm = {
                    let mut rng = platform.rng();
                    vtpm.spawn_vtpm(&mut *rng, &format!("ctpm-r{region}-{name}"))
                        .map_err(|e| format!("{e:?}"))?
                };
                let stack = [Component::new(Layer::Container, name, &content)];
                let quote = measured_boot(&mut ctpm, &stack, nonce).map_err(|e| format!("{e:?}"))?;
                let chain = [
                    ctpm.certificate()
                        .cloned()
                        .ok_or("container vTPM lacks a certificate")?,
                    vtpm.certificate().cloned().ok_or("vTPM lacks a certificate")?,
                ];
                let subject = format!("vm-{}/{name}", vm.as_u128());
                let verdict = platform.attestation.lock().verify_chained_quote_for(
                    &subject,
                    &quote,
                    &chain,
                    &stack,
                    nonce,
                );
                if !verdict.trusted {
                    return Err(format!(
                        "workload {subject} failed attestation: {:?}",
                        verdict.failures
                    ));
                }
                let image_id = images.get(name).copied().ok_or("image registered above")?;
                platform
                    .infra
                    .lock()
                    .deploy_container(vm, image_id, Ok(verdict.trusted))
                    .map_err(|e| format!("{e:?}"))?;
            }
        }

        // --- least-privilege users exercising exactly their grants -----
        let mut tokens = BTreeMap::new();
        for (name, role) in [
            ("alice", "clinician"),
            ("rita", "researcher"),
            ("aaron", "auditor"),
            ("adam", "admin"),
        ] {
            let (_, token) = platform.register_user(name, b"demo-pass", role);
            tokens.insert(name, token);
        }
        for (user, kind, action, op) in [
            ("alice", ResourceKind::PatientData, Action::Read, "read-record"),
            ("alice", ResourceKind::PatientData, Action::Write, "update-record"),
            ("alice", ResourceKind::AnonymizedData, Action::Read, "view-cohort"),
            ("rita", ResourceKind::AnonymizedData, Action::Read, "export-anon"),
            ("rita", ResourceKind::Model, Action::Read, "load-model"),
            ("rita", ResourceKind::Model, Action::Write, "train-model"),
            ("aaron", ResourceKind::AuditLog, Action::Read, "review-audit"),
            ("aaron", ResourceKind::AnonymizedData, Action::Read, "spot-check"),
        ] {
            let token = tokens.get(user).ok_or("user enrolled above")?;
            platform
                .authorize(token, Permission::new(kind, action), op)
                .map_err(|e| format!("{op} denied: {e:?}"))?;
        }

        // --- consented patients through the sealed pipeline ------------
        let mut patients = Vec::new();
        for i in 0..3u128 {
            let pid = PatientId::from_raw(9001 + i);
            let device = platform.register_patient_device(pid);
            // The demo *is* a patient device: uploading the (consented)
            // bundle into the sealed ingest pipeline is the ingress path
            // the posture rules audit, not an egress leak.
            platform
                // hc-lint: allow(taint-phi-to-sink)
                .upload(&device, &demo_bundle(&format!("p{i}"), true))
                .map_err(|e| format!("{e:?}"))?;
            patients.push(pid);
        }
        let processed = platform.process_ingestion();
        if processed != patients.len() {
            return Err(format!(
                "ingestion processed {processed} of {} demo uploads",
                patients.len()
            ));
        }
        // The export opens every record key as the export service, so the
        // clean deployment has no never-used record-key grants.
        platform
            .export_service()
            .export_anonymized()
            .map_err(|e| format!("{e:?}"))?;

        Ok(DemoDeployment {
            platform,
            images,
            patients,
            builder,
        })
    }
}

/// The scan config for the demo deployment: every `admin` grant declared
/// against the platform runbook (admin duties run out-of-band, not
/// through the data-path gateway), no suppressions.
pub fn demo_config() -> ScanConfig {
    let declared_use = Role::admin()
        .permissions
        .iter()
        .map(|p| DeclaredUse {
            role: "admin".to_owned(),
            permission: perm_string(*p),
            justification: "platform runbook: admin provisioning/rotation/retention duties \
                            run out-of-band, not through the data-path gateway"
                .to_owned(),
        })
        .collect();
    ScanConfig {
        declared_use,
        suppressions: Vec::new(),
    }
}

/// Seeds one deliberate violation of every posture rule into a clean
/// deployment and returns the expected `(rule, subject)` ground truth.
///
/// # Errors
///
/// Fails when a planting step cannot be applied (e.g. the demo state it
/// relies on is missing) — E21 treats that as a harness bug, not a
/// scanner result.
pub fn plant_violations(demo: &mut DemoDeployment) -> Result<Vec<PlantedViolation>, String> {
    let mut planted = Vec::new();
    let p = &demo.platform;

    // P1 — privilege: a production role fusing Admin control with
    // plaintext PHI, held and exercised by mallory.
    {
        let mut rbac = p.rbac.lock();
        rbac.add_role(Role::new(
            "super",
            [
                Permission::new(ResourceKind::Service, Action::Admin),
                Permission::new(ResourceKind::PatientData, Action::Read),
                Permission::new(ResourceKind::PatientData, Action::Write),
            ],
        ));
        rbac.add_role(Role::new(
            "ops-oncall",
            [
                Permission::new(ResourceKind::Service, Action::Read),
                Permission::new(ResourceKind::PatientData, Action::Read),
            ],
        ));
    }
    let (_, mallory_token) = p.register_user("mallory", b"pw", "super");
    for (kind, action, op) in [
        (ResourceKind::Service, Action::Admin, "restart-service"),
        (ResourceKind::PatientData, Action::Read, "read-any-record"),
        (ResourceKind::PatientData, Action::Write, "patch-any-record"),
    ] {
        p.authorize(&mallory_token, Permission::new(kind, action), op)
            .map_err(|e| format!("{op} denied: {e:?}"))?;
    }
    planted.push(PlantedViolation {
        rule: rules::ADMIN_ON_PHI_PATH,
        subject: "deployment://rbac/user/mallory".to_owned(),
    });

    // P2 — privilege: oscar's on-call role grants PHI read he never uses
    // and no runbook declares.
    let (_, oscar_token) = p.register_user("oscar", b"pw", "ops-oncall");
    p.authorize(
        &oscar_token,
        Permission::new(ResourceKind::Service, Action::Read),
        "page-status",
    )
    .map_err(|e| format!("page-status denied: {e:?}"))?;
    planted.push(PlantedViolation {
        rule: rules::ROLE_UNUSED_GRANT,
        subject: "deployment://rbac/role/ops-oncall".to_owned(),
    });

    // P3 — privilege: a key granting a debug principal that never uses it.
    let ingest = Principal::Service("ingest".to_owned());
    let key_broad = {
        let mut rng = p.rng();
        p.kms.create_key(
            &mut *rng,
            &[ingest.clone(), Principal::Service("debug-tool".to_owned())],
        )
    };
    p.kms
        .seal(&ingest, key_broad, b"maintenance-blob", b"aad")
        .map_err(|e| format!("{e:?}"))?;
    planted.push(PlantedViolation {
        rule: rules::KMS_BROAD_GRANT,
        subject: format!("deployment://kms/key/{key_broad}"),
    });

    // P4 — attest: a PHI-serving container admitted with attested=false.
    let rogue_image = demo
        .images
        .get("ingest-svc:v1")
        .copied()
        .ok_or("demo registered ingest-svc:v1")?;
    let rogue_subject = {
        let mut infra = p.infra.lock();
        let vm = infra.provision_vm(0, 16).map_err(|e| format!("{e:?}"))?;
        let container = infra
            .deploy_container(vm, rogue_image, Ok(false))
            .map_err(|e| format!("{e:?}"))?;
        workload_path(&infra, container).ok_or("placement recorded")?
    };
    planted.push(PlantedViolation {
        rule: rules::UNATTESTED_WORKLOAD,
        subject: rogue_subject,
    });

    // P5 — attest: a PHI image whose golden measurement diverges from the
    // signed build, deployed with the attested flag set but no quote ever
    // verified. One subject, two expected findings.
    let ehr_name = "ehr-frontend:v1";
    let signed = {
        let mut rng = p.rng();
        sign_image(&mut *rng, &mut demo.builder, ehr_name, b"ehr-frontend-layers-v1")
            .map_err(|e| e.to_string())?
    };
    let ehr_id = p.images.lock().register(signed).map_err(|e| e.to_string())?;
    p.attestation
        .lock()
        .update_golden(ehr_name, sha256::hash(b"ehr-frontend-layers-v0"));
    let ehr_subject = {
        let mut infra = p.infra.lock();
        let vm = infra.provision_vm(1, 8).map_err(|e| format!("{e:?}"))?;
        let container = infra
            .deploy_container(vm, ehr_id, Ok(true))
            .map_err(|e| format!("{e:?}"))?;
        workload_path(&infra, container).ok_or("placement recorded")?
    };
    planted.push(PlantedViolation {
        rule: rules::GOLDEN_DIVERGENCE,
        subject: ehr_subject.clone(),
    });
    planted.push(PlantedViolation {
        rule: rules::QUOTE_UNVERIFIED,
        subject: ehr_subject,
    });

    // P6 — encrypt: identified bytes written straight into the lake,
    // bypassing the sealing pipeline (no envelope tags at all).
    let first = demo.patients.first().copied().ok_or("demo has patients")?;
    let plain_ref = {
        let mut rng = p.rng();
        let mut lake = p.lake.lock();
        let reference = lake.put(&mut *rng, b"plaintext-observation-dump".to_vec(), &[]);
        lake.map_identity(reference, first);
        reference
    };
    planted.push(PlantedViolation {
        rule: rules::PLAINTEXT_PHI,
        subject: format!("deployment://lake/record/{plain_ref}"),
    });

    // P7 — encrypt: shred a live record's wrapping key without
    // tombstoning the record (the two-phase forget flow bypassed).
    let second = demo.patients.get(1).copied().ok_or("demo has patients")?;
    let (orphan_ref, orphan_key) = {
        let lake = p.lake.lock();
        lake.audit_records()
            .iter()
            .filter(|rec| rec.patient == Some(second) && !rec.tombstoned)
            .find_map(|rec| {
                let dek = rec.versions.last()?.tags.get("dek")?;
                let raw: u128 = dek.parse().ok()?;
                Some((rec.reference, hc_common::id::KeyId::from_raw(raw)))
            })
            .ok_or("second demo patient has a sealed record")?
    };
    p.kms.shred(orphan_key);
    planted.push(PlantedViolation {
        rule: rules::SHREDDED_KEY_REF,
        subject: format!("deployment://lake/record/{orphan_ref}"),
    });
    // The demo's anonymized export opened that record, so the export read
    // cache still holds it, now under a shredded key.
    planted.push(PlantedViolation {
        rule: rules::SHREDDED_KEY_REF,
        subject: format!("deployment://export-cache/record/{orphan_ref}"),
    });

    // P8 — consent: a properly sealed record backfilled for a patient the
    // consent service has never seen.
    let backfill = Principal::Service("backfill".to_owned());
    let key_backfill = {
        let mut rng = p.rng();
        p.kms.create_key(&mut *rng, std::slice::from_ref(&backfill))
    };
    p.kms
        .seal(&backfill, key_backfill, b"backfilled-observation", b"at-rest")
        .map_err(|e| format!("{e:?}"))?;
    let orphan_patient = PatientId::from_raw(9100);
    let dek_tag = key_backfill.as_u128().to_string();
    let backfill_ref = {
        let mut rng = p.rng();
        let mut lake = p.lake.lock();
        let reference = lake.put(
            &mut *rng,
            b"sealed-backfill-bytes".to_vec(),
            &[("enc", "envelope-v2"), ("dek", dek_tag.as_str())],
        );
        lake.map_identity(reference, orphan_patient);
        reference
    };
    planted.push(PlantedViolation {
        rule: rules::CONSENT_GAP,
        subject: format!("deployment://lake/record/{backfill_ref}"),
    });

    // P9 — consent: a revocation that was never followed by
    // crypto-shredding; the third patient's records stay live.
    let third = demo.patients.get(2).copied().ok_or("demo has patients")?;
    p.consent.lock().revoke(third, p.study);
    planted.push(PlantedViolation {
        rule: rules::REVOKED_UNSHREDDED,
        subject: format!("deployment://consent/patient/{third}"),
    });

    Ok(planted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;
    use crate::snapshot::PlatformSnapshot;

    #[test]
    fn clean_demo_scans_clean() {
        let demo = DemoDeployment::build(42).expect("demo builds");
        let snap = PlatformSnapshot::capture(&demo.platform);
        let outcome = scan(&snap, &demo_config()).expect("config valid");
        assert!(
            outcome.findings.is_empty(),
            "clean deployment produced findings: {:#?}",
            outcome.findings
        );
        assert_eq!(outcome.suppressed, 0);
        assert!(outcome.entities_scanned > 0);
    }

    #[test]
    fn planted_violations_are_all_found_exactly() {
        let mut demo = DemoDeployment::build(42).expect("demo builds");
        let expected = plant_violations(&mut demo).expect("plants apply");
        assert_eq!(
            expected.len(),
            11,
            "one finding per rule, plus P7's cached entry"
        );
        let snap = PlatformSnapshot::capture(&demo.platform);
        let outcome = scan(&snap, &demo_config()).expect("config valid");

        let mut got: Vec<(String, String)> = outcome
            .findings
            .iter()
            .map(|f| (f.rule.clone(), f.file.clone()))
            .collect();
        got.sort();
        let mut want: Vec<(String, String)> = expected
            .iter()
            .map(|v| (v.rule.to_owned(), v.subject.clone()))
            .collect();
        want.sort();
        assert_eq!(got, want);
    }
}
