//! Capturing an immutable posture snapshot from a live platform.
//!
//! [`PlatformSnapshot::capture`] reads every subsystem the posture rules
//! need — taking one lock at a time, never nesting — and normalises the
//! state into plain sorted collections. The scanner in [`mod@crate::scan`]
//! then runs entirely lock-free over the snapshot, so a scan can never
//! deadlock the platform it audits.

use std::collections::{BTreeMap, BTreeSet};

use hc_access::model::Permission;
use hc_access::rbac::EnvKind;
use hc_cloudsim::infra::InfraCloud;
use hc_common::id::{ContainerId, GroupId, ImageId, KeyId, PatientId};
use hc_core::platform::HealthCloudPlatform;
use hc_crypto::kms::KmsAuditEvent;
use hc_crypto::sha256::Digest;

/// Image-name prefixes that mark a workload as PHI-serving. A container
/// whose image name starts with one of these handles identified patient
/// data and is held to the attestation rules.
pub const PHI_IMAGE_PREFIXES: &[&str] = &["ingest", "export", "ehr", "clinical", "phi"];

/// Renders a permission as its stable `Kind:Action` scan string, e.g.
/// `PatientData:Read` — the vocabulary used by observed-use maps and the
/// declared-use manifest in [`crate::scan::ScanConfig`].
pub fn perm_string(p: Permission) -> String {
    format!("{:?}:{:?}", p.kind, p.action)
}

/// Whether an image name denotes a PHI-serving workload.
pub fn is_phi_image(name: &str) -> bool {
    PHI_IMAGE_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// The stable `deployment://` path of a running container, derived from
/// its placement. `None` when the container's VM or host is unknown
/// (mid-teardown races).
pub fn workload_path(infra: &InfraCloud, container: ContainerId) -> Option<String> {
    let c = infra.container(container)?;
    let vm = infra.vm(c.vm)?;
    let host = infra.host(vm.host)?;
    Some(format!(
        "deployment://region-{}/host-{}/vm-{}/container-{}",
        host.location.region,
        host.location.host,
        vm.id.as_u128(),
        c.id.as_u128(),
    ))
}

/// One running container and the attestation context around it.
#[derive(Clone, Debug)]
pub struct WorkloadSnapshot {
    /// Stable `deployment://region-R/host-H/vm-V/container-C` path.
    pub path: String,
    /// The image's human-readable `name:tag` (or a placeholder when the
    /// image id is not in the registry).
    pub image_name: String,
    /// The registered image's signed content digest, when known.
    pub image_digest: Option<Digest>,
    /// The admission flag recorded at deploy time.
    pub attested: bool,
    /// Whether the image serves identified PHI (see [`is_phi_image`]).
    pub phi_serving: bool,
    /// The attestation subject this workload's quote verification would
    /// have been recorded under: `vm-<raw vm id>/<image name>`.
    pub attest_subject: String,
}

/// One production role assignment with the union of granted permissions.
#[derive(Clone, Debug)]
pub struct AssignmentSnapshot {
    /// The user's login name.
    pub username: String,
    /// Role names held in the production environment, sorted.
    pub roles: Vec<String>,
    /// Union of all granted permissions across those roles, as
    /// `Kind:Action` strings.
    pub permissions: BTreeSet<String>,
}

/// One live KMS key with its grant list and usage profile.
#[derive(Clone, Debug)]
pub struct KeySnapshot {
    /// Stable `deployment://kms/key/HEX` path.
    pub path: String,
    /// Authorized principals (display form, e.g. `service:ingest`).
    pub authorized: BTreeSet<String>,
    /// Principals that ever sealed/opened under this key.
    pub used_by: BTreeSet<String>,
}

/// One data-lake record's metadata (payload bytes are never captured).
#[derive(Clone, Debug)]
pub struct RecordSnapshot {
    /// Stable `deployment://lake/record/HEX` path.
    pub path: String,
    /// The patient this record identifies, when an identity mapping
    /// exists.
    pub patient: Option<PatientId>,
    /// Whether the record is tombstoned (phase one of forget).
    pub tombstoned: bool,
    /// The `enc` envelope-scheme tag of the latest version, if present.
    pub enc_scheme: Option<String>,
    /// The `dek` wrapping-key tag of the latest version, if present.
    pub dek: Option<String>,
}

/// One record the export read cache holds opened (decoded plaintext).
#[derive(Clone, Debug)]
pub struct CachedRecordSnapshot {
    /// Stable `deployment://export-cache/record/HEX` path.
    pub path: String,
    /// The cached record's `deployment://lake/record/HEX` path.
    pub record: String,
    /// Raw id of the KMS key that opened it.
    pub dek: u128,
}

/// Everything the posture rules evaluate, captured at one point in time.
#[derive(Clone, Debug, Default)]
pub struct PlatformSnapshot {
    /// Running containers with attestation context.
    pub workloads: Vec<WorkloadSnapshot>,
    /// Every registered role's permissions, as `Kind:Action` strings.
    pub roles: BTreeMap<String, BTreeSet<String>>,
    /// Roles held by at least one user in a production environment.
    pub prod_assigned_roles: BTreeSet<String>,
    /// Production role assignments (per user).
    pub assignments: Vec<AssignmentSnapshot>,
    /// Gateway-observed permission use per role: every *allowed* decision
    /// is attributed to each of the caller's roles that grants it.
    pub observed_use: BTreeMap<String, BTreeSet<String>>,
    /// Live KMS keys.
    pub keys: Vec<KeySnapshot>,
    /// Raw ids of keys currently in the live KMS table.
    pub live_keys: BTreeSet<u128>,
    /// Data-lake records (metadata only).
    pub records: Vec<RecordSnapshot>,
    /// Export read-cache entries, one per cached (record, key).
    pub cached: Vec<CachedRecordSnapshot>,
    /// Golden measurements by component/image name.
    pub golden: BTreeMap<String, Digest>,
    /// Latest attestation verdict (trusted?) by subject name.
    pub verdicts: BTreeMap<String, bool>,
    /// Active consent grants as (patient, group).
    pub active_consent: BTreeSet<(PatientId, GroupId)>,
    /// Every (patient, group) pair with any consent event history.
    pub consent_history: BTreeSet<(PatientId, GroupId)>,
    /// Patients whose *latest* event for the study group is a revocation.
    pub revoked_latest: BTreeSet<PatientId>,
    /// The platform's study group.
    pub study: Option<GroupId>,
}

impl PlatformSnapshot {
    /// Total number of entities the rules will walk — the scan's
    /// denominator for reporting.
    pub fn entity_count(&self) -> usize {
        self.workloads.len()
            + self.prod_assigned_roles.len()
            + self.assignments.len()
            + self.keys.len()
            + self.records.len()
            + self.cached.len()
    }

    /// Captures a posture snapshot from a live platform. Subsystem locks
    /// are taken strictly one at a time; the platform keeps serving while
    /// the scan reads.
    pub fn capture(platform: &HealthCloudPlatform) -> PlatformSnapshot {
        let mut snap = PlatformSnapshot {
            study: Some(platform.study),
            ..PlatformSnapshot::default()
        };

        // Image registry first: id → (name, digest), used to label
        // workloads without holding two locks.
        let image_meta: BTreeMap<ImageId, (String, Digest)> = {
            let infra = platform.infra.lock();
            let ids: BTreeSet<ImageId> = infra.containers().map(|c| c.image).collect();
            drop(infra);
            let images = platform.images.lock();
            ids.into_iter()
                .filter_map(|id| images.get(id).map(|img| (id, (img.name.clone(), img.digest))))
                .collect()
        };

        {
            // Deliberate: capture copies this subsystem's audit surface
            // under one short-lived, never-nested lock so the scan sees a
            // consistent view. hc-lint: allow(lock-held-long)
            let infra = platform.infra.lock();
            for c in infra.containers() {
                let Some(path) = workload_path(&infra, c.id) else {
                    continue;
                };
                let Some(vm) = infra.vm(c.vm) else { continue };
                let (image_name, image_digest) = match image_meta.get(&c.image) {
                    Some((name, digest)) => (name.clone(), Some(*digest)),
                    None => (format!("unregistered-image-{}", c.image), None),
                };
                snap.workloads.push(WorkloadSnapshot {
                    path,
                    attest_subject: format!("vm-{}/{}", vm.id.as_u128(), image_name),
                    phi_serving: is_phi_image(&image_name),
                    image_name,
                    image_digest,
                    attested: c.attested,
                });
            }
        }

        {
            let attestation = platform.attestation.lock();
            snap.golden = attestation.golden_measurements().into_iter().collect();
            snap.verdicts = attestation
                .subject_verdicts()
                .into_iter()
                .map(|v| (v.subject.clone(), v.trusted))
                .collect();
        }

        // RBAC: role definitions, then production assignments. Typed
        // permissions are kept aside to attribute gateway decisions below.
        let mut typed_roles: BTreeMap<String, BTreeSet<Permission>> = BTreeMap::new();
        let mut user_roles: BTreeMap<u128, (String, Vec<String>)> = BTreeMap::new();
        {
            // Deliberate: capture copies this subsystem's audit surface
            // under one short-lived, never-nested lock so the scan sees a
            // consistent view. hc-lint: allow(lock-held-long)
            let rbac = platform.rbac.lock();
            for role in rbac.roles() {
                typed_roles.insert(role.name.clone(), role.permissions.iter().copied().collect());
                snap.roles.insert(
                    role.name.clone(),
                    role.permissions.iter().map(|&p| perm_string(p)).collect(),
                );
            }
            for (user, _org, env, roles) in rbac.assignments() {
                if rbac.env_kind(env) != Some(EnvKind::Production) {
                    continue;
                }
                let username = rbac
                    .username_of(user)
                    .map(str::to_owned)
                    .unwrap_or_else(|| format!("user-{user}"));
                let mut sorted = roles.clone();
                sorted.sort_unstable();
                let permissions: BTreeSet<String> = sorted
                    .iter()
                    .filter_map(|r| typed_roles.get(r))
                    .flatten()
                    .map(|&p| perm_string(p))
                    .collect();
                for r in &sorted {
                    snap.prod_assigned_roles.insert(r.clone());
                }
                user_roles.insert(user.as_u128(), (username.clone(), sorted.clone()));
                snap.assignments.push(AssignmentSnapshot {
                    username,
                    roles: sorted,
                    permissions,
                });
            }
        }
        snap.assignments.sort_by(|a, b| a.username.cmp(&b.username));

        // Gateway audit: attribute each allowed decision to every role of
        // the caller that grants the required permission.
        {
            // Deliberate: capture copies this subsystem's audit surface
            // under one short-lived, never-nested lock so the scan sees a
            // consistent view. hc-lint: allow(lock-held-long)
            let gateway = platform.gateway.lock();
            for rec in gateway.audit_log() {
                if !rec.allowed {
                    continue;
                }
                let Some(user) = rec.user else { continue };
                let Some((_, roles)) = user_roles.get(&user.as_u128()) else {
                    continue;
                };
                for role in roles {
                    let grants = typed_roles
                        .get(role)
                        .map(|perms| perms.contains(&rec.permission))
                        .unwrap_or(false);
                    if grants {
                        snap.observed_use
                            .entry(role.clone())
                            .or_default()
                            .insert(perm_string(rec.permission));
                    }
                }
            }
        }

        // KMS: key table plus an audit-log walk for usage profiles.
        {
            let table = platform.kms.key_table();
            let mut used_by: BTreeMap<KeyId, BTreeSet<String>> = BTreeMap::new();
            for event in platform.kms.audit_log() {
                if let KmsAuditEvent::Used(k, principal) = event {
                    used_by.entry(k).or_default().insert(principal.to_string());
                }
            }
            for info in table {
                snap.live_keys.insert(info.id.as_u128());
                snap.keys.push(KeySnapshot {
                    path: format!("deployment://kms/key/{}", info.id),
                    authorized: info.authorized.iter().map(|p| p.to_string()).collect(),
                    used_by: used_by.get(&info.id).cloned().unwrap_or_default(),
                });
            }
        }

        {
            // Deliberate: capture copies this subsystem's audit surface
            // under one short-lived, never-nested lock so the scan sees a
            // consistent view. hc-lint: allow(lock-held-long)
            let lake = platform.lake.lock();
            for record in lake.audit_records() {
                let latest = record.versions.last();
                snap.records.push(RecordSnapshot {
                    path: format!("deployment://lake/record/{}", record.reference),
                    patient: record.patient,
                    tombstoned: record.tombstoned,
                    enc_scheme: latest.and_then(|v| v.tags.get("enc").cloned()),
                    dek: latest.and_then(|v| v.tags.get("dek").cloned()),
                });
            }
        }

        snap.cached = platform
            .pipeline
            .export_cache_entries()
            .into_iter()
            .map(|(reference, key)| CachedRecordSnapshot {
                path: format!("deployment://export-cache/record/{reference}"),
                record: format!("deployment://lake/record/{reference}"),
                dek: key.as_u128(),
            })
            .collect();

        {
            // Deliberate: capture copies this subsystem's audit surface
            // under one short-lived, never-nested lock so the scan sees a
            // consistent view. hc-lint: allow(lock-held-long)
            let consent = platform.consent.lock();
            for (patient, group, _scope) in consent.grants() {
                snap.active_consent.insert((patient, group));
            }
            // Latest event per (patient, group): events are appended in
            // order, so the last write wins.
            let mut latest_revoked: BTreeMap<(PatientId, GroupId), bool> = BTreeMap::new();
            for event in consent.events() {
                snap.consent_history.insert((event.patient, event.group));
                latest_revoked.insert((event.patient, event.group), event.scope.is_none());
            }
            for ((patient, group), revoked) in latest_revoked {
                if revoked && Some(group) == snap.study {
                    snap.revoked_latest.insert(patient);
                }
            }
        }

        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_access::model::{Action, ResourceKind};

    #[test]
    fn perm_strings_are_stable() {
        assert_eq!(
            perm_string(Permission::new(ResourceKind::PatientData, Action::Read)),
            "PatientData:Read"
        );
        assert_eq!(
            perm_string(Permission::new(ResourceKind::Key, Action::Admin)),
            "Key:Admin"
        );
    }

    #[test]
    fn phi_image_prefixes_match() {
        assert!(is_phi_image("ingest-svc:v1"));
        assert!(is_phi_image("ehr-frontend:v2"));
        assert!(!is_phi_image("analytics-batch:v1"));
    }

    #[test]
    fn workload_paths_encode_placement() {
        let mut infra = InfraCloud::new();
        infra.add_host(2, 8, 1_000);
        let vm = infra.provision_vm(2, 4).expect("capacity");
        let image = ImageId::from_raw(77);
        let container = infra.deploy_container(vm, image, Ok(true)).expect("vm exists");
        let path = workload_path(&infra, container).expect("placed");
        assert!(path.starts_with("deployment://region-2/host-0/vm-"));
        assert!(path.contains("/container-"));
        assert_eq!(workload_path(&infra, ContainerId::from_raw(999)), None);
    }
}
