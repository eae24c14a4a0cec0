//! `hc-posture` — deployment-posture scanner for the trusted healthcare
//! platform.
//!
//! Where `hc-lint` analyses *source code*, this crate analyses a *running
//! deployment*: it captures an immutable [`snapshot::PlatformSnapshot`]
//! from a live [`hc_core::platform::HealthCloudPlatform`] — placements,
//! roles, consent, golden measurements, KMS key table and audit log,
//! data-lake envelope metadata — and evaluates the posture rule catalogue
//! ([`rules::POSTURE_RULES`]) over it. Four rule families mirror the
//! paper's trust pillars:
//!
//! * `privilege` — over-privilege: admin principals on the PHI path,
//!   granted-but-never-used role permissions, over-broad KMS key grants;
//! * `attest` — attestation gaps: PHI-serving workloads admitted without
//!   attestation, golden-measurement divergence, unverified quote chains;
//! * `encrypt` — encryption at rest: identified records without envelope
//!   metadata, records sealed under shredded keys, export-cache entries
//!   whose key is shredded or whose record is deleted;
//! * `consent` — consent/policy gaps: identified records without consent
//!   provenance, revocations never followed by crypto-shredding.
//!
//! Findings reuse [`hc_lint::diag::Finding`] and the shared ratcheting
//! baseline ([`hc_lint::baseline`]), so `hc-posture` and `hc-lint` share
//! one fingerprint format, one baseline file schema, and the same
//! `--write-baseline` / `--prune-baseline` / `--fail-stale` CLI contract.
//!
//! # Subject paths
//!
//! Posture findings have no file/line; the `file` slot of each finding
//! carries a stable `deployment://` entity path instead:
//!
//! * workloads — `deployment://region-R/host-H/vm-V/container-C`
//! * RBAC — `deployment://rbac/user/NAME`, `deployment://rbac/role/NAME`
//! * KMS — `deployment://kms/key/HEX`
//! * lake — `deployment://lake/record/HEX`
//! * export read cache — `deployment://export-cache/record/HEX`
//! * consent — `deployment://consent/patient/HEX`
//!
//! Attestation verdicts for containers are recorded under the subject
//! `vm-<raw vm id>/<image name>` (hosts attest under their host name via
//! [`hc_core::platform::HealthCloudPlatform::attested_boot`]); the scanner
//! joins workloads to verdicts through that convention.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demo;
pub mod report;
pub mod rules;
pub mod scan;
pub mod snapshot;

pub use rules::{rule_by_id, POSTURE_RULES};
pub use scan::{scan, DeclaredUse, ScanConfig, ScanOutcome, Suppression};
pub use snapshot::PlatformSnapshot;
