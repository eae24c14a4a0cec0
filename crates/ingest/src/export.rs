//! The export service (§II-B).
//!
//! "The platform also exposes an Export service which performs two types
//! of exports, namely i) Anonymized export, that anonymizes the data to
//! protect privacy, and ii) Full export where the re-identified consented
//! data is provided to the client. This is typically needed by Clinical
//! Research Organizations (CRO) to conduct various types of studies."

use std::collections::HashMap;
use std::sync::Arc;

use hc_common::id::{PatientId, Principal, ReferenceId};
use hc_crypto::sha256;
use hc_fhir::bundle::{Bundle, BundleKind};
use hc_ledger::provenance::{ProvenanceAction, ProvenanceEvent};

use crate::pipeline::SharedState;
use hc_crypto::ots::MerklePublicKey;
use hc_crypto::redactable::{RedactableDocument, RedactableError};

/// Errors from the export service.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExportError {
    /// The patient has not consented to re-identified export.
    NotConsented(PatientId),
    /// A stored record could not be decrypted (shredded key?).
    Unreadable(ReferenceId),
    /// The patient has no stored records.
    NothingToExport,
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::NotConsented(p) => {
                write!(f, "patient {p} has not consented to full export")
            }
            ExportError::Unreadable(r) => write!(f, "record {r} cannot be decrypted"),
            ExportError::NothingToExport => f.write_str("no records to export"),
        }
    }
}

impl std::error::Error for ExportError {}

/// A full export: re-identified data plus the pseudonym reversal map.
#[derive(Clone, Debug)]
pub struct FullExport {
    /// The merged bundle (still pseudonymized ids in resources).
    pub bundle: Bundle,
    /// pseudonym → original logical id, per the consented records.
    pub reidentification: HashMap<String, String>,
}

/// The export service.
pub struct ExportService {
    shared: Arc<SharedState>,
}

impl std::fmt::Debug for ExportService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExportService")
            .field("study", &self.shared.study_name)
            .finish()
    }
}

impl ExportService {
    pub(crate) fn new(shared: Arc<SharedState>) -> Self {
        ExportService { shared }
    }

    fn open_record(&self, reference: ReferenceId) -> Result<Bundle, ExportError> {
        let raw = {
            let mut lake = self.shared.lake.lock();
            lake.get_latest(reference)
                .map_err(|_| ExportError::Unreadable(reference))?
                .data
                .clone()
        };
        let sealed: hc_crypto::aead::Sealed =
            serde_json::from_slice(&raw).map_err(|_| ExportError::Unreadable(reference))?;
        let key = *self
            .shared
            .record_keys
            .lock()
            .get(&reference)
            .ok_or(ExportError::Unreadable(reference))?;
        let bytes = self
            .shared
            .kms
            .open(&Principal::Service("export".into()), key, &sealed, b"at-rest")
            .map_err(|_| ExportError::Unreadable(reference))?;
        Bundle::from_bytes(&bytes).map_err(|_| ExportError::Unreadable(reference))
    }

    fn anchor_export(&self, reference: ReferenceId, detail: &str) {
        let mut provenance = self.shared.provenance.lock();
        let _ = provenance.record(&ProvenanceEvent {
            record: reference,
            data_hash: sha256::hash(detail.as_bytes()),
            action: ProvenanceAction::Exported,
            actor: "export-service".into(),
            detail: detail.to_owned(),
        });
    }

    /// Anonymized export of the whole study: every stored record merged
    /// into one de-identified collection bundle. Requires no consent —
    /// the data carries no direct identifiers.
    ///
    /// # Errors
    ///
    /// Fails only if a record is unreadable (e.g. its key was shredded
    /// mid-export) — shredded records are skipped, not errors.
    pub fn export_anonymized(&self) -> Result<Bundle, ExportError> {
        let references = {
            let lake = self.shared.lake.lock();
            lake.find_by_tag("study", &self.shared.study_name)
        };
        let mut merged = Bundle::new(BundleKind::Collection, Vec::new());
        for reference in references {
            match self.open_record(reference) {
                Ok(bundle) => {
                    merged.extend(bundle);
                    self.anchor_export(reference, "anonymized");
                }
                Err(ExportError::Unreadable(_)) => continue, // shredded/tombstoned
                Err(e) => return Err(e),
            }
        }
        Ok(merged)
    }

    /// The public key partners use to verify shared redactable records.
    pub fn share_verification_key(&self) -> MerklePublicKey {
        self.shared.share_public
    }

    /// Leakage-free partial sharing (§IV-B1): signs one stored record's
    /// resources as redactable fields and redacts every resource type not
    /// in `keep_types`. The recipient can verify the platform's signature
    /// over the *whole* record while learning nothing about the redacted
    /// resources — unlike plain Merkle hashing, the salted commitments
    /// resist dictionary attacks on low-entropy PHI.
    ///
    /// # Errors
    ///
    /// Fails when the record is unreadable or the signing key exhausted.
    pub fn share_partial_record(
        &self,
        reference: ReferenceId,
        keep_types: &[&str],
    ) -> Result<RedactableDocument, ExportError> {
        let bundle = self.open_record(reference)?;
        let named: Vec<(String, Vec<u8>)> = bundle
            .iter()
            .map(|r| {
                let bytes = serde_json::to_vec(r)
                    .map_err(|_| ExportError::Unreadable(reference))?;
                Ok((format!("{}/{}", r.type_name(), r.id()), bytes))
            })
            .collect::<Result<_, ExportError>>()?;
        let fields: Vec<(&str, &[u8])> = named
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_slice()))
            .collect();
        let mut rng = hc_common::rng::seeded_stream(reference.as_u128() as u64, 911);
        let mut signer = self.shared.share_signer.lock();
        let mut document = RedactableDocument::sign(&fields, &mut signer, &mut rng)
            .map_err(|_| ExportError::Unreadable(reference))?;
        drop(signer);
        for (i, (name, _)) in named.iter().enumerate() {
            let type_name = name.split('/').next().unwrap_or_default();
            if !keep_types.contains(&type_name) {
                document
                    .redact(i)
                    .map_err(|_: RedactableError| ExportError::Unreadable(reference))?;
            }
        }
        self.anchor_export(reference, "redacted-share");
        Ok(document)
    }

    /// Full (re-identified) export of one patient's records, gated on
    /// export-scope consent.
    ///
    /// # Errors
    ///
    /// Fails without consent, or when the patient has no records.
    pub fn export_full(&self, patient: PatientId) -> Result<FullExport, ExportError> {
        {
            let consent = self.shared.consent.lock();
            if !consent.allows_export(patient, self.shared.study) {
                return Err(ExportError::NotConsented(patient));
            }
        }
        let references = {
            let lake = self.shared.lake.lock();
            lake.references_of(patient)
        };
        if references.is_empty() {
            return Err(ExportError::NothingToExport);
        }
        let mut merged = Bundle::new(BundleKind::Collection, Vec::new());
        let mut reidentification = HashMap::new();
        for reference in references {
            let bundle = self.open_record(reference)?;
            merged.extend(bundle);
            if let Some(map) = self.shared.pseudonyms.lock().get(&reference) {
                for (original, pseudonym) in map {
                    reidentification.insert(pseudonym.clone(), original.clone());
                }
            }
            self.anchor_export(reference, "full");
        }
        Ok(FullExport {
            bundle: merged,
            reidentification,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::build_pipeline;
    use crate::status::IngestionStatus;
    use hc_fhir::resource::{Consent, Gender, Observation, Patient, Resource};
    use hc_fhir::types::{CodeableConcept, Quantity, SimDate};
    use hc_ledger::audit::AuditorView;

    fn bundle_for(pid: &str, consent: bool, granted: bool) -> Bundle {
        let mut entries = vec![
            Resource::Patient(
                Patient::builder(pid)
                    .name("Doe", "Jane")
                    .gender(Gender::Other)
                    .birth_year(1960)
                    .build(),
            ),
            Resource::Observation(Observation {
                id: format!("{pid}-o1"),
                subject: pid.into(),
                code: CodeableConcept::hba1c(),
                value: Quantity::new(6.9, "%"),
                effective: SimDate(10),
            }),
        ];
        if consent {
            entries.push(Resource::Consent(Consent {
                id: format!("{pid}-c"),
                subject: pid.into(),
                study: "diabetes-rwe".into(),
                granted,
            }));
        }
        Bundle::new(hc_fhir::bundle::BundleKind::Transaction, entries)
    }

    #[test]
    fn anonymized_export_merges_study_records() {
        let pipeline = build_pipeline(30);
        for raw in 1..=3u128 {
            let credential = pipeline.register_device(PatientId::from_raw(raw));
            let sealed = pipeline
                .seal_upload(&credential, &bundle_for(&format!("p{raw}"), true, true))
                .unwrap();
            pipeline.submit(credential, sealed);
        }
        pipeline.process_all();
        let export = pipeline.export_service();
        let merged = export.export_anonymized().unwrap();
        // 3 patients × (patient + observation + consent).
        assert_eq!(merged.len(), 9);
        // No PHI anywhere in the export.
        let json = merged.to_json();
        assert!(!json.contains("Jane"));
    }

    #[test]
    fn full_export_requires_consent_scope() {
        let pipeline = build_pipeline(31);
        let patient = PatientId::from_raw(9);
        let credential = pipeline.register_device(patient);
        let sealed = pipeline
            .seal_upload(&credential, &bundle_for("p9", true, true))
            .unwrap();
        pipeline.submit(credential, sealed);
        pipeline.process_all();
        let export = pipeline.export_service();
        let full = export.export_full(patient).unwrap();
        assert_eq!(full.bundle.len(), 3);
        // Re-identification map inverts the pseudonyms.
        assert!(full.reidentification.values().any(|v| v == "p9"));
    }

    #[test]
    fn full_export_denied_without_consent() {
        let pipeline = build_pipeline(32);
        let patient = PatientId::from_raw(9);
        // Store with consent, then revoke it via a second upload.
        let credential = pipeline.register_device(patient);
        let sealed = pipeline
            .seal_upload(&credential, &bundle_for("p9", true, true))
            .unwrap();
        pipeline.submit(credential, sealed);
        pipeline.process_all();
        {
            let mut consent = pipeline.shared.consent.lock();
            consent.revoke(patient, pipeline.shared.study);
        }
        let export = pipeline.export_service();
        assert_eq!(
            export.export_full(patient).unwrap_err(),
            ExportError::NotConsented(patient)
        );
    }

    #[test]
    fn exports_are_anchored_on_the_ledger() {
        let pipeline = build_pipeline(33);
        let patient = PatientId::from_raw(9);
        let credential = pipeline.register_device(patient);
        let sealed = pipeline
            .seal_upload(&credential, &bundle_for("p9", true, true))
            .unwrap();
        let url = pipeline.submit(credential, sealed);
        pipeline.process_all();
        let IngestionStatus::Stored { references } = pipeline.status(url).unwrap() else {
            panic!("stored")
        };
        let export = pipeline.export_service();
        let _ = export.export_full(patient).unwrap();
        let provenance = pipeline.shared.provenance.lock();
        let history = AuditorView::new(provenance.ledger()).record_history(references[0]);
        assert!(history
            .iter()
            .any(|e| e.action == ProvenanceAction::Exported && e.detail == "full"));
    }

    #[test]
    fn shredded_records_skipped_in_anonymized_export() {
        let pipeline = build_pipeline(34);
        let p1 = PatientId::from_raw(1);
        let p2 = PatientId::from_raw(2);
        for (raw, patient) in [(1u128, p1), (2, p2)] {
            let credential = pipeline.register_device(patient);
            let sealed = pipeline
                .seal_upload(&credential, &bundle_for(&format!("p{raw}"), true, true))
                .unwrap();
            pipeline.submit(credential, sealed);
        }
        pipeline.process_all();
        pipeline.forget_patient(p1);
        let export = pipeline.export_service();
        let merged = export.export_anonymized().unwrap();
        assert_eq!(merged.len(), 3, "only the surviving patient's records");
    }

    #[test]
    fn empty_patient_export_errors() {
        let pipeline = build_pipeline(35);
        let patient = PatientId::from_raw(42);
        {
            let mut consent = pipeline.shared.consent.lock();
            consent.grant(
                patient,
                pipeline.shared.study,
                hc_access::consent::ConsentScope::FULL,
            );
        }
        let export = pipeline.export_service();
        assert_eq!(
            export.export_full(patient).unwrap_err(),
            ExportError::NothingToExport
        );
    }
}
