//! The export service (§II-B).
//!
//! "The platform also exposes an Export service which performs two types
//! of exports, namely i) Anonymized export, that anonymizes the data to
//! protect privacy, and ii) Full export where the re-identified consented
//! data is provided to the client. This is typically needed by Clinical
//! Research Organizations (CRO) to conduct various types of studies."

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

use hc_cache::policy::TinyLfuCache;
use hc_cache::shard::ShardedCache;
use hc_common::id::{KeyId, PatientId, Principal, ReferenceId};
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
///
/// A patient with one readable record gets that record's cached export
/// form and reversal map themselves, shared and not copied; several
/// records are merged into new ones.
#[derive(Clone, Debug)]
pub struct FullExport {
    /// The patient's records' entries in reference order, as one
    /// collection bundle (still pseudonymized ids in resources).
    pub bundle: Arc<Bundle>,
    /// pseudonym → original logical id, per the consented records.
    pub reidentification: Arc<HashMap<String, String>>,
    /// The patient's records that could not be opened (shredded key,
    /// tombstoned record), in reference order. They are neither in the
    /// bundle nor anchored as exported.
    pub unreadable: Vec<ReferenceId>,
}

/// Most records [`OpenedRecords`] holds. Its memory is bounded by this
/// many of the largest cached records (~0.8 MB for ~3 KB clinical
/// bundles).
const OPENED_CAPACITY: usize = 128;
/// Lock stripes of [`OpenedRecords`].
const OPENED_SHARDS: usize = 4;

/// (reference, version, DEK id): a new version or a different record key
/// is a different entry.
type OpenedKey = (ReferenceId, u32, KeyId);
/// The decoded record in its export form: its entries as a
/// [`BundleKind::Collection`].
type Opened = Arc<Bundle>;

/// The export read cache: records the export service has opened, so a
/// repeat read of the same stored version skips the envelope decode, the
/// DEK unwrap, the AEAD open and the FHIR decode. It admits by frequency
/// ([`TinyLfuCache`]): once a stripe is full, a newly opened record
/// replaces the stripe's least recently used one only if it was read more
/// often lately, so one-off reads do not push out the hot records. It
/// holds de-identified plaintext, so it is PHI at rest: `forget_patient`
/// drops a patient's entries and the posture scanner lists them
/// ([`IngestionPipeline::export_cache_entries`](crate::pipeline::IngestionPipeline::export_cache_entries)).
pub(crate) struct OpenedRecords {
    cache: ShardedCache<OpenedKey, Opened, TinyLfuCache<OpenedKey, Opened>>,
    instruments: OnceLock<OpenedInstruments>,
}

struct OpenedInstruments {
    hits: hc_telemetry::Counter,
    misses: hc_telemetry::Counter,
    refused: hc_telemetry::Counter,
    entries: hc_telemetry::Gauge,
}

impl OpenedRecords {
    pub(crate) fn new(seed: u64) -> Self {
        OpenedRecords {
            cache: ShardedCache::tiny_lfu(OPENED_CAPACITY, OPENED_SHARDS, seed),
            instruments: OnceLock::new(),
        }
    }

    /// Registers `ingest.export_cache.hits`, `.misses` and `.refused`
    /// (counters) and `.entries` (gauge). Only the first registry counts.
    pub(crate) fn instrument(&self, registry: &hc_telemetry::Registry) {
        let _ = self.instruments.set(OpenedInstruments {
            hits: registry.counter("ingest.export_cache.hits"),
            misses: registry.counter("ingest.export_cache.misses"),
            refused: registry.counter("ingest.export_cache.refused"),
            entries: registry.gauge("ingest.export_cache.entries"),
        });
    }

    fn get(&self, key: &OpenedKey) -> Option<Opened> {
        let found = self.cache.get(key);
        if let Some(inst) = self.instruments.get() {
            if found.is_some() {
                inst.hits.inc();
            } else {
                inst.misses.inc();
            }
        }
        found
    }

    fn put(&self, key: OpenedKey, opened: Opened) {
        let admitted = self.cache.put(key, opened);
        if let (false, Some(inst)) = (admitted, self.instruments.get()) {
            inst.refused.inc();
        }
        self.count_entries();
    }

    fn invalidate(&self, key: &OpenedKey) {
        self.cache.invalidate(key);
        self.count_entries();
    }

    /// Drops every entry of `references` (sorted).
    pub(crate) fn forget(&self, references: &[ReferenceId]) {
        for key in self.cache.keys() {
            if references.binary_search(&key.0).is_ok() {
                self.cache.invalidate(&key);
            }
        }
        self.count_entries();
    }

    /// Each cached (reference, DEK id), sorted, once.
    pub(crate) fn entries(&self) -> Vec<(ReferenceId, KeyId)> {
        let unique: BTreeSet<(ReferenceId, KeyId)> = self
            .cache
            .keys()
            .into_iter()
            .map(|(reference, _, key)| (reference, key))
            .collect();
        unique.into_iter().collect()
    }

    fn count_entries(&self) {
        if let Some(inst) = self.instruments.get() {
            inst.entries.set(self.cache.len() as i64);
        }
    }

    #[cfg(test)]
    pub(crate) fn clear(&self) {
        self.cache.clear();
    }
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

    /// Opens the latest version of `reference` as the export service, in
    /// its export form: the decoded entries moved into a
    /// [`BundleKind::Collection`].
    ///
    /// A version opened before comes from [`OpenedRecords`], after the same
    /// lake read, record-key lookup and KMS authorization (with its audit
    /// entry) a cold open makes. A record key keeps one DEK for life, so
    /// while it authorizes, the cached bundle is what the cold open would
    /// decode; a hit that fails authorization drops its entry.
    fn open_record(&self, reference: ReferenceId) -> Result<Arc<Bundle>, ExportError> {
        let unreadable = || ExportError::Unreadable(reference);
        let (version, raw) = {
            let mut lake = self.shared.lake.lock();
            let stored = lake.get_latest(reference).map_err(|_| unreadable())?;
            (stored.version, stored.data.clone())
        };
        let key = *self
            .shared
            .record_keys
            .lock()
            .get(&reference)
            .ok_or_else(unreadable)?;
        let export = Principal::Service("export".into());
        let opened_key = (reference, version, key);
        if let Some(bundle) = self.shared.opened.get(&opened_key) {
            if self.shared.kms.authorize_use(&export, key).is_ok() {
                return Ok(bundle);
            }
            self.shared.opened.invalidate(&opened_key);
            return Err(unreadable());
        }
        let sealed: hc_crypto::aead::Sealed =
            serde_json::from_slice(&raw).map_err(|_| unreadable())?;
        let bytes = self
            .shared
            .kms
            .open(&export, key, &sealed, b"at-rest")
            .map_err(|_| unreadable())?;
        let decoded = Bundle::from_bytes(&bytes).map_err(|_| unreadable())?;
        let bundle = Arc::new(Bundle::new(BundleKind::Collection, decoded.entries));
        self.shared.opened.put(opened_key, Arc::clone(&bundle));
        // A `forget_patient` that shredded the key while this read was
        // opening the record dropped the patient's entries before this
        // one existed.
        if !self.shared.kms.contains(key) {
            self.shared.opened.invalidate(&opened_key);
        }
        Ok(bundle)
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
                    merged.extend(bundle.iter().cloned());
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
    /// export-scope consent. Every record is opened before any is
    /// anchored, so the ledger records an export of exactly the records
    /// returned; the others are listed as unreadable.
    ///
    /// With one readable record the export is that record's export form
    /// and reversal map as cached, shared by `Arc`; with several, their
    /// entries and maps are merged in reference order.
    ///
    /// # Errors
    ///
    /// Fails without consent, when the patient has no records, or when
    /// none of them opens.
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
        let mut opened = Vec::with_capacity(references.len());
        let mut unreadable = Vec::new();
        for reference in references {
            match self.open_record(reference) {
                Ok(bundle) => opened.push((reference, bundle)),
                Err(_) => unreadable.push(reference),
            }
        }
        if let ([], [first, ..]) = (opened.as_slice(), unreadable.as_slice()) {
            return Err(ExportError::Unreadable(*first));
        }
        let pseudonyms = self.shared.pseudonyms.lock();
        let (bundle, reidentification) = if let [(reference, bundle)] = opened.as_slice() {
            let map = pseudonyms.get(reference).cloned().unwrap_or_default();
            (Arc::clone(bundle), map)
        } else {
            let mut merged = Bundle::new(BundleKind::Collection, Vec::new());
            let mut reidentification = HashMap::new();
            for (reference, bundle) in &opened {
                merged.extend(bundle.iter().cloned());
                if let Some(map) = pseudonyms.get(reference) {
                    reidentification.extend(map.iter().map(|(p, o)| (p.clone(), o.clone())));
                }
            }
            (Arc::new(merged), Arc::new(reidentification))
        };
        drop(pseudonyms);
        for (reference, _) in &opened {
            self.anchor_export(*reference, "full");
        }
        Ok(FullExport {
            bundle,
            reidentification,
            unreadable,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::build_pipeline;
    use crate::pipeline::IngestionPipeline;
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

    #[test]
    fn shredded_record_is_never_served_from_the_cache() {
        let pipeline = build_pipeline(36);
        let stored = |raw: u128| {
            let credential = pipeline.register_device(PatientId::from_raw(raw));
            let sealed = pipeline
                .seal_upload(&credential, &bundle_for(&format!("p{raw}"), true, true))
                .unwrap();
            let url = pipeline.submit(credential, sealed);
            pipeline.process_all();
            let Some(IngestionStatus::Stored { references }) = pipeline.status(url) else {
                panic!("stored")
            };
            references[0]
        };
        let export = pipeline.export_service();
        let patient = PatientId::from_raw(9);
        let reference = stored(9);
        let key = pipeline.shared.record_keys.lock()[&reference];
        let first = export.export_full(patient).unwrap();
        assert_eq!(pipeline.export_cache_entries(), [(reference, key)]);
        assert_eq!(export.export_full(patient).unwrap().bundle, first.bundle);

        // A shred through the KMS alone: the next read is unreadable and
        // drops the entry.
        pipeline.shared.kms.shred(key);
        assert_eq!(
            export.export_full(patient).unwrap_err(),
            ExportError::Unreadable(reference)
        );
        assert!(pipeline.export_cache_entries().is_empty());

        // `forget_patient` drops every cached record of the patient.
        let other = PatientId::from_raw(10);
        let kept = stored(11);
        let forgotten = [stored(10), stored(10)];
        let _ = export.export_full(other).unwrap();
        let _ = export.export_full(PatientId::from_raw(11)).unwrap();
        assert_eq!(pipeline.export_cache_entries().len(), 3);
        assert_eq!(pipeline.forget_patient(other), 2);
        let cached: Vec<ReferenceId> = pipeline
            .export_cache_entries()
            .into_iter()
            .map(|(r, _)| r)
            .collect();
        assert_eq!(cached, [kept]);
        assert!(forgotten.iter().all(|r| !cached.contains(r)));
    }

    /// `export_full` as it was before cached records were shared, kept as
    /// the oracle of `export_full_equals_the_merge_it_replaced`: each record
    /// opened cold and its stored entries cloned into a new collection, and
    /// each record's original → pseudonym map (`forward`) inverted on every
    /// read. It anchors nothing.
    fn merged_export(
        pipeline: &IngestionPipeline,
        patient: PatientId,
        forward: &HashMap<ReferenceId, HashMap<String, String>>,
    ) -> Result<FullExport, ExportError> {
        let shared = &pipeline.shared;
        if !shared.consent.lock().allows_export(patient, shared.study) {
            return Err(ExportError::NotConsented(patient));
        }
        let references = shared.lake.lock().references_of(patient);
        if references.is_empty() {
            return Err(ExportError::NothingToExport);
        }
        let export = Principal::Service("export".into());
        let open_cold = |reference: ReferenceId| -> Option<Bundle> {
            let raw = shared.lake.lock().get_latest(reference).ok()?.data.clone();
            let key = *shared.record_keys.lock().get(&reference)?;
            let sealed: hc_crypto::aead::Sealed = serde_json::from_slice(&raw).ok()?;
            let bytes = shared.kms.open(&export, key, &sealed, b"at-rest").ok()?;
            Bundle::from_bytes(&bytes).ok()
        };
        let mut opened = Vec::new();
        let mut unreadable = Vec::new();
        for reference in references {
            match open_cold(reference) {
                Some(bundle) => opened.push((reference, bundle)),
                None => unreadable.push(reference),
            }
        }
        if let ([], [first, ..]) = (opened.as_slice(), unreadable.as_slice()) {
            return Err(ExportError::Unreadable(*first));
        }
        let mut merged = Bundle::new(BundleKind::Collection, Vec::new());
        let mut reidentification = HashMap::new();
        for (reference, bundle) in &opened {
            merged.extend(bundle.iter().cloned());
            if let Some(map) = forward.get(reference) {
                for (original, pseudonym) in map {
                    reidentification.insert(pseudonym.clone(), original.clone());
                }
            }
        }
        Ok(FullExport {
            bundle: Arc::new(merged),
            reidentification: Arc::new(reidentification),
            unreadable,
        })
    }

    /// A one-record export shares the cached record, and every export,
    /// cold or cached, one record or several, some unreadable, equals the
    /// merge it replaced: the same entries in the same order, a collection,
    /// the same re-identification map and unreadable list.
    #[test]
    fn export_full_equals_the_merge_it_replaced() {
        use rand::Rng;
        let seed = soak_seed();
        let mut rng = hc_common::rng::seeded_stream(seed, 2);
        let pipeline = build_pipeline(seed);
        let shared = &pipeline.shared;
        let salt = shared.study.as_u128().to_le_bytes();
        let mut forward = HashMap::new();
        let patients = 1..=10u128;
        for raw in patients.clone() {
            // Patients 1 and 2 have one record and 3 has three; the rest
            // have one to four.
            let records = match raw {
                1 | 2 => 1,
                3 => 3,
                _ => rng.gen_range(1..=4u32),
            };
            let credential = pipeline.register_device(PatientId::from_raw(raw));
            for n in 0..records {
                let pid = format!("p{raw}");
                let mut bundle = bundle_for(&pid, true, true);
                bundle.entries.push(Resource::Observation(Observation {
                    id: format!("{pid}-r{n}"),
                    subject: pid.clone(),
                    code: CodeableConcept::hba1c(),
                    value: Quantity::new(rng.gen_range(40..90u32) as f64 / 10.0, "%"),
                    effective: SimDate(n),
                }));
                let sealed = pipeline.seal_upload(&credential, &bundle).unwrap();
                let url = pipeline.submit(credential, sealed);
                pipeline.process_all();
                let Some(IngestionStatus::Stored { references }) = pipeline.status(url) else {
                    panic!("stored")
                };
                let pseudonyms = hc_privacy::phi::deidentify_bundle(
                    &bundle,
                    &hc_privacy::phi::DeidConfig::default(),
                    &salt,
                )
                .pseudonyms;
                forward.insert(references[0], pseudonyms);
            }
        }
        // Patient 2's only record and patient 3's middle one are shredded,
        // and a few more at random.
        let mut shredded: Vec<ReferenceId> = [2u128, 3]
            .iter()
            .map(|&raw| {
                let references = shared.lake.lock().references_of(PatientId::from_raw(raw));
                references[references.len() / 2]
            })
            .collect();
        for raw in 4..=10u128 {
            for reference in shared.lake.lock().references_of(PatientId::from_raw(raw)) {
                if rng.gen_range(0..6u32) == 0 {
                    shredded.push(reference);
                }
            }
        }
        for reference in &shredded {
            let key = shared.record_keys.lock()[reference];
            shared.kms.shred(key);
        }

        let export = pipeline.export_service();
        // The (several readable records, some unreadable) shape of each
        // compared export.
        let mut shapes = BTreeSet::new();
        for raw in patients {
            let patient = PatientId::from_raw(raw);
            let records = shared.lake.lock().references_of(patient).len();
            let expected = merged_export(&pipeline, patient, &forward);
            let reads = [export.export_full(patient), export.export_full(patient)];
            for read in &reads {
                let context = format!("seed {seed} p{raw}");
                let (Ok(full), Ok(merged)) = (read, &expected) else {
                    assert_eq!(read.as_ref().err(), expected.as_ref().err(), "{context}");
                    continue;
                };
                assert_eq!(full.bundle.kind, BundleKind::Collection, "{context}");
                assert_eq!(full.bundle.entries, merged.bundle.entries, "{context}");
                assert_eq!(full.reidentification, merged.reidentification, "{context}");
                assert_eq!(full.unreadable, merged.unreadable, "{context}");
                let unreadable = merged.unreadable.len();
                shapes.insert((records - unreadable > 1, unreadable > 0));
            }
            // A one-record patient's second read is the cached record and
            // map themselves.
            if let [Ok(first), Ok(second)] = &reads {
                if records - first.unreadable.len() == 1 {
                    assert!(Arc::ptr_eq(&first.bundle, &second.bundle), "seed {seed} p{raw}");
                    assert!(Arc::ptr_eq(&first.reidentification, &second.reidentification));
                }
            }
        }
        for shape in [(false, false), (true, false), (true, true)] {
            assert!(shapes.contains(&shape), "seed {seed}: {shapes:?}");
        }
    }

    /// The export cache lists exactly what it admitted: a record it refused
    /// is counted under `ingest.export_cache.refused` and never listed.
    #[test]
    fn refused_records_are_counted_and_never_listed() {
        let pipeline = build_pipeline(37);
        let registry = hc_telemetry::Registry::new();
        pipeline.enable_telemetry(&registry);
        // More one-record patients than the cache holds.
        let patients: Vec<PatientId> = (1..=160u128).map(PatientId::from_raw).collect();
        for &patient in &patients {
            let credential = pipeline.register_device(patient);
            let sealed = pipeline
                .seal_upload(&credential, &bundle_for(&format!("p{patient}"), true, true))
                .unwrap();
            pipeline.submit(credential, sealed);
        }
        pipeline.process_all();
        let export = pipeline.export_service();
        let refused = registry.counter("ingest.export_cache.refused");
        let mut refusals = 0;
        // The second pass reads every patient again: a record refused on
        // its first read is now read more often than most victims.
        for pass in 0..2 {
            for &patient in &patients {
                let before = refused.get();
                let full = export.export_full(patient).unwrap();
                let [reference] = pipeline.shared.lake.lock().references_of(patient)[..] else {
                    panic!("one record")
                };
                let listed = pipeline
                    .export_cache_entries()
                    .iter()
                    .any(|&(cached, _)| cached == reference);
                let was_refused = refused.get() > before;
                refusals += u64::from(was_refused);
                assert_eq!(listed, !was_refused, "pass {pass}, patient {patient}");
                assert_eq!(full.bundle.len(), 3);
            }
        }
        assert!(refusals > 0);
        assert_eq!(refused.get(), refusals);
        let listed = pipeline.export_cache_entries().len();
        assert!(listed <= OPENED_CAPACITY);
        assert_eq!(
            registry.snapshot().gauge("ingest.export_cache.entries"),
            Some(listed as i64)
        );
    }

    /// One step of the differential script. A `record` picks among the
    /// references stored so far, counting back from the newest.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Upload {
            patient: u128,
            consent: bool,
        },
        ExportFull {
            patient: u128,
        },
        ExportAnonymized,
        Share {
            record: usize,
            keep_observations: bool,
        },
        PutVersion {
            record: usize,
        },
        Tombstone {
            record: usize,
        },
        Purge {
            record: usize,
        },
        Forget {
            patient: u128,
        },
        Shred {
            record: usize,
        },
    }

    fn soak_seed() -> u64 {
        std::env::var("HC_SOAK_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x50AC)
    }

    /// A seeded mix of uploads, reads and invalidating writes over a few
    /// patients, ending with a shred between reads of one fresh record.
    fn differential_script(seed: u64) -> Vec<Step> {
        use rand::Rng;
        let mut rng = hc_common::rng::seeded_stream(seed, 1);
        let mut steps: Vec<Step> = (0..240)
            .map(|_| {
                let patient = rng.gen_range(1..=8u128);
                let record = rng.gen_range(0..8usize);
                match rng.gen_range(0..100u32) {
                    0..=21 => Step::Upload {
                        patient,
                        consent: rng.gen_range(0..10u32) != 0,
                    },
                    22..=61 => Step::ExportFull { patient },
                    62..=69 => Step::ExportAnonymized,
                    70..=79 => Step::Share {
                        record,
                        keep_observations: rng.gen_range(0..2u32) == 0,
                    },
                    80..=85 => Step::PutVersion { record },
                    86..=87 => Step::Tombstone { record },
                    88..=89 => Step::Purge { record },
                    90..=92 => Step::Forget { patient },
                    _ => Step::Shred { record },
                }
            })
            .collect();
        let patient = 101;
        steps.extend([
            Step::Upload {
                patient,
                consent: true,
            },
            Step::ExportFull { patient },
            Step::Shred { record: 0 },
            Step::ExportFull { patient },
        ]);
        steps
    }

    /// Runs `step` on `pipeline` and renders what it returned. `cold`
    /// empties the export cache before every read.
    fn run_step(
        pipeline: &IngestionPipeline,
        references: &mut Vec<ReferenceId>,
        index: usize,
        step: Step,
        cold: bool,
    ) -> String {
        let export = pipeline.export_service();
        let shared = &pipeline.shared;
        let pick = |record: usize| {
            (!references.is_empty())
                .then(|| references[references.len() - 1 - record % references.len()])
        };
        let key_of = |reference: ReferenceId| shared.record_keys.lock().get(&reference).copied();
        if cold
            && matches!(
                step,
                Step::ExportFull { .. } | Step::ExportAnonymized | Step::Share { .. }
            )
        {
            shared.opened.clear();
        }
        match step {
            Step::Upload { patient, consent } => {
                let pid = format!("p{patient}");
                let credential = pipeline.register_device(PatientId::from_raw(patient));
                let mut bundle = bundle_for(&pid, true, consent);
                if let Some(Resource::Observation(o)) = bundle.entries.get_mut(1) {
                    o.value = Quantity::new(4.0 + (index % 20) as f64 * 0.5, "%");
                }
                let sealed = pipeline.seal_upload(&credential, &bundle).unwrap();
                let url = pipeline.submit(credential, sealed);
                pipeline.process_all();
                let status = pipeline.status(url);
                if let Some(IngestionStatus::Stored { references: stored }) = &status {
                    references.extend(stored);
                }
                format!("{status:?}")
            }
            Step::ExportFull { patient } => {
                match export.export_full(PatientId::from_raw(patient)) {
                    Ok(full) => {
                        let mut map: Vec<_> = full.reidentification.iter().collect();
                        map.sort();
                        format!("{} {map:?} {:?}", full.bundle.to_json(), full.unreadable)
                    }
                    Err(e) => format!("{e:?}"),
                }
            }
            Step::ExportAnonymized => {
                format!("{:?}", export.export_anonymized().map(|b| b.to_json()))
            }
            Step::Share {
                record,
                keep_observations,
            } => {
                let Some(reference) = pick(record) else {
                    return "no records".into();
                };
                let keep: &[&str] = if keep_observations {
                    &["Observation"]
                } else {
                    &["Patient"]
                };
                format!("{:?}", export.share_partial_record(reference, keep))
            }
            Step::PutVersion { record } => {
                let Some(reference) = pick(record) else {
                    return "no records".into();
                };
                let Some(key) = key_of(reference) else {
                    return "no record key".into();
                };
                let version = Bundle::new(
                    BundleKind::Collection,
                    vec![Resource::Observation(Observation {
                        id: format!("v{index}"),
                        subject: "pseudonym".into(),
                        code: CodeableConcept::hba1c(),
                        value: Quantity::new(4.0 + (index % 20) as f64 * 0.5, "%"),
                        effective: SimDate(index as u32),
                    })],
                );
                let ingest = Principal::Service("ingest".into());
                let sealed = match shared
                    .kms
                    .seal(&ingest, key, &version.to_bytes(), b"at-rest")
                {
                    Ok(sealed) => sealed,
                    Err(e) => return format!("{e:?}"),
                };
                let dek = key.as_u128().to_string();
                let put = shared.lake.lock().put_version(
                    reference,
                    serde_json::to_vec(&sealed).unwrap(),
                    &[("enc", "envelope-v1"), ("dek", dek.as_str())],
                );
                format!("{put:?}")
            }
            Step::Tombstone { record } => match pick(record) {
                Some(reference) => format!("{:?}", shared.lake.lock().tombstone(reference)),
                None => "no records".into(),
            },
            Step::Purge { record } => match pick(record) {
                Some(reference) => format!("{:?}", shared.lake.lock().purge(reference)),
                None => "no records".into(),
            },
            Step::Forget { patient } => {
                format!("{}", pipeline.forget_patient(PatientId::from_raw(patient)))
            }
            Step::Shred { record } => match pick(record).and_then(key_of) {
                Some(key) => {
                    shared.kms.shred(key);
                    "shredded".into()
                }
                None => "no record key".into(),
            },
        }
    }

    /// The cache changes no observable: two pipelines from one seed run the
    /// same seeded script, one emptying the cache before every read, and
    /// agree on every result, the KMS audit log, the provenance tip and the
    /// simulated clock after every step.
    #[test]
    fn export_cache_differential_against_cold_reads() {
        let seed = soak_seed();
        let registry = hc_telemetry::Registry::new();
        let pipelines = [build_pipeline(seed), build_pipeline(seed)];
        pipelines[0].enable_telemetry(&registry);
        let mut references = [Vec::new(), Vec::new()];
        let observe = |pipeline: &IngestionPipeline| {
            let provenance = pipeline.shared.provenance.lock();
            let ledger = provenance.ledger();
            (
                pipeline.shared.kms.audit_log(),
                ledger.height(),
                ledger.blocks().last().map(|b| b.hash),
                provenance.pending_count(),
                pipeline.shared.lake.lock().clock().now(),
            )
        };
        for (index, step) in differential_script(seed).into_iter().enumerate() {
            let [warm_refs, cold_refs] = &mut references;
            let warm = run_step(&pipelines[0], warm_refs, index, step, false);
            let cold = run_step(&pipelines[1], cold_refs, index, step, true);
            assert_eq!(warm, cold, "seed {seed} step {index} {step:?}");
            assert_eq!(warm_refs, cold_refs, "seed {seed} step {index} {step:?}");
            assert!(
                observe(&pipelines[0]) == observe(&pipelines[1]),
                "seed {seed} step {index} {step:?}: audit log, provenance tip or clock diverged"
            );
        }
        let snapshot = registry.snapshot();
        let hits = snapshot.counter("ingest.export_cache.hits").unwrap_or(0);
        let misses = snapshot.counter("ingest.export_cache.misses").unwrap_or(0);
        assert!(
            hits > 20 && misses > 20,
            "seed {seed}: {hits} hits, {misses} misses"
        );
        assert_eq!(
            snapshot.gauge("ingest.export_cache.entries"),
            Some(pipelines[0].shared.opened.cache.len() as i64)
        );
    }
}
