//! End-to-end platform lifecycle: registration → consented ingestion →
//! export → audit → right-to-forget.

use hc_access::model::{Action, Permission, ResourceKind};
use hc_common::id::{KeyId, PatientId, Principal};
use hc_core::monitoring;
use hc_core::platform::{demo_bundle, HealthCloudPlatform, PlatformConfig};
use hc_crypto::aead::Sealed;
use hc_crypto::sha256;
use hc_ingest::export::ExportError;
use hc_ingest::status::IngestionStatus;
use hc_ledger::chain::ChainStatus;
use hc_ledger::provenance::ProvenanceAction;

fn platform() -> HealthCloudPlatform {
    HealthCloudPlatform::bootstrap(PlatformConfig {
        ledger_batch: 1,
        ..PlatformConfig::default()
    })
}

#[test]
fn full_patient_data_lifecycle() {
    let platform = platform();

    // Clinician and researcher with scoped roles.
    let (_clinician, clinician_token) = platform.register_user("dr-lee", b"pw1", "clinician");
    let (_researcher, researcher_token) = platform.register_user("ana", b"pw2", "researcher");

    // A patient device uploads a consented bundle.
    let patient = PatientId::from_raw(501);
    let device = platform.register_patient_device(patient);
    let url = platform.upload(&device, &demo_bundle("p501", true)).unwrap();
    assert_eq!(platform.process_ingestion(), 1);
    let IngestionStatus::Stored { references } = platform.ingestion_status(url).unwrap() else {
        panic!("upload should store");
    };
    let record = references[0];

    // RBAC: clinician may write PHI, researcher may not read it.
    assert!(platform
        .authorize(
            &clinician_token,
            Permission::new(ResourceKind::PatientData, Action::Write),
            "upload"
        )
        .is_ok());
    assert!(platform
        .authorize(
            &researcher_token,
            Permission::new(ResourceKind::PatientData, Action::Read),
            "read-phi"
        )
        .is_err());

    // Researcher receives the anonymized export: no PHI inside.
    let export = platform.export_service();
    let merged = export.export_anonymized().unwrap();
    assert_eq!(merged.len(), 3);
    assert!(!merged.to_json().contains("Jane"));
    assert!(!merged.to_json().contains("555-0100"));

    // Full export is consented (in-bundle consent granted FULL scope).
    let full = export.export_full(patient).unwrap();
    assert!(full.reidentification.values().any(|v| v == "p501"));

    // The audit trail shows the whole story, in order.
    assert_eq!(platform.verify_ledger(), ChainStatus::Valid);
    let history = platform.audit_record(record);
    let actions: Vec<ProvenanceAction> = history.iter().map(|e| e.action).collect();
    assert_eq!(
        actions,
        vec![
            ProvenanceAction::Ingested,
            ProvenanceAction::Anonymized,
            ProvenanceAction::Exported, // anonymized export
            ProvenanceAction::Exported, // full export
        ]
    );

    // At rest the record is a sealed envelope under the KMS key its `dek`
    // tag names; it opens to the exact bytes the `Ingested` event hashed,
    // and the lake agrees with its WAL.
    let (stored, dek) = {
        let mut lake = platform.lake.lock();
        let version = lake.get_latest(record).unwrap();
        (version.data.clone(), version.tags["dek"].clone())
    };
    let sealed: Sealed = serde_json::from_slice(&stored).unwrap();
    let opened = platform
        .kms
        .open(
            &Principal::Service("export".into()),
            KeyId::from_raw(dek.parse().unwrap()),
            &sealed,
            b"at-rest",
        )
        .unwrap();
    assert_eq!(sha256::hash(&opened), history[0].data_hash);
    assert!(platform.lake.lock().verify_against_wal().is_empty());

    // Right-to-forget destroys the record and anchors the deletion.
    assert_eq!(platform.forget_patient(patient), 1);
    let history = platform.audit_record(record);
    assert_eq!(history.last().unwrap().action, ProvenanceAction::Deleted);
    assert!(export.export_anonymized().unwrap().is_empty());

    // Monitoring sees a healthy platform.
    let report = monitoring::collect(&platform);
    assert_eq!(report.pipeline.stored, 1);
    assert_eq!(report.live_records, 0);
    assert!(monitoring::alarms(&report).is_empty());
}

#[test]
fn unconsented_upload_is_rejected_and_counted() {
    let platform = platform();
    let device = platform.register_patient_device(PatientId::from_raw(1));
    let url = platform.upload(&device, &demo_bundle("p1", false)).unwrap();
    platform.process_ingestion();
    assert!(matches!(
        platform.ingestion_status(url).unwrap(),
        IngestionStatus::Rejected { ref stage, .. } if stage == "consent"
    ));
    let report = monitoring::collect(&platform);
    assert_eq!(report.pipeline.rejected_consent, 1);
    assert_eq!(report.live_records, 0);
}

#[test]
fn many_patients_parallel_ingestion() {
    let platform = platform();
    let mut urls = Vec::new();
    for i in 0..30u128 {
        let device = platform.register_patient_device(PatientId::from_raw(i + 1));
        let url = platform
            .upload(&device, &demo_bundle(&format!("p{i}"), true))
            .unwrap();
        urls.push(url);
    }
    let processed = platform.pipeline.process_all_parallel(4);
    assert_eq!(processed, 30);
    assert!(urls
        .iter()
        .all(|u| platform.ingestion_status(*u).unwrap().is_stored()));
    assert_eq!(platform.verify_ledger(), ChainStatus::Valid);
    // 30 records × 3 events (consent-granted, ingested, anonymized),
    // batch size 1 → 90 blocks, all consensus-committed with contiguous
    // heights (verified above).
    let provenance = platform.provenance.lock();
    assert_eq!(provenance.ledger().height(), 90);
}

#[test]
fn full_export_returns_and_records_only_the_records_it_opens() {
    // The default batch leaves events pending until `verify_ledger`
    // commits them.
    let platform = HealthCloudPlatform::bootstrap(PlatformConfig::default());
    let patient = PatientId::from_raw(77);
    let device = platform.register_patient_device(patient);
    let records: Vec<_> = ["p77a", "p77b", "p77c"]
        .into_iter()
        .map(|id| {
            let url = platform.upload(&device, &demo_bundle(id, true)).unwrap();
            platform.process_ingestion();
            let Some(IngestionStatus::Stored { references }) = platform.ingestion_status(url)
            else {
                panic!("upload of {id} should store");
            };
            references[0]
        })
        .collect();
    let key_of = |record| {
        let mut lake = platform.lake.lock();
        let dek = &lake.get_latest(record).unwrap().tags["dek"];
        KeyId::from_raw(dek.parse().unwrap())
    };
    let shredded = records[1];
    platform.kms.shred(key_of(shredded));

    let export = platform.export_service();
    let full = export.export_full(patient).unwrap();
    assert_eq!(full.unreadable, [shredded]);
    assert_eq!(full.bundle.len(), 2 * 3, "two records of three resources");
    let exported = |record| {
        platform
            .audit_record(record)
            .iter()
            .filter(|e| e.action == ProvenanceAction::Exported)
            .count()
    };
    assert_eq!(platform.verify_ledger(), ChainStatus::Valid);
    let counts: Vec<usize> = records.iter().map(|&r| exported(r)).collect();
    assert_eq!(counts, [1, 0, 1]);

    // With no record left to open, the export fails and records nothing.
    platform.kms.shred(key_of(records[0]));
    platform.kms.shred(key_of(records[2]));
    assert!(matches!(
        export.export_full(patient),
        Err(ExportError::Unreadable(r)) if records.contains(&r)
    ));
    assert_eq!(platform.verify_ledger(), ChainStatus::Valid);
    let counts: Vec<usize> = records.iter().map(|&r| exported(r)).collect();
    assert_eq!(counts, [1, 0, 1]);
}
