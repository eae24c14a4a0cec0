//! Each stored byte is held once. A lake version's bytes are a view of the
//! payload inside the write-ahead-log frame that logged them, not a copy
//! of their own, for a routine device upload and for a lab history alike.

use std::collections::HashMap;

use hc_common::id::PatientId;
use hc_core::platform::{HealthCloudPlatform, PlatformConfig};
use hc_fhir::bundle::Bundle;
use hc_fhir::resource::{Consent, Resource};
use hc_ingest::status::IngestionStatus;
use hc_kb::emr::{EmrCohort, EmrConfig};
use hc_storage::wal::WalOp;

/// The first patient of a cohort with `observations` measurement days, and
/// a consent to the default study so ingestion stores the bundle.
fn consented_bundle(observations: usize, seed: u64) -> Bundle {
    let cohort = EmrCohort::generate(
        EmrConfig {
            n_patients: 1,
            measurements_per_patient: observations,
            exposures_per_patient: 0.0,
            ..EmrConfig::default()
        },
        seed,
    );
    let mut bundle = cohort.patient_bundle(0);
    bundle.entries.push(Resource::Consent(Consent {
        id: "emr-p0-consent".into(),
        subject: "emr-p0".into(),
        study: PlatformConfig::default().study_name,
        granted: true,
    }));
    bundle
}

/// Where each record's bytes lie: (address, length) per version, in
/// version order.
type Placement = HashMap<u128, Vec<(*const u8, usize)>>;

#[test]
fn every_live_version_is_the_payload_its_wal_frame_holds() {
    let platform = HealthCloudPlatform::bootstrap(PlatformConfig::default());
    // A routine device upload (~2.4 KB) and a lab history (~70 KB).
    let uploads = [consented_bundle(10, 1), consented_bundle(400, 2)];
    assert!(
        uploads[1].to_bytes().len() > 60_000,
        "a lab-history-sized bundle"
    );
    for (raw, bundle) in (1..).zip(&uploads) {
        let device = platform.register_patient_device(PatientId::from_raw(raw));
        let url = platform.upload(&device, bundle).unwrap();
        platform.process_ingestion();
        assert!(matches!(
            platform.ingestion_status(url),
            Some(IngestionStatus::Stored { .. })
        ));
    }

    let mut lake = platform.lake.lock();
    let mut held = Placement::new();
    for record in lake.audit_records() {
        assert!(!record.tombstoned);
        for version in &record.versions {
            let data = &lake
                .get_version(record.reference, version.version)
                .unwrap()
                .data;
            held.entry(record.reference.as_u128())
                .or_default()
                .push((data.as_ptr(), data.len()));
        }
    }
    let mut logged = Placement::new();
    let corruption = lake.wal().visit(|r| {
        if r.op == WalOp::Put {
            logged
                .entry(r.key)
                .or_default()
                .push((r.payload.as_ptr(), r.payload.len()));
        }
    });
    assert_eq!(corruption, None);
    assert_eq!(held.len(), uploads.len());
    let largest = held.values().flatten().map(|&(_, len)| len).max();
    assert!(
        largest > Some(100_000),
        "the lab history's envelope is stored"
    );
    assert_eq!(held, logged, "each version's bytes are its logged payload");
    assert!(lake.verify_against_wal().is_empty());
}
