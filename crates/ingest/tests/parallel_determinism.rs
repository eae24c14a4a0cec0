//! Determinism regression for the parallel ingest worker pool.
//!
//! The sequence-numbered merge in
//! `IngestionPipeline::process_all_parallel` promises that the worker
//! count is unobservable: same seed and same submissions must produce a
//! byte-identical anonymized export, identical per-upload terminal
//! statuses and identical [`PipelineStats`] for workers ∈ {1, 2, 8} and
//! for the serial path. The soak seed can be overridden with
//! `HC_SOAK_SEED` so CI can rotate seeds without a code change.

use std::sync::Arc;

use parking_lot::Mutex;

use hc_access::consent::ConsentRegistry;
use hc_common::clock::SimClock;
use hc_common::fault::{FaultInjector, FaultKind, FaultSpec};
use hc_common::id::{GroupId, PatientId};
use hc_crypto::kms::KeyManagementSystem;
use hc_fhir::bundle::{Bundle, BundleKind};
use hc_fhir::resource::{Consent, Gender, Observation, Patient, Resource};
use hc_fhir::types::{CodeableConcept, Quantity, SimDate};
use hc_ingest::pipeline::{IngestionPipeline, PipelineDeps, PipelineStats};
use hc_ledger::chain::Ledger;
use hc_ledger::consensus::PipelinedCluster;
use hc_ledger::policy::{MalwarePolicy, ProvenancePolicy};
use hc_ledger::provenance::ProvenanceNetwork;
use hc_storage::datalake::DataLake;

fn soak_seed() -> u64 {
    std::env::var("HC_SOAK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD17E)
}

fn build_pipeline(seed: u64) -> IngestionPipeline {
    let clock = SimClock::new();
    let mut rng = hc_common::rng::seeded(seed);
    let kms = Arc::new(KeyManagementSystem::new(&mut rng));
    let lake = Arc::new(Mutex::new(DataLake::new(clock.clone())));
    let consent = Arc::new(Mutex::new(ConsentRegistry::new(clock.clone())));
    let cluster = PipelinedCluster::new(4, 1, clock).unwrap();
    let mut ledger = Ledger::new(cluster);
    ledger.install_policy(Box::new(ProvenancePolicy));
    ledger.install_policy(Box::new(MalwarePolicy));
    let provenance = Arc::new(Mutex::new(ProvenanceNetwork::new(ledger, 1)));
    IngestionPipeline::new(
        PipelineDeps {
            kms,
            lake,
            consent,
            provenance,
        },
        GroupId::from_raw(1),
        "diabetes-rwe",
        seed,
    )
}

/// A per-upload bundle whose clinical content varies with `i`, so the
/// export comparison is sensitive to record order and completeness.
fn upload_bundle(i: u64, with_consent: bool) -> Bundle {
    let mut entries = vec![
        Resource::Patient(
            Patient::builder("p1")
                .name("Doe", "Jane")
                .gender(Gender::Female)
                .birth_year(1950 + (i % 40) as u32)
                .phone("555-0100")
                .build(),
        ),
        Resource::Observation(Observation {
            id: "o1".into(),
            subject: "p1".into(),
            code: CodeableConcept::hba1c(),
            value: Quantity::new(5.0 + (i as f64) * 0.25, "%"),
            effective: SimDate(100 + i as u32),
        }),
    ];
    if with_consent {
        entries.push(Resource::Consent(Consent {
            id: "c1".into(),
            subject: "p1".into(),
            study: "diabetes-rwe".into(),
            granted: true,
        }));
    }
    Bundle::new(BundleKind::Transaction, entries)
}

/// Runs the canonical workload: 24 uploads, one in five missing
/// consent. `workers == 0` means the serial `process_all` path.
fn run_workload(seed: u64, workers: usize) -> (Vec<u8>, PipelineStats, Vec<String>) {
    let pipeline = build_pipeline(seed);
    let mut urls = Vec::new();
    for i in 0..24u64 {
        let credential = pipeline.register_device(PatientId::from_raw(100 + u128::from(i)));
        let bundle = upload_bundle(i, i % 5 != 3);
        let sealed = pipeline.seal_upload(&credential, &bundle).unwrap();
        urls.push(pipeline.submit(credential, sealed));
    }
    let processed = if workers == 0 {
        pipeline.process_all()
    } else {
        pipeline.process_all_parallel(workers)
    };
    assert_eq!(processed, 24, "every upload must be processed");
    let statuses = urls
        .iter()
        .map(|&url| format!("{:?}", pipeline.status(url).unwrap()))
        .collect();
    let export = pipeline
        .export_service()
        .export_anonymized()
        .expect("export must succeed");
    (export.to_bytes(), pipeline.stats(), statuses)
}

#[test]
fn parallel_ingest_is_deterministic_across_worker_counts() {
    let seed = soak_seed();
    let (baseline_bytes, baseline_stats, baseline_statuses) = run_workload(seed, 0);
    assert_eq!(baseline_stats.stored, 19, "24 uploads minus 5 unconsented");
    assert_eq!(baseline_stats.rejected_consent, 5);
    for workers in [1, 2, 8] {
        let (bytes, stats, statuses) = run_workload(seed, workers);
        assert_eq!(
            bytes, baseline_bytes,
            "export must be byte-identical with {workers} workers"
        );
        assert_eq!(
            stats, baseline_stats,
            "stats must be identical with {workers} workers"
        );
        assert_eq!(
            statuses, baseline_statuses,
            "per-upload statuses must be identical with {workers} workers"
        );
    }
}

#[test]
fn worker_pool_drains_under_injected_fault() {
    let seed = soak_seed().wrapping_add(1);
    let pipeline = build_pipeline(seed);
    let clock = SimClock::new();
    let injector = FaultInjector::new(clock.clone(), seed);
    // Four transient hits on the (ordered, single-threaded) store stage:
    // the first upload to commit exhausts the 4-attempt retry budget and
    // dead-letters; every later upload sees a healed stage.
    injector.schedule(
        "ingest.store",
        FaultSpec::always(FaultKind::TransientError).limit(4),
    );
    pipeline.enable_resilience(clock, injector, seed);
    let credential = pipeline.register_device(PatientId::from_raw(7));
    let mut urls = Vec::new();
    for i in 0..8u64 {
        let sealed = pipeline
            .seal_upload(&credential, &upload_bundle(i, true))
            .unwrap();
        urls.push(pipeline.submit(credential, sealed));
    }
    // A poison upload that dead-letters at validation, from a worker.
    let poison = pipeline
        .seal_raw_upload(&credential, b"{not a bundle")
        .unwrap();
    let poison_url = pipeline.submit(credential, poison);

    let processed = pipeline.process_all_parallel(4);
    assert_eq!(processed, 9, "the pool must drain despite faults");
    let stats = pipeline.stats();
    assert_eq!(stats.stored, 7, "uploads 2..8 store normally");
    assert_eq!(stats.dead_lettered, 2, "store-fault upload + poison");
    assert_eq!(stats.retried, 3, "three backoff retries before giving up");
    assert_eq!(pipeline.dead_letters().len(), 2);
    assert!(
        matches!(
            pipeline.status(urls[0]).unwrap(),
            hc_ingest::status::IngestionStatus::DeadLettered { ref stage, .. } if stage == "store"
        ),
        "first-committed upload dead-letters at store"
    );
    assert!(matches!(
        pipeline.status(poison_url).unwrap(),
        hc_ingest::status::IngestionStatus::DeadLettered { ref stage, .. } if stage == "validate"
    ));
}
