//! Platform-wide fault-injection scenario (E15's correctness side).
//!
//! One scripted schedule drives three overlapping failures through a
//! booted platform — a provenance-ledger partition during ingestion, an
//! external AI-service outage, and a storage crash mid-WAL-append — and
//! verifies the resilience layer's end state:
//!
//! * only poison uploads are dead-lettered; clean and merely-unconsented
//!   uploads keep their normal outcomes;
//! * provenance events the partition leaves pending commit after the
//!   heal with zero loss;
//! * the circuit breaker routes requests around the dead AI service;
//! * WAL recovery leaves the data lake consistent;
//! * the whole run is deterministic — same seed, identical fault trace.
//!
//! A seeded soak then holds the provenance network to exactly-once
//! commitment across partition windows and a primary crash.

use hc_client::services::{
    Capability, ServiceError, ServiceRegistry, SimulatedService, SERVICE_FAULT_PREFIX,
};
use hc_common::clock::SimDuration;
use hc_common::fault::{FaultEvent, FaultInjector, FaultKind, FaultSpec};
use hc_common::id::PatientId;
use hc_core::platform::{demo_bundle, HealthCloudPlatform, PlatformConfig};
use hc_fhir::resource::Resource;
use hc_fhir::types::HumanName;
use hc_ingest::scanner::TEST_SIGNATURE;
use hc_ingest::status::IngestionStatus;
use hc_ledger::chain::ChainStatus;
use hc_ledger::consensus::{FAULT_PIPELINE_CRASH, FAULT_PIPELINE_PARTITION};
use hc_ledger::provenance::ProvenanceAction;
use hc_resilience::{BreakerState, HealthState};
use hc_storage::datalake::{LakeError, STORAGE_CRASH};

/// Runs the scripted scenario and returns the injector's fault trace
/// (used by the determinism test) after asserting every invariant.
fn run_scenario(seed: u64) -> Vec<FaultEvent> {
    let platform = HealthCloudPlatform::bootstrap(PlatformConfig {
        seed,
        ledger_batch: 1,
        ..PlatformConfig::default()
    });
    let injector = FaultInjector::new(platform.clock.clone(), seed);
    platform
        .pipeline
        .enable_resilience(platform.clock.clone(), injector.clone(), seed);

    // --- Phase 1: ledger partition during ingestion -------------------
    platform
        .provenance
        .lock()
        .ledger_mut()
        .cluster_mut()
        .attach_faults(injector.clone());
    injector.schedule(
        FAULT_PIPELINE_PARTITION,
        FaultSpec::always(FaultKind::NetworkPartition),
    );

    let patient = PatientId::from_raw(900);
    let device = platform.register_patient_device(patient);

    // A clean consented bundle, a poison payload, and an unconsented
    // bundle all arrive while the ledger is unreachable.
    let clean_url = platform.upload(&device, &demo_bundle("p900", true)).unwrap();
    let poison_sealed = platform
        .pipeline
        .seal_raw_upload(&device, b"{ this is not a bundle }")
        .unwrap();
    let poison_url = platform.pipeline.submit(device, poison_sealed);
    // A different patient whose bundle carries no consent resource.
    let other_device = platform.register_patient_device(PatientId::from_raw(901));
    let unconsented_url = platform
        .upload(&other_device, &demo_bundle("p901", false))
        .unwrap();
    assert_eq!(platform.process_ingestion(), 3);

    // Ingestion succeeded in degraded mode: data stored, anchors pending.
    let IngestionStatus::Stored { references } = platform.ingestion_status(clean_url).unwrap()
    else {
        panic!("clean bundle must store through the partition");
    };
    let record = references[0];
    // consent + ingested + anonymized, none committed
    assert_eq!(platform.provenance.lock().pending_count(), 3);
    assert_eq!(platform.refresh_health(), HealthState::Degraded(vec!["ingest".into()]));

    // Only the poison payload was dead-lettered.
    assert!(matches!(
        platform.ingestion_status(poison_url).unwrap(),
        IngestionStatus::DeadLettered { ref stage, .. } if stage == "validate"
    ));
    assert!(matches!(
        platform.ingestion_status(unconsented_url).unwrap(),
        IngestionStatus::Rejected { ref stage, .. } if stage == "consent"
    ));
    let stats = platform.pipeline.stats();
    assert_eq!(stats.dead_lettered, 1);
    assert_eq!(stats.stored, 1);
    assert_eq!(platform.pipeline.dead_letters().len(), 1);

    // --- Phase 2: AI-service outage, breaker routes around it ---------
    let mut registry = ServiceRegistry::new(platform.clock.clone());
    registry.set_fault_injector(injector.clone());
    registry.register(SimulatedService {
        name: "primary-nlu".into(),
        capability: Capability::NaturalLanguage,
        mean_latency: SimDuration::from_millis(20),
        jitter: 0.1,
        availability: 0.999,
        accuracy: 0.95,
    });
    registry.register(SimulatedService {
        name: "backup-nlu".into(),
        capability: Capability::NaturalLanguage,
        mean_latency: SimDuration::from_millis(45),
        jitter: 0.1,
        availability: 0.999,
        accuracy: 0.93,
    });
    let outage_point = format!("{SERVICE_FAULT_PREFIX}primary-nlu");
    injector.schedule(&outage_point, FaultSpec::always(FaultKind::HostCrash));

    let mut rng = hc_common::rng::seeded_stream(seed, 0xE15);
    // The scripted outage fails every direct call until the breaker trips.
    for _ in 0..3 {
        assert!(matches!(
            registry.invoke_resilient("primary-nlu", &mut rng),
            Err(ServiceError::Unavailable(_))
        ));
    }
    assert_eq!(registry.breaker_state("primary-nlu"), Some(BreakerState::Open));
    assert!(matches!(
        registry.invoke_resilient("primary-nlu", &mut rng),
        Err(ServiceError::CircuitOpen(_))
    ));
    // Failover serves the capability from the healthy backup.
    let (provider, _response) = registry
        .invoke_with_failover(Capability::NaturalLanguage, 0.9, &mut rng)
        .unwrap();
    assert_eq!(provider, "backup-nlu");

    // --- Phase 3: storage crash mid-WAL-append ------------------------
    injector.schedule(
        STORAGE_CRASH,
        FaultSpec::always(FaultKind::StorageCrash).limit(1),
    );
    {
        let mut lake = platform.lake.lock();
        lake.set_fault_injector(injector.clone());
        let mut lake_rng = hc_common::rng::seeded_stream(seed, 0x1A4E);
        assert_eq!(
            lake.try_put(&mut lake_rng, b"doomed write".to_vec(), &[]),
            Err(LakeError::CrashedMidWrite)
        );
        // Torn tail detected, discarded, and the lake verifies clean.
        let recovery = lake.recover_from_wal();
        assert!(recovery.torn_bytes_discarded > 0);
        assert!(recovery.consistent);
        assert!(lake.verify_against_wal().is_empty());
        // The crash budget is spent; the next write lands durably.
        let r = lake.try_put(&mut lake_rng, b"after".to_vec(), &[]).unwrap();
        assert_eq!(lake.get_latest(r).unwrap().data, b"after");
    }

    // --- Phase 4: heal everything, flush, verify zero loss ------------
    injector.heal(FAULT_PIPELINE_PARTITION);
    injector.heal(&outage_point);
    assert_eq!(platform.verify_ledger(), ChainStatus::Valid);
    assert_eq!(
        platform.provenance.lock().pending_count(),
        0,
        "the flush after the heal commits every pending anchor"
    );
    let history = platform.audit_record(record);
    let actions: Vec<ProvenanceAction> = history.iter().map(|e| e.action).collect();
    assert_eq!(
        actions,
        vec![ProvenanceAction::Ingested, ProvenanceAction::Anonymized],
        "no provenance event lost across the partition"
    );

    // The parked poison upload replays — and dead-letters again, since
    // the payload is still malformed (replay is idempotent, not magic).
    let report = platform.pipeline.replay_dead_letters();
    assert_eq!(report.replayed, 0);
    assert_eq!(report.requeued, 1);

    assert_eq!(platform.refresh_health(), HealthState::Healthy);
    injector.trace()
}

#[test]
fn scripted_fault_schedule_end_to_end() {
    let trace = run_scenario(0xF00D);
    // The schedule actually fired: partition hits, outage hits, one
    // storage crash, and three heals.
    assert!(trace.iter().any(|e| matches!(
        e,
        FaultEvent::Injected { kind: FaultKind::StorageCrash, .. }
    )));
    assert!(trace.iter().any(|e| matches!(
        e,
        FaultEvent::Injected { kind: FaultKind::HostCrash, .. }
    )));
    assert!(trace.iter().filter(|e| matches!(e, FaultEvent::Healed { .. })).count() >= 2);
}

#[test]
fn same_seed_same_fault_trace() {
    let first = run_scenario(0xD0_0D);
    let second = run_scenario(0xD0_0D);
    assert_eq!(first, second, "fault injection must be deterministic");
    let other = run_scenario(0xD0_0E);
    // A different seed still passes every invariant; the traces may
    // differ in timestamps/ordering details but both runs are internally
    // consistent. (No assertion on inequality: the schedule here is
    // mostly deterministic by construction.)
    assert!(!other.is_empty());
}

/// Soak schedule seed: `HC_SOAK_SEED` env override, default 0x50AC —
/// CI rotates two values so every run explores fresh fault schedules.
fn soak_seed() -> u64 {
    std::env::var("HC_SOAK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x50AC)
}

/// Exactly-once provenance: a seeded mix of uploads and full exports
/// runs through the facade while the provenance cluster loses its
/// quorum in seeded partition windows and crashes one primary. Some
/// uploads carry the malware scanner's test signature, and one privacy
/// scoring runs inside a window. Once the last window has closed and a
/// final `verify_ledger` has flushed, every recorded event is on the
/// chain exactly once, in recording order, and so is every malware and
/// privacy transaction.
#[test]
fn provenance_commits_every_event_exactly_once_across_partitions() {
    use rand::Rng;

    const OPS: usize = 240;
    const WINDOWS: u64 = 5;
    let seed = soak_seed();
    let platform = HealthCloudPlatform::bootstrap(PlatformConfig {
        seed,
        ledger_batch: 2,
        ..PlatformConfig::default()
    });
    let injector = FaultInjector::new(platform.clock.clone(), seed);
    platform
        .provenance
        .lock()
        .ledger_mut()
        .cluster_mut()
        .attach_faults(injector.clone());

    // Partition windows and one primary crash on the platform clock,
    // spread over the time the op stream covers.
    let mut rng = hc_common::rng::seeded_stream(seed, 0x50AC);
    let start = platform.clock.now();
    let mut last_close = start;
    let mut windows = Vec::new();
    for w in 0..WINDOWS {
        let from = start + SimDuration::from_millis(w * 120 + rng.gen_range(0..60));
        let until = from + SimDuration::from_millis(rng.gen_range(10..60));
        injector.schedule(
            FAULT_PIPELINE_PARTITION,
            FaultSpec::always(FaultKind::NetworkPartition).window(from, until),
        );
        last_close = last_close.max(until);
        windows.push(from..until);
    }
    injector.schedule(
        FAULT_PIPELINE_CRASH,
        FaultSpec::always(FaultKind::HostCrash)
            .limit(1)
            .starting(start + SimDuration::from_millis(rng.gen_range(0..WINDOWS * 120))),
    );

    // The first upload inside each window, and every seventh op's upload
    // outside them, carries the scanner's test signature. The first op
    // inside a window once two patients are stored also scores privacy.
    let mut patients: Vec<PatientId> = Vec::new();
    let mut records = Vec::new();
    let mut infected_windows = std::collections::BTreeSet::new();
    let mut infected = Vec::new();
    let mut privacy_scored = false;
    for op in 0..OPS {
        platform
            .clock
            .advance(SimDuration::from_millis(rng.gen_range(1..=3)));
        let window = windows
            .iter()
            .position(|w| w.contains(&platform.clock.now()));
        if patients.is_empty() || rng.gen_bool(0.6) {
            let patient = PatientId::from_raw(op as u128 + 1);
            let device = platform.register_patient_device(patient);
            let mut bundle = demo_bundle(&format!("p{op}"), true);
            let malware = match window {
                Some(w) => infected_windows.insert(w),
                None => op % 7 == 0,
            };
            if malware {
                let Resource::Patient(p) = &mut bundle.entries[0] else {
                    panic!("the demo bundle starts with its patient");
                };
                p.name = Some(HumanName::new(String::from_utf8_lossy(TEST_SIGNATURE), "X"));
            }
            let url = platform.upload(&device, &bundle).unwrap();
            assert_eq!(platform.process_ingestion(), 1);
            match platform.ingestion_status(url) {
                Some(IngestionStatus::Stored { references }) if !malware => {
                    records.extend(references);
                    patients.push(patient);
                }
                Some(IngestionStatus::Rejected { stage, .. })
                    if malware && stage == "malware-scan" =>
                {
                    infected.push(url.0.as_u128());
                }
                other => panic!("seed {seed}: upload {op} ended {other:?}"),
            }
        } else {
            let patient = patients[rng.gen_range(0..patients.len())];
            platform.export_service().export_full(patient).unwrap();
        }
        if window.is_some() && !privacy_scored && patients.len() >= 2 {
            assert!(platform.score_study_privacy(2).is_some(), "seed {seed}");
            privacy_scored = true;
        }
    }
    assert!(
        !infected_windows.is_empty() && privacy_scored,
        "seed {seed}: no malware upload or privacy scoring ran inside a partition window"
    );

    // Heal: the last window closes and the crashed primary restarts.
    if platform.clock.now() < last_close {
        platform.clock.advance_to(last_close);
    }
    {
        let mut provenance = platform.provenance.lock();
        let cluster = provenance.ledger_mut().cluster_mut();
        for peer in 0..cluster.peer_count() {
            cluster.set_faulty(peer, false);
        }
    }
    assert_eq!(platform.verify_ledger(), ChainStatus::Valid, "seed {seed}");

    let telemetry = platform.telemetry_snapshot();
    let events = telemetry.counter("ledger.provenance.events").unwrap_or(0);
    assert!(
        telemetry
            .counter("ledger.provenance.flush_failures")
            .unwrap_or(0)
            > 0,
        "seed {seed}: the partition windows never failed a flush"
    );
    assert!(
        injector.injected_count() > 0,
        "seed {seed}: the primary crash never fired"
    );
    let provenance = platform.provenance.lock();
    assert_eq!(provenance.pending_count(), 0, "seed {seed}");
    let ids: Vec<u128> = provenance
        .ledger()
        .channel_transactions("provenance")
        .iter()
        .map(|tx| tx.id.as_u128())
        .collect();
    assert_eq!(
        ids,
        (1..=u128::from(events)).collect::<Vec<_>>(),
        "seed {seed}: every recorded event commits exactly once, in order"
    );
    let detections: Vec<u128> = provenance
        .ledger()
        .channel_transactions("malware")
        .iter()
        .map(|tx| tx.id.as_u128())
        .collect();
    assert_eq!(
        detections, infected,
        "seed {seed}: every malware detection commits exactly once, in order"
    );
    assert_eq!(
        provenance.ledger().channel_transactions("privacy").len(),
        1,
        "seed {seed}: the privacy score commits exactly once"
    );
    drop(provenance);
    for record in records {
        let actions: Vec<ProvenanceAction> = platform
            .audit_record(record)
            .iter()
            .map(|e| e.action)
            .collect();
        assert_eq!(
            actions.get(..2),
            Some(&[ProvenanceAction::Ingested, ProvenanceAction::Anonymized][..]),
            "seed {seed}: record {record:?}"
        );
    }
}
