//! E15 — resilience overhead and recovery cost.
//!
//! Measures (a) the wall-clock overhead the resilience layer adds to a
//! fault-free ingestion run, (b) end-to-end ingestion under an active
//! ledger partition (degraded mode: anchors stay pending in the
//! provenance network, then commit after the heal), and (c) the
//! pure-CPU cost of backoff-schedule generation.

use criterion::{criterion_group, criterion_main, Criterion};
use hc_common::clock::SimDuration;
use hc_common::fault::{FaultInjector, FaultKind, FaultSpec};
use hc_common::id::PatientId;
use hc_core::platform::{demo_bundle, HealthCloudPlatform, PlatformConfig};
use hc_ledger::consensus::FAULT_PIPELINE_PARTITION;
use hc_resilience::RetryPolicy;
use std::hint::black_box;

fn faulted_platform(partitioned: bool) -> (HealthCloudPlatform, FaultInjector) {
    let platform = HealthCloudPlatform::bootstrap(PlatformConfig {
        ledger_batch: 8,
        ..PlatformConfig::default()
    });
    let injector = FaultInjector::new(platform.clock.clone(), 0xE15);
    platform
        .pipeline
        .enable_resilience(platform.clock.clone(), injector.clone(), 0xE15);
    platform
        .provenance
        .lock()
        .ledger_mut()
        .cluster_mut()
        .attach_faults(injector.clone());
    if partitioned {
        injector.schedule(
            FAULT_PIPELINE_PARTITION,
            FaultSpec::always(FaultKind::NetworkPartition),
        );
    }
    (platform, injector)
}

fn bench_resilience(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_resilience");

    group.bench_function("ingest_one_resilient_fault_free", |b| {
        let (platform, _injector) = faulted_platform(false);
        let device = platform.register_patient_device(PatientId::from_raw(1));
        let bundle = demo_bundle("p1", true);
        b.iter(|| {
            platform.upload(&device, &bundle).unwrap();
            black_box(platform.process_ingestion())
        })
    });

    group.bench_function("ingest_one_degraded_then_heal", |b| {
        let (platform, injector) = faulted_platform(true);
        let device = platform.register_patient_device(PatientId::from_raw(1));
        let bundle = demo_bundle("p1", true);
        b.iter(|| {
            platform.upload(&device, &bundle).unwrap();
            platform.process_ingestion();
            // Heal, commit the pending anchors, and re-partition so the
            // next iteration starts degraded again.
            injector.heal(FAULT_PIPELINE_PARTITION);
            let committed = platform.provenance.lock().flush();
            injector.schedule(
                FAULT_PIPELINE_PARTITION,
                FaultSpec::always(FaultKind::NetworkPartition),
            );
            black_box(committed)
        })
    });

    group.bench_function("backoff_schedule_8_attempts", |b| {
        let policy = RetryPolicy::new(8, SimDuration::from_millis(10))
            .with_max_delay(SimDuration::from_secs(2))
            .with_total_budget(SimDuration::from_secs(30))
            .with_jitter(0.2);
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(policy.backoff_schedule(seed))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_resilience);
criterion_main!(benches);
