//! E6 — end-to-end ingestion pipeline throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use hc_common::id::PatientId;
use hc_core::platform::{demo_bundle, HealthCloudPlatform, PlatformConfig};
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_ingestion");

    group.bench_function("upload_and_process_one", |b| {
        let platform = HealthCloudPlatform::bootstrap(PlatformConfig {
            ledger_batch: 64,
            ..PlatformConfig::default()
        });
        let device = platform.register_patient_device(PatientId::from_raw(1));
        let bundle = demo_bundle("p1", true);
        b.iter(|| {
            platform.upload(&device, &bundle).unwrap();
            black_box(platform.process_ingestion())
        })
    });

    group.bench_function("seal_upload_only", |b| {
        let platform = HealthCloudPlatform::bootstrap(PlatformConfig::default());
        let device = platform.register_patient_device(PatientId::from_raw(1));
        let bundle = demo_bundle("p1", true);
        b.iter(|| black_box(platform.pipeline.seal_upload(&device, &bundle).unwrap()))
    });

    group.bench_function("validate_only", |b| {
        let validator = hc_fhir::validation::Validator::strict();
        let bundle = demo_bundle("p1", true);
        b.iter(|| black_box(validator.validate_bundle(&bundle).is_valid()))
    });

    group.bench_function("deidentify_only", |b| {
        let bundle = demo_bundle("p1", true);
        let config = hc_privacy::phi::DeidConfig::default();
        b.iter(|| black_box(hc_privacy::phi::deidentify_bundle(&bundle, &config, b"salt")))
    });

    group.bench_function("malware_scan_16k", |b| {
        let scanner = hc_ingest::scanner::MalwareScanner::new();
        let data = hc_bench::payload(16_384);
        b.iter(|| black_box(scanner.scan(&data)))
    });

    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
