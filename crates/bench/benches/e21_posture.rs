//! E21 — posture scanner cost on the seeded 3-region deployment.
//!
//! The posture gate runs on every CI push, so its cost budget matters
//! the same way hc-lint's does (E17). Measured in three slices: the
//! snapshot capture (walks every subsystem's audit surface under its
//! lock), the pure rule evaluation over a captured snapshot, and the
//! combined capture + scan pass the CLI performs. The demo platform
//! boot is harness, not scanner, and is excluded from all three.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hc_posture::demo::{demo_config, plant_violations, DemoDeployment};
use hc_posture::scan::scan;
use hc_posture::snapshot::PlatformSnapshot;

fn bench_posture(c: &mut Criterion) {
    let mut demo = DemoDeployment::build(42).expect("demo builds");
    let planted = plant_violations(&mut demo).expect("plants apply");
    let config = demo_config();

    let mut group = c.benchmark_group("e21_posture");

    group.bench_function("snapshot_capture", |b| {
        b.iter(|| {
            let snap = PlatformSnapshot::capture(black_box(&demo.platform));
            assert!(snap.entity_count() > 0);
            black_box(snap.entity_count())
        })
    });

    let snapshot = PlatformSnapshot::capture(&demo.platform);
    group.bench_function("rule_evaluation", |b| {
        b.iter(|| {
            let outcome = scan(black_box(&snapshot), &config).expect("config valid");
            assert_eq!(outcome.findings.len(), planted.len());
            black_box(outcome.findings.len())
        })
    });

    group.bench_function("capture_and_scan", |b| {
        b.iter(|| {
            let snap = PlatformSnapshot::capture(black_box(&demo.platform));
            let outcome = scan(&snap, &config).expect("config valid");
            black_box(outcome.findings.len())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_posture);
criterion_main!(benches);
