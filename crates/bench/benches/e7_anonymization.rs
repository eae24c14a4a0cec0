//! E7 — Mondrian k-anonymity and verification cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hc_privacy::kanon::{mondrian, QiRecord};
use hc_privacy::verify::{measure, verify_claim};
use rand::Rng;
use std::hint::black_box;

fn cohort(n: usize) -> Vec<QiRecord> {
    let mut rng = hc_common::rng::seeded(7);
    (0..n)
        .map(|_| {
            QiRecord::new(
                rng.gen_range(18..95),
                60_000 + rng.gen_range(0..5_000),
                rng.gen_range(0..3),
                ["E11.9", "I10", "J45.0"][rng.gen_range(0..3)],
            )
        })
        .collect()
}

fn bench_mondrian(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_mondrian");
    let records = cohort(2_000);
    for k in [2usize, 10, 50] {
        group.bench_with_input(BenchmarkId::new("k", k), &k, |b, &k| {
            b.iter(|| black_box(mondrian(&records, k).unwrap().information_loss))
        });
    }
    group.finish();
}

fn bench_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_verification");
    let records = cohort(2_000);
    let table = mondrian(&records, 10).unwrap();
    group.bench_function("measure_degree", |b| {
        b.iter(|| black_box(measure(&table.classes).k))
    });
    group.bench_function("verify_claim", |b| {
        b.iter(|| black_box(verify_claim(&table.classes, 10, 1).is_accepted()))
    });
    group.finish();
}

criterion_group!(benches, bench_mondrian, bench_verification);
criterion_main!(benches);
