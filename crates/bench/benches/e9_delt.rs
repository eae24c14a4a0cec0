//! E9 — DELT fitting cost vs cohort size, and its baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hc_analytics::delt::{self, DeltConfig};
use hc_kb::emr::{EmrCohort, EmrConfig};
use std::hint::black_box;

fn bench_delt(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_delt_fit");
    for patients in [200usize, 800] {
        let cohort = EmrCohort::generate(
            EmrConfig {
                n_patients: patients,
                n_drugs: 30,
                planted_effects: vec![(0, -0.9), (1, -0.5)],
                ..EmrConfig::default()
            },
            9,
        );
        group.bench_with_input(BenchmarkId::new("delt_full", patients), &cohort, |b, cohort| {
            b.iter(|| black_box(delt::fit(cohort, &DeltConfig::default()).mse))
        });
        group.bench_with_input(
            BenchmarkId::new("marginal_baseline", patients),
            &cohort,
            |b, cohort| b.iter(|| black_box(delt::marginal_effects(cohort).len())),
        );
    }
    group.finish();
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_cohort_generation");
    group.bench_function("generate_500", |b| {
        b.iter(|| {
            black_box(
                EmrCohort::generate(
                    EmrConfig {
                        n_patients: 500,
                        ..EmrConfig::default()
                    },
                    9,
                )
                .patients
                .len(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_delt, bench_generation);
criterion_main!(benches);
