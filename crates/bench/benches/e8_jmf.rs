//! E8 — JMF and baseline factorization cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hc_analytics::jmf::{self, JmfConfig};
use hc_analytics::mf::{self, MfConfig};
use hc_kb::biobank::{
    disease_similarity_sources, drug_similarity_sources, Biobank, BiobankConfig,
};
use std::hint::black_box;

fn bench_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_fit");
    let bank = Biobank::generate(
        &BiobankConfig {
            n_drugs: 60,
            n_diseases: 45,
            n_clusters: 4,
            ..BiobankConfig::default()
        },
        8,
    );
    let (train, _) = bank.split_associations(0.25, 8);
    let drug_sims = drug_similarity_sources(&bank);
    let disease_sims = disease_similarity_sources(&bank);

    for iters in [20usize, 60] {
        group.bench_with_input(BenchmarkId::new("jmf", iters), &iters, |b, &iters| {
            let config = JmfConfig {
                k: 8,
                iters,
                ..JmfConfig::default()
            };
            b.iter(|| black_box(jmf::fit(&train, &drug_sims, &disease_sims, &config, 8).final_loss))
        });
        group.bench_with_input(BenchmarkId::new("mf", iters), &iters, |b, &iters| {
            let config = MfConfig {
                k: 8,
                iters,
                ..MfConfig::default()
            };
            b.iter(|| black_box(mf::factorize(&train, &config, 8).final_loss))
        });
    }
    group.finish();
}

fn bench_similarity_sources(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_similarity_matrices");
    let bank = Biobank::generate(
        &BiobankConfig {
            n_drugs: 120,
            n_diseases: 90,
            ..BiobankConfig::default()
        },
        9,
    );
    group.bench_function("drug_sources_120", |b| {
        b.iter(|| black_box(drug_similarity_sources(&bank).len()))
    });
    group.bench_function("disease_sources_90", |b| {
        b.iter(|| black_box(disease_similarity_sources(&bank).len()))
    });
    group.finish();
}

criterion_group!(benches, bench_fit, bench_similarity_sources);
criterion_main!(benches);
