//! E5 — measured boot, quote verification, and the vTPM chain.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hc_attest::attestation::AttestationService;
use hc_attest::measure::{expected_pcrs, measured_boot, Component, Layer};
use hc_attest::tpm::{self, Tpm};
use std::hint::black_box;

fn stack(depth: usize) -> Vec<Component> {
    let layers = [Layer::Hardware, Layer::Hypervisor, Layer::Vm, Layer::Container];
    (0..depth)
        .map(|i| Component::new(layers[i], &format!("layer-{i}"), format!("v{i}").as_bytes()))
        .collect()
}

fn bench_boot_and_attest(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_boot_attest");
    for depth in [1usize, 4] {
        let stack = stack(depth);
        group.bench_with_input(BenchmarkId::new("full_cycle", depth), &stack, |b, stack| {
            let mut rng = hc_common::rng::seeded(5);
            let mut service = AttestationService::new();
            for component in stack {
                service.register_golden(component);
            }
            b.iter(|| {
                let mut tpm = Tpm::generate(&mut rng, "host");
                service.trust_signer(tpm.public_key());
                let quote = measured_boot(&mut tpm, stack, b"n").unwrap();
                black_box(service.verify_quote(&quote, stack, b"n").trusted)
            })
        });
    }
    group.finish();
}

fn bench_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_components");
    let stack = stack(4);
    group.bench_function("expected_pcrs", |b| {
        b.iter(|| black_box(expected_pcrs(&stack)))
    });
    group.bench_function("quote_signature_verify", |b| {
        let mut rng = hc_common::rng::seeded(6);
        let mut t = Tpm::generate(&mut rng, "host");
        let quote = measured_boot(&mut t, &stack, b"n").unwrap();
        b.iter(|| black_box(tpm::verify_quote_signature(&quote)))
    });
    group.bench_function("vtpm_spawn_and_certify", |b| {
        let mut rng = hc_common::rng::seeded(7);
        let mut hw = Tpm::generate(&mut rng, "hw");
        b.iter(|| {
            // A fresh parent every few spawns to avoid key exhaustion.
            if hw.certificate().is_none() && rand::Rng::gen_bool(&mut rng, 0.05) {
                hw = Tpm::generate(&mut rng, "hw");
            }
            match hw.spawn_vtpm(&mut rng, "vm") {
                Ok(vm) => black_box(tpm::verify_certificate(vm.certificate().unwrap())),
                Err(_) => {
                    hw = Tpm::generate(&mut rng, "hw");
                    true
                }
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_boot_and_attest, bench_components);
criterion_main!(benches);
