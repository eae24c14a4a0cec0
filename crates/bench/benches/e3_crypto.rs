//! E3 — cryptographic primitive throughput: the shared-key vs
//! hash-based-signature cost comparison behind §IV-B1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hc_bench::payload;
use hc_crypto::aead::{self, SecretKey};
use hc_crypto::chacha20::{self, Nonce};
use hc_crypto::hmac;
use hc_crypto::merkle::MerkleTree;
use hc_crypto::ots::{self, MerkleSigner};
use hc_crypto::sha256;
use std::hint::black_box;

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_primitives");
    for size in [1024usize, 65_536] {
        let data = payload(size);
        group.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, d| {
            b.iter(|| black_box(sha256::hash(d)))
        });
        group.bench_with_input(BenchmarkId::new("hmac", size), &data, |b, d| {
            b.iter(|| black_box(hmac::hmac(b"key", d)))
        });
        let key = [7u8; 32];
        group.bench_with_input(BenchmarkId::new("chacha20", size), &data, |b, d| {
            b.iter(|| black_box(chacha20::encrypt(&key, &Nonce::from_counter(1), d)))
        });
    }
    group.finish();
}

fn bench_aead_vs_signature(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_aead_vs_signature");
    let key = SecretKey::from_bytes([9u8; 32]);
    for size in [1024usize, 16_384] {
        let data = payload(size);
        group.bench_with_input(BenchmarkId::new("aead_seal_open", size), &data, |b, d| {
            b.iter(|| {
                let sealed = aead::seal(&key, d, b"ctx");
                black_box(aead::open(&key, &sealed, b"ctx").unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("lamport_sign_verify", size), &data, |b, d| {
            let mut rng = hc_common::rng::seeded(3);
            b.iter(|| {
                let mut signer = MerkleSigner::generate(&mut rng, 0);
                let pk = signer.public_key();
                let sig = signer.sign(d).unwrap();
                black_box(ots::verify_merkle(&pk, d, &sig))
            })
        });
    }
    group.finish();
}

fn bench_merkle(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_merkle");
    for leaves in [64usize, 1024] {
        let data: Vec<Vec<u8>> = (0..leaves).map(|i| payload(32 + i % 16)).collect();
        group.bench_with_input(BenchmarkId::new("build", leaves), &data, |b, d| {
            b.iter(|| black_box(MerkleTree::from_leaves(d).root()))
        });
        let tree = MerkleTree::from_leaves(&data);
        let proof = tree.prove(leaves / 2);
        group.bench_with_input(
            BenchmarkId::new("verify_proof", leaves),
            &(tree.root(), proof),
            |b, (root, proof)| {
                b.iter(|| {
                    black_box(hc_crypto::merkle::verify_inclusion(
                        &data[leaves / 2],
                        proof,
                        root,
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_primitives, bench_aead_vs_signature, bench_merkle);
criterion_main!(benches);
