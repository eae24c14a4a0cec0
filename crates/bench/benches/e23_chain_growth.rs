//! E23 — chain growth under checkpointing: seal + prune cost as the
//! ledger grows, and the cost of serving compact audit proofs from a
//! pruned chain.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hc_common::clock::{SimClock, SimInstant};
use hc_common::id::TxId;
use hc_ledger::block::Transaction;
use hc_ledger::chain::{CheckpointConfig, Ledger};
use hc_ledger::consensus::PipelinedCluster;
use hc_ledger::policy::ProvenancePolicy;
use std::hint::black_box;

fn tx(i: u128) -> Transaction {
    Transaction {
        id: TxId::from_raw(i),
        channel: "provenance".into(),
        kind: "ingested".into(),
        payload: format!("record={i}").into_bytes(),
        submitter: "bench".into(),
        timestamp: SimInstant::from_nanos(i as u64),
    }
}

fn grown_ledger(blocks: u64, interval: u64) -> Ledger {
    let cluster = PipelinedCluster::new(4, 1, SimClock::new()).unwrap();
    let mut ledger = Ledger::new(cluster);
    ledger.install_policy(Box::new(ProvenancePolicy));
    ledger.enable_checkpoints(CheckpointConfig::every(interval));
    for b in 0..blocks as u128 {
        let txs: Vec<Transaction> = (0..4).map(|j| tx(b * 4 + j + 1)).collect();
        ledger.submit(txs).unwrap();
    }
    ledger
}

/// Streaming commits with checkpoint sealing and pruning folded in —
/// the steady-state cost of a bounded-storage ledger.
fn bench_grow_and_prune(c: &mut Criterion) {
    let mut group = c.benchmark_group("e23_grow_and_prune");
    for blocks in [128u64, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(blocks), &blocks, |b, &blocks| {
            b.iter(|| {
                let cluster = PipelinedCluster::new(4, 16, SimClock::new()).unwrap();
                let mut ledger = Ledger::new(cluster);
                ledger.install_policy(Box::new(ProvenancePolicy));
                ledger.enable_checkpoints(CheckpointConfig::every(16));
                let batches: Vec<Vec<Transaction>> = (0..blocks as u128)
                    .map(|i| (0..4).map(|j| tx(i * 4 + j + 1)).collect())
                    .collect();
                ledger.submit_stream(batches, 4).unwrap();
                black_box(ledger.prune())
            })
        });
    }
    group.finish();
}

/// Serving a block-header proof from a pruned chain: Merkle path plus
/// the checkpoint fold, no chain replay.
fn bench_prove_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("e23_prove_block");
    for blocks in [128u64, 1024] {
        let mut ledger = grown_ledger(blocks, 16);
        ledger.prune();
        group.bench_with_input(BenchmarkId::from_parameter(blocks), &ledger, |b, l| {
            let mut h = 0u64;
            let covered = l.latest_checkpoint().unwrap().end_height;
            b.iter(|| {
                h = (h + 17) % covered;
                black_box(l.prove_block(h).unwrap())
            })
        });
    }
    group.finish();
}

/// Verifying proofs auditor-side: stateless, against the checkpoint.
fn bench_verify_proofs(c: &mut Criterion) {
    let mut group = c.benchmark_group("e23_verify_proof");
    let mut ledger = grown_ledger(512, 16);
    ledger.prune();
    let ckpt = *ledger.latest_checkpoint().unwrap();
    let block_proof = ledger.prove_block(3).unwrap();
    let event_proof = ledger
        .prove_event(ledger.pruned_below(), TxId::from_raw(ledger.pruned_below() as u128 * 4 + 1))
        .unwrap();
    group.bench_function("block", |b| b.iter(|| black_box(block_proof.verify(&ckpt))));
    group.bench_function("event", |b| b.iter(|| black_box(event_proof.verify(&ckpt))));
    group.bench_function("prefix", |b| {
        let ckpts = ledger.checkpoints();
        let proof = ledger.prove_prefix(0, ckpts.len() as u64 - 1).unwrap();
        b.iter(|| black_box(proof.verify(&ckpts[0], ckpts.last().unwrap())))
    });
    group.finish();
}

criterion_group!(benches, bench_grow_and_prune, bench_prove_block, bench_verify_proofs);
criterion_main!(benches);
