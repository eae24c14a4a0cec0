//! E4 — blockchain commit cost vs peer count and batch size, sequential
//! (`window = 1`) and pipelined (`window = 16`), plus the parallel
//! validation stream.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hc_common::clock::{SimClock, SimInstant};
use hc_common::id::TxId;
use hc_ledger::block::Transaction;
use hc_ledger::chain::Ledger;
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
        timestamp: SimInstant::ZERO,
    }
}

fn bench_consensus(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_consensus_propose");
    for peers in [4usize, 7, 13] {
        group.bench_with_input(BenchmarkId::from_parameter(peers), &peers, |b, &peers| {
            let mut cluster = PipelinedCluster::new(peers, 1, SimClock::new()).unwrap();
            b.iter(|| black_box(cluster.propose().unwrap().messages))
        });
    }
    group.finish();
}

fn bench_ledger_submit(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_ledger_submit");
    for batch in [1usize, 16, 64] {
        group.bench_with_input(BenchmarkId::new("batch", batch), &batch, |b, &batch| {
            let cluster = PipelinedCluster::new(4, 1, SimClock::new()).unwrap();
            let mut ledger = Ledger::new(cluster);
            ledger.install_policy(Box::new(ProvenancePolicy));
            let mut i = 0u128;
            b.iter(|| {
                let txs: Vec<Transaction> = (0..batch)
                    .map(|j| {
                        i += 1;
                        tx(i + j as u128)
                    })
                    .collect();
                black_box(ledger.submit(txs).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_verify_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_verify_chain");
    for height in [64usize, 512] {
        let cluster = PipelinedCluster::new(4, 1, SimClock::new()).unwrap();
        let mut ledger = Ledger::new(cluster);
        ledger.install_policy(Box::new(ProvenancePolicy));
        for i in 0..height {
            ledger.submit(vec![tx(i as u128)]).unwrap();
        }
        group.bench_with_input(BenchmarkId::from_parameter(height), &ledger, |b, l| {
            b.iter(|| black_box(l.verify_chain()))
        });
    }
    group.finish();
}

fn bench_pipelined_propose(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_pipelined_propose");
    for peers in [4usize, 7, 13] {
        group.bench_with_input(BenchmarkId::from_parameter(peers), &peers, |b, &peers| {
            let mut cluster = PipelinedCluster::new(peers, 16, SimClock::new()).unwrap();
            b.iter(|| black_box(cluster.propose().unwrap().messages))
        });
    }
    group.finish();
}

fn bench_submit_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_submit_stream");
    for workers in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                let mut i = 0u128;
                b.iter(|| {
                    let cluster = PipelinedCluster::new(4, 16, SimClock::new()).unwrap();
                    let mut ledger = Ledger::new(cluster);
                    ledger.install_policy(Box::new(ProvenancePolicy));
                    let batches: Vec<Vec<Transaction>> = (0..32)
                        .map(|_| {
                            (0..16)
                                .map(|_| {
                                    i += 1;
                                    tx(i)
                                })
                                .collect()
                        })
                        .collect();
                    black_box(ledger.submit_stream(batches, workers).unwrap())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_consensus,
    bench_ledger_submit,
    bench_verify_chain,
    bench_pipelined_propose,
    bench_submit_stream
);
criterion_main!(benches);
