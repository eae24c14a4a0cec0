//! E18 — multi-core scaling of the sharded serving hot path.
//!
//! Benchmarks the real [`ShardedCache`] single-thread op cost (global
//! lock vs 32 stripes), the closed-loop driver at 8 threads, and the
//! deterministic virtual-time contention model that produces the
//! recorded EXPERIMENTS.md table. The wall-clock rows are
//! host-dependent; the model rows are bit-reproducible.

use criterion::{criterion_group, criterion_main, Criterion};
use hc_cache::policy::LruCache;
use hc_cache::shard::{ShardRouter, ShardedCache};
use hc_common::conc::{self, SimOp};
use rand::Rng;
use std::hint::black_box;

const KEYS: usize = 4096;
const SEED: u64 = 18;

fn build_cache(shards: usize) -> ShardedCache<usize, u64, LruCache<usize, u64>> {
    let cache = ShardedCache::lru(KEYS / 4, shards, SEED);
    for k in 0..KEYS {
        cache.put(k, k as u64);
    }
    cache
}

fn bench_single_thread_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("e18_single_thread");
    for shards in [1usize, 32] {
        let cache = build_cache(shards);
        let mut rng = hc_common::rng::seeded(SEED);
        group.bench_function(format!("mixed_ops_{shards}_shards"), |b| {
            b.iter(|| {
                let k = conc::zipf_key(&mut rng, KEYS);
                if rng.gen_bool(0.10) {
                    cache.put(k, 1);
                } else {
                    black_box(cache.get(&k));
                }
            })
        });
    }
    group.finish();
}

fn bench_closed_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("e18_closed_loop");
    for shards in [1usize, 32] {
        let cache = build_cache(shards);
        group.bench_function(format!("threads8_{shards}_shards"), |b| {
            b.iter(|| {
                let report = conc::run_closed_loop(8, 2_000, SEED, |_, _, rng| {
                    let k = conc::zipf_key(rng, KEYS);
                    if rng.gen_bool(0.10) {
                        cache.put(k, 1);
                    } else {
                        black_box(cache.get(&k));
                    }
                });
                black_box(report.elapsed_ns)
            })
        });
    }
    group.finish();
}

fn bench_contention_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("e18_model");
    for (shards, threads) in [(1usize, 8usize), (32, 8)] {
        group.bench_function(format!("{shards}_shards_{threads}_threads"), |b| {
            b.iter(|| {
                let router = ShardRouter::new(shards, SEED);
                let report =
                    conc::simulate_locked_workload(shards, threads, 10_000, SEED, |_, _, rng| {
                        let k = conc::zipf_key(rng, KEYS);
                        SimOp {
                            lock: router.route(&k),
                            work_ns: 40,
                            hold_ns: if rng.gen_bool(0.10) { 220 } else { 140 },
                        }
                    });
                black_box(report.mops())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_thread_ops,
    bench_closed_loop,
    bench_contention_model
);
criterion_main!(benches);
