//! E19 — overload-safe serving: closed-loop SLO runs and the per-request
//! decision cost.
//!
//! Benchmarks the full closed loop (admission → shedding → deadline →
//! sharded cache → origin, with sampled ledger provenance) at a reduced
//! population for each protection level, and the hot-path cost of one
//! request decision. The experiment's recorded table comes from
//! `cargo run --release --example experiments -- e19`; this bench tracks
//! that the driver itself stays cheap enough to simulate millions of
//! users.

use criterion::{criterion_group, criterion_main, Criterion};
use hc_common::clock::{SimClock, SimDuration, SimInstant};
use hc_common::conc::LoadCurve;
use hc_core::serving::{
    run_overload, Protection, ServingConfig, ServingStack, WorkloadConfig,
};
use hc_resilience::admission::Tier;
use std::hint::black_box;

fn config(protection: Protection) -> ServingConfig {
    ServingConfig {
        cores: 1,
        hit_cost: SimDuration::from_micros(50),
        miss_cost: SimDuration::from_millis(2),
        origin_fetch_cost: SimDuration::from_micros(1_333),
        origin_cores: 1,
        cache_capacity: 16_384,
        cache_shards: 16,
        admission_rate: 2_000.0,
        admission_burst: 100.0,
        provenance_sample: 4_096,
        degraded_provenance_sample: 65_536,
        provenance_batch: 64,
        protection,
        ..ServingConfig::default()
    }
}

/// The E19 shape at 1/16 scale: cold start, diurnal steady state, 10x
/// flash crowd, recovery — ~25s of simulated time per iteration.
fn workload() -> WorkloadConfig {
    let at = |secs: u64| SimInstant::from_nanos(SimDuration::from_secs(secs).as_nanos());
    let day = 25;
    WorkloadConfig {
        curve: LoadCurve::new(62_500.0)
            .with_diurnal(0.25, SimDuration::from_secs(day))
            .with_flash_crowd(at(12), at(18), 10.0),
        req_per_user_per_sec: 0.02,
        tier_mix: [0.10, 0.60, 0.30],
        keyspace: 65_536,
        duration: SimDuration::from_secs(day),
        tick: SimDuration::from_millis(1),
        seed: 19,
        windows: Vec::new(),
    }
}

fn bench_closed_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("e19_closed_loop");
    for protection in [Protection::None, Protection::AdmissionOnly, Protection::Full] {
        group.bench_function(protection.label(), |b| {
            b.iter(|| {
                let stack = ServingStack::new(SimClock::new(), config(protection));
                let report = run_overload(stack, &workload());
                black_box(report.overall.within_slo())
            })
        });
    }
    group.finish();
}

fn bench_request_decision(c: &mut Criterion) {
    let mut group = c.benchmark_group("e19_request_decision");
    let clock = SimClock::new();
    let mut stack = ServingStack::new(clock.clone(), config(Protection::Full));
    // Warm the cache so the steady-state path (admit → observe → probe →
    // deadline → serve) dominates, not origin fills.
    for key in 0..16_384u64 {
        let _ = stack.request(Tier::Batch, key);
        clock.advance(SimDuration::from_micros(500));
        stack.drain(SimDuration::from_micros(500));
    }
    let mut key = 0u64;
    group.bench_function("full_protection_hit", |b| {
        b.iter(|| {
            key = (key + 1) % 16_384;
            let outcome = stack.request(Tier::Interactive, key);
            clock.advance(SimDuration::from_micros(500));
            stack.drain(SimDuration::from_micros(500));
            black_box(outcome.is_served())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_closed_loop, bench_request_decision);
criterion_main!(benches);
