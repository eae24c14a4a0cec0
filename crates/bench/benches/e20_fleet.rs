//! E20 — distributed cache fleet: ring election, replica reads, and the
//! fleet-backed closed loop.
//!
//! The experiment's recorded table comes from
//! `cargo run --release --example experiments -- e20`; this bench tracks
//! that the ring rebuild stays cheap enough to run on every membership
//! change, that a replica read (ring lookup → fan-out → repair check) is
//! microseconds of driver cost, and that the fleet-backed serving loop
//! stays in the same budget as E19's.

use criterion::{criterion_group, criterion_main, Criterion};
use hc_cache::fleet::{CacheFleet, FleetConfig, HashRing};
use hc_cloudsim::net::Location;
use hc_common::clock::{SimClock, SimDuration, SimInstant};
use hc_common::conc::LoadCurve;
use hc_core::serving::{
    run_overload, FleetTierConfig, Protection, ServingConfig, ServingStack, WorkloadConfig,
};
use hc_resilience::timeout::TimeoutBudget;
use std::hint::black_box;

fn bench_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("e20_ring");
    // Rebuild (rendezvous election over every arc) happens once per
    // membership change, never on the read path.
    group.bench_function("rebuild_12_nodes_256_vnodes", |b| {
        b.iter(|| {
            let mut ring = HashRing::new(0xE20, 256);
            for n in 0..12 {
                ring.add_node(n);
            }
            black_box(ring.len())
        })
    });
    let mut ring = HashRing::new(0xE20, 256);
    for n in 0..12 {
        ring.add_node(n);
    }
    let mut key = 0u64;
    group.bench_function("replicas_r3", |b| {
        b.iter(|| {
            key = key.wrapping_add(1);
            black_box(ring.replicas(&key, 3))
        })
    });
    group.finish();
}

fn bench_fleet_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("e20_fleet_read");
    let clock = SimClock::new();
    let cfg = FleetConfig {
        node_capacity: 65_536,
        ..FleetConfig::default()
    };
    let mut fleet: CacheFleet<u64, u64> = CacheFleet::with_topology(cfg, clock.clone(), 3, 2);
    let client = Location::new(0, 99);
    for k in 0..16_384u64 {
        fleet.fill(&k, &k, 1, client);
    }
    let mut key = 0u64;
    group.bench_function("replicated_hit", |b| {
        b.iter(|| {
            key = (key + 1) % 16_384;
            let budget = TimeoutBudget::starting_now(&clock, SimDuration::from_secs(1));
            black_box(fleet.read(&key, client, &budget).is_hit())
        })
    });
    group.bench_function("invalidate_and_tick", |b| {
        b.iter(|| {
            key = (key + 1) % 16_384;
            fleet.write_invalidate(&key, client);
            clock.advance(SimDuration::from_millis(100));
            fleet.tick(clock.now());
            black_box(fleet.pending_deliveries())
        })
    });
    group.finish();
}

/// The E20 closed-loop shape at reduced scale: local tier in front of a
/// 3-region fleet, one node crashing mid-run.
fn bench_closed_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("e20_closed_loop");
    let at = |secs: u64| SimInstant::from_nanos(SimDuration::from_secs(secs).as_nanos());
    let config = || ServingConfig {
        cores: 32,
        hit_cost: SimDuration::from_micros(50),
        miss_cost: SimDuration::from_micros(800),
        origin_fetch_cost: SimDuration::from_millis(1),
        origin_cores: 4,
        cache_capacity: 2_048,
        cache_shards: 8,
        admission_rate: 1_500.0,
        admission_burst: 75.0,
        protection: Protection::Full,
        fleet: Some(FleetTierConfig {
            node_capacity: 8_192,
            crash_windows: vec![(0, at(6), at(10))],
            ..FleetTierConfig::default()
        }),
        ..ServingConfig::default()
    };
    let workload = || WorkloadConfig {
        curve: LoadCurve::new(62_500.0),
        req_per_user_per_sec: 0.02,
        tier_mix: [0.10, 0.60, 0.30],
        keyspace: 8_192,
        duration: SimDuration::from_secs(15),
        tick: SimDuration::from_millis(1),
        seed: 20,
        windows: Vec::new(),
    };
    group.bench_function("fleet_with_node_crash", |b| {
        b.iter(|| {
            let stack = ServingStack::new(SimClock::new(), config());
            let report = run_overload(stack, &workload());
            black_box(report.fleet.map(|f| f.hit_ratio))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ring, bench_fleet_read, bench_closed_loop);
criterion_main!(benches);
