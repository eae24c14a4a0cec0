//! Cross-crate caching behaviour: the multi-level hierarchy under a
//! Zipf-like workload, knowledge-base caching, and client caching — the
//! paper's "orders of magnitude" claim measured on simulated time.

use hc_cache::multilevel::{CacheHierarchy, HitLevel};
use hc_cache::policy::{LfuCache, LruCache};
use hc_common::clock::{SimClock, SimDuration};
use hc_kb::biobank::{Biobank, BiobankConfig};
use hc_kb::service::KnowledgeBaseService;
use rand::Rng;

/// Draws Zipf(s≈1) ranks over `n` keys.
fn zipf_key<R: Rng>(rng: &mut R, n: usize) -> usize {
    // Inverse-CDF sampling over precomputed harmonic weights would be
    // cleaner; a simple rejection scheme suffices for tests.
    loop {
        let k = rng.gen_range(1..=n);
        let accept = 1.0 / k as f64;
        if rng.gen_bool(accept) {
            return k - 1;
        }
    }
}

#[test]
fn hierarchy_turns_remote_latency_into_local_latency() {
    let clock = SimClock::new();
    let mut h: CacheHierarchy<usize, u64> =
        CacheHierarchy::new(clock, SimDuration::from_millis(50));
    h.add_level("client", Box::new(LruCache::new(64)), SimDuration::from_micros(2));
    h.add_level("server", Box::new(LruCache::new(512)), SimDuration::from_micros(500));

    let n_keys = 2000;
    for k in 0..n_keys {
        h.write(k, k as u64);
    }

    let mut rng = hc_common::rng::seeded(42);
    let mut total = SimDuration::ZERO;
    let reads = 3000;
    for _ in 0..reads {
        let k = zipf_key(&mut rng, n_keys);
        let outcome = h.read(&k);
        assert_eq!(outcome.value, Some(k as u64));
        total += outcome.latency;
    }
    let avg_us = total.as_micros() / reads;
    // Uncached every read would cost > 50_000 µs; the skewed workload
    // must bring the average down by well over an order of magnitude.
    assert!(avg_us < 25_000, "average read latency {avg_us} µs");

    let stats = h.level_stats();
    let client_hit_ratio = stats[0].1.hit_ratio();
    assert!(client_hit_ratio > 0.4, "client hit ratio {client_hit_ratio}");
}

#[test]
fn lfu_beats_lru_on_heavily_skewed_stable_workloads() {
    // Hot set + scans: LFU retains the hot keys; LRU gets flushed by the
    // scan — the classic policy trade-off E2 charts.
    let run = |use_lfu: bool| -> f64 {
        let clock = SimClock::new();
        let mut h: CacheHierarchy<usize, u64> =
            CacheHierarchy::new(clock, SimDuration::from_millis(10));
        let cache: Box<dyn hc_cache::policy::CachePolicy<usize, u64> + Send> = if use_lfu {
            Box::new(LfuCache::new(32))
        } else {
            Box::new(LruCache::new(32))
        };
        h.add_level("only", cache, SimDuration::from_micros(1));
        for k in 0..1000usize {
            h.write(k, 0);
        }
        // Warm the hot set thoroughly so frequencies accumulate: several
        // touches per round, as a real hot set would see.
        for round in 0..40 {
            for _ in 0..3 {
                for k in 0..16usize {
                    let _ = h.read(&k);
                }
            }
            // Interleave a cold scan segment each round.
            let base = 100 + round * 20;
            for k in base..base + 20 {
                let _ = h.read(&k);
            }
        }
        // Measure hot-set hit ratio on a fresh pass.
        let mut hits = 0;
        for k in 0..16usize {
            if matches!(h.read(&k).hit, HitLevel::Cache { .. }) {
                hits += 1;
            }
        }
        hits as f64 / 16.0
    };
    let lfu_hot = run(true);
    let lru_hot = run(false);
    assert!(
        lfu_hot >= lru_hot,
        "LFU should protect the hot set: lfu={lfu_hot} lru={lru_hot}"
    );
    assert!(lfu_hot > 0.9, "lfu hot-set retention {lfu_hot}");
}

#[test]
fn knowledge_base_cache_accelerates_repeat_lookups() {
    let bank = Biobank::generate(
        &BiobankConfig {
            n_drugs: 100,
            n_diseases: 50,
            ..BiobankConfig::default()
        },
        7,
    );
    let clock = SimClock::new();
    let mut svc = KnowledgeBaseService::new(bank, clock.clone(), 32);
    let mut rng = hc_common::rng::seeded(8);

    let before = clock.now();
    for _ in 0..500 {
        let idx = zipf_key(&mut rng, 100);
        let answer = svc.drug(idx);
        assert!(answer.value.is_some());
    }
    let elapsed_ms = clock.now().duration_since(before).as_millis();
    // 500 uncached lookups would cost 20 000 ms.
    assert!(elapsed_ms < 10_000, "elapsed {elapsed_ms} ms");
    assert!(svc.cache_hit_ratio() > 0.5, "hit ratio {}", svc.cache_hit_ratio());
}

#[test]
fn write_heavy_workloads_erode_cache_benefit() {
    // §III: "Caching works best for data which do not change frequently."
    let run = |write_fraction: f64| -> f64 {
        let clock = SimClock::new();
        let mut h: CacheHierarchy<usize, u64> =
            CacheHierarchy::new(clock, SimDuration::from_millis(10));
        h.add_level("client", Box::new(LruCache::new(128)), SimDuration::from_micros(1));
        for k in 0..256usize {
            h.write(k, 0);
        }
        let mut rng = hc_common::rng::seeded(9);
        for _ in 0..2000 {
            let k = rng.gen_range(0..256usize);
            if rng.gen_bool(write_fraction) {
                h.write(k, 1);
            } else {
                let _ = h.read(&k);
            }
        }
        h.level_stats()[0].1.hit_ratio()
    };
    let read_mostly = run(0.05);
    let write_heavy = run(0.6);
    assert!(
        read_mostly > write_heavy + 0.1,
        "read-mostly {read_mostly} vs write-heavy {write_heavy}"
    );
}

#[test]
fn invalidation_bus_keeps_many_clients_consistent() {
    use hc_cache::policy::LruCache;
    use hc_cache::shard::{ShardedCache, ShardedClient, ShardedOrigin};
    use std::sync::Arc;

    // One shard: the unsharded write-invalidate protocol.
    let origin: Arc<ShardedOrigin<String, u64>> = ShardedOrigin::new(1, 77);
    let client = || {
        ShardedClient::subscribe(
            Arc::clone(&origin),
            ShardedCache::new(1, 77, |_| LruCache::new(64)),
        )
    };
    let mut clients: Vec<_> = (0..8).map(|_| client()).collect();

    let mut rng = hc_common::rng::seeded(77);
    // Interleaved writes and reads across all clients: with the protocol,
    // no read ever observes a version older than the latest published
    // write.
    for round in 0..200 {
        let key = format!("k{}", round % 16);
        origin.write(key.clone(), round);
        for c in &mut clients {
            let latest = Some((round, origin.version(&key)));
            assert_eq!(c.read_versioned(&key), latest, "round {round}");
        }
        // Random extra traffic.
        let other = format!("k{}", rng.gen_range(0..16));
        for c in &mut clients {
            if let Some((_, version)) = c.read_versioned(&other) {
                assert_eq!(version, origin.version(&other), "round {round}");
            }
        }
    }

    // Ablation: a client that skips draining observes staleness.
    let mut sloppy = client();
    let _ = sloppy.read(&"k0".to_string());
    origin.write("k0".into(), 9_999);
    let (_, cached) = sloppy.cache().get(&"k0".to_string()).expect("cached above");
    assert_ne!(cached, origin.version(&"k0".to_string()), "served stale");

    // Dropped clients free their bus slots.
    assert_eq!(origin.subscriber_counts(), [9]);
    drop(clients);
    drop(sloppy);
    assert_eq!(origin.subscriber_counts(), [0]);
}
