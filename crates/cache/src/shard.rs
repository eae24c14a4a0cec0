//! Lock-striped sharded caching for the multi-core serving hot path.
//!
//! A single-`Mutex` store serializes every client request on one lock,
//! so added cores buy nothing ("serves heavy traffic from millions of
//! users" needs the opposite). This module stripes both halves of the
//! serving path:
//!
//! * [`ShardedCache`] — `N` power-of-two shards, each an independent
//!   [`CachePolicy`] (LRU/LFU/TTL behaviour preserved per shard) behind
//!   its own lock. Keys route via a seeded FNV-1a hash, so the routing
//!   is stable for a given seed and uncorrelated with insertion order.
//!   A `ShardedCache` with `shards = 1` *is* the global-lock baseline —
//!   E18 measures exactly that configuration gap.
//! * [`ShardedOrigin`] / [`ShardedClient`] — the write-invalidate
//!   consistency protocol over [`crate::invalidation`]'s bus, sharded:
//!   each origin shard owns its own invalidation bus, and a client
//!   drains only the bus shard a key routes to before serving it. At
//!   one shard this is the unsharded protocol, and the consistency
//!   argument holds per shard: a write inserts the new version into
//!   shard `s` *before* publishing on bus `s`, and a read of a key in
//!   shard `s` drains bus `s` before probing its local cache — so once
//!   the bus has delivered an invalidation, the stale entry is gone
//!   before any later read of that key ("an invalidated key is never
//!   served stale after the bus delivers").
//!
//! Per-shard hit/miss/eviction state stays inside each shard's
//! [`CacheStats`]; [`ShardedCache::stats`] sums them, and
//! [`ShardedCache::enable_telemetry`] mirrors them into per-shard
//! `hc-telemetry` counters (`cache.shard.<i>.*`, see OBSERVABILITY.md).

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::invalidation::{InvalidationBus, Subscription};
use crate::policy::CachePolicy;
use crate::stats::CacheStats;

/// Per-shard telemetry handles (see `enable_telemetry`).
struct ShardInstruments {
    hits: hc_telemetry::Counter,
    misses: hc_telemetry::Counter,
    puts: hc_telemetry::Counter,
    invalidations: hc_telemetry::Counter,
    entries: hc_telemetry::Gauge,
}

/// A seeded FNV-1a hasher: deterministic across hosts and Rust versions
/// (unlike `DefaultHasher`), and keyed so shard routing is a property of
/// the store's seed, not of the key distribution.
#[derive(Clone, Copy, Debug)]
pub struct SeededFnv(u64);

impl SeededFnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher whose stream is offset by `seed`.
    pub fn new(seed: u64) -> Self {
        SeededFnv(Self::OFFSET ^ seed)
    }
}

impl Hasher for SeededFnv {
    fn finish(&self) -> u64 {
        // One SplitMix64-style finalizer round so low output bits (the
        // shard mask) depend on every input byte.
        hc_common::rng::split(self.0, 0x5eed)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

/// Routes keys to one of `shards` (power of two) stripes.
#[derive(Clone, Copy, Debug)]
pub struct ShardRouter {
    mask: u64,
    seed: u64,
}

impl ShardRouter {
    /// A router over `shards` stripes with routing seed `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `shards` is a non-zero power of two.
    pub fn new(shards: usize, seed: u64) -> Self {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a non-zero power of two, got {shards}"
        );
        ShardRouter {
            mask: shards as u64 - 1,
            seed,
        }
    }

    /// The stripe `key` routes to. Total (defined for every key) and
    /// stable (same key, same seed ⇒ same shard).
    pub fn route<K: Hash + ?Sized>(&self, key: &K) -> usize {
        let mut h = SeededFnv::new(self.seed);
        key.hash(&mut h);
        (h.finish() & self.mask) as usize
    }

    /// Number of stripes.
    pub fn shards(&self) -> usize {
        self.mask as usize + 1
    }
}

/// Splits a total capacity over `shards` stripes: every shard gets
/// `ceil(total / shards)` entries (at least 1), so the per-shard
/// capacity never exceeds `total / shards + 1`.
pub fn shard_capacity(total: usize, shards: usize) -> usize {
    total.div_ceil(shards).max(1)
}

/// A lock-striped cache: `N` independent policy instances, one lock
/// each, with seeded-hash routing.
///
/// All operations take `&self` and are safe to call from many threads;
/// an operation locks exactly one shard (never two), so there is no
/// lock-ordering hazard and contention falls roughly `N`-fold on
/// uniform traffic.
pub struct ShardedCache<K, V, C> {
    shards: Vec<Mutex<C>>,
    router: ShardRouter,
    instruments: Option<Vec<ShardInstruments>>,
    _marker: std::marker::PhantomData<(K, V)>,
}

impl<K, V, C: std::fmt::Debug> std::fmt::Debug for ShardedCache<K, V, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl<K: Hash + Eq, V, C: CachePolicy<K, V>> ShardedCache<K, V, C> {
    /// Builds a store of `shards` stripes; `factory(i)` constructs the
    /// policy instance for shard `i` (use [`shard_capacity`] to split a
    /// total budget).
    ///
    /// # Panics
    ///
    /// Panics unless `shards` is a non-zero power of two.
    pub fn new(shards: usize, seed: u64, mut factory: impl FnMut(usize) -> C) -> Self {
        let router = ShardRouter::new(shards, seed);
        ShardedCache {
            shards: (0..shards).map(|i| Mutex::new(factory(i))).collect(),
            router,
            instruments: None,
            _marker: std::marker::PhantomData,
        }
    }

    /// Registers per-shard counters (`<prefix>.shard.<i>.hits`,
    /// `.misses`, `.puts`, `.invalidations`, `.entries`) on `registry`.
    ///
    /// Takes `&mut self` so instrumentation is wired before the store is
    /// shared across threads; the hot path then reads the handles
    /// without any extra lock.
    pub fn enable_telemetry(&mut self, registry: &hc_telemetry::Registry, prefix: &str) {
        self.instruments = Some(
            (0..self.shards.len())
                .map(|i| ShardInstruments {
                    hits: registry.counter(&format!("{prefix}.shard.{i}.hits")),
                    misses: registry.counter(&format!("{prefix}.shard.{i}.misses")),
                    puts: registry.counter(&format!("{prefix}.shard.{i}.puts")),
                    invalidations: registry
                        .counter(&format!("{prefix}.shard.{i}.invalidations")),
                    entries: registry.gauge(&format!("{prefix}.shard.{i}.entries")),
                })
                .collect(),
        );
    }

    /// The shard index `key` routes to.
    pub fn shard_of(&self, key: &K) -> usize {
        self.router.route(key)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Looks up `key` in its shard.
    pub fn get(&self, key: &K) -> Option<V> {
        let s = self.router.route(key);
        // s < shards.len(): route() masks the hash by len-1, and the
        // instruments Vec is built with the same length.
        let out = self.shards[s].lock().get(key); // hc-lint: allow(panic-index)
        if let Some(inst) = self.instruments.as_ref().map(|v| &v[s]) {
            if out.is_some() {
                inst.hits.inc();
            } else {
                inst.misses.inc();
            }
        }
        out
    }

    /// Inserts or replaces `key` in its shard, evicting per the shard's
    /// policy when that shard is full. Returns whether `key` is cached
    /// afterwards (see [`CachePolicy::put`]).
    pub fn put(&self, key: K, value: V) -> bool {
        let s = self.router.route(&key);
        let (cached, len) = {
            let mut shard = self.shards[s].lock(); // hc-lint: allow(panic-index)
            let cached = shard.put(key, value);
            (cached, shard.len())
        };
        if let Some(inst) = self.instruments.as_ref().map(|v| &v[s]) { // hc-lint: allow(panic-index)
            inst.puts.inc();
            inst.entries.set(len as i64);
        }
        cached
    }

    /// Removes `key` from its shard; returns whether it was present.
    pub fn invalidate(&self, key: &K) -> bool {
        let s = self.router.route(key);
        let (hit, len) = {
            let mut shard = self.shards[s].lock(); // hc-lint: allow(panic-index)
            let hit = shard.invalidate(key);
            (hit, shard.len())
        };
        if let Some(inst) = self.instruments.as_ref().map(|v| &v[s]) { // hc-lint: allow(panic-index)
            if hit {
                inst.invalidations.inc();
            }
            inst.entries.set(len as i64);
        }
        hit
    }

    /// Live entries across all shards. Shards are locked one at a time,
    /// so the total is a per-shard-consistent snapshot.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().capacity()).sum()
    }

    /// Per-shard counter snapshots, indexed by shard.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(|s| s.lock().stats()).collect()
    }

    /// Aggregated counters: the field-wise sum of [`Self::shard_stats`].
    pub fn stats(&self) -> CacheStats {
        self.shard_stats()
            .into_iter()
            .fold(CacheStats::default(), |mut acc, s| {
                acc.hits += s.hits;
                acc.misses += s.misses;
                acc.evictions += s.evictions;
                acc.invalidations += s.invalidations;
                acc.expirations += s.expirations;
                acc
            })
    }

    /// Clears every shard (each entry counted as an invalidation).
    pub fn clear(&self) {
        for (s, shard) in self.shards.iter().enumerate() {
            shard.lock().clear();
            // s comes from enumerate() over a same-length Vec.
            if let Some(inst) = self.instruments.as_ref().map(|v| &v[s]) { // hc-lint: allow(panic-index)
                inst.entries.set(0);
            }
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V, crate::policy::LruCache<K, V>> {
    /// Convenience: an LRU store of `total_capacity` entries split over
    /// `shards` stripes (per-shard capacity via [`shard_capacity`]).
    pub fn lru(total_capacity: usize, shards: usize, seed: u64) -> Self {
        let per_shard = shard_capacity(total_capacity, shards);
        ShardedCache::new(shards, seed, |_| crate::policy::LruCache::new(per_shard))
    }

    /// The live keys, shard by shard, each shard's least recently used
    /// first. Reading them changes no recency and counts no lookup.
    pub fn keys(&self) -> Vec<K> {
        self.shards.iter().flat_map(|s| s.lock().keys()).collect()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V, crate::policy::TinyLfuCache<K, V>> {
    /// Convenience: an LRU store with frequency-based admission
    /// ([`TinyLfuCache`](crate::policy::TinyLfuCache)) of `total_capacity`
    /// entries split over `shards` stripes. Each stripe counts and ages
    /// its own keys.
    pub fn tiny_lfu(total_capacity: usize, shards: usize, seed: u64) -> Self {
        let per_shard = shard_capacity(total_capacity, shards);
        ShardedCache::new(shards, seed, |_| crate::policy::TinyLfuCache::new(per_shard))
    }

    /// The live keys, shard by shard, each shard's least recently used
    /// first. Reading them changes no recency or count.
    pub fn keys(&self) -> Vec<K> {
        self.shards.iter().flat_map(|s| s.lock().keys()).collect()
    }
}

impl<K: Hash + Eq + Ord + Clone, V: Clone> ShardedCache<K, V, crate::policy::LfuCache<K, V>> {
    /// Convenience: an LFU store of `total_capacity` entries split over
    /// `shards` stripes.
    pub fn lfu(total_capacity: usize, shards: usize, seed: u64) -> Self {
        let per_shard = shard_capacity(total_capacity, shards);
        ShardedCache::new(shards, seed, |_| crate::policy::LfuCache::new(per_shard))
    }
}

/// A sharded versioned origin with a per-shard invalidation bus.
///
/// Writes lock one entry shard, bump the key's version, then publish on
/// that shard's bus. Subscribing clients ([`ShardedClient`]) receive one
/// inbox per bus shard and drain only the shard a key routes to.
pub struct ShardedOrigin<K, V> {
    entries: Vec<Mutex<std::collections::HashMap<K, (V, u64)>>>,
    buses: Vec<InvalidationBus<K>>,
    router: ShardRouter,
}

impl<K, V> std::fmt::Debug for ShardedOrigin<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedOrigin")
            .field("shards", &self.entries.len())
            .finish()
    }
}

impl<K: Clone + Eq + Hash, V: Clone> ShardedOrigin<K, V> {
    /// An empty origin of `shards` stripes (non-zero power of two)
    /// routed with `seed`.
    pub fn new(shards: usize, seed: u64) -> Arc<Self> {
        let router = ShardRouter::new(shards, seed);
        Arc::new(ShardedOrigin {
            entries: (0..shards)
                .map(|_| Mutex::new(std::collections::HashMap::new()))
                .collect(),
            buses: (0..shards).map(|_| InvalidationBus::new()).collect(),
            router,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.entries.len()
    }

    /// The shard `key` routes to.
    pub fn shard_of(&self, key: &K) -> usize {
        self.router.route(key)
    }

    /// Writes a value, bumping its version, then publishing the
    /// invalidation on the key's bus shard. The insert happens *before*
    /// the publish, so any reader that drains the invalidation finds
    /// the new version (or newer) at the origin.
    pub fn write(&self, key: K, value: V) -> u64 {
        let s = self.router.route(&key);
        let version = {
            let mut entries = self.entries[s].lock(); // hc-lint: allow(panic-index)
            let version = entries.get(&key).map(|(_, v)| v + 1).unwrap_or(1);
            if hc_common::conc::mc::active() {
                hc_common::conc::mc::write(&format!("cache.origin.shard{s}"));
            }
            entries.insert(key.clone(), (value, version));
            version
        };
        self.buses[s].publish(&key); // hc-lint: allow(panic-index)
        version
    }

    /// Reads the current value and version from the key's shard.
    pub fn read(&self, key: &K) -> Option<(V, u64)> {
        let s = self.router.route(key);
        let entries = self.entries[s].lock(); // hc-lint: allow(panic-index)
        if hc_common::conc::mc::active() {
            hc_common::conc::mc::read(&format!("cache.origin.shard{s}"));
        }
        entries.get(key).cloned()
    }

    /// The current version of a key (0 = absent).
    pub fn version(&self, key: &K) -> u64 {
        self.entries[self.router.route(key)] // hc-lint: allow(panic-index)
            .lock()
            .get(key)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Live subscribers per bus shard. Dropped clients release their
    /// slots eagerly (see [`Subscription`]), so counts reflect drops
    /// immediately rather than after the next publish on their shard.
    pub fn subscriber_counts(&self) -> Vec<usize> {
        self.buses.iter().map(|b| b.subscriber_count()).collect()
    }

    fn subscribe_all(&self) -> Vec<Subscription<K>> {
        self.buses.iter().map(|b| b.subscribe()).collect()
    }
}

/// A client cache kept consistent with a [`ShardedOrigin`] through the
/// sharded bus. One instance per reader thread (reads take `&mut self`);
/// the origin itself is shared.
pub struct ShardedClient<K, V, C> {
    origin: Arc<ShardedOrigin<K, V>>,
    cache: ShardedCache<K, (V, u64), C>,
    inboxes: Vec<Subscription<K>>,
}

impl<K, V, C: std::fmt::Debug> std::fmt::Debug for ShardedClient<K, V, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedClient")
            .field("cache", &self.cache)
            .finish()
    }
}

impl<K, V, C> ShardedClient<K, V, C>
where
    K: Clone + Eq + Hash,
    V: Clone,
    C: CachePolicy<K, (V, u64)>,
{
    /// Subscribes a new client whose local store is `cache`.
    ///
    /// # Panics
    ///
    /// Panics if `cache` has a different shard count than the origin —
    /// shard `s` of the local cache must correspond to bus shard `s`
    /// for the per-shard drain to cover the key being read.
    pub fn subscribe(origin: Arc<ShardedOrigin<K, V>>, cache: ShardedCache<K, (V, u64), C>) -> Self {
        assert_eq!(
            cache.shard_count(),
            origin.shard_count(),
            "client cache must mirror the origin's shard layout"
        );
        assert_eq!(
            cache.router.seed, origin.router.seed,
            "client cache must route with the origin's seed"
        );
        let inboxes = origin.subscribe_all();
        ShardedClient {
            origin,
            cache,
            inboxes,
        }
    }

    /// Applies pending invalidations for bus shard `s`; returns how many.
    fn drain_shard(&mut self, s: usize) -> usize {
        let mut applied = 0;
        while let Ok(key) = self.inboxes[s].try_recv() { // hc-lint: allow(panic-index)
            self.cache.invalidate(&key);
            applied += 1;
        }
        applied
    }

    /// Applies every pending invalidation across all bus shards.
    pub fn drain_invalidations(&mut self) -> usize {
        (0..self.inboxes.len()).map(|s| self.drain_shard(s)).sum()
    }

    /// Consistent read: drains the key's bus shard, then serves from the
    /// local shard or the origin. Returns the value with its version so
    /// harnesses (the linearizability-lite checker) can assert ordering
    /// without re-locking the origin.
    pub fn read_versioned(&mut self, key: &K) -> Option<(V, u64)> {
        let s = self.origin.shard_of(key);
        self.drain_shard(s);
        if let Some(entry) = self.cache.get(key) {
            return Some(entry);
        }
        let (value, version) = self.origin.read(key)?;
        self.cache.put(key.clone(), (value.clone(), version));
        Some((value, version))
    }

    /// Consistent read returning just the value.
    pub fn read(&mut self, key: &K) -> Option<V> {
        self.read_versioned(key).map(|(v, _)| v)
    }

    /// The client's local sharded store (per-shard stats, len, …).
    pub fn cache(&self) -> &ShardedCache<K, (V, u64), C> {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{LfuCache, LruCache};
    use proptest::prelude::*;

    #[test]
    fn routing_covers_all_shards_eventually() {
        let router = ShardRouter::new(8, 42);
        let mut seen = [false; 8];
        for k in 0..1000u64 {
            seen[router.route(&k)] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 keys should touch all 8 shards");
    }

    #[test]
    fn different_seeds_route_differently() {
        let a = ShardRouter::new(16, 1);
        let b = ShardRouter::new(16, 2);
        let moved = (0..256u64).filter(|k| a.route(k) != b.route(k)).count();
        assert!(moved > 64, "routing must depend on the seed (moved {moved})");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_panic() {
        let _ = ShardRouter::new(6, 0);
    }

    #[test]
    fn sharded_basic_get_put_invalidate() {
        // Ample capacity so no shard evicts during this test.
        let cache = ShardedCache::lru(256, 8, 7);
        for k in 0..32u64 {
            cache.put(k, k * 10);
        }
        assert_eq!(cache.get(&3), Some(30));
        assert!(cache.invalidate(&3));
        assert!(!cache.invalidate(&3));
        assert_eq!(cache.get(&3), None);
        assert_eq!(cache.len(), 31);
        let mut keys = cache.keys();
        keys.sort_unstable();
        assert_eq!(keys, (0..32).filter(|&k| k != 3).collect::<Vec<u64>>());
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.keys().is_empty());
    }

    #[test]
    fn shard_stats_sum_to_global() {
        let cache = ShardedCache::lru(32, 4, 9);
        for k in 0..100u64 {
            cache.put(k, k);
        }
        for k in 0..200u64 {
            let _ = cache.get(&k);
        }
        let per_shard = cache.shard_stats();
        let global = cache.stats();
        assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), global.hits);
        assert_eq!(per_shard.iter().map(|s| s.misses).sum::<u64>(), global.misses);
        assert_eq!(
            per_shard.iter().map(|s| s.evictions).sum::<u64>(),
            global.evictions
        );
        assert_eq!(global.lookups(), 200);
    }

    #[test]
    fn telemetry_counters_mirror_stats() {
        let registry = hc_telemetry::Registry::new();
        let mut cache = ShardedCache::lru(16, 2, 3);
        cache.enable_telemetry(&registry, "cache");
        for k in 0..8u64 {
            cache.put(k, k);
        }
        for k in 0..16u64 {
            let _ = cache.get(&k);
        }
        let stats = cache.stats();
        let sum = |name: &str| {
            (0..2)
                .map(|i| registry.counter(&format!("cache.shard.{i}.{name}")).get())
                .sum::<u64>()
        };
        assert_eq!(sum("hits"), stats.hits);
        assert_eq!(sum("misses"), stats.misses);
        assert_eq!(sum("puts"), 8);
    }

    /// A client of `origin` with a local LRU of `capacity` per shard.
    fn client(
        origin: &Arc<ShardedOrigin<u64, u64>>,
        capacity: usize,
    ) -> ShardedClient<u64, u64, LruCache<u64, (u64, u64)>> {
        let shards = origin.shard_count();
        let seed = origin.router.seed;
        ShardedClient::subscribe(
            Arc::clone(origin),
            ShardedCache::new(shards, seed, |_| LruCache::new(capacity)),
        )
    }

    #[test]
    fn sharded_origin_write_invalidate_read() {
        // One shard is the unsharded protocol.
        for shards in [1, 4] {
            let origin: Arc<ShardedOrigin<u64, u64>> = ShardedOrigin::new(shards, 5);
            let mut a = client(&origin, 16);
            let mut b = client(&origin, 16);
            origin.write(1, 100);
            assert_eq!(a.read(&1), Some(100));
            assert_eq!(b.read(&1), Some(100));
            origin.write(1, 200);
            let latest = Some((200, 2));
            assert_eq!(a.read_versioned(&1), latest, "never stale after delivery");
            assert_eq!(b.read_versioned(&1), latest, "never stale after delivery");
            assert_eq!(origin.version(&1), 2);
            assert_eq!(a.read(&9999), None);
        }
    }

    #[test]
    fn reading_without_draining_serves_stale_data() {
        let origin: Arc<ShardedOrigin<u64, u64>> = ShardedOrigin::new(1, 5);
        let mut a = client(&origin, 16);
        origin.write(1, 100);
        assert_eq!(a.read(&1), Some(100));
        origin.write(1, 200);
        // The local store still holds version 1 until the bus is drained.
        assert_eq!(a.cache().get(&1), Some((100, 1)));
        assert_eq!(origin.version(&1), 2);
        assert_eq!(a.read(&1), Some(200));
    }

    #[test]
    fn drain_applies_each_invalidation_once() {
        let origin: Arc<ShardedOrigin<u64, u64>> = ShardedOrigin::new(1, 5);
        let mut a = client(&origin, 16);
        origin.write(1, 1);
        origin.write(2, 1);
        let _ = a.read(&1);
        origin.write(1, 2);
        origin.write(2, 2);
        assert_eq!(a.drain_invalidations(), 2);
        assert_eq!(a.drain_invalidations(), 0);
    }

    #[test]
    fn sharded_client_versions_monotonic() {
        for shards in [1, 8] {
            let origin: Arc<ShardedOrigin<u64, u64>> = ShardedOrigin::new(shards, 11);
            let mut client = client(&origin, 4);
            let mut last = 0;
            for round in 1..=20u64 {
                assert_eq!(origin.write(7, round), round);
                let (v, version) = client.read_versioned(&7).unwrap();
                assert_eq!(v, round);
                assert!(version >= last);
                last = version;
            }
            assert_eq!(origin.version(&7), 20);
            assert_eq!(origin.version(&8), 0);
        }
    }

    #[test]
    fn dropped_sharded_client_is_pruned_per_shard() {
        for shards in [1, 4] {
            let origin: Arc<ShardedOrigin<u64, u64>> = ShardedOrigin::new(shards, 2);
            let keep = client(&origin, 4);
            {
                let _a = client(&origin, 4);
                let _b = client(&origin, 4);
                assert_eq!(origin.subscriber_counts(), vec![3; shards]);
            }
            // Regression: the slots are reclaimed by the client's drop — no
            // publish on any shard is needed to notice the dead receivers.
            assert_eq!(origin.subscriber_counts(), vec![1; shards]);
            // Publishing afterwards reaches only the live client.
            for k in 0..16u64 {
                origin.write(k, 0);
            }
            assert_eq!(origin.subscriber_counts(), vec![1; shards]);
            drop(keep);
            assert_eq!(origin.subscriber_counts(), vec![0; shards]);
            // Publishing into an empty bus is a no-op, not an error.
            origin.write(0, 1);
            assert_eq!(origin.subscriber_counts(), vec![0; shards]);
            // A later client reads the latest write.
            assert_eq!(client(&origin, 4).read(&0), Some(1));
        }
    }

    /// The E2 reproduction constraint: sharding must not change policy
    /// behaviour materially. Same Zipf workload as EXPERIMENTS.md E2
    /// (2 000 keys, 30 000 reads, read-through fill), 10% cache.
    fn hit_ratio_sharded_vs_unsharded(lfu: bool, shards: usize) -> (f64, f64) {
        let keys = 2000usize;
        let reads = 30_000usize;
        let capacity = keys / 10;
        let mut rng = hc_common::rng::seeded(0xE2);
        let workload: Vec<usize> = (0..reads)
            .map(|_| hc_common::conc::zipf_key(&mut rng, keys))
            .collect();
        let unsharded_ratio = if lfu {
            let mut c = LfuCache::new(capacity);
            for &k in &workload {
                if c.get(&k).is_none() {
                    c.put(k, k);
                }
            }
            c.stats().hit_ratio()
        } else {
            let mut c = LruCache::new(capacity);
            for &k in &workload {
                if c.get(&k).is_none() {
                    c.put(k, k);
                }
            }
            c.stats().hit_ratio()
        };
        let sharded_ratio = if lfu {
            let c = ShardedCache::lfu(capacity, shards, 0xE2);
            for &k in &workload {
                if c.get(&k).is_none() {
                    c.put(k, k);
                }
            }
            c.stats().hit_ratio()
        } else {
            let c = ShardedCache::lru(capacity, shards, 0xE2);
            for &k in &workload {
                if c.get(&k).is_none() {
                    c.put(k, k);
                }
            }
            c.stats().hit_ratio()
        };
        (unsharded_ratio, sharded_ratio)
    }

    #[test]
    fn sharded_lru_hit_ratio_tracks_unsharded_within_2pc() {
        for shards in [2usize, 8] {
            let (unsharded, sharded) = hit_ratio_sharded_vs_unsharded(false, shards);
            assert!(
                (unsharded - sharded).abs() < 0.02,
                "LRU {shards} shards: {sharded:.3} vs unsharded {unsharded:.3}"
            );
        }
    }

    #[test]
    fn sharded_lfu_hit_ratio_tracks_unsharded_within_2pc() {
        for shards in [2usize, 8] {
            let (unsharded, sharded) = hit_ratio_sharded_vs_unsharded(true, shards);
            assert!(
                (unsharded - sharded).abs() < 0.02,
                "LFU {shards} shards: {sharded:.3} vs unsharded {unsharded:.3}"
            );
        }
    }

    /// The seed of the admission trace tests: `HC_SOAK_SEED` when set.
    fn trace_seed() -> u64 {
        std::env::var("HC_SOAK_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x7A1F)
    }

    /// Keys of the admission trace tests, and the export cache's shape.
    const TRACE_KEYS: usize = 1000;
    const TRACE_CAPACITY: usize = 128;
    const TRACE_SHARDS: usize = 4;

    /// `reads` Zipf(1) keys over [`TRACE_KEYS`] keys, the `r`-th most
    /// popular being `ranking[r]`.
    fn zipf_trace(seed: u64, label: u64, ranking: &[usize], reads: usize) -> Vec<usize> {
        let mut rng = hc_common::rng::seeded_stream(seed, label);
        (0..reads)
            .map(|_| ranking[hc_common::conc::zipf_key(&mut rng, ranking.len())])
            .collect()
    }

    /// A seeded ranking of the trace keys.
    fn ranking(seed: u64, label: u64) -> Vec<usize> {
        let mut keys: Vec<usize> = (0..TRACE_KEYS).collect();
        keys.sort_by_key(|&k| hc_common::rng::split(hc_common::rng::split(seed, label), k as u64));
        keys
    }

    /// Read-through over `trace`; the hit ratio of the reads from `from` on.
    fn read_through<C: CachePolicy<usize, usize>>(
        cache: &ShardedCache<usize, usize, C>,
        trace: &[usize],
        from: usize,
    ) -> f64 {
        let mut hits = 0usize;
        for (i, &k) in trace.iter().enumerate() {
            if cache.get(&k).is_some() {
                hits += usize::from(i >= from);
            } else {
                cache.put(k, k);
            }
        }
        hits as f64 / (trace.len() - from) as f64
    }

    /// The hit ratios of LRU and TinyLFU over `trace`, from `from` on.
    fn lru_and_tiny_lfu(seed: u64, trace: &[usize], from: usize) -> (f64, f64) {
        let (capacity, shards) = (TRACE_CAPACITY, TRACE_SHARDS);
        (
            read_through(&ShardedCache::lru(capacity, shards, seed), trace, from),
            read_through(&ShardedCache::tiny_lfu(capacity, shards, seed), trace, from),
        )
    }

    #[test]
    fn tiny_lfu_beats_lru_by_four_points_on_a_stationary_zipf_trace() {
        let seed = trace_seed();
        let trace = zipf_trace(seed, 1, &ranking(seed, 1), 40_000);
        let (lru, tiny_lfu) = lru_and_tiny_lfu(seed, &trace, 0);
        assert!(
            tiny_lfu >= lru + 0.04,
            "seed {seed}: TinyLFU {tiny_lfu:.3} vs LRU {lru:.3}"
        );
    }

    #[test]
    fn tiny_lfu_follows_a_moved_hot_set_at_least_as_well_as_lru() {
        let seed = trace_seed();
        let half = 20_000;
        let mut trace = zipf_trace(seed, 2, &ranking(seed, 2), half);
        trace.extend(zipf_trace(seed, 3, &ranking(seed, 3), half));
        let (lru, tiny_lfu) = lru_and_tiny_lfu(seed, &trace, half);
        assert!(
            tiny_lfu >= lru,
            "seed {seed}: second half TinyLFU {tiny_lfu:.3} vs LRU {lru:.3}"
        );
    }

    #[test]
    fn tiny_lfu_decisions_are_reproducible_from_a_seed() {
        let seed = trace_seed();
        let trace = zipf_trace(seed, 4, &ranking(seed, 4), 5_000);
        let run = || {
            let cache = ShardedCache::tiny_lfu(TRACE_CAPACITY, TRACE_SHARDS, seed);
            let decisions: Vec<(bool, bool)> = trace
                .iter()
                .map(|&k| {
                    let hit = cache.get(&k).is_some();
                    (hit, !hit && cache.put(k, k))
                })
                .collect();
            (decisions, cache.keys(), cache.stats())
        };
        let first = run();
        assert!(first.0.iter().any(|&(hit, admitted)| !hit && !admitted));
        assert!(first == run(), "seed {seed}: same trace, different decisions");
    }

    proptest! {
        /// Routing is total (always lands in range) and stable (a fresh
        /// router with the same seed agrees).
        #[test]
        fn routing_total_and_stable(
            keys in proptest::collection::vec(0u64..u64::MAX, 1..200),
            exp in 0u32..7,
            seed in 0u64..u64::MAX,
        ) {
            let shards = 1usize << exp;
            let a = ShardRouter::new(shards, seed);
            let b = ShardRouter::new(shards, seed);
            for k in &keys {
                let s = a.route(k);
                prop_assert!(s < shards);
                prop_assert_eq!(s, b.route(k));
            }
        }

        /// No shard ever holds more than `total / shards + 1` entries.
        #[test]
        fn per_shard_capacity_bounded(
            total in 1usize..256,
            exp in 0u32..6,
            keys in proptest::collection::vec(0u64..10_000, 0..400),
        ) {
            let shards = 1usize << exp;
            let cache = ShardedCache::lru(total, shards, 17);
            for &k in &keys {
                cache.put(k, k);
            }
            let bound = total / shards + 1;
            for (i, stats) in cache.shard_stats().iter().enumerate() {
                let _ = stats;
                let len = cache.shards[i].lock().len();
                prop_assert!(
                    len <= bound,
                    "shard {} holds {} > bound {}", i, len, bound
                );
            }
        }

        /// A key written through the sharded origin is read back at its
        /// latest version by a fresh consistent client.
        #[test]
        fn sharded_read_sees_latest_write(
            writes in proptest::collection::vec((0u64..64, 0u64..1000), 1..100),
            exp in 0u32..5,
        ) {
            let shards = 1usize << exp;
            let origin: Arc<ShardedOrigin<u64, u64>> = ShardedOrigin::new(shards, 23);
            let mut client = ShardedClient::subscribe(
                Arc::clone(&origin),
                ShardedCache::new(shards, 23, |_| LruCache::new(8)),
            );
            let mut latest = std::collections::HashMap::new();
            for &(k, v) in &writes {
                origin.write(k, v);
                latest.insert(k, v);
                // Interleave reads with writes.
                prop_assert_eq!(client.read(&k), Some(v));
            }
            for (k, v) in latest {
                prop_assert_eq!(client.read(&k), Some(v));
            }
        }
    }
}
