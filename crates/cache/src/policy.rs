//! Eviction policies: LRU, LFU and TTL.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;

use crate::stats::CacheStats;

/// An object-safe cache with a pluggable eviction policy.
///
/// Values are returned by clone so implementations remain object-safe;
/// callers typically store cheaply clonable values (`Arc<T>`, `Bytes`).
pub trait CachePolicy<K, V> {
    /// Looks up `key`, updating recency/frequency metadata.
    fn get(&mut self, key: &K) -> Option<V>;

    /// Inserts or replaces `key`, evicting per policy when full.
    fn put(&mut self, key: K, value: V);

    /// Removes `key` if present, returning whether it was present.
    fn invalidate(&mut self, key: &K) -> bool;

    /// Current number of live entries.
    fn len(&self) -> usize;

    /// Whether the cache holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of entries.
    fn capacity(&self) -> usize;

    /// Counter snapshot.
    fn stats(&self) -> CacheStats;

    /// Removes every entry (counted as invalidations).
    fn clear(&mut self);
}

/// A least-recently-used cache.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    entries: HashMap<K, (V, u64)>,
    recency: BTreeMap<u64, K>,
    tick: u64,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Creates an LRU cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LruCache {
            capacity,
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The live keys, least recently used first.
    pub fn keys(&self) -> Vec<K> {
        self.recency.values().cloned().collect()
    }

    fn touch(&mut self, key: &K) {
        if let Some((_, old_tick)) = self.entries.get(key) {
            let old_tick = *old_tick;
            self.recency.remove(&old_tick);
            self.tick += 1;
            let t = self.tick;
            self.recency.insert(t, key.clone());
            if let Some(entry) = self.entries.get_mut(key) {
                entry.1 = t;
            }
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> CachePolicy<K, V> for LruCache<K, V> {
    fn get(&mut self, key: &K) -> Option<V> {
        if self.entries.contains_key(key) {
            self.touch(key);
            self.stats.hits += 1;
            self.entries.get(key).map(|(v, _)| v.clone())
        } else {
            self.stats.misses += 1;
            None
        }
    }

    fn put(&mut self, key: K, value: V) {
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.0 = value;
            self.touch(&key);
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some((&oldest_tick, _)) = self.recency.iter().next() {
                if let Some(victim) = self.recency.remove(&oldest_tick) {
                    self.entries.remove(&victim);
                    self.stats.evictions += 1;
                }
            }
        }
        self.tick += 1;
        self.recency.insert(self.tick, key.clone());
        self.entries.insert(key, (value, self.tick));
    }

    fn invalidate(&mut self, key: &K) -> bool {
        if let Some((_, tick)) = self.entries.remove(key) {
            self.recency.remove(&tick);
            self.stats.invalidations += 1;
            true
        } else {
            false
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn clear(&mut self) {
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
        self.recency.clear();
    }
}

/// A least-frequently-used cache (ties broken by recency).
#[derive(Debug)]
pub struct LfuCache<K, V> {
    capacity: usize,
    entries: HashMap<K, (V, u64, u64)>, // value, count, tick
    order: BTreeSet<(u64, u64, K)>,     // (count, tick, key)
    tick: u64,
    stats: CacheStats,
}

impl<K: Eq + Hash + Ord + Clone, V: Clone> LfuCache<K, V> {
    /// Creates an LFU cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LfuCache {
            capacity,
            entries: HashMap::new(),
            order: BTreeSet::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn bump(&mut self, key: &K) {
        if let Some((_, count, tick)) = self.entries.get(key) {
            let (count, tick) = (*count, *tick);
            self.order.remove(&(count, tick, key.clone()));
            self.tick += 1;
            let new = (count + 1, self.tick);
            self.order.insert((new.0, new.1, key.clone()));
            if let Some(e) = self.entries.get_mut(key) {
                e.1 = new.0;
                e.2 = new.1;
            }
        }
    }
}

impl<K: Eq + Hash + Ord + Clone, V: Clone> CachePolicy<K, V> for LfuCache<K, V> {
    fn get(&mut self, key: &K) -> Option<V> {
        if self.entries.contains_key(key) {
            self.bump(key);
            self.stats.hits += 1;
            self.entries.get(key).map(|(v, _, _)| v.clone())
        } else {
            self.stats.misses += 1;
            None
        }
    }

    fn put(&mut self, key: K, value: V) {
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.0 = value;
            self.bump(&key);
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some(victim) = self.order.iter().next().cloned() {
                self.order.remove(&victim);
                self.entries.remove(&victim.2);
                self.stats.evictions += 1;
            }
        }
        self.tick += 1;
        self.order.insert((1, self.tick, key.clone()));
        self.entries.insert(key, (value, 1, self.tick));
    }

    fn invalidate(&mut self, key: &K) -> bool {
        if let Some((_, count, tick)) = self.entries.remove(key) {
            self.order.remove(&(count, tick, key.clone()));
            self.stats.invalidations += 1;
            true
        } else {
            false
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn clear(&mut self) {
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
        self.order.clear();
    }
}

/// Wraps any policy with a time-to-live: entries older than `ttl` (on the
/// logical tick clock advanced by [`TtlCache::advance`]) are treated as
/// misses and dropped.
///
/// The paper: "It may not be feasible to cache rapidly changing data for
/// which it is very important to have updated copies" — TTL bounds the
/// staleness window for such data.
#[derive(Debug)]
pub struct TtlCache<K, V, C> {
    inner: C,
    ttl: u64,
    now: u64,
    inserted_at: HashMap<K, u64>,
    expirations: u64,
    _value: std::marker::PhantomData<V>,
}

impl<K: Eq + Hash + Clone, V: Clone, C: CachePolicy<K, V>> TtlCache<K, V, C> {
    /// Wraps `inner` with a TTL of `ttl` logical time units.
    ///
    /// # Panics
    ///
    /// Panics if `ttl` is zero.
    pub fn new(inner: C, ttl: u64) -> Self {
        assert!(ttl > 0, "ttl must be positive");
        TtlCache {
            inner,
            ttl,
            now: 0,
            inserted_at: HashMap::new(),
            expirations: 0,
            _value: std::marker::PhantomData,
        }
    }

    /// Advances the logical clock by `delta`.
    pub fn advance(&mut self, delta: u64) {
        self.now += delta;
    }

    /// The current logical time.
    pub fn now(&self) -> u64 {
        self.now
    }
}

impl<K: Eq + Hash + Clone, V: Clone, C: CachePolicy<K, V>> CachePolicy<K, V>
    for TtlCache<K, V, C>
{
    fn get(&mut self, key: &K) -> Option<V> {
        if let Some(&at) = self.inserted_at.get(key) {
            if self.now.saturating_sub(at) >= self.ttl {
                self.inner.invalidate(key);
                self.inserted_at.remove(key);
                self.expirations += 1;
                // Fall through so the inner cache records the miss.
            }
        }
        self.inner.get(key)
    }

    fn put(&mut self, key: K, value: V) {
        self.inserted_at.insert(key.clone(), self.now);
        self.inner.put(key, value);
    }

    fn invalidate(&mut self, key: &K) -> bool {
        self.inserted_at.remove(key);
        self.inner.invalidate(key)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn stats(&self) -> CacheStats {
        let mut stats = self.inner.stats();
        stats.expirations = self.expirations;
        stats
    }

    fn clear(&mut self) {
        self.inserted_at.clear();
        self.inner.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        assert_eq!(c.get(&"a"), Some(1));
        c.put("c", 3);
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.get(&"c"), Some(3));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn lru_update_refreshes() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        c.put("a", 10); // refresh a
        c.put("c", 3); // evicts b
        assert_eq!(c.get(&"a"), Some(10));
        assert_eq!(c.get(&"b"), None);
    }

    #[test]
    fn lru_keys_list_least_recent_first_without_touching() {
        let mut c = LruCache::new(3);
        c.put("a", 1);
        c.put("b", 2);
        c.put("c", 3);
        assert_eq!(c.get(&"a"), Some(1));
        let stats = c.stats();
        assert_eq!(c.keys(), ["b", "c", "a"]);
        assert_eq!(c.stats(), stats, "listing keys is not a lookup");
        c.put("d", 4); // evicts b: listing did not refresh it
        assert_eq!(c.keys(), ["c", "a", "d"]);
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut c = LfuCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        let _ = c.get(&"a");
        let _ = c.get(&"a");
        c.put("c", 3); // b has lowest frequency
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(1));
    }

    #[test]
    fn lfu_ties_broken_by_recency() {
        let mut c = LfuCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        // Both have count 1; "a" is older → evicted.
        c.put("c", 3);
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.get(&"b"), Some(2));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = LruCache::new(4);
        c.put("a", 1);
        assert!(c.invalidate(&"a"));
        assert!(!c.invalidate(&"a"));
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn clear_empties() {
        let mut c = LfuCache::new(4);
        c.put(1, "x");
        c.put(2, "y");
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn ttl_expires_entries() {
        let mut c = TtlCache::new(LruCache::new(4), 10);
        c.put("a", 1);
        assert_eq!(c.get(&"a"), Some(1));
        c.advance(10);
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn ttl_fresh_entries_survive() {
        let mut c = TtlCache::new(LruCache::new(4), 10);
        c.put("a", 1);
        c.advance(9);
        assert_eq!(c.get(&"a"), Some(1));
    }

    #[test]
    fn ttl_reinsert_resets_age() {
        let mut c = TtlCache::new(LruCache::new(4), 10);
        c.put("a", 1);
        c.advance(9);
        c.put("a", 2);
        c.advance(9);
        assert_eq!(c.get(&"a"), Some(2));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = LruCache::<u32, u32>::new(0);
    }

    #[test]
    fn len_never_exceeds_capacity_lru() {
        let mut c = LruCache::new(3);
        for i in 0..100 {
            c.put(i, i);
            assert!(c.len() <= 3);
        }
    }

    proptest! {
        #[test]
        fn lru_len_bounded(ops in proptest::collection::vec((any::<u8>(), any::<bool>()), 0..200)) {
            let mut c = LruCache::new(8);
            for (k, is_put) in ops {
                if is_put { c.put(k, k); } else { let _ = c.get(&k); }
                prop_assert!(c.len() <= 8);
            }
        }

        #[test]
        fn lfu_get_after_put_hits(keys in proptest::collection::vec(any::<u8>(), 1..50)) {
            let mut c = LfuCache::new(keys.len());
            for &k in &keys {
                c.put(k, u32::from(k));
                prop_assert_eq!(c.get(&k), Some(u32::from(k)));
            }
        }

        #[test]
        fn lru_most_recent_key_always_present(keys in proptest::collection::vec(any::<u16>(), 1..100)) {
            let mut c = LruCache::new(4);
            for &k in &keys {
                c.put(k, ());
            }
            let last = *keys.last().unwrap();
            prop_assert_eq!(c.get(&last), Some(()));
        }
    }
}
