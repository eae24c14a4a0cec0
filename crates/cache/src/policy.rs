//! Eviction policies: LRU, LFU and TTL, and LRU with frequency-based
//! admission (TinyLFU).

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
    /// Returns whether `key` is cached afterwards: a policy with an
    /// admission filter ([`TinyLfuCache`]) may refuse a new key instead of
    /// evicting for it.
    fn put(&mut self, key: K, value: V) -> bool;

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

    /// Whether `key` is cached. Not a lookup: no recency or counter moves.
    fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// The key the next eviction would remove.
    fn least_recent(&self) -> Option<&K> {
        self.recency.values().next()
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

    fn put(&mut self, key: K, value: V) -> bool {
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.0 = value;
            self.touch(&key);
            return true;
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
        true
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

    fn put(&mut self, key: K, value: V) -> bool {
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.0 = value;
            self.bump(&key);
            return true;
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
        true
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

/// Lookups per entry of capacity between two halvings of
/// [`TinyLfuCache`]'s counts.
const AGING_PERIOD_PER_ENTRY: u64 = 10;

/// An LRU cache that admits by frequency: TinyLFU (Einziger, Friedman &
/// Manes, "TinyLFU: A Highly Efficient Cache Admission Policy", ACM TOS
/// 2017).
///
/// Entries keep LRU order, and every lookup counts its key, cached or
/// not. While there is room every new key is admitted. Once the cache is
/// full, a new key replaces the least recently used entry only if it was
/// looked up more often than that entry; otherwise the put is refused
/// and the cache is unchanged. So a one-off read cannot push out an entry
/// that is read again and again, as it does under plain LRU.
///
/// Every `10 × capacity` lookups each count halves, and a count that
/// reaches zero is dropped, so the counts describe a recent window and a
/// new hot set displaces an old one. A plain [`LfuCache`] never forgets.
/// Counts are exact per key and hold no value; at most about
/// `20 × capacity` keys are counted at once.
#[derive(Debug)]
pub struct TinyLfuCache<K, V> {
    entries: LruCache<K, V>,
    counts: HashMap<K, u32>,
    /// Lookups since the last halving.
    lookups: u64,
    /// Lookups between two halvings.
    period: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> TinyLfuCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        TinyLfuCache {
            entries: LruCache::new(capacity),
            counts: HashMap::new(),
            lookups: 0,
            period: AGING_PERIOD_PER_ENTRY * capacity as u64,
        }
    }

    /// The live keys, least recently used first.
    pub(crate) fn keys(&self) -> Vec<K> {
        self.entries.keys()
    }

    /// How often `key` was looked up in the recent window (halved at each
    /// aging step).
    fn frequency(&self, key: &K) -> u32 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    fn count(&mut self, key: &K) {
        match self.counts.get_mut(key) {
            Some(count) => *count = count.saturating_add(1),
            None => {
                self.counts.insert(key.clone(), 1);
            }
        }
        self.lookups += 1;
        if self.lookups >= self.period {
            self.lookups = 0;
            self.counts.retain(|_, count| {
                *count /= 2;
                *count > 0
            });
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> CachePolicy<K, V> for TinyLfuCache<K, V> {
    fn get(&mut self, key: &K) -> Option<V> {
        self.count(key);
        self.entries.get(key)
    }

    fn put(&mut self, key: K, value: V) -> bool {
        let admit = self.entries.contains(&key)
            || self.entries.len() < self.entries.capacity()
            || self
                .entries
                .least_recent()
                .is_none_or(|victim| self.frequency(&key) > self.frequency(victim));
        if admit {
            self.entries.put(key, value);
        }
        admit
    }

    fn invalidate(&mut self, key: &K) -> bool {
        self.counts.remove(key);
        self.entries.invalidate(key)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    fn stats(&self) -> CacheStats {
        self.entries.stats()
    }

    /// Removes every entry and every count.
    fn clear(&mut self) {
        self.entries.clear();
        self.counts.clear();
        self.lookups = 0;
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

    fn put(&mut self, key: K, value: V) -> bool {
        let cached = self.inner.put(key.clone(), value);
        if cached {
            self.inserted_at.insert(key, self.now);
        }
        cached
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

    #[test]
    fn tiny_lfu_refuses_a_key_read_no_more_often_than_the_victim() {
        let mut c = TinyLfuCache::new(2);
        // Every key is admitted while there is room.
        assert!(c.put("a", 1));
        assert!(c.put("b", 2));
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.get(&"b"), Some(2));
        // "c" is looked up once, as often as the victim "a": refused.
        assert_eq!(c.get(&"c"), None);
        assert!(!c.put("c", 3));
        assert_eq!(c.keys(), ["a", "b"]);
        assert_eq!(c.stats().evictions, 0);
        // Replacing a cached key is no admission.
        assert!(c.put("a", 10));
        assert_eq!(c.keys(), ["b", "a"]);
        // Two more lookups make "c" more frequent than the victim "b":
        // admitted, and "b", the least recently used, is evicted.
        assert_eq!(c.get(&"c"), None);
        assert_eq!(c.get(&"c"), None);
        assert!(c.put("c", 3));
        assert_eq!(c.keys(), ["a", "c"]);
        assert_eq!(c.get(&"c"), Some(3));
        assert_eq!(c.get(&"a"), Some(10));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn tiny_lfu_invalidate_drops_the_entry_and_its_count() {
        let mut c = TinyLfuCache::new(2);
        c.put("a", 1);
        for _ in 0..3 {
            let _ = c.get(&"a");
        }
        assert_eq!(c.frequency(&"a"), 3);
        assert!(c.invalidate(&"a"));
        assert_eq!(c.frequency(&"a"), 0);
        assert!(!c.invalidate(&"a"));
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.stats().invalidations, 1);
        // A key never cached has a count too, and invalidate drops it.
        let _ = c.get(&"z");
        assert_eq!(c.frequency(&"z"), 1);
        assert!(!c.invalidate(&"z"));
        assert_eq!(c.frequency(&"z"), 0);
    }

    #[test]
    fn tiny_lfu_counts_halve_every_ten_capacities_of_lookups() {
        let capacity = 4;
        let period = 10 * capacity;
        let mut c = TinyLfuCache::<u32, u32>::new(capacity);
        for _ in 0..7 {
            let _ = c.get(&1);
        }
        let _ = c.get(&2);
        for _ in 8..period - 1 {
            let _ = c.get(&3);
        }
        assert_eq!((c.frequency(&1), c.frequency(&2)), (7, 1));
        // The `period`-th lookup halves every count and drops the zeros.
        let _ = c.get(&3);
        assert_eq!(c.frequency(&1), 3);
        assert_eq!(c.frequency(&2), 0);
        assert_eq!(c.frequency(&3), (period as u32 - 8) / 2);
        // The next halving comes `period` lookups later, not sooner.
        for _ in 0..period - 1 {
            let _ = c.get(&4);
        }
        assert_eq!(c.frequency(&1), 3);
        let _ = c.get(&4);
        assert_eq!(c.frequency(&1), 1);
        assert_eq!(c.frequency(&4), period as u32 / 2);
    }

    #[test]
    fn tiny_lfu_clear_drops_entries_and_counts() {
        let mut c = TinyLfuCache::new(2);
        c.put(1, "x");
        let _ = c.get(&1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.frequency(&1), 0);
    }

    proptest! {
        #[test]
        fn tiny_lfu_never_exceeds_capacity(
            capacity in 1usize..16,
            ops in proptest::collection::vec((0u8..48, 0u8..3), 0..400),
        ) {
            let mut c = TinyLfuCache::new(capacity);
            for (k, op) in ops {
                match op {
                    0 => { let _ = c.get(&k); }
                    1 => { c.put(k, u32::from(k)); }
                    _ => { c.invalidate(&k); }
                }
                prop_assert!(c.len() <= capacity);
                prop_assert_eq!(c.keys().len(), c.len());
            }
        }

        #[test]
        fn tiny_lfu_get_after_admitted_put_returns_the_value(
            ops in proptest::collection::vec((0u8..64, any::<u32>()), 1..300),
        ) {
            let mut c = TinyLfuCache::new(8);
            for (k, v) in ops {
                let _ = c.get(&k);
                let expected = c.put(k, v).then_some(v);
                prop_assert_eq!(c.get(&k), expected);
            }
        }

        #[test]
        fn tiny_lfu_invalidate_forgets_entry_and_count(
            keys in proptest::collection::vec(0u8..32, 1..200),
            gone in 0u8..32,
        ) {
            let mut c = TinyLfuCache::new(4);
            for &k in &keys {
                if c.get(&k).is_none() {
                    c.put(k, ());
                }
            }
            c.invalidate(&gone);
            prop_assert_eq!(c.frequency(&gone), 0);
            prop_assert!(!c.keys().contains(&gone));
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
