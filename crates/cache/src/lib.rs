//! Multi-level caching for the healthcare cloud platform.
//!
//! Caching is one of the paper's headline performance features: "The cost
//! for accessing data from remote cloud servers can be orders of magnitude
//! higher than the cost for accessing data locally. … Our system employs
//! caching at multiple levels and not just at the client level" (§I), and
//! "Caching works best for data which do not change frequently. If the
//! data are changing frequently, cache consistency algorithms need to be
//! applied" (§III).
//!
//! * [`policy`] — eviction policies: [`policy::LruCache`],
//!   [`policy::LfuCache`], LRU with frequency-based admission
//!   ([`policy::TinyLfuCache`]) and a TTL wrapper [`policy::TtlCache`],
//!   all behind the object-safe [`policy::CachePolicy`] trait.
//! * [`stats`] — hit/miss/eviction accounting shared by every cache.
//! * [`multilevel`] — the client → server → origin [`multilevel::CacheHierarchy`]
//!   with per-level access latencies on the simulated clock, read-through
//!   fills and write-invalidate consistency.
//! * [`invalidation`] — the invalidation bus of the multi-client
//!   consistency protocol (the "cache consistency algorithms" §III
//!   calls for): origin writes publish keys to every subscribed client.
//! * [`shard`] — the multi-core serving path: a lock-striped
//!   [`shard::ShardedCache`] (N power-of-two stripes, seeded-hash
//!   routing, per-shard eviction state and telemetry) and the
//!   write-invalidate protocol over one bus per shard
//!   ([`shard::ShardedOrigin`] / [`shard::ShardedClient`]; one shard is
//!   the unsharded case), letting reader threads proceed in parallel.
//! * [`fleet`] — the multi-node serving path: a consistent-hash ring
//!   of cache nodes placed across simulated regions
//!   ([`fleet::CacheFleet`]), with R-way replication, read-repair, and
//!   write-invalidation fan-out riding the calibrated network model;
//!   node failure is absorbed by per-node circuit breakers and
//!   deadline budgets from `hc-resilience`.
//!
//! # Examples
//!
//! ```
//! use hc_cache::policy::{CachePolicy, LruCache};
//!
//! let mut cache = LruCache::new(2);
//! cache.put("a", 1);
//! cache.put("b", 2);
//! assert_eq!(cache.get(&"a"), Some(1)); // refresh "a"
//! cache.put("c", 3);                    // evicts "b"
//! assert_eq!(cache.get(&"b"), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod invalidation;
pub mod multilevel;
pub mod policy;
pub mod shard;
pub mod stats;
