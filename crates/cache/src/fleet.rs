//! A distributed cache fleet: consistent hashing, replication, and
//! cross-region invalidation.
//!
//! §II-C's intercloud argument ("the cost for accessing data from remote
//! cloud servers can be orders of magnitude higher") assumes data is
//! served near its home region. This module scales the intra-process
//! [`ShardedCache`] out into a fleet of
//! cache *nodes* placed at [`Location`]s on the simulated topology:
//!
//! * a [`HashRing`] maps each key to `R` distinct nodes (equal-width
//!   arcs with rendezvous-elected owners for balance, seeded placement
//!   for determinism);
//! * reads fan out to the replica set in parallel and are served by the
//!   nearest live replica, paying that replica's round trip on the
//!   calibrated [`NetworkModel`] (local µs / intra-DC 0.5 ms /
//!   inter-cloud 50 ms);
//! * replica divergence observed during a read triggers *read-repair*:
//!   stale or missing copies are rewritten to the newest version seen;
//! * writes publish *invalidations* that ride the network model to every
//!   replica, so the staleness window is bounded by the slowest link in
//!   the fan-out (plus the drain cadence);
//! * node failure and partitions reuse `hc-resilience`: a
//!   [`CircuitBreaker`] per node stops reads from waiting on a dead
//!   replica after a few probe timeouts, and every read runs under a
//!   caller-supplied [`TimeoutBudget`] deadline.
//!
//! The fleet is deterministic: ring placement, replica ordering and
//! delivery ordering depend only on the seed and the simulated clock,
//! never on wall time or iteration order of a hash map.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::{Hash, Hasher};

use hc_cloudsim::net::{Location, NetworkModel};
use hc_common::clock::{SimClock, SimDuration, SimInstant};
use hc_resilience::breaker::CircuitBreaker;
use hc_resilience::timeout::TimeoutBudget;

use crate::policy::LruCache;
use crate::shard::{shard_capacity, SeededFnv, ShardedCache};

/// Hashes one `(arc, node)` rendezvous ballot or a key onto the ring.
fn ring_hash<T: Hash + ?Sized>(seed: u64, value: &T) -> u64 {
    let mut h = SeededFnv::new(seed);
    value.hash(&mut h);
    h.finish()
}

/// How many equal-width arcs the ring carves out per configured vnode.
///
/// Placing vnodes at i.i.d. hashed points caps balance at a coefficient
/// of variation of `1/sqrt(vnodes)` (≈ 6% at 256 — a worst-case max/min
/// load ratio near 1.3), so instead the ring is pre-carved into
/// `vnodes × ARCS_PER_VNODE` *equal-width* arcs and each arc elects its
/// owner by seeded rendezvous (highest-random-weight) hashing over the
/// membership. Equal arcs make node load binomial (CV
/// `sqrt(n / arcs)` — well under 3% for the fleets simulated here), and
/// rendezvous election keeps the consistent-hashing contract exact: a
/// join claims only the arcs the newcomer wins, a leave re-homes only
/// the leaver's arcs.
pub const ARCS_PER_VNODE: usize = 64;

/// A consistent-hash ring with seeded placement.
///
/// The ring is split into `vnodes × `[`ARCS_PER_VNODE`] equal-width
/// arcs; each arc is owned by the member maximising
/// `hash(seed, (arc, node))` (rendezvous hashing). A key lands on the
/// arc containing `hash(seed, key)`; its replica set is the owner of
/// that arc followed by the next *distinct* owners walking clockwise.
/// Losing a node re-routes only the arcs it owned (≈ `1/N` of the
/// keyspace) instead of reshuffling everything — the property E20
/// measures.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `owners[q]` is the member owning arc `q`; empty until the first
    /// member joins.
    owners: Vec<usize>,
    seed: u64,
    arcs: usize,
    members: Vec<usize>,
}

impl HashRing {
    /// An empty ring with `vnodes × `[`ARCS_PER_VNODE`] arcs.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes` is zero — a ring with no arcs could own
    /// nothing and silently unbalance every replica set.
    pub fn new(seed: u64, vnodes: usize) -> Self {
        assert!(vnodes > 0, "a ring needs at least one vnode");
        HashRing {
            owners: Vec::new(),
            seed,
            arcs: vnodes * ARCS_PER_VNODE,
            members: Vec::new(),
        }
    }

    /// The arc containing ring position `h` (multiplicative range map,
    /// no modulo bias).
    fn arc_of(&self, h: u64) -> usize {
        ((u128::from(h) * self.arcs as u128) >> 64) as usize
    }

    /// Re-elects every arc's owner from the current membership. Pure
    /// function of `(seed, arcs, members)`, so two rings built through
    /// different join/leave histories converge to identical placement.
    fn rebuild(&mut self) {
        if self.members.is_empty() {
            self.owners.clear();
            return;
        }
        let owners = (0..self.arcs)
            .map(|q| {
                self.members
                    .iter()
                    .copied()
                    .max_by_key(|&n| (ring_hash(self.seed, &(q, n)), Reverse(n)))
                    .expect("membership checked non-empty") // hc-lint: allow(panic-expect)
            })
            .collect();
        self.owners = owners;
    }

    /// Adds `node` to the ring (no-op if already a member).
    pub fn add_node(&mut self, node: usize) {
        if self.members.contains(&node) {
            return;
        }
        self.members.push(node);
        self.members.sort_unstable();
        self.rebuild();
    }

    /// Removes `node` from the ring (no-op if absent).
    pub fn remove_node(&mut self, node: usize) {
        self.members.retain(|&m| m != node);
        self.rebuild();
    }

    /// Current member node ids, ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The node owning `key` (its primary replica), or `None` on an
    /// empty ring.
    pub fn primary<K: Hash + ?Sized>(&self, key: &K) -> Option<usize> {
        self.replicas(key, 1).first().copied()
    }

    /// The first `r` distinct arc owners clockwise from `key`'s arc:
    /// primary first, then followers. Returns fewer than `r` when the
    /// ring has fewer members.
    pub fn replicas<K: Hash + ?Sized>(&self, key: &K, r: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(r.min(self.members.len()));
        if self.owners.is_empty() || r == 0 {
            return out;
        }
        let r = r.min(self.members.len());
        let start = self.arc_of(ring_hash(self.seed, key));
        for i in 0..self.arcs {
            let node = self.owners[(start + i) % self.arcs]; // hc-lint: allow(panic-index)
            if !out.contains(&node) {
                out.push(node);
                if out.len() == r {
                    break;
                }
            }
        }
        out
    }

    /// Fraction of `sample` keys whose primary differs between `self`
    /// and `other` — the rebalance cost of a membership change. On a
    /// healthy ring, adding one node to `n` moves ≈ `1/(n+1)`.
    pub fn moved_fraction<K: Hash>(&self, other: &HashRing, sample: &[K]) -> f64 {
        if sample.is_empty() {
            return 0.0;
        }
        let moved = sample
            .iter()
            .filter(|k| self.primary(*k) != other.primary(*k))
            .count();
        moved as f64 / sample.len() as f64
    }

    /// Keys-per-node histogram over a key sample: `counts[i]` is how
    /// many sample keys the `i`-th member (ascending id order) owns.
    pub fn load_counts<K: Hash>(&self, sample: &[K]) -> Vec<(usize, usize)> {
        let mut counts: Vec<(usize, usize)> = self.members.iter().map(|&m| (m, 0)).collect();
        for key in sample {
            if let Some(p) = self.primary(key) {
                if let Some(slot) = counts.iter_mut().find(|(m, _)| *m == p) {
                    slot.1 += 1;
                }
            }
        }
        counts
    }
}

/// Configuration for a [`CacheFleet`].
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Replicas per key (primary + `replication - 1` followers).
    pub replication: usize,
    /// Ring resolution: the ring has `vnodes ×` [`ARCS_PER_VNODE`]
    /// equal-width arcs; more vnodes means tighter load balance.
    pub vnodes: usize,
    /// Total entry capacity of each node's cache.
    pub node_capacity: usize,
    /// Lock stripes inside each node's cache (non-zero power of two).
    pub node_shards: usize,
    /// Seed for ring placement and shard routing.
    pub seed: u64,
    /// Latency/bandwidth model for replica traffic.
    pub network: NetworkModel,
    /// Time a read burns discovering that a probed node is dead (before
    /// its breaker opens and stops the probes).
    pub probe_timeout: SimDuration,
    /// Consecutive probe failures before a node's breaker opens.
    pub breaker_trip_threshold: u32,
    /// How long an open breaker waits before re-probing the node.
    pub breaker_cooldown: SimDuration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replication: 3,
            vnodes: 128,
            node_capacity: 4096,
            node_shards: 8,
            seed: 0xF1EE7,
            network: NetworkModel::default(),
            probe_timeout: SimDuration::from_millis(5),
            breaker_trip_threshold: 3,
            breaker_cooldown: SimDuration::from_millis(250),
        }
    }
}

/// A node's local store: versioned values behind the lock-striped cache.
type NodeCache<K, V> = ShardedCache<K, (V, u64), LruCache<K, (V, u64)>>;

/// One replica's answer to a read probe: `(node, copy, round trip)`.
type ProbeResponse<V> = (usize, Option<(V, u64)>, SimDuration);

/// Per-node state: a sharded cache pinned to a topology location, plus
/// the circuit breaker that guards reads against it.
struct FleetNode<K, V> {
    location: Location,
    cache: NodeCache<K, V>,
    breaker: CircuitBreaker,
    up: bool,
}

/// The outcome of a fleet read.
#[derive(Clone, Debug, PartialEq)]
pub enum FleetRead<V> {
    /// Served by replica `node` at `cost` (its round trip plus any
    /// probe time burnt on dead replicas ahead of it).
    Hit {
        /// The newest value seen across the replica set.
        value: V,
        /// Its version.
        version: u64,
        /// The serving node's id.
        node: usize,
        /// Simulated time the read cost the caller.
        cost: SimDuration,
    },
    /// No replica holds the key (or none was reachable in budget).
    Miss {
        /// Simulated time burnt learning that.
        cost: SimDuration,
    },
}

impl<V> FleetRead<V> {
    /// The simulated cost of this read, hit or miss.
    pub fn cost(&self) -> SimDuration {
        match self {
            FleetRead::Hit { cost, .. } | FleetRead::Miss { cost } => *cost,
        }
    }

    /// Whether the read hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, FleetRead::Hit { .. })
    }
}

/// Running counters, exposed raw for harness assertions (the `fleet.*`
/// telemetry family mirrors them when [`CacheFleet::instrument`] is on).
#[derive(Clone, Debug, Default)]
pub struct FleetStats {
    /// Reads served by some replica.
    pub hits: u64,
    /// Reads no replica could serve.
    pub misses: u64,
    /// Stale or missing replica copies rewritten by read-repair.
    pub read_repairs: u64,
    /// Reads that observed replicas disagreeing on a key's version.
    pub divergent_reads: u64,
    /// Probes that found a node dead or unreachable.
    pub probe_failures: u64,
    /// Probes a node's open breaker suppressed (fast-fail, no timeout).
    pub breaker_skips: u64,
    /// Invalidation deliveries scheduled.
    pub invalidations_sent: u64,
    /// Invalidation deliveries applied at a replica.
    pub invalidations_delivered: u64,
    /// Deliveries parked behind a partition, awaiting heal.
    pub invalidations_parked: u64,
    /// Deliveries dropped because the target was down (its cache is
    /// cleared on crash, so the invalidation is moot).
    pub invalidations_dropped: u64,
    /// Worst write→last-replica-invalidated gap seen so far.
    pub max_staleness: SimDuration,
}

/// Telemetry handles for the `fleet.*` metric family.
struct FleetInstruments {
    node_hits: Vec<hc_telemetry::Counter>,
    node_misses: Vec<hc_telemetry::Counter>,
    read_repairs: hc_telemetry::Counter,
    divergence: hc_telemetry::Histogram,
    probe_failures: hc_telemetry::Counter,
    fanout_latency: hc_telemetry::Histogram,
    staleness: hc_telemetry::Histogram,
    parked: hc_telemetry::Gauge,
    nodes_up: hc_telemetry::Gauge,
}

/// A pending invalidation delivery: `(due, seq, node, written, key)`.
/// Ordered by due time then sequence number, so simultaneous deliveries
/// apply in publish order — deterministic across runs.
type Delivery<K> = (SimInstant, u64, usize, SimInstant, K);

/// A delivery parked behind a partition: `(node, written, from, key)`.
type Parked<K> = (usize, SimInstant, Location, K);

/// A replicated, region-aware cache fleet on the simulated topology.
///
/// See the [module docs](self) for the protocol. All time is accounted
/// against the shared [`SimClock`] handed to [`CacheFleet::new`];
/// callers advance it and call [`CacheFleet::tick`] to land in-flight
/// invalidation deliveries.
pub struct CacheFleet<K, V> {
    cfg: FleetConfig,
    clock: SimClock,
    ring: HashRing,
    nodes: Vec<FleetNode<K, V>>,
    /// Regions currently cut off from the rest of the topology.
    partitioned: Vec<bool>,
    pending: BinaryHeap<Reverse<Delivery<K>>>,
    parked: Vec<Parked<K>>,
    seq: u64,
    stats: FleetStats,
    instruments: Option<FleetInstruments>,
}

impl<K, V> std::fmt::Debug for CacheFleet<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheFleet")
            .field("nodes", &self.nodes.len())
            .field("replication", &self.cfg.replication)
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl<K, V> CacheFleet<K, V>
where
    K: Hash + Eq + Ord + Clone,
    V: Clone,
{
    /// An empty fleet on `clock`; add nodes with
    /// [`add_node`](CacheFleet::add_node).
    pub fn new(cfg: FleetConfig, clock: SimClock) -> Self {
        let ring = HashRing::new(cfg.seed, cfg.vnodes);
        CacheFleet {
            cfg,
            clock,
            ring,
            nodes: Vec::new(),
            partitioned: Vec::new(),
            pending: BinaryHeap::new(),
            parked: Vec::new(),
            seq: 0,
            stats: FleetStats::default(),
            instruments: None,
        }
    }

    /// Convenience: a fleet of `nodes_per_region` nodes in each of
    /// `regions` regions, hosts numbered within the region.
    pub fn with_topology(cfg: FleetConfig, clock: SimClock, regions: usize, nodes_per_region: usize) -> Self {
        let mut fleet = CacheFleet::new(cfg, clock);
        for region in 0..regions {
            for host in 0..nodes_per_region {
                fleet.add_node(Location::new(region, host));
            }
        }
        fleet
    }

    /// Adds a node at `location` and rebalances the ring. Returns the
    /// new node's id.
    pub fn add_node(&mut self, location: Location) -> usize {
        let id = self.nodes.len();
        let cache = ShardedCache::new(
            self.cfg.node_shards,
            hc_common::rng::split(self.cfg.seed, id as u64),
            |_| LruCache::new(shard_capacity(self.cfg.node_capacity, self.cfg.node_shards)),
        );
        let breaker = CircuitBreaker::new(self.clock.clone())
            .with_trip_threshold(self.cfg.breaker_trip_threshold)
            .with_cooldown(self.cfg.breaker_cooldown);
        self.nodes.push(FleetNode {
            location,
            cache,
            breaker,
            up: true,
        });
        if self.partitioned.len() <= location.region {
            self.partitioned.resize(location.region + 1, false);
        }
        self.ring.add_node(id);
        self.refresh_gauges();
        id
    }

    /// Decommissions a node: removes it from the ring and drops its
    /// contents. Keys it owned re-route to the next replicas clockwise.
    pub fn remove_node(&mut self, node: usize) {
        self.ring.remove_node(node);
        if let Some(n) = self.nodes.get_mut(node) {
            n.up = false;
            n.cache.clear();
        }
        self.refresh_gauges();
    }

    /// Registers the `fleet.*` metric family on `registry`.
    pub fn instrument(&mut self, registry: &hc_telemetry::Registry) {
        self.instruments = Some(FleetInstruments {
            node_hits: (0..self.nodes.len())
                .map(|i| registry.counter(&format!("fleet.node.{i}.hits")))
                .collect(),
            node_misses: (0..self.nodes.len())
                .map(|i| registry.counter(&format!("fleet.node.{i}.misses")))
                .collect(),
            read_repairs: registry.counter("fleet.read_repair.count"),
            divergence: registry.histogram("fleet.read_repair.divergence"),
            probe_failures: registry.counter("fleet.probe.failures"),
            fanout_latency: registry.histogram("fleet.invalidation.fanout_latency_ns"),
            staleness: registry.histogram("fleet.invalidation.staleness_ns"),
            parked: registry.gauge("fleet.invalidation.parked"),
            nodes_up: registry.gauge("fleet.nodes.up"),
        });
        self.refresh_gauges();
    }

    fn refresh_gauges(&mut self) {
        if let Some(inst) = &self.instruments {
            let up = self.nodes.iter().filter(|n| n.up).count();
            inst.nodes_up.set(up as i64);
            inst.parked.set(self.parked.len() as i64);
        }
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The ring (for balance/rebalance measurements).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Running counters.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// A node's topology location.
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    pub fn node_location(&self, node: usize) -> Location {
        self.nodes[node].location // hc-lint: allow(panic-index)
    }

    /// Whether two locations can currently talk: same region, or
    /// neither side is partitioned off.
    fn reachable(&self, a: Location, b: Location) -> bool {
        a.region == b.region
            || (!self.partitioned.get(a.region).copied().unwrap_or(false)
                && !self.partitioned.get(b.region).copied().unwrap_or(false))
    }

    /// Crashes a node: it stops answering probes and loses its contents
    /// (a restart comes back cold).
    pub fn crash_node(&mut self, node: usize) {
        if let Some(n) = self.nodes.get_mut(node) {
            n.up = false;
            n.cache.clear();
        }
        self.refresh_gauges();
    }

    /// Restores a crashed node (cold — read-repair and fills warm it).
    pub fn restore_node(&mut self, node: usize) {
        if let Some(n) = self.nodes.get_mut(node) {
            n.up = true;
        }
        self.refresh_gauges();
    }

    /// Cuts `region` off from every other region. Traffic within the
    /// region still flows; cross-boundary invalidations park until
    /// [`heal_region`](CacheFleet::heal_region).
    pub fn partition_region(&mut self, region: usize) {
        if self.partitioned.len() <= region {
            self.partitioned.resize(region + 1, false);
        }
        self.partitioned[region] = true; // hc-lint: allow(panic-index)
    }

    /// Heals a partition: parked deliveries that can now cross re-enter
    /// the fan-out, due one network latency from now.
    pub fn heal_region(&mut self, region: usize) {
        if let Some(flag) = self.partitioned.get_mut(region) {
            *flag = false;
        }
        let parked = std::mem::take(&mut self.parked);
        for (node, written, from, key) in parked {
            let Some(target) = self.nodes.get(node) else { continue };
            if self.reachable(from, target.location) {
                let due = self.clock.now() + self.cfg.network.latency(from, target.location);
                self.seq += 1;
                self.pending.push(Reverse((due, self.seq, node, written, key)));
            } else {
                self.parked.push((node, written, from, key));
            }
        }
        self.refresh_gauges();
    }

    /// Replica candidates for `key`, nearest-first from `client`
    /// (latency, then node id — total and deterministic).
    fn replica_order(&self, key: &K, client: Location) -> Vec<usize> {
        let mut replicas = self.ring.replicas(key, self.cfg.replication);
        replicas.sort_by_key(|&n| {
            let loc = self.nodes.get(n).map(|node| node.location).unwrap_or(client);
            (self.cfg.network.latency(client, loc).as_nanos(), n)
        });
        replicas
    }

    /// Reads `key` from the replica set, fanning out in parallel.
    ///
    /// The read is served by the nearest live replica that holds the
    /// key, at its round trip. Dead replicas that are probed (breaker
    /// still closed) burn [`FleetConfig::probe_timeout`] and feed the
    /// breaker; replicas behind an open breaker are skipped for free. A
    /// miss costs the slowest probe that had to answer before the miss
    /// was definitive. All costs are clamped to what `budget` has left.
    ///
    /// If replicas disagree on the key's version, the newest value wins
    /// and stale or missing copies are rewritten (read-repair) off the
    /// request path.
    pub fn read(&mut self, key: &K, client: Location, budget: &TimeoutBudget) -> FleetRead<V> {
        let order = self.replica_order(key, client);
        let remaining = budget.remaining(&self.clock);
        let mut responses: Vec<ProbeResponse<V>> = Vec::new();
        let mut slowest_probe = SimDuration::ZERO;
        for node_id in order {
            let Some((location, up)) = self.nodes.get(node_id).map(|n| (n.location, n.up)) else {
                continue;
            };
            let rtt = self.cfg.network.latency(client, location).saturating_mul(2);
            let alive = up && self.reachable(client, location);
            let Some(node) = self.nodes.get_mut(node_id) else { continue };
            if !node.breaker.allow() {
                // Open breaker: fail fast, don't even send the probe.
                self.stats.breaker_skips += 1;
                continue;
            }
            if !alive {
                node.breaker.record_failure();
                self.stats.probe_failures += 1;
                if let Some(inst) = &self.instruments {
                    inst.probe_failures.inc();
                }
                slowest_probe = slowest_probe.max(self.cfg.probe_timeout);
                continue;
            }
            node.breaker.record_success();
            let answer = node.cache.get(key);
            if let Some(inst) = &self.instruments {
                let counters = if answer.is_some() {
                    &inst.node_hits
                } else {
                    &inst.node_misses
                };
                if let Some(c) = counters.get(node_id) {
                    c.inc();
                }
            }
            responses.push((node_id, answer, rtt));
        }

        // Newest version wins; candidates arrive nearest-first, so ties
        // go to the closest replica.
        let best = responses
            .iter()
            .filter_map(|(n, ans, rtt)| ans.as_ref().map(|(v, ver)| (*n, v.clone(), *ver, *rtt)))
            .max_by(|a, b| a.2.cmp(&b.2).then(b.3.cmp(&a.3)));

        match best {
            Some((node, value, version, rtt)) => {
                self.stats.hits += 1;
                self.read_repair(key, &value, version, &responses);
                let cost = rtt.min(remaining);
                FleetRead::Hit {
                    value,
                    version,
                    node,
                    cost,
                }
            }
            None => {
                self.stats.misses += 1;
                // A definitive miss waits for every live replica's
                // answer and every probed-dead replica's timeout.
                let slowest_answer = responses
                    .iter()
                    .map(|(_, _, rtt)| *rtt)
                    .max()
                    .unwrap_or(SimDuration::ZERO);
                let cost = slowest_answer.max(slowest_probe).min(remaining);
                FleetRead::Miss { cost }
            }
        }
    }

    /// Rewrites replicas whose copy of `key` is older than `version`
    /// (or missing) with the winning value. Off the request path: the
    /// repair traffic is asynchronous and not charged to the reader.
    fn read_repair(
        &mut self,
        key: &K,
        value: &V,
        version: u64,
        responses: &[ProbeResponse<V>],
    ) {
        let mut diverged = false;
        let mut repairs = 0u64;
        for (node_id, answer, _) in responses {
            let stale = match answer {
                Some((_, v)) => *v < version,
                None => true,
            };
            if stale {
                diverged |= answer.is_some();
                if let Some(node) = self.nodes.get_mut(*node_id) {
                    node.cache.put(key.clone(), (value.clone(), version));
                    repairs += 1;
                }
            }
        }
        if repairs > 0 {
            self.stats.read_repairs += repairs;
            if diverged {
                self.stats.divergent_reads += 1;
            }
            if let Some(inst) = &self.instruments {
                inst.read_repairs.add(repairs);
                inst.divergence.record(repairs);
            }
        }
    }

    /// Fills `key` at every live, reachable replica (an origin fetch
    /// completing). Version-gated: a replica already holding something
    /// newer keeps it.
    pub fn fill(&mut self, key: &K, value: &V, version: u64, from: Location) {
        let replicas = self.ring.replicas(key, self.cfg.replication);
        for node_id in replicas {
            let reachable = self
                .nodes
                .get(node_id)
                .is_some_and(|n| self.reachable(from, n.location));
            if let Some(node) = self.nodes.get_mut(node_id) {
                if !node.up || !reachable {
                    continue;
                }
                let newer_exists = node.cache.get(key).is_some_and(|(_, v)| v >= version);
                if !newer_exists {
                    node.cache.put(key.clone(), (value.clone(), version));
                }
            }
        }
    }

    /// Publishes a write-invalidation for `key` from `from`: one
    /// delivery per replica, due one one-way network latency out.
    /// Deliveries to partitioned replicas park until the heal;
    /// deliveries to crashed replicas are dropped (the crash already
    /// emptied the cache).
    pub fn write_invalidate(&mut self, key: &K, from: Location) {
        let now = self.clock.now();
        let replicas = self.ring.replicas(key, self.cfg.replication);
        for node_id in replicas {
            let Some(node) = self.nodes.get(node_id) else { continue };
            self.stats.invalidations_sent += 1;
            if !node.up {
                self.stats.invalidations_dropped += 1;
                continue;
            }
            if !self.reachable(from, node.location) {
                self.stats.invalidations_parked += 1;
                self.parked.push((node_id, now, from, key.clone()));
                continue;
            }
            let due = now + self.cfg.network.latency(from, node.location);
            self.seq += 1;
            self.pending
                .push(Reverse((due, self.seq, node_id, now, key.clone())));
        }
        self.refresh_gauges();
    }

    /// Applies every invalidation delivery due by `now`, advancing the
    /// staleness accounting. Call this on the simulation's cadence
    /// (e.g. each closed-loop tick).
    pub fn tick(&mut self, now: SimInstant) {
        while let Some(Reverse((due, _, _, _, _))) = self.pending.peek() {
            if *due > now {
                break;
            }
            let Some(Reverse((due, _, node_id, written, key))) = self.pending.pop() else {
                break;
            };
            let Some(node) = self.nodes.get_mut(node_id) else { continue };
            if node.up {
                node.cache.invalidate(&key);
                self.stats.invalidations_delivered += 1;
            } else {
                self.stats.invalidations_dropped += 1;
            }
            let staleness = due.duration_since(written);
            self.stats.max_staleness = self.stats.max_staleness.max(staleness);
            if let Some(inst) = &self.instruments {
                inst.fanout_latency.record(staleness.as_nanos());
                inst.staleness.record(due.duration_since(written).as_nanos());
            }
        }
        self.refresh_gauges();
    }

    /// Each replica's view of `key`: `(node, version)`, version 0 when
    /// the replica has no copy. The convergence probe for the partition
    /// soak test: after a heal plus a read, all live replicas agree.
    pub fn replica_versions(&self, key: &K) -> Vec<(usize, u64)> {
        self.ring
            .replicas(key, self.cfg.replication)
            .into_iter()
            .map(|n| {
                let version = self
                    .nodes
                    .get(n)
                    .and_then(|node| node.cache.get(key))
                    .map(|(_, v)| v)
                    .unwrap_or(0);
                (n, version)
            })
            .collect()
    }

    /// Invalidation deliveries still in flight (not yet due).
    pub fn pending_deliveries(&self) -> usize {
        self.pending.len()
    }

    /// Deliveries parked behind a partition.
    pub fn parked_deliveries(&self) -> usize {
        self.parked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(clock: &SimClock) -> TimeoutBudget {
        TimeoutBudget::starting_now(clock, SimDuration::from_secs(1))
    }

    fn small_fleet(clock: &SimClock) -> CacheFleet<u64, u64> {
        let cfg = FleetConfig {
            node_capacity: 256,
            ..FleetConfig::default()
        };
        CacheFleet::with_topology(cfg, clock.clone(), 3, 2)
    }

    #[test]
    fn ring_is_deterministic() {
        let mut a = HashRing::new(7, 64);
        let mut b = HashRing::new(7, 64);
        for n in 0..6 {
            a.add_node(n);
            b.add_node(n);
        }
        for k in 0..500u64 {
            assert_eq!(a.replicas(&k, 3), b.replicas(&k, 3));
        }
    }

    #[test]
    fn replicas_are_distinct_and_capped() {
        let mut ring = HashRing::new(1, 32);
        for n in 0..4 {
            ring.add_node(n);
        }
        for k in 0..200u64 {
            let r = ring.replicas(&k, 3);
            assert_eq!(r.len(), 3);
            let mut sorted = r.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct nodes");
        }
        // Asking for more replicas than members returns all members.
        assert_eq!(ring.replicas(&1u64, 9).len(), 4);
    }

    #[test]
    fn removing_a_node_moves_only_its_arc() {
        let mut before = HashRing::new(3, 128);
        for n in 0..8 {
            before.add_node(n);
        }
        let mut after = before.clone();
        after.remove_node(3);
        let sample: Vec<u64> = (0..4000).collect();
        let moved = before.moved_fraction(&after, &sample);
        // Node 3 owned ≈ 1/8 of the keyspace; nothing else may move.
        assert!(moved < 0.25, "moved {moved}, expected ≈ 1/8");
        for k in sample {
            if before.primary(&k) != Some(3) {
                assert_eq!(before.primary(&k), after.primary(&k));
            }
        }
    }

    #[test]
    fn fill_then_read_hits_nearest_replica() {
        let clock = SimClock::new();
        let mut fleet = small_fleet(&clock);
        let client = Location::new(0, 9);
        fleet.fill(&42, &777, 1, client);
        let read = fleet.read(&42, client, &budget(&clock));
        match read {
            FleetRead::Hit { value, version, node, cost } => {
                assert_eq!((value, version), (777, 1));
                // Cost is the serving replica's round trip.
                let loc = fleet.node_location(node);
                let rtt = fleet.cfg.network.latency(client, loc).saturating_mul(2);
                assert_eq!(cost, rtt);
            }
            FleetRead::Miss { .. } => panic!("filled key must hit"),
        }
        assert_eq!(fleet.stats().hits, 1);
    }

    #[test]
    fn miss_costs_the_slowest_answer() {
        let clock = SimClock::new();
        let mut fleet = small_fleet(&clock);
        let client = Location::new(0, 9);
        let read = fleet.read(&1, client, &budget(&clock));
        assert!(!read.is_hit());
        // At least one replica of key 1 is in a remote region, so the
        // definitive miss waits on an inter-region round trip unless all
        // three replicas landed in region 0.
        let replicas = fleet.ring().replicas(&1u64, 3);
        let max_rtt = replicas
            .iter()
            .map(|&n| {
                fleet
                    .cfg
                    .network
                    .latency(client, fleet.node_location(n))
                    .saturating_mul(2)
            })
            .max()
            .unwrap();
        assert_eq!(read.cost(), max_rtt);
    }

    #[test]
    fn crashed_node_degrades_but_serves() {
        let clock = SimClock::new();
        let mut fleet = small_fleet(&clock);
        let client = Location::new(0, 9);
        for k in 0..100u64 {
            fleet.fill(&k, &k, 1, client);
        }
        fleet.crash_node(0);
        let mut hits = 0;
        for k in 0..100u64 {
            if fleet.read(&k, client, &budget(&clock)).is_hit() {
                hits += 1;
            }
        }
        // R=3: every key has two surviving replicas.
        assert_eq!(hits, 100, "replication must mask a single crash");
        assert!(fleet.stats().probe_failures > 0, "dead node was probed");
    }

    #[test]
    fn breaker_opens_and_stops_probing_a_dead_node() {
        let clock = SimClock::new();
        let mut fleet = small_fleet(&clock);
        let client = Location::new(0, 9);
        fleet.fill(&5, &5, 1, client);
        fleet.crash_node(fleet.ring().replicas(&5u64, 1)[0]); // hc-lint: allow(panic-index)
        for _ in 0..10 {
            fleet.read(&5, client, &budget(&clock));
        }
        assert!(
            fleet.stats().breaker_skips > 0,
            "after the trip threshold, probes fast-fail through the breaker"
        );
    }

    #[test]
    fn invalidation_rides_the_network_and_is_bounded() {
        let clock = SimClock::new();
        let mut fleet = small_fleet(&clock);
        let writer = Location::new(0, 0);
        fleet.fill(&9, &1, 1, writer);
        fleet.write_invalidate(&9, writer);
        assert!(fleet.pending_deliveries() > 0);
        // Nothing lands before the clock reaches the due times.
        fleet.tick(clock.now());
        let inter = fleet.cfg.network.inter_latency;
        clock.advance(inter);
        fleet.tick(clock.now());
        assert_eq!(fleet.pending_deliveries(), 0, "all deliveries due within one inter-region latency");
        assert!(fleet.stats().max_staleness <= inter);
        // Every replica dropped its copy.
        assert!(fleet.replica_versions(&9).iter().all(|&(_, v)| v == 0));
    }

    #[test]
    fn partition_parks_and_heal_converges() {
        let clock = SimClock::new();
        let mut fleet = small_fleet(&clock);
        let writer = Location::new(0, 0);
        // Pick a key with a replica outside region 0.
        let key = (0..1000u64)
            .find(|k| {
                fleet
                    .ring()
                    .replicas(k, 3)
                    .iter()
                    .any(|&n| fleet.node_location(n).region != 0)
            })
            .unwrap();
        fleet.fill(&key, &1, 1, writer);
        let remote_region = fleet
            .ring()
            .replicas(&key, 3)
            .iter()
            .map(|&n| fleet.node_location(n).region)
            .find(|&r| r != 0)
            .unwrap();
        fleet.partition_region(remote_region);
        fleet.write_invalidate(&key, writer);
        assert!(fleet.parked_deliveries() > 0, "cross-partition delivery parks");
        clock.advance(SimDuration::from_secs(1));
        fleet.tick(clock.now());
        // The partitioned replica still holds the stale copy.
        assert!(fleet
            .replica_versions(&key)
            .iter()
            .any(|&(_, v)| v == 1));
        fleet.heal_region(remote_region);
        clock.advance(fleet.cfg.network.inter_latency);
        fleet.tick(clock.now());
        assert_eq!(fleet.parked_deliveries(), 0);
        assert!(
            fleet.replica_versions(&key).iter().all(|&(_, v)| v == 0),
            "heal flushes parked invalidations to every replica"
        );
    }

    #[test]
    fn read_repair_heals_a_stale_replica() {
        let clock = SimClock::new();
        let mut fleet = small_fleet(&clock);
        let client = Location::new(0, 9);
        fleet.fill(&7, &1, 1, client);
        // A node restart loses its copy.
        let victim = fleet.ring().replicas(&7u64, 3)[2]; // hc-lint: allow(panic-index)
        fleet.crash_node(victim);
        fleet.restore_node(victim);
        assert!(fleet.replica_versions(&7).iter().any(|&(_, v)| v == 0));
        // One read repairs it.
        assert!(fleet.read(&7, client, &budget(&clock)).is_hit());
        assert!(fleet.replica_versions(&7).iter().all(|&(_, v)| v == 1));
        assert!(fleet.stats().read_repairs >= 1);
    }

    #[test]
    fn newer_version_wins_over_nearer_replica() {
        let clock = SimClock::new();
        let mut fleet = small_fleet(&clock);
        let client = Location::new(0, 9);
        fleet.fill(&3, &10, 1, client);
        // Simulate a replica that took a later fill: bump it directly.
        let replicas = fleet.ring().replicas(&3u64, 3);
        let far = *replicas.last().unwrap();
        fleet.nodes[far].cache.put(3, (20, 2)); // hc-lint: allow(panic-index)
        match fleet.read(&3, client, &budget(&clock)) {
            FleetRead::Hit { value, version, .. } => {
                assert_eq!((value, version), (20, 2), "newest version wins");
            }
            FleetRead::Miss { .. } => panic!("must hit"),
        }
        // And the stale replicas were repaired to version 2.
        assert!(fleet.replica_versions(&3).iter().all(|&(_, v)| v == 2));
    }

    #[test]
    fn fleet_metrics_register_and_count() {
        let clock = SimClock::new();
        let registry = hc_telemetry::Registry::new();
        let mut fleet = small_fleet(&clock);
        fleet.instrument(&registry);
        let client = Location::new(0, 9);
        fleet.fill(&1, &1, 1, client);
        fleet.read(&1, client, &budget(&clock));
        fleet.write_invalidate(&1, client);
        clock.advance(SimDuration::from_millis(60));
        fleet.tick(clock.now());
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("fleet.nodes.up"), Some(6));
        let node_hits: u64 = (0..6)
            .map(|i| snap.counter(&format!("fleet.node.{i}.hits")).unwrap_or(0))
            .sum();
        assert!(node_hits >= 1);
        assert!(snap.histogram("fleet.invalidation.staleness_ns").is_some());
    }
}
