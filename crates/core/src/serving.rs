//! The overload-protected serving path and its closed-loop driver.
//!
//! This module is the platform's *front door under pressure*: it
//! composes the `hc-resilience` overload machinery — token-bucket
//! [`AdmissionController`] with per-tier reserves, hysteretic
//! [`LoadShedder`], deadline propagation via [`TimeoutBudget`], and the
//! shed-rate-driven [`DegradedMode`] controller — around the sharded
//! read path (`ShardedCache` → origin) with sampled provenance recorded
//! to the PBFT ledger. The [`run_overload`] driver then closes the loop:
//! a seeded population of simulated users (diurnal [`LoadCurve`], flash
//! crowds, Zipf keys) offers traffic, the stack admits/sheds/serves on
//! the simulated clock, and the report carries per-tier latency
//! percentiles, goodput and shed rates that the E19 experiment asserts
//! SLOs against.
//!
//! # The fluid-queue service model
//!
//! Serving capacity is modelled as `cores` parallel workers draining a
//! shared backlog of outstanding work (nanoseconds of service time).
//! Each admitted request appends its service cost (cache hit vs. origin
//! miss) to the backlog; queue delay is `backlog / cores`; every tick
//! drains `cores × tick` of backlog. The origin is a second, smaller
//! fluid queue: every miss dispatches a fetch (adding `origin_fetch_cost`
//! to the origin backlog) and the miss's service cost includes the
//! origin's *current* queue delay — a serving worker is blocked for the
//! whole fetch. Cache fills are *asynchronous*: a miss inserts its key
//! only once the simulated fetch completes, so while a hot key's fill is
//! in flight every further read of it also misses. Together these give
//! cold-start miss storms their real shape: the herd of duplicate
//! fetches saturates the origin, origin delay inflates miss cost, which
//! backs up the serving queue and delays the very fills that would end
//! the storm. This deterministic fluid approximation stays bit-identical
//! across hosts (no wall clock, no OS scheduler).
//!
//! # Why the ledger runs on its own clock
//!
//! PBFT consensus *advances* its `SimClock` to model network rounds. The
//! provenance plane is asynchronous by design (batched, sampled); if it
//! shared the serving clock, every committed batch would inject
//! consensus latency into the read path's timeline. The stack therefore
//! drives the ledger on a private clock: provenance ordering is
//! preserved, serving timing is not distorted.

use hc_cache::fleet::{CacheFleet, FleetConfig, FleetRead};
use hc_cache::shard::ShardedCache;
use hc_cache::stats::CacheStats;
use hc_cloudsim::net::{Location, NetworkModel};
use hc_common::clock::{SimClock, SimDuration, SimInstant};
use hc_common::conc::{percentile, zipf_key_fast, LoadCurve};
use hc_common::rng::seeded_stream;
use hc_ledger::chain::Ledger;
use hc_ledger::consensus::PipelinedCluster;
use hc_ledger::policy::ProvenancePolicy;
use hc_ledger::provenance::{ProvenanceAction, ProvenanceEvent, ProvenanceNetwork};
use hc_resilience::admission::{AdmissionController, Tier};
use hc_resilience::shed::{DegradedConfig, DegradedMode, LoadShedder, ShedConfig, ShedReason};
use hc_resilience::{DegradationTracker, HealthState, SubsystemStatus, TimeoutBudget};
use hc_telemetry::{Counter, Gauge, Registry};
use rand::Rng;

/// Which overload defences are armed — the experiment's independent
/// variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protection {
    /// No defences: every request is queued and served, however late.
    /// The baseline that demonstrably violates SLOs under overload.
    None,
    /// Admission control only: the token bucket caps the sustained rate,
    /// but nothing reacts to queue growth from miss storms.
    AdmissionOnly,
    /// Admission control, queue-delay load shedding and deadline-based
    /// early shedding.
    Full,
}

impl Protection {
    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            Protection::None => "none",
            Protection::AdmissionOnly => "admission",
            Protection::Full => "full",
        }
    }
}

/// Configuration of the optional distributed cache fleet tier: a
/// replicated, region-aware [`CacheFleet`] probed between the local
/// cache and the origin. Local miss → fleet read (paying the replica
/// round trip on the calibrated network) → origin only when the fleet
/// misses too. `None` (the default) keeps the PR-6 single-process path
/// bit-identical.
#[derive(Clone, Debug)]
pub struct FleetTierConfig {
    /// Regions hosting cache nodes.
    pub regions: usize,
    /// Cache nodes per region.
    pub nodes_per_region: usize,
    /// Replicas per key.
    pub replication: usize,
    /// Virtual nodes per member on the ring.
    pub vnodes: usize,
    /// Entry capacity of each fleet node.
    pub node_capacity: usize,
    /// Lock stripes inside each fleet node (non-zero power of two).
    pub node_shards: usize,
    /// Where the serving front door sits on the topology.
    pub client: Location,
    /// Latency/bandwidth model for fleet traffic.
    pub network: NetworkModel,
    /// Fault schedule: `(node, crash_at, restore_at)` windows applied
    /// deterministically as the simulated clock passes them.
    pub crash_windows: Vec<(usize, SimInstant, SimInstant)>,
    /// Fault schedule: `(region, cut_at, heal_at)` partition windows.
    pub partition_windows: Vec<(usize, SimInstant, SimInstant)>,
}

impl Default for FleetTierConfig {
    fn default() -> Self {
        FleetTierConfig {
            regions: 3,
            nodes_per_region: 2,
            replication: 3,
            vnodes: 128,
            node_capacity: 4096,
            node_shards: 8,
            // Region 0, on a host of its own next to the region's nodes.
            client: Location::new(0, 99),
            network: NetworkModel::default(),
            crash_windows: Vec::new(),
            partition_windows: Vec::new(),
        }
    }
}

/// Static configuration of one serving stack.
#[derive(Clone, Debug)]
pub struct ServingConfig {
    /// Parallel service capacity draining the backlog.
    pub cores: u32,
    /// Service cost of a cache hit.
    pub hit_cost: SimDuration,
    /// Base service cost of a miss: the origin round trip + fill at an
    /// *idle* origin. The origin's current queue delay is added on top,
    /// since a serving worker stays blocked for the whole fetch.
    pub miss_cost: SimDuration,
    /// Origin-side work per fetch (added to the origin backlog on every
    /// dispatched miss).
    pub origin_fetch_cost: SimDuration,
    /// Origin-side parallelism draining fetch work.
    pub origin_cores: u32,
    /// Total cache capacity (entries) across all shards.
    pub cache_capacity: usize,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Admission bucket refill rate (requests/simulated second).
    pub admission_rate: f64,
    /// Admission bucket depth.
    pub admission_burst: f64,
    /// Load-shedder thresholds and hysteresis.
    pub shed: ShedConfig,
    /// Degraded-mode windowing and hysteresis.
    pub degraded: DegradedConfig,
    /// Per-tier latency SLOs, indexed by [`Tier::index`]; each request's
    /// deadline budget starts from its tier's SLO.
    pub tier_slos: [SimDuration; 3],
    /// Record one in this many served reads to the provenance ledger
    /// (0 disables the ledger entirely).
    pub provenance_sample: u64,
    /// Sampling divisor while degraded (coarser, to shed ledger load
    /// along with everything else).
    pub degraded_provenance_sample: u64,
    /// Provenance batch size (events per consensus round).
    pub provenance_batch: usize,
    /// Which defences are armed.
    pub protection: Protection,
    /// Deterministic seed for shard routing.
    pub seed: u64,
    /// Optional distributed cache fleet between the local cache and the
    /// origin. `None` preserves the single-process serving path exactly.
    pub fleet: Option<FleetTierConfig>,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            cores: 8,
            hit_cost: SimDuration::from_micros(50),
            miss_cost: SimDuration::from_micros(800),
            origin_fetch_cost: SimDuration::from_millis(1),
            origin_cores: 8,
            cache_capacity: 4096,
            cache_shards: 8,
            admission_rate: 60_000.0,
            admission_burst: 2_000.0,
            shed: ShedConfig::default(),
            degraded: DegradedConfig::default(),
            tier_slos: [
                SimDuration::from_millis(250),
                SimDuration::from_millis(1_000),
                SimDuration::from_millis(10_000),
            ],
            provenance_sample: 1024,
            degraded_provenance_sample: 16_384,
            provenance_batch: 64,
            protection: Protection::Full,
            seed: 0x5E12_71E5,
            fleet: None,
        }
    }
}

/// The outcome of one request offered to the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Served end to end.
    Served {
        /// Queue delay plus service time.
        latency: SimDuration,
        /// Whether the cache answered (vs. an origin miss).
        hit: bool,
        /// Whether the latency met the tier's SLO.
        within_slo: bool,
    },
    /// Dropped before consuming service capacity.
    Shed(ShedReason),
}

impl RequestOutcome {
    /// Whether the request was served (late or not).
    pub fn is_served(self) -> bool {
        matches!(self, RequestOutcome::Served { .. })
    }
}

/// `slo.*` registry handles.
struct SloInstruments {
    offered: Counter,
    served: Counter,
    served_within: Counter,
    shed_admission: Counter,
    shed_overload: Counter,
    shed_deadline: Counter,
    violations: [Counter; 3],
    queue_delay_us: Gauge,
    origin_delay_us: Gauge,
}

/// The fleet tier plus its fault schedule's progress flags.
struct FleetTier {
    fleet: CacheFleet<u64, u64>,
    client: Location,
    crash_windows: Vec<(usize, SimInstant, SimInstant)>,
    partition_windows: Vec<(usize, SimInstant, SimInstant)>,
    /// Per crash window: (crash applied, restore applied).
    crash_state: Vec<(bool, bool)>,
    /// Per partition window: (cut applied, heal applied).
    partition_state: Vec<(bool, bool)>,
}

impl FleetTier {
    fn new(cfg: &FleetTierConfig, clock: SimClock, seed: u64) -> Self {
        let fleet_cfg = FleetConfig {
            replication: cfg.replication,
            vnodes: cfg.vnodes,
            node_capacity: cfg.node_capacity,
            node_shards: cfg.node_shards,
            seed: hc_common::rng::split(seed, 0xF1EE7),
            network: cfg.network,
            ..FleetConfig::default()
        };
        let fleet =
            CacheFleet::with_topology(fleet_cfg, clock, cfg.regions, cfg.nodes_per_region);
        FleetTier {
            fleet,
            client: cfg.client,
            crash_state: vec![(false, false); cfg.crash_windows.len()],
            partition_state: vec![(false, false); cfg.partition_windows.len()],
            crash_windows: cfg.crash_windows.clone(),
            partition_windows: cfg.partition_windows.clone(),
        }
    }

    /// Fires every crash/restore and cut/heal whose scheduled instant
    /// the clock has passed. Idempotent per window edge.
    fn apply_schedule(&mut self, now: SimInstant) {
        for i in 0..self.crash_windows.len() {
            let (node, start, end) = self.crash_windows[i]; // hc-lint: allow(panic-index)
            let (crashed, restored) = self.crash_state[i]; // hc-lint: allow(panic-index)
            if !crashed && now >= start {
                self.fleet.crash_node(node);
                self.crash_state[i].0 = true; // hc-lint: allow(panic-index)
            } else if crashed && !restored && now >= end {
                self.fleet.restore_node(node);
                self.crash_state[i].1 = true; // hc-lint: allow(panic-index)
            }
        }
        for i in 0..self.partition_windows.len() {
            let (region, start, end) = self.partition_windows[i]; // hc-lint: allow(panic-index)
            let (cut, healed) = self.partition_state[i]; // hc-lint: allow(panic-index)
            if !cut && now >= start {
                self.fleet.partition_region(region);
                self.partition_state[i].0 = true; // hc-lint: allow(panic-index)
            } else if cut && !healed && now >= end {
                self.fleet.heal_region(region);
                self.partition_state[i].1 = true; // hc-lint: allow(panic-index)
            }
        }
    }
}

/// Fleet-tier outcomes over a closed-loop run, carried by
/// [`OverloadReport`] when the fleet is configured.
#[derive(Clone, Copy, Debug)]
pub struct FleetReportStats {
    /// Fleet reads served by some replica.
    pub hits: u64,
    /// Fleet reads no replica could serve.
    pub misses: u64,
    /// `hits / (hits + misses)`.
    pub hit_ratio: f64,
    /// Probes that found a node dead or unreachable.
    pub probe_failures: u64,
    /// Probes suppressed by an open per-node circuit breaker.
    pub breaker_skips: u64,
    /// Stale or missing replica copies rewritten by read-repair.
    pub read_repairs: u64,
}

/// The overload-protected serving stack: admission → shedding → deadline
/// → sharded cache → origin, with degraded-mode tracking and sampled
/// ledger provenance.
pub struct ServingStack {
    clock: SimClock,
    cfg: ServingConfig,
    admission: AdmissionController,
    shedder: LoadShedder,
    degraded: DegradedMode,
    tracker: DegradationTracker,
    cache: ShardedCache<u64, u64, hc_cache::policy::LruCache<u64, u64>>,
    fleet: Option<FleetTier>,
    provenance: Option<ProvenanceNetwork>,
    /// Backlog of admitted-but-unserved work, in nanoseconds of service
    /// time across all cores.
    backlog_ns: u64,
    /// Outstanding origin-side fetch work, in nanoseconds across the
    /// origin's cores.
    origin_backlog_ns: u64,
    /// Origin fetches in flight, keyed by completion instant (min-heap:
    /// completion order is not arrival order once queue delays shift).
    /// The key lands in the cache only once its fetch completes.
    pending_fills: std::collections::BinaryHeap<std::cmp::Reverse<(SimInstant, u64)>>,
    peak_queue_delay: SimDuration,
    peak_origin_delay: SimDuration,
    served: u64,
    provenance_recorded: u64,
    provenance_errors: u64,
    instruments: Option<SloInstruments>,
}

impl ServingStack {
    /// A stack on `clock` with the given configuration. The provenance
    /// ledger (when enabled) runs on a private clock — see the module
    /// docs.
    pub fn new(clock: SimClock, cfg: ServingConfig) -> Self {
        let admission =
            AdmissionController::new(clock.clone(), cfg.admission_rate, cfg.admission_burst);
        let shedder = LoadShedder::new(clock.clone(), cfg.shed);
        let degraded = DegradedMode::new(clock.clone(), cfg.degraded);
        let cache = ShardedCache::lru(cfg.cache_capacity, cfg.cache_shards.max(1), cfg.seed);
        let fleet = cfg
            .fleet
            .as_ref()
            .map(|fc| FleetTier::new(fc, clock.clone(), cfg.seed));
        let provenance = (cfg.provenance_sample > 0).then(|| {
            let cluster = PipelinedCluster::new(4, 1, SimClock::new())
                .expect("4-node PBFT cluster is always constructible"); // hc-lint: allow(panic-expect)
            let mut ledger = Ledger::new(cluster);
            ledger.install_policy(Box::new(ProvenancePolicy));
            ProvenanceNetwork::new(ledger, cfg.provenance_batch.max(1))
        });
        let mut tracker = DegradationTracker::new();
        tracker.register("serving", true);
        ServingStack {
            clock,
            cfg,
            admission,
            shedder,
            degraded,
            tracker,
            cache,
            fleet,
            provenance,
            backlog_ns: 0,
            origin_backlog_ns: 0,
            pending_fills: std::collections::BinaryHeap::new(),
            peak_queue_delay: SimDuration::ZERO,
            peak_origin_delay: SimDuration::ZERO,
            served: 0,
            provenance_recorded: 0,
            provenance_errors: 0,
            instruments: None,
        }
    }

    /// Mirrors the stack into `registry`: the `admission.*` and `shed.*`
    /// families from the underlying controllers plus the `slo.*` family
    /// (offered/served/within, shed-by-reason, per-tier violations, and
    /// the current queue delay).
    pub fn instrument(&mut self, registry: &Registry) {
        self.admission.instrument(registry);
        self.shedder.instrument(registry);
        self.degraded.instrument(registry);
        if let Some(tier) = self.fleet.as_mut() {
            tier.fleet.instrument(registry);
        }
        let inst = SloInstruments {
            offered: registry.counter("slo.offered"),
            served: registry.counter("slo.served"),
            served_within: registry.counter("slo.served_within"),
            shed_admission: registry.counter("slo.shed.admission"),
            shed_overload: registry.counter("slo.shed.overload"),
            shed_deadline: registry.counter("slo.shed.deadline"),
            violations: [
                registry.counter("slo.clinical.violations"),
                registry.counter("slo.interactive.violations"),
                registry.counter("slo.batch.violations"),
            ],
            queue_delay_us: registry.gauge("slo.queue_delay_us"),
            origin_delay_us: registry.gauge("slo.origin_delay_us"),
        };
        self.instruments = Some(inst);
    }

    /// The current queue delay implied by the backlog.
    pub fn queue_delay(&self) -> SimDuration {
        SimDuration::from_nanos(self.backlog_ns / u64::from(self.cfg.cores.max(1)))
    }

    /// The origin's current queue delay: what a fetch dispatched now
    /// waits behind the outstanding fetch backlog.
    pub fn origin_delay(&self) -> SimDuration {
        SimDuration::from_nanos(self.origin_backlog_ns / u64::from(self.cfg.origin_cores.max(1)))
    }

    /// Offers one `tier` request for `key`, deciding admission, shedding
    /// and deadline feasibility before spending service capacity.
    pub fn request(&mut self, tier: Tier, key: u64) -> RequestOutcome {
        self.degraded.roll_window();
        let budget = TimeoutBudget::starting_now(&self.clock, self.cfg.tier_slos[tier.index()]); // hc-lint: allow(panic-index)
        let queue_delay = self.queue_delay();
        let origin_delay = self.origin_delay();
        if let Some(inst) = &self.instruments {
            inst.offered.inc();
            inst.queue_delay_us.set((queue_delay.as_nanos() / 1_000) as i64);
            inst.origin_delay_us.set((origin_delay.as_nanos() / 1_000) as i64);
        }

        if self.cfg.protection != Protection::None
            && !self.admission.try_admit(tier).is_admitted()
        {
            return self.shed(ShedReason::Admission);
        }
        if self.cfg.protection == Protection::Full {
            self.shedder.observe(queue_delay);
            if self.shedder.should_shed(tier) {
                return self.shed(ShedReason::Overload);
            }
        }

        // Probe the cache before the deadline check: hit vs. miss decides
        // the true service cost (a miss waits out the origin's queue),
        // and a deadline-aware server sheds exactly the requests whose
        // known cost cannot fit in the remaining budget. On a local miss
        // the fleet (when configured) is probed next: a fleet hit pays
        // the serving replica's round trip; a fleet miss pays the probe
        // fan-out before falling through to the origin.
        let local_hit = self.cache.get(&key).is_some();
        let mut fleet_served = false;
        let cost = if local_hit {
            self.cfg.hit_cost
        } else if let Some(tier_state) = self.fleet.as_mut() {
            match tier_state.fleet.read(&key, tier_state.client, &budget) {
                FleetRead::Hit { cost: rtt, .. } => {
                    fleet_served = true;
                    // The response carried the value, so the local cache
                    // warms synchronously — no origin fetch to wait on.
                    self.cache.put(key, 1);
                    self.cfg.hit_cost.saturating_add(rtt)
                }
                FleetRead::Miss { cost: probe } => self
                    .cfg
                    .miss_cost
                    .saturating_add(origin_delay)
                    .saturating_add(probe),
            }
        } else {
            self.cfg.miss_cost.saturating_add(origin_delay)
        };
        let hit = local_hit || fleet_served;
        let latency = queue_delay.saturating_add(cost);
        if self.cfg.protection == Protection::Full {
            // Deadline propagation: the service hop inherits what is
            // left of the tier SLO; shed now rather than serve a
            // guaranteed-late answer (or burn an origin fetch on one).
            let hop = budget.child(&self.clock, self.cfg.tier_slos[tier.index()]); // hc-lint: allow(panic-index)
            if !hop.admits(&self.clock, latency) {
                return self.shed(ShedReason::Deadline);
            }
        }

        self.backlog_ns = self.backlog_ns.saturating_add(cost.as_nanos());
        self.peak_queue_delay = self.peak_queue_delay.max(self.queue_delay());
        if !hit {
            // The fetch is dispatched (asynchronously) on arrival and
            // queues at the origin; the fill lands only when it
            // completes, so until then further reads of this key keep
            // missing (thundering herd), and every duplicate fetch adds
            // origin load that delays the fills further.
            self.origin_backlog_ns = self
                .origin_backlog_ns
                .saturating_add(self.cfg.origin_fetch_cost.as_nanos());
            self.peak_origin_delay = self.peak_origin_delay.max(self.origin_delay());
            let ready = self
                .clock
                .now()
                .saturating_add(self.cfg.miss_cost.saturating_add(origin_delay));
            self.pending_fills.push(std::cmp::Reverse((ready, key)));
        }
        let within_slo = budget.admits(&self.clock, latency);
        self.served += 1;
        self.record_provenance(key);
        self.degraded.on_request(false);
        self.sync_health();
        if let Some(inst) = &self.instruments {
            inst.served.inc();
            if within_slo {
                inst.served_within.inc();
            } else {
                inst.violations[tier.index()].inc(); // hc-lint: allow(panic-index)
            }
        }
        RequestOutcome::Served { latency, hit, within_slo }
    }

    /// Advances the fluid queue by one tick: `cores × tick` of backlog is
    /// drained, origin fetches whose completion time has passed land in
    /// the cache, and the degraded-mode window rolls even during silence.
    pub fn drain(&mut self, tick: SimDuration) {
        let drained = tick.as_nanos().saturating_mul(u64::from(self.cfg.cores.max(1)));
        self.backlog_ns = self.backlog_ns.saturating_sub(drained);
        let origin_drained = tick
            .as_nanos()
            .saturating_mul(u64::from(self.cfg.origin_cores.max(1)));
        self.origin_backlog_ns = self.origin_backlog_ns.saturating_sub(origin_drained);
        let now = self.clock.now();
        while let Some(&std::cmp::Reverse((ready, key))) = self.pending_fills.peek() {
            if ready > now {
                break;
            }
            self.cache.put(key, 1);
            // An origin fetch warms the fleet too: the fill propagates
            // to every live replica of the key.
            if let Some(tier) = self.fleet.as_mut() {
                tier.fleet.fill(&key, &1, 1, tier.client);
            }
            self.pending_fills.pop();
        }
        if let Some(tier) = self.fleet.as_mut() {
            tier.apply_schedule(now);
            tier.fleet.tick(now);
        }
        self.degraded.roll_window();
        self.sync_health();
    }

    fn shed(&mut self, reason: ShedReason) -> RequestOutcome {
        self.degraded.on_request(true);
        self.sync_health();
        if let Some(inst) = &self.instruments {
            match reason {
                ShedReason::Admission => inst.shed_admission.inc(),
                ShedReason::Overload => inst.shed_overload.inc(),
                ShedReason::Deadline => inst.shed_deadline.inc(),
            }
        }
        RequestOutcome::Shed(reason)
    }

    /// Samples one in N served reads into the provenance ledger; the
    /// divisor coarsens while degraded so the audit plane sheds load in
    /// sympathy with the serving plane.
    fn record_provenance(&mut self, key: u64) {
        let Some(net) = self.provenance.as_mut() else {
            return;
        };
        let divisor = if self.degraded.is_degraded() {
            self.cfg.degraded_provenance_sample.max(1)
        } else {
            self.cfg.provenance_sample.max(1)
        };
        if !self.served.is_multiple_of(divisor) {
            return;
        }
        let event = ProvenanceEvent {
            record: hc_common::id::ReferenceId::from_raw(u128::from(key)),
            data_hash: hc_crypto::sha256::hash(&key.to_le_bytes()),
            action: ProvenanceAction::Accessed,
            actor: "serving-path".to_owned(),
            detail: format!("sampled 1/{divisor}"),
        };
        match net.record(&event) {
            Ok(_) => self.provenance_recorded += 1,
            Err(_) => self.provenance_errors += 1,
        }
    }

    /// Folds the degraded-mode flag into the platform health tracker.
    fn sync_health(&mut self) {
        let status = if self.degraded.is_degraded() {
            SubsystemStatus::Degraded
        } else {
            SubsystemStatus::Up
        };
        if self.tracker.status_of("serving") != Some(status) {
            self.tracker.set_status("serving", status);
        }
    }

    /// Aggregate platform health as seen through the serving subsystem.
    pub fn health(&self) -> HealthState {
        self.tracker.state()
    }

    /// Whether the stack is currently in degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_degraded()
    }

    /// Healthy↔degraded transitions so far.
    pub fn degraded_transitions(&self) -> u64 {
        self.degraded.transitions()
    }

    /// Cache statistics across all shards.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Highest queue delay observed so far.
    pub fn peak_queue_delay(&self) -> SimDuration {
        self.peak_queue_delay
    }

    /// Highest origin queue delay observed so far.
    pub fn peak_origin_delay(&self) -> SimDuration {
        self.peak_origin_delay
    }

    /// Fleet-tier outcomes so far, `None` when no fleet is configured.
    pub fn fleet_report(&self) -> Option<FleetReportStats> {
        self.fleet.as_ref().map(|tier| {
            let s = tier.fleet.stats();
            let reads = s.hits + s.misses;
            FleetReportStats {
                hits: s.hits,
                misses: s.misses,
                hit_ratio: if reads > 0 {
                    s.hits as f64 / reads as f64
                } else {
                    0.0
                },
                probe_failures: s.probe_failures,
                breaker_skips: s.breaker_skips,
                read_repairs: s.read_repairs,
            }
        })
    }

    /// Provenance events recorded (committed or pending) and record
    /// errors so far.
    pub fn provenance_counts(&self) -> (u64, u64) {
        (self.provenance_recorded, self.provenance_errors)
    }

    /// Flushes any pending provenance batch; returns the ledger height
    /// (0 when the ledger is disabled).
    pub fn finish_provenance(&mut self) -> u64 {
        let Some(net) = self.provenance.as_mut() else {
            return 0;
        };
        if net.pending_count() > 0 && net.flush().is_err() {
            self.provenance_errors += 1;
        }
        net.ledger().height()
    }
}

/// The offered-load side of the closed loop.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Concurrent-user population over time.
    pub curve: LoadCurve,
    /// Mean request rate per user per simulated second.
    pub req_per_user_per_sec: f64,
    /// Tier mix (clinical, interactive, batch); normalised internally.
    pub tier_mix: [f64; 3],
    /// Zipf keyspace size.
    pub keyspace: usize,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Tick length (arrival batching granularity).
    pub tick: SimDuration,
    /// Seed for the arrival/tier/key streams.
    pub seed: u64,
    /// Labelled report windows (start, end) in simulated time; stats are
    /// also always accumulated over the whole run.
    pub windows: Vec<(String, SimInstant, SimInstant)>,
}

/// Per-tier outcome statistics over one report segment.
#[derive(Clone, Debug, Default)]
pub struct TierStats {
    /// Requests offered.
    pub offered: u64,
    /// Requests served (late or not).
    pub served: u64,
    /// Requests served within the tier SLO.
    pub within_slo: u64,
    /// Sheds by reason, indexed admission/overload/deadline.
    pub shed: [u64; 3],
    /// Latency percentiles over served requests, microseconds.
    pub p50_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// 99.9th percentile latency, microseconds.
    pub p999_us: u64,
}

impl TierStats {
    /// Fraction of offered requests that were shed.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed.iter().sum::<u64>() as f64 / self.offered as f64
        }
    }
}

/// One report segment (the whole run or a labelled window).
#[derive(Clone, Debug)]
pub struct SegmentReport {
    /// Segment label (`overall` for the whole run).
    pub label: String,
    /// Segment length in simulated seconds.
    pub span_secs: f64,
    /// Per-tier statistics, indexed by [`Tier::index`].
    pub tiers: [TierStats; 3],
}

impl SegmentReport {
    /// Requests offered across tiers.
    pub fn offered(&self) -> u64 {
        self.tiers.iter().map(|t| t.offered).sum()
    }

    /// Requests served within SLO across tiers.
    pub fn within_slo(&self) -> u64 {
        self.tiers.iter().map(|t| t.within_slo).sum()
    }

    /// SLO-meeting throughput over the segment, requests/second.
    pub fn goodput_rps(&self) -> f64 {
        if self.span_secs <= 0.0 {
            0.0
        } else {
            self.within_slo() as f64 / self.span_secs
        }
    }

    /// Shed fraction across tiers.
    pub fn shed_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            return 0.0;
        }
        let shed: u64 = self.tiers.iter().map(|t| t.shed.iter().sum::<u64>()).sum();
        shed as f64 / offered as f64
    }
}

/// The closed-loop run's full report.
#[derive(Clone, Debug)]
pub struct OverloadReport {
    /// Which defences were armed.
    pub protection: Protection,
    /// Whole-run statistics.
    pub overall: SegmentReport,
    /// One segment per configured window, in configuration order.
    pub windows: Vec<SegmentReport>,
    /// Healthy↔degraded transitions over the run.
    pub degraded_transitions: u64,
    /// Whether the stack ended the run degraded.
    pub degraded_at_end: bool,
    /// Cache hit ratio over the run.
    pub cache_hit_ratio: f64,
    /// Highest queue delay reached, microseconds.
    pub peak_queue_delay_us: u64,
    /// Highest origin queue delay reached, microseconds.
    pub peak_origin_delay_us: u64,
    /// Provenance events recorded and ledger height after the final
    /// flush.
    pub provenance_recorded: u64,
    /// Ledger height after the final flush.
    pub ledger_height: u64,
    /// Peak concurrent users offered by the load curve.
    pub peak_users: f64,
    /// Fleet-tier outcomes, when a fleet was configured.
    pub fleet: Option<FleetReportStats>,
}

impl OverloadReport {
    /// The window segment with the given label, if configured.
    pub fn window(&self, label: &str) -> Option<&SegmentReport> {
        self.windows.iter().find(|w| w.label == label)
    }
}

/// Latency samples and outcome tallies for one segment under
/// accumulation.
#[derive(Default)]
struct SegmentAcc {
    tiers: [TierStats; 3],
    latencies: [Vec<u64>; 3],
}

impl SegmentAcc {
    fn record(&mut self, tier: Tier, outcome: RequestOutcome) {
        let t = &mut self.tiers[tier.index()]; // hc-lint: allow(panic-index)
        t.offered += 1;
        match outcome {
            RequestOutcome::Served { latency, within_slo, .. } => {
                t.served += 1;
                if within_slo {
                    t.within_slo += 1;
                }
                self.latencies[tier.index()].push(latency.as_nanos()); // hc-lint: allow(panic-index)
            }
            RequestOutcome::Shed(reason) => {
                let slot = match reason {
                    ShedReason::Admission => 0,
                    ShedReason::Overload => 1,
                    ShedReason::Deadline => 2,
                };
                t.shed[slot] += 1; // hc-lint: allow(panic-index)
            }
        }
    }

    fn finish(mut self, label: String, span: SimDuration) -> SegmentReport {
        for (stats, lat) in self.tiers.iter_mut().zip(self.latencies.iter_mut()) {
            lat.sort_unstable();
            stats.p50_us = percentile(lat, 0.50) / 1_000;
            stats.p99_us = percentile(lat, 0.99) / 1_000;
            stats.p999_us = percentile(lat, 0.999) / 1_000;
        }
        SegmentReport {
            label,
            span_secs: span.as_secs_f64(),
            tiers: self.tiers,
        }
    }
}

/// Draws a tier from the (normalised) mix with one uniform coin.
fn draw_tier<R: Rng + ?Sized>(rng: &mut R, mix: &[f64; 3]) -> Tier {
    let total: f64 = mix.iter().sum();
    let coin = rng.gen::<f64>() * if total > 0.0 { total } else { 1.0 };
    if coin < mix[0] { // hc-lint: allow(panic-index)
        Tier::Clinical
    } else if coin < mix[0] + mix[1] { // hc-lint: allow(panic-index)
        Tier::Interactive
    } else {
        Tier::Batch
    }
}

/// Runs the closed loop: each tick, the load curve dictates the
/// concurrent-user population, arrivals are drawn deterministically from
/// the seeded stream, offered to `stack`, and the clock advances while
/// the fluid queue drains. Returns the segmented report.
pub fn run_overload(mut stack: ServingStack, workload: &WorkloadConfig) -> OverloadReport {
    let mut rng = seeded_stream(workload.seed, 0xE19);
    let mut overall = SegmentAcc::default();
    let mut windows: Vec<SegmentAcc> = workload
        .windows
        .iter()
        .map(|_| SegmentAcc::default())
        .collect();
    let start = stack.clock.now();
    let end = start.saturating_add(workload.duration);
    let tick_secs = workload.tick.as_secs_f64();
    let mut carry = 0.0_f64;
    let protection = stack.cfg.protection;

    while stack.clock.now() < end {
        let now = stack.clock.now();
        let users = workload.curve.users_at(now);
        let expected = users * workload.req_per_user_per_sec * tick_secs + carry;
        let arrivals = expected.floor() as u64;
        carry = expected - arrivals as f64;
        for _ in 0..arrivals {
            let tier = draw_tier(&mut rng, &workload.tier_mix);
            let key = zipf_key_fast(&mut rng, workload.keyspace) as u64;
            let outcome = stack.request(tier, key);
            overall.record(tier, outcome);
            for (acc, (_, w_start, w_end)) in windows.iter_mut().zip(&workload.windows) {
                if now >= *w_start && now < *w_end {
                    acc.record(tier, outcome);
                }
            }
        }
        stack.clock.advance(workload.tick);
        stack.drain(workload.tick);
    }

    let ledger_height = stack.finish_provenance();
    let (provenance_recorded, _) = stack.provenance_counts();
    let fleet = stack.fleet_report();
    OverloadReport {
        protection,
        overall: overall.finish("overall".to_owned(), workload.duration),
        windows: windows
            .into_iter()
            .zip(&workload.windows)
            .map(|(acc, (label, w_start, w_end))| {
                acc.finish(label.clone(), w_end.duration_since(*w_start))
            })
            .collect(),
        degraded_transitions: stack.degraded_transitions(),
        degraded_at_end: stack.is_degraded(),
        cache_hit_ratio: stack.cache_stats().hit_ratio(),
        peak_queue_delay_us: stack.peak_queue_delay().as_nanos() / 1_000,
        peak_origin_delay_us: stack.peak_origin_delay().as_nanos() / 1_000,
        provenance_recorded,
        ledger_height,
        peak_users: workload.curve.peak_users(4096),
        fleet,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(protection: Protection) -> ServingConfig {
        ServingConfig {
            cores: 4,
            hit_cost: SimDuration::from_micros(50),
            miss_cost: SimDuration::from_micros(500),
            cache_capacity: 512,
            cache_shards: 4,
            admission_rate: 20_000.0,
            admission_burst: 500.0,
            tier_slos: [
                SimDuration::from_millis(50),
                SimDuration::from_millis(200),
                SimDuration::from_millis(2_000),
            ],
            provenance_sample: 64,
            degraded_provenance_sample: 1_024,
            provenance_batch: 8,
            protection,
            ..ServingConfig::default()
        }
    }

    fn workload(seed: u64, secs: u64, users: f64) -> WorkloadConfig {
        WorkloadConfig {
            curve: LoadCurve::new(users),
            req_per_user_per_sec: 1.0,
            tier_mix: [0.1, 0.6, 0.3],
            keyspace: 2_000,
            duration: SimDuration::from_secs(secs),
            tick: SimDuration::from_millis(1),
            seed,
            windows: Vec::new(),
        }
    }

    #[test]
    fn underload_serves_everything_within_slo() {
        let stack = ServingStack::new(SimClock::new(), small_cfg(Protection::Full));
        let report = run_overload(stack, &workload(7, 5, 2_000.0));
        assert!(report.overall.offered() > 5_000);
        assert_eq!(report.overall.shed_rate(), 0.0);
        for tier in &report.overall.tiers {
            assert_eq!(tier.served, tier.within_slo);
        }
        assert_eq!(report.degraded_transitions, 0);
        assert!(!report.degraded_at_end);
    }

    #[test]
    fn baseline_overload_violates_slo_protected_does_not() {
        // Offered work ≈ 3× capacity: the unprotected queue grows without
        // bound and the tail blows through every SLO; the protected stack
        // sheds to stay inside them.
        let offered = workload(11, 8, 40_000.0);
        let base = run_overload(
            ServingStack::new(SimClock::new(), small_cfg(Protection::None)),
            &offered,
        );
        let full = run_overload(
            ServingStack::new(SimClock::new(), small_cfg(Protection::Full)),
            &offered,
        );
        let base_clin = &base.overall.tiers[Tier::Clinical.index()];
        let full_clin = &full.overall.tiers[Tier::Clinical.index()];
        assert!(
            base_clin.p999_us > 50_000,
            "baseline clinical p999 {}µs should blow the 50ms SLO",
            base_clin.p999_us
        );
        assert!(
            full_clin.p999_us <= 50_000,
            "protected clinical p999 {}µs must stay inside the 50ms SLO",
            full_clin.p999_us
        );
        assert!(full.overall.shed_rate() > 0.1, "protection must be shedding");
        assert!(full.overall.goodput_rps() > base.overall.goodput_rps());
        // Tiered shedding: batch sheds at a higher rate than clinical.
        let full_batch = &full.overall.tiers[Tier::Batch.index()];
        assert!(full_batch.shed_rate() > full_clin.shed_rate());
    }

    #[test]
    fn sustained_overload_enters_degraded_and_recovers() {
        let mut wl = workload(13, 20, 0.0);
        wl.curve = LoadCurve::new(3_000.0).with_flash_crowd(
            SimInstant::from_nanos(SimDuration::from_secs(2).as_nanos()),
            SimInstant::from_nanos(SimDuration::from_secs(10).as_nanos()),
            12.0,
        );
        let report = run_overload(
            ServingStack::new(SimClock::new(), small_cfg(Protection::Full)),
            &wl,
        );
        assert_eq!(
            report.degraded_transitions, 2,
            "one clean enter + one clean exit, no flapping"
        );
        assert!(!report.degraded_at_end);
    }

    #[test]
    fn identical_seeds_reproduce_bit_identical_reports() {
        let wl = workload(99, 6, 30_000.0);
        let a = run_overload(
            ServingStack::new(SimClock::new(), small_cfg(Protection::Full)),
            &wl,
        );
        let b = run_overload(
            ServingStack::new(SimClock::new(), small_cfg(Protection::Full)),
            &wl,
        );
        assert_eq!(format!("{:?}", a.overall), format!("{:?}", b.overall));
        assert_eq!(a.degraded_transitions, b.degraded_transitions);
        assert_eq!(a.cache_hit_ratio, b.cache_hit_ratio);
        assert_eq!(a.ledger_height, b.ledger_height);
    }

    #[test]
    fn provenance_sampled_and_committed() {
        let stack = ServingStack::new(SimClock::new(), small_cfg(Protection::Full));
        let report = run_overload(stack, &workload(21, 5, 2_000.0));
        assert!(report.provenance_recorded > 0);
        assert!(report.ledger_height > 0);
        let served: u64 = report.overall.tiers.iter().map(|t| t.served).sum();
        assert!(
            report.provenance_recorded <= served / 32,
            "sampling must keep the ledger far below the serving rate"
        );
    }

    #[test]
    fn windows_segment_the_run() {
        let mut wl = workload(5, 6, 2_000.0);
        let s = |secs: u64| SimInstant::from_nanos(SimDuration::from_secs(secs).as_nanos());
        wl.windows = vec![
            ("warm".to_owned(), s(0), s(2)),
            ("steady".to_owned(), s(2), s(6)),
        ];
        let report = run_overload(
            ServingStack::new(SimClock::new(), small_cfg(Protection::Full)),
            &wl,
        );
        let warm = report.window("warm").unwrap();
        let steady = report.window("steady").unwrap();
        assert!(warm.offered() > 0 && steady.offered() > 0);
        assert_eq!(
            warm.offered() + steady.offered(),
            report.overall.offered(),
            "windows tile the run"
        );
    }

    #[test]
    fn fleet_tier_serves_local_misses_before_origin() {
        let mut cfg = small_cfg(Protection::Full);
        cfg.cache_capacity = 64; // tiny local cache → plenty of fleet reads
        cfg.fleet = Some(FleetTierConfig {
            node_capacity: 8_192,
            ..FleetTierConfig::default()
        });
        let stack = ServingStack::new(SimClock::new(), cfg);
        // Re-read-heavy workload: a keyspace small enough that keys the
        // tiny local cache evicts come around again while the fleet
        // still holds them.
        let mut wl = workload(17, 10, 2_000.0);
        wl.keyspace = 500;
        let report = run_overload(stack, &wl);
        let fleet = report.fleet.expect("fleet stats must be reported");
        assert!(fleet.hits + fleet.misses > 0, "local misses probed the fleet");
        assert!(
            fleet.hit_ratio > 0.5,
            "origin fills warm the fleet, so evicted-then-reread keys hit it: {}",
            fleet.hit_ratio
        );
    }

    #[test]
    fn fleet_crash_schedule_fires_and_replication_masks_it() {
        let s = |secs: u64| SimInstant::from_nanos(SimDuration::from_secs(secs).as_nanos());
        let mut cfg = small_cfg(Protection::Full);
        cfg.cache_capacity = 64;
        cfg.fleet = Some(FleetTierConfig {
            node_capacity: 8_192,
            crash_windows: vec![(0, s(3), s(7))],
            ..FleetTierConfig::default()
        });
        let stack = ServingStack::new(SimClock::new(), cfg);
        let mut wl = workload(23, 10, 2_000.0);
        wl.keyspace = 500;
        let report = run_overload(stack, &wl);
        let fleet = report.fleet.expect("fleet stats must be reported");
        assert!(fleet.probe_failures > 0, "the crashed node was probed");
        assert!(
            fleet.hit_ratio > 0.4,
            "R=3 keeps serving through one crash: {}",
            fleet.hit_ratio
        );
    }

    #[test]
    fn disabled_fleet_keeps_the_report_shape() {
        let stack = ServingStack::new(SimClock::new(), small_cfg(Protection::Full));
        let report = run_overload(stack, &workload(7, 2, 1_000.0));
        assert!(report.fleet.is_none());
    }

    #[test]
    fn instrumented_slo_counters_reconcile() {
        let clock = SimClock::new();
        let registry = Registry::new();
        let mut stack = ServingStack::new(clock.clone(), small_cfg(Protection::Full));
        stack.instrument(&registry);
        let report = run_overload(stack, &workload(31, 4, 30_000.0));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("slo.offered"), Some(report.overall.offered()));
        let served: u64 = report.overall.tiers.iter().map(|t| t.served).sum();
        assert_eq!(snap.counter("slo.served"), Some(served));
        assert_eq!(
            snap.counter("slo.served_within"),
            Some(report.overall.within_slo())
        );
        let shed_total = snap.counter("slo.shed.admission").unwrap_or(0)
            + snap.counter("slo.shed.overload").unwrap_or(0)
            + snap.counter("slo.shed.deadline").unwrap_or(0);
        assert_eq!(served + shed_total, report.overall.offered());
    }
}
