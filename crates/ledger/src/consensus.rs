//! PBFT-style consensus simulation.
//!
//! The permissioned network runs practical-Byzantine-fault-tolerant
//! three-phase commit (pre-prepare → prepare → commit) among `n = 3f + 1`
//! named peers. The simulation is *accounting-faithful*: it counts the
//! messages each phase exchanges and charges one [`LINK_LATENCY`] of
//! simulated time per phase (plus a view-change timeout of ten link
//! delays per faulty primary), which is what E4's peer-count sweep
//! measures. Crash faults are injected per peer; safety holds as long as
//! at most `f` peers are faulty.
//!
//! One engine commits every ledger: [`PipelinedCluster`], which overlaps
//! up to `window` consensus instances. `window = 1` is the strictly
//! sequential protocol — each block commits inside the call that
//! proposes it — and wider windows only overlap the phases of
//! consecutive blocks. In-order commitment runs through the
//! model-checked [`SlotWindow`].

use hc_common::clock::{SimClock, SimDuration, SimInstant};
use hc_common::fault::{FaultInjector, FaultKind};
use hc_telemetry::{Counter, Gauge, Histogram, Registry};

/// Simulated one-way delay between two peers; every PBFT phase costs one.
pub const LINK_LATENCY: SimDuration = SimDuration::from_millis(1);
/// How long honest replicas wait on a silent primary before changing view.
const VIEW_CHANGE_TIMEOUT: SimDuration = SimDuration::from_nanos(10 * LINK_LATENCY.as_nanos());

/// The outcome of one consensus instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConsensusOutcome {
    /// Total protocol messages exchanged.
    pub messages: u64,
    /// Simulated wall time from proposal to commit.
    pub latency: SimDuration,
    /// View changes performed before success (0 = primary was honest).
    pub view_changes: u32,
}

/// Errors from cluster configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConsensusError {
    /// Fewer than 4 peers cannot tolerate any fault (n = 3f+1, f ≥ 1).
    TooFewPeers(usize),
    /// More than f peers are faulty; liveness/safety is lost.
    TooManyFaults {
        /// Faulty peer count.
        faulty: usize,
        /// The tolerated maximum.
        tolerated: usize,
    },
}

impl std::fmt::Display for ConsensusError {
    fn fmt(&self, f_: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsensusError::TooFewPeers(n) => write!(f_, "{n} peers is fewer than 4"),
            ConsensusError::TooManyFaults { faulty, tolerated } => {
                write!(f_, "{faulty} faulty peers exceeds tolerance {tolerated}")
            }
        }
    }
}

impl std::error::Error for ConsensusError {}

/// Per-slot vote bookkeeping for [`SlotWindow`].
#[derive(Debug, Default)]
struct SlotVotes {
    /// The consensus sequence number currently occupying this ring slot.
    seq: u64,
    /// Whether the slot holds an in-flight (opened, uncommitted) instance.
    occupied: bool,
    prepares: usize,
    commits: usize,
    /// The slot has a commit quorum and is waiting for (or has had) its
    /// in-order turn in the log.
    ready: bool,
    committed: bool,
}

/// The pipelined-consensus ordering core: a bounded ring of in-flight
/// consensus slots with per-slot vote tracking and a strictly in-order
/// commit log.
///
/// [`PipelinedCluster`] overlaps instances — slot `s+1` gathers prepare
/// votes while slot `s` is still collecting commits, up to `window`
/// blocks in flight (`window = 1` runs one instance at a time). The
/// safety obligation that overlap introduces is *in-order commitment*:
/// sequence `s+1` must never apply before `s`, however the quorums
/// interleave, and a ring slot must never be recycled for `s+window`
/// until `s` has committed. This type carries exactly that obligation
/// with real locks so the model checker can drive every interleaving of
/// voting replicas: per-slot vote state behind its own mutex, and a
/// shared commit log that defers ready slots until all predecessors have
/// committed. Lock nesting is strictly log → slot, so the window is also
/// a clean specimen for lock-order analysis. It is the production
/// bookkeeping structure of [`PipelinedCluster`] *and* the registered
/// `ledger.slot-window` hc-mc model.
#[derive(Debug)]
pub struct SlotWindow {
    quorum: usize,
    window: usize,
    slots: Vec<parking_lot::Mutex<SlotVotes>>,
    log: parking_lot::Mutex<Vec<u64>>,
}

impl SlotWindow {
    /// A window of `window` in-flight slots for an `n`-peer cluster
    /// (n ≥ 4), committing on the PBFT quorum `2f + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`ConsensusError::TooFewPeers`] for `n < 4`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(n: usize, window: usize) -> Result<Self, ConsensusError> {
        if n < 4 {
            return Err(ConsensusError::TooFewPeers(n));
        }
        assert!(window > 0, "slot window must hold at least one slot");
        let f = (n - 1) / 3;
        Ok(SlotWindow {
            quorum: 2 * f + 1,
            window,
            slots: (0..window)
                .map(|_| parking_lot::Mutex::new(SlotVotes::default()))
                .collect(),
            log: parking_lot::Mutex::new(Vec::new()),
        })
    }

    /// The commit quorum.
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// The in-flight bound.
    pub fn window(&self) -> usize {
        self.window
    }

    fn slot(&self, seq: u64) -> &parking_lot::Mutex<SlotVotes> {
        &self.slots[(seq % self.window as u64) as usize] // hc-lint: allow(panic-index)
    }

    /// Claims the ring slot for sequence `seq`, resetting its vote state.
    /// Returns `false` (window full) while the slot's previous occupant
    /// has not committed — recycling before then would let votes for
    /// `seq` count toward `seq - window`.
    pub fn open(&self, seq: u64) -> bool {
        let mut votes = self.slot(seq).lock();
        if hc_common::conc::mc::active() {
            hc_common::conc::mc::write(&format!("ledger.window.slot{}", seq % self.window as u64));
        }
        if votes.occupied && !votes.committed {
            return false;
        }
        *votes = SlotVotes {
            seq,
            occupied: true,
            ..SlotVotes::default()
        };
        true
    }

    /// Records one prepare vote for sequence `seq`; returns whether the
    /// slot has reached its prepare quorum. Votes for a sequence that no
    /// longer occupies its ring slot are stale and ignored.
    pub fn prepare(&self, seq: u64) -> bool {
        let mut votes = self.slot(seq).lock();
        if hc_common::conc::mc::active() {
            hc_common::conc::mc::write(&format!("ledger.window.slot{}", seq % self.window as u64));
        }
        if !votes.occupied || votes.seq != seq {
            return false;
        }
        votes.prepares += 1;
        votes.prepares >= self.quorum
    }

    /// Records one commit vote for sequence `seq`. When the vote
    /// completes the commit quorum the slot becomes *ready*, and every
    /// ready slot whose predecessors have all committed is flushed to
    /// the log — in order, whatever order the quorums completed in.
    pub fn commit_vote(&self, seq: u64) {
        {
            let mut votes = self.slot(seq).lock();
            if hc_common::conc::mc::active() {
                hc_common::conc::mc::write(&format!(
                    "ledger.window.slot{}",
                    seq % self.window as u64
                ));
            }
            if !votes.occupied || votes.seq != seq {
                return;
            }
            votes.commits += 1;
            if votes.commits >= self.quorum {
                votes.ready = true;
            }
        }
        self.flush_ready();
    }

    /// Appends every in-order ready slot to the commit log. Nesting is
    /// log → slot only; vote paths never hold a slot lock while taking
    /// the log.
    fn flush_ready(&self) {
        // The log guard spans the drain loop on purpose: in-order commit
        // is atomic per flush, and the loop is bounded by the window.
        // hc-lint: allow(lock-held-long)
        let mut log = self.log.lock();
        loop {
            let next = log.len() as u64;
            let mut votes = self.slot(next).lock();
            if !votes.occupied || votes.seq != next || !votes.ready || votes.committed {
                return;
            }
            votes.committed = true;
            hc_common::conc::mc::write("ledger.window.log");
            hc_common::conc::mc::check(
                log.len() as u64 == next,
                "slot-window commit log skipped a sequence number",
            );
            log.push(next);
        }
    }

    /// The committed sequence numbers, in commit order.
    pub fn committed(&self) -> Vec<u64> {
        self.log.lock().clone()
    }

    /// How many sequence numbers have committed.
    fn committed_len(&self) -> u64 {
        self.log.lock().len() as u64
    }

    /// Whether the log is the in-order prefix `0..len` of the sequence
    /// space — the pipeline's safety invariant.
    pub fn in_order(&self) -> bool {
        self.committed()
            .iter()
            .copied()
            .eq(0..self.committed().len() as u64)
    }
}

/// Registry handles for pipelined-consensus metrics (`ledger.pipeline.*`).
#[derive(Clone, Debug)]
struct PipelineInstruments {
    proposed: Counter,
    committed: Counter,
    messages: Counter,
    view_changes: Counter,
    drains: Counter,
    quorum_failures: Counter,
    in_flight: Gauge,
    latency: Histogram,
}

/// One in-flight consensus instance inside [`PipelinedCluster`].
#[derive(Clone, Copy, Debug)]
struct InFlight {
    seq: u64,
    commit_at: SimInstant,
}

/// Fault point consulted on every proposal: a fired
/// [`FaultKind::HostCrash`](hc_common::fault::FaultKind) crashes the
/// current primary mid-pipeline.
pub const FAULT_PIPELINE_CRASH: &str = "ledger.pipeline.crash";
/// Stateful fault point: while active, the cluster's partitioned peer
/// set (see [`PipelinedCluster::set_partition_peers`]) is unreachable.
pub const FAULT_PIPELINE_PARTITION: &str = "ledger.pipeline.partition";

/// A pipelined PBFT cluster: the three phases of up to `window` blocks
/// overlap, so the pre-prepare of block `k+1` is issued while block `k`
/// is still gathering prepare/commit quorums.
///
/// Every block exchanges the full three-phase message complement and
/// commits `3 × LINK_LATENCY` after its proposal; the simulated clock
/// only advances when a proposal fills the window (back-pressure), on a
/// view change, or when the pipeline is drained. With `window = 1` each
/// proposal fills the window, so every block commits inside its own
/// [`PipelinedCluster::propose`] call: that is the strictly sequential
/// protocol, and the baseline every wider window is measured against.
/// Steady-state throughput is `window` blocks per three link delays: a
/// `window`-fold speedup over `window = 1` at identical message cost
/// per block.
///
/// Vote bookkeeping and in-order commitment run through the same
/// [`SlotWindow`] the model checker explores, so the ordering invariant
/// exercised here is the one verified under every interleaving.
///
/// A view change (faulty primary at proposal time) first *drains the
/// pipeline*: in-flight slots hold prepared certificates that survive
/// the view change, so they commit under the old view's timing before
/// the timeout and the view-change broadcast are charged and the
/// primary rotates.
#[derive(Debug)]
pub struct PipelinedCluster {
    n: usize,
    faulty: Vec<bool>,
    partitioned: Vec<bool>,
    partition_peers: Vec<usize>,
    primary: usize,
    clock: SimClock,
    votes: SlotWindow,
    in_flight: std::collections::VecDeque<InFlight>,
    next_seq: u64,
    total_messages: u64,
    committed_blocks: u64,
    injector: Option<FaultInjector>,
    instruments: Option<PipelineInstruments>,
}

impl PipelinedCluster {
    /// Creates a pipelined cluster of `n` peers (n ≥ 4) keeping up to
    /// `window` blocks in flight.
    ///
    /// # Errors
    ///
    /// Returns [`ConsensusError::TooFewPeers`] for `n < 4`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(n: usize, window: usize, clock: SimClock) -> Result<Self, ConsensusError> {
        let votes = SlotWindow::new(n, window)?;
        Ok(PipelinedCluster {
            n,
            faulty: vec![false; n],
            partitioned: vec![false; n],
            // Default partition cut: the upper half of the peer set —
            // severing a majority, so liveness is lost until heal.
            partition_peers: (n / 2..n).collect(),
            primary: 0,
            clock,
            votes,
            in_flight: std::collections::VecDeque::new(),
            next_seq: 0,
            total_messages: 0,
            committed_blocks: 0,
            injector: None,
            instruments: None,
        })
    }

    /// Mirrors pipeline metrics into `registry` under `ledger.pipeline.*`.
    pub fn instrument(&mut self, registry: &Registry) {
        self.instruments = Some(PipelineInstruments {
            proposed: registry.counter("ledger.pipeline.proposed"),
            committed: registry.counter("ledger.pipeline.committed"),
            messages: registry.counter("ledger.pipeline.messages"),
            view_changes: registry.counter("ledger.pipeline.view_changes"),
            drains: registry.counter("ledger.pipeline.drains"),
            quorum_failures: registry.counter("ledger.pipeline.quorum_failures"),
            in_flight: registry.gauge("ledger.pipeline.in_flight"),
            latency: registry.histogram("ledger.pipeline.commit_sim_latency_ns"),
        });
    }

    /// Consults `injector` on every proposal:
    /// [`FAULT_PIPELINE_CRASH`] crashes the current primary;
    /// [`FAULT_PIPELINE_PARTITION`] severs the configured partition set
    /// while active.
    pub fn attach_faults(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Overrides which peers the partition fault point severs.
    ///
    /// # Panics
    ///
    /// Panics if any peer index is out of range.
    pub fn set_partition_peers(&mut self, peers: Vec<usize>) {
        assert!(peers.iter().all(|&p| p < self.n), "peer out of range");
        self.partition_peers = peers;
    }

    /// Number of peers.
    pub fn peer_count(&self) -> usize {
        self.n
    }

    /// The in-flight window size.
    pub fn window(&self) -> usize {
        self.votes.window()
    }

    /// The simulated clock consensus advances.
    pub(crate) fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The fault tolerance `f = ⌊(n-1)/3⌋`.
    pub fn tolerated_faults(&self) -> usize {
        (self.n - 1) / 3
    }

    /// Marks a peer crashed (true) or recovered (false).
    ///
    /// # Panics
    ///
    /// Panics if `peer >= n`.
    pub fn set_faulty(&mut self, peer: usize, faulty: bool) {
        assert!(peer < self.n, "peer out of range");
        self.faulty[peer] = faulty; // hc-lint: allow(panic-index)
    }

    /// Current primary index.
    pub fn primary(&self) -> usize {
        self.primary
    }

    /// Total messages across all instances so far.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Blocks whose commit quorum has been applied to the log.
    pub fn committed_blocks(&self) -> u64 {
        self.committed_blocks
    }

    /// Blocks proposed but not yet committed: at most `window − 1`
    /// between proposals.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// The ordering core, for invariant inspection in tests.
    pub fn slot_window(&self) -> &SlotWindow {
        &self.votes
    }

    /// A peer is unreachable if crashed or behind an active partition.
    fn effective_faulty(&self, peer: usize, partition_active: bool) -> bool {
        self.faulty[peer] // hc-lint: allow(panic-index)
            || (partition_active && self.partitioned[peer]) // hc-lint: allow(panic-index)
    }

    fn honest_count(&self, partition_active: bool) -> usize {
        (0..self.n)
            .filter(|&p| !self.effective_faulty(p, partition_active))
            .count()
    }

    fn apply_injected_faults(&mut self) -> bool {
        let Some(injector) = self.injector.clone() else {
            return false;
        };
        if matches!(injector.check(FAULT_PIPELINE_CRASH), Some(FaultKind::HostCrash)) {
            let primary = self.primary;
            self.set_faulty(primary, true);
        }
        let active = injector.is_active(FAULT_PIPELINE_PARTITION);
        for p in &mut self.partitioned {
            *p = false;
        }
        if active {
            for &p in &self.partition_peers {
                self.partitioned[p] = true; // hc-lint: allow(panic-index)
            }
        }
        active
    }

    /// Completes the oldest in-flight instance: advances the simulated
    /// clock to its commit time and applies its quorum votes to the slot
    /// window, which flushes it to the commit log in order.
    fn complete_oldest(&mut self) {
        let Some(head) = self.in_flight.pop_front() else {
            return;
        };
        if self.clock.now() < head.commit_at {
            self.clock.advance(head.commit_at.duration_since(self.clock.now()));
        }
        for _ in 0..self.votes.quorum() {
            self.votes.prepare(head.seq);
        }
        for _ in 0..self.votes.quorum() {
            self.votes.commit_vote(head.seq);
        }
        self.committed_blocks += 1;
        // In-order commitment, checked in O(1): the log is `0..=head.seq`.
        debug_assert_eq!(
            self.votes.committed_len(),
            head.seq + 1,
            "commit log left in-order prefix"
        );
        if let Some(inst) = &self.instruments {
            inst.committed.inc();
            inst.in_flight.set(self.in_flight.len() as i64);
        }
    }

    /// Commits every in-flight instance (view change, shutdown, or an
    /// explicit flush) and returns how many were completed.
    pub fn drain(&mut self) -> usize {
        let drained = self.in_flight.len();
        while !self.in_flight.is_empty() {
            self.complete_oldest();
        }
        if let Some(inst) = &self.instruments {
            if drained > 0 {
                inst.drains.inc();
            }
        }
        drained
    }

    /// Proposes the next block in the pipeline.
    ///
    /// Admission: the new block enters the pipeline first; if that fills
    /// the window, the oldest in-flight block then completes (this is
    /// the only point, besides view changes and
    /// [`PipelinedCluster::drain`], where the simulated clock advances).
    /// The proposal that fills the window thus commits inside the same
    /// call, so at most `window − 1` blocks stay in flight between calls
    /// and `window = 1` commits every block before returning.
    /// A faulty primary triggers a view change that drains the pipeline,
    /// pays the timeout plus the view-change broadcast, and rotates the
    /// primary past every unreachable peer.
    ///
    /// The returned outcome's latency is the block's proposal-to-commit
    /// span (`3 × LINK_LATENCY`, plus any view-change delay paid first).
    ///
    /// # Errors
    ///
    /// Returns [`ConsensusError::TooManyFaults`] when more than `f`
    /// peers are unreachable — in-flight blocks stay queued until a
    /// heal or an explicit drain.
    pub fn propose(&mut self) -> Result<ConsensusOutcome, ConsensusError> {
        let partition_active = self.apply_injected_faults();
        let f = self.tolerated_faults();
        let unreachable = self.n - self.honest_count(partition_active);
        if unreachable > f {
            if let Some(inst) = &self.instruments {
                inst.proposed.inc();
                inst.quorum_failures.inc();
            }
            return Err(ConsensusError::TooManyFaults {
                faulty: unreachable,
                tolerated: f,
            });
        }

        let mut latency = SimDuration::ZERO;
        let mut messages = 0u64;
        let mut view_changes = 0u32;
        // Rotate past faulty primaries. Prepared certificates survive a
        // view change, so the pipeline drains (committing in order)
        // before the timeout and broadcast are charged.
        while self.effective_faulty(self.primary, partition_active) {
            self.drain();
            view_changes += 1;
            latency += VIEW_CHANGE_TIMEOUT;
            messages += (self.honest_count(partition_active) as u64) * (self.n as u64 - 1);
            self.clock.advance(VIEW_CHANGE_TIMEOUT);
            self.primary = (self.primary + 1) % self.n;
        }

        let seq = self.next_seq;
        self.next_seq += 1;
        let opened = self.votes.open(seq);
        debug_assert!(
            opened,
            "at most window - 1 blocks in flight leaves the ring slot free"
        );

        let honest = self.honest_count(partition_active) as u64;
        // The full three-phase message complement for every window:
        // pipelining buys latency overlap, not cheaper messages.
        messages += self.n as u64 - 1; // pre-prepare: primary → all
        messages += (honest - 1) * (self.n as u64 - 1); // prepare broadcast
        messages += honest * (self.n as u64 - 1); // commit broadcast
        let commit_latency = LINK_LATENCY.saturating_mul(3);
        latency += commit_latency;
        self.in_flight.push_back(InFlight {
            seq,
            commit_at: self.clock.now() + commit_latency,
        });
        // Window admission: the proposal that fills the window completes
        // the oldest block before returning.
        while self.in_flight.len() >= self.votes.window() {
            self.complete_oldest();
        }
        self.total_messages += messages;
        if let Some(inst) = &self.instruments {
            inst.proposed.inc();
            inst.messages.add(messages);
            inst.view_changes.add(view_changes as u64);
            inst.in_flight.set(self.in_flight.len() as i64);
            inst.latency.record(latency.as_nanos());
        }
        Ok(ConsensusOutcome {
            messages,
            latency,
            view_changes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipelined(n: usize, window: usize, clock: SimClock) -> PipelinedCluster {
        PipelinedCluster::new(n, window, clock).unwrap()
    }

    /// The sequential protocol: `window = 1`.
    fn cluster(n: usize) -> PipelinedCluster {
        pipelined(n, 1, SimClock::new())
    }

    #[test]
    fn healthy_cluster_commits() {
        let mut c = cluster(4);
        let out = c.propose().unwrap();
        assert_eq!(c.committed_blocks(), 1);
        assert_eq!(c.in_flight(), 0);
        assert_eq!(out.view_changes, 0);
        assert_eq!(out.latency, SimDuration::from_millis(3));
    }

    #[test]
    fn message_complexity_grows_quadratically() {
        let m4 = cluster(4).propose().unwrap().messages;
        let m13 = cluster(13).propose().unwrap().messages;
        // n² scaling: 13 peers ≫ 4 peers, superlinear.
        assert!(m13 > 9 * m4 / 2, "m4={m4} m13={m13}");
    }

    #[test]
    fn tolerates_f_faults() {
        let mut c = cluster(7); // f = 2
        c.set_faulty(1, true);
        c.set_faulty(2, true);
        let _ = c.propose().unwrap();
        assert_eq!(c.committed_blocks(), 1);
    }

    #[test]
    fn too_many_faults_error() {
        let mut c = cluster(4); // f = 1
        c.set_faulty(1, true);
        c.set_faulty(2, true);
        assert_eq!(
            c.propose().unwrap_err(),
            ConsensusError::TooManyFaults {
                faulty: 2,
                tolerated: 1
            }
        );
    }

    #[test]
    fn faulty_primary_triggers_view_change() {
        let mut c = cluster(4);
        c.set_faulty(0, true);
        let out = c.propose().unwrap();
        assert_eq!(c.committed_blocks(), 1);
        assert_eq!(out.view_changes, 1);
        assert_eq!(c.primary(), 1);
        assert!(out.latency > SimDuration::from_millis(3));
    }

    #[test]
    fn consecutive_faulty_primaries() {
        let mut c = cluster(7);
        c.set_faulty(0, true);
        c.set_faulty(1, true);
        let out = c.propose().unwrap();
        assert_eq!(out.view_changes, 2);
        assert_eq!(c.primary(), 2);
    }

    #[test]
    fn partitioned_quorum_blocks_commit_until_heal() {
        // Partition a 7-peer cluster (f = 2) so only f + 1 = 3 peers stay
        // reachable: 4 unreachable > f, so liveness is lost and propose
        // surfaces it as an error rather than committing on a minority.
        let mut c = cluster(7);
        for peer in 3..7 {
            c.set_faulty(peer, true);
        }
        assert_eq!(
            c.propose().unwrap_err(),
            ConsensusError::TooManyFaults {
                faulty: 4,
                tolerated: 2
            }
        );
        // Still no commit on a second try — the partition is stateful.
        assert!(c.propose().is_err());
        assert_eq!(c.committed_blocks(), 0);

        // Heal the partition: the very next instance commits.
        for peer in 3..7 {
            c.set_faulty(peer, false);
        }
        let _ = c.propose().unwrap();
        assert_eq!(c.committed_blocks(), 1);
    }

    #[test]
    fn too_few_peers_rejected() {
        assert_eq!(
            PipelinedCluster::new(3, 1, SimClock::new()).unwrap_err(),
            ConsensusError::TooFewPeers(3)
        );
    }

    #[test]
    fn clock_advances_and_messages_accumulate() {
        let clock = SimClock::new();
        let mut c = pipelined(4, 1, clock.clone());
        let _ = c.propose().unwrap();
        let _ = c.propose().unwrap();
        // Two sequential instances, three link delays each.
        assert_eq!(clock.now().as_millis(), 6);
        assert!(c.total_messages() > 0);
    }

    #[test]
    fn recovered_peer_counts_again() {
        let mut c = cluster(4);
        c.set_faulty(3, true);
        let with_fault = c.propose().unwrap().messages;
        c.set_faulty(3, false);
        let healthy = c.propose().unwrap().messages;
        assert!(healthy > with_fault);
    }

    fn opened_window(n: usize, window: usize, seqs: u64) -> SlotWindow {
        let w = SlotWindow::new(n, window).unwrap();
        for seq in 0..seqs {
            assert!(w.open(seq));
        }
        w
    }

    #[test]
    fn window_commits_in_order_even_when_later_quorum_lands_first() {
        let w = opened_window(4, 4, 3); // quorum = 3
        for seq in [2u64, 1] {
            for _ in 0..3 {
                w.prepare(seq);
                w.commit_vote(seq);
            }
        }
        // Sequences 1 and 2 have quorums but must wait for 0.
        assert!(w.committed().is_empty());
        for _ in 0..3 {
            w.prepare(0);
            w.commit_vote(0);
        }
        assert_eq!(w.committed(), vec![0, 1, 2]);
        assert!(w.in_order());
    }

    #[test]
    fn window_needs_a_quorum_per_slot() {
        let w = opened_window(7, 2, 1); // quorum = 5
        assert_eq!(w.quorum(), 5);
        for _ in 0..4 {
            w.commit_vote(0);
        }
        assert!(w.committed().is_empty(), "4 < 5 votes must not commit");
        w.commit_vote(0);
        assert_eq!(w.committed(), vec![0]);
    }

    #[test]
    fn window_refuses_to_recycle_uncommitted_slot() {
        let w = opened_window(4, 2, 2);
        // Seq 2 maps to seq 0's ring slot, which is still in flight.
        assert!(!w.open(2));
        for _ in 0..3 {
            w.commit_vote(0);
        }
        // Once seq 0 committed, its slot is reusable for seq 2.
        assert!(w.open(2));
        // Stale votes for the evicted occupant are ignored.
        assert!(!w.prepare(0));
    }

    #[test]
    fn window_rejects_tiny_clusters() {
        assert_eq!(
            SlotWindow::new(3, 2).unwrap_err(),
            ConsensusError::TooFewPeers(3)
        );
    }

    #[test]
    fn pipelined_overlaps_proposals_until_window_fills() {
        let clock = SimClock::new();
        let mut c = pipelined(4, 4, clock.clone());
        for _ in 0..3 {
            let _ = c.propose().unwrap();
        }
        // Three proposals in flight, zero sim time spent: the phases of
        // all three blocks overlap.
        assert_eq!(c.in_flight(), 3);
        assert_eq!(clock.now().as_millis(), 0);
        // The fourth proposal fills the window: the oldest block commits
        // at its 3L deadline before the call returns.
        let _ = c.propose().unwrap();
        assert_eq!(c.in_flight(), 3);
        assert_eq!(c.committed_blocks(), 1);
        assert_eq!(clock.now().as_millis(), 3);
        // The fifth completes the second block, due at the same 3L.
        let _ = c.propose().unwrap();
        assert_eq!(c.in_flight(), 3);
        assert_eq!(clock.now().as_millis(), 3);
        assert_eq!(c.drain(), 3);
        assert_eq!(c.committed_blocks(), 5);
        // The fifth block was proposed at 3L, so the drain ends at 6L.
        assert_eq!(clock.now().as_millis(), 6);
        assert!(c.slot_window().in_order());
    }

    #[test]
    fn pipelined_throughput_beats_sequential_by_window_factor() {
        let blocks = 96u64;
        let seq_clock = SimClock::new();
        let mut seq = pipelined(4, 1, seq_clock.clone());
        for _ in 0..blocks {
            let _ = seq.propose().unwrap();
        }
        let pipe_clock = SimClock::new();
        let mut pipe = pipelined(4, 16, pipe_clock.clone());
        for _ in 0..blocks {
            let _ = pipe.propose().unwrap();
        }
        pipe.drain();
        assert_eq!(pipe.committed_blocks(), blocks);
        let speedup =
            seq_clock.now().as_nanos() as f64 / pipe_clock.now().as_nanos().max(1) as f64;
        assert!(speedup >= 10.0, "window-16 speedup {speedup:.1} < 10x");
        // Message accounting is identical: overlap is free in messages.
        assert_eq!(pipe.total_messages(), seq.total_messages());
    }

    #[test]
    fn pipelined_view_change_drains_in_flight_blocks() {
        let clock = SimClock::new();
        let mut c = pipelined(4, 8, clock.clone());
        for _ in 0..3 {
            let _ = c.propose().unwrap();
        }
        assert_eq!(c.in_flight(), 3);
        c.set_faulty(0, true);
        let out = c.propose().unwrap();
        assert_eq!(out.view_changes, 1);
        assert_eq!(c.primary(), 1);
        // The three pre-fault blocks committed during the drain; only
        // the block proposed under the new view remains in flight.
        assert_eq!(c.in_flight(), 1);
        assert_eq!(c.committed_blocks(), 3);
        assert!(c.slot_window().in_order());
    }

    #[test]
    fn pipelined_too_many_faults_error() {
        let mut c = pipelined(4, 4, SimClock::new()); // f = 1
        let _ = c.propose().unwrap();
        c.set_faulty(1, true);
        c.set_faulty(2, true);
        assert_eq!(
            c.propose().unwrap_err(),
            ConsensusError::TooManyFaults {
                faulty: 2,
                tolerated: 1
            }
        );
        // The in-flight block is not lost: a drain still commits it.
        assert_eq!(c.drain(), 1);
        assert_eq!(c.committed_blocks(), 1);
    }

    #[test]
    fn pipelined_crash_fault_point_triggers_view_change() {
        use hc_common::fault::FaultSpec;
        let clock = SimClock::new();
        let mut c = pipelined(4, 4, clock.clone());
        let injector = FaultInjector::new(clock, 7);
        injector.schedule(
            FAULT_PIPELINE_CRASH,
            FaultSpec::always(FaultKind::HostCrash).limit(1),
        );
        c.attach_faults(injector.clone());
        let out = c.propose().unwrap();
        // Peer 0 crashed at proposal time: the pipeline view-changed
        // past it before proposing under primary 1.
        assert_eq!(out.view_changes, 1);
        assert_eq!(c.primary(), 1);
        assert_eq!(injector.injected_count(), 1);
        // The fault point was single-shot; the next proposal is clean.
        assert_eq!(c.propose().unwrap().view_changes, 0);
    }

    #[test]
    fn pipelined_partition_blocks_liveness_until_heal() {
        use hc_common::fault::FaultSpec;
        let clock = SimClock::new();
        let mut c = pipelined(7, 4, clock.clone());
        let injector = FaultInjector::new(clock.clone(), 11);
        c.attach_faults(injector.clone());
        let _ = c.propose().unwrap();
        injector.schedule(
            FAULT_PIPELINE_PARTITION,
            FaultSpec::always(FaultKind::NetworkPartition),
        );
        // Default cut severs ⌈n/2⌉ peers > f: liveness lost.
        assert!(matches!(
            c.propose().unwrap_err(),
            ConsensusError::TooManyFaults { .. }
        ));
        injector.heal(FAULT_PIPELINE_PARTITION);
        let _ = c.propose().unwrap();
        c.drain();
        assert_eq!(c.committed_blocks(), 2);
        assert!(c.slot_window().in_order());
    }
}
