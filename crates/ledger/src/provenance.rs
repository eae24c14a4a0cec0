//! The HCLS provenance event vocabulary and the provenance network.
//!
//! §IV-B1: "Upon each event or transaction such as data receipt, data
//! retrieval, data anonymization and such other events, the blockchain
//! ledger is updated with a 'handle/reference' to the encrypted data
//! record, hash of the data, information about the event/transaction, and
//! meta-data."

use hc_common::clock::SimClock;
use hc_common::id::{ReferenceId, TxId};
use hc_crypto::sha256::Digest;
use hc_telemetry::{Counter, Gauge, Histogram, Registry};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use crate::block::Transaction;
use crate::chain::{Ledger, LedgerError};
use crate::consensus::ConsensusOutcome;

/// What happened to a record.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ProvenanceAction {
    /// Data entered the platform.
    Ingested,
    /// Data was read by an authorized party.
    Accessed,
    /// Data was anonymized.
    Anonymized,
    /// Data left the platform (export).
    Exported,
    /// Data was securely deleted.
    Deleted,
    /// A patient granted consent.
    ConsentGranted,
    /// A patient revoked consent.
    ConsentRevoked,
    /// A model built from this data was deployed.
    ModelDeployed,
}

impl ProvenanceAction {
    /// The wire kind tag (must be in [`crate::policy::PROVENANCE_KINDS`]).
    pub fn kind(&self) -> &'static str {
        match self {
            ProvenanceAction::Ingested => "ingested",
            ProvenanceAction::Accessed => "accessed",
            ProvenanceAction::Anonymized => "anonymized",
            ProvenanceAction::Exported => "exported",
            ProvenanceAction::Deleted => "deleted",
            ProvenanceAction::ConsentGranted => "consent-granted",
            ProvenanceAction::ConsentRevoked => "consent-revoked",
            ProvenanceAction::ModelDeployed => "model-deployed",
        }
    }
}

/// A provenance event: handle + hash + metadata, never PHI.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ProvenanceEvent {
    /// The data-lake handle of the affected record.
    pub record: ReferenceId,
    /// Hash of the record contents at event time.
    pub data_hash: Digest,
    /// What happened.
    pub action: ProvenanceAction,
    /// Who did it (service/user name — not patient identity).
    pub actor: String,
    /// Free-form metadata (consent reference, export target, …).
    pub detail: String,
}

impl ProvenanceEvent {
    /// Serializes into a ledger transaction.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error when the event cannot be
    /// serialised (foreign payload types injected via Detail, etc.).
    pub fn to_transaction(&self, id: TxId, clock: &SimClock) -> Result<Transaction, serde_json::Error> {
        Ok(Transaction {
            id,
            channel: "provenance".to_owned(),
            kind: self.action.kind().to_owned(),
            payload: serde_json::to_vec(self)?,
            submitter: self.actor.clone(),
            timestamp: clock.now(),
        })
    }

    /// Parses an event back out of a transaction payload.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error for foreign payloads.
    pub fn from_transaction(tx: &Transaction) -> Result<Self, serde_json::Error> {
        serde_json::from_slice(&tx.payload)
    }
}

/// Registry handles for the provenance plane (`ledger.provenance.*`).
struct ProvenanceInstruments {
    events: Counter,
    blocks: Counter,
    flush_failures: Counter,
    pending: Gauge,
    anchor_latency: Histogram,
}

/// The provenance network: batches events into consensus-committed blocks.
///
/// The pending queue is the one place uncommitted transactions of every
/// channel are kept: a consensus failure leaves them queued, in order,
/// and the next [`record`](Self::record) or [`flush`](Self::flush) after
/// the heal commits them.
pub struct ProvenanceNetwork {
    ledger: Ledger,
    pending: VecDeque<Transaction>,
    /// Whether a consensus failure left events in `pending`; cleared
    /// once a flush empties the queue.
    stalled: bool,
    batch_size: usize,
    next_tx: u128,
    instruments: Option<ProvenanceInstruments>,
}

impl std::fmt::Debug for ProvenanceNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProvenanceNetwork")
            .field("height", &self.ledger.height())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl ProvenanceNetwork {
    /// Wraps a ledger with batching (`batch_size` ≥ 1). Events are
    /// stamped on the ledger's consensus clock.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(ledger: Ledger, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        ProvenanceNetwork {
            ledger,
            pending: VecDeque::new(),
            stalled: false,
            batch_size,
            next_tx: 0,
            instruments: None,
        }
    }

    /// Mirrors provenance-plane metrics into `registry` under
    /// `ledger.provenance.*` (events recorded, blocks anchored, flush
    /// failures, pending-batch depth, and a simulated anchor-latency
    /// histogram). Also instruments the underlying consensus cluster
    /// (`ledger.pipeline.*`) and checkpoints (`ledger.ckpt.*`).
    pub fn instrument(&mut self, registry: &Registry) {
        self.ledger.cluster_mut().instrument(registry);
        self.ledger.instrument(registry);
        self.instruments = Some(ProvenanceInstruments {
            events: registry.counter("ledger.provenance.events"),
            blocks: registry.counter("ledger.provenance.blocks"),
            flush_failures: registry.counter("ledger.provenance.flush_failures"),
            pending: registry.gauge("ledger.provenance.pending"),
            anchor_latency: registry.histogram("ledger.provenance.anchor_sim_latency_ns"),
        });
    }

    /// Records an event; flushes when the queue holds a full batch.
    ///
    /// # Errors
    ///
    /// Fails as [`enqueue`](Self::enqueue) does, and propagates
    /// ledger/consensus errors from an automatic flush. A consensus
    /// failure does not lose the event: it stays pending, and a later
    /// `record` or `flush` commits it.
    pub fn record(&mut self, event: &ProvenanceEvent) -> Result<Option<ConsensusOutcome>, LedgerError> {
        let id = TxId::from_raw(self.next_tx + 1);
        let tx = event
            .to_transaction(id, self.ledger.cluster().clock())
            .map_err(|e| LedgerError::Encoding(e.to_string()))?;
        self.enqueue(tx)?;
        self.next_tx += 1;
        if let Some(inst) = &self.instruments {
            inst.events.inc();
        }
        if self.pending.len() >= self.batch_size {
            return self.flush().map(Some);
        }
        Ok(None)
    }

    /// Queues `tx`, a transaction of any channel, behind every
    /// uncommitted one; the next flush commits it. A transaction that a
    /// channel policy refuses is not queued, so it never takes a block of
    /// other transactions down with it.
    ///
    /// # Errors
    ///
    /// [`LedgerError::PolicyViolation`] when a policy refuses `tx`.
    pub fn enqueue(&mut self, tx: Transaction) -> Result<(), LedgerError> {
        self.ledger.validate(std::slice::from_ref(&tx))?;
        self.pending.push_back(tx);
        if let Some(inst) = &self.instruments {
            inst.pending.set(self.pending.len() as i64);
        }
        Ok(())
    }

    /// Commits every pending event, oldest first, in blocks of at most
    /// `batch_size`, and returns the last block's outcome.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerError::EmptyBatch`] if nothing is pending. A
    /// consensus failure stops the flush and leaves the uncommitted
    /// events pending, in order; blocks committed before it stay
    /// committed. A block that fails policy validation is dropped.
    pub fn flush(&mut self) -> Result<ConsensusOutcome, LedgerError> {
        let mut last = Err(LedgerError::EmptyBatch);
        while !self.pending.is_empty() {
            let len = self.pending.len().min(self.batch_size);
            let (block, _) = self.pending.make_contiguous().split_at(len);
            last = self.ledger.propose(block);
            if matches!(last, Err(LedgerError::Consensus(_))) {
                self.stalled = true;
            } else {
                // Committed, or refused by policy: either way the block
                // leaves the queue, moved (not copied) into a buffer
                // sized to it.
                let mut owned = Vec::with_capacity(len);
                owned.extend(self.pending.drain(..len));
                if last.is_ok() {
                    self.ledger.append(owned);
                }
            }
            if let Some(inst) = &self.instruments {
                match &last {
                    Ok(o) => {
                        inst.blocks.inc();
                        inst.anchor_latency.record(o.latency.as_nanos());
                    }
                    Err(_) => inst.flush_failures.inc(),
                }
            }
            if last.is_err() {
                break;
            }
        }
        if self.pending.is_empty() {
            self.stalled = false;
        }
        if let Some(inst) = &self.instruments {
            inst.pending.set(self.pending.len() as i64);
        }
        last
    }

    /// The underlying ledger (read).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The underlying ledger (mutable, for fault injection in tests).
    pub fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    /// Number of uncommitted transactions.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Whether events that a consensus failure left uncommitted are
    /// still pending.
    pub fn is_stalled(&self) -> bool {
        self.stalled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditorView;
    use crate::consensus::PipelinedCluster;
    use crate::policy::ProvenancePolicy;
    use hc_crypto::sha256;

    fn network(batch: usize) -> ProvenanceNetwork {
        let cluster = PipelinedCluster::new(4, 1, SimClock::new()).unwrap();
        let mut ledger = Ledger::new(cluster);
        ledger.install_policy(Box::new(ProvenancePolicy));
        ProvenanceNetwork::new(ledger, batch)
    }

    fn event(record: u128, action: ProvenanceAction) -> ProvenanceEvent {
        ProvenanceEvent {
            record: ReferenceId::from_raw(record),
            data_hash: sha256::hash(&record.to_le_bytes()),
            action,
            actor: "ingest-service".into(),
            detail: String::new(),
        }
    }

    #[test]
    fn batching_commits_on_fill() {
        let mut net = network(3);
        assert!(net.record(&event(1, ProvenanceAction::Ingested)).unwrap().is_none());
        assert!(net.record(&event(1, ProvenanceAction::Accessed)).unwrap().is_none());
        let outcome = net.record(&event(1, ProvenanceAction::Exported)).unwrap();
        assert!(outcome.is_some());
        assert_eq!(net.ledger().height(), 1);
        assert_eq!(net.pending_count(), 0);
    }

    #[test]
    fn history_reconstructs_lifecycle() {
        let mut net = network(1);
        let r = 42u128;
        for action in [
            ProvenanceAction::ConsentGranted,
            ProvenanceAction::Ingested,
            ProvenanceAction::Anonymized,
            ProvenanceAction::Accessed,
            ProvenanceAction::Deleted,
        ] {
            net.record(&event(r, action)).unwrap();
        }
        let view = AuditorView::new(net.ledger());
        let history = view.record_history(ReferenceId::from_raw(r));
        assert_eq!(history.len(), 5);
        assert_eq!(history[0].action, ProvenanceAction::ConsentGranted);
        assert_eq!(history[4].action, ProvenanceAction::Deleted);
        assert!(view.record_history(ReferenceId::from_raw(777)).is_empty());
    }

    /// Transaction ids per block, oldest block first.
    fn block_ids(net: &ProvenanceNetwork) -> Vec<Vec<u128>> {
        net.ledger()
            .blocks()
            .iter()
            .map(|b| b.transactions.iter().map(|t| t.id.as_u128()).collect())
            .collect()
    }

    #[test]
    fn failed_flush_keeps_its_batch_until_the_heal() {
        use crate::consensus::ConsensusError;

        let mut net = network(2);
        // Partition 2 of 4 peers away (f = 1): quorum is unreachable.
        net.ledger_mut().cluster_mut().set_faulty(2, true);
        net.ledger_mut().cluster_mut().set_faulty(3, true);
        assert!(net
            .record(&event(1, ProvenanceAction::Ingested))
            .unwrap()
            .is_none());
        let err = net
            .record(&event(1, ProvenanceAction::Anonymized))
            .unwrap_err();
        assert!(matches!(
            err,
            LedgerError::Consensus(ConsensusError::TooManyFaults {
                faulty: 2,
                tolerated: 1
            })
        ));
        // Every later record retries the flush; nothing is lost.
        assert!(net.record(&event(2, ProvenanceAction::Ingested)).is_err());
        assert!(net.flush().is_err());
        assert_eq!(net.pending_count(), 3);
        assert!(net.is_stalled());
        assert_eq!(net.ledger().height(), 0);

        net.ledger_mut().cluster_mut().set_faulty(2, false);
        net.ledger_mut().cluster_mut().set_faulty(3, false);
        let outcome = net.record(&event(2, ProvenanceAction::Anonymized)).unwrap();
        assert!(outcome.is_some());
        assert_eq!(net.pending_count(), 0);
        assert!(!net.is_stalled());
        // Oldest first, in blocks of at most `batch_size`.
        assert_eq!(block_ids(&net), vec![vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn flush_stops_at_the_failed_block_and_keeps_the_rest_in_order() {
        use crate::consensus::{FAULT_PIPELINE_PARTITION, LINK_LATENCY};
        use hc_common::fault::{FaultInjector, FaultKind, FaultSpec};

        let mut net = network(2);
        net.ledger_mut().cluster_mut().set_faulty(2, true);
        net.ledger_mut().cluster_mut().set_faulty(3, true);
        for record in 1..=5 {
            let _ = net.record(&event(record, ProvenanceAction::Ingested));
        }
        assert_eq!(net.pending_count(), 5);
        net.ledger_mut().cluster_mut().set_faulty(2, false);
        net.ledger_mut().cluster_mut().set_faulty(3, false);

        // The partition starts once the first block has committed, so
        // the flush commits one block and fails on the second.
        let clock = net.ledger().cluster().clock().clone();
        let injector = FaultInjector::new(clock.clone(), 5);
        injector.schedule(
            FAULT_PIPELINE_PARTITION,
            FaultSpec::always(FaultKind::NetworkPartition)
                .starting(clock.now() + LINK_LATENCY.saturating_mul(3)),
        );
        net.ledger_mut()
            .cluster_mut()
            .attach_faults(injector.clone());
        assert!(net.flush().is_err());
        assert_eq!(block_ids(&net), vec![vec![1, 2]]);
        assert_eq!(net.pending_count(), 3);
        assert!(net.is_stalled());

        injector.heal(FAULT_PIPELINE_PARTITION);
        net.flush().unwrap();
        assert_eq!(block_ids(&net), vec![vec![1, 2], vec![3, 4], vec![5]]);
        assert!(!net.is_stalled());
    }

    #[test]
    fn long_backlog_drains_in_blocks_sized_to_the_batch() {
        const EVENTS: u128 = 10_000;
        let mut net = network(4);
        net.ledger_mut().cluster_mut().set_faulty(2, true);
        net.ledger_mut().cluster_mut().set_faulty(3, true);
        for record in 1..=EVENTS {
            let _ = net.record(&event(record, ProvenanceAction::Ingested));
        }
        assert_eq!(net.pending_count(), EVENTS as usize);
        net.ledger_mut().cluster_mut().set_faulty(2, false);
        net.ledger_mut().cluster_mut().set_faulty(3, false);

        net.flush().unwrap();
        assert_eq!(net.pending_count(), 0);
        assert_eq!(net.ledger().height(), EVENTS as u64 / 4);
        let mut next = 1;
        for block in net.ledger().blocks() {
            assert_eq!(block.transactions.len(), 4);
            // Each block owns a buffer sized to it, not the queue's.
            assert!(block.transactions.capacity() <= 4);
            for tx in &block.transactions {
                assert_eq!(tx.id.as_u128(), next);
                next += 1;
            }
        }
        assert_eq!(next, EVENTS + 1);
    }

    #[test]
    fn flush_on_empty_errors() {
        let mut net = network(10);
        assert!(matches!(net.flush(), Err(LedgerError::EmptyBatch)));
    }

    #[test]
    fn manual_flush_commits_partial_batch() {
        let mut net = network(100);
        net.record(&event(1, ProvenanceAction::Ingested)).unwrap();
        net.flush().unwrap();
        assert_eq!(net.ledger().height(), 1);
    }

    #[test]
    fn any_channel_queues_in_order_and_a_refused_event_stays_out() {
        let mut net = network(4);
        net.record(&event(1, ProvenanceAction::Ingested)).unwrap();
        net.enqueue(Transaction {
            id: TxId::from_raw(900),
            channel: "malware".into(),
            kind: "malware-detected".into(),
            payload: b"scanner=test;record=1".to_vec(),
            submitter: "malware-filter".into(),
            timestamp: SimClock::new().now(),
        })
        .unwrap();
        // The provenance policy refuses an event without an actor: it is
        // neither queued nor given an id.
        let nameless = ProvenanceEvent {
            actor: String::new(),
            ..event(2, ProvenanceAction::Accessed)
        };
        assert!(matches!(
            net.record(&nameless),
            Err(LedgerError::PolicyViolation { .. })
        ));
        assert_eq!(net.pending_count(), 2);
        net.record(&event(2, ProvenanceAction::Accessed)).unwrap();
        net.flush().unwrap();
        assert_eq!(block_ids(&net), [vec![1, 900, 2]]);
    }

    #[test]
    fn event_round_trips_through_transaction() {
        let clock = SimClock::new();
        let e = event(7, ProvenanceAction::Anonymized);
        let tx = e.to_transaction(TxId::from_raw(1), &clock).expect("event serializes");
        assert_eq!(tx.kind, "anonymized");
        assert_eq!(ProvenanceEvent::from_transaction(&tx).unwrap(), e);
    }
}
