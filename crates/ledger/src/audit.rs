//! Auditor view and the centralized baseline.
//!
//! §IV-E: "Hyperledger has an auditor view that allows an auditor to get
//! access to the ledgers and search for use and processing of data, system
//! integrity and user provenance." The [`AuditorView`] is a read-only
//! facade over the ledger with integrity re-verification built in.
//!
//! [`CentralAuditDb`] is the baseline the paper argues against: "Past
//! systems make use of centralized databases without any transparency" —
//! it is faster (no consensus) but tampering leaves no trace, which the
//! E4 bench demonstrates alongside the throughput comparison.

use hc_common::clock::{SimClock, SimDuration, SimInstant};
use hc_common::id::{ReferenceId, TxId};

use crate::chain::{BlockProof, ChainStatus, Checkpoint, EventProof, Ledger, ProofError};
use crate::provenance::{ProvenanceAction, ProvenanceEvent};

/// Verifies a compact event proof against a checkpoint — the auditor's
/// stateless check: no ledger access, no chain replay, just Merkle paths
/// and the rolling checkpoint anchor. See [`EventProof::verify`].
pub fn verify_event_proof(proof: &EventProof, checkpoint: &Checkpoint) -> bool {
    proof.verify(checkpoint)
}

/// Verifies a compact block-header proof against a checkpoint; the claim
/// that survives body pruning. See [`BlockProof::verify`].
pub fn verify_block_proof(proof: &BlockProof, checkpoint: &Checkpoint) -> bool {
    proof.verify(checkpoint)
}

/// A read-only audit facade over a ledger.
pub struct AuditorView<'a> {
    ledger: &'a Ledger,
}

impl<'a> AuditorView<'a> {
    /// Opens the view.
    pub fn new(ledger: &'a Ledger) -> Self {
        AuditorView { ledger }
    }

    /// Re-verifies the whole chain before answering anything.
    pub fn integrity(&self) -> ChainStatus {
        self.ledger.verify_chain()
    }

    /// Every event touching a record, oldest first.
    pub fn record_history(&self, record: ReferenceId) -> Vec<ProvenanceEvent> {
        self.ledger
            .channel_transactions("provenance")
            .iter()
            .filter_map(|tx| ProvenanceEvent::from_transaction(tx).ok())
            .filter(|e| e.record == record)
            .collect()
    }

    /// Every event performed by an actor.
    pub fn actor_history(&self, actor: &str) -> Vec<ProvenanceEvent> {
        self.ledger
            .channel_transactions("provenance")
            .iter()
            .filter_map(|tx| ProvenanceEvent::from_transaction(tx).ok())
            .filter(|e| e.actor == actor)
            .collect()
    }

    /// Counts events by action across the whole chain.
    pub fn action_counts(&self) -> Vec<(ProvenanceAction, usize)> {
        let mut counts: Vec<(ProvenanceAction, usize)> = Vec::new();
        for tx in self.ledger.channel_transactions("provenance") {
            if let Ok(e) = ProvenanceEvent::from_transaction(tx) {
                match counts.iter_mut().find(|(a, _)| *a == e.action) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((e.action, 1)),
                }
            }
        }
        counts
    }

    /// Builds a compact, independently verifiable proof that an event is
    /// committed under the newest checkpoint (transaction → block root →
    /// interval root → state root).
    ///
    /// # Errors
    ///
    /// Propagates [`ProofError`]: notably
    /// [`ProofError::BodyPruned`] when the body is behind the pruning
    /// watermark — fall back to [`AuditorView::prove_block`] there.
    pub fn prove_event(&self, height: u64, tx_id: TxId) -> Result<EventProof, ProofError> {
        self.ledger.prove_event(height, tx_id)
    }

    /// Builds a header-level proof, available for pruned heights too.
    ///
    /// # Errors
    ///
    /// Propagates [`ProofError`].
    pub fn prove_block(&self, height: u64) -> Result<BlockProof, ProofError> {
        self.ledger.prove_block(height)
    }

    /// The newest checkpoint to verify proofs against, if sealed.
    pub fn latest_checkpoint(&self) -> Option<&Checkpoint> {
        self.ledger.latest_checkpoint()
    }

    /// Checks the GDPR deletion obligation: a record that was ingested
    /// and later deleted must have no post-deletion access events.
    pub fn verify_deletion_compliance(&self, record: ReferenceId) -> bool {
        let history = self.record_history(record);
        let Some(delete_pos) = history
            .iter()
            .position(|e| e.action == ProvenanceAction::Deleted)
        else {
            return true; // never deleted → nothing to verify
        };
        !history[delete_pos + 1..]
            .iter()
            .any(|e| matches!(e.action, ProvenanceAction::Accessed | ProvenanceAction::Exported))
    }
}

/// The centralized audit database baseline (no consensus, no hash chain).
#[derive(Debug)]
pub struct CentralAuditDb {
    clock: SimClock,
    write_latency: SimDuration,
    events: Vec<(SimInstant, ProvenanceEvent)>,
}

impl CentralAuditDb {
    /// Creates a baseline DB with the given per-write latency.
    pub fn new(clock: SimClock, write_latency: SimDuration) -> Self {
        CentralAuditDb {
            clock,
            write_latency,
            events: Vec::new(),
        }
    }

    /// Appends an event (one DB write of latency; no consensus).
    pub fn record(&mut self, event: ProvenanceEvent) -> SimDuration {
        self.clock.advance(self.write_latency);
        self.events.push((self.clock.now(), event));
        self.write_latency
    }

    /// Event history of a record.
    pub fn record_history(&self, record: ReferenceId) -> Vec<&ProvenanceEvent> {
        self.events
            .iter()
            .map(|(_, e)| e)
            .filter(|e| e.record == record)
            .collect()
    }

    /// Silently rewrites history — the attack the blockchain prevents.
    /// Returns whether anything was altered; crucially, **no verification
    /// mechanism exists** to detect it afterwards.
    pub fn tamper(&mut self, record: ReferenceId, new_actor: &str) -> bool {
        let mut altered = false;
        for (_, e) in &mut self.events {
            if e.record == record {
                e.actor = new_actor.to_owned();
                altered = true;
            }
        }
        altered
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the DB is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::PipelinedCluster;
    use crate::policy::ProvenancePolicy;
    use crate::provenance::ProvenanceNetwork;
    use hc_crypto::sha256;

    fn event(record: u128, action: ProvenanceAction, actor: &str) -> ProvenanceEvent {
        ProvenanceEvent {
            record: ReferenceId::from_raw(record),
            data_hash: sha256::hash(b"d"),
            action,
            actor: actor.into(),
            detail: String::new(),
        }
    }

    fn committed_network() -> ProvenanceNetwork {
        let cluster = PipelinedCluster::new(4, 1, SimClock::new()).unwrap();
        let mut ledger = Ledger::new(cluster);
        ledger.install_policy(Box::new(ProvenancePolicy));
        let mut net = ProvenanceNetwork::new(ledger, 1);
        net.record(&event(1, ProvenanceAction::Ingested, "ingest")).unwrap();
        net.record(&event(1, ProvenanceAction::Accessed, "alice")).unwrap();
        net.record(&event(1, ProvenanceAction::Deleted, "gdpr-service")).unwrap();
        net.record(&event(2, ProvenanceAction::Ingested, "ingest")).unwrap();
        net
    }

    #[test]
    fn auditor_reads_history_and_integrity() {
        let net = committed_network();
        let view = AuditorView::new(net.ledger());
        assert_eq!(view.integrity(), ChainStatus::Valid);
        assert_eq!(view.record_history(ReferenceId::from_raw(1)).len(), 3);
        assert_eq!(view.actor_history("alice").len(), 1);
        let counts = view.action_counts();
        assert!(counts.contains(&(ProvenanceAction::Ingested, 2)));
    }

    #[test]
    fn deletion_compliance_checked() {
        let mut net = committed_network();
        let view = AuditorView::new(net.ledger());
        assert!(view.verify_deletion_compliance(ReferenceId::from_raw(1)));
        assert!(view.verify_deletion_compliance(ReferenceId::from_raw(2)));
        let _ = view;
        // Access after deletion → violation.
        net.record(&event(1, ProvenanceAction::Accessed, "eve")).unwrap();
        let view = AuditorView::new(net.ledger());
        assert!(!view.verify_deletion_compliance(ReferenceId::from_raw(1)));
    }

    #[test]
    fn ledger_tampering_caught_by_auditor() {
        let mut net = committed_network();
        net.ledger_mut().blocks_mut()[1].transactions[0].payload = b"{}".to_vec();
        let view = AuditorView::new(net.ledger());
        assert!(matches!(view.integrity(), ChainStatus::CorruptAt { .. }));
    }

    #[test]
    fn central_db_is_fast_but_tamperable() {
        let clock = SimClock::new();
        let mut db = CentralAuditDb::new(clock, SimDuration::from_micros(100));
        db.record(event(1, ProvenanceAction::Ingested, "ingest"));
        db.record(event(1, ProvenanceAction::Accessed, "eve"));
        assert_eq!(db.len(), 2);
        // The insider rewrites who accessed the record…
        assert!(db.tamper(ReferenceId::from_raw(1), "alice"));
        // …and the "audit" now shows the innocent actor, undetectably.
        let history = db.record_history(ReferenceId::from_raw(1));
        assert!(history.iter().all(|e| e.actor == "alice"));
    }

    #[test]
    fn central_db_empty_state() {
        let db = CentralAuditDb::new(SimClock::new(), SimDuration::from_micros(1));
        assert!(db.is_empty());
        assert!(db.record_history(ReferenceId::from_raw(1)).is_empty());
    }
}
