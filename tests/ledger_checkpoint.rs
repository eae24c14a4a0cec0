//! Checkpoint and recovery tests: prune behind checkpoints, then verify
//! that compact Merkle audit proofs (event inclusion, block headers,
//! checkpoint prefixes) still verify — and that tampered proofs and
//! pruned-body requests are rejected. Ends with the E23 bounded-growth
//! property asserted hard.

use hc_common::clock::{SimClock, SimInstant};
use hc_common::id::TxId;
use hc_ledger::audit::{verify_block_proof, verify_event_proof, AuditorView};
use hc_ledger::block::Transaction;
use hc_ledger::chain::{ChainStatus, CheckpointConfig, Ledger, ProofError};
use hc_ledger::consensus::PipelinedCluster;
use hc_ledger::policy::ProvenancePolicy;
use hc_crypto::sha256::Digest;
use proptest::prelude::*;

fn tx(i: u128, payload: &[u8]) -> Transaction {
    Transaction {
        id: TxId::from_raw(i),
        channel: "provenance".into(),
        kind: "ingested".into(),
        payload: payload.to_vec(),
        submitter: "ckpt-test".into(),
        timestamp: SimInstant::from_nanos(i as u64),
    }
}

fn checkpointed_ledger(interval: u64, blocks: u128, batch: u128) -> Ledger {
    let cluster = PipelinedCluster::new(4, 1, SimClock::new()).unwrap();
    let mut ledger = Ledger::new(cluster);
    ledger.install_policy(Box::new(ProvenancePolicy));
    ledger.enable_checkpoints(CheckpointConfig::every(interval));
    for b in 0..blocks {
        let txs: Vec<Transaction> = (0..batch)
            .map(|j| tx(b * batch + j + 1, format!("record={b}/{j}").as_bytes()))
            .collect();
        ledger.submit(txs).unwrap();
    }
    ledger
}

#[test]
fn pruned_chain_still_serves_verifying_proofs_for_every_covered_height() {
    let mut l = checkpointed_ledger(8, 40, 4);
    let pruned = l.prune();
    assert!(pruned > 0, "pruning must reclaim bodies");
    assert_eq!(l.verify_chain(), ChainStatus::Valid);
    let target = *l.latest_checkpoint().unwrap();

    for height in 0..target.end_height {
        let block_proof = l.prove_block(height).unwrap();
        assert!(
            verify_block_proof(&block_proof, &target),
            "block proof at height {height}"
        );
        if height >= l.pruned_below() {
            // Retained bodies also prove individual events.
            let id = TxId::from_raw(height as u128 * 4 + 1);
            let event_proof = l.prove_event(height, id).unwrap();
            assert!(
                verify_event_proof(&event_proof, &target),
                "event proof at height {height}"
            );
        }
    }
}

#[test]
fn auditor_view_proves_through_the_facade() {
    let mut l = checkpointed_ledger(4, 12, 2);
    l.prune();
    let view = AuditorView::new(&l);
    let target = *view.latest_checkpoint().unwrap();
    let proof = view.prove_block(0).unwrap();
    assert!(verify_block_proof(&proof, &target));
    let event = view.prove_event(10, TxId::from_raw(21)).unwrap();
    assert!(verify_event_proof(&event, &target));
    assert_eq!(view.integrity(), ChainStatus::Valid);
}

#[test]
fn pruned_body_event_requests_are_rejected() {
    let mut l = checkpointed_ledger(4, 16, 2);
    let pruned = l.prune();
    assert_eq!(pruned, 12); // latest end 16 - retain 4
    for height in 0..l.pruned_below() {
        assert!(
            matches!(
                l.prove_event(height, TxId::from_raw(height as u128 * 2 + 1)),
                Err(ProofError::BodyPruned { .. })
            ),
            "height {height} must refuse event proofs after pruning"
        );
    }
    // Header proofs keep working for the same heights.
    let target = *l.latest_checkpoint().unwrap();
    assert!(l.prove_block(0).unwrap().verify(&target));
}

#[test]
fn checkpoint_prefix_proofs_verify_and_tampered_ones_fail() {
    let l = checkpointed_ledger(4, 32, 2);
    let ckpts = l.checkpoints().to_vec();
    assert_eq!(ckpts.len(), 8);
    for from in 0..ckpts.len() {
        for to in from..ckpts.len() {
            let proof = l.prove_prefix(from as u64, to as u64).unwrap();
            assert!(proof.verify(&ckpts[from], &ckpts[to]), "{from}->{to}");
        }
    }
    let mut bad = l.prove_prefix(2, 6).unwrap();
    bad.fold[0] = Digest::ZERO;
    assert!(!bad.verify(&ckpts[2], &ckpts[6]));
    // A prefix proof is not transplantable between checkpoint pairs.
    let proof = l.prove_prefix(2, 6).unwrap();
    assert!(!proof.verify(&ckpts[1], &ckpts[6]));
    assert!(!proof.verify(&ckpts[2], &ckpts[7]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any single mutation of any proof field makes verification fail.
    #[test]
    fn any_tampered_event_proof_is_rejected(
        interval in 2u64..9,
        blocks in 10u64..30,
        victim in 0u64..30,
        field in 0usize..6,
        bit in 0usize..8,
    ) {
        let mut l = checkpointed_ledger(interval, blocks as u128, 2);
        l.prune();
        let target = *l.latest_checkpoint().unwrap();
        let covered = target.end_height;
        let victim = l.pruned_below() + victim % (l.height() - l.pruned_below());
        prop_assume!(victim < covered);

        let good = l.prove_event(victim, TxId::from_raw(victim as u128 * 2 + 1)).unwrap();
        prop_assert!(good.verify(&target));

        let mut bad = good.clone();
        match field {
            0 => bad.transaction.payload[0] ^= 1 << bit,
            1 => bad.block.header.merkle_root = Digest::ZERO,
            2 => bad.block.header.height = bad.block.header.height.wrapping_add(1),
            3 => bad.block.interval_root = Digest::ZERO,
            4 => bad.block.prev_state = Digest::ZERO,
            _ => {
                if bad.block.fold.is_empty() {
                    bad.block.interval_index = bad.block.interval_index.wrapping_add(1);
                } else {
                    bad.block.fold[0] = Digest::ZERO;
                }
            }
        }
        prop_assert!(!bad.verify(&target), "field {field} tamper must be rejected");
    }

    /// Pruning never breaks chain verification or changes height, for
    /// any interval/retention combination.
    #[test]
    fn pruning_preserves_chain_validity(
        interval in 1u64..10,
        retain in 0u64..12,
        blocks in 1u64..40,
    ) {
        let cluster = PipelinedCluster::new(4, 1, SimClock::new()).unwrap();
        let mut l = Ledger::new(cluster);
        l.install_policy(Box::new(ProvenancePolicy));
        l.enable_checkpoints(CheckpointConfig::every(interval).retaining(retain));
        for b in 0..blocks as u128 {
            l.submit(vec![tx(b + 1, b"record=p")]).unwrap();
        }
        let height_before = l.height();
        l.prune();
        prop_assert_eq!(l.height(), height_before);
        prop_assert_eq!(l.verify_chain(), ChainStatus::Valid);
        prop_assert_eq!(
            l.pruned_below() + l.blocks().len() as u64,
            height_before
        );
    }
}

/// E23's bounded-growth property asserted hard: with periodic pruning,
/// retained body bytes stay bounded by one checkpoint interval plus the
/// unsealed tail, no matter how long the chain grows — while every
/// Merkle audit proof keeps verifying. Uses a window of 8 so the bound
/// holds with consensus instances in flight too.
#[test]
fn retained_bytes_stay_bounded_under_pruning_while_proofs_verify() {
    const INTERVAL: u64 = 16;
    const BATCH: u128 = 8;
    const WAVES: usize = 12;
    const BLOCKS_PER_WAVE: u128 = 24;

    let cluster = PipelinedCluster::new(4, 8, SimClock::new()).unwrap();
    let mut l = Ledger::new(cluster);
    l.install_policy(Box::new(ProvenancePolicy));
    l.enable_checkpoints(CheckpointConfig::every(INTERVAL));

    // The bound: bodies for `retain` blocks behind the newest checkpoint
    // plus at most (interval - 1) unsealed blocks past it.
    let mut max_retained_blocks = 0u64;
    let mut i = 0u128;
    for _ in 0..WAVES {
        let batches: Vec<Vec<Transaction>> = (0..BLOCKS_PER_WAVE)
            .map(|_| {
                (0..BATCH)
                    .map(|_| {
                        i += 1;
                        tx(i, &[7u8; 64])
                    })
                    .collect()
            })
            .collect();
        l.submit_stream(batches, 4).unwrap();
        l.prune();
        max_retained_blocks = max_retained_blocks.max(l.blocks().len() as u64);
    }

    let total_blocks = WAVES as u128 * BLOCKS_PER_WAVE;
    assert_eq!(l.height(), total_blocks as u64);
    // Hard bound: retain (= interval) + unsealed tail (< interval).
    assert!(
        max_retained_blocks < 2 * INTERVAL,
        "retained {max_retained_blocks} blocks exceeds the 2x-interval bound"
    );
    assert!(
        l.pruned_body_bytes() > 4 * l.retained_body_bytes(),
        "pruning must have reclaimed the overwhelming majority of body bytes \
         (reclaimed {} vs retained {})",
        l.pruned_body_bytes(),
        l.retained_body_bytes()
    );
    // And the pruned chain still audits: every covered height proves.
    assert_eq!(l.verify_chain(), ChainStatus::Valid);
    let target = *l.latest_checkpoint().unwrap();
    for height in (0..target.end_height).step_by(17) {
        assert!(
            l.prove_block(height).unwrap().verify(&target),
            "height {height}"
        );
    }
}
