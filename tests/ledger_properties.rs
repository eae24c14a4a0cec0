//! Property-based tests on the provenance ledger: any committed chain
//! verifies; any single-bit tamper is detected; consensus tolerates
//! exactly f faults; and a seeded fault soak drives a multi-block
//! consensus window through injected crashes and partitions without
//! divergence (`HC_SOAK_SEED` rotates the schedule; see CI).

use hc_common::clock::{SimClock, SimInstant};
use hc_common::fault::{FaultInjector, FaultKind, FaultSpec};
use hc_common::id::TxId;
use hc_ledger::block::Transaction;
use hc_ledger::chain::{ChainStatus, Ledger};
use hc_ledger::consensus::{PipelinedCluster, FAULT_PIPELINE_CRASH, FAULT_PIPELINE_PARTITION};
use hc_ledger::policy::ProvenancePolicy;
use proptest::prelude::*;

fn tx(i: u128, kind_idx: usize, payload: &[u8]) -> Transaction {
    let kinds = ["ingested", "accessed", "anonymized", "exported", "deleted"];
    Transaction {
        id: TxId::from_raw(i),
        channel: "provenance".into(),
        kind: kinds[kind_idx % kinds.len()].into(),
        payload: if payload.is_empty() {
            vec![0]
        } else {
            payload.to_vec()
        },
        submitter: "prop".into(),
        timestamp: SimInstant::from_nanos(i as u64),
    }
}

/// A ledger committed by the sequential protocol (`window = 1`).
fn ledger(peers: usize) -> Ledger {
    let cluster = PipelinedCluster::new(peers, 1, SimClock::new()).unwrap();
    let mut ledger = Ledger::new(cluster);
    ledger.install_policy(Box::new(ProvenancePolicy));
    ledger
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn committed_chains_always_verify(
        batches in proptest::collection::vec(
            proptest::collection::vec((0usize..5, proptest::collection::vec(any::<u8>(), 1..24)), 1..6),
            1..12,
        ),
    ) {
        let mut l = ledger(4);
        let mut i = 0u128;
        for batch in &batches {
            let txs: Vec<Transaction> = batch
                .iter()
                .map(|(kind, payload)| {
                    i += 1;
                    tx(i, *kind, payload)
                })
                .collect();
            l.submit(txs).unwrap();
        }
        prop_assert_eq!(l.verify_chain(), ChainStatus::Valid);
        prop_assert_eq!(l.height(), batches.len() as u64);
    }

    #[test]
    fn any_payload_tamper_is_detected(
        n_blocks in 2usize..10,
        victim_block in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let mut l = ledger(4);
        for i in 0..n_blocks {
            l.submit(vec![tx(i as u128 + 1, i, b"record=x")]).unwrap();
        }
        let victim = victim_block % n_blocks;
        l.blocks_mut()[victim].transactions[0].payload[0] ^= 1 << flip_bit;
        match l.verify_chain() {
            ChainStatus::CorruptAt { height, .. } => prop_assert_eq!(height, victim as u64),
            ChainStatus::Valid => prop_assert!(false, "tamper must be detected"),
        }
    }

    #[test]
    fn consensus_commits_iff_faults_within_tolerance(
        peers in 4usize..14,
        fault_mask in any::<u16>(),
    ) {
        let mut cluster = PipelinedCluster::new(peers, 1, SimClock::new()).unwrap();
        let mut faulty = 0usize;
        for p in 0..peers {
            if fault_mask & (1 << p) != 0 {
                cluster.set_faulty(p, true);
                faulty += 1;
            }
        }
        let f = cluster.tolerated_faults();
        match cluster.propose() {
            Ok(_) => {
                prop_assert!(faulty <= f);
                prop_assert_eq!(cluster.committed_blocks(), 1);
            }
            Err(_) => {
                prop_assert!(faulty > f);
                prop_assert_eq!(cluster.committed_blocks(), 0);
            }
        }
    }

    #[test]
    fn view_changes_equal_leading_faulty_primaries(
        leading_faults in 0usize..4,
    ) {
        let peers = 13; // f = 4
        let mut cluster = PipelinedCluster::new(peers, 1, SimClock::new()).unwrap();
        for p in 0..leading_faults {
            cluster.set_faulty(p, true);
        }
        let outcome = cluster.propose().unwrap();
        prop_assert_eq!(outcome.view_changes as usize, leading_faults);
        prop_assert_eq!(cluster.committed_blocks(), 1);
    }
}

/// Soak schedule seed: `HC_SOAK_SEED` env override, default 0x50AC —
/// CI rotates two values so every week explores fresh fault schedules.
fn soak_seed() -> u64 {
    std::env::var("HC_SOAK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x50AC)
}

/// Deterministic xorshift64* generator: the soak must replay exactly
/// from its seed, so no global RNG state is allowed.
struct SoakRng(u64);

impl SoakRng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn soak_batches(rng: &mut SoakRng, n: usize) -> Vec<Vec<Transaction>> {
    let mut i = 0u128;
    (0..n)
        .map(|_| {
            let per_block = 1 + (rng.next() % 4) as usize;
            (0..per_block)
                .map(|_| {
                    i += 1;
                    let payload = vec![(rng.next() % 251) as u8 + 1; 1 + (rng.next() % 24) as usize];
                    tx(i, (rng.next() % 5) as usize, &payload)
                })
                .collect()
        })
        .collect()
}

/// One soak run: a pipelined ledger survives a seeded schedule of
/// primary crashes and network partitions injected mid-pipeline, heals,
/// and ends byte-identical to the fault-free sequential baseline —
/// view changes drain in-flight slots, they never reorder or drop them.
fn run_fault_soak(seed: u64) {
    const PEERS: usize = 7; // f = 2
    let n_batches = if cfg!(debug_assertions) { 120 } else { 400 };
    let mut rng = SoakRng(seed | 1);
    let window = 2 + (rng.next() % 10) as usize;
    let batches = soak_batches(&mut rng, n_batches);

    // Fault-free sequential baseline.
    let mut baseline = ledger(PEERS);
    for batch in batches.clone() {
        baseline.submit(batch).unwrap();
    }

    // Pipelined ledger with the fault injector attached.
    let clock = SimClock::new();
    let mut cluster = PipelinedCluster::new(PEERS, window, clock.clone()).unwrap();
    let injector = FaultInjector::new(clock, seed);
    cluster.attach_faults(injector.clone());
    let mut pipe = Ledger::new(cluster);
    pipe.install_policy(Box::new(ProvenancePolicy));

    let mut scheduled = 0usize;
    let mut partition_until: Option<usize> = None;
    for (i, batch) in batches.into_iter().enumerate() {
        if partition_until.is_some_and(|until| i >= until) {
            injector.heal(FAULT_PIPELINE_PARTITION);
            partition_until = None;
        }
        match rng.next() % 16 {
            // Crash the primary mid-pipeline: the next proposal fires the
            // fault point and forces a view change that drains in-flight.
            0 => {
                injector.schedule(
                    FAULT_PIPELINE_CRASH,
                    FaultSpec::always(FaultKind::HostCrash).limit(1),
                );
                scheduled += 1;
            }
            // Sever the majority cut for a few batches: liveness is lost
            // until the heal, but nothing committed may diverge.
            1 if partition_until.is_none() => {
                injector.schedule(
                    FAULT_PIPELINE_PARTITION,
                    FaultSpec::always(FaultKind::NetworkPartition),
                );
                partition_until = Some(i + 1 + (rng.next() % 4) as usize);
                scheduled += 1;
            }
            _ => {}
        }
        let mut attempts = 0;
        loop {
            match pipe.submit(batch.clone()) {
                Ok(_) => break,
                Err(_) => {
                    // Too many peers unreachable: the batch was NOT
                    // committed. Heal the partition, restart crashed
                    // peers, and retry the same batch.
                    injector.heal(FAULT_PIPELINE_PARTITION);
                    partition_until = None;
                    for p in 0..PEERS {
                        pipe.cluster_mut().set_faulty(p, false);
                    }
                    attempts += 1;
                    assert!(attempts <= 2, "seed {seed}: submit must succeed after healing");
                }
            }
        }
        // Crashed peers eventually restart, so crash faults never
        // accumulate past f between heals.
        if rng.next().is_multiple_of(8) {
            for p in 0..PEERS {
                pipe.cluster_mut().set_faulty(p, false);
            }
        }
    }
    pipe.cluster_mut().drain();

    assert_eq!(
        pipe.blocks(),
        baseline.blocks(),
        "seed {seed}: fault soak diverged from the fault-free baseline"
    );
    assert_eq!(pipe.verify_chain(), ChainStatus::Valid, "seed {seed}");
    assert_eq!(pipe.height(), n_batches as u64, "seed {seed}");
    // (No message-count comparison here: crashed peers legitimately
    // skip their prepare/commit broadcasts, so a faulty run may bill
    // fewer per-block messages than the all-honest baseline even after
    // paying for view changes.)
    assert!(
        scheduled == 0 || injector.injected_count() > 0,
        "seed {seed}: scheduled faults never fired"
    );
}

#[test]
fn seeded_fault_soak_never_diverges_from_fault_free_baseline() {
    let base = soak_seed();
    for round in 0..4u64 {
        run_fault_soak(base.wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    }
}

#[test]
fn truncating_the_chain_tail_is_detectable_by_height() {
    let mut l = ledger(4);
    for i in 0..5u128 {
        l.submit(vec![tx(i + 1, 0, b"x")]).unwrap();
    }
    let full_height = l.height();
    l.blocks_mut().pop();
    // A truncated chain still verifies internally (prefix property) —
    // auditors must therefore also compare expected height, which the
    // consensus layer provides.
    assert_eq!(l.verify_chain(), ChainStatus::Valid);
    assert_eq!(l.height(), full_height - 1, "height mismatch exposes truncation");
}
