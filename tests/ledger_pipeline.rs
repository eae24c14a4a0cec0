//! Differential tests: any consensus window and the parallel
//! block-validation pool must commit a chain byte-identical to the
//! strictly sequential baseline (`window = 1`) for any batch schedule,
//! peer count, window size, and worker count — while a wide window beats
//! it on simulated throughput by at least a 10× floor. The baseline
//! itself is pinned to the closed-form PBFT clock and message bill.

use hc_common::clock::{SimClock, SimInstant};
use hc_common::id::TxId;
use hc_ledger::block::Transaction;
use hc_ledger::chain::{ChainStatus, Ledger};
use hc_ledger::consensus::{PipelinedCluster, LINK_LATENCY};
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

fn pipelined_ledger(peers: usize, window: usize) -> (Ledger, SimClock) {
    let clock = SimClock::new();
    let cluster = PipelinedCluster::new(peers, window, clock.clone()).unwrap();
    let mut ledger = Ledger::new(cluster);
    ledger.install_policy(Box::new(ProvenancePolicy));
    (ledger, clock)
}

/// The sequential protocol: one consensus instance at a time.
fn sequential_ledger(peers: usize) -> (Ledger, SimClock) {
    pipelined_ledger(peers, 1)
}

/// Materializes a proptest-drawn batch schedule into transaction batches.
fn materialize(schedule: &[Vec<(usize, Vec<u8>)>]) -> Vec<Vec<Transaction>> {
    let mut i = 0u128;
    schedule
        .iter()
        .map(|batch| {
            batch
                .iter()
                .map(|(kind, payload)| {
                    i += 1;
                    tx(i, *kind, payload)
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core differential property: for ANY batch schedule, peer
    /// count, window, and worker count, the pipelined streamed chain is
    /// byte-identical to the sequential submit loop.
    #[test]
    fn pipelined_chain_is_byte_identical_to_sequential(
        schedule in proptest::collection::vec(
            proptest::collection::vec(
                (0usize..5, proptest::collection::vec(any::<u8>(), 1..16)),
                1..5,
            ),
            1..20,
        ),
        peers_idx in 0usize..3,
        window in 1usize..24,
        workers in 1usize..6,
    ) {
        let peers = [4, 7, 10][peers_idx];
        let batches = materialize(&schedule);

        let (mut seq, _) = sequential_ledger(peers);
        for batch in batches.clone() {
            seq.submit(batch).unwrap();
        }

        let (mut pipe, _) = pipelined_ledger(peers, window);
        let out = pipe.submit_stream(batches, workers).unwrap();

        prop_assert_eq!(out.blocks, seq.height());
        prop_assert_eq!(pipe.blocks(), seq.blocks(), "chains diverged");
        prop_assert_eq!(pipe.verify_chain(), ChainStatus::Valid);
        // Pipelining must not change the message bill either.
        prop_assert_eq!(
            pipe.cluster().total_messages(),
            seq.cluster().total_messages()
        );
    }

    /// submit_stream over the sequential window is also schedule-stable:
    /// worker count never changes the chain.
    #[test]
    fn worker_count_never_changes_the_chain(
        schedule in proptest::collection::vec(
            proptest::collection::vec(
                (0usize..5, proptest::collection::vec(any::<u8>(), 1..16)),
                1..4,
            ),
            1..12,
        ),
        workers_a in 1usize..6,
        workers_b in 1usize..6,
    ) {
        let batches = materialize(&schedule);
        let (mut a, _) = sequential_ledger(4);
        let (mut b, _) = sequential_ledger(4);
        a.submit_stream(batches.clone(), workers_a).unwrap();
        b.submit_stream(batches, workers_b).unwrap();
        prop_assert_eq!(a.blocks(), b.blocks());
    }

    /// A mid-stream view change (faulty primary) drains the pipeline but
    /// never changes committed contents: the chain still matches the
    /// fault-free sequential baseline.
    #[test]
    fn view_change_mid_pipeline_preserves_chain_equality(
        n_batches in 4usize..24,
        fault_at in 0usize..24,
        window in 2usize..12,
    ) {
        let schedule: Vec<Vec<(usize, Vec<u8>)>> = (0..n_batches)
            .map(|i| vec![(i % 5, vec![i as u8 + 1])])
            .collect();
        let batches = materialize(&schedule);

        let (mut seq, _) = sequential_ledger(7);
        for batch in batches.clone() {
            seq.submit(batch).unwrap();
        }

        let (mut pipe, _) = pipelined_ledger(7, window);
        let fault_at = fault_at % n_batches;
        for (i, batch) in batches.into_iter().enumerate() {
            if i == fault_at {
                // Crash the current primary: the next proposal drains
                // the pipeline and rotates the view.
                pipe.cluster_mut().set_faulty(0, true);
            }
            pipe.submit(batch).unwrap();
        }
        pipe.cluster_mut().drain();

        prop_assert_eq!(pipe.blocks(), seq.blocks(), "view change corrupted the chain");
        prop_assert_eq!(pipe.verify_chain(), ChainStatus::Valid);
    }
}

/// The throughput floor, asserted hard: window-16 commits must sustain
/// ≥ 10× the sequential events/s at equal peer count, measured on the
/// simulated clock.
#[test]
fn pipelined_throughput_is_at_least_ten_x_sequential() {
    const BLOCKS: usize = 256;
    const BATCH: u128 = 16;
    for peers in [4usize, 7, 13] {
        let batches: Vec<Vec<Transaction>> = (0..BLOCKS as u128)
            .map(|b| (0..BATCH).map(|j| tx(b * BATCH + j + 1, 0, b"record=x")).collect())
            .collect();

        let (mut seq, seq_clock) = sequential_ledger(peers);
        for batch in batches.clone() {
            seq.submit(batch).unwrap();
        }
        let seq_nanos = seq_clock.now().as_nanos();

        let (mut pipe, pipe_clock) = pipelined_ledger(peers, 16);
        pipe.submit_stream(batches, 4).unwrap();
        let pipe_nanos = pipe_clock.now().as_nanos();

        assert_eq!(pipe.blocks(), seq.blocks());
        assert!(pipe_nanos > 0, "pipelined run must consume simulated time");
        let speedup = seq_nanos as f64 / pipe_nanos as f64;
        assert!(
            speedup >= 10.0,
            "peers={peers}: pipelined speedup {speedup:.2}x below the 10x floor \
             (seq {seq_nanos} ns vs pipelined {pipe_nanos} ns)"
        );
    }
}

/// Window 1 is the sequential PBFT protocol, checked against its closed
/// form rather than against another engine. With `v` leading faulty
/// primaries and `h = n − v` honest peers, the k-th `submit` returns at
/// `k·3L + v·10L` (three phases per block, one view-change timeout per
/// faulty primary, all paid by the first block), and the message bill
/// is `(n−1) + (h−1)(n−1) + h(n−1)` per block plus `h(n−1)` per view
/// change.
#[test]
fn window_one_matches_sequential_timing() {
    const BLOCKS: u64 = 8;
    let l = LINK_LATENCY.as_nanos();
    for n in [4usize, 7, 10, 13] {
        let f = (n - 1) / 3;
        for v in 0..=f {
            let (mut ledger, clock) = sequential_ledger(n);
            for p in 0..v {
                ledger.cluster_mut().set_faulty(p, true);
            }
            let (n64, h) = (n as u64, (n - v) as u64);
            let per_block = (n64 - 1) + (h - 1) * (n64 - 1) + h * (n64 - 1);
            let view_change_bill = v as u64 * h * (n64 - 1);
            for k in 1..=BLOCKS {
                let out = ledger.submit(vec![tx(k as u128, 0, b"x")]).unwrap();
                let view_changes = if k == 1 { v as u64 } else { 0 };
                assert_eq!(
                    u64::from(out.view_changes),
                    view_changes,
                    "n={n} v={v} k={k}"
                );
                assert_eq!(
                    clock.now().as_nanos(),
                    k * 3 * l + v as u64 * 10 * l,
                    "n={n} v={v}: clock after submit {k}"
                );
                assert_eq!(
                    ledger.cluster().total_messages(),
                    k * per_block + view_change_bill,
                    "n={n} v={v}: messages after submit {k}"
                );
                assert_eq!(ledger.cluster().committed_blocks(), k);
                assert_eq!(ledger.cluster().in_flight(), 0);
            }
            assert_eq!(ledger.cluster().primary(), v);
            assert_eq!(ledger.verify_chain(), ChainStatus::Valid);
        }
    }
}
