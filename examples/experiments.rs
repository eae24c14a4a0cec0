//! The experiment harness: regenerates every table in EXPERIMENTS.md.
//!
//! Run all:        `cargo run --release --example experiments`
//! Run one:        `cargo run --release --example experiments -- e4`
//!
//! Each experiment prints the exact rows EXPERIMENTS.md records. The
//! paper (ICDCS 2018) publishes no quantitative tables; these experiments
//! quantify its quantitative *claims* — see DESIGN.md for the mapping.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use hc_analytics::delt::{self, DeltConfig};
use hc_analytics::eval::{auc_roc, aupr};
use hc_analytics::jmf::{self, holdout_scores, JmfConfig};
use hc_analytics::mf::{self, MfConfig};
use hc_cache::multilevel::{CacheHierarchy, HitLevel};
use hc_cache::policy::{CachePolicy, LfuCache, LruCache, TtlCache};
use hc_client::offload;
use hc_client::sdk::RemoteStore;
use hc_client::services::{Capability, ServiceRegistry, SimulatedService};
use hc_cloudsim::gateway::IntercloudGateway;
use hc_cloudsim::net::Location;
use hc_common::clock::{SimClock, SimDuration};
use hc_common::conc::zipf_key;
use hc_common::id::PatientId;
use hc_core::platform::{demo_bundle, HealthCloudPlatform, PlatformConfig};
use hc_core::studies;
use hc_crypto::aead::{self, SecretKey};
use hc_crypto::ots::{self, MerkleSigner};
use hc_kb::biobank::{
    disease_similarity_sources, drug_similarity_sources, Biobank, BiobankConfig,
};
use hc_kb::emr::{EmrCohort, EmrConfig};
use hc_ledger::audit::CentralAuditDb;
use hc_ledger::block::Transaction;
use hc_ledger::chain::{CheckpointConfig, Ledger};
use hc_ledger::consensus::PipelinedCluster;
use hc_ledger::policy::ProvenancePolicy;
use hc_ledger::provenance::{ProvenanceAction, ProvenanceEvent, ProvenanceNetwork};
use hc_privacy::kanon::{mondrian, QiRecord};
use hc_privacy::verify::measure;
use parking_lot::Mutex;
use rand::Rng;

fn header(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// E1 — multi-level cache latency: local vs remote "orders of magnitude".
fn e1() {
    header("E1", "cache hit latency vs remote access (Fig. 4, §I claim)");
    let clock = SimClock::new();
    let mut h: CacheHierarchy<usize, u64> =
        CacheHierarchy::new(clock, SimDuration::from_millis(50));
    h.add_level("client", Box::new(LruCache::new(256)), SimDuration::from_micros(2));
    h.add_level("server", Box::new(LruCache::new(2048)), SimDuration::from_micros(500));
    let n_keys = 10_000;
    for k in 0..n_keys {
        h.write(k, 0);
    }
    let mut rng = hc_common::rng::seeded(1);
    let mut by_tier: HashMap<&str, (u64, u64)> = HashMap::new(); // (count, total_us)
    for _ in 0..20_000 {
        let k = zipf_key(&mut rng, n_keys);
        let outcome = h.read(&k);
        let tier = match outcome.hit {
            HitLevel::Cache { index: 0 } => "client-hit",
            HitLevel::Cache { .. } => "server-hit",
            HitLevel::Origin => "origin",
            HitLevel::Absent => "absent",
        };
        let entry = by_tier.entry(tier).or_default();
        entry.0 += 1;
        entry.1 += outcome.latency.as_micros();
    }
    println!("{:<12} {:>8} {:>14}", "tier", "reads", "avg latency µs");
    let mut rows: Vec<_> = by_tier.iter().collect();
    rows.sort_by_key(|(_, (_, total))| *total);
    let mut tier_avg: HashMap<&str, f64> = HashMap::new();
    for (tier, (count, total)) in rows {
        let avg = *total as f64 / *count as f64;
        tier_avg.insert(tier, avg);
        println!("{tier:<12} {count:>8} {avg:>14.1}");
    }
    if let (Some(client), Some(origin)) = (tier_avg.get("client-hit"), tier_avg.get("origin")) {
        println!("speedup client-hit vs origin: {:.0}x", origin / client);
    }
}

/// E2 — eviction policy sweep: hit ratio vs cache size.
fn e2() {
    header("E2", "hit ratio vs cache size and policy (§III consistency/design)");
    let n_keys = 2_000;
    println!(
        "{:<10} {:>8} {:>8} {:>8}",
        "size", "LRU", "LFU", "TTL(LRU)"
    );
    for pct in [1usize, 5, 10, 25, 50] {
        let capacity = (n_keys * pct / 100).max(1);
        let run = |mut cache: Box<dyn CachePolicy<usize, usize>>| -> f64 {
            let mut rng = hc_common::rng::seeded(2);
            for _ in 0..30_000 {
                let k = zipf_key(&mut rng, n_keys);
                if cache.get(&k).is_none() {
                    cache.put(k, k);
                }
            }
            cache.stats().hit_ratio()
        };
        let lru = run(Box::new(LruCache::new(capacity)));
        let lfu = run(Box::new(LfuCache::new(capacity)));
        let ttl = {
            let mut cache = TtlCache::new(LruCache::new(capacity), 5_000);
            let mut rng = hc_common::rng::seeded(2);
            for _ in 0..30_000 {
                cache.advance(1);
                let k = zipf_key(&mut rng, n_keys);
                if cache.get(&k).is_none() {
                    cache.put(k, k);
                }
            }
            cache.stats().hit_ratio()
        };
        println!("{pct:>7}%  {lru:>8.3} {lfu:>8.3} {ttl:>8.3}");
    }
}

/// Mean wall-clock µs per call of `op` over `reps` calls, after one
/// untimed call so the timed ones run warm.
fn mean_us(reps: usize, mut op: impl FnMut()) -> f64 {
    op();
    let start = Instant::now();
    for _ in 0..reps {
        op();
    }
    start.elapsed().as_secs_f64() * 1e6 / reps as f64
}

/// E3 — shared-key vs hash-based-signature cost (§IV-B1 claim).
///
/// Each figure is the fastest of five rounds. A round times every size
/// in turn, so all rows meet the same slow phases of the host, which
/// only ever add time.
fn e3() {
    header("E3", "shared-key AEAD vs hash-based signatures (§IV-B1 claim)");
    let mut rng = hc_common::rng::seeded(3);
    let key = SecretKey::generate(&mut rng);
    let sizes = [1_024usize, 16_384, 262_144, 1_048_576];
    // Per size: (aead µs, signature µs, signature wire bytes).
    let mut best = [(f64::INFINITY, f64::INFINITY, 0usize); 4];
    for _round in 0..5 {
        for (&size, best) in sizes.iter().zip(&mut best) {
            let payload = vec![0xAAu8; size];
            let reps: usize = if size >= 262_144 { 4 } else { 20 };
            let aead_us = mean_us(reps, || {
                let sealed = aead::seal(&key, &payload, b"e3");
                std::hint::black_box(aead::open(&key, &sealed, b"e3").unwrap());
            });
            // A signature costs ~15x an AEAD round trip at 1 KB, so it
            // needs more calls for its mean to settle.
            let sig_us = mean_us(reps * 10, || {
                let mut signer = MerkleSigner::generate(&mut rng, 0);
                let pk = signer.public_key();
                let sig = signer.sign(&payload).unwrap();
                best.2 = sig.wire_len();
                assert!(ots::verify_merkle(&pk, &payload, &sig));
            });
            best.0 = best.0.min(aead_us);
            best.1 = best.1.min(sig_us);
        }
    }
    println!(
        "{:<10} {:>16} {:>16} {:>12}",
        "payload", "aead µs/op", "lamport µs/op", "ratio"
    );
    for (size, (aead_us, sig_us, sig_wire)) in sizes.into_iter().zip(best) {
        let aead_wire = aead::seal(&key, &vec![0xAAu8; size], b"e3").wire_len() - size;
        println!(
            "{:>7} KB {aead_us:>16.1} {sig_us:>16.1} {:>11.1}x   wire +{aead_wire} B vs +{sig_wire} B",
            size / 1024,
            sig_us / aead_us
        );
    }
    println!("(signature cost includes keygen — the recurring cost of one-time keys;");
    println!(" at large payloads both are hash-bound, but the per-message wire and CPU");
    println!(" overhead at typical 1-16 KB FHIR bundles is what limits scalability)");
}

/// E4 — blockchain provenance vs centralized DB (Fig. 6).
fn e4() {
    header("E4", "ledger commit cost vs peers; batching; central-DB baseline (Fig. 6)");
    println!(
        "{:<18} {:>10} {:>12} {:>14}",
        "configuration", "batch", "msgs/event", "sim ms/event"
    );
    for peers in [4usize, 7, 10, 13] {
        for batch in [1usize, 16, 64] {
            let clock = SimClock::new();
            let cluster = PipelinedCluster::new(peers, 1, clock.clone()).unwrap();
            let mut ledger = Ledger::new(cluster);
            ledger.install_policy(Box::new(ProvenancePolicy));
            let mut net = ProvenanceNetwork::new(ledger, batch);
            let events = 512usize;
            let before = clock.now();
            for i in 0..events {
                net.record(&ProvenanceEvent {
                    record: hc_common::id::ReferenceId::from_raw(i as u128),
                    data_hash: hc_crypto::sha256::hash(&(i as u64).to_le_bytes()),
                    action: ProvenanceAction::Ingested,
                    actor: "e4".into(),
                    detail: String::new(),
                })
                .unwrap();
            }
            let _ = net.flush();
            let sim_ms = clock.now().duration_since(before).as_millis() as f64 / events as f64;
            let total_msgs = net.ledger().cluster().total_messages() as f64 / events as f64;
            println!(
                "{:>3} peers          {batch:>10} {total_msgs:>12.1} {sim_ms:>14.3}",
                peers
            );
        }
    }
    // Central DB baseline.
    let clock = SimClock::new();
    let mut db = CentralAuditDb::new(clock.clone(), SimDuration::from_micros(100));
    let before = clock.now();
    for i in 0..512u64 {
        db.record(ProvenanceEvent {
            record: hc_common::id::ReferenceId::from_raw(i as u128),
            data_hash: hc_crypto::sha256::hash(&i.to_le_bytes()),
            action: ProvenanceAction::Ingested,
            actor: "e4".into(),
            detail: String::new(),
        });
    }
    let sim_ms = clock.now().duration_since(before).as_millis() as f64 / 512.0;
    println!("central DB (no consensus)  {:>10} {:>12} {sim_ms:>14.3}", "-", "0");
    println!("(central DB is faster but undetectably rewritable — see provenance_audit example)");

    // Window 16 vs the sequential baseline (window 1): same chain, same
    // per-block message bill, window-fold higher simulated throughput.
    println!(
        "\n{:<8} {:>16} {:>16} {:>9}",
        "peers", "seq events/s", "pipelined ev/s", "speedup"
    );
    const BLOCKS: u128 = 256;
    const BATCH: u128 = 16;
    for peers in [4usize, 7, 13] {
        let batches: Vec<Vec<Transaction>> = (0..BLOCKS)
            .map(|b| (0..BATCH).map(|j| e4_tx(b * BATCH + j + 1)).collect())
            .collect();

        let seq_clock = SimClock::new();
        let cluster = PipelinedCluster::new(peers, 1, seq_clock.clone()).unwrap();
        let mut seq = Ledger::new(cluster);
        seq.install_policy(Box::new(ProvenancePolicy));
        for batch in batches.clone() {
            seq.submit(batch).unwrap();
        }

        let pipe_clock = SimClock::new();
        let cluster = PipelinedCluster::new(peers, 16, pipe_clock.clone()).unwrap();
        let mut pipe = Ledger::new(cluster);
        pipe.install_policy(Box::new(ProvenancePolicy));
        pipe.submit_stream(batches, 4).unwrap();
        assert_eq!(
            pipe.blocks(),
            seq.blocks(),
            "windows must commit identical chains"
        );

        let events = (BLOCKS * BATCH) as f64;
        let seq_rate = events / seq_clock.now().as_nanos() as f64 * 1e9;
        let pipe_rate = events / pipe_clock.now().as_nanos() as f64 * 1e9;
        let speedup = pipe_rate / seq_rate;
        assert!(
            speedup >= 10.0,
            "pipelined speedup {speedup:.2}x fell below the 10x floor at {peers} peers"
        );
        println!("{peers:<8} {seq_rate:>16.0} {pipe_rate:>16.0} {speedup:>8.1}x");
    }
    println!("(window 16, 4 validation workers; chains byte-identical; >=10x floor asserted)");
}

fn e4_tx(i: u128) -> Transaction {
    Transaction {
        id: hc_common::id::TxId::from_raw(i),
        channel: "provenance".into(),
        kind: "ingested".into(),
        payload: format!("record={i}").into_bytes(),
        submitter: "e4".into(),
        timestamp: hc_common::clock::SimInstant::from_nanos(i as u64),
    }
}

/// E23 — chain growth under Merkle checkpointing: retained bytes stay
/// bounded while the chain grows, and compact audit proofs keep
/// verifying from the pruned chain.
fn e23() {
    header("E23", "checkpointed chain growth: bounded storage + compact audit proofs");
    const INTERVAL: u64 = 16;
    const WAVES: u128 = 10;
    const BLOCKS_PER_WAVE: u128 = 32;
    const BATCH: u128 = 8;

    let cluster = PipelinedCluster::new(4, 16, SimClock::new()).unwrap();
    let mut ledger = Ledger::new(cluster);
    ledger.install_policy(Box::new(ProvenancePolicy));
    ledger.enable_checkpoints(CheckpointConfig::every(INTERVAL));

    println!(
        "{:<8} {:>8} {:>10} {:>16} {:>16}",
        "wave", "height", "ckpts", "retained bytes", "pruned bytes"
    );
    let mut i = 0u128;
    let mut max_retained = 0u64;
    for wave in 0..WAVES {
        let batches: Vec<Vec<Transaction>> = (0..BLOCKS_PER_WAVE)
            .map(|_| {
                (0..BATCH)
                    .map(|_| {
                        i += 1;
                        e4_tx(i)
                    })
                    .collect()
            })
            .collect();
        ledger.submit_stream(batches, 4).unwrap();
        ledger.prune();
        max_retained = max_retained.max(ledger.retained_body_bytes());
        println!(
            "{wave:<8} {:>8} {:>10} {:>16} {:>16}",
            ledger.height(),
            ledger.checkpoints().len(),
            ledger.retained_body_bytes(),
            ledger.pruned_body_bytes()
        );
    }
    assert!(
        (ledger.blocks().len() as u64) < 2 * INTERVAL,
        "retained blocks must stay under two checkpoint intervals"
    );

    // Every covered height still proves against the newest checkpoint.
    let target = *ledger.latest_checkpoint().unwrap();
    let mut block_proofs = 0u64;
    let mut event_proofs = 0u64;
    for height in 0..target.end_height {
        assert!(
            ledger.prove_block(height).unwrap().verify(&target),
            "block proof failed at height {height}"
        );
        block_proofs += 1;
        if height >= ledger.pruned_below() {
            let id = hc_common::id::TxId::from_raw(height as u128 * BATCH + 1);
            assert!(
                ledger.prove_event(height, id).unwrap().verify(&target),
                "event proof failed at height {height}"
            );
            event_proofs += 1;
        }
    }
    let ckpts = ledger.checkpoints();
    let mut prefix_proofs = 0u64;
    for from in 0..ckpts.len() as u64 {
        let proof = ledger.prove_prefix(from, ckpts.len() as u64 - 1).unwrap();
        assert!(proof.verify(&ckpts[from as usize], ckpts.last().unwrap()));
        prefix_proofs += 1;
    }
    println!(
        "proofs verified: {block_proofs} block, {event_proofs} event, {prefix_proofs} prefix \
         (all asserted)"
    );
    println!(
        "storage: retained peak {max_retained} bytes (bounded), pruned {} bytes, height {}",
        ledger.pruned_body_bytes(),
        ledger.height()
    );
}

/// E5 — attestation chain depth and tamper detection (Fig. 5).
fn e5() {
    header("E5", "measured boot + attestation vs stack depth; tamper detection (Fig. 5)");
    use hc_attest::attestation::AttestationService;
    use hc_attest::measure::{measured_boot, Component, Layer};
    use hc_attest::tpm::Tpm;
    let layers = [Layer::Hardware, Layer::Hypervisor, Layer::Vm, Layer::Container];
    println!("{:<8} {:>16} {:>14}", "depth", "wall µs/attest", "trusted");
    for depth in 1..=4usize {
        let stack: Vec<Component> = (0..depth)
            .map(|i| Component::new(layers[i], &format!("layer-{i}"), format!("v{i}").as_bytes()))
            .collect();
        let mut rng = hc_common::rng::seeded(5);
        let mut service = AttestationService::new();
        for c in &stack {
            service.register_golden(c);
        }
        let reps = 8;
        let start = Instant::now();
        let mut all_trusted = true;
        for r in 0..reps {
            let mut tpm = Tpm::generate(&mut rng, &format!("host-{r}"));
            service.trust_signer(tpm.public_key());
            let quote = measured_boot(&mut tpm, &stack, b"e5").unwrap();
            all_trusted &= service.verify_quote(&quote, &stack, b"e5").trusted;
        }
        let us = start.elapsed().as_micros() as f64 / reps as f64;
        println!("{depth:<8} {us:>16.0} {all_trusted:>14}");
    }
    // Tamper detection rate: mutate one component per trial.
    let stack: Vec<Component> = (0..4)
        .map(|i| Component::new(layers[i], &format!("layer-{i}"), format!("v{i}").as_bytes()))
        .collect();
    let mut rng = hc_common::rng::seeded(6);
    let mut service = AttestationService::new();
    for c in &stack {
        service.register_golden(c);
    }
    let trials = 100;
    let mut detected = 0;
    for t in 0..trials {
        let mut tampered = stack.clone();
        let victim = t % 4;
        tampered[victim] = Component::new(
            layers[victim],
            &format!("layer-{victim}"),
            format!("v{victim}-tampered-{t}").as_bytes(),
        );
        let mut tpm = Tpm::generate(&mut rng, &format!("t-{t}"));
        service.trust_signer(tpm.public_key());
        let quote = measured_boot(&mut tpm, &tampered, b"e5").unwrap();
        if !service.verify_quote(&quote, &stack, b"e5").trusted {
            detected += 1;
        }
    }
    println!("tamper detection: {detected}/{trials} (expected 100%)");
}

/// E6 — ingestion pipeline throughput and rejection accounting (§II-B).
fn e6() {
    header("E6", "ingestion throughput, stage rejections, worker scaling (§II-B)");
    let build = || {
        HealthCloudPlatform::bootstrap(PlatformConfig {
            ledger_batch: 32,
            ..PlatformConfig::default()
        })
    };
    // Mixed workload: valid / unconsented / malware.
    let platform = build();
    let n = if cfg!(debug_assertions) { 120 } else { 600 };
    for i in 0..n {
        let patient = PatientId::from_raw(i as u128 + 1);
        let device = platform.register_patient_device(patient);
        let bundle = match i % 10 {
            8 => demo_bundle(&format!("p{i}"), false), // no consent
            9 => {
                let mut b = demo_bundle(&format!("p{i}"), true);
                if let hc_fhir::resource::Resource::Patient(p) = &mut b.entries[0] {
                    p.name = Some(hc_fhir::types::HumanName::new(
                        String::from_utf8_lossy(hc_ingest::scanner::TEST_SIGNATURE).to_string(),
                        "X",
                    ));
                }
                b
            }
            _ => demo_bundle(&format!("p{i}"), true),
        };
        platform.upload(&device, &bundle).unwrap();
    }
    let start = Instant::now();
    platform.pipeline.process_all_parallel(4);
    let wall = start.elapsed().as_secs_f64();
    let stats = platform.pipeline.stats();
    println!("mixed workload ({n} uploads, 4 workers): {:.0} uploads/s wall", n as f64 / wall);
    println!(
        "  stored={} consent-rejected={} malware-rejected={} validation-rejected={}",
        stats.stored, stats.rejected_consent, stats.rejected_malware, stats.rejected_validation
    );

    println!("worker scaling (valid-only workload of {n}):");
    println!("{:<10} {:>14}", "workers", "uploads/s wall");
    for workers in [1usize, 2, 4, 8] {
        let platform = build();
        for i in 0..n {
            let device = platform.register_patient_device(PatientId::from_raw(i as u128 + 1));
            platform
                .upload(&device, &demo_bundle(&format!("p{i}"), true))
                .unwrap();
        }
        let start = Instant::now();
        platform.pipeline.process_all_parallel(workers);
        let rate = n as f64 / start.elapsed().as_secs_f64();
        println!("{workers:<10} {rate:>14.0}");
    }
}

/// E7 — anonymization level vs utility and risk (§IV-C).
fn e7() {
    header("E7", "k-anonymity: information loss vs re-identification risk (§IV-C)");
    let mut rng = hc_common::rng::seeded(7);
    let records: Vec<QiRecord> = (0..2_000)
        .map(|_| {
            QiRecord::new(
                rng.gen_range(18..95),
                60_000 + rng.gen_range(0..5_000),
                rng.gen_range(0..3),
                ["E11.9", "I10", "J45.0", "C50.9", "F32.1"][rng.gen_range(0..5)],
            )
        })
        .collect();
    println!(
        "{:<6} {:>10} {:>12} {:>10} {:>10} {:>8}",
        "k", "classes", "info loss", "avg risk", "max risk", "l-div"
    );
    for k in [2usize, 5, 10, 25, 50] {
        let table = mondrian(&records, k).unwrap();
        let degree = measure(&table.classes);
        println!(
            "{k:<6} {:>10} {:>12.4} {:>10.4} {:>10.4} {:>8}",
            table.classes.len(),
            table.information_loss,
            degree.average_risk,
            degree.max_risk,
            degree.l
        );
    }
}

/// E8 — JMF vs baselines on hold-out association recovery (Fig. 9).
fn e8() {
    header("E8", "JMF drug repositioning vs baselines (Fig. 9)");
    let (n_drugs, n_diseases, iters) = if cfg!(debug_assertions) {
        (60, 45, 120)
    } else {
        (200, 150, 200)
    };
    let bank = Biobank::generate(
        &BiobankConfig {
            n_drugs,
            n_diseases,
            n_clusters: 6,
            association_rate: 0.04,
            ..BiobankConfig::default()
        },
        2024,
    );
    let (train, held) = bank.split_associations(0.25, 7);
    let drug_sims = drug_similarity_sources(&bank);
    let disease_sims = disease_similarity_sources(&bank);
    let config = JmfConfig {
        k: 10,
        iters,
        ..JmfConfig::default()
    };

    println!("{:<28} {:>8} {:>8}", "method", "AUC", "AUPR");
    let report = |name: &str, scores: Vec<(f64, bool)>| {
        println!("{name:<28} {:>8.3} {:>8.3}", auc_roc(&scores), aupr(&scores));
    };

    let jmf_model = jmf::fit(&train, &drug_sims, &disease_sims, &config, 7);
    report(
        "JMF (all sources, learned)",
        holdout_scores(&jmf_model.score_matrix(), &train, &held),
    );
    let uniform = jmf::fit(
        &train,
        &drug_sims,
        &disease_sims,
        &JmfConfig {
            learn_weights: false,
            ..config
        },
        7,
    );
    report(
        "JMF (uniform weights)",
        holdout_scores(&uniform.score_matrix(), &train, &held),
    );
    for (i, name) in ["chemical only", "target only", "side-effect only"].iter().enumerate() {
        let single = jmf::fit(
            &train,
            &drug_sims[i..=i],
            &disease_sims[0..0],
            &config,
            7,
        );
        report(
            &format!("JMF ({name})"),
            holdout_scores(&single.score_matrix(), &train, &held),
        );
    }
    let mf_model = mf::factorize(
        &train,
        &MfConfig {
            k: 10,
            iters,
            ..MfConfig::default()
        },
        7,
    );
    report(
        "MF (associations only)",
        holdout_scores(&mf_model.score_matrix(), &train, &held),
    );
    println!(
        "learned drug weights (chem/target/side): {:.2}/{:.2}/{:.2}",
        jmf_model.drug_weights[0], jmf_model.drug_weights[1], jmf_model.drug_weights[2]
    );
    let groups = jmf_model.drug_groups(6, 7);
    let truth: Vec<usize> = bank.drugs.iter().map(|d| d.class).collect();
    println!(
        "drug group purity: {:.3} (random ≈ {:.3})",
        hc_analytics::kmeans::purity(&groups, &truth),
        1.0 / 6.0
    );
    let (ddi_model, ddi_baseline) = hc_analytics::ddi::evaluate(&bank, 0.05, 7);
    println!("DDI link prediction: multi-source AUC {ddi_model:.3} vs chemical-only {ddi_baseline:.3}");
}

/// E9 — DELT vs baselines on planted HbA1c effects (Figs. 10–11).
fn e9() {
    header("E9", "DELT drug-effect detection vs baselines (Figs. 10-11)");
    let n_patients = if cfg!(debug_assertions) { 400 } else { 2_000 };
    // Inert drugs 10 and 11 are co-prescribed with the strongest
    // lowering drugs — the co-medication confounder of §V-B.
    let cohort = EmrCohort::generate(
        EmrConfig {
            n_patients,
            comedications: vec![(0, 10, 0.9), (1, 11, 0.85)],
            ..EmrConfig::default()
        },
        2024,
    );
    let truth = cohort.true_effects();
    let lowering = cohort.lowering_drugs();
    let k = lowering.len();
    let rmse = |est: &[f64]| -> f64 {
        let sq: f64 = est.iter().zip(&truth).map(|(e, t)| (e - t) * (e - t)).sum();
        (sq / truth.len() as f64).sqrt()
    };
    println!("{:<34} {:>10} {:>8}", "method", "β RMSE", "P@k");
    let run = |name: &str, config: &DeltConfig| {
        let model = delt::fit(&cohort, config);
        println!(
            "{name:<34} {:>10.3} {:>8.2}",
            model.beta_rmse(&truth),
            delt::lowering_precision_at_k(&model.lowering_candidates(), &lowering, k)
        );
    };
    run("DELT (baseline α + time t)", &DeltConfig::default());
    run(
        "DELT w/o time term (ablation)",
        &DeltConfig {
            time_term: false,
            ..DeltConfig::default()
        },
    );
    run(
        "SCCS w/o patient baseline",
        &DeltConfig {
            patient_baseline: false,
            time_term: false,
            ..DeltConfig::default()
        },
    );
    let marginal = delt::marginal_effects(&cohort);
    let mut ranking: Vec<usize> = (0..marginal.len()).collect();
    ranking.sort_by(|&a, &b| marginal[a].partial_cmp(&marginal[b]).unwrap());
    println!(
        "{:<34} {:>10.3} {:>8.2}",
        "marginal correlation",
        rmse(&marginal),
        delt::lowering_precision_at_k(&ranking, &lowering, k)
    );
}

/// E10 — client-side vs server-side processing (§I, §III).
fn e10() {
    header("E10", "enhanced-client offload: anonymize at client vs server (§I, §III)");
    let bundle = demo_bundle("p1", true);
    println!(
        "{:<26} {:>10} {:>12} {:>10} {:>14}",
        "plan", "trips", "latency ms", "bytes", "PHI in flight"
    );
    for (device, compute_ms) in [("phone (fast)", 3u64), ("wearable (slow)", 400)] {
        let client = offload::client_side_plan(
            &bundle,
            SimDuration::from_millis(compute_ms),
            SimDuration::from_millis(50),
        );
        println!(
            "client @ {device:<16} {:>10} {:>12} {:>10} {:>14}",
            client.round_trips,
            client.latency.as_millis(),
            client.bytes_sent,
            client.phi_left_device
        );
    }
    let server = offload::server_side_plan(
        &bundle,
        SimDuration::from_millis(1),
        SimDuration::from_millis(50),
    );
    println!(
        "{:<26} {:>10} {:>12} {:>10} {:>14}",
        "server-side",
        server.round_trips,
        server.latency.as_millis(),
        server.bytes_sent,
        server.phi_left_device
    );

    // Disconnected operation.
    let clock = SimClock::new();
    let remote: RemoteStore = Arc::new(Mutex::new(HashMap::new()));
    let mut rng = hc_common::rng::seeded(10);
    let mut client = hc_client::sdk::EnhancedClient::new(
        clock,
        remote,
        SecretKey::generate(&mut rng),
        16,
    );
    client.go_offline();
    for i in 0..5 {
        client.put(&format!("k{i}"), vec![i]);
    }
    let replayed = client.go_online();
    println!("offline queue: 5 writes while disconnected, {replayed} replayed on reconnect");
}

/// E11 — external service selection (§III).
fn e11() {
    header("E11", "external AI service tracking and selection (§III)");
    let clock = SimClock::new();
    let mut registry = ServiceRegistry::new(clock.clone());
    let profiles = [
        ("provider-a", 40u64, 0.99),
        ("provider-b", 150, 0.999),
        ("provider-c", 25, 0.55),
        ("provider-d", 60, 0.95),
        ("provider-e", 90, 0.98),
    ];
    for (name, ms, avail) in profiles {
        registry.register(SimulatedService {
            name: name.into(),
            capability: Capability::TextExtraction,
            mean_latency: SimDuration::from_millis(ms),
            jitter: 0.2,
            availability: avail,
            accuracy: 0.9,
        });
    }
    let mut rng = hc_common::rng::seeded(11);
    // Exploration phase.
    for _ in 0..60 {
        for (name, _, _) in profiles {
            let _ = registry.invoke(name, &mut rng);
        }
    }
    // Exploitation: selector vs static choices.
    let calls = 500;
    let mut policies: Vec<(&str, f64, u64)> = Vec::new(); // (policy, total_ms, failures)
    for policy in ["selector", "static-first", "static-cheapest-mean"] {
        let mut total = 0.0f64;
        let mut failures = 0u64;
        for _ in 0..calls {
            let name = match policy {
                "selector" => registry
                    .select_best(Capability::TextExtraction, 0.0)
                    .unwrap()
                    .to_owned(),
                "static-first" => "provider-a".to_owned(),
                _ => "provider-c".to_owned(), // lowest mean latency, poor availability
            };
            match registry.invoke(&name, &mut rng) {
                Ok(r) => total += r.latency.as_nanos() as f64 / 1e6,
                Err(_) => {
                    failures += 1;
                    total += 1_000.0; // timeout penalty
                }
            }
        }
        policies.push((policy, total / calls as f64, failures));
    }
    println!("{:<24} {:>16} {:>10}", "policy", "mean ms/call", "failures");
    for (policy, mean, failures) in policies {
        println!("{policy:<24} {mean:>16.1} {failures:>10}");
    }
}

/// E12 — intercloud: ship compute to data vs data to compute (§II-C).
fn e12() {
    header("E12", "intercloud gateway: ship-compute vs ship-data (§II-C)");
    const MB: u64 = 1_000_000;
    let container = 200 * MB;
    let compute = SimDuration::from_secs(5);
    println!(
        "{:<12} {:>16} {:>16} {:>14} {:>14}",
        "dataset", "ship-data ms", "ship-compute ms", "bytes saved", "winner"
    );
    for dataset_mb in [10u64, 100, 500, 1_000, 10_000] {
        let clock = SimClock::new();
        let gateway = IntercloudGateway::new(clock, Location::new(0, 0), Location::new(1, 0));
        let data_plan = gateway.ship_data(dataset_mb * MB, compute);
        let compute_plan = gateway.ship_compute(container, compute, Ok(())).unwrap();
        let winner = if compute_plan.makespan() < data_plan.makespan() {
            "ship-compute"
        } else {
            "ship-data"
        };
        println!(
            "{:>9} MB {:>16} {:>16} {:>14} {:>14}",
            dataset_mb,
            data_plan.makespan().as_millis(),
            compute_plan.makespan().as_millis(),
            (dataset_mb * MB) as i64 - container as i64,
            winner
        );
    }
    println!("(attestation adds {} ms to every ship-compute start)", 120);
}

/// End-to-end study through the actual platform (supplement to E9).
fn e9_platform() {
    header("E9b", "DELT over the real pipeline (ingest → export → analyze)");
    let platform = HealthCloudPlatform::bootstrap(PlatformConfig {
        ledger_batch: 64,
        ..PlatformConfig::default()
    });
    let n = if cfg!(debug_assertions) { 80 } else { 300 };
    let cohort = EmrCohort::generate(
        EmrConfig {
            n_patients: n,
            n_drugs: 20,
            planted_effects: vec![(0, -0.9), (1, -0.6), (2, 0.5), (3, -0.4)],
            ..EmrConfig::default()
        },
        9,
    );
    let stored = studies::ingest_emr_cohort(&platform, &cohort);
    let report = studies::run_delt_study(&platform, &cohort, &DeltConfig::default());
    println!("cohort of {n}: {stored} bundles stored through the compliant pipeline");
    println!(
        "DELT     : RMSE={:.3} P@{}={:.2}",
        report.delt_rmse, report.k, report.delt_precision
    );
    println!(
        "marginal : RMSE={:.3} P@{}={:.2}",
        report.marginal_rmse, report.k, report.marginal_precision
    );
}

/// E13 — HIPAA compliance assessment and forensic analytics (Fig. 8, §IV-E).
fn e13() {
    header("E13", "HIPAA assessment + forensic log analytics (Fig. 8, §IV-E)");
    use hc_compliance::hipaa::Pillar;
    let platform = HealthCloudPlatform::bootstrap(PlatformConfig {
        ledger_batch: 1,
        ..PlatformConfig::default()
    });
    for i in 0..10u128 {
        let device = platform.register_patient_device(PatientId::from_raw(i + 1));
        platform
            .upload(&device, &demo_bundle(&format!("p{i}"), true))
            .unwrap();
    }
    platform.process_ingestion();
    let report = hc_core::compliance::assess(&platform);
    println!("healthy platform: compliant = {}", report.is_compliant());
    for pillar in [
        Pillar::Administrative,
        Pillar::Physical,
        Pillar::Technical,
        Pillar::PoliciesAndDocumentation,
    ] {
        println!(
            "  {pillar:?}: {:.0}%",
            report.pillar_score(pillar).unwrap_or(0.0) * 100.0
        );
    }
    {
        let mut provenance = platform.provenance.lock();
        provenance.ledger_mut().blocks_mut()[0].transactions[0].payload = b"{}".to_vec();
    }
    let after = hc_core::compliance::assess(&platform);
    println!(
        "after ledger tampering: compliant = {} ({} findings)",
        after.is_compliant(),
        after.findings().len()
    );
    // Probing scenario.
    let (_eve, token) = platform.register_user("eve", b"pw", "researcher");
    for _ in 0..6 {
        let _ = platform.authorize(
            &token,
            hc_access::model::Permission::new(
                hc_access::model::ResourceKind::PatientData,
                hc_access::model::Action::Read,
            ),
            "read-phi",
        );
    }
    let findings = hc_core::compliance::forensic_audit(
        &platform,
        &["read-phi"],
        &hc_compliance::forensics::ForensicsConfig::default(),
    );
    println!("forensic findings after probing: {}", findings.len());
}

/// E14 — scientific text extraction accuracy (§I, §III "standard tests").
fn e14() {
    header("E14", "text extraction accuracy on the synthetic corpus (§III)");
    use hc_kb::corpus::{extraction_accuracy, Corpus};
    println!("{:<12} {:>12} {:>10}", "articles", "precision", "recall");
    for n in [100usize, 500, 2_000] {
        let corpus = Corpus::generate(n, 200, 150, 14);
        let (precision, recall) = extraction_accuracy(&corpus);
        println!("{n:<12} {precision:>12.3} {recall:>10.3}");
    }
}

/// E15 — resilience: goodput and recovery time under a scripted fault
/// schedule (ledger partition + transient store faults + poison uploads)
/// versus a fault-free baseline on the identical workload.
fn e15() {
    header(
        "E15",
        "fault injection: goodput + recovery vs fault-free baseline (robustness)",
    );
    use hc_common::fault::{FaultInjector, FaultKind, FaultSpec};
    use hc_ingest::pipeline::fault_points;
    use hc_ledger::consensus::FAULT_PIPELINE_PARTITION;

    const UPLOADS: usize = 40;

    // Runs the identical workload (UPLOADS consented bundles + 2 poison
    // payloads) with or without the scripted fault schedule; returns
    // (stats, sim_ms, recovery_ms, fault_events, pending_at_heal).
    let run = |faults: bool| {
        let platform = HealthCloudPlatform::bootstrap(PlatformConfig {
            ledger_batch: 4,
            ..PlatformConfig::default()
        });
        let injector = if faults {
            FaultInjector::new(platform.clock.clone(), 0xE15)
        } else {
            FaultInjector::disabled()
        };
        platform
            .pipeline
            .enable_resilience(platform.clock.clone(), injector.clone(), 0xE15);
        platform
            .provenance
            .lock()
            .ledger_mut()
            .cluster_mut()
            .attach_faults(injector.clone());
        if faults {
            // The provenance ledger is unreachable for the whole intake
            // burst; storage throws a short burst of transient faults,
            // each small enough for per-stage retry/backoff to absorb.
            injector.schedule(
                FAULT_PIPELINE_PARTITION,
                FaultSpec::always(FaultKind::NetworkPartition),
            );
            injector.schedule(
                fault_points::STORE,
                FaultSpec::always(FaultKind::TransientError).limit(2),
            );
        }

        for i in 0..UPLOADS as u128 {
            let device = platform.register_patient_device(PatientId::from_raw(i + 1));
            platform
                .upload(&device, &demo_bundle(&format!("p{i}"), true))
                .unwrap();
            if i % 20 == 7 {
                let sealed = platform
                    .pipeline
                    .seal_raw_upload(&device, b"%%% poison payload %%%")
                    .unwrap();
                platform.pipeline.submit(device, sealed);
            }
        }
        platform.process_ingestion();

        // Heal: recovery time is the simulated time the next flush
        // spends committing the events a consensus failure left pending
        // (a healthy run's partly filled batch is not counted).
        let pending_at_heal = {
            let provenance = platform.provenance.lock();
            if provenance.is_stalled() {
                provenance.pending_count() as u64
            } else {
                0
            }
        };
        let heal_start = platform.clock.now();
        if faults {
            injector.heal(FAULT_PIPELINE_PARTITION);
        }
        assert_eq!(platform.verify_ledger(), hc_ledger::chain::ChainStatus::Valid);
        let recovery_ms = platform.clock.now().duration_since(heal_start).as_millis();
        // Everything pending at the heal is now committed.
        assert_eq!(platform.provenance.lock().pending_count(), 0);

        let stats = platform.pipeline.stats();
        let sim_ms = platform.clock.now().as_millis();
        (
            stats,
            sim_ms,
            recovery_ms,
            injector.trace().len(),
            pending_at_heal,
        )
    };

    let (base, base_ms, _, _, base_pending) = run(false);
    let (faulted, fault_ms, recovery_ms, events, pending) = run(true);

    println!(
        "{:<26} {:>12} {:>12}",
        "metric", "fault-free", "faulted"
    );
    let row = |name: &str, a: u64, b: u64| println!("{name:<26} {a:>12} {b:>12}");
    row("uploads received", base.received, faulted.received);
    row("stored", base.stored, faulted.stored);
    row("dead-lettered (poison)", base.dead_lettered, faulted.dead_lettered);
    row("stage retries", base.retried, faulted.retried);
    row("anchors buffered", base_pending, pending);
    row("anchors replayed", base_pending, pending);
    row("sim time (ms)", base_ms, fault_ms);
    row("recovery time (ms)", 0, recovery_ms);
    let goodput = |stored: u64, ms: u64| stored as f64 / (ms.max(1) as f64 / 1000.0);
    println!(
        "{:<26} {:>12.1} {:>12.1}",
        "goodput (stored/sim-s)",
        goodput(base.stored, base_ms),
        goodput(faulted.stored, fault_ms)
    );
    println!("fault events injected: {events}");
    assert_eq!(
        base.stored, faulted.stored,
        "resilience must preserve goodput counts under faults"
    );
}

/// E16 — telemetry overhead: instrumented vs uninstrumented wall time on
/// the E1 cache workload and the E6 ingestion workload (<5% target).
fn e16() {
    header("E16", "telemetry overhead on the E1/E6 workloads (<5% target)");

    // E1 workload: zipf reads against a two-level hierarchy, with or
    // without `instrument()` mirroring into a registry.
    let cache_run = |instrumented: bool| -> f64 {
        let clock = SimClock::new();
        let mut h: CacheHierarchy<usize, u64> =
            CacheHierarchy::new(clock, SimDuration::from_millis(50));
        h.add_level("client", Box::new(LruCache::new(256)), SimDuration::from_micros(2));
        h.add_level("server", Box::new(LruCache::new(2048)), SimDuration::from_micros(500));
        let registry = hc_telemetry::Registry::new();
        if instrumented {
            h.instrument(&registry);
        }
        let n_keys = 10_000;
        for k in 0..n_keys {
            h.write(k, 0);
        }
        let mut rng = hc_common::rng::seeded(16);
        let reads = if cfg!(debug_assertions) { 20_000 } else { 200_000 };
        let start = Instant::now();
        for _ in 0..reads {
            let k = zipf_key(&mut rng, n_keys);
            std::hint::black_box(h.read(&k));
        }
        start.elapsed().as_secs_f64()
    };

    // E6 workload: valid-only upload burst through the full pipeline,
    // with telemetry wired (or not) at bootstrap.
    let ingest_run = |instrumented: bool| -> f64 {
        let platform = HealthCloudPlatform::bootstrap_instrumented(
            PlatformConfig {
                ledger_batch: 32,
                ..PlatformConfig::default()
            },
            instrumented,
        );
        let n = if cfg!(debug_assertions) { 60 } else { 300 };
        for i in 0..n {
            let device = platform.register_patient_device(PatientId::from_raw(i as u128 + 1));
            platform
                .upload(&device, &demo_bundle(&format!("p{i}"), true))
                .unwrap();
        }
        let start = Instant::now();
        platform.process_ingestion();
        start.elapsed().as_secs_f64()
    };

    // Interleaved off/on pairs, alternating which side runs first, so
    // machine drift hits both sides alike. The overhead is the median of
    // the per-pair on/off ratios: a run the host slows moves one ratio,
    // not the estimate. (A best-of-five minimum per side swung ±7% between
    // whole runs on a 2-vCPU host, more than the budget.) One untimed pair
    // warms up. The ~12 ms E6 runs swing most, so they get more pairs.
    // Pair counts are odd, so a median is one measured value.
    fn median(mut xs: Vec<f64>) -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    }
    let measure = |run: &dyn Fn(bool) -> f64, pairs: usize| -> (f64, f64, f64) {
        run(false);
        run(true);
        let pairs: Vec<(f64, f64)> = (0..pairs)
            .map(|i| {
                if i % 2 == 0 {
                    let off = run(false);
                    (off, run(true))
                } else {
                    let on = run(true);
                    (run(false), on)
                }
            })
            .collect();
        let ratio = median(pairs.iter().map(|(off, on)| on / off).collect());
        (
            median(pairs.iter().map(|p| p.0).collect()),
            median(pairs.iter().map(|p| p.1).collect()),
            (ratio - 1.0) * 100.0,
        )
    };

    println!(
        "{:<18} {:>12} {:>12} {:>10}",
        "workload", "off (ms)", "on (ms)", "overhead"
    );
    let report = |name: &str, (off, on, overhead): (f64, f64, f64)| -> f64 {
        println!(
            "{name:<18} {:>12.1} {:>12.1} {overhead:>9.1}%",
            off * 1e3,
            on * 1e3
        );
        overhead
    };
    let cache = report("E1 cache reads", measure(&cache_run, 11));
    let ingest = report("E6 ingestion", measure(&ingest_run, 41));
    assert!(
        cache < 5.0 && ingest < 5.0,
        "telemetry overhead must stay under 5% (cache {cache:.1}%, ingest {ingest:.1}%)"
    );
    println!("both workloads under the 5% budget");
}

/// E18 — multi-core scaling of the sharded serving hot path: throughput
/// and p99 vs. thread count, sharded (32 stripes) vs. global-lock
/// (1 stripe) cache. The recorded table comes from the deterministic
/// virtual-time contention model in [`hc_common::conc`]; a wall-clock
/// calibration of the real [`ShardedCache`] is printed first (it is
/// host-dependent and, on a single-core CI container, shows no
/// separation — which is exactly why the recorded artefact is the
/// model, not the wall clock).
fn e18() {
    use hc_cache::shard::{ShardRouter, ShardedCache};
    use hc_common::conc::{self, SimOp};

    header("E18", "cache scaling: sharded vs global lock, threads 1..8");
    const KEYS: usize = 4096;
    const SEED: u64 = 18;

    // Part 1 — wall-clock calibration on this host. Single-thread rows
    // measure the real per-op cost of the sharded data structure; the
    // 8-thread rows are printed so multi-core hosts can see the real
    // separation, but they are not recorded or asserted.
    let calibrate = |shards: usize, threads: usize| {
        let cache: ShardedCache<usize, u64, LruCache<usize, u64>> =
            ShardedCache::lru(KEYS / 4, shards, SEED);
        for k in 0..KEYS {
            cache.put(k, k as u64);
        }
        let ops = if cfg!(debug_assertions) { 20_000 } else { 200_000 };
        conc::run_closed_loop(threads, ops, SEED, |_, _, rng| {
            let k = conc::zipf_key(rng, KEYS);
            if rng.gen_bool(0.10) {
                cache.put(k, 1);
            } else {
                std::hint::black_box(cache.get(&k));
            }
        })
    };
    println!("wall-clock calibration (host-dependent, not recorded):");
    println!("{:<24} {:>10} {:>10}", "configuration", "Mops/s", "ns/op");
    for &(shards, threads) in &[(1usize, 1usize), (32, 1), (1, 8), (32, 8)] {
        let r = calibrate(shards, threads);
        let ns_per_op = r.elapsed_ns as f64 * threads as f64 / r.total_ops as f64;
        println!(
            "{:<24} {:>10.2} {:>10.0}",
            format!("{shards} shard(s) x{threads} thr"),
            r.mops(),
            ns_per_op
        );
    }

    // Part 2 — the deterministic contention model (bit-reproducible;
    // this is the table EXPERIMENTS.md records). The per-op costs are
    // canonical constants in the order of magnitude of an in-memory
    // hash-map access — 40 ns of lock-free routing/hash work, then a
    // critical section of 140 ns (get + LRU touch) or 220 ns (put +
    // eviction) — kept fixed rather than re-derived from the wall
    // calibration above (which includes driver overhead such as the
    // shim RNG's rejection sampling) so the table reproduces anywhere.
    const WORK_NS: u64 = 40;
    const READ_HOLD_NS: u64 = 140;
    const WRITE_HOLD_NS: u64 = 220;
    let model = |shards: usize, threads: usize| {
        let router = ShardRouter::new(shards, SEED);
        conc::simulate_locked_workload(shards, threads, 10_000, SEED, |_, _, rng| {
            let k = conc::zipf_key(rng, KEYS);
            SimOp {
                lock: router.route(&k),
                work_ns: WORK_NS,
                hold_ns: if rng.gen_bool(0.10) {
                    WRITE_HOLD_NS
                } else {
                    READ_HOLD_NS
                },
            }
        })
    };
    println!();
    println!(
        "contention model (recorded): work {WORK_NS} ns, hold {READ_HOLD_NS}/{WRITE_HOLD_NS} ns \
         read/write, 10% writes, Zipf over {KEYS} keys"
    );
    println!(
        "{:<8} {:>13} {:>9} {:>14} {:>9} {:>9}",
        "threads", "global Mops", "p99 ns", "sharded Mops", "p99 ns", "speedup"
    );
    let mut speedup_at_8 = 0.0;
    for &threads in &[1usize, 2, 4, 8] {
        let g = model(1, threads);
        let s = model(32, threads);
        let ratio = s.mops() / g.mops();
        if threads == 8 {
            speedup_at_8 = ratio;
        }
        println!(
            "{threads:<8} {:>13.2} {:>9} {:>14.2} {:>9} {:>8.1}x",
            g.mops(),
            g.p99_ns,
            s.mops(),
            s.p99_ns,
            ratio
        );
    }
    assert!(
        speedup_at_8 >= 3.0,
        "sharding must deliver ≥3x the global-lock read throughput at 8 threads \
         (got {speedup_at_8:.1}x)"
    );
    println!("sharded cache sustains {speedup_at_8:.1}x the global-lock throughput at 8 threads");
}

/// E19 — overload-safe serving: a closed-loop million-user day with a
/// 10x flash crowd, run unprotected / admission-only / fully protected,
/// with hard SLO assertions on the protected run.
fn e19() {
    use hc_common::clock::SimInstant;
    use hc_common::conc::LoadCurve;
    use hc_core::serving::{
        run_overload, OverloadReport, Protection, ServingConfig, ServingStack, WorkloadConfig,
    };
    use hc_resilience::admission::Tier;

    header("E19", "overload-safe serving: admission + shedding under a 10x flash crowd");

    // Debug builds run the same shape at 1/16 of the population and
    // capacity (and half the simulated day) so the example stays quick;
    // the recorded table is the release run.
    let debug = cfg!(debug_assertions);
    let users: f64 = if debug { 62_500.0 } else { 1_000_000.0 };
    let cores: u32 = if debug { 1 } else { 16 };
    let admission_rate: f64 = if debug { 2_000.0 } else { 28_000.0 };
    // Release runs a flatter diurnal (higher overnight floor) and a
    // slightly costlier origin round trip: both deepen the cold-start
    // miss storm that the warmup assertions measure, without pushing the
    // admitted flash load past serving capacity.
    let diurnal_amplitude = if debug { 0.25 } else { 0.10 };
    let miss_cost = if debug {
        SimDuration::from_millis(2)
    } else {
        SimDuration::from_micros(2_200)
    };
    // The keyspace sets how long a cold cache stays cold: the miss storm
    // lasts until the hot octaves are fetched, and that takes time
    // proportional to keyspace / offered rate (hence the debug keyspace
    // shrinks with the population, or the cache would never warm).
    let cache_capacity = if debug { 16_384 } else { 131_072 };
    let keyspace = if debug { 65_536 } else { 1_048_576 };
    // Window lengths in simulated seconds: cold start, steady diurnal,
    // 10x flash crowd, recovery.
    let (warm, steady, flash, recover) = if debug { (10, 30, 15, 20) } else { (10, 50, 30, 60) };
    let day = warm + steady + flash + recover;
    let at = |secs: u64| SimInstant::from_nanos(SimDuration::from_secs(secs).as_nanos());
    let flash_start = warm + steady;
    let flash_end = flash_start + flash;

    let clinical_slo = SimDuration::from_millis(250);
    // The origin drains fetches slower than the front can miss when the
    // cache is cold: 12k fetch/s (release) against ~15.7k cold misses/s,
    // so the cold-start herd backs the origin up and miss cost inflates
    // until the fills land.
    let (origin_cores, origin_fetch_cost) = if debug {
        (1, SimDuration::from_micros(1_333))
    } else {
        (12, SimDuration::from_millis(1))
    };
    let cfg = |protection| ServingConfig {
        cores,
        hit_cost: SimDuration::from_micros(50),
        miss_cost,
        origin_fetch_cost,
        origin_cores,
        cache_capacity,
        cache_shards: if debug { 16 } else { 64 },
        admission_rate,
        admission_burst: admission_rate / 20.0,
        tier_slos: [
            clinical_slo,
            SimDuration::from_millis(1_000),
            SimDuration::from_millis(10_000),
        ],
        provenance_sample: 4_096,
        degraded_provenance_sample: 65_536,
        provenance_batch: 64,
        protection,
        ..ServingConfig::default()
    };
    let workload = WorkloadConfig {
        curve: LoadCurve::new(users)
            .with_diurnal(diurnal_amplitude, SimDuration::from_secs(day))
            .with_flash_crowd(at(flash_start), at(flash_end), 10.0),
        req_per_user_per_sec: 0.02,
        tier_mix: [0.10, 0.60, 0.30],
        keyspace,
        duration: SimDuration::from_secs(day),
        tick: SimDuration::from_millis(1),
        seed: 19,
        windows: vec![
            ("warmup".to_owned(), at(0), at(warm)),
            ("steady".to_owned(), at(warm), at(flash_start)),
            ("flash".to_owned(), at(flash_start), at(flash_end)),
            ("recovery".to_owned(), at(flash_end), at(day)),
        ],
    };

    println!(
        "closed loop: {:.2}M users base (peak {:.1}M with 10x flash), 0.02 req/user/s, \
         tiers 10/60/30, Zipf {keyspace} keys, cache {cache_capacity}",
        users / 1e6,
        workload.curve.peak_users(4096) / 1e6,
    );
    println!(
        "capacity: {cores} core(s), hit 50us, miss {}us+origin queue ({origin_cores} origin \
         core(s) x {}us/fetch), admission {admission_rate:.0} req/s; \
         windows warmup 0-{warm}s, steady, flash(10x) {flash_start}-{flash_end}s, recovery -{day}s",
        miss_cost.as_nanos() / 1_000,
        origin_fetch_cost.as_nanos() / 1_000
    );
    println!();
    println!(
        "{:<11} {:<9} {:>10} {:>10} {:>7} {:>14} {:>12} {:>5}",
        "protection", "window", "offered/s", "goodput/s", "shed%", "clin p999(ms)", "int p999(ms)", "deg"
    );

    let mut reports: Vec<OverloadReport> = Vec::new();
    for protection in [Protection::None, Protection::AdmissionOnly, Protection::Full] {
        let report = run_overload(
            ServingStack::new(SimClock::new(), cfg(protection)),
            &workload,
        );
        for window in &report.windows {
            let clin = &window.tiers[Tier::Clinical.index()];
            let inter = &window.tiers[Tier::Interactive.index()];
            println!(
                "{:<11} {:<9} {:>10.0} {:>10.0} {:>6.1}% {:>14.1} {:>12.1} {:>5}",
                protection.label(),
                window.label,
                window.offered() as f64 / window.span_secs,
                window.goodput_rps(),
                window.shed_rate() * 100.0,
                clin.p999_us as f64 / 1e3,
                inter.p999_us as f64 / 1e3,
                report.degraded_transitions,
            );
        }
        reports.push(report);
    }
    let (base, admission_only, full) = (&reports[0], &reports[1], &reports[2]);

    // Hard SLO assertions (the experiment fails loudly if overload
    // protection regresses).
    let slo_ms = clinical_slo.as_nanos() / 1_000_000;
    let full_flash = full.window("flash").unwrap();
    let base_flash = base.window("flash").unwrap();
    let full_clin = &full_flash.tiers[Tier::Clinical.index()];
    let base_clin = &base_flash.tiers[Tier::Clinical.index()];
    let goodput_floor = 0.9 * admission_rate;

    assert!(
        full_clin.p999_us <= slo_ms * 1_000,
        "protected flash clinical p999 {}us must be within the {slo_ms}ms SLO",
        full_clin.p999_us
    );
    assert!(
        full_flash.goodput_rps() >= goodput_floor,
        "protected flash goodput {:.0}/s must be >=90% of the {admission_rate:.0}/s admitted capacity",
        full_flash.goodput_rps()
    );
    assert!(
        base_clin.p999_us > slo_ms * 1_000,
        "unprotected flash clinical p999 {}us should violate the SLO",
        base_clin.p999_us
    );
    assert!(
        base_flash.goodput_rps() < 0.5 * full_flash.goodput_rps(),
        "unprotected goodput should collapse under the flash crowd"
    );
    // The shedder (not admission) is what saves the cold-start miss
    // storm: with admission alone the warmup queue blows the SLO.
    let ao_warm = &admission_only.window("warmup").unwrap().tiers[Tier::Clinical.index()];
    let full_warm = &full.window("warmup").unwrap().tiers[Tier::Clinical.index()];
    assert!(
        ao_warm.p999_us > slo_ms * 1_000 && full_warm.p999_us <= slo_ms * 1_000,
        "warmup miss storm: admission-only p999 {}us vs full {}us (SLO {slo_ms}ms)",
        ao_warm.p999_us,
        full_warm.p999_us
    );
    // Tiered shedding starves batch before clinical.
    let full_all = &full.overall;
    assert!(
        full_all.tiers[Tier::Batch.index()].shed_rate()
            > full_all.tiers[Tier::Clinical.index()].shed_rate(),
        "batch must shed at a higher rate than clinical"
    );
    // Degraded mode enters under the sustained shed and exits after —
    // an even number of clean transitions, none left dangling.
    assert!(
        full.degraded_transitions >= 2
            && full.degraded_transitions % 2 == 0
            && full.degraded_transitions <= 6
            && !full.degraded_at_end,
        "degraded mode must enter and exit cleanly (got {} transitions, degraded_at_end={})",
        full.degraded_transitions,
        full.degraded_at_end
    );
    println!();
    println!(
        "SLO: protected flash clinical p999 {:.1}ms <= {slo_ms}ms, goodput {:.0}/s >= {:.0}/s, \
         baseline p999 {:.1}ms violates; degraded transitions {} (clean): PASS",
        full_clin.p999_us as f64 / 1e3,
        full_flash.goodput_rps(),
        goodput_floor,
        base_clin.p999_us as f64 / 1e3,
        full.degraded_transitions
    );
    println!(
        "provenance: {} sampled access events, ledger height {}; cache hit ratio {:.3}",
        full.provenance_recorded, full.ledger_height, full.cache_hit_ratio
    );
}

fn e20() {
    use hc_cache::fleet::{CacheFleet, FleetConfig, HashRing};
    use hc_cloudsim::net::Location;
    use hc_common::clock::SimInstant;
    use hc_common::conc::LoadCurve;
    use hc_core::serving::{
        run_overload, FleetTierConfig, Protection, ServingConfig, ServingStack, WorkloadConfig,
    };
    use hc_resilience::admission::Tier;

    header(
        "E20",
        "distributed cache fleet: ring balance, failover, and invalidation staleness",
    );

    // ---- Part A: ring balance and rebalance cost --------------------
    let nodes = 12usize;
    let sample: Vec<u64> = (0..65_536).collect();
    println!("ring: {nodes} nodes, 65536-key sample, seeded placement");
    println!("{:<8} {:>10} {:>10} {:>9}", "vnodes", "min keys", "max keys", "max/min");
    let mut ratio_at_256 = f64::NAN;
    for vnodes in [64usize, 128, 256] {
        let mut ring = HashRing::new(0xE20, vnodes);
        for n in 0..nodes {
            ring.add_node(n);
        }
        let counts = ring.load_counts(&sample);
        let min = counts.iter().map(|&(_, c)| c).min().unwrap_or(0);
        let max = counts.iter().map(|&(_, c)| c).max().unwrap_or(0);
        let ratio = max as f64 / min.max(1) as f64;
        if vnodes == 256 {
            ratio_at_256 = ratio;
        }
        println!("{vnodes:<8} {min:>10} {max:>10} {ratio:>9.3}");
    }
    assert!(
        ratio_at_256 <= 1.25,
        "at 256 vnodes the max/min node load ratio must be <= 1.25, got {ratio_at_256:.3}"
    );
    let mut before = HashRing::new(0xE20, 256);
    for n in 0..nodes {
        before.add_node(n);
    }
    let mut joined = before.clone();
    joined.add_node(nodes);
    let mut left = before.clone();
    left.remove_node(nodes - 1);
    let join_moved = before.moved_fraction(&joined, &sample);
    let leave_moved = before.moved_fraction(&left, &sample);
    println!(
        "rebalance: join 12->13 moves {:.1}% of keys (ideal {:.1}%), leave 12->11 moves {:.1}% \
         (ideal {:.1}%)",
        join_moved * 100.0,
        100.0 / (nodes + 1) as f64,
        leave_moved * 100.0,
        100.0 / nodes as f64
    );
    assert!(
        join_moved < 1.5 / (nodes + 1) as f64,
        "consistent hashing: a join must move ~1/(n+1) of keys, moved {join_moved:.3}"
    );
    assert!(
        leave_moved < 1.5 / nodes as f64,
        "consistent hashing: a leave must move only the lost node's arc, moved {leave_moved:.3}"
    );

    // ---- Part B: closed loop through node crash and partition -------
    // Debug builds shrink the population and capacity 8x; the recorded
    // table is the release run. `cores` models concurrent request slots
    // (a slot blocked on a replica round trip holds no CPU, so slots
    // outnumber physical cores the way async executors oversubscribe).
    let debug = cfg!(debug_assertions);
    let users: f64 = if debug { 62_500.0 } else { 500_000.0 };
    let cores: u32 = if debug { 32 } else { 256 };
    let admission_rate: f64 = if debug { 1_500.0 } else { 12_000.0 };
    let keyspace = if debug { 8_192 } else { 32_768 };
    let local_capacity = if debug { 2_048 } else { 8_192 };
    let node_capacity = if debug { 8_192 } else { 32_768 };
    let origin_cores = if debug { 4 } else { 32 };
    let clinical_slo = SimDuration::from_millis(250);
    let at = |secs: u64| SimInstant::from_nanos(SimDuration::from_secs(secs).as_nanos());
    // Windows: cold start, steady, fault injected, recovered.
    let (warm_end, fault_start, fault_end, day) = (10u64, 20u64, 35u64, 45u64);

    let fleet_cfg = |crash: Vec<(usize, SimInstant, SimInstant)>,
                     partition: Vec<(usize, SimInstant, SimInstant)>| {
        FleetTierConfig {
            regions: 3,
            nodes_per_region: 2,
            replication: 3,
            vnodes: 256,
            node_capacity,
            node_shards: 8,
            crash_windows: crash,
            partition_windows: partition,
            ..FleetTierConfig::default()
        }
    };
    let cfg = |fleet: FleetTierConfig| ServingConfig {
        cores,
        hit_cost: SimDuration::from_micros(50),
        miss_cost: SimDuration::from_micros(800),
        origin_fetch_cost: SimDuration::from_millis(1),
        origin_cores,
        cache_capacity: local_capacity,
        cache_shards: if debug { 8 } else { 32 },
        admission_rate,
        admission_burst: admission_rate / 20.0,
        tier_slos: [
            clinical_slo,
            SimDuration::from_millis(1_000),
            SimDuration::from_millis(10_000),
        ],
        protection: Protection::Full,
        fleet: Some(fleet),
        ..ServingConfig::default()
    };
    let workload = WorkloadConfig {
        curve: LoadCurve::new(users),
        req_per_user_per_sec: 0.02,
        tier_mix: [0.10, 0.60, 0.30],
        keyspace,
        duration: SimDuration::from_secs(day),
        tick: SimDuration::from_millis(1),
        seed: 20,
        windows: vec![
            ("warmup".to_owned(), at(0), at(warm_end)),
            ("steady".to_owned(), at(warm_end), at(fault_start)),
            ("fault".to_owned(), at(fault_start), at(fault_end)),
            ("recovered".to_owned(), at(fault_end), at(day)),
        ],
    };
    println!();
    println!(
        "closed loop: {:.0}k users, 0.02 req/user/s, Zipf {keyspace} keys; local cache \
         {local_capacity}, fleet 3 regions x 2 nodes, R=3, node capacity {node_capacity}; \
         fault window {fault_start}-{fault_end}s of {day}s",
        users / 1e3
    );
    println!(
        "{:<10} {:<10} {:>10} {:>7} {:>14}",
        "scenario", "window", "goodput/s", "shed%", "clin p999(ms)"
    );
    let scenarios: Vec<(&str, FleetTierConfig)> = vec![
        ("healthy", fleet_cfg(vec![], vec![])),
        (
            "crash",
            fleet_cfg(vec![(0, at(fault_start), at(fault_end))], vec![]),
        ),
        (
            "partition",
            fleet_cfg(vec![], vec![(2, at(fault_start), at(fault_end))]),
        ),
    ];
    let mut reports = Vec::new();
    for (label, fc) in scenarios {
        let report = run_overload(ServingStack::new(SimClock::new(), cfg(fc)), &workload);
        let fleet = report.fleet.expect("fleet is configured");
        for window in &report.windows {
            let clin = &window.tiers[Tier::Clinical.index()];
            println!(
                "{:<10} {:<10} {:>10.0} {:>6.1}% {:>14.1}",
                label,
                window.label,
                window.goodput_rps(),
                window.shed_rate() * 100.0,
                clin.p999_us as f64 / 1e3,
            );
        }
        println!(
            "{:<10} fleet: hit ratio {:.3}, probe failures {}, breaker skips {}, read repairs {}",
            label, fleet.hit_ratio, fleet.probe_failures, fleet.breaker_skips, fleet.read_repairs
        );
        reports.push((label, report));
    }

    let healthy = &reports[0].1;
    let crash = &reports[1].1;
    let partition = &reports[2].1;
    let healthy_fleet = healthy.fleet.as_ref().unwrap();
    let crash_fleet = crash.fleet.as_ref().unwrap();
    let slo_us = clinical_slo.as_nanos() / 1_000;

    // Hard assertions: R=3 masks one crashed node.
    assert!(
        crash_fleet.hit_ratio >= 0.9 * healthy_fleet.hit_ratio,
        "with one node crashed, fleet hit ratio {:.3} must stay >= 90% of the no-failure \
         run's {:.3}",
        crash_fleet.hit_ratio,
        healthy_fleet.hit_ratio
    );
    for (label, report) in [("crash", crash), ("partition", partition)] {
        for window in ["steady", "fault", "recovered"] {
            let clin = &report.window(window).unwrap().tiers[Tier::Clinical.index()];
            assert!(
                clin.p999_us <= slo_us,
                "{label}/{window}: clinical p999 {}us must stay within the {}ms SLO",
                clin.p999_us,
                slo_us / 1_000
            );
        }
    }
    assert!(
        crash_fleet.probe_failures > 0 && crash_fleet.breaker_skips > 0,
        "the crashed node must be probed, then fast-failed by its breaker"
    );
    assert!(
        crash_fleet.read_repairs > healthy_fleet.read_repairs,
        "the restored node comes back cold; read-repair must rewrite its copies"
    );
    println!(
        "failover: crash-run fleet hit ratio {:.3} >= 0.9x healthy {:.3}; clinical p999 within \
         {}ms SLO through crash and partition: PASS",
        crash_fleet.hit_ratio,
        healthy_fleet.hit_ratio,
        slo_us / 1_000
    );

    // ---- Part C: invalidation staleness -----------------------------
    // Writes publish invalidations that ride the network model to every
    // replica. The staleness window (write -> last replica invalidated)
    // must be bounded by one inter-cloud one-way latency plus the tick
    // budget; through a partition it grows by exactly the outage, never
    // unboundedly.
    let clock = SimClock::new();
    let tick = SimDuration::from_millis(1);
    let mut fleet: CacheFleet<u64, u64> = CacheFleet::with_topology(
        FleetConfig {
            replication: 3,
            vnodes: 256,
            node_capacity,
            seed: 0xE20,
            ..FleetConfig::default()
        },
        clock.clone(),
        3,
        2,
    );
    let writer = Location::new(0, 0);
    let writes = if debug { 2_000u64 } else { 10_000 };
    for k in 0..writes {
        fleet.fill(&k, &k, 1, writer);
    }
    for k in 0..writes {
        fleet.write_invalidate(&k, writer);
        clock.advance(tick);
        fleet.tick(clock.now());
    }
    // Drain the tail of the fan-out.
    clock.advance(fleet_inter_latency());
    fleet.tick(clock.now());
    let no_partition_staleness = fleet.stats().max_staleness;
    let bound = fleet_inter_latency().saturating_mul(2).saturating_add(tick);
    println!();
    println!(
        "invalidation: {writes} writes, max staleness {:.2}ms (bound: inter-cloud RTT \
         {:.0}ms + {:.0}ms tick)",
        no_partition_staleness.as_nanos() as f64 / 1e6,
        fleet_inter_latency().saturating_mul(2).as_nanos() as f64 / 1e6,
        tick.as_nanos() as f64 / 1e6
    );
    assert!(
        no_partition_staleness <= bound,
        "staleness {}ns must be bounded by one inter-cloud RTT + tick budget {}ns",
        no_partition_staleness.as_nanos(),
        bound.as_nanos()
    );
    assert_eq!(fleet.pending_deliveries(), 0, "fan-out fully drained");

    // Partition a region mid-write: parked deliveries land after the
    // heal, so staleness = outage + one delivery latency, no more.
    let outage = SimDuration::from_secs(2);
    fleet.partition_region(2);
    for k in 0..256u64 {
        fleet.write_invalidate(&k, writer);
    }
    clock.advance(outage);
    fleet.tick(clock.now());
    let parked = fleet.parked_deliveries();
    fleet.heal_region(2);
    clock.advance(fleet_inter_latency());
    fleet.tick(clock.now());
    let partition_staleness = fleet.stats().max_staleness;
    let partition_bound = outage.saturating_add(bound);
    println!(
        "partition: {parked} deliveries parked through a {:.0}s outage; max staleness {:.2}ms \
         <= outage + RTT + tick {:.2}ms; all replicas converged",
        outage.as_secs_f64(),
        partition_staleness.as_nanos() as f64 / 1e6,
        partition_bound.as_nanos() as f64 / 1e6
    );
    assert!(parked > 0, "cross-partition deliveries must park, not drop");
    assert!(
        partition_staleness <= partition_bound,
        "post-heal staleness {}ns must be bounded by outage + RTT + tick {}ns",
        partition_staleness.as_nanos(),
        partition_bound.as_nanos()
    );
    assert_eq!(fleet.parked_deliveries(), 0, "heal flushes the parking lot");
    for k in 0..256u64 {
        assert!(
            fleet.replica_versions(&k).iter().all(|&(_, v)| v == 0),
            "every replica of key {k} must be invalidated after the heal"
        );
    }
    println!("staleness bounded, replicas converged after heal: PASS");
}

/// The calibrated inter-cloud one-way latency (50 ms), shared by E20's
/// staleness bounds.
fn fleet_inter_latency() -> SimDuration {
    hc_cloudsim::net::NetworkModel::default().inter_latency
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    let want = |id: &str| all || args.iter().any(|a| a.eq_ignore_ascii_case(id));
    if want("e1") {
        e1();
    }
    if want("e2") {
        e2();
    }
    if want("e3") {
        e3();
    }
    if want("e4") {
        e4();
    }
    if want("e5") {
        e5();
    }
    if want("e6") {
        e6();
    }
    if want("e7") {
        e7();
    }
    if want("e8") {
        e8();
    }
    if want("e9") {
        e9();
    }
    if want("e9b") {
        e9_platform();
    }
    if want("e10") {
        e10();
    }
    if want("e11") {
        e11();
    }
    if want("e12") {
        e12();
    }
    if want("e13") {
        e13();
    }
    if want("e14") {
        e14();
    }
    if want("e15") {
        e15();
    }
    if want("e16") {
        e16();
    }
    if want("e18") {
        e18();
    }
    if want("e19") {
        e19();
    }
    if want("e20") {
        e20();
    }
    if want("e23") {
        e23();
    }
}
