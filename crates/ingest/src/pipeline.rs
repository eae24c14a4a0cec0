//! The background ingestion process.
//!
//! Stages, in the paper's order: decrypt (client key from the KMS) →
//! validate/curate → malware scan (posting detections to the malware
//! blockchain channel) → consent check → de-identify → anonymization
//! verification → encrypt-at-rest with a *per-record* key (so secure
//! deletion can crypto-shred exactly one record) → store in the data lake
//! with a reference id → anchor `ingested`/`anonymized` provenance events
//! on the ledger. Every upload gets a [`StatusUrl`] whose state advances
//! through [`IngestionStatus`].
//!
//! # Concurrency model (worker pool + sequence-numbered merge)
//!
//! The stage sequence is split into two phases so the pipeline can use
//! every core without giving up determinism:
//!
//! * **Prepare** (parallel, per-record pure): decrypt → validate →
//!   malware scan → de-identify + anonymization verification. These
//!   stages read shared services but mutate nothing except the upload's
//!   own status, so `M` workers run them concurrently.
//! * **Commit** (serialized, submission order): consent apply/check →
//!   encrypt-at-rest + data-lake write → provenance anchoring. The
//!   committer consumes prepared results through a reorder buffer keyed
//!   by submission sequence number, so commits — and therefore consent
//!   registry mutations, record-key RNG draws, reference-id assignment
//!   and ledger anchor order — are byte-identical for *any* worker
//!   count (the determinism regression test pins workers ∈ {1, 2, 8}).
//!
//! Rejection priority is preserved: although de-identification now runs
//! before the consent check in wall time, the committer reports a
//! consent rejection ahead of an anonymization rejection, matching the
//! paper's stage order. [`IngestionPipeline::process_all_parallel`]
//! bounds in-flight prepares (backpressure) and is wired into the same
//! resilience ([`fault_points`]) and telemetry (`ingest.pool.*`) layers
//! as the serial path.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use hc_access::consent::{ConsentRegistry, ConsentScope};
use hc_common::clock::SimClock;
use hc_common::fault::{FaultInjector, FaultKind};
use hc_common::id::{GroupId, IngestionId, KeyId, PatientId, Principal, ReferenceId};
use hc_resilience::{DeadLetterQueue, ReplayReport, RetryPolicy};
use hc_crypto::aead::Sealed;
use hc_crypto::kms::KeyManagementSystem;
use hc_crypto::sha256;
use hc_fhir::bundle::Bundle;
use hc_fhir::resource::Resource;
use hc_fhir::validation::Validator;
use hc_ledger::block::Transaction;
use hc_ledger::provenance::{ProvenanceAction, ProvenanceEvent, ProvenanceNetwork};
use hc_privacy::phi::{deidentify_bundle, DeidConfig};
use hc_privacy::verify::scan_resource_for_phi;
use hc_storage::datalake::DataLake;

use crate::export::OpenedRecords;
use crate::scanner::MalwareScanner;
use crate::status::{IngestionStatus, StatusUrl};

/// The credential a registered device uploads under: its patient identity
/// and its platform-issued encryption key.
#[derive(Clone, Copy, Debug)]
pub struct DeviceCredential {
    /// The patient the device belongs to.
    pub patient: PatientId,
    /// The device's KMS key (created at registration).
    pub key: KeyId,
}

/// Fault-point names the pipeline consults on its [`FaultInjector`]
/// (see [`hc_common::fault`]). Scheduling a fault at one of these names
/// makes the corresponding stage fail.
pub mod fault_points {
    /// Decryption / integrity verification.
    pub const DECRYPT: &str = "ingest.decrypt";
    /// Bundle parsing and validation.
    pub const VALIDATE: &str = "ingest.validate";
    /// Malware filtration.
    pub const SCAN: &str = "ingest.scan";
    /// Consent verification.
    pub const CONSENT: &str = "ingest.consent";
    /// De-identification + anonymization verification.
    pub const DEID: &str = "ingest.deid";
    /// Encrypt-at-rest and data-lake write.
    pub const STORE: &str = "ingest.store";
}

/// Counters the monitoring service scrapes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PipelineStats {
    /// Uploads received.
    pub received: u64,
    /// Uploads stored successfully.
    pub stored: u64,
    /// Rejected at decryption (integrity/authenticity).
    pub rejected_integrity: u64,
    /// Rejected at validation.
    pub rejected_validation: u64,
    /// Rejected by the malware filter.
    pub rejected_malware: u64,
    /// Rejected for missing consent.
    pub rejected_consent: u64,
    /// Rejected by anonymization verification.
    pub rejected_anonymization: u64,
    /// Stage attempts retried after a transient fault.
    pub retried: u64,
    /// Uploads parked in the dead-letter queue.
    pub dead_lettered: u64,
}

/// State shared between the pipeline and the export service.
pub(crate) struct SharedState {
    pub(crate) kms: Arc<KeyManagementSystem>,
    pub(crate) lake: Arc<Mutex<DataLake>>,
    pub(crate) consent: Arc<Mutex<ConsentRegistry>>,
    pub(crate) provenance: Arc<Mutex<ProvenanceNetwork>>,
    /// Per-record storage keys: shredding one deletes one record.
    pub(crate) record_keys: Mutex<HashMap<ReferenceId, KeyId>>,
    /// Reference-id → (pseudonym → original id) maps; "the reference-id
    /// to identity the mapping is stored in the metadata". Kept inverted,
    /// as the export service reads them, and shared, so a one-record
    /// export hands out the map itself.
    pub(crate) pseudonyms: Mutex<HashMap<ReferenceId, Arc<HashMap<String, String>>>>,
    /// The study this pipeline ingests for.
    pub(crate) study: GroupId,
    /// The study's display name (matched against in-bundle consents).
    pub(crate) study_name: String,
    /// Platform signing key for leakage-free redactable record sharing,
    /// built on first use by [`SharedState::share_signer`]: only sharing
    /// needs its 64 one-time keys, which cost more than the rest of a
    /// boot.
    share_signer: OnceLock<Mutex<hc_crypto::ots::MerkleSigner>>,
    /// The pipeline seed; the signer draws from its stream 910.
    seed: u64,
    /// The export read cache.
    pub(crate) opened: OpenedRecords,
}

impl SharedState {
    /// The sharing signer, generated from the pipeline seed's stream 910
    /// the first time it is asked for.
    pub(crate) fn share_signer(&self) -> &Mutex<hc_crypto::ots::MerkleSigner> {
        self.share_signer.get_or_init(|| {
            let mut rng = hc_common::rng::seeded_stream(self.seed, 910);
            Mutex::new(hc_crypto::ots::MerkleSigner::generate(&mut rng, 6))
        })
    }
}

#[derive(Clone)]
struct Job {
    id: IngestionId,
    credential: DeviceCredential,
    sealed: Sealed,
}

/// Which [`PipelineStats`] counter a prepare-phase rejection bumps.
/// Counting happens in the ordered commit phase so worker interleaving
/// cannot reorder ledger posts relative to status updates.
#[derive(Clone, Copy, Debug)]
enum RejectCounter {
    Integrity,
    Validation,
    Malware,
}

/// Outcome of the parallel *prepare* phase for one job.
#[derive(Debug)]
enum Prepared {
    /// Every parallel stage passed; awaits the ordered commit phase.
    Ready(Box<ReadyJob>),
    /// Terminally rejected during prepare. A malware detection carries
    /// the blockchain transaction to post (in submission order).
    Rejected {
        stage: String,
        reason: String,
        counter: RejectCounter,
        malware_tx: Option<Transaction>,
    },
    /// A stage fault exhausted its retry budget during prepare.
    DeadLettered { stage: String, reason: String },
}

/// A job that passed decrypt, validation, malware scan and
/// de-identification, carrying everything the commit phase needs.
#[derive(Debug)]
struct ReadyJob {
    /// This study's in-bundle consent resources, in bundle order.
    consents: Vec<(String, bool)>,
    /// Serialized de-identified bundle (the at-rest plaintext).
    deid_bytes: Vec<u8>,
    /// Hash of `deid_bytes`, anchored with the provenance events.
    data_hash: sha256::Digest,
    /// Pseudonym → original-id map: de-identification's map, inverted by
    /// moving its strings.
    reidentification: Arc<HashMap<String, String>>,
    /// Residual PHI found by anonymization verification. Rejection is
    /// reported in commit, *after* the consent check, so the serial
    /// stage priority (consent before anonymization) is preserved.
    violations: Vec<String>,
}

/// Stage names in pipeline order, used for `ingest.stage.<name>.wall_ns`
/// histograms (the seventh entry times provenance anchoring).
const STAGE_NAMES: [&str; 7] =
    ["decrypt", "validate", "malware_scan", "consent", "deid", "store", "anchor"];

/// Registry handles, installed by [`IngestionPipeline::enable_telemetry`].
///
/// Stage histograms record *wall* nanoseconds a job spent in each stage
/// it passed; jobs rejected or dead-lettered at a stage count in the
/// outcome counters instead.
struct PipelineInstruments {
    stage_wall: Vec<hc_telemetry::Histogram>,
    received: hc_telemetry::Counter,
    stored: hc_telemetry::Counter,
    rejected: hc_telemetry::Counter,
    dead_lettered: hc_telemetry::Counter,
    retries: hc_telemetry::Counter,
    queue_depth: hc_telemetry::Gauge,
    dlq_depth: hc_telemetry::Gauge,
    pool_workers: hc_telemetry::Gauge,
    pool_in_flight: hc_telemetry::Gauge,
    pool_reorder_depth: hc_telemetry::Gauge,
}

/// Resilience state, installed by [`IngestionPipeline::enable_resilience`].
struct Resilience {
    clock: SimClock,
    injector: FaultInjector,
    retry: RetryPolicy,
    rng: rand::rngs::StdRng,
    dlq: DeadLetterQueue<Job>,
}

/// The ingestion pipeline.
pub struct IngestionPipeline {
    pub(crate) shared: Arc<SharedState>,
    scanner: MalwareScanner,
    validator: Validator,
    deid: DeidConfig,
    tx: Sender<Job>,
    rx: Receiver<Job>,
    statuses: Arc<Mutex<HashMap<IngestionId, IngestionStatus>>>,
    stats: Mutex<PipelineStats>,
    rng: Mutex<rand::rngs::StdRng>,
    next_ingestion: Mutex<u128>,
    resilience: Mutex<Option<Resilience>>,
    telemetry: Mutex<Option<Arc<PipelineInstruments>>>,
}

impl std::fmt::Debug for IngestionPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestionPipeline")
            .field("study", &self.shared.study_name)
            .field("pending", &self.rx.len())
            .finish()
    }
}

/// Everything the pipeline needs from the rest of the platform.
pub struct PipelineDeps {
    /// The key management system.
    pub kms: Arc<KeyManagementSystem>,
    /// The data lake.
    pub lake: Arc<Mutex<DataLake>>,
    /// The consent registry.
    pub consent: Arc<Mutex<ConsentRegistry>>,
    /// The provenance blockchain network.
    pub provenance: Arc<Mutex<ProvenanceNetwork>>,
}

impl IngestionPipeline {
    /// Builds a pipeline for one study.
    pub fn new(
        deps: PipelineDeps,
        study: GroupId,
        study_name: &str,
        seed: u64,
    ) -> Self {
        // Producers and the worker share one thread in the simulation; a
        // bounded queue would deadlock on enqueue before `process_all`
        // ever runs. Backpressure comes from the job budget instead.
        // hc-lint: allow(sync-unbounded-channel)
        let (tx, rx) = unbounded();
        IngestionPipeline {
            shared: Arc::new(SharedState {
                kms: deps.kms,
                lake: deps.lake,
                consent: deps.consent,
                provenance: deps.provenance,
                record_keys: Mutex::new(HashMap::new()),
                pseudonyms: Mutex::new(HashMap::new()),
                study,
                study_name: study_name.to_owned(),
                share_signer: OnceLock::new(),
                seed,
                opened: OpenedRecords::new(seed),
            }),
            scanner: MalwareScanner::new(),
            validator: Validator::strict(),
            deid: DeidConfig::default(),
            tx,
            rx,
            statuses: Arc::new(Mutex::new(HashMap::new())),
            stats: Mutex::new(PipelineStats::default()),
            rng: Mutex::new(hc_common::rng::seeded_stream(seed, 909)),
            next_ingestion: Mutex::new(0),
            resilience: Mutex::new(None),
            telemetry: Mutex::new(None),
        }
    }

    /// Turns on telemetry: per-stage wall-clock histograms
    /// (`ingest.stage.<name>.wall_ns`), outcome counters and queue/DLQ
    /// depth gauges, all under the `ingest.*` prefix, plus the export read
    /// cache's `ingest.export_cache.*` hit, miss and entry counts. The
    /// existing [`PipelineStats`] counters keep working unchanged.
    pub fn enable_telemetry(&self, registry: &hc_telemetry::Registry) {
        self.shared.opened.instrument(registry);
        *self.telemetry.lock() = Some(Arc::new(PipelineInstruments {
            stage_wall: STAGE_NAMES
                .iter()
                .map(|s| registry.histogram(&format!("ingest.stage.{s}.wall_ns")))
                .collect(),
            received: registry.counter("ingest.jobs.received"),
            stored: registry.counter("ingest.jobs.stored"),
            rejected: registry.counter("ingest.jobs.rejected"),
            dead_lettered: registry.counter("ingest.jobs.dead_lettered"),
            retries: registry.counter("ingest.retry.count"),
            queue_depth: registry.gauge("ingest.queue.depth"),
            dlq_depth: registry.gauge("ingest.dlq.depth"),
            pool_workers: registry.gauge("ingest.pool.workers"),
            pool_in_flight: registry.gauge("ingest.pool.in_flight"),
            pool_reorder_depth: registry.gauge("ingest.pool.reorder_depth"),
        }));
    }

    /// The installed telemetry handles, if any (cheap `Arc` clone).
    fn instruments(&self) -> Option<Arc<PipelineInstruments>> {
        self.telemetry.lock().clone()
    }

    /// Turns on the resilience layer: stage-level retries against
    /// `injector` faults and dead-lettering of poison uploads. Backoff
    /// delays advance `clock`.
    pub fn enable_resilience(&self, clock: SimClock, injector: FaultInjector, seed: u64) {
        *self.resilience.lock() = Some(Resilience {
            clock,
            injector,
            retry: RetryPolicy::new(4, hc_common::clock::SimDuration::from_micros(100)),
            rng: hc_common::rng::seeded_stream(seed, 911),
            dlq: DeadLetterQueue::new(256),
        });
    }

    /// Dead letters currently parked, as `(ingestion, reason)` pairs.
    pub fn dead_letters(&self) -> Vec<(IngestionId, String)> {
        self.resilience.lock().as_ref().map_or_else(Vec::new, |r| {
            r.dlq
                .iter()
                .map(|l| (l.item.id, l.reason.clone()))
                .collect()
        })
    }

    /// Re-runs every dead-lettered upload through the full stage
    /// sequence. Uploads that fail again are re-parked.
    pub fn replay_dead_letters(&self) -> ReplayReport {
        let letters = match self.resilience.lock().as_mut() {
            Some(res) => res.dlq.drain(),
            None => return ReplayReport::default(),
        };
        let mut report = ReplayReport::default();
        for letter in letters {
            let outcome = self.run_stages(&letter.item);
            if let IngestionStatus::DeadLettered { ref stage, ref reason } = outcome {
                report.requeued += 1;
                if let Some(res) = self.resilience.lock().as_mut() {
                    let at = res.clock.now();
                    res.dlq.push(
                        letter.item.clone(),
                        format!("{stage}: {reason}"),
                        letter.attempts + 1,
                        at,
                    );
                }
            } else {
                report.replayed += 1;
            }
            self.statuses.lock().insert(letter.item.id, outcome);
        }
        report
    }

    /// Registers a patient device: issues its KMS key, authorized for the
    /// device itself and the ingestion service.
    pub fn register_device(&self, patient: PatientId) -> DeviceCredential {
        let mut rng = self.rng.lock();
        let key = self.shared.kms.create_key(
            &mut *rng,
            &[
                Principal::Device(patient),
                Principal::Service("ingest".into()),
            ],
        );
        DeviceCredential { patient, key }
    }

    /// Client-side helper: seals a bundle under the device credential
    /// (models the enhanced client encrypting before upload).
    ///
    /// # Errors
    ///
    /// Propagates KMS errors (unknown key, unauthorized device).
    pub fn seal_upload(
        &self,
        credential: &DeviceCredential,
        bundle: &Bundle,
    ) -> Result<Sealed, hc_crypto::kms::KmsError> {
        self.shared.kms.seal(
            &Principal::Device(credential.patient),
            credential.key,
            &bundle.to_bytes(),
            &credential.patient.as_u128().to_le_bytes(),
        )
    }

    /// Seals arbitrary bytes under the device credential — models a
    /// buggy or malicious client shipping a payload that is not a valid
    /// bundle (a *poison* upload the resilience layer dead-letters).
    ///
    /// # Errors
    ///
    /// Propagates KMS errors (unknown key, unauthorized device).
    pub fn seal_raw_upload(
        &self,
        credential: &DeviceCredential,
        payload: &[u8],
    ) -> Result<Sealed, hc_crypto::kms::KmsError> {
        self.shared.kms.seal(
            &Principal::Device(credential.patient),
            credential.key,
            payload,
            &credential.patient.as_u128().to_le_bytes(),
        )
    }

    /// Accepts an upload into the staging area and returns its status URL.
    pub fn submit(&self, credential: DeviceCredential, sealed: Sealed) -> StatusUrl {
        let id = {
            let mut next = self.next_ingestion.lock();
            *next += 1;
            IngestionId::from_raw(*next)
        };
        self.statuses.lock().insert(id, IngestionStatus::Received);
        self.stats.lock().received += 1;
        if self.tx
            .send(Job {
                id,
                credential,
                sealed,
            })
            .is_err()
        {
            // Worker threads are gone (shutdown race): dead-letter the
            // upload so the caller sees a terminal status, not a panic.
            self.statuses.lock().insert(
                id,
                IngestionStatus::DeadLettered {
                    stage: "submit".to_owned(),
                    reason: "ingest worker queue closed".to_owned(),
                },
            );
            return StatusUrl(id);
        }
        if let Some(inst) = self.instruments() {
            inst.received.inc();
            inst.queue_depth.set(self.rx.len() as i64);
        }
        StatusUrl(id)
    }

    /// Polls an upload's status.
    pub fn status(&self, url: StatusUrl) -> Option<IngestionStatus> {
        self.statuses.lock().get(&url.0).cloned()
    }

    /// Terminal bookkeeping every processing path shares: dead-letter
    /// parking, outcome counters/gauges, and the status-map write.
    fn finish_job(&self, job: &Job, outcome: IngestionStatus) {
        if let IngestionStatus::DeadLettered { ref stage, ref reason } = outcome {
            if let Some(res) = self.resilience.lock().as_mut() {
                let at = res.clock.now();
                let attempts = res.retry.max_attempts();
                res.dlq
                    .push(job.clone(), format!("{stage}: {reason}"), attempts, at);
            }
            self.stats.lock().dead_lettered += 1;
        }
        if let Some(inst) = self.instruments() {
            match &outcome {
                IngestionStatus::Stored { .. } => inst.stored.inc(),
                IngestionStatus::Rejected { .. } => inst.rejected.inc(),
                IngestionStatus::DeadLettered { .. } => {
                    inst.dead_lettered.inc();
                    let depth =
                        self.resilience.lock().as_ref().map_or(0, |r| r.dlq.len());
                    inst.dlq_depth.set(depth as i64);
                }
                _ => {}
            }
            inst.queue_depth.set(self.rx.len() as i64);
        }
        self.statuses.lock().insert(job.id, outcome);
    }

    /// Processes one queued upload, returning its id; `None` if idle.
    pub fn process_one(&self) -> Option<IngestionId> {
        let job = self.rx.try_recv().ok()?;
        let id = job.id;
        let outcome = self.run_stages(&job);
        self.finish_job(&job, outcome);
        Some(id)
    }

    /// Drains the queue inline.
    pub fn process_all(&self) -> usize {
        let mut n = 0;
        while self.process_one().is_some() {
            n += 1;
        }
        n
    }

    /// Drains the queue on a bounded pool of `workers` prepare threads
    /// feeding a sequence-numbered merge (the "asynchronous
    /// communication process" of §II-B, now multi-core).
    ///
    /// Workers run the parallel *prepare* phase; the calling thread
    /// dispatches jobs (bounded in-flight for backpressure) and commits
    /// prepared results strictly in submission order through a reorder
    /// buffer. Stored records, provenance anchor order, consent registry
    /// state and [`PipelineStats`] are therefore identical to the serial
    /// [`IngestionPipeline::process_all`] path for any worker count.
    /// Returns the number of jobs processed.
    pub fn process_all_parallel(&self, workers: usize) -> usize {
        let workers = workers.max(1);
        let inst = self.instruments();
        if let Some(inst) = &inst {
            inst.pool_workers.set(workers as i64);
        }
        hc_common::conc::pool::ordered_pipeline(
            workers,
            &mut || self.rx.try_recv().ok(),
            &|job| self.prepare_job(job),
            &mut |job, prepared| {
                let outcome = self.commit_outcome(&job, prepared);
                self.finish_job(&job, outcome);
            },
            &mut |progress| {
                if let Some(inst) = &inst {
                    inst.pool_in_flight.set(progress.in_flight as i64);
                    inst.pool_reorder_depth.set(progress.reorder_depth as i64);
                }
            },
        )
    }

    fn set_status(&self, id: IngestionId, status: IngestionStatus) {
        self.statuses.lock().insert(id, status);
    }

    fn reject(&self, stage: &str, reason: String) -> IngestionStatus {
        IngestionStatus::Rejected {
            stage: stage.to_owned(),
            reason,
        }
    }

    /// Consults the fault injector at a stage boundary. Transient
    /// faults are retried with backoff (advancing the resilience
    /// clock); crash faults, or transients that outlast the attempt
    /// budget, fail the stage.
    fn stage_guard(&self, point: &str) -> Result<(), String> {
        // The retry loop mutates resilience state (budgets, backoff
        // clock) on every attempt and the attempt budget bounds it; the
        // pipeline is single-threaded per job, so nothing else contends.
        // hc-lint: allow(lock-held-long)
        let mut guard = self.resilience.lock();
        let Some(res) = guard.as_mut() else {
            return Ok(());
        };
        let mut attempt = 0u32;
        loop {
            match res.injector.check(point) {
                None => return Ok(()),
                Some(FaultKind::LatencySpike(delay)) => {
                    // Absorbed: the stage just takes longer.
                    res.clock.advance(delay);
                    return Ok(());
                }
                Some(FaultKind::TransientError | FaultKind::NetworkPartition) => {
                    attempt += 1;
                    if attempt >= res.retry.max_attempts() {
                        return Err(format!(
                            "transient fault persisted across {attempt} attempts"
                        ));
                    }
                    let delay = res.retry.delay_after(attempt, &mut res.rng);
                    res.clock.advance(delay);
                    self.stats.lock().retried += 1;
                    if let Some(inst) = self.instruments() {
                        inst.retries.inc();
                    }
                }
                Some(kind @ (FaultKind::HostCrash | FaultKind::StorageCrash)) => {
                    return Err(format!("unrecoverable fault: {kind:?}"));
                }
            }
        }
    }

    /// Anchors a provenance event. A consensus failure leaves it pending
    /// in the provenance network, which commits it after the heal.
    fn anchor(&self, event: ProvenanceEvent) {
        let _ = self.shared.provenance.lock().record(&event);
    }

    fn dead_letter_status(stage: &str, reason: String) -> IngestionStatus {
        IngestionStatus::DeadLettered {
            stage: stage.to_owned(),
            reason,
        }
    }

    /// The full serial stage sequence: parallel-safe prepare followed
    /// immediately by the ordered commit (used by the inline path and
    /// dead-letter replay; the worker pool calls the halves directly).
    fn run_stages(&self, job: &Job) -> IngestionStatus {
        let prepared = self.prepare_job(job);
        self.commit_outcome(job, prepared)
    }

    /// The parallel *prepare* phase: decrypt → validate → malware scan
    /// → de-identify + anonymization verification. Touches no shared
    /// mutable platform state beyond this upload's own status entry (and
    /// the commutative retry/stats counters inside [`Self::stage_guard`]),
    /// so any number of workers may run it concurrently.
    fn prepare_job(&self, job: &Job) -> Prepared {
        let inst = self.instruments();
        // Stage timings feed the `ingest.stage.*_wall_ns` histograms,
        // which deliberately measure wall time (pipeline overhead), not
        // simulated latency — sim costs are charged via the DES clock.
        // hc-lint: allow(det-wallclock)
        let mut stage_start = std::time::Instant::now();
        // Records the wall time of stage `idx` and restarts the stopwatch.
        let mark = |idx: usize, start: &mut std::time::Instant| {
            if let Some(inst) = &inst {
                // idx is a STAGE_NAMES index; the histogram Vec mirrors it.
                inst.stage_wall[idx].record(start.elapsed().as_nanos() as u64); // hc-lint: allow(panic-index)
            }
            // hc-lint: allow(det-wallclock) — wall-clock stopwatch restart (see above)
            *start = std::time::Instant::now();
        };

        // 1. Decrypt + integrity/authenticity verification.
        self.set_status(job.id, IngestionStatus::Decrypting);
        if let Err(reason) = self.stage_guard(fault_points::DECRYPT) {
            return Prepared::DeadLettered {
                stage: "decrypt".to_owned(),
                reason,
            };
        }
        let ingest = Principal::Service("ingest".into());
        let bytes = match self.shared.kms.open(
            &ingest,
            job.credential.key,
            &job.sealed,
            &job.credential.patient.as_u128().to_le_bytes(),
        ) {
            Ok(b) => b,
            Err(e) => {
                return Prepared::Rejected {
                    stage: "decrypt".to_owned(),
                    reason: e.to_string(),
                    counter: RejectCounter::Integrity,
                    malware_tx: None,
                }
            }
        };
        mark(0, &mut stage_start);

        // 2. Validate / curate.
        self.set_status(job.id, IngestionStatus::Validating);
        if let Err(reason) = self.stage_guard(fault_points::VALIDATE) {
            return Prepared::DeadLettered {
                stage: "validate".to_owned(),
                reason,
            };
        }
        let bundle = match Bundle::from_bytes(&bytes) {
            Ok(b) => b,
            Err(e) => {
                // A payload that decrypts cleanly but cannot even be
                // parsed is a poison message: with resilience on it is
                // parked for triage instead of silently dropped.
                if self.resilience.lock().is_some() {
                    self.stats.lock().rejected_validation += 1;
                    return Prepared::DeadLettered {
                        stage: "validate".to_owned(),
                        reason: format!("malformed bundle: {e}"),
                    };
                }
                return Prepared::Rejected {
                    stage: "validate".to_owned(),
                    reason: format!("malformed bundle: {e}"),
                    counter: RejectCounter::Validation,
                    malware_tx: None,
                };
            }
        };
        let report = self.validator.validate_bundle(&bundle);
        if !report.is_valid() {
            let first = report
                .issues
                .first()
                .map(|i| i.message.clone())
                .unwrap_or_default();
            return Prepared::Rejected {
                stage: "validate".to_owned(),
                reason: first,
                counter: RejectCounter::Validation,
                malware_tx: None,
            };
        }
        mark(1, &mut stage_start);

        // 3. Malware filtration.
        self.set_status(job.id, IngestionStatus::Scanning);
        if let Err(reason) = self.stage_guard(fault_points::SCAN) {
            return Prepared::DeadLettered {
                stage: "malware-scan".to_owned(),
                reason,
            };
        }
        if let Some(detection) = self.scanner.scan(&bytes) {
            // "update the blockchain with the information that the
            // corresponding record … contains malware". The transaction
            // is built here but submitted by the ordered commit phase so
            // the malware channel's history is worker-count independent.
            let payload = format!(
                "scanner={};record={};offset={}",
                detection.signature_name, job.id, detection.offset
            );
            let clock = SimClock::new();
            let tx = Transaction {
                id: hc_common::id::TxId::from_raw(job.id.as_u128()),
                channel: "malware".into(),
                kind: "malware-detected".into(),
                payload: payload.into_bytes(),
                submitter: "malware-filter".into(),
                timestamp: clock.now(),
            };
            return Prepared::Rejected {
                stage: "malware-scan".to_owned(),
                reason: format!("signature {}", detection.signature_name),
                counter: RejectCounter::Malware,
                malware_tx: Some(tx),
            };
        }
        mark(2, &mut stage_start);

        // 4. De-identify + anonymization verification (stage index 4;
        // the consent stage, index 3, runs in the commit phase).
        self.set_status(job.id, IngestionStatus::DeIdentifying);
        if let Err(reason) = self.stage_guard(fault_points::DEID) {
            return Prepared::DeadLettered {
                stage: "de-identify".to_owned(),
                reason,
            };
        }
        let deidentified = deidentify_bundle(
            &bundle,
            &self.deid,
            &self.shared.study.as_u128().to_le_bytes(),
        );
        let mut violations = Vec::new();
        for resource in &deidentified.bundle {
            violations.extend(scan_resource_for_phi(resource));
        }
        mark(4, &mut stage_start);

        let consents = bundle
            .entries
            .iter()
            .filter_map(|resource| match resource {
                Resource::Consent(c) if c.study == self.shared.study_name => {
                    Some((c.study.clone(), c.granted))
                }
                _ => None,
            })
            .collect();
        let deid_bytes = deidentified.bundle.to_bytes();
        let data_hash = sha256::hash(&deid_bytes);
        Prepared::Ready(Box::new(ReadyJob {
            consents,
            deid_bytes,
            data_hash,
            reidentification: Arc::new(
                deidentified
                    .pseudonyms
                    .into_iter()
                    .map(|(original, pseudonym)| (pseudonym, original))
                    .collect(),
            ),
            violations,
        }))
    }

    /// The ordered half of the pipeline: counts prepare-phase
    /// rejections, posts malware detections to the blockchain, and runs
    /// the commit stages for jobs that are ready. Must be called in
    /// submission order for deterministic output.
    fn commit_outcome(&self, job: &Job, prepared: Prepared) -> IngestionStatus {
        match prepared {
            Prepared::Ready(ready) => self.commit_prepared(job, *ready),
            Prepared::Rejected {
                stage,
                reason,
                counter,
                malware_tx,
            } => {
                {
                    let mut stats = self.stats.lock();
                    match counter {
                        RejectCounter::Integrity => stats.rejected_integrity += 1,
                        RejectCounter::Validation => stats.rejected_validation += 1,
                        RejectCounter::Malware => stats.rejected_malware += 1,
                    }
                }
                if let Some(tx) = malware_tx {
                    // Committed at once when the ledger is reachable; a
                    // partition leaves it queued for the next flush.
                    let mut provenance = self.shared.provenance.lock();
                    let _ = provenance.enqueue(tx).and_then(|()| provenance.flush());
                }
                self.reject(&stage, reason)
            }
            Prepared::DeadLettered { stage, reason } => {
                Self::dead_letter_status(&stage, reason)
            }
        }
    }

    /// The serialized *commit* phase: consent apply/check →
    /// encrypt-at-rest + data-lake write → provenance anchoring. All
    /// consent registry mutations, record-key RNG draws, reference-id
    /// assignment and ledger anchors happen here, in submission order.
    fn commit_prepared(&self, job: &Job, ready: ReadyJob) -> IngestionStatus {
        let inst = self.instruments();
        // Commit-stage timings; wall-clock by design (see prepare_job).
        // hc-lint: allow(det-wallclock)
        let mut stage_start = std::time::Instant::now();
        let mark = |idx: usize, start: &mut std::time::Instant| {
            if let Some(inst) = &inst {
                // idx is a STAGE_NAMES index; the histogram Vec mirrors it.
                inst.stage_wall[idx].record(start.elapsed().as_nanos() as u64); // hc-lint: allow(panic-index)
            }
            // hc-lint: allow(det-wallclock) — wall-clock stopwatch restart (see above)
            *start = std::time::Instant::now();
        };

        // 5. Consent: apply in-bundle consents, then verify.
        self.set_status(job.id, IngestionStatus::CheckingConsent);
        if let Err(reason) = self.stage_guard(fault_points::CONSENT) {
            return Self::dead_letter_status("consent", reason);
        }
        {
            // All of a bundle's consent changes must land atomically —
            // a reader between grant and revoke would see a half-applied
            // bundle; the loop is bounded by the bundle's resources.
            // hc-lint: allow(lock-held-long)
            let mut consent = self.shared.consent.lock();
            for (study, granted) in &ready.consents {
                let action = if *granted {
                    consent.grant(job.credential.patient, self.shared.study, ConsentScope::FULL);
                    ProvenanceAction::ConsentGranted
                } else {
                    consent.revoke(job.credential.patient, self.shared.study);
                    ProvenanceAction::ConsentRevoked
                };
                // Consent provenance "as required by GDPR and
                // HIPAA" (§IV-A) — anchored before the data is.
                self.anchor(ProvenanceEvent {
                    record: ReferenceId::from_raw(job.id.as_u128()),
                    data_hash: sha256::hash(study.as_bytes()),
                    action,
                    // `credential.patient` is the pseudonymous
                    // PatientId (an opaque 128-bit id), not an
                    // identified Patient record.
                    // hc-lint: allow(phi-fmt-leak, taint-phi-to-sink)
                    actor: format!("device:{}", job.credential.patient),
                    detail: format!("study={study}"),
                });
            }
            if !consent.allows_analytics(job.credential.patient, self.shared.study) {
                drop(consent);
                self.stats.lock().rejected_consent += 1;
                return self.reject(
                    "consent",
                    format!(
                        "patient has not consented to study `{}`",
                        self.shared.study_name
                    ),
                );
            }
        }
        mark(3, &mut stage_start);

        // Anonymization verdict (computed during prepare) reported after
        // the consent check, preserving the serial rejection priority.
        if !ready.violations.is_empty() {
            self.stats.lock().rejected_anonymization += 1;
            return self.reject("anonymization-verification", ready.violations.join("; "));
        }

        // 6. Encrypt at rest under a fresh per-record key and store.
        if let Err(reason) = self.stage_guard(fault_points::STORE) {
            return Self::dead_letter_status("store", reason);
        }
        let ingest = Principal::Service("ingest".into());
        let deid_bytes = ready.deid_bytes;
        let data_hash = ready.data_hash;
        let record_key = {
            let mut rng = self.rng.lock();
            self.shared.kms.create_key(
                &mut *rng,
                &[
                    Principal::Service("ingest".into()),
                    Principal::Service("export".into()),
                ],
            )
        };
        let sealed_at_rest = match self.shared.kms.seal(&ingest, record_key, &deid_bytes, b"at-rest") {
            Ok(s) => s,
            Err(e) => return self.reject("store", e.to_string()),
        };
        let at_rest_bytes = match serde_json::to_vec(&sealed_at_rest) {
            Ok(b) => b,
            Err(e) => return self.reject("store", e.to_string()),
        };
        // Envelope-encryption provenance travels with the stored version:
        // `enc` names the scheme and `dek` the wrapping KMS key, so the
        // posture scanner can verify every PHI record is sealed under a
        // *live* key without touching payload bytes.
        let dek_tag = record_key.as_u128().to_string();
        let reference = {
            let mut rng = self.rng.lock();
            let mut lake = self.shared.lake.lock();
            let reference = lake.put(
                &mut *rng,
                at_rest_bytes,
                &[
                    ("study", self.shared.study_name.as_str()),
                    ("kind", "bundle"),
                    ("enc", "envelope-v2"),
                    ("dek", dek_tag.as_str()),
                ],
            );
            lake.map_identity(reference, job.credential.patient);
            reference
        };
        self.shared.record_keys.lock().insert(reference, record_key);
        self.shared
            .pseudonyms
            .lock()
            .insert(reference, ready.reidentification);
        mark(5, &mut stage_start);

        // 7. Anchor provenance. A flush that fails under a ledger
        // partition keeps its batch in the provenance queue, and a later
        // record or flush commits it, so a reachable ledger is not a
        // prerequisite for accepting patient data.
        self.anchor(ProvenanceEvent {
            record: reference,
            data_hash,
            action: ProvenanceAction::Ingested,
            actor: "ingest-service".into(),
            detail: format!("study={}", self.shared.study_name),
        });
        self.anchor(ProvenanceEvent {
            record: reference,
            data_hash,
            action: ProvenanceAction::Anonymized,
            actor: "deid-service".into(),
            detail: String::new(),
        });
        mark(6, &mut stage_start);

        self.stats.lock().stored += 1;
        IngestionStatus::Stored {
            references: vec![reference],
        }
    }

    /// Right-to-forget: purges and crypto-shreds every record of a
    /// patient, anchoring `deleted` events, and drops the patient's
    /// records from the export read cache.
    ///
    /// Returns the number of records destroyed.
    pub fn forget_patient(&self, patient: PatientId) -> usize {
        let references = self.shared.lake.lock().references_of(patient);
        for &reference in &references {
            {
                let mut lake = self.shared.lake.lock();
                let _ = lake.tombstone(reference);
                let _ = lake.purge(reference);
            }
            if let Some(key) = self.shared.record_keys.lock().remove(&reference) {
                self.shared.kms.shred(key);
            }
            self.shared.pseudonyms.lock().remove(&reference);
            let mut provenance = self.shared.provenance.lock();
            let _ = provenance.record(&ProvenanceEvent {
                record: reference,
                data_hash: sha256::hash(b""),
                action: ProvenanceAction::Deleted,
                actor: "gdpr-service".into(),
                detail: "right-to-forget".into(),
            });
        }
        self.shared.opened.forget(&references);
        references.len()
    }

    /// The (reference, DEK id) of every record the export read cache holds
    /// opened, sorted: de-identified plaintext the posture scanner audits
    /// as PHI at rest.
    pub fn export_cache_entries(&self) -> Vec<(ReferenceId, KeyId)> {
        self.shared.opened.entries()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PipelineStats {
        *self.stats.lock()
    }

    /// Creates the export service sharing this pipeline's state.
    pub fn export_service(&self) -> crate::export::ExportService {
        crate::export::ExportService::new(Arc::clone(&self.shared))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hc_fhir::bundle::BundleKind;
    use hc_fhir::resource::{Consent, Gender, Observation, Patient};
    use hc_fhir::types::{CodeableConcept, Quantity, SimDate};
    use hc_ledger::audit::AuditorView;
    use hc_ledger::chain::Ledger;
    use hc_ledger::consensus::PipelinedCluster;
    use hc_ledger::policy::{MalwarePolicy, ProvenancePolicy};

    pub(crate) fn build_pipeline(seed: u64) -> IngestionPipeline {
        let clock = SimClock::new();
        let mut rng = hc_common::rng::seeded(seed);
        let kms = Arc::new(KeyManagementSystem::new(&mut rng));
        let lake = Arc::new(Mutex::new(DataLake::new(clock.clone())));
        let consent = Arc::new(Mutex::new(ConsentRegistry::new(clock.clone())));
        let cluster = PipelinedCluster::new(4, 1, clock).unwrap();
        let mut ledger = Ledger::new(cluster);
        ledger.install_policy(Box::new(ProvenancePolicy));
        ledger.install_policy(Box::new(MalwarePolicy));
        let provenance = Arc::new(Mutex::new(ProvenanceNetwork::new(ledger, 1)));
        IngestionPipeline::new(
            PipelineDeps {
                kms,
                lake,
                consent,
                provenance,
            },
            GroupId::from_raw(1),
            "diabetes-rwe",
            seed,
        )
    }

    fn patient_bundle(with_consent: bool) -> Bundle {
        let mut entries = vec![
            Resource::Patient(
                Patient::builder("p1")
                    .name("Doe", "Jane")
                    .gender(Gender::Female)
                    .birth_year(1970)
                    .phone("555-0100")
                    .build(),
            ),
            Resource::Observation(Observation {
                id: "o1".into(),
                subject: "p1".into(),
                code: CodeableConcept::hba1c(),
                value: Quantity::new(7.1, "%"),
                effective: SimDate(200),
            }),
        ];
        if with_consent {
            entries.push(Resource::Consent(Consent {
                id: "c1".into(),
                subject: "p1".into(),
                study: "diabetes-rwe".into(),
                granted: true,
            }));
        }
        Bundle::new(BundleKind::Transaction, entries)
    }

    #[test]
    fn sharing_signer_is_built_on_first_use_from_stream_910() {
        let pipeline = build_pipeline(31);
        assert!(
            pipeline.shared.share_signer.get().is_none(),
            "boot builds no signer"
        );
        let mut rng = hc_common::rng::seeded_stream(31, 910);
        let expected = hc_crypto::ots::MerkleSigner::generate(&mut rng, 6).public_key();
        assert_eq!(pipeline.export_service().share_verification_key(), expected);
        assert!(pipeline.shared.share_signer.get().is_some());
    }

    #[test]
    fn happy_path_stores_and_anchors_provenance() {
        let pipeline = build_pipeline(1);
        let credential = pipeline.register_device(PatientId::from_raw(5));
        let sealed = pipeline.seal_upload(&credential, &patient_bundle(true)).unwrap();
        let url = pipeline.submit(credential, sealed);
        assert_eq!(pipeline.status(url), Some(IngestionStatus::Received));
        assert_eq!(pipeline.process_all(), 1);
        let status = pipeline.status(url).unwrap();
        let IngestionStatus::Stored { references } = status else {
            panic!("expected Stored, got {status:?}");
        };
        assert_eq!(references.len(), 1);
        let provenance = pipeline.shared.provenance.lock();
        let history = AuditorView::new(provenance.ledger()).record_history(references[0]);
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].action, ProvenanceAction::Ingested);
        assert_eq!(history[1].action, ProvenanceAction::Anonymized);
        assert_eq!(pipeline.stats().stored, 1);
    }

    #[test]
    fn tampered_upload_rejected_at_decrypt() {
        let pipeline = build_pipeline(2);
        let credential = pipeline.register_device(PatientId::from_raw(5));
        let mut sealed = pipeline.seal_upload(&credential, &patient_bundle(true)).unwrap();
        sealed.ciphertext[0] ^= 0xff;
        let url = pipeline.submit(credential, sealed);
        pipeline.process_all();
        let status = pipeline.status(url).unwrap();
        assert!(matches!(status, IngestionStatus::Rejected { ref stage, .. } if stage == "decrypt"));
        assert_eq!(pipeline.stats().rejected_integrity, 1);
    }

    #[test]
    fn invalid_bundle_rejected() {
        let pipeline = build_pipeline(3);
        let credential = pipeline.register_device(PatientId::from_raw(5));
        // Observation with dangling subject (strict validator).
        let bad = Bundle::new(
            BundleKind::Transaction,
            vec![Resource::Observation(Observation {
                id: "o1".into(),
                subject: "ghost".into(),
                code: CodeableConcept::hba1c(),
                value: Quantity::new(7.1, "%"),
                effective: SimDate(1),
            })],
        );
        let sealed = pipeline.seal_upload(&credential, &bad).unwrap();
        let url = pipeline.submit(credential, sealed);
        pipeline.process_all();
        assert!(matches!(
            pipeline.status(url).unwrap(),
            IngestionStatus::Rejected { ref stage, .. } if stage == "validate"
        ));
    }

    #[test]
    fn malware_rejected_and_posted_to_chain() {
        let pipeline = build_pipeline(4);
        let credential = pipeline.register_device(PatientId::from_raw(5));
        let mut bundle = patient_bundle(true);
        // Hide the signature inside a field value.
        if let Resource::Patient(p) = &mut bundle.entries[0] {
            p.name = Some(hc_fhir::types::HumanName::new(
                String::from_utf8_lossy(crate::scanner::TEST_SIGNATURE).to_string(),
                "Jane",
            ));
        }
        let sealed = pipeline.seal_upload(&credential, &bundle).unwrap();
        let url = pipeline.submit(credential, sealed);
        pipeline.process_all();
        assert!(matches!(
            pipeline.status(url).unwrap(),
            IngestionStatus::Rejected { ref stage, .. } if stage == "malware-scan"
        ));
        let provenance = pipeline.shared.provenance.lock();
        let malware_txs = provenance.ledger().channel_transactions("malware");
        assert_eq!(malware_txs.len(), 1);
        assert!(String::from_utf8_lossy(&malware_txs[0].payload).contains("scanner="));
    }

    #[test]
    fn missing_consent_rejected() {
        let pipeline = build_pipeline(5);
        let credential = pipeline.register_device(PatientId::from_raw(5));
        let sealed = pipeline.seal_upload(&credential, &patient_bundle(false)).unwrap();
        let url = pipeline.submit(credential, sealed);
        pipeline.process_all();
        assert!(matches!(
            pipeline.status(url).unwrap(),
            IngestionStatus::Rejected { ref stage, .. } if stage == "consent"
        ));
        assert_eq!(pipeline.stats().rejected_consent, 1);
    }

    #[test]
    fn consent_persists_across_uploads() {
        let pipeline = build_pipeline(6);
        let credential = pipeline.register_device(PatientId::from_raw(5));
        // First upload carries consent; second does not need it.
        let s1 = pipeline.seal_upload(&credential, &patient_bundle(true)).unwrap();
        let u1 = pipeline.submit(credential, s1);
        pipeline.process_all();
        assert!(pipeline.status(u1).unwrap().is_stored());
        let s2 = pipeline.seal_upload(&credential, &patient_bundle(false)).unwrap();
        let u2 = pipeline.submit(credential, s2);
        pipeline.process_all();
        assert!(pipeline.status(u2).unwrap().is_stored());
    }

    #[test]
    fn stored_record_is_deidentified_and_encrypted() {
        let pipeline = build_pipeline(7);
        let credential = pipeline.register_device(PatientId::from_raw(5));
        let sealed = pipeline.seal_upload(&credential, &patient_bundle(true)).unwrap();
        let url = pipeline.submit(credential, sealed);
        pipeline.process_all();
        let IngestionStatus::Stored { references } = pipeline.status(url).unwrap() else {
            panic!("stored");
        };
        let raw = {
            let mut lake = pipeline.shared.lake.lock();
            lake.get_latest(references[0]).unwrap().data.clone()
        };
        // At-rest bytes are a sealed envelope, not plaintext PHI.
        let as_text = String::from_utf8_lossy(&raw);
        assert!(!as_text.contains("Jane"), "PHI must not be at rest in clear");
        assert!(Bundle::from_bytes(&raw).is_err(), "not a plaintext bundle");
    }

    #[test]
    fn forget_patient_destroys_records() {
        let pipeline = build_pipeline(8);
        let patient = PatientId::from_raw(5);
        let credential = pipeline.register_device(patient);
        let sealed = pipeline.seal_upload(&credential, &patient_bundle(true)).unwrap();
        let url = pipeline.submit(credential, sealed);
        pipeline.process_all();
        let IngestionStatus::Stored { references } = pipeline.status(url).unwrap() else {
            panic!("stored");
        };
        assert_eq!(pipeline.forget_patient(patient), 1);
        // Record gone from the lake, key shredded, deletion anchored.
        {
            let mut lake = pipeline.shared.lake.lock();
            assert!(lake.get_latest(references[0]).is_err());
        }
        let provenance = pipeline.shared.provenance.lock();
        let history = AuditorView::new(provenance.ledger()).record_history(references[0]);
        assert_eq!(history.last().unwrap().action, ProvenanceAction::Deleted);
    }

    #[test]
    fn parallel_workers_drain_queue() {
        let pipeline = build_pipeline(9);
        let patient = PatientId::from_raw(5);
        let credential = pipeline.register_device(patient);
        for _ in 0..20 {
            let sealed = pipeline.seal_upload(&credential, &patient_bundle(true)).unwrap();
            pipeline.submit(credential, sealed);
        }
        let processed = pipeline.process_all_parallel(4);
        assert_eq!(processed, 20);
        assert_eq!(pipeline.stats().stored, 20);
    }

    #[test]
    fn transient_stage_fault_is_retried_to_success() {
        use hc_common::fault::FaultSpec;
        let pipeline = build_pipeline(11);
        let clock = SimClock::new();
        let injector = hc_common::fault::FaultInjector::new(clock.clone(), 11);
        // Two transient hits, well inside the 4-attempt budget.
        injector.schedule(
            fault_points::DECRYPT,
            FaultSpec::always(hc_common::fault::FaultKind::TransientError).limit(2),
        );
        pipeline.enable_resilience(clock, injector, 11);
        let credential = pipeline.register_device(PatientId::from_raw(5));
        let sealed = pipeline.seal_upload(&credential, &patient_bundle(true)).unwrap();
        let url = pipeline.submit(credential, sealed);
        pipeline.process_all();
        assert!(pipeline.status(url).unwrap().is_stored());
        assert_eq!(pipeline.stats().retried, 2);
        assert_eq!(pipeline.stats().dead_lettered, 0);
    }

    #[test]
    fn poison_upload_dead_lettered_and_replayable() {
        let pipeline = build_pipeline(12);
        let clock = SimClock::new();
        let injector = hc_common::fault::FaultInjector::disabled();
        pipeline.enable_resilience(clock, injector, 12);
        let credential = pipeline.register_device(PatientId::from_raw(5));
        // Valid upload + poison (unparseable) upload.
        let good = pipeline.seal_upload(&credential, &patient_bundle(true)).unwrap();
        let poison = pipeline
            .seal_raw_upload(&credential, b"{not a bundle")
            .unwrap();
        let good_url = pipeline.submit(credential, good);
        let poison_url = pipeline.submit(credential, poison);
        pipeline.process_all();
        assert!(pipeline.status(good_url).unwrap().is_stored());
        assert!(matches!(
            pipeline.status(poison_url).unwrap(),
            IngestionStatus::DeadLettered { ref stage, .. } if stage == "validate"
        ));
        assert_eq!(pipeline.dead_letters().len(), 1);
        // Replay without fixing anything: the poison stays parked.
        let report = pipeline.replay_dead_letters();
        assert_eq!(report.replayed, 0);
        assert_eq!(report.requeued, 1);
        assert_eq!(pipeline.dead_letters().len(), 1);
    }

    #[test]
    fn ledger_partition_leaves_anchors_pending_until_the_heal() {
        use hc_common::fault::{FaultKind, FaultSpec};
        use hc_ledger::consensus::FAULT_PIPELINE_PARTITION;
        let pipeline = build_pipeline(13);
        let injector = hc_common::fault::FaultInjector::new(SimClock::new(), 13);
        injector.schedule(
            FAULT_PIPELINE_PARTITION,
            FaultSpec::always(FaultKind::NetworkPartition),
        );
        pipeline
            .shared
            .provenance
            .lock()
            .ledger_mut()
            .cluster_mut()
            .attach_faults(injector.clone());
        let credential = pipeline.register_device(PatientId::from_raw(5));
        let sealed = pipeline.seal_upload(&credential, &patient_bundle(true)).unwrap();
        let url = pipeline.submit(credential, sealed);
        pipeline.process_all();
        // Data accepted through the partition; nothing anchored yet.
        let IngestionStatus::Stored { references } = pipeline.status(url).unwrap() else {
            panic!("stored despite partition");
        };
        let mut provenance = pipeline.shared.provenance.lock();
        // consent + ingested + anonymized
        assert_eq!(provenance.pending_count(), 3);
        assert!(provenance.is_stalled());
        assert!(AuditorView::new(provenance.ledger())
            .record_history(references[0])
            .is_empty());
        // Heal: the next flush commits every pending event.
        injector.heal(FAULT_PIPELINE_PARTITION);
        provenance.flush().unwrap();
        assert_eq!(provenance.pending_count(), 0);
        let history = AuditorView::new(provenance.ledger()).record_history(references[0]);
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].action, ProvenanceAction::Ingested);
        assert_eq!(history[1].action, ProvenanceAction::Anonymized);
    }

    #[test]
    fn foreign_device_cannot_use_anothers_key() {
        let pipeline = build_pipeline(10);
        let credential = pipeline.register_device(PatientId::from_raw(5));
        // A different patient's device tries to seal with this key.
        let thief = DeviceCredential {
            patient: PatientId::from_raw(6),
            key: credential.key,
        };
        assert!(pipeline.seal_upload(&thief, &patient_bundle(true)).is_err());
    }
}
