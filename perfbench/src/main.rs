//! Platform benchmark: one workload through the platform facade.
//!
//! Boots `HealthCloudPlatform::bootstrap(PlatformConfig::default())` as
//! shipped (telemetry on), preloads a seeded EMR cohort through the real
//! ingestion pipeline, then drives one single-threaded, closed-loop,
//! fixed-work workload through the facade's public calls and checks every
//! output. A run repeats this `--rounds` times, each round on a freshly
//! booted platform fed the same seeded inputs, so every round does the same
//! work on the same state. The last stdout line is one JSON object;
//! `perfbench/run.py` turns it into the benchmark's result line.
//!
//! ```text
//! hc-perfbench --workload <upload|clinic-read> --seed <n> --ops <n>
//!              --rounds <n> [--trace]
//! ```
//!
//! With `--trace` the same op stream runs with spans around each facade
//! call, per-op reads of the ingest stage histograms, probes that replay a
//! clinic read's storage, crypto and FHIR calls on the same record, and a
//! provenance-history query of the read record every `AUDIT_PROBE_EVERY`
//! reads. None of these change the platform's state or its simulated clock
//! schedule, so the traced run's output digest equals the untraced run's.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hc_access::identity::AuthToken;
use hc_access::model::{Action, Permission, ResourceKind};
use hc_common::clock::{SimDuration, SimInstant};
use hc_common::conc::zipf_key;
use hc_common::id::{KeyId, PatientId, Principal, ReferenceId};
use hc_common::rng::{seeded_stream, split};
use hc_core::platform::{HealthCloudPlatform, PlatformConfig};
use hc_crypto::aead::Sealed;
use hc_crypto::sha256::Sha256;
use hc_fhir::bundle::Bundle;
use hc_fhir::resource::{Consent, Resource};
use hc_ingest::status::IngestionStatus;
use hc_kb::emr::{EmrCohort, EmrConfig};
use hc_ledger::chain::ChainStatus;
use hc_ledger::provenance::ProvenanceAction;
use rand::rngs::StdRng;
use rand::Rng;
use serde::Serialize;

/// Patients preloaded (one consented bundle each) before every workload.
const PRELOAD_PATIENTS: usize = 1000;
/// Clinicians registered at set-up; reads rotate over them.
const USERS_PER_ROLE: usize = 32;
/// HbA1c observations in a routine device upload (~2.4 KB bundle).
const SMALL_OBSERVATIONS: usize = 10;
/// Observation days drawn for a lab-history upload; same-day draws merge,
/// leaving ~350 observations (~72 KB bundle).
const LARGE_OBSERVATIONS: usize = 400;
/// One upload in every `LARGE_EVERY` is a lab-history bundle.
const LARGE_EVERY: usize = 16;
/// Modelled think time between requests. Reads are issued on a fixed
/// simulated schedule of one request per slot, rotating over the
/// clinicians, so each asks once per `USERS_PER_ROLE` slots (320 ms): the
/// gateway's per-user token buckets (100/s, refilled on the platform clock)
/// never run dry, the hour-long login tokens outlive 360 000 requests, and
/// anything a traced run does inside a slot cannot shift the next
/// request's simulated timestamps.
const THINK_TIME: SimDuration = SimDuration::from_millis(10);
/// A traced clinic-read run times one provenance-history query (the
/// auditor's ledger read path) of the read record every this many reads.
/// Each query decodes every provenance transaction on the chain, so the
/// probes sample the ledger read cost as the chain grows over a round.
const AUDIT_PROBE_EVERY: usize = 1000;
/// Stage names of the `ingest.stage.<name>.wall_ns` histograms.
const STAGES: [&str; 7] = [
    "decrypt",
    "validate",
    "malware_scan",
    "consent",
    "deid",
    "store",
    "anchor",
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Upload,
    ClinicRead,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "upload" => Some(Workload::Upload),
            "clinic-read" => Some(Workload::ClinicRead),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Upload => "upload",
            Workload::ClinicRead => "clinic-read",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    /// Ops per round.
    ops: usize,
    rounds: usize,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut ops = None;
    let mut rounds = 1;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--trace" {
            trace = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--ops" => ops = Some(value.parse().map_err(|e| format!("--ops: {e}"))?),
            "--rounds" => rounds = value.parse().map_err(|e| format!("--rounds: {e}"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let ops: usize = ops.ok_or("--ops is required")?;
    if ops == 0 || rounds == 0 {
        return Err("--ops and --rounds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        ops,
        rounds,
        trace,
    })
}

/// The `upload` workload's op stream: which cohort each upload's bundle
/// comes from, and the patient's index in it.
struct UploadPlan {
    small: EmrCohort,
    large: EmrCohort,
    /// Per op: whether it is a lab-history upload, and the cohort index.
    ops: Vec<(bool, usize)>,
}

impl UploadPlan {
    /// The `k`-th upload's bundle, and whether it is a lab history. It is
    /// built just before its op (outside the op's timing), so the run holds
    /// one upload bundle at a time and `peak_rss_mb` measures the platform,
    /// not the benchmark's inputs.
    fn bundle(&self, k: usize) -> (Bundle, bool) {
        let (large, index) = self.ops[k];
        let cohort = if large { &self.large } else { &self.small };
        (consented_bundle(cohort, index), large)
    }
}

/// Everything the benchmark feeds the platform, generated from the seed
/// before any set-up clock starts.
struct Inputs {
    preload: Vec<Bundle>,
    preload_bytes: u64,
    uploads: Option<UploadPlan>,
    /// Preloaded patient read by each clinic-read op.
    targets: Vec<usize>,
    /// Seeded order in which reads rotate over the clinicians.
    rotation: Vec<usize>,
}

fn shuffled(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// A cohort patient's bundle with an in-bundle consent to the default
/// study, so ingestion grants consent and anchors a consent event.
fn consented_bundle(cohort: &EmrCohort, index: usize) -> Bundle {
    let mut bundle = cohort.patient_bundle(index);
    let subject = format!("emr-p{index}");
    bundle.entries.push(Resource::Consent(Consent {
        id: format!("{subject}-consent"),
        subject,
        study: PlatformConfig::default().study_name,
        granted: true,
    }));
    bundle
}

fn cohort(patients: usize, observations: usize, exposures: f64, seed: u64) -> EmrCohort {
    EmrCohort::generate(
        EmrConfig {
            n_patients: patients,
            measurements_per_patient: observations,
            exposures_per_patient: exposures,
            ..EmrConfig::default()
        },
        seed,
    )
}

fn generate_inputs(workload: Workload, seed: u64, ops: usize) -> Inputs {
    let preload_cohort = cohort(PRELOAD_PATIENTS, SMALL_OBSERVATIONS, 3.0, split(seed, 1));
    let preload: Vec<Bundle> = (0..PRELOAD_PATIENTS)
        .map(|i| consented_bundle(&preload_cohort, i))
        .collect();
    let preload_bytes = preload.iter().map(|b| b.to_bytes().len() as u64).sum();
    let mut rng = seeded_stream(seed, 4);
    let rotation = shuffled(&mut rng, USERS_PER_ROLE);
    let mut uploads = None;
    let mut targets = Vec::new();
    match workload {
        Workload::Upload => {
            let mut plan = Vec::with_capacity(ops);
            let (mut small, mut large) = (0, 0);
            for block in 0..ops.div_ceil(LARGE_EVERY) {
                let large_at = rng.gen_range(0..LARGE_EVERY);
                for slot in 0..LARGE_EVERY.min(ops - block * LARGE_EVERY) {
                    if slot == large_at {
                        plan.push((true, large));
                        large += 1;
                    } else {
                        plan.push((false, small));
                        small += 1;
                    }
                }
            }
            uploads = Some(UploadPlan {
                small: cohort(small, SMALL_OBSERVATIONS, 0.0, split(seed, 2)),
                large: cohort(large, LARGE_OBSERVATIONS, 0.0, split(seed, 3)),
                ops: plan,
            });
        }
        Workload::ClinicRead => {
            // Zipf-skewed popularity over a seeded ranking of the cohort.
            let ranking = shuffled(&mut rng, PRELOAD_PATIENTS);
            targets = (0..ops)
                .map(|_| ranking[zipf_key(&mut rng, PRELOAD_PATIENTS)])
                .collect();
        }
    }
    Inputs {
        preload,
        preload_bytes,
        uploads,
        targets,
        rotation,
    }
}

/// A booted, preloaded platform and the handles the workloads use.
struct World {
    platform: HealthCloudPlatform,
    /// The stored record of each preloaded patient.
    references: Vec<ReferenceId>,
    clinicians: Vec<AuthToken>,
    verify_chain: Duration,
}

/// The platform id of the `index`-th patient: the preloaded cohort comes
/// first, then one new patient per upload op.
fn patient_id(index: usize) -> PatientId {
    PatientId::from_raw(index as u128 + 1)
}

/// Boots the platform, uploads the cohort through the ingestion pipeline,
/// registers the clinicians, and ends with a verified ledger.
fn set_up(inputs: &Inputs) -> Result<World, String> {
    let platform = HealthCloudPlatform::bootstrap(PlatformConfig::default());
    let mut references = Vec::with_capacity(inputs.preload.len());
    for (i, bundle) in inputs.preload.iter().enumerate() {
        let device = platform.register_patient_device(patient_id(i));
        let url = platform
            .upload(&device, bundle)
            .map_err(|e| format!("preload upload {i}: {e}"))?;
        platform.process_ingestion();
        match platform.ingestion_status(url) {
            Some(IngestionStatus::Stored { references: r }) if r.len() == 1 => {
                references.push(r[0])
            }
            other => return Err(format!("preload upload {i} ended as {other:?}")),
        }
    }
    let clinicians = (0..USERS_PER_ROLE)
        .map(|i| {
            platform
                .register_user(&format!("clinician-{i}"), b"bench-secret", "clinician")
                .1
        })
        .collect();
    let started = Instant::now();
    let status = platform.verify_ledger();
    let verify_chain = started.elapsed();
    if status != ChainStatus::Valid {
        return Err(format!("ledger after preload: {status:?}"));
    }
    Ok(World {
        platform,
        references,
        clinicians,
        verify_chain,
    })
}

/// Wall time and call count per span name, for the traced run.
#[derive(Default)]
struct Spans {
    totals: BTreeMap<String, (Duration, u64)>,
}

impl Spans {
    fn add(&mut self, name: &str, elapsed: Duration) {
        let entry = self.totals.entry(name.to_owned()).or_default();
        entry.0 += elapsed;
        entry.1 += 1;
    }

    /// Mean microseconds per call, 0 when the span never ran.
    fn mean_us(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |(t, n)| t.as_secs_f64() * 1e6 / *n as f64)
    }

    /// Total microseconds spent in the span, spread over `ops` ops.
    fn per_op_us(&self, name: &str, ops: u64) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |(t, _)| t.as_secs_f64() * 1e6 / ops as f64)
    }

    /// Runs `f`, adding its wall time to `name`.
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add(name, started.elapsed());
        out
    }
}

/// What a traced run collects over all its rounds.
#[derive(Default)]
struct Trace {
    spans: Spans,
    /// Per bundle class (small, large): summed stage nanoseconds, uploads.
    stage_ns: [([u64; 7], u64); 2],
}

/// Runs `f`, adding its wall time to `name` when tracing.
fn span<T>(trace: &mut Option<Trace>, name: &str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some(trace) => trace.spans.time(name, f),
        None => f(),
    }
}

/// Platform-wide counts read at the end of set-up and the end of a round.
#[derive(Clone, Copy, Debug)]
struct Counts {
    events: u64,
    flush_failures: u64,
    height: u64,
    body_bytes: u64,
    kms_keys: u64,
    kms_audit: u64,
    gateway_audit: u64,
}

impl Counts {
    /// Growth since `before`, field by field.
    fn since(&self, before: &Counts) -> Counts {
        Counts {
            events: self.events - before.events,
            flush_failures: self.flush_failures - before.flush_failures,
            height: self.height - before.height,
            body_bytes: self.body_bytes - before.body_bytes,
            kms_keys: self.kms_keys - before.kms_keys,
            kms_audit: self.kms_audit - before.kms_audit,
            gateway_audit: self.gateway_audit - before.gateway_audit,
        }
    }
}

fn counts(platform: &HealthCloudPlatform) -> Counts {
    let (height, body_bytes) = {
        let provenance = platform.provenance.lock();
        (
            provenance.ledger().height(),
            provenance.ledger().retained_body_bytes(),
        )
    };
    let telemetry = platform.telemetry_snapshot();
    let counter = |name: &str| telemetry.counter(name).unwrap_or(0);
    Counts {
        events: counter("ledger.provenance.events"),
        flush_failures: counter("ledger.provenance.flush_failures"),
        height,
        body_bytes,
        kms_keys: platform.kms.key_table().len() as u64,
        kms_audit: platform.kms.audit_log().len() as u64,
        gateway_audit: platform.gateway.lock().audit_log().len() as u64,
    }
}

/// Sum of nanoseconds recorded so far in each ingest stage histogram.
fn stage_sums(platform: &HealthCloudPlatform) -> [u64; 7] {
    let mut sums = [0u64; 7];
    for (sum, stage) in sums.iter_mut().zip(STAGES) {
        let name = format!("ingest.stage.{stage}.wall_ns");
        *sum = platform.telemetry.histogram(&name).snapshot(&name).sum;
    }
    sums
}

/// What one round's op stream produced.
struct Outcome {
    latencies: Vec<Duration>,
    ok: usize,
    errors: usize,
    wrong: usize,
    denied: u64,
    stored_uploads: u64,
    /// Exports that returned records (each anchors one event per record).
    exports: u64,
    user_bytes: u64,
    kms_probe_opens: u64,
    digest: Sha256,
    first_failure: Option<String>,
}

impl Outcome {
    fn record(&mut self, result: Result<(), OpError>) {
        let message = match result {
            Ok(()) => {
                self.ok += 1;
                return;
            }
            Err(OpError::Failed(m)) => {
                self.errors += 1;
                m
            }
            Err(OpError::Wrong(m)) => {
                self.wrong += 1;
                m
            }
        };
        self.first_failure.get_or_insert(message);
    }
}

/// An op that returned an error (`Failed`) or a wrong output (`Wrong`).
enum OpError {
    Failed(String),
    Wrong(String),
}

fn measure(
    world: &World,
    inputs: &Inputs,
    workload: Workload,
    ops: usize,
    trace: &mut Option<Trace>,
) -> Outcome {
    let mut out = Outcome {
        latencies: Vec::with_capacity(ops),
        ok: 0,
        errors: 0,
        wrong: 0,
        denied: 0,
        stored_uploads: 0,
        exports: 0,
        user_bytes: 0,
        kms_probe_opens: 0,
        digest: Sha256::new(),
        first_failure: None,
    };
    let slot_base = world.platform.clock.now();
    for k in 0..ops {
        let result = match workload {
            Workload::Upload => {
                let plan = inputs.uploads.as_ref().expect("upload inputs");
                upload_op(world, plan, k, &mut out, trace)
            }
            Workload::ClinicRead => {
                advance_to_slot(world, slot_base, k);
                let token = &world.clinicians[inputs.rotation[k % USERS_PER_ROLE]];
                read_op(world, inputs, token, k, &mut out, trace)
            }
        };
        out.record(result);
    }
    out
}

fn advance_to_slot(world: &World, base: SimInstant, k: usize) {
    let offset = THINK_TIME.saturating_mul(k as u64 + 1);
    world.platform.clock.advance_to(base.saturating_add(offset));
}

fn upload_op(
    world: &World,
    plan: &UploadPlan,
    k: usize,
    out: &mut Outcome,
    trace: &mut Option<Trace>,
) -> Result<(), OpError> {
    let platform = &world.platform;
    let patient = patient_id(PRELOAD_PATIENTS + k);
    let (bundle, large) = plan.bundle(k);
    let bytes = bundle.to_bytes().len() as u64;
    let before = trace.is_some().then(|| stage_sums(platform));
    let started = Instant::now();
    let device = span(trace, "core.register_device", || {
        platform.register_patient_device(patient)
    });
    let url = span(trace, "core.client_seal", || {
        platform.upload(&device, &bundle)
    });
    let processed = span(trace, "core.process_ingestion", || {
        platform.process_ingestion()
    });
    let status = url
        .as_ref()
        .ok()
        .and_then(|url| platform.ingestion_status(*url));
    out.latencies.push(started.elapsed());
    if let (Some(trace), Some(before)) = (trace.as_mut(), before) {
        let after = stage_sums(platform);
        let class = &mut trace.stage_ns[usize::from(large)];
        for (sum, (a, b)) in class.0.iter_mut().zip(after.iter().zip(before)) {
            *sum += a - b;
        }
        class.1 += 1;
    }
    let url = url.map_err(|e| OpError::Failed(format!("upload {k}: {e}")))?;
    match status {
        Some(IngestionStatus::Stored { references }) if references.len() == 1 && processed == 1 => {
            out.stored_uploads += 1;
            out.user_bytes += bytes;
            out.digest.update(&url.0.as_u128().to_le_bytes());
            out.digest.update(&references[0].as_u128().to_le_bytes());
            Ok(())
        }
        other => Err(OpError::Wrong(format!(
            "upload {k} ended as {other:?} ({processed} processed)"
        ))),
    }
}

/// Logical ids of a bundle's resources, sorted.
fn sorted_ids(bundle: &Bundle) -> Vec<String> {
    let mut ids: Vec<String> = bundle.iter().map(|r| r.id().to_owned()).collect();
    ids.sort();
    ids
}

fn read_op(
    world: &World,
    inputs: &Inputs,
    token: &AuthToken,
    k: usize,
    out: &mut Outcome,
    trace: &mut Option<Trace>,
) -> Result<(), OpError> {
    let platform = &world.platform;
    let index = inputs.targets[k];
    let patient = patient_id(index);
    let started = Instant::now();
    let auth = span(trace, "access.authorize", || {
        platform.authorize(
            token,
            Permission::new(ResourceKind::PatientData, Action::Read),
            "export-full",
        )
    });
    let export = auth.as_ref().ok().map(|_| {
        span(trace, "ingest.export_full", || {
            platform.export_service().export_full(patient)
        })
    });
    out.latencies.push(started.elapsed());
    if let Err(denial) = auth {
        out.denied += 1;
        return Err(OpError::Failed(format!(
            "read of patient {index} denied: {denial}"
        )));
    }
    let export = export
        .expect("authorized reads always export")
        .map_err(|e| OpError::Failed(format!("export of patient {index}: {e}")))?;
    out.exports += 1;
    if let Some(trace) = trace.as_mut() {
        probe_read(world, patient, &mut trace.spans)?;
        out.kms_probe_opens += 1;
        if k % AUDIT_PROBE_EVERY == AUDIT_PROBE_EVERY - 1 {
            probe_audit(world, world.references[index], &mut trace.spans)?;
        }
    }
    // The export holds the uploaded entries under pseudonyms, and its
    // re-identification map turns them back into the uploaded ids.
    let uploaded = sorted_ids(&inputs.preload[index]);
    let mut recovered: Vec<String> = export
        .bundle
        .iter()
        .map(|r| {
            export
                .reidentification
                .get(r.id())
                .cloned()
                .unwrap_or_default()
        })
        .collect();
    recovered.sort();
    if recovered != uploaded {
        return Err(OpError::Wrong(format!(
            "export of patient {index}: {} entries do not map back to the {} uploaded ids",
            export.bundle.len(),
            uploaded.len()
        )));
    }
    out.digest.update(&(index as u64).to_le_bytes());
    for id in sorted_ids(&export.bundle) {
        out.digest.update(id.as_bytes());
    }
    Ok(())
}

/// Replays a clinic read's storage, crypto and FHIR calls on the patient's
/// one record, timing each. The get-latest read advances the simulated
/// clock inside the current slot only; the KMS open adds one audit entry,
/// which the per-op KMS audit count subtracts.
fn probe_read(world: &World, patient: PatientId, spans: &mut Spans) -> Result<(), OpError> {
    let platform = &world.platform;
    let failed =
        |step: &str, e: &dyn std::fmt::Display| OpError::Failed(format!("probe {step}: {e}"));
    let references = spans.time("storage.references_of", || {
        platform.lake.lock().references_of(patient)
    });
    let [reference] = references[..] else {
        return Err(OpError::Wrong(format!(
            "{} records for one upload",
            references.len()
        )));
    };
    let (raw, dek) = {
        let mut lake = platform.lake.lock();
        spans.time("storage.get_latest", || {
            lake.get_latest(reference).map(|v| {
                (
                    v.data.clone(),
                    v.tags.get("dek").cloned().unwrap_or_default(),
                )
            })
        })
    }
    .map_err(|e| failed("get_latest", &e))?;
    let sealed: Sealed = spans
        .time("storage.at_rest_decode", || serde_json::from_slice(&raw))
        .map_err(|e| failed("at-rest decode", &e))?;
    let key = KeyId::from_raw(dek.parse().map_err(|e| failed("dek tag", &e))?);
    let bytes = spans
        .time("crypto.kms_open", || {
            platform.kms.open(
                &Principal::Service("export".into()),
                key,
                &sealed,
                b"at-rest",
            )
        })
        .map_err(|e| failed("kms open", &e))?;
    spans
        .time("fhir.bundle_decode", || Bundle::from_bytes(&bytes))
        .map_err(|e| failed("bundle decode", &e))?;
    Ok(())
}

/// Times the auditor's provenance-history query of a read record. Its
/// committed history is the record's `ingested` and `anonymized` events
/// followed by one `exported` event per committed read.
fn probe_audit(world: &World, reference: ReferenceId, spans: &mut Spans) -> Result<(), OpError> {
    let history = spans.time("ledger.record_history", || {
        world.platform.audit_record(reference)
    });
    let actions: Vec<ProvenanceAction> = history.iter().map(|e| e.action).collect();
    let well_formed = actions.len() >= 2
        && actions[..2] == [ProvenanceAction::Ingested, ProvenanceAction::Anonymized]
        && actions[2..]
            .iter()
            .all(|a| *a == ProvenanceAction::Exported)
        && history.iter().all(|e| e.record == reference);
    if !well_formed {
        return Err(OpError::Wrong(format!("audit probe history: {actions:?}")));
    }
    Ok(())
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Bytes the platform holds for what users uploaded, set-up included.
struct Footprint {
    lake: u64,
    wal: u64,
    user: u64,
}

fn footprint(platform: &HealthCloudPlatform, inputs: &Inputs, outcome: &Outcome) -> Footprint {
    let lake = platform.lake.lock();
    let payload: usize = lake
        .audit_records()
        .iter()
        .flat_map(|r| r.versions.iter().map(|v| v.payload_len))
        .sum();
    Footprint {
        lake: payload as u64,
        wal: lake.wal().byte_len() as u64,
        user: inputs.preload_bytes + outcome.user_bytes,
    }
}

/// The end-to-end figures of one round.
#[derive(Serialize)]
struct RoundMetrics {
    setup_s: f64,
    ops_per_s: f64,
    op_p50_ms: f64,
    op_p99_ms: f64,
}

/// One set-up and op stream on a freshly booted platform.
struct Round {
    metrics: RoundMetrics,
    outcome: Outcome,
    /// Exact counts, diffed over the op stream, that every round of a run
    /// must repeat.
    counts: BTreeMap<String, u64>,
    checks: Vec<(&'static str, bool)>,
    /// `VmHWM` after the op stream, before the end-of-round checks (whose
    /// WAL replay copies every stored payload) run.
    peak_rss_mb: f64,
    verify_chain: Duration,
    digest: String,
}

fn run_round(inputs: &Inputs, workload: Workload, ops: usize, trace: &mut Option<Trace>) -> Round {
    let started = Instant::now();
    let world = set_up(inputs).unwrap_or_else(|e| {
        eprintln!("hc-perfbench: set-up failed: {e}");
        std::process::exit(1);
    });
    let setup_s = started.elapsed().as_secs_f64();
    let platform = &world.platform;
    let before = counts(platform);
    let outcome = measure(&world, inputs, workload, ops, trace);
    let peak_rss_mb = peak_rss_mb();

    // Commits the last partial batch, so every recorded event is on the
    // chain before the counts are read.
    let ledger = platform.verify_ledger();
    let wal_mismatches = platform.lake.lock().verify_against_wal().len();
    let mut delta = counts(platform).since(&before);
    delta.kms_audit -= outcome.kms_probe_opens;
    let expected_events = match workload {
        Workload::Upload => 3 * outcome.stored_uploads,
        Workload::ClinicRead => outcome.exports,
    };
    let batch = PlatformConfig::default().ledger_batch as u64;
    let checks = vec![
        ("events_grew_as_expected", delta.events == expected_events),
        ("no_flush_failures", delta.flush_failures == 0),
        (
            "every_event_committed",
            delta.height == delta.events.div_ceil(batch),
        ),
        ("ledger_valid", ledger == ChainStatus::Valid),
        ("lake_matches_wal", wal_mismatches == 0),
    ];
    let footprint = footprint(platform, inputs, &outcome);
    let counts = BTreeMap::from(
        [
            ("events", delta.events),
            ("blocks", delta.height),
            ("body_bytes", delta.body_bytes),
            ("kms_keys", delta.kms_keys),
            ("kms_audit", delta.kms_audit),
            ("gateway_audit", delta.gateway_audit),
            ("lake_bytes", footprint.lake),
            ("wal_bytes", footprint.wal),
            ("user_bytes", footprint.user),
        ]
        .map(|(k, v)| (k.to_owned(), v)),
    );

    let mut sorted = outcome.latencies.clone();
    sorted.sort();
    let busy: Duration = sorted.iter().sum();
    let metrics = RoundMetrics {
        setup_s,
        ops_per_s: sorted.len() as f64 / busy.as_secs_f64(),
        op_p50_ms: ms(percentile(&sorted, 0.50)),
        op_p99_ms: ms(percentile(&sorted, 0.99)),
    };
    Round {
        metrics,
        counts,
        checks,
        peak_rss_mb,
        verify_chain: world.verify_chain,
        digest: outcome.digest.clone().finalize().to_hex(),
        outcome,
    }
}

/// Per-layer metrics of a traced run, over all its rounds.
fn layer_metrics(trace: &Trace, rounds: &[Round]) -> BTreeMap<String, f64> {
    let ops: u64 = rounds
        .iter()
        .map(|r| r.outcome.latencies.len() as u64)
        .sum();
    // Counts repeat exactly in every round, so the first round's stand
    // for all of them.
    let counts = &rounds[0].counts;
    let round_ops = rounds[0].outcome.latencies.len() as f64;
    let per_op = |name: &str| counts[name] as f64 / round_ops;
    let per_user_byte = |name: &str| counts[name] as f64 / counts["user_bytes"] as f64;
    let spans = &trace.spans;
    let mut layers: BTreeMap<String, f64> = [
        "core.register_device",
        "core.client_seal",
        "core.process_ingestion",
        "ingest.export_full",
        "access.authorize",
        "storage.references_of",
        "storage.get_latest",
        "storage.at_rest_decode",
        "crypto.kms_open",
        "fhir.bundle_decode",
        "ledger.record_history",
    ]
    .iter()
    .map(|name| (format!("{name}_us"), spans.mean_us(name)))
    .collect();
    let mut stage_us = [0.0f64; 7]; // per op, both bundle classes
    for (class, (sums, uploads)) in ["small", "large"].iter().zip(trace.stage_ns) {
        for (i, stage) in STAGES.iter().enumerate() {
            let us = sums[i] as f64 / 1e3;
            stage_us[i] += us / ops as f64;
            let mean = if uploads == 0 {
                0.0
            } else {
                us / uploads as f64
            };
            layers.insert(format!("ingest.stage.{stage}_us.{class}"), mean);
        }
    }
    let verify_chain: Vec<f64> = rounds.iter().map(|r| ms(r.verify_chain)).collect();
    let denied: u64 = rounds.iter().map(|r| r.outcome.denied).sum();
    layers.extend(
        [
            ("access.denied", denied as f64),
            (
                "access.gateway_audit_entries_per_op",
                per_op("gateway_audit"),
            ),
            (
                "storage.wal_bytes_per_user_byte",
                per_user_byte("wal_bytes"),
            ),
            (
                "storage.lake_bytes_per_user_byte",
                per_user_byte("lake_bytes"),
            ),
            ("crypto.kms_keys_per_op", per_op("kms_keys")),
            ("crypto.kms_audit_entries_per_op", per_op("kms_audit")),
            ("ledger.verify_chain_ms", median(&verify_chain)),
            ("ledger.events_per_op", per_op("events")),
            ("ledger.blocks_per_op", per_op("blocks")),
            ("ledger.body_bytes_per_op", per_op("body_bytes")),
        ]
        .map(|(k, v)| (k.to_owned(), v)),
    );

    // Self time per layer (crate), per op, from direct timings only: ingest
    // stages are charged to the crate doing the stage's work, facade calls
    // and read probes to the crate they call. Each clinic read opens one
    // record, so the read probes' per-op time is the share of the export
    // they replay. What no direct timing covers (the ingestion loop around
    // its stages; an export's own work and its ledger anchor) is reported
    // as unattributed, so coverage falls when attribution is missing. The
    // audit probe is no part of any op and is reported on its own.
    let op_us = rounds
        .iter()
        .flat_map(|r| &r.outcome.latencies)
        .sum::<Duration>()
        .as_secs_f64()
        * 1e6
        / ops as f64;
    let us = |name: &str| spans.per_op_us(name, ops);
    let [decrypt, validate, malware_scan, consent, deid, store, anchor] = stage_us;
    let storage_probes =
        us("storage.references_of") + us("storage.get_latest") + us("storage.at_rest_decode");
    let self_us = [
        ("core", us("core.client_seal")),
        ("access", us("access.authorize") + consent),
        ("ingest", malware_scan),
        ("fhir", us("fhir.bundle_decode") + validate),
        ("privacy", deid),
        (
            "crypto",
            us("core.register_device") + us("crypto.kms_open") + decrypt,
        ),
        ("storage", storage_probes + store),
        ("ledger", anchor),
    ];
    let covered: f64 = self_us.iter().map(|(_, us)| us).sum();
    for (layer, us) in self_us
        .into_iter()
        .chain([("unattributed", op_us - covered)])
    {
        layers.insert(format!("layer.{layer}.self_us"), us);
        layers.insert(format!("layer.{layer}.share"), us / op_us);
    }
    layers.insert("layer.coverage".to_owned(), covered / op_us);
    layers.insert("trace.op_us".to_owned(), op_us);
    layers
}

/// The binary's result line.
#[derive(Serialize)]
struct Report {
    workload: String,
    seed: u64,
    attempted: usize,
    ok: usize,
    failed: usize,
    correct: bool,
    first_failure: Option<String>,
    digest: String,
    checks: BTreeMap<String, bool>,
    counts: BTreeMap<String, u64>,
    rounds: Vec<RoundMetrics>,
    metrics: BTreeMap<String, f64>,
    layers: BTreeMap<String, f64>,
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("hc-perfbench: {e}");
        std::process::exit(2);
    });
    let inputs = generate_inputs(args.workload, args.seed, args.ops);
    let mut trace = args.trace.then(Trace::default);
    let rounds: Vec<Round> = (0..args.rounds)
        .map(|_| run_round(&inputs, args.workload, args.ops, &mut trace))
        .collect();

    let first = &rounds[0];
    let mut checks: BTreeMap<String, bool> = BTreeMap::new();
    for (name, ok) in rounds.iter().flat_map(|r| &r.checks) {
        *checks.entry((*name).to_owned()).or_insert(true) &= *ok;
    }
    checks.insert(
        "rounds_agree".to_owned(),
        rounds
            .iter()
            .all(|r| r.digest == first.digest && r.counts == first.counts),
    );
    let wrong: usize = rounds.iter().map(|r| r.outcome.wrong).sum();
    let correct = wrong == 0 && checks.values().all(|ok| *ok);
    let attempted: usize = rounds.iter().map(|r| r.outcome.latencies.len()).sum();
    let ok: usize = rounds.iter().map(|r| r.outcome.ok).sum();

    // Every round does the same work on the same state, and other tenants
    // of a shared host only ever slow that work down, so each op figure is
    // the best round's: the one least disturbed by the host. Set-up time
    // is the median of the rounds' set-ups.
    let over_rounds = |f: fn(&RoundMetrics) -> f64| -> Vec<f64> {
        rounds.iter().map(|r| f(&r.metrics)).collect()
    };
    let lowest = |f| over_rounds(f).into_iter().fold(f64::INFINITY, f64::min);
    let stored = first.counts["lake_bytes"] + first.counts["wal_bytes"];
    let metrics = BTreeMap::from(
        [
            ("setup_s", median(&over_rounds(|m| m.setup_s))),
            (
                "ops_per_s",
                over_rounds(|m| m.ops_per_s).into_iter().fold(0.0, f64::max),
            ),
            ("op_p50_ms", lowest(|m| m.op_p50_ms)),
            ("op_p99_ms", lowest(|m| m.op_p99_ms)),
            ("ok_share", ok as f64 / attempted as f64),
            // `VmHWM` never falls, and later rounds' readings include the
            // earlier rounds' checks, so the first round's reading is the one
            // that measures the platform alone.
            ("peak_rss_mb", first.peak_rss_mb),
            (
                "stored_bytes_per_user_byte",
                stored as f64 / first.counts["user_bytes"] as f64,
            ),
        ]
        .map(|(k, v)| (k.to_owned(), v)),
    );
    let layers = trace
        .as_ref()
        .map_or_else(BTreeMap::new, |trace| layer_metrics(trace, &rounds));

    let report = Report {
        workload: args.workload.name().to_owned(),
        seed: args.seed,
        attempted,
        ok,
        failed: attempted - ok,
        correct,
        first_failure: rounds.iter().find_map(|r| r.outcome.first_failure.clone()),
        digest: first.digest.clone(),
        checks,
        counts: first.counts.clone(),
        metrics,
        layers,
        rounds: rounds.into_iter().map(|r| r.metrics).collect(),
    };
    println!(
        "{}",
        serde_json::to_string(&report).expect("the report serializes")
    );
}
