//! The platform facade.

use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;

use hc_access::consent::ConsentRegistry;
use hc_access::gateway::{ApiGateway, Denial};
use hc_access::identity::{AuthToken, LocalDirectory, TokenService};
use hc_access::model::Permission;
use hc_access::rbac::{EnvKind, RbacEngine};
use hc_attest::attestation::{AttestationService, Verdict};
use hc_attest::change::ChangeManagement;
use hc_attest::image::ImageRegistry;
use hc_attest::measure::{measured_boot, Component};
use hc_attest::tpm::Tpm;
use hc_cloudsim::infra::InfraCloud;
use hc_common::clock::SimClock;
use hc_common::id::{EnvId, GroupId, OrgId, PatientId, ReferenceId, TenantId, UserId};
use hc_crypto::kms::KeyManagementSystem;
use hc_fhir::bundle::{Bundle, BundleKind};
use hc_fhir::resource::{Consent, Gender, Observation, Patient, Resource};
use hc_fhir::types::{CodeableConcept, Quantity, SimDate};
use hc_ingest::pipeline::{DeviceCredential, IngestionPipeline, PipelineDeps};
use hc_ingest::status::{IngestionStatus, StatusUrl};
use hc_ledger::audit::AuditorView;
use hc_ledger::identity::{Credential, DidError, DidRegistry, Holder, IdentityMixer};
use hc_ledger::chain::{ChainStatus, Ledger};
use hc_ledger::consensus::PipelinedCluster;
use hc_ledger::policy::{MalwarePolicy, PrivacyPolicy, ProvenancePolicy};
use hc_ledger::provenance::{ProvenanceEvent, ProvenanceNetwork};
use hc_resilience::{DegradationTracker, HealthState, SubsystemStatus};
use hc_storage::datalake::DataLake;

/// Platform bootstrap configuration.
#[derive(Clone, Debug)]
pub struct PlatformConfig {
    /// Master determinism seed.
    pub seed: u64,
    /// Blockchain peers (≥ 4).
    pub consensus_peers: usize,
    /// Ledger batch size (transactions per block).
    pub ledger_batch: usize,
    /// The study/program this deployment ingests for.
    pub study_name: String,
    /// Tenant display name.
    pub tenant_name: String,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            seed: 42,
            consensus_peers: 4,
            ledger_batch: 4,
            study_name: "diabetes-rwe".to_owned(),
            tenant_name: "acme-health".to_owned(),
        }
    }
}

/// The assembled platform.
pub struct HealthCloudPlatform {
    /// The shared simulated clock.
    pub clock: SimClock,
    /// Key management.
    pub kms: Arc<KeyManagementSystem>,
    /// The data lake.
    pub lake: Arc<Mutex<DataLake>>,
    /// Consent management.
    pub consent: Arc<Mutex<ConsentRegistry>>,
    /// The provenance blockchain network.
    pub provenance: Arc<Mutex<ProvenanceNetwork>>,
    /// RBAC.
    pub rbac: Mutex<RbacEngine>,
    /// Token issuing/verification.
    pub tokens: TokenService,
    /// The local credential directory.
    pub directory: Mutex<LocalDirectory>,
    /// The API gateway.
    pub gateway: Mutex<ApiGateway>,
    /// The attestation service.
    pub attestation: Mutex<AttestationService>,
    /// The signed-image registry.
    pub images: Mutex<ImageRegistry>,
    /// Change management.
    pub changes: Mutex<ChangeManagement>,
    /// The infrastructure cloud.
    pub infra: Mutex<InfraCloud>,
    /// Model lifecycle management.
    pub lifecycle: Mutex<hc_analytics::lifecycle::ModelLifecycle>,
    /// The ingestion pipeline.
    pub pipeline: IngestionPipeline,
    /// The bootstrap tenant.
    pub tenant: TenantId,
    /// The default organization.
    pub org: OrgId,
    /// The production environment.
    pub prod_env: EnvId,
    /// The study group.
    pub study: GroupId,
    /// The self-sovereign identity network (§IV-B1).
    pub identity_network: Mutex<DidRegistry>,
    /// The identity-mixer credential issuer.
    pub mixer: IdentityMixer,
    /// Subsystem health aggregation (Healthy → Degraded → Unavailable).
    pub health: Mutex<DegradationTracker>,
    /// The platform-wide metric registry (see `OBSERVABILITY.md`).
    /// Every subsystem bootstrapped here reports into it; snapshot it
    /// via [`HealthCloudPlatform::telemetry_snapshot`].
    pub telemetry: hc_telemetry::Registry,
    rng: Mutex<StdRng>,
}

impl std::fmt::Debug for HealthCloudPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthCloudPlatform")
            .field("tenant", &self.tenant)
            .field("study", &self.study)
            .finish()
    }
}

impl HealthCloudPlatform {
    /// Boots the whole platform from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `consensus_peers < 4` (PBFT needs 3f+1 ≥ 4).
    pub fn bootstrap(config: PlatformConfig) -> Self {
        Self::bootstrap_instrumented(config, true)
    }

    /// [`bootstrap`](Self::bootstrap) with telemetry optional.
    ///
    /// With `telemetry_on = false` no subsystem is instrumented and the
    /// platform's registry stays empty — the baseline E16 measures
    /// instrumentation overhead against. Note the analytics recorder is
    /// crate-global, so an uninstrumented platform should not share a
    /// process with an instrumented one whose analytics metrics matter.
    pub fn bootstrap_instrumented(config: PlatformConfig, telemetry_on: bool) -> Self {
        let clock = SimClock::new();
        let mut rng = hc_common::rng::seeded(config.seed);
        let telemetry = hc_telemetry::Registry::new();

        let kms = Arc::new(KeyManagementSystem::new(&mut rng));
        let lake = Arc::new(Mutex::new(DataLake::new(clock.clone())));
        let consent = Arc::new(Mutex::new(ConsentRegistry::new(clock.clone())));

        // Both ledgers commit through the sequential protocol
        // (`window = 1`): each block commits before `submit` returns.
        let cluster = PipelinedCluster::new(config.consensus_peers, 1, clock.clone())
            .expect("config.consensus_peers must be >= 4");
        let mut ledger = Ledger::new(cluster);
        ledger.install_policy(Box::new(ProvenancePolicy));
        ledger.install_policy(Box::new(MalwarePolicy));
        ledger.install_policy(Box::new(PrivacyPolicy { min_k: 2 }));
        let mut provenance_net = ProvenanceNetwork::new(ledger, config.ledger_batch);
        if telemetry_on {
            provenance_net.instrument(&telemetry);
        }
        let provenance = Arc::new(Mutex::new(provenance_net));

        let mut rbac = RbacEngine::new();
        let (tenant, org, _dev_env) = rbac.register_tenant(&mut rng, &config.tenant_name);
        let prod_env = rbac
            .add_env(&mut rng, org, EnvKind::Production)
            .expect("org exists");
        let study = rbac
            .add_group(&mut rng, org, &config.study_name)
            .expect("org exists");

        let mut token_key = [0u8; 32];
        rand::Rng::fill(&mut rng, &mut token_key);
        let tokens = TokenService::new(token_key, clock.clone());

        let pipeline = IngestionPipeline::new(
            PipelineDeps {
                kms: Arc::clone(&kms),
                lake: Arc::clone(&lake),
                consent: Arc::clone(&consent),
                provenance: Arc::clone(&provenance),
            },
            study,
            &config.study_name,
            config.seed,
        );
        if telemetry_on {
            pipeline.enable_telemetry(&telemetry);
            // Analytics kernels (JMF/DELT) report through the crate-wide
            // recorder; the platform's registry is the natural home.
            hc_analytics::telemetry::install(&telemetry);
        }

        // The identity blockchain is a *separate* permissioned network,
        // as the paper describes for its per-purpose networks.
        let identity_cluster = PipelinedCluster::new(config.consensus_peers, 1, clock.clone())
            .expect("checked above");
        let identity_network = DidRegistry::new(Ledger::new(identity_cluster));
        let mixer = IdentityMixer::new(&mut rng);

        // The health tracker mirrors Fig. 1: the ledger and the data
        // lake are load-bearing (losing either takes the platform
        // down); ingestion and external AI services degrade gracefully.
        let mut health = DegradationTracker::new();
        health.register("ledger", true);
        health.register("storage", true);
        health.register("ingest", false);
        health.register("ai-services", false);

        HealthCloudPlatform {
            clock: clock.clone(),
            kms,
            lake,
            consent,
            provenance,
            rbac: Mutex::new(rbac),
            tokens,
            directory: Mutex::new(LocalDirectory::new()),
            gateway: Mutex::new(ApiGateway::new(clock, 100.0, 20.0)),
            attestation: Mutex::new(AttestationService::new()),
            images: Mutex::new(ImageRegistry::new()),
            changes: Mutex::new(ChangeManagement::new()),
            infra: Mutex::new(InfraCloud::new()),
            lifecycle: Mutex::new(hc_analytics::lifecycle::ModelLifecycle::new()),
            pipeline,
            tenant,
            org,
            prod_env,
            study,
            identity_network: Mutex::new(identity_network),
            mixer,
            health: Mutex::new(health),
            telemetry,
            rng: Mutex::new(hc_common::rng::seeded_stream(config.seed, 1001)),
        }
    }

    /// A point-in-time view of every metric the platform's subsystems
    /// have reported (see `OBSERVABILITY.md` for the name catalogue).
    /// Feed it to [`crate::monitoring::alarms_with_telemetry`] or an
    /// exporter in [`hc_telemetry::export`].
    pub fn telemetry_snapshot(&self) -> hc_telemetry::TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// Re-derives subsystem statuses from live platform signals and
    /// returns the aggregate health state:
    ///
    /// * `ledger` — [`SubsystemStatus::Down`] when the provenance chain
    ///   fails verification (critical: the platform goes
    ///   [`HealthState::Unavailable`]).
    /// * `storage` — `Down` when the data lake diverges from its WAL
    ///   (critical), e.g. after a crash mid-append before recovery.
    /// * `ingest` — [`SubsystemStatus::Degraded`] while the provenance
    ///   network holds events that a consensus failure left pending
    ///   (e.g. through a ledger partition).
    ///
    /// Other subsystems (e.g. `ai-services`) are reported externally via
    /// [`set_subsystem_status`](Self::set_subsystem_status).
    pub fn refresh_health(&self) -> HealthState {
        let (ledger_ok, ingest_degraded) = {
            let provenance = self.provenance.lock();
            (
                matches!(provenance.ledger().verify_chain(), ChainStatus::Valid),
                provenance.is_stalled(),
            )
        };
        let storage_ok = self.lake.lock().verify_against_wal().is_empty();
        let mut health = self.health.lock();
        health.set_status(
            "ledger",
            if ledger_ok {
                SubsystemStatus::Up
            } else {
                SubsystemStatus::Down
            },
        );
        health.set_status(
            "storage",
            if storage_ok {
                SubsystemStatus::Up
            } else {
                SubsystemStatus::Down
            },
        );
        health.set_status(
            "ingest",
            if ingest_degraded {
                SubsystemStatus::Degraded
            } else {
                SubsystemStatus::Up
            },
        );
        health.state()
    }

    /// Reports a subsystem's status into the health tracker (for signals
    /// the platform cannot observe itself, like external AI services).
    pub fn set_subsystem_status(&self, subsystem: &str, status: SubsystemStatus) {
        self.health.lock().set_status(subsystem, status);
    }

    /// The aggregate health state as last refreshed.
    pub fn health_state(&self) -> HealthState {
        self.health.lock().state()
    }

    /// Creates and registers a self-sovereign identity on the identity
    /// blockchain network (§IV-B1).
    ///
    /// # Errors
    ///
    /// Propagates registry errors (consensus failure, duplicates).
    pub fn register_ssi_holder(&self) -> Result<Holder, DidError> {
        let mut holder = {
            let mut rng = self.rng.lock();
            Holder::generate(&mut *rng)
        };
        self.identity_network.lock().register(&mut holder)?;
        Ok(holder)
    }

    /// Issues an unlinkable per-context credential to a registered SSI
    /// holder via the identity mixer.
    ///
    /// # Errors
    ///
    /// Fails for unregistered or revoked holders.
    pub fn issue_context_credential(
        &self,
        holder: &mut Holder,
        context: &str,
    ) -> Result<Credential, DidError> {
        let registry = self.identity_network.lock();
        self.mixer.issue(&registry, holder, context)
    }

    /// Registers a platform user with a role in the production
    /// environment and returns a login token.
    ///
    /// # Panics
    ///
    /// Panics when the role name is unknown.
    pub fn register_user(&self, username: &str, secret: &[u8], role: &str) -> (UserId, AuthToken) {
        let user = {
            let mut rng = self.rng.lock();
            let mut rbac = self.rbac.lock();
            let user = rbac
                .add_user(&mut *rng, self.tenant, username)
                .expect("bootstrap tenant exists");
            rbac.assign(user, self.org, self.prod_env, role)
                .expect("built-in role");
            user
        };
        let mut directory = self.directory.lock();
        directory.enroll(username, secret, user);
        let token = self
            .tokens
            .login(&*directory, username, secret)
            .expect("just enrolled");
        (user, token)
    }

    /// One API authorization decision through the gateway.
    ///
    /// # Errors
    ///
    /// Propagates gateway denials (authn, rate limit, authz).
    pub fn authorize(
        &self,
        token: &AuthToken,
        permission: Permission,
        operation: &str,
    ) -> Result<UserId, Denial> {
        let rbac = self.rbac.lock();
        self.gateway.lock().authorize(
            &self.tokens,
            &rbac,
            token,
            self.org,
            self.prod_env,
            permission,
            operation,
        )
    }

    /// Registers a patient device (issues its encryption key).
    pub fn register_patient_device(&self, patient: PatientId) -> DeviceCredential {
        self.pipeline.register_device(patient)
    }

    /// Client-side seal + upload of a bundle.
    ///
    /// # Errors
    ///
    /// Propagates KMS errors for invalid credentials.
    pub fn upload(
        &self,
        credential: &DeviceCredential,
        bundle: &Bundle,
    ) -> Result<StatusUrl, hc_crypto::kms::KmsError> {
        let sealed = self.pipeline.seal_upload(credential, bundle)?;
        Ok(self.pipeline.submit(*credential, sealed))
    }

    /// Drains the ingestion queue inline; returns uploads processed.
    pub fn process_ingestion(&self) -> usize {
        self.pipeline.process_all()
    }

    /// Polls an upload's status.
    pub fn ingestion_status(&self, url: StatusUrl) -> Option<IngestionStatus> {
        self.pipeline.status(url)
    }

    /// Boots and attests a host running `stack`; on success the host's
    /// TPM key is trusted and a quote-verified verdict returned.
    pub fn attested_boot(&self, host_name: &str, stack: &[Component], register_golden: bool) -> (Tpm, Verdict) {
        let mut rng = self.rng.lock();
        let mut tpm = Tpm::generate(&mut *rng, host_name);
        drop(rng);
        // Golden-value registration and quote verification must be one
        // atomic attestation transaction; the loop is bounded by the
        // host's component stack. hc-lint: allow(lock-held-long)
        let mut attestation = self.attestation.lock();
        if register_golden {
            for c in stack {
                attestation.register_golden(c);
            }
        }
        attestation.trust_signer(tpm.public_key());
        let nonce = b"platform-boot-nonce";
        let quote = measured_boot(&mut tpm, stack, nonce).expect("fresh TPM has keys");
        // Record the verdict against the host's name so posture scans can
        // later distinguish verified workloads from never-verified ones.
        let verdict = attestation.verify_quote_for(host_name, &quote, stack, nonce);
        (tpm, verdict)
    }

    /// The committed provenance history of a record.
    pub fn audit_record(&self, record: ReferenceId) -> Vec<ProvenanceEvent> {
        let provenance = self.provenance.lock();
        let view = AuditorView::new(provenance.ledger());
        view.record_history(record)
    }

    /// Flushes pending provenance events and re-verifies the whole chain.
    pub fn verify_ledger(&self) -> ChainStatus {
        let mut provenance = self.provenance.lock();
        // Nothing pending, or a consensus failure that keeps the events
        // pending for a later flush: either way the committed chain is
        // what gets verified.
        let _ = provenance.flush();
        provenance.ledger().verify_chain()
    }

    /// Right-to-forget for a patient across the platform.
    pub fn forget_patient(&self, patient: PatientId) -> usize {
        self.pipeline.forget_patient(patient)
    }

    /// The export service bound to this platform's study.
    pub fn export_service(&self) -> hc_ingest::export::ExportService {
        self.pipeline.export_service()
    }

    /// Scores the study's holistic anonymization degree (§IV-C): builds
    /// quasi-identifier records from the anonymized export, runs Mondrian
    /// at `k_required`, verifies the claim, and anchors the score on the
    /// privacy blockchain channel ("Such a blockchain records the privacy
    /// levels of each record received").
    ///
    /// # Errors
    ///
    /// Returns `None` when the study holds fewer than `k_required`
    /// patients (no k-anonymous representation exists).
    pub fn score_study_privacy(&self, k_required: usize) -> Option<hc_privacy::verify::AnonymizationDegree> {
        let export = self.export_service().export_anonymized().ok()?;
        let records: Vec<hc_privacy::kanon::QiRecord> = export
            .iter()
            .filter_map(|r| match r {
                Resource::Patient(p) => {
                    let zip: u32 = p
                        .address
                        .as_ref()
                        .map(|a| {
                            a.postal_code
                                .chars()
                                .filter(|c| c.is_ascii_digit())
                                .collect::<String>()
                                .parse()
                                .unwrap_or(0)
                        })
                        .unwrap_or(0);
                    let gender_code = match p.gender {
                        Gender::Female => 0,
                        Gender::Male => 1,
                        Gender::Other => 2,
                        Gender::Unknown => 3,
                    };
                    Some(hc_privacy::kanon::QiRecord::new(
                        p.birth_year.unwrap_or(1970),
                        zip,
                        gender_code,
                        &p.id,
                    ))
                }
                _ => None,
            })
            .collect();
        let table = hc_privacy::kanon::mondrian(&records, k_required).ok()?;
        let degree = hc_privacy::verify::measure(&table.classes);
        // Anchor on the privacy channel.
        let tx = hc_ledger::block::Transaction {
            id: hc_common::id::TxId::from_raw(self.clock.now().as_nanos() as u128 + 1),
            channel: "privacy".into(),
            kind: "privacy-scored".into(),
            payload: format!("record=study-{};k={}", self.study, degree.k).into_bytes(),
            submitter: "anonymization-verification".into(),
            timestamp: self.clock.now(),
        };
        // Committed at once when the ledger is reachable; a partition
        // leaves it queued for the next flush.
        let mut provenance = self.provenance.lock();
        let _ = provenance.enqueue(tx).and_then(|()| provenance.flush());
        Some(degree)
    }

    /// A deterministic RNG handle for platform-driven experiments.
    pub fn rng(&self) -> parking_lot::MutexGuard<'_, StdRng> {
        self.rng.lock()
    }
}

/// Builds a small demonstration bundle: one patient with an HbA1c
/// observation, optionally consenting to the default study.
pub fn demo_bundle(patient_id: &str, with_consent: bool) -> Bundle {
    let mut entries = vec![
        Resource::Patient(
            Patient::builder(patient_id)
                .name("Doe", "Jane")
                .gender(Gender::Female)
                .birth_year(1968)
                .address("12 Main St", "Springfield", "IL", "62704")
                .phone("555-0100")
                .build(),
        ),
        Resource::Observation(Observation {
            id: format!("{patient_id}-hba1c"),
            subject: patient_id.to_owned(),
            code: CodeableConcept::hba1c(),
            value: Quantity::new(7.4, "%"),
            effective: SimDate(420),
        }),
    ];
    if with_consent {
        entries.push(Resource::Consent(Consent {
            id: format!("{patient_id}-consent"),
            subject: patient_id.to_owned(),
            study: "diabetes-rwe".to_owned(),
            granted: true,
        }));
    }
    Bundle::new(BundleKind::Transaction, entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_access::model::{Action, ResourceKind};
    use hc_attest::measure::Layer;

    #[test]
    fn bootstrap_and_ingest_end_to_end() {
        let platform = HealthCloudPlatform::bootstrap(PlatformConfig::default());
        let patient = PatientId::from_raw(7);
        let device = platform.register_patient_device(patient);
        let url = platform.upload(&device, &demo_bundle("p7", true)).unwrap();
        assert_eq!(platform.process_ingestion(), 1);
        let status = platform.ingestion_status(url).unwrap();
        assert!(status.is_stored(), "{status:?}");
        let IngestionStatus::Stored { references } = status else {
            unreachable!()
        };
        // Events may still sit in the consensus batch; flushing through
        // verify_ledger commits them.
        assert_eq!(platform.verify_ledger(), ChainStatus::Valid);
        let history = platform.audit_record(references[0]);
        assert_eq!(history.len(), 2);
    }

    #[test]
    fn rbac_flow_through_gateway() {
        let platform = HealthCloudPlatform::bootstrap(PlatformConfig::default());
        let (_user, token) = platform.register_user("alice", b"pw", "researcher");
        // Researcher may read anonymized data…
        assert!(platform
            .authorize(
                &token,
                Permission::new(ResourceKind::AnonymizedData, Action::Read),
                "export-anon",
            )
            .is_ok());
        // …but not identified PHI.
        assert!(matches!(
            platform.authorize(
                &token,
                Permission::new(ResourceKind::PatientData, Action::Read),
                "read-phi",
            ),
            Err(Denial::Authorization { .. })
        ));
    }

    #[test]
    fn attested_boot_trusts_honest_host_only() {
        let platform = HealthCloudPlatform::bootstrap(PlatformConfig::default());
        let stack = vec![
            Component::new(Layer::Hardware, "bios", b"bios-v1"),
            Component::new(Layer::Hypervisor, "kvm", b"kvm-v1"),
        ];
        let (_tpm, verdict) = platform.attested_boot("host-1", &stack, true);
        assert!(verdict.trusted, "{:?}", verdict.failures);

        // Second host boots a tampered hypervisor but claims the golden one.
        let tampered = vec![
            Component::new(Layer::Hardware, "bios", b"bios-v1"),
            Component::new(Layer::Hypervisor, "kvm", b"kvm-v1-rootkit"),
        ];
        let mut rng = hc_common::rng::seeded(9);
        let mut tpm2 = Tpm::generate(&mut rng, "host-2");
        let mut attestation = platform.attestation.lock();
        attestation.trust_signer(tpm2.public_key());
        let quote = measured_boot(&mut tpm2, &tampered, b"n2").unwrap();
        let verdict = attestation.verify_quote(&quote, &stack, b"n2");
        assert!(!verdict.trusted);
    }

    #[test]
    fn forget_patient_end_to_end() {
        let platform = HealthCloudPlatform::bootstrap(PlatformConfig::default());
        let patient = PatientId::from_raw(7);
        let device = platform.register_patient_device(patient);
        platform.upload(&device, &demo_bundle("p7", true)).unwrap();
        platform.process_ingestion();
        assert_eq!(platform.forget_patient(patient), 1);
        let export = platform.export_service();
        let merged = export.export_anonymized().unwrap();
        assert!(merged.is_empty());
    }

    #[test]
    fn ssi_lifecycle_through_platform() {
        let platform = HealthCloudPlatform::bootstrap(PlatformConfig::default());
        let mut holder = platform.register_ssi_holder().unwrap();
        // Unlinkable credentials for two care contexts.
        let hospital = platform
            .issue_context_credential(&mut holder, "hospital-a")
            .unwrap();
        let insurer = platform
            .issue_context_credential(&mut holder, "insurer-b")
            .unwrap();
        assert!(platform.mixer.verify(&hospital, "hospital-a"));
        assert!(platform.mixer.verify(&insurer, "insurer-b"));
        assert_ne!(hospital.pseudonym, insurer.pseudonym);
        // The identity network is a real chain.
        let registry = platform.identity_network.lock();
        assert_eq!(
            registry.ledger().verify_chain(),
            hc_ledger::chain::ChainStatus::Valid
        );
        assert!(registry.resolve(holder.did()).is_some());
    }

    #[test]
    fn demo_bundle_validates() {
        let report = hc_fhir::validation::Validator::strict().validate_bundle(&demo_bundle("p1", true));
        assert!(report.is_valid());
    }
}
