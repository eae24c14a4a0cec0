//! The logging and monitoring service (Fig. 1).
//!
//! "The Logging and Monitoring service provides secure log and monitoring
//! data for both infrastructure services as well as for platform
//! services." This module aggregates the per-subsystem counters into one
//! scrapeable [`HealthReport`] and evaluates simple compliance alarms
//! over it (the paper's §IV-E audit posture).

use hc_ingest::pipeline::PipelineStats;
use hc_ledger::chain::ChainStatus;
use hc_resilience::HealthState;
use hc_telemetry::TelemetrySnapshot;

use crate::platform::HealthCloudPlatform;

/// A point-in-time platform health snapshot.
#[derive(Clone, Debug)]
pub struct HealthReport {
    /// Ingestion pipeline counters.
    pub pipeline: PipelineStats,
    /// Ledger height (committed blocks).
    pub ledger_height: u64,
    /// Whether the chain verifies.
    pub ledger_status: ChainStatus,
    /// (attestations, rejections) so far.
    pub attestation: (u64, u64),
    /// KMS audit events recorded.
    pub kms_events: usize,
    /// API decisions recorded by the gateway.
    pub gateway_decisions: usize,
    /// API denials among them.
    pub gateway_denials: usize,
    /// Live (non-tombstoned) records in the data lake.
    pub live_records: usize,
    /// Aggregate platform health (refreshed at collection time).
    pub health: HealthState,
    /// Simulated time elapsed since boot, in milliseconds.
    pub uptime_ms: u64,
}

/// Alarms raised by compliance monitoring.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Alarm {
    /// The provenance chain failed verification — an integrity incident.
    LedgerCorrupt(String),
    /// More than half of recent API decisions were denials.
    ExcessiveDenials {
        /// Denials observed.
        denials: usize,
        /// Total decisions.
        total: usize,
    },
    /// Malware detections occurred.
    MalwareDetected(u64),
    /// The platform is running in degraded mode.
    DegradedOperation {
        /// The impaired subsystems.
        subsystems: Vec<String>,
    },
    /// A critical subsystem is down; the platform is unavailable.
    PlatformUnavailable,
    /// The ingestion dead-letter queue holds a backlog of failed jobs.
    DeadLetterBacklog {
        /// Jobs currently parked in the DLQ (`ingest.dlq.depth`).
        depth: i64,
    },
    /// A circuit breaker is currently open — a dependency is being
    /// shielded from further calls.
    BreakerOpen {
        /// The breaker's registered name.
        name: String,
    },
}

/// Collects a health report from a running platform.
pub fn collect(platform: &HealthCloudPlatform) -> HealthReport {
    let (ledger_height, ledger_status) = {
        let provenance = platform.provenance.lock();
        (
            provenance.ledger().height(),
            provenance.ledger().verify_chain(),
        )
    };
    let gateway_log_len;
    let gateway_denials;
    {
        let gateway = platform.gateway.lock();
        let log = gateway.audit_log();
        gateway_log_len = log.len();
        gateway_denials = log.iter().filter(|r| !r.allowed).count();
    }
    // refresh_health takes the lake/provenance locks itself, so it must
    // run before the struct literal below keeps guards alive.
    let health = platform.refresh_health();
    let live_records = platform.lake.lock().live_count();
    HealthReport {
        pipeline: platform.pipeline.stats(),
        ledger_height,
        ledger_status,
        attestation: platform.attestation.lock().stats(),
        kms_events: platform.kms.audit_log().len(),
        gateway_decisions: gateway_log_len,
        gateway_denials,
        live_records,
        health,
        uptime_ms: platform.clock.now().as_millis(),
    }
}

/// Evaluates the alarm rules over a report.
pub fn alarms(report: &HealthReport) -> Vec<Alarm> {
    let mut alarms = Vec::new();
    if let ChainStatus::CorruptAt { height, reason } = &report.ledger_status {
        alarms.push(Alarm::LedgerCorrupt(format!("height {height}: {reason}")));
    }
    if report.gateway_decisions >= 10 && report.gateway_denials * 2 > report.gateway_decisions {
        alarms.push(Alarm::ExcessiveDenials {
            denials: report.gateway_denials,
            total: report.gateway_decisions,
        });
    }
    if report.pipeline.rejected_malware > 0 {
        alarms.push(Alarm::MalwareDetected(report.pipeline.rejected_malware));
    }
    match &report.health {
        HealthState::Healthy => {}
        HealthState::Degraded(subsystems) => alarms.push(Alarm::DegradedOperation {
            subsystems: subsystems.clone(),
        }),
        HealthState::Unavailable => alarms.push(Alarm::PlatformUnavailable),
    }
    alarms
}

/// Dead-letter depth at or above this raises [`Alarm::DeadLetterBacklog`].
pub const DLQ_BACKLOG_THRESHOLD: i64 = 3;

/// Evaluates the alarm rules over a report *and* a telemetry snapshot.
///
/// Extends [`alarms`] with rules that read the metrics registry
/// (see [`crate::platform::HealthCloudPlatform::telemetry_snapshot`]):
///
/// * `ingest.dlq.depth` ≥ [`DLQ_BACKLOG_THRESHOLD`] →
///   [`Alarm::DeadLetterBacklog`];
/// * any `resilience.breaker.<name>.state` gauge at
///   `Open` → [`Alarm::BreakerOpen`].
pub fn alarms_with_telemetry(
    report: &HealthReport,
    telemetry: &TelemetrySnapshot,
) -> Vec<Alarm> {
    let mut raised = alarms(report);
    if let Some(depth) = telemetry.gauge("ingest.dlq.depth") {
        if depth >= DLQ_BACKLOG_THRESHOLD {
            raised.push(Alarm::DeadLetterBacklog { depth });
        }
    }
    for gauge in &telemetry.gauges {
        let Some(rest) = gauge.name.strip_prefix("resilience.breaker.") else {
            continue;
        };
        let Some(name) = rest.strip_suffix(".state") else {
            continue;
        };
        if gauge.value == hc_resilience::BreakerState::Open.as_gauge() {
            raised.push(Alarm::BreakerOpen { name: name.to_string() });
        }
    }
    raised
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{demo_bundle, PlatformConfig};
    use hc_common::id::PatientId;

    #[test]
    fn healthy_platform_reports_cleanly() {
        let platform = HealthCloudPlatform::bootstrap(PlatformConfig::default());
        let device = platform.register_patient_device(PatientId::from_raw(1));
        platform.upload(&device, &demo_bundle("p1", true)).unwrap();
        platform.process_ingestion();
        let report = collect(&platform);
        assert_eq!(report.pipeline.stored, 1);
        assert_eq!(report.live_records, 1);
        assert!(alarms(&report).is_empty(), "{:?}", alarms(&report));
    }

    #[test]
    fn ledger_corruption_raises_alarm() {
        let platform = HealthCloudPlatform::bootstrap(PlatformConfig {
            ledger_batch: 1,
            ..PlatformConfig::default()
        });
        let device = platform.register_patient_device(PatientId::from_raw(1));
        platform.upload(&device, &demo_bundle("p1", true)).unwrap();
        platform.process_ingestion();
        {
            let mut provenance = platform.provenance.lock();
            provenance.ledger_mut().blocks_mut()[0].transactions[0].payload = b"{}".to_vec();
        }
        let report = collect(&platform);
        let raised = alarms(&report);
        assert!(matches!(raised.first(), Some(Alarm::LedgerCorrupt(_))));
    }

    #[test]
    fn health_state_machine_degrades_and_recovers() {
        use hc_common::fault::{FaultInjector, FaultKind, FaultSpec};
        use hc_ledger::consensus::FAULT_PIPELINE_PARTITION;
        use hc_resilience::SubsystemStatus;

        let platform = HealthCloudPlatform::bootstrap(PlatformConfig {
            ledger_batch: 1,
            ..PlatformConfig::default()
        });
        let injector = FaultInjector::new(platform.clock.clone(), 0xAB);
        platform
            .provenance
            .lock()
            .ledger_mut()
            .cluster_mut()
            .attach_faults(injector.clone());
        assert_eq!(platform.refresh_health(), hc_resilience::HealthState::Healthy);

        // Partition the provenance ledger mid-ingestion: anchors stay
        // pending, the pipeline keeps storing, and the platform reports
        // Degraded.
        injector.schedule(
            FAULT_PIPELINE_PARTITION,
            FaultSpec::always(FaultKind::NetworkPartition),
        );
        let device = platform.register_patient_device(PatientId::from_raw(5));
        platform.upload(&device, &demo_bundle("p5", true)).unwrap();
        platform.process_ingestion();
        let report = collect(&platform);
        assert_eq!(report.pipeline.stored, 1);
        assert_eq!(
            report.health,
            hc_resilience::HealthState::Degraded(vec!["ingest".into()])
        );
        assert!(alarms(&report).contains(&Alarm::DegradedOperation {
            subsystems: vec!["ingest".into()]
        }));

        // A critical subsystem going down escalates to Unavailable.
        platform.set_subsystem_status("storage", SubsystemStatus::Down);
        assert_eq!(
            platform.health_state(),
            hc_resilience::HealthState::Unavailable
        );
        platform.set_subsystem_status("storage", SubsystemStatus::Up);

        // Heal the partition; the next flush commits the pending
        // anchors: Healthy again.
        injector.heal(FAULT_PIPELINE_PARTITION);
        assert_eq!(platform.verify_ledger(), ChainStatus::Valid);
        assert_eq!(platform.provenance.lock().pending_count(), 0);
        let report = collect(&platform);
        assert_eq!(report.health, hc_resilience::HealthState::Healthy);
        assert!(alarms(&report).is_empty(), "{:?}", alarms(&report));
    }

    #[test]
    fn telemetry_snapshot_feeds_alarm_rules() {
        let platform = HealthCloudPlatform::bootstrap(PlatformConfig::default());
        let device = platform.register_patient_device(PatientId::from_raw(1));
        platform.upload(&device, &demo_bundle("p1", true)).unwrap();
        platform.process_ingestion();
        let report = collect(&platform);
        let snap = platform.telemetry_snapshot();
        assert!(
            !snap.is_empty(),
            "bootstrap wires the pipeline into the registry"
        );
        assert!(alarms_with_telemetry(&report, &snap).is_empty());

        // Simulate a DLQ backlog and an open breaker via a synthetic
        // registry: both telemetry-only rules must fire.
        let registry = hc_telemetry::Registry::new();
        registry.gauge("ingest.dlq.depth").set(DLQ_BACKLOG_THRESHOLD);
        registry
            .gauge("resilience.breaker.ledger.state")
            .set(hc_resilience::BreakerState::Open.as_gauge());
        let raised = alarms_with_telemetry(&report, &registry.snapshot());
        assert!(raised.contains(&Alarm::DeadLetterBacklog {
            depth: DLQ_BACKLOG_THRESHOLD
        }));
        assert!(raised.contains(&Alarm::BreakerOpen {
            name: "ledger".into()
        }));
    }

    #[test]
    fn malware_rejection_raises_alarm() {
        let platform = HealthCloudPlatform::bootstrap(PlatformConfig::default());
        let device = platform.register_patient_device(PatientId::from_raw(1));
        let mut bundle = demo_bundle("p1", true);
        if let hc_fhir::resource::Resource::Patient(p) = &mut bundle.entries[0] {
            p.name = Some(hc_fhir::types::HumanName::new(
                String::from_utf8_lossy(hc_ingest::scanner::TEST_SIGNATURE).to_string(),
                "J",
            ));
        }
        platform.upload(&device, &bundle).unwrap();
        platform.process_ingestion();
        let report = collect(&platform);
        assert!(alarms(&report).contains(&Alarm::MalwareDetected(1)));
    }
}
