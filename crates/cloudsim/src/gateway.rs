//! The intercloud secure gateway (§II-C).
//!
//! "Many times the cloud designed to scale for data collection and
//! authoring is not well equipped with other services … Our design of
//! extending the root of trust to the level of containers allows transfer
//! of trusted analytic workloads (packaged in containers) across different
//! cloud instances … This allows the computation to be transferred to data
//! instead of otherwise, thereby making it very efficient and secured. The
//! intercloud secure gateway … also offers a service of Remote Attestation
//! for the platform to attest when the analytics workload is started."
//!
//! [`IntercloudGateway::ship_compute`] moves a signed container image to
//! the data's cloud and attests it on arrival;
//! [`IntercloudGateway::ship_data`] is the baseline that hauls the dataset
//! to the analytics cloud. E12 compares bytes moved and makespan.

use hc_common::clock::{SimClock, SimDuration};
use hc_common::fault::FaultInjector;
use hc_telemetry::{Counter, Histogram, Registry};
use parking_lot::Mutex;
use rand::rngs::StdRng;

use hc_resilience::RetryPolicy;

use crate::net::{LinkClass, Location, NetworkModel};

/// Registry handles for gateway traffic (`cloudsim.gateway.*` and
/// per-link-class `cloudsim.link.<class>.*`).
#[derive(Debug)]
struct GatewayInstruments {
    ship_data: Counter,
    ship_compute: Counter,
    partition_hits: Counter,
    attestation_failures: Counter,
    retries: Counter,
    bytes_moved: Counter,
    /// Makespan histograms indexed by [`LinkClass`] order: local,
    /// intra-region, inter-region.
    link_latency: [Histogram; 3],
}

impl GatewayInstruments {
    fn link_histogram(&self, class: LinkClass) -> &Histogram {
        match class {
            LinkClass::Local => &self.link_latency[0],
            LinkClass::IntraRegion => &self.link_latency[1],
            LinkClass::InterRegion => &self.link_latency[2],
        }
    }
}

/// Fault point consulted before every intercloud shipment: while a
/// [`hc_common::fault::FaultKind::NetworkPartition`] is active here the
/// WAN link is severed.
pub const INTERCLOUD_PARTITION: &str = "intercloud.partition";

/// The plan comparison result for one intercloud execution.
#[derive(Clone, Copy, Debug)]
pub struct IntercloudReport {
    /// Bytes that crossed the inter-cloud link.
    pub bytes_moved: u64,
    /// Transfer time.
    pub transfer: SimDuration,
    /// Attestation overhead (zero for ship-data, which runs in the
    /// already-trusted analytics cloud).
    pub attestation: SimDuration,
    /// Compute time at the execution site.
    pub compute: SimDuration,
    /// Whether the remote workload was attested before starting.
    pub attested: bool,
}

impl IntercloudReport {
    /// End-to-end makespan.
    pub fn makespan(&self) -> SimDuration {
        self.transfer + self.attestation + self.compute
    }
}

/// Errors from gateway operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GatewayError {
    /// The destination refused the workload: attestation failed.
    AttestationFailed {
        /// The verifier's reason.
        reason: String,
    },
    /// The inter-cloud link is partitioned; nothing crossed it.
    LinkPartitioned,
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::AttestationFailed { reason } => {
                write!(f, "remote attestation failed: {reason}")
            }
            GatewayError::LinkPartitioned => {
                write!(f, "intercloud link partitioned")
            }
        }
    }
}

impl std::error::Error for GatewayError {}

/// The gateway between a data cloud and an analytics cloud.
#[derive(Debug)]
pub struct IntercloudGateway {
    clock: SimClock,
    net: NetworkModel,
    /// Where the (large) dataset lives.
    pub data_site: Location,
    /// Where the analytics stack (and container registry) lives.
    pub compute_site: Location,
    /// Fixed attestation round-trip charged when a shipped container
    /// starts remotely (quote + verification).
    pub attestation_cost: SimDuration,
    injector: FaultInjector,
    partitioned: Mutex<bool>,
    instruments: Option<GatewayInstruments>,
}

impl IntercloudGateway {
    /// Creates a gateway over the default network model.
    pub fn new(clock: SimClock, data_site: Location, compute_site: Location) -> Self {
        IntercloudGateway {
            clock,
            net: NetworkModel::default(),
            data_site,
            compute_site,
            attestation_cost: SimDuration::from_millis(120),
            injector: FaultInjector::disabled(),
            partitioned: Mutex::new(false),
            instruments: None,
        }
    }

    /// Mirrors gateway traffic into `registry`: shipment and failure
    /// counters under `cloudsim.gateway.*`, bytes moved, and a
    /// simulated transfer-latency histogram per link class under
    /// `cloudsim.link.<class>.sim_latency_ns`.
    pub fn instrument(&mut self, registry: &Registry) {
        self.instruments = Some(GatewayInstruments {
            ship_data: registry.counter("cloudsim.gateway.ship_data"),
            ship_compute: registry.counter("cloudsim.gateway.ship_compute"),
            partition_hits: registry.counter("cloudsim.gateway.partition_hits"),
            attestation_failures: registry.counter("cloudsim.gateway.attestation_failures"),
            retries: registry.counter("cloudsim.gateway.retries"),
            bytes_moved: registry.counter("cloudsim.gateway.bytes_moved"),
            link_latency: [
                registry.histogram("cloudsim.link.local.sim_latency_ns"),
                registry.histogram("cloudsim.link.intra_region.sim_latency_ns"),
                registry.histogram("cloudsim.link.inter_region.sim_latency_ns"),
            ],
        });
    }

    /// Attaches a fault injector; a fault scheduled at
    /// [`INTERCLOUD_PARTITION`] severs the WAN link for its window.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = injector;
    }

    /// Manually severs the inter-cloud link (e.g. from a DES event).
    pub fn partition_link(&self) {
        *self.partitioned.lock() = true;
    }

    /// Manually heals the inter-cloud link.
    pub fn heal_link(&self) {
        *self.partitioned.lock() = false;
    }

    /// Whether the link is currently severed, by manual flag or by an
    /// active [`INTERCLOUD_PARTITION`] fault window.
    pub fn link_is_partitioned(&self) -> bool {
        *self.partitioned.lock() || self.injector.is_active(INTERCLOUD_PARTITION)
    }

    /// Baseline: ship the dataset to the analytics cloud and compute
    /// there. No attestation needed (workload never leaves its trusted
    /// home), but the whole dataset crosses the WAN.
    pub fn ship_data(
        &self,
        dataset_bytes: u64,
        compute: SimDuration,
    ) -> IntercloudReport {
        let transfer = self
            .net
            .transfer_time(self.data_site, self.compute_site, dataset_bytes);
        let report = IntercloudReport {
            bytes_moved: dataset_bytes,
            transfer,
            attestation: SimDuration::ZERO,
            compute,
            attested: false,
        };
        self.clock.advance(report.makespan());
        if let Some(inst) = &self.instruments {
            inst.ship_data.inc();
            inst.bytes_moved.add(dataset_bytes);
            inst.link_histogram(self.net.classify(self.data_site, self.compute_site))
                .record(transfer.as_nanos());
        }
        report
    }

    /// The paper's design: ship the (much smaller) trusted container to
    /// the data, attest it on arrival, and compute in place.
    ///
    /// # Errors
    ///
    /// Fails when the link is partitioned (nothing moves; only the probe
    /// latency of discovering the severed link is charged) or when
    /// `attestation_verdict` rejects — the workload is never started (the
    /// gateway still charges the transfer + attestation time spent
    /// discovering that).
    pub fn ship_compute(
        &self,
        container_bytes: u64,
        compute: SimDuration,
        attestation_verdict: Result<(), String>,
    ) -> Result<IntercloudReport, GatewayError> {
        if self.link_is_partitioned() {
            // The gateway probes the peer and times out after one WAN RTT.
            self.clock
                .advance(self.net.latency(self.compute_site, self.data_site));
            if let Some(inst) = &self.instruments {
                inst.partition_hits.inc();
            }
            return Err(GatewayError::LinkPartitioned);
        }
        let transfer = self
            .net
            .transfer_time(self.compute_site, self.data_site, container_bytes);
        match attestation_verdict {
            Ok(()) => {
                let report = IntercloudReport {
                    bytes_moved: container_bytes,
                    transfer,
                    attestation: self.attestation_cost,
                    compute,
                    attested: true,
                };
                self.clock.advance(report.makespan());
                if let Some(inst) = &self.instruments {
                    inst.ship_compute.inc();
                    inst.bytes_moved.add(container_bytes);
                    inst.link_histogram(
                        self.net.classify(self.compute_site, self.data_site),
                    )
                    .record(transfer.as_nanos());
                }
                Ok(report)
            }
            Err(reason) => {
                self.clock.advance(transfer + self.attestation_cost);
                if let Some(inst) = &self.instruments {
                    inst.attestation_failures.inc();
                }
                Err(GatewayError::AttestationFailed { reason })
            }
        }
    }

    /// [`ship_compute`](Self::ship_compute) with retry: a partitioned
    /// link is retried with `policy`'s backoff (each delay advances the
    /// sim clock, so a fault window scheduled against the same clock
    /// heals while the gateway backs off). Attestation failures are
    /// terminal and never retried.
    ///
    /// On success returns the report plus the number of retries spent.
    ///
    /// # Errors
    ///
    /// Returns the last [`GatewayError::LinkPartitioned`] when the
    /// partition outlasts the retry budget, or
    /// [`GatewayError::AttestationFailed`] immediately.
    pub fn ship_compute_with_retry(
        &self,
        container_bytes: u64,
        compute: SimDuration,
        attestation_verdict: Result<(), String>,
        policy: &RetryPolicy,
        rng: &mut StdRng,
    ) -> Result<(IntercloudReport, u32), GatewayError> {
        let mut attempt = 1u32;
        loop {
            match self.ship_compute(container_bytes, compute, attestation_verdict.clone()) {
                Ok(report) => return Ok((report, attempt - 1)),
                Err(GatewayError::LinkPartitioned) if attempt < policy.max_attempts() => {
                    self.clock.advance(policy.delay_after(attempt, rng));
                    attempt += 1;
                    if let Some(inst) = &self.instruments {
                        inst.retries.inc();
                    }
                }
                Err(err) => return Err(err),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gateway() -> IntercloudGateway {
        IntercloudGateway::new(SimClock::new(), Location::new(0, 0), Location::new(1, 0))
    }

    const GB: u64 = 1_000_000_000;
    const MB: u64 = 1_000_000;

    #[test]
    fn ship_compute_moves_fewer_bytes_and_finishes_faster() {
        let g = gateway();
        let compute = SimDuration::from_secs(5);
        let data_plan = g.ship_data(10 * GB, compute);
        let compute_plan = g.ship_compute(200 * MB, compute, Ok(())).unwrap();
        assert!(compute_plan.bytes_moved < data_plan.bytes_moved / 10);
        assert!(compute_plan.makespan() < data_plan.makespan());
        assert!(compute_plan.attested);
    }

    #[test]
    fn attestation_overhead_charged() {
        let g = gateway();
        let report = g
            .ship_compute(MB, SimDuration::from_secs(1), Ok(()))
            .unwrap();
        assert_eq!(report.attestation, SimDuration::from_millis(120));
    }

    #[test]
    fn failed_attestation_blocks_execution() {
        let g = gateway();
        let before = g.clock.now();
        let err = g
            .ship_compute(MB, SimDuration::from_secs(1), Err("PCR mismatch".into()))
            .unwrap_err();
        assert_eq!(
            err,
            GatewayError::AttestationFailed {
                reason: "PCR mismatch".into()
            }
        );
        // Time was still spent discovering the failure, but no compute ran.
        let elapsed = g.clock.now().duration_since(before);
        assert!(elapsed >= SimDuration::from_millis(120));
        assert!(elapsed < SimDuration::from_secs(1));
    }

    #[test]
    fn tiny_datasets_favor_ship_data() {
        // Crossover: when the dataset is smaller than the container, the
        // baseline wins — the bench sweeps this.
        let g = gateway();
        let compute = SimDuration::from_millis(10);
        let data_plan = g.ship_data(MB, compute);
        let compute_plan = g.ship_compute(200 * MB, compute, Ok(())).unwrap();
        assert!(data_plan.makespan() < compute_plan.makespan());
    }

    #[test]
    fn partitioned_link_fails_fast_and_heals_manually() {
        let g = gateway();
        g.partition_link();
        assert!(g.link_is_partitioned());
        let err = g
            .ship_compute(MB, SimDuration::from_secs(1), Ok(()))
            .unwrap_err();
        assert_eq!(err, GatewayError::LinkPartitioned);
        g.heal_link();
        assert!(!g.link_is_partitioned());
        assert!(g.ship_compute(MB, SimDuration::from_secs(1), Ok(())).is_ok());
    }

    #[test]
    fn retry_outlasts_scripted_partition_window() {
        use hc_common::fault::{FaultKind, FaultSpec};
        use hc_common::clock::SimInstant;

        let clock = SimClock::new();
        let mut g =
            IntercloudGateway::new(clock.clone(), Location::new(0, 0), Location::new(1, 0));
        let injector = FaultInjector::new(clock.clone(), 0xBEEF);
        // Link down for the first 50ms of sim time.
        injector.schedule(
            INTERCLOUD_PARTITION,
            FaultSpec::always(FaultKind::NetworkPartition)
                .window(SimInstant::ZERO, SimInstant::ZERO + SimDuration::from_millis(50)),
        );
        g.set_fault_injector(injector);

        let policy = RetryPolicy::new(8, SimDuration::from_millis(10))
            .with_total_budget(SimDuration::from_secs(2));
        let mut rng = hc_common::rng::seeded(7);
        let (report, retries) = g
            .ship_compute_with_retry(MB, SimDuration::from_secs(1), Ok(()), &policy, &mut rng)
            .unwrap();
        assert!(retries >= 1, "first attempt lands inside the window");
        assert!(report.attested);
        // The clock crossed the fault window while backing off.
        assert!(clock.now() >= SimInstant::ZERO + SimDuration::from_millis(50));
    }

    #[test]
    fn attestation_failure_is_never_retried() {
        let g = gateway();
        let policy = RetryPolicy::new(5, SimDuration::from_millis(10));
        let mut rng = hc_common::rng::seeded(7);
        let err = g
            .ship_compute_with_retry(
                MB,
                SimDuration::from_secs(1),
                Err("PCR mismatch".into()),
                &policy,
                &mut rng,
            )
            .unwrap_err();
        assert_eq!(
            err,
            GatewayError::AttestationFailed {
                reason: "PCR mismatch".into()
            }
        );
    }

    #[test]
    fn clock_advances_by_makespan() {
        let clock = SimClock::new();
        let g = IntercloudGateway::new(clock.clone(), Location::new(0, 0), Location::new(1, 0));
        let report = g.ship_data(GB, SimDuration::from_secs(1));
        assert_eq!(clock.now().as_nanos(), report.makespan().as_nanos());
    }
}
