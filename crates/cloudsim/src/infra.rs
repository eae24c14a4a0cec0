//! Regions, hosts, VMs, containers and provisioning.
//!
//! §II-A: "the IaaS cloud's stack includes i) bare-metal hardware, ii)
//! host operating system/hypervisor iii) Image and hypervisor management
//! and monitoring services." Hosts carry finite CPU capacity; the
//! resource-provisioning service places VMs first-fit; containers deploy
//! onto VMs only when their image verifies and (for trusted pools) an
//! attestation verdict is presented.

// BTreeMap, not HashMap: `crash_host` iterates these maps to collect
// casualties, and the DES must replay identically run-to-run
// (hc-lint: det-unordered-map).
use std::collections::BTreeMap;

use hc_common::id::{ContainerId, HostId, ImageId, VmId};

use crate::net::Location;

/// A physical host.
#[derive(Clone, Debug)]
pub struct Host {
    /// Host id.
    pub id: HostId,
    /// Where it sits.
    pub location: Location,
    /// Compute capacity in FLOP/s.
    pub flops: u64,
    /// CPU cores available.
    pub cores: u32,
    /// Cores currently allocated to VMs.
    pub cores_used: u32,
    /// Whether the host is up (crashed hosts take no placements).
    pub up: bool,
}

/// What a host crash took down with it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CrashReport {
    /// VMs killed by the crash.
    pub vms_lost: usize,
    /// Containers killed (they die with their VMs).
    pub containers_lost: usize,
}

/// A provisioned VM.
#[derive(Clone, Debug)]
pub struct Vm {
    /// VM id.
    pub id: VmId,
    /// The host it runs on.
    pub host: HostId,
    /// Cores allocated.
    pub cores: u32,
}

/// A deployed container.
#[derive(Clone, Debug)]
pub struct Container {
    /// Container id.
    pub id: ContainerId,
    /// The VM it runs in.
    pub vm: VmId,
    /// The (verified) image it runs.
    pub image: ImageId,
    /// Whether it passed attestation on start.
    pub attested: bool,
}

/// Errors from provisioning.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InfraError {
    /// No host in the region has enough free cores.
    NoCapacity {
        /// The requested region.
        region: usize,
        /// Cores requested.
        cores: u32,
    },
    /// Referenced entity does not exist.
    UnknownVm(VmId),
    /// Container deployment rejected: image unverified or attestation
    /// failed.
    Untrusted {
        /// The reason given by the verifier.
        reason: String,
    },
}

impl std::fmt::Display for InfraError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InfraError::NoCapacity { region, cores } => {
                write!(f, "region {region} has no host with {cores} free cores")
            }
            InfraError::UnknownVm(v) => write!(f, "unknown VM {v}"),
            InfraError::Untrusted { reason } => write!(f, "deployment rejected: {reason}"),
        }
    }
}

impl std::error::Error for InfraError {}

/// The infrastructure cloud.
#[derive(Debug, Default)]
pub struct InfraCloud {
    hosts: Vec<Host>,
    vms: BTreeMap<VmId, Vm>,
    containers: BTreeMap<ContainerId, Container>,
    next_raw: u128,
}

impl InfraCloud {
    /// Creates an empty cloud.
    pub fn new() -> Self {
        InfraCloud::default()
    }

    /// Adds a host with `cores` cores at `flops` FLOP/s in `region`.
    pub fn add_host(&mut self, region: usize, cores: u32, flops: u64) -> HostId {
        self.next_raw += 1;
        let id = HostId::from_raw(self.next_raw);
        let host_index = self.hosts.iter().filter(|h| h.location.region == region).count();
        self.hosts.push(Host {
            id,
            location: Location::new(region, host_index),
            flops,
            cores,
            cores_used: 0,
            up: true,
        });
        id
    }

    /// Crashes a host: everything placed on it dies, and it accepts no
    /// further placements until [`restore_host`](Self::restore_host).
    /// Unknown hosts report an empty crash.
    pub fn crash_host(&mut self, host: HostId) -> CrashReport {
        let mut report = CrashReport::default();
        let Some(entry) = self.hosts.iter_mut().find(|h| h.id == host) else {
            return report;
        };
        entry.up = false;
        entry.cores_used = 0;
        let dead_vms: Vec<VmId> = self
            .vms
            .values()
            .filter(|vm| vm.host == host)
            .map(|vm| vm.id)
            .collect();
        report.vms_lost = dead_vms.len();
        for vm in &dead_vms {
            self.vms.remove(vm);
        }
        let before = self.containers.len();
        self.containers.retain(|_, c| !dead_vms.contains(&c.vm));
        report.containers_lost = before - self.containers.len();
        report
    }

    /// Brings a crashed host back (empty: its workloads died with it).
    pub fn restore_host(&mut self, host: HostId) {
        if let Some(entry) = self.hosts.iter_mut().find(|h| h.id == host) {
            entry.up = true;
        }
    }

    /// Whether a host is up; `None` for unknown hosts.
    pub fn host_is_up(&self, host: HostId) -> Option<bool> {
        self.hosts.iter().find(|h| h.id == host).map(|h| h.up)
    }

    /// Provisions a VM with `cores` cores in `region`, first-fit.
    ///
    /// # Errors
    ///
    /// Returns [`InfraError::NoCapacity`] when no host fits.
    pub fn provision_vm(&mut self, region: usize, cores: u32) -> Result<VmId, InfraError> {
        let host = self
            .hosts
            .iter_mut()
            .find(|h| h.up && h.location.region == region && h.cores - h.cores_used >= cores)
            .ok_or(InfraError::NoCapacity { region, cores })?;
        host.cores_used += cores;
        let host_id = host.id;
        self.next_raw += 1;
        let id = VmId::from_raw(self.next_raw);
        self.vms.insert(
            id,
            Vm {
                id,
                host: host_id,
                cores,
            },
        );
        Ok(id)
    }

    /// Releases a VM's cores back to its host.
    ///
    /// # Errors
    ///
    /// Fails for an unknown VM.
    pub fn release_vm(&mut self, vm: VmId) -> Result<(), InfraError> {
        let record = self.vms.remove(&vm).ok_or(InfraError::UnknownVm(vm))?;
        if let Some(host) = self.hosts.iter_mut().find(|h| h.id == record.host) {
            host.cores_used -= record.cores;
        }
        // Containers on this VM die with it.
        self.containers.retain(|_, c| c.vm != vm);
        Ok(())
    }

    /// Deploys a container onto a VM. `trust_verdict` is the image +
    /// attestation check result supplied by the platform's trusted
    /// services: `Ok(attested)` to admit, `Err(reason)` to reject.
    ///
    /// # Errors
    ///
    /// Fails for an unknown VM or a rejecting verdict.
    pub fn deploy_container(
        &mut self,
        vm: VmId,
        image: ImageId,
        trust_verdict: Result<bool, String>,
    ) -> Result<ContainerId, InfraError> {
        if !self.vms.contains_key(&vm) {
            return Err(InfraError::UnknownVm(vm));
        }
        let attested = trust_verdict.map_err(|reason| InfraError::Untrusted { reason })?;
        self.next_raw += 1;
        let id = ContainerId::from_raw(self.next_raw);
        self.containers.insert(
            id,
            Container {
                id,
                vm,
                image,
                attested,
            },
        );
        Ok(id)
    }

    /// The location of a VM.
    pub fn vm_location(&self, vm: VmId) -> Option<Location> {
        let record = self.vms.get(&vm)?;
        self.hosts
            .iter()
            .find(|h| h.id == record.host)
            .map(|h| h.location)
    }

    /// The compute capacity backing a VM (its host's FLOP/s scaled by its
    /// core share).
    pub fn vm_flops(&self, vm: VmId) -> Option<u64> {
        let record = self.vms.get(&vm)?;
        let host = self.hosts.iter().find(|h| h.id == record.host)?;
        Some(host.flops * u64::from(record.cores) / u64::from(host.cores.max(1)))
    }

    /// Containers currently running.
    pub fn container(&self, id: ContainerId) -> Option<&Container> {
        self.containers.get(&id)
    }

    /// Total and used cores across the *live* hosts of a region.
    pub fn region_utilization(&self, region: usize) -> (u32, u32) {
        self.hosts
            .iter()
            .filter(|h| h.up && h.location.region == region)
            .fold((0, 0), |(t, u), h| (t + h.cores, u + h.cores_used))
    }

    /// Number of live VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Every live container, in id order (BTreeMap iteration) — the posture
    /// scanner's walk over running workloads.
    pub fn containers(&self) -> impl Iterator<Item = &Container> {
        self.containers.values()
    }

    /// Every live VM, in id order.
    pub fn vms(&self) -> impl Iterator<Item = &Vm> {
        self.vms.values()
    }

    /// A VM by id.
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.vms.get(&id)
    }

    /// A host by id.
    pub fn host(&self, id: HostId) -> Option<&Host> {
        self.hosts.iter().find(|h| h.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud() -> InfraCloud {
        let mut c = InfraCloud::new();
        c.add_host(0, 16, 10_000_000_000);
        c.add_host(0, 8, 5_000_000_000);
        c.add_host(1, 32, 20_000_000_000);
        c
    }

    #[test]
    fn first_fit_provisioning() {
        let mut c = cloud();
        let vm1 = c.provision_vm(0, 12).unwrap();
        let vm2 = c.provision_vm(0, 8).unwrap(); // must go to second host
        assert_ne!(
            c.vm_location(vm1).unwrap().host,
            c.vm_location(vm2).unwrap().host
        );
        assert_eq!(c.region_utilization(0), (24, 20));
    }

    #[test]
    fn capacity_exhaustion_errors() {
        let mut c = cloud();
        let _ = c.provision_vm(0, 16).unwrap();
        let _ = c.provision_vm(0, 8).unwrap();
        assert_eq!(
            c.provision_vm(0, 4).unwrap_err(),
            InfraError::NoCapacity { region: 0, cores: 4 }
        );
    }

    #[test]
    fn release_returns_capacity_and_kills_containers() {
        let mut c = cloud();
        let vm = c.provision_vm(0, 16).unwrap();
        let container = c
            .deploy_container(vm, ImageId::from_raw(1), Ok(true))
            .unwrap();
        c.release_vm(vm).unwrap();
        assert_eq!(c.region_utilization(0).1, 0);
        assert!(c.container(container).is_none());
        assert!(c.provision_vm(0, 16).is_ok());
    }

    #[test]
    fn untrusted_deployment_rejected() {
        let mut c = cloud();
        let vm = c.provision_vm(0, 4).unwrap();
        let err = c
            .deploy_container(vm, ImageId::from_raw(1), Err("PCR mismatch".into()))
            .unwrap_err();
        assert_eq!(
            err,
            InfraError::Untrusted {
                reason: "PCR mismatch".into()
            }
        );
    }

    #[test]
    fn vm_flops_scales_with_cores() {
        let mut c = cloud();
        let vm = c.provision_vm(0, 8).unwrap(); // half of the 16-core host
        assert_eq!(c.vm_flops(vm), Some(5_000_000_000));
    }

    #[test]
    fn host_crash_kills_workloads_and_blocks_placement() {
        let mut c = InfraCloud::new();
        let host = c.add_host(0, 16, 10_000_000_000);
        let vm = c.provision_vm(0, 8).unwrap();
        let container = c
            .deploy_container(vm, ImageId::from_raw(1), Ok(true))
            .unwrap();
        let report = c.crash_host(host);
        assert_eq!(
            report,
            CrashReport {
                vms_lost: 1,
                containers_lost: 1
            }
        );
        assert_eq!(c.host_is_up(host), Some(false));
        assert!(c.container(container).is_none());
        assert_eq!(c.vm_count(), 0);
        assert!(
            c.provision_vm(0, 1).is_err(),
            "crashed host takes no placements"
        );
        assert_eq!(c.region_utilization(0), (0, 0));
        // Recovery: the host comes back empty and usable.
        c.restore_host(host);
        assert_eq!(c.host_is_up(host), Some(true));
        assert!(c.provision_vm(0, 16).is_ok());
    }

    #[test]
    fn unknown_vm_errors() {
        let mut c = cloud();
        let bogus = VmId::from_raw(99);
        assert_eq!(c.release_vm(bogus), Err(InfraError::UnknownVm(bogus)));
        assert!(c
            .deploy_container(bogus, ImageId::from_raw(1), Ok(true))
            .is_err());
    }
}
