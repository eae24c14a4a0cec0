//! The versioned, tiered data lake.
//!
//! Records are addressed by an opaque [`ReferenceId`] (the de-identified
//! handle the rest of the platform passes around); the confidential
//! reference-id → patient mapping lives in a separate metadata map, as the
//! paper prescribes. Every mutation is logged to the WAL first. Records
//! carry versions ("Both the original and anonymized versions of data
//! objects are encrypted and stored"), a tag index supports retrieval, and
//! a hot/cold tier split models the latency difference between online
//! storage and archival storage. Deletion is two-phase: tombstone, then
//! purge (the caller pairs purge with KMS crypto-shredding for true
//! secure deletion).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use hc_common::clock::{SimClock, SimDuration};
use hc_common::fault::{FaultInjector, FaultKind};
use hc_common::id::{PatientId, ReferenceId};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::wal::{SharedBytes, WalError, WalOp, WriteAheadLog};

/// Fault point consulted by [`DataLake::try_put`]: an active
/// [`FaultKind::StorageCrash`] here crashes the store mid-WAL-append,
/// leaving a torn record at the log tail for
/// [`DataLake::recover_from_wal`] to clean up.
pub const STORAGE_CRASH: &str = "storage.crash";

/// Storage tier of a record version.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Tier {
    /// Online storage: fast access.
    Hot,
    /// Archival storage: slow access, cheap capacity.
    Cold,
}

/// One stored version of a record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StoredVersion {
    /// 1-based version number.
    pub version: u32,
    /// The (normally sealed/encrypted) payload bytes: a view of the WAL
    /// frame that logged them.
    pub data: SharedBytes,
    /// Free-form metadata tags.
    pub tags: BTreeMap<String, String>,
    /// Which tier the bytes live on.
    pub tier: Tier,
}

/// Errors returned by the data lake.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LakeError {
    /// No record under this reference id (or it was purged).
    Unknown(ReferenceId),
    /// The record is tombstoned and cannot be read.
    Tombstoned(ReferenceId),
    /// The requested version does not exist.
    NoSuchVersion {
        /// The record.
        reference: ReferenceId,
        /// The missing version.
        version: u32,
    },
    /// The store crashed mid-WAL-append: the write was lost and the log
    /// tail is torn. Run [`DataLake::recover_from_wal`] before trusting
    /// [`DataLake::verify_against_wal`] again.
    CrashedMidWrite,
}

impl std::fmt::Display for LakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LakeError::Unknown(r) => write!(f, "unknown record {r}"),
            LakeError::Tombstoned(r) => write!(f, "record {r} is deleted"),
            LakeError::NoSuchVersion { reference, version } => {
                write!(f, "record {reference} has no version {version}")
            }
            LakeError::CrashedMidWrite => {
                write!(f, "storage crashed mid-write; WAL tail is torn")
            }
        }
    }
}

/// What [`DataLake::recover_from_wal`] found and fixed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WalRecoveryReport {
    /// Intact records replayed from the log.
    pub records_replayed: usize,
    /// Torn-tail bytes discarded.
    pub torn_bytes_discarded: usize,
    /// Whether the lake verified clean against the repaired log.
    pub consistent: bool,
}

impl std::error::Error for LakeError {}

struct RecordEntry {
    versions: Vec<StoredVersion>,
    tombstoned: bool,
}

/// Metadata-only audit view of one record, from
/// [`DataLake::audit_records`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecordAudit {
    /// The record's reference id.
    pub reference: ReferenceId,
    /// Whether the record is tombstoned (phase one of deletion).
    pub tombstoned: bool,
    /// The patient this reference maps to, when an identity mapping exists
    /// (identified PHI rather than de-identified derivatives).
    pub patient: Option<PatientId>,
    /// Per-version metadata, oldest first.
    pub versions: Vec<VersionAudit>,
}

/// Metadata-only audit view of one stored version.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VersionAudit {
    /// 1-based version number.
    pub version: u32,
    /// The version's metadata tags.
    pub tags: BTreeMap<String, String>,
    /// Storage tier.
    pub tier: Tier,
    /// Payload length in bytes (bytes themselves are never exposed).
    pub payload_len: usize,
}

/// The data lake.
pub struct DataLake {
    clock: SimClock,
    wal: WriteAheadLog,
    records: HashMap<ReferenceId, RecordEntry>,
    tag_index: HashMap<(String, String), HashSet<ReferenceId>>,
    identity_map: HashMap<ReferenceId, PatientId>,
    /// `identity_map` inverted and sorted: one (patient, reference) pair
    /// per mapped reference.
    patient_references: BTreeSet<(PatientId, ReferenceId)>,
    hot_latency: SimDuration,
    cold_latency: SimDuration,
    injector: FaultInjector,
}

impl std::fmt::Debug for DataLake {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataLake")
            .field("records", &self.records.len())
            .field("wal_records", &self.wal.record_count())
            .finish()
    }
}

impl DataLake {
    /// Creates a lake with default tier latencies (100 µs hot, 20 ms cold).
    pub fn new(clock: SimClock) -> Self {
        DataLake {
            clock,
            wal: WriteAheadLog::new(),
            records: HashMap::new(),
            tag_index: HashMap::new(),
            identity_map: HashMap::new(),
            patient_references: BTreeSet::new(),
            hot_latency: SimDuration::from_micros(100),
            cold_latency: SimDuration::from_millis(20),
            injector: FaultInjector::disabled(),
        }
    }

    /// Attaches a fault injector; [`STORAGE_CRASH`] faults hit
    /// [`try_put`](Self::try_put).
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = injector;
    }

    /// Stores a new record on the hot tier, returning its reference id.
    pub fn put<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        data: Vec<u8>,
        tags: &[(&str, &str)],
    ) -> ReferenceId {
        let reference = ReferenceId::random(rng);
        self.put_version_internal(reference, data, tags);
        reference
    }

    /// Fault-aware [`put`](Self::put): consults the [`STORAGE_CRASH`]
    /// fault point first. A [`FaultKind::StorageCrash`] (or other hard
    /// fault) there crashes the store mid-WAL-append — the in-memory
    /// state never sees the write and the log is left with a torn tail.
    /// A latency spike just slows the write down. With no injector (or
    /// no active fault) this is exactly `put`.
    ///
    /// # Errors
    ///
    /// Returns [`LakeError::CrashedMidWrite`] when the scripted crash
    /// fires.
    pub fn try_put<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        data: Vec<u8>,
        tags: &[(&str, &str)],
    ) -> Result<ReferenceId, LakeError> {
        match self.injector.check(STORAGE_CRASH) {
            None => {}
            Some(FaultKind::LatencySpike(extra)) => {
                self.clock.advance(extra);
            }
            Some(_) => {
                // Crash mid-append: the length prefix and most of the
                // body hit the log, the tail did not, and the in-memory
                // maps were never touched.
                let reference = ReferenceId::random(rng);
                self.wal.append_torn(reference.as_u128(), WalOp::Put, &data);
                self.clock.advance(self.hot_latency);
                return Err(LakeError::CrashedMidWrite);
            }
        }
        Ok(self.put(rng, data, tags))
    }

    /// Crash recovery: replays the WAL, discards any torn tail, and
    /// re-verifies the lake against the repaired log.
    pub fn recover_from_wal(&mut self) -> WalRecoveryReport {
        let mut records_replayed = 0;
        let err = self.wal.visit(|_| records_replayed += 1);
        let mut report = WalRecoveryReport {
            records_replayed,
            ..WalRecoveryReport::default()
        };
        if let Some(offset) = err.as_ref().map(WalError::offset) {
            report.torn_bytes_discarded = self.wal.byte_len() - offset;
            self.wal.truncate_to(offset);
        }
        report.consistent = self.verify_against_wal().is_empty();
        report
    }

    /// Appends a new version to an existing record.
    ///
    /// # Errors
    ///
    /// Fails if the record is unknown or tombstoned.
    pub fn put_version(
        &mut self,
        reference: ReferenceId,
        data: Vec<u8>,
        tags: &[(&str, &str)],
    ) -> Result<u32, LakeError> {
        match self.records.get(&reference) {
            None => return Err(LakeError::Unknown(reference)),
            Some(e) if e.tombstoned => return Err(LakeError::Tombstoned(reference)),
            Some(_) => {}
        }
        Ok(self.put_version_internal(reference, data, tags))
    }

    fn put_version_internal(
        &mut self,
        reference: ReferenceId,
        data: Vec<u8>,
        tags: &[(&str, &str)],
    ) -> u32 {
        // The log owns the stored bytes; the version views its frame.
        let data = self
            .wal
            .append_shared(reference.as_u128(), WalOp::Put, &data);
        let entry = self.records.entry(reference).or_insert(RecordEntry {
            versions: Vec::new(),
            tombstoned: false,
        });
        let version = entry.versions.len() as u32 + 1;
        let tag_map: BTreeMap<String, String> = tags
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        for (k, v) in &tag_map {
            self.tag_index
                .entry((k.clone(), v.clone()))
                .or_default()
                .insert(reference);
        }
        entry.versions.push(StoredVersion {
            version,
            data,
            tags: tag_map,
            tier: Tier::Hot,
        });
        self.clock.advance(self.hot_latency);
        version
    }

    /// Records the confidential reference-id → patient identity mapping,
    /// replacing any earlier mapping of `reference`.
    pub fn map_identity(&mut self, reference: ReferenceId, patient: PatientId) {
        if let Some(previous) = self.identity_map.insert(reference, patient) {
            self.patient_references.remove(&(previous, reference));
        }
        self.patient_references.insert((patient, reference));
    }

    /// Looks up the patient behind a reference id (re-identification; the
    /// caller must enforce authorization and consent first).
    pub fn identity_of(&self, reference: ReferenceId) -> Option<PatientId> {
        self.identity_map.get(&reference).copied()
    }

    /// All reference ids mapped to `patient`, sorted (for exports and
    /// right-to-forget sweeps).
    pub fn references_of(&self, patient: PatientId) -> Vec<ReferenceId> {
        let first = (patient, ReferenceId::from_raw(0));
        let last = (patient, ReferenceId::from_raw(u128::MAX));
        self.patient_references
            .range(first..=last)
            .map(|&(_, reference)| reference)
            .collect()
    }

    /// Reads the latest version, charging tier latency.
    ///
    /// # Errors
    ///
    /// Fails if the record is unknown or tombstoned.
    pub fn get_latest(&mut self, reference: ReferenceId) -> Result<&StoredVersion, LakeError> {
        let entry = self
            .records
            .get(&reference)
            .ok_or(LakeError::Unknown(reference))?;
        if entry.tombstoned {
            return Err(LakeError::Tombstoned(reference));
        }
        let version = entry.versions.last().ok_or(LakeError::Unknown(reference))?;
        let latency = match version.tier {
            Tier::Hot => self.hot_latency,
            Tier::Cold => self.cold_latency,
        };
        self.clock.advance(latency);
        // Re-borrow after the clock mutation; the entry cannot have
        // vanished, but return an error rather than trusting that.
        self.records
            .get(&reference)
            .and_then(|e| e.versions.last())
            .ok_or(LakeError::Unknown(reference))
    }

    /// Reads a specific version.
    ///
    /// # Errors
    ///
    /// Fails if the record or version is missing, or the record deleted.
    pub fn get_version(
        &mut self,
        reference: ReferenceId,
        version: u32,
    ) -> Result<&StoredVersion, LakeError> {
        let entry = self
            .records
            .get(&reference)
            .ok_or(LakeError::Unknown(reference))?;
        if entry.tombstoned {
            return Err(LakeError::Tombstoned(reference));
        }
        let idx = version
            .checked_sub(1)
            .map(|i| i as usize)
            .filter(|&i| i < entry.versions.len())
            .ok_or(LakeError::NoSuchVersion { reference, version })?;
        let latency = match entry.versions.get(idx).map(|v| v.tier) {
            Some(Tier::Hot) => self.hot_latency,
            Some(Tier::Cold) => self.cold_latency,
            None => return Err(LakeError::NoSuchVersion { reference, version }),
        };
        self.clock.advance(latency);
        self.records
            .get(&reference)
            .and_then(|e| e.versions.get(idx))
            .ok_or(LakeError::NoSuchVersion { reference, version })
    }

    /// Tombstones a record: reads fail, bytes remain until [`purge`](Self::purge).
    ///
    /// # Errors
    ///
    /// Fails if the record is unknown.
    pub fn tombstone(&mut self, reference: ReferenceId) -> Result<(), LakeError> {
        let entry = self
            .records
            .get_mut(&reference)
            .ok_or(LakeError::Unknown(reference))?;
        entry.tombstoned = true;
        self.wal.append(reference.as_u128(), WalOp::Delete, b"");
        Ok(())
    }

    /// Physically removes a tombstoned record and its index entries.
    ///
    /// Pair with KMS shredding of the record's DEK for cryptographic
    /// deletion across backups.
    ///
    /// # Errors
    ///
    /// Fails if the record is unknown; purging a live (non-tombstoned)
    /// record is allowed and acts as tombstone + purge.
    pub fn purge(&mut self, reference: ReferenceId) -> Result<(), LakeError> {
        let entry = self
            .records
            .remove(&reference)
            .ok_or(LakeError::Unknown(reference))?;
        for v in &entry.versions {
            for (k, val) in &v.tags {
                if let Some(set) = self.tag_index.get_mut(&(k.clone(), val.clone())) {
                    set.remove(&reference);
                }
            }
        }
        if let Some(patient) = self.identity_map.remove(&reference) {
            self.patient_references.remove(&(patient, reference));
        }
        self.wal.append(reference.as_u128(), WalOp::Purge, b"");
        Ok(())
    }

    /// Demotes all versions of a record to the cold tier.
    ///
    /// # Errors
    ///
    /// Fails if the record is unknown.
    pub fn demote(&mut self, reference: ReferenceId) -> Result<(), LakeError> {
        let entry = self
            .records
            .get_mut(&reference)
            .ok_or(LakeError::Unknown(reference))?;
        for v in &mut entry.versions {
            v.tier = Tier::Cold;
        }
        Ok(())
    }

    /// Promotes the latest version back to hot (e.g. after a cold hit).
    ///
    /// # Errors
    ///
    /// Fails if the record is unknown.
    pub fn promote_latest(&mut self, reference: ReferenceId) -> Result<(), LakeError> {
        let entry = self
            .records
            .get_mut(&reference)
            .ok_or(LakeError::Unknown(reference))?;
        if let Some(v) = entry.versions.last_mut() {
            v.tier = Tier::Hot;
        }
        Ok(())
    }

    /// Reference ids carrying the tag `(key, value)`, sorted.
    pub fn find_by_tag(&self, key: &str, value: &str) -> Vec<ReferenceId> {
        let mut refs: Vec<ReferenceId> = self
            .tag_index
            .get(&(key.to_owned(), value.to_owned()))
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        refs.sort();
        refs
    }

    /// Number of live (non-tombstoned) records.
    pub fn live_count(&self) -> usize {
        self.records.values().filter(|e| !e.tombstoned).count()
    }

    /// Read-only audit view over every stored record, sorted by reference
    /// id for deterministic scans. Exposes per-version metadata (tags,
    /// tier, payload length) but never payload bytes — the posture
    /// scanner's encryption-at-rest audit runs on this.
    pub fn audit_records(&self) -> Vec<RecordAudit> {
        let mut all: Vec<RecordAudit> = self
            .records
            .iter()
            .map(|(&reference, entry)| RecordAudit {
                reference,
                tombstoned: entry.tombstoned,
                patient: self.identity_map.get(&reference).copied(),
                versions: entry
                    .versions
                    .iter()
                    .map(|v| VersionAudit {
                        version: v.version,
                        tags: v.tags.clone(),
                        tier: v.tier,
                        payload_len: v.data.len(),
                    })
                    .collect(),
            })
            .collect();
        all.sort_by_key(|r| r.reference);
        all
    }

    /// The WAL (for recovery and fault-injection tests).
    pub fn wal(&self) -> &WriteAheadLog {
        &self.wal
    }

    /// Crash-recovery check: replays the WAL and verifies that every
    /// live record's versions are the logged `Put` payloads in order
    /// and that tombstoned/purged records are absent. Returns the list
    /// of discrepancies (empty = consistent). A version that views its
    /// logged payload passes on pointer equality; any other is compared
    /// byte for byte with the payload where it lies in the log.
    pub fn verify_against_wal(&self) -> Vec<String> {
        // Rebuild expected state from the log: (versions, tombstoned).
        let mut expected: HashMap<u128, (Vec<&[u8]>, bool)> = HashMap::new();
        let err = self.wal.visit(|r| match r.op {
            WalOp::Put => expected.entry(r.key).or_default().0.push(r.payload),
            WalOp::Delete => expected.entry(r.key).or_default().1 = true,
            WalOp::Purge => {
                expected.remove(&r.key);
            }
        });
        if let Some(e) = err {
            return vec![format!("wal corruption: {e}")];
        }
        let mut problems = Vec::new();
        for (key, (versions, tombstoned)) in &expected {
            let reference = ReferenceId::from_raw(*key);
            match self.records.get(&reference) {
                None => problems.push(format!("record {reference} in WAL but not in lake")),
                Some(entry) => {
                    if entry.tombstoned != *tombstoned {
                        problems.push(format!("record {reference} tombstone state diverges"));
                    }
                    if entry.versions.len() != versions.len() {
                        problems.push(format!(
                            "record {reference} has {} versions, WAL has {}",
                            entry.versions.len(),
                            versions.len()
                        ));
                    } else {
                        for (i, (stored, logged)) in entry.versions.iter().zip(versions).enumerate()
                        {
                            let viewed = std::ptr::eq(&*stored.data, *logged);
                            if !viewed && *stored.data != **logged {
                                problems.push(format!(
                                    "record {reference} version {} diverges from WAL",
                                    i + 1
                                ));
                            }
                        }
                    }
                }
            }
        }
        for reference in self.records.keys() {
            if !expected.contains_key(&reference.as_u128()) {
                problems.push(format!("record {reference} in lake but not in WAL"));
            }
        }
        problems
    }

    /// The shared clock handle.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lake() -> (DataLake, rand::rngs::StdRng) {
        (DataLake::new(SimClock::new()), hc_common::rng::seeded(7))
    }

    #[test]
    fn put_get_round_trip() {
        let (mut lake, mut rng) = lake();
        let r = lake.put(&mut rng, b"v1".to_vec(), &[("kind", "obs")]);
        let v = lake.get_latest(r).unwrap();
        assert_eq!(v.data, b"v1");
        assert_eq!(v.version, 1);
        assert_eq!(v.tier, Tier::Hot);
    }

    #[test]
    fn versions_accumulate() {
        let (mut lake, mut rng) = lake();
        let r = lake.put(&mut rng, b"v1".to_vec(), &[]);
        let v2 = lake.put_version(r, b"v2".to_vec(), &[]).unwrap();
        assert_eq!(v2, 2);
        assert_eq!(lake.get_latest(r).unwrap().data, b"v2");
        assert_eq!(lake.get_version(r, 1).unwrap().data, b"v1");
    }

    #[test]
    fn missing_version_errors() {
        let (mut lake, mut rng) = lake();
        let r = lake.put(&mut rng, b"v1".to_vec(), &[]);
        assert!(matches!(
            lake.get_version(r, 5),
            Err(LakeError::NoSuchVersion { version: 5, .. })
        ));
        assert!(matches!(
            lake.get_version(r, 0),
            Err(LakeError::NoSuchVersion { .. })
        ));
    }

    #[test]
    fn tombstone_blocks_reads_purge_removes() {
        let (mut lake, mut rng) = lake();
        let r = lake.put(&mut rng, b"v".to_vec(), &[("k", "v")]);
        lake.tombstone(r).unwrap();
        assert_eq!(lake.get_latest(r), Err(LakeError::Tombstoned(r)));
        assert_eq!(lake.live_count(), 0);
        lake.purge(r).unwrap();
        assert_eq!(lake.get_latest(r), Err(LakeError::Unknown(r)));
        assert!(lake.find_by_tag("k", "v").is_empty());
    }

    #[test]
    fn identity_mapping_and_right_to_forget_sweep() {
        let (mut lake, mut rng) = lake();
        let p = PatientId::from_raw(42);
        let r1 = lake.put(&mut rng, b"a".to_vec(), &[]);
        let r2 = lake.put(&mut rng, b"b".to_vec(), &[]);
        let r3 = lake.put(&mut rng, b"c".to_vec(), &[]);
        lake.map_identity(r1, p);
        lake.map_identity(r2, p);
        lake.map_identity(r3, PatientId::from_raw(9));
        let refs = lake.references_of(p);
        assert_eq!(refs.len(), 2);
        for r in refs {
            lake.purge(r).unwrap();
        }
        assert!(lake.references_of(p).is_empty());
        assert_eq!(lake.identity_of(r3), Some(PatientId::from_raw(9)));
    }

    /// The full scan `references_of` replaced, kept as the oracle.
    fn scan_references_of(lake: &DataLake, patient: PatientId) -> Vec<ReferenceId> {
        let mut refs: Vec<ReferenceId> = lake
            .identity_map
            .iter()
            .filter(|(_, p)| **p == patient)
            .map(|(r, _)| *r)
            .collect();
        refs.sort();
        refs
    }

    proptest::proptest! {
        /// Random map, remap and purge sequences over a few references and
        /// patients: after every step the index answers as the scan does
        /// and holds one pair per mapped reference.
        #[test]
        fn patient_index_matches_the_identity_scan(
            ops in proptest::collection::vec((0u8..3, 0u8..6, 0u8..4), 0..80),
        ) {
            let (mut lake, mut rng) = lake();
            let references: Vec<ReferenceId> =
                (0..6).map(|_| lake.put(&mut rng, b"r".to_vec(), &[])).collect();
            for (op, r, p) in ops {
                let reference = references[r as usize];
                let patient = PatientId::from_raw(u128::from(p));
                if op == 2 {
                    let _ = lake.purge(reference);
                } else {
                    lake.map_identity(reference, patient);
                }
                for raw in 0..4u128 {
                    let patient = PatientId::from_raw(raw);
                    proptest::prop_assert_eq!(
                        lake.references_of(patient),
                        scan_references_of(&lake, patient)
                    );
                }
                proptest::prop_assert_eq!(lake.patient_references.len(), lake.identity_map.len());
            }
        }
    }

    #[test]
    fn tag_index_finds_records() {
        let (mut lake, mut rng) = lake();
        let r1 = lake.put(&mut rng, b"a".to_vec(), &[("study", "s1")]);
        let _r2 = lake.put(&mut rng, b"b".to_vec(), &[("study", "s2")]);
        assert_eq!(lake.find_by_tag("study", "s1"), vec![r1]);
        assert!(lake.find_by_tag("study", "s3").is_empty());
    }

    #[test]
    fn cold_tier_costs_more() {
        let (mut lake, mut rng) = lake();
        let r = lake.put(&mut rng, b"v".to_vec(), &[]);
        let t0 = lake.clock().now();
        let _ = lake.get_latest(r).unwrap();
        let hot_cost = lake.clock().now().duration_since(t0);
        lake.demote(r).unwrap();
        let t1 = lake.clock().now();
        let _ = lake.get_latest(r).unwrap();
        let cold_cost = lake.clock().now().duration_since(t1);
        assert!(cold_cost.as_nanos() > 10 * hot_cost.as_nanos());
        lake.promote_latest(r).unwrap();
        assert_eq!(lake.get_latest(r).unwrap().tier, Tier::Hot);
    }

    #[test]
    fn wal_records_every_mutation() {
        let (mut lake, mut rng) = lake();
        let r = lake.put(&mut rng, b"v".to_vec(), &[]);
        lake.put_version(r, b"v2".to_vec(), &[]).unwrap();
        lake.tombstone(r).unwrap();
        lake.purge(r).unwrap();
        let (records, err) = lake.wal().replay();
        assert!(err.is_none());
        assert_eq!(records.len(), 4);
        assert_eq!(records[2].op, WalOp::Delete);
        assert_eq!(records[3].op, WalOp::Purge);
    }

    #[test]
    fn put_version_on_tombstoned_fails() {
        let (mut lake, mut rng) = lake();
        let r = lake.put(&mut rng, b"v".to_vec(), &[]);
        lake.tombstone(r).unwrap();
        assert_eq!(
            lake.put_version(r, b"v2".to_vec(), &[]),
            Err(LakeError::Tombstoned(r))
        );
    }
}

#[cfg(test)]
mod wal_recovery_tests {
    use super::*;
    use crate::wal::HEADER_LEN;

    #[test]
    fn consistent_lake_verifies_against_wal() {
        let mut lake = DataLake::new(SimClock::new());
        let mut rng = hc_common::rng::seeded(60);
        let r1 = lake.put(&mut rng, b"a".to_vec(), &[]);
        lake.put_version(r1, b"a2".to_vec(), &[]).unwrap();
        let r2 = lake.put(&mut rng, b"b".to_vec(), &[]);
        lake.tombstone(r2).unwrap();
        let r3 = lake.put(&mut rng, b"c".to_vec(), &[]);
        lake.tombstone(r3).unwrap();
        lake.purge(r3).unwrap();
        assert!(lake.verify_against_wal().is_empty());
    }

    #[test]
    fn silent_state_mutation_detected() {
        let mut lake = DataLake::new(SimClock::new());
        let mut rng = hc_common::rng::seeded(61);
        let r = lake.put(&mut rng, b"original".to_vec(), &[]);
        // Bypass the WAL: mutate in-memory state directly (simulated
        // memory corruption / bug).
        lake.records.get_mut(&r).unwrap().versions[0].data = b"corrupt".to_vec().into();
        let problems = lake.verify_against_wal();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("diverges from WAL"));
    }

    #[test]
    fn crash_mid_wal_append_recovers_consistently() {
        use hc_common::fault::FaultSpec;

        let clock = SimClock::new();
        let mut lake = DataLake::new(clock.clone());
        let mut rng = hc_common::rng::seeded(63);
        let injector = FaultInjector::new(clock, 0xD1E);
        injector.schedule(
            STORAGE_CRASH,
            FaultSpec::always(FaultKind::StorageCrash).limit(1),
        );
        lake.set_fault_injector(injector);

        let r1 = lake.put(&mut rng, b"before".to_vec(), &[]);
        let err = lake.try_put(&mut rng, b"doomed".to_vec(), &[]).unwrap_err();
        assert_eq!(err, LakeError::CrashedMidWrite);
        // The torn tail makes the log unverifiable until recovery runs.
        assert!(lake.verify_against_wal()[0].contains("wal corruption"));

        let report = lake.recover_from_wal();
        assert_eq!(report.records_replayed, 1);
        assert!(report.torn_bytes_discarded > 0);
        assert!(report.consistent);
        assert!(lake.verify_against_wal().is_empty());

        // The crash budget is spent: writes work again and the durable
        // record survived untouched.
        let r2 = lake.try_put(&mut rng, b"after".to_vec(), &[]).unwrap();
        assert_eq!(lake.get_latest(r1).unwrap().data, b"before");
        assert_eq!(lake.get_latest(r2).unwrap().data, b"after");
    }

    #[test]
    fn try_put_without_faults_is_plain_put() {
        let mut lake = DataLake::new(SimClock::new());
        let mut rng = hc_common::rng::seeded(64);
        let r = lake.try_put(&mut rng, b"v".to_vec(), &[("k", "v")]).unwrap();
        assert_eq!(lake.get_latest(r).unwrap().data, b"v");
        assert!(lake.verify_against_wal().is_empty());
    }

    /// The seed of the framed-log differential test: `HC_SOAK_SEED` when
    /// set.
    fn soak_seed() -> u64 {
        std::env::var("HC_SOAK_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x3A1)
    }

    type State = BTreeMap<u128, (Vec<Vec<u8>>, bool)>;

    /// Every record's versions and tombstone flag, as the lake holds them.
    fn lake_state(lake: &DataLake) -> State {
        lake.records
            .iter()
            .map(|(reference, entry)| {
                let versions = entry.versions.iter().map(|v| v.data.to_vec()).collect();
                (reference.as_u128(), (versions, entry.tombstoned))
            })
            .collect()
    }

    /// The state `records` log, rebuilt as the old byte-comparing check
    /// rebuilt it.
    fn logged_state(records: &[crate::wal::WalRecord]) -> State {
        let mut state = State::new();
        for r in records {
            match r.op {
                WalOp::Put => state.entry(r.key).or_default().0.push(r.payload.clone()),
                WalOp::Delete => state.entry(r.key).or_default().1 = true,
                WalOp::Purge => {
                    state.remove(&r.key);
                }
            }
        }
        state
    }

    /// Random put, put-version, tombstone and purge sequences, some with
    /// a `try_put` crash among them, then optionally a flipped byte, a cut
    /// tail or a CRC-valid malformed record. The framed log must replay
    /// what the contiguous parser reads from its bytes (the same records,
    /// the same error at the same offset), measure as many bytes, and
    /// recover with the report that reading implies.
    #[test]
    fn framed_log_matches_the_contiguous_parser() {
        use hc_common::fault::FaultSpec;
        use rand::Rng;

        let seed = soak_seed();
        // Outcomes seen: clean, checksum, truncated, malformed, and
        // recoveries that left the lake inconsistent.
        let mut seen = [0usize; 5];
        for case in 0..400u64 {
            let mut rng = hc_common::rng::seeded_stream(seed, case);
            let clock = SimClock::new();
            let mut lake = DataLake::new(clock.clone());
            let injector = FaultInjector::new(clock, case);
            injector.schedule(
                STORAGE_CRASH,
                FaultSpec::always(FaultKind::StorageCrash).limit(1),
            );
            lake.set_fault_injector(injector);
            let steps = rng.gen_range(0..40usize);
            let crash_at = rng.gen_range(0..steps.max(1) * 3);
            let mut references = Vec::new();
            for step in 0..steps {
                // Mostly short payloads, some under four bytes, so a torn
                // tail can reach into the header.
                let len = match rng.gen_range(0..4u32) {
                    0 => rng.gen_range(0..4usize),
                    _ => rng.gen_range(0..200usize),
                };
                let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                let existing = (!references.is_empty())
                    .then(|| references[rng.gen_range(0..references.len())]);
                match (rng.gen_range(0..100u32), existing) {
                    _ if step == crash_at => {
                        assert!(lake.try_put(&mut rng, payload, &[]).is_err());
                    }
                    (0..=39, _) | (_, None) => references.push(lake.put(&mut rng, payload, &[])),
                    (40..=69, Some(r)) => {
                        let _ = lake.put_version(r, payload, &[]);
                    }
                    (70..=84, Some(r)) => {
                        let _ = lake.tombstone(r);
                    }
                    (_, Some(r)) => {
                        let _ = lake.purge(r);
                    }
                }
            }
            let byte_len = lake.wal.byte_len();
            match rng.gen_range(0..5u32) {
                2 if byte_len > 0 => {
                    lake.wal
                        .flip_byte(rng.gen_range(0..byte_len), rng.gen_range(1..=255u8));
                }
                3 if byte_len > 0 => lake.wal.truncate_to(rng.gen_range(0..byte_len)),
                4 => {
                    let mut body = vec![0u8; rng.gen_range(0..=HEADER_LEN)];
                    if let Some(op) = body.get_mut(HEADER_LEN - 1) {
                        *op = rng.gen_range(3..=255u8);
                    }
                    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
                    frame.extend_from_slice(&crate::wal::crc32(&body).to_le_bytes());
                    frame.extend_from_slice(&body);
                    lake.wal.push_raw_frame(frame);
                }
                _ => {}
            }

            let bytes = lake.wal.to_bytes();
            assert_eq!(lake.wal.byte_len(), bytes.len(), "case {case}");
            let (records, err) = crate::wal::replay_contiguous(&bytes);
            assert_eq!(
                lake.wal.replay(),
                (records.clone(), err.clone()),
                "case {case}"
            );
            let matches = logged_state(&records) == lake_state(&lake);
            assert_eq!(
                lake.verify_against_wal().is_empty(),
                err.is_none() && matches,
                "case {case}"
            );
            seen[match err {
                None => 0,
                Some(WalError::ChecksumMismatch { .. }) => 1,
                Some(WalError::TruncatedRecord { .. }) => 2,
                Some(WalError::MalformedRecord { .. }) => 3,
            }] += 1;
            let cut = err.as_ref().map_or(bytes.len(), WalError::offset);
            let expected = WalRecoveryReport {
                records_replayed: records.len(),
                torn_bytes_discarded: bytes.len() - cut,
                consistent: matches,
            };
            assert_eq!(lake.recover_from_wal(), expected, "case {case}");
            seen[4] += usize::from(!matches);
            assert_eq!(lake.wal.to_bytes(), bytes[..cut], "case {case}");
            assert_eq!(lake.wal.replay(), (records, None), "case {case}");
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "every outcome exercised: {seen:?}"
        );
    }

    #[test]
    fn wal_corruption_reported() {
        let mut lake = DataLake::new(SimClock::new());
        let mut rng = hc_common::rng::seeded(62);
        let _ = lake.put(&mut rng, b"x".to_vec(), &[]);
        lake.wal.flip_byte(10, 0xff);
        let problems = lake.verify_against_wal();
        assert!(problems[0].contains("wal corruption"));
    }
}
