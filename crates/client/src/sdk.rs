//! The enhanced client.
//!
//! A client machine holding: a local cache in front of the remote cloud
//! server, a client-side encryption key (data leaves the device sealed),
//! a client-side anonymizer, and an offline queue — operations performed
//! while disconnected are replayed on reconnect.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use hc_cache::policy::{CachePolicy, LruCache};
use hc_common::clock::{SimClock, SimDuration};
use hc_crypto::aead::{self, SecretKey, Sealed};
use hc_fhir::bundle::Bundle;
use hc_privacy::phi::{deidentify_bundle, DeidConfig, Deidentified};
use hc_resilience::admission::Tier;
use hc_resilience::TimeoutBudget;

/// A simulated remote cloud store shared by clients and servers.
pub type RemoteStore = Arc<Mutex<HashMap<String, Vec<u8>>>>;

/// Where a read was served from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Served {
    /// From the client's local cache.
    ClientCache,
    /// From the remote server.
    Remote,
    /// The key does not exist.
    Absent,
}

/// The outcome of a client read.
#[derive(Clone, Debug)]
pub struct ClientRead {
    /// The bytes, if found.
    pub value: Option<Vec<u8>>,
    /// Where they came from.
    pub served: Served,
    /// Simulated latency charged.
    pub latency: SimDuration,
}

/// Errors from client operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ClientError {
    /// The client is offline and the operation needs the server now.
    Offline,
    /// Decryption of a fetched record failed.
    DecryptFailed,
    /// The request's deadline budget cannot cover the next hop, so the
    /// client shed it *before* spending a server round trip on an answer
    /// that would arrive too late anyway (deadline propagation).
    DeadlineExceeded,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Offline => f.write_str("client is offline"),
            ClientError::DecryptFailed => f.write_str("client-side decryption failed"),
            ClientError::DeadlineExceeded => {
                f.write_str("deadline budget exhausted before the next hop")
            }
        }
    }
}

impl std::error::Error for ClientError {}

#[derive(Clone, Debug)]
enum Pending {
    Put { key: String, value: Vec<u8> },
    Delete { key: String },
}

/// The enhanced client.
pub struct EnhancedClient {
    clock: SimClock,
    cache: LruCache<String, Vec<u8>>,
    remote: RemoteStore,
    key: SecretKey,
    deid: DeidConfig,
    offline: bool,
    queue: Vec<Pending>,
    /// Latency of a local cache hit.
    pub local_latency: SimDuration,
    /// Latency of a server round trip.
    pub remote_latency: SimDuration,
    /// Per-tier SLO budgets for tiered reads, indexed by [`Tier::index`].
    tier_slos: [SimDuration; 3],
}

impl std::fmt::Debug for EnhancedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnhancedClient")
            .field("offline", &self.offline)
            .field("queued", &self.queue.len())
            .finish()
    }
}

impl EnhancedClient {
    /// Creates a client over a shared remote store.
    pub fn new(clock: SimClock, remote: RemoteStore, key: SecretKey, cache_capacity: usize) -> Self {
        EnhancedClient {
            clock,
            cache: LruCache::new(cache_capacity.max(1)),
            remote,
            key,
            deid: DeidConfig::default(),
            offline: false,
            queue: Vec::new(),
            local_latency: SimDuration::from_micros(5),
            remote_latency: SimDuration::from_millis(50),
            tier_slos: [
                SimDuration::from_millis(250),   // clinical
                SimDuration::from_millis(1000),  // interactive
                SimDuration::from_millis(10_000) // batch
            ],
        }
    }

    /// The SLO budget a [`Tier`] request starts with at this client.
    pub fn tier_slo(&self, tier: Tier) -> SimDuration {
        self.tier_slos[tier.index()] // hc-lint: allow(panic-index)
    }

    /// Overrides a tier's SLO budget.
    pub fn set_tier_slo(&mut self, tier: Tier, slo: SimDuration) {
        self.tier_slos[tier.index()] = slo; // hc-lint: allow(panic-index)
    }

    /// Disconnects the client; subsequent writes queue locally.
    pub fn go_offline(&mut self) {
        self.offline = true;
    }

    /// Reconnects, replaying every queued operation against the server.
    /// Returns how many operations were replayed.
    pub fn go_online(&mut self) -> usize {
        self.offline = false;
        let queued = std::mem::take(&mut self.queue);
        let count = queued.len();
        for op in queued {
            match op {
                Pending::Put { key, value } => {
                    self.clock.advance(self.remote_latency);
                    self.remote.lock().insert(key, value);
                }
                Pending::Delete { key } => {
                    self.clock.advance(self.remote_latency);
                    self.remote.lock().remove(&key);
                }
            }
        }
        count
    }

    /// Reads a key: local cache first, then (if online) the server.
    pub fn get(&mut self, key: &str) -> Result<ClientRead, ClientError> {
        if let Some(value) = self.cache.get(&key.to_owned()) {
            self.clock.advance(self.local_latency);
            return Ok(ClientRead {
                value: Some(value),
                served: Served::ClientCache,
                latency: self.local_latency,
            });
        }
        if self.offline {
            return Err(ClientError::Offline);
        }
        self.clock.advance(self.remote_latency);
        let value = self.remote.lock().get(key).cloned();
        if let Some(v) = &value {
            self.cache.put(key.to_owned(), v.clone());
        }
        Ok(ClientRead {
            served: if value.is_some() {
                Served::Remote
            } else {
                Served::Absent
            },
            value,
            latency: self.remote_latency,
        })
    }

    /// Reads a key under a deadline budget, shedding the remote hop when
    /// the remaining budget cannot cover it.
    ///
    /// This is the client edge of the platform's deadline propagation:
    /// the *same* budget (or a [`TimeoutBudget::child`] of it) travels
    /// down the client → cache → origin chain, so time spent at one hop
    /// shrinks what the next hop may spend. A cache hit only needs
    /// `local_latency`; on a miss the server round trip is attempted
    /// only if `remote_latency` still fits — otherwise the read fails
    /// fast with [`ClientError::DeadlineExceeded`] *without* wasting a
    /// round trip whose answer would be dead on arrival.
    ///
    /// # Errors
    ///
    /// [`ClientError::DeadlineExceeded`] when the budget cannot cover
    /// the required hop; [`ClientError::Offline`] as for
    /// [`get`](Self::get).
    pub fn get_within(
        &mut self,
        key: &str,
        budget: TimeoutBudget,
    ) -> Result<ClientRead, ClientError> {
        if self.cache.get(&key.to_owned()).is_some() {
            if !budget.admits(&self.clock, self.local_latency) {
                return Err(ClientError::DeadlineExceeded);
            }
            return self.get(key);
        }
        if self.offline {
            return Err(ClientError::Offline);
        }
        // The remote hop inherits what is left of the caller's budget,
        // capped at one round trip; shed early if that cannot fit.
        let hop = budget.child(&self.clock, self.remote_latency);
        if !hop.admits(&self.clock, self.remote_latency) {
            return Err(ClientError::DeadlineExceeded);
        }
        self.get(key)
    }

    /// Reads a key at a priority [`Tier`], starting a deadline budget
    /// from the tier's SLO ([`tier_slo`](Self::tier_slo)).
    ///
    /// # Errors
    ///
    /// As for [`get_within`](Self::get_within).
    pub fn get_tiered(&mut self, key: &str, tier: Tier) -> Result<ClientRead, ClientError> {
        let budget = TimeoutBudget::starting_now(&self.clock, self.tier_slo(tier));
        self.get_within(key, budget)
    }

    /// Writes raw bytes (queued while offline). The local cache is
    /// updated immediately so disconnected reads see the client's own
    /// writes.
    pub fn put(&mut self, key: &str, value: Vec<u8>) {
        self.cache.put(key.to_owned(), value.clone());
        if self.offline {
            self.queue.push(Pending::Put {
                key: key.to_owned(),
                value,
            });
        } else {
            self.clock.advance(self.remote_latency);
            self.remote.lock().insert(key.to_owned(), value);
        }
    }

    /// Deletes a key everywhere (queued while offline).
    pub fn delete(&mut self, key: &str) {
        self.cache.invalidate(&key.to_owned());
        if self.offline {
            self.queue.push(Pending::Delete {
                key: key.to_owned(),
            });
        } else {
            self.clock.advance(self.remote_latency);
            self.remote.lock().remove(key);
        }
    }

    /// Client-side encryption: seals `plaintext` before it leaves the
    /// device, then stores the envelope under `key_name`.
    pub fn put_encrypted(&mut self, key_name: &str, plaintext: &[u8]) {
        let sealed = aead::seal(&self.key, plaintext, key_name.as_bytes());
        let bytes = serde_json::to_vec(&sealed).expect("sealed serializes");
        self.put(key_name, bytes);
    }

    /// Fetches and opens a client-encrypted record.
    ///
    /// # Errors
    ///
    /// Fails when offline with a cold cache, or when the envelope fails
    /// authentication (tampered server copy).
    pub fn get_encrypted(&mut self, key_name: &str) -> Result<Option<Vec<u8>>, ClientError> {
        let read = self.get(key_name)?;
        let Some(bytes) = read.value else {
            return Ok(None);
        };
        let sealed: Sealed =
            serde_json::from_slice(&bytes).map_err(|_| ClientError::DecryptFailed)?;
        let plain = aead::open(&self.key, &sealed, key_name.as_bytes())
            .map_err(|_| ClientError::DecryptFailed)?;
        Ok(Some(plain))
    }

    /// Client-side anonymization: de-identifies a bundle on the device,
    /// keeping the pseudonym map local and returning the safe bundle.
    /// ("Highly confidential data can be analyzed and encrypted or
    /// anonymized at clients before being sent to servers", §I.)
    pub fn anonymize_local(&self, bundle: &Bundle, salt: &[u8]) -> Deidentified {
        deidentify_bundle(bundle, &self.deid, salt)
    }

    /// Runs an arbitrary computation over locally cached values without
    /// any server round trip (client-side analytics / edge compute).
    pub fn compute_local<T>(
        &mut self,
        keys: &[&str],
        f: impl FnOnce(&[Option<Vec<u8>>]) -> T,
    ) -> (T, SimDuration) {
        let mut inputs = Vec::with_capacity(keys.len());
        let mut latency = SimDuration::ZERO;
        for k in keys {
            inputs.push(self.cache.get(&(*k).to_owned()));
            latency += self.local_latency;
        }
        self.clock.advance(SimDuration::ZERO); // compute time modelled by caller
        (f(&inputs), latency)
    }

    /// Cache statistics.
    pub fn cache_stats(&self) -> hc_cache::stats::CacheStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_fhir::bundle::BundleKind;
    use hc_fhir::resource::{Patient, Resource};

    fn setup() -> (EnhancedClient, RemoteStore, SimClock) {
        let clock = SimClock::new();
        let remote: RemoteStore = Arc::new(Mutex::new(HashMap::new()));
        let client = EnhancedClient::new(
            clock.clone(),
            Arc::clone(&remote),
            SecretKey::from_bytes([4u8; 32]),
            16,
        );
        (client, remote, clock)
    }

    #[test]
    fn cached_read_is_orders_of_magnitude_faster() {
        let (mut client, _, _) = setup();
        client.put("k", b"v".to_vec());
        client.cache.invalidate(&"k".to_owned());
        let cold = client.get("k").unwrap();
        assert_eq!(cold.served, Served::Remote);
        let warm = client.get("k").unwrap();
        assert_eq!(warm.served, Served::ClientCache);
        assert!(cold.latency.as_nanos() > 1000 * warm.latency.as_nanos());
    }

    #[test]
    fn offline_writes_queue_and_replay() {
        let (mut client, remote, _) = setup();
        client.go_offline();
        client.put("a", b"1".to_vec());
        client.put("b", b"2".to_vec());
        assert!(remote.lock().is_empty(), "nothing reached the server");
        // Client still reads its own writes.
        assert_eq!(client.get("a").unwrap().value, Some(b"1".to_vec()));
        let replayed = client.go_online();
        assert_eq!(replayed, 2);
        assert_eq!(remote.lock().len(), 2);
    }

    #[test]
    fn offline_cold_read_errors() {
        let (mut client, remote, _) = setup();
        remote.lock().insert("k".into(), b"v".to_vec());
        client.go_offline();
        assert_eq!(client.get("k").unwrap_err(), ClientError::Offline);
    }

    #[test]
    fn offline_delete_replays() {
        let (mut client, remote, _) = setup();
        client.put("k", b"v".to_vec());
        client.go_offline();
        client.delete("k");
        assert!(remote.lock().contains_key("k"));
        client.go_online();
        assert!(!remote.lock().contains_key("k"));
    }

    #[test]
    fn encrypted_put_hides_plaintext_from_server() {
        let (mut client, remote, _) = setup();
        client.put_encrypted("phi", b"hba1c=9.1 patient=jane");
        let server_copy = remote.lock().get("phi").cloned().unwrap();
        let as_text = String::from_utf8_lossy(&server_copy);
        assert!(!as_text.contains("jane"));
        assert_eq!(
            client.get_encrypted("phi").unwrap(),
            Some(b"hba1c=9.1 patient=jane".to_vec())
        );
    }

    #[test]
    fn tampered_server_copy_detected() {
        let (mut client, remote, _) = setup();
        client.put_encrypted("phi", b"secret");
        {
            let mut store = remote.lock();
            let bytes = store.get_mut("phi").unwrap();
            let n = bytes.len();
            bytes[n / 2] ^= 0x01;
        }
        client.cache.clear();
        assert_eq!(
            client.get_encrypted("phi").unwrap_err(),
            ClientError::DecryptFailed
        );
    }

    #[test]
    fn anonymize_local_strips_phi() {
        let (client, _, _) = setup();
        let bundle = Bundle::new(
            BundleKind::Transaction,
            vec![Resource::Patient(
                Patient::builder("p1").name("Doe", "Jane").phone("555").build(),
            )],
        );
        let result = client.anonymize_local(&bundle, b"salt");
        let json = result.bundle.to_json();
        assert!(!json.contains("Jane"));
        assert!(!json.contains("555"));
        assert!(result.pseudonyms.contains_key("p1"));
    }

    #[test]
    fn compute_local_avoids_server() {
        let (mut client, _, clock) = setup();
        client.put("x", vec![1, 2, 3]);
        let before = clock.now();
        let (sum, latency) = client.compute_local(&["x"], |inputs| {
            inputs[0].as_ref().map(|v| v.iter().map(|b| u32::from(*b)).sum::<u32>())
        });
        assert_eq!(sum, Some(6));
        assert!(latency < client.remote_latency);
        // Clock advanced by at most the local work, not a round trip.
        assert!(clock.now().duration_since(before) < client.remote_latency);
    }

    #[test]
    fn absent_key_reported() {
        let (mut client, _, _) = setup();
        let read = client.get("missing").unwrap();
        assert_eq!(read.served, Served::Absent);
        assert!(read.value.is_none());
        assert_eq!(client.get_encrypted("missing").unwrap(), None);
    }

    #[test]
    fn deadline_too_tight_for_remote_sheds_without_round_trip() {
        let (mut client, remote, clock) = setup();
        remote.lock().insert("k".into(), b"v".to_vec());
        let before = clock.now();
        // Budget smaller than one server round trip and the cache is
        // cold: the client must fail fast, not pay 50 ms for a late
        // answer.
        let budget = TimeoutBudget::starting_now(&clock, SimDuration::from_millis(1));
        assert_eq!(
            client.get_within("k", budget).unwrap_err(),
            ClientError::DeadlineExceeded
        );
        assert_eq!(clock.now(), before, "no latency charged for a shed read");
        // A warm cache serves the same tight budget fine.
        client.put("k", b"v".to_vec());
        assert_eq!(
            client
                .get_within("k", TimeoutBudget::starting_now(&clock, SimDuration::from_millis(1)))
                .unwrap()
                .served,
            Served::ClientCache
        );
    }

    #[test]
    fn budget_decrements_across_hops_not_per_call() {
        let (mut client, remote, clock) = setup();
        remote.lock().insert("a".into(), b"1".to_vec());
        remote.lock().insert("b".into(), b"2".to_vec());
        // 80 ms covers one 50 ms round trip, not two: the second cold
        // read must be shed because the budget carried over, rather than
        // being re-minted per call.
        let budget = TimeoutBudget::starting_now(&clock, SimDuration::from_millis(80));
        assert!(client.get_within("a", budget).is_ok());
        assert_eq!(
            client.get_within("b", budget).unwrap_err(),
            ClientError::DeadlineExceeded
        );
    }

    #[test]
    fn tiered_reads_start_from_tier_slos() {
        let (mut client, remote, _) = setup();
        remote.lock().insert("k".into(), b"v".to_vec());
        assert!(client.tier_slo(Tier::Clinical) < client.tier_slo(Tier::Batch));
        // Clinical SLO tighter than a round trip: cold read shed.
        client.set_tier_slo(Tier::Clinical, SimDuration::from_millis(10));
        assert_eq!(
            client.get_tiered("k", Tier::Clinical).unwrap_err(),
            ClientError::DeadlineExceeded
        );
        // Batch has time for the origin.
        assert_eq!(
            client.get_tiered("k", Tier::Batch).unwrap().served,
            Served::Remote
        );
        // …and now clinical is served from the warmed cache.
        assert_eq!(
            client.get_tiered("k", Tier::Clinical).unwrap().served,
            Served::ClientCache
        );
    }
}
