//! The knowledge-base query service with a local cache.
//!
//! §III: "We cache data from these knowledge bases locally. That way, data
//! can be accessed and analyzed more quickly than if it needs to be
//! fetched remotely. For the most up-to-date data, the remote knowledge
//! bases can be directly queried."

use hc_cache::policy::{CachePolicy, LruCache};
use hc_common::clock::{SimClock, SimDuration};

use crate::biobank::{Biobank, Disease, Drug};

/// A cached or remote query result, with its cost.
#[derive(Clone, Debug)]
pub struct KbAnswer<T> {
    /// The value (if the entity exists).
    pub value: Option<T>,
    /// Whether it came from the local cache.
    pub cached: bool,
    /// The simulated cost of the lookup.
    pub latency: SimDuration,
}

/// A knowledge-base front end over the synthetic biobank.
pub struct KnowledgeBaseService {
    bank: Biobank,
    clock: SimClock,
    remote_latency: SimDuration,
    local_latency: SimDuration,
    drug_cache: LruCache<usize, Drug>,
    disease_cache: LruCache<usize, Disease>,
}

impl std::fmt::Debug for KnowledgeBaseService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KnowledgeBaseService")
            .field("drugs", &self.bank.drugs.len())
            .field("diseases", &self.bank.diseases.len())
            .finish()
    }
}

impl KnowledgeBaseService {
    /// Wraps a biobank with a cache of `cache_capacity` entries per type.
    pub fn new(bank: Biobank, clock: SimClock, cache_capacity: usize) -> Self {
        KnowledgeBaseService {
            bank,
            clock,
            remote_latency: SimDuration::from_millis(40),
            local_latency: SimDuration::from_micros(5),
            drug_cache: LruCache::new(cache_capacity.max(1)),
            disease_cache: LruCache::new(cache_capacity.max(1)),
        }
    }

    /// Looks up a drug, going to the cache first.
    pub fn drug(&mut self, index: usize) -> KbAnswer<Drug> {
        if let Some(hit) = self.drug_cache.get(&index) {
            self.clock.advance(self.local_latency);
            return KbAnswer {
                value: Some(hit),
                cached: true,
                latency: self.local_latency,
            };
        }
        self.clock.advance(self.remote_latency);
        let value = self.bank.drugs.get(index).cloned();
        if let Some(v) = &value {
            self.drug_cache.put(index, v.clone());
        }
        KbAnswer {
            value,
            cached: false,
            latency: self.remote_latency,
        }
    }

    /// Looks up a disease, going to the cache first.
    pub fn disease(&mut self, index: usize) -> KbAnswer<Disease> {
        if let Some(hit) = self.disease_cache.get(&index) {
            self.clock.advance(self.local_latency);
            return KbAnswer {
                value: Some(hit),
                cached: true,
                latency: self.local_latency,
            };
        }
        self.clock.advance(self.remote_latency);
        let value = self.bank.diseases.get(index).cloned();
        if let Some(v) = &value {
            self.disease_cache.put(index, v.clone());
        }
        KbAnswer {
            value,
            cached: false,
            latency: self.remote_latency,
        }
    }

    /// Bypasses the cache for the freshest data (always remote cost).
    pub fn drug_fresh(&mut self, index: usize) -> KbAnswer<Drug> {
        self.clock.advance(self.remote_latency);
        KbAnswer {
            value: self.bank.drugs.get(index).cloned(),
            cached: false,
            latency: self.remote_latency,
        }
    }

    /// The underlying biobank.
    pub fn bank(&self) -> &Biobank {
        &self.bank
    }

    /// Cache hit ratio across both caches.
    pub fn cache_hit_ratio(&self) -> f64 {
        let d = self.drug_cache.stats();
        let s = self.disease_cache.stats();
        let hits = d.hits + s.hits;
        let total = d.lookups() + s.lookups();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biobank::BiobankConfig;

    fn service() -> KnowledgeBaseService {
        let bank = Biobank::generate(
            &BiobankConfig {
                n_drugs: 20,
                n_diseases: 10,
                ..BiobankConfig::default()
            },
            3,
        );
        KnowledgeBaseService::new(bank, SimClock::new(), 8)
    }

    #[test]
    fn second_lookup_is_cached_and_cheap() {
        let mut svc = service();
        let cold = svc.drug(3);
        assert!(!cold.cached);
        let warm = svc.drug(3);
        assert!(warm.cached);
        assert!(warm.latency < cold.latency);
        assert_eq!(warm.value.unwrap().index, 3);
    }

    #[test]
    fn fresh_lookup_bypasses_cache() {
        let mut svc = service();
        let _ = svc.drug(3);
        let fresh = svc.drug_fresh(3);
        assert!(!fresh.cached);
    }

    #[test]
    fn missing_entity_returns_none() {
        let mut svc = service();
        assert!(svc.drug(999).value.is_none());
        assert!(svc.disease(999).value.is_none());
    }

    #[test]
    fn hit_ratio_tracks_traffic() {
        let mut svc = service();
        let _ = svc.drug(1);
        let _ = svc.drug(1);
        let _ = svc.disease(2);
        let _ = svc.disease(2);
        assert!((svc.cache_hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clock_charged_per_lookup() {
        let mut svc = service();
        let before = svc.clock.now();
        let _ = svc.drug(1);
        let after = svc.clock.now();
        assert_eq!(after.duration_since(before).as_millis(), 40);
    }
}
