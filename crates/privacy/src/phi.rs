//! HIPAA Safe Harbor de-identification of FHIR resources.
//!
//! §II-B step iii: "the data is de-identified and stored in the backend
//! storage system (Data Lake) with a reference-id, and the reference-id to
//! identity the mapping is stored in the metadata." This module removes
//! the Safe Harbor direct identifiers (names, MRNs/SSNs, phone numbers,
//! street addresses), generalizes quasi-identifiers (birth year → band,
//! ZIP → 3-digit prefix) and replaces patient logical ids with pseudonyms,
//! returning the pseudonym map separately so re-identification stays a
//! privileged, auditable operation.

use std::collections::HashMap;

use hc_fhir::bundle::Bundle;
use hc_fhir::resource::{Patient, Resource};

use crate::generalize::{age_band, zip_prefix};

/// The result of de-identifying a bundle.
#[derive(Clone, Debug)]
pub struct Deidentified {
    /// The scrubbed bundle (safe for the analytics data lake).
    pub bundle: Bundle,
    /// original logical id → pseudonym. Stored separately (metadata DB).
    pub pseudonyms: HashMap<String, String>,
}

/// Configuration for de-identification.
#[derive(Clone, Copy, Debug)]
pub struct DeidConfig {
    /// Width of the birth-year generalization band.
    pub birth_year_band: u32,
    /// ZIP digits kept (Safe Harbor: 3).
    pub zip_digits: usize,
}

impl Default for DeidConfig {
    fn default() -> Self {
        DeidConfig {
            birth_year_band: 5,
            zip_digits: 3,
        }
    }
}

fn pseudonym(original: &str, salt: &[u8]) -> String {
    let digest = hc_crypto_like_hash(original.as_bytes(), salt);
    format!("anon-{digest}")
}

// A tiny FNV-1a keyed hash for pseudonyms. Pseudonym unlinkability across
// deployments comes from the salt; collision resistance requirements are
// modest (logical ids within one bundle), so a 64-bit hash suffices and
// keeps this crate free of a crypto dependency.
fn hc_crypto_like_hash(data: &[u8], salt: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in salt.iter().chain(data.iter()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    format!("{h:016x}")
}

/// De-identifies one patient in place, per Safe Harbor.
pub fn scrub_patient(patient: &mut Patient, config: &DeidConfig) {
    patient.name = None;
    patient.identifiers.clear();
    patient.phone = None;
    if let Some(address) = &mut patient.address {
        address.line.clear();
        address.city.clear();
        address.postal_code = zip_prefix(&address.postal_code, config.zip_digits);
        // State is retained: it is not a Safe Harbor identifier.
    }
    if let Some(year) = patient.birth_year {
        patient.birth_year = Some(age_band(year, config.birth_year_band).lo);
    }
}

/// De-identifies a whole bundle: scrubs every patient and pseudonymizes
/// every logical id and subject reference.
pub fn deidentify_bundle(bundle: &Bundle, config: &DeidConfig, salt: &[u8]) -> Deidentified {
    let mut pseudonyms: HashMap<String, String> = HashMap::new();
    let mut entries = Vec::with_capacity(bundle.len());

    // Ids repeat (every resource names its subject), so a key is
    // allocated only for an id seen the first time.
    let map_id = |id: &str, pseudonyms: &mut HashMap<String, String>| -> String {
        if let Some(known) = pseudonyms.get(id) {
            return known.clone();
        }
        let fresh = pseudonym(id, salt);
        pseudonyms.insert(id.to_owned(), fresh.clone());
        fresh
    };

    for resource in bundle {
        let mut resource = resource.clone();
        match &mut resource {
            Resource::Patient(p) => {
                p.id = map_id(&p.id, &mut pseudonyms);
                scrub_patient(p, config);
            }
            Resource::Observation(o) => {
                o.id = map_id(&o.id, &mut pseudonyms);
                o.subject = map_id(&o.subject, &mut pseudonyms);
            }
            Resource::Condition(c) => {
                c.id = map_id(&c.id, &mut pseudonyms);
                c.subject = map_id(&c.subject, &mut pseudonyms);
            }
            Resource::MedicationRequest(m) => {
                m.id = map_id(&m.id, &mut pseudonyms);
                m.subject = map_id(&m.subject, &mut pseudonyms);
            }
            Resource::Consent(c) => {
                c.id = map_id(&c.id, &mut pseudonyms);
                c.subject = map_id(&c.subject, &mut pseudonyms);
            }
        }
        entries.push(resource);
    }

    Deidentified {
        bundle: Bundle::new(bundle.kind, entries),
        pseudonyms,
    }
}

/// Re-identifies a pseudonymized subject given the (privileged) map.
///
/// Returns `None` when the pseudonym is unknown — e.g. after the mapping
/// was destroyed for a right-to-forget request.
pub fn reidentify<'a>(pseudonyms: &'a HashMap<String, String>, pseudonym: &str) -> Option<&'a str> {
    pseudonyms
        .iter()
        .find(|(_, v)| v.as_str() == pseudonym)
        .map(|(k, _)| k.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_fhir::bundle::BundleKind;
    use hc_fhir::resource::{Gender, Observation};
    use hc_fhir::types::{CodeableConcept, Quantity, SimDate};

    fn bundle() -> Bundle {
        Bundle::new(
            BundleKind::Transaction,
            vec![
                Resource::Patient(
                    Patient::builder("p1")
                        .name("Doe", "Jane")
                        .gender(Gender::Female)
                        .birth_year(1977)
                        .identifier("urn:ssn", "000-11-2222")
                        .address("1 Main St", "Springfield", "IL", "62701")
                        .phone("555-0100")
                        .build(),
                ),
                Resource::Observation(Observation {
                    id: "o1".into(),
                    subject: "p1".into(),
                    code: CodeableConcept::hba1c(),
                    value: Quantity::new(6.5, "%"),
                    effective: SimDate(100),
                }),
            ],
        )
    }

    #[test]
    fn direct_identifiers_removed() {
        let result = deidentify_bundle(&bundle(), &DeidConfig::default(), b"salt");
        let Resource::Patient(p) = &result.bundle.entries[0] else {
            panic!("first entry is the patient");
        };
        assert!(p.name.is_none());
        assert!(p.identifiers.is_empty());
        assert!(p.phone.is_none());
        let addr = p.address.as_ref().unwrap();
        assert!(addr.line.is_empty());
        assert!(addr.city.is_empty());
        assert_eq!(addr.postal_code, "627**");
        assert_eq!(addr.state, "IL");
    }

    #[test]
    fn birth_year_generalized() {
        let result = deidentify_bundle(&bundle(), &DeidConfig::default(), b"salt");
        let Resource::Patient(p) = &result.bundle.entries[0] else {
            panic!("patient expected");
        };
        assert_eq!(p.birth_year, Some(1975)); // 1977 → band [1975, 1979]
    }

    #[test]
    fn references_stay_consistent() {
        let result = deidentify_bundle(&bundle(), &DeidConfig::default(), b"salt");
        let Resource::Patient(p) = &result.bundle.entries[0] else {
            panic!("patient expected");
        };
        let Resource::Observation(o) = &result.bundle.entries[1] else {
            panic!("observation expected");
        };
        assert_eq!(o.subject, p.id, "subject follows the pseudonym");
        assert_ne!(p.id, "p1");
        assert!(p.id.starts_with("anon-"));
    }

    #[test]
    fn clinical_values_untouched() {
        let result = deidentify_bundle(&bundle(), &DeidConfig::default(), b"salt");
        let Resource::Observation(o) = &result.bundle.entries[1] else {
            panic!("observation expected");
        };
        assert_eq!(o.value.value, 6.5);
        assert_eq!(o.code.code, "4548-4");
        assert_eq!(o.effective, SimDate(100));
    }

    #[test]
    fn pseudonym_map_reidentifies() {
        let result = deidentify_bundle(&bundle(), &DeidConfig::default(), b"salt");
        let pseudo = result.pseudonyms.get("p1").unwrap();
        assert_eq!(reidentify(&result.pseudonyms, pseudo), Some("p1"));
        assert_eq!(reidentify(&result.pseudonyms, "anon-deadbeef"), None);
    }

    #[test]
    fn different_salts_unlink_pseudonyms() {
        let a = deidentify_bundle(&bundle(), &DeidConfig::default(), b"salt-a");
        let b = deidentify_bundle(&bundle(), &DeidConfig::default(), b"salt-b");
        assert_ne!(a.pseudonyms.get("p1"), b.pseudonyms.get("p1"));
    }

    #[test]
    fn same_salt_is_deterministic() {
        let a = deidentify_bundle(&bundle(), &DeidConfig::default(), b"s");
        let b = deidentify_bundle(&bundle(), &DeidConfig::default(), b"s");
        assert_eq!(a.pseudonyms, b.pseudonyms);
    }
}
