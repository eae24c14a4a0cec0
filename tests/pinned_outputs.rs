//! Pins bytes the platform writes, so a change to the JSON codec or to
//! anything feeding the chain hashes shows up as a failed constant.
//!
//! * The facade script drives 50 uploads and exports through
//!   `HealthCloudPlatform` and registers one SSI holder. Every provenance
//!   payload, and through `data_hash` every de-identified bundle's bytes,
//!   feeds the provenance tip; the holder's registration feeds the
//!   identity tip.
//! * The corpus serializes every FHIR resource kind (with and without
//!   its optional fields), every provenance action, a sealed envelope, a
//!   lint baseline and a telemetry snapshot, and pins the SHA-256 of the
//!   JSON. Each value must also decode back to itself.

use hc_common::id::{PatientId, Principal, ReferenceId, UserId};
use hc_core::platform::{demo_bundle, HealthCloudPlatform, PlatformConfig};
use hc_crypto::aead::{self, SecretKey};
use hc_crypto::sha256;
use hc_fhir::bundle::{Bundle, BundleKind};
use hc_fhir::resource::{
    Condition, Consent, Gender, MedicationRequest, Observation, Patient, Resource,
};
use hc_fhir::types::{Address, CodeableConcept, HumanName, Identifier, Period, Quantity, SimDate};
use hc_ledger::chain::ChainStatus;
use hc_ledger::provenance::{ProvenanceAction, ProvenanceEvent};
use hc_lint::baseline::{Baseline, BaselineEntry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PROVENANCE_TIP: &str = "c845b8638ee1a377c90e09cef3f5c6ad01da0e412eab50f55561de10ba36c2c4";
const IDENTITY_TIP: &str = "2203e3c2727b0172a18b85b24839940770aa933851a03a2eba7ffb0f7501ca43";
const CLOCK_NANOS: u64 = 163_000_000;
const CORPUS_SHA256: &str = "29c865f2576809e7cb40412a2f7ddf324b963d97e5ab897611e6fa22bc8264b1";

fn tip(blocks: &[hc_ledger::block::Block]) -> String {
    blocks.last().expect("genesis block").hash.to_hex()
}

#[test]
fn facade_script_chain_tips_and_clock_are_pinned() {
    let platform = HealthCloudPlatform::bootstrap(PlatformConfig::default());
    let export = platform.export_service();
    for i in 1..=50u128 {
        let patient = PatientId::from_raw(i);
        let device = platform.register_patient_device(patient);
        platform
            .upload(&device, &demo_bundle(&format!("p{i}"), true))
            .expect("registered device uploads");
        assert_eq!(platform.process_ingestion(), 1);
        let full = export.export_full(patient).expect("consented export");
        assert!(!full.bundle.is_empty());
    }
    platform.register_ssi_holder().expect("holder registers");
    assert_eq!(platform.verify_ledger(), ChainStatus::Valid);

    let provenance = tip(platform.provenance.lock().ledger().blocks());
    let identity = tip(platform.identity_network.lock().ledger().blocks());
    let clock = platform.clock.now().as_nanos();
    assert_eq!(
        (provenance.as_str(), identity.as_str(), clock),
        (PROVENANCE_TIP, IDENTITY_TIP, CLOCK_NANOS)
    );
}

/// Text that exercises every escape: quotes, backslashes, all control
/// characters, DEL, and one-, two-, three- and four-byte UTF-8.
fn text(rng: &mut StdRng) -> String {
    const PIECES: [&str; 12] = [
        "plain",
        " ",
        "\"",
        "\\",
        "/",
        "\u{7f}",
        "é",
        "€",
        "😀",
        "\n\r\t",
        "\u{8}\u{c}",
        "x",
    ];
    let mut s = String::new();
    for _ in 0..rng.gen_range(0..6usize) {
        if rng.gen_bool(0.2) {
            s.push(char::from(rng.gen_range(0..0x20u8)));
        } else {
            s.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
        }
    }
    s
}

/// A finite float, often whole, sometimes past the `{:.1}` cut-off.
fn float(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..5u8) {
        0 => f64::from(rng.gen_range(0..1000u32)),
        1 => -f64::from(rng.gen_range(0..1000u32)) / 8.0,
        2 => 1e15 * f64::from(rng.gen_range(1..100u32)),
        3 => rng.gen::<f64>() * 1e-3,
        _ => rng.gen::<f64>() * 100.0,
    }
}

fn concept(rng: &mut StdRng) -> CodeableConcept {
    CodeableConcept {
        system: text(rng),
        code: text(rng),
        display: text(rng),
    }
}

fn patient(rng: &mut StdRng, full: bool) -> Patient {
    Patient {
        id: text(rng),
        identifiers: (0..rng.gen_range(0..3usize))
            .map(|_| Identifier {
                system: text(rng),
                value: text(rng),
            })
            .collect(),
        name: full.then(|| HumanName {
            family: text(rng),
            given: (0..rng.gen_range(0..3usize)).map(|_| text(rng)).collect(),
        }),
        gender: [Gender::Female, Gender::Male, Gender::Other, Gender::Unknown]
            [rng.gen_range(0..4usize)],
        birth_year: full.then(|| rng.gen()),
        address: full.then(|| Address {
            line: text(rng),
            city: text(rng),
            state: text(rng),
            postal_code: text(rng),
        }),
        phone: full.then(|| text(rng)),
    }
}

fn resources(rng: &mut StdRng) -> Vec<Resource> {
    let mut out = Vec::new();
    for full in [true, false] {
        out.push(Resource::Patient(patient(rng, full)));
        out.push(Resource::Observation(Observation {
            id: text(rng),
            subject: text(rng),
            code: concept(rng),
            value: Quantity {
                value: float(rng),
                unit: text(rng),
            },
            effective: SimDate(rng.gen()),
        }));
        out.push(Resource::Condition(Condition {
            id: text(rng),
            subject: text(rng),
            code: concept(rng),
            onset: SimDate(rng.gen()),
        }));
        out.push(Resource::MedicationRequest(MedicationRequest {
            id: text(rng),
            subject: text(rng),
            medication: concept(rng),
            period: Period {
                start: SimDate(rng.gen()),
                end: SimDate(rng.gen()),
            },
        }));
        out.push(Resource::Consent(Consent {
            id: text(rng),
            subject: text(rng),
            study: text(rng),
            granted: full,
        }));
    }
    out
}

fn events(rng: &mut StdRng) -> Vec<ProvenanceEvent> {
    [
        ProvenanceAction::Ingested,
        ProvenanceAction::Accessed,
        ProvenanceAction::Anonymized,
        ProvenanceAction::Exported,
        ProvenanceAction::Deleted,
        ProvenanceAction::ConsentGranted,
        ProvenanceAction::ConsentRevoked,
        ProvenanceAction::ModelDeployed,
    ]
    .into_iter()
    .map(|action| ProvenanceEvent {
        record: ReferenceId::from_raw(rng.gen::<u128>()),
        data_hash: sha256::hash(&rng.gen::<u64>().to_le_bytes()),
        action,
        actor: text(rng),
        detail: text(rng),
    })
    .collect()
}

/// Appends the JSON of `$value` (of type `$ty`) and a newline to `$out`,
/// and checks that it decodes back to a value with the same JSON.
macro_rules! push_json {
    ($out:expr, $value:expr, $ty:ty) => {{
        let json = serde_json::to_vec($value).expect("serializes");
        let back: $ty = serde_json::from_slice(&json).expect("decodes its own output");
        assert_eq!(serde_json::to_vec(&back).expect("serializes"), json);
        $out.extend_from_slice(&json);
        $out.push(b'\n');
        back
    }};
}

#[test]
fn serialized_corpus_bytes_are_pinned() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0018);
    let mut out = Vec::new();

    let entries = resources(&mut rng);
    for resource in &entries {
        assert_eq!(&push_json!(out, resource, Resource), resource);
    }
    for kind in [BundleKind::Transaction, BundleKind::Collection] {
        let bundle = Bundle::new(kind, entries.clone());
        assert_eq!(Bundle::from_bytes(&bundle.to_bytes()).unwrap(), bundle);
        out.extend_from_slice(&bundle.to_bytes());
        out.push(b'\n');
    }

    for event in events(&mut rng) {
        assert_eq!(push_json!(out, &event, ProvenanceEvent), event);
    }
    for principal in [
        Principal::User(UserId::from_raw(u128::MAX)),
        Principal::Device(PatientId::from_raw(0)),
        Principal::Service(text(&mut rng)),
    ] {
        assert_eq!(push_json!(out, &principal, Principal), principal);
    }

    let key = SecretKey::generate(&mut rng);
    let plaintext: Vec<u8> = (0..rng.gen_range(0..200usize)).map(|_| rng.gen()).collect();
    let sealed = aead::seal(&key, &plaintext, b"aad");
    assert_eq!(push_json!(out, &sealed, aead::Sealed), sealed);
    assert_eq!(push_json!(out, &key, SecretKey), key);

    let baseline = Baseline {
        version: 2,
        entries: (0..4)
            .map(|i| BaselineEntry {
                rule: text(&mut rng),
                file: format!("crates/x/src/{i}.rs"),
                key: text(&mut rng),
                count: rng.gen(),
            })
            .collect(),
    };
    push_json!(out, &baseline, Baseline);

    let registry = hc_telemetry::Registry::new();
    registry.counter("a.count").add(rng.gen());
    registry
        .gauge("a.level")
        .set(-rng.gen_range(1..1_000_000i64));
    registry.gauge("b.level").set(i64::MAX);
    let histogram = registry.histogram("c.latency_ns");
    for _ in 0..20 {
        histogram.record(rng.gen_range(0..1u64 << 40));
    }
    let snapshot = registry.snapshot();
    assert_eq!(
        push_json!(out, &snapshot, hc_telemetry::TelemetrySnapshot),
        snapshot
    );

    // Whole values at or past 1e15 print as bare integers; the reader
    // takes one that fits no 128-bit integer as a float.
    let floats = [
        0.0,
        -0.0,
        1.0,
        0.1,
        1e15,
        1e15 - 1.0,
        1e16,
        -2.5e30,
        5e-324,
        1.5e-7,
    ];
    assert_eq!(push_json!(out, &floats, [f64; 10]), floats);
    // The corpus predates `i128::MIN` reading back, so it keeps
    // `i128::MIN + 1` to hold its pinned bytes.
    let extremes = (u128::MAX, i128::MIN + 1, -1i8, u8::MAX);
    assert_eq!(push_json!(out, &extremes, (u128, i128, i8, u8)), extremes);

    assert_eq!(
        sha256::hash(&out).to_hex(),
        CORPUS_SHA256,
        "{} bytes",
        out.len()
    );
}
