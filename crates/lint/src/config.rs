//! Lint configuration: PHI type lists, module allowlists, crate scoping.

/// Configuration the rule engine runs with.
///
/// The defaults (see [`LintConfig::workspace_default`]) are seeded from the
/// workspace's own models: FHIR demographic resources in `hc-fhir`,
/// EMR/cohort records in `hc-kb`, and bearer credentials in `hc-access`.
/// Everything is overridable so fixture tests and downstream users can
/// retarget the engine.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Type names considered PHI-bearing. Both the exact name and its
    /// snake_case form are matched when scanning format-macro arguments
    /// (`Patient` also matches a `patient` argument identifier).
    pub phi_types: Vec<String>,
    /// Path fragments (matched against the `/`-separated repo-relative
    /// path) where PHI types may legitimately derive or implement
    /// `Debug`/`Display`/`Serialize`: the defining model modules and the
    /// de-identification layer.
    pub phi_allowed_paths: Vec<String>,
    /// Crate names (directory names under `crates/`) where the
    /// wall-clock rule applies. Simulation-driven code must read time
    /// from `hc_common::clock`.
    pub wallclock_scoped_crates: Vec<String>,
    /// Crate names where `HashMap`/`HashSet` (nondeterministic iteration
    /// order) are banned outright — the DES core.
    pub unordered_scoped_crates: Vec<String>,
    /// Crate names exempt from panic-path rules (benchmark harnesses).
    pub panic_exempt_crates: Vec<String>,
}

impl LintConfig {
    /// The configuration used for this workspace's own self-check.
    pub fn workspace_default() -> Self {
        let all_sim_crates = [
            "access", "analytics", "attest", "cache", "client", "cloudsim", "common",
            "compliance", "core", "crypto", "fhir", "ingest", "kb", "ledger", "privacy",
            "resilience", "storage", "telemetry",
        ];
        LintConfig {
            phi_types: [
                // hc-fhir demographic resources (direct + quasi identifiers).
                "Patient",
                "HumanName",
                "Address",
                "Identifier",
                "Observation",
                // hc-kb cohort records keyed by patient.
                "EmrPatient",
                // hc-access bearer credentials.
                "AuthToken",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            phi_allowed_paths: [
                // Defining model modules: the wire format layer serialises
                // PHI into sealed (encrypted) envelopes by design.
                "crates/fhir/src",
                "crates/kb/src",
                "crates/access/src",
                // The de-identification layer inspects PHI to strip it.
                "crates/privacy/src",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            wallclock_scoped_crates: all_sim_crates.iter().map(|s| s.to_string()).collect(),
            unordered_scoped_crates: vec!["cloudsim".to_string()],
            panic_exempt_crates: vec!["bench".to_string()],
        }
    }

    /// True when `name` (or its snake_case form) names a PHI type.
    pub fn matches_phi_ident(&self, ident: &str) -> Option<&str> {
        self.phi_types
            .iter()
            .find(|ty| ident == ty.as_str() || ident == snake_case(ty))
            .map(String::as_str)
    }

    /// True when a repo-relative path is inside a PHI-allowed module.
    pub fn phi_path_allowed(&self, rel_path: &str) -> bool {
        self.phi_allowed_paths.iter().any(|p| rel_path.starts_with(p.as_str()))
    }
}

/// `HumanName` → `human_name`.
pub fn snake_case(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snake_case_conversion() {
        assert_eq!(snake_case("Patient"), "patient");
        assert_eq!(snake_case("HumanName"), "human_name");
        assert_eq!(snake_case("EmrPatient"), "emr_patient");
    }

    #[test]
    fn phi_ident_matches_both_forms() {
        let cfg = LintConfig::workspace_default();
        assert_eq!(cfg.matches_phi_ident("Patient"), Some("Patient"));
        assert_eq!(cfg.matches_phi_ident("patient"), Some("Patient"));
        assert_eq!(cfg.matches_phi_ident("human_name"), Some("HumanName"));
        assert_eq!(cfg.matches_phi_ident("record"), None);
    }
}
