//! Human and JSON rendering of posture scan results.
//!
//! Mirrors `hc_lint::report` so CI consumers can parse both tools with
//! one schema reader; `--explain` output is shared verbatim via
//! [`hc_lint::report::render_explain`].

use std::collections::BTreeMap;

use serde::Serialize;

use hc_lint::baseline::BaselineDiff;
use hc_lint::diag::Finding;

use crate::rules::POSTURE_RULES;
use crate::scan::ScanOutcome;

/// JSON report shape — stable output contract for CI artifact consumers.
/// Identical to `hc-lint`'s except `entities_scanned` replaces
/// `files_scanned` and `suppressed` is added.
#[derive(Clone, Debug, Serialize)]
pub struct PostureJsonReport {
    /// Always `"hc-posture"`.
    pub tool: String,
    /// Report schema version.
    pub schema_version: u32,
    /// Deployment entities walked by the scan.
    pub entities_scanned: usize,
    /// Total findings before baseline filtering (after suppression).
    pub total_findings: usize,
    /// Findings absorbed by the baseline.
    pub baselined: usize,
    /// Baseline entries with unused budget (debt paid down).
    pub stale_baseline_entries: usize,
    /// Findings absorbed by config suppressions.
    pub suppressed: usize,
    /// Findings that fail the run.
    pub new_findings: Vec<Finding>,
    /// Per-rule totals (before baseline filtering), rule id → count.
    pub totals_by_rule: BTreeMap<String, usize>,
}

/// Builds the JSON report object.
pub fn json_report(outcome: &ScanOutcome, diff: &BaselineDiff) -> PostureJsonReport {
    let mut totals: BTreeMap<String, usize> = BTreeMap::new();
    for f in &outcome.findings {
        *totals.entry(f.rule.clone()).or_insert(0) += 1;
    }
    PostureJsonReport {
        tool: "hc-posture".to_string(),
        schema_version: 1,
        entities_scanned: outcome.entities_scanned,
        total_findings: outcome.findings.len(),
        baselined: diff.baselined,
        stale_baseline_entries: diff.stale_entries,
        suppressed: outcome.suppressed,
        new_findings: diff.new_findings.clone(),
        totals_by_rule: totals,
    }
}

/// Renders the human-readable report. Subject paths carry no line/col,
/// so each finding prints as `subject: [severity] rule — message` with
/// the stable violation key indented below.
pub fn render_human(outcome: &ScanOutcome, diff: &BaselineDiff) -> String {
    let mut out = String::new();

    for f in &diff.new_findings {
        out.push_str(&format!(
            "{}: [{}] {} — {}\n    key: {}\n",
            f.file,
            f.severity.as_str(),
            f.rule,
            f.message,
            f.snippet,
        ));
    }

    let mut totals: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &outcome.findings {
        *totals.entry(f.rule.as_str()).or_insert(0) += 1;
    }

    out.push_str(&format!(
        "\nhc-posture: {} entit{} scanned, {} finding(s) total ({} baselined, {} suppressed, {} new)\n",
        outcome.entities_scanned,
        if outcome.entities_scanned == 1 { "y" } else { "ies" },
        outcome.findings.len(),
        diff.baselined,
        outcome.suppressed,
        diff.new_findings.len(),
    ));
    for rule in POSTURE_RULES {
        if let Some(n) = totals.get(rule.id) {
            out.push_str(&format!(
                "  {:28} {:5}  [{}]\n",
                rule.id,
                n,
                rule.severity.as_str()
            ));
        }
    }
    if diff.stale_entries > 0 {
        out.push_str(&format!(
            "  note: {} baseline entr{} no longer matched — debt paid down; run --write-baseline to ratchet\n",
            diff.stale_entries,
            if diff.stale_entries == 1 { "y" } else { "ies" },
        ));
    }
    if diff.new_findings.is_empty() {
        out.push_str("hc-posture: PASS\n");
    } else {
        out.push_str("hc-posture: FAIL (new findings above)\n");
    }
    out
}

/// Renders the posture rule catalogue for `--list-rules`.
pub fn render_rule_list() -> String {
    let mut out =
        String::from("rule                          family       severity  description\n");
    for r in POSTURE_RULES {
        out.push_str(&format!(
            "{:28}  {:11}  {:8}  {}\n",
            r.id,
            r.family,
            r.severity.as_str(),
            r.description
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_lint::diag::Severity;

    fn sample_outcome() -> ScanOutcome {
        ScanOutcome {
            findings: vec![Finding {
                rule: "posture-kms-broad-grant".to_string(),
                severity: Severity::Warning,
                file: "deployment://kms/key/0123".to_string(),
                line: 0,
                col: 0,
                message: "grant never used".to_string(),
                snippet: "service:debug-tool".to_string(),
            }],
            suppressed: 2,
            entities_scanned: 9,
        }
    }

    #[test]
    fn human_report_pass_and_fail() {
        let outcome = sample_outcome();
        let clean = BaselineDiff {
            baselined: 1,
            ..BaselineDiff::default()
        };
        let passing = render_human(&outcome, &clean);
        assert!(passing.contains("hc-posture: PASS"));
        assert!(passing.contains("9 entities scanned"));
        assert!(passing.contains("2 suppressed"));

        let failing_diff = BaselineDiff {
            new_findings: outcome.findings.clone(),
            ..BaselineDiff::default()
        };
        let failing = render_human(&outcome, &failing_diff);
        assert!(failing.contains("hc-posture: FAIL"));
        assert!(failing.contains("deployment://kms/key/0123: [warning] posture-kms-broad-grant"));
        assert!(failing.contains("key: service:debug-tool"));
    }

    #[test]
    fn json_report_is_stable() {
        let outcome = sample_outcome();
        let diff = BaselineDiff::default();
        let report = json_report(&outcome, &diff);
        let json = serde_json::to_string(&report).expect("serializes");
        assert!(json.contains("\"tool\":\"hc-posture\""));
        assert!(json.contains("\"entities_scanned\":9"));
        assert!(json.contains("\"suppressed\":2"));
        assert!(json.contains("\"posture-kms-broad-grant\":1"));
    }

    #[test]
    fn rule_list_covers_catalogue() {
        let listing = render_rule_list();
        for r in POSTURE_RULES {
            assert!(listing.contains(r.id), "{} missing from listing", r.id);
        }
    }
}
