//! E21 — deployment-posture scanner precision/recall on a seeded
//! 3-region deployment (see EXPERIMENTS.md).
//!
//! The ground truth is constructed, not annotated: `plant_violations`
//! seeds exactly one instance of every posture rule into a deployment
//! that provably scans clean beforehand. The scanner must then find
//! every planted `(rule, subject)` pair and nothing else — precision and
//! recall both 1.0 — and the scan itself (snapshot capture + rule
//! evaluation, not the platform boot) must stay inside its time budget.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use hc_lint::baseline::Baseline;
use hc_posture::demo::{demo_config, plant_violations, DemoDeployment};
use hc_posture::rules::POSTURE_RULES;
use hc_posture::scan::{scan, Suppression};
use hc_posture::snapshot::PlatformSnapshot;

#[test]
fn e21_clean_deployment_scans_clean() {
    let demo = DemoDeployment::build(42).expect("demo builds");
    let snapshot = PlatformSnapshot::capture(&demo.platform);
    let outcome = scan(&snapshot, &demo_config()).expect("config valid");
    assert!(
        outcome.findings.is_empty(),
        "clean deployment must scan clean, got {:#?}",
        outcome.findings
    );
    // The CLI exit-0 analogue: an empty baseline diff has nothing new.
    let diff = Baseline::empty().diff(&outcome.findings);
    assert!(diff.new_findings.is_empty());
    assert_eq!(diff.stale_entries, 0);
}

#[test]
fn e21_planted_violations_precision_and_recall() {
    let mut demo = DemoDeployment::build(42).expect("demo builds");
    let planted = plant_violations(&mut demo).expect("plants apply");

    let capture_start = Instant::now();
    let snapshot = PlatformSnapshot::capture(&demo.platform);
    let outcome = scan(&snapshot, &demo_config()).expect("config valid");
    let scan_time = capture_start.elapsed();

    // Multiset equality between expected and reported (rule, subject)
    // pairs: every planted defect found (recall 1.0), nothing else
    // reported (precision 1.0).
    let mut want: Vec<(String, String)> = planted
        .iter()
        .map(|v| (v.rule.to_owned(), v.subject.clone()))
        .collect();
    want.sort();
    let mut got: Vec<(String, String)> = outcome
        .findings
        .iter()
        .map(|f| (f.rule.clone(), f.file.clone()))
        .collect();
    got.sort();
    assert_eq!(got, want, "scanner output diverges from planted ground truth");

    // Every rule in the catalogue fired on the planted set: once each,
    // except that P7's shredded key also orphans its export-cache entry.
    let fired: BTreeSet<&str> = outcome.findings.iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(fired.len(), POSTURE_RULES.len());
    for rule in POSTURE_RULES {
        assert!(fired.contains(rule.id), "{} never fired", rule.id);
        let finding = outcome
            .findings
            .iter()
            .find(|f| f.rule == rule.id)
            .expect("fired above");
        assert_eq!(finding.severity, rule.severity, "{} severity mismatch", rule.id);
    }

    // Fingerprints are unique — the baseline can ratchet per-finding.
    let fingerprints: BTreeSet<String> = outcome
        .findings
        .iter()
        .map(|f| format!("{}|{}|{}", f.rule, f.file, f.snippet))
        .collect();
    assert_eq!(fingerprints.len(), outcome.findings.len());

    // Scan budget covers capture + rule evaluation only; the platform
    // boot is the harness, not the scanner. Debug builds clear this by
    // orders of magnitude.
    assert!(
        scan_time < Duration::from_secs(1),
        "snapshot + scan took {scan_time:?}, budget 1s"
    );
}

#[test]
fn e21_baseline_absorbs_and_ratchets() {
    let mut demo = DemoDeployment::build(42).expect("demo builds");
    plant_violations(&mut demo).expect("plants apply");
    let snapshot = PlatformSnapshot::capture(&demo.platform);
    let outcome = scan(&snapshot, &demo_config()).expect("config valid");
    assert_eq!(outcome.findings.len(), 11);

    // A baseline written from the findings absorbs them all on re-scan.
    let baseline = Baseline::from_findings(&outcome.findings);
    let absorbed = baseline.diff(&outcome.findings);
    assert!(absorbed.new_findings.is_empty());
    assert_eq!(absorbed.baselined, 11);
    assert_eq!(absorbed.stale_entries, 0);

    // Fixing the deployment (fresh clean build) leaves the old baseline
    // entries stale — the ratchet's --fail-stale signal — and pruning
    // drops them.
    let clean = DemoDeployment::build(42).expect("demo builds");
    let clean_outcome = scan(&PlatformSnapshot::capture(&clean.platform), &demo_config())
        .expect("config valid");
    assert!(clean_outcome.findings.is_empty());
    let stale = baseline.diff(&clean_outcome.findings);
    assert!(stale.new_findings.is_empty());
    assert_eq!(stale.stale_entries, 11);
    let pruned = baseline.pruned(&clean_outcome.findings);
    assert!(pruned.entries.is_empty());

    // The baseline file format round-trips through JSON.
    let reread = Baseline::from_json(&baseline.to_json()).expect("round trip");
    assert_eq!(reread.diff(&outcome.findings).baselined, 11);
}

#[test]
fn e21_suppression_with_justification_narrows_the_report() {
    let mut demo = DemoDeployment::build(42).expect("demo builds");
    let planted = plant_violations(&mut demo).expect("plants apply");
    let broad = planted
        .iter()
        .find(|v| v.rule == "posture-kms-broad-grant")
        .expect("plant includes a broad grant");

    let mut config = demo_config();
    config.suppressions.push(Suppression {
        rule: broad.rule.to_owned(),
        subject: broad.subject.clone(),
        justification: "debug-tool grant is the documented break-glass path (runbook RB-12)"
            .to_owned(),
    });
    let snapshot = PlatformSnapshot::capture(&demo.platform);
    let outcome = scan(&snapshot, &config).expect("config valid");
    assert_eq!(outcome.findings.len(), 10);
    assert_eq!(outcome.suppressed, 1);
    assert!(outcome.findings.iter().all(|f| f.file != broad.subject));
}

/// LINTS.md's rule tables name exactly the rules the two analysers ship:
/// each id of `hc_lint::diag::RULES` and `POSTURE_RULES` in one
/// `` | `rule-id` | `` row, and no other.
#[test]
fn lints_md_tables_match_the_rule_catalogues() {
    let mut documented: Vec<&str> = include_str!("../LINTS.md")
        .lines()
        .filter_map(|line| {
            let (id, rest) = line.strip_prefix("| `")?.split_once('`')?;
            rest.starts_with(" |").then_some(id)
        })
        .collect();
    documented.sort_unstable();
    let mut shipped: Vec<&str> = hc_lint::diag::RULES
        .iter()
        .chain(POSTURE_RULES)
        .map(|rule| rule.id)
        .collect();
    shipped.sort_unstable();
    assert_eq!(documented, shipped);
}
