//! `hc-posture` CLI.
//!
//! ```text
//! hc-posture [--seed N] [--planted] [--config FILE]
//!            [--format human|json] [--baseline FILE]
//!            [--write-baseline] [--prune-baseline] [--fail-stale]
//!            [--list-rules] [--explain RULE-ID]
//! ```
//!
//! Builds the seeded demo deployment (optionally with planted
//! violations), captures a platform snapshot, scans it, and diffs the
//! findings against the ratcheting baseline — the same CLI contract as
//! `hc-lint`.
//!
//! Exit codes: `0` clean (vs. baseline), `1` new findings (or stale
//! baseline entries under `--fail-stale`), `2` usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use hc_lint::baseline::Baseline;
use hc_lint::report::render_explain;
use hc_posture::demo::{demo_config, plant_violations, DemoDeployment};
use hc_posture::report::{json_report, render_human, render_rule_list};
use hc_posture::scan::{record_metrics, scan, ScanConfig};
use hc_posture::snapshot::PlatformSnapshot;

struct Args {
    seed: u64,
    planted: bool,
    config: Option<PathBuf>,
    format: Format,
    baseline: Option<PathBuf>,
    write_baseline: bool,
    prune_baseline: bool,
    fail_stale: bool,
    list_rules: bool,
    explain: Option<String>,
}

#[derive(PartialEq)]
enum Format {
    Human,
    Json,
}

fn usage() -> &'static str {
    "usage: hc-posture [--seed N] [--planted] [--config FILE]\n\
     \x20                 [--format human|json] [--baseline FILE]\n\
     \x20                 [--write-baseline] [--prune-baseline] [--fail-stale]\n\
     \x20                 [--list-rules] [--explain RULE-ID]\n\
     \n\
     Boots the seeded 3-region demo deployment, captures a platform\n\
     snapshot, and runs the posture rule catalogue (over-privilege,\n\
     attestation, field-level encryption, consent) over it. See LINTS.md\n\
     for the rule table and the suppression/declared-use config format.\n\
     \n\
     --planted         seed one violation of every rule before scanning\n\
     --config          load declared-use + suppressions from a JSON file\n\
     --prune-baseline  rewrite --baseline FILE dropping entries no\n\
     \x20                 longer matched (ratchet down), then diff\n\
     --fail-stale      exit 1 when the baseline carries unmatched debt\n\
     --explain         print one rule's full catalogue entry\n"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        planted: false,
        config: None,
        format: Format::Human,
        baseline: None,
        write_baseline: false,
        prune_baseline: false,
        fail_stale: false,
        list_rules: false,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                args.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--planted" => args.planted = true,
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config needs a value")?));
            }
            "--format" => {
                args.format = match it.next().as_deref() {
                    Some("human") => Format::Human,
                    Some("json") => Format::Json,
                    other => return Err(format!("--format must be human|json, got {other:?}")),
                };
            }
            "--baseline" => {
                args.baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a value")?));
            }
            "--write-baseline" => args.write_baseline = true,
            "--prune-baseline" => args.prune_baseline = true,
            "--fail-stale" => args.fail_stale = true,
            "--list-rules" => args.list_rules = true,
            "--explain" => {
                args.explain = Some(it.next().ok_or("--explain needs a rule id")?);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.prune_baseline && args.baseline.is_none() {
        return Err("--prune-baseline needs --baseline FILE".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hc-posture: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        print!("{}", render_rule_list());
        return ExitCode::SUCCESS;
    }

    if let Some(id) = &args.explain {
        return match hc_posture::rule_by_id(id) {
            Some(rule) => {
                print!("{}", render_explain(rule));
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("hc-posture: unknown rule {id:?} — see --list-rules");
                ExitCode::from(2)
            }
        };
    }

    // Build the deployment, optionally planting seeded violations.
    let mut demo = match DemoDeployment::build(args.seed) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("hc-posture: demo deployment failed to build: {e}");
            return ExitCode::from(2);
        }
    };
    if args.planted {
        if let Err(e) = plant_violations(&mut demo) {
            eprintln!("hc-posture: planting violations failed: {e}");
            return ExitCode::from(2);
        }
    }

    let config: ScanConfig = match &args.config {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(json) => match ScanConfig::from_json(&json) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("hc-posture: malformed config {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("hc-posture: cannot read config {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => demo_config(),
    };

    let snapshot = PlatformSnapshot::capture(&demo.platform);
    let outcome = match scan(&snapshot, &config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hc-posture: invalid scan config: {e}");
            return ExitCode::from(2);
        }
    };
    // Publish posture.* gauges into the platform's own registry so the
    // scan shows up next to the subsystems it audited.
    record_metrics(&demo.platform.telemetry, &outcome);

    if args.write_baseline {
        let base = Baseline::from_findings(&outcome.findings);
        let path = args
            .baseline
            .clone()
            .unwrap_or_else(|| PathBuf::from("posture-baseline.json"));
        if let Err(e) = std::fs::write(&path, base.to_json()) {
            eprintln!("hc-posture: cannot write baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "hc-posture: wrote baseline with {} entr{} ({} finding(s)) to {}",
            base.entries.len(),
            if base.entries.len() == 1 { "y" } else { "ies" },
            outcome.findings.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    let mut baseline = match &args.baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(json) => match Baseline::from_json(&json) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("hc-posture: malformed baseline {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("hc-posture: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => Baseline::empty(),
    };

    if args.prune_baseline {
        let pruned = baseline.pruned(&outcome.findings);
        let dropped: i64 = baseline.entries.iter().map(|e| i64::from(e.count)).sum::<i64>()
            - pruned.entries.iter().map(|e| i64::from(e.count)).sum::<i64>();
        let path = args
            .baseline
            .clone()
            .unwrap_or_else(|| PathBuf::from("posture-baseline.json"));
        if let Err(e) = std::fs::write(&path, pruned.to_json()) {
            eprintln!(
                "hc-posture: cannot write pruned baseline {}: {e}",
                path.display()
            );
            return ExitCode::from(2);
        }
        eprintln!(
            "hc-posture: pruned baseline {} — {} entr{} remain, {} finding budget(s) dropped",
            path.display(),
            pruned.entries.len(),
            if pruned.entries.len() == 1 { "y" } else { "ies" },
            dropped,
        );
        baseline = pruned;
    }

    let diff = baseline.diff(&outcome.findings);

    match args.format {
        Format::Human => print!("{}", render_human(&outcome, &diff)),
        Format::Json => match serde_json::to_string(&json_report(&outcome, &diff)) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("hc-posture: cannot serialise report: {e}");
                return ExitCode::from(2);
            }
        },
    }

    if !diff.new_findings.is_empty() {
        return ExitCode::from(1);
    }
    if args.fail_stale && diff.stale_entries > 0 {
        eprintln!(
            "hc-posture: --fail-stale — {} baseline entr{} carry unmatched debt; run --prune-baseline",
            diff.stale_entries,
            if diff.stale_entries == 1 { "y" } else { "ies" },
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
