//! `hc-lint` CLI.
//!
//! ```text
//! hc-lint [--root DIR] [--format human|json] [--baseline FILE]
//!         [--write-baseline] [--prune-baseline] [--fail-stale]
//!         [--taint-report FILE] [--cross-check FILE]
//!         [--list-rules] [--explain RULE-ID]
//! ```
//!
//! Exit codes: `0` clean (vs. baseline), `1` new findings (or stale
//! baseline entries under `--fail-stale`, or an indecisive verdict
//! under `--cross-check`), `2` usage or I/O error.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hc_lint::baseline::Baseline;
use hc_lint::config::LintConfig;
use hc_lint::diag::rule_by_id;
use hc_lint::engine::analyze_workspace;
use hc_lint::report::{
    cross_check_summary, json_report, parse_mc_verdicts, render_cross_check, render_explain,
    render_human, render_rule_list, taint_report,
};

struct Args {
    root: PathBuf,
    format: Format,
    baseline: Option<PathBuf>,
    write_baseline: bool,
    prune_baseline: bool,
    fail_stale: bool,
    taint_report: Option<PathBuf>,
    cross_check: Option<PathBuf>,
    list_rules: bool,
    explain: Option<String>,
}

#[derive(PartialEq)]
enum Format {
    Human,
    Json,
}

fn usage() -> &'static str {
    "usage: hc-lint [--root DIR] [--format human|json] [--baseline FILE]\n\
     \x20              [--write-baseline] [--prune-baseline] [--fail-stale]\n\
     \x20              [--taint-report FILE] [--cross-check FILE]\n\
     \x20              [--list-rules] [--explain RULE-ID]\n\
     \n\
     Runs the workspace static-analysis rules (PHI dataflow/taint,\n\
     concurrency, panic-path, determinism, hygiene) over crates/*/src.\n\
     See LINTS.md for the rule catalogue and suppression syntax.\n\
     \n\
     --prune-baseline  rewrite --baseline FILE dropping entries no\n\
     \x20                 longer matched (ratchet down), then diff\n\
     --fail-stale      exit 1 when the baseline carries unmatched debt\n\
     --taint-report    write the dataflow summary artifact as JSON\n\
     --cross-check     merge an `hc-mc cross-check` verdicts artifact:\n\
     \x20                 every lock-order-inversion finding is reported\n\
     \x20                 confirmed / unrealizable, and the run fails when\n\
     \x20                 any finding is unmodeled or missing a verdict\n\
     --explain         print one rule's full catalogue entry\n"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: default_root(),
        format: Format::Human,
        baseline: None,
        write_baseline: false,
        prune_baseline: false,
        fail_stale: false,
        taint_report: None,
        cross_check: None,
        list_rules: false,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a value")?);
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
            "--taint-report" => {
                args.taint_report =
                    Some(PathBuf::from(it.next().ok_or("--taint-report needs a value")?));
            }
            "--cross-check" => {
                args.cross_check =
                    Some(PathBuf::from(it.next().ok_or("--cross-check needs a value")?));
            }
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

/// Finds the workspace root: the current directory if it has `crates/`,
/// else walk up from the binary's manifest.
fn default_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("crates").is_dir() {
        return cwd;
    }
    // Fall back to the manifest location baked in at compile time
    // (crates/lint → workspace root is two levels up).
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(cwd)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hc-lint: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        print!("{}", render_rule_list());
        return ExitCode::SUCCESS;
    }

    if let Some(id) = &args.explain {
        return match rule_by_id(id) {
            Some(rule) => {
                print!("{}", render_explain(rule));
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("hc-lint: unknown rule {id:?} — see --list-rules");
                ExitCode::from(2)
            }
        };
    }

    if !args.root.join("crates").is_dir() {
        eprintln!("hc-lint: {} does not look like the workspace root (no crates/)", args.root.display());
        return ExitCode::from(2);
    }

    let cfg = LintConfig::workspace_default();
    let report = analyze_workspace(&args.root, &cfg);

    if let Some(path) = &args.taint_report {
        match serde_json::to_string(&taint_report(&report)) {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("hc-lint: cannot write taint report {}: {e}", path.display());
                    return ExitCode::from(2);
                }
                eprintln!("hc-lint: wrote taint report to {}", path.display());
            }
            Err(e) => {
                eprintln!("hc-lint: cannot serialise taint report: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if args.write_baseline {
        let base = Baseline::from_findings(&report.findings);
        let path = args
            .baseline
            .clone()
            .unwrap_or_else(|| args.root.join("lint-baseline.json"));
        if let Err(e) = std::fs::write(&path, base.to_json()) {
            eprintln!("hc-lint: cannot write baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "hc-lint: wrote baseline with {} entr{} ({} finding(s)) to {}",
            base.entries.len(),
            if base.entries.len() == 1 { "y" } else { "ies" },
            report.findings.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    let mut baseline = match &args.baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(json) => match Baseline::from_json(&json) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("hc-lint: malformed baseline {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("hc-lint: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => Baseline::empty(),
    };

    if args.prune_baseline {
        let pruned = baseline.pruned(&report.findings);
        let dropped: i64 = baseline.entries.iter().map(|e| i64::from(e.count)).sum::<i64>()
            - pruned.entries.iter().map(|e| i64::from(e.count)).sum::<i64>();
        let path = args.baseline.as_deref().unwrap_or(Path::new("lint-baseline.json"));
        if let Err(e) = std::fs::write(path, pruned.to_json()) {
            eprintln!("hc-lint: cannot write pruned baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "hc-lint: pruned baseline {} — {} entr{} remain, {} finding budget(s) dropped",
            path.display(),
            pruned.entries.len(),
            if pruned.entries.len() == 1 { "y" } else { "ies" },
            dropped,
        );
        baseline = pruned;
    }

    let diff = baseline.diff(&report.findings);

    let cross = match &args.cross_check {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(json) => match parse_mc_verdicts(&json) {
                Ok(verdicts) => Some(cross_check_summary(&report, &verdicts)),
                Err(e) => {
                    eprintln!("hc-lint: malformed cross-check artifact {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("hc-lint: cannot read cross-check artifact {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    match args.format {
        Format::Human => {
            print!("{}", render_human(&report, &diff));
            if let Some(cross) = &cross {
                print!("{}", render_cross_check(&report, cross));
            }
        }
        Format::Json => {
            let mut jr = json_report(&report, &diff);
            jr.cross_check = cross.clone();
            match serde_json::to_string(&jr) {
                Ok(json) => println!("{json}"),
                Err(e) => {
                    eprintln!("hc-lint: cannot serialise report: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }

    if !diff.new_findings.is_empty() {
        return ExitCode::from(1);
    }
    if let Some(cross) = &cross {
        if !cross.decisive() {
            eprintln!(
                "hc-lint: --cross-check — {} unmodeled / {} unverified lock-order finding(s); \
                 every inversion needs a confirmed-or-unrealizable verdict",
                cross.unmodeled, cross.unverified,
            );
            return ExitCode::from(1);
        }
    }
    if args.fail_stale && diff.stale_entries > 0 {
        eprintln!(
            "hc-lint: --fail-stale — {} baseline entr{} carry unmatched debt; run --prune-baseline",
            diff.stale_entries,
            if diff.stale_entries == 1 { "y" } else { "ies" },
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
