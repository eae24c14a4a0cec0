//! The rule engine: turns per-file parse facts into findings.

use std::collections::BTreeSet;

use crate::config::LintConfig;
use crate::diag::{rule_by_id, snippet_for, Finding, Severity};
use crate::parser::FileFacts;
use crate::summaries::WorkspaceIndex;
use crate::locks;
use crate::taint::{self, FlowKind};

/// Traits whose presence on a PHI type constitutes a leak channel.
const LEAK_TRAITS: &[&str] = &["Debug", "Display", "Serialize"];

/// Where a file sits in its crate, derived from its path.
#[derive(Clone, Debug)]
pub struct FileContext {
    /// Crate directory name under `crates/` (e.g. `fhir`).
    pub crate_name: String,
    /// Repo-relative `/`-separated path.
    pub rel_path: String,
    /// True for the crate root (`src/lib.rs`).
    pub is_crate_root: bool,
}

/// Per-file digest of the dataflow pass: sink flows plus the
/// format-argument verdicts the taint-aware `phi-fmt-leak` gate consumes.
#[derive(Debug, Default)]
struct TaintData {
    /// `(rule, line, col, message)` for every sink flow in the file.
    flows: Vec<(&'static str, u32, u32, String)>,
    /// Format args proven clean by a conclusive analysis.
    fmt_clean: BTreeSet<(u32, String)>,
    /// Format args carrying PHI taint.
    fmt_tainted: BTreeSet<(u32, String)>,
}

/// Runs every applicable rule over one file's facts. `index` carries the
/// workspace-level dataflow state (function summaries, call graph, lock
/// ordering) built by [`crate::engine`].
pub fn apply_rules(
    cfg: &LintConfig,
    ctx: &FileContext,
    src: &str,
    facts: &FileFacts,
    index: &WorkspaceIndex,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let td = run_taint(cfg, facts, index);

    phi_rules(cfg, ctx, src, facts, &td, &mut out);
    taint_rules(ctx, src, &td, &mut out);
    sync_rules(ctx, src, facts, index, &mut out);
    panic_rules(cfg, ctx, src, facts, &mut out);
    determinism_rules(cfg, ctx, src, facts, &mut out);
    hygiene_rules(ctx, facts, &mut out);

    // Inline suppression: a `// hc-lint: allow(rule)` comment silences
    // findings on its own line and on the line directly below it.
    out.retain(|f| {
        !facts.allows.iter().any(|a| {
            (a.line == f.line || a.line + 1 == f.line)
                && (a.rules.iter().any(|r| r == "*" || r == &f.rule))
        })
    });

    out.sort_by_key(|f| (f.line, f.col, f.rule.clone()));
    out
}

fn push(out: &mut Vec<Finding>, rule_id: &str, ctx: &FileContext, src: &str, line: u32, col: u32, message: String) {
    let severity = rule_by_id(rule_id).map_or(Severity::Warning, |r| r.severity);
    out.push(Finding {
        rule: rule_id.to_string(),
        severity,
        file: ctx.rel_path.clone(),
        line,
        col,
        message,
        snippet: snippet_for(src, line),
    });
}

/// Runs the taint engine over every non-test function in the file and
/// folds the results into one per-file digest.
fn run_taint(cfg: &LintConfig, facts: &FileFacts, index: &WorkspaceIndex) -> TaintData {
    let mut td = TaintData::default();
    for f in facts.fns.iter().filter(|f| !f.is_test) {
        let analysis = taint::analyze_fn(cfg, f, &index.summaries);
        for flow in &analysis.flows {
            let rule = match flow.kind {
                FlowKind::Fmt | FlowKind::Export => "taint-phi-to-sink",
                FlowKind::SummaryExport => "taint-unsanitized-export",
            };
            td.flows.push((rule, flow.line, flow.col, flow.detail.clone()));
        }
        // Only a conclusive analysis may vouch that a PHI-named format
        // argument is clean; taint evidence is kept either way.
        if !analysis.inconclusive {
            td.fmt_clean.extend(analysis.fmt_clean);
        }
        td.fmt_tainted.extend(analysis.fmt_tainted);
    }
    td
}

fn taint_rules(ctx: &FileContext, src: &str, td: &TaintData, out: &mut Vec<Finding>) {
    for (rule, line, col, message) in &td.flows {
        push(out, rule, ctx, src, *line, *col, message.clone());
    }
}

fn sync_rules(ctx: &FileContext, src: &str, facts: &FileFacts, index: &WorkspaceIndex, out: &mut Vec<Finding>) {
    for site in &facts.unbounded_channels {
        push(
            out,
            "sync-unbounded-channel",
            ctx,
            src,
            site.line,
            site.col,
            "`unbounded()` channel has no backpressure — size a bounded channel to the pipeline".to_string(),
        );
    }
    for f in facts.fns.iter().filter(|f| !f.is_test) {
        let la = locks::analyze_fn_locks(f);
        for issue in &la.issues {
            push(out, issue.rule, ctx, src, issue.line, issue.col, issue.message.clone());
        }
        for p in &la.pairs {
            let reversed = (p.second.clone(), p.first.clone());
            if let Some(site) = index.lock_pairs.get(&reversed) {
                // Skip when the "other" site is this very pair (a file can
                // legitimately take A then B twice without inversion).
                if site.file == ctx.rel_path && site.line == p.line {
                    continue;
                }
                push(
                    out,
                    "lock-order-inversion",
                    ctx,
                    src,
                    p.line,
                    p.col,
                    format!(
                        "acquires `{}` then `{}`, but `{}` ({}:{}) acquires them in the opposite order — pick one global lock order",
                        p.first, p.second, site.qual, site.file, site.line
                    ),
                );
            }
        }
    }
}

fn phi_rules(
    cfg: &LintConfig,
    ctx: &FileContext,
    src: &str,
    facts: &FileFacts,
    td: &TaintData,
    out: &mut Vec<Finding>,
) {
    let path_allowed = cfg.phi_path_allowed(&ctx.rel_path);

    if !path_allowed {
        for d in facts.derives.iter().filter(|d| !d.test_only) {
            if cfg.phi_types.iter().any(|t| t == &d.type_name) {
                let leaks: Vec<&str> = d
                    .traits
                    .iter()
                    .filter(|t| LEAK_TRAITS.contains(&t.as_str()))
                    .map(|t| t.as_str())
                    .collect();
                if !leaks.is_empty() {
                    push(
                        out,
                        "phi-derive-leak",
                        ctx,
                        src,
                        d.line,
                        1,
                        format!(
                            "PHI type `{}` derives {} outside a de-identification module",
                            d.type_name,
                            leaks.join("/")
                        ),
                    );
                }
            }
        }
        for im in facts.trait_impls.iter().filter(|i| !i.test_only) {
            if LEAK_TRAITS.contains(&im.trait_name.as_str())
                && cfg.phi_types.iter().any(|t| t == &im.type_name)
            {
                push(
                    out,
                    "phi-impl-leak",
                    ctx,
                    src,
                    im.line,
                    1,
                    format!(
                        "manual `{}` impl for PHI type `{}` outside a de-identification module",
                        im.trait_name, im.type_name
                    ),
                );
            }
        }
    }

    // Format-macro arguments are checked everywhere, including defining
    // modules: a `println!("{:?}", patient)` is a leak no matter where it
    // lives. (De-identification code that must log a PHI value uses an
    // inline allow.)
    //
    // A PHI-*named* argument that the dataflow engine conclusively
    // proved clean — e.g. rebound from a `privacy::deidentify(..)`
    // result — is suppressed. Taint evidence, inconclusive analysis, or
    // no dataflow coverage (macro outside any parsed fn body) all keep
    // the lexical finding: the engine may only remove findings it can
    // disprove, never hide ones it cannot see.
    for m in &facts.fmt_macros {
        for (ident, line, col) in &m.arg_idents {
            if let Some(ty) = cfg.matches_phi_ident(ident) {
                let key = (*line, ident.clone());
                let proven_clean = td.fmt_clean.contains(&key) && !td.fmt_tainted.contains(&key);
                if proven_clean {
                    continue;
                }
                push(
                    out,
                    "phi-fmt-leak",
                    ctx,
                    src,
                    *line,
                    *col,
                    format!(
                        "PHI value `{ident}` (type `{ty}`) flows into `{}!` — de-identify or drop it",
                        m.name
                    ),
                );
            }
        }
    }
}

fn panic_rules(cfg: &LintConfig, ctx: &FileContext, src: &str, facts: &FileFacts, out: &mut Vec<Finding>) {
    if cfg.panic_exempt_crates.iter().any(|c| c == &ctx.crate_name) {
        return;
    }
    for c in &facts.panic_calls {
        let rule = if c.method == "unwrap" { "panic-unwrap" } else { "panic-expect" };
        push(
            out,
            rule,
            ctx,
            src,
            c.line,
            c.col,
            format!(".{}() can panic in library code — propagate the error instead", c.method),
        );
    }
    for m in &facts.panic_macros {
        push(
            out,
            "panic-macro",
            ctx,
            src,
            m.line,
            m.col,
            format!("`{}!` aborts the worker in library code — return an error instead", m.name),
        );
    }
    for ix in &facts.index_sites {
        push(
            out,
            "panic-index",
            ctx,
            src,
            ix.line,
            ix.col,
            "indexing can panic on out-of-bounds — prefer .get()/.get_mut()".to_string(),
        );
    }
}

fn determinism_rules(cfg: &LintConfig, ctx: &FileContext, src: &str, facts: &FileFacts, out: &mut Vec<Finding>) {
    if cfg.wallclock_scoped_crates.iter().any(|c| c == &ctx.crate_name) {
        for w in &facts.wallclock_calls {
            push(
                out,
                "det-wallclock",
                ctx,
                src,
                w.line,
                w.col,
                format!(
                    "`{}::now()` reads the wall clock in simulation-scoped code — use `hc_common::clock::SimClock`",
                    w.clock_type
                ),
            );
        }
    }
    if cfg.unordered_scoped_crates.iter().any(|c| c == &ctx.crate_name) {
        for u in &facts.unordered_types {
            push(
                out,
                "det-unordered-map",
                ctx,
                src,
                u.line,
                u.col,
                format!(
                    "`{}` iteration order is nondeterministic in DES-core code — use BTreeMap/BTreeSet",
                    u.type_name
                ),
            );
        }
    }
}

fn hygiene_rules(ctx: &FileContext, facts: &FileFacts, out: &mut Vec<Finding>) {
    if !ctx.is_crate_root {
        return;
    }
    let has = |needle: &str| facts.inner_attrs.iter().any(|a| a.contains(needle));
    if !has("forbid(unsafe_code)") {
        out.push(Finding {
            rule: "hygiene-forbid-unsafe".to_string(),
            severity: Severity::Warning,
            file: ctx.rel_path.clone(),
            line: 1,
            col: 1,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            snippet: format!("crate:{}", ctx.crate_name),
        });
    }
    if !has("warn(missing_docs)") && !has("deny(missing_docs)") {
        out.push(Finding {
            rule: "hygiene-missing-docs".to_string(),
            severity: Severity::Info,
            file: ctx.rel_path.clone(),
            line: 1,
            col: 1,
            message: "crate root is missing `#![warn(missing_docs)]`".to_string(),
            snippet: format!("crate:{}", ctx.crate_name),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn ctx(crate_name: &str, rel: &str, root: bool) -> FileContext {
        FileContext {
            crate_name: crate_name.to_string(),
            rel_path: rel.to_string(),
            is_crate_root: root,
        }
    }

    fn run(src: &str, c: &FileContext) -> Vec<Finding> {
        let cfg = LintConfig::workspace_default();
        let facts = parse_file(src);
        let index = WorkspaceIndex::for_file(&cfg, &c.rel_path, &facts);
        apply_rules(&cfg, c, src, &facts, &index)
    }

    #[test]
    fn phi_derive_flagged_outside_allowed_module() {
        let src = "#[derive(Clone, Debug)]\npub struct Patient { id: String }";
        let f = run(src, &ctx("cache", "crates/cache/src/foo.rs", false));
        assert!(f.iter().any(|f| f.rule == "phi-derive-leak"));
        let f = run(src, &ctx("fhir", "crates/fhir/src/resource.rs", false));
        assert!(!f.iter().any(|f| f.rule == "phi-derive-leak"), "defining module is allowed");
    }

    #[test]
    fn phi_fmt_leak_flagged_even_in_defining_module() {
        let src = "fn log_it(patient: &Patient) { println!(\"{:?}\", patient); }";
        let f = run(src, &ctx("fhir", "crates/fhir/src/resource.rs", false));
        assert!(f.iter().any(|f| f.rule == "phi-fmt-leak"));
    }

    #[test]
    fn inline_allow_suppresses_same_and_next_line() {
        let src = "// hc-lint: allow(panic-unwrap)\nfn f() { g().unwrap(); }\nfn h() { g().unwrap(); }";
        let f = run(src, &ctx("cache", "crates/cache/src/x.rs", false));
        assert_eq!(f.iter().filter(|f| f.rule == "panic-unwrap").count(), 1);
    }

    #[test]
    fn allow_star_suppresses_everything_on_line() {
        let src = "fn f() { let t = std::time::Instant::now(); } // hc-lint: allow(*)";
        let f = run(src, &ctx("cloudsim", "crates/cloudsim/src/x.rs", false));
        assert!(f.is_empty());
    }

    #[test]
    fn wallclock_scoped_to_sim_crates() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        let f = run(src, &ctx("cloudsim", "crates/cloudsim/src/x.rs", false));
        assert!(f.iter().any(|f| f.rule == "det-wallclock"));
        let f = run(src, &ctx("lint", "crates/lint/src/x.rs", false));
        assert!(!f.iter().any(|f| f.rule == "det-wallclock"));
    }

    #[test]
    fn hygiene_only_on_crate_root() {
        let src = "//! docs\npub fn f() {}";
        let f = run(src, &ctx("cache", "crates/cache/src/lib.rs", true));
        assert!(f.iter().any(|f| f.rule == "hygiene-forbid-unsafe"));
        assert!(f.iter().any(|f| f.rule == "hygiene-missing-docs"));
        let f = run(src, &ctx("cache", "crates/cache/src/policy.rs", false));
        assert!(f.is_empty());
    }

    #[test]
    fn bench_crate_exempt_from_panic_rules() {
        let src = "fn f() { g().unwrap(); }";
        let f = run(src, &ctx("bench", "crates/bench/src/x.rs", false));
        assert!(!f.iter().any(|f| f.rule.starts_with("panic-")));
    }
}
