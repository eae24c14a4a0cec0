//! Findings, severities, and the stable rule catalogue.

use serde::{Deserialize, Serialize};

/// How bad a finding is. Any *new* (non-baselined, non-allowed) finding
/// fails the run regardless of severity — severity exists for triage.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub enum Severity {
    /// Advisory; tracked so it can only ratchet down.
    Info,
    /// Should be fixed; baselined occurrences tolerated.
    Warning,
    /// Must never be introduced.
    Error,
}

impl Severity {
    /// Lowercase display name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// A rule's identity and metadata. Rule ids are stable API: they appear in
/// baselines, suppression comments, and CI output.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Stable kebab-case id, e.g. `phi-derive-leak`.
    pub id: &'static str,
    /// Rule family for grouping (`phi`, `panic`, `determinism`, `hygiene`).
    pub family: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line description.
    pub description: &'static str,
    /// Longer catalogue entry shown by `--explain <rule-id>`: what fires,
    /// why it matters for the platform, and how to fix or suppress it.
    pub help: &'static str,
}

/// The full rule catalogue, in stable order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "phi-derive-leak",
        family: "phi",
        severity: Severity::Error,
        description: "PHI-tagged type derives Debug/Display/Serialize outside de-identification modules",
        help: "Deriving Debug/Display/Serialize on a PHI type creates an uncontrolled \
               plaintext rendering channel: any caller can stringify demographics that \
               the platform promises stay encrypted at rest and pseudonymised in flight. \
               Fix: move the impl into the defining model module or the privacy layer, \
               or render a redacted view. Suppress with `// hc-lint: allow(phi-derive-leak)` \
               plus a justification when the rendering is itself de-identified.",
    },
    Rule {
        id: "phi-impl-leak",
        family: "phi",
        severity: Severity::Error,
        description: "Manual Debug/Display/Serialize impl for a PHI-tagged type outside de-identification modules",
        help: "Same channel as phi-derive-leak, but hand-written: a manual Debug/Display/\
               Serialize impl for a PHI type outside the modules allowed to see plaintext. \
               Fix: implement a redacting formatter, or move the impl next to the model/\
               privacy code that owns the de-identification contract.",
    },
    Rule {
        id: "phi-fmt-leak",
        family: "phi",
        severity: Severity::Error,
        description: "PHI-typed value appears in a println!/format!/log macro argument",
        help: "A value the taint engine tracks back to a PHI source is interpolated into a \
               format/log macro — logs are exported, retained, and unencrypted. A \
               PHI-*named* identifier only fires when dataflow confirms it still carries PHI \
               (or analysis was inconclusive); bindings produced by `privacy::`/`crypto::` \
               sanitisers are proven clean and skipped. \
               Fix: log the pseudonymised form or an aggregate.",
    },
    Rule {
        id: "taint-phi-to-sink",
        family: "taint",
        severity: Severity::Error,
        description: "Dataflow: PHI source value reaches a format/log or export sink without de-identification",
        help: "The intra-procedural taint engine traced a value from a PHI source \
               (`Patient::new`, `fetch_patient(..)`, a PHI-typed parameter or field) \
               through bindings/assignments/calls to a sink — a format/log macro or an \
               egress call (export/send/transmit/publish/upload/submit/ship) — with no \
               sanitiser (`privacy::*`, `crypto::*`, deidentify/pseudonymize/redact/...) \
               on the path. This catches laundering the lexical rule misses: \
               `let rec = fetch_patient(id); export(rec)`. \
               Fix: route the value through the privacy layer first.",
    },
    Rule {
        id: "taint-unsanitized-export",
        family: "taint",
        severity: Severity::Error,
        description: "Dataflow: PHI-tainted argument flows through a callee whose summary reaches an export sink",
        help: "The inter-procedural pass composes per-function summaries (param→return, \
               param→sink) over the workspace call graph with bounded context depth. \
               This rule fires at a call site that passes a PHI-tainted argument to a \
               function whose summary shows that parameter reaching an export sink — \
               possibly several calls deep. Fix: sanitise before the call, or make the \
               callee take de-identified input.",
    },
    Rule {
        id: "panic-unwrap",
        family: "panic",
        severity: Severity::Warning,
        description: ".unwrap() in non-test library code",
        help: "An unwrap in library code aborts the worker mid-request on the error path. \
               Propagate with `?`, or use unwrap_or/ok_or with context. Tests and benches \
               are exempt.",
    },
    Rule {
        id: "panic-expect",
        family: "panic",
        severity: Severity::Warning,
        description: ".expect(…) in non-test library code",
        help: "Same failure mode as panic-unwrap with a message attached. Return a typed \
               error instead; reserve expect for provably-unreachable states and document \
               the proof at the call site.",
    },
    Rule {
        id: "panic-macro",
        family: "panic",
        severity: Severity::Warning,
        description: "panic!/todo!/unimplemented!/unreachable! in non-test library code",
        help: "Explicit aborts in library paths take down the worker. Replace with error \
               returns; `unreachable!` is acceptable only with an invariant argument in \
               an inline allow justification.",
    },
    Rule {
        id: "panic-index",
        family: "panic",
        severity: Severity::Info,
        description: "Slice/array indexing (can panic) in non-test library code",
        help: "`xs[i]` panics on out-of-bounds. Prefer .get()/.get_mut() with explicit \
               handling. Advisory severity: indexing after a bounds check is common and \
               fine — baseline or allow those.",
    },
    Rule {
        id: "det-wallclock",
        family: "determinism",
        severity: Severity::Error,
        description: "Instant::now()/SystemTime::now() in simulation-scoped code; use hc_common::clock",
        help: "The DES replays event schedules bit-for-bit; reading the wall clock breaks \
               replay determinism. Use `hc_common::clock::SimClock`. Telemetry-only \
               wall-time reads carry justified inline allows.",
    },
    Rule {
        id: "det-unordered-map",
        family: "determinism",
        severity: Severity::Warning,
        description: "HashMap/HashSet in DES-core code; iteration order is nondeterministic — use BTreeMap/BTreeSet",
        help: "HashMap iteration order varies per process, so any DES decision derived \
               from it diverges between runs. Use BTreeMap/BTreeSet in simulation-core \
               crates.",
    },
    Rule {
        id: "lock-held-across-await",
        family: "sync",
        severity: Severity::Warning,
        description: "Mutex/RwLock guard held across an .await point",
        help: "A std sync guard held across `.await` blocks the executor thread while the \
               task is parked, and deadlocks if the wake path needs the same lock. \
               Fix: drop the guard before awaiting (clone the needed data out), or use a \
               message-passing handoff.",
    },
    Rule {
        id: "lock-order-inversion",
        family: "sync",
        severity: Severity::Warning,
        description: "Two locks acquired in opposite orders somewhere in the workspace",
        help: "One code path acquires lock A then B while another acquires B then A — the \
               classic ABBA deadlock once both paths run concurrently. The pass collects \
               ordered acquisition pairs per function workspace-wide and flags reversed \
               pairs. Fix: pick one global order (document it next to the lock fields) \
               and make both paths follow it.",
    },
    Rule {
        id: "lock-held-long",
        family: "sync",
        severity: Severity::Info,
        description: "Lock guard held across a loop",
        help: "A guard that spans a loop holds the critical section for an unbounded \
               number of iterations, starving other threads on the hot paths the \
               resilience/telemetry layers share. Advisory: narrow the critical section \
               (collect under the lock, process after), or take the lock per iteration.",
    },
    Rule {
        id: "sync-unbounded-channel",
        family: "sync",
        severity: Severity::Warning,
        description: "Unbounded channel in non-test code — no backpressure",
        help: "`unbounded()` queues grow without backpressure: a slow consumer turns into \
               unbounded memory growth instead of a visible stall. Prefer a bounded \
               channel sized to the pipeline, or justify the unbounded choice (e.g. \
               single-threaded DES draining within one tick) in an inline allow.",
    },
    Rule {
        id: "hygiene-forbid-unsafe",
        family: "hygiene",
        severity: Severity::Warning,
        description: "Crate root missing #![forbid(unsafe_code)]",
        help: "Every platform crate forbids unsafe at the root so the attestation story \
               (\"no unsafe in the TCB\") is machine-checked. Add the attribute.",
    },
    Rule {
        id: "hygiene-missing-docs",
        family: "hygiene",
        severity: Severity::Info,
        description: "Crate root missing #![warn(missing_docs)]",
        help: "Docs coverage is enforced crate-by-crate via the missing_docs lint. Add \
               `#![warn(missing_docs)]` to the crate root.",
    },
];

/// Looks a rule up by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// One diagnostic produced by the engine.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Finding {
    /// Stable rule id.
    pub rule: String,
    /// Severity at emission time.
    pub severity: Severity,
    /// Repo-relative, `/`-separated file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable message.
    pub message: String,
    /// The offending source line, whitespace-trimmed (also the baseline
    /// fingerprint key, so findings survive unrelated line renumbering).
    pub snippet: String,
}

impl Finding {
    /// The baseline fingerprint: rule + file + normalised snippet.
    /// Line numbers are deliberately excluded so that edits elsewhere in
    /// the file do not invalidate the baseline.
    pub fn fingerprint(&self) -> String {
        format!("{}|{}|{}", self.rule, self.file, self.snippet)
    }
}

/// Extracts the trimmed source line `line` (1-based) from `src`,
/// collapsing interior whitespace runs so formatting churn does not move
/// fingerprints.
pub fn snippet_for(src: &str, line: u32) -> String {
    let raw = src
        .lines()
        .nth(line.saturating_sub(1) as usize)
        .unwrap_or_default();
    let mut out = String::with_capacity(raw.len());
    let mut last_ws = false;
    for c in raw.trim().chars() {
        if c.is_whitespace() {
            if !last_ws {
                out.push(' ');
            }
            last_ws = true;
        } else {
            out.push(c);
            last_ws = false;
        }
    }
    out.truncate(160);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_unique_and_resolvable() {
        for (i, r) in RULES.iter().enumerate() {
            assert!(RULES.iter().skip(i + 1).all(|o| o.id != r.id), "duplicate id {}", r.id);
            assert!(rule_by_id(r.id).is_some());
        }
        assert!(rule_by_id("no-such-rule").is_none());
    }

    #[test]
    fn snippet_collapses_whitespace() {
        let src = "a\n   let   x =\t1;   \nb";
        assert_eq!(snippet_for(src, 2), "let x = 1;");
        assert_eq!(snippet_for(src, 99), "");
    }

    #[test]
    fn fingerprint_ignores_line_numbers() {
        let mut f = Finding {
            rule: "panic-unwrap".into(),
            severity: Severity::Warning,
            file: "crates/x/src/lib.rs".into(),
            line: 10,
            col: 4,
            message: "m".into(),
            snippet: "x.unwrap();".into(),
        };
        let fp1 = f.fingerprint();
        f.line = 99;
        assert_eq!(fp1, f.fingerprint());
    }
}
