//! Intra-procedural PHI taint analysis over per-function CFGs.
//!
//! The engine seeds taint at PHI *sources* — constructors/paths naming a
//! PHI type (`Patient::new`, `Patient { … }`), accessor calls whose name
//! contains a PHI word (`fetch_patient(id)`), PHI-named field projections
//! (`req.patient`), and PHI-typed parameters — then propagates it through
//! `let` bindings, assignments, projections and call results to *sinks*
//! (format/log macros, export/transmit calls) unless a *sanitiser* kills
//! it first (`privacy::`/`crypto::` paths, or de-identification verbs
//! like `deidentify`/`pseudonymize`/`redact`).
//!
//! Taint values are `u64` bitmasks: bit 63 ([`SOURCE`]) marks direct PHI
//! taint, bits 0..32 mark "flows from parameter *i*" and exist so
//! [`summarize`] can derive the param→return / param→sink summaries the
//! inter-procedural pass composes (see [`crate::summaries`]). The join is
//! bitwise-or, so the fixed-point iteration over the CFG is a plain
//! monotone worklist and always terminates.
//!
//! Precision notes, deliberate and documented: expression-position control
//! flow is token-flattened by [`crate::cfg`] (branch union — sound),
//! unknown callees propagate argument taint to their result (sound for
//! `clone`/`as_ref` laundering, the attack the lexical rule misses), and
//! sanitiser application is per-call-subtree, so `export(deidentify(p))`
//! is clean while `export(p)` is not.

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::{build_cfg, StmtKind};
use crate::config::{snake_case, LintConfig};
use crate::lexer::{Tok, TokKind};
use crate::parser::FnDecl;
use crate::summaries::FnSummary;

/// Taint bit for "directly derived from a PHI source".
pub const SOURCE: u64 = 1 << 63;

/// Maximum individually-tracked parameters; later params share the last bit.
const MAX_PARAMS: usize = 32;

/// Mask covering all parameter bits.
pub const PARAM_MASK: u64 = (1 << MAX_PARAMS) - 1;

/// Taint label for parameter `i`.
pub fn param_bit(i: usize) -> u64 {
    1u64 << i.min(MAX_PARAMS - 1)
}

/// Format/log macro names that are PHI sinks (kept in sync with the
/// item parser's lexical list).
const FMT_SINK_MACROS: &[&str] = &[
    "println", "print", "eprintln", "eprint", "format", "format_args", "write", "writeln",
    "info", "warn", "error", "debug", "trace",
];

/// Name fragments (whole `_`-separated words) marking an export/egress
/// sink: data leaves the process or the trust boundary.
const EXPORT_SINK_WORDS: &[&str] = &[
    "export", "ship", "upload", "submit", "send", "transmit", "publish",
];

/// Name fragments marking a de-identification/crypto sanitiser.
const SANITIZER_WORDS: &[&str] = &[
    "deidentify", "de_identify", "pseudonymize", "pseudonymise", "pseudonym", "anonymize",
    "anonymise", "redact", "scrub", "sanitize", "sanitise", "hash", "encrypt", "seal", "mask",
];

/// Path qualifiers whose calls are sanitising by construction.
const SANITIZER_PATHS: &[&str] = &["privacy", "crypto"];

/// Callee words that *declassify*: the result reveals only aggregate or
/// boolean facts, not PHI content (`patient_count()` is not a source).
const DECLASSIFIER_WORDS: &[&str] = &[
    "len", "is_empty", "count", "size", "total", "exists", "has", "num",
];

/// True when `name`, split on `_` (after snake-casing), contains `word`
/// as a contiguous word run: `fetch_patient` contains `patient`,
/// `patient_count` contains `patient`, but `inpatient` does not.
pub fn name_contains_word(name: &str, word: &str) -> bool {
    let padded = format!("_{}_", snake_case(name));
    padded.contains(&format!("_{}_", word))
}

fn any_word(name: &str, words: &[&str]) -> bool {
    words.iter().any(|w| name_contains_word(name, w))
}

/// True when the identifier names a PHI accessor-style source
/// (`fetch_patient`, `patient`, `load_emr_patient`) — a PHI word with no
/// declassifying or sanitising word alongside it.
pub fn is_phi_word_name(cfg: &LintConfig, name: &str) -> bool {
    if any_word(name, DECLASSIFIER_WORDS) || any_word(name, SANITIZER_WORDS) {
        return false;
    }
    cfg.phi_types.iter().any(|t| name_contains_word(name, &snake_case(t)))
}

/// One taint flow that reached a sink.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Flow {
    /// Which kind of sink fired.
    pub kind: FlowKind,
    /// 1-based line of the sink expression.
    pub line: u32,
    /// 1-based column of the sink expression.
    pub col: u32,
    /// Human-readable flow description for the message.
    pub detail: String,
}

/// Sink classification for a [`Flow`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlowKind {
    /// Tainted value reached a format/log macro (`taint-phi-to-sink`).
    Fmt,
    /// Tainted value passed directly to an export-named call
    /// (`taint-phi-to-sink`).
    Export,
    /// Tainted value passed to a callee whose summary says the parameter
    /// reaches an export sink (`taint-unsanitized-export`).
    SummaryExport,
}

/// Result of analysing one function.
#[derive(Clone, Debug, Default)]
pub struct FnAnalysis {
    /// Sink hits, in CFG order (deduplicated by kind+site+detail).
    pub flows: Vec<Flow>,
    /// `(line, ident)` format-macro arguments proven *clean* — lexical
    /// PHI-name matches here are false positives.
    pub fmt_clean: BTreeSet<(u32, String)>,
    /// `(line, ident)` format-macro arguments carrying direct PHI taint.
    pub fmt_tainted: BTreeSet<(u32, String)>,
    /// Taint union over all `return` statements / trailing expression.
    pub return_mask: u64,
    /// Parameter bits that reached an export sink in this body.
    pub param_to_sink: u64,
    /// True when the CFG builder gave up — callers must fall back to
    /// lexical rules for this function.
    pub inconclusive: bool,
}

type Env = BTreeMap<String, u64>;

/// Analyses one function body against the given summary table (empty map
/// = pure intra-procedural).
pub fn analyze_fn(cfg: &LintConfig, f: &FnDecl, summaries: &BTreeMap<String, FnSummary>) -> FnAnalysis {
    let graph = build_cfg(&f.body);
    let mut out = FnAnalysis {
        inconclusive: graph.inconclusive,
        ..FnAnalysis::default()
    };
    // The impl type for resolving `self.method(..)` calls (`None` for
    // free functions).
    let self_ty: Option<String> = f
        .qual
        .strip_suffix(f.name.as_str())
        .and_then(|p| p.strip_suffix("::"))
        .map(str::to_string);

    // Seed: every param gets its positional bit; PHI-typed params also get
    // SOURCE — except in sanitiser functions, whose whole purpose is to
    // receive PHI and strip it.
    let self_is_sanitizer = is_sanitizer_fn(f);
    let mut seed = Env::new();
    for (i, p) in f.params.iter().enumerate() {
        let mut mask = param_bit(i);
        let phi_typed = p.ty_idents.iter().any(|t| cfg.phi_types.iter().any(|pt| pt == t));
        if phi_typed && !self_is_sanitizer {
            mask |= SOURCE;
        }
        for n in &p.names {
            seed.insert(n.clone(), mask);
        }
    }

    // Monotone fixed point: block-entry environments, union join.
    let mut entry_env: Vec<Env> = vec![Env::new(); graph.blocks.len()];
    if let Some(entry) = entry_env.get_mut(graph.entry) {
        *entry = seed;
    }
    let mut pass = 0usize;
    loop {
        let mut changed = false;
        for (b, block) in graph.blocks.iter().enumerate() {
            let mut env = entry_env.get(b).cloned().unwrap_or_default();
            for stmt in &block.stmts {
                transfer(cfg, summaries, self_ty.as_deref(), stmt, &mut env, None, &mut out);
            }
            for &s in &block.succs {
                if let Some(dst) = entry_env.get_mut(s) {
                    if merge_into(dst, &env) {
                        changed = true;
                    }
                }
            }
        }
        pass += 1;
        if !changed {
            break;
        }
        if pass > 64 {
            out.inconclusive = true;
            break;
        }
    }

    // Final pass with converged environments: collect flows once.
    let mut collector = Collector::default();
    for (b, block) in graph.blocks.iter().enumerate() {
        let mut env = entry_env.get(b).cloned().unwrap_or_default();
        for stmt in &block.stmts {
            transfer(cfg, summaries, self_ty.as_deref(), stmt, &mut env, Some(&mut collector), &mut out);
        }
    }
    out.flows = collector.flows;
    out
}

/// Derives the inter-procedural summary from an analysis result.
pub fn summarize(cfg: &LintConfig, f: &FnDecl, analysis: &FnAnalysis) -> FnSummary {
    let is_sanitizer = is_sanitizer_fn(f);
    let ret_phi_typed = f.ret_idents.iter().any(|t| cfg.phi_types.iter().any(|pt| pt == t));
    FnSummary {
        param_to_return: if is_sanitizer { 0 } else { analysis.return_mask & PARAM_MASK },
        returns_phi: !is_sanitizer && (ret_phi_typed || analysis.return_mask & SOURCE != 0),
        param_to_sink: analysis.param_to_sink & PARAM_MASK,
        is_sanitizer,
        inconclusive: analysis.inconclusive,
        method_alias: false,
    }
}

/// True when the function is itself a sanitiser: de-identification verbs
/// in its name or owner type.
pub fn is_sanitizer_fn(f: &FnDecl) -> bool {
    any_word(&f.name, SANITIZER_WORDS)
        || f.qual
            .split(':')
            .any(|seg| !seg.is_empty() && any_word(seg, SANITIZER_WORDS))
}

fn merge_into(dst: &mut Env, src: &Env) -> bool {
    let mut changed = false;
    for (k, v) in src {
        let cur = dst.entry(k.clone()).or_insert(0);
        if *cur | v != *cur {
            *cur |= v;
            changed = true;
        }
    }
    changed
}

#[derive(Default)]
struct Collector {
    flows: Vec<Flow>,
}

impl Collector {
    fn push(&mut self, flow: Flow) {
        if !self.flows.contains(&flow) {
            self.flows.push(flow);
        }
    }
}

fn transfer(
    cfg: &LintConfig,
    summaries: &BTreeMap<String, FnSummary>,
    self_ty: Option<&str>,
    stmt: &crate::cfg::Stmt,
    env: &mut Env,
    collector: Option<&mut Collector>,
    out: &mut FnAnalysis,
) {
    let toks: Vec<&Tok> = stmt.toks.iter().collect();
    let t = {
        let mut ev = Eval {
            cfg,
            summaries,
            self_ty,
            env,
            collector,
            fmt_clean: &mut out.fmt_clean,
            fmt_tainted: &mut out.fmt_tainted,
            param_to_sink: &mut out.param_to_sink,
        };
        ev.eval(&toks)
    };
    match &stmt.kind {
        StmtKind::Let { names } => {
            for n in names {
                env.insert(n.clone(), t);
            }
        }
        StmtKind::Assign { target, weak } => {
            let cur = env.get(target).copied().unwrap_or(0);
            env.insert(target.clone(), if *weak { cur | t } else { t });
        }
        StmtKind::Return => out.return_mask |= t,
        StmtKind::Expr | StmtKind::Cond => {}
    }
}

struct Eval<'a> {
    cfg: &'a LintConfig,
    summaries: &'a BTreeMap<String, FnSummary>,
    self_ty: Option<&'a str>,
    env: &'a Env,
    collector: Option<&'a mut Collector>,
    fmt_clean: &'a mut BTreeSet<(u32, String)>,
    fmt_tainted: &'a mut BTreeSet<(u32, String)>,
    param_to_sink: &'a mut u64,
}

impl Eval<'_> {
    /// Evaluates the taint of an expression token run.
    fn eval(&mut self, toks: &[&Tok]) -> u64 {
        // Declassified result: a trailing `.len()`/`.is_empty()`/`.count()`
        // reveals no PHI content. Interior sinks still fire.
        if ends_with_declassifier(toks) {
            self.walk(toks);
            return 0;
        }
        self.walk(toks)
    }

    /// Linear walk computing taint and firing sink checks.
    fn walk(&mut self, toks: &[&Tok]) -> u64 {
        let mut t = 0u64;
        let mut i = 0usize;
        while let Some(&tok) = toks.get(i) {
            if tok.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            let next = toks.get(i + 1);
            let is_macro = next.is_some_and(|n| n.is_punct('!'));
            let call_open = if is_macro { i + 2 } else { i + 1 };
            let open_tok = toks.get(call_open);
            let is_call = open_tok
                .is_some_and(|n| n.is_punct('(') || (is_macro && (n.is_punct('[') || n.is_punct('{'))));

            if is_call {
                let (open_c, close_c) = match open_tok.map(|t| t.text.as_str()) {
                    Some("[") => ('[', ']'),
                    Some("{") => ('{', '}'),
                    _ => ('(', ')'),
                };
                let close = group_close(toks, call_open, open_c, close_c);
                let args = split_args(toks, call_open + 1, close);
                let arg_taints: Vec<u64> = args.iter().map(|a| self.eval(a)).collect();
                t |= self.call(toks, i, is_macro, &args, &arg_taints);
                i = close + 1;
                continue;
            }

            // Plain identifier: variable read, PHI type path, or PHI field.
            let prev = i.checked_sub(1).and_then(|j| toks.get(j)).copied();
            let after_dot = prev.is_some_and(|p| p.is_punct('.'));
            let after_path = prev.is_some_and(|p| p.is_punct(':'));
            if self.cfg.phi_types.iter().any(|pt| pt == &tok.text) {
                // Naming a PHI type in expression position: constructor
                // path (`Patient::new`) or struct literal (`Patient { … }`).
                t |= SOURCE;
            } else if after_dot {
                // Field projection: `req.patient` is a PHI source by name.
                if is_phi_word_name(self.cfg, &tok.text) {
                    t |= SOURCE;
                }
            } else if !after_path {
                if let Some(&v) = self.env.get(&tok.text) {
                    t |= v;
                }
            }
            i += 1;
        }
        t
    }

    /// Handles one call/macro: sanitiser kill, summary composition, sink
    /// checks. Returns the call's taint contribution.
    fn call(
        &mut self,
        toks: &[&Tok],
        callee_idx: usize,
        is_macro: bool,
        args: &[Vec<&Tok>],
        arg_taints: &[u64],
    ) -> u64 {
        let Some(&callee) = toks.get(callee_idx) else { return 0 };
        let name = callee.text.as_str();
        let qual = path_qualifier(toks, callee_idx);
        let method_recv = method_receiver(toks, callee_idx);

        // Sanitiser: result is clean, nothing below fires.
        let sanitizing_path = qual.as_deref().is_some_and(|q| {
            q.split("::")
                .any(|seg| SANITIZER_PATHS.iter().any(|p| name_contains_word(seg, p)))
        });
        // Qualified lookup first (`Patient::new` → `Patient::new`), then
        // the bare-name alias — present only for workspace-unique names.
        // Method aliases (`Type::f` exposed as bare `f`) only apply when
        // the receiver is `self` (resolved against the enclosing impl
        // type first): `path.display()` must not hit `HumanName::display`.
        let recv_is_self = matches!(
            method_recv.as_deref(),
            Some([only]) if only.kind == TokKind::Ident && only.text == "self"
        );
        let summary = if let Some(q) = qual.as_deref() {
            // Summaries are keyed `Type::method`, so match on the path's
            // last segment (`hc_fhir::resource::Patient::builder` →
            // `Patient::builder`).
            let last = q.rsplit("::").next().unwrap_or(q);
            self.summaries
                .get(&format!("{last}::{name}"))
                .or_else(|| self.summaries.get(name).filter(|s| !s.method_alias))
        } else if method_recv.is_some() {
            if recv_is_self {
                self.self_ty
                    .and_then(|ty| self.summaries.get(&format!("{ty}::{name}")))
                    .or_else(|| self.summaries.get(name))
            } else {
                self.summaries.get(name).filter(|s| !s.method_alias)
            }
        } else {
            self.summaries.get(name)
        };
        if sanitizing_path
            || any_word(name, SANITIZER_WORDS)
            || summary.is_some_and(|s| s.is_sanitizer)
        {
            return 0;
        }

        // Receiver taint (for `x.f(…)`, `x` is argument slot 0).
        let recv_taint = match &method_recv {
            Some(r) => self.receiver_taint(r),
            None => 0,
        };

        let args_union: u64 = arg_taints.iter().copied().fold(0, |a, b| a | b);
        let any_source = (args_union | recv_taint) & SOURCE != 0;

        if is_macro {
            if FMT_SINK_MACROS.contains(&name) {
                self.fmt_sink(callee, args, arg_taints);
            }
            return args_union;
        }

        // Direct export sink by callee name.
        if any_word(name, EXPORT_SINK_WORDS) {
            *self.param_to_sink |= (args_union | recv_taint) & PARAM_MASK;
            if any_source {
                if let Some(c) = self.collector.as_deref_mut() {
                    c.push(Flow {
                        kind: FlowKind::Export,
                        line: callee.line,
                        col: callee.col,
                        detail: format!("PHI-tainted value passed to egress call `{name}`"),
                    });
                }
            }
        }

        // Compose the callee's summary.
        let mut res = 0u64;
        if let Some(s) = summary {
            // Method receivers occupy param slot 0, shifting explicit args.
            let shift = usize::from(method_recv.is_some());
            let nslots = args.len() + shift;
            for slot in 0..nslots.min(MAX_PARAMS) {
                let bit = param_bit(slot);
                let st = if method_recv.is_some() && slot == 0 {
                    recv_taint
                } else {
                    arg_taints.get(slot - shift).copied().unwrap_or(0)
                };
                if s.param_to_return & bit != 0 {
                    res |= st;
                }
                if s.param_to_sink & bit != 0 {
                    *self.param_to_sink |= st & PARAM_MASK;
                    if st & SOURCE != 0 {
                        if let Some(c) = self.collector.as_deref_mut() {
                            c.push(Flow {
                                kind: FlowKind::SummaryExport,
                                line: callee.line,
                                col: callee.col,
                                detail: format!(
                                    "PHI-tainted argument flows through `{name}` to an export sink"
                                ),
                            });
                        }
                    }
                }
            }
            if s.returns_phi {
                res |= SOURCE;
            }
            if s.inconclusive {
                res |= args_union | recv_taint;
            }
        } else {
            // Unknown callee: conservative — the result carries whatever
            // the arguments carried (`clone()`, `as_ref()`, `serialize()`).
            res = args_union | recv_taint;
            if is_phi_word_name(self.cfg, name) {
                // Accessor-style source: `fetch_patient(id)`.
                res |= SOURCE;
            }
        }
        res
    }

    /// Taint of a method receiver: single-ident receivers read the
    /// environment; anything longer is re-evaluated as an expression.
    fn receiver_taint(&mut self, recv: &[&Tok]) -> u64 {
        if let [only] = recv {
            if only.kind == TokKind::Ident {
                if self.cfg.phi_types.iter().any(|pt| pt == &only.text) {
                    return SOURCE;
                }
                return self.env.get(&only.text).copied().unwrap_or(0);
            }
        }
        self.walk(recv)
    }

    /// Format-macro sink: record per-argument verdicts and fire flows for
    /// tainted arguments.
    fn fmt_sink(&mut self, callee: &Tok, args: &[Vec<&Tok>], arg_taints: &[u64]) {
        for (arg, &taint) in args.iter().zip(arg_taints) {
            let tainted = taint & SOURCE != 0;
            // Single-ident args (incl. `name = ident` captures and `&x`)
            // feed the taint-aware phi-fmt-leak gate.
            let ident = single_ident_arg(arg);
            if let Some(id) = ident {
                let key = (id.line, id.text.clone());
                if tainted {
                    self.fmt_tainted.insert(key);
                } else {
                    self.fmt_clean.insert(key);
                }
            }
            if tainted {
                // Plainly PHI-named idents stay with phi-fmt-leak to avoid
                // double reporting; the taint rule owns laundered flows
                // (non-PHI names, compound expressions).
                let phi_named = ident.is_some_and(|id| is_phi_word_name(self.cfg, &id.text));
                if !phi_named {
                    if let Some(c) = self.collector.as_deref_mut() {
                        let what = ident
                            .map(|id| format!("`{}`", id.text))
                            .unwrap_or_else(|| "expression".to_string());
                        c.push(Flow {
                            kind: FlowKind::Fmt,
                            line: callee.line,
                            col: callee.col,
                            detail: format!(
                                "PHI-tainted {what} reaches `{}!` without de-identification",
                                callee.text
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// `ident`, `name = ident`, or `&ident` argument → the identifier token.
fn single_ident_arg<'t>(arg: &[&'t Tok]) -> Option<&'t Tok> {
    match arg {
        [t] if t.kind == TokKind::Ident => Some(t),
        [n, eq, t] if n.kind == TokKind::Ident && eq.is_punct('=') && t.kind == TokKind::Ident => Some(t),
        [amp, t] if amp.is_punct('&') && t.kind == TokKind::Ident => Some(t),
        _ => None,
    }
}

/// Index of the matching close delimiter for the group opened at `open`.
fn group_close(toks: &[&Tok], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while let Some(t) = toks.get(j) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

/// Splits `toks[from..to]` on top-level commas.
fn split_args<'t>(toks: &[&'t Tok], from: usize, to: usize) -> Vec<Vec<&'t Tok>> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = Vec::new();
    for &t in toks.get(from..to).unwrap_or_default() {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => {
                    if !cur.is_empty() {
                        out.push(std::mem::take(&mut cur));
                    }
                    continue;
                }
                _ => {}
            }
        }
        cur.push(t);
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// The full path qualifying a call: `hc_privacy::kanon::mondrian(` →
/// `Some("hc_privacy::kanon")`. Capturing every segment (not just the
/// innermost) lets the sanitiser-path check see crate names like
/// `hc_privacy` even when the call goes through a submodule.
fn path_qualifier(toks: &[&Tok], callee_idx: usize) -> Option<String> {
    let mut start = callee_idx;
    while let Some([seg, c1, c2]) = start.checked_sub(3).and_then(|s| toks.get(s..start)) {
        if seg.kind == TokKind::Ident && c1.is_punct(':') && c2.is_punct(':') {
            start -= 3;
        } else {
            break;
        }
    }
    if start == callee_idx {
        return None;
    }
    let segs: Vec<&str> = toks
        .get(start..callee_idx.saturating_sub(2))
        .unwrap_or_default()
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    Some(segs.join("::"))
}

/// The receiver tokens of a method call `recv.f(…)`: the ident/dot chain
/// directly before the dot (enough for `x.f()`, `self.a.f()`).
fn method_receiver<'t>(toks: &[&'t Tok], callee_idx: usize) -> Option<Vec<&'t Tok>> {
    let dot = callee_idx.checked_sub(1)?;
    if !toks.get(dot)?.is_punct('.') {
        return None;
    }
    let mut start = dot;
    while let Some(t) = start.checked_sub(1).and_then(|j| toks.get(j)) {
        if (t.kind == TokKind::Ident && !t.is_expr_keyword()) || t.is_punct('.') {
            start -= 1;
        } else {
            break;
        }
    }
    let recv: Vec<&Tok> = toks.get(start..dot)?.to_vec();
    if recv.is_empty() {
        None
    } else {
        Some(recv)
    }
}

/// True when the expression's trailing call is a declassifier
/// (`….len()` etc.), possibly behind `?`.
fn ends_with_declassifier(toks: &[&Tok]) -> bool {
    let mut end = toks.len();
    while let Some(t) = end.checked_sub(1).and_then(|j| toks.get(j)) {
        if t.is_punct('?') || t.is_punct(';') {
            end -= 1;
        } else {
            break;
        }
    }
    matches!(
        end.checked_sub(4).and_then(|s| toks.get(s..end)),
        Some([dot, id, op, cp])
            if dot.is_punct('.')
                && id.kind == TokKind::Ident
                && DECLASSIFIER_WORDS.contains(&id.text.as_str())
                && op.is_punct('(')
                && cp.is_punct(')')
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn first_fn(src: &str) -> FnDecl {
        parse_file(src).fns.into_iter().next().expect("fn parsed")
    }

    fn analyze(src: &str) -> FnAnalysis {
        let cfg = LintConfig::workspace_default();
        analyze_fn(&cfg, &first_fn(src), &BTreeMap::new())
    }

    fn analyze_with(src: &str, summaries: &BTreeMap<String, FnSummary>) -> FnAnalysis {
        let cfg = LintConfig::workspace_default();
        analyze_fn(&cfg, &first_fn(src), summaries)
    }

    #[test]
    fn constructor_source_reaches_fmt_sink() {
        let a = analyze(r#"fn f() { let rec = Patient::new("ann"); println!("{:?}", rec); }"#);
        assert_eq!(a.flows.len(), 1, "{a:#?}");
        assert_eq!(a.flows[0].kind, FlowKind::Fmt);
    }

    #[test]
    fn laundered_binding_still_tracked() {
        // The lexical rule misses `rec` (not PHI-named); taint follows it.
        let a = analyze(
            r#"fn f() { let rec = fetch_patient(7); let copy = rec.clone(); info!("got {}", copy); }"#,
        );
        assert_eq!(a.flows.len(), 1, "{a:#?}");
        assert_eq!(a.flows[0].kind, FlowKind::Fmt);
        assert!(a.fmt_tainted.iter().any(|(_, id)| id == "copy"));
    }

    #[test]
    fn sanitizer_kills_taint() {
        let a = analyze(
            r#"fn f(patient: &Patient) { let safe = privacy::deidentify(patient); println!("{}", safe); }"#,
        );
        assert!(a.flows.is_empty(), "{a:#?}");
        assert!(a.fmt_clean.iter().any(|(_, id)| id == "safe"));
    }

    #[test]
    fn sanitizer_verb_without_path_also_kills() {
        let a = analyze(
            r#"fn f(patient: &Patient) { let p = pseudonymize(patient); info!("{}", p); }"#,
        );
        assert!(a.flows.is_empty(), "{a:#?}");
    }

    #[test]
    fn export_sink_fires_on_direct_source() {
        let a = analyze(r#"fn f() { let rec = Patient::new("x"); export_record(rec); }"#);
        assert_eq!(a.flows.len(), 1, "{a:#?}");
        assert_eq!(a.flows[0].kind, FlowKind::Export);
    }

    #[test]
    fn sanitized_export_is_clean() {
        let a = analyze(r#"fn f(patient: Patient) { export_record(privacy::deidentify(patient)); }"#);
        assert!(a.flows.is_empty(), "{a:#?}");
    }

    #[test]
    fn declassifier_result_is_clean() {
        let a = analyze(r#"fn f(patient: &Patient) { let n = patient.name.len(); println!("{}", n); }"#);
        assert!(a.flows.is_empty(), "{a:#?}");
        assert!(a.fmt_clean.iter().any(|(_, id)| id == "n"));
    }

    #[test]
    fn branches_union_taint() {
        let a = analyze(
            r#"fn f(cond: bool) { let mut v = String::new(); if cond { v = fetch_patient(1); } println!("{}", v); }"#,
        );
        assert_eq!(a.flows.len(), 1, "taint survives the join: {a:#?}");
    }

    #[test]
    fn loop_carried_taint_converges() {
        let a = analyze(
            r#"fn f(items: Vec<u32>) { let mut acc = String::new(); for id in items { acc = format!("{}{}", acc, fetch_patient(id)); } info!("{}", acc); }"#,
        );
        // The `info!` outside the loop sees loop-carried taint.
        assert!(a.flows.iter().any(|f| f.kind == FlowKind::Fmt), "{a:#?}");
    }

    #[test]
    fn weak_update_on_projection_keeps_taint() {
        let a = analyze(
            r#"fn f() { let mut rec = fetch_patient(1); rec.note = clean(); println!("{:?}", rec); }"#,
        );
        assert_eq!(a.flows.len(), 1, "projection write must not strip taint: {a:#?}");
    }

    #[test]
    fn strong_update_replaces_taint() {
        let a = analyze(
            r#"fn f() { let mut rec = fetch_patient(1); rec = cleanse(); println!("{:?}", rec); }"#,
        );
        assert!(a.flows.is_empty(), "rebinding clears taint: {a:#?}");
    }

    #[test]
    fn phi_field_projection_is_source() {
        let a = analyze(r#"fn f(req: &Request) { let p = req.patient; send_msg(p); }"#);
        assert!(a.flows.iter().any(|f| f.kind == FlowKind::Export), "{a:#?}");
    }

    #[test]
    fn param_bits_reach_return_mask() {
        let cfg = LintConfig::workspace_default();
        let f = first_fn("fn pick(a: u32, b: u32) -> u32 { b }");
        let a = analyze_fn(&cfg, &f, &BTreeMap::new());
        assert_eq!(a.return_mask & PARAM_MASK, param_bit(1), "{a:#?}");
        let s = summarize(&cfg, &f, &a);
        assert_eq!(s.param_to_return, param_bit(1));
        assert!(!s.returns_phi);
    }

    #[test]
    fn phi_typed_return_summary() {
        let cfg = LintConfig::workspace_default();
        let f = first_fn("fn load(id: u64) -> Patient { storage_get(id) }");
        let s = summarize(&cfg, &f, &analyze_fn(&cfg, &f, &BTreeMap::new()));
        assert!(s.returns_phi);
    }

    #[test]
    fn summary_composition_propagates_source_through_callee() {
        let cfg = LintConfig::workspace_default();
        let helper = first_fn("fn pass_through(x: String) -> String { x }");
        let ha = analyze_fn(&cfg, &helper, &BTreeMap::new());
        let mut summaries = BTreeMap::new();
        summaries.insert("pass_through".to_string(), summarize(&cfg, &helper, &ha));

        let a = analyze_with(
            r#"fn f() { let rec = fetch_patient(1); let out = pass_through(rec); println!("{}", out); }"#,
            &summaries,
        );
        assert_eq!(a.flows.len(), 1, "{a:#?}");
    }

    #[test]
    fn summary_sink_fires_at_call_site() {
        let cfg = LintConfig::workspace_default();
        let sinkfn = first_fn("fn forward(data: String) { transmit(data); }");
        let sa = analyze_fn(&cfg, &sinkfn, &BTreeMap::new());
        let s = summarize(&cfg, &sinkfn, &sa);
        assert_eq!(s.param_to_sink, param_bit(0), "{sa:#?}");
        let mut summaries = BTreeMap::new();
        summaries.insert("forward".to_string(), s);

        let a = analyze_with(r#"fn f() { let rec = fetch_patient(1); forward(rec); }"#, &summaries);
        assert!(a.flows.iter().any(|f| f.kind == FlowKind::SummaryExport), "{a:#?}");
    }

    #[test]
    fn sanitizer_callee_summary_blocks_flow() {
        let cfg = LintConfig::workspace_default();
        let san = first_fn("fn deidentify_record(p: Patient) -> String { scrub(p) }");
        let s = summarize(&cfg, &san, &analyze_fn(&cfg, &san, &BTreeMap::new()));
        assert!(s.is_sanitizer);
        assert!(!s.returns_phi);
        let mut summaries = BTreeMap::new();
        summaries.insert("deidentify_record".to_string(), s);
        let a = analyze_with(
            r#"fn f(patient: Patient) { let out = deidentify_record(patient); export_csv(out); }"#,
            &summaries,
        );
        assert!(a.flows.is_empty(), "{a:#?}");
    }

    #[test]
    fn method_receiver_taint_flows() {
        let a = analyze(
            r#"fn f() { let rec = fetch_patient(1); let s = rec.to_summary(); submit_batch(s); }"#,
        );
        assert!(a.flows.iter().any(|f| f.kind == FlowKind::Export), "{a:#?}");
    }

    #[test]
    fn fall_through_path_reaches_sink_after_early_return() {
        let a = analyze(
            r#"fn f(flag: bool) { let rec = fetch_patient(1); if flag { return; } println!("{:?}", rec); }"#,
        );
        assert_eq!(a.flows.len(), 1, "{a:#?}");
    }

    #[test]
    fn question_mark_flow_does_not_lose_taint() {
        let a = analyze(
            r#"fn f() -> Result<(), E> { let rec = lookup_patient(3)?; send_event(rec); Ok(()) }"#,
        );
        assert!(a.flows.iter().any(|f| f.kind == FlowKind::Export), "{a:#?}");
    }

    #[test]
    fn name_word_matching() {
        assert!(name_contains_word("fetch_patient", "patient"));
        assert!(name_contains_word("patient_count", "patient"));
        assert!(name_contains_word("load_emr_patient", "emr_patient"));
        assert!(!name_contains_word("inpatient_ward", "patient"));
        assert!(name_contains_word("EmrPatient", "emr_patient"));
    }

    #[test]
    fn declassifier_named_call_is_not_source() {
        let a = analyze(r#"fn f() { let n = patient_count(); println!("{}", n); }"#);
        assert!(a.flows.is_empty(), "{a:#?}");
        assert!(a.fmt_clean.iter().any(|(_, id)| id == "n"));
    }
}
