//! E17 — hc-lint analyser cost on the real workspace.
//!
//! The static-analysis gate runs in CI and inside `cargo test`, so its
//! own cost is a platform metric: a full two-phase workspace analysis
//! (parse → CFG → taint fixed point → summary index → rules) must stay
//! well under the 10 s budget or the gate gets skipped in practice.
//! Also measures the per-file rule cost on the taint fixture (known
//! sources, sinks, and sanitised twins), isolating the dataflow engine
//! from the directory walk.

use std::path::{Path, PathBuf};

use criterion::{criterion_group, criterion_main, Criterion};
use hc_lint::config::LintConfig;
use hc_lint::engine::{analyze_source, analyze_workspace};
use std::hint::black_box;

/// The taint fixture: sanitised/unsanitised export twins plus a
/// renamed-local flow — every dataflow feature on one page.
const TAINT_FIXTURE: &str = include_str!("../../lint/fixtures/ws/crates/taint/src/lib.rs");

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/bench sits two levels below the workspace root")
        .to_path_buf()
}

fn bench_lint(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_lint");
    let cfg = LintConfig::workspace_default();

    let root = workspace_root();
    group.bench_function("workspace_full", |b| {
        b.iter(|| {
            let report = analyze_workspace(black_box(&root), &cfg);
            assert!(report.files_scanned > 100, "workspace walk looks broken");
            black_box(report.findings.len())
        })
    });

    group.bench_function("single_file_taint", |b| {
        b.iter(|| {
            let findings = analyze_source(
                &cfg,
                "taint",
                "crates/taint/src/lib.rs",
                black_box(TAINT_FIXTURE),
            );
            black_box(findings.len())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_lint);
criterion_main!(benches);
