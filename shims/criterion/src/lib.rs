//! Offline shim of the `criterion` benchmark harness.
//!
//! Implements the group-based API the workspace's benches use —
//! `benchmark_group`, `bench_function`, `bench_with_input`,
//! `BenchmarkId`, the `criterion_group!` / `criterion_main!` macros —
//! with a simple warm-up + measure loop over `std::time::Instant`. No
//! sampling knobs, statistics, plots or baselines: each benchmark sizes
//! its own measurement batch and reports one mean ns/iter line. `--test` mode (what
//! `cargo bench -- --test` passes) runs every routine exactly once so CI
//! can validate benches cheaply.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Top-level harness handle.
pub struct Criterion {
    test_mode: bool,
}

impl Criterion {
    /// Builds a harness configured from the process arguments
    /// (recognizes `--test`; everything else is ignored).
    pub fn from_args() -> Self {
        Criterion {
            test_mode: std::env::args().any(|a| a == "--test"),
        }
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            test_mode: self.test_mode,
            _criterion: self,
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, f: F) {
        let test_mode = self.test_mode;
        run_one("", &id.into(), test_mode, f);
    }
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion::from_args()
    }
}

/// A benchmark's display identifier.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Just the parameter, for single-function groups.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(label: &str) -> Self {
        BenchmarkId { label: label.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        BenchmarkId { label }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    name: String,
    test_mode: bool,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Benchmarks `f` under `id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        run_one(&self.name, &id.into(), self.test_mode, f);
        self
    }

    /// Benchmarks `f` under `id`, passing `input` through.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_one(&self.name, &id.into(), self.test_mode, |b| f(b, input));
        self
    }

    /// Ends the group. (No cross-benchmark reporting in the shim.)
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; times the routine.
pub struct Bencher {
    test_mode: bool,
    mean_ns: Option<f64>,
}

impl Bencher {
    /// Measures `routine`, keeping its return value alive via
    /// `black_box` so the work isn't optimized away.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.test_mode {
            std::hint::black_box(routine());
            self.mean_ns = Some(0.0);
            return;
        }
        // Warm up for at least 5ms to size the measurement batch.
        let warmup_budget = Duration::from_millis(5);
        let warmup_start = Instant::now();
        let mut warmup_iters: u64 = 0;
        while warmup_start.elapsed() < warmup_budget || warmup_iters == 0 {
            std::hint::black_box(routine());
            warmup_iters += 1;
            if warmup_iters >= 1_000_000 {
                break;
            }
        }
        let per_iter = warmup_start.elapsed().as_secs_f64() / warmup_iters as f64;
        // Measure for ~50ms, capped to keep pathological routines bounded.
        let target_iters = ((0.05 / per_iter.max(1e-9)) as u64).clamp(1, 5_000_000);
        let measure_start = Instant::now();
        for _ in 0..target_iters {
            std::hint::black_box(routine());
        }
        let total = measure_start.elapsed();
        self.mean_ns = Some(total.as_nanos() as f64 / target_iters as f64);
    }
}

fn run_one<F: FnMut(&mut Bencher)>(group: &str, id: &BenchmarkId, test_mode: bool, mut f: F) {
    let mut bencher = Bencher { test_mode, mean_ns: None };
    f(&mut bencher);
    let label = if group.is_empty() {
        id.label.clone()
    } else {
        format!("{group}/{}", id.label)
    };
    match bencher.mean_ns {
        Some(ns) if !test_mode => println!("{label}: {ns:.1} ns/iter"),
        Some(_) => println!("{label}: ok (test mode)"),
        None => println!("{label}: no measurement (b.iter never called)"),
    }
}

/// Bundles benchmark functions into a callable group, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running each group, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mode_runs_once() {
        let mut calls = 0;
        let mut b = Bencher { test_mode: true, mean_ns: None };
        b.iter(|| calls += 1);
        assert_eq!(calls, 1);
        assert_eq!(b.mean_ns, Some(0.0));
    }

    #[test]
    fn ids_format_like_upstream() {
        assert_eq!(BenchmarkId::new("sha256", 4096).label, "sha256/4096");
        assert_eq!(BenchmarkId::from_parameter(7).label, "7");
    }

    #[test]
    fn measurement_produces_a_mean() {
        let mut b = Bencher { test_mode: false, mean_ns: None };
        b.iter(|| std::hint::black_box(3u64.wrapping_mul(7)));
        assert!(b.mean_ns.unwrap() >= 0.0);
    }
}
