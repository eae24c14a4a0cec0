//! Optional metric recording for the analytics kernels.
//!
//! The fitting routines in this crate are free functions, so telemetry
//! uses the installable-recorder idiom: the platform (or an experiment
//! harness) calls [`install`] once with its registry, and every
//! subsequent `jmf::fit` / `delt::fit` records per-iteration wall-clock
//! histograms (`analytics.jmf.iter_wall_ns`,
//! `analytics.delt.iter_wall_ns`) and fit counters into it. With no
//! recorder installed the kernels pay a single mutex probe per fit —
//! nothing per iteration.

use std::sync::Mutex;

use hc_telemetry::{Counter, Histogram, Registry};

static RECORDER: Mutex<Option<Registry>> = Mutex::new(None);

/// Installs `registry` as the crate-wide metric recorder, replacing any
/// previous one.
pub fn install(registry: &Registry) {
    *RECORDER.lock().unwrap() = Some(registry.clone());
}

/// Resolves a histogram handle against the installed recorder, if any.
pub(crate) fn histogram(name: &str) -> Option<Histogram> {
    RECORDER.lock().unwrap().as_ref().map(|r| r.histogram(name))
}

/// Resolves a counter handle against the installed recorder, if any.
pub(crate) fn counter(name: &str) -> Option<Counter> {
    RECORDER.lock().unwrap().as_ref().map(|r| r.counter(name))
}
