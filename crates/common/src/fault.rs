//! Deterministic fault injection.
//!
//! A [`FaultInjector`] is a shared registry of scheduled faults keyed by
//! *fault point* — a stable string name a subsystem consults at a
//! vulnerable moment (`"ingest.decrypt"`, `"wal.append"`,
//! `"ledger.pipeline.partition"`, …). Faults fire on the [`SimClock`]
//! timeline from a seeded RNG, so a fault schedule replays bit-for-bit:
//! the same seed and the same sequence of `check` calls produce the same
//! event trace, which is what lets resilience experiments assert
//! recovery behavior instead of chasing nondeterminism.
//!
//! Two consumption models coexist:
//!
//! * [`FaultInjector::check`] — *consumable* faults (a crash, a transient
//!   error): firing counts against the spec's `max_hits` and is recorded
//!   in the trace.
//! * [`FaultInjector::is_active`] — *stateful* conditions (a network
//!   partition): true while simulated now is inside the spec's window,
//!   with no RNG draw and no hit accounting.
//!
//! The injector is cheap to clone (an `Arc` handle) and a
//! [`FaultInjector::disabled`] instance short-circuits every lookup, so
//! production paths can keep their fault points wired permanently.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::Rng;

use crate::clock::{SimClock, SimDuration, SimInstant};

/// What kind of failure a fault point experiences.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The host executing the component dies; work in flight is lost.
    HostCrash,
    /// The component is unreachable from its peers.
    NetworkPartition,
    /// The operation completes but takes an extra latency penalty.
    LatencySpike(SimDuration),
    /// A retryable service error (timeout, 5xx, lease lost, …).
    TransientError,
    /// Storage dies mid-write, leaving a torn record behind.
    StorageCrash,
}

/// One scheduled fault at one fault point.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// The failure to inject.
    pub kind: FaultKind,
    /// Start of the activity window (inclusive).
    pub from: SimInstant,
    /// End of the activity window (exclusive); `None` means until healed.
    pub until: Option<SimInstant>,
    /// Chance of firing per `check` while the window is active.
    /// Values ≥ 1.0 fire without consuming an RNG draw, keeping fully
    /// scripted schedules independent of the probabilistic stream.
    pub probability: f64,
    /// Maximum number of times this spec may fire; `None` is unlimited.
    pub max_hits: Option<u32>,
}

impl FaultSpec {
    /// A fault active from simulation start until healed, firing on
    /// every check.
    pub fn always(kind: FaultKind) -> Self {
        FaultSpec {
            kind,
            from: SimInstant::ZERO,
            until: None,
            probability: 1.0,
            max_hits: None,
        }
    }

    /// A fault that fires on each check with probability `p`.
    pub fn probabilistic(kind: FaultKind, p: f64) -> Self {
        FaultSpec {
            probability: p,
            ..FaultSpec::always(kind)
        }
    }

    /// Restricts the fault to `[from, until)` on the simulated timeline.
    #[must_use]
    pub fn window(mut self, from: SimInstant, until: SimInstant) -> Self {
        self.from = from;
        self.until = Some(until);
        self
    }

    /// Delays the fault until `from`.
    #[must_use]
    pub fn starting(mut self, from: SimInstant) -> Self {
        self.from = from;
        self
    }

    /// Caps how many times the fault may fire.
    #[must_use]
    pub fn limit(mut self, hits: u32) -> Self {
        self.max_hits = Some(hits);
        self
    }

    fn in_window(&self, now: SimInstant) -> bool {
        now >= self.from && self.until.is_none_or(|end| now < end)
    }
}

/// One fired (or healed) fault, for the deterministic event trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// A fault fired at a point.
    Injected {
        /// When it fired.
        at: SimInstant,
        /// The fault point name.
        point: String,
        /// What fired.
        kind: FaultKind,
    },
    /// All faults at a point were healed.
    Healed {
        /// When the heal happened.
        at: SimInstant,
        /// The fault point name.
        point: String,
    },
}

struct SpecState {
    spec: FaultSpec,
    hits: u32,
}

struct Inner {
    clock: SimClock,
    rng: StdRng,
    specs: BTreeMap<String, Vec<SpecState>>,
    trace: Vec<FaultEvent>,
}

/// A shared, seeded, clock-driven fault registry. See the module docs.
#[derive(Clone)]
pub struct FaultInjector {
    // `None` = the disabled no-op injector used on production paths.
    inner: Option<Arc<Mutex<Inner>>>,
}

impl FaultInjector {
    /// Creates an injector whose probabilistic faults draw from a
    /// dedicated RNG stream derived from `seed`.
    pub fn new(clock: SimClock, seed: u64) -> Self {
        FaultInjector {
            inner: Some(Arc::new(Mutex::new(Inner {
                clock,
                rng: crate::rng::seeded_stream(seed, 0xFA17),
                specs: BTreeMap::new(),
                trace: Vec::new(),
            }))),
        }
    }

    /// An injector that never fires; every call is a cheap no-op.
    pub fn disabled() -> Self {
        FaultInjector { inner: None }
    }

    /// Schedules `spec` at `point`. Multiple specs may coexist at one
    /// point; `check` fires the first eligible one in scheduling order.
    pub fn schedule(&self, point: &str, spec: FaultSpec) {
        if let Some(inner) = &self.inner {
            inner
                .lock()
                .specs
                .entry(point.to_string())
                .or_default()
                .push(SpecState { spec, hits: 0 });
        }
    }

    /// Removes every spec at `point`, recording a heal event.
    pub fn heal(&self, point: &str) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.lock();
            if inner.specs.remove(point).is_some() {
                let at = inner.clock.now();
                inner.trace.push(FaultEvent::Healed {
                    at,
                    point: point.to_string(),
                });
            }
        }
    }

    /// Consults `point`: returns the fault to apply now, if one fires.
    /// Firing consumes a hit and is appended to the trace.
    pub fn check(&self, point: &str) -> Option<FaultKind> {
        let inner = self.inner.as_ref()?;
        // The whole fire-or-not decision must be atomic (hit budgets and
        // the RNG draw), and the spec scan is bounded by the plan size.
        // hc-lint: allow(lock-held-long)
        let mut inner = inner.lock();
        let now = inner.clock.now();
        // Find the first eligible spec without holding a borrow across
        // the RNG draw (the draw needs `&mut inner.rng`).
        let states = inner.specs.get(point)?;
        let mut fired: Option<(usize, FaultKind)> = None;
        let mut need_draw: Option<(usize, f64)> = None;
        for (idx, state) in states.iter().enumerate() {
            if !state.spec.in_window(now) {
                continue;
            }
            if state.spec.max_hits.is_some_and(|cap| state.hits >= cap) {
                continue;
            }
            if state.spec.probability >= 1.0 {
                fired = Some((idx, state.spec.kind.clone()));
            } else if state.spec.probability > 0.0 {
                need_draw = Some((idx, state.spec.probability));
            } else {
                continue;
            }
            break;
        }
        if let Some((idx, p)) = need_draw {
            if inner.rng.gen_bool(p) {
                let kind = inner.specs.get(point).unwrap()[idx].spec.kind.clone();
                fired = Some((idx, kind));
            }
        }
        let (idx, kind) = fired?;
        inner.specs.get_mut(point).unwrap()[idx].hits += 1;
        inner.trace.push(FaultEvent::Injected {
            at: now,
            point: point.to_string(),
            kind: kind.clone(),
        });
        Some(kind)
    }

    /// Whether any spec at `point` is inside its window right now.
    /// Stateful inspection: no RNG draw, no hit accounting, no trace.
    pub fn is_active(&self, point: &str) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let inner = inner.lock();
        let now = inner.clock.now();
        inner.specs.get(point).is_some_and(|states| {
            states.iter().any(|s| {
                s.spec.in_window(now)
                    && s.spec.max_hits.is_none_or(|cap| s.hits < cap)
            })
        })
    }

    /// The ordered fault/heal event trace so far.
    pub fn trace(&self) -> Vec<FaultEvent> {
        match &self.inner {
            Some(inner) => inner.lock().trace.clone(),
            None => Vec::new(),
        }
    }

    /// Total number of injected (not healed) events so far.
    pub fn injected_count(&self) -> usize {
        match &self.inner {
            Some(inner) => inner
                .lock()
                .trace
                .iter()
                .filter(|e| matches!(e, FaultEvent::Injected { .. }))
                .count(),
            None => 0,
        }
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("FaultInjector(disabled)"),
            Some(inner) => {
                let inner = inner.lock();
                f.debug_struct("FaultInjector")
                    .field("points", &inner.specs.keys().collect::<Vec<_>>())
                    .field("events", &inner.trace.len())
                    .finish()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let inj = FaultInjector::disabled();
        inj.schedule("x", FaultSpec::always(FaultKind::TransientError));
        assert_eq!(inj.check("x"), None);
        assert!(!inj.is_active("x"));
        assert!(inj.trace().is_empty());
    }

    #[test]
    fn window_and_hit_cap_respected() {
        let clock = SimClock::new();
        let inj = FaultInjector::new(clock.clone(), 1);
        inj.schedule(
            "stage",
            FaultSpec::always(FaultKind::TransientError)
                .window(
                    SimInstant::from_nanos(100),
                    SimInstant::from_nanos(200),
                )
                .limit(2),
        );
        assert_eq!(inj.check("stage"), None, "before window");
        clock.advance(SimDuration::from_nanos(150));
        assert_eq!(inj.check("stage"), Some(FaultKind::TransientError));
        assert_eq!(inj.check("stage"), Some(FaultKind::TransientError));
        assert_eq!(inj.check("stage"), None, "hit cap reached");
        clock.advance(SimDuration::from_nanos(100));
        assert_eq!(inj.check("stage"), None, "after window");
    }

    #[test]
    fn is_active_tracks_window_without_consuming() {
        let clock = SimClock::new();
        let inj = FaultInjector::new(clock.clone(), 2);
        inj.schedule(
            "net",
            FaultSpec::always(FaultKind::NetworkPartition)
                .window(SimInstant::ZERO, SimInstant::from_nanos(500)),
        );
        assert!(inj.is_active("net"));
        assert!(inj.is_active("net"), "inspection does not consume");
        clock.advance(SimDuration::from_nanos(600));
        assert!(!inj.is_active("net"));
        assert!(inj.trace().is_empty());
    }

    #[test]
    fn heal_removes_and_records() {
        let clock = SimClock::new();
        let inj = FaultInjector::new(clock.clone(), 3);
        inj.schedule("net", FaultSpec::always(FaultKind::NetworkPartition));
        assert!(inj.is_active("net"));
        clock.advance(SimDuration::from_nanos(42));
        inj.heal("net");
        assert!(!inj.is_active("net"));
        assert_eq!(
            inj.trace(),
            vec![FaultEvent::Healed {
                at: SimInstant::from_nanos(42),
                point: "net".to_string(),
            }]
        );
    }

    #[test]
    fn same_seed_same_trace() {
        let run = |seed| {
            let clock = SimClock::new();
            let inj = FaultInjector::new(clock.clone(), seed);
            inj.schedule(
                "p",
                FaultSpec::probabilistic(FaultKind::TransientError, 0.3),
            );
            let mut fired = Vec::new();
            for _ in 0..64 {
                clock.advance(SimDuration::from_nanos(10));
                fired.push(inj.check("p").is_some());
            }
            (fired, inj.trace())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds diverge");
    }

    #[test]
    fn clones_share_state() {
        let clock = SimClock::new();
        let inj = FaultInjector::new(clock, 4);
        let other = inj.clone();
        inj.schedule("x", FaultSpec::always(FaultKind::HostCrash).limit(1));
        assert_eq!(other.check("x"), Some(FaultKind::HostCrash));
        assert_eq!(inj.check("x"), None, "hit consumed through the clone");
        assert_eq!(other.injected_count(), 1);
    }
}
