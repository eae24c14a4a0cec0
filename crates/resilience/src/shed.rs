//! Load shedding with hysteresis, and the degraded-mode controller.
//!
//! Admission control ([`crate::admission`]) bounds the *rate* the
//! serving path accepts, but rate alone is not safety: when the cache is
//! cold every admitted read goes to the origin and costs 50–100× the
//! planned service time, so the queue grows even at an admitted rate the
//! warm system handles easily. The [`LoadShedder`] watches the *measured*
//! queue delay and, when a smoothed estimate crosses its enter threshold,
//! starts dropping low-priority tiers until the signal falls back under a
//! lower exit threshold (hysteresis, plus a minimum dwell time, so the
//! shedder cannot flap around one threshold).
//!
//! [`DegradedMode`] is the slower outer loop: it folds the shed *rate*
//! over fixed windows and declares the serving subsystem degraded after
//! sustained shedding (and healthy again only after sustained calm), the
//! signal [`crate::health::DegradationTracker`] and the provenance plane
//! react to. Both state machines count transitions so experiments can
//! assert "entered once, exited once, no flapping" (E19).

use hc_common::clock::{SimClock, SimDuration, SimInstant};
use hc_telemetry::{Counter, Gauge, Registry};

use crate::admission::Tier;

/// Why a request was shed (stable metric labels).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// Rejected by the admission token bucket.
    Admission,
    /// Dropped by the overload shedder (queue delay above threshold).
    Overload,
    /// Dropped because its deadline budget cannot be met anyway.
    Deadline,
}

impl ShedReason {
    /// Stable metric/report label.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::Admission => "admission",
            ShedReason::Overload => "overload",
            ShedReason::Deadline => "deadline",
        }
    }
}

/// Configuration of the [`LoadShedder`] hysteresis loop.
#[derive(Clone, Copy, Debug)]
pub struct ShedConfig {
    /// Start shedding when the smoothed queue delay exceeds this.
    pub enter_above: SimDuration,
    /// Stop shedding once the smoothed queue delay falls below this
    /// (must be ≤ `enter_above` for hysteresis to bite).
    pub exit_below: SimDuration,
    /// Minimum time to stay in a state before switching again.
    pub min_dwell: SimDuration,
    /// EWMA smoothing factor in `(0, 1]` for the queue-delay signal.
    pub ewma_alpha: f64,
    /// While shedding, clinical traffic survives until the smoothed
    /// delay exceeds `enter_above × clinical_factor`; interactive until
    /// `enter_above × interactive_factor`; batch is always shed.
    pub interactive_factor: f64,
    /// See `interactive_factor`.
    pub clinical_factor: f64,
}

impl Default for ShedConfig {
    fn default() -> Self {
        ShedConfig {
            enter_above: SimDuration::from_millis(50),
            exit_below: SimDuration::from_millis(20),
            min_dwell: SimDuration::from_millis(250),
            ewma_alpha: 0.2,
            interactive_factor: 1.0,
            clinical_factor: 4.0,
        }
    }
}

/// Registry handles for one shedder (`shed.*`).
struct ShedInstruments {
    active: Gauge,
    transitions: Counter,
    delay_est_us: Gauge,
}

/// Queue-delay-based load shedding with hysteresis.
///
/// Feed every completed (or queued) request's observed queue delay with
/// [`observe`](Self::observe); ask [`should_shed`](Self::should_shed)
/// before spending capacity on a request. Deterministic: no randomness,
/// simulated time only.
pub struct LoadShedder {
    clock: SimClock,
    cfg: ShedConfig,
    smoothed_ns: f64,
    shedding: bool,
    state_since: SimInstant,
    transitions: u64,
    shed_counts: [u64; 3],
    instruments: Option<ShedInstruments>,
}

impl std::fmt::Debug for LoadShedder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadShedder")
            .field("shedding", &self.shedding)
            .field("smoothed_us", &((self.smoothed_ns / 1e3) as u64))
            .finish()
    }
}

impl LoadShedder {
    /// A shedder in the calm state.
    pub fn new(clock: SimClock, cfg: ShedConfig) -> Self {
        let now = clock.now();
        LoadShedder {
            clock,
            cfg,
            smoothed_ns: 0.0,
            shedding: false,
            state_since: now,
            transitions: 0,
            shed_counts: [0; 3],
            instruments: None,
        }
    }

    /// Mirrors the shedder into `registry` under `shed.*`: an `active`
    /// gauge (0/1), a `transitions` counter and the smoothed delay
    /// estimate in µs.
    pub fn instrument(&mut self, registry: &Registry) {
        let inst = ShedInstruments {
            active: registry.gauge("shed.active"),
            transitions: registry.counter("shed.transitions"),
            delay_est_us: registry.gauge("shed.delay_est_us"),
        };
        inst.active.set(i64::from(self.shedding));
        self.instruments = Some(inst);
    }

    /// Records one observed queue delay and re-evaluates the hysteresis
    /// state machine.
    pub fn observe(&mut self, queue_delay: SimDuration) {
        let a = self.cfg.ewma_alpha.clamp(1e-6, 1.0);
        self.smoothed_ns =
            (1.0 - a) * self.smoothed_ns + a * queue_delay.as_nanos() as f64;
        let now = self.clock.now();
        let dwelt = now.duration_since(self.state_since) >= self.cfg.min_dwell;
        let next = if self.shedding {
            // Leave only after the signal has fallen *below the exit
            // threshold* and the minimum dwell has passed.
            !(dwelt && self.smoothed_ns < self.cfg.exit_below.as_nanos() as f64)
        } else {
            dwelt && self.smoothed_ns > self.cfg.enter_above.as_nanos() as f64
        };
        if next != self.shedding {
            self.shedding = next;
            self.state_since = now;
            self.transitions += 1;
            if let Some(inst) = &self.instruments {
                inst.active.set(i64::from(next));
                inst.transitions.inc();
            }
        }
        if let Some(inst) = &self.instruments {
            inst.delay_est_us.set((self.smoothed_ns / 1e3) as i64);
        }
    }

    /// Whether the shedder is currently in the shedding state.
    pub fn is_shedding(&self) -> bool {
        self.shedding
    }

    /// Decides whether to shed a `tier` request right now. While
    /// shedding, batch is always dropped; interactive and clinical
    /// survive until the smoothed delay exceeds their configured
    /// multiples of the enter threshold.
    pub fn should_shed(&mut self, tier: Tier) -> bool {
        if !self.shedding {
            return false;
        }
        let enter = self.cfg.enter_above.as_nanos() as f64;
        let shed = match tier {
            Tier::Batch => true,
            Tier::Interactive => self.smoothed_ns >= enter * self.cfg.interactive_factor,
            Tier::Clinical => self.smoothed_ns >= enter * self.cfg.clinical_factor,
        };
        if shed {
            self.shed_counts[tier.index()] += 1; // hc-lint: allow(panic-index)
        }
        shed
    }

    /// State transitions (calm → shedding and back) so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Requests this shedder dropped for a tier.
    pub fn shed_count(&self, tier: Tier) -> u64 {
        self.shed_counts[tier.index()] // hc-lint: allow(panic-index)
    }
}

/// Configuration of the [`DegradedMode`] outer loop.
#[derive(Clone, Copy, Debug)]
pub struct DegradedConfig {
    /// Length of one shed-rate accounting window.
    pub window: SimDuration,
    /// Enter degraded mode after the shed fraction is ≥ this for
    /// `enter_windows` consecutive windows.
    pub enter_above: f64,
    /// Exit after the shed fraction is ≤ this for `exit_windows`
    /// consecutive windows (set below `enter_above` for hysteresis).
    pub exit_below: f64,
    /// Consecutive hot windows required to enter.
    pub enter_windows: u32,
    /// Consecutive calm windows required to exit.
    pub exit_windows: u32,
}

impl Default for DegradedConfig {
    fn default() -> Self {
        DegradedConfig {
            window: SimDuration::from_secs(1),
            enter_above: 0.10,
            exit_below: 0.02,
            enter_windows: 3,
            exit_windows: 5,
        }
    }
}

/// Registry handles for degraded mode (`shed.degraded*`).
struct DegradedInstruments {
    degraded: Gauge,
    transitions: Counter,
    rate_ppm: Gauge,
}

/// Sustained-shed-rate degraded-mode tracking.
///
/// Call [`on_request`](Self::on_request) for every request offered to the
/// protected path (shed or served); the controller buckets them into
/// fixed windows of simulated time and runs an N-consecutive-windows
/// hysteresis over the per-window shed fraction. The result feeds the
/// platform [`DegradationTracker`](crate::health::DegradationTracker)
/// ("serving" subsystem) and, in E19, throttles provenance sampling.
pub struct DegradedMode {
    clock: SimClock,
    cfg: DegradedConfig,
    window_start: SimInstant,
    offered: u64,
    shed: u64,
    hot_streak: u32,
    calm_streak: u32,
    degraded: bool,
    transitions: u64,
    instruments: Option<DegradedInstruments>,
}

impl std::fmt::Debug for DegradedMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DegradedMode")
            .field("degraded", &self.degraded)
            .field("transitions", &self.transitions)
            .finish()
    }
}

impl DegradedMode {
    /// A controller in the healthy state.
    pub fn new(clock: SimClock, cfg: DegradedConfig) -> Self {
        let now = clock.now();
        DegradedMode {
            clock,
            cfg,
            window_start: now,
            offered: 0,
            shed: 0,
            hot_streak: 0,
            calm_streak: 0,
            degraded: false,
            transitions: 0,
            instruments: None,
        }
    }

    /// Mirrors the controller into `registry`: `shed.degraded` gauge
    /// (0/1), `shed.degraded.transitions` counter and `shed.rate_ppm`
    /// (last closed window's shed fraction, parts per million).
    pub fn instrument(&mut self, registry: &Registry) {
        let inst = DegradedInstruments {
            degraded: registry.gauge("shed.degraded"),
            transitions: registry.counter("shed.degraded.transitions"),
            rate_ppm: registry.gauge("shed.rate_ppm"),
        };
        inst.degraded.set(i64::from(self.degraded));
        self.instruments = Some(inst);
    }

    /// Accounts one request offered to the protected path; `was_shed`
    /// marks it as dropped (by admission, overload or deadline). Rolls
    /// the window over and re-evaluates hysteresis when the window
    /// elapses.
    pub fn on_request(&mut self, was_shed: bool) {
        self.roll_window();
        self.offered += 1;
        if was_shed {
            self.shed += 1;
        }
    }

    /// Closes the current window if it has elapsed, updating streaks and
    /// possibly the degraded flag. Called from [`Self::on_request`], but also
    /// safe to call from a timer tick during silence.
    pub fn roll_window(&mut self) {
        let now = self.clock.now();
        while now.duration_since(self.window_start) >= self.cfg.window {
            let rate = if self.offered == 0 {
                0.0
            } else {
                self.shed as f64 / self.offered as f64
            };
            if rate >= self.cfg.enter_above {
                self.hot_streak += 1;
                self.calm_streak = 0;
            } else if rate <= self.cfg.exit_below {
                self.calm_streak += 1;
                self.hot_streak = 0;
            } else {
                // Between the thresholds: no streak advances — the
                // hysteresis band keeps the current state.
                self.hot_streak = 0;
                self.calm_streak = 0;
            }
            let next = if self.degraded {
                self.calm_streak < self.cfg.exit_windows
            } else {
                self.hot_streak >= self.cfg.enter_windows
            };
            if next != self.degraded {
                hc_common::conc::mc::write("shed.degraded");
                // Hysteresis invariant: entering requires a full hot
                // streak, leaving a full calm streak — never both zero.
                hc_common::conc::mc::check(
                    self.hot_streak >= self.cfg.enter_windows
                        || self.calm_streak >= self.cfg.exit_windows,
                    "degraded flag flipped without a completed streak",
                );
                self.degraded = next;
                self.transitions += 1;
                if let Some(inst) = &self.instruments {
                    inst.degraded.set(i64::from(next));
                    inst.transitions.inc();
                }
            }
            if let Some(inst) = &self.instruments {
                inst.rate_ppm.set((rate * 1e6) as i64);
            }
            self.offered = 0;
            self.shed = 0;
            self.window_start = self.window_start + self.cfg.window;
        }
    }

    /// Whether the serving path is currently degraded.
    pub fn is_degraded(&self) -> bool {
        hc_common::conc::mc::read("shed.degraded");
        self.degraded
    }

    /// Healthy↔degraded transitions so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ShedConfig {
        ShedConfig {
            enter_above: SimDuration::from_millis(10),
            exit_below: SimDuration::from_millis(4),
            min_dwell: SimDuration::from_millis(5),
            ewma_alpha: 1.0, // undamped: the test drives the raw signal
            interactive_factor: 1.5,
            clinical_factor: 4.0,
        }
    }

    #[test]
    fn enters_and_exits_with_hysteresis() {
        let clock = SimClock::new();
        let mut s = LoadShedder::new(clock.clone(), cfg());
        clock.advance(SimDuration::from_millis(10));
        s.observe(SimDuration::from_millis(20));
        assert!(s.is_shedding());
        // Inside the band (between exit 4 ms and enter 10 ms): stays on.
        clock.advance(SimDuration::from_millis(10));
        s.observe(SimDuration::from_millis(6));
        assert!(s.is_shedding(), "hysteresis band keeps the state");
        clock.advance(SimDuration::from_millis(10));
        s.observe(SimDuration::from_millis(1));
        assert!(!s.is_shedding());
        assert_eq!(s.transitions(), 2);
    }

    #[test]
    fn min_dwell_blocks_immediate_flap() {
        let clock = SimClock::new();
        let mut s = LoadShedder::new(clock.clone(), cfg());
        clock.advance(SimDuration::from_millis(10));
        s.observe(SimDuration::from_millis(20));
        assert!(s.is_shedding());
        // Signal collapses immediately, but dwell (5 ms) has not passed.
        s.observe(SimDuration::ZERO);
        assert!(s.is_shedding(), "must dwell before exiting");
        clock.advance(SimDuration::from_millis(5));
        s.observe(SimDuration::ZERO);
        assert!(!s.is_shedding());
    }

    #[test]
    fn tiers_shed_in_priority_order() {
        let clock = SimClock::new();
        let mut s = LoadShedder::new(clock.clone(), cfg());
        clock.advance(SimDuration::from_millis(10));
        s.observe(SimDuration::from_millis(12)); // above enter, below 1.5×
        assert!(s.should_shed(Tier::Batch));
        assert!(!s.should_shed(Tier::Interactive));
        assert!(!s.should_shed(Tier::Clinical));
        s.observe(SimDuration::from_millis(20)); // ≥ 1.5× enter
        assert!(s.should_shed(Tier::Interactive));
        assert!(!s.should_shed(Tier::Clinical));
        s.observe(SimDuration::from_millis(45)); // ≥ 4× enter
        assert!(s.should_shed(Tier::Clinical));
        assert!(s.shed_count(Tier::Batch) >= 1);
    }

    #[test]
    fn calm_path_never_sheds() {
        let clock = SimClock::new();
        let mut s = LoadShedder::new(clock, cfg());
        for _ in 0..100 {
            s.observe(SimDuration::from_millis(1));
            assert!(!s.should_shed(Tier::Batch));
        }
        assert_eq!(s.transitions(), 0);
    }

    fn dcfg() -> DegradedConfig {
        DegradedConfig {
            window: SimDuration::from_millis(100),
            enter_above: 0.10,
            exit_below: 0.02,
            enter_windows: 2,
            exit_windows: 3,
        }
    }

    /// Drives `windows` windows at a given shed fraction (10 requests
    /// per window).
    fn drive(d: &mut DegradedMode, clock: &SimClock, windows: usize, shed_of_10: u32) {
        for _ in 0..windows {
            for i in 0..10u32 {
                d.on_request(i < shed_of_10);
            }
            clock.advance(SimDuration::from_millis(100));
        }
        d.roll_window();
    }

    #[test]
    fn sustained_shedding_enters_once_and_exits_once() {
        let clock = SimClock::new();
        let mut d = DegradedMode::new(clock.clone(), dcfg());
        drive(&mut d, &clock, 1, 5);
        assert!(!d.is_degraded(), "one hot window is not sustained");
        drive(&mut d, &clock, 2, 5);
        assert!(d.is_degraded());
        // Calm again: needs 3 consecutive calm windows.
        drive(&mut d, &clock, 2, 0);
        assert!(d.is_degraded());
        drive(&mut d, &clock, 1, 0);
        assert!(!d.is_degraded());
        assert_eq!(d.transitions(), 2, "exactly one enter + one exit");
    }

    #[test]
    fn band_rate_does_not_flap_state() {
        let clock = SimClock::new();
        let mut d = DegradedMode::new(clock.clone(), dcfg());
        drive(&mut d, &clock, 3, 5);
        assert!(d.is_degraded());
        // 5% shed: between exit (2%) and enter (10%) — state must hold
        // indefinitely without flapping.
        for _ in 0..20 {
            for i in 0..20u32 {
                d.on_request(i < 1);
            }
            clock.advance(SimDuration::from_millis(100));
        }
        d.roll_window();
        assert!(d.is_degraded());
        assert_eq!(d.transitions(), 1);
    }

    #[test]
    fn instrumented_lifecycle() {
        let clock = SimClock::new();
        let registry = Registry::new();
        let mut d = DegradedMode::new(clock.clone(), dcfg());
        d.instrument(&registry);
        drive(&mut d, &clock, 3, 10);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("shed.degraded"), Some(1));
        assert_eq!(snap.counter("shed.degraded.transitions"), Some(1));
        assert_eq!(snap.gauge("shed.rate_ppm"), Some(1_000_000));
    }
}
