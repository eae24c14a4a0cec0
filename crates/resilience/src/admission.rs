//! Admission control: a token bucket with per-tier priority reserves.
//!
//! The serving path can process a bounded rate; everything above it must
//! be rejected *at the front door*, before any capacity is spent, and
//! the rejections must land on the least important traffic first. This
//! module implements the standard construction: a token bucket refilled
//! at the sustainable service rate, plus per-tier *reserve watermarks* —
//! a low-priority request is only admitted while the bucket still holds
//! a cushion for more important traffic, so under pressure batch
//! analytics starve before interactive dashboards, and interactive
//! dashboards starve before clinical reads.
//!
//! Everything runs on the shared [`SimClock`] and plain arithmetic, so a
//! scripted overload produces bit-identical admission decisions on any
//! host (the E19 experiment records them).

use hc_common::clock::{SimClock, SimInstant};
use hc_telemetry::{Counter, Gauge, Registry};

/// Request priority tier of the serving path, most important first.
///
/// The tier is assigned at the *client* edge (see `hc-client`): what kind
/// of caller is asking, not how expensive the request is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Patient-care reads (clinician pulling a record at the bedside).
    /// Never deliberately starved; shed only to keep the platform alive.
    Clinical,
    /// Interactive human traffic (portals, dashboards).
    Interactive,
    /// Background analytics and bulk exports; first to be rejected.
    Batch,
}

impl Tier {
    /// All tiers, most important first.
    pub const ALL: [Tier; 3] = [Tier::Clinical, Tier::Interactive, Tier::Batch];

    /// Stable metric/report label.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Clinical => "clinical",
            Tier::Interactive => "interactive",
            Tier::Batch => "batch",
        }
    }

    /// Dense index (0 = most important).
    pub fn index(self) -> usize {
        match self {
            Tier::Clinical => 0,
            Tier::Interactive => 1,
            Tier::Batch => 2,
        }
    }
}

/// Registry handles for one controller (`admission.*`).
struct AdmissionInstruments {
    admitted: Counter,
    rejected: Counter,
    per_tier_admitted: [Counter; 3],
    per_tier_rejected: [Counter; 3],
    tokens_milli: Gauge,
}

/// The outcome of an admission decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The request may proceed; one token was consumed.
    Admitted,
    /// The bucket (minus this tier's reserve) is empty; rejected without
    /// consuming capacity.
    Rejected,
}

impl Admission {
    /// Whether the request was admitted.
    pub fn is_admitted(self) -> bool {
        self == Admission::Admitted
    }
}

/// A token-bucket admission controller with per-tier reserves.
///
/// Tokens refill continuously at `rate_per_sec` up to `burst`; admitting
/// a request costs one token. A request of tier `t` is admitted only
/// while `tokens ≥ 1 + reserve(t) · burst`, where the reserve fraction
/// grows for less important tiers — the cushion kept for higher-priority
/// traffic. Defaults: clinical 0, interactive 5%, batch 25%.
///
/// # Examples
///
/// ```
/// use hc_common::clock::SimClock;
/// use hc_resilience::admission::{AdmissionController, Tier};
///
/// let clock = SimClock::new();
/// // 1000 req/s sustained, bursts of 10.
/// let mut ac = AdmissionController::new(clock.clone(), 1000.0, 10.0);
/// assert!(ac.try_admit(Tier::Clinical).is_admitted());
/// ```
#[derive(Clone, Debug)]
pub struct AdmissionController {
    clock: SimClock,
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    refilled_at: SimInstant,
    reserves: [f64; 3],
    rejected: [u64; 3],
    instruments: Option<std::sync::Arc<AdmissionInstruments>>,
}

impl std::fmt::Debug for AdmissionInstruments {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionInstruments").finish()
    }
}

impl AdmissionController {
    /// A controller refilling `rate_per_sec` tokens per simulated second
    /// with bucket depth `burst` (both clamped to be positive). The
    /// bucket starts full.
    pub fn new(clock: SimClock, rate_per_sec: f64, burst: f64) -> Self {
        let now = clock.now();
        let burst = burst.max(1.0);
        AdmissionController {
            clock,
            rate_per_sec: rate_per_sec.max(f64::MIN_POSITIVE),
            burst,
            tokens: burst,
            refilled_at: now,
            reserves: [0.0, 0.05, 0.25],
            rejected: [0; 3],
            instruments: None,
        }
    }

    /// Overrides the reserve fraction (of the burst depth) a tier must
    /// leave untouched. Clamped to `[0, 1)`.
    #[must_use]
    pub fn with_reserve(mut self, tier: Tier, fraction: f64) -> Self {
        self.reserves[tier.index()] = fraction.clamp(0.0, 0.999); // hc-lint: allow(panic-index)
        self
    }

    /// Mirrors decisions into `registry` under `admission.*`: total and
    /// per-tier admitted/rejected counters plus an `admission.tokens_milli`
    /// gauge (current bucket level ×1000).
    pub fn instrument(&mut self, registry: &Registry) {
        let per = |what: &str| {
            [
                registry.counter(&format!("admission.clinical.{what}")),
                registry.counter(&format!("admission.interactive.{what}")),
                registry.counter(&format!("admission.batch.{what}")),
            ]
        };
        let inst = AdmissionInstruments {
            admitted: registry.counter("admission.admitted"),
            rejected: registry.counter("admission.rejected"),
            per_tier_admitted: per("admitted"),
            per_tier_rejected: per("rejected"),
            tokens_milli: registry.gauge("admission.tokens_milli"),
        };
        inst.tokens_milli.set((self.tokens * 1e3) as i64);
        self.instruments = Some(std::sync::Arc::new(inst));
    }

    /// Refills the bucket for the simulated time elapsed since the last
    /// refill.
    fn refill(&mut self) {
        let now = self.clock.now();
        let elapsed = now.duration_since(self.refilled_at);
        if elapsed.as_nanos() > 0 {
            self.tokens =
                (self.tokens + elapsed.as_secs_f64() * self.rate_per_sec).min(self.burst);
            self.refilled_at = now;
        }
    }

    /// Decides admission for one `tier` request *now*, consuming a token
    /// when admitted.
    pub fn try_admit(&mut self, tier: Tier) -> Admission {
        self.refill();
        let floor = self.reserves[tier.index()] * self.burst; // hc-lint: allow(panic-index)
        let decision = if self.tokens >= 1.0 + floor {
            self.tokens -= 1.0;
            Admission::Admitted
        } else {
            self.rejected[tier.index()] += 1; // hc-lint: allow(panic-index)
            Admission::Rejected
        };
        if let Some(inst) = &self.instruments {
            match decision {
                Admission::Admitted => {
                    inst.admitted.inc();
                    inst.per_tier_admitted[tier.index()].inc(); // hc-lint: allow(panic-index)
                }
                Admission::Rejected => {
                    inst.rejected.inc();
                    inst.per_tier_rejected[tier.index()].inc(); // hc-lint: allow(panic-index)
                }
            }
            inst.tokens_milli.set((self.tokens * 1e3) as i64);
        }
        decision
    }

    /// Current bucket level (after a lazy refill).
    pub fn tokens(&mut self) -> f64 {
        self.refill();
        self.tokens
    }

    /// Requests rejected for a tier so far.
    pub fn rejected_count(&self, tier: Tier) -> u64 {
        self.rejected[tier.index()] // hc-lint: allow(panic-index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_common::clock::SimDuration;

    #[test]
    fn bucket_starts_full_and_drains() {
        let clock = SimClock::new();
        let mut ac = AdmissionController::new(clock, 1.0, 4.0).with_reserve(Tier::Batch, 0.0);
        for _ in 0..4 {
            assert!(ac.try_admit(Tier::Batch).is_admitted());
        }
        assert_eq!(ac.try_admit(Tier::Batch), Admission::Rejected);
    }

    #[test]
    fn refill_restores_admission() {
        let clock = SimClock::new();
        let mut ac = AdmissionController::new(clock.clone(), 10.0, 2.0);
        assert!(ac.try_admit(Tier::Clinical).is_admitted());
        assert!(ac.try_admit(Tier::Clinical).is_admitted());
        assert_eq!(ac.try_admit(Tier::Clinical), Admission::Rejected);
        clock.advance(SimDuration::from_millis(100)); // +1 token at 10/s
        assert!(ac.try_admit(Tier::Clinical).is_admitted());
        assert_eq!(ac.try_admit(Tier::Clinical), Admission::Rejected);
    }

    #[test]
    fn reserves_starve_low_tiers_first() {
        let clock = SimClock::new();
        let mut ac = AdmissionController::new(clock, 1.0, 10.0)
            .with_reserve(Tier::Interactive, 0.2)
            .with_reserve(Tier::Batch, 0.5);
        // Batch stops once the bucket would dip under 50% of 10 = 5.
        let mut batch_ok = 0;
        while ac.try_admit(Tier::Batch).is_admitted() {
            batch_ok += 1;
        }
        assert_eq!(batch_ok, 5, "batch admits only down to its watermark");
        // Interactive still has room down to 2 tokens.
        let mut inter_ok = 0;
        while ac.try_admit(Tier::Interactive).is_admitted() {
            inter_ok += 1;
        }
        assert_eq!(inter_ok, 3);
        // Clinical drains the rest.
        let mut clin_ok = 0;
        while ac.try_admit(Tier::Clinical).is_admitted() {
            clin_ok += 1;
        }
        assert_eq!(clin_ok, 2);
        assert_eq!(ac.rejected_count(Tier::Batch), 1);
    }

    #[test]
    fn sustained_rate_tracks_refill_rate() {
        // Offered 2× the refill rate for 10 s ⇒ admitted ≈ rate × 10 + burst.
        let clock = SimClock::new();
        let mut ac = AdmissionController::new(clock.clone(), 100.0, 20.0);
        let mut admitted = 0u64;
        for _ in 0..2000 {
            clock.advance(SimDuration::from_millis(5)); // 200 offers/s
            if ac.try_admit(Tier::Clinical).is_admitted() {
                admitted += 1;
            }
        }
        assert!(
            (1000..=1025).contains(&admitted),
            "admitted {admitted}, want ≈ rate×10s + burst"
        );
    }

    #[test]
    fn instrumented_decisions_are_mirrored() {
        let clock = SimClock::new();
        let registry = Registry::new();
        let mut ac = AdmissionController::new(clock, 1.0, 1.0);
        ac.instrument(&registry);
        assert!(ac.try_admit(Tier::Clinical).is_admitted());
        assert_eq!(ac.try_admit(Tier::Batch), Admission::Rejected);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("admission.admitted"), Some(1));
        assert_eq!(snap.counter("admission.clinical.admitted"), Some(1));
        assert_eq!(snap.counter("admission.rejected"), Some(1));
        assert_eq!(snap.counter("admission.batch.rejected"), Some(1));
        assert_eq!(snap.gauge("admission.tokens_milli"), Some(0));
    }
}
