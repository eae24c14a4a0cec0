//! Concurrent-workload drivers: seeded closed-loop load generation and a
//! deterministic virtual-time lock-contention model.
//!
//! The serving hot path (cache + ingest) is exercised by two kinds of
//! measurement, and this module hosts the reusable halves of both:
//!
//! * [`run_closed_loop`] — a *wall-clock* closed-loop driver: `T` real
//!   threads, each with its own seeded RNG stream
//!   ([`rng::seeded_stream`](crate::rng::seeded_stream)), issue
//!   operations back-to-back and sample per-operation latency. Used by
//!   the E18 bench and the concurrency soak tests. Wall numbers are
//!   hardware-bound: on a single-core CI container every configuration
//!   collapses to serial throughput, which is why the scaling *table*
//!   comes from the model below.
//! * [`simulate_locked_workload`] — a *virtual-time* model of the same
//!   workload: `T` simulated cores run op streams whose critical
//!   sections serialize on simulated locks. It is seeded, integer-only
//!   and deterministic, so the E18 scaling table reproduces bit-for-bit
//!   on any host. Calibrate its costs from a single-threaded wall-clock
//!   measurement of the real structure (see `examples/experiments.rs`,
//!   E18).
//!
//! [`ZipfStream`] supplies the per-thread key distribution both drivers
//! share: Zipf(≈1) is the canonical skewed read distribution for cache
//! workloads (hot EMR records dominate reads).
//!
//! [`pool`] hosts the shared bounded worker pool with deterministic
//! in-order merge (the E18 pattern) reused by the ingestion pipeline and
//! the ledger's parallel block validation.

pub mod mc;
pub mod pool;

use std::collections::BinaryHeap;
use std::sync::Barrier;

use rand::rngs::StdRng;
use rand::Rng;

use crate::clock::{SimDuration, SimInstant};
use crate::rng::seeded_stream;

/// RNG stream label space reserved for concurrency drivers; thread `t`
/// draws from `seeded_stream(seed, CONC_STREAM_BASE + t)`.
const CONC_STREAM_BASE: u64 = 0xC0C0_0000;

/// A seeded Zipf(≈1) key stream over `0..n`, independent per thread.
///
/// Rejection-samples `P(k) ∝ 1/k`: cheap, deterministic given the seed,
/// and heavy enough at the head to model "hot record" cache traffic.
#[derive(Debug)]
pub struct ZipfStream {
    rng: StdRng,
    n: usize,
}

impl ZipfStream {
    /// A stream over `0..n` for thread `thread` of a run seeded `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(seed: u64, thread: usize, n: usize) -> Self {
        assert!(n > 0, "key space must be non-empty");
        ZipfStream {
            rng: seeded_stream(seed, CONC_STREAM_BASE + thread as u64),
            n,
        }
    }

    /// Draws the next key.
    pub fn next_key(&mut self) -> usize {
        zipf_key(&mut self.rng, self.n)
    }
}

/// Draws a Zipf(≈1) key over `n` keys from any RNG.
///
/// Exact rejection sampler: acceptance probability is `H(n)/n`, so the
/// expected RNG draws per key grow as `n / ln n`. Fine for the few
/// thousand keys the cache experiments use; for population-scale
/// keyspaces use [`zipf_key_fast`].
pub fn zipf_key<R: Rng + ?Sized>(rng: &mut R, n: usize) -> usize {
    loop {
        let k = rng.gen_range(1..=n);
        if rng.gen_bool(1.0 / k as f64) {
            return k - 1;
        }
    }
}

/// Draws an approximately Zipf(1) key over `n` keys in O(1).
///
/// Octave sampler: a 1/k distribution puts equal mass (`ln 2`) in every
/// doubling interval `[2^o, 2^{o+1})`, so picking an octave uniformly
/// and then a key uniformly inside it yields a stepwise-1/k law using
/// only integer arithmetic — two RNG draws per key, bit-reproducible on
/// any host, and no libm (`powf`) whose last-ulp behaviour varies. The
/// partial top octave `[2^⌊log2 n⌋, n]` is unreachable (a vanishing
/// fraction of the mass); keyspaces that are powers of two waste
/// nothing.
pub fn zipf_key_fast<R: Rng + ?Sized>(rng: &mut R, n: usize) -> usize {
    let n = n.max(2);
    // ⌊log2 n⌋ full octaves over 1-based keys 1..2^octaves.
    let octaves = usize::BITS - 1 - n.leading_zeros();
    let o = rng.gen_range(0..octaves);
    let lo = 1usize << o;
    let hi = (lo << 1).min(n + 1);
    rng.gen_range(lo..hi) - 1
}

/// A deterministic population-scale load curve: a base user population
/// modulated by a diurnal wave plus scripted flash-crowd windows.
///
/// The diurnal term is a *triangle* wave rather than a sinusoid so the
/// curve is exact integer-friendly arithmetic (bit-reproducible across
/// hosts, unlike `f64::sin` which may differ in the last ulp between
/// libm implementations): concurrency peaks `amplitude` above base at
/// mid-day and dips `amplitude` below at night. Flash crowds multiply
/// the diurnal value inside `[start, end)` — the "everyone checks their
/// results the morning a study publishes" scenario E19 stresses.
///
/// # Examples
///
/// ```
/// use hc_common::clock::{SimDuration, SimInstant};
/// use hc_common::conc::LoadCurve;
///
/// let day = SimDuration::from_secs(240);
/// let curve = LoadCurve::new(1_000_000.0)
///     .with_diurnal(0.4, day)
///     .with_flash_crowd(
///         SimInstant::from_nanos(day.as_nanos() / 2),
///         SimInstant::from_nanos(day.as_nanos() / 2 + 10_000_000_000),
///         10.0,
///     );
/// assert!(curve.users_at(SimInstant::ZERO) < 1_000_000.0); // night dip
/// ```
#[derive(Clone, Debug)]
pub struct LoadCurve {
    base_users: f64,
    diurnal_amplitude: f64,
    day: SimDuration,
    flash: Vec<(SimInstant, SimInstant, f64)>,
}

impl LoadCurve {
    /// A flat curve of `base_users` simulated concurrent users.
    pub fn new(base_users: f64) -> Self {
        LoadCurve {
            base_users: base_users.max(0.0),
            diurnal_amplitude: 0.0,
            day: SimDuration::from_secs(86_400),
            flash: Vec::new(),
        }
    }

    /// Adds a diurnal triangle wave: concurrency swings ±`amplitude`
    /// (fraction of base, clamped to `[0, 1]`) over one `day`, starting
    /// at the night minimum at `t = 0` and peaking at mid-day.
    #[must_use]
    pub fn with_diurnal(mut self, amplitude: f64, day: SimDuration) -> Self {
        self.diurnal_amplitude = amplitude.clamp(0.0, 1.0);
        if day.as_nanos() > 0 {
            self.day = day;
        }
        self
    }

    /// Multiplies the curve by `multiplier` inside `[start, end)`.
    /// Overlapping windows compound.
    #[must_use]
    pub fn with_flash_crowd(
        mut self,
        start: SimInstant,
        end: SimInstant,
        multiplier: f64,
    ) -> Self {
        self.flash.push((start, end, multiplier.max(0.0)));
        self
    }

    /// Concurrent users at instant `t`.
    pub fn users_at(&self, t: SimInstant) -> f64 {
        // Triangle wave in [-1, 1]: -1 at t=0 (night), +1 at day/2 (noon).
        let day_ns = self.day.as_nanos();
        let phase = (t.as_nanos() % day_ns) as f64 / day_ns as f64;
        let tri = if phase < 0.5 {
            4.0 * phase - 1.0
        } else {
            3.0 - 4.0 * phase
        };
        let mut users = self.base_users * (1.0 + self.diurnal_amplitude * tri);
        for &(start, end, mult) in &self.flash {
            if t >= start && t < end {
                users *= mult;
            }
        }
        users
    }

    /// The base population.
    pub fn base_users(&self) -> f64 {
        self.base_users
    }

    /// Peak concurrency over the curve's first day, sampled at `samples`
    /// evenly spaced instants (includes flash windows).
    pub fn peak_users(&self, samples: usize) -> f64 {
        let samples = samples.max(2);
        let mut peak = 0.0f64;
        for i in 0..samples {
            let t = SimInstant::from_nanos(
                (self.day.as_nanos() / samples as u64).saturating_mul(i as u64),
            );
            peak = peak.max(self.users_at(t));
        }
        peak
    }
}

/// The result of one driver run (wall-clock or virtual-time).
#[derive(Clone, Copy, Debug)]
pub struct ConcReport {
    /// Threads (real or simulated cores) that ran.
    pub threads: usize,
    /// Operations completed across all threads.
    pub total_ops: u64,
    /// Makespan in nanoseconds (wall or virtual).
    pub elapsed_ns: u64,
    /// Median per-operation latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile per-operation latency in nanoseconds.
    pub p99_ns: u64,
}

impl ConcReport {
    /// Throughput in million operations per second.
    pub fn mops(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.total_ops as f64 * 1e3 / self.elapsed_ns as f64
        }
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of a sorted latency sample, by the
/// nearest-rank method; `0` for an empty sample.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] // hc-lint: allow(panic-index) — rank clamped to 1..=len
}

/// Runs a closed-loop wall-clock workload: `threads` real threads each
/// perform `ops_per_thread` calls of `op(thread, op_index, rng)`
/// back-to-back, started together on a barrier.
///
/// Latency is sampled per operation with the monotonic wall clock;
/// throughput and percentiles are therefore host-dependent (the
/// deterministic counterpart is [`simulate_locked_workload`]).
pub fn run_closed_loop<F>(threads: usize, ops_per_thread: u64, seed: u64, op: F) -> ConcReport
where
    F: Fn(usize, u64, &mut StdRng) + Sync,
{
    let threads = threads.max(1);
    let barrier = Barrier::new(threads + 1);
    // Wall-clock is the measurement target here, not simulation state:
    // this driver exists to time real thread interleavings.
    // hc-lint: allow(det-wallclock)
    let mut start = std::time::Instant::now();
    let mut samples: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = &barrier;
                let op = &op;
                scope.spawn(move || {
                    let mut rng = seeded_stream(seed, CONC_STREAM_BASE + t as u64);
                    let mut lat = Vec::with_capacity(ops_per_thread as usize);
                    barrier.wait();
                    for i in 0..ops_per_thread {
                        // hc-lint: allow(det-wallclock) — latency sampling
                        let t0 = std::time::Instant::now();
                        op(t, i, &mut rng);
                        lat.push(t0.elapsed().as_nanos() as u64);
                    }
                    lat
                })
            })
            .collect();
        barrier.wait();
        // hc-lint: allow(det-wallclock) — makespan stopwatch
        start = std::time::Instant::now();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    samples.sort_unstable();
    ConcReport {
        threads,
        total_ops: samples.len() as u64,
        elapsed_ns,
        p50_ns: percentile(&samples, 0.50),
        p99_ns: percentile(&samples, 0.99),
    }
}

/// One operation of a virtual-time plan: do `work_ns` of lock-free work,
/// then hold lock `lock` for `hold_ns`.
#[derive(Clone, Copy, Debug)]
pub struct SimOp {
    /// Index of the lock the critical section serializes on.
    pub lock: usize,
    /// Lock-free work preceding the critical section, in ns.
    pub work_ns: u64,
    /// Critical-section length, in ns.
    pub hold_ns: u64,
}

/// Deterministically simulates `threads` cores running `ops_per_thread`
/// operations each, where every operation's critical section serializes
/// on one of `locks` virtual locks.
///
/// The model is greedy earliest-thread-first: the thread with the
/// smallest local virtual time executes its next operation; acquiring a
/// lock waits until the lock's last holder released it. Per-op latency
/// is `work + wait + hold`. Everything is integer nanoseconds and the
/// only randomness is the caller's seeded `plan`, so results are
/// bit-reproducible across hosts — this is what makes the E18 scaling
/// table a *recorded* artefact rather than a hardware anecdote.
///
/// # Panics
///
/// Panics if `locks` is zero or a planned op names a lock out of range.
pub fn simulate_locked_workload<F>(
    locks: usize,
    threads: usize,
    ops_per_thread: u64,
    seed: u64,
    mut plan: F,
) -> ConcReport
where
    F: FnMut(usize, u64, &mut StdRng) -> SimOp,
{
    assert!(locks > 0, "need at least one lock");
    let threads = threads.max(1);
    let mut free_at = vec![0u64; locks];
    let mut rngs: Vec<StdRng> = (0..threads)
        .map(|t| seeded_stream(seed, CONC_STREAM_BASE + t as u64))
        .collect();
    let mut done = vec![0u64; threads];
    let mut latencies = Vec::with_capacity((threads as u64 * ops_per_thread) as usize);
    // Min-heap of (ready time, thread id): BinaryHeap is a max-heap, so
    // store negated ordering via Reverse.
    let mut ready: BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
        (0..threads).map(|t| std::cmp::Reverse((0, t))).collect();
    let mut makespan = 0u64;
    while let Some(std::cmp::Reverse((now, t))) = ready.pop() {
        // t < threads and op.lock < locks (asserted above); done,
        // rngs and free_at are built with those exact lengths.
        if done[t] >= ops_per_thread { // hc-lint: allow(panic-index)
            continue;
        }
        let op = plan(t, done[t], &mut rngs[t]); // hc-lint: allow(panic-index)
        assert!(op.lock < locks, "op routed to unknown lock {}", op.lock);
        let after_work = now + op.work_ns;
        let acquired = after_work.max(free_at[op.lock]); // hc-lint: allow(panic-index)
        let released = acquired + op.hold_ns;
        free_at[op.lock] = released; // hc-lint: allow(panic-index)
        latencies.push(released - now);
        done[t] += 1; // hc-lint: allow(panic-index)
        makespan = makespan.max(released);
        if done[t] < ops_per_thread { // hc-lint: allow(panic-index)
            ready.push(std::cmp::Reverse((released, t)));
        }
    }
    latencies.sort_unstable();
    ConcReport {
        threads,
        total_ops: latencies.len() as u64,
        elapsed_ns: makespan,
        p50_ns: percentile(&latencies, 0.50),
        p99_ns: percentile(&latencies, 0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_curve_diurnal_and_flash() {
        let day = SimDuration::from_secs(100);
        let curve = LoadCurve::new(1000.0)
            .with_diurnal(0.4, day)
            .with_flash_crowd(
                SimInstant::from_nanos(SimDuration::from_secs(50).as_nanos()),
                SimInstant::from_nanos(SimDuration::from_secs(60).as_nanos()),
                10.0,
            );
        // Night minimum at t=0: base × (1 − 0.4).
        assert!((curve.users_at(SimInstant::ZERO) - 600.0).abs() < 1e-9);
        // Noon (t = day/2) inside the flash window: base × 1.4 × 10.
        let noon = SimInstant::from_nanos(SimDuration::from_secs(50).as_nanos());
        assert!((curve.users_at(noon) - 14_000.0).abs() < 1e-9);
        // Just after the window closes: back to the diurnal value.
        let after = SimInstant::from_nanos(SimDuration::from_secs(60).as_nanos());
        assert!(curve.users_at(after) < 1400.0 + 1e-9);
        // The curve is periodic.
        let next_day = SimInstant::from_nanos(day.as_nanos());
        assert!((curve.users_at(next_day) - 600.0).abs() < 1e-9);
        assert!(curve.peak_users(1000) >= 13_900.0);
    }

    #[test]
    fn zipf_key_fast_is_skewed_and_deterministic() {
        const N: usize = 65_536; // 16 octaves
        let mut rng = crate::rng::seeded(7);
        let mut below_4096 = 0u32;
        const DRAWS: u32 = 20_000;
        for _ in 0..DRAWS {
            let k = zipf_key_fast(&mut rng, N);
            assert!(k < N);
            if k < 4_096 {
                below_4096 += 1;
            }
        }
        // Octaves 0..12 of 16 land below 4096 ⇒ expect ~75% of draws.
        let frac = f64::from(below_4096) / f64::from(DRAWS);
        assert!((0.72..=0.78).contains(&frac), "hot fraction {frac}");
        // Bit-reproducible for a fixed seed.
        let a: Vec<usize> = {
            let mut r = crate::rng::seeded(42);
            (0..64).map(|_| zipf_key_fast(&mut r, N)).collect()
        };
        let b: Vec<usize> = {
            let mut r = crate::rng::seeded(42);
            (0..64).map(|_| zipf_key_fast(&mut r, N)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn zipf_stream_is_deterministic_per_thread() {
        let draw = |thread| {
            let mut s = ZipfStream::new(7, thread, 100);
            (0..32).map(|_| s.next_key()).collect::<Vec<_>>()
        };
        assert_eq!(draw(0), draw(0));
        assert_ne!(draw(0), draw(1), "threads get independent streams");
    }

    #[test]
    fn zipf_prefers_small_keys() {
        let mut s = ZipfStream::new(1, 0, 100);
        let draws: Vec<usize> = (0..2000).map(|_| s.next_key()).collect();
        let small = draws.iter().filter(|&&k| k < 10).count();
        assert!(small > draws.len() / 3);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 0.50), 50);
        assert_eq!(percentile(&xs, 0.99), 99);
        assert_eq!(percentile(&xs, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn closed_loop_runs_every_op() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let count = AtomicU64::new(0);
        let report = run_closed_loop(4, 100, 3, |_, _, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(report.total_ops, 400);
        assert_eq!(count.load(Ordering::Relaxed), 400);
        assert!(report.mops() > 0.0);
    }

    #[test]
    fn single_lock_serializes_virtual_time() {
        // 4 threads × 10 ops, all on one lock, hold 100ns, no work:
        // makespan must be exactly 40 × 100ns — total serialization.
        let r = simulate_locked_workload(1, 4, 10, 1, |_, _, _| SimOp {
            lock: 0,
            work_ns: 0,
            hold_ns: 100,
        });
        assert_eq!(r.elapsed_ns, 4000);
        assert_eq!(r.total_ops, 40);
    }

    #[test]
    fn disjoint_locks_scale_linearly() {
        // Each thread on its own lock: makespan equals one thread's work.
        let r = simulate_locked_workload(4, 4, 10, 1, |t, _, _| SimOp {
            lock: t,
            work_ns: 0,
            hold_ns: 100,
        });
        assert_eq!(r.elapsed_ns, 1000);
        // 4× the single-lock throughput at the same op count per thread.
        assert!((r.mops() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn virtual_sim_is_deterministic() {
        let run = || {
            simulate_locked_workload(8, 8, 500, 42, |_, _, rng| SimOp {
                lock: zipf_key(rng, 8),
                work_ns: 40,
                hold_ns: 120,
            })
        };
        let (a, b) = (run(), run());
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
        assert_eq!(a.p99_ns, b.p99_ns);
        assert_eq!(a.p50_ns, b.p50_ns);
    }
}
