//! Bounded jittered exponential backoff for contended retry loops.
//!
//! Every bounded-retry path in the table used to respond to a lost CAS the
//! same way: re-read immediately (a hot spin), or burn a fixed number of
//! `yield_now` calls. Under a CAS storm — many warps hammering one hot
//! bucket, or ingress clients resubmitting into a full queue — synchronized
//! hot retries make the contention *worse*: every competitor re-collides on
//! the same cache line in the same instant. The classic fix (e.g. Ethernet,
//! `crossbeam::Backoff`) is exponential backoff with *full jitter*: each
//! retry waits a uniformly random duration in `[1, base · 2^attempt]`, so
//! competitors decorrelate instead of marching in lockstep.
//!
//! [`Backoff`] packages that policy with no external dependencies: the
//! jitter stream is a private SplitMix64 (deterministic per seed, so seeded
//! chaos replays stay reproducible), short waits are `spin_loop` hints, and
//! long waits escalate to `yield_now` so a descheduled competitor can make
//! the progress the retry depends on. The helper is deliberately cheap to
//! construct — a `u32` and a `u64` — so per-warp and per-batch users
//! can keep one inline without allocation.

use std::time::Duration;

/// Spin-hint ceiling at attempt 0; doubles per attempt (full jitter picks
/// uniformly in `[1, ceiling]`).
const BASE_SPINS: u32 = 4;
/// Upper bound on the per-wait spin ceiling, however many attempts have
/// accumulated.
const MAX_SPINS: u32 = 256;
/// Attempt number at which each wait additionally yields the thread
/// (spinning past a descheduled competitor is wasted work).
const YIELD_THRESHOLD: u32 = 4;

/// A jittered exponential backoff state machine.
///
/// One instance per logical retry loop: call [`wait`](Self::wait) after each
/// failed attempt (or [`wait_attempt`](Self::wait_attempt) when the caller
/// already tracks the attempt count), and [`reset`](Self::reset) after a
/// success so the next contention episode starts from the short waits again.
#[derive(Debug, Clone)]
pub struct Backoff {
    attempt: u32,
    /// SplitMix64 state for the jitter stream.
    rng: u64,
}

impl Backoff {
    /// A backoff jitter-seeded by `seed`.
    ///
    /// Distinct competitors should use distinct seeds (warp id, client id,
    /// batch sequence number) so their jitter streams decorrelate.
    pub fn new(seed: u64) -> Self {
        Self {
            attempt: 0,
            // Avoid the all-zeros SplitMix64 fixed point for seed 0.
            rng: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Failed attempts waited out since construction or the last reset.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Forgets accumulated attempts: the next wait is short again.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Waits out one failed attempt and advances the curve.
    pub fn wait(&mut self) {
        let attempt = self.attempt;
        self.attempt = self.attempt.saturating_add(1);
        self.wait_attempt(attempt);
    }

    /// Waits as if `attempt` prior attempts had failed, without touching the
    /// internal attempt counter (for callers that already count retries,
    /// e.g. the per-request retry arrays in the op kernels).
    pub fn wait_attempt(&mut self, attempt: u32) {
        // Full jitter: uniform in [1, min(base · 2^attempt, max)].
        let exp = attempt.min(16);
        let ceiling = BASE_SPINS
            .saturating_mul(1u32.wrapping_shl(exp))
            .clamp(1, MAX_SPINS);
        let spins = 1 + (self.next_u64() % u64::from(ceiling)) as u32;
        for _ in 0..spins {
            std::hint::spin_loop();
        }
        if attempt >= YIELD_THRESHOLD {
            std::thread::yield_now();
        }
    }

    /// The full-jittered sleep duration for the next failed attempt, and
    /// advances the curve: uniform in `[1ns, min(base · 2^attempt, cap)]`.
    ///
    /// This is the wall-clock sibling of [`wait`](Self::wait) for retry
    /// loops whose unit of waiting is a real sleep rather than a spin —
    /// reconnecting network clients, poll loops on external state. The
    /// caller sleeps (or bounds the sleep by its own deadline); the backoff
    /// only picks the duration, so seeded schedules stay replayable.
    pub fn delay(&mut self, base: Duration, cap: Duration) -> Duration {
        let attempt = self.attempt;
        self.attempt = self.attempt.saturating_add(1);
        self.delay_attempt(attempt, base, cap)
    }

    /// The jittered delay as if `attempt` prior attempts had failed, without
    /// touching the internal counter. The exponential ceiling is computed in
    /// 128-bit nanoseconds, so repeated doubling saturates at `cap` instead
    /// of wrapping, no matter how large `attempt` grows.
    pub fn delay_attempt(&mut self, attempt: u32, base: Duration, cap: Duration) -> Duration {
        let cap_ns = cap.as_nanos().max(1);
        // base · 2^attempt in u128 ns; the shift alone cannot overflow u128
        // for attempt < 64, and anything ≥ 64 doublings is past any real cap.
        let ceiling_ns = if attempt >= 64 {
            cap_ns
        } else {
            ((base.as_nanos().max(1)) << attempt).min(cap_ns)
        };
        // Full jitter: uniform in [1, ceiling].
        let jittered = 1 + self.next_u64() as u128 % ceiling_ns;
        Duration::from_nanos(jittered.min(u128::from(u64::MAX)) as u64)
    }

    /// The private SplitMix64 jitter stream.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_counter_advances_and_resets() {
        let mut b = Backoff::new(7);
        assert_eq!(b.attempt(), 0);
        b.wait();
        b.wait();
        assert_eq!(b.attempt(), 2);
        b.reset();
        assert_eq!(b.attempt(), 0);
    }

    #[test]
    fn wait_attempt_does_not_advance_counter() {
        let mut b = Backoff::new(7);
        b.wait_attempt(9);
        assert_eq!(b.attempt(), 0);
    }

    #[test]
    fn jitter_streams_differ_by_seed_and_are_deterministic() {
        let mut a1 = Backoff::new(1);
        let mut a2 = Backoff::new(1);
        let mut b = Backoff::new(2);
        let s1: Vec<u64> = (0..8).map(|_| a1.next_u64()).collect();
        let s2: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        let s3: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(s1, s2, "same seed must replay the same stream");
        assert_ne!(s1, s3, "distinct seeds must decorrelate");
    }

    #[test]
    fn curve_is_bounded_even_at_huge_attempts() {
        // `wait_attempt` must terminate quickly no matter the attempt count:
        // the ceiling saturates at MAX_SPINS, the shift exponent is clamped.
        let mut b = Backoff::new(3);
        for attempt in [0, 1, 16, 1000, u32::MAX] {
            b.wait_attempt(attempt);
        }
    }

    #[test]
    fn delay_saturates_at_cap_instead_of_wrapping() {
        // Repeated doubling must clamp to the cap: a u64::MAX attempt count
        // would overflow any fixed-width shift, and a wrapped ceiling would
        // hand a reconnect loop a near-zero delay at the worst moment.
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(500);
        let mut b = Backoff::new(42);
        for attempt in [0, 5, 63, 64, 1000, u32::MAX] {
            let d = b.delay_attempt(attempt, base, cap);
            assert!(d >= Duration::from_nanos(1), "delay must be nonzero");
            assert!(
                d <= cap,
                "attempt {attempt}: delay {d:?} exceeds cap {cap:?}"
            );
        }
        // At high attempt counts the ceiling is exactly the cap, so over
        // many samples the delays must be able to approach it (full jitter
        // over [1, cap], not a wrapped tiny window).
        let max_seen = (0..64)
            .map(|_| b.delay_attempt(1000, base, cap))
            .max()
            .unwrap();
        assert!(
            max_seen > cap / 2,
            "jitter window collapsed: max over 64 samples was {max_seen:?}"
        );
    }

    #[test]
    fn delay_schedule_is_replayable_per_seed() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_secs(1);
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::new(seed);
            (0..12).map(|_| b.delay(base, cap)).collect()
        };
        assert_eq!(
            schedule(7),
            schedule(7),
            "same seed must replay the same reconnect schedule"
        );
        assert_ne!(
            schedule(7),
            schedule(8),
            "distinct seeds must decorrelate reconnect schedules"
        );
    }

    #[test]
    fn delay_respects_exponential_ceiling_at_low_attempts() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_secs(10);
        let mut b = Backoff::new(9);
        for _ in 0..256 {
            // attempt 0 → ceiling = base.
            let d = b.delay_attempt(0, base, cap);
            assert!(d <= base);
            // attempt 3 → ceiling = 8 · base.
            let d = b.delay_attempt(3, base, cap);
            assert!(d <= base * 8);
        }
    }

    #[test]
    fn delay_zero_durations_never_panic() {
        let mut b = Backoff::new(0);
        let d = b.delay(Duration::ZERO, Duration::ZERO);
        assert!(d >= Duration::from_nanos(1));
    }
}
