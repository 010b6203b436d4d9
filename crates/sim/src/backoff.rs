//! Shared retry-backoff policy.
//!
//! One overflow-safe implementation behind both the contention backoff of
//! the protocol engines (`hades-core`) and the recovery backoff of the
//! fault injector (`hades-fault`). Both callers used to carry their own
//! arithmetic with their own bugs: the linear variant could jitter past
//! its cap, and the exponential variant silently truncated large bases
//! through `checked_shl` (which only guards the *shift amount*, not value
//! overflow). This module saturates correctly in both growth modes and
//! clamps jitter to the cap.

use crate::rng::SimRng;
use crate::time::Cycles;

/// How the backoff grows with the attempt number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Growth {
    /// `base * attempt` (contention backoff: squash storms are transient).
    Linear,
    /// `base << attempt` (recovery backoff: losses may be systemic).
    Exponential,
}

/// A saturating backoff policy: `step(n)` never exceeds `cap`, never
/// wraps, and is monotonically non-decreasing in `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First-step backoff (also the jitter range).
    pub base: Cycles,
    /// Upper bound on every returned value, jitter included.
    pub cap: Cycles,
    /// Growth mode.
    pub growth: Growth,
}

impl BackoffPolicy {
    /// Linear policy (`base * attempt`, capped).
    pub fn linear(base: Cycles, cap: Cycles) -> Self {
        BackoffPolicy {
            base,
            cap,
            growth: Growth::Linear,
        }
    }

    /// Exponential policy (`base << attempt`, capped).
    pub const fn exponential(base: Cycles, cap: Cycles) -> Self {
        BackoffPolicy {
            base,
            cap,
            growth: Growth::Exponential,
        }
    }

    /// The deterministic backoff before retry `attempt` (0-based for
    /// exponential growth, 1-based for linear growth — matching the two
    /// historical call sites). Saturates at `cap` without wrapping for
    /// any `base`/`attempt` combination.
    pub fn step(&self, attempt: u32) -> Cycles {
        let base = self.base.get().max(1);
        let grown = match self.growth {
            Growth::Linear => base.saturating_mul(attempt.max(1) as u64),
            Growth::Exponential => {
                // `checked_shl` only rejects shifts >= 64; a shift that
                // drops set bits is value overflow and must saturate.
                if attempt >= base.leading_zeros() {
                    u64::MAX
                } else {
                    base << attempt
                }
            }
        };
        Cycles::new(grown.min(self.cap.get()))
    }

    /// [`BackoffPolicy::step`] plus seeded jitter in `[0, base)`, with the
    /// sum clamped to `cap`. Always consumes exactly one RNG draw, so
    /// callers' random streams do not depend on the attempt number.
    pub fn step_jittered(&self, attempt: u32, rng: &mut SimRng) -> Cycles {
        let jitter = rng.below(self.base.get().max(1));
        let jittered = self.step(attempt).get().saturating_add(jitter);
        Cycles::new(jittered.min(self.cap.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_grows_and_caps() {
        let p = BackoffPolicy::linear(Cycles::new(500), Cycles::new(16_000));
        assert_eq!(p.step(0), Cycles::new(500)); // attempt 0 acts as 1
        assert_eq!(p.step(1), Cycles::new(500));
        assert_eq!(p.step(4), Cycles::new(2_000));
        assert_eq!(p.step(1_000), Cycles::new(16_000));
    }

    #[test]
    fn exponential_grows_and_caps() {
        let p = BackoffPolicy::exponential(Cycles::new(500), Cycles::new(16_000));
        assert_eq!(p.step(0), Cycles::new(500));
        assert_eq!(p.step(1), Cycles::new(1_000));
        assert_eq!(p.step(3), Cycles::new(4_000));
        assert_eq!(p.step(10), Cycles::new(16_000));
        assert_eq!(p.step(100), Cycles::new(16_000));
    }

    #[test]
    fn exponential_large_base_saturates_instead_of_truncating() {
        // The historical bug: (1<<40).checked_shl(32) wraps high bits away
        // and yields a value *smaller* than earlier attempts.
        let p = BackoffPolicy::exponential(Cycles::new(1 << 40), Cycles::new(u64::MAX));
        let mut last = Cycles::ZERO;
        for attempt in 0..80 {
            let b = p.step(attempt);
            assert!(b >= last, "attempt {attempt}: {b:?} < {last:?}");
            last = b;
        }
        assert_eq!(p.step(79), Cycles::new(u64::MAX));
    }

    #[test]
    fn jitter_never_exceeds_cap() {
        let p = BackoffPolicy::linear(Cycles::new(500), Cycles::new(16_000));
        let mut rng = SimRng::seed_from(9);
        for attempt in 0..200 {
            let b = p.step_jittered(attempt, &mut rng);
            assert!(b <= Cycles::new(16_000), "attempt {attempt}: {b:?}");
            assert!(b >= p.step(attempt), "jitter may not shrink the step");
        }
    }

    #[test]
    fn jitter_consumes_one_draw_regardless_of_attempt() {
        let p = BackoffPolicy::linear(Cycles::new(500), Cycles::new(16_000));
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        p.step_jittered(1, &mut a);
        p.step_jittered(100, &mut b);
        assert_eq!(a.below(1 << 32), b.below(1 << 32));
    }
}
