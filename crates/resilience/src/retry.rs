//! The retry values every guarded call shares, and its virtual backoff:
//! summed into the failure's delay, never slept, jittered from the fault
//! plan's per-call RNG.

use crate::rng::DetRng;
use std::time::Duration;

/// Attempts per guarded call: the first try plus two retries.
pub(crate) const MAX_ATTEMPTS: u32 = 3;
/// Backoff charged after the first failed attempt, and twice this after
/// the second; a third failure ends the call with no backoff.
const BASE_DELAY: Duration = Duration::from_millis(50);
/// Each backoff is scaled by a deterministic factor drawn from
/// `[1 - JITTER, 1 + JITTER)`, so no backoff exceeds 120 ms.
const JITTER: f64 = 0.2;
/// Virtual deadline charged when a timeout fault fires.
pub(crate) const TIMEOUT: Duration = Duration::from_millis(500);

/// The backoff to charge after failed attempt `attempt` (0-based):
/// `BASE_DELAY * 2^attempt`, scaled by deterministic jitter from `rng`.
pub(crate) fn backoff(attempt: u32, rng: &mut DetRng) -> Duration {
    let exp = BASE_DELAY.as_secs_f64() * 2f64.powi(attempt as i32);
    Duration::from_secs_f64(exp * rng.range_f64(1.0 - JITTER, 1.0 + JITTER))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let base = BASE_DELAY.as_secs_f64();
        for seed in 0..64 {
            let d = backoff(0, &mut DetRng::seed_from_u64(seed));
            assert_eq!(d, backoff(0, &mut DetRng::seed_from_u64(seed)), "same seed, same jitter");
            assert!(d.as_secs_f64() >= base * (1.0 - JITTER) - 1e-9, "{d:?}");
            assert!(d.as_secs_f64() <= base * (1.0 + JITTER) + 1e-9, "{d:?}");
        }
    }
}
