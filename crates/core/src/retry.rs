//! Bounded, jittered exponential backoff — the one audited retry
//! schedule shared by everything in the workspace that talks over a
//! socket: the `desq-serve` client retries transient failures with it,
//! and the networked BSP shuffle transport uses it for worker
//! (re)connection attempts.
//!
//! The policy is *pure schedule*: it decides how long attempt `n` sleeps,
//! not what counts as transient — each caller keeps its own transience
//! predicate next to its own error type.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Duration;

/// Backoff of the first retry.
pub const BASE_DELAY: Duration = Duration::from_millis(10);

/// Upper bound on any single backoff (pre-jitter).
pub const MAX_DELAY: Duration = Duration::from_millis(500);

/// Bounded, jittered exponential backoff.
///
/// Attempt `n` (0-based) sleeps [`BASE_DELAY`]` · 2ⁿ` capped at
/// [`MAX_DELAY`], plus a jitter of up to half that delay. The jitter is
/// keyed by the retrying peer — its process and thread — so peers that
/// fail together spread out instead of retrying in lockstep, while one
/// peer's schedule stays reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (total attempts = `max_retries+1`).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_retries: 5 }
    }
}

impl RetryPolicy {
    /// The sleep before retry `attempt` (0-based) of the calling thread:
    /// exponential backoff with a per-peer jitter in `[0, delay/2)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = BASE_DELAY
            .saturating_mul(2u32.saturating_pow(attempt))
            .min(MAX_DELAY);
        let mut peer = DefaultHasher::new();
        (std::process::id(), std::thread::current().id(), attempt).hash(&mut peer);
        let jitter = peer.finish() % (exp.as_nanos() as u64 / 2);
        exp + Duration::from_nanos(jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_is_capped_and_jitter_is_bounded() {
        let policy = RetryPolicy { max_retries: 8 };
        let mut prev_base = Duration::ZERO;
        for attempt in 0..8 {
            let base = BASE_DELAY
                .saturating_mul(2u32.saturating_pow(attempt))
                .min(MAX_DELAY);
            let d = policy.backoff(attempt);
            assert!(d >= base, "attempt {attempt}: {d:?} < base {base:?}");
            assert!(
                d < base + base / 2,
                "attempt {attempt}: jitter exceeds half the delay: {d:?}"
            );
            assert!(base >= prev_base, "backoff must not shrink");
            prev_base = base;
        }
        assert_eq!(
            policy.backoff(31),
            policy.backoff(31),
            "one peer reproduces"
        );
        assert!(policy.backoff(31) >= MAX_DELAY);
    }

    #[test]
    fn two_peers_do_not_back_off_in_lockstep() {
        let schedule = || {
            (0..6)
                .map(|a| RetryPolicy::default().backoff(a))
                .collect::<Vec<_>>()
        };
        let other = std::thread::spawn(schedule).join().unwrap();
        assert_ne!(schedule(), other);
    }
}
