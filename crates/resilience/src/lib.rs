//! # sage-resilience
//!
//! Fault injection and graceful degradation for the SAGE serving path.
//!
//! The paper's evaluation studies behaviour under *degraded retrieval*
//! (Figure 8 noisy retrieval, Figure 9 missing retrieval); this crate makes
//! component failure a first-class, deterministic, testable input to the
//! pipeline instead of an accident:
//!
//! * [`FaultPlan`] — seeded, content-keyed fault injection at the
//!   component boundaries ([`Component`]: embedder, vector-index search,
//!   reranker, simulated-LLM reader). A decision is a pure function of
//!   `(seed, component, call key, attempt)`, so the same plan over the
//!   same corpus and question reproduces the same faults bit-for-bit,
//!   regardless of thread interleaving.
//! * [`CrashPlan`] — seeded crash injection at durable-write barriers
//!   ([`CrashPoint`]: pre-tmp through pre-manifest-commit), powering the
//!   live corpus store's recovery drills in `sage-core`.
//! * [`Guards`] — one query's boundary wrapper: roll the fault plan,
//!   run/corrupt/validate the call, retry up to three attempts with
//!   exponential backoff and deterministic jitter, and report a
//!   structured [`SageError`] when exhausted. Backoff and timeout
//!   penalties are *virtual*: they are summed into the failure's delay
//!   instead of slept. A component with five consecutive failures in the
//!   query fails fast; a success resets its count.
//! * [`DegradeTrace`] / [`Fallback`] — per-query record of which
//!   fallbacks fired, surfaced in `QueryResult` and aggregated by
//!   [`FallbackCounters`] for CLI reporting.
//!
//! The degradation chain itself (dense→BM25, rerank→retrieval-order,
//! reader→second-best chunks) lives in `sage-core`, which owns the
//! components; this crate is the dependency-free substrate they all share.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types, reason = "tests may time and hash freely"))]

mod breaker;
pub mod crash;
pub mod error;
pub mod fault;
pub mod guard;
mod retry;
pub mod rng;
pub mod trace;

pub use crash::{CrashPlan, CrashPoint};
pub use error::SageError;
pub use fault::{Component, FaultKind, FaultPlan, Rates};
pub use guard::{Failure, Guards};
pub use rng::DetRng;
pub use trace::{DegradeEvent, DegradeTrace, Fallback, FallbackCounters};

/// FNV-1a over `bytes`, folded with `seed` — the deterministic hash behind
/// fault decisions and retry jitter (same construction the simulated LLM
/// uses for per-call RNGs).
pub(crate) fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
