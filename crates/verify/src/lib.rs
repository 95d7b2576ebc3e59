//! # ehs-verify — correctness tooling for the EHS simulator
//!
//! Every number the experiment harness reproduces rests on one
//! assumption: the cycle-level [`Machine`](ehs_sim::Machine) computes the
//! same architectural result as the functional
//! [`Interpreter`](ehs_isa::Interpreter), for every workload, under
//! every outage pattern. This crate turns that assumption into a checked
//! property, in three layers:
//!
//! 1. **Differential oracle** ([`oracle`]) — runs a workload on the
//!    golden interpreter and on the machine, then compares the *full*
//!    final architectural state: all 16 registers plus an FNV-1a digest
//!    of the entire memory image (not just the `a0` checksum). The
//!    [`oracle::run_matrix`] driver sweeps the whole 20-workload ×
//!    7-configuration × 4-trace-kind grid in parallel.
//! 2. **Adversarial outage fuzzer** ([`fuzz`]) — synthesizes
//!    pathological power traces from a seeded PRNG (single-sample
//!    brownouts, supplies hovering exactly at the IPEX thresholds,
//!    outage storms, random walks), cross-checks every run against the
//!    oracle and the invariant sink, and hands any failing trace to the
//!    **shrinker** ([`shrink`]), which minimizes it to the shortest
//!    sample vector that still reproduces the failure. Every candidate
//!    is a full run from cycle 0 with invariant checking on.
//! 3. **Invariant checkers** ([`invariants`]) — a
//!    [`TraceSink`](ehs_sim::TraceSink) that audits the event stream
//!    while a run is in flight: per-power-cycle energy conservation,
//!    issued-prefetch degree never exceeding the throttled `Rcpd` cap,
//!    every `PrefetchIssued` resolving to exactly one of
//!    hit/evicted/lost/still-resident, and backup/restore pairing.
//!
//! Failures found by the fuzzer are committed as JSON cases under
//! `tests/corpus/` ([`corpus`]) and replayed by a tier-1 test, so every
//! past counterexample stays fixed forever. A second corpus
//! ([`snapcorpus`]) pins complete golden machine snapshots under
//! `tests/corpus/snapshots/`, turning any unintended change to timing,
//! energy or controller state into a field-level diff. The `verify` binary in
//! `ehs-bench` exposes all of this on the command line
//! (`verify matrix | fuzz | shrink | slices`).
//!
//! A fourth layer, the **pause/resume oracle** ([`slices`]), guards
//! the simulator's JIT-checkpoint mirror, `Machine::snapshot` and
//! `Machine::resume`: for every (workload, configuration) cell it
//! proves that a machine paused at fixed cycles and a machine rebuilt
//! from a JSON snapshot at each of those pauses stay digest-equal, and
//! that both land on the uninterrupted run's exact result and state
//! digest.

pub mod corpus;
pub mod fuzz;
pub mod invariants;
pub mod oracle;
pub mod shrink;
pub mod slices;
pub mod snapcorpus;

pub use corpus::CorpusCase;
pub use fuzz::{FuzzFailure, FuzzOptions, FuzzReport};
pub use invariants::InvariantSink;
pub use oracle::{ArchState, CheckOutcome, ConfigId, Divergence, MatrixReport};
pub use shrink::shrink_trace;
pub use slices::{run_slice_matrix, SliceCell, SliceReport};

/// Parses a seed that may be decimal, `0x`-prefixed hex, or an arbitrary
/// tag (e.g. `0xEHS`, which is *not* valid hex): anything unparsable is
/// hashed (FNV-1a) to a deterministic `u64` so every string names a
/// reproducible stream.
pub fn parse_seed(s: &str) -> u64 {
    if let Ok(v) = s.parse::<u64>() {
        return v;
    }
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        if let Ok(v) = u64::from_str_radix(hex, 16) {
            return v;
        }
    }
    ehs_isa::mem_digest_of(s.as_bytes())
}

/// Runs `f` over `items` on a bounded worker pool (at most
/// [`std::thread::available_parallelism`] threads), returning results in
/// item order. The same queue-pull pattern as `ehs-bench`'s suite
/// runner, generalized over the task type.
pub fn run_parallel<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    if items.is_empty() {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(items.len())
        .max(1);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, slots, f) = (&next, &slots, &f);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else {
                        break;
                    };
                    *slots[i].lock().expect("slot poisoned") = Some(f(item));
                })
            })
            .collect();
        for h in handles {
            h.join().expect("verify worker panicked");
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_parsing_accepts_decimal_hex_and_tags() {
        assert_eq!(parse_seed("42"), 42);
        assert_eq!(parse_seed("0xff"), 255);
        assert_eq!(parse_seed("0XFF"), 255);
        // Not valid hex: falls back to a deterministic string hash.
        let tag = parse_seed("0xEHS");
        assert_eq!(tag, parse_seed("0xEHS"));
        assert_ne!(tag, parse_seed("0xEHT"));
    }

    #[test]
    fn run_parallel_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = run_parallel(&items, |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }
}
