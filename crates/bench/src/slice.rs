//! Parallel sliced execution of sweep points, with a persistent cut
//! cache.
//!
//! [`ehs_sim::slice`] provides the mechanism (forward pass, slice
//! replay, digest-chain stitching); this module provides the policy the
//! harness needs:
//!
//! * **Cold** (no cached plan): run the forward pass to build the plan,
//!   persist it next to the point's result cache entry
//!   (`<key>.cuts<K>.json`), then fan the slices out across a bounded
//!   worker pool and *assert* the stitched result and state digest
//!   equal the forward pass's. A cold sliced run therefore simulates
//!   everything twice — it cannot be faster than a monolithic run, and
//!   is instead a continuously self-verifying one: any nondeterminism
//!   in the simulator breaks the digest chain and panics, loudly.
//! * **Warm** (plan cached): skip the forward pass entirely; the K
//!   slices are K independent jobs of ~1/K the cycles each, so
//!   re-running a long point costs ~1/K wall-clock on K cores. The
//!   stitched digest chain still proves the result is exactly what the
//!   forward pass would have produced.
//!
//! A stale or corrupt cached plan (changed config semantics, truncated
//! file, old snapshot version) is detected — by the plan validator, by
//! [`Machine::resume`]'s identity digests, or by the stitching check —
//! and silently discarded in favour of a cold run, mirroring how the
//! crash-checkpoint loader treats stale snapshots.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use ehs_energy::PowerTrace;
use ehs_isa::Program;
use ehs_sim::canon;
use ehs_sim::prelude::*;
use ehs_sim::slice::{self, SliceError, SliceOutcome, SlicePlan, Stitched};
use ehs_workloads::Workload;

use crate::sweep::PointKey;

/// Initial snapshot spacing for the adaptive forward pass. Small enough
/// that even the shortest suite workloads split into several slices;
/// the thinning reservoir doubles it as longer runs accumulate cuts.
pub const CUT_GRAIN_CYCLES: u64 = 50_000;

/// The cut-cache file for a point sliced K ways (kept apart from the
/// result cache's `<key>.json` and the crash checkpoints'
/// `<key>.ckpt.json`; K is part of the name because plans with
/// different slice budgets are different artefacts).
pub fn cuts_path(dir: &Path, key: PointKey, slices: usize) -> PathBuf {
    dir.join(format!("{key}.cuts{slices}.json"))
}

/// How to run a point sliced.
#[derive(Debug, Clone)]
pub struct SliceRunOptions {
    /// Maximum number of slices (the plan may hold fewer for short
    /// runs; clamped to at least 1).
    pub slices: usize,
    /// Worker threads for the slice fan-out (clamped to at least 1).
    pub jobs: usize,
    /// Where to persist/load the cut plan; `None` disables the cache
    /// (every run is cold).
    pub cuts_path: Option<PathBuf>,
}

/// What a sliced run produced, beyond the result itself.
#[derive(Debug, Clone)]
pub struct SliceRun {
    /// The final result — bit-identical to a monolithic run's.
    pub result: SimResult,
    /// Final machine state digest (`Machine::state_digest`).
    pub state_digest: u64,
    /// Slices actually executed (≤ the requested budget).
    pub slices: usize,
    /// Whether the plan came from the cut cache (warm) or a fresh
    /// forward pass (cold).
    pub cuts_cached: bool,
    /// Cycles simulated in-process: the whole run once per slice pass,
    /// plus the forward pass again when cold.
    pub cycles_simulated: u64,
}

/// Runs one point sliced; see the module docs for the cold/warm policy.
///
/// # Errors
///
/// [`SimError`] when the underlying simulation fails (cycle budget,
/// program fault) — exactly the errors a monolithic run can produce.
///
/// # Panics
///
/// Panics if the freshly planned digest chain does not stitch — that is
/// a simulator-determinism bug, not a recoverable condition.
pub fn run_one_sliced(
    workload: &Workload,
    cfg: &SimConfig,
    trace: &PowerTrace,
    opts: &SliceRunOptions,
) -> Result<SliceRun, SimError> {
    let program = workload.program();
    let slices = opts.slices.max(1);

    // Warm path: a cached plan skips the forward pass.
    if let Some(path) = &opts.cuts_path {
        if let Some(plan) = load_plan(path, cfg) {
            match run_plan_parallel(&plan, &program, trace, opts.jobs) {
                Ok(stitched) => {
                    let cycles = stitched.result.stats.total_cycles;
                    return Ok(SliceRun {
                        result: stitched.result,
                        state_digest: stitched.state_digest,
                        slices: plan.len(),
                        cuts_cached: true,
                        cycles_simulated: cycles,
                    });
                }
                Err(SliceError::Sim(e)) => return Err(e),
                Err(_) => {
                    // Stale plan (old snapshot version, semantic drift
                    // behind an unchanged salt, hand-copied file):
                    // discard and fall through to a cold run.
                    let _ = std::fs::remove_file(path);
                }
            }
        }
    }

    // Cold path: forward pass plans the cuts and computes the truth...
    let fwd = match slice::plan_auto(cfg, &program, trace, slices, CUT_GRAIN_CYCLES) {
        Ok(f) => f,
        Err(SliceError::Sim(e)) => return Err(e),
        Err(e) => panic!("slice forward pass failed structurally: {e}"),
    };
    if let Some(path) = &opts.cuts_path {
        store_plan(path, &fwd.plan);
    }
    // ...and the fan-out must land on it exactly.
    let stitched = match run_plan_parallel(&fwd.plan, &program, trace, opts.jobs) {
        Ok(s) => s,
        Err(SliceError::Sim(e)) => return Err(e),
        Err(e) => panic!("slice equivalence violated on a fresh plan: {e}"),
    };
    assert_eq!(
        stitched.state_digest, fwd.final_digest,
        "sliced run's final state diverged from the forward pass"
    );
    assert_eq!(
        stitched.result, fwd.result,
        "sliced run's result diverged from the forward pass"
    );
    let total = fwd.result.stats.total_cycles;
    Ok(SliceRun {
        result: stitched.result,
        state_digest: stitched.state_digest,
        slices: fwd.plan.len(),
        cuts_cached: false,
        cycles_simulated: total.saturating_mul(2),
    })
}

/// Executes every slice of a plan on a bounded worker pool and
/// stitches. Slice order is irrelevant (each resumes its own entry
/// snapshot), so workers pull indices from a shared counter.
///
/// # Errors
///
/// Any error [`ehs_sim::slice::run_slice`] or
/// [`ehs_sim::slice::stitch`] can produce.
pub fn run_plan_parallel(
    plan: &SlicePlan,
    program: &Program,
    trace: &PowerTrace,
    jobs: usize,
) -> Result<Stitched, SliceError> {
    plan.validate()?;
    let n = plan.len();
    let workers = jobs.max(1).min(n);
    let mut outcomes: Vec<Option<SliceOutcome>> = vec![None; n];
    if workers <= 1 {
        for (i, slot) in outcomes.iter_mut().enumerate() {
            *slot = Some(slice::run_slice(plan, i, program, trace)?);
        }
    } else {
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<SliceOutcome, SliceError>)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (next, tx) = (&next, tx.clone());
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    if tx
                        .send((i, slice::run_slice(plan, i, program, trace)))
                        .is_err()
                    {
                        break;
                    }
                });
            }
        });
        drop(tx);
        for (i, outcome) in rx {
            outcomes[i] = Some(outcome?);
        }
    }
    let outcomes: Vec<SliceOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every slice index was dispatched"))
        .collect();
    slice::stitch(plan, &outcomes)
}

/// Loads a cached plan, rejecting files whose structure or
/// configuration does not match (identity digests inside each entry
/// are still enforced by `Machine::resume` at slice time).
pub(crate) fn load_plan(path: &Path, cfg: &SimConfig) -> Option<SlicePlan> {
    let text = std::fs::read_to_string(path).ok()?;
    let plan = SlicePlan::from_json(&text).ok()?;
    let matches = canon::canonical_json(&plan.entries[0].cfg) == canon::canonical_json(cfg);
    matches.then_some(plan)
}

/// Persists a plan via [`crate::write_atomic`] (best-effort, like the
/// result cache: a full disk loses the cache, not the run).
pub(crate) fn store_plan(path: &Path, plan: &SlicePlan) {
    let _ = crate::write_atomic(path, plan.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SimPoint;

    fn point() -> SimPoint {
        let mut cfg = SimConfig::builder().build();
        cfg.nvm.size_bytes = 1 << 21;
        SimPoint::new(
            "gsmd",
            cfg,
            TraceSpec::Constant {
                power_mw: 30.0,
                samples: 16,
            },
        )
    }

    fn unique_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ehs-slice-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn cold_then_warm_sliced_runs_match_the_monolith() {
        let dir = unique_dir("coldwarm");
        let _ = std::fs::remove_dir_all(&dir);
        let p = point();
        let workload = ehs_workloads::by_name(p.workload).unwrap();
        let trace = p.trace.synthesize();

        let (mono, mono_digest) = {
            let program = workload.program();
            let mut m = Machine::with_trace(p.config.clone(), &program, trace.clone());
            let r = m.run().unwrap();
            let d = m.state_digest(&program);
            (r, d)
        };

        let opts = SliceRunOptions {
            slices: 4,
            jobs: 2,
            cuts_path: Some(cuts_path(&dir, p.key(), 4)),
        };
        let cold = run_one_sliced(workload, &p.config, &trace, &opts).unwrap();
        assert!(!cold.cuts_cached);
        assert_eq!(cold.result, mono);
        assert_eq!(cold.state_digest, mono_digest);
        assert!(cold.slices >= 2, "gsmd must split at this grain");

        let warm = run_one_sliced(workload, &p.config, &trace, &opts).unwrap();
        assert!(warm.cuts_cached, "second run must reuse the cut cache");
        assert_eq!(warm.result, mono);
        assert_eq!(warm.state_digest, mono_digest);
        assert!(
            warm.cycles_simulated < cold.cycles_simulated,
            "warm skips the forward pass"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cut_cache_falls_back_to_a_cold_run() {
        let dir = unique_dir("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = point();
        let workload = ehs_workloads::by_name(p.workload).unwrap();
        let trace = p.trace.synthesize();
        let path = cuts_path(&dir, p.key(), 3);
        std::fs::write(&path, "{ not a plan").unwrap();

        let opts = SliceRunOptions {
            slices: 3,
            jobs: 1,
            cuts_path: Some(path.clone()),
        };
        let run = run_one_sliced(workload, &p.config, &trace, &opts).unwrap();
        assert!(!run.cuts_cached, "corrupt plan must not count as warm");
        let replaced = std::fs::read_to_string(&path).unwrap();
        assert!(
            SlicePlan::from_json(&replaced).is_ok(),
            "cold run must repair the cache"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sim_errors_pass_through_unchanged() {
        let p = point();
        let workload = ehs_workloads::by_name(p.workload).unwrap();
        let trace = p.trace.synthesize();
        let mut cfg = p.config.clone();
        cfg.max_cycles = 10_000;
        let opts = SliceRunOptions {
            slices: 4,
            jobs: 1,
            cuts_path: None,
        };
        let err = run_one_sliced(workload, &cfg, &trace, &opts).unwrap_err();
        assert!(matches!(err, SimError::CycleLimit { .. }));
    }
}
