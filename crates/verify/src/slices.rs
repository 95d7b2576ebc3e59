//! The slice-equivalence oracle: monolithic run vs time-sliced replay.
//!
//! `ehs_sim::slice` claims two guarantees, and this oracle checks both
//! end to end across the workload × configuration grid:
//!
//! 1. **Pause neutrality** — a forward pass that pauses every grain
//!    cycles ([`ehs_sim::slice::plan_auto`]) must produce the same
//!    [`SimResult`](ehs_sim::SimResult) and final state digest as one uninterrupted
//!    [`Machine::run`].
//! 2. **Resume exactness** — re-executing every slice of the captured
//!    plan from its entry snapshot ([`run_sliced_serial`]) must stitch
//!    back into that same result and digest, with every intermediate
//!    slice landing digest-exact on the next entry.
//!
//! Each cell therefore simulates its workload three times: once
//! monolithically (the truth), once as the pausing forward pass, and
//! once slice-by-slice from the plan. A cell fails on any result or
//! digest difference, which `verify slices` reports like the
//! differential matrix does.

use ehs_energy::TraceKind;
use ehs_sim::slice::{plan_auto, run_sliced_serial};
use ehs_sim::Machine;

use crate::oracle::ConfigId;
use crate::run_parallel;

/// Snapshot spacing of the forward pass: fine enough that even the
/// shortest suite workloads split into several slices.
pub const SLICE_GRAIN_CYCLES: u64 = 50_000;

/// One cell of the slice-equivalence sweep.
#[derive(Debug, Clone)]
pub struct SliceCell {
    /// Workload name.
    pub workload: &'static str,
    /// Controller configuration.
    pub config: ConfigId,
    /// `Ok(slices)` when sliced execution matched the monolith
    /// (reporting the plan's slice count), `Err(why)` otherwise.
    pub outcome: Result<usize, String>,
}

/// The full slice-equivalence sweep result.
#[derive(Debug, Clone, Default)]
pub struct SliceReport {
    /// One entry per (workload, config) cell.
    pub entries: Vec<SliceCell>,
}

impl SliceReport {
    /// `true` when every cell matched.
    pub fn all_match(&self) -> bool {
        self.entries.iter().all(|e| e.outcome.is_ok())
    }

    /// The cells that did not match.
    pub fn failures(&self) -> Vec<&SliceCell> {
        self.entries.iter().filter(|e| e.outcome.is_err()).collect()
    }
}

/// Checks one (workload, config) cell; see the module docs for the
/// three runs it performs.
pub fn check_cell(
    workload: &ehs_workloads::Workload,
    config: ConfigId,
    seed: u64,
    samples: usize,
    max_slices: usize,
) -> Result<usize, String> {
    let cfg = config.build();
    let program = workload.program();
    let trace = TraceKind::RfHome.synthesize(seed, samples);

    let mut mono = Machine::with_trace(cfg.clone(), &program, trace.clone());
    let truth = mono
        .run()
        .map_err(|e| format!("monolithic run failed: {e}"))?;
    let truth_digest = mono.state_digest(&program);

    let fwd = plan_auto(&cfg, &program, &trace, max_slices, SLICE_GRAIN_CYCLES)
        .map_err(|e| format!("forward pass failed: {e}"))?;
    if fwd.result != truth {
        return Err("pausing forward pass diverged from the monolithic result".into());
    }
    if fwd.final_digest != truth_digest {
        return Err(format!(
            "pausing forward pass ended in digest {:016x}, monolith in {truth_digest:016x}",
            fwd.final_digest
        ));
    }

    let stitched = run_sliced_serial(&fwd.plan, &program, &trace)
        .map_err(|e| format!("sliced replay: {e}"))?;
    if stitched.result != truth {
        return Err("stitched sliced result diverged from the monolithic result".into());
    }
    if stitched.state_digest != truth_digest {
        return Err(format!(
            "stitched run ended in digest {:016x}, monolith in {truth_digest:016x}",
            stitched.state_digest
        ));
    }
    Ok(fwd.plan.len())
}

/// Sweeps `workloads` × all seven controller configurations in
/// parallel. `seed`/`samples` parameterize the synthesized RFHome
/// trace; `max_slices` bounds each cell's plan.
pub fn run_slice_matrix(
    workloads: &[&'static ehs_workloads::Workload],
    seed: u64,
    samples: usize,
    max_slices: usize,
) -> SliceReport {
    let tasks: Vec<(&'static ehs_workloads::Workload, ConfigId)> = workloads
        .iter()
        .flat_map(|w| ConfigId::ALL.into_iter().map(move |c| (*w, c)))
        .collect();
    let entries = run_parallel(&tasks, |&(w, config)| SliceCell {
        workload: w.name(),
        config,
        outcome: check_cell(w, config, seed, samples, max_slices),
    });
    SliceReport { entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_cell_matches_under_every_config() {
        let w = ehs_workloads::by_name("gsmd").unwrap();
        for config in ConfigId::ALL {
            let outcome = check_cell(w, config, 42, 50_000, 4);
            let slices = outcome.unwrap_or_else(|e| panic!("{}: {e}", config.name()));
            assert!(slices >= 1);
        }
    }

    #[test]
    fn the_matrix_reports_per_cell_outcomes() {
        let w = ehs_workloads::by_name("gsmd").unwrap();
        let report = run_slice_matrix(&[w], 42, 50_000, 3);
        assert_eq!(report.entries.len(), ConfigId::ALL.len());
        assert!(report.all_match(), "{:?}", report.failures());
        assert!(report.failures().is_empty());
    }
}
