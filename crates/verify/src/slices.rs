//! The pause/resume oracle: an uninterrupted run against a paused one
//! and one rebuilt from a snapshot at every pause.
//!
//! The simulator mirrors the paper's JIT checkpoint with
//! [`Machine::run_until`] pauses, [`Machine::snapshot`] and
//! [`Machine::resume`]. This oracle checks the three guarantees that
//! rest on, end to end across the workload × configuration grid:
//!
//! 1. **Pause neutrality** — a machine that pauses at fixed cycles must
//!    finish with the same [`SimResult`](ehs_sim::SimResult) and final
//!    state digest as one uninterrupted [`Machine::run`].
//! 2. **Resume exactness** — a machine replaced at every pause by
//!    `Machine::resume` of its own snapshot must stay digest-equal to
//!    the paused machine at each pause and land on the same end state.
//! 3. **Serialization** — every such snapshot makes the round trip
//!    through JSON ([`Snapshot::to_json`]/[`Snapshot::from_json`])
//!    before it is resumed.
//!
//! Each cell therefore simulates its workload three times: once
//! uninterrupted (the truth, whose total cycle count `T` fixes the
//! pause targets), once as the paused machine `P` and once as the
//! chained machine `C`. With `K` slices, `P` and `C` both pause at the
//! shared targets `k·⌈T/K⌉`. The targets are fixed in advance rather
//! than derived from each machine's own `cycle()`, because a machine
//! paused mid-backup reports the cycle its backup started at; targets
//! computed per machine could then drift apart. A cell fails on any
//! result or digest difference, which `verify slices` reports like the
//! differential matrix does.

use ehs_energy::TraceKind;
use ehs_sim::{Machine, RunStatus, Snapshot};

use crate::oracle::ConfigId;
use crate::run_parallel;

/// One cell of the pause/resume sweep.
#[derive(Debug, Clone)]
pub struct SliceCell {
    /// Workload name.
    pub workload: &'static str,
    /// Controller configuration.
    pub config: ConfigId,
    /// `Ok(legs)` when the paused and chained runs matched the
    /// uninterrupted one (reporting how many legs they ran, at most the
    /// slice count), `Err(why)` otherwise.
    pub outcome: Result<usize, String>,
}

/// The full pause/resume sweep result.
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
/// three runs it performs. `slices` is `K`, the number of legs the
/// paused and chained runs are cut into (at least 1).
pub fn check_cell(
    workload: &ehs_workloads::Workload,
    config: ConfigId,
    seed: u64,
    samples: usize,
    slices: usize,
) -> Result<usize, String> {
    let cfg = config.build();
    let program = workload.program();
    let trace = TraceKind::RfHome.synthesize(seed, samples);

    let mut mono = Machine::with_trace(cfg.clone(), &program, trace.clone());
    let truth = mono
        .run()
        .map_err(|e| format!("uninterrupted run failed: {e}"))?;
    let truth_digest = mono.state_digest(&program);

    let slices = slices.max(1) as u64;
    let step = truth.stats.total_cycles.div_ceil(slices).max(1);
    let mut paused = Machine::with_trace(cfg.clone(), &program, trace.clone());
    let mut chained = Machine::with_trace(cfg, &program, trace.clone());
    for k in 1..=slices {
        let target = step * k;
        let p = paused
            .run_until(target)
            .map_err(|e| format!("paused run failed before cycle {target}: {e}"))?;
        let c = chained
            .run_until(target)
            .map_err(|e| format!("chained run failed before cycle {target}: {e}"))?;
        match (p, c) {
            (RunStatus::Paused, RunStatus::Paused) => {
                let json = chained.snapshot(&program).to_json();
                let snap = Snapshot::from_json(&json)
                    .map_err(|e| format!("snapshot at target {target} did not parse: {e}"))?;
                chained = Machine::resume(&snap, &program, trace.clone())
                    .map_err(|e| format!("snapshot at target {target} did not resume: {e}"))?;
                let (pd, cd) = (
                    paused.state_digest(&program),
                    chained.state_digest(&program),
                );
                if pd != cd {
                    return Err(format!(
                        "at target {target} the resumed machine has digest {cd:016x}, \
                         the paused one {pd:016x}"
                    ));
                }
            }
            (RunStatus::Completed(pr), RunStatus::Completed(cr)) => {
                if *pr != truth {
                    return Err("paused run's result diverged from the uninterrupted run".into());
                }
                if *cr != truth {
                    return Err("chained run's result diverged from the uninterrupted run".into());
                }
                for (who, m) in [("paused", &paused), ("chained", &chained)] {
                    let d = m.state_digest(&program);
                    if d != truth_digest {
                        return Err(format!(
                            "{who} run ended in digest {d:016x}, \
                             the uninterrupted run in {truth_digest:016x}"
                        ));
                    }
                }
                return Ok(k as usize);
            }
            _ => {
                return Err(format!(
                    "at target {target} one run paused and the other completed"
                ))
            }
        }
    }
    Err(format!(
        "neither run completed by cycle {}, past the uninterrupted run's {}",
        step * slices,
        truth.stats.total_cycles
    ))
}

/// Sweeps `workloads` × all seven controller configurations in
/// parallel. `seed`/`samples` parameterize the synthesized RFHome
/// trace; `slices` is each cell's leg count `K`.
pub fn run_slice_matrix(
    workloads: &[&'static ehs_workloads::Workload],
    seed: u64,
    samples: usize,
    slices: usize,
) -> SliceReport {
    let tasks: Vec<(&'static ehs_workloads::Workload, ConfigId)> = workloads
        .iter()
        .flat_map(|w| ConfigId::ALL.into_iter().map(move |c| (*w, c)))
        .collect();
    let entries = run_parallel(&tasks, |&(w, config)| SliceCell {
        workload: w.name(),
        config,
        outcome: check_cell(w, config, seed, samples, slices),
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
            let legs = outcome.unwrap_or_else(|e| panic!("{}: {e}", config.name()));
            assert_eq!(legs, 4, "{}: three pauses, then completion", config.name());
        }
    }

    #[test]
    fn the_matrix_reports_per_cell_outcomes() {
        let w = ehs_workloads::by_name("gsmd").unwrap();
        let report = run_slice_matrix(&[w], 42, 50_000, 3);
        assert_eq!(report.entries.len(), ConfigId::ALL.len());
        assert!(report.all_match(), "{:?}", report.failures());
        assert!(report.failures().is_empty());
        assert!(report.entries.iter().all(|e| e.outcome == Ok(3)));
    }

    #[test]
    fn one_slice_runs_uninterrupted() {
        let w = ehs_workloads::by_name("gsmd").unwrap();
        assert_eq!(check_cell(w, ConfigId::ALL[0], 42, 50_000, 1), Ok(1));
    }
}
