//! SMARTS-style sampled simulation: systematic cycle sampling with
//! snapshot-exact warming, reporting confidence intervals.
//!
//! SMARTS (Wunderlich et al.) estimates a long run's metrics from many
//! short, systematically spaced *measurement windows*, fast-forwarding
//! between them with functional warming. Our engine has something
//! better than approximate functional warming: the slice planner's
//! entry snapshots (`ehs_sim::slice`) are *bit-exact* machine states at
//! evenly spaced points of the run. Sampled mode resumes a measurement
//! window of `window_cycles` simulated cycles at every cut, so the only
//! error left is sampling error — the gaps between windows — which the
//! reported CIs quantify honestly.
//!
//! Per window the estimator measures rate metrics over the window's
//! *total* cycle span (on + off time), so every window carries ~equal
//! weight and the mean of per-window rates estimates the run-level
//! rate:
//!
//! * `ipc` — instructions retired per simulated cycle,
//! * `energy_nj_per_cycle` — total energy per simulated cycle,
//! * `prefetch_accuracy` — useful prefetches over settled prefetches
//!   (windows where no prefetch settles contribute no sample).
//!
//! CIs are Student-t 95 % over the window samples, computed by
//! [`crate::stats`]'s order/merge-invariant accumulators, and the whole
//! report is a pure function of (workload, config, trace, options):
//! two calls give byte-identical JSON.
//!
//! Cost model, stated honestly: building the cuts requires one full
//! forward simulation, and the windows then re-simulate
//! `windows × window_cycles` cycles on top, so a sampled run always
//! costs more than the plain run it estimates, and the cuts are rebuilt
//! on every call. The mode exists to show how well systematic sampling
//! estimates these workloads (fig27), not to save time.

use ehs_energy::PowerTrace;
use ehs_isa::Program;
use ehs_sim::prelude::*;
use ehs_sim::slice::{self, SliceError, SlicePlan};
use ehs_workloads::Workload;
use serde::{Deserialize, Serialize};

use crate::stats::{Accumulator, Ci};

/// Initial snapshot spacing for the sampled forward pass — half the
/// `verify slices` grain, so even short suite workloads yield enough
/// windows for a meaningful dispersion estimate.
pub const SAMPLE_GRAIN_CYCLES: u64 = 25_000;

/// Minimum measurement-window length: long enough to amortise the
/// post-resume cache/prefetcher state into steady behaviour.
pub const MIN_WINDOW_CYCLES: u64 = 2_000;

/// How to run sampled mode.
#[derive(Debug, Clone)]
pub struct SampledOptions {
    /// Target number of measurement windows (= slice-plan cut budget).
    pub windows: usize,
    /// Fraction of the inter-cut spacing each window measures
    /// (`0 < fraction <= 1`); the balance is the sampled-out gap.
    pub fraction: f64,
}

impl Default for SampledOptions {
    fn default() -> SampledOptions {
        SampledOptions {
            windows: 32,
            fraction: 0.25,
        }
    }
}

/// A point estimate with its 95 % confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    /// Mean of the per-window samples.
    pub mean: f64,
    /// Student-t 95 % CI on the mean.
    pub ci95: Ci,
    /// Number of windows that contributed a sample.
    pub n: u64,
}

impl Estimate {
    fn from_acc(acc: &Accumulator) -> Estimate {
        let s = acc.summary();
        Estimate {
            mean: s.mean,
            ci95: s.ci95_t,
            n: s.n,
        }
    }
}

/// One workload's sampled-mode estimates.
///
/// Deliberately excludes whole-run totals (total cycles, coverage):
/// the report carries only what the measurement windows observed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampledReport {
    /// Workload name.
    pub workload: String,
    /// Measurement windows executed.
    pub windows: u64,
    /// Per-window measurement length, simulated cycles.
    pub window_cycles: u64,
    /// Cycles actually measured (sum of window spans; the final window
    /// may be shorter when the program completes inside it).
    pub measured_cycles: u64,
    /// Instructions per simulated cycle (on + off time).
    pub ipc: Estimate,
    /// Total energy per simulated cycle, nanojoules.
    pub energy_nj_per_cycle: Estimate,
    /// Useful / settled prefetches; `None` when no window settled any
    /// prefetch (e.g. prefetchers disabled).
    pub prefetch_accuracy: Option<Estimate>,
}

/// One window's raw deltas.
struct WindowSample {
    index: usize,
    dcycles: u64,
    dinstr: u64,
    denergy_nj: f64,
    dpf_useful: u64,
    dpf_settled: u64,
}

/// Runs sampled mode for one workload; see the module docs.
///
/// # Errors
///
/// [`SimError`] when a window (or the forward pass) fails.
pub fn sampled_report(
    workload: &Workload,
    cfg: &SimConfig,
    trace: &PowerTrace,
    opts: &SampledOptions,
) -> Result<SampledReport, SimError> {
    let program = workload.program();
    let plan = match slice::plan_auto(
        cfg,
        &program,
        trace,
        opts.windows.max(1),
        SAMPLE_GRAIN_CYCLES,
    ) {
        Ok(fwd) => fwd.plan,
        Err(SliceError::Sim(e)) => return Err(e),
        Err(e) => panic!("sampled forward pass failed structurally: {e}"),
    };
    let window_cycles = window_length(&plan, opts.fraction);

    let samples = measure_windows(&plan, &program, trace, window_cycles)?;

    let mut ipc = Accumulator::new();
    let mut energy = Accumulator::new();
    let mut accuracy = Accumulator::new();
    let mut measured = 0u64;
    for s in &samples {
        if s.dcycles == 0 {
            continue;
        }
        measured += s.dcycles;
        let tag = s.index as u64;
        ipc.push(tag, s.dinstr as f64 / s.dcycles as f64);
        energy.push(tag, s.denergy_nj / s.dcycles as f64);
        if s.dpf_settled > 0 {
            accuracy.push(tag, s.dpf_useful as f64 / s.dpf_settled as f64);
        }
    }
    assert!(!ipc.is_empty(), "sampled mode measured no cycles");

    Ok(SampledReport {
        workload: workload.name().to_owned(),
        windows: ipc.n() as u64,
        window_cycles,
        measured_cycles: measured,
        ipc: Estimate::from_acc(&ipc),
        energy_nj_per_cycle: Estimate::from_acc(&energy),
        prefetch_accuracy: (!accuracy.is_empty()).then(|| Estimate::from_acc(&accuracy)),
    })
}

/// Picks the common window length: `fraction` of the median inter-cut
/// spacing, floored at [`MIN_WINDOW_CYCLES`]. A single-cut plan (the
/// whole program fits in one grain) measures everything — the estimate
/// degenerates to the exact value.
fn window_length(plan: &SlicePlan, fraction: f64) -> u64 {
    let mut gaps: Vec<u64> = plan
        .entries
        .windows(2)
        .map(|w| w[1].cycle - w[0].cycle)
        .collect();
    if gaps.is_empty() {
        return u64::MAX;
    }
    gaps.sort_unstable();
    let median = gaps[gaps.len() / 2];
    let frac = fraction.clamp(0.01, 1.0);
    ((median as f64 * frac) as u64).max(MIN_WINDOW_CYCLES)
}

/// Simulates one measurement window per plan entry, in plan order.
fn measure_windows(
    plan: &SlicePlan,
    program: &Program,
    trace: &PowerTrace,
    window_cycles: u64,
) -> Result<Vec<WindowSample>, SimError> {
    let run_window = |i: usize| -> Result<WindowSample, SimError> {
        let mut machine = Machine::resume(&plan.entries[i], program, trace.clone())
            .unwrap_or_else(|e| panic!("window {i} cannot resume its own plan entry: {e}"));
        let c0 = machine.cycle();
        let r0 = machine.result();
        let _ = machine.run_until(c0.saturating_add(window_cycles))?;
        let r1 = machine.result();
        Ok(WindowSample {
            index: i,
            dcycles: machine.cycle() - c0,
            dinstr: r1.stats.instructions - r0.stats.instructions,
            denergy_nj: r1.total_energy_nj() - r0.total_energy_nj(),
            dpf_useful: (r1.ibuf.useful + r1.dbuf.useful) - (r0.ibuf.useful + r0.dbuf.useful),
            dpf_settled: (r1.ibuf.useful + r1.ibuf.useless() + r1.dbuf.useful + r1.dbuf.useless())
                - (r0.ibuf.useful + r0.ibuf.useless() + r0.dbuf.useful + r0.dbuf.useless()),
        })
    };

    (0..plan.len()).map(run_window).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (&'static Workload, SimConfig, PowerTrace) {
        let workload = ehs_workloads::by_name("gsmd").unwrap();
        let mut cfg = SimConfig::builder().build();
        cfg.nvm.size_bytes = 1 << 21;
        (workload, cfg, PowerTrace::constant_mw(30.0, 16))
    }

    #[test]
    fn estimates_contain_the_full_run_truth() {
        let (workload, cfg, trace) = setup();
        let truth = crate::run_one(workload, &cfg, &trace).unwrap();
        let t_ipc = truth.stats.instructions as f64 / truth.stats.total_cycles as f64;
        let t_energy = truth.total_energy_nj() / truth.stats.total_cycles as f64;

        let report = sampled_report(workload, &cfg, &trace, &SampledOptions::default()).unwrap();
        assert!(
            report.ipc.ci95.contains(t_ipc),
            "ipc CI {:?} must contain {t_ipc}",
            report.ipc.ci95
        );
        assert!(
            report.energy_nj_per_cycle.ci95.contains(t_energy),
            "energy CI {:?} must contain {t_energy}",
            report.energy_nj_per_cycle.ci95
        );
        assert!(report.windows >= 2, "gsmd must yield several windows");
    }
}
