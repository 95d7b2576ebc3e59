//! The Monte Carlo layer: seed-sweeping every headline figure.
//!
//! The paper reports each headline as a single number measured under one
//! synthetic power trace (RFHome, seed 42). That number is a draw from a
//! distribution — a different trace seed gives a different trace, a
//! different interleaving of power failures, and a different speedup.
//! This module re-evaluates every [`Headline`](crate::figures::Headline) the figure registry
//! declares under `N` seed-varied copies of its trace environment
//! ([`TraceSpec::with_seed`]) and summarises the resulting sample into
//! mean / gmean with Student-t and bootstrap 95% confidence intervals
//! (see [`crate::stats`]).
//!
//! The expansion is declarative: [`stats_points`] lists every simulation
//! point a stats run needs up front, so the `paper --stats` driver can
//! push the whole matrix through the [`Sweep`] engine in one batch —
//! each unique point simulated exactly once, shared across headlines,
//! figures, and the published single-seed rendering.

use std::path::Path;

use ehs_energy::TraceSpec;
use serde::{Deserialize, Serialize};

use crate::figures::Figure;
use crate::stats::{Accumulator, Summary};
use crate::sweep::{SimPoint, Sweep};

/// The seed schedule of a stats run: `count` consecutive seeds starting
/// at `base`.
///
/// Consecutive seeds are statistically as good as any other choice here
/// — the trace synthesizer feeds each seed through its own generator —
/// and they make the schedule trivially reproducible from two numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedPlan {
    /// Number of seed-varied evaluations per headline.
    pub count: u64,
    /// First seed; the run uses `base, base+1, …, base+count-1`.
    pub base: u64,
}

/// Default first seed of `paper --stats` (chosen away from the published
/// figures' seed 42 so the Monte Carlo sample never silently includes
/// the published draw).
pub const DEFAULT_SEED_BASE: u64 = 1000;

impl SeedPlan {
    /// Builds a plan of `count` seeds starting at `base`.
    pub fn new(count: u64, base: u64) -> SeedPlan {
        SeedPlan { count, base }
    }

    /// The seeds of the plan, in order.
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.count).map(|i| self.base.wrapping_add(i)).collect()
    }

    /// The seed-varied copies of a trace environment. A seed-free
    /// environment ([`TraceSpec::Constant`]) is returned unchanged for
    /// every seed: its headline honestly degenerates to a zero-width
    /// interval rather than being silently dropped.
    pub fn traces(&self, base: &TraceSpec) -> Vec<TraceSpec> {
        self.seeds().iter().map(|s| base.with_seed(*s)).collect()
    }
}

/// One headline's seed-swept statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatRow {
    /// Metric label within the figure (e.g. `"ipex_both_gmean"`).
    pub label: String,
    /// The value under the published single-seed trace — what the
    /// non-stats figure rendering reports.
    pub single_seed: f64,
    /// Summary of the seed-swept sample.
    pub summary: Summary,
}

/// All seed-swept headline statistics of one figure — the unit that
/// `results/stats/<file_id>.json` serialises.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureStats {
    /// The figure's short id (`fig10`, `tab3`, …).
    pub figure: String,
    /// The figure's results-file stem.
    pub file_id: String,
    /// The seed schedule the sample was drawn under.
    pub plan: SeedPlan,
    /// One row per headline, in declaration order.
    pub rows: Vec<StatRow>,
}

/// Every simulation point a stats run over `figures` needs: each
/// headline's points under its published trace plus under every seed of
/// the plan. Duplicates (headlines sharing suites, seeds colliding with
/// the published trace) are expected — the [`Sweep`] engine collapses
/// them to one simulation each.
pub fn stats_points(figures: &[&dyn Figure], plan: &SeedPlan) -> Vec<SimPoint> {
    let mut pts = Vec::new();
    for fig in figures {
        for h in fig.headlines() {
            pts.extend(h.points_under(&h.base_trace));
            for trace in plan.traces(&h.base_trace) {
                pts.extend(h.points_under(&trace));
            }
        }
    }
    pts
}

/// Seed-sweeps one figure's headlines, resolving all simulation through
/// `sweep`. Returns `None` for figures with no headlines (analytic
/// artefacts). Evaluation order cannot perturb the result: samples are
/// tagged by seed and summarised in canonical order (see
/// [`crate::stats::Accumulator`]).
pub fn evaluate_figure(fig: &dyn Figure, sweep: &Sweep, plan: &SeedPlan) -> Option<FigureStats> {
    let headlines = fig.headlines();
    if headlines.is_empty() {
        return None;
    }
    let rows = headlines
        .iter()
        .map(|h| {
            let mut acc = Accumulator::new();
            for seed in plan.seeds() {
                acc.push(seed, h.eval_under(sweep, &h.base_trace.with_seed(seed)));
            }
            StatRow {
                label: h.label.clone(),
                single_seed: h.eval_under(sweep, &h.base_trace),
                summary: acc.summary(),
            }
        })
        .collect();
    Some(FigureStats {
        figure: fig.id().to_owned(),
        file_id: fig.file_id().to_owned(),
        plan: *plan,
        rows,
    })
}

/// Seed-sweeps every figure that declares headlines, in registry order.
pub fn evaluate(figures: &[&dyn Figure], sweep: &Sweep, plan: &SeedPlan) -> Vec<FigureStats> {
    figures
        .iter()
        .filter_map(|f| evaluate_figure(*f, sweep, plan))
        .collect()
}

/// Writes one figure's stats to `<out_dir>/stats/<file_id>.json`.
pub fn write_stats(out_dir: &Path, fs: &FigureStats) {
    crate::write_results_to(&out_dir.join("stats"), &fs.file_id, fs);
}

/// Prints one figure's CI table in the harness's standard layout.
pub fn print_stats(fs: &FigureStats) {
    println!(
        "{}: {} seeds from {} (95% CIs: Student-t, bootstrap)",
        fs.figure, fs.plan.count, fs.plan.base
    );
    for r in &fs.rows {
        let s = &r.summary;
        println!(
            "  {:32} mean {:>9.4} t[{:>9.4}, {:>9.4}] boot[{:>9.4}, {:>9.4}] sd {:>8.5} published {:>9.4}",
            r.label, s.mean, s.ci95_t.lo, s.ci95_t.hi, s.ci95_bootstrap.lo, s.ci95_bootstrap.hi, s.sd, r.single_seed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::REGISTRY;

    #[test]
    fn seed_plan_enumerates_consecutively() {
        let plan = SeedPlan::new(4, 100);
        assert_eq!(plan.seeds(), vec![100, 101, 102, 103]);
    }

    #[test]
    fn most_registry_figures_declare_headlines() {
        // Analytic artefacts and the motivational trace figure have no
        // scalar headline; everything else must be seed-sweepable.
        let exempt = ["fig01", "fig04", "tab_hw", "fig27"];
        for f in REGISTRY {
            let has = !f.headlines().is_empty();
            assert_eq!(
                has,
                !exempt.contains(&f.id()),
                "unexpected headline presence for {}",
                f.id()
            );
        }
    }

    #[test]
    fn headline_points_are_seed_scaled() {
        let fig = crate::figures::by_id("fig10").unwrap();
        let plan = SeedPlan::new(3, 1000);
        let pts = stats_points(&[fig], &plan);
        // fig10 has 3 headlines over 2 configs x 20 workloads, under the
        // published trace plus 3 seeds; dedup happens in the engine, so
        // the declarative listing is the raw product.
        assert_eq!(pts.len(), 3 * 2 * 20 * (1 + 3));
        // ...but the unique points collapse: the three headlines share
        // the baseline suite.
        let unique: std::collections::BTreeSet<_> = pts.iter().map(|p| p.key()).collect();
        assert_eq!(unique.len(), 4 * 2 * 20 * (1 + 3) / 2);
    }

    #[test]
    fn constant_trace_headlines_degenerate_honestly() {
        let plan = SeedPlan::new(3, 7);
        let base = TraceSpec::Constant {
            power_mw: 50.0,
            samples: 8,
        };
        let traces = plan.traces(&base);
        assert!(traces.iter().all(|t| t == &base));
    }
}
