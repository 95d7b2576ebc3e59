//! The figure registry: every table and figure of the paper as a
//! declarative [`Figure`] implementation over the [`crate::sweep`]
//! engine.
//!
//! A figure declares what it reads once, as [`Figure::headlines`]: each
//! headline names the suites (configurations under a trace) its scalar
//! reduces. [`Figure::points`] is derived from them — every suite once —
//! so the `paper` binary can request the union of all figures and
//! simulate each unique point exactly once. Only fig01 and fig27 (no
//! headlines) and fig14 (one drawn suite no headline reads) override
//! it. [`Figure::render`] pulls those (now memoized) results back out
//! of the engine, prints the paper's rows, and writes
//! `results/<file_id>.json`. `paper --only <id>` renders one figure;
//! rendering against a fresh in-memory engine instead of `paper`'s
//! disk-cached one produces byte-identical output
//! (`tests/golden_fig10.rs`).

use std::collections::BTreeMap;
use std::path::PathBuf;

use ehs_sim::prelude::*;
use ipex::{HysteresisConfig, PolicyConfig, PredictiveConfig, StaticDegreeConfig};
use serde::Serialize;

use crate::sweep::{SimPoint, Sweep};

mod fig01;
mod fig02;
mod fig04;
mod fig10;
mod fig12;
mod fig13;
mod fig14;
mod fig15;
mod fig23;
mod fig26;
mod fig27;
mod sensitivity;
mod tab2;
mod tab_hw;
mod tab_prefetchers;

pub use sensitivity::Sensitivity;

/// One table or figure of the paper.
pub trait Figure: Sync {
    /// Short selector id (`fig10`, `tab2`, `ablations`) — what
    /// `paper --only` matches against.
    fn id(&self) -> &'static str;

    /// Stem of the results file, `results/<file_id>.json`.
    fn file_id(&self) -> &'static str;

    /// One-line description, shown by `paper --list`.
    fn title(&self) -> &'static str;

    /// Every simulation point this figure's render needs. Purely
    /// declarative — nothing is simulated here. By default every suite
    /// of [`Figure::headlines`] under its headline's published trace,
    /// each (config, trace) suite once, in first-seen order. Only
    /// fig01 and fig27 (no headlines) and fig14 (it also draws the
    /// IPEX(D) suite) override it.
    fn points(&self) -> Vec<SimPoint> {
        headline_points(&self.headlines())
    }

    /// Prints the figure's rows and writes its results file, resolving
    /// all simulation through `cx` (so shared points are hits).
    fn render(&self, cx: &RenderCx<'_>);

    /// The figure's headline scalars, re-evaluable under any trace
    /// environment — what `paper --stats` seed-sweeps into
    /// distributions with confidence intervals (see [`crate::monte`]).
    /// Empty (the default) for analytic figures and those whose
    /// headline is not a scalar.
    fn headlines(&self) -> Vec<Headline> {
        Vec::new()
    }
}

/// One headline scalar of a figure (a gmean-speedup bar, a mean
/// reduction, …), declared so the Monte Carlo layer can re-evaluate it
/// under arbitrary trace seeds.
///
/// Every headline in the registry has the same shape: run the full
/// 20-workload suite under each configuration in `configs` with one
/// trace environment, then reduce those suites to a single number.
/// `base_trace` is the environment the *published* figure uses (the
/// single-seed value); [`crate::monte`] replaces its seed via
/// [`TraceSpec::with_seed`] to build the seed distribution.
pub struct Headline {
    /// Metric label within the figure (e.g. `"ipex_both_gmean"`).
    pub label: String,
    /// The single-seed trace environment the published figure uses.
    pub base_trace: TraceSpec,
    /// Configurations whose full-suite results the metric needs.
    pub configs: Vec<SimConfig>,
    /// Reduces the suites (same order as `configs`) to the scalar.
    pub eval: fn(&[BTreeMap<&'static str, SimResult>]) -> f64,
}

impl Headline {
    /// The simulation points needed to evaluate this headline under
    /// `trace`.
    pub fn points_under(&self, trace: &TraceSpec) -> Vec<SimPoint> {
        self.configs
            .iter()
            .flat_map(|c| suite_points(c, trace))
            .collect()
    }

    /// Evaluates the metric under `trace`, resolving all simulation
    /// through `sweep` (memoized; points already simulated are hits).
    pub fn eval_under(&self, sweep: &Sweep, trace: &TraceSpec) -> f64 {
        let suites: Vec<BTreeMap<&'static str, SimResult>> =
            self.configs.iter().map(|c| sweep.suite(c, trace)).collect();
        (self.eval)(&suites)
    }
}

/// The points of `headlines`' suites under each headline's published
/// trace: each distinct (config, trace) suite once, in first-seen order.
/// Suites are told apart by the config's canonical JSON — the form its
/// point keys hash — so no point key is computed here.
pub(crate) fn headline_points(headlines: &[Headline]) -> Vec<SimPoint> {
    let mut seen: Vec<(String, &TraceSpec)> = Vec::new();
    let mut points = Vec::new();
    for h in headlines {
        for cfg in &h.configs {
            let suite = (cfg.canonical_json(), &h.base_trace);
            if !seen.contains(&suite) {
                points.extend(suite_points(cfg, &h.base_trace));
                seen.push(suite);
            }
        }
    }
    points
}

/// The mean over the suite, in suite order, of a per-app quantity
/// comparing `test` with `base`.
pub(crate) fn suite_mean(
    base: &BTreeMap<&'static str, SimResult>,
    test: &BTreeMap<&'static str, SimResult>,
    per_app: fn(&SimResult, &SimResult) -> f64,
) -> f64 {
    let sum: f64 = ehs_workloads::SUITE
        .iter()
        .map(|w| per_app(&base[w.name()], &test[w.name()]))
        .sum();
    sum / ehs_workloads::SUITE.len() as f64
}

/// The standard two-config headline: gmean speedup of the suite under
/// `test` over the suite under `base` — the y-axis of most figures.
pub(crate) fn speedup_headline(
    label: impl Into<String>,
    trace: TraceSpec,
    base: SimConfig,
    test: SimConfig,
) -> Headline {
    Headline {
        label: label.into(),
        base_trace: trace,
        configs: vec![base, test],
        eval: |suites| crate::speedups(&suites[0], &suites[1]).1,
    }
}

/// What a figure renders against: the engine resolving its points and
/// the directory its results file goes to.
pub struct RenderCx<'a> {
    /// The simulation engine (shared across figures in a `paper` run).
    pub sweep: &'a Sweep,
    /// Output directory, normally `results`.
    pub out_dir: PathBuf,
}

impl RenderCx<'_> {
    /// A context writing to the standard `results/` directory.
    pub fn new(sweep: &Sweep) -> RenderCx<'_> {
        RenderCx {
            sweep,
            out_dir: PathBuf::from("results"),
        }
    }

    /// The full suite under `cfg`/`trace`, through the engine.
    pub fn suite(&self, cfg: &SimConfig, trace: &TraceSpec) -> BTreeMap<&'static str, SimResult> {
        self.sweep.suite(cfg, trace)
    }

    /// Writes `<out_dir>/<file_id>.json`.
    pub fn write<T: Serialize>(&self, file_id: &str, rows: &T) {
        crate::write_results_to(&self.out_dir, file_id, rows);
    }
}

/// All 26 experiments, in presentation order.
pub static REGISTRY: [&dyn Figure; 26] = [
    &fig01::Fig01,
    &fig02::Fig02,
    &fig04::Fig04,
    &fig10::FIG10,
    &fig10::FIG11,
    &fig12::Fig12,
    &fig13::Fig13,
    &fig14::Fig14,
    &fig15::Fig15,
    &sensitivity::FIG16,
    &sensitivity::FIG17,
    &sensitivity::FIG18,
    &sensitivity::FIG19,
    &sensitivity::FIG20,
    &sensitivity::FIG21,
    &sensitivity::FIG22,
    &fig23::Fig23,
    &sensitivity::FIG24,
    &sensitivity::FIG25,
    &fig26::Fig26,
    &tab2::Tab2,
    &tab_prefetchers::TAB3,
    &tab_prefetchers::TAB4,
    &tab_hw::TabHw,
    &sensitivity::ABLATIONS,
    &fig27::Fig27,
];

/// Looks a figure up by its short id or its file id.
pub fn by_id(id: &str) -> Option<&'static dyn Figure> {
    REGISTRY
        .iter()
        .find(|f| f.id() == id || f.file_id() == id)
        .copied()
}

/// The default power environment of §6 (synthetic RFHome).
pub(crate) fn rfhome() -> TraceSpec {
    TraceSpec::default_rfhome()
}

/// The suite's points under one configuration and trace.
pub(crate) fn suite_points(cfg: &SimConfig, trace: &TraceSpec) -> Vec<SimPoint> {
    ehs_workloads::SUITE
        .iter()
        .map(|w| SimPoint::new(w.name(), cfg.clone(), trace.clone()))
        .collect()
}

/// The baseline and IPEX(both) configurations, both transformed by
/// `mutate` — the pair a sensitivity point compares.
pub(crate) fn ipex_pair(mutate: &dyn Fn(&mut SimConfig)) -> (SimConfig, SimConfig) {
    let mut base = base_cfg();
    mutate(&mut base);
    let mut ipex = ipex_both_cfg();
    mutate(&mut ipex);
    (base, ipex)
}

/// The four §6 comparison configurations.
pub(crate) fn base_cfg() -> SimConfig {
    SimConfig::builder().build()
}

pub(crate) fn nopf_cfg() -> SimConfig {
    SimConfig::builder().no_prefetch().build()
}

pub(crate) fn ipex_data_cfg() -> SimConfig {
    SimConfig::builder().ipex(Ipex::Data).build()
}

pub(crate) fn ipex_both_cfg() -> SimConfig {
    SimConfig::builder().ipex(Ipex::Both).build()
}

/// The alternative throttling policies of fig26, each on both caches.
pub(crate) fn predictive_cfg() -> SimConfig {
    SimConfig::builder()
        .throttle_policy(
            Ipex::Both,
            PolicyConfig::Predictive(PredictiveConfig::paper_default()),
        )
        .build()
}

pub(crate) fn hysteresis_cfg() -> SimConfig {
    SimConfig::builder()
        .throttle_policy(
            Ipex::Both,
            PolicyConfig::Hysteresis(HysteresisConfig::paper_default()),
        )
        .build()
}

pub(crate) fn static_deg_cfg() -> SimConfig {
    SimConfig::builder()
        .throttle_policy(
            Ipex::Both,
            PolicyConfig::StaticDegree(StaticDegreeConfig::conservative()),
        )
        .build()
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::sweep::PointKey;

    #[test]
    fn registry_ids_are_unique_and_resolvable() {
        let mut ids: Vec<&str> = REGISTRY.iter().map(|f| f.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), REGISTRY.len(), "duplicate figure ids");
        for f in REGISTRY {
            assert!(by_id(f.id()).is_some());
            assert!(by_id(f.file_id()).is_some());
            assert!(!f.title().is_empty());
        }
    }

    #[test]
    fn every_simulating_figure_declares_points() {
        for f in REGISTRY {
            // The two analytic artefacts need no simulation.
            let analytic = matches!(f.id(), "fig04" | "tab_hw");
            assert_eq!(f.points().is_empty(), analytic, "{}", f.id());
        }
    }

    fn keys(points: &[SimPoint]) -> Vec<PointKey> {
        points.iter().map(SimPoint::key).collect()
    }

    #[test]
    fn every_headline_reads_only_declared_points() {
        for f in REGISTRY {
            let declared: HashSet<PointKey> = keys(&f.points()).into_iter().collect();
            for h in f.headlines() {
                for k in keys(&h.points_under(&h.base_trace)) {
                    assert!(declared.contains(&k), "{} / {}: {k}", f.id(), h.label);
                }
            }
        }
    }

    #[test]
    fn no_figure_declares_a_point_twice() {
        for f in REGISTRY {
            let keys = keys(&f.points());
            let unique: HashSet<&PointKey> = keys.iter().collect();
            assert_eq!(unique.len(), keys.len(), "{}", f.id());
        }
    }

    #[test]
    fn registry_declares_1680_unique_points() {
        let unique: HashSet<PointKey> = REGISTRY.iter().flat_map(|f| keys(&f.points())).collect();
        assert_eq!(unique.len(), 1680);
    }
}
