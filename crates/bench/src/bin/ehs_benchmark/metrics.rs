//! The metric catalog `BENCHMARK.json` declares, and the per-run record
//! of measured values.
//!
//! Every workload emits exactly the end-to-end catalog when untraced and
//! exactly the per-layer catalog when traced; [`Metrics::declared`]
//! refuses a run that measured a metric twice, left one out or invented
//! one. Values outside the catalog go to [`Metrics::info`]: they are
//! printed and written to `latest.json` but are not part of the result
//! line.

use std::collections::BTreeMap;

use crate::reference;
use crate::stats::{self, Summary};
use Better::{Higher, Lower};

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better }
}

/// End-to-end metrics, host cost throughout, each with the relative
/// worsening that counts as a regression. Times are in seconds at the
/// reference speed (`reference.rs`), which cancels most of a shared
/// host's drift but not all of it (see README.md); peak memory varies by
/// under 1 %.
pub const END_TO_END: [(Def, f64); 3] = [
    // The run's fastest unit of work: an engine pass or a paper
    // repetition. Host seconds are printed as `wall_raw_s`.
    (def("wall_s", "s", Lower), 0.25),
    // Median of ten samples of the workload's set-up, per set-up. Host
    // seconds are printed as `setup_raw_s`.
    (def("setup_s", "s", Lower), 0.25),
    // Peak resident set during the measured loop.
    (def("peak_rss_mb", "MB", Lower), 0.10),
];

/// Per-layer metrics from the traced run. Names are `<layer>.<what>`,
/// the layer being the crate or module the time is spent in.
pub const PER_LAYER: [Def; 40] = [
    def("isa.ns_per_step", "ns", Lower),
    def("mem.icache_ns_per_access", "ns", Lower),
    def("mem.dcache_ns_per_access", "ns", Lower),
    def("mem.pbuf_ns_per_op", "ns", Lower),
    def("prefetch.ns_per_observe", "ns", Lower),
    def("prefetch.candidates_per_observe", "count", Lower),
    def("core.ipex_ns_per_observe", "ns", Lower),
    def("core.predictive_ns_per_observe", "ns", Lower),
    def("core.hysteresis_ns_per_observe", "ns", Lower),
    def("energy.capacitor_ns_per_obs", "ns", Lower),
    def("energy.trace_synth_ms", "ms", Lower),
    def("workloads.assemble_ms", "ms", Lower),
    def("sim.ns_per_instr", "ns", Lower),
    def("sim.machine_new_ms", "ms", Lower),
    def("sim.glue_share", "ratio", Lower),
    def("sim.snapshot_ms", "ms", Lower),
    def("sim.resume_ms", "ms", Lower),
    def("sim.snapshot_kb", "kB", Lower),
    def("sampled.report_s", "s", Lower),
    def("stats.summary_us", "us", Lower),
    def("sweep.points_ms", "ms", Lower),
    def("sweep.simulate_s", "s", Lower),
    def("sweep.load_s", "s", Lower),
    def("sweep.mcycles_per_s", "Mcycles/s", Higher),
    def("sweep.scaling_eff", "ratio", Higher),
    def("figures.render_s", "s", Lower),
    def("sweep.simulated", "count", Lower),
    def("sweep.disk_hits", "count", Higher),
    def("sweep.memo_hits", "count", Higher),
    def("sweep.resumed", "count", Lower),
    def("sweep.cycles_simulated", "count", Lower),
    def("sweep.cache_mb", "MB", Lower),
    def("mem.icache_miss_ratio", "ratio", Lower),
    def("mem.dcache_miss_ratio", "ratio", Lower),
    def("prefetch.accuracy", "ratio", Higher),
    def("sim.power_cycles", "count", Lower),
    def("core.throttle_rate", "ratio", Lower),
    def("trace.traced_wall_s", "s", Lower),
    def("trace.untraced_wall_s", "s", Lower),
    def("trace.unattributed_share", "ratio", Lower),
];

/// A measured value: the reported number (for timings, a median or the
/// fastest sample) and the spread of the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub unit: &'static str,
    /// The direction of improvement, for declared metrics.
    pub better: Option<Better>,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Measured {
    fn one(unit: &'static str, value: f64) -> Measured {
        Measured {
            unit,
            better: None,
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    fn of(unit: &'static str, s: Summary) -> Measured {
        Measured {
            unit,
            better: None,
            value: s.median,
            q1: s.q1,
            q3: s.q3,
            n: s.n,
        }
    }
}

/// The values one workload run measured.
#[derive(Debug, Default)]
pub struct Metrics {
    declared: BTreeMap<&'static str, Measured>,
    info: BTreeMap<String, Measured>,
}

fn lookup(name: &str) -> Def {
    END_TO_END
        .iter()
        .map(|(d, _)| *d)
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalog"))
}

impl Metrics {
    /// Records a declared metric measured once.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let d = lookup(name);
        self.put(d, Measured::one(d.unit, value));
    }

    /// Records a declared metric as the median of `samples`.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        let d = lookup(name);
        self.put(d, Measured::of(d.unit, stats::summarize(samples)));
    }

    fn put(&mut self, d: Def, m: Measured) {
        let name = d.name;
        let m = Measured {
            better: Some(d.better),
            ..m
        };
        let old = self.declared.insert(name, m);
        assert!(old.is_none(), "metric `{name}` measured twice");
    }

    /// Records the untraced run's units of work: each unit's host seconds
    /// `walls` and the mean seconds `chunks_s` of the reference chunks
    /// timed over it. `wall_s` is the fastest unit at the reference
    /// speed, with the quartiles and count of all of them; their median
    /// is printed as `wall_s_p50`. The medians of the host seconds and of
    /// the chunk times, the host speed that `wall_s` divides out, are
    /// printed as `wall_raw_s` and `ref_chunk_us`.
    pub fn set_walls(&mut self, walls: &[f64], chunks_s: &[f64]) {
        let scaled: Vec<f64> = walls
            .iter()
            .zip(chunks_s)
            .map(|(&w, &c)| reference::scaled_s(w, c))
            .collect();
        let all = Measured::of("s", stats::summarize(&scaled));
        let fastest = scaled.iter().copied().fold(f64::INFINITY, f64::min);
        self.put(
            lookup("wall_s"),
            Measured {
                value: fastest,
                ..all.clone()
            },
        );
        self.info.insert("wall_s_p50".to_owned(), all);
        self.info_median("wall_raw_s", "s", walls);
        let chunks_us: Vec<f64> = chunks_s.iter().map(|s| s * 1e6).collect();
        self.info_median("ref_chunk_us", "us", &chunks_us);
    }

    /// Records the traced and untraced unit walls of a traced run, and
    /// their difference, the tracing overhead.
    pub fn trace_walls(&mut self, traced: &[f64], untraced: &[f64]) {
        self.set_median("trace.traced_wall_s", traced);
        self.set_median("trace.untraced_wall_s", untraced);
        let overhead = stats::summarize(traced).median - stats::summarize(untraced).median;
        self.info(
            "trace_overhead_s",
            "s",
            overhead,
            traced.len().min(untraced.len()),
        );
    }

    /// Records an informational value (printed, not declared).
    pub fn info(&mut self, name: impl Into<String>, unit: &'static str, value: f64, n: usize) {
        self.info.insert(
            name.into(),
            Measured {
                n,
                ..Measured::one(unit, value)
            },
        );
    }

    /// Records an informational median of `samples`.
    pub fn info_median(&mut self, name: impl Into<String>, unit: &'static str, samples: &[f64]) {
        self.info
            .insert(name.into(), Measured::of(unit, stats::summarize(samples)));
    }

    /// The declared values, checked to be exactly the `expected` names.
    pub fn declared(
        &self,
        expected: &[&'static str],
    ) -> Result<Vec<(&'static str, &Measured)>, String> {
        let extra: Vec<&str> = self
            .declared
            .keys()
            .filter(|k| !expected.contains(k))
            .copied()
            .collect();
        let missing: Vec<&str> = expected
            .iter()
            .filter(|k| !self.declared.contains_key(*k))
            .copied()
            .collect();
        if !extra.is_empty() || !missing.is_empty() {
            return Err(format!(
                "metric set differs from the catalog: missing {missing:?}, undeclared {extra:?}"
            ));
        }
        Ok(expected.iter().map(|k| (*k, &self.declared[k])).collect())
    }

    /// Every value, declared and informational, in name order.
    pub fn all(&self) -> Vec<(String, &Measured)> {
        let mut all: Vec<(String, &Measured)> = self
            .declared
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v))
            .chain(self.info.iter().map(|(k, v)| (k.clone(), v)))
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }
}

/// Names of the end-to-end catalog.
pub fn end_to_end_names() -> Vec<&'static str> {
    END_TO_END.iter().map(|(d, _)| d.name).collect()
}

/// Names of the per-layer catalog.
pub fn per_layer_names() -> Vec<&'static str> {
    PER_LAYER.iter().map(|d| d.name).collect()
}

#[cfg(test)]
mod tests {
    use serde::Content;

    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn field<'a>(c: &'a Content, key: &str) -> &'a Content {
        c.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
    }

    fn text<'a>(c: &'a Content, key: &str) -> &'a str {
        field(c, key).as_str().expect("string field")
    }

    fn number(c: &Content) -> f64 {
        match c {
            Content::F64(v) => *v,
            Content::U64(v) => *v as f64,
            other => panic!("expected a number, found {other:?}"),
        }
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_and_workload_names_are_well_formed() {
        let mut names: Vec<&str> = end_to_end_names();
        names.extend(per_layer_names());
        names.extend(crate::Workload::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(valid_name(n), "bad name `{n}`");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for d in END_TO_END.iter().map(|(d, _)| d).chain(&PER_LAYER) {
            assert!(d.unit.len() <= 16, "{}", d.unit);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalog() {
        let doc: Content = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_map()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            number(field(&doc, "run_seconds")),
            crate::DEFAULT_SECONDS as f64
        );

        let workloads: Vec<&str> = field(&doc, "workloads")
            .as_seq()
            .expect("workload list")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);

        let e2e = field(&doc, "end_to_end").as_seq().expect("metric list");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, (d, bound)) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(m, "name"), d.name);
            assert_eq!(text(m, "unit"), d.unit, "{}", d.name);
            assert_eq!(text(m, "better"), d.better.as_str(), "{}", d.name);
            assert_eq!(number(field(m, "bound")), *bound, "{}", d.name);
        }
        let largest = END_TO_END.iter().map(|(_, b)| *b).fold(0.0, f64::max);
        assert_eq!(END_TO_END[1].0.name, "setup_s");
        assert_eq!(
            END_TO_END[1].1, largest,
            "setup_s carries the largest bound"
        );
        assert!(largest <= 0.25);

        let layer = field(&doc, "per_layer").as_seq().expect("metric list");
        assert_eq!(layer.len(), PER_LAYER.len());
        for (m, d) in layer.iter().zip(&PER_LAYER) {
            assert_eq!(text(m, "name"), d.name);
            assert_eq!(text(m, "unit"), d.unit, "{}", d.name);
            assert_eq!(text(m, "better"), d.better.as_str(), "{}", d.name);
        }
    }

    #[test]
    fn a_run_must_measure_exactly_the_catalog() {
        let mut m = Metrics::default();
        m.set("wall_s", 1.0);
        m.set_median("setup_s", &[0.3, 0.1, 0.2]);
        let err = m
            .declared(&end_to_end_names())
            .expect_err("peak_rss_mb missing");
        assert!(err.contains("peak_rss_mb"), "{err}");
        m.set("peak_rss_mb", 10.0);
        m.set("isa.ns_per_step", 5.0);
        let err = m
            .declared(&end_to_end_names())
            .expect_err("per-layer extra");
        assert!(err.contains("isa.ns_per_step"), "{err}");

        let mut m = Metrics::default();
        // Units of 2, 3 and 4 host seconds, the last on a host running
        // at a quarter of the reference speed.
        m.set_walls(&[2.0, 3.0, 4.0], &[0.001, 0.001, 0.004]);
        m.set_median("setup_s", &[0.3, 0.1, 0.2]);
        m.set("peak_rss_mb", 10.0);
        m.info("sim_mips", "Minstr/s", 30.0, 1);
        let got = m.declared(&end_to_end_names()).expect("complete");
        assert_eq!(got[0].1.value, 1.0, "wall_s is the fastest scaled unit");
        assert_eq!((got[0].1.q1, got[0].1.n), (1.0, 3));
        assert!((got[0].1.q3 - 3.0).abs() < 1e-12);
        assert_eq!(got[1].1.value, 0.2, "setup_s is the median");
        let all = m.all();
        assert_eq!(all.len(), 7, "info values are listed but not declared");
        assert!(all.iter().any(|(k, v)| k == "wall_s_p50" && v.value == 2.0));
        assert!(all.iter().any(|(k, v)| k == "wall_raw_s" && v.value == 3.0));
        assert!(all
            .iter()
            .any(|(k, v)| k == "ref_chunk_us" && v.value == 1000.0));
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn undeclared_metrics_are_refused() {
        Metrics::default().set("made_up_s", 1.0);
    }
}
