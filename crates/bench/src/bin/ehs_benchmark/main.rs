//! `ehs_benchmark`: the repository benchmark — simulator throughput,
//! cold and warm `paper` wall-clock, and a traced per-layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/ehs_benchmark/Cargo.toml -- \
//!     [--workload W[,W]] [--seed S] [--seconds N] [--trace [0|1]] [--reps N] [--smoke]
//! ```
//!
//! (`cargo run --release -p ehs-bench --bin ehs_benchmark -- …` builds
//! the same source inside the workspace.) Run from the repository root.
//! Every metric is printed as
//! `METRIC <workload> <name> <value> <unit> n=<samples> q1=<q1> q3=<q3>`,
//! all of them go to `target/ehs-benchmark/latest.json`, and the last
//! line of standard output is the result: `{"correct", "attempted",
//! "failed", "metrics"}`. The process exits non-zero when any output
//! was wrong. The workloads, metrics and trace format are described in
//! this package's README.md.

mod engine;
mod host;
mod ledger;
mod metrics;
mod paper;
mod reference;
mod spans;
mod stats;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use serde::{Content, Serialize};

use crate::host::Host;
use crate::metrics::Metrics;
use crate::reference::Reference;
use crate::spans::Spans;

/// The trace seed of the paper's default RFHome environment; the pinned
/// result digests hold at this seed.
pub const DEFAULT_SEED: u64 = 42;

/// Seconds one run measures when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 10;

/// Set-up samples per run; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 10;

/// Samples of a workload's set-up time, in seconds per set-up at the
/// reference speed. A sample times `batch` back-to-back set-ups, each
/// after a reference chunk, so that it lasts about a tenth of a second
/// and a short stall of the host does not decide it. The workloads take
/// their samples at points spread over the run, so that the median does
/// not hang on how fast the host was during any one second of it.
pub struct SetupTimer {
    batch: usize,
    /// Seconds per set-up at the reference speed.
    pub samples: Vec<f64>,
    /// Seconds per set-up on the host.
    pub raw: Vec<f64>,
}

impl SetupTimer {
    pub fn new(batch: usize) -> SetupTimer {
        SetupTimer {
            batch: batch.max(1),
            samples: Vec::with_capacity(SETUP_SAMPLES),
            raw: Vec::with_capacity(SETUP_SAMPLES),
        }
    }

    /// Times one sample of the set-up `f` and returns the last set-up's
    /// result.
    pub fn sample<R>(&mut self, reference: &mut Reference, mut f: impl FnMut() -> R) -> R {
        let (mut setup_s, mut chunk_s, mut last) = (0.0, 0.0, None);
        for _ in 0..self.batch {
            chunk_s += reference.chunk();
            let t = Instant::now();
            last = Some(std::hint::black_box(f()));
            setup_s += t.elapsed().as_secs_f64();
        }
        let n = self.batch as f64;
        self.samples
            .push(reference::scaled_s(setup_s / n, chunk_s / n));
        self.raw.push(setup_s / n);
        last.expect("a batch holds at least one set-up")
    }

    /// Whether fewer than [`SETUP_SAMPLES`] samples were taken.
    pub fn wants_more(&self) -> bool {
        self.samples.len() < SETUP_SAMPLES
    }

    /// Takes samples until there are [`SETUP_SAMPLES`].
    pub fn fill<R>(&mut self, reference: &mut Reference, mut f: impl FnMut() -> R) {
        while self.wants_more() {
            self.sample(reference, &mut f);
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EngineSuite,
    EngineExact,
    PaperCold,
    PaperWarm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EngineSuite,
        Workload::EngineExact,
        Workload::PaperCold,
        Workload::PaperWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineSuite => engine::SUITE.name,
            Workload::EngineExact => engine::EXACT.name,
            Workload::PaperCold => "paper_cold",
            Workload::PaperWarm => "paper_warm",
        }
    }
}

/// Settings shared by every workload of one invocation.
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Minimum repetitions of a paper workload.
    pub reps: usize,
    pub host: Host,
}

/// Operations attempted and failed, and what went wrong.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts operations of the workload itself.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a problem when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("[ehs_benchmark] FAILED: {msg}");
            self.problems.push(msg);
        }
    }

    /// A check that is an operation of its own.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops(1, u64::from(!ok));
        self.check(ok, what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

struct Cli {
    workloads: Vec<Workload>,
    opts: RunOpts,
}

fn usage() -> ! {
    eprintln!(
        "usage: ehs_benchmark [--workload W[,W]] [--seed S] [--seconds N] \
         [--trace [0|1]] [--reps N] [--smoke]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Option<Cli> {
    let mut workloads = Workload::ALL.to_vec();
    let mut opts = RunOpts {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS as f64,
        traced: false,
        smoke: false,
        reps: 1,
        host: Host::detect(),
    };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match args[i].as_str() {
            "--workload" => {
                workloads = value?
                    .split(',')
                    .map(|n| Workload::ALL.into_iter().find(|w| w.name() == n.trim()))
                    .collect::<Option<_>>()?;
                i += 1;
            }
            "--seed" => {
                opts.seed = value?.parse().ok()?;
                i += 1;
            }
            "--seconds" => {
                let s: u64 = value?.parse().ok()?;
                opts.seconds = s.max(1) as f64;
                i += 1;
            }
            "--reps" => {
                opts.reps = value?.parse().ok().filter(|&n| n >= 1)?;
                i += 1;
            }
            "--trace" => match value {
                Some("0") => i += 1,
                Some("1") => {
                    opts.traced = true;
                    i += 1;
                }
                _ => opts.traced = true,
            },
            "--smoke" => opts.smoke = true,
            _ => return None,
        }
        i += 1;
    }
    Some(Cli { workloads, opts })
}

/// One workload's finished run.
struct Done {
    workload: Workload,
    metrics: Metrics,
    tally: Tally,
    declared: Vec<&'static str>,
}

fn run_workload(w: Workload, opts: &RunOpts) -> Done {
    println!("[ehs_benchmark] workload {}", w.name());
    let (mut spans, mut m, mut tally) = (Spans::new(), Metrics::default(), Tally::default());
    match w {
        Workload::EngineSuite => engine::run(&engine::SUITE, opts, &mut spans, &mut m, &mut tally),
        Workload::EngineExact => engine::run(&engine::EXACT, opts, &mut spans, &mut m, &mut tally),
        Workload::PaperCold => paper::run(paper::Kind::Cold, opts, &mut spans, &mut m, &mut tally),
        Workload::PaperWarm => paper::run(paper::Kind::Warm, opts, &mut spans, &mut m, &mut tally),
    }
    let declared = if opts.traced {
        ledger::measure(opts, &mut m, &mut tally);
        let share = spans.unattributed_share();
        m.set("trace.unattributed_share", share);
        tally.gate(share <= 0.01, || {
            format!(
                "trace leaves {:.2}% of the measured time unattributed",
                share * 100.0
            )
        });
        let path = Path::new(host::OUT_DIR).join(format!("trace-{}.json", w.name()));
        let written = std::fs::write(&path, spans.to_json(w.name()));
        tally.check(written.is_ok(), || {
            format!("cannot write {}", path.display())
        });
        metrics::per_layer_names()
    } else {
        metrics::end_to_end_names()
    };
    Done {
        workload: w,
        metrics: m,
        tally,
        declared,
    }
}

fn measured_json(m: &metrics::Measured) -> Content {
    Content::Map(vec![
        ("value".to_owned(), m.value.to_content()),
        ("unit".to_owned(), m.unit.to_content()),
        (
            "better".to_owned(),
            m.better.map(metrics::Better::as_str).to_content(),
        ),
        ("q1".to_owned(), m.q1.to_content()),
        ("q3".to_owned(), m.q3.to_content()),
        ("n".to_owned(), m.n.to_content()),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cli) = parse_args(&args) else {
        usage()
    };
    let opts = &cli.opts;
    if !Path::new("results").is_dir() {
        eprintln!("[ehs_benchmark] run from the repository root (no results/ here)");
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(host::OUT_DIR) {
        eprintln!("[ehs_benchmark] cannot create {}: {e}", host::OUT_DIR);
        return ExitCode::from(2);
    }
    println!(
        "[ehs_benchmark] host: nproc {}, cpu \"{}\", engine {}, paper jobs {}; seed {}, {} s{}{}",
        opts.host.nproc,
        opts.host.cpu_model,
        ehs_sim::ENGINE_ID,
        opts.host.jobs,
        opts.seed,
        opts.seconds,
        if opts.traced { ", traced" } else { "" },
        if opts.smoke { ", smoke" } else { "" },
    );

    let done: Vec<Done> = cli
        .workloads
        .iter()
        .map(|&w| run_workload(w, opts))
        .collect();

    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut result_metrics = Vec::new();
    let mut per_workload = Vec::new();
    for mut d in done {
        let name = d.workload.name();
        let declared = match d.metrics.declared(&d.declared) {
            Ok(list) => list
                .into_iter()
                .map(|(k, v)| (k, v.clone()))
                .collect::<Vec<_>>(),
            Err(e) => {
                d.tally.check(false, || format!("{name}: {e}"));
                Vec::new()
            }
        };
        for (metric, v) in d.metrics.all() {
            println!(
                "METRIC {name} {metric} {} {} n={} q1={} q3={}",
                v.value, v.unit, v.n, v.q1, v.q3
            );
        }
        for (metric, v) in declared {
            let key = if cli.workloads.len() == 1 {
                metric.to_owned()
            } else {
                format!("{name}/{metric}")
            };
            result_metrics.push((
                key,
                Content::Map(vec![
                    ("value".to_owned(), v.value.to_content()),
                    ("unit".to_owned(), v.unit.to_content()),
                ]),
            ));
        }
        attempted += d.tally.attempted;
        failed += d.tally.failed;
        correct &= d.tally.correct();
        per_workload.push((
            name.to_owned(),
            Content::Map(vec![
                ("attempted".to_owned(), d.tally.attempted.to_content()),
                ("failed".to_owned(), d.tally.failed.to_content()),
                ("problems".to_owned(), d.tally.problems.to_content()),
                (
                    "metrics".to_owned(),
                    Content::Map(
                        d.metrics
                            .all()
                            .into_iter()
                            .map(|(k, v)| (k, measured_json(v)))
                            .collect(),
                    ),
                ),
            ]),
        ));
    }

    let latest = Content::Map(vec![
        (
            "host".to_owned(),
            Content::Map(vec![
                ("nproc".to_owned(), opts.host.nproc.to_content()),
                ("cpu_model".to_owned(), opts.host.cpu_model.to_content()),
                ("engine_id".to_owned(), ehs_sim::ENGINE_ID.to_content()),
                ("jobs".to_owned(), opts.host.jobs.to_content()),
            ]),
        ),
        ("seed".to_owned(), opts.seed.to_content()),
        ("seconds".to_owned(), opts.seconds.to_content()),
        ("traced".to_owned(), opts.traced.to_content()),
        ("smoke".to_owned(), opts.smoke.to_content()),
        ("workloads".to_owned(), Content::Map(per_workload)),
    ]);
    let latest_path = Path::new(host::OUT_DIR).join("latest.json");
    if let Err(e) = std::fs::write(
        &latest_path,
        serde_json::to_string_pretty(&latest).expect("result serializes"),
    ) {
        eprintln!(
            "[ehs_benchmark] cannot write {}: {e}",
            latest_path.display()
        );
        correct = false;
    }

    let result = Content::Map(vec![
        ("correct".to_owned(), correct.to_content()),
        ("attempted".to_owned(), attempted.max(1).to_content()),
        ("failed".to_owned(), failed.to_content()),
        ("metrics".to_owned(), Content::Map(result_metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let cli = parse_args(&args(
            "--workload paper_warm --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(cli.workloads, [Workload::PaperWarm]);
        assert_eq!((cli.opts.seed, cli.opts.seconds), (7, 10.0));
        assert!(cli.opts.traced);
        let cli = parse_args(&args("--trace 0 --workload engine_suite,engine_exact")).unwrap();
        assert!(!cli.opts.traced);
        assert_eq!(cli.workloads.len(), 2);
        let cli = parse_args(&args("--trace --smoke")).unwrap();
        assert!(cli.opts.traced && cli.opts.smoke);
        assert_eq!(cli.workloads, Workload::ALL);
        assert_eq!(cli.opts.seed, DEFAULT_SEED);
    }

    #[test]
    fn rejects_malformed_arguments() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seed",
            "--reps 0",
            "--seconds -1",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_none(), "{bad}");
        }
    }

    #[test]
    fn gates_count_as_operations() {
        let mut t = Tally::default();
        t.ops(10, 0);
        t.gate(true, || unreachable!());
        assert!(t.correct());
        t.gate(false, || "broken".to_owned());
        assert_eq!((t.attempted, t.failed), (12, 1));
        assert!(!t.correct());
    }
}
