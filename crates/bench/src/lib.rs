//! # ehs-bench — the experiment harness
//!
//! The paper is regenerated by **one** process:
//! `cargo run --release -p ehs-bench --bin paper` registers all 26
//! tables/figures (see `DESIGN.md` §4), collects the union of the
//! simulation points they need, simulates each *unique* point exactly
//! once on the content-addressed [`sweep`] engine, and renders every
//! artefact into `results/`. `paper --only <id>` renders a single
//! figure; it is the only figure entry point.
//!
//! This library holds the shared machinery: the [`sweep`] engine, the
//! [`figures`] registry, and the statistics/IO helpers (geometric
//! means, speedup tables, JSON emission) everything renders with.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use ehs_energy::{PowerTrace, TraceSpec};
use ehs_sim::canon;
use ehs_sim::prelude::*;
use ehs_workloads::Workload;
use serde::Serialize;

pub mod figures;
pub mod monte;
pub mod sampled;
pub mod stats;
pub mod sweep;

pub use sweep::{
    CheckpointPolicy, PointKey, SimPoint, Sweep, SweepHandle, SweepOptions, SweepStats,
};

/// Runs one workload under `cfg` with the given trace, returning the
/// simulation outcome.
///
/// This is the raw, uncached entry point; experiment code should go
/// through the [`sweep`] engine (or [`run_suite`]) instead so repeated
/// points are simulated once.
pub fn run_one(
    workload: &Workload,
    cfg: &SimConfig,
    trace: &PowerTrace,
) -> Result<SimResult, SimError> {
    run_one_counted(workload, cfg, trace).0
}

/// [`run_one`] that also reports how many cycles the machine actually
/// simulated, whether or not the run completed.
///
/// The sweep engine's `cycles_simulated` counter is defined as "cycles
/// simulated in this process"; a point that ends in [`SimError`] (cycle
/// budget exhausted, program fault) still burned its cycles, and they
/// must not vanish from the accounting just because the outcome carries
/// no [`SimResult`].
pub fn run_one_counted(
    workload: &Workload,
    cfg: &SimConfig,
    trace: &PowerTrace,
) -> (Result<SimResult, SimError>, u64) {
    let program = workload.program();
    let mut machine = Machine::with_trace(cfg.clone(), &program, trace.clone());
    let result = machine.run();
    let cycles = machine.cycle();
    (result, cycles)
}

/// What [`run_one_checkpointed`] did, beyond the simulation outcome.
#[derive(Debug)]
pub struct CheckpointOutcome {
    /// The simulation outcome (identical to an uncheckpointed run's).
    pub result: Result<SimResult, SimError>,
    /// Cycle of the checkpoint this run resumed from, if any.
    pub resumed_from: Option<u64>,
    /// Cycles actually simulated *in this process* (total minus the
    /// resumed checkpoint's head start).
    pub cycles_simulated: u64,
}

/// [`run_one`] with periodic crash checkpoints: every `every_cycles`
/// simulated cycles the machine's [`Snapshot`] is written to `path`
/// (write-then-rename), and a valid snapshot already at `path` is
/// resumed instead of starting cold.
///
/// Snapshot resume is bit-identical (see [`ehs_sim::snapshot`]), so the
/// returned result — and therefore every figure derived from it — is
/// byte-for-byte the same whether the run was cold, resumed once, or
/// resumed many times. A stale or mismatched snapshot (different
/// config, program, trace, or format version) is ignored and the run
/// starts cold; the checkpoint is deleted once the outcome is known.
pub fn run_one_checkpointed(
    workload: &Workload,
    cfg: &SimConfig,
    trace: &PowerTrace,
    path: &Path,
    every_cycles: u64,
) -> CheckpointOutcome {
    let every_cycles = every_cycles.max(1);
    let program = workload.program();
    let mut resumed_from = None;
    let mut machine = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Snapshot::from_json(&text).ok())
        .filter(|snap| canon::canonical_json(&snap.cfg) == canon::canonical_json(cfg))
        .and_then(|snap| {
            Machine::resume(&snap, &program, trace.clone())
                .inspect(|_| resumed_from = Some(snap.cycle))
                .ok()
        })
        .unwrap_or_else(|| Machine::with_trace(cfg.clone(), &program, trace.clone()));
    let start_cycle = machine.cycle();
    let result = loop {
        match machine.run_until(machine.cycle().saturating_add(every_cycles)) {
            Ok(RunStatus::Completed(r)) => break Ok(*r),
            Ok(RunStatus::Paused) => write_checkpoint(path, &machine.snapshot(&program)),
            Err(e) => break Err(e),
        }
    };
    let _ = std::fs::remove_file(path);
    CheckpointOutcome {
        result,
        resumed_from,
        cycles_simulated: machine.cycle() - start_cycle,
    }
}

/// Atomically persists a snapshot to `path` via [`write_atomic`].
/// Best-effort: a full disk loses the checkpoint, not the run.
pub fn write_checkpoint(path: &Path, snap: &ehs_sim::Snapshot) {
    let _ = write_atomic(path, snap.to_json());
}

/// Replaces `path` with `bytes` so that a reader sees either the old
/// content or the new, never a torn mix: the bytes go to a temp file in
/// the same directory, which is then renamed over `path`. Creates the
/// parent directory if needed; on error the temp file is removed.
///
/// # Errors
///
/// Any I/O error creating the directory, writing, or renaming.
pub fn write_atomic(path: &Path, bytes: impl AsRef<[u8]>) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    // Unique per process and call, so concurrent writers never share a
    // temp file.
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Appends `record` to the JSON array log at `path` (`BENCH_sweep.json`,
/// `BENCH_core.json`), creating the log if it is missing or empty.
///
/// Earlier entries are written back exactly as they were read, as raw
/// JSON values, so entries whose shape the current record type no
/// longer matches keep every field. A file that is not a JSON array is
/// history this function cannot extend: it is left untouched, a warning
/// goes to stderr and nothing is appended. The rewrite goes through
/// [`write_atomic`], so a killed run cannot tear the log.
///
/// # Errors
///
/// Any I/O error reading the existing log or writing the new one.
pub fn append_record(path: &Path, record: &impl Serialize) -> std::io::Result<()> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let mut records = if text.trim().is_empty() {
        Vec::new()
    } else {
        match serde_json::from_str::<serde::Content>(&text) {
            Ok(serde::Content::Seq(records)) => records,
            _ => {
                eprintln!(
                    "warning: {} is not a JSON array; left it untouched and did not append",
                    path.display()
                );
                return Ok(());
            }
        }
    };
    records.push(record.to_content());
    let json = serde_json::to_string_pretty(&records).expect("serialise records");
    write_atomic(path, json)?;
    println!("[record appended to {}]", path.display());
    Ok(())
}

/// Unwraps a simulation outcome, panicking with the harness's standard
/// diagnostic — an experiment configuration that cannot finish is a
/// harness bug, not a recoverable condition.
pub fn expect_ok(workload: &str, cfg: &SimConfig, r: Result<SimResult, SimError>) -> SimResult {
    r.unwrap_or_else(|e| {
        panic!(
            "workload `{workload}` failed under {:?}: {e}",
            cfg.inst_mode
        )
    })
}

/// The process-wide in-memory sweep engine that the legacy conveniences
/// ([`run_suite`], [`ipex_gmean_speedup`], …) share, so even the old
/// API simulates each unique point at most once per process.
fn global_sweep() -> &'static Sweep {
    static GLOBAL: OnceLock<Sweep> = OnceLock::new();
    GLOBAL.get_or_init(Sweep::in_memory)
}

/// Runs the full 20-workload suite under `cfg`, in parallel, returning
/// results keyed by workload name (in suite order).
///
/// Delegates to the process-wide [`sweep`] engine: calling it twice
/// with the same configuration and trace identity performs the
/// simulations only once.
pub fn run_suite(cfg: &SimConfig, trace: &TraceSpec) -> BTreeMap<&'static str, SimResult> {
    global_sweep().suite(cfg, trace)
}

/// [`run_suite`] restricted to the workloads accepted by `filter`.
pub fn run_suite_filtered(
    cfg: &SimConfig,
    trace: &TraceSpec,
    filter: impl Fn(&Workload) -> bool,
) -> BTreeMap<&'static str, SimResult> {
    global_sweep().suite_filtered(cfg, trace, filter)
}

/// Geometric mean of a sequence of positive values.
///
/// # Panics
///
/// Panics if `values` is empty or contains a non-positive value.
pub fn gmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "gmean of an empty set");
    assert!(
        values.iter().all(|v| *v > 0.0),
        "gmean requires positive values"
    );
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Per-workload speedups of `test` over `base` plus the gmean, computed
/// from total execution cycles.
pub fn speedups(
    base: &BTreeMap<&'static str, SimResult>,
    test: &BTreeMap<&'static str, SimResult>,
) -> (Vec<(&'static str, f64)>, f64) {
    let mut rows = Vec::new();
    for w in &ehs_workloads::SUITE {
        let name = w.name();
        if let (Some(b), Some(t)) = (base.get(name), test.get(name)) {
            rows.push((name, t.speedup_over(b)));
        }
    }
    let g = gmean(&rows.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    (rows, g)
}

/// Writes an experiment's rows as pretty JSON to `<dir>/<id>.json`
/// (creating the directory if needed, via [`write_atomic`]) and reports
/// the path.
pub fn write_results_to<T: Serialize>(dir: &Path, id: &str, rows: &T) {
    let path = dir.join(format!("{id}.json"));
    let json = serde_json::to_string_pretty(rows).expect("serialise results");
    write_atomic(&path, json).expect("write results file");
    println!("[results written to {}]", path.display());
}

/// [`write_results_to`] targeting the standard `results/` directory.
pub fn write_results<T: Serialize>(id: &str, rows: &T) {
    write_results_to(Path::new("results"), id, rows);
}

/// Runs the suite under a baseline and an IPEX(both) configuration, both
/// transformed by `mutate`, and returns the gmean speedup of IPEX over
/// the baseline — the y-axis of every §6.7 sensitivity figure.
pub fn ipex_gmean_speedup(trace: &TraceSpec, mutate: impl Fn(&mut SimConfig)) -> f64 {
    let mut base = SimConfig::builder().build();
    mutate(&mut base);
    let mut ipex = SimConfig::builder().ipex(Ipex::Both).build();
    mutate(&mut ipex);
    let b = run_suite(&base, trace);
    let i = run_suite(&ipex, trace);
    speedups(&b, &i).1
}

/// A generic labelled row for sweep experiments, serialised to the
/// results JSON.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRow {
    /// Sweep point label (e.g. `"2kB"`, `"PCM"`, `"0.47"`).
    pub label: String,
    /// IPEX-over-baseline gmean speedup at this point.
    pub ipex_speedup: f64,
}

/// A labelled configuration mutator — one point of a sensitivity sweep.
pub type SweepPoint = (String, Box<dyn Fn(&mut SimConfig) + Sync>);

/// Formats a ratio as a percentage string with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Prints a standard experiment header.
pub fn banner(id: &str, what: &str) {
    println!("==============================================================");
    println!("{id}: {what}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_basics() {
        assert!((gmean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn gmean_empty_panics() {
        gmean(&[]);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.0896), "8.96%");
    }

    #[test]
    fn write_atomic_replaces_creates_parent_and_leaves_no_temp() {
        let root = std::env::temp_dir().join(format!("ehs-write-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = root.join("missing").join("parent");
        let path = dir.join("log.json");
        write_atomic(&path, "old content, longer than the new").unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "old content, longer than the new"
        );
        write_atomic(&path, b"new").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["log.json"], "a temp file was left behind");
        // A failed rename (the target is a directory) cleans up too.
        assert!(write_atomic(&dir, "x").is_err());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        assert_eq!(std::fs::read_dir(dir.parent().unwrap()).unwrap().count(), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn append_record_keeps_foreign_entries_and_never_overwrites_a_broken_log() {
        #[derive(Serialize)]
        struct Record {
            wall_ms: u64,
        }
        let dir = std::env::temp_dir().join(format!("ehs-append-record-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("log.json");

        // A missing log starts a one-record array.
        append_record(&path, &Record { wall_ms: 1 }).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        assert_eq!(first, "[\n  {\n    \"wall_ms\": 1\n  }\n]");

        // An entry with a field `Record` lacks, and one of another shape
        // entirely, are both written back byte for byte.
        let old = "[\n  {\n    \"wall_ms\": 1,\n    \"slices\": 4,\n    \"ratio\": 0.25\n  },\n  \
                   [\n    \"not\",\n    \"a\",\n    \"record\"\n  ]\n]";
        std::fs::write(&path, old).unwrap();
        append_record(&path, &Record { wall_ms: 2 }).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let kept = old.strip_suffix("\n]").unwrap();
        assert_eq!(text, format!("{kept},\n  {{\n    \"wall_ms\": 2\n  }}\n]"));

        // A log that is not a JSON array is left exactly as it was.
        for broken in ["[{\"wall_ms\": 1}", "{\"wall_ms\": 1}"] {
            std::fs::write(&path, broken).unwrap();
            append_record(&path, &Record { wall_ms: 3 }).unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), broken);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_one_completes_for_a_small_workload() {
        let w = ehs_workloads::by_name("gsmd").unwrap();
        let trace = PowerTrace::constant_mw(50.0, 8);
        let cfg = SimConfig::default();
        let r = expect_ok(w.name(), &cfg, run_one(w, &cfg, &trace));
        assert!(r.stats.instructions > 10_000);
    }
}
