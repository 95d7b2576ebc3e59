//! Single-thread core-engine throughput benchmark.
//!
//! ```text
//! cargo run --release -p ehs-bench --bin core_bench -- [flags]
//!
//!   --passes N      measurement passes over the suite (default 3)
//!   --check         fail (exit 1) if the result digest diverges from a
//!                   comparable record (bit-identity guard), or if the
//!                   scaled median throughput falls below 0.8x the higher
//!                   of the median and the oldest of this host's earlier
//!                   scaled records (other hosts' are shown, not gated)
//!   --no-append     measure and print only; don't touch BENCH_core.json
//!   --out PATH      trajectory file (default BENCH_core.json)
//! ```
//!
//! Runs the full 20-workload suite twice per pass — once under the
//! baseline configuration and once under IPEX(both) — on a single
//! thread, one fresh [`Machine`] per point, under the paper's default
//! RFHome trace. Passes are timed the way the benchmark package's
//! `engine_suite` times them: each point follows one chunk of the
//! reference computation, and a pass's time, less its chunks, is scaled
//! by their mean to seconds at the reference speed
//! ([`reference::scaled_s`]), so a slow host and a slow build read
//! differently. After the timed passes, one more pass runs every point
//! with the event tracer counting ([`TraceMode::Counting`]); its scaled
//! rate shows what enabled tracing costs and is not gated, but its
//! result digest must equal the untraced one. The median and quartiles
//! of the scaled throughput, the traced pass's scaled rate, the host's
//! fingerprint and the fastest pass's raw numbers are appended to
//! `BENCH_core.json` with the same atomic append discipline as
//! `BENCH_sweep.json`.
//!
//! Every record carries an FNV-1a digest of the canonical JSON of all
//! 40 results: engine rewrites must keep the digest constant, which is
//! the cheap always-on companion to the full differential-oracle proof.

#[allow(dead_code)]
#[path = "ehs_benchmark/host.rs"]
mod host;
#[allow(dead_code)]
#[path = "ehs_benchmark/reference.rs"]
mod reference;
#[allow(dead_code)]
#[path = "ehs_benchmark/stats.rs"]
mod stats;

use std::time::Instant;

use ehs_energy::{PowerTrace, TraceSpec};
use ehs_isa::Program;
use ehs_sim::prelude::*;
use reference::Reference;
use serde::{Deserialize, Serialize};

/// A run fails `--check` when its scaled throughput is below this
/// fraction of the baseline (a >20% regression).
const BAR: f64 = 0.8;

/// The fields records written before the reference scaling or the
/// traced pass lack; they read as `None`.
const OPTIONAL_FIELDS: [&str; 6] = [
    "scaled_cycles_per_sec",
    "scaled_cycles_per_sec_q1",
    "scaled_cycles_per_sec_q3",
    "traced_scaled_cycles_per_sec",
    "nproc",
    "cpu_model",
];

/// One appended measurement in `BENCH_core.json`.
#[derive(Debug, Serialize, Deserialize)]
struct CoreRecord {
    unix_ms: u64,
    /// Raw wall time of the fastest pass, less its reference chunks,
    /// milliseconds.
    wall_ms: u64,
    /// Measurement passes taken.
    passes: u64,
    /// Simulation points per pass (workloads × configurations).
    points: u64,
    /// Simulated cycles per pass (including off/recharge cycles).
    cycles: u64,
    /// Instructions retired per pass.
    instructions: u64,
    /// Fastest-pass raw throughput: simulated cycles per host second.
    cycles_per_sec: f64,
    /// Fastest-pass raw throughput: retired instructions per host second.
    instr_per_sec: f64,
    /// Execution-engine generation that produced this record.
    engine: String,
    /// FNV-1a 64 digest (hex) of the canonical JSON of all results, in
    /// point order. Must be invariant across engine generations.
    digest: String,
    /// Median over the passes of simulated cycles per second at the
    /// reference speed; what `--check` gates on.
    scaled_cycles_per_sec: Option<f64>,
    /// Lower quartile of the passes' scaled throughput.
    scaled_cycles_per_sec_q1: Option<f64>,
    /// Upper quartile of the passes' scaled throughput.
    scaled_cycles_per_sec_q3: Option<f64>,
    /// Scaled throughput of the one pass run with
    /// [`TraceMode::Counting`]; shown, not gated.
    traced_scaled_cycles_per_sec: Option<f64>,
    /// CPUs available to the run: with `cpu_model`, the host fingerprint.
    nproc: Option<u64>,
    /// The host's CPU model name.
    cpu_model: Option<String>,
}

impl CoreRecord {
    fn fingerprint(&self) -> Option<(u64, &str)> {
        Some((self.nproc?, self.cpu_model.as_deref()?))
    }
}

/// Loads the trajectory for `--check`; unrecognizable entries are
/// skipped here (appending keeps them, see [`ehs_bench::append_record`]).
fn load_records(path: &str) -> Vec<CoreRecord> {
    std::fs::read_to_string(path)
        .ok()
        .map(|text| parse_records(&text))
        .unwrap_or_default()
}

fn parse_records(text: &str) -> Vec<CoreRecord> {
    let Ok(serde::Content::Seq(records)) = serde_json::from_str::<serde::Content>(text) else {
        return Vec::new();
    };
    records
        .into_iter()
        .filter_map(|c| {
            let serde::Content::Map(mut m) = c else {
                return None;
            };
            for f in OPTIONAL_FIELDS {
                if !m.iter().any(|(k, _)| k == f) {
                    m.push((f.to_owned(), serde::Content::Null));
                }
            }
            CoreRecord::from_content(&serde::Content::Map(m)).ok()
        })
        .collect()
}

/// The `--check` verdict on `record` against the `prior` trajectory: a
/// line saying what its throughput was compared with, and the failures
/// (none when it passes).
fn check(prior: &[CoreRecord], record: &CoreRecord) -> (String, Vec<String>) {
    let mut failures = Vec::new();
    // Bit-identity guard: identical point sets must produce identical
    // result digests, whatever the engine generation.
    let comparable: Vec<&CoreRecord> = prior
        .iter()
        .filter(|r| r.points == record.points && r.cycles == record.cycles)
        .collect();
    if let Some(r) = comparable.iter().find(|r| r.digest != record.digest) {
        failures.push(format!(
            "result digest {} diverges from recorded {} (engine {})",
            record.digest, r.digest, r.engine
        ));
    }
    // Throughput guard: the scaled median against earlier scaled records
    // from this host. Whether the reference scaling carries a rate from
    // one CPU to another is unmeasured, so other hosts' records are shown
    // but not gated on.
    let scaled: Vec<&CoreRecord> = comparable
        .into_iter()
        .filter(|r| r.scaled_cycles_per_sec.is_some())
        .collect();
    let same_host: Vec<f64> = scaled
        .iter()
        .filter(|r| {
            record
                .fingerprint()
                .is_some_and(|f| r.fingerprint() == Some(f))
        })
        .filter_map(|r| r.scaled_cycles_per_sec)
        .collect();
    let Some(this) = record.scaled_cycles_per_sec else {
        return (
            "no scaled rate: checked the digest only".to_owned(),
            failures,
        );
    };
    let Some(&oldest) = same_host.first() else {
        let rates: Vec<f64> = scaled
            .iter()
            .filter_map(|r| r.scaled_cycles_per_sec)
            .collect();
        let note = if rates.is_empty() {
            "no earlier scaled record".to_owned()
        } else {
            format!(
                "scaled {:.2}M cycles/s; other hosts' {} record(s) have median {:.2}M, \
                 not gated (cross-host scaling is unverified)",
                this / 1e6,
                rates.len(),
                stats::summarize(&rates).median / 1e6
            )
        };
        return (format!("{note}: checked the digest only"), failures);
    };
    // The median follows the host's recent records; the oldest one
    // anchors it, so runs each just above the bar cannot walk it down.
    let median = stats::summarize(&same_host).median;
    let base = median.max(oldest);
    let note = format!(
        "scaled {:.2}M cycles/s against {:.2}M, the higher of the median ({:.2}M) \
         and the oldest of {} record(s) from this host",
        this / 1e6,
        base / 1e6,
        median / 1e6,
        same_host.len()
    );
    if this < BAR * base {
        failures.push(format!("{note}: a >20% regression"));
    }
    (note, failures)
}

fn fnv1a64(bytes: &[u8], seed: u64) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn usage() -> ! {
    eprintln!("usage: core_bench [--passes N] [--check] [--no-append] [--out PATH]");
    std::process::exit(2);
}

/// One measured pass over the suite.
struct Pass {
    /// Host seconds of the pass, less its reference chunks.
    raw_s: f64,
    /// The pass's seconds at the reference speed.
    scaled_s: f64,
    cycles: u64,
    instructions: u64,
    digest: u64,
}

/// Runs the points in order under trace `mode`, each after one
/// reference chunk, as the benchmark package's `engine_suite` does.
fn run_pass(
    points: &[(&str, &Program, SimConfig)],
    trace: &PowerTrace,
    mode: &TraceMode,
    reference: &mut Reference,
) -> Pass {
    let mut chunks_s = 0.0;
    let mut cycles = 0u64;
    let mut instructions = 0u64;
    // FNV-1a offset basis.
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let t0 = Instant::now();
    for (name, program, cfg) in points {
        chunks_s += reference.chunk();
        let run_cfg = cfg.clone().with_trace_mode(mode.clone());
        let mut machine = Machine::with_trace(run_cfg, program, trace.clone());
        let r = ehs_bench::expect_ok(name, cfg, machine.run());
        cycles += r.stats.total_cycles;
        instructions += r.stats.instructions;
        digest = fnv1a64(ehs_sim::canon::canonical_json(&r).as_bytes(), digest);
    }
    let raw_s = t0.elapsed().as_secs_f64() - chunks_s;
    Pass {
        raw_s,
        scaled_s: reference::scaled_s(raw_s, chunks_s / points.len() as f64),
        cycles,
        instructions,
        digest,
    }
}

fn main() {
    let mut passes: u64 = 3;
    let mut check_run = false;
    let mut append = true;
    let mut out = String::from("BENCH_core.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--passes" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => passes = n,
                _ => usage(),
            },
            "--check" => check_run = true,
            "--no-append" => append = false,
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }

    // The measured points: the whole suite under the paper's two
    // anchor configurations, single-threaded, cold machines.
    let base = SimConfig::builder().build();
    let ipex = SimConfig::builder().ipex(Ipex::Both).build();
    let programs: Vec<_> = ehs_workloads::SUITE
        .iter()
        .map(|w| (w.name(), w.program()))
        .collect();
    let points: Vec<_> = programs
        .iter()
        .flat_map(|(name, p)| [(*name, p, base.clone()), (*name, p, ipex.clone())])
        .collect();
    let trace = TraceSpec::default_rfhome().synthesize();
    let host = host::Host::detect();
    let mut reference = Reference::new();

    println!(
        "[core_bench] engine {} · {} points/pass · {} pass(es), single thread · {} CPU(s), {}",
        ehs_sim::ENGINE_ID,
        points.len(),
        passes,
        host.nproc,
        host.cpu_model
    );

    let mut runs: Vec<Pass> = Vec::new();
    for p in 0..passes {
        let pass = run_pass(&points, &trace, &TraceMode::Off, &mut reference);
        println!(
            "[core_bench] pass {}/{}: {:.2}s raw, {:.2}s scaled → {:.2}M cycles/s scaled",
            p + 1,
            passes,
            pass.raw_s,
            pass.scaled_s,
            pass.cycles as f64 / pass.scaled_s / 1e6
        );
        if let Some(first) = runs.first() {
            assert_eq!(
                first.digest, pass.digest,
                "nondeterministic results across passes"
            );
        }
        runs.push(pass);
    }
    let scaled: Vec<f64> = runs.iter().map(|p| p.cycles as f64 / p.scaled_s).collect();
    let summary = stats::summarize(&scaled);
    let fastest = runs
        .iter()
        .min_by(|a, b| a.raw_s.total_cmp(&b.raw_s))
        .expect("at least one pass");

    // What enabled tracing costs, shown but not gated: one more pass
    // with the event tracer counting. Tracing only observes, so the
    // results must not change.
    let traced = run_pass(&points, &trace, &TraceMode::Counting, &mut reference);
    assert_eq!(traced.digest, fastest.digest, "tracing changed the results");
    let traced_rate = traced.cycles as f64 / traced.scaled_s;
    let record = CoreRecord {
        unix_ms: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
        wall_ms: (fastest.raw_s * 1e3) as u64,
        passes,
        points: points.len() as u64,
        cycles: fastest.cycles,
        instructions: fastest.instructions,
        cycles_per_sec: fastest.cycles as f64 / fastest.raw_s,
        instr_per_sec: fastest.instructions as f64 / fastest.raw_s,
        engine: ehs_sim::ENGINE_ID.to_owned(),
        digest: format!("{:016x}", fastest.digest),
        scaled_cycles_per_sec: Some(summary.median),
        scaled_cycles_per_sec_q1: Some(summary.q1),
        scaled_cycles_per_sec_q3: Some(summary.q3),
        traced_scaled_cycles_per_sec: Some(traced_rate),
        nproc: Some(host.nproc as u64),
        cpu_model: Some(host.cpu_model),
    };
    println!(
        "[core_bench] scaled median {:.2}M cycles/s [q1 {:.2}, q3 {:.2}]; traced pass \
         (TraceMode::Counting) {:.2}M, {:.3}x the median; fastest raw pass {:.2}s → \
         {:.2}M cycles/s, {:.2}M instr/s; digest {}",
        summary.median / 1e6,
        summary.q1 / 1e6,
        summary.q3 / 1e6,
        traced_rate / 1e6,
        traced_rate / summary.median,
        fastest.raw_s,
        record.cycles_per_sec / 1e6,
        record.instr_per_sec / 1e6,
        record.digest
    );

    let prior = load_records(&out);
    if append {
        ehs_bench::append_record(std::path::Path::new(&out), &record)
            .expect("write core bench trajectory");
    }

    if check_run {
        let (note, failures) = check(&prior, &record);
        println!("[core_bench] {note}");
        for f in &failures {
            eprintln!("[core_bench] FAIL: {f}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        println!("[core_bench] check passed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIGEST: &str = "18aae6b74a9a029d";

    /// A record of the 40-point suite at `scaled` cycles/s on host `cpu`
    /// (`None`: written before the scaled fields existed).
    fn rec(scaled: Option<f64>, cpu: &str) -> CoreRecord {
        CoreRecord {
            unix_ms: 0,
            wall_ms: 1000,
            passes: 5,
            points: 40,
            cycles: 85_945_336,
            instructions: 27_728_094,
            cycles_per_sec: 8.6e7,
            instr_per_sec: 2.8e7,
            engine: "predecode-v1".to_owned(),
            digest: DIGEST.to_owned(),
            scaled_cycles_per_sec: scaled,
            scaled_cycles_per_sec_q1: scaled,
            scaled_cycles_per_sec_q3: scaled,
            traced_scaled_cycles_per_sec: scaled,
            nproc: scaled.map(|_| 2),
            cpu_model: scaled.map(|_| cpu.to_owned()),
        }
    }

    #[test]
    fn legacy_records_parse_and_skip_the_throughput_gate() {
        let text = r#"[{"unix_ms": 1786189293157, "wall_ms": 846, "passes": 1,
            "points": 40, "cycles": 85945336, "instructions": 27728094,
            "cycles_per_sec": 101590231.678487, "instr_per_sec": 32775524.822695035,
            "engine": "predecode-v1", "digest": "18aae6b74a9a029d"}]"#;
        let prior = parse_records(text);
        assert_eq!(prior.len(), 1, "a legacy record parses");
        assert_eq!(prior[0].scaled_cycles_per_sec, None);
        assert_eq!(prior[0].traced_scaled_cycles_per_sec, None);
        assert_eq!(prior[0].fingerprint(), None);
        let (note, failures) = check(&prior, &rec(Some(1.0), "a"));
        assert!(failures.is_empty(), "{failures:?}");
        assert!(note.contains("digest only"), "{note}");
    }

    #[test]
    fn new_records_round_trip_through_the_log() {
        let text = serde_json::to_string_pretty(&vec![rec(Some(8e7), "cpu a")]).unwrap();
        let back = parse_records(&text);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].scaled_cycles_per_sec, Some(8e7));
        assert_eq!(back[0].traced_scaled_cycles_per_sec, Some(8e7));
        assert_eq!(back[0].fingerprint(), Some((2, "cpu a")));
    }

    /// Every committed record parses, those from before the traced pass
    /// included.
    #[test]
    fn the_committed_log_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_core.json");
        let text = std::fs::read_to_string(path).unwrap();
        let n = match serde_json::from_str::<serde::Content>(&text) {
            Ok(serde::Content::Seq(records)) => records.len(),
            _ => panic!("BENCH_core.json is not a JSON array"),
        };
        assert_eq!(parse_records(&text).len(), n);
    }

    #[test]
    fn a_same_host_baseline_wins_over_other_hosts() {
        let prior = [rec(Some(100e6), "fast"), rec(Some(50e6), "slow")];
        // Against this host's 50M, 45M passes and 39M fails.
        let (note, failures) = check(&prior, &rec(Some(45e6), "slow"));
        assert!(failures.is_empty(), "{failures:?}");
        assert!(note.contains("this host"), "{note}");
        assert_eq!(check(&prior, &rec(Some(39e6), "slow")).1.len(), 1);
        // A host with no record of its own is shown the others' median
        // but checked on the digest only.
        let (note, failures) = check(&prior, &rec(Some(1e6), "new"));
        assert!(failures.is_empty(), "{failures:?}");
        assert!(note.contains("not gated"), "{note}");
    }

    #[test]
    fn the_bar_is_eighty_percent_of_the_baseline_median() {
        let prior = [
            rec(Some(90e6), "h"),
            rec(Some(100e6), "h"),
            rec(Some(200e6), "h"),
        ];
        assert_eq!(check(&prior, &rec(Some(79e6), "h")).1.len(), 1);
        assert!(check(&prior, &rec(Some(81e6), "h")).1.is_empty());
    }

    #[test]
    fn appended_slowdowns_cannot_walk_the_bar_down() {
        // Each run is 0.81x the median of the host's records so far, just
        // above a median-only bar, and is appended when it passes.
        let mut prior = vec![rec(Some(100e6), "h")];
        for _ in 0..10 {
            let rates: Vec<f64> = prior
                .iter()
                .filter_map(|r| r.scaled_cycles_per_sec)
                .collect();
            let run = 0.81 * stats::summarize(&rates).median;
            if !check(&prior, &rec(Some(run), "h")).1.is_empty() {
                assert!(run < 80e6, "{run} failed above the anchor's bar");
                return;
            }
            assert!(run >= 80e6, "{run} passed below the anchor's bar");
            prior.push(rec(Some(run), "h"));
        }
        panic!("ten compounding slowdowns all passed");
    }

    #[test]
    fn a_digest_divergence_fails_at_any_speed() {
        let prior = [rec(Some(80e6), "h"), rec(None, "")];
        let mut fast = rec(Some(800e6), "h");
        fast.digest = "0000000000000000".to_owned();
        let failures = check(&prior, &fast).1;
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("digest"), "{failures:?}");
        // With no earlier record at all there is nothing to diverge from.
        assert!(check(&[], &fast).1.is_empty());
    }
}
