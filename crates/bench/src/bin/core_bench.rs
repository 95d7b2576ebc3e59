//! Single-thread core-engine throughput benchmark.
//!
//! ```text
//! cargo run --release -p ehs-bench --bin core_bench -- [flags]
//!
//!   --passes N      measurement passes over the suite (default 3; best wins)
//!   --check         fail (exit 1) if throughput regressed >20% from the best
//!                   recorded value, or if the result digest diverges from
//!                   the previous record (bit-identity guard)
//!   --no-append     measure and print only; don't touch BENCH_core.json
//!   --out PATH      trajectory file (default BENCH_core.json)
//! ```
//!
//! Runs the full 20-workload suite twice per pass — once under the
//! baseline configuration and once under IPEX(both) — on a single
//! thread, one fresh [`Machine`] per point, under the paper's default
//! RFHome trace. The best pass's `cycles/sec` is appended to
//! `BENCH_core.json` with the same atomic append discipline as
//! `BENCH_sweep.json`, so engine throughput is tracked over time.
//!
//! Every record carries an FNV-1a digest of the canonical JSON of all
//! 40 results: engine rewrites must keep the digest constant, which is
//! the cheap always-on companion to the full differential-oracle proof.

use std::time::Instant;

use ehs_energy::TraceSpec;
use ehs_sim::prelude::*;
use serde::{Deserialize, Serialize};

/// One appended measurement in `BENCH_core.json`.
#[derive(Debug, Serialize, Deserialize)]
struct CoreRecord {
    unix_ms: u64,
    /// Wall time of the best (fastest) pass, milliseconds.
    wall_ms: u64,
    /// Measurement passes taken (best pass is recorded).
    passes: u64,
    /// Simulation points per pass (workloads × configurations).
    points: u64,
    /// Simulated cycles per pass (including off/recharge cycles).
    cycles: u64,
    /// Instructions retired per pass.
    instructions: u64,
    /// Best-pass throughput: simulated cycles per wall-clock second.
    cycles_per_sec: f64,
    /// Best-pass throughput: retired instructions per wall-clock second.
    instr_per_sec: f64,
    /// Execution-engine generation that produced this record.
    engine: String,
    /// FNV-1a 64 digest (hex) of the canonical JSON of all results, in
    /// point order. Must be invariant across engine generations.
    digest: String,
}

/// Loads the trajectory for `--check`; unrecognizable entries are
/// skipped here (appending keeps them, see [`ehs_bench::append_record`]).
fn load_records(path: &str) -> Vec<CoreRecord> {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<serde::Content>(&text).ok())
        .and_then(|c| {
            c.as_seq().map(|s| {
                s.iter()
                    .filter_map(|c| CoreRecord::from_content(c).ok())
                    .collect()
            })
        })
        .unwrap_or_default()
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

/// One measured pass over the suite. Returns (wall_ms, cycles,
/// instructions, digest-of-results).
fn run_pass(points: &[(&ehs_workloads::Workload, SimConfig)]) -> (u64, u64, u64, u64) {
    let trace = TraceSpec::default_rfhome().synthesize();
    let mut cycles = 0u64;
    let mut instructions = 0u64;
    // FNV-1a offset basis.
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let t0 = Instant::now();
    for (w, cfg) in points {
        let program = w.program();
        let mut machine = Machine::with_trace(cfg.clone(), &program, trace.clone());
        let r = ehs_bench::expect_ok(w.name(), cfg, machine.run());
        cycles += r.stats.total_cycles;
        instructions += r.stats.instructions;
        digest = fnv1a64(ehs_sim::canon::canonical_json(&r).as_bytes(), digest);
    }
    (
        t0.elapsed().as_millis() as u64,
        cycles,
        instructions,
        digest,
    )
}

fn main() {
    let mut passes: u64 = 3;
    let mut check = false;
    let mut append = true;
    let mut out = String::from("BENCH_core.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--passes" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => passes = n,
                _ => usage(),
            },
            "--check" => check = true,
            "--no-append" => append = false,
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }

    // The measured points: the whole suite under the paper's two
    // anchor configurations, single-threaded, cold machines.
    let base = SimConfig::builder().build();
    let ipex = SimConfig::builder().ipex(Ipex::Both).build();
    let suite: Vec<&ehs_workloads::Workload> = ehs_workloads::names()
        .iter()
        .map(|n| ehs_workloads::by_name(n).expect("suite name"))
        .collect();
    let points: Vec<_> = suite
        .iter()
        .flat_map(|w| [(*w, base.clone()), (*w, ipex.clone())])
        .collect();

    println!(
        "[core_bench] engine {} · {} points/pass · {} pass(es), single thread",
        ehs_sim::ENGINE_ID,
        points.len(),
        passes
    );

    let mut best: Option<(u64, u64, u64, u64)> = None;
    for p in 0..passes {
        let (wall_ms, cycles, instructions, digest) = run_pass(&points);
        println!(
            "[core_bench] pass {}/{}: {:.1}s, {:.2}M cycles/s",
            p + 1,
            passes,
            wall_ms as f64 / 1000.0,
            cycles as f64 / wall_ms.max(1) as f64 / 1000.0
        );
        if let Some(b) = &best {
            assert_eq!(b.3, digest, "nondeterministic results across passes");
        }
        if best.is_none() || wall_ms < best.unwrap().0 {
            best = Some((wall_ms, cycles, instructions, digest));
        }
    }
    let (wall_ms, cycles, instructions, digest) = best.unwrap();
    let cycles_per_sec = cycles as f64 * 1000.0 / wall_ms.max(1) as f64;
    let instr_per_sec = instructions as f64 * 1000.0 / wall_ms.max(1) as f64;
    println!(
        "[core_bench] best: {:.1}s → {:.2}M cycles/s, {:.2}M instr/s, digest {digest:016x}",
        wall_ms as f64 / 1000.0,
        cycles_per_sec / 1e6,
        instr_per_sec / 1e6
    );

    let prior = load_records(&out);
    let record = CoreRecord {
        unix_ms: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
        wall_ms,
        passes,
        points: points.len() as u64,
        cycles,
        instructions,
        cycles_per_sec,
        instr_per_sec,
        engine: ehs_sim::ENGINE_ID.to_owned(),
        digest: format!("{digest:016x}"),
    };
    if append {
        ehs_bench::append_record(std::path::Path::new(&out), &record)
            .expect("write core bench trajectory");
    }

    if check {
        let mut failed = false;
        // Bit-identity guard: identical point sets must produce
        // identical result digests, whatever the engine generation.
        let comparable: Vec<_> = prior
            .iter()
            .filter(|r| r.points == record.points && r.cycles == record.cycles)
            .collect();
        if let Some(r) = comparable.iter().find(|r| r.digest != record.digest) {
            eprintln!(
                "[core_bench] FAIL: result digest {} diverges from recorded {} (engine {})",
                record.digest, r.digest, r.engine
            );
            failed = true;
        }
        // Throughput guard: >20% regression from the best recorded
        // single-thread cycles/sec fails the run.
        let best_recorded = comparable
            .iter()
            .map(|r| r.cycles_per_sec)
            .fold(f64::NAN, f64::max);
        if best_recorded.is_finite() && record.cycles_per_sec < 0.8 * best_recorded {
            eprintln!(
                "[core_bench] FAIL: {:.2}M cycles/s is a >20% regression from the \
                 best recorded {:.2}M cycles/s",
                record.cycles_per_sec / 1e6,
                best_recorded / 1e6
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("[core_bench] check passed");
    }
}
