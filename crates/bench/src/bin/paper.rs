//! The whole paper in one process.
//!
//! ```text
//! cargo run --release -p ehs-bench --bin paper -- [flags]
//!
//!   --only fig10,tab2        render only the listed figures (short or file ids)
//!   --no-cache               don't read or write results/.cache
//!   --jobs N                 worker-pool width (default: available
//!                            parallelism)
//!   --checkpoint-every N     crash-checkpoint in-flight simulations every N
//!                            simulated cycles (default 250000000; 0 disables)
//!   --stats                  Monte Carlo mode: seed-sweep every headline of
//!                            the selected figures and report 95% CIs into
//!                            results/stats/ instead of rendering the figures
//!   --seeds N                seeds per headline in --stats mode (default 16)
//!   --seed-base N            first seed in --stats mode (default 1000)
//!   --list                   print the registry and exit
//! ```
//!
//! All selected figures declare their simulation points up front; the
//! union is deduplicated by content-addressed key and each unique point
//! is simulated exactly once (asserted), with previously cached points
//! loaded from `results/.cache/`. Rendering then reuses the memoized
//! results, so every `results/*.json` is byte-identical whether its
//! points were simulated, loaded from the cache, or shared with other
//! figures. This is the only figure entry point: `--only
//! fig10_speedup_baseline` (or `--only fig10`) renders one figure, and
//! `--only fig27` renders the SMARTS-style sampled-vs-full comparison.
//! Every sweep miss runs as one plain simulation (checkpointed unless
//! `--checkpoint-every 0`). Each run appends a record to
//! `BENCH_sweep.json` so cold-vs-warm wall-clock is tracked over time.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use ehs_bench::figures::{RenderCx, REGISTRY};
use ehs_bench::monte::{self, SeedPlan};
use ehs_bench::sweep::{CheckpointPolicy, Sweep, SweepOptions};
use serde::Serialize;

/// One appended measurement in `BENCH_sweep.json`. Older entries may
/// carry fields this record no longer has (`slices`, `sampled`,
/// `in_flight_waits`);
/// [`ehs_bench::append_record`] keeps them as they were written.
#[derive(Serialize)]
struct BenchRecord {
    unix_ms: u64,
    wall_ms: u64,
    jobs: u64,
    cache_enabled: bool,
    figures: u64,
    requested: u64,
    unique_points: u64,
    simulated: u64,
    disk_hits: u64,
    memo_hits: u64,
    checkpoint_every_cycles: u64,
    resumed: u64,
    /// Cycles simulated in-process. `None` (JSON `null`) marks records
    /// from before cycle accounting existed, where the true count is
    /// unknowable — distinct from a genuine 0 (an all-cache-hit run).
    cycles_simulated: Option<u64>,
    /// Seeds per headline of a `--stats` run; `None` for a plain
    /// figure-rendering run (and for records predating the mode).
    stats_seeds: Option<u64>,
    /// First seed of a `--stats` run; `None` like `stats_seeds`.
    stats_seed_base: Option<u64>,
    /// Peak resident set size of the run, kB ([`peak_rss_kb`]); `None`
    /// where it cannot be read (and absent from older records).
    peak_rss_kb: Option<u64>,
}

/// Peak resident set size of this process, kB: `VmHWM` in
/// `/proc/self/status`, or `None` where that cannot be read.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    value.trim().strip_suffix("kB")?.trim().parse().ok()
}

fn usage() -> ! {
    eprintln!(
        "usage: paper [--only id1,id2,...] [--no-cache] [--jobs N] \
         [--checkpoint-every N] [--stats] [--seeds N] [--seed-base N] [--list]\n\
         ids are short (fig10, tab2) or file ids (fig10_speedup_baseline)"
    );
    std::process::exit(2);
}

fn main() {
    let mut only: Option<Vec<String>> = None;
    let mut use_cache = true;
    let mut jobs: Option<usize> = None;
    // Interrupted runs resume from these periodic machine snapshots;
    // 250M cycles keeps the worst-case repaid work to a few seconds.
    let mut checkpoint_every: u64 = 250_000_000;
    let mut stats_mode = false;
    let mut seeds: u64 = 16;
    let mut seed_base: u64 = monte::DEFAULT_SEED_BASE;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--only" => {
                let list = args.next().unwrap_or_else(|| usage());
                only = Some(list.split(',').map(|s| s.trim().to_owned()).collect());
            }
            "--no-cache" => use_cache = false,
            "--checkpoint-every" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => checkpoint_every = n,
                None => usage(),
            },
            "--jobs" => {
                let n = args.next().and_then(|s| s.parse().ok());
                match n {
                    Some(n) if n >= 1 => jobs = Some(n),
                    _ => usage(),
                }
            }
            "--stats" => stats_mode = true,
            "--seeds" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => seeds = n,
                _ => usage(),
            },
            "--seed-base" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => seed_base = n,
                None => usage(),
            },
            "--list" => {
                for f in REGISTRY {
                    println!("{:10} {:28} {}", f.id(), f.file_id(), f.title());
                }
                return;
            }
            _ => usage(),
        }
    }

    let figures: Vec<_> = match &only {
        None => REGISTRY.to_vec(),
        Some(ids) => ids
            .iter()
            .map(|id| {
                ehs_bench::figures::by_id(id).unwrap_or_else(|| {
                    eprintln!("unknown figure id `{id}` (try --list)");
                    std::process::exit(2);
                })
            })
            .collect(),
    };

    let results_dir = Path::new("results");
    // Checkpoints are independent of the result cache: a --no-cache run
    // re-simulates every point but still survives being killed.
    let sweep = Sweep::new(SweepOptions {
        jobs,
        disk_cache: use_cache.then(|| Sweep::default_cache_dir(results_dir)),
        checkpoints: (checkpoint_every > 0).then(|| CheckpointPolicy {
            dir: Sweep::default_cache_dir(results_dir),
            every_cycles: checkpoint_every,
        }),
        ..SweepOptions::default()
    });

    let t0 = Instant::now();
    let plan = SeedPlan::new(seeds, seed_base);
    let points: Vec<_> = if stats_mode {
        monte::stats_points(&figures, &plan)
    } else {
        figures.iter().flat_map(|f| f.points()).collect()
    };
    let unique: HashSet<_> = points.iter().map(|p| p.key()).collect();
    println!(
        "[paper] {} figure(s); {} point(s), {} unique{}",
        figures.len(),
        points.len(),
        unique.len(),
        if stats_mode {
            format!(" (stats mode: {seeds} seed(s) from {seed_base})")
        } else {
            String::new()
        }
    );

    // Simulation phase: the union of every figure's needs, exactly once
    // per unique key. Errors surface during rendering, with the figure
    // that needed the point.
    let n_unique = unique.len() as u64;
    let _ = sweep.request(points).wait();

    // Render phase: all memo hits.
    if stats_mode {
        for fs in monte::evaluate(&figures, &sweep, &plan) {
            println!();
            monte::print_stats(&fs);
            monte::write_stats(results_dir, &fs);
        }
    } else {
        let cx = RenderCx::new(&sweep);
        for f in &figures {
            println!();
            f.render(&cx);
        }
    }

    let wall_ms = t0.elapsed().as_millis() as u64;
    let stats = sweep.stats();
    println!(
        "\n[paper] done in {:.1}s: {} requested, {} unique, {} simulated, \
         {} from disk cache, {} memo hits",
        wall_ms as f64 / 1000.0,
        stats.requested,
        n_unique,
        stats.simulated,
        stats.disk_hits,
        stats.memo_hits
    );
    if stats.resumed > 0 {
        println!(
            "[paper] {} point(s) resumed from crash checkpoints",
            stats.resumed
        );
    }
    // The engine's exactly-once invariant: every unique point was
    // materialised once — by simulation or by a disk-cache load.
    assert_eq!(
        stats.unique(),
        n_unique,
        "sweep engine simulated a point more than once (or lost one)"
    );
    if !use_cache {
        assert_eq!(stats.disk_hits, 0, "--no-cache must not read the cache");
    }

    let record = BenchRecord {
        unix_ms: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
        wall_ms,
        jobs: sweep.jobs() as u64,
        cache_enabled: use_cache,
        figures: figures.len() as u64,
        requested: stats.requested,
        unique_points: n_unique,
        simulated: stats.simulated,
        disk_hits: stats.disk_hits,
        memo_hits: stats.memo_hits,
        checkpoint_every_cycles: checkpoint_every,
        resumed: stats.resumed,
        cycles_simulated: Some(stats.cycles_simulated),
        stats_seeds: stats_mode.then_some(seeds),
        stats_seed_base: stats_mode.then_some(seed_base),
        peak_rss_kb: peak_rss_kb(),
    };
    ehs_bench::append_record(Path::new("BENCH_sweep.json"), &record)
        .expect("write BENCH_sweep.json");
}
