//! The paper workloads: `paper`'s own sequence, run in-process — every
//! figure declares its points, one sweep resolves their union on a
//! two-worker pool with a disk cache and crash checkpoints, and every
//! figure renders from the sweep's memo.
//!
//! `paper_cold` starts each repetition from an empty cache, so the
//! sweep simulates all 1680 unique points and writes them to disk; it
//! renders every figure except fig27, whose sampled-mode re-simulation
//! does not depend on the cache and is measured by `paper_warm`.
//! `paper_warm` starts each repetition with a fresh sweep over a cache
//! that already holds every point, so all 1680 are disk loads, and it
//! renders all 26 figures. Rendered files go to a scratch directory
//! and must match the committed `results/*.json` byte for byte.
//!
//! A repetition runs on the sweep's worker threads for 20–40 s, so the
//! reference computation cannot be interleaved with it; a thread of its
//! own times a reference chunk every 50 ms while the repetition runs.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime};

use ehs_bench::figures::{Figure, RenderCx, REGISTRY};
use ehs_bench::sweep::{CheckpointPolicy, SimPoint, Sweep, SweepOptions, SweepStats};

use crate::host::{self, Scratch};
use crate::metrics::Metrics;
use crate::reference::Reference;
use crate::spans::Spans;
use crate::stats;
use crate::{RunOpts, SetupTimer, Tally, SETUP_SAMPLES};

/// Unique points the full figure sets resolve. Pinned, so a change to
/// what the registry declares fails the run instead of silently
/// changing what is measured.
const PAPER_UNIQUE_POINTS: usize = 1680;

/// Unique points of the smoke figure pair (fig02 and tab2).
const SMOKE_UNIQUE_POINTS: usize = 60;

/// The smoke run's figures.
const SMOKE_FIGURES: [&str; 2] = ["fig02", "tab2"];

/// Set-ups per `setup_s` sample (one set-up takes about 30 ms).
const SETUP_BATCH: usize = 4;

/// Warm caches kept under [`host::OUT_DIR`]: this build's and the one
/// used before it, so alternating two builds in one checkout does not
/// refill the cache on every run.
const WARM_CACHES_KEPT: usize = 2;

/// `paper`'s default crash-checkpoint period, in simulated cycles.
const CHECKPOINT_EVERY: u64 = 250_000_000;

/// Where the committed figures live, relative to the repository root.
const RESULTS_DIR: &str = "results";

/// Cold or warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Warm,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Cold => "cold",
            Kind::Warm => "warm",
        }
    }
}

/// The figures a workload renders.
pub fn figures(kind: Kind, smoke: bool) -> Vec<&'static dyn Figure> {
    if smoke {
        return SMOKE_FIGURES
            .iter()
            .map(|id| ehs_bench::figures::by_id(id).expect("smoke figure is registered"))
            .collect();
    }
    REGISTRY
        .iter()
        .copied()
        .filter(|f| kind == Kind::Warm || f.id() != "fig27")
        .collect()
}

/// Every point the figures declare, and how many are unique.
pub fn points(figs: &[&'static dyn Figure]) -> (Vec<SimPoint>, usize) {
    let points: Vec<SimPoint> = figs.iter().flat_map(|f| f.points()).collect();
    let unique: HashSet<_> = points.iter().map(SimPoint::key).collect();
    let n = unique.len();
    (points, n)
}

/// A sweep like `paper`'s: disk cache and crash checkpoints in `cache`.
pub fn sweep_over(cache: &Path, jobs: usize) -> Sweep {
    Sweep::new(SweepOptions {
        jobs: Some(jobs),
        disk_cache: Some(cache.to_path_buf()),
        checkpoints: Some(CheckpointPolicy {
            dir: cache.to_path_buf(),
            every_cycles: CHECKPOINT_EVERY,
        }),
        slices: None,
    })
}

/// What one repetition did.
pub struct Rep {
    pub wall_s: f64,
    pub unique: usize,
    pub stats: SweepStats,
    pub point_errors: usize,
    pub rendered: usize,
    pub render_failures: usize,
}

/// One `paper` sequence over `figs`: points, one sweep, renders.
pub fn rep(
    figs: &[&'static dyn Figure],
    cache: &Path,
    out_dir: &Path,
    jobs: usize,
    spans: &mut Spans,
    label: &str,
) -> Rep {
    let sweep = sweep_over(cache, jobs);
    let t0 = Instant::now();
    spans.enter("paper.rep", label);
    spans.enter("figures.points", label);
    let (points, unique) = points(figs);
    spans.exit();
    spans.enter("sweep.wait", label);
    let results = sweep.request(points).wait();
    spans.exit();
    let cx = RenderCx {
        sweep: &sweep,
        out_dir: out_dir.to_path_buf(),
    };
    let mut render_failures = 0;
    for f in figs {
        spans.enter("figures.render", f.id());
        // A figure that cannot render counts as a failed operation
        // instead of ending the run; the panic message is printed.
        if catch_unwind(AssertUnwindSafe(|| f.render(&cx))).is_err() {
            render_failures += 1;
        }
        spans.exit();
    }
    spans.exit();
    let wall_s = t0.elapsed().as_secs_f64();
    Rep {
        wall_s,
        unique,
        stats: sweep.stats(),
        point_errors: results.iter().filter(|r| r.is_err()).count(),
        rendered: figs.len(),
        render_failures,
    }
}

/// Files among `figs`' outputs in `out_dir` that differ from (or lack)
/// the committed copy.
pub fn mismatched_files(figs: &[&'static dyn Figure], out_dir: &Path) -> Vec<String> {
    figs.iter()
        .map(|f| format!("{}.json", f.file_id()))
        .filter(|name| {
            let ours = std::fs::read(out_dir.join(name));
            let theirs = std::fs::read(Path::new(RESULTS_DIR).join(name));
            !matches!((ours, theirs), (Ok(a), Ok(b)) if a == b)
        })
        .collect()
}

/// Checks a repetition against what its kind must show and counts its
/// operations (one per unique point and one per rendered file) into
/// `tally`.
pub fn check_rep(
    kind: Kind,
    smoke: bool,
    rep: &Rep,
    figs: &[&'static dyn Figure],
    out_dir: &Path,
    tally: &mut Tally,
) {
    let expected = if smoke {
        SMOKE_UNIQUE_POINTS
    } else {
        PAPER_UNIQUE_POINTS
    };
    let s = rep.stats;
    let unique = rep.unique as u64;
    let sweep_ok = rep.unique == expected
        && match kind {
            Kind::Cold => s.simulated == unique && s.disk_hits == 0,
            Kind::Warm => s.simulated == 0 && s.disk_hits == unique,
        };
    tally.check(sweep_ok, || {
        format!(
            "paper {}: {} unique points (expected {expected}), {} simulated, {} disk hits",
            kind.label(),
            rep.unique,
            s.simulated,
            s.disk_hits
        )
    });
    let bad_files = mismatched_files(figs, out_dir);
    tally.check(bad_files.is_empty(), || {
        format!("rendered files differ from {RESULTS_DIR}/: {bad_files:?}")
    });
    let attempted = (rep.unique + rep.rendered) as u64;
    let failed = if sweep_ok {
        (rep.point_errors + rep.render_failures.max(bad_files.len())) as u64
    } else {
        attempted
    };
    tally.ops(attempted, failed);
}

/// The warm workload's cache for this build of the benchmark:
/// `<OUT_DIR>/warm-cache-<fingerprint>`, the fingerprint hashing the
/// executable's contents. A benchmark built from other code never reads
/// a cache a different simulator wrote, and an identical rebuild keeps
/// its cache. Of the other builds' caches, the most recently used ones
/// stay, up to [`WARM_CACHES_KEPT`] caches in all.
pub fn persistent_warm_cache() -> std::io::Result<PathBuf> {
    let exe = std::fs::read(std::env::current_exe()?)?;
    let fingerprint = crate::engine::fnv1a64(&exe, crate::engine::FNV_OFFSET);
    let out = Path::new(host::OUT_DIR);
    let dir = out.join(format!("warm-cache-{fingerprint:016x}"));
    std::fs::create_dir_all(&dir)?;
    // The directory's modification time records when it was last used.
    std::fs::File::open(&dir)?.set_modified(SystemTime::now())?;
    let mut others: Vec<(SystemTime, PathBuf)> = std::fs::read_dir(out)?
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("warm-cache-"))
        .map(|e| e.path())
        .filter(|p| *p != dir)
        .map(|p| {
            let used = std::fs::metadata(&p).and_then(|m| m.modified());
            (used.unwrap_or(SystemTime::UNIX_EPOCH), p)
        })
        .collect();
    others.sort_by_key(|o| std::cmp::Reverse(o.0));
    for (_, old) in others.into_iter().skip(WARM_CACHES_KEPT - 1) {
        std::fs::remove_dir_all(old)?;
    }
    Ok(dir)
}

/// Runs one paper workload and records its metrics.
pub fn run(kind: Kind, opts: &RunOpts, spans: &mut Spans, m: &mut Metrics, tally: &mut Tally) {
    let figs = figures(kind, opts.smoke);
    let jobs = opts.host.jobs;

    // The warm workload reads one cache in every repetition: this
    // build's, or for a smoke run a scratch directory that lives as long
    // as the workload. The cold workload starts each repetition empty.
    let mut smoke_cache = None;
    let warm_cache = if kind == Kind::Cold {
        None
    } else {
        let dir = if opts.smoke {
            Scratch::new("paper-warm-cache").map(|s| smoke_cache.insert(s).path().to_path_buf())
        } else {
            persistent_warm_cache()
        };
        let dir = match dir {
            Ok(dir) => dir,
            Err(e) => {
                tally.check(false, || format!("cannot prepare the warm cache: {e}"));
                return;
            }
        };
        // Fills whatever the cache lacks (everything, the first time for
        // a build); not timed, as users of a warm run have paid it.
        let t = Instant::now();
        let (pts, _) = points(&figs);
        let fill = sweep_over(&dir, jobs);
        let _ = fill.request(pts).wait();
        let filled = fill.stats().simulated;
        if filled > 0 {
            println!(
                "[ehs_benchmark] paper_warm: filled {filled} missing cache entries in {:.1} s",
                t.elapsed().as_secs_f64()
            );
        }
        Some(dir)
    };

    let mut reference = Reference::new();
    // Half the set-up samples just before the repetitions and the rest
    // just after them.
    let mut setup_timer = SetupTimer::new(SETUP_BATCH);
    for _ in 0..SETUP_SAMPLES / 2 {
        setup_timer.sample(&mut reference, || points(&figs));
    }
    host::reset_peak_rss();
    let (mut walls, mut traced_walls, mut chunks_s) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    loop {
        let traced = opts.traced && walls.len() > traced_walls.len();
        let scratch = match Scratch::new(&format!("paper-{}", kind.label())) {
            Ok(s) => s,
            Err(e) => {
                tally.check(false, || format!("cannot create a scratch directory: {e}"));
                return;
            }
        };
        let out_dir = scratch.path().join("out");
        let cache = warm_cache
            .clone()
            .unwrap_or_else(|| scratch.path().join("cache"));
        spans.set_on(traced);
        let (r, chunk_s) =
            reference.alongside(|| rep(&figs, &cache, &out_dir, jobs, spans, kind.label()));
        spans.set_on(false);
        check_rep(kind, opts.smoke, &r, &figs, &out_dir, tally);
        if traced {
            traced_walls.push(r.wall_s);
        } else {
            walls.push(r.wall_s);
            chunks_s.push(chunk_s);
        }
        let reps = walls.len() + traced_walls.len();
        let enough = reps >= opts.reps && (!opts.traced || !traced_walls.is_empty());
        if enough && (opts.smoke || t0.elapsed().as_secs_f64() >= opts.seconds) {
            break;
        }
    }
    let peak = host::peak_rss_mb();
    setup_timer.fill(&mut reference, || points(&figs));

    if opts.traced {
        m.trace_walls(&traced_walls, &walls);
    } else {
        m.set_walls(&walls, &chunks_s);
        m.set_median("setup_s", &setup_timer.samples);
        m.set("peak_rss_mb", peak.unwrap_or(f64::NAN));
    }
    m.info_median("setup_raw_s", "s", &setup_timer.raw);
    m.info("jobs", "count", jobs as f64, 1);
    m.info("figures", "count", figs.len() as f64, 1);
    if let Some((p, v)) = stats::tail(&walls) {
        m.info(format!("wall_raw_s_p{p}"), "s", v, walls.len());
    }
}
