//! The golden equivalence test behind the `paper` binary's promise:
//! rendering fig10 on a fresh in-memory engine, the `paper` way (points
//! requested up front, disk cache, render from memo), and again warm
//! from the cache must all produce byte-identical
//! `results/fig10_speedup_baseline.json` — and the engine's counters
//! must prove each unique point was simulated exactly once (cold) and
//! never (warm).

use std::collections::HashSet;
use std::path::PathBuf;

use ehs_bench::figures::{by_id, RenderCx};
use ehs_bench::sweep::{Sweep, SweepOptions};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ehs-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fig10_is_byte_identical_across_engines_and_cache_states() {
    let fig = by_id("fig10").expect("fig10 registered");
    let file = format!("{}.json", fig.file_id());

    // 1. In-memory engine: no disk cache, points resolved on demand
    //    during rendering.
    let memory_dir = tmp_dir("memory");
    {
        let sweep = Sweep::in_memory();
        let cx = RenderCx {
            sweep: &sweep,
            out_dir: memory_dir.clone(),
        };
        fig.render(&cx);
    }

    // 2. Paper path, cold: request the declared points first, then
    //    render from the memo store, persisting to a disk cache.
    let cache_dir = tmp_dir("cache");
    let cold_dir = tmp_dir("cold");
    {
        let sweep = Sweep::new(SweepOptions {
            disk_cache: Some(cache_dir.clone()),
            ..SweepOptions::default()
        });
        let points = fig.points();
        let unique: HashSet<_> = points.iter().map(|p| p.key()).collect();
        let n_unique = unique.len() as u64;
        let _ = sweep.request(points).wait();
        let cx = RenderCx {
            sweep: &sweep,
            out_dir: cold_dir.clone(),
        };
        fig.render(&cx);
        let s = sweep.stats();
        assert_eq!(
            s.simulated, n_unique,
            "cold run must simulate each unique point exactly once: {s:?}"
        );
        assert_eq!(s.disk_hits, 0, "{s:?}");
    }

    // 3. Paper path, warm: a fresh engine over the same cache renders
    //    without simulating anything.
    let warm_dir = tmp_dir("warm");
    {
        let sweep = Sweep::new(SweepOptions {
            disk_cache: Some(cache_dir.clone()),
            ..SweepOptions::default()
        });
        let cx = RenderCx {
            sweep: &sweep,
            out_dir: warm_dir.clone(),
        };
        fig.render(&cx);
        let s = sweep.stats();
        assert_eq!(s.simulated, 0, "warm run must be simulation-free: {s:?}");
        assert!(s.disk_hits > 0, "{s:?}");
    }

    let memory = std::fs::read(memory_dir.join(&file)).expect("in-memory results");
    let cold = std::fs::read(cold_dir.join(&file)).expect("cold results");
    let warm = std::fs::read(warm_dir.join(&file)).expect("warm results");
    assert!(
        memory == cold,
        "cold paper run diverged from in-memory engine bytes"
    );
    assert!(
        memory == warm,
        "warm paper run diverged from in-memory engine bytes"
    );

    for d in [memory_dir, cache_dir, cold_dir, warm_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}
