//! Golden reproducibility for seed-swept stats artefacts: the JSON a
//! stats evaluation writes must be **byte-identical** across a cold
//! run, a warm-cache run, and a run that was killed mid-simulation and
//! resumed from a crash checkpoint (PR 4's snapshot machinery).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ehs_bench::figures::{Figure, Headline, RenderCx};
use ehs_bench::monte::{self, SeedPlan};
use ehs_bench::sweep::{CheckpointPolicy, SimPoint, Sweep, SweepOptions};
use ehs_bench::write_checkpoint;
use ehs_energy::{TraceKind, TraceSpec};
use ehs_sim::prelude::*;

/// A private single-headline figure kept deliberately small (one
/// no-prefetch configuration, a short synthetic trace) so the test
/// simulates the suite a handful of times, not the full registry.
struct LocalFig;

fn small_trace() -> TraceSpec {
    TraceSpec::Synthetic {
        kind: TraceKind::RfHome,
        seed: 7,
        samples: 4_000,
    }
}

fn nopf() -> SimConfig {
    SimConfig::builder().no_prefetch().build()
}

impl Figure for LocalFig {
    fn id(&self) -> &'static str {
        "local"
    }

    fn file_id(&self) -> &'static str {
        "local_golden_stats"
    }

    fn title(&self) -> &'static str {
        "golden-test headline"
    }

    fn points(&self) -> Vec<SimPoint> {
        self.headlines()
            .iter()
            .flat_map(|h| h.points_under(&h.base_trace))
            .collect()
    }

    fn headlines(&self) -> Vec<Headline> {
        fn mean_istall(s: &[BTreeMap<&'static str, SimResult>]) -> f64 {
            s[0].values()
                .map(|r| r.stats.istall_fraction())
                .sum::<f64>()
                / s[0].len() as f64
        }
        vec![Headline {
            label: "mean_istall_fraction".into(),
            base_trace: small_trace(),
            configs: vec![nopf()],
            eval: mean_istall,
        }]
    }

    fn render(&self, _cx: &RenderCx<'_>) {}
}

fn unique_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ehs-stats-golden-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Evaluates the local figure on `sweep` and returns the exact bytes of
/// its stats artefact.
fn stats_bytes(sweep: &Sweep, plan: &SeedPlan, out_dir: &Path) -> Vec<u8> {
    let fs = monte::evaluate_figure(&LocalFig, sweep, plan).expect("one headline");
    monte::write_stats(out_dir, &fs);
    std::fs::read(out_dir.join("stats").join("local_golden_stats.json")).expect("stats file")
}

#[test]
fn stats_json_is_identical_cold_warm_and_resumed() {
    let plan = SeedPlan::new(2, 500);

    // Cold: empty disk cache, everything simulates.
    let cache = unique_dir("cache");
    let out_cold = unique_dir("out-cold");
    let cold_sweep = Sweep::new(SweepOptions {
        jobs: Some(1),
        disk_cache: Some(cache.clone()),
        ..SweepOptions::default()
    });
    let cold = stats_bytes(&cold_sweep, &plan, &out_cold);
    assert!(cold_sweep.stats().simulated > 0, "cold run must simulate");

    // Warm: a fresh engine on the same cache resolves every point from
    // disk and must emit the same bytes.
    let out_warm = unique_dir("out-warm");
    let warm_sweep = Sweep::new(SweepOptions {
        jobs: Some(1),
        disk_cache: Some(cache.clone()),
        ..SweepOptions::default()
    });
    let warm = stats_bytes(&warm_sweep, &plan, &out_warm);
    let warm_stats = warm_sweep.stats();
    assert_eq!(warm_stats.simulated, 0, "warm run must be all disk hits");
    assert!(warm_stats.disk_hits > 0, "{warm_stats:?}");
    assert_eq!(warm, cold, "warm-cache stats JSON must be byte-identical");

    // Killed-then-resumed: plant a mid-run crash checkpoint for one of
    // the points (as if a previous process died there), then evaluate
    // on a fresh cache with checkpointing enabled. The resumed
    // simulation must reproduce the cold bytes exactly.
    let ckpt_cache = unique_dir("ckpt-cache");
    let policy = CheckpointPolicy {
        dir: ckpt_cache.clone(),
        every_cycles: 50_000,
    };
    let fig = LocalFig;
    let point = fig.points().into_iter().next().expect("at least one point");
    let workload = ehs_workloads::by_name(point.workload).unwrap();
    let program = workload.program();
    let mut machine = Machine::with_trace(point.config.clone(), &program, point.trace.synthesize());
    assert!(
        matches!(machine.run_until(40_000).unwrap(), RunStatus::Paused),
        "the workload must still be mid-flight at the planted checkpoint"
    );
    write_checkpoint(&policy.path_for(point.key()), &machine.snapshot(&program));

    let out_resumed = unique_dir("out-resumed");
    let resumed_sweep = Sweep::new(SweepOptions {
        jobs: Some(1),
        disk_cache: Some(ckpt_cache.clone()),
        checkpoints: Some(policy),
        ..SweepOptions::default()
    });
    let resumed = stats_bytes(&resumed_sweep, &plan, &out_resumed);
    let resumed_stats = resumed_sweep.stats();
    assert_eq!(resumed_stats.resumed, 1, "{resumed_stats:?}");
    assert_eq!(
        resumed, cold,
        "killed-then-resumed stats JSON must be byte-identical"
    );

    for dir in [cache, ckpt_cache, out_cold, out_warm, out_resumed] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
