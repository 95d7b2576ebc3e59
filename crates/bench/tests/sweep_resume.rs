//! Interrupted-sweep resume: a `paper`-style run killed mid-flight must
//! restart from its crash checkpoints and publish byte-identical
//! results.
//!
//! The scenario mirrors `paper --no-cache --checkpoint-every N`: no
//! on-disk result cache (every point re-simulates), but in-flight
//! machines checkpoint periodically. The test runs a small point set
//! cold, then "interrupts" a second run by executing each point partway
//! and leaving its checkpoint behind, and finally lets a fresh engine
//! finish the job. The resumed engine must produce a byte-identical
//! results file, report every point as resumed, and simulate strictly
//! fewer cycles than the cold run.

use std::path::Path;

use ehs_bench::{
    write_checkpoint, write_results_to, CheckpointPolicy, SimPoint, Sweep, SweepOptions,
};
use ehs_sim::prelude::*;

fn points() -> Vec<SimPoint> {
    let trace = TraceSpec::Constant {
        power_mw: 50.0,
        samples: 8,
    };
    vec![
        SimPoint::new("gsmd", SimConfig::builder().build(), trace.clone()),
        SimPoint::new(
            "gsmd",
            SimConfig::builder().ipex(Ipex::Both).build(),
            trace.clone(),
        ),
        SimPoint::new("strings", SimConfig::builder().build(), trace),
    ]
}

/// Resolves the point set through `sweep` and writes the figure-style
/// results JSON, returning the file's bytes.
fn run_and_publish(sweep: &Sweep, dir: &Path) -> Vec<u8> {
    let results: Vec<SimResult> = sweep
        .request(points())
        .wait()
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("every point completes");
    write_results_to(dir, "sweep_resume", &results);
    std::fs::read(dir.join("sweep_resume.json")).expect("results file written")
}

#[test]
fn interrupted_sweep_resumes_with_byte_identical_results() {
    let tmp = std::env::temp_dir().join(format!("ehs-sweep-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let policy = CheckpointPolicy {
        dir: tmp.join("ckpt"),
        every_cycles: 25_000,
    };
    let opts = || SweepOptions {
        jobs: Some(2),
        disk_cache: None, // the `--no-cache` shape: results never persist
        checkpoints: Some(policy.clone()),
        ..SweepOptions::default()
    };

    // Cold reference run.
    let cold_sweep = Sweep::new(opts());
    let cold_bytes = run_and_publish(&cold_sweep, &tmp.join("cold"));
    let cold_stats = cold_sweep.stats();
    assert_eq!(cold_stats.resumed, 0, "{cold_stats:?}");

    // "Interrupt" a second run: execute every point partway by hand and
    // leave the checkpoints a killed engine would have left.
    for point in points() {
        let workload = ehs_workloads::by_name(point.workload).unwrap();
        let program = workload.program();
        let trace = point.trace.synthesize();
        let mut m = Machine::with_trace(point.config.clone(), &program, trace);
        assert!(matches!(
            m.run_until(40_000).expect("partial run"),
            RunStatus::Paused
        ));
        write_checkpoint(&policy.path_for(point.key()), &m.snapshot(&program));
    }

    // Restarted run: must resume every point and publish the same bytes.
    let warm_sweep = Sweep::new(opts());
    let warm_bytes = run_and_publish(&warm_sweep, &tmp.join("warm"));
    let warm_stats = warm_sweep.stats();
    assert_eq!(
        warm_bytes, cold_bytes,
        "resumed run published different results"
    );
    assert_eq!(warm_stats.resumed, 3, "{warm_stats:?}");
    assert!(
        warm_stats.cycles_simulated < cold_stats.cycles_simulated,
        "resume repaid {} cycles, cold run took {}",
        warm_stats.cycles_simulated,
        cold_stats.cycles_simulated
    );
    for point in points() {
        assert!(
            !policy.path_for(point.key()).exists(),
            "checkpoint for {} not cleaned up",
            point.key()
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
