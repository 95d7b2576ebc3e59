//! Failure injection: outage storms, degenerate traces and pathological
//! configurations must degrade gracefully, never corrupt results.
//!
//! The storm and tiny-capacitor scenarios sweep five workloads of very
//! different memory behaviour (sorting, FFT, crypto, tries, JPEG) and
//! hold the full `ehs-verify` differential bar — every register and the
//! whole memory image — not just the `a0` checksum.

use ehs_repro::energy::{CapacitorConfig, PowerTrace};
use ehs_repro::isa::Reg;
use ehs_repro::sim::{Ipex, Machine, SimConfig, SimError};
use ehs_repro::verify::oracle::{golden_state, ArchState, Divergence};
use ehs_repro::verify::run_parallel;

/// The five stress workloads (distinct access patterns, modest debug
/// runtimes).
const STRESS_WORKLOADS: [&str; 5] = ["qsort", "fft", "rijndaele", "patricia", "jpegd"];

/// Runs `w` on the machine under `cfg`/`trace` and demands full
/// architectural equality with the golden interpreter; returns the
/// observed number of power cycles.
fn check_full_state(w: &ehs_repro::workloads::Workload, cfg: SimConfig, trace: PowerTrace) -> u64 {
    let program = w.program();
    let golden = golden_state(&program, cfg.nvm.size_bytes as usize)
        .unwrap_or_else(|e| panic!("{}: golden run faulted: {e}", w.name()));
    let mut m = Machine::with_trace(cfg, &program, trace);
    let r = m
        .run()
        .unwrap_or_else(|e| panic!("{} failed: {e}", w.name()));
    if let Some(d) = Divergence::between(&golden, &ArchState::of_machine(&m)) {
        panic!(
            "{}: state corrupted across {} power cycles: {d}",
            w.name(),
            r.stats.power_cycles
        );
    }
    r.stats.power_cycles
}

#[test]
fn outage_storm_still_produces_correct_checksum() {
    // A sawtooth supply: strong enough to recharge quickly, too weak to
    // sustain execution for long -> dozens of outages.
    let samples: Vec<f64> = (0..1000)
        .map(|i| if i % 5 == 0 { 10.0 } else { 0.2 })
        .collect();
    let trace = PowerTrace::from_samples_mw(samples);
    let w = ehs_repro::workloads::by_name("gsmd").unwrap();
    let mut m = Machine::with_trace(
        SimConfig::builder().ipex(Ipex::Both).build(),
        &w.program(),
        trace,
    );
    let r = m.run().expect("survives the storm");
    assert!(
        r.stats.power_cycles > 50,
        "expected an outage storm, got {}",
        r.stats.power_cycles
    );
    assert_eq!(m.reg(Reg::A0), w.reference_checksum());
}

#[test]
fn outage_storm_preserves_full_state_across_workloads() {
    // Same sawtooth supply as above, across five workloads in parallel.
    let samples: Vec<f64> = (0..1000)
        .map(|i| if i % 5 == 0 { 10.0 } else { 0.2 })
        .collect();
    let trace = PowerTrace::from_samples_mw(samples);
    let cycles = run_parallel(&STRESS_WORKLOADS, |name| {
        let w = ehs_repro::workloads::by_name(name).unwrap();
        (
            *name,
            check_full_state(
                w,
                SimConfig::builder().ipex(Ipex::Both).build(),
                trace.clone(),
            ),
        )
    });
    for (name, power_cycles) in cycles {
        // The shortest of the five (rijndaele) sees ~40 outages; the
        // point is dozens of cycles, not a specific count.
        assert!(
            power_cycles > 30,
            "{name}: expected an outage storm, got {power_cycles} power cycles"
        );
    }
}

#[test]
fn tiny_capacitor_preserves_full_state_across_workloads() {
    // A very small capacitor: each power cycle fits only a handful of
    // instructions, but forward progress and state integrity must hold
    // for every access pattern.
    let mut cfg = SimConfig::builder().ipex(Ipex::Both).build();
    cfg.capacitor = CapacitorConfig {
        capacitance_uf: 0.05,
        ..CapacitorConfig::paper_default()
    };
    cfg.max_cycles = 20_000_000_000;
    let trace = PowerTrace::constant_mw(3.0, 16);
    let cycles = run_parallel(&STRESS_WORKLOADS, |name| {
        let w = ehs_repro::workloads::by_name(name).unwrap();
        (*name, check_full_state(w, cfg.clone(), trace.clone()))
    });
    for (name, power_cycles) in cycles {
        assert!(
            power_cycles > 100,
            "{name}: expected a storm of tiny power cycles, got {power_cycles}"
        );
    }
}

#[test]
fn dead_supply_reports_cycle_limit_not_hang() {
    let trace = PowerTrace::constant_mw(0.0001, 4);
    let cfg = SimConfig {
        max_cycles: 2_000_000,
        ..SimConfig::default()
    };
    let w = ehs_repro::workloads::by_name("gsmd").unwrap();
    let err = Machine::with_trace(cfg, &w.program(), trace)
        .run()
        .unwrap_err();
    assert!(matches!(err, SimError::CycleLimit { .. }));
}

#[test]
fn tiny_capacitor_still_makes_progress() {
    // A very small capacitor: each power cycle fits only a handful of
    // instructions, but forward progress must continue.
    let mut cfg = SimConfig::builder().ipex(Ipex::Both).build();
    cfg.capacitor = CapacitorConfig {
        capacitance_uf: 0.05,
        ..CapacitorConfig::paper_default()
    };
    cfg.max_cycles = 20_000_000_000;
    let trace = PowerTrace::constant_mw(3.0, 16);
    let w = ehs_repro::workloads::by_name("gsmd").unwrap();
    let mut m = Machine::with_trace(cfg, &w.program(), trace);
    let r = m.run().expect("completes eventually");
    assert!(r.stats.power_cycles > 100);
    assert_eq!(m.reg(Reg::A0), w.reference_checksum());
}

#[test]
fn giant_capacitor_runs_in_one_power_cycle() {
    let cfg = SimConfig {
        capacitor: CapacitorConfig::with_capacitance_uf(1000.0),
        ..SimConfig::default()
    };
    let w = ehs_repro::workloads::by_name("gsmd").unwrap();
    let r = Machine::with_trace(cfg, &w.program(), SimConfig::default_trace())
        .run()
        .expect("completes");
    assert_eq!(
        r.stats.power_cycles, 1,
        "1000 uF should never see an outage"
    );
    assert_eq!(r.energy.backup_restore_nj, 0.0);
}
