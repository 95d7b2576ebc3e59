//! Invariant checking over the simulator's event stream.
//!
//! [`InvariantSink`] plugs into [`Machine::set_trace_sink`]
//! (ehs-sim's [`TraceSink`] API) and audits events as they are emitted:
//!
//! * **Prefetch fate** — every `PrefetchIssued` block enters a model of
//!   the prefetch buffer and must leave it exactly once, via
//!   `BufferHit`, `EvictedUnused` or a power-loss `LostUnused` wipe
//!   (entries still resident at the end of the run are reconciled
//!   against the buffer statistics). Duplicate in-flight issues are
//!   violations: the machine suppresses them.
//! * **Degree cap** — while a throttled path (IPEX or an alternative
//!   policy) is in energy-saving mode (current degree below its initial
//!   degree), the number of prefetches issued per cycle on that path
//!   must not exceed the throttled degree cap.
//! * **Backup/restore pairing** — restores never outnumber outages, an
//!   outage is followed by at most one restore, and (without
//!   `ideal_backup`) every outage performs exactly one backup.
//! * **Energy conservation** — per-power-cycle summary buckets are
//!   finite and non-negative, cycle stamps are monotone, and the summed
//!   summaries reconcile exactly with the run's aggregate
//!   [`SimResult`] counters.
//!
//! The sink is cloneable ([`Arc`]`<`[`Mutex`]`>` inside, the same
//! pattern as ehs-sim's `CountingSink`): hand one clone to the machine
//! and call [`InvariantSink::finish`] on the other after the run.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use ehs_sim::{PathId, PrefetchMode, SimConfig, SimEvent, SimResult, TraceSink};

/// Cap on recorded violation messages (a broken run can emit millions).
const MAX_VIOLATIONS: usize = 32;

#[derive(Debug, Default)]
struct PathModel {
    /// Blocks issued and not yet resolved (the modelled buffer).
    in_flight: BTreeSet<u32>,
    /// `Rcpd` as last reported by a `ThresholdCross` (IPEX paths only).
    cur_degree: Option<u32>,
    /// Prefetches issued at `issue_cycle` (for the per-cycle degree cap).
    issue_cycle: u64,
    issued_this_cycle: u64,
}

#[derive(Debug)]
struct Inner {
    buf_entries: usize,
    ideal_backup: bool,
    /// Initial degree per path, `None` when the path is unthrottled.
    initial_degree: [Option<u32>; 2],
    paths: [PathModel; 2],
    last_cycle: u64,
    outages: u64,
    backups: u64,
    restores: u64,
    summary_count: u64,
    sum_on_cycles: u64,
    sum_off_cycles: u64,
    sum_cache_nj: f64,
    sum_memory_nj: f64,
    sum_compute_nj: f64,
    sum_backup_restore_nj: f64,
    violations: Vec<String>,
    suppressed: u64,
}

impl Inner {
    fn violate(&mut self, msg: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(msg);
        } else {
            self.suppressed += 1;
        }
    }

    fn path(&mut self, p: PathId) -> &mut PathModel {
        &mut self.paths[(p == PathId::Data) as usize]
    }

    fn record(&mut self, ev: &SimEvent) {
        let cycle = ev.cycle();
        if cycle < self.last_cycle {
            self.violate(format!(
                "time ran backwards: {} at cycle {cycle} after cycle {}",
                ev.kind(),
                self.last_cycle
            ));
        }
        self.last_cycle = cycle;
        match *ev {
            SimEvent::OutageBegin { .. } => self.outages += 1,
            SimEvent::BackupDone { .. } => {
                self.backups += 1;
                if self.ideal_backup {
                    self.violate(format!(
                        "backup performed at cycle {cycle} under ideal_backup"
                    ));
                }
            }
            SimEvent::Restore { .. } => {
                self.restores += 1;
                if self.restores > self.outages {
                    self.violate(format!(
                        "restore #{} at cycle {cycle} without a matching outage",
                        self.restores
                    ));
                }
                let leftovers: Vec<(usize, usize)> = self
                    .paths
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| !p.in_flight.is_empty())
                    .map(|(i, p)| (i, p.in_flight.len()))
                    .collect();
                for (i, n) in leftovers {
                    self.violate(format!(
                        "path {i}: {n} prefetches survived the outage un-wiped at restore \
                         (cycle {cycle})"
                    ));
                }
                // The controller reboots in high-performance mode at
                // `Ripd`; crossings below that re-announce themselves.
                for (p, init) in self.paths.iter_mut().zip(self.initial_degree) {
                    p.cur_degree = init;
                }
            }
            SimEvent::PrefetchIssued { path, block, .. } => {
                let init = self.initial_degree[(path == PathId::Data) as usize];
                let buf_entries = self.buf_entries;
                let m = self.path(path);
                if m.issue_cycle == cycle {
                    m.issued_this_cycle += 1;
                } else {
                    m.issue_cycle = cycle;
                    m.issued_this_cycle = 1;
                }
                let issued = m.issued_this_cycle;
                if !m.in_flight.insert(block) {
                    self.violate(format!(
                        "{path:?}: duplicate in-flight prefetch of block {block:#x} at cycle \
                         {cycle}"
                    ));
                } else if self.path(path).in_flight.len() > buf_entries + 1 {
                    // +1: the eviction event for a full buffer trails the
                    // issue event within the same cycle.
                    let len = self.path(path).in_flight.len();
                    self.violate(format!(
                        "{path:?}: {len} prefetches in flight exceeds the {buf_entries}-entry \
                         buffer at cycle {cycle}"
                    ));
                }
                if let (Some(init), Some(cur)) = (init, self.path(path).cur_degree) {
                    if cur < init && issued > u64::from(cur) {
                        self.violate(format!(
                            "{path:?}: {issued} prefetches issued in cycle {cycle} exceeds the \
                             throttled Rcpd cap of {cur}"
                        ));
                    }
                }
            }
            SimEvent::BufferHit { path, block, .. } => {
                if !self.path(path).in_flight.remove(&block) {
                    self.violate(format!(
                        "{path:?}: buffer hit on block {block:#x} that was never issued (cycle \
                         {cycle})"
                    ));
                }
            }
            SimEvent::EvictedUnused { path, block, .. } => {
                if !self.path(path).in_flight.remove(&block) {
                    self.violate(format!(
                        "{path:?}: eviction of block {block:#x} that was never issued (cycle \
                         {cycle})"
                    ));
                }
            }
            SimEvent::LostUnused { path, count, .. } => {
                let have = self.path(path).in_flight.len() as u64;
                if count != have {
                    self.violate(format!(
                        "{path:?}: power loss wiped {count} entries but {have} were in flight \
                         (cycle {cycle})"
                    ));
                }
                self.path(path).in_flight.clear();
            }
            SimEvent::ThresholdCross {
                path, new_degree, ..
            } => {
                self.path(path).cur_degree = Some(new_degree);
            }
            SimEvent::PowerCycleSummary {
                on_cycles,
                off_cycles,
                cache_nj,
                memory_nj,
                compute_nj,
                backup_restore_nj,
                throttle_rate,
                power_cycle,
                ..
            } => {
                self.summary_count += 1;
                self.sum_on_cycles += on_cycles;
                self.sum_off_cycles += off_cycles;
                self.sum_cache_nj += cache_nj;
                self.sum_memory_nj += memory_nj;
                self.sum_compute_nj += compute_nj;
                self.sum_backup_restore_nj += backup_restore_nj;
                for (name, v) in [
                    ("cache_nj", cache_nj),
                    ("memory_nj", memory_nj),
                    ("compute_nj", compute_nj),
                    ("backup_restore_nj", backup_restore_nj),
                ] {
                    if !v.is_finite() || v < 0.0 {
                        self.violate(format!(
                            "power cycle {power_cycle}: energy bucket {name} = {v} is negative \
                             or non-finite"
                        ));
                    }
                }
                if !(0.0..=1.0).contains(&throttle_rate) {
                    self.violate(format!(
                        "power cycle {power_cycle}: throttle rate {throttle_rate} outside [0, 1]"
                    ));
                }
            }
            SimEvent::PrefetchThrottled { .. }
            | SimEvent::PrefetchReissued { .. }
            | SimEvent::LatePrefetch { .. }
            | SimEvent::CacheFill { .. }
            | SimEvent::Writeback { .. }
            | SimEvent::PolicyAdapt { .. } => {}
        }
    }

    /// End-of-run checks; `result` enables reconciliation against the
    /// aggregate counters of a *completed* run.
    fn finish(&self, result: Option<&SimResult>) -> Vec<String> {
        let mut v = self.violations.clone();
        if self.suppressed > 0 {
            v.push(format!("... and {} more violations", self.suppressed));
        }
        if self.restores > self.outages || self.outages > self.restores + 1 {
            v.push(format!(
                "{} outages vs {} restores: not paired within one",
                self.outages, self.restores
            ));
        }
        if self.ideal_backup {
            if self.backups != 0 {
                v.push(format!("{} backups under ideal_backup", self.backups));
            }
        } else if self.backups != self.outages {
            v.push(format!(
                "{} outages but {} backups: every outage must checkpoint exactly once",
                self.outages, self.backups
            ));
        }
        let Some(r) = result else { return v };
        if r.stats.power_cycles != self.restores + 1 {
            v.push(format!(
                "{} power cycles reported but {} restores observed",
                r.stats.power_cycles, self.restores
            ));
        }
        if self.summary_count != r.stats.power_cycles {
            v.push(format!(
                "{} power-cycle summaries for {} power cycles",
                self.summary_count, r.stats.power_cycles
            ));
        }
        if self.sum_on_cycles != r.stats.on_cycles {
            v.push(format!(
                "summaries account for {} on-cycles, run reports {}",
                self.sum_on_cycles, r.stats.on_cycles
            ));
        }
        if self.sum_off_cycles != r.stats.off_cycles {
            v.push(format!(
                "summaries account for {} off-cycles, run reports {}",
                self.sum_off_cycles, r.stats.off_cycles
            ));
        }
        for (name, summed, total) in [
            ("cache_nj", self.sum_cache_nj, r.energy.cache_nj),
            ("memory_nj", self.sum_memory_nj, r.energy.memory_nj),
            ("compute_nj", self.sum_compute_nj, r.energy.compute_nj),
            (
                "backup_restore_nj",
                self.sum_backup_restore_nj,
                r.energy.backup_restore_nj,
            ),
        ] {
            // The summaries are deltas of the same running totals, so
            // they reconcile up to float summation order.
            let tol = 1e-6 + 1e-9 * total.abs();
            if (summed - total).abs() > tol {
                v.push(format!(
                    "energy not conserved in {name}: per-cycle summaries sum to {summed} nJ, \
                     run total is {total} nJ"
                ));
            }
        }
        // Prefetch fate: whatever never resolved must still be resident
        // in the real buffer.
        for (model, stats, label) in [
            (&self.paths[0], &r.ibuf, "inst"),
            (&self.paths[1], &r.dbuf, "data"),
        ] {
            let resident = stats.inserted - stats.useful - stats.evicted_unused - stats.lost_unused;
            if model.in_flight.len() as u64 != resident {
                v.push(format!(
                    "{label} path: {} prefetches unresolved in the event stream but the buffer \
                     reports {resident} resident",
                    model.in_flight.len()
                ));
            }
        }
        v
    }
}

/// A [`TraceSink`] that audits simulator invariants while a run is in
/// flight. See the [module documentation](self).
#[derive(Debug, Clone)]
pub struct InvariantSink {
    inner: Arc<Mutex<Inner>>,
}

impl InvariantSink {
    /// Builds a sink primed with the configuration facts the checks
    /// depend on (buffer capacity, policy initial degrees, ideal backup).
    pub fn for_config(cfg: &SimConfig) -> InvariantSink {
        let ipd = |mode: &PrefetchMode| match mode {
            PrefetchMode::Policy(pc) => Some(pc.initial_degree()),
            _ => None,
        };
        let initial_degree = [ipd(&cfg.inst_mode), ipd(&cfg.data_mode)];
        InvariantSink {
            inner: Arc::new(Mutex::new(Inner {
                buf_entries: cfg.prefetch_buffer_entries,
                ideal_backup: cfg.ideal_backup,
                initial_degree,
                paths: [
                    PathModel {
                        cur_degree: initial_degree[0],
                        ..PathModel::default()
                    },
                    PathModel {
                        cur_degree: initial_degree[1],
                        ..PathModel::default()
                    },
                ],
                last_cycle: 0,
                outages: 0,
                backups: 0,
                restores: 0,
                summary_count: 0,
                sum_on_cycles: 0,
                sum_off_cycles: 0,
                sum_cache_nj: 0.0,
                sum_memory_nj: 0.0,
                sum_compute_nj: 0.0,
                sum_backup_restore_nj: 0.0,
                violations: Vec::new(),
                suppressed: 0,
            })),
        }
    }

    /// Violations found so far plus end-of-run pairing checks; pass the
    /// [`SimResult`] of a completed run to also reconcile the aggregate
    /// counters. Empty means every invariant held.
    pub fn finish(&self, result: Option<&SimResult>) -> Vec<String> {
        self.inner
            .lock()
            .expect("invariant sink poisoned")
            .finish(result)
    }
}

impl TraceSink for InvariantSink {
    fn emit(&mut self, ev: &SimEvent) {
        self.inner
            .lock()
            .expect("invariant sink poisoned")
            .record(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehs_energy::PowerTrace;
    use ehs_sim::{Ipex, Machine};

    fn run_with_sink(cfg: SimConfig, mw: f64) -> Vec<String> {
        let w = ehs_workloads::by_name("strings").unwrap();
        let mut m = Machine::with_trace(cfg.clone(), &w.program(), PowerTrace::constant_mw(mw, 8));
        let sink = InvariantSink::for_config(&cfg);
        m.set_trace_sink(Box::new(sink.clone()));
        let r = m.run().expect("completes");
        sink.finish(Some(&r))
    }

    #[test]
    fn invariants_hold_under_steady_power() {
        let v = run_with_sink(SimConfig::default(), 50.0);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn invariants_hold_across_outages() {
        use ipex::{HysteresisConfig, PolicyConfig, PredictiveConfig};
        for cfg in [
            SimConfig::default(),
            SimConfig::builder().ipex(Ipex::Both).build(),
            SimConfig::builder()
                .throttle_policy(
                    Ipex::Both,
                    PolicyConfig::Predictive(PredictiveConfig::paper_default()),
                )
                .build(),
            SimConfig::builder()
                .throttle_policy(
                    Ipex::Both,
                    PolicyConfig::Hysteresis(HysteresisConfig::paper_default()),
                )
                .build(),
        ] {
            let v = run_with_sink(cfg, 5.0);
            assert!(v.is_empty(), "{v:?}");
        }
    }

    #[test]
    fn synthetic_unmatched_restore_is_flagged() {
        let cfg = SimConfig::default();
        let mut sink = InvariantSink::for_config(&cfg);
        sink.emit(&SimEvent::Restore {
            cycle: 10,
            power_cycle: 2,
        });
        let v = sink.finish(None);
        assert!(
            v.iter().any(|m| m.contains("without a matching outage")),
            "{v:?}"
        );
    }

    #[test]
    fn synthetic_double_issue_is_flagged() {
        let cfg = SimConfig::default();
        let mut sink = InvariantSink::for_config(&cfg);
        for _ in 0..2 {
            sink.emit(&SimEvent::PrefetchIssued {
                cycle: 5,
                path: PathId::Inst,
                block: 0x40,
                done_at: 17,
            });
        }
        let v = sink.finish(None);
        assert!(v.iter().any(|m| m.contains("duplicate in-flight")), "{v:?}");
    }
}
