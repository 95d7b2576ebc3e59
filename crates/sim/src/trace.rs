//! Cycle-stamped event tracing for the simulator.
//!
//! The aggregate counters in [`SimResult`](crate::SimResult) say *how
//! much* happened; this module records *when*. Every interesting action
//! of the core loop — outages, backups, prefetch issues/throttles,
//! buffer hits, late arrivals, cache fills, write-backs, IPEX threshold
//! crossings — is emitted as a [`SimEvent`] through a [`Tracer`] owned
//! by the machine.
//!
//! # Cost model
//!
//! Tracing is off by default and designed to vanish: every emission site
//! goes through [`Tracer::emit_with`], which takes a *closure* building
//! the event. When tracing is disabled the closure is never called, so
//! the disabled path is a single predictable branch. Every throughput
//! figure the repository records (`core_bench`, the benchmark package)
//! runs with tracing off, so that branch is inside their numbers;
//! `core_bench` also times one [`TraceMode::Counting`] pass and prints
//! its cost.
//!
//! # Sinks
//!
//! Where events go is pluggable via [`TraceSink`]:
//!
//! * [`CountingSink`] — shared per-kind counters, for tests,
//! * [`JsonlSink`] — one JSON object per line, for offline analysis
//!   (`diag --trace` writes one and prints the per-power-cycle table).
//!
//! Independent of the sink, an enabled [`Tracer`] maintains
//! [`EventCounts`], which reconcile exactly with the `SimResult`
//! aggregates ([`EventCounts::reconcile`] lists the identities).

use std::io::{BufWriter, Write};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::SimResult;

/// Which memory path an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum PathId {
    /// Instruction side (ICache + its prefetch buffer).
    Inst,
    /// Data side (DCache + its prefetch buffer).
    Data,
}

impl PathId {
    /// Stable short label (`"I"` / `"D"`) for human-readable output.
    pub fn letter(self) -> &'static str {
        match self {
            PathId::Inst => "I",
            PathId::Data => "D",
        }
    }
}

/// One cycle-stamped simulator event.
///
/// Serialized externally tagged (`{"prefetch-issued": {...}}` after the
/// container's kebab-case rename), one JSON object per JSONL line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum SimEvent {
    /// The capacitor crossed `V_backup`: a JIT checkpoint begins.
    OutageBegin {
        /// Cycle at which the backup trigger fired.
        cycle: u64,
        /// Capacitor voltage at the trigger.
        voltage: f64,
    },
    /// The checkpoint finished and the machine powered off.
    BackupDone {
        /// Cycle at which the backup completed.
        cycle: u64,
        /// Dirty cache blocks flushed to NVM.
        dirty_blocks: u64,
        /// Cycles the backup took (base latency + serialized NVM writes).
        backup_cycles: u64,
        /// Energy charged to the backup, nanojoules.
        energy_nj: f64,
    },
    /// The capacitor recharged to `V_on` and state was restored.
    Restore {
        /// Cycle at which execution resumes.
        cycle: u64,
        /// Index of the power cycle now beginning (1-based).
        power_cycle: u64,
    },
    /// A prefetch was issued to the NVM.
    PrefetchIssued {
        cycle: u64,
        path: PathId,
        /// Block address being fetched.
        block: u32,
        /// Cycle at which the NVM read will complete.
        done_at: u64,
    },
    /// IPEX truncated a candidate list in energy-saving mode.
    PrefetchThrottled {
        cycle: u64,
        path: PathId,
        /// Candidates dropped by this filter call.
        count: u64,
    },
    /// A previously throttled prefetch was reissued after the controller
    /// returned to high-performance mode (§5.1 extension).
    PrefetchReissued {
        cycle: u64,
        path: PathId,
        block: u32,
    },
    /// A demand access found its block in the prefetch buffer.
    BufferHit {
        cycle: u64,
        path: PathId,
        block: u32,
        /// Extra stall cycles because the prefetch was still in flight
        /// (0 for a timely prefetch).
        late_by: u64,
    },
    /// A buffer hit on a prefetch still in flight: the demand access
    /// waited `stall_cycles` instead of issuing a duplicate NVM read.
    /// Always accompanied by a [`SimEvent::BufferHit`] at the same cycle.
    LatePrefetch {
        cycle: u64,
        path: PathId,
        block: u32,
        stall_cycles: u64,
    },
    /// A prefetched-but-unused entry was evicted by a newer prefetch.
    EvictedUnused {
        cycle: u64,
        path: PathId,
        block: u32,
    },
    /// Unused prefetch-buffer entries wiped by a power failure.
    LostUnused {
        cycle: u64,
        path: PathId,
        count: u64,
    },
    /// A block was installed in a cache (demand fill or buffer promote).
    CacheFill {
        cycle: u64,
        path: PathId,
        block: u32,
    },
    /// A dirty block was written back to NVM on eviction.
    Writeback {
        cycle: u64,
        path: PathId,
        block: u32,
    },
    /// The IPEX controller crossed a voltage threshold and changed the
    /// effective prefetch degree.
    ThresholdCross {
        cycle: u64,
        path: PathId,
        voltage: f64,
        old_degree: u32,
        new_degree: u32,
    },
    /// A throttling policy adapted its internal decision state — IPEX
    /// moving its threshold ladder at reboot, or the predictive policy
    /// recording an outage interval in its transition tables at power
    /// failure. `adaptations` is the policy's cumulative counter after
    /// the change, so consecutive events show the delta.
    PolicyAdapt {
        cycle: u64,
        path: PathId,
        /// Cumulative adaptation count after this event.
        adaptations: u64,
    },
    /// Rollup emitted when a power cycle ends (at restore, and once more
    /// at the end of the run for the final cycle).
    PowerCycleSummary {
        cycle: u64,
        /// The power cycle being summarized (1-based).
        power_cycle: u64,
        /// On-time this cycle contributed.
        on_cycles: u64,
        /// Off-time (backup + recharge + restore) this cycle contributed.
        off_cycles: u64,
        /// Energy by bucket over this cycle, nanojoules.
        cache_nj: f64,
        memory_nj: f64,
        compute_nj: f64,
        backup_restore_nj: f64,
        /// Candidates throttled / candidates seen by IPEX this cycle
        /// (0.0 when IPEX is off or saw no candidates).
        throttle_rate: f64,
    },
}

impl SimEvent {
    /// The cycle stamp common to every variant.
    pub fn cycle(&self) -> u64 {
        match *self {
            SimEvent::OutageBegin { cycle, .. }
            | SimEvent::BackupDone { cycle, .. }
            | SimEvent::Restore { cycle, .. }
            | SimEvent::PrefetchIssued { cycle, .. }
            | SimEvent::PrefetchThrottled { cycle, .. }
            | SimEvent::PrefetchReissued { cycle, .. }
            | SimEvent::BufferHit { cycle, .. }
            | SimEvent::LatePrefetch { cycle, .. }
            | SimEvent::EvictedUnused { cycle, .. }
            | SimEvent::LostUnused { cycle, .. }
            | SimEvent::CacheFill { cycle, .. }
            | SimEvent::Writeback { cycle, .. }
            | SimEvent::ThresholdCross { cycle, .. }
            | SimEvent::PolicyAdapt { cycle, .. }
            | SimEvent::PowerCycleSummary { cycle, .. } => cycle,
        }
    }

    /// Stable kebab-case name of the variant (the JSONL tag).
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::OutageBegin { .. } => "outage-begin",
            SimEvent::BackupDone { .. } => "backup-done",
            SimEvent::Restore { .. } => "restore",
            SimEvent::PrefetchIssued { .. } => "prefetch-issued",
            SimEvent::PrefetchThrottled { .. } => "prefetch-throttled",
            SimEvent::PrefetchReissued { .. } => "prefetch-reissued",
            SimEvent::BufferHit { .. } => "buffer-hit",
            SimEvent::LatePrefetch { .. } => "late-prefetch",
            SimEvent::EvictedUnused { .. } => "evicted-unused",
            SimEvent::LostUnused { .. } => "lost-unused",
            SimEvent::CacheFill { .. } => "cache-fill",
            SimEvent::Writeback { .. } => "writeback",
            SimEvent::ThresholdCross { .. } => "threshold-cross",
            SimEvent::PolicyAdapt { .. } => "policy-adapt",
            SimEvent::PowerCycleSummary { .. } => "power-cycle-summary",
        }
    }
}

/// Per-kind event tallies, maintained by every enabled [`Tracer`].
///
/// "Wide" events carrying a `count` field (`PrefetchThrottled`,
/// `LostUnused`) accumulate that count rather than the number of event
/// records, so each field reconciles directly with the corresponding
/// `SimResult` aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounts {
    pub outage_begin: u64,
    pub backup_done: u64,
    pub restore: u64,
    pub prefetch_issued: u64,
    /// Sum of `PrefetchThrottled::count`.
    pub prefetch_throttled: u64,
    pub prefetch_reissued: u64,
    pub buffer_hit: u64,
    pub late_prefetch: u64,
    pub evicted_unused: u64,
    /// Sum of `LostUnused::count`.
    pub lost_unused: u64,
    pub cache_fill: u64,
    pub writeback: u64,
    pub threshold_cross: u64,
    /// Absent from pre-v2 snapshots; defaults to 0 when deserializing.
    #[serde(default)]
    pub policy_adapt: u64,
    pub power_cycle_summary: u64,
}

impl EventCounts {
    /// Folds one event into the tallies.
    pub fn record(&mut self, ev: &SimEvent) {
        match ev {
            SimEvent::OutageBegin { .. } => self.outage_begin += 1,
            SimEvent::BackupDone { .. } => self.backup_done += 1,
            SimEvent::Restore { .. } => self.restore += 1,
            SimEvent::PrefetchIssued { .. } => self.prefetch_issued += 1,
            SimEvent::PrefetchThrottled { count, .. } => self.prefetch_throttled += count,
            SimEvent::PrefetchReissued { .. } => self.prefetch_reissued += 1,
            SimEvent::BufferHit { .. } => self.buffer_hit += 1,
            SimEvent::LatePrefetch { .. } => self.late_prefetch += 1,
            SimEvent::EvictedUnused { .. } => self.evicted_unused += 1,
            SimEvent::LostUnused { count, .. } => self.lost_unused += count,
            SimEvent::CacheFill { .. } => self.cache_fill += 1,
            SimEvent::Writeback { .. } => self.writeback += 1,
            SimEvent::ThresholdCross { .. } => self.threshold_cross += 1,
            SimEvent::PolicyAdapt { .. } => self.policy_adapt += 1,
            SimEvent::PowerCycleSummary { .. } => self.power_cycle_summary += 1,
        }
    }

    /// Every identity between these tallies and the aggregate counters
    /// of the same completed run `r`, as `(identity, tally side,
    /// aggregate side)`. The two sides are equal unless the simulator
    /// has a bug.
    pub fn reconcile(&self, r: &SimResult) -> [(&'static str, u64, u64); 13] {
        let throttled = r.ipex_i.map_or(0, |s| s.throttled) + r.ipex_d.map_or(0, |s| s.throttled);
        let reissued = r.ipex_i.map_or(0, |s| s.reissued) + r.ipex_d.map_or(0, |s| s.reissued);
        let outages = r.stats.power_cycles - 1;
        [
            (
                "prefetch-issued == buffer inserts",
                self.prefetch_issued,
                r.ibuf.inserted + r.dbuf.inserted,
            ),
            (
                "prefetch-issued == NVM prefetch reads",
                self.prefetch_issued,
                r.nvm.prefetch_reads,
            ),
            (
                "buffer-hit == useful prefetches",
                self.buffer_hit,
                r.ibuf.useful + r.dbuf.useful,
            ),
            (
                "late-prefetch == duplicates suppressed",
                self.late_prefetch,
                r.ibuf.duplicate_suppressed + r.dbuf.duplicate_suppressed,
            ),
            (
                "evicted-unused == buffer evictions",
                self.evicted_unused,
                r.ibuf.evicted_unused + r.dbuf.evicted_unused,
            ),
            (
                "lost-unused == buffer losses",
                self.lost_unused,
                r.ibuf.lost_unused + r.dbuf.lost_unused,
            ),
            (
                "prefetch-throttled == IPEX throttled",
                self.prefetch_throttled,
                throttled,
            ),
            (
                "prefetch-reissued == IPEX reissued",
                self.prefetch_reissued,
                reissued,
            ),
            (
                "writeback+checkpoints == NVM writes",
                self.writeback + r.stats.checkpoint_blocks,
                r.nvm.writes,
            ),
            (
                "outage-begin == power cycles - 1",
                self.outage_begin,
                outages,
            ),
            ("restore == power cycles - 1", self.restore, outages),
            (
                "power-cycle-summary == power cycles",
                self.power_cycle_summary,
                r.stats.power_cycles,
            ),
            (
                "cache-fill == buffer hits + demand reads",
                self.cache_fill,
                self.buffer_hit + r.stats.i_demand_reads + r.stats.d_demand_reads,
            ),
        ]
    }
}

/// Where emitted events go.
pub trait TraceSink {
    /// Receives one event, in emission order.
    fn emit(&mut self, ev: &SimEvent);

    /// Flushes any buffered output; called when the run ends.
    fn flush(&mut self) {}
}

/// Tallies events into shared [`EventCounts`]. Clone the sink before
/// handing it to the machine and read the counts from the clone after
/// the run.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    counts: Arc<Mutex<EventCounts>>,
}

impl CountingSink {
    /// A fresh sink with zeroed counters.
    pub fn new() -> CountingSink {
        CountingSink::default()
    }

    /// Snapshot of the counts so far.
    pub fn counts(&self) -> EventCounts {
        *self.counts.lock().expect("counting sink poisoned")
    }
}

impl TraceSink for CountingSink {
    fn emit(&mut self, ev: &SimEvent) {
        self.counts
            .lock()
            .expect("counting sink poisoned")
            .record(ev);
    }
}

/// Writes one JSON object per event, newline-delimited (JSONL).
pub struct JsonlSink<W: Write> {
    out: BufWriter<W>,
}

impl JsonlSink<std::fs::File> {
    /// Creates (truncating) `path` and writes the trace there.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: &std::path::Path) -> std::io::Result<JsonlSink<std::fs::File>> {
        Ok(JsonlSink::new(std::fs::File::create(path)?))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps any writer (buffered internally).
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            out: BufWriter::new(writer),
        }
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn emit(&mut self, ev: &SimEvent) {
        let line = serde_json::to_string(ev).expect("SimEvent serializes");
        self.out.write_all(line.as_bytes()).expect("trace write");
        self.out.write_all(b"\n").expect("trace write");
    }

    fn flush(&mut self) {
        self.out.flush().expect("trace flush");
    }
}

/// How a [`SimConfig`](crate::SimConfig) asks for tracing.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum TraceMode {
    /// No tracing (the default; near-zero cost).
    #[default]
    Off,
    /// Count events only — no sink, counts via
    /// [`Machine::trace_counts`](crate::Machine::trace_counts).
    Counting,
    /// Count events and write a JSONL trace to `path`.
    Jsonl { path: String },
}

/// The machine's tracing front end: a disabled flag check, the running
/// [`EventCounts`], and an optional sink.
pub struct Tracer {
    enabled: bool,
    counts: EventCounts,
    sink: Option<Box<dyn TraceSink>>,
}

impl Tracer {
    /// A disabled tracer: `emit_with` is a single branch.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            counts: EventCounts::default(),
            sink: None,
        }
    }

    /// An enabled tracer that only counts (no sink).
    pub fn counting() -> Tracer {
        Tracer {
            enabled: true,
            counts: EventCounts::default(),
            sink: None,
        }
    }

    /// An enabled tracer forwarding events to `sink` (counts are kept
    /// too).
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Tracer {
        Tracer {
            enabled: true,
            counts: EventCounts::default(),
            sink: Some(sink),
        }
    }

    /// Builds the tracer a [`TraceMode`] asks for.
    ///
    /// # Errors
    ///
    /// A message naming the path when a JSONL trace file cannot be
    /// created.
    pub fn from_mode(mode: &TraceMode) -> Result<Tracer, String> {
        Ok(match mode {
            TraceMode::Off => Tracer::disabled(),
            TraceMode::Counting => Tracer::counting(),
            TraceMode::Jsonl { path } => Tracer::with_sink(Box::new(
                JsonlSink::create(std::path::Path::new(path))
                    .map_err(|e| format!("cannot create trace file {path}: {e}"))?,
            )),
        })
    }

    /// `true` when events are being recorded. Emission sites that need
    /// extra work to *build* an event (e.g. querying the IPEX degree
    /// before and after a voltage update) should gate on this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Emits the event built by `build` — which is never called when
    /// tracing is disabled, keeping the disabled path to one branch.
    #[inline]
    pub fn emit_with(&mut self, build: impl FnOnce() -> SimEvent) {
        if !self.enabled {
            return;
        }
        let ev = build();
        self.counts.record(&ev);
        if let Some(sink) = &mut self.sink {
            sink.emit(&ev);
        }
    }

    /// The tallies recorded so far (all zero while disabled).
    pub fn counts(&self) -> &EventCounts {
        &self.counts
    }

    /// Overwrites the running tallies — used by snapshot resume so a
    /// split run's final counts match an uninterrupted run's.
    pub fn restore_counts(&mut self, counts: EventCounts) {
        self.counts = counts;
    }

    /// Flushes the sink, if any.
    pub fn flush(&mut self) {
        if let Some(sink) = &mut self.sink {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_builds_events() {
        let mut t = Tracer::disabled();
        t.emit_with(|| panic!("must not be called"));
        assert_eq!(*t.counts(), EventCounts::default());
    }

    #[test]
    fn counting_tracer_accumulates_wide_counts() {
        let mut t = Tracer::counting();
        t.emit_with(|| SimEvent::PrefetchThrottled {
            cycle: 1,
            path: PathId::Data,
            count: 3,
        });
        t.emit_with(|| SimEvent::PrefetchIssued {
            cycle: 2,
            path: PathId::Inst,
            block: 0x40,
            done_at: 22,
        });
        assert_eq!(t.counts().prefetch_throttled, 3);
        assert_eq!(t.counts().prefetch_issued, 1);
    }

    #[test]
    fn counting_sink_shares_counts_across_clones() {
        let sink = CountingSink::new();
        let mut t = Tracer::with_sink(Box::new(sink.clone()));
        t.emit_with(|| SimEvent::Restore {
            cycle: 9,
            power_cycle: 2,
        });
        assert_eq!(sink.counts().restore, 1);
    }

    #[test]
    fn jsonl_sink_emits_one_parsable_line_per_event() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            sink.emit(&SimEvent::OutageBegin {
                cycle: 100,
                voltage: 3.2,
            });
            sink.emit(&SimEvent::CacheFill {
                cycle: 101,
                path: PathId::Data,
                block: 0x120,
            });
            sink.flush();
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let ev: SimEvent = serde_json::from_str(line).expect("round-trips");
            assert_eq!(serde_json::to_string(&ev).unwrap(), line);
        }
    }

    #[test]
    fn event_kind_matches_jsonl_tag() {
        let ev = SimEvent::ThresholdCross {
            cycle: 5,
            path: PathId::Inst,
            voltage: 3.29,
            old_degree: 2,
            new_degree: 1,
        };
        let json = serde_json::to_string(&ev).unwrap();
        assert!(json.starts_with("{\"threshold-cross\""), "{json}");
        assert_eq!(ev.kind(), "threshold-cross");
        assert_eq!(ev.cycle(), 5);
    }
}
