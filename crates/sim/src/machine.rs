//! The simulated machine and its main loop.

use std::borrow::Cow;

use ehs_energy::{mw_to_nj_per_cycle, Capacitor, EnergyBreakdown, PowerTrace};
use ehs_isa::{ExecClass, ExecError, Interpreter, LoadImage, Program};
use ehs_mem::{block_of, Cache, InsertOutcome, Nvm, Persist, PrefetchBuffer, ReadReason};
use ehs_prefetch::{AccessEvent, AccessOutcome, AnyPrefetcher, Prefetcher};
use ipex::AnyPolicy;

use serde::{Deserialize, Serialize};

use crate::config::{PrefetchMode, CYCLES_PER_TRACE_SAMPLE};
use crate::snapshot::{self, Phase, Snapshot, SnapshotError, SNAPSHOT_VERSION};
use crate::trace::{EventCounts, PathId, SimEvent, TraceSink, Tracer};
use crate::{SimConfig, SimResult, SimStats};

/// Volatile register state checkpointed to NVFFs on every outage:
/// 16 × 32-bit registers plus the 32-bit PC. Each path's throttling
/// policy adds its own [`AnyPolicy::nvff_bits`] on top (64 for IPEX's
/// `Rthrottled` + `Rtotal`, 4096 for the predictive policy's tables).
const CORE_NVFF_BITS: u32 = 16 * 32 + 32;

/// Why a simulation could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configured cycle budget ran out (e.g. the harvested power can
    /// never recharge the capacitor).
    CycleLimit {
        /// The budget that was exhausted.
        max_cycles: u64,
    },
    /// The program faulted.
    Exec(ExecError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CycleLimit { max_cycles } => {
                write!(f, "simulation exceeded the {max_cycles}-cycle budget")
            }
            SimError::Exec(e) => write!(f, "program fault: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> SimError {
        SimError::Exec(e)
    }
}

/// Deliberate consistency faults, injected for verification only.
///
/// The `ehs-verify` crate uses this to prove that its differential
/// oracle and trace shrinker actually catch crash-consistency bugs: a
/// machine configured to skip one register on restore must diverge from
/// the golden interpreter, and the fuzzer must minimize the triggering
/// power trace. A default (all-`None`) plan leaves behaviour untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// After each restore, zero this register instead of restoring it
    /// (writes to `zero` are discarded, so pick any other register).
    pub skip_restore_reg: Option<ehs_isa::Reg>,
}

/// One side (instruction or data) of the memory hierarchy.
struct MemPath {
    cache: Cache,
    buf: PrefetchBuffer,
    /// Enum-dispatched so the per-access `observe` call in the hot loop
    /// inlines instead of going through a vtable (see `ehs-prefetch`'s
    /// `any` module and the `dispatch` micro-benchmark).
    pf: AnyPrefetcher,
    throttle: AnyPolicy,
}

impl MemPath {
    /// Wipes all volatile state; returns how many unused prefetch-buffer
    /// entries were lost.
    fn power_loss(&mut self) -> u64 {
        self.cache.checkpoint_flush(); // ICache is never dirty; DCache flush counted by caller
        self.cache.power_loss();
        let lost = self.buf.power_loss() as u64;
        self.pf.power_loss();
        self.throttle.on_power_failure();
        lost
    }
}

/// Did [`Machine::run_until`] reach its pause target or finish the
/// program?
#[derive(Debug, Clone)]
pub enum RunStatus {
    /// The program halted; here are the final statistics (boxed:
    /// `SimResult` dwarfs the `Paused` variant).
    Completed(Box<SimResult>),
    /// The pause target was reached; the machine can be snapshotted and
    /// the run continued (here or, via [`Machine::resume`], elsewhere).
    Paused,
}

/// Statistics snapshot at the start of the current power cycle, used to
/// compute [`SimEvent::PowerCycleSummary`] deltas. Only updated while
/// tracing is enabled. Part of [`Snapshot`] (summary deltas of a split
/// run must match an uninterrupted one), hence serializable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CycleMark {
    on_cycles: u64,
    off_cycles: u64,
    cache_nj: f64,
    memory_nj: f64,
    compute_nj: f64,
    backup_restore_nj: f64,
    /// Candidates seen by IPEX (issued + throttled, both paths).
    ipex_seen: u64,
    /// Candidates throttled by IPEX (both paths).
    ipex_throttled: u64,
}

/// The simulated energy-harvesting system.
///
/// Construct with [`Machine::new`] (default synthetic RFHome trace) or
/// [`Machine::with_trace`], then call [`Machine::run`].
pub struct Machine {
    cfg: SimConfig,
    interp: Interpreter,
    ipath: MemPath,
    dpath: MemPath,
    nvm: Nvm,
    cap: Capacitor,
    trace: PowerTrace,
    cycle: u64,
    stats: SimStats,
    energy: EnergyBreakdown,
    /// Dynamic energy charged since the last `advance_on`.
    pending_draw_nj: f64,
    /// Cached per-cycle leakage, nJ: (icache, dcache, core, nvm).
    leak_nj: (f64, f64, f64, f64),
    /// Scratch buffer for prefetch candidates.
    cand: Vec<u32>,
    /// Event tracing front end ([`TraceMode::Off`](crate::TraceMode) by
    /// default: a single disabled branch per emission site).
    tracer: Tracer,
    /// Power-cycle statistics mark for summary events.
    mark: CycleMark,
    /// Injected consistency faults (verification only; default none).
    fault: FaultPlan,
    /// Where in the power-cycle state machine execution currently is —
    /// persisted by [`Machine::snapshot`] so pauses can land mid-outage.
    phase: Phase,
    /// Per-[`ExecClass`] execute latency, indexed by
    /// [`ExecClass::index`] (pre-resolved from `cfg.latencies`).
    lat_by_class: [u64; ExecClass::COUNT],
    /// Per-[`ExecClass`] dynamic compute energy, nJ.
    nj_by_class: [f64; ExecClass::COUNT],
    /// Safe energy band for batched voltage observation: while the
    /// capacitor's stored energy stays strictly inside
    /// `(vwin_lo_nj, vwin_hi_nj)`, no IPEX threshold nor the backup
    /// trigger can cross, so the per-instruction voltage observation is
    /// provably a no-op and is skipped. Derived state (never
    /// snapshotted); an invalid band (`lo > hi`) forces the next
    /// instruction down the exact legacy observe path, which recomputes
    /// it. See [`Machine::recompute_voltage_window`].
    vwin_lo_nj: f64,
    vwin_hi_nj: f64,
    /// Verification hook: `true` pins the band invalid so every
    /// instruction performs the full legacy observation sequence.
    vwin_forced_off: bool,
    /// `true` when either path's throttling policy accumulates state on
    /// every observation ([`AnyPolicy::batched_observation_safe`] is
    /// `false`), in which case batching would change results and the
    /// exact per-instruction path is mandatory, not a hook.
    vwin_policy_exact: bool,
    /// Cached power-trace sample: harvesting proceeds at `hspan_rate`
    /// nJ/cycle over cycles `[hspan_start, hspan_end)`. Spares the hot
    /// loop a div+mod per instruction; spans outside the cached sample
    /// take the exact multi-sample walk (which refreshes the cache).
    /// Derived state, never snapshotted (`hspan_start == hspan_end`
    /// marks it empty).
    hspan_start: u64,
    hspan_end: u64,
    hspan_rate: f64,
}

impl Machine {
    /// Builds a machine over `program` with the standard synthetic
    /// RFHome trace ([`SimConfig::default_trace`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (invalid
    /// cache geometry, zero-entry prefetch buffer, bad capacitor
    /// ordering).
    pub fn new(cfg: SimConfig, program: &Program) -> Machine {
        Machine::with_trace(cfg, program, SimConfig::default_trace())
    }

    /// Builds a machine with an explicit power trace.
    ///
    /// # Panics
    ///
    /// See [`Machine::new`].
    pub fn with_trace(cfg: SimConfig, program: &Program, trace: PowerTrace) -> Machine {
        let build_path = |mode: &PrefetchMode, is_inst: bool| -> MemPath {
            let pf = match mode {
                PrefetchMode::Off => AnyPrefetcher::Null(ehs_prefetch::NullPrefetcher::new()),
                _ => {
                    if is_inst {
                        cfg.inst_prefetcher.build_any(cfg.prefetch_degree)
                    } else {
                        cfg.data_prefetcher.build_any(cfg.prefetch_degree)
                    }
                }
            };
            let throttle = match mode {
                PrefetchMode::Policy(pc) => pc.build(),
                _ => AnyPolicy::Passthrough,
            };
            MemPath {
                cache: Cache::new(if is_inst { cfg.icache } else { cfg.dcache }),
                buf: PrefetchBuffer::new(cfg.prefetch_buffer_entries),
                pf,
                throttle,
            }
        };
        let ipath = build_path(&cfg.inst_mode, true);
        let dpath = build_path(&cfg.data_mode, false);
        let vwin_policy_exact = !ipath.throttle.batched_observation_safe()
            || !dpath.throttle.batched_observation_safe();
        let interp = Interpreter::with_mem_size(program, cfg.nvm.size_bytes as usize);
        // NVM standby power is gated: being nonvolatile, the array and
        // its periphery are powered only during transfers (charged per
        // access below). Idle leakage is caches + core only.
        let leak_nj = (
            cfg.energy.cache_leak_nj_per_cycle(cfg.icache.size_bytes),
            cfg.energy.cache_leak_nj_per_cycle(cfg.dcache.size_bytes),
            cfg.energy.core_leak_nj_per_cycle(),
            mw_to_nj_per_cycle(cfg.nvm.leak_mw),
        );
        // Pre-resolve the per-class latency/energy tables the hot loop
        // indexes by `ExecClass::index` (Load/Store/Halt execute in 1
        // cycle; their memory time is modelled by the cache path).
        let mut lat_by_class = [1u64; ExecClass::COUNT];
        lat_by_class[ExecClass::Alu.index()] = cfg.latencies[0];
        lat_by_class[ExecClass::Mul.index()] = cfg.latencies[1];
        lat_by_class[ExecClass::Div.index()] = cfg.latencies[2];
        lat_by_class[ExecClass::Branch.index()] = cfg.latencies[3];
        lat_by_class[ExecClass::Jump.index()] = cfg.latencies[4];
        let mut nj_by_class = [cfg.energy.compute.alu_nj; ExecClass::COUNT];
        nj_by_class[ExecClass::Mul.index()] = cfg.energy.compute.mul_nj;
        nj_by_class[ExecClass::Div.index()] = cfg.energy.compute.div_nj;
        nj_by_class[ExecClass::Load.index()] = cfg.energy.compute.mem_nj;
        nj_by_class[ExecClass::Store.index()] = cfg.energy.compute.mem_nj;
        Machine {
            interp,
            ipath,
            dpath,
            nvm: Nvm::new(cfg.nvm),
            cap: Capacitor::full(cfg.capacitor),
            trace,
            cycle: 0,
            stats: SimStats::default(),
            energy: EnergyBreakdown::new(),
            pending_draw_nj: 0.0,
            leak_nj,
            cand: Vec::with_capacity(8),
            tracer: Tracer::from_mode(&cfg.trace),
            mark: CycleMark::default(),
            fault: FaultPlan::default(),
            phase: Phase::Run,
            lat_by_class,
            nj_by_class,
            // Invalid band: the first instruction takes the full legacy
            // observe path, which computes the real band.
            vwin_lo_nj: f64::INFINITY,
            vwin_hi_nj: f64::NEG_INFINITY,
            vwin_forced_off: false,
            vwin_policy_exact,
            hspan_start: 0,
            hspan_end: 0,
            hspan_rate: 0.0,
            cfg,
        }
    }

    /// Verification/benchmark hook: `true` disables voltage-observation
    /// batching, reproducing the legacy per-instruction observe
    /// sequence exactly. Results must be bit-identical either way
    /// (regression-tested); default `false`.
    pub fn set_exhaustive_voltage_checks(&mut self, on: bool) {
        self.vwin_forced_off = on;
        self.vwin_lo_nj = f64::INFINITY;
        self.vwin_hi_nj = f64::NEG_INFINITY;
    }

    /// Verification/benchmark hook: disables (or re-enables) the
    /// interpreter's pre-decoded fast path; see
    /// [`ehs_isa::Interpreter::set_decode_cache_enabled`].
    pub fn set_decode_cache_enabled(&mut self, on: bool) {
        self.interp.set_decode_cache_enabled(on);
    }

    /// Installs a deliberate consistency fault (see [`FaultPlan`]).
    /// Verification tooling only; call before [`Machine::run`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = plan;
    }

    /// Replaces the tracer with one forwarding to `sink` (enables
    /// tracing regardless of the configured [`TraceMode`](crate::TraceMode)).
    /// Call before [`Machine::run`].
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        // Preserve tallies already accumulated (a resumed machine
        // carries the counts of the run's earlier leg).
        let counts = *self.tracer.counts();
        self.tracer = Tracer::with_sink(sink);
        self.tracer.restore_counts(counts);
    }

    /// Per-kind tallies of the events emitted so far (all zero when
    /// tracing is disabled).
    pub fn trace_counts(&self) -> &EventCounts {
        self.tracer.counts()
    }

    /// Current simulated cycle (on + off time).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current capacitor voltage.
    pub fn voltage(&self) -> f64 {
        self.cap.voltage()
    }

    /// Reads an architectural register of the simulated core — useful to
    /// check a workload's checksum (`a0`) after [`Machine::run`].
    pub fn reg(&self, r: ehs_isa::Reg) -> u32 {
        self.interp.reg(r)
    }

    /// A snapshot of the simulated core's full register file.
    pub fn registers(&self) -> [u32; 16] {
        self.interp.registers()
    }

    /// The simulated core's program counter.
    pub fn pc(&self) -> u32 {
        self.interp.pc()
    }

    /// FNV-1a digest of the simulated memory image (see
    /// [`ehs_isa::Interpreter::mem_digest`]).
    pub fn mem_digest(&self) -> u64 {
        self.interp.mem_digest()
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.stats.instructions
    }

    /// Runs the program to completion across power cycles.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleLimit`] if the budget runs out before `halt`,
    /// [`SimError::Exec`] if the program faults.
    pub fn run(&mut self) -> Result<SimResult, SimError> {
        match self.run_until(u64::MAX)? {
            RunStatus::Completed(r) => Ok(*r),
            // Unreachable: max_cycles < u64::MAX errors out first, and
            // pausing requires cycle >= u64::MAX.
            RunStatus::Paused => unreachable!("run(u64::MAX) cannot pause"),
        }
    }

    /// Runs until the program halts or the simulated cycle counter
    /// reaches `target`, whichever comes first.
    ///
    /// Pausing is computation-neutral: `run_until(n)` followed by
    /// `run_until(m)` performs the *identical* sequence of operations —
    /// including every f64 — as a single `run_until(m)`, so statistics,
    /// energy and emitted events match bit-for-bit. A paused machine may
    /// pause mid-outage (between backup writes or recharge ticks); its
    /// exact phase is carried by [`Machine::snapshot`].
    ///
    /// Note `target` is a floor, not an exact stop cycle: the machine
    /// pauses at the first pause point at or after `target` (instruction
    /// latencies, backup windows and recharge ticks are indivisible).
    ///
    /// # Errors
    ///
    /// See [`Machine::run`].
    pub fn run_until(&mut self, target: u64) -> Result<RunStatus, SimError> {
        // The first power cycle starts implicitly (capacitor full); a
        // resumed machine keeps its restored count.
        if self.stats.power_cycles == 0 {
            self.stats.power_cycles = 1;
        }
        // The backup phase does not advance `cycle` until it completes,
        // so its pause check uses the growing window end instead; this
        // flag guarantees each call still makes progress (at least one
        // block write) even when that end is already past `target`.
        let mut wrote_block = false;
        let outcome = loop {
            match self.phase {
                Phase::Run => {
                    if self.interp.halted() {
                        break Ok(true);
                    }
                    if self.cycle >= self.cfg.max_cycles {
                        break Err(SimError::CycleLimit {
                            max_cycles: self.cfg.max_cycles,
                        });
                    }
                    if self.cycle >= target {
                        break Ok(false);
                    }
                    if let Err(e) = self.step_instruction() {
                        break Err(e);
                    }
                }
                Phase::Backup {
                    remaining,
                    backup_cycles,
                    br_before,
                    dirty_total,
                } => {
                    if wrote_block
                        && remaining > 0
                        && self.cycle.saturating_add(backup_cycles) >= target
                    {
                        break Ok(false);
                    }
                    if remaining > 0 {
                        // One dirty block: NVM writes serialize on the
                        // port, stretching the backup window.
                        let done = self.nvm.write(self.cycle + backup_cycles);
                        let w = self.cfg.nvm.block_write_nj();
                        self.energy.backup_restore_nj += w;
                        self.cap.consume_nj(w);
                        self.phase = Phase::Backup {
                            remaining: remaining - 1,
                            backup_cycles: done - self.cycle,
                            br_before,
                            dirty_total,
                        };
                        wrote_block = true;
                    } else {
                        self.finish_backup(backup_cycles, br_before, dirty_total);
                    }
                }
                Phase::Recharge => {
                    if self.cap.can_boot() {
                        self.reboot();
                    } else {
                        if self.cycle >= self.cfg.max_cycles {
                            self.stats.total_cycles = self.cycle;
                            break Err(SimError::CycleLimit {
                                max_cycles: self.cfg.max_cycles,
                            });
                        }
                        if self.cycle >= target {
                            break Ok(false);
                        }
                        // Harvest one trace-sample tick while off.
                        let idx = self.cycle / CYCLES_PER_TRACE_SAMPLE;
                        let boundary = (idx + 1) * CYCLES_PER_TRACE_SAMPLE;
                        let take = boundary - self.cycle;
                        self.cap
                            .harvest_nj(self.trace.harvest_nj_per_cycle(idx) * take as f64);
                        self.cycle = boundary;
                        self.stats.off_cycles += take;
                    }
                }
            }
        };
        if let Ok(true) = outcome {
            // The final (still-running) power cycle gets its rollup too.
            self.emit_power_cycle_summary();
        }
        self.tracer.flush();
        match outcome {
            Ok(true) => Ok(RunStatus::Completed(Box::new(self.result()))),
            Ok(false) => Ok(RunStatus::Paused),
            Err(e) => Err(e),
        }
    }

    /// The current power-cycle phase ([`Phase::Run`] unless paused
    /// mid-outage).
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Captures the complete machine state as a [`Snapshot`].
    ///
    /// `program` must be the program this machine was built with: the
    /// memory image is stored as a sparse delta against its fresh load
    /// image (and the program itself is recorded only as a digest).
    ///
    /// Meaningful at any pause point — after construction, after a
    /// paused [`Machine::run_until`] (including mid-backup and
    /// mid-recharge), or after completion.
    pub fn snapshot(&self, program: &Program) -> Snapshot {
        let fresh = LoadImage::new(program, self.cfg.nvm.size_bytes as usize);
        let mem_delta =
            snapshot::mem_delta_paged(&fresh, self.interp.mem(), self.interp.written_pages());
        Snapshot {
            version: SNAPSHOT_VERSION,
            cfg: self.cfg.clone(),
            program_digest: fresh.digest(),
            trace_digest: snapshot::trace_digest(&self.trace),
            cycle: self.cycle,
            phase: self.phase,
            regs: self.interp.registers(),
            pc: self.interp.pc(),
            halted: self.interp.halted(),
            executed: self.interp.executed(),
            mem_delta,
            mem_digest: self.interp.mem_digest(),
            icache: self.ipath.cache.export_state(),
            dcache: self.dpath.cache.export_state(),
            ibuf: self.ipath.buf.export_state(),
            dbuf: self.dpath.buf.export_state(),
            ipf: self.ipath.pf.export_state(),
            dpf: self.dpath.pf.export_state(),
            ithrottle: self.ipath.throttle.export_state(),
            dthrottle: self.dpath.throttle.export_state(),
            nvm: self.nvm.export_state(),
            cap_energy_nj: self.cap.energy_nj(),
            stats: self.stats,
            energy: self.energy,
            pending_draw_nj: self.pending_draw_nj,
            mark: self.mark,
            event_counts: *self.tracer.counts(),
            fault_skip_restore_reg: self.fault.skip_restore_reg.map(|r| r.index() as u32),
        }
    }

    /// FNV-1a digest over the complete machine state (the canonical
    /// JSON of [`Machine::snapshot`]): the equality oracle the snapshot
    /// test suites compare split and uninterrupted runs with.
    pub fn state_digest(&self, program: &Program) -> u64 {
        self.snapshot(program).digest()
    }

    /// Reconstructs a machine from a snapshot, bit-identical to the one
    /// that captured it.
    ///
    /// `program` and `trace` must be the originals: both are validated
    /// against the digests recorded in the snapshot. Continuing the
    /// returned machine performs the identical operation sequence an
    /// uninterrupted run would, so results, energy totals (f64-exact)
    /// and event counts all match.
    ///
    /// Tracing restarts from the snapshot's [`EventCounts`] under the
    /// configured [`TraceMode`](crate::TraceMode) — but note that
    /// resuming with a JSONL file sink truncates the file (the events of
    /// the earlier leg live in the earlier process's file).
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the snapshot's version, program, trace, or
    /// any state component does not match this build / the supplied
    /// inputs.
    pub fn resume(
        snap: &Snapshot,
        program: &Program,
        trace: PowerTrace,
    ) -> Result<Machine, SnapshotError> {
        // Bring older-format snapshots forward (or reject them) before
        // any state is applied; see `Snapshot::migrate` for the history.
        // Only an old version pays for a copy.
        let snap = &if snap.version == SNAPSHOT_VERSION {
            Cow::Borrowed(snap)
        } else {
            Cow::Owned(snap.clone().migrate()?)
        };
        debug_assert_eq!(snap.version, SNAPSHOT_VERSION);
        let mut m = Machine::with_trace(snap.cfg.clone(), program, trace);
        let program_digest = m.interp.mem_digest();
        if snap.program_digest != program_digest {
            return Err(SnapshotError::ProgramMismatch {
                found: snap.program_digest,
                expected: program_digest,
            });
        }
        let trace_digest = snapshot::trace_digest(&m.trace);
        if snap.trace_digest != trace_digest {
            return Err(SnapshotError::TraceMismatch {
                found: snap.trace_digest,
                expected: trace_digest,
            });
        }

        let image_len = m.interp.mem().len();
        snapshot::apply_mem_delta(&snap.mem_delta, image_len, |addr, bytes| {
            m.interp.write_bytes(addr, bytes)
        })?;
        if m.interp.mem_digest() != snap.mem_digest {
            return Err(SnapshotError::State(
                "memory digest mismatch after applying the delta".into(),
            ));
        }
        m.interp
            .restore_state(snap.regs, snap.pc, snap.halted, snap.executed);

        // Every component was built from `snap.cfg` above; only its
        // contents come from the snapshot.
        import(
            &mut m.ipath.cache,
            &snap.icache,
            "icache (instruction cache)",
        )?;
        import(&mut m.dpath.cache, &snap.dcache, "dcache (data cache)")?;
        import(
            &mut m.ipath.buf,
            &snap.ibuf,
            "ibuf (instruction prefetch buffer)",
        )?;
        import(&mut m.dpath.buf, &snap.dbuf, "dbuf (data prefetch buffer)")?;
        import(&mut m.ipath.pf, &snap.ipf, "ipf (instruction prefetcher)")?;
        import(&mut m.dpath.pf, &snap.dpf, "dpf (data prefetcher)")?;
        import(
            &mut m.ipath.throttle,
            &snap.ithrottle,
            "ithrottle (instruction throttle)",
        )?;
        import(
            &mut m.dpath.throttle,
            &snap.dthrottle,
            "dthrottle (data throttle)",
        )?;
        import(&mut m.nvm, &snap.nvm, "nvm")?;
        let cap_max_nj = snap.cfg.capacitor.energy_at_nj(snap.cfg.capacitor.v_max);
        if !(snap.cap_energy_nj >= 0.0 && snap.cap_energy_nj <= cap_max_nj) {
            return Err(SnapshotError::State(format!(
                "capacitor energy {} nJ outside [0, {cap_max_nj}]",
                snap.cap_energy_nj
            )));
        }
        m.cap = Capacitor::with_energy_nj(snap.cfg.capacitor, snap.cap_energy_nj);

        m.cycle = snap.cycle;
        m.stats = snap.stats;
        m.energy = snap.energy;
        m.pending_draw_nj = snap.pending_draw_nj;
        m.mark = snap.mark;
        m.phase = snap.phase;
        m.tracer.restore_counts(snap.event_counts);
        m.fault.skip_restore_reg = match snap.fault_skip_restore_reg {
            None => None,
            Some(i) => Some(ehs_isa::Reg::from_index(i as usize).ok_or_else(|| {
                SnapshotError::State(format!("fault register index {i} out of range"))
            })?),
        };
        Ok(m)
    }

    /// Snapshot of all statistics so far.
    pub fn result(&self) -> SimResult {
        SimResult {
            stats: self.stats,
            energy: self.energy,
            icache: self.ipath.cache.stats(),
            dcache: self.dpath.cache.stats(),
            ibuf: self.ipath.buf.stats(),
            dbuf: self.dpath.buf.stats(),
            nvm: self.nvm.stats(),
            ipex_i: self.ipath.throttle.stats(),
            ipex_d: self.dpath.throttle.stats(),
        }
    }

    // ------------------------------------------------------------------
    // Core loop
    // ------------------------------------------------------------------

    fn step_instruction(&mut self) -> Result<(), SimError> {
        // Voltage monitor: IPEX threshold crossings (possibly reissuing
        // throttled prefetches, §5.1 extension) and the backup trigger.
        // Batched over the safe energy band: strictly inside
        // `(vwin_lo_nj, vwin_hi_nj)` the observation sequence below is
        // provably a no-op (every threshold comparison lands in the same
        // band it did when the band was computed), so it is skipped.
        // The comparison is written so an invalid band (lo > hi, the
        // NaN-free "recompute me" state) always takes the slow path.
        let e = self.cap.energy_nj();
        if !(e > self.vwin_lo_nj && e < self.vwin_hi_nj) {
            let v = self.cap.voltage();
            self.observe_voltage(true, v);
            self.observe_voltage(false, v);
            if self.cap.needs_backup() {
                // Enter the outage phases; the main loop drives them so
                // a pause (snapshot) can land mid-backup or mid-recharge.
                self.begin_outage();
                return Ok(());
            }
            self.recompute_voltage_window();
        }

        // Instruction fetch through the ICache.
        let pc = self.interp.pc();
        let fetch_cycles = self.mem_access::<true>(pc, pc, false);

        // Execute (functional; the pre-decoded step carries its class).
        let step = self.interp.step()?;
        let class = step.class.index();
        let exec_cycles = self.lat_by_class[class];
        let compute_nj = self.nj_by_class[class];
        self.energy.compute_nj += compute_nj;
        self.pending_draw_nj += compute_nj;

        // Data access through the DCache.
        let mem_cycles = match step.access {
            Some(acc) => {
                let is_write = acc.kind == ehs_isa::AccessKind::Write;
                self.mem_access::<false>(step.pc, acc.addr, is_write)
            }
            None => 0,
        };

        self.stats.instructions += 1;
        self.advance_on(fetch_cycles + exec_cycles + mem_cycles);
        Ok(())
    }

    /// Feeds the capacitor voltage to one path's IPEX controller,
    /// tracing threshold crossings and reissuing throttled prefetches
    /// (§5.1 extension).
    fn observe_voltage(&mut self, inst: bool, v: f64) {
        let now = self.cycle;
        let Machine {
            ipath,
            dpath,
            nvm,
            energy,
            stats,
            pending_draw_nj,
            tracer,
            ..
        } = self;
        let (path, pid) = if inst {
            (ipath, PathId::Inst)
        } else {
            (dpath, PathId::Data)
        };
        // Querying the degree costs a couple of loads; only pay for it
        // while tracing.
        let old_degree = if tracer.is_enabled() {
            path.throttle.current_degree()
        } else {
            None
        };
        let reissue = path.throttle.observe_voltage(v);
        // The controller only returns a list when the §5.1 reissue
        // extension drains its queue, so degree changes are detected by
        // comparing Rcpd around the update rather than from the return
        // value (otherwise crossings would go untraced under the default
        // `reissue_throttled: false`).
        if tracer.is_enabled() {
            let new_degree = path.throttle.current_degree();
            if new_degree != old_degree {
                tracer.emit_with(|| SimEvent::ThresholdCross {
                    cycle: now,
                    path: pid,
                    voltage: v,
                    old_degree: old_degree.unwrap_or(0),
                    new_degree: new_degree.unwrap_or(0),
                });
            }
        }
        if let Some(reissue) = reissue {
            for block in reissue {
                tracer.emit_with(|| SimEvent::PrefetchReissued {
                    cycle: now,
                    path: pid,
                    block,
                });
                issue_prefetch(
                    path,
                    nvm,
                    energy,
                    stats,
                    pending_draw_nj,
                    now,
                    block,
                    tracer,
                    pid,
                );
            }
        }
    }

    /// Recomputes the safe energy band for batched voltage observation.
    ///
    /// Called only immediately after a real observation pass, so each
    /// controller's level agrees with the current voltage. The band's
    /// edges are the capacitor energies of every voltage the step
    /// sequence compares against — the backup trigger plus both
    /// throttles' threshold ladders — split into those below and above
    /// the current energy. While the stored energy stays strictly
    /// inside the band, every `voltage <= threshold` comparison and the
    /// `needs_backup` check resolve exactly as they did when the band
    /// was computed (energy and voltage are monotonically related by
    /// `E = ½CV²`), so `observe_voltage` cannot change state and no
    /// outage can begin: skipping the sequence is bit-identical.
    ///
    /// The relative `MARGIN` shrinks the band by ~1e-9 on each side,
    /// dominating the ~1e-15 relative rounding of the E↔V conversions
    /// (one sqrt + two multiplies); energies inside the margin zone
    /// conservatively take the exact legacy path.
    fn recompute_voltage_window(&mut self) {
        if self.vwin_forced_off || self.vwin_policy_exact {
            return;
        }
        const MARGIN: f64 = 1e-9;
        let cap_cfg = self.cap.config();
        let e = self.cap.energy_nj();
        let mut lo = 0.0f64;
        let mut hi = f64::INFINITY;
        let mut consider = |threshold_v: f64| {
            let et = cap_cfg.energy_at_nj(threshold_v);
            if e > et {
                lo = lo.max(et);
            } else {
                hi = hi.min(et);
            }
        };
        consider(cap_cfg.v_backup);
        for &t in self.ipath.throttle.thresholds() {
            consider(t);
        }
        for &t in self.dpath.throttle.thresholds() {
            consider(t);
        }
        self.vwin_lo_nj = lo * (1.0 + MARGIN);
        self.vwin_hi_nj = hi * (1.0 - MARGIN);
    }

    /// One demand access through a cache path; returns its total cycles
    /// (1-cycle hit plus any stall). Monomorphized per path (`INST` is a
    /// const) so the fetch fast path specializes away the data-side
    /// branches.
    fn mem_access<const INST: bool>(&mut self, pc: u32, addr: u32, is_write: bool) -> u64 {
        let now = self.cycle;
        // Split borrows: the chosen path, NVM, energy, stats and the
        // candidate buffer are all disjoint fields.
        let Machine {
            ipath,
            dpath,
            nvm,
            energy,
            stats,
            pending_draw_nj,
            cand,
            cfg,
            tracer,
            ..
        } = self;
        let (path, pid) = if INST {
            (ipath, PathId::Inst)
        } else {
            (dpath, PathId::Data)
        };

        // Cache probe.
        let access_nj = cfg.energy.cache_access_nj;
        energy.cache_nj += access_nj;
        *pending_draw_nj += access_nj;
        let hit = path.cache.access(addr, is_write);

        let mut latency = 1u64;
        let outcome = if hit {
            AccessOutcome::CacheHit
        } else if let Some(found) = path.buf.lookup(addr, now) {
            // Useful prefetch: promote into the cache; a late prefetch
            // stalls until the NVM read completes (§5.1 duplicate
            // suppression).
            let late_by = found.ready_at.saturating_sub(now);
            latency += late_by;
            tracer.emit_with(|| SimEvent::BufferHit {
                cycle: now,
                path: pid,
                block: block_of(addr),
                late_by,
            });
            if late_by > 0 {
                tracer.emit_with(|| SimEvent::LatePrefetch {
                    cycle: now,
                    path: pid,
                    block: block_of(addr),
                    stall_cycles: late_by,
                });
            }
            fill_cache(
                path,
                nvm,
                energy,
                pending_draw_nj,
                now,
                addr,
                is_write,
                access_nj,
                tracer,
                pid,
            );
            AccessOutcome::BufferHit
        } else {
            // Demand miss to NVM.
            let done = nvm.read(now, ReadReason::Demand);
            if INST {
                stats.i_demand_reads += 1;
            } else {
                stats.d_demand_reads += 1;
            }
            // Dynamic block transfer plus the gated array's active-window
            // leakage for the transfer duration.
            let read_nj = cfg.nvm.block_read_nj()
                + mw_to_nj_per_cycle(cfg.nvm.active_leak_mw()) * cfg.nvm.read_cycles as f64;
            energy.memory_nj += read_nj;
            *pending_draw_nj += read_nj;
            latency += done - now;
            fill_cache(
                path,
                nvm,
                energy,
                pending_draw_nj,
                now,
                addr,
                is_write,
                access_nj,
                tracer,
                pid,
            );
            AccessOutcome::Miss
        };

        // Prefetcher observation, IPEX filtering, and issue in priority
        // order.
        let event = if INST {
            AccessEvent::fetch(addr, outcome)
        } else {
            AccessEvent::data(pc, addr, outcome, is_write)
        };
        cand.clear();
        path.pf.observe(&event, cand);
        let proposed = cand.len();
        let kept = path.throttle.filter(cand);
        let dropped = (proposed - kept) as u64;
        if dropped > 0 {
            tracer.emit_with(|| SimEvent::PrefetchThrottled {
                cycle: now,
                path: pid,
                count: dropped,
            });
        }
        for &block in cand.iter() {
            issue_prefetch(
                path,
                nvm,
                energy,
                stats,
                pending_draw_nj,
                now,
                block,
                tracer,
                pid,
            );
        }

        let stall = latency - 1;
        if INST {
            stats.istall_cycles += stall;
        } else {
            stats.dstall_cycles += stall;
        }
        latency
    }

    /// Advances on-time by `n` cycles: leakage + pending dynamic draw
    /// leave the capacitor, harvested energy enters it.
    fn advance_on(&mut self, n: u64) {
        let (li, ld, lc, _ln) = self.leak_nj;
        let nf = n as f64;
        self.energy.cache_nj += (li + ld) * nf;
        self.energy.compute_nj += lc * nf;
        let draw = (li + ld + lc) * nf + self.pending_draw_nj;
        self.pending_draw_nj = 0.0;
        self.cap.consume_nj(draw);
        let harvested = self.harvest_span(self.cycle, n);
        self.cap.harvest_nj(harvested);
        self.cycle += n;
        self.stats.on_cycles += n;
        self.stats.total_cycles = self.cycle;
    }

    /// Harvested energy (nJ) over `[start, start + n)` cycles.
    fn harvest_span(&mut self, start: u64, n: u64) -> f64 {
        let end = start + n;
        // Fast path: the whole span lies inside the cached trace sample,
        // so the sum below collapses to one multiply with the identical
        // rate (`0.0 + r*n == r*n` bit-exactly for the nonnegative rates
        // a power trace yields).
        if start >= self.hspan_start && end <= self.hspan_end {
            return self.hspan_rate * n as f64;
        }
        let mut total = 0.0;
        let mut c = start;
        while c < end {
            let idx = c / CYCLES_PER_TRACE_SAMPLE;
            let boundary = (idx + 1) * CYCLES_PER_TRACE_SAMPLE;
            let take = end.min(boundary) - c;
            let rate = self.trace.harvest_nj_per_cycle(idx);
            total += rate * take as f64;
            c = end.min(boundary);
            // Cache the last sample touched: the next span starts here.
            self.hspan_start = boundary - CYCLES_PER_TRACE_SAMPLE;
            self.hspan_end = boundary;
            self.hspan_rate = rate;
        }
        total
    }

    /// Starts an outage: emits the trigger event and enters the backup
    /// phase (ideal backup skips straight to power loss + recharge).
    fn begin_outage(&mut self) {
        let trigger_cycle = self.cycle;
        let trigger_v = self.cap.voltage();
        self.tracer.emit_with(|| SimEvent::OutageBegin {
            cycle: trigger_cycle,
            voltage: trigger_v,
        });
        if self.cfg.ideal_backup {
            self.enter_power_loss();
            return;
        }
        let br_before = self.energy.backup_restore_nj;
        let dirty = (self.dpath.cache.dirty_count() + self.ipath.cache.dirty_count()) as u64;
        self.stats.checkpoint_blocks += dirty;
        self.phase = Phase::Backup {
            remaining: dirty,
            backup_cycles: self.cfg.backup_base_cycles,
            br_before,
            dirty_total: dirty,
        };
    }

    /// Completes a backup after the last dirty-block write: NVFF store,
    /// backup-window leakage, the `BackupDone` event, then power loss.
    fn finish_backup(&mut self, backup_cycles: u64, br_before: f64, dirty_total: u64) {
        let bits =
            CORE_NVFF_BITS + self.ipath.throttle.nvff_bits() + self.dpath.throttle.nvff_bits();
        let store = self.cfg.energy.nvff_store_nj(bits);
        self.energy.backup_restore_nj += store;
        self.cap.consume_nj(store);
        // Leakage during the backup window, drawn from the reserve
        // (the NVM is active then: its leakage rides on the writes).
        let (li, ld, lc, ln) = self.leak_nj;
        let leak = (li + ld + lc + ln) * backup_cycles as f64;
        self.energy.backup_restore_nj += leak;
        self.cap.consume_nj(leak);
        self.cycle += backup_cycles;
        self.stats.off_cycles += backup_cycles;
        let done_cycle = self.cycle;
        let energy_nj = self.energy.backup_restore_nj - br_before;
        self.tracer.emit_with(|| SimEvent::BackupDone {
            cycle: done_cycle,
            dirty_blocks: dirty_total,
            backup_cycles,
            energy_nj,
        });
        self.enter_power_loss();
    }

    /// Volatile state is lost; the machine goes dark and recharges.
    fn enter_power_loss(&mut self) {
        // Querying adaptation counters costs a few loads; only pay while
        // tracing. Failure-time adaptations (e.g. the predictive policy
        // recording the outage in its tables) surface as `PolicyAdapt`.
        let adapt_before = if self.tracer.is_enabled() {
            Some((
                self.ipath.throttle.adaptations(),
                self.dpath.throttle.adaptations(),
            ))
        } else {
            None
        };
        let lost_i = self.ipath.power_loss();
        let lost_d = self.dpath.power_loss();
        let loss_cycle = self.cycle;
        for (lost, pid) in [(lost_i, PathId::Inst), (lost_d, PathId::Data)] {
            if lost > 0 {
                self.tracer.emit_with(|| SimEvent::LostUnused {
                    cycle: loss_cycle,
                    path: pid,
                    count: lost,
                });
            }
        }
        if let Some((before_i, before_d)) = adapt_before {
            self.emit_policy_adapt(before_i, before_d);
        }
        self.phase = Phase::Recharge;
    }

    /// Emits a [`SimEvent::PolicyAdapt`] per path whose adaptation
    /// counter advanced past the given marks. Tracing-only helper.
    fn emit_policy_adapt(&mut self, before_i: u64, before_d: u64) {
        let now = self.cycle;
        for (before, after, pid) in [
            (before_i, self.ipath.throttle.adaptations(), PathId::Inst),
            (before_d, self.dpath.throttle.adaptations(), PathId::Data),
        ] {
            if after != before {
                self.tracer.emit_with(|| SimEvent::PolicyAdapt {
                    cycle: now,
                    path: pid,
                    adaptations: after,
                });
            }
        }
    }

    /// Reboot once the capacitor can boot: restore registers (cold
    /// caches), reset per-power-cycle state, and resume execution.
    fn reboot(&mut self) {
        if !self.cfg.ideal_backup {
            let bits =
                CORE_NVFF_BITS + self.ipath.throttle.nvff_bits() + self.dpath.throttle.nvff_bits();
            let restore = self.cfg.energy.nvff_restore_nj(bits);
            self.energy.backup_restore_nj += restore;
            self.cap.consume_nj(restore);
            self.cycle += self.cfg.restore_cycles;
            self.stats.off_cycles += self.cfg.restore_cycles;
            if let Some(r) = self.fault.skip_restore_reg {
                // Injected bug: this register's NVFF "failed", so it
                // comes back as zero instead of its checkpointed value.
                self.interp.set_reg(r, 0);
            }
        }
        self.nvm.power_cycle_reset(self.cycle);
        // Reboot-time adaptations (e.g. IPEX moving its threshold
        // ladder) surface as `PolicyAdapt` events, like the
        // failure-time ones in `enter_power_loss`.
        let adapt_before = if self.tracer.is_enabled() {
            Some((
                self.ipath.throttle.adaptations(),
                self.dpath.throttle.adaptations(),
            ))
        } else {
            None
        };
        self.ipath.throttle.on_reboot();
        self.dpath.throttle.on_reboot();
        if let Some((before_i, before_d)) = adapt_before {
            self.emit_policy_adapt(before_i, before_d);
        }
        // The threshold ladders may have adapted and the controllers'
        // levels were reset: invalidate the band so the first
        // instruction of the new power cycle observes for real.
        self.vwin_lo_nj = f64::INFINITY;
        self.vwin_hi_nj = f64::NEG_INFINITY;
        self.stats.total_cycles = self.cycle;
        // Roll up the power cycle that just ended (its off-time — backup,
        // recharge, restore — is attributed to it), then begin the next.
        self.emit_power_cycle_summary();
        self.stats.power_cycles += 1;
        let restore_cycle = self.cycle;
        let power_cycle = self.stats.power_cycles;
        self.tracer.emit_with(|| SimEvent::Restore {
            cycle: restore_cycle,
            power_cycle,
        });
        self.phase = Phase::Run;
    }

    /// Emits a [`SimEvent::PowerCycleSummary`] for the power cycle
    /// ending now and re-marks the statistics snapshot. No-op while
    /// tracing is disabled.
    fn emit_power_cycle_summary(&mut self) {
        if !self.tracer.is_enabled() {
            return;
        }
        let tally = |t: &AnyPolicy| {
            t.stats()
                .map_or((0, 0), |s| (s.issued + s.throttled, s.throttled))
        };
        let (seen_i, throttled_i) = tally(&self.ipath.throttle);
        let (seen_d, throttled_d) = tally(&self.dpath.throttle);
        let (seen, throttled) = (seen_i + seen_d, throttled_i + throttled_d);
        let mark = self.mark;
        let d_seen = seen.saturating_sub(mark.ipex_seen);
        let d_throttled = throttled.saturating_sub(mark.ipex_throttled);
        let throttle_rate = if d_seen > 0 {
            d_throttled as f64 / d_seen as f64
        } else {
            0.0
        };
        let ev = SimEvent::PowerCycleSummary {
            cycle: self.cycle,
            power_cycle: self.stats.power_cycles,
            on_cycles: self.stats.on_cycles - mark.on_cycles,
            off_cycles: self.stats.off_cycles - mark.off_cycles,
            cache_nj: self.energy.cache_nj - mark.cache_nj,
            memory_nj: self.energy.memory_nj - mark.memory_nj,
            compute_nj: self.energy.compute_nj - mark.compute_nj,
            backup_restore_nj: self.energy.backup_restore_nj - mark.backup_restore_nj,
            throttle_rate,
        };
        self.tracer.emit_with(move || ev);
        self.mark = CycleMark {
            on_cycles: self.stats.on_cycles,
            off_cycles: self.stats.off_cycles,
            cache_nj: self.energy.cache_nj,
            memory_nj: self.energy.memory_nj,
            compute_nj: self.energy.compute_nj,
            backup_restore_nj: self.energy.backup_restore_nj,
            ipex_seen: seen,
            ipex_throttled: throttled,
        };
    }
}

/// Imports one component's saved state into the component the
/// configuration built, labelling a rejection with its snapshot field.
fn import<P: Persist>(
    component: &mut P,
    state: &P::State,
    field: &str,
) -> Result<(), SnapshotError> {
    component
        .import_state(state)
        .map_err(|e| SnapshotError::State(format!("{field}: {e}")))
}

/// Installs a block in the cache, handling a dirty eviction (write-back
/// to NVM: port traffic + energy, no pipeline stall — write-buffer
/// semantics).
#[allow(clippy::too_many_arguments)]
fn fill_cache(
    path: &mut MemPath,
    nvm: &mut Nvm,
    energy: &mut EnergyBreakdown,
    pending: &mut f64,
    now: u64,
    addr: u32,
    is_write: bool,
    access_nj: f64,
    tracer: &mut Tracer,
    pid: PathId,
) {
    energy.cache_nj += access_nj;
    *pending += access_nj;
    tracer.emit_with(|| SimEvent::CacheFill {
        cycle: now,
        path: pid,
        block: block_of(addr),
    });
    if let Some(wb) = path.cache.fill(addr, is_write) {
        nvm.write(now);
        let cfg = nvm.config();
        let w = cfg.block_write_nj()
            + mw_to_nj_per_cycle(cfg.active_leak_mw()) * cfg.write_cycles as f64;
        energy.memory_nj += w;
        *pending += w;
        tracer.emit_with(|| SimEvent::Writeback {
            cycle: now,
            path: pid,
            block: wb.block,
        });
    }
}

/// Issues one prefetch: skipped if the block is already cached or
/// in-flight, otherwise an NVM read is scheduled and the buffer records
/// the completion time.
#[allow(clippy::too_many_arguments)]
fn issue_prefetch(
    path: &mut MemPath,
    nvm: &mut Nvm,
    energy: &mut EnergyBreakdown,
    stats: &mut SimStats,
    pending: &mut f64,
    now: u64,
    block: u32,
    tracer: &mut Tracer,
    pid: PathId,
) {
    if path.cache.contains(block) {
        stats.redundant_cache_skips += 1;
        return;
    }
    if path.buf.contains(block) {
        stats.redundant_cache_skips += 1;
        return;
    }
    let done = nvm.read(now, ReadReason::Prefetch);
    let cfg = nvm.config();
    let r = cfg.block_read_nj() + mw_to_nj_per_cycle(cfg.active_leak_mw()) * cfg.read_cycles as f64;
    energy.memory_nj += r;
    *pending += r;
    tracer.emit_with(|| SimEvent::PrefetchIssued {
        cycle: now,
        path: pid,
        block,
        done_at: done,
    });
    if let InsertOutcome::InsertedEvicting(victim) = path.buf.insert(block, done) {
        tracer.emit_with(|| SimEvent::EvictedUnused {
            cycle: now,
            path: pid,
            block: victim,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ipex;
    use ehs_energy::CapacitorConfig;
    use ehs_isa::asm;

    fn tiny_program() -> Program {
        // ~60k cycles of streaming loads/stores: long enough to span
        // several power cycles under weak harvested power.
        asm::assemble(
            r#"
            .text
            main:
                li   t0, 0
                li   t1, 6000
                la   a1, buf
            loop:
                andi t4, t0, 255
                slli t2, t4, 2
                add  t2, a1, t2
                sw   t0, 0(t2)
                lw   t3, 0(t2)
                add  a0, a0, t3
                addi t0, t0, 1
                blt  t0, t1, loop
                halt
            .data
            buf: .space 1024
            "#,
        )
        .unwrap()
    }

    fn steady_power(cfg: SimConfig) -> SimResult {
        // 50 mW >> draw: never an outage.
        let trace = PowerTrace::constant_mw(50.0, 16);
        Machine::with_trace(cfg, &tiny_program(), trace)
            .run()
            .unwrap()
    }

    #[test]
    fn completes_under_steady_power_without_outage() {
        let r = steady_power(SimConfig::default());
        assert_eq!(r.stats.power_cycles, 1);
        assert_eq!(r.stats.off_cycles, 0);
        assert!(r.stats.instructions > 1000);
        assert_eq!(r.stats.total_cycles, r.stats.on_cycles);
    }

    #[test]
    fn prefetching_reduces_cycles_on_streaming_code() {
        let no_pf = steady_power(SimConfig::builder().no_prefetch().build());
        let pf = steady_power(SimConfig::default());
        assert!(
            pf.stats.total_cycles < no_pf.stats.total_cycles,
            "prefetch {} >= none {}",
            pf.stats.total_cycles,
            no_pf.stats.total_cycles
        );
        assert!(pf.nvm.prefetch_reads > 0);
        assert_eq!(no_pf.nvm.prefetch_reads, 0);
    }

    #[test]
    fn weak_power_causes_outages_and_checkpoints() {
        // 2 mW << draw: frequent outages.
        let trace = PowerTrace::constant_mw(2.0, 16);
        let mut m = Machine::with_trace(SimConfig::default(), &tiny_program(), trace);
        let r = m.run().unwrap();
        assert!(r.stats.power_cycles > 1, "expected outages");
        assert!(r.stats.off_cycles > 0);
        assert!(r.energy.backup_restore_nj > 0.0);
        assert!(
            r.stats.checkpoint_blocks > 0,
            "dirty DCache lines must be flushed"
        );
    }

    #[test]
    fn ideal_backup_is_faster_and_cheaper() {
        let trace = PowerTrace::constant_mw(2.0, 16);
        let real = Machine::with_trace(SimConfig::default(), &tiny_program(), trace.clone())
            .run()
            .unwrap();
        let ideal = Machine::with_trace(
            SimConfig::default().with_ideal_backup(),
            &tiny_program(),
            trace,
        )
        .run()
        .unwrap();
        assert!(ideal.stats.total_cycles <= real.stats.total_cycles);
        assert_eq!(ideal.energy.backup_restore_nj, 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = PowerTrace::constant_mw(3.0, 16);
        let a = Machine::with_trace(
            SimConfig::builder().ipex(Ipex::Both).build(),
            &tiny_program(),
            trace.clone(),
        )
        .run()
        .unwrap();
        let b = Machine::with_trace(
            SimConfig::builder().ipex(Ipex::Both).build(),
            &tiny_program(),
            trace,
        )
        .run()
        .unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.nvm, b.nvm);
    }

    #[test]
    fn ipex_throttles_under_weak_power() {
        let trace = PowerTrace::constant_mw(2.0, 16);
        let r = Machine::with_trace(
            SimConfig::builder().ipex(Ipex::Both).build(),
            &tiny_program(),
            trace,
        )
        .run()
        .unwrap();
        let ipex_d = r.ipex_d.expect("IPEX enabled on DCache");
        assert!(
            ipex_d.throttled > 0,
            "weak power must throttle some prefetches"
        );
        assert!(r.stats.power_cycles > 1);
    }

    #[test]
    fn never_boots_hits_cycle_limit() {
        // 0.001 mW can never recharge the capacitor after the first
        // outage.
        let trace = PowerTrace::constant_mw(0.001, 16);
        let cfg = SimConfig {
            max_cycles: 5_000_000,
            ..SimConfig::default()
        };
        let err = Machine::with_trace(cfg, &tiny_program(), trace)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::CycleLimit { .. }));
    }

    #[test]
    fn energy_buckets_are_populated() {
        let r = steady_power(SimConfig::default());
        assert!(r.energy.cache_nj > 0.0);
        assert!(r.energy.memory_nj > 0.0);
        assert!(r.energy.compute_nj > 0.0);
        assert!(r.total_energy_nj() > 0.0);
    }

    #[test]
    fn larger_capacitor_means_fewer_power_cycles() {
        let trace = PowerTrace::constant_mw(3.0, 16);
        let small = Machine::with_trace(SimConfig::default(), &tiny_program(), trace.clone())
            .run()
            .unwrap();
        let big_cfg = SimConfig {
            capacitor: CapacitorConfig::with_capacitance_uf(47.0),
            ..SimConfig::default()
        };
        let big = Machine::with_trace(big_cfg, &tiny_program(), trace)
            .run()
            .unwrap();
        assert!(big.stats.power_cycles < small.stats.power_cycles);
    }

    #[test]
    fn run_until_pauses_and_continuation_matches_whole_run() {
        let trace = PowerTrace::constant_mw(3.0, 16);
        let cfg = SimConfig::builder().ipex(Ipex::Both).build();
        let whole = Machine::with_trace(cfg.clone(), &tiny_program(), trace.clone())
            .run()
            .unwrap();
        let mut m = Machine::with_trace(cfg, &tiny_program(), trace);
        let mut pauses = 0;
        loop {
            match m.run_until(m.cycle() + 10_000).unwrap() {
                RunStatus::Paused => pauses += 1,
                RunStatus::Completed(split) => {
                    assert_eq!(split.stats, whole.stats);
                    assert_eq!(split.energy, whole.energy);
                    assert_eq!(split.nvm, whole.nvm);
                    break;
                }
            }
        }
        assert!(pauses > 3, "expected several pauses, got {pauses}");
    }

    #[test]
    fn snapshot_resume_is_bit_identical() {
        let program = tiny_program();
        let trace = PowerTrace::constant_mw(3.0, 16);
        let cfg = SimConfig::builder().ipex(Ipex::Both).build();
        let whole = Machine::with_trace(cfg.clone(), &program, trace.clone())
            .run()
            .unwrap();
        let mut m = Machine::with_trace(cfg, &program, trace.clone());
        assert!(matches!(m.run_until(40_000).unwrap(), RunStatus::Paused));
        // Round-trip the snapshot through its JSON wire format.
        let json = m.snapshot(&program).to_json();
        let snap = Snapshot::from_json(&json).unwrap();
        let mut r = Machine::resume(&snap, &program, trace).unwrap();
        // The resumed machine must be in the captured state exactly...
        assert_eq!(r.state_digest(&program), snap.digest());
        // ...and finishing it must match the uninterrupted run.
        let split = r.run().unwrap();
        assert_eq!(split.stats, whole.stats);
        assert_eq!(split.energy, whole.energy);
        assert_eq!(split.nvm, whole.nvm);
        assert_eq!(split.icache, whole.icache);
        assert_eq!(split.dcache, whole.dcache);
    }

    #[test]
    fn snapshot_can_land_mid_outage_and_still_resume_exactly() {
        let program = tiny_program();
        // Weak power: outages dominate, so tight pause targets land in
        // Backup/Recharge phases regularly. A small NVM keeps the many
        // per-pause memory-delta scans cheap in debug builds.
        let trace = PowerTrace::constant_mw(2.0, 16);
        let mut cfg = SimConfig::default();
        cfg.nvm.size_bytes = 1 << 21;
        let whole = Machine::with_trace(cfg.clone(), &program, trace.clone())
            .run()
            .unwrap();
        let mut m = Machine::with_trace(cfg, &program, trace.clone());
        let (mut saw_backup, mut saw_recharge) = (false, false);
        let final_stats = loop {
            match m.run_until(m.cycle() + 500).unwrap() {
                RunStatus::Completed(r) => break *r,
                RunStatus::Paused => match m.phase() {
                    Phase::Backup { .. } => saw_backup = true,
                    Phase::Recharge => saw_recharge = true,
                    Phase::Run => {}
                },
            }
            // Swap the machine for its snapshot-resumed double at every
            // pause: any missed state component breaks the final totals.
            let snap = Snapshot::from_json(&m.snapshot(&program).to_json()).unwrap();
            m = Machine::resume(&snap, &program, trace.clone()).unwrap();
        };
        assert!(saw_recharge, "pauses never landed mid-recharge");
        assert!(saw_backup || whole.stats.checkpoint_blocks == 0);
        assert_eq!(final_stats.stats, whole.stats);
        assert_eq!(final_stats.energy, whole.energy);
        assert_eq!(final_stats.nvm, whole.nvm);
    }

    #[test]
    fn resume_rejects_mismatched_inputs() {
        let program = tiny_program();
        let trace = PowerTrace::constant_mw(3.0, 16);
        let mut m = Machine::with_trace(SimConfig::default(), &program, trace.clone());
        let _ = m.run_until(10_000).unwrap();
        let snap = m.snapshot(&program);

        let other_trace = PowerTrace::constant_mw(4.0, 16);
        assert!(matches!(
            Machine::resume(&snap, &program, other_trace),
            Err(SnapshotError::TraceMismatch { .. })
        ));

        let other_program = asm::assemble(".text\nmain:\n li a0, 1\n halt\n").unwrap();
        assert!(matches!(
            Machine::resume(&snap, &other_program, trace.clone()),
            Err(SnapshotError::ProgramMismatch { .. })
        ));

        let mut stale = snap.clone();
        stale.version += 1;
        assert!(matches!(
            Machine::resume(&stale, &program, trace),
            Err(SnapshotError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn trace_counts_survive_snapshot_resume() {
        let program = tiny_program();
        let trace = PowerTrace::constant_mw(2.5, 16);
        let cfg = SimConfig::default().with_trace_mode(crate::TraceMode::Counting);
        let whole_counts = {
            let mut m = Machine::with_trace(cfg.clone(), &program, trace.clone());
            m.run().unwrap();
            *m.trace_counts()
        };
        let mut m = Machine::with_trace(cfg, &program, trace.clone());
        let _ = m.run_until(60_000).unwrap();
        let snap = m.snapshot(&program);
        let mut r = Machine::resume(&snap, &program, trace).unwrap();
        r.run().unwrap();
        assert_eq!(*r.trace_counts(), whole_counts);
        assert!(
            whole_counts.cache_fill > 0,
            "counting mode must tally events"
        );
    }

    /// Runs the tiny program under weak power (frequent outages, so
    /// plenty of threshold crossings) with IPEX and event counting on,
    /// after applying `tweak` to the fresh machine.
    fn weak_power_counted(tweak: impl FnOnce(&mut Machine)) -> (SimResult, EventCounts) {
        let cfg = SimConfig::builder()
            .ipex(Ipex::Both)
            .trace_mode(crate::TraceMode::Counting)
            .build();
        let trace = PowerTrace::constant_mw(2.0, 16);
        let mut m = Machine::with_trace(cfg, &tiny_program(), trace);
        tweak(&mut m);
        let r = m.run().unwrap();
        (r, *m.trace_counts())
    }

    /// The batched voltage window is an observation *schedule*, not a
    /// model change: forcing the exhaustive per-instruction check must
    /// reproduce the batched run bit-for-bit, including the number of
    /// `ThresholdCross` events — a window that skipped past a crossing
    /// would show up here as a lost event.
    #[test]
    fn exhaustive_voltage_checks_match_batched_including_threshold_crossings() {
        let (batched, batched_counts) = weak_power_counted(|_| {});
        let (exact, exact_counts) = weak_power_counted(|m| m.set_exhaustive_voltage_checks(true));
        assert_eq!(batched, exact);
        assert_eq!(batched_counts, exact_counts);
        assert!(
            batched_counts.threshold_cross > 0,
            "weak power must cross thresholds or the test proves nothing"
        );
        assert!(batched.stats.power_cycles > 1, "expected outages");
    }

    /// The decode cache is a pure execution-engine optimisation; with
    /// it disabled the machine must still produce the same results and
    /// the same event stream.
    #[test]
    fn decode_cache_off_matches_batched_run_exactly() {
        let (fast, fast_counts) = weak_power_counted(|_| {});
        let (slow, slow_counts) = weak_power_counted(|m| m.set_decode_cache_enabled(false));
        assert_eq!(fast, slow);
        assert_eq!(fast_counts, slow_counts);
    }

    /// Every alternative throttling policy must drive a machine to
    /// completion under weak power and actually gate prefetches: the
    /// policy API is load-bearing, not decorative.
    #[test]
    fn policy_machines_run_and_throttle_under_weak_power() {
        use ipex::{HysteresisConfig, PolicyConfig, PredictiveConfig, StaticDegreeConfig};
        let trace = PowerTrace::constant_mw(2.0, 16);
        // The predictive policy only throttles once a context gathers
        // enough outage-interval evidence, which this short program may
        // not provide — for it, seeing the outages (power cycles) and
        // issuing prefetches is the load-bearing part.
        for (pc, must_throttle) in [
            (
                PolicyConfig::Predictive(PredictiveConfig::paper_default()),
                false,
            ),
            (
                PolicyConfig::Hysteresis(HysteresisConfig::paper_default()),
                true,
            ),
            (
                PolicyConfig::StaticDegree(StaticDegreeConfig::conservative()),
                true,
            ),
        ] {
            let kind = pc.kind_name();
            let cfg = SimConfig::builder().throttle_policy(Ipex::Both, pc).build();
            let r = Machine::with_trace(cfg, &tiny_program(), trace.clone())
                .run()
                .unwrap();
            assert!(r.stats.power_cycles > 1, "{kind}: expected outages");
            let i = r
                .ipex_i
                .unwrap_or_else(|| panic!("{kind}: no ICache stats"));
            let d = r
                .ipex_d
                .unwrap_or_else(|| panic!("{kind}: no DCache stats"));
            assert!(i.issued + d.issued > 0, "{kind}: prefetching never ran");
            assert!(d.power_cycles > 1, "{kind}: policy missed the outages");
            if must_throttle {
                assert!(
                    i.throttled + d.throttled > 0,
                    "{kind}: weak power must suppress some prefetches"
                );
            }
        }
    }

    /// The batched voltage window must stay an observation *schedule*
    /// for policies that forbid it: machines driven by a
    /// non-threshold policy (EWMA state per observation) already run
    /// exact, so forcing exhaustive checks changes nothing.
    #[test]
    fn exhaustive_checks_are_identity_for_non_batchable_policies() {
        use ipex::{HysteresisConfig, PolicyConfig};
        let run = |exhaustive: bool| {
            let cfg = SimConfig::builder()
                .throttle_policy(
                    Ipex::Both,
                    PolicyConfig::Hysteresis(HysteresisConfig::paper_default()),
                )
                .build();
            let mut m = Machine::with_trace(cfg, &tiny_program(), PowerTrace::constant_mw(2.0, 16));
            m.set_exhaustive_voltage_checks(exhaustive);
            m.run().unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    /// Snapshots taken by a policy-driven machine round-trip exactly,
    /// and resuming one against a configuration that builds a
    /// *different* policy fails with a state error naming both kinds; a
    /// throttle state of the right kind carrying an invalid
    /// configuration fails as a state error too.
    #[test]
    fn resume_names_policy_kinds_on_mismatch() {
        use ipex::{PolicyConfig, PolicyState, PredictiveConfig};
        let program = tiny_program();
        let trace = PowerTrace::constant_mw(3.0, 16);
        let cfg = SimConfig::builder()
            .throttle_policy(
                Ipex::Both,
                PolicyConfig::Predictive(PredictiveConfig::paper_default()),
            )
            .build();
        let whole = Machine::with_trace(cfg.clone(), &program, trace.clone())
            .run()
            .unwrap();
        let mut m = Machine::with_trace(cfg, &program, trace.clone());
        assert!(matches!(m.run_until(40_000).unwrap(), RunStatus::Paused));
        let snap = Snapshot::from_json(&m.snapshot(&program).to_json()).unwrap();

        // Clean resume completes identically to the whole run.
        let split = Machine::resume(&snap, &program, trace.clone())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(split.stats, whole.stats);
        assert_eq!(split.energy, whole.energy);

        // A doctored throttle state of the wrong kind is rejected as a
        // state error naming the path and both policy kinds.
        let mut doctored = snap.clone();
        doctored.ithrottle = PolicyState::Passthrough;
        match Machine::resume(&doctored, &program, trace.clone()) {
            Ok(_) => panic!("doctored snapshot must be rejected"),
            Err(SnapshotError::State(msg)) => {
                for word in ["instruction", "passthrough", "predictive"] {
                    assert!(msg.contains(word), "{word} missing from: {msg}");
                }
            }
            Err(other) => panic!("expected SnapshotError::State, got {other:?}"),
        }

        // An IPEX state whose own config breaks the 3-bit `Ripd` limit
        // is rejected by validation, not by a panic in the controller.
        let cfg = SimConfig::builder().ipex(Ipex::Both).build();
        let mut m = Machine::with_trace(cfg, &program, trace.clone());
        assert!(matches!(m.run_until(40_000).unwrap(), RunStatus::Paused));
        let mut doctored = m.snapshot(&program);
        let PolicyState::Ipex(state) = &mut doctored.ithrottle else {
            panic!("IPEX machine exported a non-IPEX throttle state");
        };
        state.cfg.max_degree = 9;
        match Machine::resume(&doctored, &program, trace) {
            Ok(_) => panic!("invalid IPEX state must be rejected"),
            Err(SnapshotError::State(msg)) => assert!(msg.contains("3-bit"), "{msg}"),
            Err(other) => panic!("expected SnapshotError::State, got {other:?}"),
        }
    }

    /// Version-1 snapshots (pre policy API) still resume: the migration
    /// shim lifts them to the current version in memory.
    #[test]
    fn v1_snapshots_migrate_and_resume() {
        let program = tiny_program();
        let trace = PowerTrace::constant_mw(3.0, 16);
        let cfg = SimConfig::builder().ipex(Ipex::Both).build();
        let mut m = Machine::with_trace(cfg, &program, trace.clone());
        assert!(matches!(m.run_until(40_000).unwrap(), RunStatus::Paused));
        let whole = Machine::with_trace(
            SimConfig::builder().ipex(Ipex::Both).build(),
            &program,
            trace.clone(),
        )
        .run()
        .unwrap();
        let mut snap = m.snapshot(&program);
        snap.version = 1;
        let split = Machine::resume(&snap, &program, trace)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(split.stats, whole.stats);
        assert_eq!(split.energy, whole.energy);
    }

    /// Adapting policies announce their adaptation events through the
    /// tracer: IPEX moves thresholds at reboots, the predictive policy
    /// records outage intervals at power failures — both must surface
    /// as `policy-adapt` events under weak power.
    #[test]
    fn policy_adapt_events_are_counted() {
        use ipex::{PolicyConfig, PredictiveConfig};
        let trace = PowerTrace::constant_mw(2.0, 16);
        for cfg in [
            SimConfig::builder()
                .ipex(Ipex::Both)
                .trace_mode(crate::TraceMode::Counting)
                .build(),
            SimConfig::builder()
                .throttle_policy(
                    Ipex::Both,
                    PolicyConfig::Predictive(PredictiveConfig::paper_default()),
                )
                .trace_mode(crate::TraceMode::Counting)
                .build(),
        ] {
            let mut m = Machine::with_trace(cfg, &tiny_program(), trace.clone());
            let r = m.run().unwrap();
            assert!(r.stats.power_cycles > 1, "expected outages");
            assert!(
                m.trace_counts().policy_adapt > 0,
                "adaptations must be announced as policy-adapt events"
            );
        }
    }

    #[test]
    fn faulting_program_reports_exec_error() {
        let p = asm::assemble(
            ".text\nmain:\n li a1, 0x7ffffff\n slli a1, a1, 4\n lw a0, 0(a1)\n halt\n",
        )
        .unwrap();
        let err = Machine::with_trace(SimConfig::default(), &p, PowerTrace::constant_mw(50.0, 4))
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Exec(_)));
    }
}
