//! The simulated machine and its main loop.

use ehs_energy::{mw_to_nj_per_cycle, Capacitor, EnergyBreakdown, PowerTrace};
use ehs_isa::{ExecClass, ExecError, Interpreter, LoadImage, Program};
use ehs_mem::{block_of, Cache, InsertOutcome, Nvm, Persist, PrefetchBuffer, ReadReason};
use ehs_prefetch::{AccessEvent, AccessOutcome, AnyPrefetcher, Prefetcher};
use ipex::AnyPolicy;

use serde::{Deserialize, Serialize};

use crate::config::{PrefetchMode, CYCLES_PER_TRACE_SAMPLE};
use crate::snapshot::{self, Phase, Snapshot, SnapshotError, SNAPSHOT_VERSION};
use crate::trace::{EventCounts, PathId, SimEvent, TraceSink, Tracer};
use crate::{ConfigError, SimConfig, SimResult, SimStats};

/// `last_fetch_block` value meaning "no fetch since the last power
/// loss": blocks are 16-byte aligned, so no block equals it.
const NO_BLOCK: u32 = u32::MAX;

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

/// What both memory paths share: the one NVM port, and the energy,
/// statistics and event trace every access charges. A path's
/// operations borrow it from the machine for one call.
struct Bus {
    nvm: Nvm,
    energy: EnergyBreakdown,
    stats: SimStats,
    /// Dynamic energy charged since the last `advance_on`.
    pending_draw_nj: f64,
    /// Event tracing front end ([`TraceMode::Off`](crate::TraceMode) by
    /// default: a single disabled branch per emission site).
    tracer: Tracer,
    /// Scratch buffer for prefetch candidates.
    cand: Vec<u32>,
    /// Energy of one cache probe or fill, nJ.
    cache_access_nj: f64,
    /// Energy of one NVM block read (demand or prefetch), nJ: the
    /// dynamic transfer plus the gated array's active-window leakage
    /// for the transfer's duration.
    read_nj: f64,
    /// Energy of one dirty write-back to NVM, nJ, likewise.
    writeback_nj: f64,
}

impl Bus {
    fn new(cfg: &SimConfig, tracer: Tracer) -> Bus {
        let nvm = cfg.nvm;
        Bus {
            nvm: Nvm::new(nvm),
            energy: EnergyBreakdown::new(),
            stats: SimStats::default(),
            pending_draw_nj: 0.0,
            tracer,
            cand: Vec::with_capacity(8),
            cache_access_nj: cfg.energy.cache_access_nj,
            read_nj: nvm.block_read_nj()
                + mw_to_nj_per_cycle(nvm.active_leak_mw()) * nvm.read_cycles as f64,
            writeback_nj: nvm.block_write_nj()
                + mw_to_nj_per_cycle(nvm.active_leak_mw()) * nvm.write_cycles as f64,
        }
    }

    /// Charges one cache probe or fill.
    #[inline]
    fn charge_cache(&mut self) {
        self.energy.cache_nj += self.cache_access_nj;
        self.pending_draw_nj += self.cache_access_nj;
    }

    /// Charges one NVM block transfer of `nj`.
    #[inline]
    fn charge_memory(&mut self, nj: f64) {
        self.energy.memory_nj += nj;
        self.pending_draw_nj += nj;
    }
}

/// One side (instruction or data) of the memory hierarchy.
struct MemPath {
    id: PathId,
    cache: Cache,
    buf: PrefetchBuffer,
    /// Enum-dispatched so the per-access `observe` call in the hot loop
    /// inlines instead of going through a vtable (see `ehs-prefetch`'s
    /// `any` module and DESIGN.md §8).
    pf: AnyPrefetcher,
    throttle: AnyPolicy,
}

impl MemPath {
    /// Wipes all volatile state, tracing the unused prefetch-buffer
    /// entries lost with it.
    fn power_loss(&mut self, bus: &mut Bus, now: u64) {
        self.cache.checkpoint_flush(); // ICache is never dirty; DCache flush counted by caller
        self.cache.power_loss();
        let lost = self.buf.power_loss() as u64;
        self.pf.power_loss();
        self.throttle.on_power_failure();
        if lost > 0 {
            bus.tracer.emit_with(|| SimEvent::LostUnused {
                cycle: now,
                path: self.id,
                count: lost,
            });
        }
    }

    /// A fetch from the block fetched just before, with no power loss
    /// in between: the block is resident (the previous fetch hit,
    /// promoted or filled it, and only a fetch or a power loss changes
    /// the ICache), and every instruction prefetcher ignores a hit on
    /// the block it last saw (sequential dedupes on its last trigger
    /// block; Markov and TIFS train on misses only), so the prefetcher
    /// probe, throttle filter and issue loop of [`MemPath::mem_access`]
    /// would all be no-ops. What remains is the cache probe itself, with
    /// the same energy adds in the same order.
    #[inline]
    fn fetch_resident(&mut self, bus: &mut Bus, pc: u32) -> u64 {
        bus.charge_cache();
        let hit = self.cache.access(pc, false);
        debug_assert!(hit, "same-block fetch of {pc:#x} missed the ICache");
        1
    }

    /// Feeds the capacitor voltage to this path's throttling policy,
    /// tracing threshold crossings and reissuing throttled prefetches
    /// (§5.1 extension).
    fn observe_voltage(&mut self, bus: &mut Bus, now: u64, v: f64) {
        // Querying the degree costs a couple of loads; only pay for it
        // while tracing.
        let old_degree = if bus.tracer.is_enabled() {
            self.throttle.current_degree()
        } else {
            None
        };
        let reissue = self.throttle.observe_voltage(v);
        // The controller only returns a list when the §5.1 reissue
        // extension drains its queue, so degree changes are detected by
        // comparing Rcpd around the update rather than from the return
        // value (otherwise crossings would go untraced under the default
        // `reissue_throttled: false`).
        if bus.tracer.is_enabled() {
            let new_degree = self.throttle.current_degree();
            if new_degree != old_degree {
                bus.tracer.emit_with(|| SimEvent::ThresholdCross {
                    cycle: now,
                    path: self.id,
                    voltage: v,
                    old_degree: old_degree.unwrap_or(0),
                    new_degree: new_degree.unwrap_or(0),
                });
            }
        }
        if let Some(reissue) = reissue {
            for block in reissue {
                bus.tracer.emit_with(|| SimEvent::PrefetchReissued {
                    cycle: now,
                    path: self.id,
                    block,
                });
                self.issue_prefetch(bus, now, block);
            }
        }
    }

    /// One demand access through this path; returns its total cycles
    /// (1-cycle hit plus any stall). Monomorphized per path (`INST` is a
    /// const, `true` on the instruction path only) so the fetch fast
    /// path specializes away the data-side branches.
    fn mem_access<const INST: bool>(
        &mut self,
        bus: &mut Bus,
        now: u64,
        pc: u32,
        addr: u32,
        is_write: bool,
    ) -> u64 {
        // Cache probe.
        bus.charge_cache();
        let hit = self.cache.access(addr, is_write);

        let mut latency = 1u64;
        let outcome = if hit {
            AccessOutcome::CacheHit
        } else if let Some(found) = self.buf.lookup(addr, now) {
            // Useful prefetch: promote into the cache; a late prefetch
            // stalls until the NVM read completes (§5.1 duplicate
            // suppression).
            let late_by = found.ready_at.saturating_sub(now);
            latency += late_by;
            bus.tracer.emit_with(|| SimEvent::BufferHit {
                cycle: now,
                path: self.id,
                block: block_of(addr),
                late_by,
            });
            if late_by > 0 {
                bus.tracer.emit_with(|| SimEvent::LatePrefetch {
                    cycle: now,
                    path: self.id,
                    block: block_of(addr),
                    stall_cycles: late_by,
                });
            }
            self.fill_cache(bus, now, addr, is_write);
            AccessOutcome::BufferHit
        } else {
            // Demand miss to NVM.
            let done = bus.nvm.read(now, ReadReason::Demand);
            if INST {
                bus.stats.i_demand_reads += 1;
            } else {
                bus.stats.d_demand_reads += 1;
            }
            bus.charge_memory(bus.read_nj);
            latency += done - now;
            self.fill_cache(bus, now, addr, is_write);
            AccessOutcome::Miss
        };

        // Prefetcher observation, throttle filtering, and issue in
        // priority order.
        let event = if INST {
            AccessEvent::fetch(addr, outcome)
        } else {
            AccessEvent::data(pc, addr, outcome, is_write)
        };
        // Taken for the issue loop, which borrows the rest of the bus.
        let mut cand = std::mem::take(&mut bus.cand);
        cand.clear();
        self.pf.observe(&event, &mut cand);
        let proposed = cand.len();
        let kept = self.throttle.filter(&mut cand);
        let dropped = (proposed - kept) as u64;
        if dropped > 0 {
            bus.tracer.emit_with(|| SimEvent::PrefetchThrottled {
                cycle: now,
                path: self.id,
                count: dropped,
            });
        }
        for &block in &cand {
            self.issue_prefetch(bus, now, block);
        }
        bus.cand = cand;

        let stall = latency - 1;
        if INST {
            bus.stats.istall_cycles += stall;
        } else {
            bus.stats.dstall_cycles += stall;
        }
        latency
    }

    /// Installs a block in the cache, handling a dirty eviction
    /// (write-back to NVM: port traffic + energy, no pipeline stall —
    /// write-buffer semantics).
    fn fill_cache(&mut self, bus: &mut Bus, now: u64, addr: u32, is_write: bool) {
        bus.charge_cache();
        bus.tracer.emit_with(|| SimEvent::CacheFill {
            cycle: now,
            path: self.id,
            block: block_of(addr),
        });
        if let Some(wb) = self.cache.fill(addr, is_write) {
            bus.nvm.write(now);
            bus.charge_memory(bus.writeback_nj);
            bus.tracer.emit_with(|| SimEvent::Writeback {
                cycle: now,
                path: self.id,
                block: wb.block,
            });
        }
    }

    /// Issues one prefetch: skipped if the block is already cached or
    /// in-flight, otherwise an NVM read is scheduled and the buffer
    /// records the completion time.
    fn issue_prefetch(&mut self, bus: &mut Bus, now: u64, block: u32) {
        if self.cache.contains(block) || self.buf.contains(block) {
            bus.stats.redundant_cache_skips += 1;
            return;
        }
        let done = bus.nvm.read(now, ReadReason::Prefetch);
        bus.charge_memory(bus.read_nj);
        bus.tracer.emit_with(|| SimEvent::PrefetchIssued {
            cycle: now,
            path: self.id,
            block,
            done_at: done,
        });
        if let InsertOutcome::InsertedEvicting(victim) = self.buf.insert(block, done) {
            bus.tracer.emit_with(|| SimEvent::EvictedUnused {
                cycle: now,
                path: self.id,
                block: victim,
            });
        }
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
/// Construct with [`Machine::with_trace`] (pass
/// [`SimConfig::default_trace`] for the standard synthetic RFHome
/// trace), then call [`Machine::run`].
pub struct Machine {
    cfg: SimConfig,
    interp: Interpreter,
    ipath: MemPath,
    dpath: MemPath,
    bus: Bus,
    cap: Capacitor,
    trace: PowerTrace,
    cycle: u64,
    /// Cached per-cycle leakage, nJ: (icache, dcache, core, nvm).
    leak_nj: (f64, f64, f64, f64),
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
    /// `(vwin_lo_nj, vwin_hi_nj)`, no policy threshold nor the backup
    /// trigger can cross, so the per-instruction voltage observation
    /// may be skipped for up to `vspan_left` more instructions. Derived
    /// state (never snapshotted); an invalid band (`lo > hi`) forces the
    /// next instruction down the exact observe path, which recomputes
    /// it. See [`Machine::recompute_voltage_window`].
    vwin_lo_nj: f64,
    vwin_hi_nj: f64,
    /// Observations the policies can still absorb unread in the current
    /// span ([`AnyPolicy::skippable_observations`] at the last real
    /// observation, counted down by every skipped one).
    vspan_left: u64,
    /// `vspan_left` when the policies were last brought up to date:
    /// `vspan_len - vspan_left` skipped observations are still owed to
    /// them (see [`Machine::settle_skipped_observations`]).
    vspan_len: u64,
    /// Verification hook: `true` pins the band invalid and the span
    /// empty, so every instruction performs the full observation
    /// sequence.
    vwin_forced_off: bool,
    /// Block of the previous instruction fetch since the last power
    /// loss ([`NO_BLOCK`] if none). That block is resident in the
    /// ICache, and every instruction prefetcher ignores a repeat hit on
    /// it, so a fetch from it skips the prefetcher probe. Derived state,
    /// never snapshotted.
    last_fetch_block: u32,
    /// Test reference: `true` sends every fetch down the full path.
    #[cfg(test)]
    full_fetch_path: bool,
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
    /// Builds a machine over `program` powered by `trace`.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] that
    /// [`try_with_trace`](Self::try_with_trace) returns.
    pub fn with_trace(cfg: SimConfig, program: &Program, trace: PowerTrace) -> Machine {
        Machine::try_with_trace(cfg, program, trace).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a machine over `program` powered by `trace`: the one
    /// place a configuration is checked before anything is built from
    /// it.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] when `cfg` fails [`SimConfig::validate`], its
    /// NVM cannot hold the program image, or its JSONL trace file
    /// cannot be created.
    pub fn try_with_trace(
        cfg: SimConfig,
        program: &Program,
        trace: PowerTrace,
    ) -> Result<Machine, ConfigError> {
        cfg.validate()?;
        let nvm_bytes = cfg.nvm.size_bytes;
        if program.image_end() as u64 > nvm_bytes {
            return Err(ConfigError(format!(
                "nvm.size_bytes {nvm_bytes} cannot hold the program image ({} bytes)",
                program.image_end()
            )));
        }
        let tracer =
            Tracer::from_mode(&cfg.trace).map_err(|e| ConfigError(format!("trace: {e}")))?;
        let build_path = |id: PathId| -> MemPath {
            let (mode, cache) = match id {
                PathId::Inst => (&cfg.inst_mode, cfg.icache),
                PathId::Data => (&cfg.data_mode, cfg.dcache),
            };
            let pf = match (mode, id) {
                (PrefetchMode::Off, _) => AnyPrefetcher::None,
                (_, PathId::Inst) => cfg.inst_prefetcher.build_any(cfg.prefetch_degree),
                (_, PathId::Data) => cfg.data_prefetcher.build_any(cfg.prefetch_degree),
            };
            let throttle = match mode {
                PrefetchMode::Policy(pc) => pc.build(),
                _ => AnyPolicy::Passthrough,
            };
            MemPath {
                id,
                cache: Cache::new(cache),
                buf: PrefetchBuffer::new(cfg.prefetch_buffer_entries),
                pf,
                throttle,
            }
        };
        let ipath = build_path(PathId::Inst);
        let dpath = build_path(PathId::Data);
        let interp = Interpreter::with_mem_size(program, cfg.nvm.size_bytes as usize);
        // NVM standby power is gated: being nonvolatile, the array and
        // its periphery are powered only during transfers (charged per
        // access by the bus). Idle leakage is caches + core only.
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
        Ok(Machine {
            interp,
            ipath,
            dpath,
            bus: Bus::new(&cfg, tracer),
            cap: Capacitor::full(cfg.capacitor),
            trace,
            cycle: 0,
            leak_nj,
            mark: CycleMark::default(),
            fault: FaultPlan::default(),
            phase: Phase::Run,
            lat_by_class,
            nj_by_class,
            // Invalid band: the first instruction takes the full
            // observe path, which computes the real band.
            vwin_lo_nj: f64::INFINITY,
            vwin_hi_nj: f64::NEG_INFINITY,
            vspan_left: 0,
            vspan_len: 0,
            vwin_forced_off: false,
            last_fetch_block: NO_BLOCK,
            #[cfg(test)]
            full_fetch_path: false,
            hspan_start: 0,
            hspan_end: 0,
            hspan_rate: 0.0,
            cfg,
        })
    }

    /// Verification/benchmark hook: `true` disables voltage-observation
    /// batching (both the energy band and the policies' skippable
    /// spans), so every instruction reads the voltage and feeds it to
    /// both policies. Results, events and snapshots must be
    /// bit-identical either way (regression-tested); default `false`.
    pub fn set_exhaustive_voltage_checks(&mut self, on: bool) {
        self.settle_skipped_observations();
        self.vwin_forced_off = on;
        self.vwin_lo_nj = f64::INFINITY;
        self.vwin_hi_nj = f64::NEG_INFINITY;
        self.vspan_left = 0;
        self.vspan_len = 0;
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
        let counts = *self.bus.tracer.counts();
        self.bus.tracer = Tracer::with_sink(sink);
        self.bus.tracer.restore_counts(counts);
    }

    /// Per-kind tallies of the events emitted so far (all zero when
    /// tracing is disabled).
    pub fn trace_counts(&self) -> &EventCounts {
        self.bus.tracer.counts()
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
        self.bus.stats.instructions
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
        if self.bus.stats.power_cycles == 0 {
            self.bus.stats.power_cycles = 1;
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
                        let done = self.bus.nvm.write(self.cycle + backup_cycles);
                        let w = self.cfg.nvm.block_write_nj();
                        self.bus.energy.backup_restore_nj += w;
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
                            self.bus.stats.total_cycles = self.cycle;
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
                        self.bus.stats.off_cycles += take;
                    }
                }
            }
        };
        // Snapshots, results and the next leg see every observation.
        self.settle_skipped_observations();
        if let Ok(true) = outcome {
            // The final (still-running) power cycle gets its rollup too.
            self.emit_power_cycle_summary();
        }
        self.bus.tracer.flush();
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
        let mem_delta = snapshot::mem_delta_paged(&fresh, &self.interp);
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
            nvm: self.bus.nvm.export_state(),
            cap_energy_nj: self.cap.energy_nj(),
            stats: self.bus.stats,
            energy: self.bus.energy,
            pending_draw_nj: self.bus.pending_draw_nj,
            mark: self.mark,
            event_counts: *self.bus.tracer.counts(),
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
    /// inputs, or when [`Machine::try_with_trace`] rejects its
    /// configuration.
    pub fn resume(
        snap: &Snapshot,
        program: &Program,
        trace: PowerTrace,
    ) -> Result<Machine, SnapshotError> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: snap.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        // A snapshot's configuration is outside input: it passes the
        // same checks as one written in code before anything is built.
        let mut m = Machine::try_with_trace(snap.cfg.clone(), program, trace)
            .map_err(|e| SnapshotError::State(format!("cfg: {e}")))?;
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

        let image_len = m.interp.mem_len();
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
        import(&mut m.bus.nvm, &snap.nvm, "nvm")?;
        let cap_max_nj = snap.cfg.capacitor.energy_at_nj(snap.cfg.capacitor.v_max);
        if !(snap.cap_energy_nj >= 0.0 && snap.cap_energy_nj <= cap_max_nj) {
            return Err(SnapshotError::State(format!(
                "capacitor energy {} nJ outside [0, {cap_max_nj}]",
                snap.cap_energy_nj
            )));
        }
        m.cap = Capacitor::with_energy_nj(snap.cfg.capacitor, snap.cap_energy_nj);

        m.cycle = snap.cycle;
        m.bus.stats = snap.stats;
        m.bus.energy = snap.energy;
        m.bus.pending_draw_nj = snap.pending_draw_nj;
        m.mark = snap.mark;
        m.phase = snap.phase;
        m.bus.tracer.restore_counts(snap.event_counts);
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
            stats: self.bus.stats,
            energy: self.bus.energy,
            icache: self.ipath.cache.stats(),
            dcache: self.dpath.cache.stats(),
            ibuf: self.ipath.buf.stats(),
            dbuf: self.dpath.buf.stats(),
            nvm: self.bus.nvm.stats(),
            ipex_i: self.ipath.throttle.stats(),
            ipex_d: self.dpath.throttle.stats(),
        }
    }

    // ------------------------------------------------------------------
    // Core loop
    // ------------------------------------------------------------------

    fn step_instruction(&mut self) -> Result<(), SimError> {
        // Voltage monitor: policy threshold crossings (possibly
        // reissuing throttled prefetches, §5.1 extension) and the backup
        // trigger. Batched over the safe energy band and the policies'
        // skippable span: strictly inside `(vwin_lo_nj, vwin_hi_nj)`
        // every threshold comparison lands in the same band it did when
        // the band was computed, and the policies can absorb
        // `vspan_left` more observations unread, so the sequence below
        // is skipped and only counted. The comparison is written so an
        // invalid band (lo > hi, the NaN-free "recompute me" state)
        // always takes the slow path.
        let e = self.cap.energy_nj();
        if e > self.vwin_lo_nj && e < self.vwin_hi_nj && self.vspan_left > 0 {
            self.vspan_left -= 1;
        } else {
            self.settle_skipped_observations();
            let v = self.cap.voltage();
            self.ipath.observe_voltage(&mut self.bus, self.cycle, v);
            self.dpath.observe_voltage(&mut self.bus, self.cycle, v);
            if self.cap.needs_backup() {
                // Enter the outage phases; the main loop drives them so
                // a pause (snapshot) can land mid-backup or mid-recharge.
                self.begin_outage();
                return Ok(());
            }
            self.recompute_voltage_window();
        }

        // Instruction fetch through the ICache.
        let now = self.cycle;
        let pc = self.interp.pc();
        let block = block_of(pc);
        let same_block = block == self.last_fetch_block;
        #[cfg(test)]
        let same_block = same_block && !self.full_fetch_path;
        let fetch_cycles = if same_block {
            self.ipath.fetch_resident(&mut self.bus, pc)
        } else {
            self.last_fetch_block = block;
            self.ipath
                .mem_access::<true>(&mut self.bus, now, pc, pc, false)
        };

        // Execute (functional; the pre-decoded step carries its class).
        let step = self.interp.step()?;
        let class = step.class.index();
        let exec_cycles = self.lat_by_class[class];
        let compute_nj = self.nj_by_class[class];
        self.bus.energy.compute_nj += compute_nj;
        self.bus.pending_draw_nj += compute_nj;

        // Data access through the DCache.
        let mem_cycles = match step.access {
            Some(acc) => {
                let is_write = acc.kind == ehs_isa::AccessKind::Write;
                self.dpath
                    .mem_access::<false>(&mut self.bus, now, step.pc, acc.addr, is_write)
            }
            None => 0,
        };

        self.bus.stats.instructions += 1;
        self.advance_on(fetch_cycles + exec_cycles + mem_cycles);
        Ok(())
    }

    /// Hands the observations skipped since the policies were last
    /// brought up to date to both of them, so their state is exactly
    /// what per-instruction observation would have left. Runs before
    /// every real observation and at the end of every `run_until`.
    fn settle_skipped_observations(&mut self) {
        let owed = self.vspan_len - self.vspan_left;
        if owed > 0 {
            self.ipath.throttle.skip_observations(owed);
            self.dpath.throttle.skip_observations(owed);
            self.vspan_len = self.vspan_left;
        }
    }

    /// Recomputes the skippable span and the safe energy band for
    /// batched voltage observation.
    ///
    /// Called only immediately after a real observation pass, so each
    /// controller's level agrees with the current voltage. The span is
    /// the smaller of the two policies'
    /// [`AnyPolicy::skippable_observations`]; when it is empty (a
    /// hysteresis policy folds every reading) the band is not needed,
    /// since the next instruction observes for real anyway. The band's
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
        if self.vwin_forced_off {
            return;
        }
        let span = self
            .ipath
            .throttle
            .skippable_observations()
            .min(self.dpath.throttle.skippable_observations());
        self.vspan_left = span;
        self.vspan_len = span;
        if span == 0 {
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

    /// Advances on-time by `n` cycles: leakage + pending dynamic draw
    /// leave the capacitor, harvested energy enters it.
    fn advance_on(&mut self, n: u64) {
        let (li, ld, lc, _ln) = self.leak_nj;
        let nf = n as f64;
        self.bus.energy.cache_nj += (li + ld) * nf;
        self.bus.energy.compute_nj += lc * nf;
        let draw = (li + ld + lc) * nf + self.bus.pending_draw_nj;
        self.bus.pending_draw_nj = 0.0;
        self.cap.consume_nj(draw);
        let harvested = self.harvest_span(self.cycle, n);
        self.cap.harvest_nj(harvested);
        self.cycle += n;
        self.bus.stats.on_cycles += n;
        self.bus.stats.total_cycles = self.cycle;
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
        self.bus.tracer.emit_with(|| SimEvent::OutageBegin {
            cycle: trigger_cycle,
            voltage: trigger_v,
        });
        if self.cfg.ideal_backup {
            self.enter_power_loss();
            return;
        }
        let br_before = self.bus.energy.backup_restore_nj;
        let dirty = (self.dpath.cache.dirty_count() + self.ipath.cache.dirty_count()) as u64;
        self.bus.stats.checkpoint_blocks += dirty;
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
        let store = self.cfg.energy.nvff_store_nj(self.nvff_bits());
        self.bus.energy.backup_restore_nj += store;
        self.cap.consume_nj(store);
        // Leakage during the backup window, drawn from the reserve
        // (the NVM is active then: its leakage rides on the writes).
        let (li, ld, lc, ln) = self.leak_nj;
        let leak = (li + ld + lc + ln) * backup_cycles as f64;
        self.bus.energy.backup_restore_nj += leak;
        self.cap.consume_nj(leak);
        self.cycle += backup_cycles;
        self.bus.stats.off_cycles += backup_cycles;
        let done_cycle = self.cycle;
        let energy_nj = self.bus.energy.backup_restore_nj - br_before;
        self.bus.tracer.emit_with(|| SimEvent::BackupDone {
            cycle: done_cycle,
            dirty_blocks: dirty_total,
            backup_cycles,
            energy_nj,
        });
        self.enter_power_loss();
    }

    /// Volatile state is lost; the machine goes dark and recharges.
    fn enter_power_loss(&mut self) {
        // Failure-time adaptations (e.g. the predictive policy recording
        // the outage in its tables) surface as `PolicyAdapt`.
        let adapt_before = self.traced_adaptations();
        self.ipath.power_loss(&mut self.bus, self.cycle);
        self.dpath.power_loss(&mut self.bus, self.cycle);
        self.last_fetch_block = NO_BLOCK;
        self.emit_policy_adapt(adapt_before);
        self.phase = Phase::Recharge;
    }

    /// Bits the JIT checkpoint keeps in NVFFs: the core's registers plus
    /// each path's throttling-policy registers.
    fn nvff_bits(&self) -> u32 {
        CORE_NVFF_BITS + self.ipath.throttle.nvff_bits() + self.dpath.throttle.nvff_bits()
    }

    /// Both policies' adaptation counters, read only while tracing
    /// (querying them costs a few loads), for
    /// [`Machine::emit_policy_adapt`] after a power-cycle event.
    fn traced_adaptations(&self) -> Option<[u64; 2]> {
        self.bus.tracer.is_enabled().then(|| {
            [
                self.ipath.throttle.adaptations(),
                self.dpath.throttle.adaptations(),
            ]
        })
    }

    /// Emits a [`SimEvent::PolicyAdapt`] per path whose adaptation
    /// counter advanced past the marks of
    /// [`Machine::traced_adaptations`]. Tracing-only helper.
    fn emit_policy_adapt(&mut self, before: Option<[u64; 2]>) {
        let Some(before) = before else {
            return;
        };
        let now = self.cycle;
        for (before, path) in before.into_iter().zip([&self.ipath, &self.dpath]) {
            let after = path.throttle.adaptations();
            if after != before {
                self.bus.tracer.emit_with(|| SimEvent::PolicyAdapt {
                    cycle: now,
                    path: path.id,
                    adaptations: after,
                });
            }
        }
    }

    /// Reboot once the capacitor can boot: restore registers (cold
    /// caches), reset per-power-cycle state, and resume execution.
    fn reboot(&mut self) {
        if !self.cfg.ideal_backup {
            let restore = self.cfg.energy.nvff_restore_nj(self.nvff_bits());
            self.bus.energy.backup_restore_nj += restore;
            self.cap.consume_nj(restore);
            self.cycle += self.cfg.restore_cycles;
            self.bus.stats.off_cycles += self.cfg.restore_cycles;
            if let Some(r) = self.fault.skip_restore_reg {
                // Injected bug: this register's NVFF "failed", so it
                // comes back as zero instead of its checkpointed value.
                self.interp.set_reg(r, 0);
            }
        }
        self.bus.nvm.power_cycle_reset(self.cycle);
        // Reboot-time adaptations (e.g. IPEX moving its threshold
        // ladder) surface as `PolicyAdapt` events, like the
        // failure-time ones in `enter_power_loss`.
        let adapt_before = self.traced_adaptations();
        self.ipath.throttle.on_reboot();
        self.dpath.throttle.on_reboot();
        self.emit_policy_adapt(adapt_before);
        // The threshold ladders may have adapted and the controllers'
        // levels were reset: invalidate the band so the first
        // instruction of the new power cycle observes for real.
        self.vwin_lo_nj = f64::INFINITY;
        self.vwin_hi_nj = f64::NEG_INFINITY;
        self.bus.stats.total_cycles = self.cycle;
        // Roll up the power cycle that just ended (its off-time — backup,
        // recharge, restore — is attributed to it), then begin the next.
        self.emit_power_cycle_summary();
        self.bus.stats.power_cycles += 1;
        let restore_cycle = self.cycle;
        let power_cycle = self.bus.stats.power_cycles;
        self.bus.tracer.emit_with(|| SimEvent::Restore {
            cycle: restore_cycle,
            power_cycle,
        });
        self.phase = Phase::Run;
    }

    /// Emits a [`SimEvent::PowerCycleSummary`] for the power cycle
    /// ending now and re-marks the statistics snapshot. No-op while
    /// tracing is disabled.
    fn emit_power_cycle_summary(&mut self) {
        if !self.bus.tracer.is_enabled() {
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
            power_cycle: self.bus.stats.power_cycles,
            on_cycles: self.bus.stats.on_cycles - mark.on_cycles,
            off_cycles: self.bus.stats.off_cycles - mark.off_cycles,
            cache_nj: self.bus.energy.cache_nj - mark.cache_nj,
            memory_nj: self.bus.energy.memory_nj - mark.memory_nj,
            compute_nj: self.bus.energy.compute_nj - mark.compute_nj,
            backup_restore_nj: self.bus.energy.backup_restore_nj - mark.backup_restore_nj,
            throttle_rate,
        };
        self.bus.tracer.emit_with(move || ev);
        self.mark = CycleMark {
            on_cycles: self.bus.stats.on_cycles,
            off_cycles: self.bus.stats.off_cycles,
            cache_nj: self.bus.energy.cache_nj,
            memory_nj: self.bus.energy.memory_nj,
            compute_nj: self.bus.energy.compute_nj,
            backup_restore_nj: self.bus.energy.backup_restore_nj,
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

    /// Building a machine is the one gate: a value `validate` rejects
    /// and an NVM too small for the program are errors, not panics.
    #[test]
    fn try_with_trace_rejects_what_cannot_be_built() {
        let program = tiny_program();
        let trace = PowerTrace::constant_mw(3.0, 16);
        let build = |edit: fn(&mut SimConfig, u64)| {
            let mut cfg = SimConfig::default();
            edit(&mut cfg, program.image_end() as u64);
            Machine::try_with_trace(cfg, &program, trace.clone()).map(|_| ())
        };
        let err = build(|c, _| c.nvm.size_bytes = 1 << 32).unwrap_err();
        assert!(err.0.contains("nvm.size_bytes: must be"), "{err}");
        let err = build(|c, end| c.nvm.size_bytes = end - 1).unwrap_err();
        assert!(err.0.contains("cannot hold the program image"), "{err}");
        let err = build(|c, _| c.latencies[2] = 0).unwrap_err();
        assert!(err.0.contains("latencies"), "{err}");
        assert_eq!(build(|c, end| c.nvm.size_bytes = end), Ok(()));
    }

    /// A JSONL trace path that cannot be created is a config error
    /// naming `trace` and the path, not a panic.
    #[test]
    fn try_with_trace_rejects_an_uncreatable_trace_file() {
        let dir = std::env::temp_dir().join(format!("ehs-no-such-dir-{}", std::process::id()));
        let path = dir.join("run.jsonl").display().to_string();
        let cfg =
            SimConfig::default().with_trace_mode(crate::TraceMode::Jsonl { path: path.clone() });
        let err = Machine::try_with_trace(cfg, &tiny_program(), PowerTrace::constant_mw(3.0, 16))
            .map(|_| ())
            .unwrap_err();
        assert!(
            err.0.starts_with("trace: ") && err.0.contains(&path),
            "{err}"
        );
        assert!(!dir.exists());
    }

    #[test]
    #[should_panic(expected = "cannot hold the program image")]
    fn with_trace_panics_with_the_config_error() {
        let mut cfg = SimConfig::default();
        cfg.nvm.size_bytes = 4096;
        let _ = Machine::with_trace(cfg, &tiny_program(), PowerTrace::constant_mw(3.0, 16));
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
            .build()
            .with_trace_mode(crate::TraceMode::Counting);
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

    /// Skipped observations are an observation *schedule*, also for the
    /// policies that bound or forbid skipping: predictive reads the
    /// voltage once per sample period and hysteresis folds every
    /// reading. Under weak power a batched run must equal an exhaustive
    /// one in its result, its event stream, and its snapshots at pauses
    /// that land inside a skipped span (so the owed observations must be
    /// settled before `run_until` returns).
    #[test]
    fn exhaustive_checks_are_identity_for_non_batchable_policies() {
        use crate::trace::CountingSink;
        use ipex::{HysteresisConfig, PolicyConfig, PredictiveConfig};
        let program = tiny_program();
        let trace = PowerTrace::constant_mw(2.0, 16);
        for pc in [
            PolicyConfig::Predictive(PredictiveConfig::paper_default()),
            PolicyConfig::Hysteresis(HysteresisConfig::paper_default()),
        ] {
            let run = |exhaustive: bool| {
                let cfg = SimConfig::builder().throttle_policy(Ipex::Both, pc).build();
                let mut m = Machine::with_trace(cfg, &program, trace.clone());
                m.set_exhaustive_voltage_checks(exhaustive);
                let sink = CountingSink::new();
                m.set_trace_sink(Box::new(sink.clone()));
                let mut snaps = Vec::new();
                let mut paused_running = false;
                for target in [7_001, 23_456, 41_003, 60_017] {
                    assert!(matches!(m.run_until(target).unwrap(), RunStatus::Paused));
                    paused_running |= m.phase() == Phase::Run;
                    snaps.push(m.snapshot(&program).to_json());
                }
                assert!(paused_running, "no pause landed while running");
                let r = m.run().unwrap();
                assert!(r.stats.power_cycles > 1, "expected outages");
                (r, sink.counts(), snaps)
            };
            let (batched, exact) = (run(false), run(true));
            let kind = pc.kind_name();
            assert_eq!(batched.0, exact.0, "{kind}: results differ");
            assert_eq!(batched.1, exact.1, "{kind}: event counts differ");
            for (i, (b, e)) in batched.2.iter().zip(&exact.2).enumerate() {
                assert!(b == e, "{kind}: snapshot at pause {i} differs");
            }
        }
    }

    /// The same-block fetch fast path skips only work whose outcome is
    /// known. Against the full path for every fetch, each instruction
    /// prefetcher gives the same result, events and final state, under
    /// steady power and under weak power, whose outages mostly land in
    /// mid-block (the first fetch after a reboot must not take the fast
    /// path: the ICache was wiped).
    #[test]
    fn same_block_fetch_fast_path_matches_full_path() {
        use ehs_prefetch::InstPrefetcherKind;
        let program = tiny_program();
        for kind in [
            InstPrefetcherKind::None,
            InstPrefetcherKind::Sequential,
            InstPrefetcherKind::Markov,
            InstPrefetcherKind::Tifs,
        ] {
            for mw in [50.0, 2.0] {
                let run = |full: bool| {
                    let mut cfg = SimConfig::builder()
                        .ipex(Ipex::Both)
                        .build()
                        .with_trace_mode(crate::TraceMode::Counting);
                    cfg.inst_prefetcher = kind;
                    let mut m = Machine::with_trace(cfg, &program, PowerTrace::constant_mw(mw, 16));
                    m.full_fetch_path = full;
                    let r = m.run().unwrap();
                    (r, *m.trace_counts(), m.state_digest(&program))
                };
                let (fast, full) = (run(false), run(true));
                assert_eq!(fast.0, full.0, "{kind:?} at {mw} mW: results differ");
                assert_eq!(fast.1, full.1, "{kind:?} at {mw} mW: events differ");
                assert_eq!(fast.2, full.2, "{kind:?} at {mw} mW: state differs");
                assert_eq!(fast.0.stats.power_cycles > 1, mw < 10.0);
            }
        }
    }

    /// Snapshots taken by a policy-driven machine round-trip exactly,
    /// and resuming one against a configuration that builds a
    /// *different* policy fails with a state error naming both kinds; a
    /// throttle state of the right kind carrying an invalid
    /// configuration fails as a state error too.
    #[test]
    fn resume_names_policy_kinds_on_mismatch() {
        use ipex::{AnyPolicy, PolicyConfig, PredictiveConfig};
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
        doctored.ithrottle = AnyPolicy::Passthrough;
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
        // The controller's fields are private to its crate: edit its JSON.
        let json = serde_json::to_string(&doctored.ithrottle).unwrap();
        assert!(json.starts_with("{\"ipex\":"), "{json}");
        assert_eq!(json.matches("\"max_degree\":4").count(), 1, "{json}");
        doctored.ithrottle =
            serde_json::from_str(&json.replace("\"max_degree\":4", "\"max_degree\":9")).unwrap();
        match Machine::resume(&doctored, &program, trace) {
            Ok(_) => panic!("invalid IPEX state must be rejected"),
            Err(SnapshotError::State(msg)) => assert!(msg.contains("3-bit"), "{msg}"),
            Err(other) => panic!("expected SnapshotError::State, got {other:?}"),
        }
    }

    /// Only the current snapshot version resumes: version-1 files
    /// (pre policy API) are rejected like any other stale version.
    #[test]
    fn v1_snapshots_are_rejected() {
        let program = tiny_program();
        let trace = PowerTrace::constant_mw(3.0, 16);
        let cfg = SimConfig::builder().ipex(Ipex::Both).build();
        let mut m = Machine::with_trace(cfg, &program, trace.clone());
        assert!(matches!(m.run_until(40_000).unwrap(), RunStatus::Paused));
        let mut snap = m.snapshot(&program);
        snap.version = 1;
        assert!(matches!(
            Machine::resume(&snap, &program, trace),
            Err(SnapshotError::VersionMismatch {
                found: 1,
                expected: SNAPSHOT_VERSION
            })
        ));
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
                .build()
                .with_trace_mode(crate::TraceMode::Counting),
            SimConfig::builder()
                .throttle_policy(
                    Ipex::Both,
                    PolicyConfig::Predictive(PredictiveConfig::paper_default()),
                )
                .build()
                .with_trace_mode(crate::TraceMode::Counting),
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

    /// IPEX's §5.1 reissue extension is the only way a voltage
    /// observation issues prefetches, and no figure CI checks turns it
    /// on: pin one whole run through it, result and event tallies both.
    #[test]
    fn reissue_extension_run_is_pinned() {
        use ipex::{IpexConfig, PolicyConfig};
        let cfg = SimConfig::builder()
            .throttle_policy(
                Ipex::Both,
                PolicyConfig::Ipex(IpexConfig {
                    reissue_throttled: true,
                    ..IpexConfig::paper_default()
                }),
            )
            .build()
            .with_trace_mode(crate::TraceMode::Counting);
        let program = ehs_workloads::by_name("qsort").unwrap().program();
        let mut m = Machine::with_trace(cfg, &program, SimConfig::default_trace());
        let r = m.run().unwrap();
        let reissued = r.ipex_i.map_or(0, |s| s.reissued) + r.ipex_d.map_or(0, |s| s.reissued);
        assert!(reissued > 0, "the reissue path never ran");
        assert_eq!(m.trace_counts().prefetch_reissued, reissued);
        assert_eq!(crate::canon::canonical_digest(&r), 0x9df9_4880_018c_aa9f);
        assert_eq!(
            crate::canon::canonical_digest(m.trace_counts()),
            0xa029_e02c_bd04_a2f5
        );
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
