//! Nonvolatile main memory (NVM) timing/energy model with a single-port
//! bus.
//!
//! Latency and per-access energy follow the paper's Table 1 for the
//! default 16 MB ReRAM (read 0.039 nJ, write 0.160 nJ, leak 12.133 mW).
//! The paper does not publish latencies, so standard NVSim-era figures are
//! used (see `DESIGN.md` §2); they are calibration inputs, not results.
//!
//! For the sensitivity studies the model also provides:
//!
//! * alternative technologies (STT-RAM, PCM — Fig. 21),
//! * capacity scaling (Fig. 20): latency and access energy grow with
//!   `sqrt(capacity / 16 MB)`, reflecting longer word/bit lines in larger
//!   arrays.

use serde::{Deserialize, Serialize};

use crate::Persist;

/// Default NVM capacity (16 MB, Table 1).
pub const DEFAULT_NVM_BYTES: u64 = 16 << 20;

/// Nonvolatile memory technology (Fig. 21).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NvmTech {
    /// Resistive RAM — the paper's default.
    ReRam,
    /// Spin-transfer-torque magnetic RAM — faster, pricier writes than
    /// reads but quicker than ReRAM overall.
    SttRam,
    /// Phase-change memory — slowest, most expensive accesses.
    Pcm,
}

impl NvmTech {
    /// All modelled technologies.
    pub const ALL: [NvmTech; 3] = [NvmTech::ReRam, NvmTech::SttRam, NvmTech::Pcm];

    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            NvmTech::ReRam => "ReRAM",
            NvmTech::SttRam => "STTRAM",
            NvmTech::Pcm => "PCM",
        }
    }

    /// Baseline parameters at 16 MB:
    /// `(read_cycles, write_cycles, read_nj, write_nj, leak_mw)` at the
    /// simulator's 200 MHz clock (1 cycle = 5 ns).
    fn base(self) -> (u64, u64, f64, f64, f64) {
        match self {
            // 100 ns read / 300 ns write (ultra-low-power array, slow
            // low-voltage sensing).
            NvmTech::ReRam => (20, 60, 0.039, 0.160, 12.133),
            // 70 ns read / 200 ns write.
            NvmTech::SttRam => (14, 40, 0.030, 0.120, 13.5),
            // 240 ns read / 800 ns write.
            NvmTech::Pcm => (48, 160, 0.070, 0.480, 10.0),
        }
    }
}

/// Timing and energy parameters of an [`Nvm`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NvmConfig {
    /// Technology point.
    pub tech: NvmTech,
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Block-read latency in core cycles.
    pub read_cycles: u64,
    /// Block-write latency in core cycles.
    pub write_cycles: u64,
    /// Energy per block read, nanojoules.
    pub read_nj: f64,
    /// Energy per block write, nanojoules.
    pub write_nj: f64,
    /// Leakage power of the whole array, milliwatts.
    pub leak_mw: f64,
    /// Fraction of [`NvmConfig::leak_mw`] that is actually un-gated while
    /// a transfer is in flight. The array's standby power is gated when
    /// idle (it is nonvolatile); during an access only the addressed bank
    /// and the shared periphery (decoders, sense amps, I/O) wake up. The
    /// default models a 4-bank array plus shared periphery: 25% of the
    /// whole-array leakage (DESIGN.md §2, "Block energy").
    pub active_leak_fraction: f64,
}

/// Default [`NvmConfig::active_leak_fraction`]: one bank of a 4-bank
/// array plus the shared periphery.
pub const DEFAULT_ACTIVE_LEAK_FRACTION: f64 = 0.25;

impl NvmConfig {
    /// Parameters for `tech` at `size_bytes` capacity, applying the
    /// `sqrt(capacity / 16 MB)` latency/energy scaling described in the
    /// module docs.
    pub fn for_tech(tech: NvmTech, size_bytes: u64) -> NvmConfig {
        let (r_cyc, w_cyc, r_nj, w_nj, leak) = tech.base();
        let factor = ((size_bytes as f64) / (DEFAULT_NVM_BYTES as f64)).sqrt();
        NvmConfig {
            tech,
            size_bytes,
            read_cycles: ((r_cyc as f64 * factor).round() as u64).max(1),
            write_cycles: ((w_cyc as f64 * factor).round() as u64).max(1),
            read_nj: r_nj * factor,
            write_nj: w_nj * factor,
            // Leakage scales linearly with the number of cells.
            leak_mw: leak * (size_bytes as f64) / (DEFAULT_NVM_BYTES as f64),
            active_leak_fraction: DEFAULT_ACTIVE_LEAK_FRACTION,
        }
    }

    /// Leakage power awake during a transfer, milliwatts.
    pub fn active_leak_mw(&self) -> f64 {
        self.leak_mw * self.active_leak_fraction
    }

    /// The paper's default: 16 MB ReRAM.
    pub fn paper_default() -> NvmConfig {
        NvmConfig::for_tech(NvmTech::ReRam, DEFAULT_NVM_BYTES)
    }

    /// Energy to transfer one 16 B cache block (four word accesses at
    /// [`NvmConfig::read_nj`] each), nanojoules.
    pub fn block_read_nj(&self) -> f64 {
        4.0 * self.read_nj
    }

    /// Energy to write one 16 B cache block (four word accesses), nJ.
    pub fn block_write_nj(&self) -> f64 {
        4.0 * self.write_nj
    }
}

/// Traffic counters maintained by an [`Nvm`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NvmStats {
    /// Block reads serviced for demand misses.
    pub demand_reads: u64,
    /// Block reads serviced for prefetches.
    pub prefetch_reads: u64,
    /// Block writes (write-backs and checkpoint flushes).
    pub writes: u64,
    /// Prefetch requests dropped because the port was busy (prefetches
    /// are lowest priority and are not queued).
    pub prefetch_drops: u64,
}

impl NvmStats {
    /// Total block transfers on the memory bus.
    pub fn total_traffic(&self) -> u64 {
        self.demand_reads + self.prefetch_reads + self.writes
    }
}

/// Why an NVM read was issued; affects statistics only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadReason {
    /// Servicing a demand miss.
    Demand,
    /// Servicing a prefetch.
    Prefetch,
}

/// Complete serializable state of an [`Nvm`] — port occupancy plus the
/// accumulated statistics. Produced and consumed through the NVM's
/// [`Persist`] impl.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NvmState {
    /// First cycle at which the port is free.
    pub busy_until: u64,
    /// Counters at the time of the export.
    pub stats: NvmStats,
}

/// Single-ported NVM behind a simple bus.
///
/// Requests serialise: one issued at cycle `now` starts when the port is
/// free and completes after the technology latency. This models the bus
/// contention that makes useless prefetches delay demand misses.
#[derive(Debug, Clone)]
pub struct Nvm {
    cfg: NvmConfig,
    busy_until: u64,
    stats: NvmStats,
}

impl Nvm {
    /// Creates an idle NVM with the given parameters.
    pub fn new(cfg: NvmConfig) -> Nvm {
        Nvm {
            cfg,
            busy_until: 0,
            stats: NvmStats::default(),
        }
    }

    /// The configured parameters.
    pub fn config(&self) -> NvmConfig {
        self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> NvmStats {
        self.stats
    }

    /// First cycle at which the port is free.
    pub fn free_at(&self) -> u64 {
        self.busy_until
    }

    /// Issues a block read at cycle `now`; returns the completion cycle.
    ///
    /// Demand reads have priority: they wait at most for the transfer
    /// currently on the wires (one block time), jumping ahead of any
    /// queued prefetches. Prefetch reads are lowest priority and queue
    /// behind everything.
    pub fn read(&mut self, now: u64, reason: ReadReason) -> u64 {
        match reason {
            ReadReason::Demand => {
                self.stats.demand_reads += 1;
                // Bounded wait: at most one in-flight block transfer.
                let start = now.max(self.busy_until.min(now + self.cfg.read_cycles));
                let done = start + self.cfg.read_cycles;
                self.busy_until = self.busy_until.max(done);
                done
            }
            ReadReason::Prefetch => {
                self.stats.prefetch_reads += 1;
                let start = self.busy_until.max(now);
                let done = start + self.cfg.read_cycles;
                self.busy_until = done;
                done
            }
        }
    }

    /// Attempts to issue a low-priority (prefetch) block read at cycle
    /// `now`. Prefetches are issued only when the port is idle — they
    /// are not queued, so a busy port drops the request (counted in
    /// [`NvmStats::prefetch_drops`]). Returns the completion cycle when
    /// issued.
    pub fn try_prefetch_read(&mut self, now: u64) -> Option<u64> {
        if self.busy_until > now {
            self.stats.prefetch_drops += 1;
            return None;
        }
        self.stats.prefetch_reads += 1;
        let done = now + self.cfg.read_cycles;
        self.busy_until = done;
        Some(done)
    }

    /// Issues a block write at cycle `now`; returns the completion cycle.
    /// Writes (write-backs, checkpoint flushes) get the same bounded
    /// wait as demand reads — write buffers drain ahead of queued
    /// prefetches.
    pub fn write(&mut self, now: u64) -> u64 {
        self.stats.writes += 1;
        let start = now.max(self.busy_until.min(now + self.cfg.write_cycles));
        let done = start + self.cfg.write_cycles;
        self.busy_until = self.busy_until.max(done);
        done
    }

    /// Resets port occupancy across a power cycle (the bus does not stay
    /// busy through an outage). Statistics are preserved.
    pub fn power_cycle_reset(&mut self, now: u64) {
        self.busy_until = now;
    }
}

impl Persist for Nvm {
    type State = NvmState;

    /// The complete internal state (port occupancy, statistics) as a
    /// serializable value, for snapshot/resume.
    fn export_state(&self) -> NvmState {
        NvmState {
            busy_until: self.busy_until,
            stats: self.stats,
        }
    }

    /// Port occupancy and statistics carry no shape, so every state
    /// imports.
    fn import_state(&mut self, state: &NvmState) -> Result<(), String> {
        self.busy_until = state.busy_until;
        self.stats = state.stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table1() {
        let cfg = NvmConfig::paper_default();
        assert_eq!(cfg.tech, NvmTech::ReRam);
        assert_eq!(cfg.size_bytes, DEFAULT_NVM_BYTES);
        assert!((cfg.read_nj - 0.039).abs() < 1e-12);
        assert!((cfg.write_nj - 0.160).abs() < 1e-12);
        assert!((cfg.leak_mw - 12.133).abs() < 1e-12);
        assert_eq!(cfg.read_cycles, 20);
        assert_eq!(cfg.write_cycles, 60);
    }

    #[test]
    fn capacity_scaling_monotonic() {
        let small = NvmConfig::for_tech(NvmTech::ReRam, 2 << 20);
        let big = NvmConfig::for_tech(NvmTech::ReRam, 32 << 20);
        assert!(small.read_cycles < big.read_cycles);
        assert!(small.read_nj < big.read_nj);
        assert!(small.leak_mw < big.leak_mw);
        // 32 MB = sqrt(2) x default latency.
        assert_eq!(big.read_cycles, 28);
    }

    #[test]
    fn tech_ordering_pcm_slowest() {
        let r = NvmConfig::for_tech(NvmTech::ReRam, DEFAULT_NVM_BYTES);
        let s = NvmConfig::for_tech(NvmTech::SttRam, DEFAULT_NVM_BYTES);
        let p = NvmConfig::for_tech(NvmTech::Pcm, DEFAULT_NVM_BYTES);
        assert!(s.read_cycles < r.read_cycles);
        assert!(r.read_cycles < p.read_cycles);
    }

    #[test]
    fn demand_reads_jump_queued_prefetches() {
        let mut nvm = Nvm::new(NvmConfig::paper_default());
        // Two prefetches queue: port busy until 40.
        assert_eq!(nvm.read(0, ReadReason::Prefetch), 20);
        assert_eq!(nvm.read(0, ReadReason::Prefetch), 40);
        // A demand read at 5 waits only for the in-flight transfer
        // (until 25), not the whole queue.
        assert_eq!(nvm.read(5, ReadReason::Demand), 25 + 20);
    }

    #[test]
    fn port_serialises_requests() {
        let mut nvm = Nvm::new(NvmConfig::paper_default());
        let d1 = nvm.read(0, ReadReason::Demand);
        assert_eq!(d1, 20);
        // Issued while busy: queues behind.
        let d2 = nvm.read(5, ReadReason::Prefetch);
        assert_eq!(d2, 40);
        // Issued after idle: starts immediately.
        let d3 = nvm.write(100);
        assert_eq!(d3, 160);
        let s = nvm.stats();
        assert_eq!(s.demand_reads, 1);
        assert_eq!(s.prefetch_reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.total_traffic(), 3);
    }

    #[test]
    fn power_cycle_reset_frees_port() {
        let mut nvm = Nvm::new(NvmConfig::paper_default());
        nvm.read(0, ReadReason::Demand);
        nvm.power_cycle_reset(3);
        assert_eq!(nvm.free_at(), 3);
        assert_eq!(nvm.read(3, ReadReason::Demand), 23);
    }

    #[test]
    fn prefetch_reads_drop_when_port_busy() {
        let mut nvm = Nvm::new(NvmConfig::paper_default());
        assert_eq!(nvm.try_prefetch_read(0), Some(20));
        // Port busy until 20: a second prefetch is dropped, not queued.
        assert_eq!(nvm.try_prefetch_read(5), None);
        assert_eq!(nvm.stats().prefetch_drops, 1);
        // Idle again: issues.
        assert_eq!(nvm.try_prefetch_read(20), Some(40));
        assert_eq!(nvm.stats().prefetch_reads, 2);
    }
}
