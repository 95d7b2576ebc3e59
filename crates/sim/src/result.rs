//! Simulation statistics and results.

use ehs_energy::EnergyBreakdown;
use ehs_mem::{CacheStats, NvmStats, PrefetchBufferStats};
use ipex::PolicyStats;
use serde::{Deserialize, Serialize};

/// Aggregate counters from one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Total simulated cycles, including off/recharge time. Execution
    /// *time* is this divided by 200 MHz, and speedups compare it.
    pub total_cycles: u64,
    /// Cycles spent powered on and executing.
    pub on_cycles: u64,
    /// Cycles spent powered off (recharging), plus backup/restore time.
    pub off_cycles: u64,
    /// Pipeline stall cycles attributable to ICache misses.
    pub istall_cycles: u64,
    /// Pipeline stall cycles attributable to DCache misses.
    pub dstall_cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Number of power cycles (reboots).
    pub power_cycles: u64,
    /// Dirty blocks flushed by JIT checkpoints.
    pub checkpoint_blocks: u64,
    /// Demand misses serviced by NVM for the ICache.
    pub i_demand_reads: u64,
    /// Demand misses serviced by NVM for the DCache.
    pub d_demand_reads: u64,
    /// Prefetch candidates skipped because the block was already cached.
    pub redundant_cache_skips: u64,
}

impl SimStats {
    /// Fraction of on-time spent stalled on ICache misses.
    pub fn istall_fraction(&self) -> f64 {
        if self.on_cycles == 0 {
            0.0
        } else {
            self.istall_cycles as f64 / self.on_cycles as f64
        }
    }

    /// Fraction of on-time spent stalled on DCache misses.
    pub fn dstall_fraction(&self) -> f64 {
        if self.on_cycles == 0 {
            0.0
        } else {
            self.dstall_cycles as f64 / self.on_cycles as f64
        }
    }
}

/// Everything measured by one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Aggregate machine counters.
    pub stats: SimStats,
    /// Energy by subsystem (Fig. 14 buckets).
    pub energy: EnergyBreakdown,
    /// ICache counters.
    pub icache: CacheStats,
    /// DCache counters.
    pub dcache: CacheStats,
    /// ICache prefetch-buffer counters.
    pub ibuf: PrefetchBufferStats,
    /// DCache prefetch-buffer counters.
    pub dbuf: PrefetchBufferStats,
    /// NVM traffic counters.
    pub nvm: NvmStats,
    /// Throttling-policy stats for the ICache, when a policy is enabled.
    /// (The `ipex_` field names predate the policy layer; the result
    /// digest covers them, so they stay.)
    pub ipex_i: Option<PolicyStats>,
    /// Throttling-policy stats for the DCache, when a policy is enabled.
    pub ipex_d: Option<PolicyStats>,
}

impl SimResult {
    /// Speedup of this run relative to `baseline` (ratio of total
    /// execution times; > 1 means faster).
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        baseline.stats.total_cycles as f64 / self.stats.total_cycles as f64
    }

    /// Total energy consumed, nanojoules.
    pub fn total_energy_nj(&self) -> f64 {
        self.energy.total_nj()
    }

    /// Prefetch accuracy for the instruction stream, `[0, 1]`.
    pub fn inst_prefetch_accuracy(&self) -> f64 {
        self.ibuf.accuracy()
    }

    /// Prefetch accuracy for the data stream, `[0, 1]`.
    pub fn data_prefetch_accuracy(&self) -> f64 {
        self.dbuf.accuracy()
    }

    /// Total prefetch operations issued (NVM prefetch reads).
    pub fn prefetch_operations(&self) -> u64 {
        self.nvm.prefetch_reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_fractions() {
        let s = SimStats {
            on_cycles: 100,
            istall_cycles: 25,
            dstall_cycles: 10,
            ..SimStats::default()
        };
        assert!((s.istall_fraction() - 0.25).abs() < 1e-12);
        assert!((s.dstall_fraction() - 0.10).abs() < 1e-12);
        assert_eq!(SimStats::default().istall_fraction(), 0.0);
    }
}
