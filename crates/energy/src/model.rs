//! Per-event energy constants (Table 1 plus McPAT-derived compute
//! figures) and the analytic prefetch-profitability bound of §2.2.

use serde::{Deserialize, Serialize};

use crate::mw_to_nj_per_cycle;

/// Dynamic energy per executed instruction, by execution class, in
/// nanojoules. Derived for a 45 nm in-order embedded core in the spirit
/// of McPAT (the paper's §6 methodology); absolute values are calibration
/// inputs documented in `DESIGN.md`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputeEnergy {
    /// Simple ALU / branch / jump operations.
    pub alu_nj: f64,
    /// Multiply.
    pub mul_nj: f64,
    /// Divide / remainder.
    pub div_nj: f64,
    /// Pipeline overhead of a load or store (cache/NVM energy separate).
    pub mem_nj: f64,
}

impl ComputeEnergy {
    /// Default 45 nm figures.
    pub fn paper_default() -> ComputeEnergy {
        ComputeEnergy {
            alu_nj: 0.008,
            mul_nj: 0.020,
            div_nj: 0.045,
            mem_nj: 0.008,
        }
    }
}

/// All energy parameters of the modelled EHS except the NVM's (which
/// live in `ehs_mem::NvmConfig`-shaped configs owned by the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Energy per cache access (hit or fill), nanojoules (Table 1: 0.015 nJ).
    pub cache_access_nj: f64,
    /// Leakage power of one cache, milliwatts (Table 1: 0.205 mW for the
    /// default 2 kB; scaled linearly with capacity for Fig. 1/18 sweeps).
    pub cache_leak_mw_per_2kb: f64,
    /// Core (pipeline + register file) leakage power, milliwatts.
    pub core_leak_mw: f64,
    /// Per-instruction dynamic energies.
    pub compute: ComputeEnergy,
    /// Energy to checkpoint one bit into nonvolatile flip-flops, nJ.
    pub nvff_store_nj_per_bit: f64,
    /// Energy to restore one bit from nonvolatile flip-flops, nJ.
    pub nvff_restore_nj_per_bit: f64,
}

impl EnergyModel {
    /// The paper's Table 1 constants with McPAT-style compute figures.
    pub fn paper_default() -> EnergyModel {
        EnergyModel {
            cache_access_nj: 0.015,
            cache_leak_mw_per_2kb: 0.205,
            core_leak_mw: 1.0,
            compute: ComputeEnergy::paper_default(),
            // ReRAM-based NVFF store/restore (order of the cited 7T1R work).
            nvff_store_nj_per_bit: 0.002,
            nvff_restore_nj_per_bit: 0.0005,
        }
    }

    /// Leakage power of one cache of `size_bytes`, milliwatts. Leakage is
    /// proportional to the number of SRAM cells.
    pub fn cache_leak_mw(&self, size_bytes: u32) -> f64 {
        self.cache_leak_mw_per_2kb * (size_bytes as f64 / 2048.0)
    }

    /// Cache leakage energy for one cycle, nanojoules.
    pub fn cache_leak_nj_per_cycle(&self, size_bytes: u32) -> f64 {
        mw_to_nj_per_cycle(self.cache_leak_mw(size_bytes))
    }

    /// Core leakage energy for one cycle, nanojoules.
    pub fn core_leak_nj_per_cycle(&self) -> f64 {
        mw_to_nj_per_cycle(self.core_leak_mw)
    }

    /// Checkpoint energy for `bits` of volatile register state, nJ.
    pub fn nvff_store_nj(&self, bits: u32) -> f64 {
        self.nvff_store_nj_per_bit * bits as f64
    }

    /// Restoration energy for `bits` of register state, nJ.
    pub fn nvff_restore_nj(&self, bits: u32) -> f64 {
        self.nvff_restore_nj_per_bit * bits as f64
    }
}

/// The minimum probability `P` of a prefetch being useful for prefetching
/// to pay off, per §2.2's Inequality 4:
///
/// `P > 1 − E_leak / (E_prefetch + E_leak)  =  E_prefetch / (E_prefetch + E_leak)`
///
/// where `E_prefetch` is the cost of fetching a block from NVM and
/// `E_leak` the system leakage burnt while stalling on the miss the
/// prefetch would have hidden. Both arguments are in the same unit
/// (e.g. picojoules, as in Fig. 4).
///
/// # Panics
///
/// Panics if either energy is negative or both are zero.
///
/// ```
/// let p = ehs_energy::min_useful_probability(40.0, 40.0);
/// assert!((p - 0.5).abs() < 1e-12);
/// ```
pub fn min_useful_probability(e_prefetch: f64, e_leak: f64) -> f64 {
    assert!(
        e_prefetch >= 0.0 && e_leak >= 0.0,
        "energies must be non-negative"
    );
    assert!(
        e_prefetch + e_leak > 0.0,
        "at least one energy must be positive"
    );
    e_prefetch / (e_prefetch + e_leak)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_constants() {
        let m = EnergyModel::paper_default();
        assert!((m.cache_access_nj - 0.015).abs() < 1e-12);
        assert!((m.cache_leak_mw(2048) - 0.205).abs() < 1e-12);
    }

    #[test]
    fn cache_leak_scales_with_size() {
        let m = EnergyModel::paper_default();
        assert!((m.cache_leak_mw(8192) - 0.82).abs() < 1e-12);
        assert!((m.cache_leak_mw(256) - 0.0256).abs() < 1e-4);
    }

    #[test]
    fn leak_per_cycle_magnitude() {
        let m = EnergyModel::paper_default();
        // 0.205 mW over 5 ns ≈ 1.025 pJ.
        let nj = m.cache_leak_nj_per_cycle(2048);
        assert!((nj - 0.001025).abs() < 1e-9);
    }

    #[test]
    fn min_probability_monotonic_in_prefetch_cost() {
        let p1 = min_useful_probability(10.0, 30.0);
        let p2 = min_useful_probability(50.0, 30.0);
        let p3 = min_useful_probability(100.0, 30.0);
        assert!(p1 < p2 && p2 < p3);
    }

    #[test]
    fn min_probability_decreases_with_leak() {
        let p1 = min_useful_probability(50.0, 10.0);
        let p2 = min_useful_probability(50.0, 50.0);
        assert!(p2 < p1);
    }

    #[test]
    fn min_probability_limits() {
        assert_eq!(min_useful_probability(0.0, 10.0), 0.0);
        assert_eq!(min_useful_probability(10.0, 0.0), 1.0);
    }

    #[test]
    fn nvff_costs() {
        let m = EnergyModel::paper_default();
        // 16 regs x 32b + 32b PC = 544 bits.
        assert!((m.nvff_store_nj(544) - 1.088).abs() < 1e-9);
        assert!(m.nvff_restore_nj(544) < m.nvff_store_nj(544));
    }
}
