//! Simulator configuration and the paper's standard presets.

use ehs_energy::{CapacitorConfig, EnergyModel, PowerTrace, TraceSpec};
use ehs_mem::{CacheConfig, NvmConfig};
use ehs_prefetch::{DataPrefetcherKind, InstPrefetcherKind};
use ipex::PolicyConfig;
use serde::{Deserialize, Serialize};

use crate::builder::SimConfigBuilder;
use crate::trace::TraceMode;

/// Core cycles per 10 µs power-trace sample (200 MHz × 10 µs).
pub const CYCLES_PER_TRACE_SAMPLE: u64 = 2000;

/// How a cache's prefetcher is controlled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PrefetchMode {
    /// No prefetcher at all ("NVSRAMCache (No Prefetcher)").
    Off,
    /// Conventional, unthrottled prefetching (the paper's baseline).
    Conventional,
    /// Prefetching throttled by the given [`PolicyConfig`] controller
    /// (IPEX, predictive, hysteresis, static-degree).
    Policy(PolicyConfig),
}

impl PrefetchMode {
    /// `true` unless the prefetcher is disabled.
    pub fn enabled(&self) -> bool {
        !matches!(self, PrefetchMode::Off)
    }
}

/// Full configuration of a simulated EHS.
///
/// [`SimConfig::default`] reproduces Table 1; [`SimConfig::builder`]
/// derives the comparison points used throughout §6.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// ICache geometry (Table 1: 2 kB, 4-way).
    pub icache: CacheConfig,
    /// DCache geometry (Table 1: 2 kB, 4-way).
    pub dcache: CacheConfig,
    /// Prefetch-buffer entries per cache (Table 1: 4 × 16 B).
    pub prefetch_buffer_entries: usize,
    /// Instruction prefetcher (Table 1 default: sequential).
    pub inst_prefetcher: InstPrefetcherKind,
    /// Data prefetcher (Table 1 default: stride).
    pub data_prefetcher: DataPrefetcherKind,
    /// Natural prefetch degree (Table 1: 2 initially).
    pub prefetch_degree: u32,
    /// ICache prefetch control.
    pub inst_mode: PrefetchMode,
    /// DCache prefetch control.
    pub data_mode: PrefetchMode,
    /// Main memory parameters (Table 1: 16 MB ReRAM).
    pub nvm: NvmConfig,
    /// Capacitor parameters (Table 1: 0.47 µF).
    pub capacitor: CapacitorConfig,
    /// Energy model constants.
    pub energy: EnergyModel,
    /// Zero-cost backup/restore — "NVSRAMCache (ideal)" of Fig. 11.
    pub ideal_backup: bool,
    /// Fixed restore latency after reboot, cycles (ignored when ideal).
    pub restore_cycles: u64,
    /// Fixed backup latency on power failure, cycles, in addition to the
    /// per-dirty-block NVM writes (ignored when ideal).
    pub backup_base_cycles: u64,
    /// Safety limit on total simulated cycles (on + off time).
    pub max_cycles: u64,
    /// Instruction latencies in cycles: `[alu, mul, div, branch, jump]`.
    pub latencies: [u64; 5],
    /// Event tracing (off by default; see [`crate::Tracer`]).
    pub trace: TraceMode,
}

/// The paper's Table-1 system with conventional (unthrottled)
/// prefetching — identical to `SimConfig::builder().build()`.
impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            icache: CacheConfig::paper_default(),
            dcache: CacheConfig::paper_default(),
            prefetch_buffer_entries: 4,
            inst_prefetcher: InstPrefetcherKind::Sequential,
            data_prefetcher: DataPrefetcherKind::Stride,
            prefetch_degree: 2,
            inst_mode: PrefetchMode::Conventional,
            data_mode: PrefetchMode::Conventional,
            nvm: NvmConfig::paper_default(),
            capacitor: CapacitorConfig::paper_default(),
            energy: EnergyModel::paper_default(),
            ideal_backup: false,
            restore_cycles: 200,
            backup_base_cycles: 100,
            max_cycles: 40_000_000_000,
            latencies: [1, 3, 12, 1, 1],
            trace: TraceMode::Off,
        }
    }
}

impl SimConfig {
    /// Starts a validating, chainable [`SimConfigBuilder`] from the
    /// Table-1 defaults — the one way to construct configurations:
    /// `SimConfig::builder().ipex(Ipex::Both).cache_kb(1).build()`.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// This configuration with the ideal (zero-cost) backup/restore.
    pub fn with_ideal_backup(mut self) -> SimConfig {
        self.ideal_backup = true;
        self
    }

    /// This configuration with both caches set to `size_bytes`.
    pub fn with_cache_size(mut self, size_bytes: u32) -> SimConfig {
        self.icache.size_bytes = size_bytes;
        self.dcache.size_bytes = size_bytes;
        self
    }

    /// This configuration with the given trace mode.
    pub fn with_trace_mode(mut self, trace: TraceMode) -> SimConfig {
        self.trace = trace;
        self
    }

    /// The default power trace used throughout §6: synthetic RFHome.
    pub fn default_trace() -> PowerTrace {
        SimConfig::default_trace_spec().synthesize()
    }

    /// The identity of [`SimConfig::default_trace`] as a cacheable
    /// [`TraceSpec`] — what sweep points should carry instead of the
    /// samples themselves.
    pub fn default_trace_spec() -> TraceSpec {
        TraceSpec::default_rfhome()
    }

    /// Canonical JSON rendering of this configuration (compact, map
    /// keys sorted recursively): the form that content-addressed cache
    /// keys are derived from. See [`crate::canon`].
    pub fn canonical_json(&self) -> String {
        crate::canon::canonical_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let c = SimConfig::default();
        assert_eq!(c.icache.size_bytes, 2048);
        assert_eq!(c.icache.assoc, 4);
        assert_eq!(c.prefetch_buffer_entries, 4);
        assert_eq!(c.prefetch_degree, 2);
        assert!(!c.ideal_backup);
        assert!(matches!(c.inst_mode, PrefetchMode::Conventional));
    }

    #[test]
    fn cache_size_builder() {
        let c = SimConfig::default().with_cache_size(512);
        assert_eq!(c.icache.size_bytes, 512);
        assert_eq!(c.dcache.size_bytes, 512);
    }

    #[test]
    fn default_trace_spec_matches_default_trace() {
        // Spot-check only the first samples: synthesizing twice is cheap
        // but comparing 400k f64s is not necessary.
        let spec = SimConfig::default_trace_spec().synthesize();
        let direct = SimConfig::default_trace();
        assert_eq!(spec.len(), direct.len());
        for i in 0..64 {
            assert_eq!(spec.power_mw_at(i), direct.power_mw_at(i));
        }
    }
}
