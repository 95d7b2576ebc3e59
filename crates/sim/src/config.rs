//! Simulator configuration and the paper's standard presets.

use ehs_energy::{CapacitorConfig, EnergyModel, PowerTrace, TraceSpec};
use ehs_mem::{CacheConfig, NvmConfig, BLOCK_SIZE};
use ehs_prefetch::{DataPrefetcherKind, InstPrefetcherKind, MAX_DEGREE};
use ipex::PolicyConfig;
use serde::{Deserialize, Serialize};

use crate::builder::{ConfigError, SimConfigBuilder};
use crate::trace::TraceMode;

/// Core cycles per 10 µs power-trace sample (200 MHz × 10 µs).
pub const CYCLES_PER_TRACE_SAMPLE: u64 = 2000;

/// Upper bound on every per-event cycle count: the instruction
/// latencies, the NVM block read and write latencies, and the fixed
/// backup and restore times (2^24 cycles, 84 ms at 200 MHz).
///
/// With [`MAX_SIM_CYCLES`] it keeps every cycle addition far from
/// wrapping: the machine stops within one event of `max_cycles`, and
/// the longest event, a backup of every block of two 4 GiB caches, is
/// under 2^53 cycles. It also bounds the host work of one event, which
/// walks the power trace sample by sample.
pub(crate) const MAX_EVENT_CYCLES: u64 = 1 << 24;

/// Upper bound on `max_cycles` (2^62, far beyond any real run).
pub(crate) const MAX_SIM_CYCLES: u64 = 1 << 62;

/// Upper bound on prefetch-buffer entries. The buffer is a small fully
/// associative array (Table 1: 4 entries, Fig. 17 sweeps 2–8) allocated
/// up front, so a huge count would abort on allocation instead of
/// failing validation.
pub(crate) const MAX_PREFETCH_BUFFER_ENTRIES: usize = 1024;

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

    /// Checks every value a machine relies on: cache geometry, buffer
    /// and degree limits, cycle bounds that keep the cycle counter from
    /// wrapping, finite non-negative energies, the capacitor's voltage
    /// ordering and each throttling policy's parameters.
    /// [`SimConfigBuilder::try_build`] and [`Machine::resume`] both run
    /// it, so a configuration from a snapshot passes the same rules as
    /// a built one.
    ///
    /// [`Machine::resume`]: crate::Machine::resume
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming every violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let mut problems = Vec::new();
        for (name, mode) in [
            ("inst_mode", &self.inst_mode),
            ("data_mode", &self.data_mode),
        ] {
            if let PrefetchMode::Policy(pc) = mode {
                if let Err(e) = pc.validate() {
                    problems.push(format!("{name}: {} policy: {e}", pc.kind_name()));
                }
            }
        }
        for (name, c) in [("icache", &self.icache), ("dcache", &self.dcache)] {
            if c.size_bytes < BLOCK_SIZE {
                problems.push(format!("{name}: smaller than one {BLOCK_SIZE}-byte block"));
            } else if c.assoc == 0 {
                problems.push(format!("{name}: associativity must be at least 1"));
            } else if BLOCK_SIZE
                .checked_mul(c.assoc)
                .is_none_or(|way_bytes| !c.size_bytes.is_multiple_of(way_bytes))
            {
                problems.push(format!(
                    "{name}: capacity must be a multiple of assoc * block size"
                ));
            } else if !c.num_sets().is_power_of_two() {
                problems.push(format!(
                    "{name}: number of sets must be a power of two (got {})",
                    c.num_sets()
                ));
            }
        }
        if !(1..=MAX_PREFETCH_BUFFER_ENTRIES).contains(&self.prefetch_buffer_entries) {
            problems.push(format!(
                "prefetch_buffer_entries: must be 1..={MAX_PREFETCH_BUFFER_ENTRIES}"
            ));
        }
        if !(1..=MAX_DEGREE).contains(&self.prefetch_degree) {
            problems.push(format!("prefetch_degree: must be 1..={MAX_DEGREE}"));
        }
        if !(1..=MAX_SIM_CYCLES).contains(&self.max_cycles) {
            problems.push(format!("max_cycles: must be 1..={MAX_SIM_CYCLES}"));
        }
        if self
            .latencies
            .iter()
            .any(|l| !(1..=MAX_EVENT_CYCLES).contains(l))
        {
            problems.push(format!(
                "latencies: every instruction class takes 1..={MAX_EVENT_CYCLES} cycles"
            ));
        }
        for (name, cycles) in [
            ("nvm.read_cycles", self.nvm.read_cycles),
            ("nvm.write_cycles", self.nvm.write_cycles),
            ("restore_cycles", self.restore_cycles),
            ("backup_base_cycles", self.backup_base_cycles),
        ] {
            if cycles > MAX_EVENT_CYCLES {
                problems.push(format!("{name}: at most {MAX_EVENT_CYCLES} cycles"));
            }
        }
        let (e, nvm) = (&self.energy, &self.nvm);
        for (name, value) in [
            ("energy.cache_access_nj", e.cache_access_nj),
            ("energy.cache_leak_mw_per_2kb", e.cache_leak_mw_per_2kb),
            ("energy.core_leak_mw", e.core_leak_mw),
            ("energy.compute.alu_nj", e.compute.alu_nj),
            ("energy.compute.mul_nj", e.compute.mul_nj),
            ("energy.compute.div_nj", e.compute.div_nj),
            ("energy.compute.mem_nj", e.compute.mem_nj),
            ("energy.nvff_store_nj_per_bit", e.nvff_store_nj_per_bit),
            ("energy.nvff_restore_nj_per_bit", e.nvff_restore_nj_per_bit),
            ("nvm.read_nj", nvm.read_nj),
            ("nvm.write_nj", nvm.write_nj),
            ("nvm.leak_mw", nvm.leak_mw),
            ("nvm.active_leak_fraction", nvm.active_leak_fraction),
        ] {
            // Written so NaN fails: every comparison with NaN is false.
            if !(value >= 0.0 && value.is_finite()) {
                problems.push(format!("{name}: must be finite and non-negative"));
            }
        }
        let cap = &self.capacitor;
        // Written so NaN fails: every comparison with NaN is false.
        if !(cap.capacitance_uf > 0.0 && cap.capacitance_uf.is_finite()) {
            problems.push("capacitor: capacitance must be positive and finite".to_owned());
        }
        if !(cap.v_min < cap.v_backup
            && cap.v_backup < cap.v_on
            && cap.v_on <= cap.v_max
            && cap.v_max.is_finite())
        {
            problems.push(
                "capacitor: voltage levels must be finite and satisfy \
                 v_min < v_backup < v_on <= v_max"
                    .to_owned(),
            );
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(ConfigError(problems.join("; ")))
        }
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

    /// A policy written into a mode directly, not through the builder,
    /// is checked too: `resume` builds the policy from it.
    #[test]
    fn validate_checks_each_mode_policy() {
        use ipex::{PolicyConfig, StaticDegreeConfig};
        let mut cfg = SimConfig::builder().build();
        assert_eq!(cfg.validate(), Ok(()));
        cfg.data_mode =
            PrefetchMode::Policy(PolicyConfig::StaticDegree(StaticDegreeConfig { degree: 9 }));
        let err = cfg.validate().unwrap_err();
        assert!(err.0.contains("data_mode: static-degree policy"), "{err}");
    }
}
