//! Validating, chainable construction of [`SimConfig`]s.
//!
//! The preset constructor zoo (`baseline()` / `ipex_both()` / ...) grew
//! one ad-hoc name per paper configuration and still could not express
//! most sweep points without field-poking. The builder replaces it:
//!
//! ```
//! use ehs_sim::{Ipex, SimConfig};
//!
//! let cfg = SimConfig::builder()
//!     .ipex(Ipex::Both)
//!     .cache_kb(1)
//!     .prefetch_degree(4)
//!     .build();
//! assert_eq!(cfg.icache.size_bytes, 1024);
//! ```
//!
//! `build()` validates the whole configuration (cache geometry,
//! capacitor voltage ordering, throttling-policy parameters, prefetch
//! settings) and panics with a field-naming message on contradiction;
//! [`SimConfigBuilder::try_build`] returns the error instead.

use ehs_energy::{CapacitorConfig, EnergyModel};
use ehs_mem::{CacheConfig, NvmConfig, NvmTech};
use ehs_prefetch::{DataPrefetcherKind, InstPrefetcherKind};
use ipex::{IpexConfig, PolicyConfig};

use crate::config::PrefetchMode;
use crate::trace::TraceMode;
use crate::SimConfig;

/// Which caches IPEX (or another throttling policy) throttles — the
/// paper's three comparison points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ipex {
    /// No throttling anywhere: conventional, unthrottled prefetching
    /// (the paper's NVSRAMCache baseline).
    Off,
    /// Throttle the data prefetcher only ("+IPEX(D)").
    Data,
    /// Throttle both prefetchers — the headline configuration
    /// ("+IPEX(I+D)").
    Both,
}

/// An invalid [`SimConfig`] under construction, naming the offending
/// field(s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid SimConfig: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Chainable builder for [`SimConfig`]; start from
/// [`SimConfig::builder`], finish with [`build`](Self::build) or
/// [`try_build`](Self::try_build).
///
/// Defaults are the paper's Table-1 system with conventional
/// (unthrottled) prefetching — `SimConfig::builder().build()` is the
/// NVSRAMCache baseline.
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
    prefetch: bool,
    /// Which caches are throttled.
    placement: Ipex,
    /// What throttles them.
    policy: PolicyConfig,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        SimConfigBuilder {
            cfg: SimConfig::default(),
            prefetch: true,
            placement: Ipex::Off,
            policy: PolicyConfig::Ipex(IpexConfig::paper_default()),
        }
    }
}

impl SimConfigBuilder {
    /// Disables both prefetchers ("NVSRAMCache (No Prefetcher)").
    /// Incompatible with throttling any cache
    /// ([`ipex`](Self::ipex)/[`throttle_policy`](Self::throttle_policy)
    /// other than [`Ipex::Off`]).
    pub fn no_prefetch(mut self) -> Self {
        self.prefetch = false;
        self
    }

    /// Throttles the caches `which` selects with the paper's IPEX
    /// controller (default: [`Ipex::Off`]). Shorthand for
    /// [`throttle_policy`](Self::throttle_policy) with
    /// `PolicyConfig::Ipex(IpexConfig::paper_default())`.
    pub fn ipex(self, which: Ipex) -> Self {
        self.throttle_policy(which, PolicyConfig::Ipex(IpexConfig::paper_default()))
    }

    /// Throttles prefetching with the [`PolicyConfig`] controller `cfg`
    /// (IPEX, predictive, hysteresis, static-degree) on the caches
    /// `which` selects: [`Ipex::Data`] leaves the instruction side
    /// conventional, [`Ipex::Off`] throttles nothing. Replaces any
    /// earlier `ipex()`/`throttle_policy()` choice.
    pub fn throttle_policy(mut self, which: Ipex, cfg: PolicyConfig) -> Self {
        self.placement = which;
        self.policy = cfg;
        self
    }

    /// Sets both caches to `kb` kilobytes (Table 1: 2 kB each). A size
    /// past `u32::MAX` bytes saturates, which `try_build` rejects.
    pub fn cache_kb(self, kb: u32) -> Self {
        self.cache_bytes(kb.saturating_mul(1024))
    }

    /// Sets both caches to `bytes` bytes.
    pub fn cache_bytes(mut self, bytes: u32) -> Self {
        self.cfg.icache.size_bytes = bytes;
        self.cfg.dcache.size_bytes = bytes;
        self
    }

    /// Sets both caches' associativity (Table 1: 4-way).
    pub fn cache_assoc(mut self, ways: u32) -> Self {
        self.cfg.icache.assoc = ways;
        self.cfg.dcache.assoc = ways;
        self
    }

    /// Replaces the ICache geometry wholesale.
    pub fn icache(mut self, cache: CacheConfig) -> Self {
        self.cfg.icache = cache;
        self
    }

    /// Replaces the DCache geometry wholesale.
    pub fn dcache(mut self, cache: CacheConfig) -> Self {
        self.cfg.dcache = cache;
        self
    }

    /// Prefetch-buffer entries per cache (Table 1: 4 × 16 B).
    pub fn prefetch_buffer_entries(mut self, entries: usize) -> Self {
        self.cfg.prefetch_buffer_entries = entries;
        self
    }

    /// Instruction prefetcher (Table 1 default: sequential).
    pub fn inst_prefetcher(mut self, kind: InstPrefetcherKind) -> Self {
        self.cfg.inst_prefetcher = kind;
        self
    }

    /// Data prefetcher (Table 1 default: stride).
    pub fn data_prefetcher(mut self, kind: DataPrefetcherKind) -> Self {
        self.cfg.data_prefetcher = kind;
        self
    }

    /// Natural prefetch degree (Table 1: 2).
    pub fn prefetch_degree(mut self, degree: u32) -> Self {
        self.cfg.prefetch_degree = degree;
        self
    }

    /// Replaces the main-memory parameters (Table 1: 16 MB ReRAM).
    pub fn nvm(mut self, nvm: NvmConfig) -> Self {
        self.cfg.nvm = nvm;
        self
    }

    /// Main memory of `size_bytes` in the given technology, with the
    /// documented capacity scaling for latency and energy.
    pub fn nvm_tech(mut self, tech: NvmTech, size_bytes: u64) -> Self {
        self.cfg.nvm = NvmConfig::for_tech(tech, size_bytes);
        self
    }

    /// Replaces the capacitor parameters (Table 1: 0.47 µF).
    pub fn capacitor(mut self, cap: CapacitorConfig) -> Self {
        self.cfg.capacitor = cap;
        self
    }

    /// The paper's capacitor electrical point at a different
    /// capacitance (the Fig. 22 sweep).
    pub fn capacitor_uf(mut self, uf: f64) -> Self {
        self.cfg.capacitor = CapacitorConfig::with_capacitance_uf(uf);
        self
    }

    /// Replaces the energy-model constants.
    pub fn energy(mut self, model: EnergyModel) -> Self {
        self.cfg.energy = model;
        self
    }

    /// Zero-cost backup/restore — "NVSRAMCache (ideal)" of Fig. 11.
    pub fn ideal_backup(mut self, ideal: bool) -> Self {
        self.cfg.ideal_backup = ideal;
        self
    }

    /// Fixed restore latency after reboot, cycles.
    pub fn restore_cycles(mut self, cycles: u64) -> Self {
        self.cfg.restore_cycles = cycles;
        self
    }

    /// Fixed backup latency on power failure, cycles.
    pub fn backup_base_cycles(mut self, cycles: u64) -> Self {
        self.cfg.backup_base_cycles = cycles;
        self
    }

    /// Safety limit on total simulated cycles.
    pub fn max_cycles(mut self, cycles: u64) -> Self {
        self.cfg.max_cycles = cycles;
        self
    }

    /// Instruction latencies `[alu, mul, div, branch, jump]`.
    pub fn latencies(mut self, latencies: [u64; 5]) -> Self {
        self.cfg.latencies = latencies;
        self
    }

    /// Event tracing mode (off by default).
    pub fn trace_mode(mut self, mode: TraceMode) -> Self {
        self.cfg.trace = mode;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming every violated constraint.
    pub fn try_build(self) -> Result<SimConfig, ConfigError> {
        let SimConfigBuilder {
            mut cfg,
            prefetch,
            placement,
            policy,
        } = self;

        let mut problems = Vec::new();
        if !prefetch && placement != Ipex::Off {
            problems.push(
                "no_prefetch() conflicts with ipex()/throttle_policy(): a throttling policy \
                 needs a prefetcher to throttle"
                    .to_owned(),
            );
        }
        if let Err(e) = policy.validate() {
            problems.push(format!(
                "throttle_policy: {} policy: {e}",
                policy.kind_name()
            ));
        }
        // The rules on the values themselves; the mode policies are
        // still the default `Conventional` here, so `policy` is checked
        // once, above.
        if let Err(ConfigError(e)) = cfg.validate() {
            problems.push(e);
        }
        if !problems.is_empty() {
            return Err(ConfigError(problems.join("; ")));
        }

        let throttled = PrefetchMode::Policy(policy);
        let (inst_mode, data_mode) = match (prefetch, placement) {
            (false, _) => (PrefetchMode::Off, PrefetchMode::Off),
            (true, Ipex::Off) => (PrefetchMode::Conventional, PrefetchMode::Conventional),
            (true, Ipex::Data) => (PrefetchMode::Conventional, throttled),
            (true, Ipex::Both) => (throttled, throttled),
        };
        cfg.inst_mode = inst_mode;
        cfg.data_mode = data_mode;
        Ok(cfg)
    }

    /// Validates and produces the configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message if any constraint is
    /// violated; use [`try_build`](Self::try_build) to handle the error.
    pub fn build(self) -> SimConfig {
        match self.try_build() {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MAX_EVENT_CYCLES, MAX_SIM_CYCLES};
    use ehs_prefetch::MAX_DEGREE;

    #[test]
    fn default_build_is_the_baseline() {
        let cfg = SimConfig::builder().build();
        assert_eq!(cfg.icache.size_bytes, 2048);
        assert!(matches!(cfg.inst_mode, PrefetchMode::Conventional));
        assert!(matches!(cfg.data_mode, PrefetchMode::Conventional));
        assert!(!cfg.ideal_backup);
    }

    #[test]
    fn ipex_placements() {
        let ipex = PrefetchMode::Policy(PolicyConfig::Ipex(IpexConfig::paper_default()));
        let both = SimConfig::builder().ipex(Ipex::Both).build();
        assert_eq!(both.inst_mode, ipex);
        assert_eq!(both.data_mode, ipex);
        let data = SimConfig::builder().ipex(Ipex::Data).build();
        assert_eq!(data.inst_mode, PrefetchMode::Conventional);
        assert_eq!(data.data_mode, ipex);
    }

    /// `ipex()` and `throttle_policy()` set the same two fields, so the
    /// last call wins, like every other setter.
    #[test]
    fn last_throttling_call_wins() {
        use ipex::PredictiveConfig;
        let pc = PolicyConfig::Predictive(PredictiveConfig::paper_default());
        let cfg = SimConfig::builder()
            .ipex(Ipex::Both)
            .throttle_policy(Ipex::Data, pc)
            .build();
        assert_eq!(cfg.inst_mode, PrefetchMode::Conventional);
        assert_eq!(cfg.data_mode, PrefetchMode::Policy(pc));
        let cfg = SimConfig::builder()
            .throttle_policy(Ipex::Data, pc)
            .ipex(Ipex::Both)
            .build();
        assert_eq!(
            cfg.inst_mode,
            PrefetchMode::Policy(PolicyConfig::Ipex(IpexConfig::paper_default()))
        );
        let cfg = SimConfig::builder()
            .no_prefetch()
            .ipex(Ipex::Both)
            .ipex(Ipex::Off)
            .build();
        assert_eq!(cfg.inst_mode, PrefetchMode::Off);
    }

    #[test]
    fn no_prefetch_disables_both() {
        let cfg = SimConfig::builder().no_prefetch().build();
        assert!(!cfg.inst_mode.enabled());
        assert!(!cfg.data_mode.enabled());
    }

    #[test]
    fn chained_geometry() {
        let cfg = SimConfig::builder()
            .ipex(Ipex::Both)
            .cache_kb(1)
            .cache_assoc(2)
            .prefetch_buffer_entries(8)
            .prefetch_degree(4)
            .capacitor_uf(47.0)
            .ideal_backup(true)
            .build();
        assert_eq!(cfg.icache.size_bytes, 1024);
        assert_eq!(cfg.dcache.assoc, 2);
        assert_eq!(cfg.prefetch_buffer_entries, 8);
        assert_eq!(cfg.prefetch_degree, 4);
        assert!((cfg.capacitor.capacitance_uf - 47.0).abs() < 1e-12);
        assert!(cfg.ideal_backup);
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        let err = SimConfig::builder().cache_bytes(100).try_build();
        assert!(err.is_err(), "non-power-of-two sets must be rejected");
        let err = SimConfig::builder()
            .no_prefetch()
            .ipex(Ipex::Both)
            .try_build()
            .unwrap_err();
        assert!(err.0.contains("no_prefetch"), "{err}");
        let err = SimConfig::builder().prefetch_degree(0).try_build();
        assert!(err.is_err());
    }

    /// Each of these passed `try_build` and then failed: a panic in
    /// `Machine::with_trace` (degree 64, NaN capacitance), an `unreachable!`
    /// in `Machine::run` (a backup window reaching `u64::MAX`), or a
    /// silently wrapped cycle counter (latency `u64::MAX`).
    #[test]
    fn prefetch_degree_above_the_prefetchers_maximum_is_rejected() {
        let err = SimConfig::builder().prefetch_degree(64).try_build();
        assert!(err.unwrap_err().0.contains("prefetch_degree"));
        assert!(SimConfig::builder()
            .prefetch_degree(MAX_DEGREE)
            .try_build()
            .is_ok());
    }

    #[test]
    fn nan_capacitance_is_rejected() {
        let err = SimConfig::builder().capacitor_uf(f64::NAN).try_build();
        assert!(err.unwrap_err().0.contains("capacitance"));
        let err = SimConfig::builder().capacitor_uf(f64::INFINITY).try_build();
        assert!(err.unwrap_err().0.contains("capacitance"));
    }

    #[test]
    fn a_backup_window_that_could_wrap_is_rejected() {
        let err = SimConfig::builder()
            .backup_base_cycles(u64::MAX)
            .try_build();
        assert!(err.unwrap_err().0.contains("backup_base_cycles"));
        let err = SimConfig::builder()
            .restore_cycles(MAX_EVENT_CYCLES + 1)
            .try_build();
        assert!(err.unwrap_err().0.contains("restore_cycles"));
        assert!(SimConfig::builder()
            .backup_base_cycles(MAX_EVENT_CYCLES)
            .restore_cycles(MAX_EVENT_CYCLES)
            .try_build()
            .is_ok());
    }

    #[test]
    fn a_latency_that_could_wrap_the_cycle_counter_is_rejected() {
        let err = SimConfig::builder()
            .latencies([u64::MAX, 1, 1, 1, 1])
            .try_build();
        assert!(err.unwrap_err().0.contains("latencies"));
        let err = SimConfig::builder().max_cycles(u64::MAX).try_build();
        assert!(err.unwrap_err().0.contains("max_cycles"));
        assert!(SimConfig::builder()
            .latencies([MAX_EVENT_CYCLES; 5])
            .max_cycles(MAX_SIM_CYCLES)
            .try_build()
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid SimConfig")]
    fn build_panics_on_invalid() {
        SimConfig::builder().cache_assoc(0).build();
    }

    #[test]
    fn throttle_policy_placements() {
        use ipex::{HysteresisConfig, PredictiveConfig};
        let pc = PolicyConfig::Predictive(PredictiveConfig::paper_default());
        let both = SimConfig::builder().throttle_policy(Ipex::Both, pc).build();
        assert!(matches!(both.inst_mode, PrefetchMode::Policy(_)));
        assert!(matches!(both.data_mode, PrefetchMode::Policy(_)));
        let hc = PolicyConfig::Hysteresis(HysteresisConfig::paper_default());
        let data = SimConfig::builder().throttle_policy(Ipex::Data, hc).build();
        assert!(matches!(data.inst_mode, PrefetchMode::Conventional));
        assert!(matches!(data.data_mode, PrefetchMode::Policy(_)));
    }

    #[test]
    fn throttle_policy_conflicts_are_rejected() {
        use ipex::{PredictiveConfig, StaticDegreeConfig};
        let pc = PolicyConfig::Predictive(PredictiveConfig::paper_default());
        let err = SimConfig::builder()
            .no_prefetch()
            .throttle_policy(Ipex::Data, pc)
            .try_build()
            .unwrap_err();
        assert!(err.0.contains("no_prefetch()"), "{err}");
        let bad = PolicyConfig::StaticDegree(StaticDegreeConfig { degree: 0 });
        let err = SimConfig::builder()
            .throttle_policy(Ipex::Both, bad)
            .try_build()
            .unwrap_err();
        assert!(err.0.contains("throttle_policy:"), "{err}");
    }

    /// Every constraint `IpexConfig::validate` enforces surfaces as a
    /// `ConfigError` naming the `ipex` policy at build time, instead of
    /// a panic later in `Machine::with_trace`.
    #[test]
    fn invalid_ipex_configs_are_rejected_at_build_time() {
        let ok = IpexConfig::paper_default();
        let bad = [
            IpexConfig {
                threshold_count: 0,
                ..ok
            },
            IpexConfig {
                initial_degree: 0,
                ..ok
            },
            IpexConfig {
                initial_degree: 5,
                ..ok
            },
            IpexConfig {
                max_degree: 8,
                ..ok
            },
            IpexConfig {
                threshold_spacing_v: 0.0,
                ..ok
            },
            IpexConfig {
                voltage_step_v: -0.05,
                ..ok
            },
            IpexConfig {
                throttle_rate_threshold: 1.5,
                ..ok
            },
            IpexConfig {
                min_top_threshold_v: 3.4,
                ..ok
            },
            IpexConfig {
                top_threshold_v: 3.5,
                ..ok
            },
        ];
        let mut messages = std::collections::BTreeSet::new();
        for ic in bad {
            let err = SimConfig::builder()
                .throttle_policy(Ipex::Both, PolicyConfig::Ipex(ic))
                .try_build()
                .unwrap_err();
            assert!(err.0.contains("throttle_policy: ipex policy:"), "{err}");
            messages.insert(err.0);
        }
        assert_eq!(messages.len(), 9, "each case trips its own check");
        assert!(SimConfig::builder()
            .throttle_policy(Ipex::Both, PolicyConfig::Ipex(ok))
            .try_build()
            .is_ok());
    }
}
