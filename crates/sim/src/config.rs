//! Simulator configuration and the paper's standard presets.

use ehs_energy::{CapacitorConfig, EnergyModel, PowerTrace, TraceSpec};
use ehs_mem::{CacheConfig, NvmConfig, BLOCK_SIZE};
use ehs_prefetch::{DataPrefetcherKind, InstPrefetcherKind, MAX_DEGREE};
use ipex::PolicyConfig;
use serde::{Deserialize, Serialize};

use crate::builder::SimConfigBuilder;
use crate::trace::TraceMode;

/// Core cycles per 10 µs power-trace sample (200 MHz × 10 µs).
pub const CYCLES_PER_TRACE_SAMPLE: u64 = 2000;

/// Upper bound on every per-event cycle count: the instruction
/// latencies, the NVM block read and write latencies, and the fixed
/// backup and restore times (2^24 cycles, 84 ms at 200 MHz).
///
/// With [`MAX_SIM_CYCLES`] it keeps every cycle addition far from
/// wrapping: the machine stops within one event of `max_cycles`, and
/// the longest event, a backup of every block of two
/// [`MAX_CACHE_BYTES`] caches, is under 2^42 cycles. It also bounds the
/// host work of one event, which walks the power trace sample by
/// sample.
pub(crate) const MAX_EVENT_CYCLES: u64 = 1 << 24;

/// Upper bound on `max_cycles` (2^62, far beyond any real run).
pub(crate) const MAX_SIM_CYCLES: u64 = 1 << 62;

/// Upper bound on prefetch-buffer entries. The buffer is a small fully
/// associative array (Table 1: 4 entries, Fig. 17 sweeps 2–8) allocated
/// up front, so a huge count would abort on allocation instead of
/// failing validation.
pub(crate) const MAX_PREFETCH_BUFFER_ENTRIES: usize = 1024;

/// Upper bound on each cache's capacity (1 MiB; Table 1 has 2 kB and
/// Fig. 18 sweeps up to 8 kB). A cache allocates one line per 16-byte
/// block up front.
pub(crate) const MAX_CACHE_BYTES: u32 = 1 << 20;

/// Upper bound on the NVM capacity (1 GiB; Table 1 has 16 MB and
/// Fig. 20 sweeps up to 32 MB). The interpreter addresses memory with
/// 32-bit registers and starts the stack pointer 16 bytes below its
/// top, so the size must fit in 32 bits; the lower bound, one 16-byte
/// block, keeps that stack pointer from wrapping.
pub(crate) const MAX_NVM_BYTES: u64 = 1 << 30;

/// An invalid [`SimConfig`], naming the offending field(s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid SimConfig: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

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
/// chooses the prefetch control of the comparison points used
/// throughout §6, and each sweep sets its one field directly.
/// [`SimConfig::validate`] checks the result, and building a
/// [`Machine`](crate::Machine) runs it.
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
    /// Starts a chainable [`SimConfigBuilder`] from the Table-1
    /// defaults, for the prefetch control a field write cannot say:
    /// `SimConfig::builder().ipex(Ipex::Both).build()`.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// Checks every value a machine relies on: cache geometry and
    /// size, NVM size, buffer and degree limits, cycle bounds that keep
    /// the cycle counter from wrapping, finite non-negative energies,
    /// the capacitor's voltage ordering and each throttling policy's
    /// parameters. [`Machine::try_with_trace`] runs it, and with it
    /// every other way to build a machine, so a configuration from a
    /// snapshot passes the same rules as one written in code.
    ///
    /// [`Machine::try_with_trace`]: crate::Machine::try_with_trace
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
            } else if c.size_bytes > MAX_CACHE_BYTES {
                problems.push(format!("{name}: larger than {MAX_CACHE_BYTES} bytes"));
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
        if !(u64::from(BLOCK_SIZE)..=MAX_NVM_BYTES).contains(&self.nvm.size_bytes) {
            problems.push(format!(
                "nvm.size_bytes: must be {BLOCK_SIZE}..={MAX_NVM_BYTES} bytes"
            ));
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

    /// The Table-1 defaults with `edit` applied, validated.
    fn validated(edit: impl FnOnce(&mut SimConfig)) -> Result<(), ConfigError> {
        let mut cfg = SimConfig::default();
        edit(&mut cfg);
        cfg.validate()
    }

    #[test]
    fn the_defaults_are_valid() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        let err = validated(|c| *c = c.clone().with_cache_size(100));
        assert!(err.is_err(), "non-power-of-two sets must be rejected");
        let err = validated(|c| c.dcache.assoc = 0).unwrap_err();
        assert!(err.0.contains("dcache: associativity"), "{err}");
        assert!(validated(|c| c.prefetch_degree = 0).is_err());
    }

    /// A 2 GiB cache of valid geometry used to pass `validate`, and a
    /// machine would then allocate one line per 16-byte block: 2^27.
    #[test]
    fn a_2_gib_cache_is_rejected() {
        let err = validated(|c| c.icache.size_bytes = 1 << 31).unwrap_err();
        assert!(err.0.contains("icache: larger than"), "{err}");
        assert_eq!(
            validated(|c| *c = c.clone().with_cache_size(MAX_CACHE_BYTES)),
            Ok(())
        );
    }

    /// A 4 GiB NVM used to pass `validate`. Its size truncates to 0 in
    /// the interpreter's 32-bit stack-pointer arithmetic, which then
    /// panicked on a subtract overflow.
    #[test]
    fn a_4_gib_nvm_is_rejected() {
        let err = validated(|c| c.nvm.size_bytes = 1 << 32).unwrap_err();
        assert!(err.0.contains("nvm.size_bytes"), "{err}");
        assert_eq!(validated(|c| c.nvm.size_bytes = MAX_NVM_BYTES), Ok(()));
        let err = validated(|c| c.nvm.size_bytes = u64::from(BLOCK_SIZE) - 1).unwrap_err();
        assert!(err.0.contains("nvm.size_bytes"), "{err}");
    }

    /// Each of these once built a machine and then failed: a panic in
    /// `Machine::with_trace` (degree 64, NaN capacitance), an
    /// `unreachable!` in `Machine::run` (a backup window reaching
    /// `u64::MAX`), or a silently wrapped cycle counter (latency
    /// `u64::MAX`).
    #[test]
    fn prefetch_degree_above_the_prefetchers_maximum_is_rejected() {
        let err = validated(|c| c.prefetch_degree = 64);
        assert!(err.unwrap_err().0.contains("prefetch_degree"));
        assert_eq!(validated(|c| c.prefetch_degree = MAX_DEGREE), Ok(()));
    }

    #[test]
    fn nan_capacitance_is_rejected() {
        for uf in [f64::NAN, f64::INFINITY] {
            let err = validated(|c| c.capacitor = CapacitorConfig::with_capacitance_uf(uf));
            assert!(err.unwrap_err().0.contains("capacitance"));
        }
    }

    #[test]
    fn a_backup_window_that_could_wrap_is_rejected() {
        let err = validated(|c| c.backup_base_cycles = u64::MAX);
        assert!(err.unwrap_err().0.contains("backup_base_cycles"));
        let err = validated(|c| c.restore_cycles = MAX_EVENT_CYCLES + 1);
        assert!(err.unwrap_err().0.contains("restore_cycles"));
        let ok = validated(|c| {
            c.backup_base_cycles = MAX_EVENT_CYCLES;
            c.restore_cycles = MAX_EVENT_CYCLES;
        });
        assert_eq!(ok, Ok(()));
    }

    #[test]
    fn a_latency_that_could_wrap_the_cycle_counter_is_rejected() {
        let err = validated(|c| c.latencies = [u64::MAX, 1, 1, 1, 1]);
        assert!(err.unwrap_err().0.contains("latencies"));
        let err = validated(|c| c.max_cycles = u64::MAX);
        assert!(err.unwrap_err().0.contains("max_cycles"));
        let ok = validated(|c| {
            c.latencies = [MAX_EVENT_CYCLES; 5];
            c.max_cycles = MAX_SIM_CYCLES;
        });
        assert_eq!(ok, Ok(()));
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
