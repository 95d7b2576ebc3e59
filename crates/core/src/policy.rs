//! The pluggable throttling-policy layer.
//!
//! The paper's contribution (IPEX) is *one* answer to a more general
//! question: given the capacitor voltage, how aggressively should the
//! prefetcher run right now? This module names that question as a
//! contract — [`ThrottlePolicy`] — and ships four answers behind the
//! closed [`AnyPolicy`] enum the simulator embeds:
//!
//! * [`IpexController`] — the paper's voltage-threshold ladder (§4).
//! * [`PredictiveController`] — a confidence-weighted outage predictor:
//!   per-context transition tables over quantized recent-voltage
//!   history predict the length of the current power cycle and throttle
//!   only as the predicted outage approaches.
//! * [`HysteresisController`] — an EWMA-smoothed two-point hysteresis
//!   baseline (filtered voltage, not instantaneous, drives a single
//!   low/high band).
//! * [`StaticController`] — a fixed-degree family standing in for the
//!   related-work static points (conservative always-degree-1 à la
//!   Zeng et al.'s cautious volatile-cache management; aggressive
//!   full-degree à la Choi et al.'s compiler-chosen speculation depth).
//!
//! `AnyPolicy` is an enum, not a `Box<dyn ThrottlePolicy>`, for the same
//! reason `ehs-prefetch`'s `AnyPrefetcher` is: the simulator's hot loop
//! calls [`AnyPolicy::filter`] on every demand access, and a direct
//! match inlines and branch-predicts where a vtable call cannot (the
//! variant never changes within a run).
//!
//! ## State rules
//!
//! Every policy distinguishes three kinds of state, and the contract
//! makes each explicit:
//!
//! 1. **Nonvolatile state** ([`ThrottlePolicy::nvff_bits`]) — survives
//!    power failure via nonvolatile flip-flops; the simulator charges
//!    its bits to every JIT checkpoint. IPEX checkpoints
//!    `Rthrottled`/`Rtotal` (64 bits); the predictive policy its
//!    transition tables (4096 bits); hysteresis and static nothing.
//! 2. **Volatile state** — wiped by [`ThrottlePolicy::on_power_failure`]
//!    (reissue queues, EWMA accumulators, sampled voltage history).
//! 3. **Measurement state** ([`PolicyStats`]) — simulator-side counters
//!    for the evaluation figures; free, like `SimResult` itself.
//!
//! Snapshot/resume (a *simulator* checkpoint, orthogonal to power
//! failure) captures all three via [`ehs_mem::Persist`].

use serde::{Deserialize, Serialize};

use crate::controller::{IpexController, IpexControllerState, Mode};
use crate::IpexConfig;
use ehs_mem::Persist;

/// Counters every throttling policy maintains for the evaluation
/// figures (prefetch-operation reduction, threshold adaptation, …).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyStats {
    /// Prefetch candidates issued (after throttling).
    pub issued: u64,
    /// Prefetch candidates suppressed by throttling.
    pub throttled: u64,
    /// Throttled candidates that were later reissued by IPEX's §5.1
    /// extension.
    pub reissued: u64,
    /// Transitions into energy-saving mode.
    pub saving_mode_entries: u64,
    /// Reboots where the thresholds were lowered (throttling was eager).
    pub threshold_lowers: u64,
    /// Reboots where the thresholds were raised (throttling was lazy).
    pub threshold_raises: u64,
    /// Power cycles observed.
    pub power_cycles: u64,
}

impl PolicyStats {
    /// Lifetime throttling rate: throttled / (issued + throttled).
    pub fn overall_throttle_rate(&self) -> f64 {
        let total = self.issued + self.throttled;
        if total == 0 {
            0.0
        } else {
            self.throttled as f64 / total as f64
        }
    }
}

/// NVFF bits the IPEX controller JIT-checkpoints per cache:
/// `Rthrottled` + `Rtotal` (§6.1). `Rtr` is recomputed at reboot and
/// `Ripd` is configuration, so neither is charged to the backup.
pub const IPEX_NVFF_BITS: u32 = 64;

/// The contract a throttling policy implements: observe the capacitor
/// voltage, decide a prefetch degree, filter candidate lists, react to
/// power failure/reboot, and expose its state and costs.
///
/// The simulator never takes a `dyn ThrottlePolicy`; the contract is
/// realized by the closed [`AnyPolicy`] enum (see the module docs for
/// why). The trait exists so each controller states the full contract in
/// one place and so tests can be written generically.
pub trait ThrottlePolicy {
    /// Stable kebab-case policy name, used in snapshot-mismatch errors
    /// and diagnostics (`"ipex"`, `"predictive"`, …).
    fn kind_name(&self) -> &'static str;

    /// Updates the policy with the current capacitor voltage. Returns
    /// blocks to reissue, if the policy supports reissue and just
    /// re-entered its unthrottled mode (only IPEX's §5.1 extension does).
    fn observe_voltage(&mut self, voltage: f64) -> Option<Vec<u32>>;

    /// Filters a prefetcher's candidate list in place down to the
    /// policy's current degree decision, preserving priority order.
    /// Returns the number of candidates kept.
    fn filter(&mut self, candidates: &mut Vec<u32>) -> usize;

    /// Imminent power failure: volatile state is about to be lost.
    /// Anything covered by [`ThrottlePolicy::nvff_bits`] survives.
    fn on_power_failure(&mut self);

    /// Reboot after an outage: start the new power cycle.
    fn on_reboot(&mut self);

    /// Counters accumulated so far.
    fn stats(&self) -> PolicyStats;

    /// The current effective prefetch degree.
    fn current_degree(&self) -> u32;

    /// Voltage thresholds at which [`ThrottlePolicy::observe_voltage`]
    /// can change its decision, highest first. Only meaningful together
    /// with [`ThrottlePolicy::batched_observation_safe`]; policies whose
    /// decisions do not reduce to fixed voltage thresholds return `&[]`.
    fn thresholds(&self) -> &[f64] {
        &[]
    }

    /// Nonvolatile flip-flop bits the policy checkpoints across outages.
    /// The simulator charges these bits to every backup and restore.
    fn nvff_bits(&self) -> u32 {
        0
    }

    /// `true` when `observe_voltage` is provably a no-op while the
    /// voltage stays strictly inside one band between consecutive
    /// [`ThrottlePolicy::thresholds`]. The simulator may then skip
    /// per-instruction observations inside a safe energy window.
    /// Policies that accumulate per-observation state (EWMA, sampled
    /// history) must return `false` to force exact per-instruction
    /// observation.
    fn batched_observation_safe(&self) -> bool {
        false
    }

    /// Monotone count of self-adaptation events (threshold moves, table
    /// updates). Lets the simulator's tracer emit a `policy-adapt` event
    /// when the count advances across a reboot.
    fn adaptations(&self) -> u64 {
        0
    }
}

impl ThrottlePolicy for IpexController {
    fn kind_name(&self) -> &'static str {
        "ipex"
    }

    fn observe_voltage(&mut self, voltage: f64) -> Option<Vec<u32>> {
        IpexController::observe_voltage(self, voltage)
    }

    fn filter(&mut self, candidates: &mut Vec<u32>) -> usize {
        IpexController::filter(self, candidates)
    }

    fn on_power_failure(&mut self) {
        IpexController::on_power_failure(self)
    }

    fn on_reboot(&mut self) {
        IpexController::on_reboot(self)
    }

    fn stats(&self) -> PolicyStats {
        IpexController::stats(self)
    }

    fn current_degree(&self) -> u32 {
        IpexController::current_degree(self)
    }

    fn thresholds(&self) -> &[f64] {
        IpexController::thresholds(self)
    }

    fn nvff_bits(&self) -> u32 {
        IPEX_NVFF_BITS
    }

    fn batched_observation_safe(&self) -> bool {
        // `observe_voltage` only acts when the threshold-count level
        // changes, which cannot happen while the voltage stays strictly
        // between two adjacent thresholds.
        true
    }

    fn adaptations(&self) -> u64 {
        let s = IpexController::stats(self);
        s.threshold_lowers + s.threshold_raises
    }
}

// ---------------------------------------------------------------------
// Static-degree family (related-work stand-ins)
// ---------------------------------------------------------------------

/// Configuration of a [`StaticController`]: one fixed degree, applied
/// unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticDegreeConfig {
    /// The fixed prefetch degree every candidate list is truncated to
    /// (1–7; the same 3-bit budget as IPEX's `Ripd`).
    pub degree: u32,
}

impl StaticDegreeConfig {
    /// Conservative point: always degree 1, in the spirit of Zeng et
    /// al.'s cautious volatile-cache management for energy harvesting.
    pub fn conservative() -> StaticDegreeConfig {
        StaticDegreeConfig { degree: 1 }
    }

    /// Aggressive point: a fixed compile-time speculation depth equal to
    /// the paper's default degree, in the spirit of Choi et al.'s
    /// compiler-directed speculation (no runtime voltage feedback).
    pub fn aggressive() -> StaticDegreeConfig {
        StaticDegreeConfig { degree: 2 }
    }

    /// Checks the configuration for consistency.
    ///
    /// # Errors
    ///
    /// Describes the first inconsistent field.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=7).contains(&self.degree) {
            return Err(format!(
                "static policy degree {} outside the 3-bit range 1-7",
                self.degree
            ));
        }
        Ok(())
    }
}

/// Complete serializable state of a [`StaticController`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticControllerState {
    /// Configuration the controller was built with.
    pub cfg: StaticDegreeConfig,
    /// Counters at the time of the export.
    pub stats: PolicyStats,
}

/// Fixed-degree throttling: every candidate list is truncated to the
/// configured degree, regardless of voltage. No nonvolatile state, no
/// adaptation — the related-work baseline the adaptive policies are
/// measured against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticController {
    cfg: StaticDegreeConfig,
    stats: PolicyStats,
}

impl StaticController {
    /// Creates a controller with the given fixed degree.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`StaticDegreeConfig::validate`]).
    pub fn new(cfg: StaticDegreeConfig) -> StaticController {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        StaticController {
            cfg,
            stats: PolicyStats::default(),
        }
    }

    /// The configuration the controller was built with.
    pub fn config(&self) -> &StaticDegreeConfig {
        &self.cfg
    }
}

impl ThrottlePolicy for StaticController {
    fn kind_name(&self) -> &'static str {
        "static-degree"
    }

    fn observe_voltage(&mut self, _voltage: f64) -> Option<Vec<u32>> {
        None
    }

    fn filter(&mut self, candidates: &mut Vec<u32>) -> usize {
        let total = candidates.len();
        if total == 0 {
            return 0;
        }
        let keep = total.min(self.cfg.degree as usize);
        candidates.truncate(keep);
        self.stats.issued += keep as u64;
        self.stats.throttled += (total - keep) as u64;
        keep
    }

    fn on_power_failure(&mut self) {}

    fn on_reboot(&mut self) {
        self.stats.power_cycles += 1;
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }

    fn current_degree(&self) -> u32 {
        self.cfg.degree
    }

    fn batched_observation_safe(&self) -> bool {
        // `observe_voltage` is a no-op everywhere, not just in a band.
        true
    }
}

impl Persist for StaticController {
    type State = StaticControllerState;

    fn export_state(&self) -> StaticControllerState {
        StaticControllerState {
            cfg: self.cfg,
            stats: self.stats,
        }
    }

    fn import_state(&mut self, state: &StaticControllerState) -> Result<(), String> {
        state.cfg.validate()?;
        same_cfg(&state.cfg, &self.cfg)?;
        self.stats = state.stats;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Hysteresis / EWMA baseline
// ---------------------------------------------------------------------

/// Configuration of a [`HysteresisController`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HysteresisConfig {
    /// EWMA smoothing factor in `(0, 1]` (1 = unfiltered voltage).
    pub alpha: f64,
    /// Enter energy-saving mode when the filtered voltage falls to or
    /// below this, volts.
    pub low_v: f64,
    /// Return to high-performance mode when the filtered voltage rises
    /// to or above this, volts (must exceed `low_v`; the gap is the
    /// hysteresis band that prevents mode flapping).
    pub high_v: f64,
    /// Degree cap while in energy-saving mode.
    pub low_degree: u32,
    /// Nominal degree in high-performance mode (candidates pass
    /// unthrottled then, exactly like IPEX's high-performance mode).
    pub initial_degree: u32,
}

impl HysteresisConfig {
    /// Defaults matched to the paper's operating point: 1/8 smoothing,
    /// a 3.26–3.32 V band inside IPEX's threshold range, degree 2→0 —
    /// the classic two-point controller gates prefetching *off* below
    /// the band rather than merely reducing its depth.
    pub fn paper_default() -> HysteresisConfig {
        HysteresisConfig {
            alpha: 0.125,
            low_v: 3.26,
            high_v: 3.32,
            low_degree: 0,
            initial_degree: 2,
        }
    }

    /// Checks the configuration for consistency.
    ///
    /// # Errors
    ///
    /// Describes the first inconsistent field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(format!("EWMA alpha {} outside (0, 1]", self.alpha));
        }
        // `partial_cmp`, not `<`: a NaN bound must be rejected too.
        if self.low_v.partial_cmp(&self.high_v) != Some(std::cmp::Ordering::Less) {
            return Err(format!(
                "hysteresis band is inverted ({} >= {})",
                self.low_v, self.high_v
            ));
        }
        if !(1..=7).contains(&self.initial_degree) {
            return Err(format!(
                "initial degree {} outside the 3-bit range 1-7",
                self.initial_degree
            ));
        }
        if self.low_degree >= self.initial_degree {
            return Err(format!(
                "low degree {} must be below the initial degree {}",
                self.low_degree, self.initial_degree
            ));
        }
        Ok(())
    }
}

/// Complete serializable state of a [`HysteresisController`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HysteresisControllerState {
    /// Configuration the controller was built with.
    pub cfg: HysteresisConfig,
    /// Filtered voltage, `None` until the first observation of the
    /// current power cycle.
    pub ewma: Option<f64>,
    /// Operating mode.
    pub mode: Mode,
    /// Counters at the time of the export.
    pub stats: PolicyStats,
}

/// EWMA-smoothed two-point hysteresis throttling: a single low/high
/// voltage band on the *filtered* capacitor voltage switches between an
/// unthrottled high-performance mode and a fixed low degree.
///
/// The EWMA accumulator is volatile (an analog sample-and-filter chain
/// loses its charge), so every power cycle starts unfiltered. Because
/// the decision depends on the running average, *every* voltage
/// observation matters: [`ThrottlePolicy::batched_observation_safe`] is
/// `false` and the simulator takes the exact per-instruction path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HysteresisController {
    cfg: HysteresisConfig,
    ewma: Option<f64>,
    mode: Mode,
    stats: PolicyStats,
}

impl HysteresisController {
    /// Creates a controller in high-performance mode with an empty
    /// filter.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`HysteresisConfig::validate`]).
    pub fn new(cfg: HysteresisConfig) -> HysteresisController {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        HysteresisController {
            cfg,
            ewma: None,
            mode: Mode::HighPerformance,
            stats: PolicyStats::default(),
        }
    }

    /// The configuration the controller was built with.
    pub fn config(&self) -> &HysteresisConfig {
        &self.cfg
    }

    /// The filtered voltage, `None` before the first observation of the
    /// current power cycle.
    pub fn filtered_voltage(&self) -> Option<f64> {
        self.ewma
    }

    /// The current operating mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }
}

impl ThrottlePolicy for HysteresisController {
    fn kind_name(&self) -> &'static str {
        "hysteresis"
    }

    fn observe_voltage(&mut self, voltage: f64) -> Option<Vec<u32>> {
        let e = match self.ewma {
            None => voltage,
            Some(e) => e + self.cfg.alpha * (voltage - e),
        };
        self.ewma = Some(e);
        match self.mode {
            Mode::HighPerformance if e <= self.cfg.low_v => {
                self.mode = Mode::EnergySaving;
                self.stats.saving_mode_entries += 1;
            }
            Mode::EnergySaving if e >= self.cfg.high_v => {
                self.mode = Mode::HighPerformance;
            }
            _ => {}
        }
        None
    }

    fn filter(&mut self, candidates: &mut Vec<u32>) -> usize {
        let total = candidates.len();
        if total == 0 {
            return 0;
        }
        let keep = match self.mode {
            Mode::HighPerformance => total,
            Mode::EnergySaving => total.min(self.cfg.low_degree as usize),
        };
        candidates.truncate(keep);
        self.stats.issued += keep as u64;
        self.stats.throttled += (total - keep) as u64;
        keep
    }

    fn on_power_failure(&mut self) {
        // The filter chain is analog/volatile: nothing survives.
        self.ewma = None;
    }

    fn on_reboot(&mut self) {
        self.stats.power_cycles += 1;
        self.ewma = None;
        self.mode = Mode::HighPerformance;
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }

    fn current_degree(&self) -> u32 {
        match self.mode {
            Mode::HighPerformance => self.cfg.initial_degree,
            Mode::EnergySaving => self.cfg.low_degree,
        }
    }
}

impl Persist for HysteresisController {
    type State = HysteresisControllerState;

    fn export_state(&self) -> HysteresisControllerState {
        HysteresisControllerState {
            cfg: self.cfg,
            ewma: self.ewma,
            mode: self.mode,
            stats: self.stats,
        }
    }

    fn import_state(&mut self, state: &HysteresisControllerState) -> Result<(), String> {
        state.cfg.validate()?;
        same_cfg(&state.cfg, &self.cfg)?;
        self.ewma = state.ewma;
        self.mode = state.mode;
        self.stats = state.stats;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Confidence-weighted predictive policy
// ---------------------------------------------------------------------

/// Voltage-quantization bins for the predictive policy's context.
pub const PREDICTIVE_VOLTAGE_BINS: usize = 8;
/// Outage-interval classes (logarithmic) the predictive policy learns.
pub const PREDICTIVE_INTERVAL_CLASSES: usize = 8;
/// Contexts = ordered pairs of consecutive sampled voltage bins.
pub const PREDICTIVE_CONTEXTS: usize = PREDICTIVE_VOLTAGE_BINS * PREDICTIVE_VOLTAGE_BINS;
/// NVFF bits of a [`PredictiveController`]: the full transition table at
/// 8 saturating bits per counter. An honest order of magnitude above
/// IPEX's 64 bits — the cost of carrying learned history across outages.
pub const PREDICTIVE_NVFF_BITS: u32 =
    (PREDICTIVE_CONTEXTS * PREDICTIVE_INTERVAL_CLASSES * 8) as u32;

/// Configuration of a [`PredictiveController`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictiveConfig {
    /// Bottom of the quantized voltage range, volts (lower readings
    /// saturate into bin 0).
    pub v_floor: f64,
    /// Top of the quantized voltage range, volts (higher readings
    /// saturate into the last bin).
    pub v_ceil: f64,
    /// Observations between voltage samples / degree decisions. The
    /// policy is deliberately coarse: it reacts on the scale of outage
    /// intervals, not instructions.
    pub sample_period: u32,
    /// Minimum fraction of a context's evidence the winning interval
    /// class must hold before the prediction is trusted. Below the
    /// floor the policy runs unthrottled — a wrong confident guess
    /// costs more than no guess.
    pub confidence_floor: f64,
    /// Minimum observations in a context before any prediction is made.
    pub min_evidence: u32,
    /// Nominal (unthrottled) prefetch degree, the analog of IPEX's
    /// `Ripd`.
    pub initial_degree: u32,
    /// When a context's evidence total reaches this cap, all its
    /// counters halve before the new outage is recorded — exponential
    /// temporal weighting that lets the tables track regime changes in
    /// the harvested supply. At most 255 so each counter is honestly
    /// 8 bits of NVFF.
    pub count_cap: u32,
}

impl PredictiveConfig {
    /// Defaults matched to the paper's operating point: the 3.0–3.4 V
    /// band IPEX operates in, a 64-observation sample period, a 50 %
    /// confidence floor over at least 6 recorded outages.
    pub fn paper_default() -> PredictiveConfig {
        PredictiveConfig {
            v_floor: 3.0,
            v_ceil: 3.4,
            sample_period: 64,
            confidence_floor: 0.5,
            min_evidence: 6,
            initial_degree: 2,
            count_cap: 240,
        }
    }

    /// Checks the configuration for consistency.
    ///
    /// # Errors
    ///
    /// Describes the first inconsistent field.
    pub fn validate(&self) -> Result<(), String> {
        // `partial_cmp`, not `<`: a NaN bound must be rejected too.
        if self.v_floor.partial_cmp(&self.v_ceil) != Some(std::cmp::Ordering::Less) {
            return Err(format!(
                "voltage range is inverted ({} >= {})",
                self.v_floor, self.v_ceil
            ));
        }
        if self.sample_period == 0 {
            return Err("sample period must be at least 1".to_string());
        }
        if !(self.confidence_floor > 0.0 && self.confidence_floor <= 1.0) {
            return Err(format!(
                "confidence floor {} outside (0, 1]",
                self.confidence_floor
            ));
        }
        if self.min_evidence == 0 {
            return Err("min evidence must be at least 1".to_string());
        }
        if !(1..=7).contains(&self.initial_degree) {
            return Err(format!(
                "initial degree {} outside the 3-bit range 1-7",
                self.initial_degree
            ));
        }
        if !(2..=255).contains(&self.count_cap) {
            return Err(format!(
                "count cap {} outside 2-255 (counters are 8-bit NVFF)",
                self.count_cap
            ));
        }
        Ok(())
    }
}

/// Complete serializable state of a [`PredictiveController`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictiveControllerState {
    /// Configuration the controller was built with.
    pub cfg: PredictiveConfig,
    /// Flattened transition table, `context * classes + class`.
    pub table: Vec<u32>,
    /// Voltage bin of the previous sample, if any this power cycle.
    pub prev_level: Option<u8>,
    /// Active context (`prev_bin * bins + cur_bin`), if two samples have
    /// been taken this power cycle.
    pub context: Option<u8>,
    /// Observations since the last sample point.
    pub obs_count: u32,
    /// Observations since the current power cycle began.
    pub obs_since_reboot: u64,
    /// Current degree decision.
    pub degree: u32,
    /// Operating mode implied by the degree.
    pub mode: Mode,
    /// Counters at the time of the export.
    pub stats: PolicyStats,
    /// Transition-table updates so far (see
    /// [`ThrottlePolicy::adaptations`]).
    pub adaptations: u64,
}

/// Confidence-weighted predictive throttling.
///
/// Instead of reacting to the instantaneous voltage (IPEX) or a filtered
/// one (hysteresis), this policy *predicts how long the current power
/// cycle will last* and throttles only once the predicted outage is
/// near:
///
/// * Every `sample_period` observations the voltage is quantized into
///   one of [`PREDICTIVE_VOLTAGE_BINS`] bins; the ordered pair of the
///   last two samples is the current **context** (falling fast, hovering
///   low, …).
/// * At each power failure the elapsed power-cycle length (in
///   observations, log-bucketed into [`PREDICTIVE_INTERVAL_CLASSES`]
///   classes) is recorded in the active context's row of a transition
///   table. Rows halve when full (**temporal weighting**), so recent
///   supply behaviour dominates.
/// * At each sample point the active context's row predicts the likely
///   interval class. If the winning class holds at least
///   `confidence_floor` of the row's evidence (and the row has
///   `min_evidence` at all), the degree decays as the elapsed interval
///   approaches the prediction: full until one class away, halved one
///   class away, quartered at or past it. Below the floor the policy
///   runs unthrottled — a **confidence floor** keeps a cold or
///   uncertain table from costing performance.
///
/// The table is NVFF-resident ([`PREDICTIVE_NVFF_BITS`] charged to every
/// backup); the sampled history and interval counter are volatile.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictiveController {
    cfg: PredictiveConfig,
    /// Flattened `PREDICTIVE_CONTEXTS x PREDICTIVE_INTERVAL_CLASSES`
    /// counter table (NVFF).
    table: Vec<u32>,
    prev_level: Option<u8>,
    context: Option<u8>,
    obs_count: u32,
    obs_since_reboot: u64,
    degree: u32,
    mode: Mode,
    stats: PolicyStats,
    adaptations: u64,
}

impl PredictiveController {
    /// Creates a controller with an empty (all-zero) transition table.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`PredictiveConfig::validate`]).
    pub fn new(cfg: PredictiveConfig) -> PredictiveController {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        PredictiveController {
            table: vec![0; PREDICTIVE_CONTEXTS * PREDICTIVE_INTERVAL_CLASSES],
            prev_level: None,
            context: None,
            obs_count: 0,
            obs_since_reboot: 0,
            degree: cfg.initial_degree,
            mode: Mode::HighPerformance,
            stats: PolicyStats::default(),
            adaptations: 0,
            cfg,
        }
    }

    /// The configuration the controller was built with.
    pub fn config(&self) -> &PredictiveConfig {
        &self.cfg
    }

    /// The current operating mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Read-only view of the flattened transition table
    /// (`context * classes + class`).
    pub fn table(&self) -> &[u32] {
        &self.table
    }

    /// Quantizes a voltage into its bin, saturating at the range ends.
    fn quantize(&self, voltage: f64) -> u8 {
        let span = self.cfg.v_ceil - self.cfg.v_floor;
        let frac = (voltage - self.cfg.v_floor) / span;
        let bin = (frac * PREDICTIVE_VOLTAGE_BINS as f64).floor();
        bin.clamp(0.0, (PREDICTIVE_VOLTAGE_BINS - 1) as f64) as u8
    }

    /// Log-buckets an observation count into its interval class.
    fn class_of(n: u64) -> usize {
        (((n / 256) + 1).ilog2() as usize).min(PREDICTIVE_INTERVAL_CLASSES - 1)
    }

    /// Applies a new degree decision, tracking mode transitions.
    fn set_degree(&mut self, degree: u32) {
        let new_mode = if degree >= self.cfg.initial_degree {
            Mode::HighPerformance
        } else {
            Mode::EnergySaving
        };
        if new_mode == Mode::EnergySaving && self.mode == Mode::HighPerformance {
            self.stats.saving_mode_entries += 1;
        }
        self.degree = degree;
        self.mode = new_mode;
    }

    /// Re-evaluates the degree from the active context's prediction.
    fn decide(&mut self) {
        let full = self.cfg.initial_degree;
        let Some(ctx) = self.context else {
            self.set_degree(full);
            return;
        };
        let row = &self.table[ctx as usize * PREDICTIVE_INTERVAL_CLASSES..]
            [..PREDICTIVE_INTERVAL_CLASSES];
        let total: u32 = row.iter().sum();
        if total < self.cfg.min_evidence {
            self.set_degree(full);
            return;
        }
        // Ties break toward the shorter interval: when in doubt, assume
        // the outage is sooner.
        let (best_class, best) = row
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .expect("row is non-empty");
        if (best as f64) < self.cfg.confidence_floor * total as f64 {
            self.set_degree(full);
            return;
        }
        let elapsed = Self::class_of(self.obs_since_reboot);
        let shift = if elapsed >= best_class {
            2
        } else if elapsed + 1 == best_class {
            1
        } else {
            0
        };
        self.set_degree(full >> shift);
    }
}

impl ThrottlePolicy for PredictiveController {
    fn kind_name(&self) -> &'static str {
        "predictive"
    }

    fn observe_voltage(&mut self, voltage: f64) -> Option<Vec<u32>> {
        self.obs_since_reboot += 1;
        self.obs_count += 1;
        if self.obs_count >= self.cfg.sample_period {
            self.obs_count = 0;
            let level = self.quantize(voltage);
            if let Some(prev) = self.prev_level {
                self.context = Some(prev * PREDICTIVE_VOLTAGE_BINS as u8 + level);
            }
            self.prev_level = Some(level);
            self.decide();
        }
        None
    }

    fn filter(&mut self, candidates: &mut Vec<u32>) -> usize {
        let total = candidates.len();
        if total == 0 {
            return 0;
        }
        let keep = match self.mode {
            Mode::HighPerformance => total,
            Mode::EnergySaving => total.min(self.degree as usize),
        };
        candidates.truncate(keep);
        self.stats.issued += keep as u64;
        self.stats.throttled += (total - keep) as u64;
        keep
    }

    fn on_power_failure(&mut self) {
        // Record the outage in the active context's row (the table is
        // NVFF; this write happens while still powered, like IPEX's
        // JIT checkpoint of Rthrottled/Rtotal).
        if let Some(ctx) = self.context {
            let class = Self::class_of(self.obs_since_reboot);
            let row = &mut self.table[ctx as usize * PREDICTIVE_INTERVAL_CLASSES..]
                [..PREDICTIVE_INTERVAL_CLASSES];
            let total: u32 = row.iter().sum();
            if total >= self.cfg.count_cap {
                for c in row.iter_mut() {
                    *c /= 2;
                }
            }
            row[class] += 1;
            self.adaptations += 1;
        }
        // Sampled history and the interval counter are volatile.
        self.prev_level = None;
        self.context = None;
        self.obs_count = 0;
    }

    fn on_reboot(&mut self) {
        self.stats.power_cycles += 1;
        self.obs_since_reboot = 0;
        self.degree = self.cfg.initial_degree;
        self.mode = Mode::HighPerformance;
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }

    fn current_degree(&self) -> u32 {
        self.degree
    }

    fn nvff_bits(&self) -> u32 {
        PREDICTIVE_NVFF_BITS
    }

    fn adaptations(&self) -> u64 {
        self.adaptations
    }
}

impl Persist for PredictiveController {
    type State = PredictiveControllerState;

    fn export_state(&self) -> PredictiveControllerState {
        PredictiveControllerState {
            cfg: self.cfg,
            table: self.table.clone(),
            prev_level: self.prev_level,
            context: self.context,
            obs_count: self.obs_count,
            obs_since_reboot: self.obs_since_reboot,
            degree: self.degree,
            mode: self.mode,
            stats: self.stats,
            adaptations: self.adaptations,
        }
    }

    /// Also rejects a table of another size, and a voltage bin or
    /// context outside the table (both index it).
    fn import_state(&mut self, state: &PredictiveControllerState) -> Result<(), String> {
        state.cfg.validate()?;
        same_cfg(&state.cfg, &self.cfg)?;
        if state.table.len() != self.table.len() {
            return Err(format!(
                "predictive table has {} entries, expected {}",
                state.table.len(),
                self.table.len()
            ));
        }
        if state
            .prev_level
            .is_some_and(|l| l as usize >= PREDICTIVE_VOLTAGE_BINS)
            || state
                .context
                .is_some_and(|c| c as usize >= PREDICTIVE_CONTEXTS)
        {
            return Err(format!(
                "predictive voltage bin {:?} or context {:?} out of range",
                state.prev_level, state.context
            ));
        }
        self.table.copy_from_slice(&state.table);
        self.prev_level = state.prev_level;
        self.context = state.context;
        self.obs_count = state.obs_count;
        self.obs_since_reboot = state.obs_since_reboot;
        self.degree = state.degree;
        self.mode = state.mode;
        self.stats = state.stats;
        self.adaptations = state.adaptations;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// PolicyConfig — the serializable choice of policy
// ---------------------------------------------------------------------

/// The serializable choice of a throttling policy and its parameters,
/// embedded in `ehs-sim`'s `PrefetchMode::Policy`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum PolicyConfig {
    /// The paper's voltage-threshold ladder.
    Ipex(IpexConfig),
    /// Confidence-weighted outage prediction.
    Predictive(PredictiveConfig),
    /// EWMA-smoothed two-point hysteresis.
    Hysteresis(HysteresisConfig),
    /// Fixed degree, no voltage feedback.
    StaticDegree(StaticDegreeConfig),
}

impl PolicyConfig {
    /// Stable kebab-case name of the configured policy.
    pub fn kind_name(&self) -> &'static str {
        match self {
            PolicyConfig::Ipex(_) => "ipex",
            PolicyConfig::Predictive(_) => "predictive",
            PolicyConfig::Hysteresis(_) => "hysteresis",
            PolicyConfig::StaticDegree(_) => "static-degree",
        }
    }

    /// The policy's nominal (unthrottled) prefetch degree — what IPEX
    /// calls `Ripd`. Invariant checkers use this as the cap that
    /// throttled issue bursts must respect.
    pub fn initial_degree(&self) -> u32 {
        match self {
            PolicyConfig::Ipex(c) => c.initial_degree,
            PolicyConfig::Predictive(c) => c.initial_degree,
            PolicyConfig::Hysteresis(c) => c.initial_degree,
            PolicyConfig::StaticDegree(c) => c.degree,
        }
    }

    /// Checks the configuration for consistency.
    ///
    /// # Errors
    ///
    /// Describes the first inconsistent field.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            PolicyConfig::Ipex(c) => c.validate(),
            PolicyConfig::Predictive(c) => c.validate(),
            PolicyConfig::Hysteresis(c) => c.validate(),
            PolicyConfig::StaticDegree(c) => c.validate(),
        }
    }

    /// Builds the configured policy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (validate first when
    /// handling untrusted input).
    pub fn build(&self) -> AnyPolicy {
        match self {
            PolicyConfig::Ipex(c) => AnyPolicy::ipex(*c),
            PolicyConfig::Predictive(c) => {
                AnyPolicy::Predictive(Box::new(PredictiveController::new(*c)))
            }
            PolicyConfig::Hysteresis(c) => {
                AnyPolicy::Hysteresis(Box::new(HysteresisController::new(*c)))
            }
            PolicyConfig::StaticDegree(c) => AnyPolicy::StaticDegree(StaticController::new(*c)),
        }
    }
}

// ---------------------------------------------------------------------
// AnyPolicy — the closed enum the simulator embeds
// ---------------------------------------------------------------------

/// Serializable state of an [`AnyPolicy`], for snapshot/resume.
///
/// The `passthrough` and `ipex` variants keep the exact wire names of
/// the two-variant throttle state that predates the policy layer, so
/// pre-existing snapshots parse unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum PolicyState {
    /// Stateless passthrough.
    Passthrough,
    /// Full IPEX controller state (boxed: it dwarfs the small variants).
    Ipex(Box<IpexControllerState>),
    /// Full predictive-controller state (boxed: it carries the table).
    Predictive(Box<PredictiveControllerState>),
    /// Full hysteresis-controller state.
    Hysteresis(Box<HysteresisControllerState>),
    /// Full static-controller state.
    StaticDegree(StaticControllerState),
}

impl PolicyState {
    /// Stable kebab-case name of the policy this state belongs to
    /// (matches [`AnyPolicy::kind_name`]).
    pub fn kind_name(&self) -> &'static str {
        match self {
            PolicyState::Passthrough => "passthrough",
            PolicyState::Ipex(_) => "ipex",
            PolicyState::Predictive(_) => "predictive",
            PolicyState::Hysteresis(_) => "hysteresis",
            PolicyState::StaticDegree(_) => "static-degree",
        }
    }
}

/// Any throttling policy (or none), dispatched by direct match — the
/// value the simulator embeds per memory path. See the module docs for
/// the policy roster and the enum-over-dyn rationale.
#[derive(Debug, Clone)]
pub enum AnyPolicy {
    /// Conventional prefetching: candidates pass through untouched.
    Passthrough,
    /// IPEX-controlled prefetching (the paper's policy).
    Ipex(Box<IpexController>),
    /// Confidence-weighted outage prediction.
    Predictive(Box<PredictiveController>),
    /// EWMA-smoothed two-point hysteresis.
    Hysteresis(Box<HysteresisController>),
    /// Fixed degree, no voltage feedback.
    StaticDegree(StaticController),
}

macro_rules! delegate {
    ($self:expr, $p:ident => $body:expr, $passthrough:expr) => {
        match $self {
            AnyPolicy::Passthrough => $passthrough,
            AnyPolicy::Ipex($p) => $body,
            AnyPolicy::Predictive($p) => $body,
            AnyPolicy::Hysteresis($p) => $body,
            AnyPolicy::StaticDegree($p) => $body,
        }
    };
}

impl AnyPolicy {
    /// Builds an IPEX policy from its configuration.
    pub fn ipex(cfg: IpexConfig) -> AnyPolicy {
        AnyPolicy::Ipex(Box::new(IpexController::new(cfg)))
    }

    /// Stable kebab-case policy name (`"passthrough"`, `"ipex"`,
    /// `"predictive"`, `"hysteresis"`, `"static-degree"`).
    pub fn kind_name(&self) -> &'static str {
        delegate!(self, p => p.kind_name(), "passthrough")
    }

    /// Voltage update; passthrough ignores it. See
    /// [`ThrottlePolicy::observe_voltage`].
    pub fn observe_voltage(&mut self, voltage: f64) -> Option<Vec<u32>> {
        delegate!(self, p => p.observe_voltage(voltage), None)
    }

    /// Candidate filtering; passthrough keeps everything. See
    /// [`ThrottlePolicy::filter`].
    #[inline]
    pub fn filter(&mut self, candidates: &mut Vec<u32>) -> usize {
        delegate!(self, p => p.filter(candidates), candidates.len())
    }

    /// Power-failure notification.
    pub fn on_power_failure(&mut self) {
        delegate!(self, p => p.on_power_failure(), ())
    }

    /// Reboot notification.
    pub fn on_reboot(&mut self) {
        delegate!(self, p => p.on_reboot(), ())
    }

    /// Policy statistics, `None` for passthrough.
    pub fn stats(&self) -> Option<PolicyStats> {
        delegate!(self, p => Some(p.stats()), None)
    }

    /// Current effective prefetch degree, `None` for passthrough (no
    /// cap). Lets an observer (e.g. the simulator's tracer) detect
    /// degree changes around [`AnyPolicy::observe_voltage`].
    pub fn current_degree(&self) -> Option<u32> {
        delegate!(self, p => Some(p.current_degree()), None)
    }

    /// The voltage thresholds the policy reacts to, highest first
    /// (empty for policies without fixed thresholds). Only meaningful
    /// together with [`AnyPolicy::batched_observation_safe`].
    pub fn thresholds(&self) -> &[f64] {
        delegate!(self, p => p.thresholds(), &[])
    }

    /// NVFF bits this policy JIT-checkpoints per cache; the simulator
    /// charges them to every backup and restore.
    pub fn nvff_bits(&self) -> u32 {
        delegate!(self, p => p.nvff_bits(), 0)
    }

    /// `true` when `observe_voltage` is a no-op while the voltage stays
    /// strictly inside one inter-threshold band, allowing the simulator
    /// to batch observations over a safe energy window. See
    /// [`ThrottlePolicy::batched_observation_safe`].
    pub fn batched_observation_safe(&self) -> bool {
        delegate!(self, p => p.batched_observation_safe(), true)
    }

    /// Monotone count of self-adaptation events. See
    /// [`ThrottlePolicy::adaptations`].
    pub fn adaptations(&self) -> u64 {
        delegate!(self, p => p.adaptations(), 0)
    }
}

impl Persist for AnyPolicy {
    type State = PolicyState;

    fn export_state(&self) -> PolicyState {
        match self {
            AnyPolicy::Passthrough => PolicyState::Passthrough,
            AnyPolicy::Ipex(c) => PolicyState::Ipex(Box::new(c.export_state())),
            AnyPolicy::Predictive(c) => PolicyState::Predictive(Box::new(c.export_state())),
            AnyPolicy::Hysteresis(c) => PolicyState::Hysteresis(Box::new(c.export_state())),
            AnyPolicy::StaticDegree(c) => PolicyState::StaticDegree(c.export_state()),
        }
    }

    /// Rejects a state of another policy kind, and propagates the
    /// controller's error for a state whose configuration is invalid or
    /// differs from this controller's.
    fn import_state(&mut self, state: &PolicyState) -> Result<(), String> {
        match (self, state) {
            (AnyPolicy::Passthrough, PolicyState::Passthrough) => Ok(()),
            (AnyPolicy::Ipex(c), PolicyState::Ipex(s)) => c.import_state(s),
            (AnyPolicy::Predictive(c), PolicyState::Predictive(s)) => c.import_state(s),
            (AnyPolicy::Hysteresis(c), PolicyState::Hysteresis(s)) => c.import_state(s),
            (AnyPolicy::StaticDegree(c), PolicyState::StaticDegree(s)) => c.import_state(s),
            (live, _) => Err(format!(
                "state is a '{}' policy but the config builds '{}'",
                state.kind_name(),
                live.kind_name()
            )),
        }
    }
}

/// The restore rule every controller shares: no controller mutates its
/// own configuration, so a saved state must carry exactly the one the
/// configured controller was built with.
pub(crate) fn same_cfg<C: PartialEq + std::fmt::Debug>(saved: &C, live: &C) -> Result<(), String> {
    if saved == live {
        Ok(())
    } else {
        Err(format!(
            "state config {saved:?} differs from the configured {live:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // -------------------- AnyPolicy dispatch --------------------

    #[test]
    fn passthrough_keeps_everything() {
        let mut t = AnyPolicy::Passthrough;
        assert_eq!(t.kind_name(), "passthrough");
        let mut cand = vec![1, 2, 3, 4, 5];
        assert_eq!(t.filter(&mut cand), 5);
        assert_eq!(cand.len(), 5);
        assert!(t.observe_voltage(3.0).is_none());
        assert!(t.stats().is_none());
        assert_eq!(t.nvff_bits(), 0);
        assert!(t.batched_observation_safe());
        t.on_power_failure();
        t.on_reboot();
    }

    #[test]
    fn ipex_policy_delegates() {
        let mut t = AnyPolicy::ipex(IpexConfig::paper_default());
        assert_eq!(t.kind_name(), "ipex");
        assert_eq!(t.nvff_bits(), IPEX_NVFF_BITS);
        assert!(t.batched_observation_safe());
        t.observe_voltage(3.2);
        let mut cand = vec![1, 2];
        assert_eq!(t.filter(&mut cand), 0);
        assert_eq!(t.stats().unwrap().throttled, 2);
    }

    /// One policy of every kind, as the configuration builds it.
    fn every_policy() -> [AnyPolicy; 5] {
        [
            AnyPolicy::Passthrough,
            AnyPolicy::ipex(IpexConfig::paper_default()),
            PolicyConfig::Predictive(PredictiveConfig::paper_default()).build(),
            PolicyConfig::Hysteresis(HysteresisConfig::paper_default()).build(),
            PolicyConfig::StaticDegree(StaticDegreeConfig::conservative()).build(),
        ]
    }

    #[test]
    fn policy_state_round_trips_every_kind() {
        for (mut p, mut restored) in every_policy().into_iter().zip(every_policy()) {
            // Exercise it a little so the state is non-trivial.
            p.observe_voltage(3.21);
            let mut cand = vec![0x10, 0x20, 0x30];
            p.filter(&mut cand);
            let state = p.export_state();
            assert_eq!(state.kind_name(), p.kind_name());
            let json = serde_json::to_string(&state).unwrap();
            let back: PolicyState = serde_json::from_str(&json).unwrap();
            restored.import_state(&back).unwrap();
            assert_eq!(restored.export_state(), state, "{}", p.kind_name());
        }
    }

    #[test]
    fn import_rejects_another_kind() {
        for (i, mut p) in every_policy().into_iter().enumerate() {
            for (j, other) in every_policy().iter().enumerate() {
                let result = p.import_state(&other.export_state());
                assert_eq!(
                    result.is_ok(),
                    i == j,
                    "{} <- {}",
                    p.kind_name(),
                    other.kind_name()
                );
                if let Err(e) = result {
                    assert!(
                        e.contains(p.kind_name()) && e.contains(other.kind_name()),
                        "{e}"
                    );
                }
            }
        }
    }

    /// A valid state whose configuration differs from the configured
    /// controller's is rejected: the configuration is authoritative.
    #[test]
    fn import_rejects_another_config() {
        let others = [
            AnyPolicy::ipex(IpexConfig {
                max_top_threshold_v: 3.39,
                ..IpexConfig::paper_default()
            }),
            PolicyConfig::Predictive(PredictiveConfig {
                min_evidence: 7,
                ..PredictiveConfig::paper_default()
            })
            .build(),
            PolicyConfig::Hysteresis(HysteresisConfig {
                alpha: 0.25,
                ..HysteresisConfig::paper_default()
            })
            .build(),
            PolicyConfig::StaticDegree(StaticDegreeConfig::aggressive()).build(),
        ];
        for other in others {
            let mut p = every_policy()
                .into_iter()
                .find(|p| p.kind_name() == other.kind_name())
                .unwrap();
            let err = p.import_state(&other.export_state()).unwrap_err();
            assert!(err.contains("differs from the configured"), "{err}");
        }
    }

    /// Predictive state indexes its table with the saved voltage bin and
    /// context; an out-of-range one is rejected, not carried into a run.
    #[test]
    fn predictive_import_rejects_out_of_range_indices() {
        let fresh = || PredictiveController::new(PredictiveConfig::paper_default());
        let good = fresh().export_state();
        for bad in [
            PredictiveControllerState {
                prev_level: Some(PREDICTIVE_VOLTAGE_BINS as u8),
                ..good.clone()
            },
            PredictiveControllerState {
                context: Some(PREDICTIVE_CONTEXTS as u8),
                ..good.clone()
            },
        ] {
            let err = fresh().import_state(&bad).unwrap_err();
            assert!(err.contains("out of range"), "{err}");
        }
        fresh().import_state(&good).unwrap();
    }

    #[test]
    fn legacy_wire_names_preserved() {
        // Pre-redesign snapshots carry exactly these two forms.
        assert_eq!(
            serde_json::to_string(&PolicyState::Passthrough).unwrap(),
            "\"passthrough\""
        );
        let ipex = AnyPolicy::ipex(IpexConfig::paper_default()).export_state();
        assert!(serde_json::to_string(&ipex)
            .unwrap()
            .starts_with("{\"ipex\""));
    }

    // -------------------- static --------------------

    #[test]
    fn static_policy_always_truncates() {
        let mut c = StaticController::new(StaticDegreeConfig::conservative());
        assert_eq!(c.current_degree(), 1);
        assert!(c.observe_voltage(3.4).is_none());
        let mut cand = vec![0xa0, 0xb0, 0xc0];
        assert_eq!(c.filter(&mut cand), 1);
        assert_eq!(cand, vec![0xa0]);
        // Voltage never matters.
        c.observe_voltage(0.1);
        let mut cand = vec![0xa0, 0xb0];
        assert_eq!(c.filter(&mut cand), 1);
        assert_eq!(c.stats().issued, 2);
        assert_eq!(c.stats().throttled, 3);
        c.on_power_failure();
        c.on_reboot();
        assert_eq!(c.stats().power_cycles, 1);
        assert_eq!(c.adaptations(), 0);
    }

    #[test]
    fn static_config_validated() {
        assert!(StaticDegreeConfig { degree: 0 }.validate().is_err());
        assert!(StaticDegreeConfig { degree: 8 }.validate().is_err());
        assert!(StaticDegreeConfig::aggressive().validate().is_ok());
    }

    // -------------------- hysteresis --------------------

    #[test]
    fn hysteresis_band_prevents_flapping() {
        let mut c = HysteresisController::new(HysteresisConfig {
            alpha: 1.0, // unfiltered, to test the band alone
            ..HysteresisConfig::paper_default()
        });
        assert_eq!(c.current_degree(), 2);
        c.observe_voltage(3.25); // <= low_v: enter saving
        assert_eq!(c.mode(), Mode::EnergySaving);
        assert_eq!(c.current_degree(), 0);
        c.observe_voltage(3.29); // inside the band: stays saving
        assert_eq!(c.mode(), Mode::EnergySaving);
        c.observe_voltage(3.33); // >= high_v: back to HP
        assert_eq!(c.mode(), Mode::HighPerformance);
        assert_eq!(c.current_degree(), 2);
        assert_eq!(c.stats().saving_mode_entries, 1);
    }

    #[test]
    fn ewma_smooths_single_sample_brownout() {
        let mut c = HysteresisController::new(HysteresisConfig::paper_default());
        for _ in 0..50 {
            c.observe_voltage(3.35);
        }
        // One 0.45 V dip: alpha = 1/8 moves the filter only ~0.06 V,
        // while an unfiltered controller would have switched instantly.
        c.observe_voltage(2.9);
        assert_eq!(c.mode(), Mode::HighPerformance, "filter absorbed the dip");
        // A sustained sag does switch.
        for _ in 0..50 {
            c.observe_voltage(3.1);
        }
        assert_eq!(c.mode(), Mode::EnergySaving);
    }

    #[test]
    fn hysteresis_filter_state_is_volatile() {
        let mut c = HysteresisController::new(HysteresisConfig::paper_default());
        for _ in 0..50 {
            c.observe_voltage(3.1);
        }
        assert_eq!(c.mode(), Mode::EnergySaving);
        c.on_power_failure();
        assert!(c.filtered_voltage().is_none());
        c.on_reboot();
        assert_eq!(c.mode(), Mode::HighPerformance);
        assert_eq!(c.stats().power_cycles, 1);
        // Fresh cycle reseeds the filter from the first sample.
        c.observe_voltage(3.4);
        assert_eq!(c.filtered_voltage(), Some(3.4));
    }

    #[test]
    fn hysteresis_filter_truncates_only_in_saving_mode() {
        let mut c = HysteresisController::new(HysteresisConfig {
            alpha: 1.0,
            low_degree: 1,
            ..HysteresisConfig::paper_default()
        });
        let mut cand = vec![1, 2, 3, 4];
        assert_eq!(c.filter(&mut cand), 4, "HP passes everything");
        c.observe_voltage(3.2);
        let mut cand = vec![1, 2, 3, 4];
        assert_eq!(c.filter(&mut cand), 1);
        assert_eq!(cand, vec![1]);
        // The paper default gates prefetching off entirely in saving
        // mode.
        let mut d = HysteresisController::new(HysteresisConfig {
            alpha: 1.0,
            ..HysteresisConfig::paper_default()
        });
        d.observe_voltage(3.2);
        let mut cand = vec![1, 2];
        assert_eq!(d.filter(&mut cand), 0);
        assert!(cand.is_empty());
        assert_eq!(d.stats().throttled, 2);
    }

    #[test]
    fn hysteresis_config_validated() {
        let ok = HysteresisConfig::paper_default();
        assert!(ok.validate().is_ok());
        assert!(HysteresisConfig { alpha: 0.0, ..ok }.validate().is_err());
        assert!(HysteresisConfig {
            low_v: 3.4,
            high_v: 3.3,
            ..ok
        }
        .validate()
        .is_err());
        assert!(HysteresisConfig {
            low_degree: 2,
            initial_degree: 2,
            ..ok
        }
        .validate()
        .is_err());
    }

    // -------------------- predictive --------------------

    /// Drives the controller through one power cycle of `obs`
    /// observations at voltage `v`, then fails and reboots.
    fn predictive_cycle(c: &mut PredictiveController, obs: u32, v: f64) {
        for _ in 0..obs {
            c.observe_voltage(v);
        }
        c.on_power_failure();
        c.on_reboot();
    }

    #[test]
    fn predictive_stays_unthrottled_below_confidence_floor() {
        let mut c = PredictiveController::new(PredictiveConfig::paper_default());
        // Cold table: whole first cycle runs at full degree.
        for _ in 0..10_000 {
            c.observe_voltage(3.2);
            assert_eq!(c.current_degree(), 2);
        }
        assert_eq!(c.mode(), Mode::HighPerformance);
    }

    #[test]
    fn predictive_learns_and_throttles_before_the_outage() {
        let cfg = PredictiveConfig::paper_default();
        let mut c = PredictiveController::new(cfg);
        // Train: constant-voltage cycles of ~4096 observations, so the
        // (same-bin, same-bin) context confidently predicts class
        // class_of(4096) = 4.
        for _ in 0..10 {
            predictive_cycle(&mut c, 4096, 3.2);
        }
        assert!(c.adaptations() >= cfg.min_evidence as u64);
        // Next cycle: early on the prediction is far away -> full
        // degree; late in the cycle the degree decays.
        let mut saw_half = false;
        let mut saw_quarter = false;
        for i in 0..4096u32 {
            c.observe_voltage(3.2);
            match c.current_degree() {
                1 => saw_half = true,
                0 => saw_quarter = true,
                2 => assert!(i < 3000, "still full degree at obs {i}"),
                d => panic!("unexpected degree {d}"),
            }
        }
        assert!(saw_half, "degree halved approaching the predicted outage");
        assert!(saw_quarter, "degree floored at the predicted outage");
    }

    #[test]
    fn predictive_tables_survive_outages_but_history_does_not() {
        let mut c = PredictiveController::new(PredictiveConfig::paper_default());
        for _ in 0..5 {
            predictive_cycle(&mut c, 1000, 3.2);
        }
        let table_after: u32 = c.table().iter().sum();
        assert!(table_after > 0, "outages were recorded");
        // Volatile history gone after the last failure/reboot.
        let st = Persist::export_state(&c);
        assert_eq!(st.prev_level, None);
        assert_eq!(st.context, None);
        assert_eq!(st.obs_since_reboot, 0);
        assert_eq!(st.stats.power_cycles, 5);
    }

    #[test]
    fn predictive_count_cap_ages_the_table() {
        let cfg = PredictiveConfig {
            count_cap: 4,
            ..PredictiveConfig::paper_default()
        };
        let mut c = PredictiveController::new(cfg);
        for _ in 0..100 {
            predictive_cycle(&mut c, 1000, 3.2);
        }
        // Aging keeps every row total at or below the cap.
        for ctx in 0..PREDICTIVE_CONTEXTS {
            let row =
                &c.table()[ctx * PREDICTIVE_INTERVAL_CLASSES..][..PREDICTIVE_INTERVAL_CLASSES];
            let total: u32 = row.iter().sum();
            assert!(total <= cfg.count_cap, "context {ctx} total {total}");
        }
        assert_eq!(c.adaptations(), 100);
    }

    #[test]
    fn predictive_quantization_saturates() {
        let c = PredictiveController::new(PredictiveConfig::paper_default());
        assert_eq!(c.quantize(-5.0), 0);
        assert_eq!(c.quantize(3.0), 0);
        assert_eq!(c.quantize(3.39), 7);
        assert_eq!(c.quantize(99.0), 7);
    }

    #[test]
    fn predictive_interval_classes_are_log_buckets() {
        assert_eq!(PredictiveController::class_of(0), 0);
        assert_eq!(PredictiveController::class_of(255), 0);
        assert_eq!(PredictiveController::class_of(512), 1);
        assert_eq!(PredictiveController::class_of(4096), 4);
        assert_eq!(PredictiveController::class_of(u64::MAX / 2), 7);
    }

    #[test]
    fn predictive_config_validated() {
        let ok = PredictiveConfig::paper_default();
        assert!(ok.validate().is_ok());
        assert!(PredictiveConfig {
            v_floor: 3.4,
            v_ceil: 3.0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(PredictiveConfig {
            sample_period: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(PredictiveConfig {
            count_cap: 256,
            ..ok
        }
        .validate()
        .is_err());
    }

    // -------------------- PolicyConfig --------------------

    #[test]
    fn policy_config_builds_matching_kind() {
        let cases = [
            (PolicyConfig::Ipex(IpexConfig::paper_default()), "ipex", 2),
            (
                PolicyConfig::Predictive(PredictiveConfig::paper_default()),
                "predictive",
                2,
            ),
            (
                PolicyConfig::Hysteresis(HysteresisConfig::paper_default()),
                "hysteresis",
                2,
            ),
            (
                PolicyConfig::StaticDegree(StaticDegreeConfig::conservative()),
                "static-degree",
                1,
            ),
        ];
        for (pc, kind, init) in cases {
            assert!(pc.validate().is_ok());
            assert_eq!(pc.kind_name(), kind);
            assert_eq!(pc.initial_degree(), init);
            let built = pc.build();
            assert_eq!(built.kind_name(), kind);
            assert_eq!(built.current_degree(), Some(init));
        }
    }

    #[test]
    fn policy_config_serializes_kebab_case() {
        let pc = PolicyConfig::StaticDegree(StaticDegreeConfig::conservative());
        let json = serde_json::to_string(&pc).unwrap();
        assert_eq!(json, "{\"static-degree\":{\"degree\":1}}");
        let back: PolicyConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, pc);
        let pc = PolicyConfig::Ipex(IpexConfig::paper_default());
        let json = serde_json::to_string(&pc).unwrap();
        assert!(
            json.starts_with("{\"ipex\":{\"threshold_count\":2,"),
            "{json}"
        );
        let back: PolicyConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, pc);
    }

    #[test]
    fn non_batchable_policies_say_so() {
        let pred = PolicyConfig::Predictive(PredictiveConfig::paper_default()).build();
        let hyst = PolicyConfig::Hysteresis(HysteresisConfig::paper_default()).build();
        let stat = PolicyConfig::StaticDegree(StaticDegreeConfig::conservative()).build();
        assert!(!pred.batched_observation_safe());
        assert!(!hyst.batched_observation_safe());
        assert!(stat.batched_observation_safe());
        assert_eq!(pred.nvff_bits(), PREDICTIVE_NVFF_BITS);
        assert_eq!(hyst.nvff_bits(), 0);
        assert_eq!(stat.nvff_bits(), 0);
    }
}
