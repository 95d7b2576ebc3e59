//! The IPEX controller: voltage-driven prefetch-degree throttling.

use std::collections::VecDeque;

use ehs_mem::Persist;
use serde::{Deserialize, Serialize};

use crate::policy::same_cfg;
use crate::{IpexConfig, IpexRegisters, PolicyStats};

/// The controller's bi-modal operating state (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// Capacitor voltage above all thresholds: the underlying prefetcher
    /// runs unthrottled.
    HighPerformance,
    /// Voltage below at least one threshold: the prefetch degree is
    /// reduced to save energy ahead of the expected outage.
    EnergySaving,
}

/// Complete serializable state of an [`IpexController`] — configuration,
/// adapted threshold ladder, registers, mode and the reissue queue.
/// Produced and consumed through the controller's [`Persist`] impl.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IpexControllerState {
    /// Configuration the controller was built with.
    pub cfg: IpexConfig,
    /// Current (possibly adapted) threshold ladder, highest first.
    pub thresholds: Vec<f64>,
    /// Register file.
    pub regs: IpexRegisters,
    /// Current prefetch degree (`Rcpd`).
    pub r_cpd: u32,
    /// Number of thresholds at or above the current voltage.
    pub level: u32,
    /// Operating mode.
    pub mode: Mode,
    /// Reissue queue, oldest first.
    pub reissue_queue: Vec<u32>,
    /// Counters at the time of the export.
    pub stats: PolicyStats,
}

/// The per-cache IPEX controller.
///
/// Drive it with [`IpexController::observe_voltage`] (every cycle or on
/// every meaningful voltage change), pass each prefetcher candidate list
/// through [`IpexController::filter`], and notify it of outages via
/// [`IpexController::on_power_failure`] / [`IpexController::on_reboot`].
#[derive(Debug, Clone)]
pub struct IpexController {
    cfg: IpexConfig,
    /// Current threshold ladder, highest first. Adapted at reboot.
    thresholds: Vec<f64>,
    regs: IpexRegisters,
    /// Current prefetch degree (the prefetcher's `Rcpd`).
    r_cpd: u32,
    /// Number of thresholds at or above the current voltage.
    level: u32,
    mode: Mode,
    /// Recently throttled candidates for the §5.1 reissue extension.
    reissue_queue: VecDeque<u32>,
    stats: PolicyStats,
}

impl IpexController {
    /// Creates a controller in high-performance mode at the initial
    /// degree.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`IpexConfig::validate`]).
    pub fn new(cfg: IpexConfig) -> IpexController {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        IpexController {
            thresholds: cfg.initial_thresholds(),
            regs: IpexRegisters::new(cfg.initial_degree),
            r_cpd: cfg.initial_degree,
            level: 0,
            mode: Mode::HighPerformance,
            reissue_queue: VecDeque::new(),
            stats: PolicyStats::default(),
            cfg,
        }
    }

    /// The configuration the controller was built with.
    pub fn config(&self) -> &IpexConfig {
        &self.cfg
    }

    /// The current threshold ladder, highest first.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// The current prefetch degree (`Rcpd`).
    pub fn current_degree(&self) -> u32 {
        self.r_cpd
    }

    /// The current operating mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The register file (for checkpoint accounting and inspection).
    pub fn registers(&self) -> IpexRegisters {
        self.regs
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> PolicyStats {
        self.stats
    }

    /// Degree implied by a throttle level: halved once per crossed
    /// threshold (`§4.2`: "halves the prefetch degree each time the
    /// capacitor voltage falls below a threshold").
    fn degree_for_level(&self, level: u32) -> u32 {
        self.regs.r_ipd as u32 >> level.min(31)
    }

    /// Updates the controller with the current capacitor voltage,
    /// adjusting the degree on threshold crossings. Returns candidates to
    /// reissue if the §5.1 extension is enabled and the controller just
    /// returned to high-performance mode.
    pub fn observe_voltage(&mut self, voltage: f64) -> Option<Vec<u32>> {
        let new_level = self.thresholds.iter().filter(|&&t| voltage <= t).count() as u32;
        if new_level == self.level {
            return None;
        }
        self.level = new_level;
        self.r_cpd = self.degree_for_level(new_level);
        let new_mode = if new_level == 0 {
            Mode::HighPerformance
        } else {
            Mode::EnergySaving
        };
        let mut reissue = None;
        if new_mode != self.mode {
            if new_mode == Mode::EnergySaving {
                self.stats.saving_mode_entries += 1;
            } else if self.cfg.reissue_throttled && !self.reissue_queue.is_empty() {
                let drained: Vec<u32> = self.reissue_queue.drain(..).collect();
                self.stats.reissued += drained.len() as u64;
                reissue = Some(drained);
            }
            self.mode = new_mode;
        }
        reissue
    }

    /// Filters a prefetcher's candidate list down to the current degree,
    /// counting issued and throttled candidates in the registers.
    /// Returns the number of candidates kept (the list is truncated in
    /// place, preserving the prefetcher's priority order).
    ///
    /// In high-performance mode the underlying prefetcher "operates as
    /// usual, without being throttled" (§4.2, Fig. 9): the whole list
    /// passes through, including any degree the prefetcher's own
    /// confidence ramp chose above `Ripd`.
    pub fn filter(&mut self, candidates: &mut Vec<u32>) -> usize {
        let total = candidates.len();
        // Most accesses propose nothing (the prefetcher only triggers on
        // new blocks); every update below is a no-op then.
        if total == 0 {
            return 0;
        }
        let keep = if self.mode == Mode::HighPerformance {
            total
        } else {
            total.min(self.r_cpd as usize)
        };
        if self.cfg.reissue_throttled {
            for &c in &candidates[keep..] {
                if self.reissue_queue.len() == self.cfg.reissue_queue_len {
                    self.reissue_queue.pop_front();
                }
                self.reissue_queue.push_back(c);
            }
        }
        candidates.truncate(keep);
        let throttled = (total - keep) as u32;
        self.regs.r_total = self.regs.r_total.saturating_add(total as u32);
        self.regs.r_throttled = self.regs.r_throttled.saturating_add(throttled);
        self.stats.issued += keep as u64;
        self.stats.throttled += throttled as u64;
        keep
    }

    /// Notifies the controller of an imminent power failure. `Rthrottled`
    /// and `Rtotal` are JIT-checkpointed (their bits are charged by the
    /// simulator); the volatile mode/level state will be rebuilt at
    /// reboot.
    pub fn on_power_failure(&mut self) {
        // Registers persist (checkpointed); nothing else survives.
        self.reissue_queue.clear();
    }

    /// Reboot processing (§4.1.1): computes the throttling rate `Rtr`,
    /// adapts the voltage thresholds, resets `Rcpd` to `Ripd`, and starts
    /// the new power cycle in high-performance mode.
    pub fn on_reboot(&mut self) {
        self.stats.power_cycles += 1;
        let had_candidates = self.regs.r_total > 0;
        self.regs.on_reboot();
        if self.cfg.adaptive_thresholds && had_candidates {
            let step = if self.regs.r_tr as f64 >= self.cfg.throttle_rate_threshold {
                // Over-throttling: lower thresholds (lazier throttling).
                self.stats.threshold_lowers += 1;
                -self.cfg.voltage_step_v
            } else {
                // Under-throttling: raise thresholds (more energy saving).
                self.stats.threshold_raises += 1;
                self.cfg.voltage_step_v
            };
            let top = (self.thresholds[0] + step)
                .clamp(self.cfg.min_top_threshold_v, self.cfg.max_top_threshold_v);
            for (i, t) in self.thresholds.iter_mut().enumerate() {
                *t = top - i as f64 * self.cfg.threshold_spacing_v;
            }
        }
        self.r_cpd = self.regs.r_ipd as u32;
        self.level = 0;
        self.mode = Mode::HighPerformance;
    }
}

impl Persist for IpexController {
    type State = IpexControllerState;

    fn export_state(&self) -> IpexControllerState {
        IpexControllerState {
            cfg: self.cfg,
            thresholds: self.thresholds.clone(),
            regs: self.regs,
            r_cpd: self.r_cpd,
            level: self.level,
            mode: self.mode,
            reissue_queue: self.reissue_queue.iter().copied().collect(),
            stats: self.stats,
        }
    }

    /// Rejects a state whose own configuration is inconsistent or differs
    /// from this controller's, or whose threshold ladder length or `Ripd`
    /// disagrees with it (a corrupted snapshot).
    fn import_state(&mut self, state: &IpexControllerState) -> Result<(), String> {
        state.cfg.validate()?;
        same_cfg(&state.cfg, &self.cfg)?;
        if state.thresholds.len() != self.thresholds.len() {
            return Err(format!(
                "controller state has {} thresholds, config wants {}",
                state.thresholds.len(),
                self.thresholds.len()
            ));
        }
        if state.regs.r_ipd != self.regs.r_ipd {
            return Err(format!(
                "controller state has Ripd {}, config wants {}",
                state.regs.r_ipd, self.regs.r_ipd
            ));
        }
        self.thresholds.copy_from_slice(&state.thresholds);
        self.regs = state.regs;
        self.r_cpd = state.r_cpd;
        self.level = state.level;
        self.mode = state.mode;
        self.reissue_queue = state.reissue_queue.iter().copied().collect();
        self.stats = state.stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> IpexController {
        IpexController::new(IpexConfig::paper_default())
    }

    /// `Ripd` is configuration: a state carrying another one is rejected.
    #[test]
    fn import_rejects_another_ripd() {
        let mut state = ctl().export_state();
        state.regs.r_ipd = 3;
        let err = ctl().import_state(&state).unwrap_err();
        assert!(err.contains("Ripd"), "{err}");
    }

    #[test]
    fn degree_ladder_matches_figure9() {
        let mut c = ctl();
        // Fig. 9: V=3.35 -> 2; 3.28 -> 1; 3.35 -> 2; 3.28 -> 1; 3.22 -> 0.
        c.observe_voltage(3.35);
        assert_eq!(c.current_degree(), 2);
        assert_eq!(c.mode(), Mode::HighPerformance);
        c.observe_voltage(3.28);
        assert_eq!(c.current_degree(), 1);
        assert_eq!(c.mode(), Mode::EnergySaving);
        c.observe_voltage(3.35);
        assert_eq!(c.current_degree(), 2);
        assert_eq!(c.mode(), Mode::HighPerformance);
        c.observe_voltage(3.28);
        assert_eq!(c.current_degree(), 1);
        c.observe_voltage(3.22);
        assert_eq!(c.current_degree(), 0);
        assert_eq!(c.stats().saving_mode_entries, 2);
    }

    #[test]
    fn filter_truncates_and_counts() {
        let mut c = ctl();
        c.observe_voltage(3.28); // degree 1
        let mut cand = vec![0xa0, 0xb0, 0xc0];
        let kept = c.filter(&mut cand);
        assert_eq!(kept, 1);
        assert_eq!(cand, vec![0xa0]);
        let regs = c.registers();
        assert_eq!(regs.r_total, 3);
        assert_eq!(regs.r_throttled, 2);
        assert_eq!(c.stats().issued, 1);
        assert_eq!(c.stats().throttled, 2);
    }

    #[test]
    fn degree_zero_blocks_everything() {
        let mut c = ctl();
        c.observe_voltage(3.2); // below both thresholds
        let mut cand = vec![0xa0, 0xb0];
        assert_eq!(c.filter(&mut cand), 0);
        assert!(cand.is_empty());
        assert_eq!(c.registers().r_throttled, 2);
    }

    #[test]
    fn figure7_walkthrough() {
        // Reproduces the register timeline of Fig. 7.
        let mut c = ctl();
        c.observe_voltage(3.4); // T0
        assert_eq!(c.current_degree(), 2);
        c.observe_voltage(3.28); // T1: below V1=3.3
        assert_eq!(c.current_degree(), 1);
        let mut cand = vec![0x100, 0x110]; // blocks A and B
        c.filter(&mut cand);
        assert_eq!(cand, vec![0x100]); // only A prefetched
        let r = c.registers();
        assert_eq!((r.r_total, r.r_throttled), (2, 1));
        c.observe_voltage(3.22); // T2 region
        c.on_power_failure(); // T3
        c.on_reboot(); // T4
        let r = c.registers();
        assert!((r.r_tr - 0.5).abs() < 1e-6, "Rtr = 50%");
        assert_eq!(c.current_degree(), 2, "Rcpd reset to Ripd");
        // Rtr = 50% >= 5%: thresholds lowered by 0.05.
        assert!((c.thresholds()[0] - 3.25).abs() < 1e-9);
        assert!((c.thresholds()[1] - 3.20).abs() < 1e-9);
        assert_eq!(c.stats().threshold_lowers, 1);
    }

    #[test]
    fn low_throttle_rate_raises_thresholds() {
        let mut c = ctl();
        c.observe_voltage(3.5);
        let mut cand: Vec<u32> = (0..100).map(|i| i * 16).collect();
        // Degree 2 < 100 candidates... keep full: feed in pairs.
        for chunk in cand.chunks(2) {
            let mut v = chunk.to_vec();
            c.filter(&mut v);
        }
        cand.clear();
        c.on_power_failure();
        c.on_reboot();
        assert_eq!(c.stats().threshold_raises, 1);
        assert!((c.thresholds()[0] - 3.35).abs() < 1e-9);
    }

    #[test]
    fn idle_cycle_does_not_adapt() {
        let mut c = ctl();
        c.on_power_failure();
        c.on_reboot();
        assert_eq!(c.stats().threshold_raises, 0);
        assert_eq!(c.stats().threshold_lowers, 0);
        assert!((c.thresholds()[0] - 3.3).abs() < 1e-9);
    }

    #[test]
    fn threshold_adaptation_clamped() {
        let mut c = ctl();
        // Repeatedly raise: never exceeds max_top_threshold_v.
        for _ in 0..50 {
            let mut v = vec![0x10];
            c.filter(&mut v); // no throttling -> raise
            c.on_power_failure();
            c.on_reboot();
        }
        assert!(c.thresholds()[0] <= c.config().max_top_threshold_v + 1e-9);
        // And lowering clamps at the floor.
        for _ in 0..50 {
            c.observe_voltage(3.0); // degree 0 at any plausible thresholds
            let mut v = vec![0x10, 0x20];
            c.filter(&mut v);
            c.on_power_failure();
            c.on_reboot();
            c.observe_voltage(3.6);
        }
        assert!(c.thresholds()[0] >= c.config().min_top_threshold_v - 1e-9);
    }

    #[test]
    fn fixed_thresholds_ablation() {
        let mut c = IpexController::new(IpexConfig {
            adaptive_thresholds: false,
            ..IpexConfig::paper_default()
        });
        let mut v = vec![0x10, 0x20];
        c.observe_voltage(3.0);
        c.filter(&mut v);
        c.on_power_failure();
        c.on_reboot();
        assert!((c.thresholds()[0] - 3.3).abs() < 1e-9);
    }

    #[test]
    fn reissue_extension_returns_throttled_blocks() {
        let mut c = IpexController::new(IpexConfig {
            reissue_throttled: true,
            ..IpexConfig::paper_default()
        });
        c.observe_voltage(3.28); // degree 1
        let mut cand = vec![0xa0, 0xb0, 0xc0];
        c.filter(&mut cand);
        // Recover: the two throttled blocks come back.
        let reissue = c.observe_voltage(3.5).expect("reissue on recovery");
        assert_eq!(reissue, vec![0xb0, 0xc0]);
        assert_eq!(c.stats().reissued, 2);
        // Queue drained: a second recovery yields nothing.
        c.observe_voltage(3.28);
        assert!(c.observe_voltage(3.5).is_none());
    }

    #[test]
    fn reissue_queue_bounded() {
        let mut c = IpexController::new(IpexConfig {
            reissue_throttled: true,
            reissue_queue_len: 2,
            ..IpexConfig::paper_default()
        });
        c.observe_voltage(3.2); // degree 0
        let mut cand = vec![0xa0, 0xb0, 0xc0];
        c.filter(&mut cand);
        let reissue = c.observe_voltage(3.5).expect("reissue");
        assert_eq!(reissue, vec![0xb0, 0xc0], "oldest dropped");
    }

    #[test]
    fn power_failure_clears_reissue_queue() {
        let mut c = IpexController::new(IpexConfig {
            reissue_throttled: true,
            ..IpexConfig::paper_default()
        });
        c.observe_voltage(3.28);
        let mut cand = vec![0xa0, 0xb0];
        c.filter(&mut cand);
        c.on_power_failure();
        c.on_reboot();
        assert!(
            c.observe_voltage(3.5).is_none(),
            "queue did not survive the outage"
        );
    }

    #[test]
    fn initial_degree_four_halves_twice() {
        let mut c = IpexController::new(IpexConfig {
            initial_degree: 4,
            ..IpexConfig::paper_default()
        });
        c.observe_voltage(3.28);
        assert_eq!(c.current_degree(), 2);
        c.observe_voltage(3.22);
        assert_eq!(c.current_degree(), 1);
    }

    #[test]
    fn overall_throttle_rate() {
        let mut c = ctl();
        c.observe_voltage(3.28);
        let mut cand = vec![1, 2, 3, 4];
        c.filter(&mut cand);
        assert!((c.stats().overall_throttle_rate() - 0.75).abs() < 1e-12);
        assert_eq!(PolicyStats::default().overall_throttle_rate(), 0.0);
    }
}
