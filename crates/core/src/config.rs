//! IPEX configuration.

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

/// Tunable parameters of an [`IpexController`](crate::IpexController).
///
/// Defaults reproduce the paper's configuration (Table 1 and §4):
/// two thresholds starting at 3.3 V spaced 0.05 V apart, initial degree
/// 2, maximum degree 4, adaptive 0.05 V steps gated on a 5 % throttling
/// rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IpexConfig {
    /// Number of voltage thresholds `k` (§6.7.1 varies 1–3).
    pub threshold_count: u32,
    /// Initial value of the highest threshold `V1`, volts.
    pub top_threshold_v: f64,
    /// Spacing between consecutive thresholds, volts.
    pub threshold_spacing_v: f64,
    /// Initial prefetch degree `Ripd` (3-bit register; Table 1: 2).
    pub initial_degree: u32,
    /// Hardware cap on the degree (Table 1: 4).
    pub max_degree: u32,
    /// Adaptive threshold step, volts (§6.7.10 varies 0.05–0.15).
    pub voltage_step_v: f64,
    /// Throttling-rate threshold gating adaptation (§6.7.11 varies
    /// 1–20 %; default 5 %).
    pub throttle_rate_threshold: f64,
    /// Enables the §4.1.1 adaptive threshold adjustment. Disabling it
    /// gives the fixed-threshold ablation.
    pub adaptive_thresholds: bool,
    /// Lowest value the *top* threshold may adapt down to, volts. Keeps
    /// thresholds inside the operating band above `V_backup`.
    pub min_top_threshold_v: f64,
    /// Highest value the top threshold may adapt up to, volts.
    pub max_top_threshold_v: f64,
    /// §5.1 extension (the paper's future work, implemented here as an
    /// option): when returning to high-performance mode, reissue the
    /// most recently throttled prefetches.
    pub reissue_throttled: bool,
    /// Capacity of the reissue queue when `reissue_throttled` is set.
    pub reissue_queue_len: usize,
}

impl IpexConfig {
    /// The paper's default configuration.
    pub fn paper_default() -> IpexConfig {
        IpexConfig {
            threshold_count: 2,
            top_threshold_v: 3.3,
            threshold_spacing_v: 0.05,
            initial_degree: 2,
            max_degree: 4,
            voltage_step_v: 0.05,
            throttle_rate_threshold: 0.05,
            adaptive_thresholds: true,
            min_top_threshold_v: 3.24,
            max_top_threshold_v: 3.38,
            reissue_throttled: false,
            reissue_queue_len: 8,
        }
    }

    /// The paper default with a different threshold count (Fig. 16).
    pub fn with_threshold_count(k: u32) -> IpexConfig {
        IpexConfig {
            threshold_count: k,
            ..IpexConfig::paper_default()
        }
    }

    /// Checks the configuration for consistency.
    ///
    /// # Errors
    ///
    /// Describes the first inconsistent field.
    pub fn validate(&self) -> Result<(), String> {
        if self.threshold_count < 1 {
            return Err("need at least one threshold (threshold_count 0)".to_string());
        }
        if self.initial_degree < 1 {
            return Err("initial degree must be at least 1".to_string());
        }
        if self.initial_degree > self.max_degree {
            return Err(format!(
                "initial degree {} exceeds the hardware maximum {}",
                self.initial_degree, self.max_degree
            ));
        }
        if self.max_degree > 7 {
            return Err(format!(
                "Ripd is a 3-bit register (max_degree {} > 7)",
                self.max_degree
            ));
        }
        // `partial_cmp`, not `<`/`>`: a NaN field must be rejected too.
        if self.threshold_spacing_v.partial_cmp(&0.0) != Some(Ordering::Greater) {
            return Err(format!(
                "threshold spacing {} V must be positive",
                self.threshold_spacing_v
            ));
        }
        if self.voltage_step_v.partial_cmp(&0.0) != Some(Ordering::Greater) {
            return Err(format!(
                "voltage step {} V must be positive",
                self.voltage_step_v
            ));
        }
        if !(0.0..=1.0).contains(&self.throttle_rate_threshold) {
            return Err(format!(
                "throttle rate threshold {} is not a proportion",
                self.throttle_rate_threshold
            ));
        }
        if self
            .min_top_threshold_v
            .partial_cmp(&self.max_top_threshold_v)
            != Some(Ordering::Less)
        {
            return Err(format!(
                "threshold bounds are inverted ({} >= {})",
                self.min_top_threshold_v, self.max_top_threshold_v
            ));
        }
        if !(self.top_threshold_v >= self.min_top_threshold_v
            && self.top_threshold_v <= self.max_top_threshold_v)
        {
            return Err(format!(
                "initial top threshold {} V outside its adaptation bounds [{}, {}]",
                self.top_threshold_v, self.min_top_threshold_v, self.max_top_threshold_v
            ));
        }
        Ok(())
    }

    /// The initial threshold ladder `V1 > V2 > … > Vk`.
    pub fn initial_thresholds(&self) -> Vec<f64> {
        (0..self.threshold_count)
            .map(|i| self.top_threshold_v - i as f64 * self.threshold_spacing_v)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = IpexConfig::paper_default();
        assert_eq!(c.threshold_count, 2);
        assert_eq!(c.initial_thresholds(), vec![3.3, 3.25]);
        assert_eq!(c.initial_degree, 2);
        assert_eq!(c.max_degree, 4);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn threshold_ladder_for_k3() {
        let c = IpexConfig::with_threshold_count(3);
        let t = c.initial_thresholds();
        assert_eq!(t.len(), 3);
        assert!((t[2] - 3.2).abs() < 1e-12);
    }

    #[test]
    fn oversized_degree_rejected() {
        let c = IpexConfig {
            max_degree: 9,
            initial_degree: 9,
            ..IpexConfig::paper_default()
        };
        assert!(c.validate().unwrap_err().contains("3-bit"));
    }
}
