//! Chainable construction of the prefetch-control part of a
//! [`SimConfig`].
//!
//! The builder says what one field write cannot: which caches a
//! throttling policy controls, and that a machine has no prefetcher at
//! all. Every other parameter is a public field of [`SimConfig`], set
//! directly or with a `with_*` helper:
//!
//! ```
//! use ehs_sim::{Ipex, SimConfig};
//!
//! let mut cfg = SimConfig::builder().ipex(Ipex::Both).build().with_cache_size(1024);
//! cfg.prefetch_degree = 4;
//! assert_eq!(cfg.validate(), Ok(()));
//! ```
//!
//! `build()` rejects a contradictory prefetch setup (a throttled cache
//! without a prefetcher, an invalid policy) and panics with a
//! field-naming message; [`SimConfigBuilder::try_build`] returns the
//! error instead. The values themselves are checked by
//! [`SimConfig::validate`], which every way of building a
//! [`Machine`](crate::Machine) runs.

use ipex::{IpexConfig, PolicyConfig};

use crate::config::PrefetchMode;
use crate::{ConfigError, SimConfig};

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

/// Chainable builder for a [`SimConfig`]'s prefetch control; start
/// from [`SimConfig::builder`], finish with [`build`](Self::build) or
/// [`try_build`](Self::try_build).
///
/// Defaults are the paper's Table-1 system with conventional
/// (unthrottled) prefetching — `SimConfig::builder().build()` is the
/// NVSRAMCache baseline.
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    prefetch: bool,
    /// Which caches are throttled.
    placement: Ipex,
    /// What throttles them.
    policy: PolicyConfig,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        SimConfigBuilder {
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

    /// Produces the Table-1 configuration with the chosen prefetch
    /// control.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] when a cache is throttled after
    /// [`no_prefetch`](Self::no_prefetch), or when the throttling policy
    /// is invalid.
    pub fn try_build(self) -> Result<SimConfig, ConfigError> {
        let SimConfigBuilder {
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
        Ok(SimConfig {
            inst_mode,
            data_mode,
            ..SimConfig::default()
        })
    }

    /// Produces the configuration, like [`try_build`](Self::try_build).
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message where `try_build` returns
    /// it.
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
    /// last call wins.
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
    fn throttling_without_a_prefetcher_is_rejected() {
        let err = SimConfig::builder()
            .no_prefetch()
            .ipex(Ipex::Both)
            .try_build()
            .unwrap_err();
        assert!(err.0.contains("no_prefetch"), "{err}");
    }

    #[test]
    #[should_panic(expected = "invalid SimConfig")]
    fn build_panics_on_invalid() {
        SimConfig::builder().no_prefetch().ipex(Ipex::Data).build();
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
