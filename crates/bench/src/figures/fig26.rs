//! Figure 26 (extension): per-application speedup over the
//! conventional-prefetcher baseline (RFHome) for every throttling
//! policy — IPEX on both prefetchers next to the predictive,
//! hysteresis/EWMA and static degree-1 controllers on both prefetchers.
//!
//! Not a figure of the paper: it answers the natural follow-up question
//! the policy API makes askable — how much of IPEX's win comes from
//! *adaptive* thresholds versus merely throttling at all (static),
//! smoothing (hysteresis), or learning outage timing (predictive).

use super::fig10::{Column, SpeedupFigure};
use super::{hysteresis_cfg, ipex_both_cfg, predictive_cfg, static_deg_cfg};

/// Figure 26: fig10's table over the four throttling policies.
pub static FIG26: SpeedupFigure = SpeedupFigure {
    short: "fig26",
    file: "fig26_policy_comparison",
    title: "throttling-policy comparison vs baseline, RFHome",
    columns: &[
        Column {
            key: "ipex_both",
            header: "+IPEX(I+D)",
            cfg: ipex_both_cfg,
        },
        Column {
            key: "predictive",
            header: "predictive",
            cfg: predictive_cfg,
        },
        Column {
            key: "hysteresis",
            header: "hysteresis",
            cfg: hysteresis_cfg,
        },
        Column {
            key: "static_deg1",
            header: "static-1",
            cfg: static_deg_cfg,
        },
    ],
    variant: |c| c,
    footer: None,
};
