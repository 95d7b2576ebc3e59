//! Figure 26 (extension): per-application speedup over the
//! conventional-prefetcher baseline (RFHome) for every throttling
//! policy — IPEX on both prefetchers next to the predictive,
//! hysteresis/EWMA and static degree-1 controllers on both prefetchers.
//!
//! Not a figure of the paper: it answers the natural follow-up question
//! the policy API makes askable — how much of IPEX's win comes from
//! *adaptive* thresholds versus merely throttling at all (static),
//! smoothing (hysteresis), or learning outage timing (predictive).

use serde::Serialize;

use super::{base_cfg, hysteresis_cfg, ipex_both_cfg, predictive_cfg, static_deg_cfg};
use super::{rfhome, speedup_headline, Figure, Headline, RenderCx};
use crate::{banner, speedups};

#[derive(Serialize)]
struct Row {
    app: String,
    ipex_both: f64,
    predictive: f64,
    hysteresis: f64,
    static_deg1: f64,
}

pub struct Fig26;

impl Figure for Fig26 {
    fn id(&self) -> &'static str {
        "fig26"
    }

    fn file_id(&self) -> &'static str {
        "fig26_policy_comparison"
    }

    fn title(&self) -> &'static str {
        "throttling-policy comparison vs baseline, RFHome"
    }

    fn headlines(&self) -> Vec<Headline> {
        vec![
            speedup_headline("ipex_both_gmean", rfhome(), base_cfg(), ipex_both_cfg()),
            speedup_headline("predictive_gmean", rfhome(), base_cfg(), predictive_cfg()),
            speedup_headline("hysteresis_gmean", rfhome(), base_cfg(), hysteresis_cfg()),
            speedup_headline("static_deg1_gmean", rfhome(), base_cfg(), static_deg_cfg()),
        ]
    }

    fn render(&self, cx: &RenderCx<'_>) {
        banner(self.id(), self.title());
        let trace = rfhome();
        let base = cx.suite(&base_cfg(), &trace);
        let ipex = cx.suite(&ipex_both_cfg(), &trace);
        let pred = cx.suite(&predictive_cfg(), &trace);
        let hyst = cx.suite(&hysteresis_cfg(), &trace);
        let stat = cx.suite(&static_deg_cfg(), &trace);

        let (r0, g0) = speedups(&base, &ipex);
        let (r1, g1) = speedups(&base, &pred);
        let (r2, g2) = speedups(&base, &hyst);
        let (r3, g3) = speedups(&base, &stat);
        let mut rows = Vec::new();
        println!(
            "{:10} {:>10} {:>10} {:>10} {:>10}",
            "app", "+IPEX(I+D)", "predictive", "hysteresis", "static-1"
        );
        for i in 0..r0.len() {
            println!(
                "{:10} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                r0[i].0, r0[i].1, r1[i].1, r2[i].1, r3[i].1
            );
            rows.push(Row {
                app: r0[i].0.to_owned(),
                ipex_both: r0[i].1,
                predictive: r1[i].1,
                hysteresis: r2[i].1,
                static_deg1: r3[i].1,
            });
        }
        println!(
            "{:10} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            "gmean", g0, g1, g2, g3
        );
        rows.push(Row {
            app: "gmean".into(),
            ipex_both: g0,
            predictive: g1,
            hysteresis: g2,
            static_deg1: g3,
        });
        cx.write(self.file_id(), &rows);
    }
}
