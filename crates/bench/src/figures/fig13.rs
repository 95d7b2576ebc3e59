//! Figure 13: main-memory traffic reduction (bars) and total energy
//! normalised to the baseline (line) with IPEX on both prefetchers.

use ehs_sim::SimResult;
use serde::Serialize;

use super::{base_cfg, ipex_both_cfg, rfhome, suite_mean, Figure, Headline, RenderCx};
use crate::{banner, pct};

/// IPEX's cut in one app's main-memory traffic.
fn traffic_reduction(base: &SimResult, ipex: &SimResult) -> f64 {
    1.0 - ipex.nvm.total_traffic() as f64 / base.nvm.total_traffic().max(1) as f64
}

/// One app's total energy under IPEX, normalised to the baseline.
fn normalized_energy(base: &SimResult, ipex: &SimResult) -> f64 {
    ipex.total_energy_nj() / base.total_energy_nj()
}

pub struct Fig13;

impl Figure for Fig13 {
    fn id(&self) -> &'static str {
        "fig13"
    }

    fn file_id(&self) -> &'static str {
        "fig13_traffic_energy"
    }

    fn title(&self) -> &'static str {
        "memory-traffic reduction + normalised energy"
    }

    fn headlines(&self) -> Vec<Headline> {
        let mk = |label: &str, eval| Headline {
            label: label.into(),
            base_trace: rfhome(),
            configs: vec![base_cfg(), ipex_both_cfg()],
            eval,
        };
        vec![
            mk("mean_traffic_reduction", |s| {
                suite_mean(&s[0], &s[1], traffic_reduction)
            }),
            mk("mean_normalized_energy", |s| {
                suite_mean(&s[0], &s[1], normalized_energy)
            }),
        ]
    }

    fn render(&self, cx: &RenderCx<'_>) {
        #[derive(Serialize)]
        struct Row {
            app: &'static str,
            traffic_reduction: f64,
            normalized_energy: f64,
        }

        banner(self.id(), self.title());
        let trace = rfhome();
        let base = cx.suite(&base_cfg(), &trace);
        let ipex = cx.suite(&ipex_both_cfg(), &trace);
        let mut rows = Vec::new();
        for w in &ehs_workloads::SUITE {
            let (b, i) = (&base[w.name()], &ipex[w.name()]);
            let row = Row {
                app: w.name(),
                traffic_reduction: traffic_reduction(b, i),
                normalized_energy: normalized_energy(b, i),
            };
            println!(
                "{:10} traffic {:>8}   energy {:>7.4}",
                row.app,
                pct(row.traffic_reduction),
                row.normalized_energy
            );
            rows.push(row);
        }
        println!(
            "{:10} traffic {:>8}   energy {:>7.4}  (paper: 2.00% / 0.921)",
            "mean",
            pct(suite_mean(&base, &ipex, traffic_reduction)),
            suite_mean(&base, &ipex, normalized_energy)
        );
        cx.write(self.file_id(), &rows);
    }
}
