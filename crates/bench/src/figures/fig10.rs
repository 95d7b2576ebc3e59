//! Figures 10 and 11: per-application speedup over the
//! conventional-prefetcher baseline (RFHome) for no-prefetcher, IPEX on
//! the data prefetcher, and IPEX on both prefetchers — Figure 11 on the
//! *ideal* NVSRAMCache (zero-cost backup/restore), the upper bound for
//! cache-equipped EHSs.

use ehs_sim::SimConfig;
use serde::Serialize;

use super::{base_cfg, ipex_both_cfg, ipex_data_cfg, nopf_cfg, rfhome};
use super::{speedup_headline, Figure, Headline, RenderCx};
use crate::{banner, speedups};

#[derive(Serialize)]
struct Row {
    app: String,
    no_prefetch: f64,
    ipex_data: f64,
    ipex_both: f64,
}

/// The Figure-10 comparison with every configuration passed through
/// `variant`.
pub struct SpeedupFigure {
    short: &'static str,
    file: &'static str,
    title: &'static str,
    variant: fn(SimConfig) -> SimConfig,
    footer: &'static str,
}

impl SpeedupFigure {
    /// Baseline, no-prefetcher, IPEX(D) and IPEX(I+D), in that order.
    fn configs(&self) -> [SimConfig; 4] {
        [base_cfg(), nopf_cfg(), ipex_data_cfg(), ipex_both_cfg()].map(self.variant)
    }
}

impl Figure for SpeedupFigure {
    fn id(&self) -> &'static str {
        self.short
    }

    fn file_id(&self) -> &'static str {
        self.file
    }

    fn title(&self) -> &'static str {
        self.title
    }

    fn headlines(&self) -> Vec<Headline> {
        let [base, nopf, ipex_d, ipex] = self.configs();
        vec![
            speedup_headline("no_prefetch_gmean", rfhome(), base.clone(), nopf),
            speedup_headline("ipex_data_gmean", rfhome(), base.clone(), ipex_d),
            speedup_headline("ipex_both_gmean", rfhome(), base, ipex),
        ]
    }

    fn render(&self, cx: &RenderCx<'_>) {
        banner(self.short, self.title);
        let trace = rfhome();
        let [base, nopf, ipex_d, ipex] = self.configs().map(|c| cx.suite(&c, &trace));

        let (r0, g0) = speedups(&base, &nopf);
        let (r1, g1) = speedups(&base, &ipex_d);
        let (r2, g2) = speedups(&base, &ipex);
        let mut rows = Vec::new();
        println!(
            "{:10} {:>8} {:>8} {:>8}",
            "app", "no-pf", "+IPEX(D)", "+IPEX(I+D)"
        );
        for i in 0..r0.len() {
            println!(
                "{:10} {:>8.3} {:>8.3} {:>8.3}",
                r0[i].0, r0[i].1, r1[i].1, r2[i].1
            );
            rows.push(Row {
                app: r0[i].0.to_owned(),
                no_prefetch: r0[i].1,
                ipex_data: r1[i].1,
                ipex_both: r2[i].1,
            });
        }
        println!("{:10} {:>8.3} {:>8.3} {:>8.3}", "gmean", g0, g1, g2);
        println!("{}", self.footer);
        rows.push(Row {
            app: "gmean".into(),
            no_prefetch: g0,
            ipex_data: g1,
            ipex_both: g2,
        });
        cx.write(self.file, &rows);
    }
}

/// Figure 10: against the NVSRAMCache baseline.
pub static FIG10: SpeedupFigure = SpeedupFigure {
    short: "fig10",
    file: "fig10_speedup_baseline",
    title: "speedup over NVSRAMCache baseline, RFHome",
    variant: |c| c,
    footer: "(paper gmeans: 0.953 / 1.037 / 1.090 relative to baseline)",
};

/// Figure 11: against the ideal NVSRAMCache.
pub static FIG11: SpeedupFigure = SpeedupFigure {
    short: "fig11",
    file: "fig11_speedup_ideal",
    title: "speedup over NVSRAMCache (ideal), RFHome",
    variant: SimConfig::with_ideal_backup,
    footer: "(paper IPEX-both gmean: 1.0906)",
};
