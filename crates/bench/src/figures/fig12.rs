//! Figure 12: reduction in issued prefetch operations when IPEX controls
//! both prefetchers.

use ehs_sim::SimResult;
use serde::Serialize;

use super::{base_cfg, ipex_both_cfg, rfhome, suite_mean, Figure, Headline, RenderCx};
use crate::{banner, pct};

/// IPEX's cut in one app's issued prefetch operations.
fn reduction(base: &SimResult, ipex: &SimResult) -> f64 {
    1.0 - ipex.prefetch_operations() as f64 / base.prefetch_operations().max(1) as f64
}

pub struct Fig12;

impl Figure for Fig12 {
    fn id(&self) -> &'static str {
        "fig12"
    }

    fn file_id(&self) -> &'static str {
        "fig12_prefetch_reduction"
    }

    fn title(&self) -> &'static str {
        "prefetch-operation reduction, IPEX on both prefetchers"
    }

    fn headlines(&self) -> Vec<Headline> {
        vec![Headline {
            label: "mean_prefetch_reduction".into(),
            base_trace: rfhome(),
            configs: vec![base_cfg(), ipex_both_cfg()],
            eval: |s| suite_mean(&s[0], &s[1], reduction),
        }]
    }

    fn render(&self, cx: &RenderCx<'_>) {
        #[derive(Serialize)]
        struct Row {
            app: &'static str,
            reduction: f64,
        }

        banner(self.id(), self.title());
        let trace = rfhome();
        let base = cx.suite(&base_cfg(), &trace);
        let ipex = cx.suite(&ipex_both_cfg(), &trace);
        let mut rows = Vec::new();
        for w in &ehs_workloads::SUITE {
            let row = Row {
                app: w.name(),
                reduction: reduction(&base[w.name()], &ipex[w.name()]),
            };
            println!("{:10} {:>8}", row.app, pct(row.reduction));
            rows.push(row);
        }
        let mean = suite_mean(&base, &ipex, reduction);
        println!("{:10} {:>8}  (paper mean: 7.11%)", "mean", pct(mean));
        cx.write(self.file_id(), &rows);
    }
}
