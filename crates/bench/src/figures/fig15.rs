//! Figure 15: ICache/DCache miss rates with and without IPEX on both
//! prefetchers.

use ehs_sim::SimResult;
use serde::Serialize;

use super::{base_cfg, ipex_both_cfg, rfhome, suite_mean, Figure, Headline, RenderCx};
use crate::{banner, pct};

/// How much IPEX raises one app's ICache miss rate.
fn imiss_delta(base: &SimResult, ipex: &SimResult) -> f64 {
    ipex.icache.miss_rate() - base.icache.miss_rate()
}

/// How much IPEX raises one app's DCache miss rate.
fn dmiss_delta(base: &SimResult, ipex: &SimResult) -> f64 {
    ipex.dcache.miss_rate() - base.dcache.miss_rate()
}

pub struct Fig15;

impl Figure for Fig15 {
    fn id(&self) -> &'static str {
        "fig15"
    }

    fn file_id(&self) -> &'static str {
        "fig15_miss_rates"
    }

    fn title(&self) -> &'static str {
        "cache miss rates, baseline vs IPEX"
    }

    fn headlines(&self) -> Vec<Headline> {
        let mk = |label: &str, eval| Headline {
            label: label.into(),
            base_trace: rfhome(),
            configs: vec![base_cfg(), ipex_both_cfg()],
            eval,
        };
        vec![
            mk("mean_imiss_delta", |s| {
                suite_mean(&s[0], &s[1], imiss_delta)
            }),
            mk("mean_dmiss_delta", |s| {
                suite_mean(&s[0], &s[1], dmiss_delta)
            }),
        ]
    }

    fn render(&self, cx: &RenderCx<'_>) {
        #[derive(Serialize)]
        struct Row {
            app: &'static str,
            icache_miss: f64,
            dcache_miss: f64,
            icache_miss_ipex: f64,
            dcache_miss_ipex: f64,
        }

        banner(self.id(), self.title());
        let trace = rfhome();
        let base = cx.suite(&base_cfg(), &trace);
        let ipex = cx.suite(&ipex_both_cfg(), &trace);
        let mut rows = Vec::new();
        for w in &ehs_workloads::SUITE {
            let b = &base[w.name()];
            let i = &ipex[w.name()];
            let row = Row {
                app: w.name(),
                icache_miss: b.icache.miss_rate(),
                dcache_miss: b.dcache.miss_rate(),
                icache_miss_ipex: i.icache.miss_rate(),
                dcache_miss_ipex: i.dcache.miss_rate(),
            };
            println!(
                "{:10} I {:>7} -> {:>7}   D {:>7} -> {:>7}",
                row.app,
                pct(row.icache_miss),
                pct(row.icache_miss_ipex),
                pct(row.dcache_miss),
                pct(row.dcache_miss_ipex)
            );
            rows.push(row);
        }
        println!(
            "mean miss-rate increase under IPEX: I {} D {}  (paper: +0.08% / +0.02%)",
            pct(suite_mean(&base, &ipex, imiss_delta)),
            pct(suite_mean(&base, &ipex, dmiss_delta))
        );
        cx.write(self.file_id(), &rows);
    }
}
