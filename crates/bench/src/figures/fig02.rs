//! Figure 2: fraction of on-time stalled on ICache/DCache misses per
//! application (prefetchers disabled, default 2 kB caches).

use std::collections::BTreeMap;

use ehs_sim::prelude::*;
use serde::Serialize;

use super::{nopf_cfg, rfhome, Figure, Headline, RenderCx};
use crate::{banner, pct};

/// The mean of one per-app stall fraction over a suite, summed in the
/// suite map's (name) order.
fn mean(suite: &BTreeMap<&'static str, SimResult>, fraction: fn(&SimStats) -> f64) -> f64 {
    suite.values().map(|r| fraction(&r.stats)).sum::<f64>() / suite.len() as f64
}

pub struct Fig02;

impl Figure for Fig02 {
    fn id(&self) -> &'static str {
        "fig02"
    }

    fn file_id(&self) -> &'static str {
        "fig02_stall_breakdown"
    }

    fn title(&self) -> &'static str {
        "pipeline-stall breakdown (no prefetchers), RFHome"
    }

    fn headlines(&self) -> Vec<Headline> {
        let mk = |label: &str, eval| Headline {
            label: label.into(),
            base_trace: rfhome(),
            configs: vec![nopf_cfg()],
            eval,
        };
        vec![
            mk("mean_istall_fraction", |s| {
                mean(&s[0], SimStats::istall_fraction)
            }),
            mk("mean_dstall_fraction", |s| {
                mean(&s[0], SimStats::dstall_fraction)
            }),
        ]
    }

    fn render(&self, cx: &RenderCx<'_>) {
        #[derive(Serialize)]
        struct Row {
            app: &'static str,
            istall: f64,
            dstall: f64,
        }

        banner(self.id(), self.title());
        let res = cx.suite(&nopf_cfg(), &rfhome());
        let mut rows = Vec::new();
        for w in &ehs_workloads::SUITE {
            let r = &res[w.name()];
            let row = Row {
                app: w.name(),
                istall: r.stats.istall_fraction(),
                dstall: r.stats.dstall_fraction(),
            };
            println!(
                "{:10} ICache {:>8}  DCache {:>8}",
                row.app,
                pct(row.istall),
                pct(row.dstall)
            );
            rows.push(row);
        }
        println!(
            "{:10} ICache {:>8}  DCache {:>8}   (paper: 23.45% / 18.64%)",
            "mean",
            pct(mean(&res, SimStats::istall_fraction)),
            pct(mean(&res, SimStats::dstall_fraction))
        );
        cx.write(self.file_id(), &rows);
    }
}
