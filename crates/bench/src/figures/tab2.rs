//! Table 2: prefetch accuracy and coverage for instruction and data
//! streams, baseline vs IPEX.

use std::collections::BTreeMap;

use ehs_sim::prelude::*;
use serde::Serialize;

use super::{base_cfg, ipex_both_cfg, rfhome, Figure, Headline, RenderCx};
use crate::{banner, pct};

#[derive(Serialize)]
struct Row {
    config: &'static str,
    acc_inst: f64,
    acc_data: f64,
    cov_inst: f64,
    cov_data: f64,
}

fn aggregate(results: &BTreeMap<&'static str, SimResult>, config: &'static str) -> Row {
    // Aggregate over the pooled counts (not a mean of ratios), matching
    // how suite-level accuracy/coverage is usually reported.
    let (mut iu, mut iw, mut du, mut dw, mut im, mut dm) = (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for r in results.values() {
        iu += r.ibuf.useful;
        iw += r.ibuf.useless();
        du += r.dbuf.useful;
        dw += r.dbuf.useless();
        im += r.stats.i_demand_reads;
        dm += r.stats.d_demand_reads;
    }
    Row {
        config,
        acc_inst: iu as f64 / (iu + iw).max(1) as f64,
        acc_data: du as f64 / (du + dw).max(1) as f64,
        cov_inst: iu as f64 / (iu + im).max(1) as f64,
        cov_data: du as f64 / (du + dm).max(1) as f64,
    }
}

pub struct Tab2;

impl Figure for Tab2 {
    fn id(&self) -> &'static str {
        "tab2"
    }

    fn file_id(&self) -> &'static str {
        "tab2_accuracy_coverage"
    }

    fn title(&self) -> &'static str {
        "prefetch accuracy and coverage"
    }

    fn headlines(&self) -> Vec<Headline> {
        fn delta(s: &[BTreeMap<&'static str, SimResult>], pick: fn(&Row) -> f64) -> f64 {
            pick(&aggregate(&s[1], "ipex")) - pick(&aggregate(&s[0], "base"))
        }
        let mk = |label: &str, eval: fn(&[BTreeMap<&'static str, SimResult>]) -> f64| Headline {
            label: label.into(),
            base_trace: rfhome(),
            configs: vec![base_cfg(), ipex_both_cfg()],
            eval,
        };
        vec![
            mk("acc_inst_gain", |s| delta(s, |r| r.acc_inst)),
            mk("acc_data_gain", |s| delta(s, |r| r.acc_data)),
            mk("cov_inst_gain", |s| delta(s, |r| r.cov_inst)),
            mk("cov_data_gain", |s| delta(s, |r| r.cov_data)),
        ]
    }

    fn render(&self, cx: &RenderCx<'_>) {
        banner(self.id(), self.title());
        let trace = rfhome();
        let base = aggregate(&cx.suite(&base_cfg(), &trace), "NVSRAMCache");
        let ipex = aggregate(&cx.suite(&ipex_both_cfg(), &trace), "IPEX");
        println!(
            "{:12} {:>9} {:>9} {:>9} {:>9}",
            "config", "acc(I)", "acc(D)", "cov(I)", "cov(D)"
        );
        for r in [&base, &ipex] {
            println!(
                "{:12} {:>9} {:>9} {:>9} {:>9}",
                r.config,
                pct(r.acc_inst),
                pct(r.acc_data),
                pct(r.cov_inst),
                pct(r.cov_data)
            );
        }
        println!("(paper: 54.03/52.88/80.56/64.51 -> 72.88/64.93/78.24/61.44)");
        cx.write(self.file_id(), &vec![base, ipex]);
    }
}
