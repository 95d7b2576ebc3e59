//! Figure 14: energy breakdown (cache / memory / compute / backup+rst)
//! normalised to the baseline, three bars per application.

use ehs_sim::SimResult;
use serde::Serialize;

use super::{base_cfg, ipex_both_cfg, ipex_data_cfg, rfhome, suite_mean, suite_points};
use super::{headline_points, Figure, Headline, RenderCx};
use crate::banner;
use crate::sweep::SimPoint;

#[derive(Serialize)]
struct Row {
    app: &'static str,
    config: &'static str,
    cache: f64,
    memory: f64,
    compute: f64,
    backup_restore: f64,
    total: f64,
}

/// One app's bar: its energy under `test`, normalised to the baseline.
fn bar(app: &'static str, config: &'static str, base: &SimResult, test: &SimResult) -> Row {
    let n = test.energy.normalized_to(&base.energy);
    Row {
        app,
        config,
        cache: n.cache_nj,
        memory: n.memory_nj,
        compute: n.compute_nj,
        backup_restore: n.backup_restore_nj,
        total: n.total_nj(),
    }
}

/// The height of one app's bar.
fn total(base: &SimResult, test: &SimResult) -> f64 {
    bar("", "", base, test).total
}

pub struct Fig14;

impl Figure for Fig14 {
    fn id(&self) -> &'static str {
        "fig14"
    }

    fn file_id(&self) -> &'static str {
        "fig14_energy_breakdown"
    }

    fn title(&self) -> &'static str {
        "normalised energy breakdown (baseline / +IPEX(D) / +IPEX(I+D))"
    }

    fn points(&self) -> Vec<SimPoint> {
        // The IPEX(D) bars are drawn, but no headline reads them.
        let mut points = headline_points(&self.headlines());
        points.extend(suite_points(&ipex_data_cfg(), &rfhome()));
        points
    }

    fn headlines(&self) -> Vec<Headline> {
        vec![Headline {
            label: "ipex_both_mean_normalized_energy".into(),
            base_trace: rfhome(),
            configs: vec![base_cfg(), ipex_both_cfg()],
            eval: |s| suite_mean(&s[0], &s[1], total),
        }]
    }

    fn render(&self, cx: &RenderCx<'_>) {
        banner(self.id(), self.title());
        let trace = rfhome();
        let base = cx.suite(&base_cfg(), &trace);
        let ipex_d = cx.suite(&ipex_data_cfg(), &trace);
        let ipex = cx.suite(&ipex_both_cfg(), &trace);
        let mut rows = Vec::new();
        println!(
            "{:10} {:>10} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "app", "config", "cache", "mem", "comp", "bk+rst", "total"
        );
        for w in &ehs_workloads::SUITE {
            let b = &base[w.name()];
            for (cfg, e) in [
                ("baseline", b),
                ("ipex-data", &ipex_d[w.name()]),
                ("ipex-both", &ipex[w.name()]),
            ] {
                let row = bar(w.name(), cfg, b, e);
                println!(
                    "{:10} {:>10} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
                    row.app,
                    row.config,
                    row.cache,
                    row.memory,
                    row.compute,
                    row.backup_restore,
                    row.total
                );
                rows.push(row);
            }
        }
        let m = suite_mean(&base, &ipex, total);
        println!("ipex-both mean normalised energy: {m:.4}  (paper: 0.9214)");
        cx.write(self.file_id(), &rows);
    }
}
