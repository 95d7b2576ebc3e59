//! Figures 10 and 11: per-application speedup over the
//! conventional-prefetcher baseline (RFHome) for no-prefetcher, IPEX on
//! the data prefetcher, and IPEX on both prefetchers — Figure 11 on the
//! *ideal* NVSRAMCache (zero-cost backup/restore), the upper bound for
//! cache-equipped EHSs. The same per-application speedup table also
//! renders fig26, over a different column list.

use ehs_sim::SimConfig;
use serde::Content;

use super::{base_cfg, ipex_both_cfg, ipex_data_cfg, nopf_cfg, rfhome};
use super::{speedup_headline, Figure, Headline, RenderCx};
use crate::{banner, speedups};

/// One column of a speedup table: the configuration whose speedup over
/// the baseline it shows.
pub(super) struct Column {
    /// JSON field of the column; its headline is `<key>_gmean`.
    pub key: &'static str,
    /// Column heading on stdout.
    pub header: &'static str,
    /// The configuration compared with the baseline.
    pub cfg: fn() -> SimConfig,
}

/// A per-application table of speedups over the baseline configuration
/// (RFHome), one column per configuration, with a gmean row. Every
/// configuration, the baseline included, is passed through `variant`.
pub struct SpeedupFigure {
    pub(super) short: &'static str,
    pub(super) file: &'static str,
    pub(super) title: &'static str,
    pub(super) columns: &'static [Column],
    pub(super) variant: fn(SimConfig) -> SimConfig,
    pub(super) footer: Option<&'static str>,
}

impl SpeedupFigure {
    /// The baseline and each column's configuration, after `variant`.
    fn configs(&self) -> (SimConfig, impl Iterator<Item = (&Column, SimConfig)>) {
        let columns = self.columns.iter().map(|c| (c, (self.variant)((c.cfg)())));
        ((self.variant)(base_cfg()), columns)
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
        let (base, columns) = self.configs();
        columns
            .map(|(c, cfg)| {
                speedup_headline(format!("{}_gmean", c.key), rfhome(), base.clone(), cfg)
            })
            .collect()
    }

    fn render(&self, cx: &RenderCx<'_>) {
        banner(self.short, self.title);
        let trace = rfhome();
        let (base, columns) = self.configs();
        let base = cx.suite(&base, &trace);
        // Per column: its per-app speedups and their gmean.
        let columns: Vec<_> = columns
            .map(|(c, cfg)| (c, speedups(&base, &cx.suite(&cfg, &trace))))
            .collect();

        let mut table: Vec<(&str, Vec<f64>)> = (columns[0].1)
            .0
            .iter()
            .enumerate()
            .map(|(i, (app, _))| (*app, columns.iter().map(|(_, (r, _))| r[i].1).collect()))
            .collect();
        table.push(("gmean", columns.iter().map(|(_, (_, g))| *g).collect()));

        print!("{:10}", "app");
        columns
            .iter()
            .for_each(|(c, _)| print!(" {:>10}", c.header));
        println!();
        let mut rows = Vec::new();
        for (app, values) in table {
            print!("{app:10}");
            values.iter().for_each(|v| print!(" {v:>10.3}"));
            println!();
            let mut fields = vec![("app".to_owned(), Content::Str(app.to_owned()))];
            for ((c, _), v) in columns.iter().zip(values) {
                fields.push((c.key.to_owned(), Content::F64(v)));
            }
            rows.push(Content::Map(fields));
        }
        if let Some(footer) = self.footer {
            println!("{footer}");
        }
        cx.write(self.file, &rows);
    }
}

/// The three comparisons of Figs. 10 and 11.
const FIG10_COLUMNS: &[Column] = &[
    Column {
        key: "no_prefetch",
        header: "no-pf",
        cfg: nopf_cfg,
    },
    Column {
        key: "ipex_data",
        header: "+IPEX(D)",
        cfg: ipex_data_cfg,
    },
    Column {
        key: "ipex_both",
        header: "+IPEX(I+D)",
        cfg: ipex_both_cfg,
    },
];

/// Figure 10: against the NVSRAMCache baseline.
pub static FIG10: SpeedupFigure = SpeedupFigure {
    short: "fig10",
    file: "fig10_speedup_baseline",
    title: "speedup over NVSRAMCache baseline, RFHome",
    columns: FIG10_COLUMNS,
    variant: |c| c,
    footer: Some("(paper gmeans: 0.953 / 1.037 / 1.090 relative to baseline)"),
};

/// Figure 11: against the ideal NVSRAMCache.
pub static FIG11: SpeedupFigure = SpeedupFigure {
    short: "fig11",
    file: "fig11_speedup_ideal",
    title: "speedup over NVSRAMCache (ideal), RFHome",
    columns: FIG10_COLUMNS,
    variant: SimConfig::with_ideal_backup,
    footer: Some("(paper IPEX-both gmean: 1.0906)"),
};
