//! Tables 3 and 4: IPEX's gmean speedup with different instruction
//! prefetchers (the data prefetcher stays at the default stride) and
//! with different data prefetchers (the instruction prefetcher stays at
//! the default sequential).

use ehs_prefetch::{DataPrefetcherKind, InstPrefetcherKind};
use ehs_sim::SimConfig;
use serde::Serialize;

use super::{ipex_pair, rfhome, speedup_headline, Figure, Headline, RenderCx};
use crate::banner;

/// One row's prefetcher name and its (baseline, IPEX-both) pair.
type PrefetcherPair = (&'static str, (SimConfig, SimConfig));

/// One table: a row per prefetcher kind, each the IPEX-over-baseline
/// gmean speedup with that prefetcher installed.
pub struct PrefetcherTable {
    short: &'static str,
    file: &'static str,
    title: &'static str,
    /// The rows, in table order.
    rows: fn() -> Vec<PrefetcherPair>,
    footer: &'static str,
}

impl Figure for PrefetcherTable {
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
        (self.rows)()
            .into_iter()
            .map(|(name, (base, ipex))| {
                speedup_headline(format!("{name}_ipex_gmean"), rfhome(), base, ipex)
            })
            .collect()
    }

    fn render(&self, cx: &RenderCx<'_>) {
        #[derive(Serialize)]
        struct Row {
            prefetcher: &'static str,
            ipex_speedup: f64,
        }

        banner(self.short, self.title);
        let mut rows = Vec::new();
        for ((prefetcher, _), h) in (self.rows)().into_iter().zip(self.headlines()) {
            let g = h.eval_under(cx.sweep, &h.base_trace);
            println!("{prefetcher:12} IPEX speedup {g:.4}");
            rows.push(Row {
                prefetcher,
                ipex_speedup: g,
            });
        }
        println!("{}", self.footer);
        cx.write(self.file, &rows);
    }
}

/// Table 3: the instruction prefetcher varies.
pub static TAB3: PrefetcherTable = PrefetcherTable {
    short: "tab3",
    file: "tab3_inst_prefetchers",
    title: "IPEX speedup with varying instruction prefetchers",
    rows: || {
        InstPrefetcherKind::TABLE3
            .map(|k| (k.name(), ipex_pair(&|c| c.inst_prefetcher = k)))
            .into()
    },
    footer: "(paper: Sequential 8.96% / Markov 7.89% / TIFS 9.05%)",
};

/// Table 4: the data prefetcher varies.
pub static TAB4: PrefetcherTable = PrefetcherTable {
    short: "tab4",
    file: "tab4_data_prefetchers",
    title: "IPEX speedup with varying data prefetchers",
    rows: || {
        DataPrefetcherKind::TABLE4
            .map(|k| (k.name(), ipex_pair(&|c| c.data_prefetcher = k)))
            .into()
    },
    footer: "(paper: Stride 8.96% / GHB 8.83% / BO 8.76%)",
};
