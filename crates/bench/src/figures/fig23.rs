//! Figure 23: sensitivity to the harvested-power environment.

use ehs_energy::{TraceKind, TraceSpec};

use super::{base_cfg, ipex_both_cfg, speedup_headline, Figure, Headline, RenderCx};
use crate::{banner, SweepRow};

pub struct Fig23;

impl Figure for Fig23 {
    fn id(&self) -> &'static str {
        "fig23"
    }

    fn file_id(&self) -> &'static str {
        "fig23_power_traces"
    }

    fn title(&self) -> &'static str {
        "power traces (paper: small gap, RF slightly ahead)"
    }

    fn headlines(&self) -> Vec<Headline> {
        // One headline per energy environment, each seed-swept within
        // its own kind (the cross-kind comparison is the figure).
        TraceKind::ALL
            .into_iter()
            .map(|kind| {
                speedup_headline(
                    format!("{}_ipex_gmean", kind.name()),
                    TraceSpec::standard(kind),
                    base_cfg(),
                    ipex_both_cfg(),
                )
            })
            .collect()
    }

    fn render(&self, cx: &RenderCx<'_>) {
        banner(self.file_id(), self.title());
        let mut rows = Vec::new();
        for (kind, h) in TraceKind::ALL.into_iter().zip(self.headlines()) {
            let g = h.eval_under(cx.sweep, &h.base_trace);
            println!("{:>10}  IPEX speedup over baseline: {g:.4}", kind.name());
            rows.push(SweepRow {
                label: kind.name().to_owned(),
                ipex_speedup: g,
            });
        }
        cx.write(self.file_id(), &rows);
    }
}
