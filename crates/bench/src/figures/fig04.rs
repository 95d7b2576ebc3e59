//! Figure 4: the analytic minimum useful-prefetch probability P
//! (Inequality 4) versus E_prefetch for several E_leak values.

use ehs_energy::min_useful_probability;
use serde::Serialize;

use super::{Figure, RenderCx};
use crate::banner;

pub struct Fig04;

impl Figure for Fig04 {
    fn id(&self) -> &'static str {
        "fig04"
    }

    fn file_id(&self) -> &'static str {
        "fig04_min_probability"
    }

    fn title(&self) -> &'static str {
        "minimum useful-prefetch probability (Eq. 1-4)"
    }

    fn render(&self, cx: &RenderCx<'_>) {
        #[derive(Serialize)]
        struct Row {
            e_leak_pj: f64,
            e_prefetch_pj: f64,
            min_p: f64,
        }

        banner(self.id(), self.title());
        let mut rows = Vec::new();
        for e_leak in [10.0, 20.0, 30.0, 40.0, 50.0] {
            print!("E_leak = {e_leak:>4} pJ: ");
            for e_pf in (0..=100).step_by(10) {
                let p = min_useful_probability(e_pf as f64, e_leak);
                print!("{:>5.1}% ", p * 100.0);
                rows.push(Row {
                    e_leak_pj: e_leak,
                    e_prefetch_pj: e_pf as f64,
                    min_p: p,
                });
            }
            println!();
        }
        cx.write(self.file_id(), &rows);
    }
}
