//! Section 6.1: the hardware-overhead accounting for IPEX's registers.

use super::{Figure, RenderCx};
use crate::banner;

pub struct TabHw;

impl Figure for TabHw {
    fn id(&self) -> &'static str {
        "tab_hw"
    }

    fn file_id(&self) -> &'static str {
        "tab_hw_overhead"
    }

    fn title(&self) -> &'static str {
        "IPEX hardware overhead (Section 6.1)"
    }

    fn render(&self, cx: &RenderCx<'_>) {
        banner(self.file_id(), self.title());
        let r = ipex::overhead::report();
        println!(
            "bits per cache:      {} (Rthrottled 32 + Rtotal 32 + Rtr 32 + Ripd 3)",
            r.bits_per_cache
        );
        println!("caches extended:     {}", r.caches);
        println!("total bits:          {} (paper: 198)", r.total_bits);
        println!("added area:          {:.2} um^2", r.added_area_um2);
        println!(
            "core area:           {:.2} mm^2 (CACTI, 45 nm)",
            r.core_area_mm2
        );
        println!(
            "core-area overhead:  {:.4}% (paper: 0.0018%)",
            r.core_area_percent
        );
        cx.write(self.file_id(), &r);
    }
}
