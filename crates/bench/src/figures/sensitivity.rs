//! The §6.7 sensitivity studies and the design-choice ablations: all of
//! them are the same experiment — a labelled list of configuration
//! mutators, each evaluated as IPEX-over-baseline gmean speedup — so
//! one [`Sensitivity`] figure type covers the lot.

use ehs_energy::CapacitorConfig;
use ehs_mem::{NvmConfig, NvmTech, DEFAULT_NVM_BYTES};
use ehs_sim::prelude::*;
use ipex::{IpexConfig, PolicyConfig};

use super::{ipex_pair, rfhome, speedup_headline, Figure, Headline, RenderCx};
use crate::{banner, SweepPoint, SweepRow};

/// A sensitivity sweep: for each `(label, mutator)` point the baseline
/// and IPEX(both) configurations are both transformed by the mutator
/// and the suite gmean speedup between them is reported.
pub struct Sensitivity {
    short: &'static str,
    file: &'static str,
    title: &'static str,
    sweep_points: fn() -> Vec<SweepPoint>,
}

impl Figure for Sensitivity {
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
        (self.sweep_points)()
            .iter()
            .map(|(label, m)| {
                let (base, ipex) = ipex_pair(m);
                speedup_headline(label.clone(), rfhome(), base, ipex)
            })
            .collect()
    }

    fn render(&self, cx: &RenderCx<'_>) {
        banner(self.file, self.title);
        let mut rows = Vec::new();
        for h in self.headlines() {
            let s = h.eval_under(cx.sweep, &h.base_trace);
            println!("{:>12}  IPEX speedup over baseline: {s:.4}", h.label);
            rows.push(SweepRow {
                label: h.label,
                ipex_speedup: s,
            });
        }
        cx.write(self.file, &rows);
    }
}

/// Applies an IPEX-parameter override to every IPEX-throttled mode of a
/// configuration, leaving other modes (the baseline) untouched.
fn set_ipex(c: &mut SimConfig, ic: IpexConfig) {
    for mode in [&mut c.inst_mode, &mut c.data_mode] {
        if let PrefetchMode::Policy(PolicyConfig::Ipex(cfg)) = mode {
            *cfg = ic;
        }
    }
}

fn fig16_points() -> Vec<SweepPoint> {
    (1u32..=3)
        .map(|k| {
            let label = format!("{k} threshold(s)");
            let f: Box<dyn Fn(&mut SimConfig) + Sync> =
                Box::new(move |c| set_ipex(c, IpexConfig::with_threshold_count(k)));
            (label, f)
        })
        .collect()
}

/// Figure 16: sensitivity to the number of IPEX voltage thresholds.
pub static FIG16: Sensitivity = Sensitivity {
    short: "fig16",
    file: "fig16_threshold_count",
    title: "voltage-threshold count (paper: 2 is best)",
    sweep_points: fig16_points,
};

fn fig17_points() -> Vec<SweepPoint> {
    [2usize, 4, 8]
        .into_iter()
        .map(|entries| {
            let label = format!("{} B ({entries} entries)", entries * 16);
            let f: Box<dyn Fn(&mut SimConfig) + Sync> = Box::new(move |c| {
                c.prefetch_buffer_entries = entries;
            });
            (label, f)
        })
        .collect()
}

/// Figure 17: sensitivity to the prefetch-buffer size (32/64/128 B).
pub static FIG17: Sensitivity = Sensitivity {
    short: "fig17",
    file: "fig17_prefetch_buffer",
    title: "prefetch-buffer size (paper default: 64 B)",
    sweep_points: fig17_points,
};

fn fig18_points() -> Vec<SweepPoint> {
    [256u32, 512, 1024, 2048, 4096, 8192]
        .into_iter()
        .map(|s| {
            let label = if s < 1024 {
                format!("{s} B")
            } else {
                format!("{} kB", s / 1024)
            };
            let f: Box<dyn Fn(&mut SimConfig) + Sync> = Box::new(move |c| {
                *c = c.clone().with_cache_size(s);
            });
            (label, f)
        })
        .collect()
}

/// Figure 18: sensitivity to cache size (256 B - 8 kB).
pub static FIG18: Sensitivity = Sensitivity {
    short: "fig18",
    file: "fig18_cache_size",
    title: "cache size (paper: gains shrink as caches grow)",
    sweep_points: fig18_points,
};

fn fig19_points() -> Vec<SweepPoint> {
    [1u32, 2, 4, 8]
        .into_iter()
        .map(|a| {
            let label = format!("{a}-way");
            let f: Box<dyn Fn(&mut SimConfig) + Sync> = Box::new(move |c| {
                c.icache.assoc = a;
                c.dcache.assoc = a;
            });
            (label, f)
        })
        .collect()
}

/// Figure 19: sensitivity to cache associativity (1-8 ways).
pub static FIG19: Sensitivity = Sensitivity {
    short: "fig19",
    file: "fig19_associativity",
    title: "cache associativity (paper: 4.89%-8.96% across)",
    sweep_points: fig19_points,
};

fn fig20_points() -> Vec<SweepPoint> {
    [2u64, 4, 8, 16, 32]
        .into_iter()
        .map(|mb| {
            let label = format!("{mb} MB");
            let f: Box<dyn Fn(&mut SimConfig) + Sync> = Box::new(move |c| {
                c.nvm = NvmConfig::for_tech(NvmTech::ReRam, mb << 20);
            });
            (label, f)
        })
        .collect()
}

/// Figure 20: sensitivity to main-memory capacity (2-32 MB); larger
/// arrays have higher latency and per-access energy.
pub static FIG20: Sensitivity = Sensitivity {
    short: "fig20",
    file: "fig20_memory_size",
    title: "main-memory size (paper: gain grows with size)",
    sweep_points: fig20_points,
};

fn fig21_points() -> Vec<SweepPoint> {
    NvmTech::ALL
        .into_iter()
        .map(|tech| {
            let label = tech.name().to_owned();
            let f: Box<dyn Fn(&mut SimConfig) + Sync> = Box::new(move |c| {
                c.nvm = NvmConfig::for_tech(tech, DEFAULT_NVM_BYTES);
            });
            (label, f)
        })
        .collect()
}

/// Figure 21: sensitivity to NVM technology (ReRAM / STT-RAM / PCM).
pub static FIG21: Sensitivity = Sensitivity {
    short: "fig21",
    file: "fig21_nvm_tech",
    title: "NVM technology (paper: slower NVM => bigger gain)",
    sweep_points: fig21_points,
};

fn fig22_points() -> Vec<SweepPoint> {
    [0.47f64, 1.0, 4.7, 10.0, 47.0, 100.0, 1000.0]
        .into_iter()
        .map(|uf| {
            let label = format!("{uf} uF");
            let f: Box<dyn Fn(&mut SimConfig) + Sync> = Box::new(move |c| {
                c.capacitor = CapacitorConfig::with_capacitance_uf(uf);
            });
            (label, f)
        })
        .collect()
}

/// Figure 22: sensitivity to capacitor size (0.47-1000 uF); larger
/// capacitors mean longer power cycles and fewer IPEX opportunities.
pub static FIG22: Sensitivity = Sensitivity {
    short: "fig22",
    file: "fig22_capacitor_size",
    title: "capacitor size (paper: gain shrinks as C grows)",
    sweep_points: fig22_points,
};

fn fig24_points() -> Vec<SweepPoint> {
    [0.05f64, 0.10, 0.15]
        .into_iter()
        .map(|step| {
            let label = format!("{step:.2} V");
            let f: Box<dyn Fn(&mut SimConfig) + Sync> = Box::new(move |c| {
                set_ipex(
                    c,
                    IpexConfig {
                        voltage_step_v: step,
                        ..IpexConfig::paper_default()
                    },
                );
            });
            (label, f)
        })
        .collect()
}

/// Figure 24: sensitivity to the adaptive threshold step size.
pub static FIG24: Sensitivity = Sensitivity {
    short: "fig24",
    file: "fig24_voltage_step",
    title: "voltage step size (paper: 0.05 V is best)",
    sweep_points: fig24_points,
};

fn fig25_points() -> Vec<SweepPoint> {
    [0.01f64, 0.05, 0.10, 0.20]
        .into_iter()
        .map(|rate| {
            let label = format!("{:.0}%", rate * 100.0);
            let f: Box<dyn Fn(&mut SimConfig) + Sync> = Box::new(move |c| {
                set_ipex(
                    c,
                    IpexConfig {
                        throttle_rate_threshold: rate,
                        ..IpexConfig::paper_default()
                    },
                );
            });
            (label, f)
        })
        .collect()
}

/// Figure 25: sensitivity to the throttling-rate threshold that gates
/// the adaptive voltage-threshold update.
pub static FIG25: Sensitivity = Sensitivity {
    short: "fig25",
    file: "fig25_throttle_rate",
    title: "throttle-rate threshold (paper: 5% is best)",
    sweep_points: fig25_points,
};

fn ablation_points() -> Vec<SweepPoint> {
    let variants: Vec<(&str, IpexConfig)> = vec![
        ("adaptive (default)", IpexConfig::paper_default()),
        (
            "fixed thresholds",
            IpexConfig {
                adaptive_thresholds: false,
                ..IpexConfig::paper_default()
            },
        ),
        (
            "reissue extension",
            IpexConfig {
                reissue_throttled: true,
                ..IpexConfig::paper_default()
            },
        ),
        (
            "fixed + reissue",
            IpexConfig {
                adaptive_thresholds: false,
                reissue_throttled: true,
                ..IpexConfig::paper_default()
            },
        ),
    ];
    variants
        .into_iter()
        .map(|(label, ic)| {
            let f: Box<dyn Fn(&mut SimConfig) + Sync> = Box::new(move |c| set_ipex(c, ic));
            (label.to_owned(), f)
        })
        .collect()
}

/// Design-choice ablations called out in DESIGN.md (beyond the paper's
/// own figures): fixed vs adaptive thresholds, and the Section 5.1
/// reissue-on-recovery extension (the paper's future work).
pub static ABLATIONS: Sensitivity = Sensitivity {
    short: "ablations",
    file: "ablations",
    title: "IPEX design ablations",
    sweep_points: ablation_points,
};
