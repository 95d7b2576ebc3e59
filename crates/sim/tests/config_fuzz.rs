//! Fuzzes every `SimConfig` field: each draw must either be rejected
//! by `Machine::try_with_trace` with a `ConfigError` or build a machine
//! that runs `run_until(100_000)` without panicking (a `SimError` is an
//! answer, not a failure).
//!
//! Values come from small pools per type: 0, 1, typical values, very
//! large values, and for floats NaN and ±inf. Struct-valued fields
//! (`icache`, `nvm`, `capacitor`, `energy`, a mode's policy) start from
//! the paper defaults and redraw each field with probability ¼. Sizes
//! are not clamped: caches run up to `u32::MAX` bytes and the NVM from
//! 0 to `u64::MAX`, below the program image included, so the size caps
//! in `SimConfig::validate` and the image check in `try_with_trace` are
//! what keep every draw from aborting on allocation or panicking.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ehs_energy::{CapacitorConfig, EnergyModel, PowerTrace};
use ehs_isa::Program;
use ehs_mem::{CacheConfig, NvmConfig, NvmTech};
use ehs_prefetch::{DataPrefetcherKind, InstPrefetcherKind};
use ehs_sim::{Machine, PrefetchMode, SimConfig, TraceMode};
use ipex::{HysteresisConfig, IpexConfig, PolicyConfig, PredictiveConfig, StaticDegreeConfig};
use proptest::prelude::*;

/// SplitMix64 over the case seed: one stream per drawn configuration.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, pool: &[T]) -> T {
        pool[(self.next() % pool.len() as u64) as usize]
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// True with probability ⅛: whether to redraw a field at all, so a
    /// draw changes about two of them.
    fn sometimes(&mut self) -> bool {
        self.next().is_multiple_of(8)
    }

    fn f64(&mut self) -> f64 {
        self.pick(&[
            0.0,
            1.0,
            0.47,
            3.3,
            1e12,
            f64::MAX,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ])
    }

    fn u32(&mut self) -> u32 {
        self.pick(&[0, 1, 2, 4, 5, 8, 64, u32::MAX])
    }

    fn cycles(&mut self) -> u64 {
        self.pick(&[
            0,
            1,
            3,
            12,
            100,
            200,
            1 << 24,
            (1 << 24) + 1,
            1 << 40,
            u64::MAX,
        ])
    }

    /// True with probability ¾: whether a struct field keeps its default.
    fn keep(&mut self) -> bool {
        !self.next().is_multiple_of(4)
    }

    /// `v` or, a quarter of the time, a pool draw.
    fn tweak_f64(&mut self, v: f64) -> f64 {
        if self.keep() {
            v
        } else {
            self.f64()
        }
    }

    fn tweak_u32(&mut self, v: u32) -> u32 {
        if self.keep() {
            v
        } else {
            self.u32()
        }
    }

    fn tweak_cycles(&mut self, v: u64) -> u64 {
        if self.keep() {
            v
        } else {
            self.cycles()
        }
    }

    fn cache(&mut self) -> CacheConfig {
        CacheConfig {
            size_bytes: self.pick(&[
                0,
                1,
                16,
                100,
                1024,
                2048,
                65536,
                1 << 20,
                (1 << 20) + 1024,
                1 << 31,
                u32::MAX,
            ]),
            assoc: self.u32(),
        }
    }

    fn mode(&mut self) -> PrefetchMode {
        match self.next() % 3 {
            0 => PrefetchMode::Off,
            1 => PrefetchMode::Conventional,
            _ => PrefetchMode::Policy(self.policy()),
        }
    }

    fn policy(&mut self) -> PolicyConfig {
        match self.next() % 4 {
            0 => {
                let d = IpexConfig::paper_default();
                PolicyConfig::Ipex(IpexConfig {
                    threshold_count: self.tweak_u32(d.threshold_count),
                    top_threshold_v: self.tweak_f64(d.top_threshold_v),
                    threshold_spacing_v: self.tweak_f64(d.threshold_spacing_v),
                    initial_degree: self.tweak_u32(d.initial_degree),
                    max_degree: self.tweak_u32(d.max_degree),
                    voltage_step_v: self.tweak_f64(d.voltage_step_v),
                    throttle_rate_threshold: self.tweak_f64(d.throttle_rate_threshold),
                    adaptive_thresholds: self.coin(),
                    min_top_threshold_v: self.tweak_f64(d.min_top_threshold_v),
                    max_top_threshold_v: self.tweak_f64(d.max_top_threshold_v),
                    reissue_throttled: self.coin(),
                    reissue_queue_len: self.pick(&[d.reissue_queue_len, 0, 1, 64]),
                })
            }
            1 => {
                let d = PredictiveConfig::paper_default();
                PolicyConfig::Predictive(PredictiveConfig {
                    v_floor: self.tweak_f64(d.v_floor),
                    v_ceil: self.tweak_f64(d.v_ceil),
                    sample_period: self.tweak_u32(d.sample_period),
                    confidence_floor: self.tweak_f64(d.confidence_floor),
                    min_evidence: self.tweak_u32(d.min_evidence),
                    initial_degree: self.tweak_u32(d.initial_degree),
                    count_cap: self.tweak_u32(d.count_cap),
                })
            }
            2 => {
                let d = HysteresisConfig::paper_default();
                PolicyConfig::Hysteresis(HysteresisConfig {
                    alpha: self.tweak_f64(d.alpha),
                    low_v: self.tweak_f64(d.low_v),
                    high_v: self.tweak_f64(d.high_v),
                    low_degree: self.tweak_u32(d.low_degree),
                    initial_degree: self.tweak_u32(d.initial_degree),
                })
            }
            _ => PolicyConfig::StaticDegree(StaticDegreeConfig { degree: self.u32() }),
        }
    }

    /// NVM sizes around every limit: the 16-byte floor, `program`'s
    /// image end, the 1 GiB cap and the 32-bit boundary.
    fn nvm_size(&mut self, program: &Program) -> u64 {
        let image = program.image_end() as u64;
        self.pick(&[
            0,
            1,
            15,
            16,
            4096,
            image - 1,
            image,
            1 << 21,
            1 << 24,
            1 << 30,
            (1 << 30) + 1,
            1 << 32,
            u64::MAX,
        ])
    }

    fn nvm(&mut self, program: &Program) -> NvmConfig {
        let d = NvmConfig::for_tech(self.tech(), self.nvm_size(program));
        NvmConfig {
            read_cycles: self.tweak_cycles(d.read_cycles),
            write_cycles: self.tweak_cycles(d.write_cycles),
            read_nj: self.tweak_f64(d.read_nj),
            write_nj: self.tweak_f64(d.write_nj),
            leak_mw: self.tweak_f64(d.leak_mw),
            active_leak_fraction: self.tweak_f64(d.active_leak_fraction),
            ..d
        }
    }

    fn tech(&mut self) -> NvmTech {
        self.pick(&[NvmTech::ReRam, NvmTech::SttRam, NvmTech::Pcm])
    }

    fn capacitor(&mut self) -> CapacitorConfig {
        let d = CapacitorConfig::paper_default();
        CapacitorConfig {
            capacitance_uf: self.tweak_f64(d.capacitance_uf),
            v_max: self.tweak_f64(d.v_max),
            v_on: self.tweak_f64(d.v_on),
            v_backup: self.tweak_f64(d.v_backup),
            v_min: self.tweak_f64(d.v_min),
        }
    }

    fn energy(&mut self) -> EnergyModel {
        let mut m = EnergyModel::paper_default();
        m.cache_access_nj = self.tweak_f64(m.cache_access_nj);
        m.cache_leak_mw_per_2kb = self.tweak_f64(m.cache_leak_mw_per_2kb);
        m.core_leak_mw = self.tweak_f64(m.core_leak_mw);
        m.compute.alu_nj = self.tweak_f64(m.compute.alu_nj);
        m.compute.mul_nj = self.tweak_f64(m.compute.mul_nj);
        m.compute.div_nj = self.tweak_f64(m.compute.div_nj);
        m.compute.mem_nj = self.tweak_f64(m.compute.mem_nj);
        m.nvff_store_nj_per_bit = self.tweak_f64(m.nvff_store_nj_per_bit);
        m.nvff_restore_nj_per_bit = self.tweak_f64(m.nvff_restore_nj_per_bit);
        m
    }
}

/// The Table-1 defaults with a random subset of fields (each with
/// probability ⅛) redrawn.
fn draw_config(d: &mut Draw, program: &Program) -> SimConfig {
    let mut c = SimConfig::default();
    macro_rules! maybe {
        ($($field:ident).+ = $value:expr) => {
            if d.sometimes() {
                c.$($field).+ = $value;
            }
        };
    }
    maybe!(icache = d.cache());
    maybe!(dcache = d.cache());
    maybe!(prefetch_buffer_entries = d.pick(&[0, 1, 4, 8, 1024, 1025, usize::MAX]));
    maybe!(
        inst_prefetcher = d.pick(&[
            InstPrefetcherKind::None,
            InstPrefetcherKind::Sequential,
            InstPrefetcherKind::Markov,
            InstPrefetcherKind::Tifs,
        ])
    );
    maybe!(
        data_prefetcher = d.pick(&[
            DataPrefetcherKind::None,
            DataPrefetcherKind::Stride,
            DataPrefetcherKind::Ghb,
            DataPrefetcherKind::BestOffset,
        ])
    );
    maybe!(prefetch_degree = d.u32());
    maybe!(inst_mode = d.mode());
    maybe!(data_mode = d.mode());
    maybe!(nvm = d.nvm(program));
    maybe!(nvm.size_bytes = d.nvm_size(program));
    maybe!(capacitor = d.capacitor());
    maybe!(capacitor = CapacitorConfig::with_capacitance_uf(d.f64()));
    maybe!(energy = d.energy());
    maybe!(ideal_backup = d.coin());
    maybe!(restore_cycles = d.cycles());
    maybe!(backup_base_cycles = d.cycles());
    maybe!(max_cycles = d.cycles());
    maybe!(latencies = [d.cycles(), d.cycles(), d.cycles(), d.cycles(), d.cycles()]);
    maybe!(
        trace = if d.coin() {
            TraceMode::Counting
        } else {
            TraceMode::Off
        }
    );
    c
}

proptest! {
    /// Eight drawn configurations per case, 512 in all, each over gsmd
    /// or a three-instruction program: its 12-byte image fits an NVM
    /// below the 16-byte minimum, and on the minimum its first store
    /// lands below address 0.
    #[test]
    fn every_config_draw_is_rejected_or_runs(seed in any::<u64>()) {
        let programs = [
            ehs_workloads::by_name("gsmd").unwrap().program(),
            ehs_isa::asm::assemble(
                ".text\nmain:\n addi sp, sp, -16\n sw ra, 0(sp)\n halt\n",
            )
            .unwrap(),
        ];
        let mut d = Draw(seed);
        for _ in 0..8 {
            let program = &programs[d.pick(&[0, 1])];
            let cfg = draw_config(&mut d, program);
            let trace = PowerTrace::constant_mw(d.pick(&[5.0, 30.0]), 16);
            let drawn = format!("{cfg:?}");
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Ok(mut m) = Machine::try_with_trace(cfg, program, trace) {
                    let _ = m.run_until(100_000);
                }
            }));
            if let Err(panic) = outcome {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                    .unwrap_or_default();
                panic!("seed {seed:#x}: {drawn} panicked: {msg}");
            }
        }
    }
}
