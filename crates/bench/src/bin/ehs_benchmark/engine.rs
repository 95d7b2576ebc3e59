//! The engine workloads: every program of the suite on a fresh machine
//! under two configurations, one thread, one power trace made from the
//! seed.
//!
//! A pass simulates the 40 points in suite order; each point is
//! `Machine::with_trace` + `Machine::run`, timed on its own, and follows
//! a chunk of the reference computation, so the pass's reference time
//! covers the same seconds of the host as its own time. Every pass
//! folds the canonical JSON of its results into one FNV-1a chain (the
//! `core_bench` digest), which must repeat exactly from pass to pass
//! and, at the default seed, equal the pinned value. Every point must
//! also leave the program's reference checksum in `a0`.

use std::time::Instant;

use ehs_energy::{PowerTrace, TraceSpec};
use ehs_isa::{Program, Reg};
use ehs_sim::prelude::*;
use ehs_workloads::Workload;
use ipex::{HysteresisConfig, PolicyConfig, PredictiveConfig};

use crate::host;
use crate::metrics::Metrics;
use crate::reference::Reference;
use crate::spans::Spans;
use crate::stats;
use crate::{RunOpts, SetupTimer, Tally, DEFAULT_SEED};

/// Programs a smoke run simulates per configuration.
const SMOKE_PROGRAMS: usize = 2;

/// Set-ups per `setup_s` sample (one set-up takes about 15 ms).
const SETUP_BATCH: usize = 8;

/// FNV-1a 64 offset basis: the start of every digest chain.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One engine workload.
pub struct Spec {
    pub name: &'static str,
    configs: fn() -> [SimConfig; 2],
    /// Result digest of a full pass at [`DEFAULT_SEED`].
    digest: u64,
    /// Result digest of a smoke pass at [`DEFAULT_SEED`].
    smoke_digest: u64,
}

/// Baseline and IPEX on both caches: the `core_bench` suite, where
/// voltage observation is batched.
pub const SUITE: Spec = Spec {
    name: "engine_suite",
    configs: || {
        [
            SimConfig::builder().build(),
            SimConfig::builder().ipex(Ipex::Both).build(),
        ]
    },
    digest: 0x18aa_e6b7_4a9a_029d,
    smoke_digest: 0x8db4_9db1_5a76_4a8b,
};

/// Fig. 26's predictive and hysteresis policies on both caches: they
/// are not batching-safe, so every instruction takes the exact
/// voltage-observation path.
pub const EXACT: Spec = Spec {
    name: "engine_exact",
    configs: || {
        [
            SimConfig::builder()
                .throttle_policy(
                    Ipex::Both,
                    PolicyConfig::Predictive(PredictiveConfig::paper_default()),
                )
                .build(),
            SimConfig::builder()
                .throttle_policy(
                    Ipex::Both,
                    PolicyConfig::Hysteresis(HysteresisConfig::paper_default()),
                )
                .build(),
        ]
    },
    digest: 0x8d67_3fd4_36a2_6824,
    smoke_digest: 0xdbe3_029f_bd7a_37da,
};

struct Prog {
    workload: &'static Workload,
    program: Program,
    checksum: u32,
}

/// Everything a pass needs, built once per run (and timed as set-up).
struct Setup {
    programs: Vec<Prog>,
    trace: PowerTrace,
    configs: [SimConfig; 2],
}

fn setup(spec: &Spec, seed: u64, programs: usize) -> Setup {
    Setup {
        programs: ehs_workloads::SUITE[..programs]
            .iter()
            .map(|w| Prog {
                workload: w,
                program: w.program(),
                checksum: w.reference_checksum(),
            })
            .collect(),
        trace: TraceSpec::default_rfhome().with_seed(seed).synthesize(),
        configs: (spec.configs)(),
    }
}

/// Chains `bytes` into an FNV-1a 64 digest.
pub fn fnv1a64(bytes: &[u8], seed: u64) -> u64 {
    bytes.iter().fold(seed, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

struct Pass {
    /// Seconds of the pass, without its reference chunks.
    wall_s: f64,
    /// Mean seconds of the pass's reference chunks.
    chunk_s: f64,
    point_ms: Vec<f64>,
    instructions: u64,
    digest: u64,
    bad_points: u64,
}

fn run_pass(s: &Setup, reference: &mut Reference, spans: &mut Spans, label: &str) -> Pass {
    let mut pass = Pass {
        wall_s: 0.0,
        chunk_s: 0.0,
        point_ms: Vec::with_capacity(2 * s.programs.len()),
        instructions: 0,
        digest: FNV_OFFSET,
        bad_points: 0,
    };
    let t0 = Instant::now();
    spans.enter("engine.pass", label);
    for p in &s.programs {
        for cfg in &s.configs {
            let name = p.workload.name();
            spans.enter("reference.chunk", name);
            pass.chunk_s += reference.chunk();
            spans.exit();
            let t = Instant::now();
            spans.enter("sim.machine_new", name);
            let mut machine = Machine::with_trace(cfg.clone(), &p.program, s.trace.clone());
            spans.exit();
            spans.enter("sim.run", name);
            let outcome = machine.run();
            spans.exit();
            pass.point_ms.push(t.elapsed().as_secs_f64() * 1e3);
            spans.enter("engine.check", name);
            match outcome {
                Ok(r) => {
                    let json = ehs_sim::canon::canonical_json(&r);
                    pass.digest = fnv1a64(json.as_bytes(), pass.digest);
                    pass.instructions += r.stats.instructions;
                    if machine.reg(Reg::A0) != p.checksum {
                        eprintln!("[ehs_benchmark] {name}: wrong checksum in a0");
                        pass.bad_points += 1;
                    }
                }
                Err(e) => {
                    eprintln!("[ehs_benchmark] {name}: {e}");
                    pass.digest = fnv1a64(e.to_string().as_bytes(), pass.digest);
                    pass.bad_points += 1;
                }
            }
            spans.exit();
        }
    }
    spans.exit();
    pass.wall_s = t0.elapsed().as_secs_f64() - pass.chunk_s;
    pass.chunk_s /= pass.point_ms.len() as f64;
    pass
}

/// Failed operations of a run: every operation when the digest check
/// failed (no result of the run can then be trusted), else the points
/// that errored or computed a wrong checksum.
pub fn failures(attempted: u64, bad_points: u64, digest_ok: bool) -> u64 {
    if digest_ok {
        bad_points
    } else {
        attempted
    }
}

/// Runs one engine workload and records its metrics.
pub fn run(spec: &Spec, opts: &RunOpts, spans: &mut Spans, m: &mut Metrics, tally: &mut Tally) {
    let programs = if opts.smoke {
        SMOKE_PROGRAMS
    } else {
        ehs_workloads::SUITE.len()
    };
    let new_setup = || setup(spec, opts.seed, programs);
    let mut reference = Reference::new();
    let mut setup_timer = SetupTimer::new(SETUP_BATCH);
    let s = setup_timer.sample(&mut reference, new_setup);

    // The warm-up pass is checked but not timed; it also fixes the
    // digest every later pass must repeat.
    let warm = run_pass(&s, &mut reference, spans, "warm-up");
    let pinned = match (opts.seed == DEFAULT_SEED, opts.smoke) {
        (true, false) => Some(spec.digest),
        (true, true) => Some(spec.smoke_digest),
        (false, _) => None,
    };
    println!(
        "[ehs_benchmark] {} digest {:016x} (seed {}, {})",
        spec.name,
        warm.digest,
        opts.seed,
        match pinned {
            Some(p) => format!("pinned {p:016x}"),
            None => "pass-to-pass check only".to_owned(),
        }
    );
    let mut digest_ok = pinned.is_none_or(|p| p == warm.digest);
    let mut attempted = warm.point_ms.len() as u64;
    let mut bad_points = warm.bad_points;

    host::reset_peak_rss();
    let (mut walls, mut traced_walls, mut point_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut chunks_s = Vec::new();
    let t0 = Instant::now();
    loop {
        // Traced runs alternate untraced and traced passes so the
        // difference between the two is the tracing overhead.
        let traced = opts.traced && walls.len() > traced_walls.len();
        spans.set_on(traced);
        let label = if traced { "traced" } else { "untraced" };
        let pass = run_pass(&s, &mut reference, spans, label);
        spans.set_on(false);
        digest_ok &= pass.digest == warm.digest;
        attempted += pass.point_ms.len() as u64;
        bad_points += pass.bad_points;
        if traced {
            traced_walls.push(pass.wall_s);
        } else {
            walls.push(pass.wall_s);
            chunks_s.push(pass.chunk_s);
            point_ms.extend(pass.point_ms);
        }
        // One set-up sample after each pass spreads the samples over
        // the run; a short run takes the rest at its end.
        if setup_timer.wants_more() {
            setup_timer.sample(&mut reference, new_setup);
        }
        let enough = !opts.traced || !traced_walls.is_empty();
        if enough && (opts.smoke || t0.elapsed().as_secs_f64() >= opts.seconds) {
            break;
        }
    }
    let peak = host::peak_rss_mb();
    setup_timer.fill(&mut reference, new_setup);

    tally.ops(attempted, failures(attempted, bad_points, digest_ok));
    tally.check(digest_ok, || {
        format!("{}: result digest mismatch", spec.name)
    });

    if opts.traced {
        m.trace_walls(&traced_walls, &walls);
    } else {
        m.set_walls(&walls, &chunks_s);
        m.set_median("setup_s", &setup_timer.samples);
        m.set("peak_rss_mb", peak.unwrap_or(f64::NAN));
    }
    m.info_median("setup_raw_s", "s", &setup_timer.raw);
    let wall = stats::summarize(&walls).median;
    m.info(
        "sim_mips",
        "Minstr/s",
        warm.instructions as f64 / wall / 1e6,
        walls.len(),
    );
    m.info_median("point_ms_p50", "ms", &point_ms);
    if let Some((p, v)) = stats::tail(&point_ms) {
        m.info(format!("point_ms_p{p}"), "ms", v, point_ms.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_digest_fails_every_operation() {
        assert_eq!(failures(800, 0, true), 0);
        assert_eq!(failures(800, 3, true), 3);
        let failed = failures(800, 0, false);
        assert_eq!(failed as f64 / 800.0, 1.0, "failed_frac must be 1");
    }

    #[test]
    fn fnv_chain_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b"", FNV_OFFSET), FNV_OFFSET);
        assert_eq!(fnv1a64(b"a", FNV_OFFSET), 0xaf63_dc4c_8601_ec8c);
        let chained = fnv1a64(b"b", fnv1a64(b"a", FNV_OFFSET));
        assert_eq!(chained, fnv1a64(b"ab", FNV_OFFSET));
    }
}
