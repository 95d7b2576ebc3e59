//! The per-layer ledger: where a simulation's host time goes.
//!
//! Each component's real input stream is recorded once and replayed
//! through that component alone, timed:
//!
//! * `isa` — the golden interpreter runs every program to `halt`; its
//!   fetch addresses, data accesses and execution classes are the
//!   streams the other layers replay.
//! * `mem` and `prefetch` — one reference pass per cache path feeds
//!   those streams through cache, prefetch buffer and prefetcher
//!   together and records each one's inputs (accesses, buffer
//!   operations, observed events). Each is then replayed alone.
//! * `core` — capacitor voltages sampled from a running IPEX machine
//!   (`run_until` steps plus `Machine::voltage`), with power failures
//!   and reboots, drive each throttling policy's `observe_voltage` and
//!   `filter` over recorded candidate lists.
//! * `energy` — the capacitor's `consume_nj`, `voltage` and
//!   `needs_backup` per instruction, and trace synthesis.
//! * `sim` — the baseline machine on the same programs. The share of
//!   `Machine::run` time the replayed `isa`, `mem` and `prefetch`
//!   components do not account for is reported as `sim.glue_share`:
//!   batched energy accounting, dispatch, bookkeeping and everything
//!   else no replay isolates.
//! * `sim` snapshots, `sampled` mode and `stats` summaries on a fixed
//!   subset, and a small cold-then-warm sweep over fig02 and tab2 for
//!   the `sweep` and `figures` layers.
//!
//! Replay counts are reconciled with the machine's own statistics (one
//! I-cache access per instruction, one D-cache access per load or
//! store); a mismatch fails the run. The exact counts at the end
//! (miss ratios, prefetch accuracy, power cycles, throttle rate, sweep
//! counters) depend only on the code and the seed, so a change that is
//! meant only to be faster must leave them unchanged.

use std::hint::black_box;
use std::time::Instant;

use ehs_bench::sampled::{sampled_report, SampledOptions};
use ehs_bench::stats::Accumulator;
use ehs_energy::{Capacitor, PowerTrace, TraceSpec};
use ehs_isa::{AccessKind, ExecClass, Interpreter, Program, Reg};
use ehs_mem::{Cache, CacheConfig, PrefetchBuffer};
use ehs_prefetch::{AccessEvent, AccessOutcome, AnyPrefetcher, Prefetcher};
use ehs_sim::prelude::*;
use ehs_workloads::Workload;
use ipex::{AnyPolicy, HysteresisConfig, IpexConfig, PolicyConfig, PredictiveConfig};

use crate::host::{self, Scratch};
use crate::metrics::Metrics;
use crate::paper;
use crate::{RunOpts, Tally};

/// Programs for snapshots, sampled mode and voltage streams: the four
/// shortest of the suite, so the ledger stays a small part of a run.
const SUBSET: [&str; 4] = ["gsme", "rijndaeld", "jpegd", "gsmd"];

/// Programs a smoke run's ledger covers (and the first as many of
/// [`SUBSET`]).
const SMOKE_PROGRAMS: usize = 2;

/// Repeats of the short timings (assembly, synthesis, snapshots, ...);
/// each reports the median.
const REPEATS: usize = 5;

/// Nominal cycles between two accesses of one path in the reference
/// pass: the clock prefetch-buffer readiness is measured against.
const CYCLES_PER_ACCESS: u64 = 2;

/// Simulated cycles between two voltage samples.
const VOLT_STEP_CYCLES: u64 = 4;

/// Voltage samples taken per program.
const MAX_VOLT_SAMPLES: usize = 200_000;

/// Candidate lists kept for the policy replays.
const MAX_CANDIDATE_LISTS: usize = 1 << 16;

/// Golden-run step budget; a program still running after it is broken.
const MAX_GOLDEN_STEPS: u64 = 1 << 32;

/// The fixed figures of the sweep probe.
const PROBE_FIGURES: [&str; 2] = ["fig02", "tab2"];

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e9
}

/// Milliseconds of `n` runs of `f`.
fn repeat_ms<R>(n: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// The golden interpreter's streams for one program.
#[derive(Default)]
struct Streams {
    fetch: Vec<u32>,
    /// `(pc, address, is_write)` per load or store.
    data: Vec<(u32, u32, bool)>,
    classes: Vec<ExecClass>,
}

/// Runs the golden interpreter to `halt` twice: once timed, once
/// recording its streams. Returns the streams and the timed run's
/// nanoseconds.
fn golden(program: &Program, mem_bytes: usize) -> Result<(Streams, f64), String> {
    let mut it = Interpreter::with_mem_size(program, mem_bytes);
    let t = Instant::now();
    while !it.halted() && it.executed() < MAX_GOLDEN_STEPS {
        black_box(it.step().map_err(|e| e.to_string())?);
    }
    let ns = elapsed_ns(t);
    if !it.halted() {
        return Err("golden run did not halt".to_owned());
    }
    let mut it = Interpreter::with_mem_size(program, mem_bytes);
    let mut s = Streams::default();
    while !it.halted() {
        let step = it.step().map_err(|e| e.to_string())?;
        s.fetch.push(step.pc);
        s.classes.push(step.class);
        if let Some(a) = step.access {
            s.data.push((step.pc, a.addr, a.kind == AccessKind::Write));
        }
    }
    Ok((s, ns))
}

#[derive(Clone, Copy)]
enum BufOp {
    Lookup(u32, u64),
    Insert(u32, u64),
}

/// One cache path's recorded component inputs.
#[derive(Default)]
struct PathInputs {
    events: Vec<AccessEvent>,
    buf_ops: Vec<BufOp>,
}

/// Non-empty prefetch candidate lists, flattened.
#[derive(Default)]
struct CandidateLists {
    flat: Vec<u32>,
    ends: Vec<usize>,
}

impl CandidateLists {
    /// The `i`-th list, cycling; empty when nothing was recorded.
    fn get(&self, i: usize) -> &[u32] {
        if self.ends.is_empty() {
            return &[];
        }
        let i = i % self.ends.len();
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.flat[start..self.ends[i]]
    }
}

fn build_prefetcher(cfg: &SimConfig, inst: bool) -> AnyPrefetcher {
    if inst {
        cfg.inst_prefetcher.build_any(cfg.prefetch_degree)
    } else {
        cfg.data_prefetcher.build_any(cfg.prefetch_degree)
    }
}

/// The reference pass of one path: cache probe and fill, buffer lookup
/// on a miss, prefetcher observe, buffer insert of each candidate not
/// already cached — the machine's order — recording each component's
/// inputs.
fn record_path(
    cfg: &SimConfig,
    inst: bool,
    accesses: impl Iterator<Item = (u32, u32, bool)>,
    lists: &mut CandidateLists,
) -> PathInputs {
    let mut cache = Cache::new(if inst { cfg.icache } else { cfg.dcache });
    let mut buf = PrefetchBuffer::new(cfg.prefetch_buffer_entries);
    let mut pf = build_prefetcher(cfg, inst);
    let mut rec = PathInputs::default();
    let mut cand = Vec::new();
    for (k, (pc, addr, is_write)) in accesses.enumerate() {
        let now = k as u64 * CYCLES_PER_ACCESS;
        let outcome = if cache.access(addr, is_write) {
            AccessOutcome::CacheHit
        } else {
            rec.buf_ops.push(BufOp::Lookup(addr, now));
            let hit = buf.lookup(addr, now).is_some();
            cache.fill(addr, is_write);
            if hit {
                AccessOutcome::BufferHit
            } else {
                AccessOutcome::Miss
            }
        };
        let event = if inst {
            AccessEvent::fetch(addr, outcome)
        } else {
            AccessEvent::data(pc, addr, outcome, is_write)
        };
        cand.clear();
        pf.observe(&event, &mut cand);
        rec.events.push(event);
        let ready = now + cfg.nvm.read_cycles;
        for &c in &cand {
            if !cache.contains(c) {
                rec.buf_ops.push(BufOp::Insert(c, ready));
                buf.insert(c, ready);
            }
        }
        if !inst && !cand.is_empty() && lists.ends.len() < MAX_CANDIDATE_LISTS {
            lists.flat.extend_from_slice(&cand);
            lists.ends.push(lists.flat.len());
        }
    }
    rec
}

/// Probes (and fills on a miss) every access; returns the nanoseconds.
fn replay_cache(cfg: CacheConfig, accesses: impl Iterator<Item = (u32, bool)>) -> f64 {
    let mut cache = Cache::new(cfg);
    let t = Instant::now();
    for (addr, is_write) in accesses {
        if !cache.access(addr, is_write) {
            black_box(cache.fill(addr, is_write));
        }
    }
    elapsed_ns(t)
}

fn replay_buffer(entries: usize, ops: &[BufOp]) -> f64 {
    let mut buf = PrefetchBuffer::new(entries);
    let t = Instant::now();
    for op in ops {
        match *op {
            BufOp::Lookup(addr, now) => {
                black_box(buf.lookup(addr, now));
            }
            BufOp::Insert(addr, ready) => {
                black_box(buf.insert(addr, ready));
            }
        }
    }
    elapsed_ns(t)
}

/// Replays observed events; returns (ns, candidates proposed).
fn replay_prefetcher(mut pf: AnyPrefetcher, events: &[AccessEvent]) -> (f64, u64) {
    let mut out = Vec::with_capacity(8);
    let mut proposed = 0u64;
    let t = Instant::now();
    for ev in events {
        out.clear();
        pf.observe(ev, &mut out);
        proposed += out.len() as u64;
    }
    (elapsed_ns(t), proposed)
}

/// Draws each instruction's compute energy and checks the backup
/// trigger, recharging to full when it fires.
fn replay_capacitor(cfg: &SimConfig, classes: &[ExecClass]) -> f64 {
    let e = &cfg.energy.compute;
    let mut draw = [e.alu_nj; ExecClass::COUNT];
    draw[ExecClass::Mul.index()] = e.mul_nj;
    draw[ExecClass::Div.index()] = e.div_nj;
    draw[ExecClass::Load.index()] = e.mem_nj;
    draw[ExecClass::Store.index()] = e.mem_nj;
    let mut cap = Capacitor::full(cfg.capacitor);
    let t = Instant::now();
    for c in classes {
        cap.consume_nj(draw[c.index()]);
        black_box(cap.voltage());
        if cap.needs_backup() {
            cap = Capacitor::full(cfg.capacitor);
        }
    }
    elapsed_ns(t)
}

#[derive(Clone, Copy)]
enum VoltEvent {
    Observe(f64),
    PowerFailure,
    Reboot,
}

/// Voltages seen while executing, with the outages between them.
fn voltage_stream(
    cfg: &SimConfig,
    program: &Program,
    trace: &PowerTrace,
) -> Result<Vec<VoltEvent>, SimError> {
    let mut machine = Machine::with_trace(cfg.clone(), program, trace.clone());
    let mut events = Vec::new();
    let mut running = true;
    while events.len() < MAX_VOLT_SAMPLES {
        if let RunStatus::Completed(_) = machine.run_until(machine.cycle() + VOLT_STEP_CYCLES)? {
            break;
        }
        let now_running = matches!(machine.phase(), Phase::Run);
        match (running, now_running) {
            (true, false) => events.push(VoltEvent::PowerFailure),
            (false, true) => events.push(VoltEvent::Reboot),
            _ => {}
        }
        running = now_running;
        if running {
            events.push(VoltEvent::Observe(machine.voltage()));
        }
    }
    Ok(events)
}

/// Replays a voltage stream through one policy; returns (ns, observes).
fn replay_policy(
    mut policy: AnyPolicy,
    events: &[VoltEvent],
    lists: &CandidateLists,
) -> (f64, u64) {
    let mut scratch: Vec<u32> = Vec::with_capacity(8);
    let mut observes = 0u64;
    let t = Instant::now();
    for ev in events {
        match *ev {
            VoltEvent::Observe(v) => {
                black_box(policy.observe_voltage(v));
                scratch.clear();
                scratch.extend_from_slice(lists.get(observes as usize));
                black_box(policy.filter(&mut scratch));
                observes += 1;
            }
            VoltEvent::PowerFailure => policy.on_power_failure(),
            VoltEvent::Reboot => policy.on_reboot(),
        }
    }
    (elapsed_ns(t), observes)
}

/// Running totals over the suite.
#[derive(Default)]
struct Totals {
    steps: u64,
    isa_ns: f64,
    icache_ns: f64,
    dcache_ns: f64,
    pbuf_ns: f64,
    pbuf_ops: u64,
    pf_ns: f64,
    observes: u64,
    proposed: u64,
    cap_ns: f64,
    run_ns: f64,
    instructions: u64,
    cycles: u64,
    new_ms: Vec<f64>,
    icache_access: u64,
    icache_miss: u64,
    dcache_access: u64,
    dcache_miss: u64,
    pf_useful: u64,
    pf_settled: u64,
    power_cycles: u64,
    throttled: u64,
    throttle_base: u64,
}

/// Measures every per-layer metric except the trace's own, at the run's
/// seed, and reconciles the replays with the machine's statistics.
pub fn measure(opts: &RunOpts, m: &mut Metrics, tally: &mut Tally) {
    let t_ledger = Instant::now();
    let programs: &[Workload] = if opts.smoke {
        &ehs_workloads::SUITE[..SMOKE_PROGRAMS]
    } else {
        &ehs_workloads::SUITE
    };
    let subset: Vec<&Workload> = SUBSET[..programs.len().min(SUBSET.len())]
        .iter()
        .map(|n| ehs_workloads::by_name(n).expect("subset program exists"))
        .collect();
    let spec = TraceSpec::default_rfhome().with_seed(opts.seed);
    let base = SimConfig::builder().build();
    let ipex_both = SimConfig::builder().ipex(Ipex::Both).build();

    m.set_median(
        "workloads.assemble_ms",
        &repeat_ms(REPEATS, || programs.iter().map(Workload::program).count()),
    );
    m.set_median(
        "energy.trace_synth_ms",
        &repeat_ms(REPEATS, || spec.synthesize()),
    );
    let trace = spec.synthesize();

    let mut t = Totals::default();
    let mut lists = CandidateLists::default();
    for w in programs {
        per_program(w, &base, &ipex_both, &trace, &mut t, &mut lists, tally);
    }
    let n = |x: u64| x.max(1) as f64;
    m.set("isa.ns_per_step", t.isa_ns / n(t.steps));
    m.set("mem.icache_ns_per_access", t.icache_ns / n(t.icache_access));
    m.set("mem.dcache_ns_per_access", t.dcache_ns / n(t.dcache_access));
    m.set("mem.pbuf_ns_per_op", t.pbuf_ns / n(t.pbuf_ops));
    m.set("prefetch.ns_per_observe", t.pf_ns / n(t.observes));
    m.set(
        "prefetch.candidates_per_observe",
        t.proposed as f64 / n(t.observes),
    );
    m.set("energy.capacitor_ns_per_obs", t.cap_ns / n(t.steps));
    m.set("sim.ns_per_instr", t.run_ns / n(t.instructions));
    m.set_median("sim.machine_new_ms", &t.new_ms);
    // The capacitor replay is the exact path (`voltage` and the backup
    // check on every instruction); the baseline machine batches those,
    // so its energy accounting stays in the unattributed remainder.
    let replayed = t.isa_ns + t.icache_ns + t.dcache_ns + t.pbuf_ns + t.pf_ns;
    m.set("sim.glue_share", 1.0 - replayed / t.run_ns.max(1.0));
    m.set(
        "mem.icache_miss_ratio",
        t.icache_miss as f64 / n(t.icache_access),
    );
    m.set(
        "mem.dcache_miss_ratio",
        t.dcache_miss as f64 / n(t.dcache_access),
    );
    m.set("prefetch.accuracy", t.pf_useful as f64 / n(t.pf_settled));
    m.set("sim.power_cycles", t.power_cycles as f64);
    m.set(
        "core.throttle_rate",
        t.throttled as f64 / n(t.throttle_base),
    );

    policies(&subset, &ipex_both, &trace, &lists, m, tally);
    snapshots(&subset, &base, &trace, m, tally);
    sampled(&subset, &base, &trace, m, tally);
    summaries(m);
    let single_thread_mcps = t.cycles as f64 / (t.run_ns / 1e3).max(1.0);
    sweep_probe(opts, single_thread_mcps, m, tally);
    println!(
        "[ehs_benchmark] ledger measured in {:.1} s",
        t_ledger.elapsed().as_secs_f64()
    );
}

/// Golden run, reference passes, replays and machine runs of one
/// program.
fn per_program(
    w: &Workload,
    base: &SimConfig,
    ipex_both: &SimConfig,
    trace: &PowerTrace,
    t: &mut Totals,
    lists: &mut CandidateLists,
    tally: &mut Tally,
) {
    let name = w.name();
    let program = w.program();
    let (s, isa_ns) = match golden(&program, base.nvm.size_bytes as usize) {
        Ok(g) => g,
        Err(e) => {
            tally.gate(false, || format!("{name}: {e}"));
            return;
        }
    };
    t.steps += s.fetch.len() as u64;
    t.isa_ns += isa_ns;

    let ipath = record_path(base, true, s.fetch.iter().map(|&pc| (pc, pc, false)), lists);
    let dpath = record_path(base, false, s.data.iter().copied(), lists);

    t.icache_ns += replay_cache(base.icache, s.fetch.iter().map(|&pc| (pc, false)));
    t.dcache_ns += replay_cache(base.dcache, s.data.iter().map(|&(_, a, w)| (a, w)));
    for path in [&ipath, &dpath] {
        t.pbuf_ns += replay_buffer(base.prefetch_buffer_entries, &path.buf_ops);
        t.pbuf_ops += path.buf_ops.len() as u64;
    }
    for (path, inst) in [(&ipath, true), (&dpath, false)] {
        let (ns, proposed) = replay_prefetcher(build_prefetcher(base, inst), &path.events);
        t.pf_ns += ns;
        t.proposed += proposed;
        t.observes += path.events.len() as u64;
    }
    t.cap_ns += replay_capacitor(base, &s.classes);

    let start = Instant::now();
    let mut machine = Machine::with_trace(base.clone(), &program, trace.clone());
    t.new_ms.push(start.elapsed().as_secs_f64() * 1e3);
    let start = Instant::now();
    let outcome = machine.run();
    t.run_ns += elapsed_ns(start);
    let r = match outcome {
        Ok(r) => r,
        Err(e) => {
            tally.gate(false, || format!("{name}: {e}"));
            return;
        }
    };
    tally.gate(machine.reg(Reg::A0) == w.reference_checksum(), || {
        format!("{name}: wrong checksum in a0")
    });
    // The replays saw exactly the machine's accesses: one fetch per
    // instruction, one data access per load or store.
    let reconciled = r.icache.accesses == s.fetch.len() as u64
        && r.dcache.accesses == s.data.len() as u64
        && r.stats.instructions == s.fetch.len() as u64;
    tally.gate(reconciled, || {
        format!(
            "{name}: replay counts (fetch {}, data {}) differ from the machine's \
             (I-cache {}, D-cache {}, instructions {})",
            s.fetch.len(),
            s.data.len(),
            r.icache.accesses,
            r.dcache.accesses,
            r.stats.instructions
        )
    });
    t.instructions += r.stats.instructions;
    t.cycles += r.stats.total_cycles;
    t.icache_access += r.icache.accesses;
    t.icache_miss += r.icache.misses;
    t.dcache_access += r.dcache.accesses;
    t.dcache_miss += r.dcache.misses;
    t.pf_useful += r.ibuf.useful + r.dbuf.useful;
    t.pf_settled += r.ibuf.useful + r.ibuf.useless() + r.dbuf.useful + r.dbuf.useless();
    t.power_cycles += r.stats.power_cycles;

    // Throttle rate under IPEX, its base counted independently by the
    // machine's event sink.
    let sink = CountingSink::new();
    let mut machine = Machine::with_trace(ipex_both.clone(), &program, trace.clone());
    machine.set_trace_sink(Box::new(sink.clone()));
    match machine.run() {
        Ok(r) => {
            let (i, d) = (r.ipex_i.unwrap_or_default(), r.ipex_d.unwrap_or_default());
            let throttled = i.throttled + d.throttled;
            let counted = sink.counts().prefetch_throttled;
            tally.gate(counted == throttled, || {
                format!("{name}: {counted} throttle events traced, {throttled} counted by IPEX")
            });
            t.throttled += counted;
            t.throttle_base += throttled + i.issued + d.issued;
        }
        Err(e) => tally.gate(false, || format!("{name} (IPEX): {e}")),
    }
}

fn policies(
    subset: &[&Workload],
    ipex_both: &SimConfig,
    trace: &PowerTrace,
    lists: &CandidateLists,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let mut events = Vec::new();
    for w in subset {
        match voltage_stream(ipex_both, &w.program(), trace) {
            Ok(e) => events.extend(e),
            Err(e) => tally.gate(false, || format!("{}: voltage stream: {e}", w.name())),
        }
    }
    let roster: [(&'static str, AnyPolicy); 3] = [
        (
            "core.ipex_ns_per_observe",
            AnyPolicy::ipex(IpexConfig::paper_default()),
        ),
        (
            "core.predictive_ns_per_observe",
            PolicyConfig::Predictive(PredictiveConfig::paper_default()).build(),
        ),
        (
            "core.hysteresis_ns_per_observe",
            PolicyConfig::Hysteresis(HysteresisConfig::paper_default()).build(),
        ),
    ];
    for (metric, policy) in roster {
        let (ns, observes) = replay_policy(policy, &events, lists);
        m.set(metric, ns / observes.max(1) as f64);
    }
}

fn snapshots(
    subset: &[&Workload],
    base: &SimConfig,
    trace: &PowerTrace,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let (mut snap_ms, mut resume_ms, mut kb) = (Vec::new(), Vec::new(), Vec::new());
    for w in subset {
        let program = w.program();
        let mut machine = Machine::with_trace(base.clone(), &program, trace.clone());
        // Half-way through the run, as a checkpoint or sampled window
        // would catch it.
        let half = match Machine::with_trace(base.clone(), &program, trace.clone()).run() {
            Ok(r) => r.stats.total_cycles / 2,
            Err(e) => {
                tally.gate(false, || format!("{}: {e}", w.name()));
                continue;
            }
        };
        if let Err(e) = machine.run_until(half) {
            tally.gate(false, || format!("{}: {e}", w.name()));
            continue;
        }
        let mut snap = None;
        snap_ms.extend(repeat_ms(REPEATS, || {
            snap = Some(machine.snapshot(&program))
        }));
        let snap = snap.expect("at least one snapshot");
        kb.push(snap.to_json().len() as f64 / 1024.0);
        let mut resumed_ok = true;
        resume_ms.extend(repeat_ms(REPEATS, || {
            resumed_ok &= Machine::resume(&snap, &program, trace.clone()).is_ok();
        }));
        tally.gate(resumed_ok, || {
            format!("{}: snapshot does not resume", w.name())
        });
    }
    m.set_median("sim.snapshot_ms", &snap_ms);
    m.set_median("sim.resume_ms", &resume_ms);
    m.set_median("sim.snapshot_kb", &kb);
}

fn sampled(
    subset: &[&Workload],
    base: &SimConfig,
    trace: &PowerTrace,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let opts = SampledOptions::default();
    let mut report_s = 0.0;
    for w in subset {
        let t = Instant::now();
        match sampled_report(w, base, trace, &opts) {
            Ok(rep) => {
                report_s += t.elapsed().as_secs_f64();
                tally.gate(rep.windows > 0, || {
                    format!("{}: sampled mode measured no window", w.name())
                });
            }
            Err(e) => tally.gate(false, || format!("{}: sampled report: {e}", w.name())),
        }
    }
    m.set("sampled.report_s", report_s);
}

/// `Accumulator::summary` (with its 2000-resample bootstrap) over 64
/// samples, as a seed-sweep headline would have.
fn summaries(m: &mut Metrics) {
    let mut x = 0x2545_f491_u64;
    let acc = Accumulator::from_pairs((0..64u64).map(|tag| {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        (tag, 1.0 + (x >> 40) as f64 / (1u64 << 24) as f64)
    }));
    let us: Vec<f64> = repeat_ms(4 * REPEATS, || acc.summary())
        .into_iter()
        .map(|ms| ms * 1e3)
        .collect();
    m.set_median("stats.summary_us", &us);
}

/// A cold then warm sweep over the probe figures in a scratch cache.
fn sweep_probe(opts: &RunOpts, single_thread_mcps: f64, m: &mut Metrics, tally: &mut Tally) {
    let registry: Vec<_> = ehs_bench::figures::REGISTRY.to_vec();
    m.set_median(
        "sweep.points_ms",
        &repeat_ms(REPEATS, || paper::points(&registry)),
    );

    let figs: Vec<_> = PROBE_FIGURES
        .iter()
        .map(|id| ehs_bench::figures::by_id(id).expect("probe figure is registered"))
        .collect();
    let scratch = match Scratch::new("ledger-sweep") {
        Ok(s) => s,
        Err(e) => {
            tally.gate(false, || format!("cannot create a scratch directory: {e}"));
            return;
        }
    };
    let cache = scratch.path().join("cache");
    let out_dir = scratch.path().join("out");
    let (pts, unique) = paper::points(&figs);
    let jobs = opts.host.jobs;

    let cold = paper::sweep_over(&cache, jobs);
    let t = Instant::now();
    let results = cold.request(pts.clone()).wait();
    let simulate_s = t.elapsed().as_secs_f64();
    let cx = ehs_bench::figures::RenderCx {
        sweep: &cold,
        out_dir: out_dir.clone(),
    };
    let t = Instant::now();
    for f in &figs {
        f.render(&cx);
    }
    let render_s = t.elapsed().as_secs_f64();
    let bad = paper::mismatched_files(&figs, &out_dir);
    tally.gate(bad.is_empty(), || {
        format!("sweep probe: files differ: {bad:?}")
    });

    let warm = paper::sweep_over(&cache, jobs);
    let t = Instant::now();
    let reloaded = warm.request(pts).wait();
    let load_s = t.elapsed().as_secs_f64();

    let (c, h) = (cold.stats(), warm.stats());
    let ok = results.iter().all(Result::is_ok)
        && reloaded == results
        && c.simulated == unique as u64
        && h.simulated == 0
        && h.disk_hits == unique as u64;
    tally.gate(ok, || {
        format!(
            "sweep probe: {unique} unique, cold simulated {}, warm simulated {} with {} disk hits",
            c.simulated, h.simulated, h.disk_hits
        )
    });
    let mcps = c.cycles_simulated as f64 / simulate_s / 1e6;
    m.set("sweep.simulate_s", simulate_s);
    m.set("sweep.load_s", load_s);
    m.set("sweep.mcycles_per_s", mcps);
    m.set(
        "sweep.scaling_eff",
        mcps / (jobs as f64 * single_thread_mcps),
    );
    m.set("figures.render_s", render_s);
    m.set("sweep.simulated", c.simulated as f64);
    m.set("sweep.disk_hits", h.disk_hits as f64);
    m.set("sweep.memo_hits", (c.memo_hits + h.memo_hits) as f64);
    m.set("sweep.resumed", c.resumed as f64);
    m.set("sweep.cycles_simulated", c.cycles_simulated as f64);
    m.set(
        "sweep.cache_mb",
        host::dir_bytes(&cache) as f64 / (1024.0 * 1024.0),
    );
}
