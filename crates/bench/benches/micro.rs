//! Criterion micro-benchmarks for the hot structures of the simulator:
//! the cache tag store, the prefetchers, the functional interpreter and
//! a short end-to-end machine run. These guard the simulator's own
//! performance (a full figure regeneration runs hundreds of simulations).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ehs_energy::PowerTrace;
use ehs_isa::Interpreter;
use ehs_mem::{Cache, CacheConfig, PrefetchBuffer};
use ehs_prefetch::{
    AccessEvent, AccessOutcome, Prefetcher, SequentialPrefetcher, StridePrefetcher,
};
use ehs_sim::{Ipex, Machine, SimConfig, TraceMode};

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache/access_hit", |b| {
        let mut cache = Cache::new(CacheConfig::paper_default());
        cache.fill(0x1000, false);
        b.iter(|| black_box(cache.access(black_box(0x1004), false)));
    });
    c.bench_function("cache/fill_evict", |b| {
        let mut cache = Cache::new(CacheConfig::paper_default());
        let mut addr = 0u32;
        b.iter(|| {
            addr = addr.wrapping_add(16);
            black_box(cache.fill(black_box(addr), true))
        });
    });
}

fn bench_prefetchers(c: &mut Criterion) {
    c.bench_function("prefetch/sequential_observe", |b| {
        let mut p = SequentialPrefetcher::new(2);
        let mut out = Vec::with_capacity(8);
        let mut pc = 0u32;
        b.iter(|| {
            pc = pc.wrapping_add(4);
            out.clear();
            p.observe(&AccessEvent::fetch(pc, AccessOutcome::Miss), &mut out);
            black_box(out.len())
        });
    });
    c.bench_function("prefetch/stride_observe", |b| {
        let mut p = StridePrefetcher::new(2);
        let mut out = Vec::with_capacity(8);
        let mut addr = 0u32;
        b.iter(|| {
            addr = addr.wrapping_add(64);
            out.clear();
            p.observe(
                &AccessEvent::data(0x40, addr, AccessOutcome::Miss, false),
                &mut out,
            );
            black_box(out.len())
        });
    });
    c.bench_function("prefetch/buffer_insert_lookup", |b| {
        let mut buf = PrefetchBuffer::new(4);
        let mut blk = 0u32;
        b.iter(|| {
            blk = blk.wrapping_add(16);
            buf.insert(blk, 10);
            black_box(buf.lookup(blk, 20))
        });
    });
}

fn bench_interpreter(c: &mut Criterion) {
    let program = ehs_workloads::by_name("basicm").unwrap().program();
    c.bench_function("isa/interpreter_1k_steps", |b| {
        b.iter(|| {
            let mut vm = Interpreter::new(&program);
            for _ in 0..1000 {
                vm.step().unwrap();
            }
            black_box(vm.pc())
        });
    });
    c.bench_function("isa/assemble_workload", |b| {
        let src = ehs_workloads::by_name("gsmd").unwrap().source();
        b.iter(|| black_box(ehs_isa::asm::assemble(black_box(&src)).unwrap().len()));
    });
}

/// The dispatch-strategy comparison behind DESIGN.md §8: the same
/// sequential-prefetcher observe stream driven through a `Box<dyn
/// Prefetcher>` (virtual call per event) and through the
/// [`AnyPrefetcher`] enum (match, inlinable). The event pattern
/// advances one block per event so the prefetcher does real work each
/// time rather than hitting its same-block early-out.
fn bench_dispatch(c: &mut Criterion) {
    use ehs_prefetch::InstPrefetcherKind;

    c.bench_function("dispatch/boxed_dyn_observe", |b| {
        let mut p: Box<dyn Prefetcher> = Box::new(SequentialPrefetcher::new(2));
        let mut out = Vec::with_capacity(8);
        let mut pc = 0u32;
        b.iter(|| {
            pc = pc.wrapping_add(16);
            out.clear();
            p.observe(&AccessEvent::fetch(pc, AccessOutcome::Miss), &mut out);
            black_box(out.len())
        });
    });
    c.bench_function("dispatch/enum_observe", |b| {
        let mut p = InstPrefetcherKind::Sequential.build_any(2);
        let mut out = Vec::with_capacity(8);
        let mut pc = 0u32;
        b.iter(|| {
            pc = pc.wrapping_add(16);
            out.clear();
            p.observe(&AccessEvent::fetch(pc, AccessOutcome::Miss), &mut out);
            black_box(out.len())
        });
    });
}

fn bench_machine(c: &mut Criterion) {
    let program = ehs_workloads::by_name("gsmd").unwrap().program();
    let trace = PowerTrace::constant_mw(50.0, 16);
    c.bench_function("sim/machine_60k_cycles", |b| {
        b.iter(|| {
            let mut cfg = SimConfig::builder().ipex(Ipex::Both).build();
            cfg.max_cycles = 60_000;
            let mut m = Machine::with_trace(cfg, &program, trace.clone());
            let _ = m.run(); // hits the cycle budget; that is the point
            black_box(m.result().stats.instructions)
        });
    });
}

/// The tracing cost contract: `sim/machine_60k_cycles` above runs with
/// tracing compiled in but off ([`TraceMode::Off`] is the default), and
/// must stay within 2% of the pre-tracing simulator. These two variants
/// measure the additional cost of actually enabling it.
fn bench_tracing(c: &mut Criterion) {
    let program = ehs_workloads::by_name("gsmd").unwrap().program();
    let trace = PowerTrace::constant_mw(50.0, 16);
    let run = |mode: TraceMode| {
        let mut cfg = SimConfig::builder()
            .ipex(Ipex::Both)
            .build()
            .with_trace_mode(mode);
        cfg.max_cycles = 60_000;
        let mut m = Machine::with_trace(cfg, &program, trace.clone());
        let _ = m.run();
        m.result().stats.instructions
    };
    c.bench_function("trace/machine_60k_off", |b| {
        b.iter(|| black_box(run(TraceMode::Off)));
    });
    c.bench_function("trace/machine_60k_counting", |b| {
        b.iter(|| black_box(run(TraceMode::Counting)));
    });
}

criterion_group!(
    benches,
    bench_cache,
    bench_prefetchers,
    bench_dispatch,
    bench_interpreter,
    bench_machine,
    bench_tracing
);
criterion_main!(benches);
