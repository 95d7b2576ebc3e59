//! Tracing invariants: conservation of prefetch events, reconciliation
//! with the aggregate statistics, and JSONL determinism/round-tripping.

use std::io::Write;
use std::sync::{Arc, Mutex};

use ehs_isa::{asm, Program};
use ehs_sim::prelude::*;
use proptest::prelude::*;

/// ~60k cycles of streaming loads/stores: enough to exercise prefetch
/// buffers, and to span several power cycles under weak harvested power.
fn streaming_program() -> Program {
    asm::assemble(
        r#"
        .text
        main:
            li   t0, 0
            li   t1, 6000
            la   a1, buf
        loop:
            andi t4, t0, 255
            slli t2, t4, 2
            add  t2, a1, t2
            sw   t0, 0(t2)
            lw   t3, 0(t2)
            add  a0, a0, t3
            addi t0, t0, 1
            blt  t0, t1, loop
            halt
        .data
        buf: .space 1024
        "#,
    )
    .unwrap()
}

fn preset(which: u8) -> SimConfig {
    match which {
        0 => SimConfig::builder().no_prefetch().build(),
        1 => SimConfig::default(),
        2 => SimConfig::builder().ipex(Ipex::Both).build(),
        _ => SimConfig::builder().ipex(Ipex::Data).build(),
    }
}

/// Asserts the conservation bounds on the per-event tallies and every
/// identity of [`EventCounts::reconcile`].
fn assert_reconciles(c: &EventCounts, r: &SimResult, buffer_entries: u64) {
    // Conservation: every issued prefetch is eventually a buffer hit, an
    // unused eviction, an outage loss — or still resident at halt.
    let consumed = c.buffer_hit + c.evicted_unused + c.lost_unused;
    assert!(
        c.prefetch_issued >= consumed,
        "more consumptions ({consumed}) than issues ({})",
        c.prefetch_issued
    );
    let resident = c.prefetch_issued - consumed;
    assert!(
        resident <= 2 * buffer_entries,
        "residual {resident} exceeds both buffers' capacity"
    );

    for (identity, lhs, rhs) in c.reconcile(r) {
        assert_eq!(lhs, rhs, "{identity}");
    }
}

proptest! {
    /// Event tallies reconcile with the aggregate statistics for any
    /// supply strength and any prefetch configuration.
    #[test]
    fn event_counts_reconcile_with_aggregates(
        mw in 2.0f64..12.0,
        which in 0u8..4,
    ) {
        let cfg = preset(which).with_trace_mode(TraceMode::Counting);
        let buffer_entries = cfg.prefetch_buffer_entries as u64;
        let trace = PowerTrace::constant_mw(mw, 16);
        let mut m = Machine::with_trace(cfg, &streaming_program(), trace);
        let r = m.run().expect("completes under >=2 mW");
        assert_reconciles(m.trace_counts(), &r, buffer_entries);
    }
}

/// A cloneable in-memory writer, to retrieve what a [`JsonlSink`] wrote
/// after the machine consumed the sink.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn traced_jsonl_run(cfg: &SimConfig, mw: f64) -> (Vec<u8>, EventCounts, SimResult) {
    let trace = PowerTrace::constant_mw(mw, 16);
    let buf = SharedBuf::default();
    let mut m = Machine::with_trace(cfg.clone(), &streaming_program(), trace);
    m.set_trace_sink(Box::new(JsonlSink::new(buf.clone())));
    let r = m.run().expect("completes");
    let counts = *m.trace_counts();
    (buf.contents(), counts, r)
}

#[test]
fn jsonl_trace_is_deterministic_and_round_trips() {
    let cfg = SimConfig::builder().ipex(Ipex::Both).build();
    // 3 mW forces several outages on the streaming program.
    let (bytes_a, counts_a, result_a) = traced_jsonl_run(&cfg, 3.0);
    let (bytes_b, counts_b, result_b) = traced_jsonl_run(&cfg, 3.0);

    // Determinism: two identical runs emit byte-identical traces and
    // identical tallies.
    assert_eq!(bytes_a, bytes_b);
    assert_eq!(counts_a, counts_b);
    assert_eq!(result_a.stats, result_b.stats);

    // Round-trip: every line parses as a SimEvent and re-serializes to
    // the same text; cycle stamps never decrease; replaying the events
    // rebuilds the tallies exactly.
    let text = String::from_utf8(bytes_a).expect("trace is UTF-8");
    let mut replayed = EventCounts::default();
    let mut last_cycle = 0u64;
    let mut lines = 0u64;
    for line in text.lines() {
        let ev: SimEvent = serde_json::from_str(line).expect("line parses");
        assert_eq!(serde_json::to_string(&ev).unwrap(), line);
        assert!(ev.cycle() >= last_cycle, "cycle stamps must be monotone");
        last_cycle = ev.cycle();
        replayed.record(&ev);
        lines += 1;
    }
    assert!(lines > 0, "an outage-heavy run must emit events");
    assert_eq!(replayed, counts_a);
    assert_reconciles(&counts_a, &result_a, cfg.prefetch_buffer_entries as u64);
}

#[test]
fn trace_mode_jsonl_writes_the_configured_file() {
    let path = std::env::temp_dir().join(format!("ehs-trace-test-{}.jsonl", std::process::id()));
    let cfg = SimConfig::builder()
        .ipex(Ipex::Both)
        .build()
        .with_trace_mode(TraceMode::Jsonl {
            path: path.to_str().unwrap().into(),
        });
    let trace = PowerTrace::constant_mw(3.0, 16);
    let mut m = Machine::with_trace(cfg, &streaming_program(), trace);
    let r = m.run().expect("completes");
    let text = std::fs::read_to_string(&path).expect("trace file exists");
    std::fs::remove_file(&path).ok();
    let events: u64 = text
        .lines()
        .map(|l| {
            serde_json::from_str::<SimEvent>(l).expect("line parses");
            1
        })
        .sum();
    assert!(events > 0);
    assert!(r.stats.power_cycles > 1, "3 mW must force outages");
}

#[test]
fn disabled_tracing_records_nothing() {
    let trace = PowerTrace::constant_mw(5.0, 16);
    let mut m = Machine::with_trace(
        SimConfig::builder().ipex(Ipex::Both).build(),
        &streaming_program(),
        trace,
    );
    m.run().expect("completes");
    assert_eq!(*m.trace_counts(), EventCounts::default());
}
