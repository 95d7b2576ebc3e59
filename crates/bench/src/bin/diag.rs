//! Deep-dive diagnostics for one workload (development aid, not a paper
//! figure).
//!
//! Usage: `diag [workload] [--trace [FILE]]`
//! (default workload `g721e`).
//!
//! With `--trace`, the IPEX(both) run is re-executed with the JSONL
//! event trace enabled (default file `results/<workload>.trace.jsonl`),
//! then the tool prints a short timeline excerpt, a per-power-cycle
//! stall/energy attribution table built from the
//! [`PowerCycleSummary`](ehs_sim::SimEvent) rollups, and a
//! reconciliation of the per-event tallies against the aggregate
//! counters of the same run.

use ehs_bench::{expect_ok, pct, run_one};
use ehs_sim::prelude::*;

fn main() {
    let mut name = String::from("g721e");
    let mut trace_to: Option<Option<String>> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        if a == "--trace" {
            let file = args.peek().filter(|n| !n.starts_with('-')).cloned();
            if file.is_some() {
                args.next();
            }
            trace_to = Some(file);
        } else if a.starts_with('-') {
            eprintln!("diag: unknown option `{a}`\nusage: diag [workload] [--trace [FILE]]");
            std::process::exit(2);
        } else {
            name = a;
        }
    }

    let w = ehs_workloads::by_name(&name).expect("workload name");
    let trace = SimConfig::default_trace();

    for (label, cfg) in [
        ("no-prefetch", SimConfig::builder().no_prefetch().build()),
        ("baseline", SimConfig::builder().build()),
        ("ipex-both", SimConfig::builder().ipex(Ipex::Both).build()),
    ] {
        let r = expect_ok(&name, &cfg, run_one(w, &cfg, &trace));
        print_result(&name, label, &r);
    }

    if let Some(file) = trace_to {
        let path = file.unwrap_or_else(|| format!("results/{name}.trace.jsonl"));
        if let Some(dir) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(dir).expect("create trace dir");
        }
        traced_run(&name, w, &trace, &path);
    }
}

/// Re-runs the IPEX(both) configuration with a JSONL sink attached and
/// prints the timeline excerpt, attribution table, and reconciliation.
fn traced_run(name: &str, w: &ehs_workloads::Workload, trace: &PowerTrace, path: &str) {
    let cfg = SimConfig::builder()
        .ipex(Ipex::Both)
        .build()
        .with_trace_mode(TraceMode::Jsonl { path: path.into() });
    let mut machine = Machine::with_trace(cfg, &w.program(), trace.clone());
    let result = machine.run().expect("traced run completes");
    let counts = *machine.trace_counts();

    println!("=== {name} / ipex-both (traced) ===");
    println!("[trace written to {path}]");

    let text = std::fs::read_to_string(path).expect("read trace back");
    let events: Vec<SimEvent> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("trace line parses"))
        .collect();
    println!("{} events", events.len());

    timeline_excerpt(&events);
    attribution_table(&events);
    reconcile(&counts, &result);
}

/// Prints the first few outage-adjacent events as a human-readable
/// timeline.
fn timeline_excerpt(events: &[SimEvent]) {
    println!("\n-- timeline (first outage, up to 12 events) --");
    let Some(first_outage) = events
        .iter()
        .position(|e| matches!(e, SimEvent::OutageBegin { .. }))
    else {
        println!("(no outage in this run)");
        return;
    };
    let start = first_outage.saturating_sub(4);
    for ev in events.iter().skip(start).take(12) {
        println!("{:>12}  {}", ev.cycle(), describe(ev));
    }
}

fn describe(ev: &SimEvent) -> String {
    match *ev {
        SimEvent::OutageBegin { voltage, .. } => {
            format!("outage-begin          V={voltage:.3}")
        }
        SimEvent::BackupDone {
            dirty_blocks,
            backup_cycles,
            energy_nj,
            ..
        } => format!(
            "backup-done           {dirty_blocks} dirty blocks in {backup_cycles} cycles, {energy_nj:.1} nJ"
        ),
        SimEvent::Restore { power_cycle, .. } => {
            format!("restore               power cycle {power_cycle} begins")
        }
        SimEvent::PrefetchIssued { path, block, done_at, .. } => {
            format!("prefetch-issued  [{}]  block {block:#x} ready at {done_at}", path.letter())
        }
        SimEvent::PrefetchThrottled { path, count, .. } => {
            format!("prefetch-throttled [{}] {count} candidates dropped", path.letter())
        }
        SimEvent::PrefetchReissued { path, block, .. } => {
            format!("prefetch-reissued [{}] block {block:#x}", path.letter())
        }
        SimEvent::BufferHit { path, block, late_by, .. } => {
            format!("buffer-hit       [{}]  block {block:#x} late_by {late_by}", path.letter())
        }
        SimEvent::LatePrefetch { path, block, stall_cycles, .. } => {
            format!("late-prefetch    [{}]  block {block:#x} stalled {stall_cycles}", path.letter())
        }
        SimEvent::EvictedUnused { path, block, .. } => {
            format!("evicted-unused   [{}]  block {block:#x}", path.letter())
        }
        SimEvent::LostUnused { path, count, .. } => {
            format!("lost-unused      [{}]  {count} entries", path.letter())
        }
        SimEvent::CacheFill { path, block, .. } => {
            format!("cache-fill       [{}]  block {block:#x}", path.letter())
        }
        SimEvent::Writeback { path, block, .. } => {
            format!("writeback        [{}]  block {block:#x}", path.letter())
        }
        SimEvent::ThresholdCross { path, voltage, old_degree, new_degree, .. } => format!(
            "threshold-cross  [{}]  V={voltage:.3} degree {old_degree} -> {new_degree}",
            path.letter()
        ),
        SimEvent::PolicyAdapt { path, adaptations, .. } => format!(
            "policy-adapt     [{}]  adaptation #{adaptations}",
            path.letter()
        ),
        SimEvent::PowerCycleSummary { power_cycle, on_cycles, off_cycles, .. } => format!(
            "power-cycle-summary   #{power_cycle}: on {on_cycles} off {off_cycles}"
        ),
    }
}

/// Prints per-power-cycle on/off time, energy buckets and throttle rate
/// from the `PowerCycleSummary` rollups.
fn attribution_table(events: &[SimEvent]) {
    println!("\n-- per-power-cycle attribution --");
    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "pc", "on", "off", "cache nJ", "mem nJ", "comp nJ", "bkrst nJ", "thr rate"
    );
    let mut shown = 0usize;
    let summaries: Vec<&SimEvent> = events
        .iter()
        .filter(|e| matches!(e, SimEvent::PowerCycleSummary { .. }))
        .collect();
    let total = summaries.len();
    for ev in &summaries {
        if let SimEvent::PowerCycleSummary {
            power_cycle,
            on_cycles,
            off_cycles,
            cache_nj,
            memory_nj,
            compute_nj,
            backup_restore_nj,
            throttle_rate,
            ..
        } = ev
        {
            if shown == 10 && total > 12 {
                println!("{:>6}", format!("(+{})", total - 12));
            }
            if shown < 10 || shown >= total.saturating_sub(2) {
                println!(
                    "{power_cycle:>6} {on_cycles:>12} {off_cycles:>12} {cache_nj:>10.1} {memory_nj:>10.1} {compute_nj:>10.1} {backup_restore_nj:>10.1} {:>9}",
                    pct(*throttle_rate)
                );
            }
            shown += 1;
        }
    }
}

/// Checks the per-event tallies against the aggregate statistics of the
/// same run; any mismatch is a simulator bug.
fn reconcile(c: &EventCounts, r: &SimResult) {
    println!("\n-- trace/aggregate reconciliation --");
    let mut ok = true;
    for (what, lhs, rhs) in c.reconcile(r) {
        let mark = if lhs == rhs { "ok " } else { "FAIL" };
        ok &= lhs == rhs;
        println!("{mark}  {what}: {lhs} vs {rhs}");
    }
    assert!(ok, "trace does not reconcile with aggregates");
    println!("all reconciliation checks passed");
}

fn print_result(name: &str, label: &str, r: &SimResult) {
    println!("=== {name} / {label} ===");
    println!(
        "cycles total {} on {} off {}  pcycles {}  instr {}",
        r.stats.total_cycles,
        r.stats.on_cycles,
        r.stats.off_cycles,
        r.stats.power_cycles,
        r.stats.instructions
    );
    println!(
        "stall I {} D {}   demand reads I {} D {}",
        pct(r.stats.istall_fraction()),
        pct(r.stats.dstall_fraction()),
        r.stats.i_demand_reads,
        r.stats.d_demand_reads
    );
    println!(
        "NVM: demand {} prefetch {} writes {}  (traffic {})",
        r.nvm.demand_reads,
        r.nvm.prefetch_reads,
        r.nvm.writes,
        r.nvm.total_traffic()
    );
    for (side, b) in [("I", r.ibuf), ("D", r.dbuf)] {
        println!(
            "{side}buf: inserted {} useful {} evicted_unused {} lost_unused {} dupSupp {} redundant {} acc {}",
            b.inserted,
            b.useful,
            b.evicted_unused,
            b.lost_unused,
            b.duplicate_suppressed,
            b.redundant_skipped,
            pct(b.accuracy())
        );
    }
    println!("redundant cache skips {}", r.stats.redundant_cache_skips);
    println!(
        "energy nJ: cache {:.0} mem {:.0} compute {:.0} bkrst {:.0} total {:.0}",
        r.energy.cache_nj,
        r.energy.memory_nj,
        r.energy.compute_nj,
        r.energy.backup_restore_nj,
        r.energy.total_nj()
    );
    for (side, s) in [("I", r.ipex_i), ("D", r.ipex_d)] {
        if let Some(s) = s {
            println!(
                "IPEX {side}: issued {} throttled {} ({}) reissued {} savingEntries {} thrLow {} thrRaise {}",
                s.issued,
                s.throttled,
                pct(s.overall_throttle_rate()),
                s.reissued,
                s.saving_mode_entries,
                s.threshold_lowers,
                s.threshold_raises
            );
        }
    }
    println!();
}
