//! Golden-state snapshot corpus drift test.
//!
//! Each committed file under `tests/corpus/snapshots/` is the complete
//! machine state of one (workload, configuration) pair at a fixed cycle
//! under a fixed weak supply (see `ehs_repro::verify::snapcorpus`).
//! Regenerating every entry from cold must reproduce the committed
//! bytes exactly: any change to instruction timing, energy accounting,
//! cache/prefetcher behaviour or outage handling shifts at least one
//! field and fails here — with a field-level diff, so the first drifted
//! quantity is named directly instead of buried in 30 kB of JSON.
//!
//! Intentional behaviour changes regenerate the corpus
//! (`cargo run --release -p ehs-bench --bin regen_snapshots`) and
//! commit the diff alongside the change.
//!
//! The committed entries also serve as realistic outside input for
//! resume: one edited value that disagrees with the entry's own
//! configuration must be rejected by `Machine::resume`.

use ehs_repro::energy::PowerTrace;
use ehs_repro::ipex::PolicyState;
use ehs_repro::prefetch::PrefetcherState;
use ehs_repro::sim::canon::content_diff;
use ehs_repro::sim::{Machine, Snapshot};
use ehs_repro::verify::{run_parallel, snapcorpus};

#[test]
fn snapshot_corpus_has_not_drifted() {
    let dir = snapcorpus::corpus_dir();
    let specs = snapcorpus::specs();
    assert_eq!(specs.len(), 15);
    let checks = run_parallel(&specs, |spec| {
        let path = dir.join(spec.file_name());
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (run regen_snapshots)", path.display()));
        let fresh = snapcorpus::generate(spec);
        (spec.file_name(), committed, fresh)
    });
    let mut drifted = Vec::new();
    for (name, committed, fresh) in checks {
        if committed == snapcorpus::render(&fresh) {
            continue;
        }
        // Byte mismatch: name the drifted fields, not the whole file.
        let diff = match Snapshot::from_json(&committed) {
            Ok(old) => content_diff(&old, &fresh).join("\n    "),
            Err(e) => format!("committed file no longer parses: {e}"),
        };
        drifted.push(format!("  {name}:\n    {diff}"));
    }
    assert!(
        drifted.is_empty(),
        "{} of 15 golden snapshots drifted (intentional? rerun regen_snapshots and \
         commit the diff):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

#[test]
fn corpus_entries_capture_post_outage_state() {
    // The corpus supply is weak by construction; every committed entry
    // must have survived at least one outage, so backup/restore and
    // recharge state is pinned too.
    let dir = snapcorpus::corpus_dir();
    for spec in snapcorpus::specs() {
        let path = dir.join(spec.file_name());
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (run regen_snapshots)", path.display()));
        let snap = Snapshot::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            snap.stats.power_cycles > 1,
            "{}: captured before any outage (power_cycles = {})",
            spec.file_name(),
            snap.stats.power_cycles
        );
        // The capture lands at the first pause point at or after the
        // target cycle (instruction latencies and recharge ticks are
        // indivisible), so allow the sub-tick overshoot.
        assert!(
            snap.cycle >= snapcorpus::SNAP_CYCLE && snap.cycle < snapcorpus::SNAP_CYCLE + 10_000,
            "{}: captured at cycle {}",
            spec.file_name(),
            snap.cycle
        );
    }
}

/// Loads one committed corpus entry, checks it resumes as committed,
/// applies `edit`, and returns what resuming the edited snapshot gives.
fn resume_edited(
    file: &str,
    edit: impl FnOnce(&mut Snapshot),
) -> Result<Machine, ehs_repro::sim::SnapshotError> {
    let spec = snapcorpus::specs()
        .into_iter()
        .find(|s| s.file_name() == file)
        .unwrap_or_else(|| panic!("{file} is not a corpus entry"));
    let text = std::fs::read_to_string(snapcorpus::corpus_dir().join(file)).unwrap();
    let mut snap = Snapshot::from_json(&text).unwrap();
    let program = ehs_repro::workloads::by_name(spec.workload)
        .unwrap()
        .program();
    let trace = PowerTrace::constant_mw(snapcorpus::TRACE_MW, snapcorpus::TRACE_SAMPLES);
    assert!(
        Machine::resume(&snap, &program, trace.clone()).is_ok(),
        "{file} must resume unedited"
    );
    edit(&mut snap);
    Machine::resume(&snap, &program, trace)
}

/// Rewrites one `"field":value` pair in the compact JSON of a
/// prefetcher state (whose fields are private to its crate).
fn edit_prefetcher(state: &mut PrefetcherState, from: &str, to: &str) {
    let json = serde_json::to_string(&*state).unwrap();
    assert_eq!(json.matches(from).count(), 1, "{from} in {json}");
    *state = serde_json::from_str(&json.replace(from, to)).unwrap();
}

/// A stride table mask wider than its 16-entry table used to resume and
/// then index past the table mid-run.
#[test]
fn stride_index_mask_beyond_the_table_is_rejected_at_resume() {
    let err = resume_edited("qsort-baseline.json", |snap| {
        edit_prefetcher(&mut snap.dpf, "\"index_mask\":15", "\"index_mask\":31")
    })
    .err()
    .expect("index_mask 31 over a 16-entry table must be rejected");
    assert!(err.to_string().contains("dpf"), "{err}");
}

/// A stride degree other than the configured `prefetch_degree` used to
/// resume and run silently with the snapshot's degree.
#[test]
fn stride_degree_differing_from_the_config_is_rejected_at_resume() {
    let err = resume_edited("qsort-baseline.json", |snap| {
        assert_eq!(snap.cfg.prefetch_degree, 2);
        edit_prefetcher(&mut snap.dpf, "\"degree\":2", "\"degree\":1")
    })
    .err()
    .expect("stride degree 1 under prefetch_degree 2 must be rejected");
    assert!(err.to_string().contains("degree"), "{err}");
}

/// An IPEX controller state whose own (valid) configuration differs from
/// the snapshot's `cfg` used to resume and run under the state's copy.
#[test]
fn ipex_config_differing_from_the_config_is_rejected_at_resume() {
    let err = resume_edited("basicm-ipex_both.json", |snap| {
        let PolicyState::Ipex(state) = &mut snap.ithrottle else {
            panic!("IPEX entry holds a non-IPEX throttle state");
        };
        assert_eq!(state.cfg.max_top_threshold_v, 3.38);
        state.cfg.max_top_threshold_v = 3.39;
    })
    .err()
    .expect("an IPEX state config differing from cfg must be rejected");
    assert!(err.to_string().contains("ithrottle"), "{err}");
}

/// An NVM too small for the program used to panic while loading it
/// inside `Machine::resume` instead of returning an error.
#[test]
fn nvm_too_small_for_the_program_is_rejected_at_resume() {
    for size_bytes in [65536, 4096, 8] {
        let err = resume_edited("gsmd-baseline.json", |snap| {
            snap.cfg.nvm.size_bytes = size_bytes;
        })
        .err()
        .unwrap_or_else(|| panic!("an NVM of {size_bytes} bytes must be rejected"));
        assert!(err.to_string().contains("nvm.size_bytes"), "{err}");
    }
}

/// A configuration value `SimConfig::validate` rejects used to
/// resume: a gsmd snapshot with a `u64::MAX` ALU latency resumed and,
/// run on, wrapped the cycle counter and reported completion at an
/// early cycle.
#[test]
fn config_the_builder_rejects_is_rejected_at_resume() {
    let err = resume_edited("gsmd-baseline.json", |snap| {
        snap.cfg.latencies[0] = u64::MAX;
    })
    .err()
    .expect("a u64::MAX latency must be rejected");
    assert!(err.to_string().contains("latencies"), "{err}");
}

/// A snapshot naming a data prefetcher this build does not model (here
/// a kind outside the paper's Table 4) is an error from
/// `Snapshot::from_json`, not a panic and not a silent fallback.
#[test]
fn unknown_data_prefetcher_kind_is_rejected_at_parse() {
    let path = snapcorpus::corpus_dir().join("qsort-baseline.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let field = "\"data_prefetcher\": \"stride\"";
    assert_eq!(text.matches(field).count(), 1, "{}", path.display());
    let edited = text.replace(field, "\"data_prefetcher\": \"ampm\"");
    assert!(Snapshot::from_json(&edited).is_err());
}
